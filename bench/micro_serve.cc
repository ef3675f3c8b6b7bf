// Microbenchmarks of the serving layer: AMSMODEL1 artifact encode/decode
// and save/load, AMSNET1 frame encode/decode (the per-request wire cost of
// the network front), single-request scoring latency, and batched scoring
// throughput at several micro-batch sizes (the latency-vs-batch-size curve
// that motivates AMS_SERVE_BATCH tuning). `BENCH_serve.json` in the repo
// root is the committed baseline; tools/check_serve.sh gates on it.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "ams/ams_model.h"
#include "data/features.h"
#include "data/generator.h"
#include "graph/company_graph.h"
#include "serve/artifact.h"
#include "serve/framing.h"
#include "serve/server.h"

namespace {

using namespace ams;

struct ServeBenchFixture {
  core::AmsModel model;
  robust::Checkpoint state;
  la::Matrix block;
};

/// One small fitted AMS model plus a request block, built once per process.
const ServeBenchFixture& Fixture() {
  static const ServeBenchFixture* fixture = [] {
    data::GeneratorConfig config = data::GeneratorConfig::Defaults(
        data::DatasetProfile::kTransactionAmount, 42);
    config.num_companies = 24;
    config.num_sectors = 4;
    data::Panel panel = data::GenerateMarket(config).MoveValue();
    data::FeatureBuilder builder(&panel, data::FeatureOptions{});
    data::Dataset train = builder.Build({4, 5, 6, 7, 8}).MoveValue();
    data::Dataset valid = builder.Build({9}).MoveValue();
    data::Dataset test = builder.Build({10}).MoveValue();
    const data::Standardizer standardizer = data::Standardizer::Fit(train);
    standardizer.Apply(&train);
    standardizer.Apply(&valid);
    standardizer.Apply(&test);
    graph::CorrelationGraphOptions graph_options;
    graph_options.top_k = 3;
    graph::CompanyGraph graph =
        graph::CompanyGraph::BuildFromRevenue(panel.RevenueHistories(8),
                                              graph_options)
            .MoveValue();
    core::AmsConfig cfg;
    cfg.node_transform_layers = {16};
    cfg.gat.hidden_per_head = {4};
    cfg.gat.num_heads = 2;
    cfg.gat.out_features = 8;
    cfg.generator_hidden = {16};
    cfg.max_epochs = 6;
    cfg.patience = 6;
    auto* fx = new ServeBenchFixture{core::AmsModel(cfg), {}, test.x};
    fx->model.Fit(train, valid, graph).Abort("bench fit");
    fx->state = fx->model.ExportState().MoveValue();
    return fx;
  }();
  return *fixture;
}

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void BM_ArtifactEncodeDecode(benchmark::State& state) {
  const ServeBenchFixture& fx = Fixture();
  for (auto _ : state) {
    const std::string bytes = serve::EncodeArtifact(fx.state);
    auto decoded = serve::DecodeArtifact(bytes);
    if (!decoded.ok()) state.SkipWithError("decode failed");
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_ArtifactEncodeDecode);

void BM_ArtifactSaveLoad(benchmark::State& state) {
  const ServeBenchFixture& fx = Fixture();
  const std::string path = TempPath("ams_bench_artifact.bin");
  for (auto _ : state) {
    serve::SaveAmsArtifact(path, fx.model).Abort("bench save");
    auto model = serve::LoadAmsArtifact(path);
    if (!model.ok()) state.SkipWithError("load failed");
    benchmark::DoNotOptimize(model);
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_ArtifactSaveLoad);

void BM_FrameEncodeScoreRequest(benchmark::State& state) {
  const ServeBenchFixture& fx = Fixture();
  for (auto _ : state) {
    const std::string wire = serve::EncodeScoreRequest(1, 250, fx.block);
    benchmark::DoNotOptimize(wire);
  }
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<int64_t>(serve::EncodeScoreRequest(1, 250, fx.block).size()));
}
BENCHMARK(BM_FrameEncodeScoreRequest);

void BM_FrameDecodeScoreRequest(benchmark::State& state) {
  const ServeBenchFixture& fx = Fixture();
  const std::string wire = serve::EncodeScoreRequest(1, 250, fx.block);
  const std::string_view body = std::string_view(wire).substr(4);
  for (auto _ : state) {
    auto frame = serve::DecodeFrame(body);
    if (!frame.ok()) state.SkipWithError("decode failed");
    benchmark::DoNotOptimize(frame);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(body.size()));
}
BENCHMARK(BM_FrameDecodeScoreRequest);

void BM_ScoreSingle(benchmark::State& state) {
  const ServeBenchFixture& fx = Fixture();
  serve::ServerOptions options;
  options.max_batch = 1;
  serve::InferenceServer server(options);
  server.LoadModel(core::AmsModel::FromState(fx.state).MoveValue())
      .Abort("bench load");
  for (auto _ : state) {
    auto scores = server.Score(fx.block);
    if (!scores.ok()) state.SkipWithError("score failed");
    benchmark::DoNotOptimize(scores);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScoreSingle);

void BM_ScoreBatch(benchmark::State& state) {
  const ServeBenchFixture& fx = Fixture();
  const int batch = static_cast<int>(state.range(0));
  serve::ServerOptions options;
  options.max_batch = batch;
  serve::InferenceServer server(options);
  server.LoadModel(core::AmsModel::FromState(fx.state).MoveValue())
      .Abort("bench load");
  const std::vector<la::Matrix> requests(batch, fx.block);
  for (auto _ : state) {
    auto results = server.ScoreBatch(requests);
    for (const auto& r : results) {
      if (!r.ok()) state.SkipWithError("score failed");
    }
    benchmark::DoNotOptimize(results);
  }
  // Requests per second, so the batch-size sweep reads as throughput.
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ScoreBatch)->Arg(1)->Arg(8)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
