// Serving demo: train a small AMS model, export it as an AMSMODEL1
// artifact, load the artifact into the batched inference server, score a
// quarter of requests, hot-swap a second model via the mtime reload
// watcher, serve the same model over a loopback AMSNET1 socket (including
// a deliberately overloaded burst that demonstrates load shedding), and
// print the serve/* telemetry the run recorded along the way.
//
// Usage: serving_demo [--seed=42]
//
// Environment: AMS_SERVE_BATCH (micro-batch size, default 4) and
// AMS_SERVE_QUEUE (admission-queue bound, default 64) tune the server;
// AMS_SERVE_PORT / AMS_SERVE_DEADLINE_MS configure the network front (see
// README "Serving over the network"); AMS_TELEMETRY=text prints the full
// metrics report (including the serve/latency_ms p50/p95/p99) at exit;
// AMS_RUN_LEDGER=dir writes a run manifest whose "components" block carries
// the served model fingerprint.
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "data/features.h"
#include "data/generator.h"
#include "graph/company_graph.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "serve/artifact.h"
#include "serve/net_client.h"
#include "serve/net_server.h"
#include "serve/server.h"
#include "util/string_util.h"

using namespace ams;

namespace {

core::AmsModel TrainModel(const data::Dataset& train,
                          const data::Dataset& valid,
                          const graph::CompanyGraph& graph, uint64_t seed) {
  core::AmsConfig config;
  config.node_transform_layers = {16};
  config.gat.hidden_per_head = {4};
  config.gat.num_heads = 2;
  config.gat.out_features = 8;
  config.generator_hidden = {16};
  config.max_epochs = 40;
  config.patience = 10;
  config.seed = seed;
  core::AmsModel model(config);
  model.Fit(train, valid, graph).Abort("fit");
  return model;
}

}  // namespace

int main(int argc, char** argv) {
  obs::InstallExitReporter();
  const uint64_t seed = GetFlagU64(argc, argv, "seed", 42);

  // 1. Data and a fitted model (as in quickstart, but smaller).
  data::GeneratorConfig gen_config = data::GeneratorConfig::Defaults(
      data::DatasetProfile::kTransactionAmount, seed);
  gen_config.num_companies = 24;
  gen_config.num_sectors = 4;
  data::Panel panel = data::GenerateMarket(gen_config).MoveValue();
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
  core::AmsModel model = TrainModel(train, valid, graph, seed);

  // 2. Export the fitted model as a versioned, CRC-protected artifact.
  const std::string path = "/tmp/ams_serving_demo.amsmodel";
  serve::SaveAmsArtifact(path, model).Abort("save artifact");
  auto info = serve::ProbeArtifact(path);
  info.status().Abort("probe artifact");
  std::printf("artifact: %s kind=%s fingerprint=%s\n", path.c_str(),
              info.ValueOrDie().kind.c_str(),
              info.ValueOrDie().fingerprint.c_str());

  // 3. Serve it: load the artifact and score a batch of quarter blocks.
  serve::InferenceServer server;
  server.LoadArtifact(path).Abort("load artifact");
  std::printf("server: model version %d, batch<=%d, queue<=%d\n",
              server.model_version(), server.options().max_batch,
              server.options().max_queue);

  std::vector<la::Matrix> requests(16, test.x);
  auto results = server.ScoreBatch(requests);
  int ok = 0;
  for (const auto& result : results) {
    if (result.ok()) ++ok;
  }
  std::printf("scored %d/%zu requests; first company score %.6f\n", ok,
              results.size(), results[0].ValueOrDie()[0]);

  // 4. Hot reload, daemon-style: start the mtime watcher, overwrite the
  //    artifact, and wait for the background thread to swap it in —
  //    in-flight requests drain on the model that admitted them.
  server.StartReloadWatcher(path, /*interval_ms=*/20).Abort("start watcher");
  serve::SaveAmsArtifact(path, TrainModel(train, valid, graph, seed + 1))
      .Abort("save updated artifact");
  const auto reload_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.model_version() < 2 &&
         std::chrono::steady_clock::now() < reload_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  server.StopReloadWatcher();
  std::printf("hot reload (watched): now version %d fingerprint=%s\n",
              server.model_version(), server.model_fingerprint().c_str());
  auto rescored = server.Score(test.x);
  rescored.status().Abort("score after reload");
  std::printf("rescored on new model; first company score %.6f\n",
              rescored.ValueOrDie()[0]);

  // 5. The network front: the same model behind a loopback AMSNET1 socket,
  //    served by an inference server with a deliberately tiny admission
  //    queue. A burst of concurrent closed-loop clients overruns it, so some
  //    requests come back with the distinct kUnavailable shed status instead
  //    of hanging.
  serve::ServerOptions front_options;
  front_options.max_queue = 2;
  serve::InferenceServer front(front_options);
  front.LoadArtifact(path).Abort("load artifact");
  serve::NetServer net(&front, serve::NetServerOptions{});
  net.Start().Abort("start net server");
  std::printf("net: listening on 127.0.0.1:%d (queue=%d)\n", net.port(),
              front_options.max_queue);
  {
    serve::NetClient client(net.port());
    auto remote = client.Score(test.x);
    remote.status().Abort("score over socket");
    std::printf("net: scored over the socket; first company score %.6f\n",
                remote.ValueOrDie()[0]);
  }
  int net_ok = 0, net_shed = 0;
  {
    std::vector<std::thread> burst;
    std::mutex counts_mu;
    for (int t = 0; t < 8; ++t) {
      burst.emplace_back([&] {
        serve::NetClient client(net.port());
        for (int i = 0; i < 4; ++i) {
          auto result = client.Score(test.x);
          std::lock_guard<std::mutex> lock(counts_mu);
          if (result.ok()) {
            ++net_ok;
          } else if (result.status().code() == StatusCode::kUnavailable) {
            ++net_shed;
          }
        }
      });
    }
    for (auto& t : burst) t.join();
  }
  net.Stop();
  std::printf("net: burst of 32 -> ok=%d shed=%d (shedding is an answer, "
              "not a hang)\n",
              net_ok, net_shed);

  // 6. The serve/* instruments the run recorded.
  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Get().Snapshot();
  for (const auto& counter : snapshot.counters) {
    if (counter.name.rfind("serve/", 0) == 0) {
      std::printf("  %-40s %llu\n", counter.name.c_str(),
                  static_cast<unsigned long long>(counter.value));
    }
  }
  for (const auto& histogram : snapshot.histograms) {
    if (histogram.name.rfind("serve/latency_ms", 0) == 0) {
      std::printf("  %-40s p50=%.3fms p95=%.3fms p99=%.3fms\n",
                  histogram.name.c_str(), histogram.Percentile(0.5),
                  histogram.Percentile(0.95), histogram.Percentile(0.99));
    }
  }
  std::remove(path.c_str());
  return 0;
}
