// Serving-layer harness: AMSMODEL1 artifact round-trips, golden-parity
// batched scoring, read-fault detection, and hot reload under load.
//
// The golden-parity suite is the PR's central claim: for every batch size
// and thread count, InferenceServer returns scores bit-identical to calling
// AmsModel::Predict in-process — and bit-identical to the committed golden
// file tests/golden/serve_predictions.txt. Regenerate the golden file after
// an *intentional* numeric change with:
//
//   AMS_UPDATE_GOLDEN=1 ./serve_test --gtest_filter='*Golden*'
//
// The reload-under-load test is the -DAMS_SANITIZE=thread target of
// tools/check_serve.sh: scoring threads hammer the server while the main
// thread hot-swaps models, and every response must match one of the two
// models exactly (drain-on-old-model, no torn reads).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ams/ams_model.h"
#include "data/features.h"
#include "data/generator.h"
#include "gbdt/gbdt.h"
#include "graph/company_graph.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/thread_pool.h"
#include "robust/atomic_io.h"
#include "robust/faults.h"
#include "serve/artifact.h"
#include "serve/server.h"

namespace ams::serve {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return (fs::temp_directory_path() / ("ams_serve_test_" + name)).string();
}

uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::string BitsHex(double v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(DoubleBits(v)));
  return buf;
}

::testing::AssertionResult BitIdentical(const std::vector<double>& a,
                                        const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (DoubleBits(a[i]) != DoubleBits(b[i])) {
      return ::testing::AssertionFailure()
             << "bit mismatch at " << i << ": " << BitsHex(a[i]) << " vs "
             << BitsHex(b[i]);
    }
  }
  return ::testing::AssertionSuccess();
}

/// Everything the suite needs from one expensive setup: a market panel, two
/// fitted AMS models (different configs, hence different fingerprints), and
/// per-quarter request blocks. Fit once per process; models are handed out
/// as bit-exact FromState copies.
struct Fixture {
  std::vector<la::Matrix> blocks;  // one request block per quarter
  robust::Checkpoint state_a;
  robust::Checkpoint state_b;
  int num_companies = 0;
  int num_features = 0;
};

const Fixture& GetFixture() {
  static const Fixture* fixture = [] {
    auto* fx = new Fixture();
    data::GeneratorConfig config = data::GeneratorConfig::Defaults(
        data::DatasetProfile::kTransactionAmount, 42);
    config.num_companies = 24;
    config.num_sectors = 4;
    data::Panel panel = data::GenerateMarket(config).MoveValue();

    data::FeatureBuilder builder(&panel, data::FeatureOptions{});
    data::Dataset train = builder.Build({4, 5, 6, 7, 8}).MoveValue();
    data::Dataset valid = builder.Build({9}).MoveValue();
    const data::Standardizer standardizer = data::Standardizer::Fit(train);
    standardizer.Apply(&train);
    standardizer.Apply(&valid);

    graph::CorrelationGraphOptions graph_options;
    graph_options.top_k = 3;
    graph::CompanyGraph graph =
        graph::CompanyGraph::BuildFromRevenue(panel.RevenueHistories(8),
                                              graph_options)
            .MoveValue();

    for (int quarter = 4; quarter <= 10; ++quarter) {
      data::Dataset ds = builder.Build({quarter}).MoveValue();
      standardizer.Apply(&ds);
      fx->blocks.push_back(ds.x);
    }
    fx->num_companies = config.num_companies;
    fx->num_features = train.num_features();

    core::AmsConfig cfg_a;
    cfg_a.node_transform_layers = {16};
    cfg_a.gat.hidden_per_head = {4};
    cfg_a.gat.num_heads = 2;
    cfg_a.gat.out_features = 8;
    cfg_a.generator_hidden = {16};
    cfg_a.max_epochs = 6;
    cfg_a.patience = 6;
    core::AmsModel model_a(cfg_a);
    model_a.Fit(train, valid, graph).Abort("fit model A");
    fx->state_a = model_a.ExportState().MoveValue();

    core::AmsConfig cfg_b = cfg_a;
    cfg_b.generator_hidden = {12};
    cfg_b.seed = 43;
    core::AmsModel model_b(cfg_b);
    model_b.Fit(train, valid, graph).Abort("fit model B");
    fx->state_b = model_b.ExportState().MoveValue();
    return fx;
  }();
  return *fixture;
}

core::AmsModel ModelA() {
  return core::AmsModel::FromState(GetFixture().state_a).MoveValue();
}
core::AmsModel ModelB() {
  return core::AmsModel::FromState(GetFixture().state_b).MoveValue();
}

/// One request block as the single-quarter Dataset AmsModel::Predict
/// consumes directly (the in-process reference the server must match).
data::Dataset BlockDataset(const la::Matrix& block) {
  data::Dataset dataset;
  dataset.x = block;
  dataset.y.assign(block.rows(), 0.0);
  dataset.meta.resize(block.rows());
  for (int i = 0; i < block.rows(); ++i) {
    dataset.meta[i].company = i;
    dataset.meta[i].quarter = 0;
  }
  return dataset;
}

std::vector<std::vector<double>> DirectPredictions(const core::AmsModel& model) {
  std::vector<std::vector<double>> out;
  for (const la::Matrix& block : GetFixture().blocks) {
    out.push_back(model.Predict(BlockDataset(block)).MoveValue());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Artifact format.
// ---------------------------------------------------------------------------

TEST(ServeArtifact, AmsRoundTripIsBitExact) {
  const std::string path = TempPath("ams_roundtrip.bin");
  core::AmsModel original = ModelA();
  ASSERT_TRUE(SaveAmsArtifact(path, original).ok());

  auto restored = LoadAmsArtifact(path);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored.ValueOrDie().ModelFingerprint().ValueOrDie(),
            original.ModelFingerprint().ValueOrDie());

  const auto direct = DirectPredictions(original);
  const auto loaded = DirectPredictions(restored.ValueOrDie());
  ASSERT_EQ(direct.size(), loaded.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_TRUE(BitIdentical(direct[i], loaded[i])) << "block " << i;
  }
  fs::remove(path);
}

TEST(ServeArtifact, ProbeReportsKindAndFingerprint) {
  const std::string path = TempPath("ams_probe.bin");
  core::AmsModel model = ModelA();
  ASSERT_TRUE(SaveAmsArtifact(path, model).ok());
  auto info = ProbeArtifact(path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.ValueOrDie().kind, "ams");
  EXPECT_EQ(info.ValueOrDie().fingerprint,
            model.ModelFingerprint().ValueOrDie());
  fs::remove(path);
}

TEST(ServeArtifact, RejectsCorruptionTruncationAndBadMagic) {
  const std::string path = TempPath("ams_corrupt.bin");
  ASSERT_TRUE(SaveAmsArtifact(path, ModelA()).ok());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream oss;
    oss << in.rdbuf();
    bytes = oss.str();
  }
  auto write_raw = [&](const std::string& contents) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
  };

  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x40;
  write_raw(flipped);
  EXPECT_FALSE(LoadAmsArtifact(path).ok());  // CRC footer catches it

  write_raw(bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(LoadAmsArtifact(path).ok());  // truncation

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  // Re-footer so the corruption reaches the magic check, not the CRC.
  std::string payload = bad_magic.substr(0, bad_magic.size() - 16);
  write_raw(payload + robust::CrcFooter(payload));
  EXPECT_FALSE(LoadAmsArtifact(path).ok());

  write_raw(bytes);
  EXPECT_TRUE(LoadAmsArtifact(path).ok());  // pristine bytes still load
  fs::remove(path);
}

TEST(ServeArtifact, InjectedReadFaultsAreDetectedAndCounted) {
  const std::string path = TempPath("ams_readfault.bin");
  ASSERT_TRUE(SaveAmsArtifact(path, ModelA()).ok());

  auto& injector = robust::FaultInjector::Get();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  obs::Counter& crc_failures = registry.GetCounter("robust/crc_failures");
  obs::Counter& bit_flips = registry.GetCounter(
      "robust/faults_injected", {{"kind", "bit_flip"}});
  obs::Counter& partials = registry.GetCounter(
      "robust/faults_injected", {{"kind", "partial_read"}});

  const uint64_t crc_before = crc_failures.value();
  const uint64_t flips_before = bit_flips.value();
  ASSERT_TRUE(injector.Configure("bit_flip@read=0").ok());
  EXPECT_FALSE(LoadAmsArtifact(path).ok());
  EXPECT_EQ(bit_flips.value(), flips_before + 1);
  EXPECT_GT(crc_failures.value(), crc_before);

  const uint64_t partials_before = partials.value();
  ASSERT_TRUE(injector.Configure("partial_read@read=0").ok());
  EXPECT_FALSE(LoadAmsArtifact(path).ok());
  EXPECT_EQ(partials.value(), partials_before + 1);

  injector.Disarm();
  EXPECT_TRUE(LoadAmsArtifact(path).ok());  // fault-free read recovers
  fs::remove(path);
}

TEST(ServeArtifact, GbdtRoundTripIsBitExact) {
  // Small deterministic regression problem.
  const int n = 200, f = 5;
  la::Matrix x(n, f), y(n, 1);
  Rng rng(7);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < f; ++c) x(r, c) = rng.Uniform(-1.0, 1.0);
    y(r, 0) = 2.0 * x(r, 2) - x(r, 0) + 0.1 * rng.Normal();
  }
  gbdt::GbdtOptions options;
  options.num_rounds = 20;
  gbdt::GbdtRegressor model(options);
  ASSERT_TRUE(model.Fit(x, y).ok());

  const std::string path = TempPath("gbdt_roundtrip.bin");
  ASSERT_TRUE(SaveGbdtArtifact(path, model).ok());
  auto restored = LoadGbdtArtifact(path);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored.ValueOrDie().num_trees(), model.num_trees());

  auto info = ProbeArtifact(path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.ValueOrDie().kind, "gbdt");

  const auto direct = model.Predict(x).MoveValue();
  const auto loaded = restored.ValueOrDie().Predict(x).MoveValue();
  EXPECT_TRUE(BitIdentical(direct, loaded));
  fs::remove(path);
}

// ---------------------------------------------------------------------------
// Golden parity: server == in-process Predict == committed golden file,
// bit-for-bit, at batch sizes {1, 7, 64} x parallelism {1, 8}.
// ---------------------------------------------------------------------------

std::string GoldenPath() {
  return std::string(AMS_SOURCE_DIR) + "/tests/golden/serve_predictions.txt";
}

TEST(ServeGolden, ParityAcrossBatchSizesAndThreadCounts) {
  const Fixture& fx = GetFixture();
  const size_t num_blocks = fx.blocks.size();

  // In-process reference, computed at parallelism 1.
  par::SetDefaultParallelism(1);
  const auto direct = DirectPredictions(ModelA());

  if (std::getenv("AMS_UPDATE_GOLDEN") != nullptr) {
    std::ostringstream out;
    out << "# serve golden predictions: one line per quarter block, "
           "IEEE-754 bit patterns\n";
    for (size_t b = 0; b < num_blocks; ++b) {
      out << "block " << b;
      for (double v : direct[b]) out << " " << BitsHex(v);
      out << "\n";
    }
    std::ofstream file(GoldenPath(), std::ios::trunc);
    ASSERT_TRUE(file.good()) << "cannot write " << GoldenPath();
    file << out.str();
    GTEST_SKIP() << "golden file regenerated at " << GoldenPath();
  }

  // Committed golden file must match the in-process reference exactly.
  std::ifstream golden(GoldenPath());
  ASSERT_TRUE(golden.good())
      << "missing golden file; regenerate with AMS_UPDATE_GOLDEN=1";
  std::string line;
  size_t golden_blocks = 0;
  while (std::getline(golden, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream iss(line);
    std::string tag;
    size_t block = 0;
    iss >> tag >> block;
    ASSERT_EQ(tag, "block");
    ASSERT_LT(block, num_blocks);
    for (double v : direct[block]) {
      std::string hex;
      ASSERT_TRUE(static_cast<bool>(iss >> hex)) << "short golden line";
      EXPECT_EQ(hex, BitsHex(v)) << "golden drift in block " << block;
    }
    ++golden_blocks;
  }
  EXPECT_EQ(golden_blocks, num_blocks);

  // Server parity at every batch size and thread count. ScoreBatch admits
  // all requests under one queue-lock hold, so the greedy batcher forms
  // exactly floor(64 / max_batch) full batches plus one remainder batch.
  const int kRequests = 64;
  obs::Histogram& batch_size =
      obs::MetricsRegistry::Get().GetHistogram("serve/batch_size");
  for (int threads : {1, 8}) {
    par::SetDefaultParallelism(threads);
    for (int max_batch : {1, 7, 64}) {
      ServerOptions options;
      options.max_batch = max_batch;
      InferenceServer server(options);
      ASSERT_TRUE(server.LoadModel(ModelA()).ok());
      batch_size.Reset();

      std::vector<la::Matrix> requests;
      requests.reserve(kRequests);
      for (int r = 0; r < kRequests; ++r) {
        requests.push_back(fx.blocks[r % num_blocks]);
      }
      auto results = server.ScoreBatch(requests);
      ASSERT_EQ(results.size(), requests.size());
      for (int r = 0; r < kRequests; ++r) {
        ASSERT_TRUE(results[r].ok()) << results[r].status();
        EXPECT_TRUE(
            BitIdentical(results[r].ValueOrDie(), direct[r % num_blocks]))
            << "threads=" << threads << " max_batch=" << max_batch
            << " request=" << r;
      }
      const uint64_t full = kRequests / max_batch;
      const uint64_t batches = full + (kRequests % max_batch != 0 ? 1 : 0);
      EXPECT_EQ(batch_size.count(), batches) << "max_batch=" << max_batch;
      EXPECT_EQ(batch_size.sum(), kRequests) << "max_batch=" << max_batch;
      // The full batches share the bucket holding max_batch (1 | 8 | 64);
      // the remainder (64 % 7 = 1) lands below it.
      const std::vector<double>& bounds = batch_size.bucket_bounds();
      const size_t bucket =
          std::lower_bound(bounds.begin(), bounds.end(), max_batch) -
          bounds.begin();
      EXPECT_EQ(batch_size.bucket_counts()[bucket], full)
          << "max_batch=" << max_batch;
    }
  }
  par::SetDefaultParallelism(0);  // restore environment sizing
}

// ---------------------------------------------------------------------------
// Server behaviour.
// ---------------------------------------------------------------------------

// Predict writes no model state (the GAT keeps no attention cache), so
// concurrent calls on one instance must match serial calls bit for bit.
TEST(ServeServer, ConcurrentPredictOnOneModelMatchesSerial) {
  const core::AmsModel model = ModelA();
  const auto serial = DirectPredictions(model);
  constexpr int kThreads = 4;
  constexpr int kRounds = 5;
  std::vector<std::vector<std::vector<double>>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&model, &results, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (auto& block : DirectPredictions(model)) {
          results[t].push_back(std::move(block));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(results[t].size(), kRounds * serial.size());
    for (size_t i = 0; i < results[t].size(); ++i) {
      EXPECT_TRUE(BitIdentical(results[t][i], serial[i % serial.size()]))
          << "thread " << t << " call " << i;
    }
  }
}

TEST(ServeServer, RejectsUnloadedAndMisshapenRequests) {
  obs::Counter& rejected = obs::MetricsRegistry::Get().GetCounter(
      "serve/requests", {{"outcome", "error"}});
  const uint64_t before = rejected.value();

  InferenceServer server{ServerOptions{}};
  EXPECT_FALSE(server.has_model());
  auto no_model = server.Score(GetFixture().blocks[0]);
  EXPECT_FALSE(no_model.ok());
  EXPECT_EQ(no_model.status().code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(server.LoadModel(ModelA()).ok());
  EXPECT_TRUE(server.has_model());
  auto bad_shape = server.Score(la::Matrix(3, 3));
  EXPECT_FALSE(bad_shape.ok());
  EXPECT_EQ(bad_shape.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(rejected.value(), before + 2);

  auto good = server.Score(GetFixture().blocks[0]);
  EXPECT_TRUE(good.ok());
}

TEST(ServeServer, ScoringPopulatesServeMetrics) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  obs::Counter& ok_requests =
      registry.GetCounter("serve/requests", {{"outcome", "ok"}});
  obs::Counter& batches = registry.GetCounter("serve/batches");
  obs::Histogram& latency = registry.GetHistogram("serve/latency_ms");
  const uint64_t ok_before = ok_requests.value();
  const uint64_t batches_before = batches.value();
  const uint64_t latency_before = latency.count();

  InferenceServer server{ServerOptions{}};
  ASSERT_TRUE(server.LoadModel(ModelA()).ok());
  auto results = server.ScoreBatch(
      {GetFixture().blocks[0], GetFixture().blocks[1]});
  for (const auto& r : results) ASSERT_TRUE(r.ok());

  EXPECT_EQ(ok_requests.value(), ok_before + 2);
  EXPECT_GT(batches.value(), batches_before);
  EXPECT_EQ(latency.count(), latency_before + 2);
}

TEST(ServeServer, ReloadIfChangedSwapsOnlyOnFingerprintChange) {
  const std::string path = TempPath("reload.bin");
  ASSERT_TRUE(SaveAmsArtifact(path, ModelA()).ok());

  InferenceServer server{ServerOptions{}};
  ASSERT_TRUE(server.LoadArtifact(path).ok());
  const int v1 = server.model_version();
  const std::string fp_a = server.model_fingerprint();
  EXPECT_EQ(v1, 1);
  EXPECT_FALSE(fp_a.empty());

  // Same artifact: no swap.
  ASSERT_TRUE(server.ReloadIfChanged(path).ok());
  EXPECT_EQ(server.model_version(), v1);

  // New model under the same path: swap, new fingerprint.
  ASSERT_TRUE(SaveAmsArtifact(path, ModelB()).ok());
  ASSERT_TRUE(server.ReloadIfChanged(path).ok());
  EXPECT_EQ(server.model_version(), v1 + 1);
  EXPECT_NE(server.model_fingerprint(), fp_a);

  // The run ledger now carries the served model's identity.
  bool found = false;
  for (const auto& [key, value] : obs::LedgerComponents()) {
    if (key == "serve_model_fingerprint") {
      found = true;
      EXPECT_EQ(value, server.model_fingerprint());
    }
  }
  EXPECT_TRUE(found);
  fs::remove(path);
}

/// Arms slow_batch@serve=0 and admits one request, returning once the
/// batcher has taken it and stalled (kSlowBatchStallMs, 300 ms), so
/// requests admitted next wait in the queue behind it. `done` receives the
/// stalled request's outcome.
void StallBatcher(InferenceServer* server, InferenceServer::Callback done) {
  obs::Counter& stalls = obs::MetricsRegistry::Get().GetCounter(
      "robust/faults_injected", {{"kind", "slow_batch"}});
  const uint64_t before = stalls.value();
  auto& injector = robust::FaultInjector::Get();
  ASSERT_TRUE(injector.Configure("slow_batch@serve=0").ok());
  server->Admit(GetFixture().blocks[0],
                InferenceServer::Clock::time_point::max(), std::move(done));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (stalls.value() == before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(stalls.value(), before) << "the batcher never stalled";
}

/// Collects one Admit outcome for a test thread to wait on.
struct Outcome {
  std::mutex mu;
  std::condition_variable cv;
  std::optional<Result<std::vector<double>>> result;

  InferenceServer::Callback Callback() {
    return [this](Result<std::vector<double>> r) {
      std::lock_guard<std::mutex> lock(mu);
      result = std::move(r);
      cv.notify_all();
    };
  }
  Result<std::vector<double>> Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return result.has_value(); });
    return *result;
  }
};

TEST(ServeServer, DrainsAdmittedRequestsOnShutdown) {
  const Fixture& fx = GetFixture();
  obs::Gauge& depth =
      obs::MetricsRegistry::Get().GetGauge("serve/queue_depth");
  std::vector<std::thread> callers;
  std::atomic<int> drained{0};
  Outcome stalled;
  {
    InferenceServer server{ServerOptions{}};
    ASSERT_TRUE(server.LoadModel(ModelA()).ok());
    StallBatcher(&server, stalled.Callback());
    for (int i = 0; i < 7; ++i) {
      callers.emplace_back([&] {
        auto r = server.Score(fx.blocks[0]);
        EXPECT_TRUE(r.ok()) << r.status();
        if (r.ok()) drained.fetch_add(1);
      });
    }
    // Wait until all 7 sit admitted behind the stalled batch (the gauge is
    // updated under the queue lock), so no caller can touch the server
    // object after destruction begins.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (depth.value() < 7.0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(depth.value(), 7.0) << "requests were not all admitted";
    // Destructor runs here: it must score every admitted request — the
    // stalled one and the 7 queued behind it — before joining the batcher.
  }
  for (auto& t : callers) t.join();
  EXPECT_TRUE(stalled.Wait().ok());
  EXPECT_EQ(drained.load(), 7);
  robust::FaultInjector::Get().Disarm();
}

TEST(ServeServer, DeadlineExpiredInQueueIsAnsweredAtBatchFormation) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  obs::Counter& deadline_count =
      registry.GetCounter("serve/requests", {{"outcome", "deadline"}});
  obs::Histogram& compute = registry.GetHistogram("serve/compute_ms");
  const uint64_t deadline_before = deadline_count.value();
  const uint64_t compute_before = compute.count();

  InferenceServer server{ServerOptions{}};
  ASSERT_TRUE(server.LoadModel(ModelA()).ok());
  Outcome stalled, expired;
  StallBatcher(&server, stalled.Callback());
  // Alive at admission, dead long before the stalled batch lets the
  // batcher form the next one.
  server.Admit(GetFixture().blocks[1],
               InferenceServer::Clock::now() + std::chrono::milliseconds(20),
               expired.Callback());
  const auto result = expired.Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(result.status().message().find("in queue"), std::string::npos)
      << result.status();
  EXPECT_TRUE(stalled.Wait().ok());
  EXPECT_EQ(deadline_count.value(), deadline_before + 1);
  EXPECT_EQ(compute.count(), compute_before + 1);  // only the stalled one
  robust::FaultInjector::Get().Disarm();
}

TEST(ServeServer, FullAdmissionQueueShedsWithUnavailable) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  obs::Counter& shed =
      registry.GetCounter("serve/requests", {{"outcome", "shed"}});
  obs::Counter& ok = registry.GetCounter("serve/requests", {{"outcome", "ok"}});
  const uint64_t shed_before = shed.value();
  const uint64_t ok_before = ok.value();

  ServerOptions options;
  options.max_queue = 2;
  InferenceServer server(options);
  ASSERT_TRUE(server.LoadModel(ModelA()).ok());
  Outcome stalled;
  StallBatcher(&server, stalled.Callback());
  // Three blocks admitted at once behind the stalled batch: two fill the
  // queue, the third is shed.
  const std::vector<la::Matrix> blocks(3, GetFixture().blocks[0]);
  const auto results = server.ScoreBatch(blocks);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok()) << results[0].status();
  EXPECT_TRUE(results[1].ok()) << results[1].status();
  ASSERT_FALSE(results[2].ok());
  EXPECT_EQ(results[2].status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(stalled.Wait().ok());
  EXPECT_EQ(shed.value(), shed_before + 1);
  EXPECT_EQ(ok.value(), ok_before + 3);
  robust::FaultInjector::Get().Disarm();
}

TEST(ServeServer, HotReloadUnderLoadDrainsOnOldModel) {
  const Fixture& fx = GetFixture();
  core::AmsModel model_a = ModelA();
  core::AmsModel model_b = ModelB();
  const auto pred_a =
      model_a.Predict(BlockDataset(fx.blocks[0])).MoveValue();
  const auto pred_b =
      model_b.Predict(BlockDataset(fx.blocks[0])).MoveValue();
  // The two models must actually disagree for this test to mean anything.
  ASSERT_FALSE(BitIdentical(pred_a, pred_b));

  ServerOptions options;
  options.max_batch = 4;
  InferenceServer server(options);
  ASSERT_TRUE(server.LoadModel(ModelA()).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> scored{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> hammers;
  for (int i = 0; i < 4; ++i) {
    hammers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto result = server.Score(fx.blocks[0]);
        if (!result.ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        const std::vector<double>& scores = result.ValueOrDie();
        // Every response is exactly one model's output — never a blend.
        if (!BitIdentical(scores, pred_a) && !BitIdentical(scores, pred_b)) {
          mismatches.fetch_add(1);
        }
        scored.fetch_add(1);
      }
    });
  }

  const int kReloads = 20;
  for (int i = 0; i < kReloads; ++i) {
    ASSERT_TRUE(server.LoadModel(i % 2 == 0 ? ModelB() : ModelA()).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (auto& t : hammers) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(scored.load(), 0);
  EXPECT_EQ(server.model_version(), 1 + kReloads);
}

// ---------------------------------------------------------------------------
// Request-causal tracing across the batcher hop.
// ---------------------------------------------------------------------------

TEST(ServeTrace, RequestTraceLinksAcrossBatcherHop) {
  const Fixture& fx = GetFixture();
  obs::TraceBuffer& buffer = obs::TraceBuffer::Get();
  buffer.Clear();
  buffer.SetEnabled(true);
  {
    InferenceServer server{ServerOptions{}};
    ASSERT_TRUE(server.LoadModel(ModelA()).ok());
    auto result = server.Score(fx.blocks[0]);
    ASSERT_TRUE(result.ok()) << result.status();
  }
  buffer.SetEnabled(false);

  const std::vector<obs::SpanRecord> spans = buffer.Snapshot();
  const obs::SpanRecord* request = nullptr;
  for (const obs::SpanRecord& span : spans) {
    if (std::string(span.name) == "serve/request") {
      ASSERT_EQ(request, nullptr) << "one Score call, one serve/request";
      request = &span;
    }
  }
  ASSERT_NE(request, nullptr);
  EXPECT_EQ(request->parent_id, 0u);  // the request roots its trace

  // The queue/batch_form/compute phase spans parent directly under the
  // request span, run on the batcher thread, and carry the model version.
  int phases = 0;
  for (const obs::SpanRecord& span : spans) {
    const std::string name(span.name);
    if (name != "serve/queue" && name != "serve/batch_form" &&
        name != "serve/compute") {
      continue;
    }
    EXPECT_EQ(span.trace_id, request->trace_id) << name;
    EXPECT_EQ(span.parent_id, request->span_id) << name;
    EXPECT_EQ(span.arg, 1u) << name;  // first loaded model => version 1
    EXPECT_NE(span.thread_id, request->thread_id) << name;
    ++phases;
  }
  EXPECT_EQ(phases, 3);

  // The exporter binds the caller and batcher lanes with flow events.
  std::ostringstream out;
  obs::TraceExporter::WriteJson(spans, out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\",\"bp\":\"e\""), std::string::npos);
  buffer.Clear();
}

TEST(ServeTrace, PhaseHistogramsSumToLatencyWithinFivePercent) {
  const Fixture& fx = GetFixture();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  obs::Histogram& latency = registry.GetHistogram("serve/latency_ms");
  obs::Histogram& queue = registry.GetHistogram("serve/queue_ms");
  obs::Histogram& form = registry.GetHistogram("serve/batch_form_ms");
  obs::Histogram& compute = registry.GetHistogram("serve/compute_ms");
  latency.Reset();
  queue.Reset();
  form.Reset();
  compute.Reset();

  InferenceServer server{ServerOptions{}};
  ASSERT_TRUE(server.LoadModel(ModelA()).ok());
  for (int i = 0; i < 8; ++i) {
    auto results = server.ScoreBatch(
        {fx.blocks[0], fx.blocks[1], fx.blocks[2]});
    for (const auto& r : results) ASSERT_TRUE(r.ok()) << r.status();
  }

  // Every request observes all three phases exactly once, and the phases
  // partition admission -> compute-done: only the response fan-out (a few
  // callback runs) separates their sum from end-to-end latency.
  const uint64_t n = latency.count();
  EXPECT_EQ(n, 24u);
  EXPECT_EQ(queue.count(), n);
  EXPECT_EQ(form.count(), n);
  EXPECT_EQ(compute.count(), n);
  const double phase_sum = queue.sum() + form.sum() + compute.sum();
  EXPECT_LE(phase_sum, latency.sum());
  EXPECT_GT(phase_sum, 0.95 * latency.sum());
}

TEST(ServeTrace, HotReloadUnderLoadKeepsVersionAttribution) {
  const Fixture& fx = GetFixture();
  core::AmsModel model_a = ModelA();
  core::AmsModel model_b = ModelB();
  const auto pred_a =
      model_a.Predict(BlockDataset(fx.blocks[0])).MoveValue();
  const auto pred_b =
      model_b.Predict(BlockDataset(fx.blocks[0])).MoveValue();
  ASSERT_FALSE(BitIdentical(pred_a, pred_b));

  obs::TraceBuffer& buffer = obs::TraceBuffer::Get();
  buffer.Clear();
  buffer.SetEnabled(true);

  // Hammer threads tag each call with its own root span and record which
  // model's output the response was, keyed by trace id; the compute spans
  // recorded by the batcher must agree about the serving version.
  ServerOptions options;
  options.max_batch = 4;
  std::mutex map_mu;
  std::map<uint64_t, uint64_t> version_by_trace;
  std::atomic<bool> stop{false};
  std::atomic<int> unattributable{0};
  {
    InferenceServer server(options);
    ASSERT_TRUE(server.LoadModel(ModelA()).ok());  // version 1
    std::vector<std::thread> hammers;
    for (int i = 0; i < 4; ++i) {
      hammers.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          obs::ScopedSpan root("serve_trace_test/client_call");
          const uint64_t trace_id = root.context().trace_id;
          auto result = server.Score(fx.blocks[0]);
          if (!result.ok()) {
            unattributable.fetch_add(1);
            continue;
          }
          const std::vector<double>& scores = result.ValueOrDie();
          uint64_t version = 0;
          if (BitIdentical(scores, pred_a)) version = 1;
          if (BitIdentical(scores, pred_b)) version = 2;
          if (version == 0) {
            unattributable.fetch_add(1);
            continue;
          }
          std::lock_guard<std::mutex> lock(map_mu);
          version_by_trace[trace_id] = version;
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(server.LoadModel(ModelB()).ok());  // version 2
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stop.store(true);
    for (auto& t : hammers) t.join();
  }
  buffer.SetEnabled(false);
  EXPECT_EQ(unattributable.load(), 0);
  ASSERT_FALSE(version_by_trace.empty());

  int checked = 0;
  for (const obs::SpanRecord& span : buffer.Snapshot()) {
    if (std::string(span.name) != "serve/compute") continue;
    const auto it = version_by_trace.find(span.trace_id);
    if (it == version_by_trace.end()) continue;  // raced the stop flag
    EXPECT_EQ(span.arg, it->second) << "trace " << span.trace_id;
    ++checked;
  }
  EXPECT_GT(checked, 0);
  buffer.Clear();
}

TEST(ServeServer, OptionsFromEnvParsesAndClamps) {
  setenv("AMS_SERVE_BATCH", "32", 1);
  setenv("AMS_SERVE_QUEUE", "5", 1);
  ServerOptions options = ServerOptions::FromEnv();
  EXPECT_EQ(options.max_batch, 32);
  EXPECT_EQ(options.max_queue, 5);

  setenv("AMS_SERVE_BATCH", "0", 1);        // below minimum: keep default
  setenv("AMS_SERVE_QUEUE", "oops", 1);
  options = ServerOptions::FromEnv();
  EXPECT_EQ(options.max_batch, ServerOptions{}.max_batch);
  EXPECT_EQ(options.max_queue, ServerOptions{}.max_queue);

  unsetenv("AMS_SERVE_BATCH");
  unsetenv("AMS_SERVE_QUEUE");
}

}  // namespace
}  // namespace ams::serve
