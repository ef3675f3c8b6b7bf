// Network serving harness: AMSNET1 framing round-trips, socket end-to-end
// golden parity against in-process scoring, deterministic admission-control
// behaviour (shed on a full queue, deadline enforcement at admission and at
// batch formation), network fault injection with client-side retry
// recovery, the mtime reload watcher, and FromEnv diagnostics.
//
// Determinism recipe for the admission tests: slow_batch@serve=0 stalls the
// batcher on the first batch, right after it left the queue. Once that
// fault has fired (its robust/faults_injected counter moved), the bounded
// queue behind the stalled batch can be filled — and expired — on
// schedule.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ams/ams_model.h"
#include "data/features.h"
#include "data/generator.h"
#include "graph/company_graph.h"
#include "obs/metrics.h"
#include "robust/faults.h"
#include "serve/artifact.h"
#include "serve/framing.h"
#include "serve/net_client.h"
#include "serve/net_server.h"
#include "serve/server.h"
#include "util/logging.h"

namespace ams::serve {
namespace {

namespace fs = std::filesystem;

uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

::testing::AssertionResult BitIdentical(const std::vector<double>& a,
                                        const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (DoubleBits(a[i]) != DoubleBits(b[i])) {
      return ::testing::AssertionFailure() << "bit mismatch at " << i;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Two small fitted models (distinct fingerprints, for reload tests) + a
/// request block, built once per process.
struct Fixture {
  robust::Checkpoint state;
  robust::Checkpoint state_b;
  la::Matrix block;
};

const Fixture& GetFixture() {
  static const Fixture* fixture = [] {
    auto* fx = new Fixture();
    data::GeneratorConfig config = data::GeneratorConfig::Defaults(
        data::DatasetProfile::kTransactionAmount, 42);
    config.num_companies = 12;
    config.num_sectors = 3;
    data::Panel panel = data::GenerateMarket(config).MoveValue();
    data::FeatureBuilder builder(&panel, data::FeatureOptions{});
    data::Dataset train = builder.Build({4, 5}).MoveValue();
    data::Dataset valid = builder.Build({6}).MoveValue();
    const data::Standardizer standardizer = data::Standardizer::Fit(train);
    standardizer.Apply(&train);
    standardizer.Apply(&valid);
    graph::CorrelationGraphOptions graph_options;
    graph_options.top_k = 3;
    graph::CompanyGraph graph =
        graph::CompanyGraph::BuildFromRevenue(panel.RevenueHistories(4),
                                              graph_options)
            .MoveValue();
    core::AmsConfig cfg;
    cfg.node_transform_layers = {8};
    cfg.gat.hidden_per_head = {4};
    cfg.gat.num_heads = 2;
    cfg.gat.out_features = 4;
    cfg.generator_hidden = {8};
    cfg.max_epochs = 1;
    cfg.patience = 1;
    core::AmsModel model(cfg);
    model.Fit(train, valid, graph).Abort("fit net test model");
    fx->state = model.ExportState().MoveValue();
    core::AmsConfig cfg_b = cfg;
    cfg_b.seed = 43;
    core::AmsModel model_b(cfg_b);
    model_b.Fit(train, valid, graph).Abort("fit net test model B");
    fx->state_b = model_b.ExportState().MoveValue();
    data::Dataset test = builder.Build({7}).MoveValue();
    standardizer.Apply(&test);
    fx->block = test.x;
    return fx;
  }();
  return *fixture;
}

core::AmsModel FixtureModel() {
  return core::AmsModel::FromState(GetFixture().state).MoveValue();
}
core::AmsModel FixtureModelB() {
  return core::AmsModel::FromState(GetFixture().state_b).MoveValue();
}

std::string TempPath(const std::string& name) {
  return (fs::temp_directory_path() / ("ams_net_test_" + name)).string();
}

class NetTest : public ::testing::Test {
 protected:
  void SetUp() override { robust::FaultInjector::Get().Disarm(); }
  void TearDown() override { robust::FaultInjector::Get().Disarm(); }
};

// ---------------------------------------------------------------------------
// Framing round-trips.
// ---------------------------------------------------------------------------

TEST(NetFraming, ScoreRequestRoundTripIsBitExact) {
  const la::Matrix& block = GetFixture().block;
  const std::string wire = EncodeScoreRequest(77, 250, block);
  ASSERT_GT(wire.size(), 4u);
  auto frame = DecodeFrame(std::string_view(wire).substr(4));
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame.ValueOrDie().type, FrameType::kScoreRequest);
  EXPECT_EQ(frame.ValueOrDie().request_id, 77u);
  EXPECT_EQ(frame.ValueOrDie().deadline_ms, 250u);
  EXPECT_EQ(frame.ValueOrDie().rows, static_cast<uint32_t>(block.rows()));
  EXPECT_EQ(frame.ValueOrDie().cols, static_cast<uint32_t>(block.cols()));
  const std::vector<double> expected(block.data(),
                                     block.data() + block.rows() * block.cols());
  EXPECT_TRUE(BitIdentical(expected, frame.ValueOrDie().payload));
}

TEST(NetFraming, ResponseRoundTripCarriesStatusAndValues) {
  const std::vector<double> values = {1.5, -2.25, 0.0};
  const std::string ok_wire =
      EncodeResponse(FrameType::kScoreResponse, 5, Status::OK(), values);
  auto ok_frame = DecodeFrame(std::string_view(ok_wire).substr(4));
  ASSERT_TRUE(ok_frame.ok()) << ok_frame.status();
  EXPECT_EQ(ok_frame.ValueOrDie().status_code, 0u);
  EXPECT_TRUE(BitIdentical(values, ok_frame.ValueOrDie().values));

  const std::string err_wire =
      EncodeResponse(FrameType::kScoreResponse, 6,
                     Status::Unavailable("queue full"), {});
  auto err_frame = DecodeFrame(std::string_view(err_wire).substr(4));
  ASSERT_TRUE(err_frame.ok()) << err_frame.status();
  EXPECT_EQ(err_frame.ValueOrDie().status_code,
            static_cast<uint32_t>(StatusCode::kUnavailable));
  EXPECT_EQ(err_frame.ValueOrDie().message, "queue full");
  EXPECT_TRUE(err_frame.ValueOrDie().values.empty());
}

TEST(NetFraming, PrefixValidationRejectsHostileLengths) {
  EXPECT_FALSE(ParseFramePrefix(0).ok());
  EXPECT_FALSE(ParseFramePrefix(5).ok());          // below minimum frame
  EXPECT_TRUE(ParseFramePrefix(64).ok());
  EXPECT_TRUE(ParseFramePrefix(kMaxFrameBytes).ok());
  EXPECT_FALSE(ParseFramePrefix(kMaxFrameBytes + 1).ok());
  EXPECT_FALSE(ParseFramePrefix(0xFFFFFFFFu).ok());  // 4 GiB announcement
}

TEST(NetFraming, InfoRequestRoundTrip) {
  const std::string wire = EncodeInfoRequest(9);
  auto frame = DecodeFrame(std::string_view(wire).substr(4));
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame.ValueOrDie().type, FrameType::kInfoRequest);
  EXPECT_EQ(frame.ValueOrDie().request_id, 9u);
}

// ---------------------------------------------------------------------------
// End-to-end socket serving.
// ---------------------------------------------------------------------------

TEST_F(NetTest, SocketScoresAreBitIdenticalToInProcess) {
  InferenceServer inference{ServerOptions{}};
  ASSERT_TRUE(inference.LoadModel(FixtureModel()).ok());
  NetServer server(&inference, NetServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  const auto direct = inference.Score(GetFixture().block);
  ASSERT_TRUE(direct.ok());

  NetClient client(server.port());
  auto info = client.Info();
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info.ValueOrDie().rows, GetFixture().block.rows());
  EXPECT_EQ(info.ValueOrDie().cols, GetFixture().block.cols());
  EXPECT_EQ(info.ValueOrDie().model_version, 1);

  for (int i = 0; i < 8; ++i) {
    auto scores = client.Score(GetFixture().block);
    ASSERT_TRUE(scores.ok()) << scores.status();
    EXPECT_TRUE(BitIdentical(direct.ValueOrDie(), scores.ValueOrDie()));
  }
  server.Stop();
}

TEST_F(NetTest, UnloadedModelAnswersCleanFailedPrecondition) {
  InferenceServer inference{ServerOptions{}};
  NetServer server(&inference, NetServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  NetClient client(server.port());
  auto info = client.Info();
  EXPECT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kFailedPrecondition);
  auto scores = client.Score(la::Matrix(3, 3, 1.0));
  EXPECT_FALSE(scores.ok());
  EXPECT_EQ(scores.status().code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Admission control: shed and deadline, deterministically.
// ---------------------------------------------------------------------------

/// Server whose batcher stalls on its first batch (slow_batch@serve=0), so
/// a request sent once the stall began waits in the admission queue.
struct SlowRig {
  explicit SlowRig(int max_queue) {
    robust::FaultInjector::Get().Configure("slow_batch@serve=0").Abort("arm");
    ServerOptions options;
    options.max_queue = max_queue;
    inference = std::make_unique<InferenceServer>(options);
    inference->LoadModel(FixtureModel()).Abort("load");
    server = std::make_unique<NetServer>(inference.get(), NetServerOptions{});
    server->Start().Abort("start");
  }

  /// Sends one request from a background client and returns once the
  /// batcher has taken it and stalled; the client expects it to score.
  void OccupyBatcher() {
    obs::Counter& stalls = obs::MetricsRegistry::Get().GetCounter(
        "robust/faults_injected", {{"kind", "slow_batch"}});
    const uint64_t before = stalls.value();
    occupant = std::thread([this] {
      NetClient c(server->port());
      EXPECT_TRUE(c.Score(GetFixture().block).ok());
    });
    WaitFor([&] { return stalls.value() > before; });
  }

  /// Polls `done` for up to 10 s (the stall lasts far less).
  template <typename Pred>
  static void WaitFor(Pred done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(done());
  }

  ~SlowRig() {
    if (occupant.joinable()) occupant.join();
    server->Stop();
  }

  std::unique_ptr<InferenceServer> inference;
  std::unique_ptr<NetServer> server;
  std::thread occupant;
};

TEST_F(NetTest, ShedsWithUnavailableWhenQueueIsFull) {
  SlowRig rig(/*max_queue=*/1);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  obs::Counter& shed =
      registry.GetCounter("serve/requests", {{"outcome", "shed"}});
  const uint64_t shed_before = shed.value();

  // The first request holds the stalled batcher; the second fills the
  // one-slot queue; the third must be shed instantly.
  rig.OccupyBatcher();
  std::thread second([&] {
    NetClient c(rig.server->port());
    EXPECT_TRUE(c.Score(GetFixture().block).ok());
  });
  obs::Gauge& depth = registry.GetGauge("serve/net_queue_depth");
  SlowRig::WaitFor([&] { return depth.value() == 1.0; });

  NetClient overflow(rig.server->port());
  const auto start = std::chrono::steady_clock::now();
  auto result = overflow.Score(GetFixture().block);
  const double waited_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_LT(waited_ms, 150.0);  // shed responses never wait for capacity
  EXPECT_EQ(shed.value(), shed_before + 1);

  second.join();
  const double shed_rate = registry.GetGauge("serve/shed_rate").value();
  EXPECT_GT(shed_rate, 0.0);
  EXPECT_LE(shed_rate, 1.0);
}

TEST_F(NetTest, DeadlineExpiredInQueueIsAnsweredNotScored) {
  SlowRig rig(/*max_queue=*/4);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  obs::Counter& deadline =
      registry.GetCounter("serve/requests", {{"outcome", "deadline"}});
  obs::Counter& ok = registry.GetCounter("serve/requests", {{"outcome", "ok"}});
  const uint64_t deadline_before = deadline.value();
  const uint64_t ok_before = ok.value();

  // Queued behind the stalled batch with a 50ms budget: it must come back
  // kDeadlineExceeded from the check at batch formation, never scored.
  rig.OccupyBatcher();
  NetClient expired(rig.server->port());
  auto result = expired.ScoreWithDeadline(GetFixture().block, 50);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(deadline.value(), deadline_before + 1);
  rig.occupant.join();
  EXPECT_EQ(ok.value(), ok_before + 1);  // only the occupant was scored
}

TEST_F(NetTest, SlowPeerExpiresDeadlineAtAdmission) {
  InferenceServer inference{ServerOptions{}};
  ASSERT_TRUE(inference.LoadModel(FixtureModel()).ok());
  NetServer server(&inference, NetServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  // The stall (50ms) lands between the frame's first byte and admission,
  // so a 10ms deadline is already dead on arrival — enforced WITHOUT
  // queueing the request or touching the model.
  auto& injector = robust::FaultInjector::Get();
  ASSERT_TRUE(injector.Configure("slow_peer@net_read=0").ok());
  NetClient client(server.port());
  auto result = client.ScoreWithDeadline(GetFixture().block, 10);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  // The connection survives an expired deadline; the next request scores.
  auto again = client.Score(GetFixture().block);
  EXPECT_TRUE(again.ok()) << again.status();
  server.Stop();
}

// ---------------------------------------------------------------------------
// Network faults + client retry.
// ---------------------------------------------------------------------------

TEST_F(NetTest, ClientRetriesThroughDroppedWritesAndTornFrames) {
  InferenceServer inference{ServerOptions{}};
  ASSERT_TRUE(inference.LoadModel(FixtureModel()).ok());
  NetServer server(&inference, NetServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  const auto direct = inference.Score(GetFixture().block);
  ASSERT_TRUE(direct.ok());

  obs::Counter& injected =
      obs::MetricsRegistry::Get().GetCounter("robust/faults_injected");
  const uint64_t injected_before = injected.value();

  // Attempt 1 loses its response (conn_drop@net_write), attempt 2's request
  // arrives torn (torn_frame@net_read); attempt 3 must succeed, and the
  // recovered scores must still be bit-identical.
  auto& inj = robust::FaultInjector::Get();
  ASSERT_TRUE(inj.Configure("conn_drop@net_write=0,torn_frame@net_read=1").ok());
  NetClient client(server.port());
  auto scores = client.Score(GetFixture().block);
  ASSERT_TRUE(scores.ok()) << scores.status();
  EXPECT_TRUE(BitIdentical(direct.ValueOrDie(), scores.ValueOrDie()));
  EXPECT_EQ(injected.value(), injected_before + 2);
  server.Stop();
}

TEST_F(NetTest, ClientRetriesThroughDroppedAccept) {
  InferenceServer inference{ServerOptions{}};
  ASSERT_TRUE(inference.LoadModel(FixtureModel()).ok());
  NetServer server(&inference, NetServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  ASSERT_TRUE(
      robust::FaultInjector::Get().Configure("conn_drop@accept=0").ok());
  NetClient client(server.port());  // very first connection is dropped
  auto scores = client.Score(GetFixture().block);
  EXPECT_TRUE(scores.ok()) << scores.status();
  server.Stop();
}

TEST_F(NetTest, TransportFailureSurfacesAfterRetryBudget) {
  NetClientOptions options;
  options.max_attempts = 2;
  NetClient client(1, options);  // port 1: nothing listening
  auto result = client.Score(GetFixture().block);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

// ---------------------------------------------------------------------------
// Overload smoke: concurrent closed-loop clients against a tiny queue.
// ---------------------------------------------------------------------------

TEST_F(NetTest, OverloadYieldsOnlyCleanStatusesAndSomeShedding) {
  ServerOptions options;
  options.max_queue = 1;
  InferenceServer inference(options);
  ASSERT_TRUE(inference.LoadModel(FixtureModel()).ok());
  NetServer server(&inference, NetServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  std::atomic<uint64_t> ok{0}, shed{0}, other{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&] {
      NetClient client(server.port());
      const auto stop =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(400);
      while (std::chrono::steady_clock::now() < stop) {
        auto result = client.Score(GetFixture().block);
        if (result.ok()) {
          ++ok;
        } else if (result.status().code() == StatusCode::kUnavailable) {
          ++shed;
        } else {
          ++other;
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  server.Stop();

  EXPECT_GT(ok.load(), 0u);
  EXPECT_GT(shed.load(), 0u);  // 8 clients vs queue=1: must shed
  EXPECT_EQ(other.load(), 0u);  // never a crash, hang, or dirty error
}

// ---------------------------------------------------------------------------
// Reload watcher (mtime daemon).
// ---------------------------------------------------------------------------

TEST_F(NetTest, ReloadWatcherSwapsOnMtimeChangeAndCountsChecks) {
  const std::string path = TempPath("watched.amsmodel");
  ASSERT_TRUE(SaveAmsArtifact(path, FixtureModel()).ok());

  obs::Counter& checks =
      obs::MetricsRegistry::Get().GetCounter("serve/reload_checks");
  const uint64_t checks_before = checks.value();

  InferenceServer inference{ServerOptions{}};
  ASSERT_TRUE(inference.LoadArtifact(path).ok());
  ASSERT_TRUE(inference.StartReloadWatcher(path, /*interval_ms=*/20).ok());
  EXPECT_EQ(inference.StartReloadWatcher(path).code(),
            StatusCode::kFailedPrecondition);  // one watcher at a time
  EXPECT_EQ(inference.model_version(), 1);

  // Overwrite with a differently-seeded model: mtime moves, the
  // fingerprint differs, the watcher must swap it in unprompted.
  ASSERT_TRUE(SaveAmsArtifact(path, FixtureModelB()).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (inference.model_version() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(inference.model_version(), 2);
  EXPECT_GE(checks.value(), checks_before + 1);  // the daemon was probing

  inference.StopReloadWatcher();
  inference.StopReloadWatcher();  // idempotent
  fs::remove(path);
}

TEST_F(NetTest, ReloadWatcherShutdownJoinsCleanlyMidInterval) {
  const std::string path = TempPath("watched_join.amsmodel");
  ASSERT_TRUE(SaveAmsArtifact(path, FixtureModel()).ok());
  const auto start = std::chrono::steady_clock::now();
  {
    InferenceServer inference{ServerOptions{}};
    ASSERT_TRUE(inference.LoadArtifact(path).ok());
    // Long interval: the destructor must interrupt the wait, not ride it out.
    ASSERT_TRUE(inference.StartReloadWatcher(path, 60000.0).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  EXPECT_LT(elapsed_ms, 5000.0);  // nowhere near the 60s interval
  fs::remove(path);
}

TEST_F(NetTest, ReloadWatcherToleratesMissingFile) {
  const std::string path = TempPath("not_yet_there.amsmodel");
  fs::remove(path);
  InferenceServer inference{ServerOptions{}};
  ASSERT_TRUE(inference.LoadModel(FixtureModel()).ok());
  ASSERT_TRUE(inference.StartReloadWatcher(path, 10).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(inference.model_version(), 1);  // still serving, no error spiral
  inference.StopReloadWatcher();
}

// ---------------------------------------------------------------------------
// FromEnv diagnostics (satellite: unparseable values must warn, not vanish).
// ---------------------------------------------------------------------------

TEST_F(NetTest, FromEnvWarnsOnceEachForUnparseableValues) {
  std::ostringstream captured;
  SetLogSink(&captured);
  ::setenv("AMS_SERVE_QUEUE", "banana", 1);
  ::setenv("AMS_SERVE_DEADLINE_MS", "-5", 1);
  ::setenv("AMS_SERVE_BATCH", "1e", 1);
  const NetServerOptions net = NetServerOptions::FromEnv();
  const ServerOptions srv = ServerOptions::FromEnv();
  SetLogSink(nullptr);
  ::unsetenv("AMS_SERVE_QUEUE");
  ::unsetenv("AMS_SERVE_DEADLINE_MS");
  ::unsetenv("AMS_SERVE_BATCH");

  EXPECT_EQ(srv.max_queue, ServerOptions{}.max_queue);
  EXPECT_EQ(net.default_deadline_ms, NetServerOptions{}.default_deadline_ms);
  EXPECT_EQ(srv.max_batch, ServerOptions{}.max_batch);

  const std::string log = captured.str();
  for (const char* name :
       {"AMS_SERVE_QUEUE", "AMS_SERVE_DEADLINE_MS", "AMS_SERVE_BATCH"}) {
    const size_t first = log.find(name);
    EXPECT_NE(first, std::string::npos) << "no warning for " << name;
    EXPECT_EQ(log.find(name, first + 1), std::string::npos)
        << "more than one warning for " << name;
  }
  EXPECT_NE(log.find("banana"), std::string::npos);  // offending value shown
}

}  // namespace
}  // namespace ams::serve
