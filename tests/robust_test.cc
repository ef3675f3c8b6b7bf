// Fault-tolerance suite: fault-spec parsing, CRC-protected atomic I/O,
// guarded training policies, checkpoint/resume for AMS training and HPO,
// retry-wrapped tasks, and the corrupt-cache regeneration fallback. Every
// fault here is injected deterministically via robust::FaultInjector, so
// the recovery paths run in CI on every build.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "ams/ams_model.h"
#include "data/cv.h"
#include "data/features.h"
#include "data/generator.h"
#include "graph/company_graph.h"
#include "la/stats.h"
#include "metrics/metrics.h"
#include "models/baselines.h"
#include "obs/metrics.h"
#include "models/experiment.h"
#include "models/hpo.h"
#include "par/thread_pool.h"
#include "robust/atomic_io.h"
#include "robust/checkpoint.h"
#include "robust/faults.h"
#include "robust/guard.h"
#include "robust/retry.h"

namespace ams {
namespace {

namespace fs = std::filesystem;

/// Every test leaves the process-wide injector disarmed, so test order
/// cannot leak armed faults across cases.
class RobustTest : public ::testing::Test {
 protected:
  void SetUp() override { robust::FaultInjector::Get().Disarm(); }
  void TearDown() override { robust::FaultInjector::Get().Disarm(); }

  std::string TempPath(const std::string& name) {
    const fs::path dir = fs::temp_directory_path() / "ams_robust_test";
    fs::create_directories(dir);
    return (dir / name).string();
  }
};

// --- Fault-spec grammar. ---

TEST_F(RobustTest, ParsesWellFormedFaultSpec) {
  auto faults = robust::ParseFaultSpec(
      "nan_grad@epoch=3;task_throw@index=7;io_truncate@write=2");
  ASSERT_TRUE(faults.ok()) << faults.status();
  ASSERT_EQ(faults.ValueOrDie().size(), 3u);
  EXPECT_EQ(faults.ValueOrDie()[0].kind, robust::FaultKind::kNanGrad);
  EXPECT_EQ(faults.ValueOrDie()[0].at, 3);
  EXPECT_EQ(faults.ValueOrDie()[1].kind, robust::FaultKind::kTaskThrow);
  EXPECT_EQ(faults.ValueOrDie()[1].at, 7);
  EXPECT_EQ(faults.ValueOrDie()[2].kind, robust::FaultKind::kIoTruncate);
  EXPECT_EQ(faults.ValueOrDie()[2].at, 2);
}

TEST_F(RobustTest, ParsesCrashKindsAndTolerantOfSpaces) {
  auto faults =
      robust::ParseFaultSpec("train_crash@epoch=5; hpo_crash@trial=1");
  ASSERT_TRUE(faults.ok()) << faults.status();
  ASSERT_EQ(faults.ValueOrDie().size(), 2u);
  EXPECT_EQ(faults.ValueOrDie()[0].kind, robust::FaultKind::kTrainCrash);
  EXPECT_EQ(faults.ValueOrDie()[1].kind, robust::FaultKind::kHpoCrash);
}

TEST_F(RobustTest, RejectsMalformedFaultSpecs) {
  EXPECT_FALSE(robust::ParseFaultSpec("").ok());
  EXPECT_FALSE(robust::ParseFaultSpec("nan_grad").ok());            // no @
  EXPECT_FALSE(robust::ParseFaultSpec("nan_grad@epoch").ok());      // no =
  EXPECT_FALSE(robust::ParseFaultSpec("warp_core@epoch=1").ok());   // kind
  EXPECT_FALSE(robust::ParseFaultSpec("nan_grad@write=1").ok());    // key
  EXPECT_FALSE(robust::ParseFaultSpec("nan_grad@epoch=x").ok());    // value
  EXPECT_FALSE(robust::ParseFaultSpec("nan_grad@epoch=-1").ok());   // sign
  EXPECT_FALSE(robust::ParseFaultSpec("nan_grad@epoch=1;;").ok());  // empty
}

TEST_F(RobustTest, ParsesNetworkKindsWithCommaSeparatorAndKeyDisambiguation) {
  // conn_drop names two injection points; the key picks one. ',' and ';'
  // are interchangeable separators.
  auto faults = robust::ParseFaultSpec(
      "conn_drop@accept=1,torn_frame@net_read=2;slow_peer@net_read=3,"
      "conn_drop@net_write=4");
  ASSERT_TRUE(faults.ok()) << faults.status();
  ASSERT_EQ(faults.ValueOrDie().size(), 4u);
  EXPECT_EQ(faults.ValueOrDie()[0].kind, robust::FaultKind::kConnDropAccept);
  EXPECT_EQ(faults.ValueOrDie()[1].kind, robust::FaultKind::kTornFrameRead);
  EXPECT_EQ(faults.ValueOrDie()[2].kind, robust::FaultKind::kSlowPeerRead);
  EXPECT_EQ(faults.ValueOrDie()[3].kind, robust::FaultKind::kConnDropWrite);
  EXPECT_EQ(faults.ValueOrDie()[3].at, 4);

  // A conn_drop with the wrong key must name the accepted ones.
  auto bad = robust::ParseFaultSpec("conn_drop@epoch=1");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("accept"), std::string::npos);
  EXPECT_NE(bad.status().message().find("net_write"), std::string::npos);
  EXPECT_FALSE(robust::ParseFaultSpec("torn_frame@read=1").ok());
}

TEST_F(RobustTest, NetworkQueryPointsFireAtCountedOrdinals) {
  auto& injector = robust::FaultInjector::Get();
  ASSERT_TRUE(injector
                  .Configure("conn_drop@accept=1;torn_frame@net_read=0;"
                             "slow_peer@net_read=2;conn_drop@net_write=1")
                  .ok());
  EXPECT_FALSE(injector.OnAccept());
  EXPECT_TRUE(injector.OnAccept());
  EXPECT_FALSE(injector.OnAccept());  // one-shot

  auto read0 = injector.OnNetRead();
  EXPECT_TRUE(read0.torn);
  EXPECT_FALSE(read0.slow);
  auto read1 = injector.OnNetRead();
  EXPECT_FALSE(read1.torn);
  EXPECT_FALSE(read1.slow);
  auto read2 = injector.OnNetRead();
  EXPECT_FALSE(read2.torn);
  EXPECT_TRUE(read2.slow);

  EXPECT_FALSE(injector.OnNetWrite());
  EXPECT_TRUE(injector.OnNetWrite());
  EXPECT_FALSE(injector.OnNetWrite());
}

TEST_F(RobustTest, ServeBatchStallFiresAtCountedOrdinal) {
  auto& injector = robust::FaultInjector::Get();
  auto faults = robust::ParseFaultSpec("slow_batch@serve=1");
  ASSERT_TRUE(faults.ok()) << faults.status();
  EXPECT_EQ(faults.ValueOrDie()[0].kind, robust::FaultKind::kSlowBatch);
  EXPECT_FALSE(robust::ParseFaultSpec("slow_batch@net_read=1").ok());

  EXPECT_FALSE(injector.OnServeBatch());  // disarmed: only counts
  ASSERT_TRUE(injector.Configure("slow_batch@serve=1").ok());  // resets it
  EXPECT_FALSE(injector.OnServeBatch());
  EXPECT_TRUE(injector.OnServeBatch());
  EXPECT_FALSE(injector.OnServeBatch());  // one-shot
}

TEST_F(RobustTest, InjectorFiresEachFaultExactlyOnce) {
  auto& injector = robust::FaultInjector::Get();
  ASSERT_TRUE(injector.Configure("nan_grad@epoch=2").ok());
  EXPECT_TRUE(injector.AnyArmed());
  EXPECT_FALSE(injector.ShouldCorruptGradient(0));
  EXPECT_FALSE(injector.ShouldCorruptGradient(1));
  EXPECT_TRUE(injector.ShouldCorruptGradient(2));
  EXPECT_FALSE(injector.ShouldCorruptGradient(2));  // one-shot
  EXPECT_FALSE(injector.AnyArmed());
}

TEST_F(RobustTest, WriteOrdinalCountsEveryCall) {
  auto& injector = robust::FaultInjector::Get();
  ASSERT_TRUE(injector.Configure("io_truncate@write=2").ok());
  EXPECT_FALSE(injector.ShouldTruncateWrite());  // write 0
  EXPECT_FALSE(injector.ShouldTruncateWrite());  // write 1
  EXPECT_TRUE(injector.ShouldTruncateWrite());   // write 2
  EXPECT_FALSE(injector.ShouldTruncateWrite());
}

// --- CRC32 and atomic file I/O. ---

TEST_F(RobustTest, Crc32KnownAnswer) {
  // The IEEE CRC-32 check value (zlib, PNG, IEEE 802.3).
  EXPECT_EQ(robust::Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(robust::Crc32(""), 0x00000000u);
}

TEST_F(RobustTest, Crc32MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Covers every alignment of the 8-byte fast path and every tail length.
  std::vector<unsigned char> buffer(4096 + 8);
  Rng rng(77);
  for (unsigned char& b : buffer) b = static_cast<unsigned char>(rng.NextU64());
  for (size_t offset = 0; offset < 8; ++offset) {
    uint32_t reference = 0xFFFFFFFFu;  // one byte, one bit at a time
    for (size_t length = 0; length <= 4096; ++length) {
      ASSERT_EQ(robust::Crc32(buffer.data() + offset, length),
                reference ^ 0xFFFFFFFFu)
          << "offset " << offset << " length " << length;
      reference ^= buffer[offset + length];
      for (int bit = 0; bit < 8; ++bit) {
        reference = (reference & 1) ? 0xEDB88320u ^ (reference >> 1)
                                    : reference >> 1;
      }
    }
  }
}

TEST_F(RobustTest, AtomicWriteRoundTripsThroughVerifiedRead) {
  const std::string path = TempPath("roundtrip.txt");
  const std::string payload = "alpha,beta\n1,2\n";
  ASSERT_TRUE(robust::AtomicWriteFile(path, payload).ok());
  EXPECT_FALSE(fs::exists(path + ".tmp"));  // temp staged file renamed away
  auto read = robust::ReadFileVerified(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read.ValueOrDie(), payload);
}

TEST_F(RobustTest, VerifiedReadRejectsCorruptPayload) {
  const std::string path = TempPath("corrupt.txt");
  ASSERT_TRUE(robust::AtomicWriteFile(path, "hello world\n").ok());
  // Flip one payload byte, leaving the footer intact.
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekp(0);
  file.put('H');
  file.close();
  EXPECT_FALSE(robust::ReadFileVerified(path).ok());
}

TEST_F(RobustTest, VerifiedReadRejectsMissingFooterLenientAccepts) {
  const std::string path = TempPath("nofooter.txt");
  std::ofstream(path) << "legacy,artifact\n";
  EXPECT_FALSE(robust::ReadFileVerified(path).ok());
  auto lenient = robust::ReadFileLenient(path);
  ASSERT_TRUE(lenient.ok()) << lenient.status();
  EXPECT_EQ(lenient.ValueOrDie(), "legacy,artifact\n");
}

TEST_F(RobustTest, LenientReadStillRejectsBadFooter) {
  const std::string path = TempPath("badfooter.txt");
  std::ofstream(path) << "data\n" << "#crc32:deadbeef\n";
  EXPECT_FALSE(robust::ReadFileLenient(path).ok());
}

TEST_F(RobustTest, InjectedTruncationIsCaughtAtReadTime) {
  auto& injector = robust::FaultInjector::Get();
  ASSERT_TRUE(injector.Configure("io_truncate@write=0").ok());
  const std::string path = TempPath("truncated.txt");
  // The write itself "succeeds" — exactly like a torn write would — but
  // the footer covers the full payload, so the reader detects the tear.
  ASSERT_TRUE(
      robust::AtomicWriteFile(path, "0123456789abcdef0123456789abcdef").ok());
  EXPECT_FALSE(robust::ReadFileVerified(path).ok());
}

// --- Read-side faults (bit rot / short reads at load time). ---

TEST_F(RobustTest, ParsesReadFaultKinds) {
  auto faults = robust::ParseFaultSpec("bit_flip@read=2;partial_read@read=0");
  ASSERT_TRUE(faults.ok()) << faults.status();
  ASSERT_EQ(faults.ValueOrDie().size(), 2u);
  EXPECT_EQ(faults.ValueOrDie()[0].kind, robust::FaultKind::kBitFlipRead);
  EXPECT_EQ(faults.ValueOrDie()[0].at, 2);
  EXPECT_EQ(faults.ValueOrDie()[1].kind, robust::FaultKind::kPartialRead);
  // Read faults only accept the 'read' key.
  EXPECT_FALSE(robust::ParseFaultSpec("bit_flip@write=1").ok());
  EXPECT_FALSE(robust::ParseFaultSpec("partial_read@epoch=1").ok());
}

TEST_F(RobustTest, InjectedBitFlipIsCaughtByCrc) {
  auto& injector = robust::FaultInjector::Get();
  const std::string path = TempPath("bitflip.txt");
  const std::string payload = "0123456789abcdef0123456789abcdef";
  ASSERT_TRUE(robust::AtomicWriteFile(path, payload).ok());

  obs::Counter& injected = obs::MetricsRegistry::Get().GetCounter(
      "robust/faults_injected", {{"kind", "bit_flip"}});
  const uint64_t before = injected.value();
  ASSERT_TRUE(injector.Configure("bit_flip@read=0").ok());
  EXPECT_FALSE(robust::ReadFileVerified(path).ok());
  EXPECT_EQ(injected.value(), before + 1);

  // The fault fired once; the file itself is untouched.
  auto clean = robust::ReadFileVerified(path);
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_EQ(clean.ValueOrDie(), payload);
}

TEST_F(RobustTest, InjectedPartialReadIsCaughtByCrc) {
  auto& injector = robust::FaultInjector::Get();
  const std::string path = TempPath("partialread.txt");
  const std::string payload = "0123456789abcdef0123456789abcdef";
  ASSERT_TRUE(robust::AtomicWriteFile(path, payload).ok());

  obs::Counter& injected = obs::MetricsRegistry::Get().GetCounter(
      "robust/faults_injected", {{"kind", "partial_read"}});
  const uint64_t before = injected.value();
  ASSERT_TRUE(injector.Configure("partial_read@read=0").ok());
  EXPECT_FALSE(robust::ReadFileVerified(path).ok());
  EXPECT_EQ(injected.value(), before + 1);

  auto clean = robust::ReadFileVerified(path);
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_EQ(clean.ValueOrDie(), payload);
}

TEST_F(RobustTest, ReadOrdinalCountsEveryVerifiedRead) {
  auto& injector = robust::FaultInjector::Get();
  const std::string path = TempPath("readordinal.txt");
  ASSERT_TRUE(robust::AtomicWriteFile(path, "payload bytes here").ok());
  ASSERT_TRUE(injector.Configure("bit_flip@read=1").ok());
  EXPECT_TRUE(robust::ReadFileVerified(path).ok());   // read 0: clean
  EXPECT_FALSE(robust::ReadFileVerified(path).ok());  // read 1: flipped
  EXPECT_TRUE(robust::ReadFileVerified(path).ok());   // fired once only
}

TEST_F(RobustTest, LenientReadAlsoSubjectToReadFaults) {
  auto& injector = robust::FaultInjector::Get();
  const std::string path = TempPath("lenientfault.txt");
  ASSERT_TRUE(robust::AtomicWriteFile(path, "lenient payload data").ok());
  // A bit flip under a valid footer must fail even through the lenient
  // reader (present-but-mismatching footers are always an error).
  ASSERT_TRUE(injector.Configure("bit_flip@read=0").ok());
  EXPECT_FALSE(robust::ReadFileLenient(path).ok());
}

TEST_F(RobustTest, CsvRoundTripAndFooterInertForPlainReader) {
  const std::string path = TempPath("table.csv");
  CsvTable table;
  table.header = {"a", "b"};
  table.rows = {{"1", "2"}, {"3", "4"}};
  ASSERT_TRUE(robust::WriteCsvAtomic(path, table).ok());
  auto back = robust::ReadCsvVerified(path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back.ValueOrDie().header, table.header);
  EXPECT_EQ(back.ValueOrDie().rows, table.rows);
  // The '#'-prefixed footer must not corrupt a plain ReadCsv: it shows up
  // as at most one junk row, never as a parse failure.
  auto plain = ReadCsv(path);
  ASSERT_TRUE(plain.ok());
  EXPECT_GE(plain.ValueOrDie().rows.size(), table.rows.size());
}

// --- util::WriteCsv short-write regression (satellite: flush + close
//     detection). /dev/full reports ENOSPC on flush; only meaningful on
//     systems that provide it. ---

TEST_F(RobustTest, WriteCsvDetectsShortWrite) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "/dev/full not available";
  CsvTable table;
  table.header = {"x"};
  for (int i = 0; i < 10000; ++i) table.rows.push_back({"0123456789"});
  EXPECT_FALSE(WriteCsv("/dev/full", table).ok());
}

// --- Checkpoint serialization. ---

TEST_F(RobustTest, CheckpointRoundTripsBitExactly) {
  robust::Checkpoint ckpt;
  ckpt.strings["fingerprint"] = "abc|def";
  ckpt.strings["empty"] = "";
  ckpt.scalars["pi"] = 3.141592653589793;
  ckpt.scalars["tiny"] = 5e-324;  // denormal survives the round trip
  ckpt.scalars["nan"] = std::numeric_limits<double>::quiet_NaN();
  ckpt.scalars["inf"] = std::numeric_limits<double>::infinity();
  la::Matrix m(2, 3);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) m(r, c) = 0.1 * (r * 3 + c) - 0.2;
  }
  ckpt.tensors["weights"] = m;
  Rng rng(99);
  rng.Normal();  // populate the cached Box-Muller deviate
  ckpt.PutRngState("rng", rng.SaveState());

  auto back = robust::DeserializeCheckpoint(robust::SerializeCheckpoint(ckpt));
  ASSERT_TRUE(back.ok()) << back.status();
  const robust::Checkpoint& restored = back.ValueOrDie();
  EXPECT_EQ(restored.strings.at("fingerprint"), "abc|def");
  EXPECT_EQ(restored.strings.at("empty"), "");
  EXPECT_DOUBLE_EQ(restored.scalars.at("pi"), 3.141592653589793);
  EXPECT_DOUBLE_EQ(restored.scalars.at("tiny"), 5e-324);
  EXPECT_TRUE(std::isnan(restored.scalars.at("nan")));
  EXPECT_TRUE(std::isinf(restored.scalars.at("inf")));
  ASSERT_EQ(restored.tensors.at("weights").rows(), 2);
  ASSERT_EQ(restored.tensors.at("weights").cols(), 3);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(restored.tensors.at("weights")(r, c), m(r, c));
    }
  }
  auto state = restored.GetRngState("rng");
  ASSERT_TRUE(state.ok());
  Rng replayed(0);
  replayed.LoadState(state.ValueOrDie());
  Rng reference(99);
  reference.Normal();
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(replayed.NextU64(), reference.NextU64());
    EXPECT_DOUBLE_EQ(replayed.Normal(), reference.Normal());
  }
}

TEST_F(RobustTest, CheckpointLoadRejectsCorruptFiles) {
  const std::string path = TempPath("ckpt.bin");
  robust::Checkpoint ckpt;
  ckpt.strings["k"] = "v";
  ckpt.scalars["s"] = 1.5;
  ASSERT_TRUE(robust::SaveCheckpoint(path, ckpt).ok());
  ASSERT_TRUE(robust::LoadCheckpoint(path).ok());

  // Bad magic.
  EXPECT_FALSE(robust::DeserializeCheckpoint("NOTACKPT").ok());
  // Truncated blob.
  const std::string blob = robust::SerializeCheckpoint(ckpt);
  EXPECT_FALSE(
      robust::DeserializeCheckpoint(blob.substr(0, blob.size() / 2)).ok());
  // Torn file on disk: CRC catches it before deserialization runs.
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekp(10);
  file.put('\xFF');
  file.close();
  EXPECT_FALSE(robust::LoadCheckpoint(path).ok());
  // Missing file is NotFound, not a crash.
  EXPECT_FALSE(robust::LoadCheckpoint(TempPath("absent.bin")).ok());
}

// --- Retry-wrapped tasks. ---

TEST_F(RobustTest, RetryRecoversFromInjectedThrow) {
  auto& injector = robust::FaultInjector::Get();
  ASSERT_TRUE(injector.Configure("task_throw@index=0").ok());
  int runs = 0;
  Status status = robust::RunWithRetry([&] { ++runs; });
  EXPECT_TRUE(status.ok()) << status;
  // Attempt 0 threw before fn ran; attempt 1 succeeded.
  EXPECT_EQ(runs, 1);
}

TEST_F(RobustTest, RetryExhaustionSurfacesLastError) {
  robust::RetryOptions options;
  options.max_attempts = 3;
  options.base_backoff_ms = 0;
  int attempts = 0;
  Status status = robust::RunWithRetry(
      [&] {
        ++attempts;
        throw std::runtime_error("persistent failure");
      },
      options);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(attempts, 3);
  EXPECT_NE(status.ToString().find("persistent failure"), std::string::npos);
}

TEST_F(RobustTest, SubmitWithRetryResolvesOnPool) {
  par::ThreadPool pool(2);
  auto future = robust::SubmitWithRetry(pool, [] {});
  EXPECT_TRUE(future.get().ok());
}

TEST_F(RobustTest, PoolDeliversTaskExceptionThroughFutureAfterShutdown) {
  // Satellite contract: a task submitted before destruction still runs
  // (drain guarantee) and its exception survives the pool, delivered on
  // future::get() — never terminate().
  std::future<void> future;
  {
    par::ThreadPool pool(1);  // no workers: destructor drains inline
    future = pool.Submit([]() -> void {
      throw std::runtime_error("thrown during shutdown drain");
    });
  }
  EXPECT_THROW(future.get(), std::runtime_error);
}

// --- Numeric guards in stats and metrics (satellite audit). ---

TEST_F(RobustTest, StatsDegenerateInputsAreDefinedNotUb) {
  EXPECT_TRUE(std::isnan(la::Mean({})));
  EXPECT_TRUE(std::isnan(la::SampleVariance({})));
  EXPECT_TRUE(std::isnan(la::SampleVariance({1.0})));
  EXPECT_TRUE(std::isnan(la::SampleStdDev({1.0})));
  EXPECT_TRUE(std::isnan(la::PopulationStdDev({})));
  EXPECT_DOUBLE_EQ(la::PearsonCorrelation({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(la::PearsonCorrelation({1.0}, {2.0}), 0.0);
  // Zero variance: correlation undefined -> 0, not NaN.
  EXPECT_DOUBLE_EQ(la::PearsonCorrelation({3.0, 3.0, 3.0}, {1.0, 2.0, 3.0}),
                   0.0);
  EXPECT_FALSE(la::PairedTTest({}, {}).ok());
  EXPECT_FALSE(la::PairedTTest({1.0}, {2.0}).ok());
  EXPECT_FALSE(la::OneSampleTTest({1.0}, 0.0).ok());
}

TEST_F(RobustTest, MetricsRejectEmptyAndGuardZeroUr) {
  EXPECT_FALSE(metrics::EvaluateAbsolute({}, {}).ok());
  EXPECT_FALSE(metrics::EvaluateAbsolute({1.0}, {}).ok());
  // |actual_ur| == 0: SR is capped, not infinite.
  auto eval = metrics::EvaluateAbsolute({1.0}, {0.0});
  ASSERT_TRUE(eval.ok());
  EXPECT_DOUBLE_EQ(eval.ValueOrDie().sr_values[0], 20.0);
  EXPECT_TRUE(std::isfinite(eval.ValueOrDie().sr));
}

// --- Guarded training on the real AMS model. ---

class RobustAmsTest : public RobustTest {
 protected:
  void SetUp() override {
    RobustTest::SetUp();
    data::GeneratorConfig config = data::GeneratorConfig::Defaults(
        data::DatasetProfile::kTransactionAmount, 42);
    config.num_companies = 24;
    config.num_sectors = 4;
    panel_ = data::GenerateMarket(config).MoveValue();

    data::FeatureBuilder builder(&panel_, data::FeatureOptions{});
    train_ = builder.Build({4, 5, 6, 7, 8}).MoveValue();
    valid_ = builder.Build({9}).MoveValue();
    test_ = builder.Build({10}).MoveValue();
    const data::Standardizer standardizer = data::Standardizer::Fit(train_);
    standardizer.Apply(&train_);
    standardizer.Apply(&valid_);
    standardizer.Apply(&test_);

    graph::CorrelationGraphOptions graph_options;
    graph_options.top_k = 3;
    graph_ = graph::CompanyGraph::BuildFromRevenue(
                 panel_.RevenueHistories(8), graph_options)
                 .MoveValue();
  }

  core::AmsConfig FastConfig() const {
    core::AmsConfig config;
    config.node_transform_layers = {16};
    config.gat.hidden_per_head = {4};
    config.gat.num_heads = 2;
    config.gat.out_features = 8;
    config.generator_hidden = {16};
    config.max_epochs = 20;
    config.patience = 20;
    return config;
  }

  std::vector<double> FitAndPredict(const core::AmsConfig& config) {
    core::AmsModel model(config);
    Status status = model.Fit(train_, valid_, graph_);
    EXPECT_TRUE(status.ok()) << status;
    return model.Predict(test_).MoveValue();
  }

  data::Panel panel_;
  data::Dataset train_, valid_, test_;
  graph::CompanyGraph graph_ = [] {
    return graph::CompanyGraph::BuildFromRevenue(
               {{1, 2, 3, 4}, {2, 3, 4, 5}},
               graph::CorrelationGraphOptions{1, true, 3})
        .MoveValue();
  }();
};

TEST_F(RobustAmsTest, AbortPolicyFailsOnInjectedNanGradient) {
  auto& injector = robust::FaultInjector::Get();
  ASSERT_TRUE(injector.Configure("nan_grad@epoch=3").ok());
  core::AmsConfig config = FastConfig();
  config.guard.policy = robust::GuardPolicy::kAbort;
  core::AmsModel model(config);
  Status status = model.Fit(train_, valid_, graph_);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("diverged"), std::string::npos);
}

TEST_F(RobustAmsTest, SkipPolicySurvivesInjectedNanGradient) {
  auto& injector = robust::FaultInjector::Get();
  ASSERT_TRUE(injector.Configure("nan_grad@epoch=3").ok());
  core::AmsConfig config = FastConfig();
  config.guard.policy = robust::GuardPolicy::kSkipStep;
  core::AmsModel model(config);
  Status status = model.Fit(train_, valid_, graph_);
  EXPECT_TRUE(status.ok()) << status;
  for (double p : model.Predict(test_).MoveValue()) {
    EXPECT_TRUE(std::isfinite(p));
  }
}

TEST_F(RobustAmsTest, RollbackPolicyIsBitIdenticalToFaultFreeRun) {
  // The acceptance property: a one-shot injected fault under rollback
  // leaves no trace — same epochs, same predictions, to the last bit.
  core::AmsConfig config = FastConfig();
  config.guard.policy = robust::GuardPolicy::kRollback;
  const std::vector<double> reference = FitAndPredict(config);

  auto& injector = robust::FaultInjector::Get();
  ASSERT_TRUE(injector.Configure("nan_grad@epoch=3").ok());
  const std::vector<double> faulted = FitAndPredict(config);
  EXPECT_FALSE(injector.AnyArmed());  // the fault did fire
  ASSERT_EQ(faulted.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(faulted[i], reference[i]) << "prediction " << i;
  }
}

TEST_F(RobustAmsTest, TrainingResumesFromCheckpointBitIdentically) {
  core::AmsConfig config = FastConfig();
  config.checkpoint_path = TempPath("ams_resume.ckpt");
  config.checkpoint_every = 4;
  fs::remove(config.checkpoint_path);

  const std::vector<double> reference = FitAndPredict(config);
  EXPECT_FALSE(fs::exists(config.checkpoint_path));  // removed on success

  // Kill the run after epoch 9 (checkpoint at epoch 8 exists), then rerun.
  auto& injector = robust::FaultInjector::Get();
  ASSERT_TRUE(injector.Configure("train_crash@epoch=9").ok());
  core::AmsModel crashed(config);
  Status crash_status = crashed.Fit(train_, valid_, graph_);
  EXPECT_FALSE(crash_status.ok());
  EXPECT_NE(crash_status.ToString().find("injected"), std::string::npos);
  EXPECT_TRUE(fs::exists(config.checkpoint_path));

  injector.Disarm();
  const std::vector<double> resumed = FitAndPredict(config);
  ASSERT_EQ(resumed.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(resumed[i], reference[i]) << "prediction " << i;
  }
  EXPECT_FALSE(fs::exists(config.checkpoint_path));
}

TEST_F(RobustAmsTest, StaleCheckpointIsIgnoredNotConsumed) {
  core::AmsConfig config = FastConfig();
  config.checkpoint_path = TempPath("ams_stale.ckpt");
  config.checkpoint_every = 4;
  // A checkpoint from a different config must not poison this fit.
  robust::Checkpoint bogus;
  bogus.strings["fingerprint"] = "some other training run";
  ASSERT_TRUE(robust::SaveCheckpoint(config.checkpoint_path, bogus).ok());
  const std::vector<double> with_stale = FitAndPredict(config);
  fs::remove(config.checkpoint_path);
  const std::vector<double> fresh = FitAndPredict(config);
  ASSERT_EQ(with_stale.size(), fresh.size());
  for (size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(with_stale[i], fresh[i]);
  }
}

// --- HPO crash/resume and retry. ---

class RobustHpoTest : public RobustAmsTest {
 protected:
  models::ModelSpec RidgeSpec() const {
    models::ModelSpec spec;
    spec.name = "RidgeProbe";
    spec.default_trials = 4;
    spec.factory = [](Rng* rng) -> std::unique_ptr<models::Regressor> {
      linear::LinearOptions options;
      options.l1_ratio = 0.0;
      options.alpha = rng->LogUniform(1e-4, 10.0);
      return std::make_unique<models::LinearRegressor>("RidgeProbe", options);
    };
    return spec;
  }

  models::FitContext Context() const {
    models::FitContext context;
    context.train = &train_;
    context.valid = &valid_;
    context.panel = &panel_;
    context.last_train_quarter = 8;
    return context;
  }
};

TEST_F(RobustHpoTest, SearchResumesAfterInjectedCrashBitIdentically) {
  models::HpoOptions options;
  options.trials = 4;
  options.seed = 17;
  options.checkpoint_dir = TempPath("hpo_ckpts");
  fs::remove_all(options.checkpoint_dir);
  fs::create_directories(options.checkpoint_dir);

  auto reference = models::RandomSearch(RidgeSpec(), Context(), options);
  ASSERT_TRUE(reference.ok()) << reference.status();

  // Crash after two trials completed + checkpointed; rerun resumes them.
  auto& injector = robust::FaultInjector::Get();
  ASSERT_TRUE(injector.Configure("hpo_crash@trial=2").ok());
  auto crashed = models::RandomSearch(RidgeSpec(), Context(), options);
  EXPECT_FALSE(crashed.ok());
  injector.Disarm();

  auto resumed = models::RandomSearch(RidgeSpec(), Context(), options);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_GT(resumed.ValueOrDie().trials_resumed, 0);
  EXPECT_EQ(resumed.ValueOrDie().valid_rmse,
            reference.ValueOrDie().valid_rmse);
  // The resumed winner is re-fit from its recorded RNG stream; its
  // predictions must equal the uninterrupted run's bit for bit.
  auto ref_pred = reference.ValueOrDie().model->PredictNorm(test_);
  auto res_pred = resumed.ValueOrDie().model->PredictNorm(test_);
  ASSERT_TRUE(ref_pred.ok() && res_pred.ok());
  ASSERT_EQ(ref_pred.ValueOrDie().size(), res_pred.ValueOrDie().size());
  for (size_t i = 0; i < ref_pred.ValueOrDie().size(); ++i) {
    EXPECT_EQ(res_pred.ValueOrDie()[i], ref_pred.ValueOrDie()[i]);
  }
  fs::remove_all(options.checkpoint_dir);
}

TEST_F(RobustHpoTest, ThrownTrialIsRetriedAndResultUnchanged) {
  models::HpoOptions options;
  options.trials = 4;
  options.seed = 17;
  auto reference = models::RandomSearch(RidgeSpec(), Context(), options);
  ASSERT_TRUE(reference.ok()) << reference.status();

  auto& injector = robust::FaultInjector::Get();
  ASSERT_TRUE(injector.Configure("task_throw@index=1").ok());
  auto faulted = models::RandomSearch(RidgeSpec(), Context(), options);
  ASSERT_TRUE(faulted.ok()) << faulted.status();
  EXPECT_FALSE(injector.AnyArmed());  // the throw fired and was absorbed
  EXPECT_EQ(faulted.ValueOrDie().valid_rmse,
            reference.ValueOrDie().valid_rmse);
  EXPECT_EQ(faulted.ValueOrDie().trials_failed, 0);
}

// --- Corrupt experiment cache falls back to regeneration. ---

TEST_F(RobustTest, CorruptExperimentCacheRegeneratesInsteadOfFailing) {
  const std::string cache_dir =
      (fs::temp_directory_path() / "ams_robust_cache_test").string();
  fs::remove_all(cache_dir);
  models::ExperimentConfig config;
  config.profile = data::DatasetProfile::kTransactionAmount;
  config.seed = 4242;
  config.hpo_trials = 1;
  config.model_filter = {"Ridge", "QoQ"};
  auto first = models::RunExperimentCached(config, cache_dir);
  ASSERT_TRUE(first.ok()) << first.status();

  // Truncate the cache file in place: the CRC footer no longer matches.
  std::string cache_path;
  for (const auto& entry : fs::directory_iterator(cache_dir)) {
    cache_path = entry.path().string();
  }
  ASSERT_FALSE(cache_path.empty());
  const auto original_size = fs::file_size(cache_path);
  fs::resize_file(cache_path, original_size / 2);

  auto second = models::RunExperimentCached(config, cache_dir);
  ASSERT_TRUE(second.ok()) << second.status();
  // Regenerated from scratch: same deterministic result, cache rewritten
  // whole.
  EXPECT_EQ(fs::file_size(cache_path), original_size);
  ASSERT_EQ(first.ValueOrDie().models.size(),
            second.ValueOrDie().models.size());
  for (size_t m = 0; m < first.ValueOrDie().models.size(); ++m) {
    const auto& a = first.ValueOrDie().models[m];
    const auto& b = second.ValueOrDie().models[m];
    EXPECT_EQ(a.name, b.name);
    ASSERT_EQ(a.folds.size(), b.folds.size());
    for (size_t f = 0; f < a.folds.size(); ++f) {
      EXPECT_NEAR(a.folds[f].eval.ba, b.folds[f].eval.ba, 1e-9);
      EXPECT_NEAR(a.folds[f].eval.sr, b.folds[f].eval.sr, 1e-9);
    }
  }
  fs::remove_all(cache_dir);
}

// --- Guard policy parsing. ---

TEST_F(RobustTest, ParsesGuardPolicies) {
  EXPECT_EQ(robust::ParseGuardPolicy("abort").ValueOrDie(),
            robust::GuardPolicy::kAbort);
  EXPECT_EQ(robust::ParseGuardPolicy("skip").ValueOrDie(),
            robust::GuardPolicy::kSkipStep);
  EXPECT_EQ(robust::ParseGuardPolicy("rollback").ValueOrDie(),
            robust::GuardPolicy::kRollback);
  EXPECT_FALSE(robust::ParseGuardPolicy("panic").ok());
  EXPECT_FALSE(robust::ParseGuardPolicy("").ok());
}

}  // namespace
}  // namespace ams
