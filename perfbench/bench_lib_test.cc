#include "bench_lib.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace perfbench {
namespace {

TEST(QuantileTest, InterpolatesLinearlyBetweenOrderStatistics) {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.25), 1.75);
  EXPECT_TRUE(std::isnan(Quantile({}, 0.5)));
}

TEST(QuantileTest, PercentilesAreOrderedAndBoundedByTheData) {
  std::vector<double> v;
  for (int i = 0; i < 997; ++i) v.push_back(std::fmod(i * 7.31, 13.0));
  const LatencySummary s = Summarize(v);
  EXPECT_LE(s.p50, s.p99);
  EXPECT_GE(s.p50, 0.0);
  EXPECT_LE(s.p99, 13.0);
}

TEST(QuantileTest, P99IsSupportedOnlyWithTenSamplesBeyondIt) {
  EXPECT_FALSE(Summarize(std::vector<double>(999, 1.0)).p99_supported);
  const LatencySummary s = Summarize(std::vector<double>(1000, 1.0));
  EXPECT_TRUE(s.p99_supported);
  EXPECT_EQ(s.count, 1000u);
}

TEST(QuantileTest, AFailedRequestCountsAsMissingEveryLimit) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> v(98, 1.0);
  v.push_back(inf);
  v.push_back(inf);
  EXPECT_TRUE(std::isinf(Quantile(v, 0.99)));
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 1.0);
}

std::vector<RequestRecord> Schedule(int n, double rps, double service_s) {
  std::vector<RequestRecord> records(n);
  for (int i = 0; i < n; ++i) {
    records[i].due_s = i / rps;
    records[i].sent_s = records[i].due_s;
    records[i].done_s = records[i].due_s + service_s;
    records[i].outcome = Outcome::kOk;
  }
  return records;
}

TEST(OpenLoopTest, LatencyIsTimedFromTheDueTimeSoAStallIsCharged) {
  // The generator stalls 50 ms before request 10: it and the requests due
  // during the stall go out late, and their latency includes the wait.
  std::vector<RequestRecord> records = Schedule(100, 1000.0, 0.001);
  for (int i = 10; i < 60; ++i) {
    records[i].sent_s = 0.060;
    records[i].done_s = 0.060 + 0.001;
  }
  const StepSummary s = SummarizeStep(records, 1000.0);
  EXPECT_NEAR(s.lag_max_ms, 50.0, 1e-9);
  EXPECT_NEAR(s.latency_ms.p99, 50.0, 0.5);
  EXPECT_EQ(s.ok, 100u);
  EXPECT_EQ(s.failed(), 0u);
}

TEST(OpenLoopTest, OnTimeStepHasNoLagAndMeetsTheLimit) {
  const std::vector<RequestRecord> records = Schedule(400, 100.0, 0.002);
  const StepSummary s = SummarizeStep(records, 100.0);
  EXPECT_DOUBLE_EQ(s.lag_p50_ms, 0.0);
  EXPECT_NEAR(s.latency_ms.p50, 2.0, 1e-9);
  EXPECT_TRUE(StepMeetsLimit(records, s, 0.99, 20.0));
}

TEST(OpenLoopTest, GrowingBacklogFailsTheLimitEvenUnderTheP99Bound) {
  // The queue grows steadily: request i waits 40 us longer than request
  // i - 1 (0.2 ms .. 21 ms), so the last quarter's median is 15.6 ms above
  // the first's while p99 stays under a 25 ms limit.
  std::vector<RequestRecord> records = Schedule(520, 400.0, 0.0002);
  for (int i = 0; i < 520; ++i) records[i].done_s += i * 40e-6;
  const StepSummary s = SummarizeStep(records, 400.0);
  EXPECT_LT(s.latency_ms.p99, 25.0);
  EXPECT_NEAR(s.last_quarter_p50_ms - s.first_quarter_p50_ms, 15.6, 0.1);
  EXPECT_FALSE(StepMeetsLimit(records, s, 0.99, 25.0));
}

TEST(OpenLoopTest, ShortStallDoesNotLookLikeABacklog) {
  // A 15 ms stall near the end delays a few requests, not the quarter's
  // median.
  std::vector<RequestRecord> records = Schedule(400, 400.0, 0.002);
  for (int i = 380; i < 386; ++i) records[i].done_s += 0.015;
  const StepSummary s = SummarizeStep(records, 400.0);
  EXPECT_NEAR(s.last_quarter_p50_ms, s.first_quarter_p50_ms, 1e-9);
  EXPECT_TRUE(StepMeetsLimit(records, s, 0.99, 20.0));
}

TEST(OpenLoopTest, EveryFailureKindIsCountedAgainstAttempted) {
  std::vector<RequestRecord> records = Schedule(200, 100.0, 0.002);
  records[0].outcome = Outcome::kShed;
  records[1].outcome = Outcome::kDeadline;
  records[2].outcome = Outcome::kError;
  records[3].outcome = Outcome::kTransport;
  records[4].outcome = Outcome::kMismatch;
  records[5].outcome = Outcome::kPending;  // never answered
  const StepSummary s = SummarizeStep(records, 100.0);
  EXPECT_EQ(s.attempted, 200u);
  EXPECT_EQ(s.failed(), 6u);
  EXPECT_EQ(s.transport, 2u);
  EXPECT_DOUBLE_EQ(s.fail_ratio(), 0.03);
  EXPECT_FALSE(StepMeetsLimit(records, s, 0.90, 20.0));
}

TEST(OpenLoopTest, StallsAboveTheP90DoNotFailAP90Limit) {
  // 3% of requests caught in 40 ms stalls: p99 misses 20 ms, p90 does not.
  std::vector<RequestRecord> records = Schedule(1000, 250.0, 0.003);
  for (int i = 0; i < 1000; i += 33) records[i].done_s += 0.040;
  const StepSummary s = SummarizeStep(records, 250.0);
  EXPECT_GT(s.latency_ms.p99, 20.0);
  EXPECT_FALSE(StepMeetsLimit(records, s, 0.99, 20.0));
  EXPECT_TRUE(StepMeetsLimit(records, s, 0.90, 20.0));
  EXPECT_NEAR(LatencyQuantile(records, 0.5), 3.0, 1e-9);
}

TEST(OutputCheckTest, OneUlpDifferenceIsAMismatch) {
  const std::vector<double> a = {0.1, -2.5, 3.0};
  std::vector<double> b = a;
  EXPECT_TRUE(BitIdentical(a, b));
  EXPECT_EQ(Digest(a), Digest(b));
  b[1] = std::nextafter(b[1], 0.0);
  EXPECT_FALSE(BitIdentical(a, b));
  EXPECT_NE(Digest(a), Digest(b));
}

TEST(OutputCheckTest, SignedZeroAndLengthAreMismatches) {
  EXPECT_FALSE(BitIdentical({0.0}, {-0.0}));
  EXPECT_NE(Digest({0.0}), Digest({-0.0}));
  EXPECT_FALSE(BitIdentical({1.0}, {1.0, 1.0}));
  EXPECT_TRUE(BitIdentical({}, {}));
}

TEST(OutputCheckTest, ChainedDigestDependsOnOrder) {
  const std::vector<double> a = {1.0}, b = {2.0};
  EXPECT_NE(Digest(b, Digest(a)), Digest(a, Digest(b)));
}

}  // namespace
}  // namespace perfbench
