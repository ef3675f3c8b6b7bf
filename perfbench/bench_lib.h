// Measurement helpers of the end-to-end benchmark: percentiles that carry
// their sample count, open-loop request accounting, output digests and the
// AMSNET1 open-loop load generator. Kept apart from driver.cc so the math
// is unit-tested (bench_lib_test.cc).
#ifndef PERFBENCH_BENCH_LIB_H_
#define PERFBENCH_BENCH_LIB_H_

#include <cstdint>
#include <string>
#include <vector>

#include "la/matrix.h"

namespace perfbench {

/// Linear-interpolation quantile (numpy's default, "type 7") of `values`,
/// q in [0, 1]. NaN for an empty input. Infinite entries sort last, so a
/// failed request recorded as +inf pushes the upper quantiles to +inf.
double Quantile(std::vector<double> values, double q);

/// Median of `values` (Quantile 0.5).
double Median(std::vector<double> values);

/// A latency distribution summarized the way the benchmark reports it:
/// median, p99 and the number of samples they come from. `p99_supported`
/// is true only when at least ten samples lie beyond the 99th percentile
/// (n >= 1000); a p99 from fewer samples is reported but flagged.
struct LatencySummary {
  size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  bool p99_supported = false;
};
LatencySummary Summarize(const std::vector<double>& samples);

/// What happened to one open-loop request.
enum class Outcome {
  kPending,    // no response yet
  kOk,         // scored, bit-identical to the reference prediction
  kShed,       // answered kUnavailable by admission control
  kDeadline,   // answered kDeadlineExceeded
  kError,      // any other error status
  kTransport,  // connection failure, undecodable frame, or no response
  kMismatch,   // OK status but scores differ from the reference
};

/// One request of an open-loop step. Times are seconds from the step start.
/// Latency is measured from `due_s`, the time the schedule said to send, so
/// a generator or server stall is charged to every request it delays.
struct RequestRecord {
  double due_s = 0.0;
  double sent_s = 0.0;
  double done_s = 0.0;
  Outcome outcome = Outcome::kPending;
};

struct StepSummary {
  double offered_rps = 0.0;
  size_t attempted = 0;
  size_t ok = 0;
  size_t shed = 0;
  size_t deadline = 0;
  size_t error = 0;
  size_t transport = 0;
  size_t mismatch = 0;
  /// Latency from due time; every non-OK request counts as +inf, so it
  /// misses any latency limit.
  LatencySummary latency_ms;
  /// How late the generator sent: sent_s - due_s.
  double lag_p50_ms = 0.0;
  double lag_max_ms = 0.0;
  /// Median latency of the first and last quarter of the schedule; their
  /// difference is how much the queue grew during the step.
  double first_quarter_p50_ms = 0.0;
  double last_quarter_p50_ms = 0.0;

  size_t failed() const {
    return shed + deadline + error + transport + mismatch;
  }
  double fail_ratio() const {
    return attempted == 0 ? 0.0 : static_cast<double>(failed()) / attempted;
  }
};

/// Folds the records of one step (in schedule order) into a summary.
StepSummary SummarizeStep(const std::vector<RequestRecord>& records,
                          double offered_rps);

/// Latency quantile q (from due time) of a step's records, failed requests
/// counting as +inf.
double LatencyQuantile(const std::vector<RequestRecord>& records, double q);

/// True when the step meets the serving limit used for max_rps: latency
/// quantile `q` <= `limit_ms`, fail_ratio <= 1%, and no growing backlog:
/// the last quarter's median latency is at most half the limit above the
/// first quarter's. A short host stall moves a quarter's median far less.
bool StepMeetsLimit(const std::vector<RequestRecord>& records,
                    const StepSummary& step, double q, double limit_ms);

/// 64-bit FNV-1a over the raw IEEE-754 bytes of `values`, chained from
/// `seed` so several vectors fold into one digest.
uint64_t Digest(const std::vector<double>& values,
                uint64_t seed = 0xcbf29ce484222325ULL);

/// True only when both vectors have the same length and every element has
/// the same bit pattern (so -0.0 != 0.0 and NaN payloads matter).
bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b);

/// One distinct request body of the open-loop traffic with the scores the
/// reference model gives it.
struct RequestBlock {
  ams::la::Matrix features;
  std::vector<double> expected;
};

/// Open-loop AMSNET1 load: `rate_rps` for `duration_s` seconds over
/// `connections` loopback connections, driven by one thread that sends on
/// schedule and reads responses as they arrive, so many requests are in
/// flight on each connection. Request i carries blocks[i % blocks.size()]
/// and is sent on connection i % connections. Responses still missing
/// `drain_s` after the last due time count as transport failures.
std::vector<RequestRecord> RunOpenLoop(int port, int connections,
                                       double rate_rps, double duration_s,
                                       const std::vector<RequestBlock>& blocks,
                                       double drain_s = 2.0);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_LIB_H_
