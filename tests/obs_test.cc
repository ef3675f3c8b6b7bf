// Unit tests for the telemetry subsystem (src/obs) and the logging
// satellites: instrument semantics (labeled and not), percentile
// estimation, concurrent exactness, span nesting, report shapes and JSON
// hardening, the periodic JSONL reporter, the run ledger, AMS_TELEMETRY=off
// silence, and AMS_LOG short-circuiting.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/health.h"
#include "obs/json_parse.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/periodic.h"
#include "obs/profiler.h"
#include "obs/prometheus.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace ams::obs {
namespace {

// ---------------------------------------------------------------------------
// Instrument semantics.

TEST(CounterTest, IncrementAndAdd) {
  Counter counter("test/counter");
  EXPECT_EQ(counter.value(), 0u);
  counter.Increment();
  counter.Add(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge gauge("test/gauge");
  EXPECT_EQ(gauge.value(), 0.0);
  gauge.Set(3.5);
  gauge.Set(-1.25);
  EXPECT_EQ(gauge.value(), -1.25);
}

TEST(HistogramTest, BucketPlacement) {
  Histogram histogram("test/hist", {1.0, 10.0, 100.0});
  histogram.Observe(0.5);    // bucket 0 (<= 1)
  histogram.Observe(1.0);    // bucket 0 (boundary is inclusive)
  histogram.Observe(5.0);    // bucket 1
  histogram.Observe(50.0);   // bucket 2
  histogram.Observe(1e6);    // overflow bucket
  EXPECT_EQ(histogram.count(), 5u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 0.5 + 1.0 + 5.0 + 50.0 + 1e6);
  const std::vector<uint64_t> counts = histogram.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
}

TEST(HistogramTest, ExponentialBoundsAreSortedAndPositive) {
  const std::vector<double> bounds = Histogram::ExponentialBounds();
  ASSERT_FALSE(bounds.empty());
  EXPECT_GT(bounds.front(), 0.0);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(RegistryTest, LazyRegistrationReturnsSameInstrument) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  Counter& a = registry.GetCounter("registry_test/lazy");
  Counter& b = registry.GetCounter("registry_test/lazy");
  EXPECT_EQ(&a, &b);
  a.Add(7);
  EXPECT_EQ(b.value(), 7u);

  Histogram& h1 = registry.GetHistogram("registry_test/hist", std::vector<double>{1.0, 2.0});
  Histogram& h2 = registry.GetHistogram("registry_test/hist", std::vector<double>{9.0});
  EXPECT_EQ(&h1, &h2);  // bounds only consulted on first registration
  EXPECT_EQ(h2.bucket_bounds().size(), 2u);
}

TEST(RegistryTest, SnapshotContainsRegisteredInstruments) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  registry.GetCounter("snapshot_test/counter").Add(3);
  registry.GetGauge("snapshot_test/gauge").Set(2.5);
  registry.GetHistogram("snapshot_test/hist", std::vector<double>{1.0}).Observe(0.5);

  const MetricsSnapshot snapshot = registry.Snapshot();
  bool found_counter = false;
  bool found_gauge = false;
  bool found_hist = false;
  for (const auto& counter : snapshot.counters) {
    if (counter.name == "snapshot_test/counter") {
      found_counter = true;
      EXPECT_EQ(counter.value, 3u);
    }
  }
  for (const auto& gauge : snapshot.gauges) {
    if (gauge.name == "snapshot_test/gauge") {
      found_gauge = true;
      EXPECT_EQ(gauge.value, 2.5);
    }
  }
  for (const auto& histogram : snapshot.histograms) {
    if (histogram.name == "snapshot_test/hist") {
      found_hist = true;
      EXPECT_EQ(histogram.count, 1u);
      EXPECT_EQ(histogram.bucket_counts.size(),
                histogram.bucket_bounds.size() + 1);
    }
  }
  EXPECT_TRUE(found_counter);
  EXPECT_TRUE(found_gauge);
  EXPECT_TRUE(found_hist);
  // Snapshots are sorted by name for stable reports.
  for (size_t i = 1; i < snapshot.counters.size(); ++i) {
    EXPECT_LE(snapshot.counters[i - 1].name, snapshot.counters[i].name);
  }
}

// ---------------------------------------------------------------------------
// Labeled instruments.

TEST(LabelsTest, EncodeLabeledNameIsCanonical) {
  EXPECT_EQ(EncodeLabeledName("hits", {}), "hits");
  EXPECT_EQ(EncodeLabeledName("hits", {{"model", "AMS"}}),
            "hits{model=\"AMS\"}");
  // Keys sort; insertion order of the label set does not matter.
  EXPECT_EQ(EncodeLabeledName("hits", {{"b", "2"}, {"a", "1"}}),
            EncodeLabeledName("hits", {{"a", "1"}, {"b", "2"}}));
  EXPECT_EQ(EncodeLabeledName("hits", {{"b", "2"}, {"a", "1"}}),
            "hits{a=\"1\",b=\"2\"}");
}

TEST(LabelsTest, SameLabelSetInternsToSameInstrument) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  Counter& a = registry.GetCounter("labels_test/hits", {{"model", "AMS"}});
  Counter& b = registry.GetCounter("labels_test/hits", {{"model", "AMS"}});
  Counter& other =
      registry.GetCounter("labels_test/hits", {{"model", "Ridge"}});
  Counter& plain = registry.GetCounter("labels_test/hits");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
  EXPECT_NE(&a, &plain);
  a.Add(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(other.value(), 0u);

  // Order-insensitive across multiple keys; empty labels == unlabeled.
  Gauge& g1 = registry.GetGauge("labels_test/gauge",
                                {{"k1", "v1"}, {"k2", "v2"}});
  Gauge& g2 = registry.GetGauge("labels_test/gauge",
                                {{"k2", "v2"}, {"k1", "v1"}});
  EXPECT_EQ(&g1, &g2);
  EXPECT_EQ(&registry.GetCounter("labels_test/hits", Labels{}), &plain);
}

TEST(LabelsTest, LabeledInstrumentsAppearInSnapshotUnderEncodedName) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  registry.GetCounter("labels_snap/hits", {{"model", "XGBoost"}}).Add(5);
  const MetricsSnapshot snapshot = registry.Snapshot();
  bool found = false;
  for (const auto& counter : snapshot.counters) {
    if (counter.name == "labels_snap/hits{model=\"XGBoost\"}") {
      found = true;
      EXPECT_EQ(counter.value, 5u);
    }
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Percentile estimation from bucket counts.

TEST(PercentileTest, InterpolatesWithinBuckets) {
  MetricsSnapshot::HistogramValue h;
  h.bucket_bounds = {10.0, 20.0, 30.0, 40.0};
  h.bucket_counts = {10, 10, 10, 10, 0};  // ~uniform over (0, 40]
  h.count = 40;
  EXPECT_NEAR(h.Percentile(0.50), 20.0, 1e-9);
  EXPECT_NEAR(h.Percentile(0.95), 38.0, 1e-9);
  EXPECT_NEAR(h.Percentile(0.99), 39.6, 1e-9);
  // Quantiles never decrease in q.
  double prev = 0.0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double value = h.Percentile(q);
    EXPECT_GE(value, prev);
    prev = value;
  }
}

TEST(PercentileTest, EdgeCases) {
  MetricsSnapshot::HistogramValue empty;
  empty.bucket_bounds = {1.0};
  empty.bucket_counts = {0, 0};
  EXPECT_EQ(empty.Percentile(0.5), 0.0);

  // Everything in the overflow bucket: the estimate cannot extrapolate past
  // the largest finite bound.
  MetricsSnapshot::HistogramValue overflow;
  overflow.bucket_bounds = {1.0, 2.0};
  overflow.bucket_counts = {0, 0, 7};
  overflow.count = 7;
  EXPECT_EQ(overflow.Percentile(0.5), 2.0);
  EXPECT_EQ(overflow.Percentile(0.99), 2.0);

  // Single bucket with a negative bound: the lower edge follows the bound.
  MetricsSnapshot::HistogramValue negative;
  negative.bucket_bounds = {-5.0};
  negative.bucket_counts = {4, 0};
  negative.count = 4;
  EXPECT_LE(negative.Percentile(0.5), -0.0);
  EXPECT_GE(negative.Percentile(0.5), -5.0);
}

TEST(PercentileTest, LiveHistogramMatchesKnownData) {
  Histogram histogram("percentile_live", {1.0, 2.0, 4.0, 8.0});
  for (int i = 0; i < 100; ++i) {
    histogram.Observe(0.5);  // all land in bucket 0
  }
  MetricsSnapshot::HistogramValue view;
  view.count = histogram.count();
  view.sum = histogram.sum();
  view.bucket_bounds = histogram.bucket_bounds();
  view.bucket_counts = histogram.bucket_counts();
  // All mass in (0, 1]: p50 interpolates to the middle of that bucket.
  EXPECT_NEAR(view.Percentile(0.5), 0.5, 1e-9);
  EXPECT_LE(view.Percentile(0.99), 1.0);
}

// ---------------------------------------------------------------------------
// Histogram input hardening: NaN dropped, negatives clamped, both counted.

TEST(HistogramTest, NanAndNegativeObservationsDoNotCorruptBuckets) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  Counter& dropped = registry.GetCounter("obs/dropped_observations");
  const uint64_t dropped_before = dropped.value();

  Histogram histogram("guard_test", {1.0, 10.0});
  histogram.Observe(std::numeric_limits<double>::quiet_NaN());  // dropped
  histogram.Observe(-3.0);  // clamped to 0, still counted
  histogram.Observe(5.0);   // normal

  EXPECT_EQ(histogram.count(), 2u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 5.0);  // clamp contributes 0
  EXPECT_FALSE(std::isnan(histogram.sum()));
  const std::vector<uint64_t> counts = histogram.bucket_counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 1u);  // the clamped -3 -> 0
  EXPECT_EQ(counts[1], 1u);  // the 5
  EXPECT_EQ(counts[2], 0u);
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  EXPECT_EQ(total, histogram.count());
  EXPECT_EQ(dropped.value(), dropped_before + 2);
}

// ---------------------------------------------------------------------------
// Concurrency: exact totals under parallel mutation (run under
// -DAMS_SANITIZE=thread to validate the lock-free fast path).

TEST(RegistryTest, ConcurrentCounterIncrementsAreExact) {
  constexpr int kThreads = 8;
  constexpr int kIncrementsPerThread = 20000;
  MetricsRegistry& registry = MetricsRegistry::Get();
  Counter& counter = registry.GetCounter("concurrent_test/counter");
  counter.Reset();

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&counter] {
      // Half the threads also exercise lazy lookup to stress registration.
      Counter& same =
          MetricsRegistry::Get().GetCounter("concurrent_test/counter");
      for (int i = 0; i < kIncrementsPerThread; ++i) same.Increment();
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(counter.value(),
            static_cast<uint64_t>(kThreads) * kIncrementsPerThread);
}

TEST(RegistryTest, ConcurrentHistogramObservationsAreExact) {
  constexpr int kThreads = 8;
  constexpr int kObservationsPerThread = 5000;
  Histogram& histogram = MetricsRegistry::Get().GetHistogram(
      "concurrent_test/hist", {0.5, 1.5, 2.5});
  histogram.Reset();

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&histogram, t] {
      for (int i = 0; i < kObservationsPerThread; ++i) {
        histogram.Observe(static_cast<double>(t % 4));  // buckets 0..3
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  const uint64_t expected =
      static_cast<uint64_t>(kThreads) * kObservationsPerThread;
  EXPECT_EQ(histogram.count(), expected);
  uint64_t bucket_total = 0;
  for (uint64_t c : histogram.bucket_counts()) bucket_total += c;
  EXPECT_EQ(bucket_total, expected);
  // Sum is CAS-accumulated: every observation lands exactly once.
  // Each thread contributes kObservationsPerThread * (t % 4).
  double expected_sum = 0.0;
  for (int t = 0; t < kThreads; ++t) {
    expected_sum += static_cast<double>(t % 4) * kObservationsPerThread;
  }
  EXPECT_DOUBLE_EQ(histogram.sum(), expected_sum);
}

// ---------------------------------------------------------------------------
// Trace spans.

TEST(TraceTest, SpanRecordsHistogramAndNesting) {
  TraceBuffer& buffer = TraceBuffer::Get();
  buffer.Clear();
  buffer.SetEnabled(true);
  Histogram& outer_hist =
      MetricsRegistry::Get().GetHistogram(std::string("trace_test/outer") +
                                          "/ms");
  outer_hist.Reset();

  {
    AMS_TRACE_SPAN("trace_test/outer");
    {
      AMS_TRACE_SPAN("trace_test/inner");
    }
    {
      AMS_TRACE_SPAN("trace_test/inner");
    }
  }
  buffer.SetEnabled(false);

  EXPECT_EQ(outer_hist.count(), 1u);

  const std::vector<SpanRecord> spans = buffer.Snapshot();
  ASSERT_EQ(spans.size(), 3u);  // spans complete innermost-first
  EXPECT_STREQ(spans[0].name, "trace_test/inner");
  EXPECT_STREQ(spans[1].name, "trace_test/inner");
  EXPECT_STREQ(spans[2].name, "trace_test/outer");
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(spans[2].depth, 0u);
  // Children are contained in the parent's [start, start + duration].
  for (int child : {0, 1}) {
    EXPECT_GE(spans[child].start_us, spans[2].start_us);
    EXPECT_LE(spans[child].start_us + spans[child].duration_us,
              spans[2].start_us + spans[2].duration_us);
  }
  EXPECT_EQ(internal::CurrentSpanDepth(), 0u);
}

TEST(TraceTest, DisabledBufferRecordsNothing) {
  TraceBuffer& buffer = TraceBuffer::Get();
  buffer.Clear();
  buffer.SetEnabled(false);
  {
    AMS_TRACE_SPAN("trace_test/disabled");
  }
  EXPECT_TRUE(buffer.Snapshot().empty());
  // The timing histogram still records (always-on metrics path).
  EXPECT_GE(MetricsRegistry::Get()
                .GetHistogram("trace_test/disabled/ms")
                .count(),
            1u);
}

TEST(TraceTest, BufferCapacityDropsOldest) {
  TraceBuffer& buffer = TraceBuffer::Get();
  buffer.Clear();
  buffer.SetCapacity(2);
  buffer.SetEnabled(true);
  for (int i = 0; i < 5; ++i) {
    AMS_TRACE_SPAN("trace_test/capacity");
  }
  buffer.SetEnabled(false);
  EXPECT_EQ(buffer.Snapshot().size(), 2u);
  buffer.SetCapacity(1 << 20);
  buffer.Clear();
}

// ---------------------------------------------------------------------------
// Trace context: parent links, cross-thread handoff, flow events.

/// Finds the single span named `name` in `spans`; fails the test on 0 or >1.
const SpanRecord* FindSpan(const std::vector<SpanRecord>& spans,
                           const std::string& name) {
  const SpanRecord* found = nullptr;
  for (const SpanRecord& span : spans) {
    if (span.name == name) {
      if (found != nullptr) return nullptr;
      found = &span;
    }
  }
  return found;
}

TEST(TraceContextTest, NestingAssignsParentAndTraceIds) {
  TraceBuffer& buffer = TraceBuffer::Get();
  buffer.Clear();
  buffer.SetEnabled(true);
  EXPECT_FALSE(CurrentTraceContext().valid());
  {
    AMS_TRACE_SPAN("ctx_test/root");
    const TraceContext root_ctx = CurrentTraceContext();
    EXPECT_TRUE(root_ctx.valid());
    {
      AMS_TRACE_SPAN("ctx_test/child");
      const TraceContext child_ctx = CurrentTraceContext();
      EXPECT_EQ(child_ctx.trace_id, root_ctx.trace_id);
      EXPECT_NE(child_ctx.span_id, root_ctx.span_id);
    }
    // Context pops back to the root when the child closes.
    EXPECT_EQ(CurrentTraceContext().span_id, root_ctx.span_id);
  }
  EXPECT_FALSE(CurrentTraceContext().valid());
  buffer.SetEnabled(false);

  const std::vector<SpanRecord> spans = buffer.Snapshot();
  const SpanRecord* root = FindSpan(spans, "ctx_test/root");
  const SpanRecord* child = FindSpan(spans, "ctx_test/child");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(child, nullptr);
  EXPECT_NE(root->span_id, 0u);
  EXPECT_EQ(root->trace_id, root->span_id);  // a root roots its own trace
  EXPECT_EQ(root->parent_id, 0u);
  EXPECT_EQ(child->trace_id, root->trace_id);
  EXPECT_EQ(child->parent_id, root->span_id);
  EXPECT_NE(child->span_id, root->span_id);
  buffer.Clear();
}

TEST(TraceContextTest, ExplicitHandoffCrossesThreads) {
  TraceBuffer& buffer = TraceBuffer::Get();
  buffer.Clear();
  buffer.SetEnabled(true);
  {
    AMS_TRACE_SPAN("ctx_test/producer");
    const TraceContext ctx = CurrentTraceContext();
    std::thread consumer([ctx] {
      // Fresh thread: empty stack, so without the handoff this span would
      // root a new trace.
      AMS_TRACE_SPAN_CTX("ctx_test/consumer", ctx);
    });
    consumer.join();
  }
  buffer.SetEnabled(false);

  const std::vector<SpanRecord> spans = buffer.Snapshot();
  const SpanRecord* producer = FindSpan(spans, "ctx_test/producer");
  const SpanRecord* consumer = FindSpan(spans, "ctx_test/consumer");
  ASSERT_NE(producer, nullptr);
  ASSERT_NE(consumer, nullptr);
  EXPECT_EQ(consumer->trace_id, producer->trace_id);
  EXPECT_EQ(consumer->parent_id, producer->span_id);
  EXPECT_NE(consumer->thread_id, producer->thread_id);
  buffer.Clear();
}

TEST(TraceContextTest, ContextScopeParentsSpansWithoutOpeningOne) {
  TraceBuffer& buffer = TraceBuffer::Get();
  buffer.Clear();
  buffer.SetEnabled(true);
  TraceContext ctx;
  {
    AMS_TRACE_SPAN("ctx_test/origin");
    ctx = CurrentTraceContext();
  }
  {
    TraceContextScope scope(ctx);  // borrowed context, no span of its own
    EXPECT_EQ(CurrentTraceContext().span_id, ctx.span_id);
    AMS_TRACE_SPAN("ctx_test/borrowed_child");
  }
  EXPECT_FALSE(CurrentTraceContext().valid());
  {
    TraceContextScope noop{TraceContext{}};  // invalid context: no-op
    EXPECT_FALSE(CurrentTraceContext().valid());
  }
  buffer.SetEnabled(false);

  const std::vector<SpanRecord> spans = buffer.Snapshot();
  const SpanRecord* origin = FindSpan(spans, "ctx_test/origin");
  const SpanRecord* child = FindSpan(spans, "ctx_test/borrowed_child");
  ASSERT_NE(origin, nullptr);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->trace_id, origin->trace_id);
  EXPECT_EQ(child->parent_id, origin->span_id);
  buffer.Clear();
}

TEST(TraceContextTest, RecordSpanWithParentReplaysIntervalWithArg) {
  TraceBuffer& buffer = TraceBuffer::Get();
  buffer.Clear();
  buffer.SetEnabled(true);
  TraceContext parent;
  {
    AMS_TRACE_SPAN("ctx_test/request");
    parent = CurrentTraceContext();
  }
  const auto start = std::chrono::steady_clock::now();
  const auto end = start + std::chrono::microseconds(1500);
  const TraceContext recorded =
      RecordSpanWithParent("ctx_test/phase", parent, start, end, /*arg=*/7);
  EXPECT_TRUE(recorded.valid());
  EXPECT_EQ(recorded.trace_id, parent.trace_id);
  buffer.SetEnabled(false);

  const std::vector<SpanRecord> spans = buffer.Snapshot();
  const SpanRecord* phase = FindSpan(spans, "ctx_test/phase");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->trace_id, parent.trace_id);
  EXPECT_EQ(phase->parent_id, parent.span_id);
  EXPECT_EQ(phase->arg, 7u);
  EXPECT_GE(phase->duration_us, 1400u);
  EXPECT_LE(phase->duration_us, 1600u);
  // No "<name>/ms" histogram: callers own their phase histograms.
  EXPECT_EQ(MetricsRegistry::Get().GetHistogram("ctx_test/phase/ms").count(),
            0u);
  buffer.Clear();

  // Disabled buffer: no record, invalid context back.
  EXPECT_FALSE(
      RecordSpanWithParent("ctx_test/phase", parent, start, end).valid());
  EXPECT_TRUE(buffer.Snapshot().empty());
}

TEST(TraceContextTest, ExporterEmitsFlowEventsForCrossThreadEdges) {
  TraceBuffer& buffer = TraceBuffer::Get();
  buffer.Clear();
  buffer.SetEnabled(true);
  {
    AMS_TRACE_SPAN("flow_test/root");
    const TraceContext ctx = CurrentTraceContext();
    std::thread worker([ctx] { AMS_TRACE_SPAN_CTX("flow_test/hop", ctx); });
    worker.join();
  }
  buffer.SetEnabled(false);
  const std::vector<SpanRecord> spans = buffer.Snapshot();
  const SpanRecord* root = FindSpan(spans, "flow_test/root");
  const SpanRecord* hop = FindSpan(spans, "flow_test/hop");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(hop, nullptr);

  std::ostringstream out;
  TraceExporter::WriteJson(spans, out);
  auto parsed = json::Parse(out.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* events = parsed.ValueOrDie().Find("traceEvents");
  ASSERT_NE(events, nullptr);

  // One "s"/"f" pair keyed by the child span id, start on the parent's
  // thread lane, finish on the child's; "X" events carry the ids in args.
  bool saw_start = false;
  bool saw_finish = false;
  bool saw_ids_on_complete_event = false;
  for (const json::Value& event : events->array) {
    const json::Value* ph = event.Find("ph");
    const json::Value* id = event.Find("id");
    if (ph != nullptr && id != nullptr &&
        id->number == static_cast<double>(hop->span_id)) {
      if (ph->string_value == "s") {
        saw_start = true;
        EXPECT_EQ(event.Find("tid")->number,
                  static_cast<double>(root->thread_id));
      }
      if (ph->string_value == "f") {
        saw_finish = true;
        EXPECT_EQ(event.Find("bp")->string_value, "e");
        EXPECT_EQ(event.Find("tid")->number,
                  static_cast<double>(hop->thread_id));
      }
    }
    const json::Value* name = event.Find("name");
    if (name != nullptr && name->string_value == "flow_test/hop" &&
        ph != nullptr && ph->string_value == "X") {
      const json::Value* args = event.Find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->Find("span_id")->number,
                static_cast<double>(hop->span_id));
      EXPECT_EQ(args->Find("trace_id")->number,
                static_cast<double>(hop->trace_id));
      EXPECT_EQ(args->Find("parent_id")->number,
                static_cast<double>(hop->parent_id));
      saw_ids_on_complete_event = true;
    }
  }
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_finish);
  EXPECT_TRUE(saw_ids_on_complete_event);
  buffer.Clear();
}

// ---------------------------------------------------------------------------
// JSON well-formedness. A minimal structural validator: balanced
// brackets/braces outside strings, no trailing garbage.

bool JsonIsBalanced(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return stack.empty() && !in_string;
}

TEST(TraceTest, ChromeTraceJsonShape) {
  TraceBuffer& buffer = TraceBuffer::Get();
  buffer.Clear();
  buffer.SetEnabled(true);
  {
    AMS_TRACE_SPAN("trace_test/json_outer");
    AMS_TRACE_SPAN("trace_test/json_inner");
  }
  buffer.SetEnabled(false);

  std::ostringstream out;
  TraceExporter::WriteJson(out);
  const std::string json = out.str();

  EXPECT_TRUE(JsonIsBalanced(json)) << json;
  // Chrome trace-event format essentials: a traceEvents array of complete
  // ("X") events carrying ts/dur/pid/tid.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":"), std::string::npos);
  EXPECT_NE(json.find("trace_test/json_outer"), std::string::npos);
  EXPECT_NE(json.find("trace_test/json_inner"), std::string::npos);
  buffer.Clear();
}

TEST(ReportTest, JsonSnapshotRoundTripShape) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  registry.GetCounter("report_test/counter").Add(11);
  registry.GetGauge("report_test/gauge").Set(0.5);
  registry.GetHistogram("report_test/hist", std::vector<double>{1.0, 2.0}).Observe(1.5);

  std::ostringstream out;
  WriteJsonReport(registry.Snapshot(), out);
  const std::string json = out.str();

  EXPECT_TRUE(JsonIsBalanced(json)) << json;
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
  EXPECT_NE(json.find("\"report_test/counter\":11"), std::string::npos);
  EXPECT_NE(json.find("\"report_test/gauge\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"report_test/hist\":{\"count\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"le\":2,\"count\":1"), std::string::npos);
}

TEST(ReportTest, TextReportContainsInstruments) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  registry.GetCounter("text_report_test/counter").Add(5);
  std::ostringstream out;
  WriteTextReport(registry.Snapshot(), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("telemetry report"), std::string::npos);
  EXPECT_NE(text.find("text_report_test/counter"), std::string::npos);
}

// ---------------------------------------------------------------------------
// JSON parser (src/obs/json_parse): the validator behind bench_diff and the
// round-trip tests below.

TEST(JsonParseTest, ParsesScalarsAndContainers) {
  auto result = json::Parse(
      R"({"a":1.5,"b":[true,false,null],"c":{"nested":"x"},"d":-2e3})");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const json::Value& root = result.ValueOrDie();
  ASSERT_TRUE(root.is_object());
  ASSERT_NE(root.Find("a"), nullptr);
  EXPECT_DOUBLE_EQ(root.Find("a")->number, 1.5);
  ASSERT_TRUE(root.Find("b")->is_array());
  EXPECT_EQ(root.Find("b")->array.size(), 3u);
  EXPECT_TRUE(root.Find("b")->array[0].bool_value);
  EXPECT_TRUE(root.Find("b")->array[2].is_null());
  EXPECT_EQ(root.Find("c")->Find("nested")->string_value, "x");
  EXPECT_DOUBLE_EQ(root.Find("d")->number, -2000.0);
  EXPECT_EQ(root.Find("missing"), nullptr);
}

TEST(JsonParseTest, DecodesStringEscapes) {
  auto result = json::Parse(R"(["q\"b\\n\nuA\t"])");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.ValueOrDie().array[0].string_value, "q\"b\\n\nuA\t");
}

TEST(JsonParseTest, RejectsMalformedInput) {
  EXPECT_FALSE(json::Parse("").ok());
  EXPECT_FALSE(json::Parse("{").ok());
  EXPECT_FALSE(json::Parse("{\"a\":}").ok());
  EXPECT_FALSE(json::Parse("[1,]").ok());
  EXPECT_FALSE(json::Parse("nul").ok());
  EXPECT_FALSE(json::Parse("{} trailing").ok());
  EXPECT_FALSE(json::Parse("\"unterminated").ok());
}

// ---------------------------------------------------------------------------
// JSON hardening: non-finite gauges serialize as null, hostile instrument
// and span names round-trip through the escaper and back through the parser.

TEST(ReportTest, NonFiniteGaugesSerializeAsNull) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  registry.GetGauge("nonfinite_test/nan")
      .Set(std::numeric_limits<double>::quiet_NaN());
  registry.GetGauge("nonfinite_test/inf")
      .Set(std::numeric_limits<double>::infinity());
  registry.GetGauge("nonfinite_test/finite").Set(1.25);

  std::ostringstream out;
  WriteJsonReport(registry.Snapshot(), out);
  auto result = json::Parse(out.str());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const json::Value* gauges = result.ValueOrDie().Find("gauges");
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(gauges->Find("nonfinite_test/nan"), nullptr);
  EXPECT_TRUE(gauges->Find("nonfinite_test/nan")->is_null());
  EXPECT_TRUE(gauges->Find("nonfinite_test/inf")->is_null());
  ASSERT_TRUE(gauges->Find("nonfinite_test/finite")->is_number());
  EXPECT_DOUBLE_EQ(gauges->Find("nonfinite_test/finite")->number, 1.25);
}

TEST(ReportTest, HostileInstrumentNamesRoundTrip) {
  // Quotes, backslashes, newlines and a control byte — all legal label
  // values, all must survive serialize -> parse exactly.
  const std::string hostile = "evil\"name\\with\nnewline\x01!";
  MetricsRegistry& registry = MetricsRegistry::Get();
  registry.GetCounter(hostile).Add(9);
  registry.GetCounter("hostile/labeled", {{"k", "va\"l\\ue"}}).Add(2);

  std::ostringstream out;
  WriteJsonReport(registry.Snapshot(), out);
  auto result = json::Parse(out.str());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const json::Value* counters = result.ValueOrDie().Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->Find(hostile), nullptr);
  EXPECT_DOUBLE_EQ(counters->Find(hostile)->number, 9.0);
  const std::string labeled = "hostile/labeled{k=\"va\"l\\ue\"}";
  ASSERT_NE(counters->Find(labeled), nullptr);
  EXPECT_DOUBLE_EQ(counters->Find(labeled)->number, 2.0);
}

// ---------------------------------------------------------------------------
// Prometheus exposition (src/obs/prometheus): the admin plane's /metrics
// body. Same hostile corpus as the JSON tests above — names and label
// values full of quotes, backslashes, newlines, and control bytes must
// never break the one-series-per-line framing a scraper depends on.

TEST(PrometheusTest, NameSanitizationSqueezesToExpositionCharset) {
  EXPECT_EQ(PrometheusName("serve/latency_ms"), "serve_latency_ms");
  EXPECT_EQ(PrometheusName("evil\"name\\with\nnewline\x01!"),
            "evil_name_with_newline__");
  EXPECT_EQ(PrometheusName("9lives"), "_9lives");
  EXPECT_EQ(PrometheusName("ok:colon"), "ok:colon");
  EXPECT_EQ(PrometheusName(""), "_");
}

TEST(PrometheusTest, LabelValueEscapesTheThreeSpecials) {
  EXPECT_EQ(PrometheusLabelValue("plain"), "plain");
  EXPECT_EQ(PrometheusLabelValue("va\"l\\ue"), "va\\\"l\\\\ue");
  EXPECT_EQ(PrometheusLabelValue("a\nb"), "a\\nb");
}

TEST(PrometheusTest, HostileNamesAndLabelValuesKeepLineFraming) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  registry.GetCounter("prom_hostile/evil\"name\\with\nnewline\x01!").Add(9);
  registry.GetCounter("prom_hostile/labeled", {{"k", "va\"l\\ue"}}).Add(2);
  registry.GetCounter("prom_hostile/labeled", {{"k", "a\nb"}}).Add(3);

  std::ostringstream out;
  WritePrometheusReport(registry.Snapshot(), out);
  const std::string body = out.str();

  EXPECT_NE(body.find("prom_hostile_evil_name_with_newline__ 9"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("prom_hostile_labeled{k=\"va\\\"l\\\\ue\"} 2"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("prom_hostile_labeled{k=\"a\\nb\"} 3"),
            std::string::npos)
      << body;

  // Framing: no control byte survives into the exposition, and every line
  // is either a TYPE header or starts in the metric-name charset (a hostile
  // value that broke out of its quotes would start a line with garbage).
  EXPECT_EQ(body.find('\x01'), std::string::npos);
  std::istringstream lines(body);
  for (std::string line; std::getline(lines, line);) {
    if (line.empty()) continue;
    ASSERT_TRUE(line[0] == '#' || line[0] == '_' || line[0] == ':' ||
                std::isalpha(static_cast<unsigned char>(line[0])))
        << "line breaks framing: " << line;
    // Quotes are balanced once escapes are accounted for.
    int quotes = 0;
    for (size_t i = 0; i < line.size(); ++i) {
      if (line[i] == '\\') {
        ++i;  // skip the escaped byte
      } else if (line[i] == '"') {
        ++quotes;
      }
    }
    ASSERT_EQ(quotes % 2, 0) << "unbalanced quotes: " << line;
  }
}

TEST(PrometheusTest, LabeledSeriesGroupUnderOneTypeHeader) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  registry.GetCounter("prom_group/family", {{"op", "read"}}).Add(1);
  registry.GetCounter("prom_group/family", {{"op", "write"}}).Add(4);

  std::ostringstream out;
  WritePrometheusReport(registry.Snapshot(), out);
  const std::string body = out.str();

  // Exactly one TYPE header for the family, both series under it.
  const std::string header = "# TYPE prom_group_family counter\n";
  const size_t first = body.find(header);
  ASSERT_NE(first, std::string::npos) << body;
  EXPECT_EQ(body.find(header, first + 1), std::string::npos);
  EXPECT_NE(body.find("prom_group_family{op=\"read\"} 1"),
            std::string::npos);
  EXPECT_NE(body.find("prom_group_family{op=\"write\"} 4"),
            std::string::npos);
}

TEST(PrometheusTest, HistogramRendersCumulativeBucketsSumAndCount) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  Histogram& hist = registry.GetHistogram("prom_hist/latency",
                                          std::vector<double>{1.0, 2.0});
  hist.Observe(0.5);
  hist.Observe(1.5);
  hist.Observe(3.0);

  std::ostringstream out;
  WritePrometheusReport(registry.Snapshot(), out);
  const std::string body = out.str();

  EXPECT_NE(body.find("# TYPE prom_hist_latency histogram"),
            std::string::npos);
  // Cumulative, in bound order, always ending at +Inf.
  const size_t b1 = body.find("prom_hist_latency_bucket{le=\"1\"} 1");
  const size_t b2 = body.find("prom_hist_latency_bucket{le=\"2\"} 2");
  const size_t binf = body.find("prom_hist_latency_bucket{le=\"+Inf\"} 3");
  ASSERT_NE(b1, std::string::npos) << body;
  ASSERT_NE(b2, std::string::npos) << body;
  ASSERT_NE(binf, std::string::npos) << body;
  EXPECT_LT(b1, b2);
  EXPECT_LT(b2, binf);
  EXPECT_NE(body.find("prom_hist_latency_sum 5"), std::string::npos);
  EXPECT_NE(body.find("prom_hist_latency_count 3"), std::string::npos);
}

TEST(PrometheusTest, NonFiniteGaugesUseExpositionLiterals) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  registry.GetGauge("prom_nonfinite/nan")
      .Set(std::numeric_limits<double>::quiet_NaN());
  registry.GetGauge("prom_nonfinite/pinf")
      .Set(std::numeric_limits<double>::infinity());
  registry.GetGauge("prom_nonfinite/ninf")
      .Set(-std::numeric_limits<double>::infinity());

  std::ostringstream out;
  WritePrometheusReport(registry.Snapshot(), out);
  const std::string body = out.str();
  EXPECT_NE(body.find("prom_nonfinite_nan NaN"), std::string::npos) << body;
  EXPECT_NE(body.find("prom_nonfinite_pinf +Inf"), std::string::npos);
  EXPECT_NE(body.find("prom_nonfinite_ninf -Inf"), std::string::npos);
}

TEST(TraceTest, HostileSpanNamesRoundTripThroughChromeTrace) {
  TraceBuffer& buffer = TraceBuffer::Get();
  buffer.Clear();
  buffer.SetEnabled(true);
  {
    AMS_TRACE_SPAN("trace_test/evil\"quote\\back\nline");
  }
  buffer.SetEnabled(false);

  std::ostringstream out;
  TraceExporter::WriteJson(out);
  auto result = json::Parse(out.str());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const json::Value* events = result.ValueOrDie().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  bool found = false;
  for (const json::Value& event : events->array) {
    const json::Value* name = event.Find("name");
    if (name != nullptr &&
        name->string_value == "trace_test/evil\"quote\\back\nline") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  buffer.Clear();
}

// ---------------------------------------------------------------------------
// PeriodicReporter: JSONL delta snapshots, derived gauges, clean shutdown —
// exercised while other threads hammer labeled instruments (the interesting
// part under -DAMS_SANITIZE=thread).

TEST(PeriodicReporterTest, EmitsValidSelfContainedJsonlUnderConcurrency) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  const char* kModels[] = {"AMS", "Ridge", "XGBoost"};
  // The first line is full and may be emitted before any worker has run:
  // register the series the full-line checks below expect up front.
  for (const char* model : kModels) {
    registry.GetCounter("periodic_test/model_fit", {{"model", model}});
  }
  registry.GetHistogram("periodic_test/lat_ms");

  std::ostringstream stream;
  PeriodicReporter::Options options;
  options.interval_ms = 5;
  options.out = &stream;
  auto reporter = std::make_unique<PeriodicReporter>(options);

  std::atomic<bool> keep_running{true};
  std::vector<std::thread> workers;
  for (const char* model : kModels) {
    workers.emplace_back([model, &keep_running] {
      MetricsRegistry& reg = MetricsRegistry::Get();
      Counter& fits =
          reg.GetCounter("periodic_test/model_fit", {{"model", model}});
      Histogram& lat = reg.GetHistogram("periodic_test/lat_ms");
      int i = 0;
      while (keep_running.load(std::memory_order_relaxed)) {
        fits.Increment();
        reg.GetGauge("periodic_test/loss", {{"model", model}})
            .Set(1.0 / (1 + i));
        lat.Observe(static_cast<double>(i % 16));
        ++i;
      }
    });
  }

  // Let the reporter tick a few times while the workers run; generous
  // deadline for slow or sanitized builds.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (reporter->lines_emitted() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  keep_running.store(false);
  for (std::thread& worker : workers) worker.join();
  reporter->Stop();
  const int lines_emitted = reporter->lines_emitted();
  ASSERT_GE(lines_emitted, 3);

  // Every line parses; sequence numbers increase; the last line is final.
  // Full lines (first and final) carry the derived gauges and every live
  // series; interior lines are emit-on-change so a series may be absent —
  // but when present its shape must still be self-consistent.
  std::istringstream lines(stream.str());
  std::string line;
  int parsed_lines = 0;
  double last_seq = -1.0;
  bool saw_final = false;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    auto result = json::Parse(line);
    ASSERT_TRUE(result.ok())
        << result.status().ToString() << " in line: " << line;
    const json::Value& root = result.ValueOrDie();
    ++parsed_lines;
    ASSERT_NE(root.Find("schema"), nullptr);
    EXPECT_EQ(root.Find("schema")->string_value, "ams-telemetry-delta-v2");
    ASSERT_NE(root.Find("seq"), nullptr);
    EXPECT_GT(root.Find("seq")->number, last_seq);
    last_seq = root.Find("seq")->number;
    ASSERT_NE(root.Find("final"), nullptr);
    saw_final = root.Find("final")->bool_value;  // true only on the last
    ASSERT_NE(root.Find("full"), nullptr);
    const bool full = root.Find("full")->bool_value;
    EXPECT_EQ(full, saw_final || root.Find("seq")->number == 1.0);

    const json::Value* gauges = root.Find("gauges");
    ASSERT_NE(gauges, nullptr);
    const json::Value* counters = root.Find("counters");
    ASSERT_NE(counters, nullptr);
    const json::Value* histograms = root.Find("histograms");
    ASSERT_NE(histograms, nullptr);
    if (full) {
      EXPECT_NE(gauges->Find("par/pool_utilization"), nullptr);
      EXPECT_NE(gauges->Find("robust/fault_rate"), nullptr);
      ASSERT_NE(counters->Find("periodic_test/model_fit{model=\"AMS\"}"),
                nullptr);
      ASSERT_NE(histograms->Find("periodic_test/lat_ms"), nullptr);
    }
    const json::Value* labeled =
        counters->Find("periodic_test/model_fit{model=\"AMS\"}");
    if (labeled != nullptr) {
      ASSERT_NE(labeled->Find("total"), nullptr);
      ASSERT_NE(labeled->Find("delta"), nullptr);
      EXPECT_GE(labeled->Find("total")->number,
                labeled->Find("delta")->number);
    }
    const json::Value* lat = histograms->Find("periodic_test/lat_ms");
    if (lat != nullptr) {
      for (const char* field :
           {"count", "delta", "sum", "p50", "p95", "p99"}) {
        EXPECT_NE(lat->Find(field), nullptr) << field;
      }
    }
  }
  EXPECT_EQ(parsed_lines, lines_emitted);
  EXPECT_TRUE(saw_final);

  // The derived gauges were folded back into the registry for exit reports.
  const double utilization =
      registry.GetGauge("par/pool_utilization").value();
  EXPECT_GE(utilization, 0.0);
  EXPECT_LE(utilization, 1.0);

  // Stop is idempotent and emits nothing further.
  reporter->Stop();
  EXPECT_EQ(reporter->lines_emitted(), lines_emitted);
}

TEST(PeriodicReporterTest, OptionsFromEnvParsesIntervalAndFile) {
  ::setenv("AMS_TELEMETRY_INTERVAL_MS", "250", 1);
  ::setenv("AMS_TELEMETRY_FILE", "/tmp/t.jsonl", 1);
  PeriodicReporter::Options options = PeriodicReporter::OptionsFromEnv();
  EXPECT_EQ(options.interval_ms, 250);
  EXPECT_EQ(options.file_path, "/tmp/t.jsonl");
  ::setenv("AMS_TELEMETRY_INTERVAL_MS", "bogus", 1);
  EXPECT_LE(PeriodicReporter::OptionsFromEnv().interval_ms, 0);
  ::unsetenv("AMS_TELEMETRY_INTERVAL_MS");
  EXPECT_LE(PeriodicReporter::OptionsFromEnv().interval_ms, 0);
  ::unsetenv("AMS_TELEMETRY_FILE");
}

TEST(PeriodicReporterTest, WritesToFileAndShortRunStillGetsFinalLine) {
  const std::string path = ::testing::TempDir() + "periodic_test.jsonl";
  {
    PeriodicReporter::Options options;
    options.interval_ms = 60'000;  // never ticks on its own
    options.file_path = path;
    PeriodicReporter reporter(options);
    MetricsRegistry::Get().GetCounter("periodic_file_test/events").Add(4);
    reporter.Stop();
    EXPECT_EQ(reporter.lines_emitted(), 1);  // the final flush
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  auto result = json::Parse(line);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.ValueOrDie().Find("final")->bool_value);
  std::filesystem::remove(path);
}

TEST(PeriodicReporterTest, EmitOnChangeOmitsUnchangedSeries) {
  // A gauge set once before the reporter starts appears on the first (full)
  // line and the final (full) line, but on no interior line: it never
  // changes after its first emission.
  MetricsRegistry::Get().GetGauge("eoc_test/static").Set(42.0);

  std::ostringstream stream;
  PeriodicReporter::Options options;
  options.interval_ms = 5;
  options.out = &stream;
  PeriodicReporter reporter(options);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (reporter.lines_emitted() < 4 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  reporter.Stop();
  ASSERT_GE(reporter.lines_emitted(), 4);

  std::istringstream lines(stream.str());
  std::string line;
  int static_appearances = 0;
  int full_lines = 0;
  int interior_lines_with_static = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    auto result = json::Parse(line);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const json::Value& root = result.ValueOrDie();
    const bool full = root.Find("full")->bool_value;
    const json::Value* gauges = root.Find("gauges");
    ASSERT_NE(gauges, nullptr);
    const bool has_static = gauges->Find("eoc_test/static") != nullptr;
    if (full) {
      ++full_lines;
      EXPECT_TRUE(has_static);
    } else if (has_static) {
      ++interior_lines_with_static;
    }
    if (has_static) ++static_appearances;
  }
  EXPECT_EQ(full_lines, 2);  // first and final
  EXPECT_EQ(interior_lines_with_static, 0);
  EXPECT_EQ(static_appearances, 2);
}

TEST(PeriodicReporterTest, LabeledCardinalityCapDropsAndCounts) {
  // Far more labeled series than the cap admits: each line carries at most
  // `max_labeled_series` labeled names and the overflow lands in the
  // obs/dropped_series counter (itself unlabeled, so never capped).
  MetricsRegistry& registry = MetricsRegistry::Get();
  for (int i = 0; i < 32; ++i) {
    registry
        .GetCounter("cap_test/events", {{"shard", std::to_string(i)}})
        .Add(static_cast<uint64_t>(i + 1));
  }
  const uint64_t dropped_before =
      registry.GetCounter("obs/dropped_series").value();

  std::ostringstream stream;
  PeriodicReporter::Options options;
  options.interval_ms = 60'000;  // never ticks on its own
  options.out = &stream;
  options.max_labeled_series = 4;
  PeriodicReporter reporter(options);
  reporter.Stop();  // emits the one final (full) line

  auto result = json::Parse(stream.str().substr(0, stream.str().find('\n')));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const json::Value& root = result.ValueOrDie();
  int labeled_emitted = 0;
  for (const char* section : {"counters", "gauges", "histograms"}) {
    const json::Value* object = root.Find(section);
    ASSERT_NE(object, nullptr);
    for (const auto& [name, value] : object->object) {
      if (name.find('{') != std::string::npos) ++labeled_emitted;
    }
  }
  EXPECT_LE(labeled_emitted, 4);
  EXPECT_GT(registry.GetCounter("obs/dropped_series").value(),
            dropped_before);
}

// ---------------------------------------------------------------------------
// Sampling wall-clock profiler.

TEST(ProfilerTest, CapturesKnownStackInFoldedOutput) {
  WallProfiler::Options options;
  options.hz = 2000.0;  // fast so the test finishes quickly
  std::ostringstream folded;
  options.out = &folded;
  WallProfiler profiler(options);
  {
    AMS_TRACE_SPAN("prof_test/outer");
    AMS_TRACE_SPAN("prof_test/inner");
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (profiler.samples() < 20 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  profiler.Stop();
  ASSERT_GE(profiler.samples(), 20u);

  // The two-frame stack dominates this thread's samples.
  bool found_stack = false;
  for (const auto& [stack, count] : profiler.FoldedCounts()) {
    if (stack == "prof_test/outer;prof_test/inner") {
      found_stack = count > 0;
    }
  }
  EXPECT_TRUE(found_stack);

  // Folded lines are flamegraph-consumable: "frame[;frame...] count".
  std::istringstream lines(folded.str());
  std::string line;
  int parsed = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    ++parsed;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(space, 0u) << line;
    const std::string count_text = line.substr(space + 1);
    char* end = nullptr;
    const unsigned long long count =
        std::strtoull(count_text.c_str(), &end, 10);
    EXPECT_NE(end, count_text.c_str()) << line;
    EXPECT_EQ(*end, '\0') << line;
    EXPECT_GT(count, 0ull) << line;
  }
  EXPECT_GE(parsed, 1);

  // Stop is idempotent; the sample counter froze.
  const uint64_t samples = profiler.samples();
  profiler.Stop();
  EXPECT_EQ(profiler.samples(), samples);
}

TEST(ProfilerTest, SanitizesHostileFrameNames) {
  WallProfiler::Options options;
  options.hz = 2000.0;
  WallProfiler profiler(options);
  {
    AMS_TRACE_SPAN("prof;evil test\tname");
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (profiler.samples() < 10 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  profiler.Stop();
  bool found = false;
  for (const auto& [stack, count] : profiler.FoldedCounts()) {
    EXPECT_EQ(stack.find(' '), std::string::npos) << stack;
    EXPECT_EQ(stack.find('\t'), std::string::npos) << stack;
    if (stack == "prof_evil_test_name") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ProfilerTest, OptionsFromEnvParsesFileAndHz) {
  ::setenv("AMS_PROFILE_FILE", "/tmp/p.folded", 1);
  ::setenv("AMS_PROFILE_HZ", "250", 1);
  WallProfiler::Options options = WallProfiler::OptionsFromEnv();
  EXPECT_EQ(options.file_path, "/tmp/p.folded");
  EXPECT_EQ(options.hz, 250.0);
  ::unsetenv("AMS_PROFILE_HZ");
  EXPECT_EQ(WallProfiler::OptionsFromEnv().hz, 97.0);  // prime default
  ::unsetenv("AMS_PROFILE_FILE");
  EXPECT_TRUE(WallProfiler::OptionsFromEnv().file_path.empty());
}

// ---------------------------------------------------------------------------
// SLO health monitor.

TEST(HealthTest, ParseSpecAcceptsGrammar) {
  auto result = HealthMonitor::ParseSpec(
      "serve/latency_ms:p99<50;robust/fault_rate:<0.01;"
      "serve/requests:count>=100;train/loss<=0.5");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::vector<SloTarget>& targets = result.ValueOrDie();
  ASSERT_EQ(targets.size(), 4u);
  EXPECT_EQ(targets[0].metric, "serve/latency_ms");
  EXPECT_EQ(targets[0].aggregate, "p99");
  EXPECT_TRUE(targets[0].less_than);
  EXPECT_FALSE(targets[0].or_equal);
  EXPECT_DOUBLE_EQ(targets[0].threshold, 50.0);
  EXPECT_EQ(targets[1].aggregate, "value");  // trailing bare ':'
  EXPECT_DOUBLE_EQ(targets[1].threshold, 0.01);
  EXPECT_EQ(targets[2].aggregate, "count");
  EXPECT_FALSE(targets[2].less_than);
  EXPECT_TRUE(targets[2].or_equal);
  EXPECT_EQ(targets[3].metric, "train/loss");
  EXPECT_EQ(targets[3].aggregate, "value");  // no ':' at all
  EXPECT_TRUE(targets[3].or_equal);
  // Empty spec: no targets, no error. Empty items are skipped.
  EXPECT_TRUE(HealthMonitor::ParseSpec("").ValueOrDie().empty());
  EXPECT_EQ(HealthMonitor::ParseSpec(";;a<1;").ValueOrDie().size(), 1u);
}

TEST(HealthTest, ParseSpecRejectsMalformed) {
  for (const char* spec :
       {"nonsense", "m:p42<5", "m<", "<5", "m<abc", "m<1junk", ":p99<5",
        "good<1;bad"}) {
    EXPECT_FALSE(HealthMonitor::ParseSpec(spec).ok()) << spec;
  }
}

TEST(HealthTest, EvaluateHysteresisAndRecovery) {
  auto targets = HealthMonitor::ParseSpec("health_test/g:<5");
  ASSERT_TRUE(targets.ok());
  HealthMonitor monitor(targets.MoveValue(), /*fail_after=*/3);

  MetricsSnapshot snapshot;
  snapshot.gauges.push_back({"health_test/g", 1.0});
  EXPECT_EQ(monitor.Evaluate(snapshot), HealthState::kOk);

  snapshot.gauges[0].value = 10.0;  // violated
  EXPECT_EQ(monitor.Evaluate(snapshot), HealthState::kDegraded);
  EXPECT_EQ(monitor.last_results()[0].streak, 1);
  EXPECT_EQ(monitor.Evaluate(snapshot), HealthState::kDegraded);
  EXPECT_EQ(monitor.Evaluate(snapshot), HealthState::kFailing);
  EXPECT_EQ(monitor.last_results()[0].streak, 3);
  EXPECT_EQ(monitor.state(), HealthState::kFailing);

  snapshot.gauges[0].value = 1.0;  // recovery resets the streak
  EXPECT_EQ(monitor.Evaluate(snapshot), HealthState::kOk);
  EXPECT_EQ(monitor.last_results()[0].streak, 0);

  // The evaluation published the health gauges.
  EXPECT_EQ(MetricsRegistry::Get().GetGauge("obs/health_state").value(), 0.0);
  EXPECT_EQ(MetricsRegistry::Get()
                .GetGauge("obs/slo_violation", {{"slo", "health_test/g:<5"}})
                .value(),
            0.0);
}

TEST(HealthTest, MissingMetricIsNeverViolated) {
  auto targets =
      HealthMonitor::ParseSpec("health_test/not_registered_anywhere<1");
  ASSERT_TRUE(targets.ok());
  HealthMonitor monitor(targets.MoveValue());
  EXPECT_EQ(monitor.Evaluate(MetricsSnapshot{}), HealthState::kOk);
  ASSERT_EQ(monitor.last_results().size(), 1u);
  EXPECT_TRUE(monitor.last_results()[0].missing);
  EXPECT_FALSE(monitor.last_results()[0].violated);
}

TEST(HealthTest, HistogramAggregatesAndValueFallback) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  Histogram& lat = registry.GetHistogram("health_hist_test/lat");
  lat.Reset();
  for (int i = 0; i < 100; ++i) lat.Observe(static_cast<double>(i));
  registry.GetCounter("health_hist_test/reqs").Add(7);

  auto targets = HealthMonitor::ParseSpec(
      "health_hist_test/lat:p99<10;health_hist_test/lat:count>=100;"
      "health_hist_test/reqs>5");
  ASSERT_TRUE(targets.ok());
  HealthMonitor monitor(targets.MoveValue());
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(monitor.Evaluate(snapshot), HealthState::kDegraded);
  const std::vector<SloResult> results = monitor.last_results();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].violated);   // p99 of 0..99 is way above 10
  EXPECT_GT(results[0].observed, 10.0);
  EXPECT_FALSE(results[1].violated);  // count == 100 >= 100
  EXPECT_FALSE(results[2].violated);  // counter total 7 > 5
  EXPECT_DOUBLE_EQ(results[2].observed, 7.0);
}

TEST(HealthTest, ConfigureGlobalSwapsAndClears) {
  ASSERT_TRUE(HealthMonitor::ConfigureGlobal("health_global_test/g<1").ok());
  ASSERT_NE(HealthMonitor::Global(), nullptr);
  EXPECT_EQ(HealthMonitor::Global()->targets().size(), 1u);
  // A malformed spec is refused and leaves the previous monitor in place.
  EXPECT_FALSE(HealthMonitor::ConfigureGlobal("broken").ok());
  ASSERT_NE(HealthMonitor::Global(), nullptr);
  EXPECT_EQ(HealthMonitor::Global()->targets()[0].metric,
            "health_global_test/g");
  ASSERT_TRUE(HealthMonitor::ConfigureGlobal("").ok());
  EXPECT_EQ(HealthMonitor::Global(), nullptr);
}

// ---------------------------------------------------------------------------
// Run ledger.

TEST(LedgerTest, ManifestShapeAndFingerprint) {
  MetricsRegistry::Get().GetCounter("ledger_test/events").Add(2);
  std::ostringstream out;
  WriteRunLedgerJson("unit_test", 4242, 123.5,
                     MetricsRegistry::Get().Snapshot(), out);
  auto result = json::Parse(out.str());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const json::Value& root = result.ValueOrDie();
  EXPECT_EQ(root.Find("schema")->string_value, "ams-run-ledger-v1");
  EXPECT_DOUBLE_EQ(root.Find("schema_version")->number,
                   kRunLedgerSchemaVersion);
  EXPECT_EQ(root.Find("binary")->string_value, "unit_test");
  EXPECT_DOUBLE_EQ(root.Find("pid")->number, 4242.0);
  EXPECT_DOUBLE_EQ(root.Find("wall_time_ms")->number, 123.5);

  // Fingerprint: 16 hex chars, deterministic, environment-sensitive.
  const std::string fingerprint =
      root.Find("config_fingerprint")->string_value;
  EXPECT_EQ(fingerprint.size(), 16u);
  EXPECT_EQ(fingerprint.find_first_not_of("0123456789abcdef"),
            std::string::npos);
  EXPECT_EQ(ConfigFingerprint("unit_test"), fingerprint);
  EXPECT_NE(ConfigFingerprint("other_binary"), fingerprint);
  ::setenv("AMS_THREADS", "7", 1);
  EXPECT_NE(ConfigFingerprint("unit_test"), fingerprint);
  ::unsetenv("AMS_THREADS");
  EXPECT_EQ(ConfigFingerprint("unit_test"), fingerprint);

  // Every behaviour-relevant env key appears (null when unset), and the
  // metrics block embeds the full report.
  const json::Value* env = root.Find("env");
  ASSERT_NE(env, nullptr);
  for (const std::string& key : RunLedgerEnvKeys()) {
    EXPECT_NE(env->Find(key), nullptr) << key;
  }
  const json::Value* metrics = root.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_NE(metrics->Find("counters"), nullptr);
  EXPECT_NE(metrics->Find("counters")->Find("ledger_test/events"), nullptr);

  // With no global monitor, the health block is null (AMS_SLO unset).
  ASSERT_NE(root.Find("health"), nullptr);
  EXPECT_TRUE(root.Find("health")->is_null());
}

TEST(LedgerTest, HealthBlockReflectsGlobalMonitor) {
  MetricsRegistry::Get().GetGauge("ledger_health_test/g").Set(10.0);
  ASSERT_TRUE(
      HealthMonitor::ConfigureGlobal("ledger_health_test/g<5").ok());

  std::ostringstream out;
  WriteRunLedgerJson("unit_test", 4242, 1.0,
                     MetricsRegistry::Get().Snapshot(), out);
  HealthMonitor::ConfigureGlobal("");  // clear before any assertion can bail

  auto result = json::Parse(out.str());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const json::Value* health = result.ValueOrDie().Find("health");
  ASSERT_NE(health, nullptr);
  ASSERT_TRUE(health->is_object());
  EXPECT_EQ(health->Find("state")->string_value, "degraded");
  const json::Value* targets = health->Find("targets");
  ASSERT_NE(targets, nullptr);
  ASSERT_EQ(targets->array.size(), 1u);
  const json::Value& target = targets->array[0];
  EXPECT_EQ(target.Find("slo")->string_value, "ledger_health_test/g<5");
  EXPECT_DOUBLE_EQ(target.Find("observed")->number, 10.0);
  EXPECT_TRUE(target.Find("violated")->bool_value);
  EXPECT_FALSE(target.Find("missing")->bool_value);
}

TEST(LedgerTest, ComponentsFoldIntoFingerprintAndManifest) {
  ClearLedgerComponents();
  const std::string base = ConfigFingerprint("unit_test");

  // Registering a component changes the fingerprint (same env, different
  // served model => different configuration identity).
  SetLedgerComponent("serve_model_fingerprint", "abc123");
  const std::string with_component = ConfigFingerprint("unit_test");
  EXPECT_NE(with_component, base);

  // Last write per key wins; a second key changes the hash again.
  SetLedgerComponent("serve_model_fingerprint", "def456");
  EXPECT_NE(ConfigFingerprint("unit_test"), with_component);
  SetLedgerComponent("dataset", "synthetic-v1");
  auto components = LedgerComponents();
  ASSERT_EQ(components.size(), 2u);
  EXPECT_EQ(components[0].first, "dataset");  // sorted by key
  EXPECT_EQ(components[1].first, "serve_model_fingerprint");
  EXPECT_EQ(components[1].second, "def456");

  // The manifest carries the components object, and its fingerprint is the
  // component-aware one.
  std::ostringstream out;
  WriteRunLedgerJson("unit_test", 1, 1.0, MetricsRegistry::Get().Snapshot(),
                     out);
  auto result = json::Parse(out.str());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const json::Value& root = result.ValueOrDie();
  const json::Value* manifest_components = root.Find("components");
  ASSERT_NE(manifest_components, nullptr);
  ASSERT_NE(manifest_components->Find("serve_model_fingerprint"), nullptr);
  EXPECT_EQ(manifest_components->Find("serve_model_fingerprint")->string_value,
            "def456");
  EXPECT_EQ(root.Find("config_fingerprint")->string_value,
            ConfigFingerprint("unit_test"));

  // Clearing restores the component-free fingerprint.
  ClearLedgerComponents();
  EXPECT_EQ(ConfigFingerprint("unit_test"), base);
}

TEST(LedgerTest, WriteRunLedgerCreatesParseableFile) {
  const std::string dir = ::testing::TempDir() + "ams_ledger_test";
  std::filesystem::remove_all(dir);
  Status status = WriteRunLedger(dir, "ledger_unit", 10.0,
                                 MetricsRegistry::Get().Snapshot());
  ASSERT_TRUE(status.ok()) << status.ToString();
  const std::string path =
      dir + "/run_ledger_unit_" + std::to_string(::getpid()) + ".json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto result = json::Parse(buffer.str());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.ValueOrDie().Find("binary")->string_value, "ledger_unit");
  // No leftover temp file from the atomic write.
  int entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// AMS_TELEMETRY env handling and off-mode silence.

TEST(ReportTest, TelemetryModeFromEnv) {
  ::setenv("AMS_TELEMETRY", "text", 1);
  EXPECT_EQ(TelemetryModeFromEnv(), TelemetryMode::kText);
  ::setenv("AMS_TELEMETRY", "json", 1);
  EXPECT_EQ(TelemetryModeFromEnv(), TelemetryMode::kJson);
  ::setenv("AMS_TELEMETRY", "off", 1);
  EXPECT_EQ(TelemetryModeFromEnv(), TelemetryMode::kOff);
  ::setenv("AMS_TELEMETRY", "bogus", 1);
  EXPECT_EQ(TelemetryModeFromEnv(), TelemetryMode::kOff);
  ::unsetenv("AMS_TELEMETRY");
  EXPECT_EQ(TelemetryModeFromEnv(), TelemetryMode::kOff);
}

TEST(ReportTest, OffModeEmitsNothing) {
  // Even with registered, non-zero instruments, kOff must write zero bytes.
  MetricsRegistry::Get().GetCounter("off_test/counter").Add(1);
  std::ostringstream out;
  FlushReport(TelemetryMode::kOff, out);
  EXPECT_TRUE(out.str().empty());
}

// ---------------------------------------------------------------------------
// Logging satellites.

TEST(LoggingTest, SinkCapturesOutput) {
  std::ostringstream capture;
  SetLogSink(&capture);
  AMS_LOG(Warning) << "captured " << 42;
  SetLogSink(nullptr);
  const std::string line = capture.str();
  EXPECT_NE(line.find("[WARN"), std::string::npos);
  EXPECT_NE(line.find("captured 42"), std::string::npos);
  EXPECT_NE(line.find("obs_test.cc"), std::string::npos);
}

TEST(LoggingTest, TimestampPrefixIsOptional) {
  std::ostringstream capture;
  SetLogSink(&capture);
  AMS_LOG(Warning) << "plain";
  const std::string plain = capture.str();
  EXPECT_EQ(plain.find("[WARN"), 0u);  // no prefix before the level tag

  capture.str("");
  SetLogTimestamps(true);
  AMS_LOG(Warning) << "stamped";
  SetLogTimestamps(false);
  SetLogSink(nullptr);
  const std::string stamped = capture.str();
  // "HH:MM:SS.mmm tN [WARN ...": the level tag no longer leads the line.
  EXPECT_GT(stamped.find("[WARN"), 0u);
  EXPECT_EQ(stamped[2], ':');
  EXPECT_EQ(stamped[5], ':');
  EXPECT_EQ(stamped[8], '.');
  EXPECT_NE(stamped.find(" t"), std::string::npos);
}

TEST(LoggingTest, DisabledLevelSkipsArgumentEvaluation) {
  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kWarning);
  std::ostringstream capture;
  SetLogSink(&capture);
  int evaluations = 0;
  auto side_effect = [&evaluations] {
    ++evaluations;
    return "evaluated";
  };
  AMS_LOG(Debug) << side_effect();  // below threshold: must not evaluate
  AMS_LOG(Info) << side_effect();   // below threshold: must not evaluate
  EXPECT_EQ(evaluations, 0);
  EXPECT_TRUE(capture.str().empty());

  AMS_LOG(Error) << side_effect();  // enabled: evaluates and logs
  EXPECT_EQ(evaluations, 1);
  EXPECT_NE(capture.str().find("evaluated"), std::string::npos);
  SetLogSink(nullptr);
  SetLogLevel(saved);
}

}  // namespace
}  // namespace ams::obs
