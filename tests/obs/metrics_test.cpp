#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "obs/json.hpp"
#include "util/thread_pool.hpp"

namespace cfgx::obs {
namespace {

// Every test in this file runs against the process-global registry (the
// references handed to instrumented call sites are cached in function-local
// statics, so a per-test registry is not an option). reset() zeroes values
// between tests; the enable flag is restored on teardown.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_enabled_ = metrics_enabled();
    set_metrics_enabled(true);
    MetricsRegistry::global().reset();
  }

  void TearDown() override {
    MetricsRegistry::global().reset();
    set_metrics_enabled(saved_enabled_);
  }

 private:
  bool saved_enabled_ = true;
};

TEST_F(MetricsTest, CounterAccumulatesAndResets) {
  Counter& counter = MetricsRegistry::global().counter("test.counter");
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST_F(MetricsTest, DisabledMetricsDropRecordings) {
  Counter& counter = MetricsRegistry::global().counter("test.gated");
  Histogram& histogram = MetricsRegistry::global().histogram("test.gated_h");
  set_metrics_enabled(false);
  counter.add(5);
  histogram.record(1.0);
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(histogram.count(), 0u);
  set_metrics_enabled(true);
  counter.add(5);
  histogram.record(1.0);
  EXPECT_EQ(counter.value(), 5u);
  EXPECT_EQ(histogram.count(), 1u);
}

TEST_F(MetricsTest, RegistryReturnsSameInstanceForSameName) {
  Counter& a = MetricsRegistry::global().counter("test.same");
  Counter& b = MetricsRegistry::global().counter("test.same");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST_F(MetricsTest, GaugeSetAndAdd) {
  Gauge& gauge = MetricsRegistry::global().gauge("test.gauge");
  gauge.set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  gauge.add(1.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 4.0);
}

TEST_F(MetricsTest, HistogramTracksExactCountSumMinMax) {
  Histogram& histogram = MetricsRegistry::global().histogram("test.hist");
  for (double v : {0.001, 0.002, 0.004, 0.008}) histogram.record(v);
  EXPECT_EQ(histogram.count(), 4u);
  EXPECT_NEAR(histogram.sum(), 0.015, 1e-15);
  EXPECT_NEAR(histogram.mean(), 0.00375, 1e-15);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.001);
  EXPECT_DOUBLE_EQ(histogram.max(), 0.008);
}

TEST_F(MetricsTest, HistogramQuantilesWithinBucketResolution) {
  Histogram& histogram = MetricsRegistry::global().histogram("test.quantile");
  // 100 samples spread over [1ms, 100ms]; the log-bucketed histogram
  // guarantees ~19% relative resolution, so allow 25% slack.
  for (int i = 1; i <= 100; ++i) histogram.record(i * 1e-3);
  EXPECT_NEAR(histogram.quantile(0.5), 0.050, 0.050 * 0.25);
  EXPECT_NEAR(histogram.quantile(0.95), 0.095, 0.095 * 0.25);
  // Extremes clamp to the exact observed min/max.
  EXPECT_DOUBLE_EQ(histogram.quantile(0.0), 0.001);
  EXPECT_DOUBLE_EQ(histogram.quantile(1.0), 0.100);
  EXPECT_THROW(histogram.quantile(1.5), std::invalid_argument);
  EXPECT_THROW(histogram.quantile(-0.1), std::invalid_argument);
}

TEST_F(MetricsTest, HistogramQuantileOnEmptyIsZeroForEveryQ) {
  // An idle histogram (e.g. a serve latency histogram before any request
  // completed) must be snapshot-safe: every quantile is the documented
  // 0.0, no bucket array access, no throw.
  Histogram& histogram = MetricsRegistry::global().histogram("test.empty");
  EXPECT_EQ(histogram.count(), 0u);
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(histogram.quantile(q), 0.0) << "q=" << q;
  }
  // Range validation still applies when empty.
  EXPECT_THROW(histogram.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW(histogram.quantile(1.5), std::invalid_argument);
}

TEST_F(MetricsTest, HistogramQuantileWithSingleSampleIsExact) {
  Histogram& histogram = MetricsRegistry::global().histogram("test.single");
  histogram.record(0.042);
  // The [min, max] clamp collapses every quantile onto the one sample.
  for (double q : {0.0, 0.5, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(histogram.quantile(q), 0.042) << "q=" << q;
  }
}

TEST_F(MetricsTest, HistogramQuantileAllSamplesInOneBucketIsExactRange) {
  Histogram& histogram = MetricsRegistry::global().histogram("test.onebucket");
  // Identical values land in one bucket; quantiles must report that value
  // exactly (clamped), not a bucket midpoint.
  for (int i = 0; i < 50; ++i) histogram.record(0.010);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(histogram.quantile(q), 0.010) << "q=" << q;
  }
}

TEST_F(MetricsTest, HistogramBucketBoundsAreMonotone) {
  double previous = Histogram::bucket_lower_bound(0);
  for (std::size_t i = 1; i < Histogram::kBucketCount; ++i) {
    const double bound = Histogram::bucket_lower_bound(i);
    EXPECT_GT(bound, previous) << "bucket " << i;
    previous = bound;
  }
}

TEST_F(MetricsTest, ScopedDurationTimerRecordsPositiveDuration) {
  Histogram& histogram = MetricsRegistry::global().histogram("test.scoped");
  { ScopedDurationTimer timer(histogram); }
  EXPECT_EQ(histogram.count(), 1u);
  EXPECT_GE(histogram.max(), 0.0);
}

// ISSUE acceptance: hammer one counter and one histogram from many
// ThreadPool workers and assert the totals are exact - no lost updates.
TEST_F(MetricsTest, ConcurrentCounterHammerHasExactTotal) {
  Counter& counter = MetricsRegistry::global().counter("test.hammer");
  ThreadPool pool(8);
  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kAddsPerTask = 10000;
  pool.parallel_for(kTasks, [&](std::size_t) {
    for (std::size_t i = 0; i < kAddsPerTask; ++i) counter.add();
  });
  EXPECT_EQ(counter.value(), kTasks * kAddsPerTask);
}

TEST_F(MetricsTest, ConcurrentHistogramHammerHasExactCountAndBounds) {
  Histogram& histogram = MetricsRegistry::global().histogram("test.hammer_h");
  ThreadPool pool(8);
  constexpr std::size_t kTasks = 32;
  constexpr std::size_t kRecordsPerTask = 2000;
  pool.parallel_for(kTasks, [&](std::size_t task) {
    for (std::size_t i = 0; i < kRecordsPerTask; ++i) {
      // Distinct per-task values; every value is in [1e-6, 32e-6].
      histogram.record(static_cast<double>(task + 1) * 1e-6);
    }
  });
  EXPECT_EQ(histogram.count(), kTasks * kRecordsPerTask);
  EXPECT_DOUBLE_EQ(histogram.min(), 1e-6);
  EXPECT_DOUBLE_EQ(histogram.max(), static_cast<double>(kTasks) * 1e-6);
  // Bucket counts must account for every recording.
  std::uint64_t bucket_total = 0;
  for (std::uint64_t c : histogram.bucket_counts()) bucket_total += c;
  EXPECT_EQ(bucket_total, kTasks * kRecordsPerTask);
}

TEST_F(MetricsTest, SnapshotJsonRoundTrips) {
  MetricsRegistry::global().counter("test.snap_counter").add(7);
  MetricsRegistry::global().gauge("test.snap_gauge").set(1.25);
  Histogram& histogram = MetricsRegistry::global().histogram("test.snap_hist");
  histogram.record(0.5);
  histogram.record(1.5);

  const MetricsSnapshot snapshot = MetricsRegistry::global().snapshot();
  const JsonValue doc = JsonValue::parse(snapshot.json());
  ASSERT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.at("counters").at("test.snap_counter").number_value, 7.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("test.snap_gauge").number_value, 1.25);

  bool found = false;
  for (const JsonValue& h : doc.at("histograms").items) {
    if (h.at("name").string_value != "test.snap_hist") continue;
    found = true;
    EXPECT_DOUBLE_EQ(h.at("count").number_value, 2.0);
    EXPECT_DOUBLE_EQ(h.at("sum").number_value, 2.0);
    EXPECT_DOUBLE_EQ(h.at("min").number_value, 0.5);
    EXPECT_DOUBLE_EQ(h.at("max").number_value, 1.5);
    EXPECT_TRUE(h.has("p50"));
    EXPECT_TRUE(h.has("p95"));
    EXPECT_TRUE(h.has("p99"));
  }
  EXPECT_TRUE(found);
}

TEST_F(MetricsTest, ThreadPoolInstrumentationCountsSubmittedTasks) {
  Counter& submitted = MetricsRegistry::global().counter("pool.tasks_submitted");
  Histogram& run_seconds =
      MetricsRegistry::global().histogram("pool.task_run_seconds");
  const std::uint64_t submitted_before = submitted.value();
  const std::uint64_t run_before = run_seconds.count();

  {
    ThreadPool pool(4);
    for (int i = 0; i < 10; ++i) pool.submit([] {}).get();
    // A worker records the run time after the task's future is ready;
    // joining the workers (pool destruction) waits for the last record.
  }

  EXPECT_EQ(submitted.value() - submitted_before, 10u);
  EXPECT_EQ(run_seconds.count() - run_before, 10u);
}

}  // namespace
}  // namespace cfgx::obs
