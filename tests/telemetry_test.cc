// Per-tick telemetry timeline: sampling semantics (stride, retention,
// per-tick idempotence), window queries, and the latency watchdog's
// arm/relax loop against the resource governor
// (docs/observability.md, "Telemetry timeline").

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/governor.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "scoped_governor_limits.h"

namespace most {
namespace {

using obs::Counter;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::TelemetryRecorder;

TEST(TelemetryRecorderTest, DisabledRecorderSamplesNothing) {
  MetricsRegistry registry;
  registry.GetCounter("t_events_total", "events")->Inc();
  TelemetryRecorder rec;
  rec.Track("t_events_total");
  rec.OnTick(1, registry);
  EXPECT_EQ(rec.samples_total(), 0u);
  EXPECT_TRUE(rec.Series("t_events_total").empty());
}

TEST(TelemetryRecorderTest, TracksCounterSeriesPerTick) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("t_events_total", "events");
  TelemetryRecorder rec;
  rec.set_enabled(true);
  std::string key = rec.Track("t_events_total");
  EXPECT_EQ(key, "t_events_total");
  for (Tick t = 1; t <= 3; ++t) {
    c->Inc(2);
    rec.OnTick(t, registry);
  }
  std::vector<TelemetryRecorder::Sample> s = rec.Series(key);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].tick, 1);
  EXPECT_EQ(s[0].value, 2.0);
  EXPECT_EQ(s[2].tick, 3);
  EXPECT_EQ(s[2].value, 6.0);
  EXPECT_EQ(rec.ticks_sampled(), 3u);
}

TEST(TelemetryRecorderTest, LabelFilterSumsMatchingSeriesOnly) {
  MetricsRegistry registry;
  registry.GetCounter("t_ops_total", "ops", {{"kind", "a"}})->Inc(5);
  registry.GetCounter("t_ops_total", "ops", {{"kind", "b"}})->Inc(11);
  TelemetryRecorder rec;
  rec.set_enabled(true);
  std::string filtered = rec.Track("t_ops_total", {{"kind", "a"}});
  std::string whole = rec.Track("t_ops_total");
  EXPECT_EQ(filtered, "t_ops_total{kind=\"a\"}");
  rec.OnTick(1, registry);
  ASSERT_EQ(rec.Series(filtered).size(), 1u);
  EXPECT_EQ(rec.Series(filtered)[0].value, 5.0);
  EXPECT_EQ(rec.Series(whole)[0].value, 16.0);
}

TEST(TelemetryRecorderTest, OnTickIsIdempotentPerTick) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("t_events_total", "events");
  TelemetryRecorder rec;
  rec.set_enabled(true);
  rec.Track("t_events_total");
  c->Inc();
  rec.OnTick(5, registry);
  c->Inc();  // Changes between the two calls must NOT produce a second
  rec.OnTick(5, registry);  // sample for the same tick.
  EXPECT_EQ(rec.ticks_sampled(), 1u);
  EXPECT_EQ(rec.Series("t_events_total").size(), 1u);
  rec.OnTick(6, registry);
  EXPECT_EQ(rec.ticks_sampled(), 2u);
}

TEST(TelemetryRecorderTest, StrideSkipsOffTicksAndRetentionBoundsTheRing) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("t_events_total", "events");
  TelemetryRecorder::Options opts;
  opts.stride = 2;
  opts.retention = 3;
  TelemetryRecorder rec(opts);
  rec.set_enabled(true);
  rec.Track("t_events_total");
  for (Tick t = 1; t <= 12; ++t) {
    c->Inc();
    rec.OnTick(t, registry);
  }
  // Even ticks only (6 of them), ring capped at the 3 newest.
  std::vector<TelemetryRecorder::Sample> s = rec.Series("t_events_total");
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].tick, 8);
  EXPECT_EQ(s[1].tick, 10);
  EXPECT_EQ(s[2].tick, 12);
  EXPECT_EQ(rec.ticks_sampled(), 3u + 3u);  // All six even ticks sampled.
}

TEST(TelemetryRecorderTest, WindowQueriesComputeDeltaRateAndQuantile) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("t_events_total", "events");
  TelemetryRecorder rec;
  rec.set_enabled(true);
  rec.Track("t_events_total");
  for (Tick t = 1; t <= 5; ++t) {
    c->Inc(static_cast<uint64_t>(t));  // Cumulative 1, 3, 6, 10, 15.
    rec.OnTick(t, registry);
  }
  EXPECT_EQ(rec.WindowDelta("t_events_total", 5).value_or(-1), 14.0);
  EXPECT_EQ(rec.WindowRate("t_events_total", 5).value_or(-1), 3.5);
  EXPECT_EQ(rec.WindowQuantile("t_events_total", 5, 0.5).value_or(-1), 6.0);
  EXPECT_FALSE(rec.WindowDelta("no_such_series", 5).has_value());
  EXPECT_FALSE(rec.WindowRate("t_events_total", 1).has_value());
}

TEST(TelemetryRecorderTest, HistogramsSampleCountAndSumSubSeries) {
  MetricsRegistry registry;
  Histogram* h =
      registry.GetHistogram("t_latency_seconds", "latency", {0.1, 1.0});
  TelemetryRecorder rec;
  rec.set_enabled(true);
  rec.Track("t_latency_seconds");
  h->Observe(0.5);
  rec.OnTick(1, registry);
  h->Observe(1.5);
  rec.OnTick(2, registry);
  ASSERT_EQ(rec.Series("t_latency_seconds").size(), 2u);
  EXPECT_EQ(rec.Series("t_latency_seconds")[1].value, 2.0);  // Count.
  ASSERT_EQ(rec.Series("t_latency_seconds.sum").size(), 2u);
  EXPECT_EQ(rec.Series("t_latency_seconds.sum")[1].value, 2.0);  // Sum.
}

// The governor-feedback acceptance check: sustained high refresh latency
// arms the watchdog (installing the tighter queue limit and delta
// fraction), a quiet stretch relaxes it, and the pre-arm limits come
// back verbatim.
TEST(TelemetryWatchdogTest, ArmsOnLatencyAndRelaxesRestoringLimits) {
  MetricsRegistry registry;
  Histogram* h =
      registry.GetHistogram("t_wd_latency_seconds", "latency", {0.1, 1.0});
  TelemetryRecorder rec;
  rec.set_enabled(true);

  ResourceGovernor& governor = ResourceGovernor::Global();
  test::ScopedGovernorLimits baseline({.refresh_queue_limit = 77});

  TelemetryRecorder::WatchdogOptions wd;
  wd.latency_metric = "t_wd_latency_seconds";
  wd.window = 2;
  wd.arm_mean_seconds = 0.1;
  wd.armed_queue_limit = 3;
  wd.armed_delta_fraction = 0.8;
  wd.min_hold_ticks = 2;
  rec.ConfigureWatchdog(wd);

  h->Observe(0.5);
  rec.OnTick(1, registry);
  EXPECT_FALSE(rec.watchdog_armed());  // One sample: no window yet.
  h->Observe(0.5);
  rec.OnTick(2, registry);
  ASSERT_TRUE(rec.watchdog_armed());
  EXPECT_EQ(rec.watchdog_arms(), 1u);
  EXPECT_EQ(governor.limits().refresh_queue_limit, 3u);
  EXPECT_EQ(governor.limits().delta_max_dirty_fraction, 0.8);

  // Quiet: no new observations. Tick 3 is inside the hold; tick 4 sees an
  // empty window past the hold and relaxes.
  rec.OnTick(3, registry);
  EXPECT_TRUE(rec.watchdog_armed());
  rec.OnTick(4, registry);
  EXPECT_FALSE(rec.watchdog_armed());
  EXPECT_EQ(rec.watchdog_relaxes(), 1u);
  EXPECT_EQ(governor.limits().refresh_queue_limit, 77u);
  EXPECT_EQ(governor.limits().delta_max_dirty_fraction, 0.25);
}

TEST(TelemetryWatchdogTest, UnconfiguredWatchdogNeverTouchesTheGovernor) {
  MetricsRegistry registry;
  Histogram* h =
      registry.GetHistogram("t_wd2_latency_seconds", "latency", {0.1, 1.0});
  TelemetryRecorder rec;
  rec.set_enabled(true);
  rec.Track("t_wd2_latency_seconds");

  ResourceGovernor& governor = ResourceGovernor::Global();
  test::ScopedGovernorLimits baseline({.refresh_queue_limit = 55});

  for (Tick t = 1; t <= 6; ++t) {
    h->Observe(10.0);  // Catastrophic latency — but nobody is watching.
    rec.OnTick(t, registry);
  }
  EXPECT_FALSE(rec.watchdog_armed());
  EXPECT_EQ(rec.watchdog_arms(), 0u);
  EXPECT_EQ(governor.limits().refresh_queue_limit, 55u);
}

TEST(TelemetryWatchdogTest, DisarmWhileArmedRestoresSavedLimits) {
  MetricsRegistry registry;
  Histogram* h =
      registry.GetHistogram("t_wd3_latency_seconds", "latency", {0.1, 1.0});
  TelemetryRecorder rec;
  rec.set_enabled(true);

  ResourceGovernor& governor = ResourceGovernor::Global();
  test::ScopedGovernorLimits baseline({.refresh_queue_limit = 99});

  TelemetryRecorder::WatchdogOptions wd;
  wd.latency_metric = "t_wd3_latency_seconds";
  wd.window = 2;
  wd.arm_mean_seconds = 0.1;
  wd.armed_queue_limit = 1;
  rec.ConfigureWatchdog(wd);
  h->Observe(0.9);
  rec.OnTick(1, registry);
  h->Observe(0.9);
  rec.OnTick(2, registry);
  ASSERT_TRUE(rec.watchdog_armed());
  EXPECT_EQ(governor.limits().refresh_queue_limit, 1u);
  // armed_delta_fraction was left at 0: the fraction keeps its default.
  EXPECT_EQ(governor.limits().delta_max_dirty_fraction, 0.25);

  rec.DisarmWatchdog();
  EXPECT_FALSE(rec.watchdog_armed());
  EXPECT_EQ(governor.limits().refresh_queue_limit, 99u);
}

TEST(TelemetryRecorderTest, ClearDropsSamplesButKeepsTrackingAndCounters) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("t_events_total", "events");
  TelemetryRecorder rec;
  rec.set_enabled(true);
  rec.Track("t_events_total");
  c->Inc();
  rec.OnTick(1, registry);
  EXPECT_EQ(rec.samples_total(), 1u);
  rec.Clear();
  EXPECT_TRUE(rec.Series("t_events_total").empty());
  EXPECT_EQ(rec.samples_total(), 1u);  // History counters persist.
  c->Inc();
  rec.OnTick(2, registry);
  EXPECT_EQ(rec.Series("t_events_total").size(), 1u);  // Still tracked.
}

}  // namespace
}  // namespace most
