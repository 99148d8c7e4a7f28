#ifndef MOST_OBS_TELEMETRY_H_
#define MOST_OBS_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/governor.h"
#include "obs/metrics.h"

namespace most::obs {

/// Per-tick telemetry timeline: samples selected registry series once per
/// engine tick into bounded per-series rings, so "what did refresh latency
/// do over the last 64 ticks" is answerable after the fact — the registry
/// alone can only be scraped "now" (docs/observability.md).
///
/// * Track() registers a (metric, label-filter) pair; at each OnTick() the
///   recorder walks one registry Collect() and appends the summed value of
///   every matching series. Histograms produce two sub-series: the key
///   itself carries the cumulative observation count and `<key>.sum` the
///   cumulative sum, so windowed means are delta(sum)/delta(count).
/// * OnTick() is idempotent per tick (the sharded engine and a query
///   manager may both report the same tick) and honors a sampling stride.
/// * The watchdog closes the loop to the ResourceGovernor: when the
///   windowed mean of the configured latency series crosses
///   `arm_mean_seconds`, it saves the governor's limits and installs
///   `armed_queue_limit` / `armed_delta_fraction`; when the mean falls
///   below the relax threshold (after a minimum hold), it restores the
///   saved limits. Unconfigured (arm_mean_seconds == 0) the watchdog
///   never touches the governor — the differential guarantee.
///
/// Disabled by default: OnTick() is a relaxed atomic load. Enable via
/// set_enabled(true) or MOST_TELEMETRY=1 (Global recorder only, which then
/// also tracks a default series set).
class TelemetryRecorder {
 public:
  struct Options {
    size_t retention = 512;  ///< Samples kept per series (ring bound).
    size_t stride = 1;       ///< Sample every Nth tick (tick % stride == 0).
  };

  struct Sample {
    Tick tick = 0;
    double value = 0.0;
  };

  struct WatchdogOptions {
    /// Histogram family whose windowed mean drives the arm/relax cycle.
    std::string latency_metric = "most_qm_refresh_latency_seconds";
    /// Window, in sampled ticks, the mean is computed over.
    size_t window = 8;
    /// Arm when mean latency exceeds this; 0 disables the watchdog.
    double arm_mean_seconds = 0.0;
    /// Relax when mean latency falls below this; 0 = arm threshold / 2.
    double relax_mean_seconds = 0.0;
    /// Governor limits installed while armed. An armed_delta_fraction of
    /// 0 leaves the governor's dirty fraction as it was.
    size_t armed_queue_limit = 0;
    double armed_delta_fraction = 0.0;
    /// Minimum ticks armed before a relax is considered (hysteresis).
    Tick min_hold_ticks = 4;
  };

  static TelemetryRecorder& Global();

  TelemetryRecorder();
  explicit TelemetryRecorder(Options opts);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Registers a series to sample: the summed value of every series of
  /// `metric` whose labels contain all of `labels` (empty = whole family).
  /// Returns the series key used by the query methods —
  /// `metric` or `metric{k="v",...}` when a filter is given.
  std::string Track(const std::string& metric, const Labels& labels = {});
  std::vector<std::string> TrackedKeys() const;

  /// Samples every tracked series at tick `now` (once per tick, honoring
  /// the stride) and runs the watchdog. No-op when disabled.
  void OnTick(Tick now) { OnTick(now, MetricsRegistry::Global()); }
  void OnTick(Tick now, const MetricsRegistry& registry);

  /// Last `n` samples of a key, oldest first (fewer if the ring is short).
  std::vector<Sample> Series(const std::string& key, size_t n = SIZE_MAX) const;
  /// value(newest) - value(oldest) over the last `n` samples; nullopt when
  /// fewer than two samples exist.
  std::optional<double> WindowDelta(const std::string& key, size_t n) const;
  /// WindowDelta divided by the tick distance (per-tick rate).
  std::optional<double> WindowRate(const std::string& key, size_t n) const;
  /// q-quantile (q in [0,1]) of the sampled values in the window.
  std::optional<double> WindowQuantile(const std::string& key, size_t n,
                                       double q) const;

  void ConfigureWatchdog(const WatchdogOptions& opts);
  void DisarmWatchdog();  ///< Relax if armed, then disable the watchdog.
  bool watchdog_armed() const;
  uint64_t watchdog_arms() const;
  uint64_t watchdog_relaxes() const;

  uint64_t samples_total() const;
  uint64_t ticks_sampled() const;
  const Options& options() const { return opts_; }

  /// Drops buffered samples (tracked series and counters persist).
  void Clear();

 private:
  struct Tracked {
    std::string metric;
    Labels filter;
    std::string key;
  };

  void SampleLocked(Tick now, const std::vector<FamilySnapshot>& families);
  void WatchdogLocked(Tick now);
  void Append(const std::string& key, Tick now, double value);

  Options opts_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Tracked> tracked_;
  std::map<std::string, std::deque<Sample>> series_;
  Tick last_tick_ = 0;
  bool sampled_any_ = false;
  uint64_t samples_total_ = 0;
  uint64_t ticks_sampled_ = 0;

  WatchdogOptions watchdog_;
  bool watchdog_configured_ = false;
  bool watchdog_armed_ = false;
  Tick armed_at_ = 0;
  uint64_t arms_ = 0;
  uint64_t relaxes_ = 0;
  /// Governor limits saved at arm time, restored verbatim at relax.
  most::ResourceGovernor::Limits saved_limits_;
};

}  // namespace most::obs

#endif  // MOST_OBS_TELEMETRY_H_
