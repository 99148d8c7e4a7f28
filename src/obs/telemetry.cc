#include "obs/telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace most::obs {

namespace {

/// Stable key for a (metric, filter) pair: `name` or `name{k="v",...}`.
std::string MakeKey(const std::string& metric, const Labels& filter) {
  if (filter.empty()) return metric;
  std::string key = metric + "{";
  bool first = true;
  for (const auto& [k, v] : filter) {
    if (!first) key += ",";
    first = false;
    key += k + "=\"" + v + "\"";
  }
  key += "}";
  return key;
}

/// True when every pair of `filter` appears in `labels`.
bool LabelsMatch(const Labels& labels, const Labels& filter) {
  for (const auto& [k, v] : filter) {
    auto it = labels.find(k);
    if (it == labels.end() || it->second != v) return false;
  }
  return true;
}

}  // namespace

TelemetryRecorder& TelemetryRecorder::Global() {
  static TelemetryRecorder* global = [] {
    auto* rec = new TelemetryRecorder();
    const char* env = std::getenv("MOST_TELEMETRY");
    if (env != nullptr && std::string(env) == "1") {
      rec->set_enabled(true);
      // A useful default set: refresh throughput + latency, shard
      // throughput, and the governor's degrade count.
      rec->Track("most_qm_refreshes_total");
      rec->Track("most_qm_refresh_latency_seconds");
      rec->Track("most_shard_updates_applied_total");
      rec->Track("most_governor_degrades");
    }
    // Recorder health is collected lazily, mirroring the trace sink.
    MetricsRegistry::Global().AddCollector(
        [rec](std::vector<FamilySnapshot>* out) {
          FamilySnapshot samples;
          samples.name = "most_telemetry_samples_total";
          samples.help =
              "Per-tick series samples appended to the telemetry timeline";
          samples.type = MetricType::kCounter;
          samples.series.emplace_back();
          samples.series.back().value =
              static_cast<double>(rec->samples_total());
          out->push_back(std::move(samples));

          FamilySnapshot ticks;
          ticks.name = "most_telemetry_ticks_sampled_total";
          ticks.help = "Engine ticks the telemetry recorder sampled";
          ticks.type = MetricType::kCounter;
          ticks.series.emplace_back();
          ticks.series.back().value = static_cast<double>(rec->ticks_sampled());
          out->push_back(std::move(ticks));

          FamilySnapshot adjustments;
          adjustments.name = "most_telemetry_watchdog_adjustments_total";
          adjustments.help =
              "Governor limit adjustments made by the telemetry watchdog";
          adjustments.type = MetricType::kCounter;
          adjustments.series.emplace_back();
          adjustments.series.back().labels = {{"action", "arm"}};
          adjustments.series.back().value =
              static_cast<double>(rec->watchdog_arms());
          adjustments.series.emplace_back();
          adjustments.series.back().labels = {{"action", "relax"}};
          adjustments.series.back().value =
              static_cast<double>(rec->watchdog_relaxes());
          out->push_back(std::move(adjustments));
        });
    return rec;
  }();
  return *global;
}

TelemetryRecorder::TelemetryRecorder() : TelemetryRecorder(Options()) {}

TelemetryRecorder::TelemetryRecorder(Options opts) : opts_(opts) {
  if (opts_.retention == 0) opts_.retention = 1;
  if (opts_.stride == 0) opts_.stride = 1;
}

std::string TelemetryRecorder::Track(const std::string& metric,
                                     const Labels& labels) {
  std::string key = MakeKey(metric, labels);
  std::lock_guard<std::mutex> lock(mu_);
  for (const Tracked& t : tracked_) {
    if (t.key == key) return key;
  }
  tracked_.push_back({metric, labels, key});
  return key;
}

std::vector<std::string> TelemetryRecorder::TrackedKeys() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> keys;
  keys.reserve(tracked_.size());
  for (const Tracked& t : tracked_) keys.push_back(t.key);
  return keys;
}

void TelemetryRecorder::Append(const std::string& key, Tick now, double value) {
  std::deque<Sample>& ring = series_[key];
  ring.push_back({now, value});
  while (ring.size() > opts_.retention) ring.pop_front();
  ++samples_total_;
}

void TelemetryRecorder::OnTick(Tick now, const MetricsRegistry& registry) {
  if (!enabled()) return;
  bool sample = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Idempotent per tick: the sharded engine calls this once per
    // DrainAndRefresh and every embedded query manager once per TickAll —
    // the first caller samples, the rest are no-ops.
    if (sampled_any_ && now == last_tick_) return;
    last_tick_ = now;
    sampled_any_ = true;
    if (now % static_cast<Tick>(opts_.stride) != 0) return;
    sample = !tracked_.empty();
  }
  // Collect() outside the lock: the registry's collectors include this
  // recorder's own health counters (Global), which take mu_.
  std::vector<FamilySnapshot> families;
  if (sample) families = registry.Collect();
  std::lock_guard<std::mutex> lock(mu_);
  if (sample) {
    SampleLocked(now, families);
    ++ticks_sampled_;
  }
  WatchdogLocked(now);
}

void TelemetryRecorder::SampleLocked(
    Tick now, const std::vector<FamilySnapshot>& families) {
  for (const Tracked& t : tracked_) {
    const FamilySnapshot* fam = nullptr;
    for (const FamilySnapshot& f : families) {
      if (f.name == t.metric) {
        fam = &f;
        break;
      }
    }
    if (fam == nullptr) continue;  // Not emitted yet: no sample this tick.
    if (fam->type == MetricType::kHistogram) {
      double count = 0.0, sum = 0.0;
      for (const SeriesSnapshot& s : fam->series) {
        if (!LabelsMatch(s.labels, t.filter) || !s.hist.has_value()) continue;
        count += static_cast<double>(s.hist->count);
        sum += s.hist->sum;
      }
      Append(t.key, now, count);
      Append(t.key + ".sum", now, sum);
    } else {
      double value = 0.0;
      for (const SeriesSnapshot& s : fam->series) {
        if (LabelsMatch(s.labels, t.filter)) value += s.value;
      }
      Append(t.key, now, value);
    }
  }
}

void TelemetryRecorder::WatchdogLocked(Tick now) {
  if (!watchdog_configured_ || watchdog_.arm_mean_seconds <= 0.0) return;
  const std::string& key = watchdog_.latency_metric;
  auto cit = series_.find(key);
  auto sit = series_.find(key + ".sum");
  if (cit == series_.end() || sit == series_.end()) return;
  const std::deque<Sample>& counts = cit->second;
  const std::deque<Sample>& sums = sit->second;
  if (counts.size() < 2 || sums.size() < 2) return;
  size_t w = std::min(watchdog_.window, counts.size());
  double dc = counts.back().value - counts[counts.size() - w].value;
  double ds = sums.back().value - sums[sums.size() - w].value;
  bool has_data = dc > 0.0;
  double mean = has_data ? ds / dc : 0.0;
  if (!watchdog_armed_) {
    if (has_data && mean > watchdog_.arm_mean_seconds) {
      auto& governor = most::ResourceGovernor::Global();
      saved_limits_ = governor.limits();
      most::ResourceGovernor::Limits armed = saved_limits_;
      armed.refresh_queue_limit = watchdog_.armed_queue_limit;
      if (watchdog_.armed_delta_fraction > 0.0) {
        armed.delta_max_dirty_fraction = watchdog_.armed_delta_fraction;
      }
      governor.set_limits(armed);
      watchdog_armed_ = true;
      armed_at_ = now;
      ++arms_;
    }
    return;
  }
  if (now < armed_at_ + watchdog_.min_hold_ticks) return;
  double relax_below = watchdog_.relax_mean_seconds > 0.0
                           ? watchdog_.relax_mean_seconds
                           : watchdog_.arm_mean_seconds / 2.0;
  if (!has_data || mean < relax_below) {
    most::ResourceGovernor::Global().set_limits(saved_limits_);
    watchdog_armed_ = false;
    ++relaxes_;
  }
}

std::vector<TelemetryRecorder::Sample> TelemetryRecorder::Series(
    const std::string& key, size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(key);
  if (it == series_.end()) return {};
  const std::deque<Sample>& ring = it->second;
  size_t take = std::min(n, ring.size());
  return std::vector<Sample>(ring.end() - static_cast<ptrdiff_t>(take),
                             ring.end());
}

std::optional<double> TelemetryRecorder::WindowDelta(const std::string& key,
                                                     size_t n) const {
  std::vector<Sample> window = Series(key, n);
  if (window.size() < 2) return std::nullopt;
  return window.back().value - window.front().value;
}

std::optional<double> TelemetryRecorder::WindowRate(const std::string& key,
                                                    size_t n) const {
  std::vector<Sample> window = Series(key, n);
  if (window.size() < 2) return std::nullopt;
  Tick span = window.back().tick - window.front().tick;
  if (span == 0) return std::nullopt;
  return (window.back().value - window.front().value) /
         static_cast<double>(span);
}

std::optional<double> TelemetryRecorder::WindowQuantile(const std::string& key,
                                                        size_t n,
                                                        double q) const {
  std::vector<Sample> window = Series(key, n);
  if (window.empty()) return std::nullopt;
  std::vector<double> values;
  values.reserve(window.size());
  for (const Sample& s : window) values.push_back(s.value);
  std::sort(values.begin(), values.end());
  q = std::min(1.0, std::max(0.0, q));
  size_t idx = static_cast<size_t>(
      std::min(static_cast<double>(values.size() - 1),
               std::floor(q * static_cast<double>(values.size()))));
  return values[idx];
}

void TelemetryRecorder::ConfigureWatchdog(const WatchdogOptions& opts) {
  std::lock_guard<std::mutex> lock(mu_);
  watchdog_ = opts;
  watchdog_configured_ = true;
  // Ensure the driving series is tracked (no-op when already present).
  for (const Tracked& t : tracked_) {
    if (t.key == opts.latency_metric) return;
  }
  tracked_.push_back({opts.latency_metric, {}, opts.latency_metric});
}

void TelemetryRecorder::DisarmWatchdog() {
  std::lock_guard<std::mutex> lock(mu_);
  if (watchdog_armed_) {
    most::ResourceGovernor::Global().set_limits(saved_limits_);
    watchdog_armed_ = false;
    ++relaxes_;
  }
  watchdog_configured_ = false;
}

bool TelemetryRecorder::watchdog_armed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return watchdog_armed_;
}

uint64_t TelemetryRecorder::watchdog_arms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return arms_;
}

uint64_t TelemetryRecorder::watchdog_relaxes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return relaxes_;
}

uint64_t TelemetryRecorder::samples_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_total_;
}

uint64_t TelemetryRecorder::ticks_sampled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ticks_sampled_;
}

void TelemetryRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  series_.clear();
  sampled_any_ = false;
  last_tick_ = 0;
}

}  // namespace most::obs
