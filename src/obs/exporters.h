#ifndef MOST_OBS_EXPORTERS_H_
#define MOST_OBS_EXPORTERS_H_

#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace most::obs {

/// Prometheus text exposition format (# HELP / # TYPE / samples;
/// histograms expand to _bucket{le=...}/_sum/_count). Deterministic:
/// families sorted by name, series by labels.
std::string PrometheusText(const MetricsRegistry& registry);
inline std::string PrometheusText() {
  return PrometheusText(MetricsRegistry::Global());
}

/// JSON snapshot of the same data, reusable by the BENCH_*.json emitters:
/// a single object {"metrics": [...]} whose histogram series carry
/// count/sum and p50/p95/p99. `indent` prefixes every line (so the object
/// can be embedded inside a larger hand-written JSON document).
std::string JsonSnapshot(const MetricsRegistry& registry,
                         const std::string& indent = "");
inline std::string JsonSnapshot() {
  return JsonSnapshot(MetricsRegistry::Global());
}

/// Chrome trace-event ("Perfetto legacy JSON") export of completed spans:
/// {"traceEvents": [{"name","cat","ph":"X","ts","dur","pid","tid","args"}]}
/// — loadable in chrome://tracing or ui.perfetto.dev. Timestamps are
/// microseconds; args carry trace/span/parent ids plus annotations.
/// `mask` rewrites ids to first-appearance ordinals, timestamps to the
/// event index and tids to 0, producing byte-stable golden output.
struct ChromeTraceOptions {
  bool mask = false;
};
std::string ChromeTraceJson(const std::vector<TraceEvent>& events,
                            const ChromeTraceOptions& opts = {});
std::string ChromeTraceJson(const TraceSink& sink,
                            const ChromeTraceOptions& opts = {});

/// Engine-state dump hook: writes the global registry's JSON snapshot
/// (plus a short trace-sink summary) to `os`. Wired into examples and the
/// fault simulation so a failure prints what the engine was doing.
void DumpMetrics(std::ostream& os);

}  // namespace most::obs

#endif  // MOST_OBS_EXPORTERS_H_
