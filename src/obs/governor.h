#ifndef MOST_OBS_GOVERNOR_H_
#define MOST_OBS_GOVERNOR_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/budget.h"
#include "common/types.h"
#include "obs/metrics.h"

namespace most {

/// Process-wide owner of the resource-governance limits and degraded-mode
/// health state (docs/robustness.md).
///
/// set_limits() is the only place a governed limit can be set; no
/// component keeps its own copy to fall back from. Components do not reach
/// into each other under pressure; they meet here:
///
/// * the query manager reads limits() once per refresh entry point
///   (TickAll, answer reads, Poll, registration) for its budget, queue
///   limit, cooldown and delta dirty fraction, and reports every shed
///   refresh via NoteDegrade();
/// * reliable endpoints take their buffer caps and dead-peer horizon from
///   the channel_* limits, and register a backpressure probe so
///   `most_shell health` (or any operator tooling) can enumerate per-peer
///   pressure without holding a pointer to every endpoint;
/// * the telemetry watchdog tightens refresh_queue_limit and
///   delta_max_dirty_fraction under refresh-latency pressure and restores
///   the saved limits when it relaxes (docs/observability.md);
/// * the storage layer raises the sticky storage-degraded flag when a WAL
///   append or checkpoint hits ENOSPC/EIO, and clears it when a checkpoint
///   succeeds again.
///
/// Every shedding limit defaults to 0 = unlimited, so a process that never
/// touches the governor never sheds (the differential guarantee). State is
/// exported through most_governor_* series on the global metrics registry.
class ResourceGovernor {
 public:
  /// The limits. Zero means "unlimited / disabled" for every field except
  /// delta_max_dirty_fraction, where 0 means "always take the full path".
  struct Limits {
    /// Per-refresh evaluation budget. A refresh that exhausts it is shed:
    /// the query keeps serving its previous answer as kStale.
    Budget refresh_budget = {};
    /// Cap on refreshes admitted per TickAll batch; the longest-stale
    /// surplus is shed (reason kQueue) and retried next tick.
    size_t refresh_queue_limit = 0;
    /// Ticks a query is not retried after a refresh exhausted its budget.
    Tick degrade_cooldown_ticks = 0;
    /// Caps on a reliable endpoint's per-peer unacked buffer: SendReliable
    /// sheds once either is reached.
    size_t channel_max_unacked_messages = 0;
    size_t channel_max_unacked_bytes = 0;
    /// Ticks of silence after which a peer's pending send buffer is
    /// evicted and its stream restarts under a new epoch.
    Tick channel_peer_dead_horizon = 0;
    /// A delta refresh falls back to a full re-evaluation when the
    /// coalesced dirty set exceeds this fraction of the query's combined
    /// FROM domains (docs/incremental_eval.md).
    double delta_max_dirty_fraction = 0.25;
  };

  static ResourceGovernor& Global();

  ResourceGovernor();
  ~ResourceGovernor();

  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  Limits limits() const;
  void set_limits(const Limits& limits);

  // ---- Degrade events ----------------------------------------------------

  struct DegradeEvent {
    DegradeReason reason = DegradeReason::kNone;
    uint64_t query_id = 0;  ///< 0 when the event is not query-scoped.
    Tick at = 0;
    std::string detail;
  };

  /// Records a shed/degrade event: bumps most_governor_degrades_total
  /// (labelled by reason) and keeps the event in a small ring for
  /// operator tooling.
  void NoteDegrade(DegradeReason reason, uint64_t query_id, Tick at,
                   std::string detail = "");
  /// Most recent events, newest last (at most `max_n`).
  std::vector<DegradeEvent> RecentDegrades(size_t max_n = 10) const;
  uint64_t degrades_total() const;

  // ---- Storage health ----------------------------------------------------

  /// Sticky storage-degraded flag: raised by the WAL/checkpoint paths on
  /// write failure, cleared by the next successful checkpoint. While
  /// raised, the database stays readable and refuses only writes.
  void ReportStorageDegraded(const std::string& detail);
  void ClearStorageDegraded();
  bool storage_degraded() const;
  std::string storage_degraded_detail() const;

  // ---- Backpressure probes -----------------------------------------------

  struct PeerPressure {
    uint64_t endpoint_node = 0;
    uint64_t peer = 0;
    Backpressure state = Backpressure::kOpen;
    size_t pending_messages = 0;
    size_t pending_bytes = 0;
  };
  using BackpressureProbe = std::function<std::vector<PeerPressure>()>;

  /// Registers a callback enumerating one endpoint's per-peer pressure;
  /// returns an id for Unregister. Probes are invoked synchronously by
  /// BackpressureSnapshot() — they must not call back into the governor.
  uint64_t RegisterBackpressureProbe(BackpressureProbe probe);
  void UnregisterBackpressureProbe(uint64_t id);
  std::vector<PeerPressure> BackpressureSnapshot() const;

  /// Testing hook: drop events, storage state and counters (not limits).
  void ResetStateForTest();

 private:
  mutable std::mutex mu_;
  Limits limits_;
  std::deque<DegradeEvent> recent_;
  uint64_t degrades_total_ = 0;
  bool storage_degraded_ = false;
  std::string storage_detail_;
  std::map<uint64_t, BackpressureProbe> probes_;
  uint64_t next_probe_id_ = 1;

  /// Attached to the global registry for the governor's lifetime.
  obs::Gauge storage_degraded_gauge_;
  obs::Gauge degrades_gauge_;
  std::vector<uint64_t> attach_ids_;

  static constexpr size_t kRecentCapacity = 32;
};

}  // namespace most

#endif  // MOST_OBS_GOVERNOR_H_
