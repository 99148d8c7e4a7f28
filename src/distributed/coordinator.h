#ifndef MOST_DISTRIBUTED_COORDINATOR_H_
#define MOST_DISTRIBUTED_COORDINATOR_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "distributed/mobile_node.h"
#include "distributed/network.h"
#include "distributed/reliable_channel.h"
#include "ftl/eval.h"
#include "obs/metrics.h"

namespace most {

/// The paper's taxonomy of MOST queries issued at a mobile computer
/// (Section 5.3).
enum class DistQueryClass {
  kSelfReferencing,  ///< Decidable from the issuer's own attributes.
  kObject,           ///< Per-object predicate, independent of other objects.
  kRelationship,     ///< Needs two or more objects at once.
};

/// The query-issuing mobile computer M. Implements the paper's processing
/// strategies:
/// * self-referencing: no communication;
/// * object queries: strategy 1 (collect every object, evaluate at M) or
///   strategy 2 (broadcast the query, nodes filter locally and only
///   matches reply);
/// * relationship queries: collect every object at M (the paper's "most
///   efficient way") and evaluate the multi-variable query centrally.
///
/// Epoch-leased membership (docs/distributed.md "Crash, rejoin, and
/// catch-up"): every node heard from holds a lease renewed by any traffic
/// (beacons double as heartbeats) and swept each tick. A lease expired
/// past liveness_timeout degrades every active continuous query's answer
/// to Confidence::kStale with the node in the missing set — even if the
/// node completed earlier — because a dead node's matches are dead
/// reckoning, not vouched-for state. A crashed node announces its rebirth
/// with a JoinRequest carrying a bumped incarnation; the coordinator
/// fences the dead incarnation's stream (RestartPeerStream re-enqueues
/// in-flight requests under a higher epoch), re-installs whatever the
/// node did not recover from its own WAL, cancels subscriptions it
/// recovered for queries that no longer exist, and catches its Answer(CQ)
/// mirrors up from their recovered anchors with per-object AnswerDeltas
/// instead of full re-sends.
///
/// The coordinator is asynchronous: issue a query, advance the clock and
/// call SimNetwork::DeliverDue(), then read results.
///
/// Reliability and completeness: query traffic rides a ReliableEndpoint,
/// so requests, reports and cancellations survive loss, duplication,
/// reordering and partitions. Each query tracks the nodes it expects
/// (`expected`), the nodes whose QueryDone completion marker arrived
/// (`responded`), and a deadline. Answers are tagged with the Confidence
/// machinery of docs/durability.md: Confidence::kCertain when every
/// expected node responded (the must-answer), Confidence::kStale plus the
/// `missing` node set otherwise (a partial, may-answer — some reachable
/// node has not been heard from). Liveness is heartbeat-based: any
/// traffic from a node refreshes its last-heard tick; a node silent past
/// `liveness_timeout` counts as unreachable, and when it is heard again
/// (a healed partition, a reconnection) every active continuous query is
/// re-sent to it so its subscription — and the coordinator's view of its
/// answer — re-synchronizes.
class Coordinator {
 public:
  struct Options {
    /// A node unheard for this many ticks counts as unreachable.
    Tick liveness_timeout = 24;
    /// Per-query deadline (ticks after issue). The coordinator never
    /// blocks on it — callers poll DeadlinePassed() and decide whether a
    /// kStale partial answer is good enough — but the first expired poll
    /// per query is counted into most_coord_deadline_expired_total so
    /// overload shows up in metrics. With unbounded channel buffers the
    /// endpoint keeps retransmitting, so late answers still converge.
    Tick query_deadline = 64;
    /// Rejoin catch-up mode: true sends a rejoining mirror subscriber
    /// only the objects dirtied since its recovered anchor; false
    /// re-sends the full answer mirror — the baseline the recovery
    /// scenario of bench_distributed measures delta catch-up against.
    bool delta_catchup = true;
    ReliableEndpoint::Options channel;
  };

  Coordinator(SimNetwork* network, Clock* clock,
              std::map<std::string, Polygon> regions)
      : Coordinator(network, clock, std::move(regions), Options()) {}
  Coordinator(SimNetwork* network, Clock* clock,
              std::map<std::string, Polygon> regions, Options options);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  NodeId node_id() const { return channel_.node_id(); }
  const ReliableEndpoint& channel() const { return channel_; }

  /// Classifies a query. Atoms mentioning two or more object variables
  /// (DIST, WITHIN_SPHERE, cross-variable comparisons) make it a
  /// relationship query; otherwise a single FROM variable over
  /// `self_class` is self-referencing and anything else is an object
  /// query.
  static DistQueryClass Classify(const FtlQuery& query,
                                 const std::string& self_class = "SELF");

  /// Issues an object query (single-variable). Returns the query id.
  uint64_t IssueObjectQuery(const FtlQuery& query, DistStrategy strategy,
                            bool continuous, Tick horizon);

  /// Issues a relationship query: requests every object, evaluation
  /// happens at the coordinator once replies arrive.
  uint64_t IssueRelationshipQuery(const FtlQuery& query, Tick horizon);

  /// Reliably cancels a continuous query on every subscribed node.
  Status CancelQuerySubscription(uint64_t qid);

  /// Accumulated per-query state.
  struct QueryState {
    FtlQuery query;
    DistStrategy strategy = DistStrategy::kBroadcastFilter;
    bool continuous = false;
    Tick horizon = 256;
    Tick issued_at = 0;
    Tick deadline = 0;
    bool cancelled = false;
    size_t replies = 0;
    /// Set once, the first time every expected node's QueryDone arrived;
    /// feeds the most_coord_completion_lag_ticks histogram.
    bool completed = false;
    Tick completed_at = 0;
    /// Nodes the request was sent to (grows when new or revived nodes are
    /// re-synced into a continuous query).
    std::set<NodeId> expected;
    /// Nodes whose QueryDone marker arrived: their reports, if any, are
    /// already incorporated (the reliable stream is ordered).
    std::set<NodeId> responded;
    /// Latest object states received (collect strategy / relationship).
    std::map<ObjectId, ObjectState> states;
    /// Matches reported by nodes (broadcast strategy).
    std::map<ObjectId, IntervalSet> matches;
    /// Per-object tick of the last change to `matches` (set or erase):
    /// the wire form of the QueryManager's dirty sets. A mirror anchored
    /// at tick a is brought current by re-sending exactly the objects
    /// with dirty_at > a.
    std::map<ObjectId, Tick> dirty_at;
    /// Answer-mirror subscribers: node id → tick through which that
    /// node's mirror is known to reflect every change.
    std::map<NodeId, Tick> mirror_subs;

    /// expected − responded: the nodes a partial answer is missing.
    std::set<NodeId> MissingNodes() const;
  };

  Result<const QueryState*> GetState(uint64_t qid) const;
  /// True once the query's deadline tick has been reached. The first true
  /// poll per query bumps most_coord_deadline_expired_total; callers
  /// typically then accept EvaluateCollected/ReportedMatches' kStale
  /// partial answer instead of waiting for the missing nodes.
  bool DeadlinePassed(uint64_t qid) const;

  /// A centrally evaluated answer plus its completeness tag.
  struct CollectedAnswer {
    TemporalRelation relation;
    Confidence confidence = Confidence::kCertain;
    std::set<NodeId> missing;
  };
  /// A broadcast-filter answer plus its completeness tag.
  struct ReportedAnswer {
    std::map<ObjectId, IntervalSet> matches;
    Confidence confidence = Confidence::kCertain;
    std::set<NodeId> missing;
  };

  /// For collect-strategy object queries and relationship queries:
  /// evaluates the query centrally over the gathered object states.
  /// One-shot queries are evaluated on the window anchored at their issue
  /// tick; continuous ones on [now, now + horizon]. kCertain only when
  /// every expected node's QueryDone arrived.
  Result<CollectedAnswer> EvaluateCollected(uint64_t qid) const;

  /// For broadcast-strategy queries: the matches reported so far, tagged
  /// kStale with the missing node set while any expected node has not
  /// completed.
  Result<ReportedAnswer> ReportedMatches(uint64_t qid) const;

  /// Heartbeat-based liveness: nodes heard from within liveness_timeout.
  bool IsLive(NodeId node) const;
  std::set<NodeId> LiveNodes() const;

  /// Nodes that once held a lease (were heard from) but are currently
  /// silent past liveness_timeout. While any expected node's lease is
  /// expired, no active continuous query reads kCertain.
  std::set<NodeId> ExpiredLeases() const;

  /// Registers `subscriber` for Answer(CQ) mirror pushes of `qid` (a
  /// continuous broadcast-filter query): an immediate full snapshot, then
  /// a per-object AnswerDelta each tick the answer changed. A crashed
  /// subscriber that rejoins resumes from the anchor it recovered from
  /// its own WAL instead of a full re-send (Options::delta_catchup).
  Status SubscribeAnswerMirror(uint64_t qid, NodeId subscriber);

  /// Crash/rejoin bookkeeping, snapshotted from the most_coord_* series.
  struct RecoveryStats {
    uint64_t rejoins = 0;            ///< JoinRequests with a new incarnation.
    uint64_t lease_expirations = 0;  ///< Live→expired lease transitions.
    uint64_t catchup_deltas = 0;     ///< Rejoin catch-up AnswerDeltas sent.
    uint64_t catchup_bytes = 0;      ///< Their estimated wire bytes.
    uint64_t mirror_deltas = 0;      ///< Steady-state mirror pushes.
  };
  RecoveryStats recovery_stats() const;

 private:
  void HandleMessage(const Message& message);
  /// Raw-traffic observer: refreshes liveness and re-syncs continuous
  /// subscriptions to new or revived nodes.
  void ObserveTraffic(const Message& message);
  uint64_t Issue(const FtlQuery& query, DistStrategy strategy,
                 bool continuous, Tick horizon);
  void SendRequest(uint64_t qid, const QueryState& state, NodeId to);
  /// Recomputes most_coord_missing_nodes: expected-but-silent nodes summed
  /// over active (uncancelled, incomplete) queries.
  void UpdateMissingGauge();
  /// Per-tick maintenance: lease sweep (counting live→expired
  /// transitions) and steady-state mirror flushes to live subscribers.
  void OnTick();
  /// JoinRequest handler: fences the dead incarnation, re-syncs
  /// subscriptions, and catches mirrors up from recovered anchors.
  void OnJoin(const JoinRequest& join, NodeId from);
  /// MissingNodes() with epoch-lease degradation folded in: an active
  /// continuous query also misses every expected node whose lease has
  /// expired, responded or not.
  std::set<NodeId> EffectiveMissing(const QueryState& state) const;
  /// Re-sends everything `peer` may have lost with frames its channel
  /// dropped (shed at capacity or evicted): the request of every
  /// continuous query and of every one-shot it still owes an answer, the
  /// cancellation of every cancelled subscription, and a full mirror to a
  /// mirror subscriber. All idempotent at the node.
  void ResyncLostStream(NodeId peer);
  /// Sends `subscriber` one AnswerDelta: the objects dirtied since its
  /// synced-through tick (or the full mirror when `full`), advancing its
  /// synced-through mark. Skipped when nothing changed (delta mode).
  void FlushMirror(uint64_t qid, QueryState* state, NodeId subscriber,
                   bool full, bool rejoin_catchup);

  struct Lease {
    uint64_t incarnation = 0;
    bool expired_counted = false;  ///< Current expiry already counted.
  };

  SimNetwork* network_;
  Clock* clock_;
  std::map<std::string, Polygon> regions_;
  Options options_;
  ReliableEndpoint channel_;
  uint64_t next_qid_ = 1;
  uint64_t tick_hook_id_ = 0;
  Tick last_sweep_tick_ = -1;
  /// Peers whose stream dropped frames; re-synced by OnTick once live
  /// with room in their send buffer.
  std::set<NodeId> lost_streams_;
  std::map<uint64_t, QueryState> queries_;
  std::map<NodeId, Tick> last_heard_;
  std::map<NodeId, Lease> leases_;
  /// Queries whose deadline expiry has already been counted (DeadlinePassed
  /// is const and idempotent; the metric must fire once per query).
  mutable std::set<uint64_t> deadline_counted_;
  /// Attached to the global registry for the coordinator's lifetime.
  obs::Counter queries_issued_;
  obs::Counter reports_received_;
  obs::Counter resyncs_;
  /// Request frames the bounded channel refused (Backpressure::kShed):
  /// the target stays in `expected`, so answers read kStale + missing
  /// until the partition-heal re-sync reaches it.
  obs::Counter requests_shed_;
  mutable obs::Counter deadline_expired_;
  obs::Counter lease_expirations_;
  obs::Counter rejoins_;
  obs::Counter catchup_deltas_;
  obs::Counter catchup_bytes_;
  obs::Counter mirror_deltas_;
  obs::Histogram completion_lag_;
  obs::Gauge missing_nodes_gauge_;
  obs::Gauge leases_active_gauge_;
  std::vector<uint64_t> attach_ids_;
};

}  // namespace most

#endif  // MOST_DISTRIBUTED_COORDINATOR_H_
