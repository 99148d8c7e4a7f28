#ifndef MOST_DISTRIBUTED_MOBILE_NODE_H_
#define MOST_DISTRIBUTED_MOBILE_NODE_H_

#include <map>
#include <memory>
#include <string>

#include "core/object_model.h"
#include "distributed/network.h"
#include "distributed/node_store.h"
#include "distributed/reliable_channel.h"

namespace most {

/// Builds a MostDatabase holding the given object states as spatial
/// objects of `class_name` (scalar attrs become dynamic constants), with
/// the shared region catalog. Both node-local filtering and the
/// coordinator's central evaluation funnel through this, so distributed
/// answers are bit-identical to centralized ones.
Result<std::unique_ptr<MostDatabase>> BuildDatabaseFromStates(
    const std::string& class_name, const std::vector<ObjectState>& states,
    const std::map<std::string, Polygon>& regions, Tick now);

/// A mobile computer carrying one moving object (Section 5.3's
/// architecture: "each object resides in the computer on the moving
/// vehicle it represents, but nowhere else").
///
/// The node answers the two distributed strategies:
/// * kCollect: replies with its object state so the issuer can evaluate.
/// * kBroadcastFilter: evaluates the (single-variable) predicate against
///   its own object and replies only when satisfied.
/// For continuous queries it keeps the subscription and, on each local
/// motion change, re-evaluates and transmits only if its answer changed.
///
/// Reliability: query traffic (requests in, reports / completion markers
/// out) rides the ReliableEndpoint, so it survives loss, duplication,
/// reordering and partitions. Position beacons — periodic ObjectState
/// messages to the node's home coordinator, doubling as liveness
/// heartbeats — stay best-effort: they are the paper's dead-reckoning
/// updates, where the latest one wins and a lost one is superseded.
/// After answering a query request the node always sends QueryDone, which
/// (being ordered after its reports on the same stream) tells the issuer
/// this node's contribution is complete.
///
/// Crash/restart (docs/distributed.md "Crash, rejoin, and catch-up"): with
/// Options::wal_path set, the node's identity, object state, continuous
/// subscriptions, and Answer(CQ) mirrors are backed by a NodeDurableState
/// WAL. Destroying the node models a process kill (the SimNetwork entry
/// survives with a nulled handler); constructing a new node on the same
/// wal_path recovers the pre-crash state, reclaims the network id, bumps
/// the incarnation (whose epoch block, incarnation << 32, fences the dead
/// stream), announces itself with a JoinRequest, and re-answers every
/// recovered subscription. Delivery across the crash boundary is
/// at-least-once — re-subscription and re-report are idempotent — while
/// within one incarnation the channel's exactly-once ordering holds.
class MobileNode {
 public:
  struct Options {
    /// Beacon/heartbeat period in ticks; 0 disables beacons. Beacons are
    /// aligned to absolute ticks (now % interval == 0) and start once the
    /// node knows its home coordinator.
    Tick beacon_interval = 8;
    /// The coordinator beacons are sent to. If unset, learned from the
    /// sender of the first QueryRequest.
    NodeId home = kInvalidNodeId;
    /// Durable backing: path of this node's write-ahead log. Empty keeps
    /// the legacy in-memory node (state dies with the process).
    std::string wal_path;
    ReliableEndpoint::Options channel;
  };

  MobileNode(SimNetwork* network, Clock* clock, ObjectState initial,
             std::map<std::string, Polygon> regions)
      : MobileNode(network, clock, std::move(initial), std::move(regions),
                   Options()) {}
  MobileNode(SimNetwork* network, Clock* clock, ObjectState initial,
             std::map<std::string, Polygon> regions, Options options);
  ~MobileNode();

  NodeId node_id() const { return channel_->node_id(); }
  ObjectId object_id() const { return state_.id; }
  const ObjectState& state() const { return state_; }
  const ReliableEndpoint& channel() const { return *channel_; }

  /// Local sensor update: the vehicle changed speed or direction. Updates
  /// the onboard object and services continuous subscriptions.
  void UpdateMotion(Point2 position, Vec2 velocity);

  /// Updates a scalar attribute (e.g. fuel level).
  void UpdateAttr(const std::string& name, double value);

  /// Evaluates a single-variable query against the onboard object only —
  /// a *self-referencing* query ("Will I reach the point (a,b) in 3
  /// minutes?") needs no communication at all.
  Result<IntervalSet> EvaluateSelf(const FtlQuery& query, Tick horizon) const;

  uint64_t predicate_evaluations() const { return predicate_evaluations_; }
  size_t active_subscriptions() const { return subscriptions_.size(); }

  /// True when this incarnation was recovered from a prior one's WAL.
  bool recovered_from_wal() const { return recovered_; }
  /// Incarnation counter: 0 on first boot, prior + 1 after each recovery.
  /// The send stream starts at epoch incarnation << 32, so a reborn
  /// node's frames outrank its dead pre-crash stream even after that
  /// stream was bumped by dead-peer evictions.
  uint64_t incarnation() const { return incarnation_; }
  /// AnswerDelta messages applied to local mirrors (catch-up activity).
  uint64_t deltas_applied() const { return deltas_applied_; }

  /// This node's local mirror of Answer(CQ) for `qid` (nullptr when the
  /// node holds no mirror), and the anchor tick it reflects.
  const std::map<ObjectId, IntervalSet>* AnswerMirror(uint64_t qid) const;
  Tick MirrorAnchor(uint64_t qid) const;

 private:
  void HandleMessage(const Message& message);
  void ServiceSubscriptions();
  void OnTick();
  /// Evaluation window anchored at `anchor` (one-shot queries use the
  /// request's issue tick so late, retransmitted deliveries still compute
  /// the answer the issuer asked for).
  Result<IntervalSet> EvaluateAnchored(const FtlQuery& query, Tick horizon,
                                       Tick anchor) const;
  /// Answers one query request (both strategies, one-shot or continuous)
  /// and records the subscription; shared by fresh deliveries and the
  /// rejoin re-answer pass.
  void AnswerRequest(const QueryRequest& request, NodeId issuer);
  void ApplyAnswerDelta(const AnswerDelta& delta);
  /// Announces a recovered incarnation to the home coordinator and
  /// re-answers every recovered subscription.
  void Rejoin();
  void PersistIdentity();
  void PersistState();

  struct Subscription {
    QueryRequest request;
    NodeId issuer = kInvalidNodeId;
    bool has_last = false;
    IntervalSet last_sent;
  };
  struct Mirror {
    Tick anchor = 0;
    std::map<ObjectId, IntervalSet> rows;
    /// The stored copy missed a row write and awaits a whole rewrite.
    bool store_behind = false;
  };
  /// Replaces the stored mirror of `qid` with `mirror`; false if any
  /// write failed.
  bool RewriteStoredMirror(uint64_t qid, const Mirror& mirror);

  SimNetwork* network_;
  Clock* clock_;
  ObjectState state_;
  std::map<std::string, Polygon> regions_;
  Options options_;
  std::unique_ptr<NodeDurableState> store_;
  std::unique_ptr<ReliableEndpoint> channel_;
  uint64_t tick_hook_id_ = 0;
  NodeId home_ = kInvalidNodeId;
  Tick last_beacon_tick_ = -1;
  bool recovered_ = false;
  uint64_t incarnation_ = 0;
  bool identity_pending_ = false;  ///< Last PersistIdentity failed.
  bool resync_pending_ = false;    ///< The channel dropped frames home.
  uint64_t deltas_applied_ = 0;
  std::map<uint64_t, Subscription> subscriptions_;
  std::map<uint64_t, Mirror> mirrors_;
  mutable uint64_t predicate_evaluations_ = 0;
  obs::Counter recoveries_;
  obs::Counter deltas_applied_counter_;
  std::vector<uint64_t> attach_ids_;
};

}  // namespace most

#endif  // MOST_DISTRIBUTED_MOBILE_NODE_H_
