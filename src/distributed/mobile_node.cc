#include "distributed/mobile_node.h"

#include "ftl/eval.h"
#include "ftl/query_manager.h"

namespace most {

Result<std::unique_ptr<MostDatabase>> BuildDatabaseFromStates(
    const std::string& class_name, const std::vector<ObjectState>& states,
    const std::map<std::string, Polygon>& regions, Tick now) {
  auto db = std::make_unique<MostDatabase>(now);
  for (const auto& [name, polygon] : regions) {
    MOST_RETURN_IF_ERROR(db->DefineRegion(name, polygon));
  }
  // Declare scalar attributes from the union of attr names (dynamic
  // constants so updatetime semantics stay meaningful).
  std::set<std::string> attr_names;
  for (const ObjectState& s : states) {
    for (const auto& [name, value] : s.attrs) attr_names.insert(name);
  }
  std::vector<AttributeDecl> decls;
  for (const std::string& name : attr_names) {
    decls.push_back({name, /*dynamic=*/true, ValueType::kNull});
  }
  MOST_RETURN_IF_ERROR(
      db->CreateClass(class_name, decls, /*spatial=*/true).status());
  for (const ObjectState& s : states) {
    MOST_ASSIGN_OR_RETURN(MostObject * obj,
                          db->RestoreObject(class_name, s.id));
    // The motion vector is anchored at the state's timestamp.
    obj->SetDynamic(kAttrX, DynamicAttribute(s.position.x, s.at,
                                             TimeFunction::Linear(
                                                 s.velocity.x)));
    obj->SetDynamic(kAttrY, DynamicAttribute(s.position.y, s.at,
                                             TimeFunction::Linear(
                                                 s.velocity.y)));
    for (const auto& [name, value] : s.attrs) {
      obj->SetDynamic(name, DynamicAttribute(value, s.at, TimeFunction()));
    }
  }
  return db;
}

MobileNode::MobileNode(SimNetwork* network, Clock* clock, ObjectState initial,
                       std::map<std::string, Polygon> regions, Options options)
    : network_(network),
      clock_(clock),
      state_(std::move(initial)),
      regions_(std::move(regions)),
      options_(std::move(options)),
      home_(options_.home) {
  ReliableEndpoint::Options channel_options = options_.channel;
  RecoveredNodeState recovered;
  if (!options_.wal_path.empty()) {
    store_ = std::make_unique<NodeDurableState>(options_.wal_path);
    if (store_->Open(&recovered).ok()) {
      if (recovered.found) {
        // A prior incarnation left its state behind: this construction is
        // a restart, not a first boot. Resume its identity and bump the
        // incarnation — the new send-stream epoch fences whatever frames
        // the dead incarnation still has in flight.
        recovered_ = true;
        state_ = recovered.state;
        if (recovered.home != kInvalidNodeId) home_ = recovered.home;
        incarnation_ = recovered.incarnation + 1;
        channel_options.reclaim_node_id = recovered.node_id;
        // Each incarnation owns its own block of epochs: a dead-peer
        // eviction bumps the stream's epoch by one, so with plain
        // incarnation numbers an evicted stream of incarnation k would
        // collide with incarnation k + 1's fresh one, and the receiver
        // would drop the reborn stream's first frames as duplicates.
        channel_options.initial_epoch = incarnation_ << 32;
      }
    } else {
      store_.reset();  // Unusable log: degrade to the in-memory node.
    }
  }
  channel_ =
      std::make_unique<ReliableEndpoint>(network_, clock_, channel_options);
  channel_->SetHandler([this](const Message& m) { HandleMessage(m); });
  // Frames dropped for good (shed at capacity, evicted with a silent
  // home) may have carried reports or a JoinRequest: OnTick re-syncs.
  channel_->SetLossObserver([this](NodeId) { resync_pending_ = true; });
  tick_hook_id_ = network_->AddTickHook([this] { OnTick(); });
  obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
  attach_ids_ = {
      r.AttachCounter("most_node_recoveries_total",
                      "Node incarnations recovered from a WAL", {},
                      &recoveries_),
      r.AttachCounter("most_node_deltas_applied_total",
                      "AnswerDelta catch-up messages applied to mirrors", {},
                      &deltas_applied_counter_),
  };
  PersistIdentity();
  PersistState();
  if (recovered_) {
    recoveries_.Inc();
    for (const RecoveredNodeState::Subscription& sub :
         recovered.subscriptions) {
      subscriptions_[sub.request.qid] =
          Subscription{sub.request, sub.issuer, false, {}};
    }
    for (auto& [qid, mirror] : recovered.mirrors) {
      mirrors_[qid] = Mirror{mirror.anchor, std::move(mirror.rows), false};
    }
    Rejoin();
  }
}

MobileNode::~MobileNode() {
  network_->RemoveTickHook(tick_hook_id_);
  obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
  for (uint64_t id : attach_ids_) r.DetachMetric(id);
}

void MobileNode::PersistIdentity() {
  if (!store_) return;
  // A failed write (ENOSPC, an injected append fault) leaves the previous
  // durable identity standing. OnTick retries until this one is durable:
  // a restart that recovered the old incarnation would bump it to this
  // incarnation's epoch again, and the dead stream would not be fenced.
  identity_pending_ =
      !store_->SaveIdentity(channel_->node_id(), home_, incarnation_).ok();
}

void MobileNode::PersistState() {
  if (!store_) return;
  (void)store_->SaveState(state_);
}

void MobileNode::Rejoin() {
  if (home_ == kInvalidNodeId) return;
  JoinRequest join;
  join.incarnation = incarnation_;
  join.state = state_;
  for (const auto& [qid, sub] : subscriptions_) {
    join.subscribed_qids.push_back(qid);
  }
  for (const auto& [qid, mirror] : mirrors_) {
    join.mirror_anchors.emplace_back(qid, mirror.anchor);
  }
  channel_->SendReliable(home_, join);
  // Re-answer every recovered subscription. The issuer may also re-send
  // the request on seeing the JoinRequest; both paths are idempotent, and
  // together they make delivery across the crash boundary at-least-once.
  std::vector<std::pair<QueryRequest, NodeId>> recovered_subs;
  recovered_subs.reserve(subscriptions_.size());
  for (const auto& [qid, sub] : subscriptions_) {
    recovered_subs.emplace_back(sub.request, sub.issuer);
  }
  for (const auto& [request, issuer] : recovered_subs) {
    AnswerRequest(request, issuer);
  }
}

void MobileNode::UpdateMotion(Point2 position, Vec2 velocity) {
  state_.position = position;
  state_.velocity = velocity;
  state_.at = clock_->Now();
  PersistState();
  ServiceSubscriptions();
}

void MobileNode::UpdateAttr(const std::string& name, double value) {
  state_.attrs[name] = value;
  state_.at = clock_->Now();
  PersistState();
  ServiceSubscriptions();
}

Result<IntervalSet> MobileNode::EvaluateSelf(const FtlQuery& query,
                                             Tick horizon) const {
  return EvaluateAnchored(query, horizon, clock_->Now());
}

Result<IntervalSet> MobileNode::EvaluateAnchored(const FtlQuery& query,
                                                 Tick horizon,
                                                 Tick anchor) const {
  if (query.from.size() != 1) {
    return Status::InvalidArgument(
        "node-local evaluation needs a single-variable query");
  }
  ++predicate_evaluations_;
  MOST_ASSIGN_OR_RETURN(
      std::unique_ptr<MostDatabase> db,
      BuildDatabaseFromStates(query.from[0].class_name, {state_}, regions_,
                              anchor));
  FtlEvaluator eval(*db);
  MOST_ASSIGN_OR_RETURN(
      TemporalRelation rel,
      eval.EvaluateQuery(query,
                         Interval(anchor, TickSaturatingAdd(anchor, horizon))));
  auto it = rel.rows.find({state_.id});
  if (it == rel.rows.end()) return IntervalSet();
  return it->second;
}

const std::map<ObjectId, IntervalSet>* MobileNode::AnswerMirror(
    uint64_t qid) const {
  auto it = mirrors_.find(qid);
  return it == mirrors_.end() ? nullptr : &it->second.rows;
}

Tick MobileNode::MirrorAnchor(uint64_t qid) const {
  auto it = mirrors_.find(qid);
  return it == mirrors_.end() ? 0 : it->second.anchor;
}

void MobileNode::AnswerRequest(const QueryRequest& request, NodeId issuer) {
  // Parents under the coordinator's coord/issue span via the delivered
  // message's context; the reports sent below carry this span onward.
  obs::TraceSpan span("node/answer_request", "dist");
  span.AnnotateU64("qid", request.qid);
  span.AnnotateU64("node", node_id());
  if (request.strategy == DistStrategy::kCollect) {
    // Strategy 1: just ship the object to the issuer. A continuous
    // collect-query keeps shipping on every change (see
    // ServiceSubscriptions).
    ObjectReport report;
    report.qid = request.qid;
    report.state = state_;
    channel_->SendReliable(issuer, report);
    if (request.continuous) {
      subscriptions_[request.qid] = {request, issuer, false, {}};
      if (store_) (void)store_->SaveSubscription(request, issuer);
    }
    channel_->SendReliable(issuer, QueryDone{request.qid});
    return;
  }
  // Strategy 2: evaluate locally; reply only when satisfied. One-shot
  // requests are anchored at their issue tick so a delayed
  // (retransmitted) delivery computes the same answer.
  Tick anchor = request.continuous ? clock_->Now() : request.issued_at;
  Result<IntervalSet> when =
      EvaluateAnchored(request.query, request.horizon, anchor);
  if (!when.ok()) return;  // Malformed query: stay silent.
  if (request.continuous) {
    // A (re-)subscription always reports the current answer, even an
    // empty one: after a partition heals, the re-synced report corrects
    // whatever stale match the issuer may still hold for this node.
    ObjectReport report;
    report.qid = request.qid;
    report.state = state_;
    report.satisfies = !when->empty();
    report.when = *when;
    channel_->SendReliable(issuer, report);
    subscriptions_[request.qid] = Subscription{request, issuer, true, *when};
    if (store_) (void)store_->SaveSubscription(request, issuer);
  } else if (!when->empty()) {
    ObjectReport report;
    report.qid = request.qid;
    report.state = state_;
    report.satisfies = true;
    report.when = *when;
    channel_->SendReliable(issuer, report);
  }
  channel_->SendReliable(issuer, QueryDone{request.qid});
}

void MobileNode::ApplyAnswerDelta(const AnswerDelta& delta) {
  Mirror& mirror = mirrors_[delta.qid];
  // A delta anchored at or before what the mirror already reflects is a
  // duplicate (at-least-once across a crash boundary) or arrived out of
  // band: skip it rather than regress the anchor.
  if (mirror.anchor != 0 && delta.anchor <= mirror.anchor) return;
  if (delta.full) mirror.rows.clear();
  SpliceAnswerDelta(&mirror.rows, delta.upserts, delta.removals);
  mirror.anchor = delta.anchor;
  if (store_) {
    bool rows_ok = !delta.full || store_->ClearMirror(delta.qid).ok();
    for (const auto& [obj, when] : delta.upserts) {
      rows_ok &= (when.empty() ? store_->RemoveMirrorRow(delta.qid, obj)
                               : store_->UpsertMirrorRow(delta.qid, obj, when))
                     .ok();
    }
    for (ObjectId obj : delta.removals) {
      rows_ok &= store_->RemoveMirrorRow(delta.qid, obj).ok();
    }
    // A stored anchor vouches for every row before it: a restart catches
    // up only objects dirtied after it. So after a failed row write the
    // stored mirror is rewritten whole before any anchor is trusted; a
    // failed anchor write merely makes catch-up resend more.
    if (rows_ok && !mirror.store_behind) {
      (void)store_->SaveMirrorAnchor(delta.qid, delta.anchor);
    } else {
      mirror.store_behind = !RewriteStoredMirror(delta.qid, mirror);
    }
  }
  ++deltas_applied_;
  deltas_applied_counter_.Inc();
}

bool MobileNode::RewriteStoredMirror(uint64_t qid, const Mirror& mirror) {
  bool ok = store_->ClearMirror(qid).ok();
  for (const auto& [obj, when] : mirror.rows) {
    ok &= store_->UpsertMirrorRow(qid, obj, when).ok();
  }
  return ok && store_->SaveMirrorAnchor(qid, mirror.anchor).ok();
}

void MobileNode::HandleMessage(const Message& message) {
  if (const auto* request = std::get_if<QueryRequest>(&message.payload)) {
    if (home_ == kInvalidNodeId) {
      home_ = message.from;
      PersistIdentity();
    }
    AnswerRequest(*request, message.from);
    return;
  }
  if (const auto* cancel = std::get_if<CancelQuery>(&message.payload)) {
    subscriptions_.erase(cancel->qid);
    mirrors_.erase(cancel->qid);
    if (store_) {
      (void)store_->RemoveSubscription(cancel->qid);
      (void)store_->ClearMirror(cancel->qid);
    }
    return;
  }
  if (const auto* delta = std::get_if<AnswerDelta>(&message.payload)) {
    ApplyAnswerDelta(*delta);
    return;
  }
  if (std::get_if<JoinAck>(&message.payload) != nullptr) {
    // The coordinator acknowledged the rejoin; nothing further to do —
    // the lease is the coordinator's bookkeeping, renewed by beacons.
    return;
  }
}

void MobileNode::ServiceSubscriptions() {
  for (auto& [qid, sub] : subscriptions_) {
    if (sub.request.strategy == DistStrategy::kCollect) {
      // Strategy 1 continuous: transmit the object on every change.
      ObjectReport report;
      report.qid = qid;
      report.state = state_;
      channel_->SendReliable(sub.issuer, report);
      continue;
    }
    // Strategy 2 continuous: transmit only when the local answer changed.
    Result<IntervalSet> when =
        EvaluateSelf(sub.request.query, sub.request.horizon);
    if (!when.ok()) continue;
    if (sub.has_last && *when == sub.last_sent) continue;
    sub.has_last = true;
    sub.last_sent = *when;
    ObjectReport report;
    report.qid = qid;
    report.state = state_;
    report.satisfies = !when->empty();
    report.when = *when;
    channel_->SendReliable(sub.issuer, report);
  }
}

void MobileNode::OnTick() {
  if (identity_pending_) PersistIdentity();
  if (resync_pending_ && home_ != kInvalidNodeId &&
      channel_->PeerBackpressure(home_) == Backpressure::kOpen) {
    // A JoinRequest under the same incarnation is the re-sync handshake:
    // the coordinator re-sends requests and mirror catch-up from our
    // anchors, and Rejoin re-answers every subscription.
    resync_pending_ = false;
    Rejoin();
  }
  if (options_.beacon_interval <= 0 || home_ == kInvalidNodeId) return;
  Tick now = clock_->Now();
  // Aligned to absolute ticks, and at most once per tick (DeliverDue may
  // run several times within one).
  if (now % options_.beacon_interval != 0 || now == last_beacon_tick_) return;
  last_beacon_tick_ = now;
  channel_->SendBestEffort(home_, state_);
}

}  // namespace most
