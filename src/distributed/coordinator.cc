#include "distributed/coordinator.h"

#include <algorithm>

namespace most {

namespace {

/// Counts the largest number of distinct object variables used by a
/// single atom of the formula.
size_t MaxVarsPerAtom(const FormulaPtr& f) {
  switch (f->kind()) {
    case FtlFormula::Kind::kCompare: {
      std::set<std::string> vars;
      f->lhs_term()->CollectObjectVars(&vars);
      f->rhs_term()->CollectObjectVars(&vars);
      return vars.size();
    }
    case FtlFormula::Kind::kInside:
    case FtlFormula::Kind::kOutside:
      return 1;
    case FtlFormula::Kind::kWithinSphere: {
      std::set<std::string> vars(f->sphere_vars().begin(),
                                 f->sphere_vars().end());
      return vars.size();
    }
    default: {
      size_t max_vars = 0;
      if (f->kind() == FtlFormula::Kind::kAssign) {
        std::set<std::string> vars;
        f->assign_term()->CollectObjectVars(&vars);
        max_vars = vars.size();
      }
      for (const FormulaPtr& c : f->children()) {
        max_vars = std::max(max_vars, MaxVarsPerAtom(c));
      }
      return max_vars;
    }
  }
}

}  // namespace

std::set<NodeId> Coordinator::QueryState::MissingNodes() const {
  std::set<NodeId> missing;
  for (NodeId id : expected) {
    if (responded.count(id) == 0) missing.insert(id);
  }
  return missing;
}

Coordinator::Coordinator(SimNetwork* network, Clock* clock,
                         std::map<std::string, Polygon> regions,
                         Options options)
    : network_(network),
      clock_(clock),
      regions_(std::move(regions)),
      options_(options),
      channel_(network, clock, options.channel),
      completion_lag_({1, 2, 4, 8, 16, 32, 64, 128, 256}) {
  channel_.SetHandler([this](const Message& m) { HandleMessage(m); });
  channel_.SetRawObserver([this](const Message& m) { ObserveTraffic(m); });
  channel_.SetLossObserver([this](NodeId peer) { lost_streams_.insert(peer); });
  tick_hook_id_ = network_->AddTickHook([this] { OnTick(); });
  obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
  attach_ids_ = {
      r.AttachCounter("most_coord_queries_issued_total",
                      "Distributed queries issued", {}, &queries_issued_),
      r.AttachCounter("most_coord_reports_total",
                      "Object reports incorporated into query state", {},
                      &reports_received_),
      r.AttachCounter("most_coord_resyncs_total",
                      "Continuous-query subscriptions re-sent to new or "
                      "revived nodes",
                      {}, &resyncs_),
      r.AttachCounter("most_coord_requests_shed_total",
                      "Query requests refused by channel backpressure "
                      "(target left in the missing set)",
                      {}, &requests_shed_),
      r.AttachCounter("most_coord_deadline_expired_total",
                      "Queries that reached their deadline before every "
                      "expected node completed",
                      {}, &deadline_expired_),
      r.AttachCounter("most_coord_lease_expirations_total",
                      "Node leases that transitioned live to expired", {},
                      &lease_expirations_),
      r.AttachCounter("most_coord_rejoins_total",
                      "JoinRequests accepted with a bumped incarnation", {},
                      &rejoins_),
      r.AttachCounter("most_coord_catchup_deltas_total",
                      "Rejoin catch-up AnswerDeltas sent to recovered "
                      "mirror anchors",
                      {}, &catchup_deltas_),
      r.AttachCounter("most_coord_catchup_bytes_total",
                      "Estimated wire bytes of rejoin catch-up deltas", {},
                      &catchup_bytes_),
      r.AttachCounter("most_coord_mirror_deltas_total",
                      "Steady-state Answer(CQ) mirror pushes", {},
                      &mirror_deltas_),
      r.AttachHistogram("most_coord_completion_lag_ticks",
                        "Ticks from issue until every expected node's "
                        "QueryDone arrived",
                        {}, &completion_lag_),
      r.AttachGauge("most_coord_missing_nodes",
                    "Expected-but-silent nodes over active queries", {},
                    &missing_nodes_gauge_),
      r.AttachGauge("most_coord_leases_active",
                    "Nodes currently holding a valid lease", {},
                    &leases_active_gauge_),
  };
}

Coordinator::~Coordinator() {
  network_->RemoveTickHook(tick_hook_id_);
  obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
  for (uint64_t id : attach_ids_) r.DetachMetric(id);
}

Coordinator::RecoveryStats Coordinator::recovery_stats() const {
  RecoveryStats s;
  s.rejoins = rejoins_.value();
  s.lease_expirations = lease_expirations_.value();
  s.catchup_deltas = catchup_deltas_.value();
  s.catchup_bytes = catchup_bytes_.value();
  s.mirror_deltas = mirror_deltas_.value();
  return s;
}

void Coordinator::UpdateMissingGauge() {
  int64_t missing = 0;
  for (const auto& [qid, state] : queries_) {
    if (state.cancelled || state.completed) continue;
    missing += static_cast<int64_t>(state.MissingNodes().size());
  }
  missing_nodes_gauge_.Set(missing);
}

DistQueryClass Coordinator::Classify(const FtlQuery& query,
                                     const std::string& self_class) {
  if (query.where != nullptr && MaxVarsPerAtom(query.where) >= 2) {
    return DistQueryClass::kRelationship;
  }
  std::set<std::string> distinct_vars;
  for (const FromBinding& fb : query.from) distinct_vars.insert(fb.var);
  if (distinct_vars.size() >= 2) return DistQueryClass::kRelationship;
  bool all_self = !query.from.empty();
  for (const FromBinding& fb : query.from) {
    if (fb.class_name != self_class) all_self = false;
  }
  return all_self ? DistQueryClass::kSelfReferencing
                  : DistQueryClass::kObject;
}

void Coordinator::SendRequest(uint64_t qid, const QueryState& state,
                              NodeId to) {
  QueryRequest request;
  request.qid = qid;
  request.strategy = state.strategy;
  request.continuous = state.continuous;
  request.query = state.query;
  request.horizon = state.horizon;
  request.issued_at = state.issued_at;
  if (channel_.SendReliable(to, request) == Backpressure::kShed) {
    // The bounded channel refused the frame: treat `to` like a missing
    // node. It stays in `expected` without a request in flight, so
    // answers read kStale with it in the missing set until the
    // partition-heal re-sync (ObserveTraffic) re-issues the query.
    requests_shed_.Inc();
  }
}

uint64_t Coordinator::Issue(const FtlQuery& query, DistStrategy strategy,
                            bool continuous, Tick horizon) {
  uint64_t qid = next_qid_++;
  // Root of the distributed query's trace tree: the per-node request
  // sends below stamp this context onto their frames, node-side answer
  // spans parent under it across the (simulated) wire, and the answer
  // handling back here joins the same tree.
  obs::TraceSpan span("coord/issue", "dist");
  span.AnnotateU64("qid", qid);
  span.AnnotateU64("node", node_id());
  QueryState state;
  state.query = query;
  state.strategy = strategy;
  state.continuous = continuous;
  state.horizon = horizon;
  state.issued_at = clock_->Now();
  state.deadline = TickSaturatingAdd(state.issued_at, options_.query_deadline);
  for (NodeId id : network_->NodeIds()) {
    if (id == node_id()) continue;
    state.expected.insert(id);
  }
  auto [it, inserted] = queries_.emplace(qid, std::move(state));
  for (NodeId id : it->second.expected) SendRequest(qid, it->second, id);
  queries_issued_.Inc();
  UpdateMissingGauge();
  return qid;
}

uint64_t Coordinator::IssueObjectQuery(const FtlQuery& query,
                                       DistStrategy strategy, bool continuous,
                                       Tick horizon) {
  return Issue(query, strategy, continuous, horizon);
}

uint64_t Coordinator::IssueRelationshipQuery(const FtlQuery& query,
                                             Tick horizon) {
  return Issue(query, DistStrategy::kCollect, /*continuous=*/false, horizon);
}

Status Coordinator::CancelQuerySubscription(uint64_t qid) {
  auto it = queries_.find(qid);
  if (it == queries_.end()) {
    return Status::NotFound("query " + std::to_string(qid));
  }
  it->second.cancelled = true;
  for (NodeId id : it->second.expected) {
    channel_.SendReliable(id, CancelQuery{qid});
  }
  UpdateMissingGauge();
  return Status::OK();
}

Result<const Coordinator::QueryState*> Coordinator::GetState(
    uint64_t qid) const {
  auto it = queries_.find(qid);
  if (it == queries_.end()) {
    return Status::NotFound("query " + std::to_string(qid));
  }
  return &it->second;
}

bool Coordinator::DeadlinePassed(uint64_t qid) const {
  auto it = queries_.find(qid);
  bool passed = it != queries_.end() && clock_->Now() >= it->second.deadline;
  if (passed && !it->second.completed &&
      deadline_counted_.insert(qid).second) {
    deadline_expired_.Inc();
  }
  return passed;
}

Result<Coordinator::CollectedAnswer> Coordinator::EvaluateCollected(
    uint64_t qid) const {
  MOST_ASSIGN_OR_RETURN(const QueryState* state, GetState(qid));
  if (state->query.from.empty()) {
    return Status::InvalidArgument("query has no FROM bindings");
  }
  std::vector<ObjectState> states;
  states.reserve(state->states.size());
  for (const auto& [id, s] : state->states) states.push_back(s);
  // All FROM variables range over the same fleet class.
  const std::string& class_name = state->query.from[0].class_name;
  for (const FromBinding& fb : state->query.from) {
    if (fb.class_name != class_name) {
      return Status::InvalidArgument(
          "distributed evaluation supports a single object class");
    }
  }
  // One-shot queries are anchored at their issue tick (so a re-read after
  // stragglers arrive evaluates the same window); continuous ones follow
  // the clock.
  Tick anchor = state->continuous ? clock_->Now() : state->issued_at;
  MOST_ASSIGN_OR_RETURN(
      std::unique_ptr<MostDatabase> db,
      BuildDatabaseFromStates(class_name, states, regions_, anchor));
  FtlEvaluator eval(*db);
  CollectedAnswer answer;
  MOST_ASSIGN_OR_RETURN(
      answer.relation,
      eval.EvaluateQuery(
          state->query,
          Interval(anchor, TickSaturatingAdd(anchor, state->horizon))));
  answer.missing = EffectiveMissing(*state);
  answer.confidence =
      answer.missing.empty() ? Confidence::kCertain : Confidence::kStale;
  return answer;
}

Result<Coordinator::ReportedAnswer> Coordinator::ReportedMatches(
    uint64_t qid) const {
  MOST_ASSIGN_OR_RETURN(const QueryState* state, GetState(qid));
  ReportedAnswer answer;
  answer.matches = state->matches;
  answer.missing = EffectiveMissing(*state);
  answer.confidence =
      answer.missing.empty() ? Confidence::kCertain : Confidence::kStale;
  return answer;
}

std::set<NodeId> Coordinator::EffectiveMissing(const QueryState& state) const {
  std::set<NodeId> missing = state.MissingNodes();
  if (!state.continuous || state.cancelled) return missing;
  // A continuous answer is only vouched for while every contributing
  // node's lease is valid: a node that answered and then went silent past
  // the liveness horizon may have moved arbitrarily (or died), so its
  // matches are dead reckoning — the answer degrades to kStale with the
  // node listed missing until it is heard again.
  for (NodeId id : state.expected) {
    if (last_heard_.count(id) != 0 && !IsLive(id)) missing.insert(id);
  }
  return missing;
}

bool Coordinator::IsLive(NodeId node) const {
  auto it = last_heard_.find(node);
  return it != last_heard_.end() &&
         clock_->Now() <=
             TickSaturatingAdd(it->second, options_.liveness_timeout);
}

std::set<NodeId> Coordinator::LiveNodes() const {
  std::set<NodeId> live;
  for (const auto& [id, at] : last_heard_) {
    if (IsLive(id)) live.insert(id);
  }
  return live;
}

void Coordinator::ObserveTraffic(const Message& message) {
  Tick now = clock_->Now();
  auto it = last_heard_.find(message.from);
  bool is_new = it == last_heard_.end();
  bool revived =
      !is_new &&
      now > TickSaturatingAdd(it->second, options_.liveness_timeout);
  last_heard_[message.from] = now;
  // Any traffic renews the sender's lease; the next silence-past-horizon
  // counts as a fresh expiry.
  leases_[message.from].expired_counted = false;
  if (!is_new && !revived) return;
  // A node just (re)appeared: push every active continuous query to it so
  // its subscription — dropped by a partition, a reconnect, or simply
  // never installed because the node joined late — re-synchronizes. The
  // node replies with its full current answer, which also corrects any
  // stale match we may still hold for it.
  for (auto& [qid, state] : queries_) {
    if (!state.continuous || state.cancelled) continue;
    if (!revived && state.expected.count(message.from)) continue;
    SendRequest(qid, state, message.from);
    state.expected.insert(message.from);
    state.completed = false;  // The re-synced node owes a new QueryDone.
    resyncs_.Inc();
  }
  UpdateMissingGauge();
}

std::set<NodeId> Coordinator::ExpiredLeases() const {
  std::set<NodeId> expired;
  for (const auto& [id, at] : last_heard_) {
    if (!IsLive(id)) expired.insert(id);
  }
  return expired;
}

void Coordinator::OnTick() {
  Tick now = clock_->Now();
  // DeliverDue may run several times within one tick; sweep once.
  if (now == last_sweep_tick_) return;
  last_sweep_tick_ = now;
  int64_t active = 0;
  for (auto& [id, lease] : leases_) {
    if (IsLive(id)) {
      ++active;
    } else if (!lease.expired_counted) {
      lease.expired_counted = true;
      lease_expirations_.Inc();
    }
  }
  leases_active_gauge_.Set(active);
  for (auto it = lost_streams_.begin(); it != lost_streams_.end();) {
    const NodeId peer = *it;
    if (!IsLive(peer) ||
        channel_.PeerBackpressure(peer) != Backpressure::kOpen) {
      ++it;
      continue;
    }
    it = lost_streams_.erase(it);
    ResyncLostStream(peer);  // May shed again and re-enter the set.
  }
  // Steady-state mirror pushes: one per-object delta per tick to each
  // lease-valid subscriber whose mirror fell behind. Dead subscribers are
  // skipped — their catch-up happens at rejoin, from the anchor they
  // recover, which is the point of the exercise.
  for (auto& [qid, state] : queries_) {
    if (state.cancelled || state.mirror_subs.empty()) continue;
    std::vector<NodeId> subs;
    subs.reserve(state.mirror_subs.size());
    for (const auto& [sub, synced] : state.mirror_subs) subs.push_back(sub);
    for (NodeId sub : subs) {
      if (!IsLive(sub)) continue;
      FlushMirror(qid, &state, sub, /*full=*/false, /*rejoin_catchup=*/false);
    }
  }
}

void Coordinator::ResyncLostStream(NodeId peer) {
  for (auto& [qid, state] : queries_) {
    if (state.expected.count(peer) == 0) continue;
    if (state.cancelled) {
      if (state.continuous) channel_.SendReliable(peer, CancelQuery{qid});
      continue;
    }
    if (state.continuous || state.responded.count(peer) == 0) {
      SendRequest(qid, state, peer);
      resyncs_.Inc();
    }
    if (state.mirror_subs.count(peer) != 0) {
      FlushMirror(qid, &state, peer, /*full=*/true, /*rejoin_catchup=*/false);
    }
  }
}

void Coordinator::FlushMirror(uint64_t qid, QueryState* state,
                              NodeId subscriber, bool full,
                              bool rejoin_catchup) {
  Tick now = clock_->Now();
  Tick synced = state->mirror_subs[subscriber];
  AnswerDelta delta;
  delta.qid = qid;
  delta.base = synced;
  delta.anchor = now;
  if (full) {
    delta.full = true;
    for (const auto& [id, when] : state->matches) {
      delta.upserts.emplace_back(id, when);
    }
  } else {
    for (const auto& [id, at] : state->dirty_at) {
      if (at <= synced) continue;
      auto mit = state->matches.find(id);
      if (mit == state->matches.end()) {
        delta.removals.push_back(id);
      } else {
        delta.upserts.emplace_back(id, mit->second);
      }
    }
    if (delta.upserts.empty() && delta.removals.empty()) return;
  }
  // Claim synced only through now-1: reports delivered later this tick
  // stamp dirty_at == now, which the next flush must still pick up.
  // Re-sent objects are idempotent (full per-object interval sets).
  state->mirror_subs[subscriber] = now > 0 ? now - 1 : 0;
  size_t bytes = EstimateBytes(MessagePayload(delta));
  if (rejoin_catchup) {
    catchup_deltas_.Inc();
    catchup_bytes_.Inc(static_cast<int64_t>(bytes));
  } else {
    mirror_deltas_.Inc();
  }
  channel_.SendReliable(subscriber, std::move(delta));
}

Status Coordinator::SubscribeAnswerMirror(uint64_t qid, NodeId subscriber) {
  auto it = queries_.find(qid);
  if (it == queries_.end()) {
    return Status::NotFound("query " + std::to_string(qid));
  }
  QueryState& state = it->second;
  if (!state.continuous || state.strategy != DistStrategy::kBroadcastFilter) {
    return Status::InvalidArgument(
        "answer mirrors require a continuous broadcast-filter query");
  }
  state.mirror_subs[subscriber] = 0;
  FlushMirror(qid, &state, subscriber, /*full=*/true, /*rejoin_catchup=*/false);
  return Status::OK();
}

void Coordinator::OnJoin(const JoinRequest& join, NodeId from) {
  Lease& lease = leases_[from];
  bool new_incarnation = join.incarnation > lease.incarnation;
  if (new_incarnation) {
    lease.incarnation = join.incarnation;
    // Fence the dead incarnation: restart our send stream under a higher
    // epoch, re-enqueueing whatever was pending (queries issued while the
    // node was down), so the reborn receiver adopts it instead of
    // buffering old-epoch frames it can never complete.
    channel_.RestartPeerStream(from);
    rejoins_.Inc();
  }
  lease.expired_counted = false;
  last_heard_[from] = clock_->Now();
  std::set<uint64_t> claimed(join.subscribed_qids.begin(),
                             join.subscribed_qids.end());
  for (auto& [qid, state] : queries_) {
    if (state.cancelled) continue;
    if (state.continuous) {
      state.expected.insert(from);
      if (new_incarnation) {
        // The reborn node owes a fresh QueryDone — it re-answers the
        // subscriptions it recovered, and we re-send the ones it lost.
        state.responded.erase(from);
        state.completed = false;
      }
      if (claimed.count(qid) == 0) {
        SendRequest(qid, state, from);
        resyncs_.Inc();
      }
    } else if (!state.completed && state.expected.count(from) != 0 &&
               state.responded.count(from) == 0) {
      // An incomplete one-shot: the request may have been delivered but
      // unanswered when the node died (nothing durable marks it), so
      // re-send. Anchored at issued_at, the late answer computes the
      // same window the issuer asked for.
      SendRequest(qid, state, from);
      resyncs_.Inc();
    }
  }
  // Subscriptions the node recovered for queries that no longer exist (or
  // were cancelled while it was dead) get a reliable cancel.
  for (uint64_t qid : claimed) {
    auto it = queries_.find(qid);
    if (it == queries_.end() || it->second.cancelled) {
      channel_.SendReliable(from, CancelQuery{qid});
    }
  }
  // Mirror catch-up from the anchors the node recovered: per-object
  // deltas since each anchor (or the full mirror when delta_catchup is
  // off — the bench baseline). anchor-1 because a flush at tick T claims
  // only T-1: changes stamped later within T must be re-sent.
  for (const auto& [qid, anchor] : join.mirror_anchors) {
    auto it = queries_.find(qid);
    if (it == queries_.end() || it->second.cancelled) continue;
    QueryState& state = it->second;
    state.mirror_subs[from] = anchor > 0 ? anchor - 1 : 0;
    FlushMirror(qid, &state, from, /*full=*/!options_.delta_catchup,
                /*rejoin_catchup=*/true);
  }
  JoinAck ack;
  ack.incarnation = join.incarnation;
  ack.lease_until =
      TickSaturatingAdd(clock_->Now(), options_.liveness_timeout);
  channel_.SendReliable(from, ack);
  UpdateMissingGauge();
}

void Coordinator::HandleMessage(const Message& message) {
  if (const auto* join = std::get_if<JoinRequest>(&message.payload)) {
    OnJoin(*join, message.from);
    return;
  }
  if (const auto* done = std::get_if<QueryDone>(&message.payload)) {
    auto it = queries_.find(done->qid);
    if (it != queries_.end()) {
      QueryState& state = it->second;
      state.responded.insert(message.from);
      state.expected.insert(message.from);
      if (!state.completed && state.MissingNodes().empty()) {
        state.completed = true;
        state.completed_at = clock_->Now();
        completion_lag_.Observe(
            static_cast<double>(state.completed_at - state.issued_at));
      }
      UpdateMissingGauge();
    }
    return;
  }
  const auto* report = std::get_if<ObjectReport>(&message.payload);
  if (report == nullptr) return;  // Position beacons: liveness only.
  auto it = queries_.find(report->qid);
  if (it == queries_.end()) return;
  // Runs under the delivery guard's ambient context (the node's answer
  // span), so the report's ingestion closes the coordinator→node→
  // coordinator loop inside one trace tree.
  obs::TraceSpan span("coord/on_report", "dist");
  span.AnnotateU64("qid", report->qid);
  span.AnnotateU64("node", message.from);
  QueryState& state = it->second;
  state.replies += 1;
  reports_received_.Inc();
  state.states[report->state.id] = report->state;
  if (state.strategy == DistStrategy::kBroadcastFilter) {
    if (report->when.empty()) {
      if (state.matches.erase(report->state.id) != 0) {
        state.dirty_at[report->state.id] = clock_->Now();
      }
    } else {
      IntervalSet& slot = state.matches[report->state.id];
      if (!(slot == report->when)) {
        slot = report->when;
        state.dirty_at[report->state.id] = clock_->Now();
      }
    }
  }
}

}  // namespace most
