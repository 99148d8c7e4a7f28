#include "ftl/query_manager.h"

#include <algorithm>
#include <sstream>

#include "common/failpoint.h"
#include "obs/governor.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace most {

namespace {

/// Registry-owned series the query manager's refresh paths report into.
/// Looked up once; refreshes are per-update events, not per-tuple, so the
/// flush cost is a few relaxed atomics per refresh.
struct QmRegistrySeries {
  obs::Counter* delta_refreshes;
  obs::Counter* full_refreshes;
  obs::Histogram* delta_latency;
  obs::Histogram* full_latency;
  obs::Histogram* dirty_set_size;

  static const QmRegistrySeries& Get() {
    static const QmRegistrySeries s = [] {
      auto& r = obs::MetricsRegistry::Global();
      QmRegistrySeries s;
      s.delta_refreshes =
          r.GetCounter("most_qm_refreshes_total",
                       "Continuous-query refreshes by path",
                       {{"path", "delta"}});
      s.full_refreshes =
          r.GetCounter("most_qm_refreshes_total",
                       "Continuous-query refreshes by path",
                       {{"path", "full"}});
      s.delta_latency = r.GetHistogram(
          "most_qm_refresh_latency_seconds", "Refresh wall time by path",
          obs::ExponentialBuckets(1e-5, 4.0, 10), {{"path", "delta"}});
      s.full_latency = r.GetHistogram(
          "most_qm_refresh_latency_seconds", "Refresh wall time by path",
          obs::ExponentialBuckets(1e-5, 4.0, 10), {{"path", "full"}});
      s.dirty_set_size = r.GetHistogram(
          "most_qm_dirty_set_size",
          "Distinct dirty objects coalesced per delta refresh",
          {1, 2, 4, 8, 16, 32, 64, 128, 256, 1024});
      return s;
    }();
    return s;
  }
};

/// Why the full path ran, as a labelled counter (one series per reason).
void CountFullRefreshReason(const char* reason) {
  auto& r = obs::MetricsRegistry::Global();
  if (!r.enabled()) return;
  r.GetCounter("most_qm_full_refresh_reason_total",
               "Full (non-delta) refreshes by trigger reason",
               {{"reason", reason}})
      ->Inc();
}

std::string RenderWindow(Tick begin, Tick end) {
  std::ostringstream os;
  os << "[" << begin << ", " << end << "]";
  return os.str();
}

size_t DirtyTotal(const std::map<std::string, std::set<ObjectId>>& dirty) {
  size_t total = 0;
  for (const auto& [cls, ids] : dirty) total += ids.size();
  return total;
}

/// True when projecting a relation over `vars` (sorted, as every
/// relation's columns are) onto `retrieve` keeps every column, so the
/// projection is the relation itself.
bool KeepsEveryColumn(const std::vector<std::string>& retrieve,
                      const std::vector<std::string>& vars) {
  const std::set<std::string> keep(retrieve.begin(), retrieve.end());
  return std::equal(keep.begin(), keep.end(), vars.begin(), vars.end());
}

/// Drops the rows of `rel` binding an id of drop[i] in column i (null =
/// none). Rows are sorted by binding, so column 0's ids are erased by
/// range; only a dirty set in a later column needs a scan of every row.
void EvictRows(const std::vector<const std::set<ObjectId>*>& drop,
               TemporalRelation* rel) {
  auto& rows = rel->rows;
  if (!drop.empty() && drop.front() != nullptr) {
    std::vector<ObjectId> key(1);
    for (ObjectId id : *drop.front()) {
      key.front() = id;
      auto it = rows.lower_bound(key);
      while (it != rows.end() && it->first.front() == id) it = rows.erase(it);
    }
  }
  bool later = false;
  for (size_t i = 1; i < drop.size(); ++i) later |= drop[i] != nullptr;
  if (!later) return;
  for (auto it = rows.begin(); it != rows.end();) {
    bool evict = false;
    for (size_t i = 1; i < drop.size() && !evict; ++i) {
      evict = drop[i] != nullptr && drop[i]->count(it->first[i]) > 0;
    }
    it = evict ? rows.erase(it) : std::next(it);
  }
}

/// The limits a persistent query's history refreshes under: the governor's,
/// unbudgeted and without cooldown (a cooldown measured on the history's
/// clock, which stays at the anchor, would never end).
ResourceGovernor::Limits HistoryLimits() {
  ResourceGovernor::Limits limits = ResourceGovernor::Global().limits();
  limits.refresh_budget = Budget();
  limits.degrade_cooldown_ticks = 0;
  return limits;
}

// ---- History attributes ---------------------------------------------------
//
// A history attribute is DynamicAttribute(0, anchor, f): each piece of f
// starts at an offset from the anchor and resets to the value the object
// had there, so an update that teleports a value stays a jump. Pieces are
// built with starts strictly increasing from 0, so Piecewise cannot fail.

using Piece = TimeFunction::Piece;

/// Appends `dyn`'s linear pieces over [from, to] (none if empty).
void AppendPieces(const DynamicAttribute& dyn, Tick from, Tick to, Tick anchor,
                  std::vector<Piece>* pieces) {
  if (from > to) return;
  for (const auto& lp : dyn.LinearPieces(Interval(from, to))) {
    pieces->push_back({lp.ticks.begin - anchor, lp.slope, /*has_reset=*/true,
                       lp.value_at_begin});
  }
}

/// The pieces of `f` that start before `offset`.
std::vector<Piece> PiecesBefore(const TimeFunction& f, Tick offset) {
  const std::span<const Piece> all = f.pieces();
  return {all.begin(),
          std::partition_point(all.begin(), all.end(), [&](const Piece& p) {
            return p.start < offset;
          })};
}

/// The history attribute of non-empty `pieces`. An object created after
/// the anchor has no piece at offset 0: its first piece is extended back.
DynamicAttribute Stitch(std::vector<Piece> pieces, Tick anchor) {
  if (pieces.front().start != 0) {
    Piece lead = pieces.front();
    double backstep = static_cast<double>(lead.start) * lead.slope;
    lead.start = 0;
    lead.reset_value -= backstep;
    pieces.insert(pieces.begin(), lead);
  }
  return DynamicAttribute(
      0.0, anchor, TimeFunction::Piecewise(std::move(pieces)).value());
}

}  // namespace

void SpliceAnswerDelta(
    std::map<ObjectId, IntervalSet>* mirror,
    const std::vector<std::pair<ObjectId, IntervalSet>>& upserts,
    const std::vector<ObjectId>& removals) {
  for (const auto& [id, when] : upserts) {
    if (when.empty()) {
      mirror->erase(id);
    } else {
      (*mirror)[id] = when;
    }
  }
  for (ObjectId id : removals) mirror->erase(id);
}

QueryManager::QueryManager(MostDatabase* db, Options options)
    : db_(db), options_(options) {
  if (options_.listen) {
    listener_id_ = db_->AddUpdateListener(
        [this](const std::string& class_name, ObjectId id) {
          OnUpdate(class_name, id);
        });
  }
}

QueryManager::~QueryManager() {
  if (options_.listen) db_->RemoveUpdateListener(listener_id_);
}

bool QueryManager::InCooldown(const Continuous& cq, Tick now, Tick cooldown) {
  // Only evaluation-budget sheds cool down; a queue shed just waits for
  // the next admission round, and kNone means nothing was shed at all.
  if (cq.degrade != DegradeReason::kDeadline &&
      cq.degrade != DegradeReason::kMemory &&
      cq.degrade != DegradeReason::kRows) {
    return false;
  }
  if (cooldown <= 0 || cq.degraded_at < 0) return false;
  return now < TickSaturatingAdd(cq.degraded_at, cooldown);
}

void QueryManager::NoteShed(Continuous* cq, DegradeReason reason, Tick now,
                            const std::string& detail, const char* path,
                            uint64_t dur_ns) {
  // The gate always names the tripped limit when it aborts; the fallback
  // only guards a future caller passing kNone by mistake.
  if (reason == DegradeReason::kNone) reason = DegradeReason::kDeadline;
  cq->degrade = reason;
  cq->degrade_detail = detail;
  cq->degraded_at = now;
  ++cq->shed_refreshes;
  ResourceGovernor::Global().NoteDegrade(reason, cq->id, now, detail);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  if (registry.enabled()) {
    registry
        .GetCounter("most_qm_shed_refreshes_total",
                    "Refreshes shed by resource governance (the query keeps "
                    "serving its previous answer as kStale)",
                    {{"path", path}})
        ->Inc();
  }
  // Degrade entries bypass the latency threshold (see SlowQueryLog).
  obs::SlowQueryLog::Entry entry;
  entry.query_id = cq->id;
  entry.query = cq->query.ToString();
  entry.path = path;
  entry.duration_ns = dur_ns;
  entry.refresh_seq = cq->evaluations;
  entry.degrade = std::string(DegradeReasonToString(reason));
  entry.shard_id = options_.shard_id;
  entry.trace_id = obs::CurrentTraceContext().trace_id;
  obs::SlowQueryLog::Global().MaybeRecord(std::move(entry));
}

void QueryManager::OnUpdate(const std::string& class_name, ObjectId id) {
  std::lock_guard<std::mutex> lock(mu_);
  NoteUpdatesLocked(class_name, std::span<const ObjectId>(&id, 1),
                    Ownership::kOwned, db_->Now());
}

void QueryManager::NoteUpdates(const std::string& class_name,
                               const std::vector<ObjectId>& ids,
                               Ownership ownership) {
  if (ids.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  NoteUpdatesLocked(class_name, ids, ownership, db_->Now());
}

void QueryManager::NoteUpdatesLocked(const std::string& class_name,
                                     std::span<const ObjectId> ids,
                                     Ownership ownership, Tick now) {
  // Continuous queries over the updated class must be re-evaluated
  // ("a continuous query CQ has to be reevaluated when an update occurs
  // that may change the set of tuples Answer(CQ)", Section 2.3) — but an
  // update to one object only disturbs the Answer rows that bind it, so
  // record *which* objects went dirty and coalesce repeats; Refresh then
  // re-derives just those rows (docs/incremental_eval.md).
  for (auto& [qid, cq] : continuous_) {
    // A partitioned manager's single-variable query binds only owned
    // objects (its one object column is the partitioned first FROM
    // variable), so a foreign object's update cannot change any of its
    // rows. Multi-variable queries may bind a foreign object in a later
    // column and are marked either way.
    if (ownership == Ownership::kForeign && cq.query.from.size() == 1) {
      continue;
    }
    for (const FromBinding& fb : cq.query.from) {
      if (fb.class_name == class_name) {
        cq.dirty_objects[class_name].insert(ids.begin(), ids.end());
        // First staleness since the last completed refresh: admission
        // control refreshes longest-stale entries first.
        if (cq.first_dirty_at < 0) cq.first_dirty_at = now;
        break;
      }
    }
  }
  // Persistent queries append the updated objects to their histories.
  for (auto& [qid, pq] : persistent_) {
    bool relevant = false;
    for (const FromBinding& fb : pq.query.from) {
      if (fb.class_name == class_name) relevant = true;
    }
    if (!relevant || !pq.broken.ok()) continue;
    auto cls = db_->GetClass(class_name);
    if (!cls.ok()) continue;
    for (ObjectId id : ids) {
      pq.broken = MirrorUpdate(&pq, **cls, id, now);
      if (!pq.broken.ok()) break;
    }
  }
}

void QueryManager::ApplyPartition(FtlEvaluator::Options* opts,
                                  const FtlQuery& query) const {
  if (options_.domain_partition == nullptr || query.from.empty()) return;
  opts->domain_restrictions[query.from.front().var] =
      options_.domain_partition;
}

Result<TemporalRelation> QueryManager::Evaluate(const FtlQuery& query) {
  Tick now = db_->Now();
  FtlEvaluator::Options opts;
  opts.budget = ResourceGovernor::Global().limits().refresh_budget;
  ApplyPartition(&opts, query);
  FtlEvaluator eval(*db_, opts, &context_);
  return eval.EvaluateQuery(
      query, Interval(now, TickSaturatingAdd(now, options_.horizon)));
}

Result<std::vector<std::vector<ObjectId>>> QueryManager::Instantaneous(
    const FtlQuery& query) {
  MOST_ASSIGN_OR_RETURN(TemporalRelation rel, Evaluate(query));
  Tick now = db_->Now();
  std::vector<std::vector<ObjectId>> out;
  for (const auto& [binding, when] : rel.rows) {
    if (when.Contains(now)) out.push_back(binding);
  }
  return out;
}

Result<std::vector<QueryManager::ReachingTime>>
QueryManager::FirstSatisfactionTimes(const FtlQuery& query) {
  MOST_ASSIGN_OR_RETURN(TemporalRelation rel, Evaluate(query));
  std::vector<ReachingTime> out;
  for (const auto& [binding, when] : rel.rows) {
    out.push_back({binding, when.Min()});
  }
  std::sort(out.begin(), out.end(),
            [](const ReachingTime& a, const ReachingTime& b) {
              if (a.at != b.at) return a.at < b.at;
              return a.binding < b.binding;
            });
  return out;
}

Result<QueryManager::QueryId> QueryManager::RegisterContinuous(
    const FtlQuery& query) {
  const ResourceGovernor::Limits limits = ResourceGovernor::Global().limits();
  std::lock_guard<std::mutex> lock(mu_);
  return RegisterContinuousLocked(query, limits);
}

Result<QueryManager::QueryId> QueryManager::RegisterContinuousLocked(
    const FtlQuery& query, const ResourceGovernor::Limits& limits) {
  QueryId id = next_id_++;
  Continuous cq;
  cq.id = id;
  cq.query = query;
  cq.window_begin = db_->Now();
  cq.expires_at = TickSaturatingAdd(cq.window_begin, options_.horizon);
  auto [it, inserted] = continuous_.emplace(id, std::move(cq));
  Status initial = Refresh(&it->second, limits);
  // As at the end of TickAll: what the registration shared is not kept
  // until the manager's next evaluation.
  context_.Release();
  if (!initial.ok()) {
    // A registration that fails leaves nothing behind: an orphan entry
    // would be refreshed by every later TickAll under an id nobody holds.
    continuous_.erase(it);
    return initial;
  }
  return id;
}

Status QueryManager::Cancel(QueryId id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (continuous_.erase(id) > 0) return Status::OK();
  if (persistent_.erase(id) > 0) return Status::OK();
  return Status::NotFound("query " + std::to_string(id));
}

bool QueryManager::NeedsRefresh(const Continuous& cq, Tick now) const {
  return cq.evaluations == 0 || cq.window_begin > cq.evaluated_at ||
         !cq.dirty_objects.empty() || now > cq.expires_at ||
         cq.catalog_changes != db_->catalog_changes();
}

void QueryManager::SlideExpiredWindow(Continuous* cq, Tick now) const {
  if (now <= cq->expires_at) return;
  cq->window_begin = now;
  cq->expires_at = TickSaturatingAdd(now, options_.horizon);
}

/// One refresh, as data: the passes it evaluates and the rows its install
/// drops. Full and delta refreshes differ only in this plan; RunRefresh
/// evaluates every pass before it touches the materialized answer.
struct QueryManager::RefreshPlan {
  /// One evaluation over the window, restricted by the partition and, when
  /// `ids` is set, with `var` pinned to `ids`.
  struct Pass {
    std::string var;
    std::shared_ptr<const std::set<ObjectId>> ids;
    /// Profile node label under the root; empty profiles into the root.
    std::string label;
  };
  /// A full plan has one pass, restricted by the partition alone, whose
  /// relation replaces every row. A delta plan drops the rows binding a
  /// dirty object and splices its passes in.
  bool delta = false;
  /// Why the plan runs: a full reason (initial/expired/catalog/
  /// dirty_fraction/delta_error) or "coalesced updates".
  const char* reason = nullptr;
  std::vector<Pass> passes;
  /// Delta only: per column of `full`, the dirty ids whose rows the
  /// install drops (null = the column's class saw no update).
  std::vector<const std::set<ObjectId>*> drop;
};

QueryManager::RefreshPlan QueryManager::DeltaPlan(const Continuous& cq) const {
  RefreshPlan plan;
  plan.delta = true;
  plan.reason = "coalesced updates";
  const std::vector<std::string>& vars = cq.full->relation.vars;
  plan.drop.assign(vars.size(), nullptr);
  const std::string* part_var =
      (options_.domain_partition != nullptr && !cq.query.from.empty())
          ? &cq.query.from.front().var
          : nullptr;
  for (size_t i = 0; i < vars.size(); ++i) {
    for (const FromBinding& fb : cq.query.from) {
      if (fb.var == vars[i]) {
        auto it = cq.dirty_objects.find(fb.class_name);
        if (it != cq.dirty_objects.end()) plan.drop[i] = &it->second;
        break;
      }
    }
    if (plan.drop[i] == nullptr) continue;
    // One pass per dirty column: variable i pinned to the dirty ids, every
    // other domain unrestricted. For the partitioned variable the pass
    // takes the owned dirty ids only; when none is owned, no owned row
    // binds a dirty id in this column and there is nothing to re-derive.
    std::shared_ptr<const std::set<ObjectId>> ids;
    if (part_var != nullptr && vars[i] == *part_var) {
      auto owned_dirty = std::make_shared<std::set<ObjectId>>();
      for (ObjectId id : *plan.drop[i]) {
        if (options_.domain_partition->count(id) > 0) owned_dirty->insert(id);
      }
      if (owned_dirty->empty()) continue;
      ids = std::move(owned_dirty);
    } else {
      ids = std::make_shared<const std::set<ObjectId>>(*plan.drop[i]);
    }
    plan.passes.push_back({vars[i], std::move(ids),
                           "RestrictedPass " + vars[i] + " (" +
                               std::to_string(plan.drop[i]->size()) +
                               " dirty)"});
  }
  return plan;
}

Status QueryManager::Refresh(Continuous* cq,
                             const ResourceGovernor::Limits& limits) {
  Tick now = db_->Now();
  SlideExpiredWindow(cq, now);
  if (!NeedsRefresh(*cq, now)) return Status::OK();
  // A query whose last refresh blew its budget keeps serving the stale
  // answer through the cooldown instead of burning the budget again; its
  // dirty set is retained, so the first post-cooldown read recovers.
  if (InCooldown(*cq, now, limits.degrade_cooldown_ticks)) return Status::OK();
  // Decide the path and remember why, so the profile and the
  // most_qm_full_refresh_reason_total counters can say which guard fired.
  const char* full_reason = nullptr;
  if (cq->evaluations == 0) {
    full_reason = "initial";
  } else if (cq->window_begin > cq->evaluated_at) {
    full_reason = "expired";  // The window slid since the last evaluation.
  } else if (cq->catalog_changes != db_->catalog_changes()) {
    full_reason = "catalog";  // A region may have been redefined.
  } else {
    // Bail to the full path when most of the domain is dirty: the
    // restricted passes would approach full cost, plus eviction/splice.
    size_t dirty_total = DirtyTotal(cq->dirty_objects);
    size_t domain_total = 0;
    for (const FromBinding& fb : cq->query.from) {
      auto cls = db_->GetClass(fb.class_name);
      if (!cls.ok()) continue;
      size_t extent = (*cls)->size();
      // A partitioned manager's first variable ranges over the owned ids
      // only, so measure the dirty fraction against that (heuristic only;
      // both paths stay byte-identical).
      if (options_.domain_partition != nullptr &&
          &fb == &cq->query.from.front()) {
        extent = std::min(extent, options_.domain_partition->size());
      }
      domain_total += extent;
    }
    if (domain_total > 0 &&
        static_cast<double>(dirty_total) <=
            limits.delta_max_dirty_fraction *
                static_cast<double>(domain_total)) {
      Status delta = RunRefresh(cq, DeltaPlan(*cq), limits.refresh_budget);
      if (delta.ok()) return delta;
      // Delta failed (e.g. an injected fault) and installed nothing: retry
      // through the full plan.
      full_reason = "delta_error";
    } else {
      full_reason = "dirty_fraction";
    }
  }
  RefreshPlan full;  // One pass, restricted by the partition alone.
  full.reason = full_reason;
  full.passes.emplace_back();
  return RunRefresh(cq, full, limits.refresh_budget);
}

Status QueryManager::RunRefresh(Continuous* cq, const RefreshPlan& plan,
                                const Budget& budget) {
  if (plan.delta) MOST_FAILPOINT("ftl/delta/refresh");
  const char* path = plan.delta ? "delta" : "full";
  obs::TraceSpan span(plan.delta ? "qm/refresh_delta" : "qm/refresh_full",
                      "ftl");
  Tick now = db_->Now();
  span.AnnotateU64("query_id", cq->id);
  span.AnnotateU64("tick", static_cast<uint64_t>(now));
  if (!plan.delta) span.Annotate("reason", plan.reason);
  if (options_.shard_id >= 0) {
    span.AnnotateU64("shard", static_cast<uint64_t>(options_.shard_id));
  }
  const size_t dirty_total = DirtyTotal(cq->dirty_objects);
  auto profile = std::make_shared<obs::QueryProfile>();
  profile->query = cq->query.ToString();
  profile->window = RenderWindow(cq->window_begin, cq->expires_at);
  profile->path = path;
  profile->reason = plan.reason;
  profile->refresh_seq = cq->evaluations + 1;
  profile->dirty_objects = dirty_total;
  profile->root.label = plan.delta ? "DeltaRefresh" : "EvaluateQuery";
  const Interval window(cq->window_begin, cq->expires_at);
  const uint64_t t0 = obs::MonotonicNowNs();
  // 1. Evaluate every pass. Nothing is installed until all of them have
  //    completed, so an error or a shed leaves the last completed answer.
  std::vector<TemporalRelation> parts;
  parts.reserve(plan.passes.size());
  for (const RefreshPlan::Pass& pass : plan.passes) {
    FtlEvaluator::Options opts;
    opts.budget = budget;
    ApplyPartition(&opts, cq->query);
    if (pass.ids != nullptr) opts.domain_restrictions[pass.var] = pass.ids;
    opts.profile = pass.label.empty() ? &profile->root
                                      : profile->root.AddChild(pass.label);
    FtlEvaluator eval(*db_, opts, &context_);
    Result<TemporalRelation> part =
        eval.EvaluateQueryUnprojected(cq->query, window);
    if (!part.ok()) {
      if (part.status().code() != StatusCode::kResourceExhausted) {
        return part.status();
      }
      // Budget exhausted mid-evaluation. The half-built relation was
      // discarded (truncating it would be unsound under negation —
      // docs/robustness.md); the query keeps its last completed answer,
      // served as kStale, and its dirty state, so a post-cooldown refresh
      // recovers.
      NoteShed(cq, eval.degrade_reason(), now, part.status().message(), path,
               obs::MonotonicNowNs() - t0);
      return Status::OK();
    }
    profile->arena_bytes += eval.stats().arena_bytes;
    profile->arena_heap_fallbacks += eval.stats().arena_heap_fallbacks;
    parts.push_back(std::move(*part));
  }
  // 2. Install. A full plan's one relation replaces every row. A delta
  //    plan drops the rows binding a dirty object, which are exactly the
  //    rows an update can have changed (the relation is pointwise in its
  //    bindings; a deleted object's rows are dropped and re-derived by no
  //    pass), then splices its passes in; a row several passes re-derive
  //    has identical tick sets in each. The splice mutates `full` in place
  //    unless a snapshot still holds it; then it works on a copy.
  if (!plan.delta) {
    cq->full = std::make_shared<HeldRelation>(std::move(parts.front()));
  } else {
    if (cq->full->readers.load(std::memory_order_acquire) != 0) {
      cq->full = std::make_shared<HeldRelation>(cq->full->relation);
    }
    TemporalRelation& full = cq->full->relation;
    EvictRows(plan.drop, &full);
    for (TemporalRelation& part : parts) {
      for (auto& [binding, when] : part.rows) {
        full.rows.try_emplace(binding, std::move(when));
      }
    }
  }
  const TemporalRelation& full = cq->full->relation;
  cq->answer = KeepsEveryColumn(cq->query.retrieve, full.vars)
                   ? cq->full
                   : std::make_shared<HeldRelation>(
                         full.Project(cq->query.retrieve));
  const uint64_t dur_ns = obs::MonotonicNowNs() - t0;
  cq->evaluated_at = now;
  cq->catalog_changes = db_->catalog_changes();
  cq->dirty_objects.clear();
  cq->degrade = DegradeReason::kNone;
  cq->degrade_detail.clear();
  cq->first_dirty_at = -1;
  ++cq->evaluations;
  ++(plan.delta ? cq->delta_evaluations : cq->full_evaluations);
  ++(plan.delta ? totals_.delta_evaluations : totals_.full_evaluations);
  profile->total_ns = dur_ns;
  if (plan.delta) {  // The passes profiled as children; the root totals.
    profile->root.duration_ns = dur_ns;
    profile->root.tuples = full.rows.size();
  }
  cq->last_profile = std::move(profile);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  if (registry.enabled()) {
    const QmRegistrySeries& series = QmRegistrySeries::Get();
    (plan.delta ? series.delta_refreshes : series.full_refreshes)->Inc();
    (plan.delta ? series.delta_latency : series.full_latency)
        ->Observe(static_cast<double>(dur_ns) * 1e-9);
    if (plan.delta) {
      series.dirty_set_size->Observe(static_cast<double>(dirty_total));
    } else {
      CountFullRefreshReason(plan.reason);
    }
  }
  obs::SlowQueryLog& slow_log = obs::SlowQueryLog::Global();
  if (slow_log.enabled()) {
    obs::SlowQueryLog::Entry entry;
    entry.query_id = cq->id;
    entry.query = cq->query.ToString();
    entry.path = path;
    entry.duration_ns = dur_ns;
    entry.refresh_seq = cq->evaluations;
    entry.shard_id = options_.shard_id;
    entry.trace_id = span.context().trace_id;
    slow_log.MaybeRecord(std::move(entry));
  }
  return Status::OK();
}

Result<std::vector<AnswerTuple>> QueryManager::ContinuousAnswer(QueryId id) {
  const ResourceGovernor::Limits limits = ResourceGovernor::Global().limits();
  std::lock_guard<std::mutex> lock(mu_);
  return ContinuousAnswerLocked(id, limits);
}

Result<QueryManager::AnswerSnapshot> QueryManager::SnapshotContinuousAnswer(
    QueryId id) {
  const ResourceGovernor::Limits limits = ResourceGovernor::Global().limits();
  std::lock_guard<std::mutex> lock(mu_);
  return SnapshotLocked(id, limits);
}

Result<QueryManager::AnswerSnapshot> QueryManager::SnapshotLocked(
    QueryId id, const ResourceGovernor::Limits& limits) {
  auto it = continuous_.find(id);
  if (it == continuous_.end()) {
    return Status::NotFound("continuous query " + std::to_string(id));
  }
  Continuous& cq = it->second;
  if (NeedsRefresh(cq, db_->Now())) {
    MOST_RETURN_IF_ERROR(Refresh(&cq, limits));
  }
  // Counted until the last copy is dropped: a refresh that finds the
  // count at 0 owns the relation again (HeldRelation).
  cq.answer->readers.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<const TemporalRelation> answer(
      &cq.answer->relation, [held = cq.answer](const TemporalRelation*) {
        held->readers.fetch_sub(1, std::memory_order_release);
      });
  return AnswerSnapshot{std::move(answer), cq.degrade, cq.evaluated_at};
}

QueryManager::ConfidenceColumns QueryManager::ResolveConfidenceColumns(
    const FtlQuery& query, const std::vector<std::string>& vars) const {
  // Resolved once per relation read; the per-row loop then only does
  // object lookups instead of rescanning query.from and the class
  // registry for every (row, column) pair.
  ConfidenceColumns cols;
  cols.columns.resize(vars.size());
  if (options_.staleness_horizon < 0) return cols;
  for (size_t i = 0; i < vars.size(); ++i) {
    for (const FromBinding& fb : query.from) {
      if (fb.var == vars[i]) {
        cols.columns[i].check = true;
        auto cls = db_->GetClass(fb.class_name);
        if (cls.ok()) cols.columns[i].cls = *cls;
        break;
      }
    }
  }
  return cols;
}

Confidence QueryManager::BindingConfidence(
    const ConfidenceColumns& cols, const std::vector<ObjectId>& binding,
    Tick now) const {
  if (options_.staleness_horizon < 0) return Confidence::kCertain;
  for (size_t i = 0; i < cols.columns.size() && i < binding.size(); ++i) {
    const ConfidenceColumns::Column& col = cols.columns[i];
    if (!col.check) continue;
    if (col.cls == nullptr) return Confidence::kStale;  // Class vanished.
    const MostObject* obj = col.cls->Find(binding[i]);
    // A deleted object is as silent as an object past the horizon.
    if (obj == nullptr) return Confidence::kStale;
    if (IsStale(*obj, now, options_.staleness_horizon)) {
      return Confidence::kStale;
    }
  }
  return Confidence::kCertain;
}

std::vector<AnswerTuple> QueryManager::FlattenAnswer(
    const FtlQuery& query, const TemporalRelation& relation,
    bool force_stale) const {
  Tick now = db_->Now();
  ConfidenceColumns cols = ResolveConfidenceColumns(query, relation.vars);
  std::vector<AnswerTuple> out;
  // Most rows hold one interval. Growing the vector instead would move
  // every tuple several times over.
  out.reserve(relation.rows.size());
  for (const auto& [binding, when] : relation.rows) {
    // Confidence is re-derived at read time, not cached at evaluation
    // time: objects drift into staleness as the clock advances with no
    // update (and pop back to certain on a fresh one) without any
    // re-evaluation.
    Confidence confidence = force_stale ? Confidence::kStale
                                        : BindingConfidence(cols, binding, now);
    for (const Interval& iv : when.intervals()) {
      out.push_back({binding, iv, confidence});
    }
  }
  return out;
}

std::vector<AnswerTuple> QueryManager::FlattenAnswer(
    const FtlQuery& query, std::span<const TemporalRelation* const> parts,
    bool force_stale) const {
  if (parts.size() == 1) return FlattenAnswer(query, *parts[0], force_stale);
  std::vector<AnswerTuple> out;
  if (parts.empty()) return out;
  Tick now = db_->Now();
  ConfidenceColumns cols = ResolveConfidenceColumns(query, parts[0]->vars);
  size_t rows = 0;
  for (const TemporalRelation* part : parts) rows += part->rows.size();
  out.reserve(rows);
  ForEachUnionRow(parts, [&](const std::vector<ObjectId>& binding,
                             const IntervalSet& when) {
    Confidence confidence = force_stale ? Confidence::kStale
                                        : BindingConfidence(cols, binding, now);
    for (const Interval& iv : when.intervals()) {
      out.push_back({binding, iv, confidence});
    }
  });
  return out;
}

void QueryManager::SetDomainPartition(
    std::shared_ptr<const std::set<ObjectId>> partition) {
  std::lock_guard<std::mutex> lock(mu_);
  options_.domain_partition = std::move(partition);
}

Result<std::vector<AnswerTuple>> QueryManager::ContinuousAnswerLocked(
    QueryId id, const ResourceGovernor::Limits& limits) {
  MOST_ASSIGN_OR_RETURN(AnswerSnapshot snapshot, SnapshotLocked(id, limits));
  // While degraded the materialized relation is the last completed
  // answer: the engine will not vouch for any of it, so every tuple is
  // demoted to the may-answer regardless of per-object staleness.
  return FlattenAnswer(continuous_.at(id).query, *snapshot.answer,
                       /*force_stale=*/snapshot.degrade != DegradeReason::kNone);
}

Result<std::vector<std::vector<ObjectId>>> QueryManager::CurrentAnswer(
    QueryId id) {
  const ResourceGovernor::Limits limits = ResourceGovernor::Global().limits();
  std::lock_guard<std::mutex> lock(mu_);
  MOST_ASSIGN_OR_RETURN(std::vector<AnswerTuple> tuples,
                        ContinuousAnswerLocked(id, limits));
  Tick now = db_->Now();
  std::vector<std::vector<ObjectId>> out;
  for (const AnswerTuple& t : tuples) {
    if (t.confidence != Confidence::kCertain) continue;  // Must answers only.
    if (t.interval.Contains(now)) out.push_back(t.binding);
  }
  return out;
}

Result<std::vector<std::vector<ObjectId>>> QueryManager::PossibleAnswer(
    QueryId id) {
  const ResourceGovernor::Limits limits = ResourceGovernor::Global().limits();
  std::lock_guard<std::mutex> lock(mu_);
  MOST_ASSIGN_OR_RETURN(std::vector<AnswerTuple> tuples,
                        ContinuousAnswerLocked(id, limits));
  Tick now = db_->Now();
  std::vector<std::vector<ObjectId>> out;
  for (const AnswerTuple& t : tuples) {
    if (t.interval.Contains(now)) out.push_back(t.binding);
  }
  return out;
}

const QueryManager* QueryManager::HistoryManager(QueryId id) const {
  auto it = persistent_.find(id);
  return it == persistent_.end() ? nullptr : it->second.manager.get();
}

Result<uint64_t> QueryManager::EvaluationCount(QueryId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (const QueryManager* history = HistoryManager(id)) {
    return history->EvaluationCount(id);
  }
  auto it = continuous_.find(id);
  if (it == continuous_.end()) {
    return Status::NotFound("continuous query " + std::to_string(id));
  }
  return it->second.evaluations;
}

Result<QueryManager::RefreshCounters> QueryManager::QueryRefreshCounters(
    QueryId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (const QueryManager* history = HistoryManager(id)) {
    return history->QueryRefreshCounters(id);
  }
  auto it = continuous_.find(id);
  if (it == continuous_.end()) {
    return Status::NotFound("continuous query " + std::to_string(id));
  }
  return RefreshCounters{it->second.delta_evaluations,
                         it->second.full_evaluations};
}

QueryManager::RefreshCounters QueryManager::TotalRefreshCounters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

Result<QueryManager::DegradeInfo> QueryManager::QueryDegradeInfo(
    QueryId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = continuous_.find(id);
  if (it == continuous_.end()) {
    return Status::NotFound("continuous query " + std::to_string(id));
  }
  const Continuous& cq = it->second;
  return DegradeInfo{cq.degrade, cq.degrade_detail, cq.degraded_at,
                     cq.shed_refreshes};
}

Result<std::string> QueryManager::Explain(QueryId id,
                                          bool include_timings) const {
  MOST_ASSIGN_OR_RETURN(std::shared_ptr<const obs::QueryProfile> profile,
                        Profile(id));
  return profile->Render(include_timings);
}

Result<std::shared_ptr<const obs::QueryProfile>> QueryManager::Profile(
    QueryId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (const QueryManager* history = HistoryManager(id)) {
    return history->Profile(id);
  }
  auto it = continuous_.find(id);
  if (it == continuous_.end()) {
    return Status::NotFound("continuous query " + std::to_string(id));
  }
  // Only a refresh that completes installs a profile, so a query whose
  // first refresh was shed has none yet.
  if (it->second.last_profile == nullptr) {
    return Status::NotFound("query " + std::to_string(id) +
                            " has no completed refresh");
  }
  return it->second.last_profile;
}

Status QueryManager::TickAll() {
  std::lock_guard<std::mutex> lock(mu_);
  Tick now = db_->Now();
  obs::TraceSpan span("qm/tick_all", "ftl");
  span.AnnotateU64("tick", static_cast<uint64_t>(now));
  if (options_.shard_id >= 0) {
    span.AnnotateU64("shard", static_cast<uint64_t>(options_.shard_id));
  }
  obs::TelemetryRecorder::Global().OnTick(now);
  // Read after OnTick, so a watchdog that arms on this tick already
  // governs it; one snapshot serves the whole batch.
  const ResourceGovernor::Limits limits = ResourceGovernor::Global().limits();
  std::vector<Continuous*> stale;
  for (auto& [id, cq] : continuous_) {
    // Slide before admission control and cooldowns: a refresh shed now
    // still runs over the window every other manager slid to this tick.
    SlideExpiredWindow(&cq, now);
    if (NeedsRefresh(cq, now)) stale.push_back(&cq);
  }
  // Admission control: with a bounded refresh queue, a batch larger than
  // the bound sheds its longest-stale entries (reason kQueue) — they keep
  // serving their answers as kStale and re-enter the queue next tick.
  // Longest-stale-first shedding keeps the bound from making *every*
  // answer a little stale: the freshest work completes, the oldest (whose
  // answers are already furthest behind) degrades explicitly.
  const size_t queue_limit = limits.refresh_queue_limit;
  if (queue_limit > 0 && stale.size() > queue_limit) {
    std::stable_sort(stale.begin(), stale.end(),
                     [](const Continuous* a, const Continuous* b) {
                       // -1 (stale without an update, e.g. an expired
                       // window) sorts oldest; ties break by id for
                       // determinism.
                       if (a->first_dirty_at != b->first_dirty_at) {
                         return a->first_dirty_at < b->first_dirty_at;
                       }
                       return a->id < b->id;
                     });
    const size_t shed_n = stale.size() - queue_limit;
    for (size_t i = 0; i < shed_n; ++i) {
      NoteShed(stale[i], DegradeReason::kQueue, now,
               "refresh queue over limit (" + std::to_string(stale.size()) +
                   " stale > " + std::to_string(queue_limit) + ")",
               "queue", 0);
    }
    stale.erase(stale.begin(), stale.begin() + shed_n);
  }
  // Every admitted entry is refreshed, even after an error, so one failing
  // query does not leave the rest of the batch stale.
  Status first_error = Status::OK();
  for (Continuous* cq : stale) {
    Status s = Refresh(cq, limits);
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  // The next tick changes the context key anyway (Now() is part of it), so
  // what the batch shared is freed now instead of staying resident until
  // the manager's next evaluation.
  context_.Release();
  return first_error;
}

Result<QueryManager::QueryId> QueryManager::RegisterTrigger(
    const FtlQuery& query, TriggerAction action) {
  const ResourceGovernor::Limits limits = ResourceGovernor::Global().limits();
  std::lock_guard<std::mutex> lock(mu_);
  MOST_ASSIGN_OR_RETURN(QueryId id, RegisterContinuousLocked(query, limits));
  continuous_.at(id).action = std::move(action);
  continuous_.at(id).last_polled = db_->Now() - 1;
  return id;
}

Status QueryManager::Poll() {
  // Collect pending firings under the lock, fire after releasing it: an
  // action may update the database (whose listener re-enters OnUpdate) or
  // register further queries, which must not happen while iterating.
  struct PendingFire {
    TriggerAction action;
    std::vector<ObjectId> binding;
    Tick at;
  };
  std::vector<PendingFire> pending;
  const ResourceGovernor::Limits limits = ResourceGovernor::Global().limits();
  // A failing refresh skips its trigger only: the firings collected for
  // the others are already recorded in their fired state, so dropping
  // them would lose them for good.
  Status first_error = Status::OK();
  {
    std::lock_guard<std::mutex> lock(mu_);
    Tick now = db_->Now();
    for (auto& [id, cq] : continuous_) {
      if (!cq.action) continue;
      if (NeedsRefresh(cq, now)) {
        Status s = Refresh(&cq, limits);
        if (!s.ok()) {
          if (first_error.ok()) first_error = s;
          continue;
        }
      }
      const TemporalRelation& answer = cq.answer->relation;
      for (const auto& [binding, when] : answer.rows) {
        for (const Interval& iv : when.intervals()) {
          if (iv.begin > now) break;  // Intervals sorted; nothing entered yet.
          if (iv.end < cq.last_polled + 1) continue;  // Fully in the past.
          Tick entered = std::max(iv.begin, cq.last_polled + 1);
          auto fired_it = cq.fired.find(binding);
          if (fired_it != cq.fired.end() && fired_it->second >= iv.begin) {
            continue;  // Already fired for this interval.
          }
          cq.fired[binding] = entered;
          pending.push_back({cq.action, binding, entered});
        }
      }
      cq.last_polled = now;
      // GC fired state the advancing clock has made unreachable. An entry
      // can only suppress a future fire for an interval containing a tick
      // >= now (everything earlier is skipped by the last_polled guard),
      // so entries whose binding left the answer (deleted / updated away)
      // or whose intervals all ended before now are dead weight — without
      // this the map grows with every binding the trigger ever fired on.
      for (auto fit = cq.fired.begin(); fit != cq.fired.end();) {
        auto row = answer.rows.find(fit->first);
        bool live = row != answer.rows.end() && !row->second.empty() &&
                    row->second.Max() >= now;
        fit = live ? std::next(fit) : cq.fired.erase(fit);
      }
    }
  }
  for (PendingFire& fire : pending) {
    fire.action(fire.binding, fire.at);
  }
  return first_error;
}

Result<size_t> QueryManager::TriggerFiredEntries(QueryId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = continuous_.find(id);
  if (it == continuous_.end()) {
    return Status::NotFound("continuous query " + std::to_string(id));
  }
  return it->second.fired.size();
}

Result<QueryManager::QueryId> QueryManager::RegisterPersistent(
    const FtlQuery& query) {
  const ResourceGovernor::Limits limits = HistoryLimits();
  std::lock_guard<std::mutex> lock(mu_);
  QueryId id = next_id_++;
  Persistent pq;
  pq.query = query;
  pq.anchored_at = db_->Now();
  pq.catalog_changes = db_->catalog_changes();
  pq.history = std::make_unique<MostDatabase>(pq.anchored_at);
  for (const auto& [name, polygon] : db_->regions()) {
    MOST_RETURN_IF_ERROR(pq.history->DefineRegion(name, polygon));
  }
  for (const FromBinding& fb : query.from) {
    MOST_ASSIGN_OR_RETURN(const ObjectClass* cls, db_->GetClass(fb.class_name));
    if (pq.history->HasClass(fb.class_name)) continue;
    // Re-declare the class (position attributes are added implicitly for
    // spatial classes, so filter them out of the explicit list).
    std::vector<AttributeDecl> decls;
    for (const AttributeDecl& d : cls->attributes()) {
      if (d.name == kAttrX || d.name == kAttrY) continue;
      decls.push_back(d);
    }
    MOST_RETURN_IF_ERROR(
        pq.history->CreateClass(fb.class_name, decls, cls->spatial())
            .status());
    for (const auto& [oid, obj] : cls->objects()) {
      MOST_RETURN_IF_ERROR(MirrorUpdate(&pq, *cls, oid, pq.anchored_at));
    }
  }
  pq.manager = std::make_unique<QueryManager>(
      pq.history.get(), Options{.horizon = options_.horizon});
  pq.manager->next_id_ = id;  // The registration answers to this id.
  {
    std::lock_guard<std::mutex> history_lock(pq.manager->mu_);
    MOST_RETURN_IF_ERROR(
        pq.manager->RegisterContinuousLocked(query, limits).status());
  }
  persistent_.emplace(id, std::move(pq));
  return id;
}

Status QueryManager::MirrorUpdate(Persistent* pq, const ObjectClass& cls,
                                  ObjectId id, Tick now) {
  MostDatabase& history = *pq->history;
  const std::string& name = cls.name();
  const Tick anchor = pq->anchored_at;
  const Tick end = TickSaturatingAdd(anchor, options_.horizon);
  const Tick from = std::max(now, anchor);  // Where the new state starts.
  MOST_ASSIGN_OR_RETURN(ObjectClass * mirrors, history.GetClass(name));
  MostObject* mirror = mirrors->Find(id);
  const MostObject* live = cls.Find(id);
  // Where the object's history starts: its creation tick, or the anchor.
  const auto born = pq->born.find({name, id});
  const Tick born_at = born != pq->born.end() ? born->second : anchor;
  // A further update in an object's creation tick restates the creation.
  const bool fresh = mirror == nullptr || (born_at == now && now > anchor);
  if (mirror != nullptr && (live == nullptr || fresh)) {
    MOST_RETURN_IF_ERROR(history.DeleteObject(name, id));
  }
  if (born != pq->born.end() && (live == nullptr || !fresh)) {
    pq->born.erase(born);
  }
  if (live == nullptr) return Status::OK();
  MostObject* target = nullptr;
  if (fresh) {
    MOST_ASSIGN_OR_RETURN(target, history.RestoreObject(name, id));
    if (now > anchor) pq->born[{name, id}] = now;
  } else {
    target = mirror;
  }
  // A fresh mirror is written in place (its RestoreObject moved the
  // version and notified); an update through the mutators, but for a
  // static's first history, which the UpdateStatic after it notifies.
  auto write = [&](const std::string& attr, DynamicAttribute a) -> Status {
    if (fresh || !target->HasDynamic(attr)) {
      target->SetDynamic(attr, std::move(a));
      return Status::OK();
    }
    return history.UpdateDynamic(name, id, attr, a.value(), a.function());
  };
  // A numeric static has a history (a dynamic of its name) once it is
  // numeric in the anchor tick; before that, and for an object created
  // after the anchor, its current value is what is evaluated.
  for (const auto& [attr, value] : live->statics()) {
    const DynamicAttribute* had = target->MutableDynamic(attr);
    if (value.is_numeric() && (had != nullptr || from == anchor)) {
      std::vector<Piece> pieces;
      if (had != nullptr) pieces = PiecesBefore(had->function(), from - anchor);
      pieces.push_back({from - anchor, 0.0, /*has_reset=*/true,
                        value.AsDouble().value()});
      MOST_RETURN_IF_ERROR(write(attr, Stitch(std::move(pieces), anchor)));
    }
    if (fresh) {
      target->SetStatic(attr, value);
    } else {
      MOST_RETURN_IF_ERROR(history.UpdateStatic(name, id, attr, value));
    }
  }
  // Dynamics: the history before `from`, then the new state to the
  // window's end. An object created past that end is kept as created
  // until a later update cuts that state there.
  for (const auto& [attr, dyn] : live->dynamics()) {
    const DynamicAttribute& had = *target->MutableDynamic(attr);
    std::vector<Piece> pieces;
    if (!fresh && born_at > end) {
      AppendPieces(had, born_at, now - 1, anchor, &pieces);
    } else if (!fresh) {
      pieces = PiecesBefore(had.function(), from - anchor);
    }
    AppendPieces(dyn, from, end, anchor, &pieces);
    MOST_RETURN_IF_ERROR(
        write(attr, pieces.empty() ? dyn : Stitch(std::move(pieces), anchor)));
  }
  return Status::OK();
}

Result<std::vector<AnswerTuple>> QueryManager::PersistentAnswer(QueryId id) {
  const ResourceGovernor::Limits limits = HistoryLimits();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = persistent_.find(id);
  if (it == persistent_.end()) {
    return Status::NotFound("persistent query " + std::to_string(id));
  }
  Persistent& pq = it->second;
  MOST_RETURN_IF_ERROR(pq.broken);
  if (pq.catalog_changes != db_->catalog_changes()) {
    // A region may have been redefined. Defining every live region again
    // is a catalog change of the history, which its manager answers with
    // a full refresh.
    for (const auto& [name, polygon] : db_->regions()) {
      MOST_RETURN_IF_ERROR(pq.history->DefineRegion(name, polygon));
    }
    pq.catalog_changes = db_->catalog_changes();
  }
  QueryManager& manager = *pq.manager;
  AnswerSnapshot snapshot;
  {
    std::lock_guard<std::mutex> history_lock(manager.mu_);
    MOST_ASSIGN_OR_RETURN(snapshot, manager.SnapshotLocked(id, limits));
  }
  // As at the end of TickAll: the history's version moves with the next
  // update, so what this read shared is freed now.
  manager.context_.Release();
  // Staleness is judged against the live database, not the history: a
  // silent object casts doubt on answers derived from its recorded (and
  // extrapolated) timeline too.
  return FlattenAnswer(pq.query, *snapshot.answer,
                       /*force_stale=*/snapshot.degrade != DegradeReason::kNone);
}

}  // namespace most
