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

FtlEvaluator::Options QueryManager::EvalOptions(const Budget& budget) const {
  FtlEvaluator::Options o;
  o.motion_indexes = options_.motion_indexes;
  o.budget = budget;
  return o;
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
  // Persistent queries record the updated objects' attribute states.
  for (auto& [qid, pq] : persistent_) {
    bool relevant = false;
    for (const FromBinding& fb : pq.query.from) {
      if (fb.class_name == class_name) relevant = true;
    }
    if (!relevant) continue;
    auto cls = db_->GetClass(class_name);
    if (!cls.ok()) continue;
    for (ObjectId id : ids) {
      auto obj = (*cls)->Get(id);
      if (!obj.ok()) continue;  // Deleted object: stop recording it.
      for (const auto& [attr, dyn] : (*obj)->dynamics()) {
        pq.recordings[{class_name, id, attr}].timeline.emplace_back(now, dyn);
      }
      for (const auto& [attr, val] : (*obj)->statics()) {
        if (!val.is_numeric()) continue;
        pq.recordings[{class_name, id, attr}].timeline.emplace_back(
            now,
            DynamicAttribute(val.AsDouble().value(), now, TimeFunction()));
      }
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
  FtlEvaluator::Options opts =
      EvalOptions(ResourceGovernor::Global().limits().refresh_budget);
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
  return cq.dirty || !cq.dirty_objects.empty() || now > cq.expires_at;
}

void QueryManager::SlideExpiredWindow(Continuous* cq, Tick now) const {
  if (now <= cq->expires_at) return;
  cq->window_begin = now;
  cq->expires_at = TickSaturatingAdd(now, options_.horizon);
  cq->dirty = true;  // The materialized rows belong to the old window.
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
  } else if (cq->dirty) {
    full_reason = "forced";
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
      Status delta = RefreshDelta(cq, limits.refresh_budget);
      if (delta.ok()) return delta;
      // Delta failed (e.g. an injected fault): the relation may be
      // half-spliced, so fall through to a full re-evaluation.
      full_reason = "delta_error";
    } else {
      full_reason = "dirty_fraction";
    }
  }
  return RefreshFull(cq, full_reason, limits.refresh_budget);
}

Status QueryManager::RefreshFull(Continuous* cq, const char* reason,
                                 const Budget& budget) {
  obs::TraceSpan span("qm/refresh_full", "ftl");
  Tick now = db_->Now();
  span.AnnotateU64("query_id", cq->id);
  span.AnnotateU64("tick", static_cast<uint64_t>(now));
  span.Annotate("reason", reason);
  if (options_.shard_id >= 0) {
    span.AnnotateU64("shard", static_cast<uint64_t>(options_.shard_id));
  }
  auto profile = std::make_shared<obs::QueryProfile>();
  profile->query = cq->query.ToString();
  profile->window = RenderWindow(cq->window_begin, cq->expires_at);
  profile->path = "full";
  profile->reason = reason;
  profile->refresh_seq = cq->evaluations + 1;
  profile->dirty_objects = DirtyTotal(cq->dirty_objects);
  profile->root.label = "EvaluateQuery";
  FtlEvaluator::Options opts = EvalOptions(budget);
  ApplyPartition(&opts, cq->query);
  opts.profile = &profile->root;
  const uint64_t t0 = obs::MonotonicNowNs();
  FtlEvaluator eval(*db_, opts, &context_);
  Result<TemporalRelation> evaluated = eval.EvaluateQueryUnprojected(
      cq->query, Interval(cq->window_begin, cq->expires_at));
  const uint64_t dur_ns = obs::MonotonicNowNs() - t0;
  if (!evaluated.ok()) {
    if (evaluated.status().code() != StatusCode::kResourceExhausted) {
      return evaluated.status();
    }
    // Budget exhausted mid-evaluation. The half-built relation was
    // discarded (truncating it would be unsound under negation —
    // docs/robustness.md); keep the previous materialized answer, serve
    // it as kStale, and leave dirty state in place so a post-cooldown
    // refresh recovers.
    NoteShed(cq, eval.degrade_reason(), now, evaluated.status().message(),
             "full", dur_ns);
    return Status::OK();
  }
  cq->full = std::move(*evaluated);
  profile->arena_bytes = eval.stats().arena_bytes;
  profile->arena_heap_fallbacks = eval.stats().arena_heap_fallbacks;
  cq->answer = std::make_shared<const TemporalRelation>(
      cq->full.Project(cq->query.retrieve));
  cq->evaluated_at = now;
  cq->dirty = false;
  cq->dirty_objects.clear();
  cq->degrade = DegradeReason::kNone;
  cq->degrade_detail.clear();
  cq->first_dirty_at = -1;
  ++cq->evaluations;
  ++cq->full_evaluations;
  ++totals_.full_evaluations;
  profile->total_ns = dur_ns;
  cq->last_profile = std::move(profile);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  if (registry.enabled()) {
    const QmRegistrySeries& series = QmRegistrySeries::Get();
    series.full_refreshes->Inc();
    series.full_latency->Observe(static_cast<double>(dur_ns) * 1e-9);
    CountFullRefreshReason(reason);
  }
  obs::SlowQueryLog& slow_log = obs::SlowQueryLog::Global();
  if (slow_log.enabled()) {
    obs::SlowQueryLog::Entry entry;
    entry.query_id = cq->id;
    entry.query = cq->query.ToString();
    entry.path = "full";
    entry.duration_ns = dur_ns;
    entry.refresh_seq = cq->evaluations;
    entry.shard_id = options_.shard_id;
    entry.trace_id = span.context().trace_id;
    slow_log.MaybeRecord(std::move(entry));
  }
  return Status::OK();
}

Status QueryManager::RefreshDelta(Continuous* cq, const Budget& budget) {
  MOST_FAILPOINT("ftl/delta/refresh");
  obs::TraceSpan span("qm/refresh_delta", "ftl");
  Tick now = db_->Now();
  span.AnnotateU64("query_id", cq->id);
  span.AnnotateU64("tick", static_cast<uint64_t>(now));
  if (options_.shard_id >= 0) {
    span.AnnotateU64("shard", static_cast<uint64_t>(options_.shard_id));
  }
  Interval window(cq->window_begin, cq->expires_at);
  const size_t dirty_total = DirtyTotal(cq->dirty_objects);
  auto profile = std::make_shared<obs::QueryProfile>();
  profile->query = cq->query.ToString();
  profile->window = RenderWindow(cq->window_begin, cq->expires_at);
  profile->path = "delta";
  profile->reason = "coalesced updates";
  profile->refresh_seq = cq->evaluations + 1;
  profile->dirty_objects = dirty_total;
  profile->root.label = "DeltaRefresh";
  const uint64_t t0 = obs::MonotonicNowNs();
  const std::vector<std::string>& vars = cq->full.vars;
  // Dirty ids per relation column (null = column's class saw no update).
  std::vector<const std::set<ObjectId>*> col_dirty(vars.size(), nullptr);
  for (size_t i = 0; i < vars.size(); ++i) {
    for (const FromBinding& fb : cq->query.from) {
      if (fb.var == vars[i]) {
        auto it = cq->dirty_objects.find(fb.class_name);
        if (it != cq->dirty_objects.end()) col_dirty[i] = &it->second;
        break;
      }
    }
  }
  // 1. Evict every row binding a dirty object: those are exactly the rows
  //    an update can have changed (the relation is pointwise in its
  //    bindings), including rows of deleted objects, which the restricted
  //    passes will simply not re-derive.
  for (auto it = cq->full.rows.begin(); it != cq->full.rows.end();) {
    bool evict = false;
    for (size_t i = 0; i < vars.size() && !evict; ++i) {
      evict = col_dirty[i] != nullptr && col_dirty[i]->count(it->first[i]) > 0;
    }
    it = evict ? cq->full.rows.erase(it) : std::next(it);
  }
  // 2. One restricted pass per dirty column: variable i pinned to the
  //    dirty ids, every other domain unrestricted. A row binding dirty
  //    objects in several columns is re-derived by each of their passes
  //    with identical tick sets, so the splice dedupes by binding. A
  //    partitioned manager additionally pins the first FROM variable to
  //    the owned partition in every pass (and intersects the pass's dirty
  //    set with it when the dirty column *is* the partitioned variable),
  //    so the passes re-derive exactly the evicted rows of the
  //    partition-filtered relation (docs/sharding.md).
  const std::string* part_var =
      (options_.domain_partition != nullptr && !cq->query.from.empty())
          ? &cq->query.from.front().var
          : nullptr;
  for (size_t i = 0; i < vars.size(); ++i) {
    if (col_dirty[i] == nullptr) continue;
    FtlEvaluator::Options opts = EvalOptions(budget);
    ApplyPartition(&opts, cq->query);
    if (part_var != nullptr && vars[i] == *part_var) {
      auto owned_dirty = std::make_shared<std::set<ObjectId>>();
      for (ObjectId id : *col_dirty[i]) {
        if (options_.domain_partition->count(id) > 0) {
          owned_dirty->insert(id);
        }
      }
      // All dirty ids of this column are foreign: no owned row was
      // evicted by this column, nothing to re-derive for it.
      if (owned_dirty->empty()) continue;
      opts.domain_restrictions[vars[i]] = std::move(owned_dirty);
    } else {
      opts.domain_restrictions[vars[i]] =
          std::make_shared<const std::set<ObjectId>>(*col_dirty[i]);
    }
    opts.profile = profile->root.AddChild(
        "RestrictedPass " + vars[i] + " (" +
        std::to_string(col_dirty[i]->size()) + " dirty)");
    FtlEvaluator eval(*db_, opts, &context_);
    Result<TemporalRelation> part =
        eval.EvaluateQueryUnprojected(cq->query, window);
    if (!part.ok()) {
      if (part.status().code() != StatusCode::kResourceExhausted) {
        return part.status();
      }
      // Budget exhausted mid-delta. Every surviving row is exactly
      // correct (eviction plus completed splices never fabricate rows),
      // so the relation is a sound subset of the true answer: serve it
      // as kStale. dirty_objects stays populated, so a post-cooldown
      // refresh re-derives the missing rows.
      cq->answer = std::make_shared<const TemporalRelation>(
          cq->full.Project(cq->query.retrieve));
      NoteShed(cq, eval.degrade_reason(), now, part.status().message(),
               "delta", obs::MonotonicNowNs() - t0);
      return Status::OK();
    }
    profile->arena_bytes += eval.stats().arena_bytes;
    profile->arena_heap_fallbacks += eval.stats().arena_heap_fallbacks;
    for (auto& [binding, when] : part->rows) {
      cq->full.rows.emplace(binding, std::move(when));
    }
  }
  cq->answer = std::make_shared<const TemporalRelation>(
      cq->full.Project(cq->query.retrieve));
  const uint64_t dur_ns = obs::MonotonicNowNs() - t0;
  cq->evaluated_at = now;
  cq->dirty_objects.clear();
  cq->degrade = DegradeReason::kNone;
  cq->degrade_detail.clear();
  cq->first_dirty_at = -1;
  ++cq->evaluations;
  ++cq->delta_evaluations;
  ++totals_.delta_evaluations;
  profile->total_ns = dur_ns;
  profile->root.duration_ns = dur_ns;
  profile->root.tuples = cq->full.rows.size();
  cq->last_profile = std::move(profile);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  if (registry.enabled()) {
    const QmRegistrySeries& series = QmRegistrySeries::Get();
    series.delta_refreshes->Inc();
    series.delta_latency->Observe(static_cast<double>(dur_ns) * 1e-9);
    series.dirty_set_size->Observe(static_cast<double>(dirty_total));
  }
  obs::SlowQueryLog& slow_log = obs::SlowQueryLog::Global();
  if (slow_log.enabled()) {
    obs::SlowQueryLog::Entry entry;
    entry.query_id = cq->id;
    entry.query = cq->query.ToString();
    entry.path = "delta";
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
  auto it = continuous_.find(id);
  if (it == continuous_.end()) {
    return Status::NotFound("continuous query " + std::to_string(id));
  }
  Continuous& cq = it->second;
  if (NeedsRefresh(cq, db_->Now())) {
    MOST_RETURN_IF_ERROR(Refresh(&cq, limits));
  }
  return AnswerSnapshot{cq.answer, cq.degrade, cq.evaluated_at};
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
    auto obj = col.cls->Get(binding[i]);
    // A deleted object is as silent as an object past the horizon.
    if (!obj.ok()) return Confidence::kStale;
    if (IsStale(**obj, now, options_.staleness_horizon)) {
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

void QueryManager::SetDomainPartition(
    std::shared_ptr<const std::set<ObjectId>> partition) {
  std::lock_guard<std::mutex> lock(mu_);
  options_.domain_partition = std::move(partition);
}

Result<std::vector<AnswerTuple>> QueryManager::ContinuousAnswerLocked(
    QueryId id, const ResourceGovernor::Limits& limits) {
  auto it = continuous_.find(id);
  if (it == continuous_.end()) {
    return Status::NotFound("continuous query " + std::to_string(id));
  }
  Continuous& cq = it->second;
  if (NeedsRefresh(cq, db_->Now())) {
    MOST_RETURN_IF_ERROR(Refresh(&cq, limits));
  }
  // While degraded the materialized relation is a previous or partial
  // answer: the engine will not vouch for any of it, so every tuple is
  // demoted to the may-answer regardless of per-object staleness.
  return FlattenAnswer(cq.query, *cq.answer,
                       /*force_stale=*/cq.degrade != DegradeReason::kNone);
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

Result<uint64_t> QueryManager::EvaluationCount(QueryId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = continuous_.find(id);
  if (it == continuous_.end()) {
    return Status::NotFound("continuous query " + std::to_string(id));
  }
  return it->second.evaluations;
}

Result<QueryManager::RefreshCounters> QueryManager::QueryRefreshCounters(
    QueryId id) const {
  std::lock_guard<std::mutex> lock(mu_);
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
                       // -1 (expired window / forced) sorts oldest; ties
                       // break by id for determinism.
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
  {
    std::lock_guard<std::mutex> lock(mu_);
    Tick now = db_->Now();
    for (auto& [id, cq] : continuous_) {
      if (!cq.action) continue;
      if (NeedsRefresh(cq, now)) {
        MOST_RETURN_IF_ERROR(Refresh(&cq, limits));
      }
      for (const auto& [binding, when] : cq.answer->rows) {
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
        auto row = cq.answer->rows.find(fit->first);
        bool live = row != cq.answer->rows.end() && !row->second.empty() &&
                    row->second.Max() >= now;
        fit = live ? std::next(fit) : cq.fired.erase(fit);
      }
    }
  }
  for (PendingFire& fire : pending) {
    fire.action(fire.binding, fire.at);
  }
  return Status::OK();
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
  std::lock_guard<std::mutex> lock(mu_);
  QueryId id = next_id_++;
  Persistent pq;
  pq.query = query;
  pq.anchored_at = db_->Now();
  // Initial snapshot of every object of the referenced classes.
  for (const FromBinding& fb : query.from) {
    MOST_ASSIGN_OR_RETURN(const ObjectClass* cls, db_->GetClass(fb.class_name));
    for (const auto& [oid, obj] : cls->objects()) {
      for (const auto& [attr, dyn] : obj.dynamics()) {
        pq.recordings[{fb.class_name, oid, attr}].timeline.emplace_back(
            pq.anchored_at, dyn);
      }
      for (const auto& [attr, val] : obj.statics()) {
        if (!val.is_numeric()) continue;
        pq.recordings[{fb.class_name, oid, attr}].timeline.emplace_back(
            pq.anchored_at,
            DynamicAttribute(val.AsDouble().value(), pq.anchored_at,
                             TimeFunction()));
      }
    }
  }
  persistent_.emplace(id, std::move(pq));
  return id;
}

Result<std::unique_ptr<MostDatabase>> QueryManager::BuildHistoryDatabase(
    const Persistent& pq) const {
  auto shadow = std::make_unique<MostDatabase>(pq.anchored_at);
  for (const auto& [name, polygon] : db_->regions()) {
    MOST_RETURN_IF_ERROR(shadow->DefineRegion(name, polygon));
  }
  Tick history_end =
      TickSaturatingAdd(pq.anchored_at, options_.horizon);

  for (const FromBinding& fb : pq.query.from) {
    if (shadow->HasClass(fb.class_name)) continue;
    MOST_ASSIGN_OR_RETURN(const ObjectClass* cls, db_->GetClass(fb.class_name));
    // Re-declare the class (position attributes are added implicitly for
    // spatial classes, so filter them out of the explicit list).
    std::vector<AttributeDecl> decls;
    for (const AttributeDecl& d : cls->attributes()) {
      if (d.name == kAttrX || d.name == kAttrY) continue;
      decls.push_back(d);
    }
    MOST_RETURN_IF_ERROR(
        shadow->CreateClass(fb.class_name, decls, cls->spatial()).status());

    for (const auto& [oid, obj] : cls->objects()) {
      MOST_ASSIGN_OR_RETURN(MostObject * mirror,
                            shadow->RestoreObject(fb.class_name, oid));
      // Non-numeric statics keep their current value (static history is
      // recorded only for numeric attributes).
      for (const auto& [attr, val] : obj.statics()) {
        mirror->SetStatic(attr, val);
      }
      // Dynamic (and recorded numeric static) attributes: stitch the
      // recorded timeline into one piecewise function with resets.
      for (const auto& [attr, dyn] : obj.dynamics()) {
        auto rec = pq.recordings.find({fb.class_name, oid, attr});
        if (rec == pq.recordings.end()) {
          mirror->SetDynamic(attr, dyn);  // Created after anchoring.
          continue;
        }
        const auto& timeline = rec->second.timeline;
        std::vector<TimeFunction::Piece> pieces;
        for (size_t i = 0; i < timeline.size(); ++i) {
          Tick seg_begin = std::max(timeline[i].first, pq.anchored_at);
          Tick seg_end = (i + 1 < timeline.size())
                             ? timeline[i + 1].first - 1
                             : history_end;
          if (seg_begin > seg_end) continue;
          for (const auto& lp :
               timeline[i].second.LinearPieces(Interval(seg_begin, seg_end))) {
            TimeFunction::Piece piece;
            piece.start = lp.ticks.begin - pq.anchored_at;
            piece.slope = lp.slope;
            piece.has_reset = true;
            piece.reset_value = lp.value_at_begin;
            pieces.push_back(piece);
          }
        }
        if (pieces.empty() || pieces.front().start != 0) {
          // Extend the first record backwards to the anchor.
          if (!pieces.empty()) {
            TimeFunction::Piece lead = pieces.front();
            double backstep =
                static_cast<double>(pieces.front().start) * lead.slope;
            lead.start = 0;
            lead.reset_value -= backstep;
            pieces.insert(pieces.begin(), lead);
          }
        }
        if (pieces.empty()) {
          mirror->SetDynamic(attr, dyn);
          continue;
        }
        MOST_ASSIGN_OR_RETURN(TimeFunction stitched,
                              TimeFunction::Piecewise(std::move(pieces)));
        mirror->SetDynamic(
            attr, DynamicAttribute(0.0, pq.anchored_at, std::move(stitched)));
      }
      // Recorded numeric statics become constant-piecewise dynamics so the
      // evaluated history sees their changes over time.
      for (const auto& [attr, val] : obj.statics()) {
        auto rec = pq.recordings.find({fb.class_name, oid, attr});
        if (rec == pq.recordings.end()) continue;
        const auto& timeline = rec->second.timeline;
        std::vector<TimeFunction::Piece> pieces;
        for (size_t i = 0; i < timeline.size(); ++i) {
          TimeFunction::Piece piece;
          piece.start =
              std::max(timeline[i].first, pq.anchored_at) - pq.anchored_at;
          piece.slope = 0.0;
          piece.has_reset = true;
          piece.reset_value = timeline[i].second.value();
          if (!pieces.empty() && pieces.back().start == piece.start) {
            pieces.back() = piece;
          } else {
            pieces.push_back(piece);
          }
        }
        if (!pieces.empty() && pieces.front().start == 0) {
          MOST_ASSIGN_OR_RETURN(TimeFunction stitched,
                                TimeFunction::Piecewise(std::move(pieces)));
          mirror->SetDynamic(attr, DynamicAttribute(0.0, pq.anchored_at,
                                                    std::move(stitched)));
        }
      }
    }
  }
  return shadow;
}

Result<std::vector<AnswerTuple>> QueryManager::PersistentAnswer(QueryId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = persistent_.find(id);
  if (it == persistent_.end()) {
    return Status::NotFound("persistent query " + std::to_string(id));
  }
  const Persistent& pq = it->second;
  MOST_ASSIGN_OR_RETURN(std::unique_ptr<MostDatabase> shadow,
                        BuildHistoryDatabase(pq));
  // The shadow is a different database: its evaluator has a private
  // context, never this manager's.
  FtlEvaluator eval(*shadow);
  MOST_ASSIGN_OR_RETURN(
      TemporalRelation rel,
      eval.EvaluateQuery(pq.query,
                         Interval(pq.anchored_at,
                                  TickSaturatingAdd(pq.anchored_at,
                                                    options_.horizon))));
  Tick now = db_->Now();
  // Staleness is judged against the live database, not the shadow
  // history: a silent object casts doubt on answers derived from its
  // recorded (and extrapolated) timeline too.
  ConfidenceColumns cols = ResolveConfidenceColumns(pq.query, rel.vars);
  std::vector<AnswerTuple> out;
  for (const auto& [binding, when] : rel.rows) {
    Confidence confidence = BindingConfidence(cols, binding, now);
    for (const Interval& iv : when.intervals()) {
      out.push_back({binding, iv, confidence});
    }
  }
  return out;
}

}  // namespace most
