#include "core/sharded_engine.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>
#include <utility>

#include "core/most_on_dbms.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace most {

namespace {

constexpr const char* kTagMotion = kWalMotionTag;
constexpr char kTagDynamic[] = "D";
constexpr char kTagStatic[] = "S";
constexpr char kTagCreate[] = "C";
constexpr char kTagDelete[] = "X";

uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

ShardedEngine::ShardedEngine(MostDatabase* db, Options options)
    : db_(db),
      options_(std::move(options)),
      router_(options_.shard_count != 0
                  ? options_.shard_count
                  : std::max<size_t>(1, std::thread::hardware_concurrency())) {
  if (router_.shard_count() > 1) {
    pool_ = std::make_unique<ThreadPool>(router_.shard_count());
  }
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  gather_merges_total_ =
      reg.GetCounter("most_shard_gather_merges_total",
                     "Scatter-gather continuous-answer merges performed");
  degraded_gathers_total_ = reg.GetCounter(
      "most_shard_degraded_gathers_total",
      "Gathers that returned an incomplete (kStale) answer because at "
      "least one shard was degraded");
  build_status_ = BuildShards();
}

ShardedEngine::~ShardedEngine() = default;

Status ShardedEngine::BuildShards() {
  const size_t n = router_.shard_count();
  // Partition the current object domain by stable hash. Ids are unique
  // across classes (the database hands them out from one counter), so a
  // flat per-shard set covers every class.
  std::vector<std::set<ObjectId>> owned(n);
  for (const auto& [class_name, cls] : db_->classes()) {
    for (const auto& [id, obj] : cls.objects()) {
      owned[router_.ShardOf(id)].insert(id);
    }
  }
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  if (!options_.wal_dir.empty()) {
    // A failure here shows up as the shard WALs' open errors.
    std::error_code ec;
    std::filesystem::create_directories(options_.wal_dir, ec);
  }
  shards_.clear();
  shards_.reserve(n);
  Status first_error = Status::OK();
  for (size_t k = 0; k < n; ++k) {
    auto shard = std::make_unique<Shard>();
    shard->partition =
        std::make_shared<const std::set<ObjectId>>(std::move(owned[k]));
    QueryManager::Options qm_opts = options_.query_options;
    qm_opts.listen = false;  // Fed by NoteUpdates batches in phase 2.
    qm_opts.domain_partition = shard->partition;
    qm_opts.shard_id = static_cast<int64_t>(k);
    shard->qm = std::make_unique<QueryManager>(db_, qm_opts);
    if (!options_.wal_dir.empty()) {
      Status s = shard->wal.Open(options_.wal_dir, k);
      if (!s.ok() && first_error.ok()) first_error = s;
    }
    const obs::Labels labels{{"shard", std::to_string(k)}};
    shard->routed_total =
        reg.GetCounter("most_shard_updates_routed_total",
                       "Updates enqueued to a shard's handoff queue", labels);
    shard->applied_total =
        reg.GetCounter("most_shard_updates_applied_total",
                       "Updates a shard's drain applied to the database",
                       labels);
    shard->dropped_total = reg.GetCounter(
        "most_shard_updates_dropped_total",
        "Drained updates whose object had vanished (not an error)", labels);
    shard->queue_depth =
        reg.GetGauge("most_shard_queue_depth",
                     "Approximate pending updates in a shard's handoff queue",
                     labels);
    shard->refresh_latency = reg.GetHistogram(
        "most_shard_refresh_latency_seconds",
        "Per-shard wall time of one drain-and-refresh round's refresh phase",
        obs::ExponentialBuckets(1e-6, 4.0, 12), labels);
    shards_.push_back(std::move(shard));
  }
  return first_error;
}

Result<MostObject*> ShardedEngine::CreateObject(const std::string& class_name) {
  MOST_ASSIGN_OR_RETURN(MostObject * obj, db_->CreateObject(class_name));
  ReassignAfterStructuralChange(class_name, obj->id());
  Shard& s = *shards_[router_.ShardOf(obj->id())];
  if (s.wal.is_open()) {
    WalRecord rec;
    rec.kind = WalRecord::Kind::kUpdate;
    rec.table = class_name;
    rec.rid = obj->id();
    rec.row = {Value(kTagCreate), Value(static_cast<int64_t>(db_->Now()))};
    MOST_RETURN_IF_ERROR(s.wal.Append(rec));
  }
  return obj;
}

Status ShardedEngine::DeleteObject(const std::string& class_name,
                                   ObjectId id) {
  MOST_RETURN_IF_ERROR(db_->DeleteObject(class_name, id));
  ReassignAfterStructuralChange(class_name, id);
  Shard& s = *shards_[router_.ShardOf(id)];
  if (s.wal.is_open()) {
    WalRecord rec;
    rec.kind = WalRecord::Kind::kUpdate;
    rec.table = class_name;
    rec.rid = id;
    rec.row = {Value(kTagDelete), Value(static_cast<int64_t>(db_->Now()))};
    MOST_RETURN_IF_ERROR(s.wal.Append(rec));
  }
  return Status::OK();
}

void ShardedEngine::ReassignAfterStructuralChange(const std::string& class_name,
                                                  ObjectId id) {
  Shard& owner = *shards_[router_.ShardOf(id)];
  bool exists = false;
  auto cls = db_->GetClass(class_name);
  if (cls.ok()) exists = (*cls)->Find(id) != nullptr;
  auto next = std::make_shared<std::set<ObjectId>>(*owner.partition);
  if (exists) {
    next->insert(id);
  } else {
    next->erase(id);
  }
  owner.partition = next;
  owner.qm->SetDomainPartition(next);
  // Dirty the id everywhere: the owner's queries (single-variable ones
  // included) gained or lost its rows, and any shard's multi-variable
  // query can bind it in a non-first column; the delta path evicts or
  // re-derives its rows.
  const std::vector<ObjectId> ids{id};
  for (auto& shard : shards_) {
    shard->qm->NoteUpdates(class_name, ids,
                           shard.get() == &owner
                               ? QueryManager::Ownership::kOwned
                               : QueryManager::Ownership::kForeign);
  }
}

Status ShardedEngine::RegisterInShards(EngineQuery* eq) {
  const size_t n = shards_.size();
  eq->shard_ids.assign(n, 0);
  std::vector<Status> sts(n, Status::OK());
  // Registration runs the initial (partition-restricted) evaluation per
  // shard; the database is read-only here, so shards evaluate in
  // parallel.
  ParallelFor(pool_.get(), n, [&](size_t k) {
    Result<QueryManager::QueryId> r =
        shards_[k]->qm->RegisterContinuous(eq->query);
    if (r.ok()) {
      eq->shard_ids[k] = *r;
    } else {
      sts[k] = r.status();
    }
  });
  for (size_t k = 0; k < n; ++k) {
    if (!sts[k].ok()) {
      // All or nothing: a shard that did register must not keep an
      // orphan the engine no longer tracks.
      for (size_t j = 0; j < n; ++j) {
        if (sts[j].ok()) (void)shards_[j]->qm->Cancel(eq->shard_ids[j]);
      }
      return sts[k];
    }
  }
  return Status::OK();
}

Result<ShardedEngine::QueryId> ShardedEngine::RegisterContinuous(
    const FtlQuery& query) {
  EngineQuery eq;
  eq.query = query;
  MOST_RETURN_IF_ERROR(RegisterInShards(&eq));
  QueryId id = next_query_id_++;
  queries_.emplace(id, std::move(eq));
  return id;
}

Status ShardedEngine::Cancel(QueryId id) {
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound("sharded query " + std::to_string(id));
  }
  Status first_error = Status::OK();
  for (size_t k = 0; k < shards_.size(); ++k) {
    Status s = shards_[k]->qm->Cancel(it->second.shard_ids[k]);
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  queries_.erase(it);
  return first_error;
}

Status ShardedEngine::Reshard(size_t new_shard_count) {
  if (new_shard_count == 0) {
    return Status::InvalidArgument("shard count must be positive");
  }
  // Flush every pending enqueued update into the database first; queued
  // ops must not be lost when their home queue is destroyed. A failed WAL
  // open fails every drain until a rebuild, so it must not stop this one.
  Status drained = DrainAndRefresh();
  if (!drained.ok() && build_status_.ok()) return drained;
  std::map<QueryId, EngineQuery> live = std::move(queries_);
  queries_.clear();
  shards_.clear();  // Closes WALs.
  router_ = ShardRouter(new_shard_count);
  pool_ = new_shard_count > 1 ? std::make_unique<ThreadPool>(new_shard_count)
                              : nullptr;
  build_status_ = BuildShards();
  // Re-register every live query under its old engine id. Windows
  // re-anchor at the current tick (docs/sharding.md): post-reshard
  // answers equal a fresh oracle registered now. A query that fails to
  // re-register is dropped (its partial registrations cancelled); the
  // rest still re-register, and the first failure names its query.
  Status first_error = build_status_;
  for (auto& [id, eq] : live) {
    Status s = RegisterInShards(&eq);
    if (s.ok()) {
      queries_.emplace(id, std::move(eq));
    } else if (first_error.ok()) {
      first_error = Status(s.code(), "re-registering sharded query " +
                                         std::to_string(id) + ": " +
                                         s.message());
    }
  }
  return first_error;
}

void ShardedEngine::Route(UpdateOp op) {
  Shard& s = *shards_[router_.ShardOf(op.id)];
  s.queue.Push(std::move(op));
  if (obs::MetricsRegistry::Global().enabled()) s.routed_total->Inc();
}

ObjectClass* ShardedEngine::ClassOf(const std::string& class_name) const {
  Result<ObjectClass*> cls = db_->GetClass(class_name);
  return cls.ok() ? *cls : nullptr;
}

void ShardedEngine::EnqueueMotion(const std::string& class_name, ObjectId id,
                                  Point2 position, Vec2 velocity) {
  UpdateOp op;
  op.kind = UpdateOp::Kind::kMotion;
  op.cls = ClassOf(class_name);
  op.id = id;
  op.position = position;
  op.velocity = velocity;
  Route(std::move(op));
}

void ShardedEngine::EnqueueDynamic(const std::string& class_name, ObjectId id,
                                   const std::string& attr, double value,
                                   TimeFunction function) {
  UpdateOp op;
  op.kind = UpdateOp::Kind::kDynamic;
  op.cls = ClassOf(class_name);
  op.id = id;
  op.slow = std::make_unique<UpdateOp::Slow>();
  op.slow->attr = attr;
  op.slow->value = value;
  op.slow->function = std::move(function);
  Route(std::move(op));
}

void ShardedEngine::EnqueueStatic(const std::string& class_name, ObjectId id,
                                  const std::string& attr, Value value) {
  UpdateOp op;
  op.kind = UpdateOp::Kind::kStatic;
  op.cls = ClassOf(class_name);
  op.id = id;
  op.slow = std::make_unique<UpdateOp::Slow>();
  op.slow->attr = attr;
  op.slow->static_value = std::move(value);
  Route(std::move(op));
}

Status ShardedEngine::ApplyOp(const UpdateOp& op) {
  if (op.cls == nullptr) return Status::NotFound("object class");
  switch (op.kind) {
    case UpdateOp::Kind::kMotion:
      return db_->SetMotion(op.cls, op.id, op.position, op.velocity);
    case UpdateOp::Kind::kDynamic:
      return db_->UpdateDynamic(op.cls->name(), op.id, op.slow->attr,
                                op.slow->value, op.slow->function);
    case UpdateOp::Kind::kStatic:
      return db_->UpdateStatic(op.cls->name(), op.id, op.slow->attr,
                               op.slow->static_value);
  }
  return Status::Internal("unreachable update kind");
}

void ShardedEngine::EncodeOp(const UpdateOp& op, Tick now,
                             std::string* batch) {
  if (op.kind == UpdateOp::Kind::kMotion &&
      AppendWalMotionFrame(batch, op.cls->name(), now, op.id, op.position.x,
                           op.position.y, op.velocity.x, op.velocity.y)) {
    return;
  }
  WalRecord rec;
  rec.kind = WalRecord::Kind::kUpdate;
  rec.table = op.cls->name();
  rec.rid = op.id;
  const Value tick(static_cast<int64_t>(now));
  switch (op.kind) {
    case UpdateOp::Kind::kMotion:
      rec.row = {Value(kTagMotion),    tick,
                 Value(op.position.x), Value(op.position.y),
                 Value(op.velocity.x), Value(op.velocity.y)};
      break;
    case UpdateOp::Kind::kDynamic:
      rec.row = {Value(kTagDynamic), tick, Value(op.slow->attr),
                 Value(op.slow->value),
                 Value(EncodeTimeFunction(op.slow->function))};
      break;
    case UpdateOp::Kind::kStatic:
      rec.row = {Value(kTagStatic), tick, Value(op.slow->attr),
                 op.slow->static_value};
      break;
  }
  *batch += EncodeWalRecord(rec);
  *batch += '\n';
}

Status ShardedEngine::Advance(Tick ticks) {
  db_->clock().Advance(ticks);
  return DrainAndRefresh();
}

Status ShardedEngine::DrainAndRefresh() {
  const size_t n = shards_.size();
  const bool metrics = obs::MetricsRegistry::Global().enabled();
  const Tick now = db_->Now();
  // Root span for the whole tick; per-shard drain/refresh spans parent
  // under it explicitly (pool threads have no ambient context).
  obs::TraceSpan tick_span("shard/drain_and_refresh", "shard");
  tick_span.AnnotateU64("tick", static_cast<uint64_t>(now));
  const obs::TraceContext tick_ctx = tick_span.context();

  // Phase 1: parallel drain. Safe on the shared database because shards
  // own disjoint objects (no two threads mutate the same object), no
  // structural operation runs, and remaining listeners are thread-safe.
  std::vector<Status> drain_sts(n, Status::OK());
  ParallelFor(pool_.get(), n, [&](size_t k) {
    Shard& s = *shards_[k];
    obs::TraceSpan span("shard/drain", "shard", tick_ctx);
    span.AnnotateU64("shard", k);
    s.drained.clear();
    s.wal_batch.clear();
    for (auto& [cls, ids] : s.drained_ids) ids.clear();
    s.queue.PopAll(&s.drained);
    size_t logged = 0;
    for (const UpdateOp& op : s.drained) {
      Status as = ApplyOp(op);
      if (!as.ok()) {
        // The object raced deletion between enqueue and drain; the update
        // is dropped, not an error.
        ++s.updates_dropped;
        if (metrics) s.dropped_total->Inc();
        continue;
      }
      ++s.updates_applied;
      if (metrics) s.applied_total->Inc();
      auto group = std::find_if(
          s.drained_ids.begin(), s.drained_ids.end(),
          [&](const auto& entry) { return entry.first == op.cls; });
      if (group == s.drained_ids.end()) {
        group = s.drained_ids.emplace(s.drained_ids.end(), op.cls,
                                      std::vector<ObjectId>{});
      }
      group->second.push_back(op.id);
      if (s.wal.is_open()) {
        EncodeOp(op, now, &s.wal_batch);
        ++logged;
      }
    }
    // One write and one flush for the whole drain, before the refresh.
    if (logged > 0) {
      drain_sts[k] =
          s.wal.AppendEncoded(s.wal_batch.data(), s.wal_batch.size(), logged);
    }
    if (metrics) s.queue_depth->Set(static_cast<int64_t>(s.queue.ApproxDepth()));
  });

  // Phases 2+3 fused per shard: dirty-mark, then refresh. The database is
  // read-only again; each thread touches only its own shard's manager and
  // only reads the other shards' drained ids. Shard k drained exactly the
  // ids it owns; every other shard's ids are foreign to it and reach only
  // its multi-variable queries (a non-first column can bind any object).
  std::vector<Status> refresh_sts(n, Status::OK());
  ParallelFor(pool_.get(), n, [&](size_t k) {
    Shard& s = *shards_[k];
    obs::TraceSpan span("shard/refresh", "shard", tick_ctx);
    span.AnnotateU64("shard", k);
    auto start = std::chrono::steady_clock::now();
    for (size_t j = 0; j < n; ++j) {
      const QueryManager::Ownership ownership =
          j == k ? QueryManager::Ownership::kOwned
                 : QueryManager::Ownership::kForeign;
      for (const auto& [cls, ids] : shards_[j]->drained_ids) {
        if (!ids.empty()) s.qm->NoteUpdates(cls->name(), ids, ownership);
      }
    }
    refresh_sts[k] = s.qm->TickAll();
    s.last_refresh_ns = ElapsedNs(start);
    if (metrics) {
      s.refresh_latency->Observe(static_cast<double>(s.last_refresh_ns) * 1e-9);
    }
  });
  // Sample the telemetry timeline once per engine tick (idempotent: the
  // per-shard TickAll calls above already tried under the same tick).
  obs::TelemetryRecorder::Global().OnTick(now);

  if (!build_status_.ok()) return build_status_;
  for (const Status& s : drain_sts) {
    if (!s.ok()) return s;
  }
  for (const Status& s : refresh_sts) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Result<ShardedEngine::ShardedAnswer> ShardedEngine::ContinuousAnswer(
    QueryId id) {
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound("sharded query " + std::to_string(id));
  }
  const EngineQuery& eq = it->second;
  const size_t n = shards_.size();
  obs::TraceSpan gather_span("shard/gather", "shard");
  gather_span.AnnotateU64("query_id", id);
  const obs::TraceContext gather_ctx = gather_span.context();
  std::vector<QueryManager::AnswerSnapshot> snaps(n);
  std::vector<Status> sts(n, Status::OK());
  // Scatter: snapshot (refreshing lazily if stale) in parallel — the
  // database is read-only here by the control-plane discipline.
  ParallelFor(pool_.get(), n, [&](size_t k) {
    obs::TraceSpan span("shard/scatter", "shard", gather_ctx);
    span.AnnotateU64("shard", k);
    Result<QueryManager::AnswerSnapshot> r =
        shards_[k]->qm->SnapshotContinuousAnswer(eq.shard_ids[k]);
    if (r.ok()) {
      snaps[k] = std::move(*r);
    } else {
      sts[k] = r.status();
    }
  });
  for (const Status& s : sts) {
    if (!s.ok()) return s;
  }

  // Gather: the shards' *relations* are merged while flattening, in one
  // pass over their sorted rows.
  ShardedAnswer out;
  std::vector<const TemporalRelation*> parts(n);
  for (size_t k = 0; k < n; ++k) {
    if (snaps[k].degrade != DegradeReason::kNone) out.missing_shards.push_back(k);
    parts[k] = snaps[k].answer.get();
  }
  if (obs::MetricsRegistry::Global().enabled()) {
    gather_merges_total_->Inc();
    if (!out.missing_shards.empty()) degraded_gathers_total_->Inc();
  }
  // FlattenAnswer stamps confidence exactly as the read path
  // ContinuousAnswer uses, so it cannot drift from the oracle. Any
  // degraded shard poisons the whole gather: the union is incomplete, so
  // no tuple is vouched for.
  out.tuples = shards_[0]->qm->FlattenAnswer(
      eq.query, parts, /*force_stale=*/!out.missing_shards.empty());
  return out;
}

Result<TemporalRelation> ShardedEngine::Evaluate(const FtlQuery& query) {
  const size_t n = shards_.size();
  obs::TraceSpan gather_span("shard/gather", "shard");
  const obs::TraceContext gather_ctx = gather_span.context();
  std::vector<TemporalRelation> parts(n);
  std::vector<Status> sts(n, Status::OK());
  ParallelFor(pool_.get(), n, [&](size_t k) {
    obs::TraceSpan span("shard/scatter", "shard", gather_ctx);
    span.AnnotateU64("shard", k);
    Result<TemporalRelation> r = shards_[k]->qm->Evaluate(query);
    if (r.ok()) {
      parts[k] = std::move(*r);
    } else {
      sts[k] = r.status();
    }
  });
  for (const Status& s : sts) {
    if (!s.ok()) return s;
  }
  std::vector<const TemporalRelation*> views;
  for (const TemporalRelation& part : parts) views.push_back(&part);
  TemporalRelation merged;
  if (!parts.empty()) merged.vars = parts.front().vars;
  ForEachUnionRow(views, [&](const std::vector<ObjectId>& binding,
                             const IntervalSet& when) {
    merged.rows.emplace_hint(merged.rows.end(), binding, when);
  });
  return merged;
}

QueryManager::RefreshCounters ShardedEngine::TotalRefreshCounters() const {
  QueryManager::RefreshCounters totals;
  for (const auto& shard : shards_) {
    QueryManager::RefreshCounters c = shard->qm->TotalRefreshCounters();
    totals.delta_evaluations += c.delta_evaluations;
    totals.full_evaluations += c.full_evaluations;
  }
  return totals;
}

std::vector<ShardedEngine::ShardStats> ShardedEngine::Stats() const {
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  for (size_t k = 0; k < shards_.size(); ++k) {
    const Shard& s = *shards_[k];
    ShardStats st;
    st.shard = k;
    st.objects = s.partition->size();
    st.queue_depth = s.queue.ApproxDepth();
    st.updates_applied = s.updates_applied;
    st.updates_dropped = s.updates_dropped;
    QueryManager::RefreshCounters c = s.qm->TotalRefreshCounters();
    st.delta_refreshes = c.delta_evaluations;
    st.full_refreshes = c.full_evaluations;
    st.last_refresh_seconds = static_cast<double>(s.last_refresh_ns) * 1e-9;
    out.push_back(st);
  }
  return out;
}

Result<ShardedEngine::ReplayReport> ShardedEngine::ReplayShardWals(
    const std::string& dir, size_t shard_count, MostDatabase* db) {
  ReplayReport report;
  MOST_ASSIGN_OR_RETURN(std::vector<WalRecord> records,
                        ReadShardWals(dir, shard_count, &report.recovery));
  struct Decoded {
    Tick tick = 0;
    const WalRecord* rec = nullptr;
  };
  std::vector<Decoded> decoded;
  decoded.reserve(records.size());
  for (const WalRecord& rec : records) {
    if (rec.row.size() < 2 || rec.row[0].type() != ValueType::kString ||
        rec.row[1].type() != ValueType::kInt) {
      return Status::Corruption("shard WAL record without tag/tick header");
    }
    decoded.push_back({rec.row[1].int_value(), &rec});
  }
  // Global tick order; stable, so each object's same-tick records keep
  // their append order (every object's records live in one shard's log).
  std::stable_sort(decoded.begin(), decoded.end(),
                   [](const Decoded& a, const Decoded& b) {
                     return a.tick < b.tick;
                   });
  for (const Decoded& d : decoded) {
    const WalRecord& rec = *d.rec;
    db->clock().AdvanceTo(d.tick);
    const std::string& tag = rec.row[0].string_value();
    const ObjectId id = static_cast<ObjectId>(rec.rid);
    Status s = Status::OK();
    if (tag == kTagMotion) {
      if (rec.row.size() != 6) {
        return Status::Corruption("malformed motion record");
      }
      s = db->SetMotion(
          rec.table, id,
          {rec.row[2].double_value(), rec.row[3].double_value()},
          {rec.row[4].double_value(), rec.row[5].double_value()});
    } else if (tag == kTagDynamic) {
      if (rec.row.size() != 5) {
        return Status::Corruption("malformed dynamic record");
      }
      MOST_ASSIGN_OR_RETURN(TimeFunction fn,
                            DecodeTimeFunction(rec.row[4].string_value()));
      s = db->UpdateDynamic(rec.table, id, rec.row[2].string_value(),
                            rec.row[3].double_value(), std::move(fn));
    } else if (tag == kTagStatic) {
      if (rec.row.size() != 4) {
        return Status::Corruption("malformed static record");
      }
      s = db->UpdateStatic(rec.table, id, rec.row[2].string_value(),
                           rec.row[3]);
    } else if (tag == kTagCreate) {
      s = db->RestoreObject(rec.table, id).status();
    } else if (tag == kTagDelete) {
      s = db->DeleteObject(rec.table, id);
    } else {
      return Status::Corruption("unknown shard WAL tag '" + tag + "'");
    }
    MOST_RETURN_IF_ERROR(s);
    ++report.applied;
  }
  return report;
}

}  // namespace most
