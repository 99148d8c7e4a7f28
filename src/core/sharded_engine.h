#ifndef MOST_CORE_SHARDED_ENGINE_H_
#define MOST_CORE_SHARDED_ENGINE_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/mpsc_queue.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/object_model.h"
#include "core/shard_router.h"
#include "ftl/query_manager.h"
#include "obs/metrics.h"
#include "storage/shard_wal.h"

namespace most {

/// Shard-per-core continuous-query engine (docs/sharding.md).
///
/// The object domain is partitioned across N shards by a stable hash of
/// the object id (ShardRouter). The partition is *logical*: all shards
/// share one MostDatabase — physically splitting the store would break
/// cross-shard atoms such as DIST(o, n) where o and n hash apart — and
/// each shard owns
///
///  * a QueryManager whose Options::domain_partition restricts the first
///    FROM variable of every query to the shard's objects,
///  * an MPSC handoff queue of pending location updates routed by owner, and
///  * a per-shard write-ahead log (ShardWal).
///
/// Safe concurrent mutation of the shared database comes from phase
/// discipline, not locks: structural operations (object create/delete,
/// query registration, reshard — and class creation on the database) run
/// on the serial control plane; the data plane (EnqueueMotion/
/// EnqueueDynamic/EnqueueStatic) is lock-free from any thread and only
/// reads the class catalog; and Tick() drains all queues in parallel and
/// logs each shard's drain with one WAL write — safe because
/// shards own disjoint objects, every db-level listener left registered
/// is thread-safe, and the update counter is a relaxed atomic — then
/// refreshes every shard's queries in parallel over a read-only database.
///
/// Continuous queries are evaluated scatter-gather. Because FTL relations
/// are pointwise in their bindings, restricting the first FROM variable
/// commutes with every connective: shard k's full relation is exactly the
/// oracle relation filtered to rows whose first binding is owned by k, so
/// the disjoint union over shards *is* the oracle relation. The gather
/// flattens the per-shard answer relations through QueryManager::
/// FlattenAnswer in one k-way merge pass over their sorted rows
/// (projection can collapse a binding present in several shards, whose
/// tick sets then union and re-coalesce), stamping confidence as a
/// single-shard read does — so answers are byte-identical to an
/// unsharded QueryManager at any shard count, which the differential
/// suite enforces.
///
/// Degradation follows the coordinator's completeness-marking idiom: a
/// shard that blows its refresh budget keeps serving its previous answer
/// as kStale instead of blocking the gather; the merged answer then
/// reports every tuple kStale and lists the shard in missing_shards.
class ShardedEngine {
 public:
  using QueryId = uint64_t;

  struct Options {
    /// Number of shards; 0 sizes to std::thread::hardware_concurrency().
    size_t shard_count = 0;
    /// Template for every per-shard QueryManager. listen is forced off
    /// (the drain feeds coalesced NoteUpdates batches) and
    /// domain_partition is installed per shard.
    QueryManager::Options query_options;
    /// Directory for per-shard WALs (created if missing). Empty disables
    /// durability. Each drained update is appended to its owner shard's
    /// log, so N drain threads log without sharing a file or a lock. A
    /// log that cannot be opened fails every DrainAndRefresh until a
    /// Reshard opens them all.
    std::string wal_dir;
  };

  /// The database must outlive the engine. Current objects are assigned
  /// to shards immediately; bulk-load the world first, then construct the
  /// engine (per-object structural ops through the engine are correct but
  /// heavier — each rewrites one shard's partition set).
  ShardedEngine(MostDatabase* db, Options options);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  size_t shard_count() const { return shards_.size(); }
  size_t ShardOf(ObjectId id) const { return router_.ShardOf(id); }
  MostDatabase* database() { return db_; }

  // ---- Control plane (serial: never concurrent with Tick or enqueues) --

  /// Creates an object, assigns it to its hash shard (partition set and
  /// query partition), and dirties it in every shard's queries.
  Result<MostObject*> CreateObject(const std::string& class_name);
  /// Deletes an object and retires it from its shard; every shard's
  /// queries evict its rows on next refresh.
  Status DeleteObject(const std::string& class_name, ObjectId id);

  /// Registers the query in every shard (each restricted to its
  /// partition, windows anchored at the current tick). The returned id is
  /// engine-scoped.
  Result<QueryId> RegisterContinuous(const FtlQuery& query);
  Status Cancel(QueryId id);

  /// Rebuilds the engine over `new_shard_count` shards: drains every
  /// pending update, tears the shards down, re-partitions, and re-
  /// registers every live query. Query windows re-anchor at the current
  /// tick — answers afterwards equal a *fresh* oracle registered now, not
  /// the pre-reshard state. A query that fails to re-register is dropped
  /// (no shard keeps a partial registration) while the others still
  /// re-register; the first such failure is returned, naming its query
  /// id. Old WAL files beyond the new count are left in place (replay
  /// probes up to the maximum shard count ever used).
  Status Reshard(size_t new_shard_count);

  // ---- Data plane (lock-free, any thread) ------------------------------
  //
  // The class must exist when the update is enqueued; an update naming no
  // class, or an object that is gone by the drain, is counted dropped.

  void EnqueueMotion(const std::string& class_name, ObjectId id,
                     Point2 position, Vec2 velocity);
  void EnqueueDynamic(const std::string& class_name, ObjectId id,
                      const std::string& attr, double value,
                      TimeFunction function);
  void EnqueueStatic(const std::string& class_name, ObjectId id,
                     const std::string& attr, Value value);

  // ---- Tick ------------------------------------------------------------

  /// Advances the clock by `ticks`, then DrainAndRefresh().
  Status Advance(Tick ticks = 1);

  /// One scatter round: (1) in parallel per shard, pop the handoff queue,
  /// apply the updates to the shared database and append them to the
  /// shard WAL as one batch (one write and one flush; a failed batch
  /// leaves none of its records in the log); (2) dirty-mark by ownership:
  /// shard k drained exactly the ids it owns, so they mark all of its
  /// queries, while the other shards' ids mark only its multi-variable
  /// queries (a non-first column can bind any object); (3) in parallel
  /// per shard, refresh all queries against the now read-only database.
  /// A refresh snapshots only the objects it can bind (the dirty ids, or
  /// the shard's partition), so it costs O(owned dirty), not O(class).
  /// An update whose object vanished between enqueue and drain is
  /// counted dropped, not an error. If a shard WAL failed to open (at
  /// construction or the last Reshard), the round still runs and then
  /// returns that failure.
  Status DrainAndRefresh();

  // ---- Queries ---------------------------------------------------------

  /// Gathered continuous answer: per-shard snapshots merged per binding
  /// (tick sets unioned, then flattened in map order / interval order).
  /// `missing_shards` lists shards serving degraded (previous/partial)
  /// answers; when non-empty every tuple is demoted to kStale — the
  /// gather will not vouch for a partially-complete union.
  struct ShardedAnswer {
    std::vector<AnswerTuple> tuples;
    std::vector<size_t> missing_shards;
    bool complete() const { return missing_shards.empty(); }
  };
  Result<ShardedAnswer> ContinuousAnswer(QueryId id);

  /// Scatter-gather instantaneous evaluation on [now, now + horizon];
  /// byte-identical to an unsharded QueryManager::Evaluate.
  Result<TemporalRelation> Evaluate(const FtlQuery& query);

  /// Summed delta/full refresh counters across all shard managers.
  QueryManager::RefreshCounters TotalRefreshCounters() const;

  // ---- Introspection ---------------------------------------------------

  struct ShardStats {
    size_t shard = 0;
    size_t objects = 0;        ///< Owned objects (partition size).
    size_t queue_depth = 0;    ///< Approximate pending enqueued updates.
    uint64_t updates_applied = 0;
    uint64_t updates_dropped = 0;
    uint64_t delta_refreshes = 0;
    uint64_t full_refreshes = 0;
    double last_refresh_seconds = 0.0;  ///< Wall time of the last phase-3.
  };
  std::vector<ShardStats> Stats() const;

  /// Replays every shard WAL under `dir` (probing shard indices
  /// [0, shard_count)) into `db`: records are globally ordered by tick
  /// (stable, so each object's same-tick updates keep their append
  /// order — an object's records all live in one shard's log), the clock
  /// is advanced to each record's tick, and the update is re-applied.
  /// Object creations and deletions routed through the engine are
  /// replayed too; classes and regions are structural state the caller
  /// restores first (as durable_database does from its snapshot).
  struct ReplayReport {
    size_t applied = 0;
    RecoveryReport recovery;
  };
  static Result<ReplayReport> ReplayShardWals(const std::string& dir,
                                              size_t shard_count,
                                              MostDatabase* db);

 private:
  /// One handoff-queue entry. A motion update is fixed-size: its class is
  /// the database's ObjectClass, resolved once at enqueue, so the data
  /// plane copies no string. Dynamic and static updates carry their
  /// attribute and value in `slow`.
  struct UpdateOp {
    enum class Kind : uint8_t { kMotion, kDynamic, kStatic };
    struct Slow {
      std::string attr;
      double value = 0.0;     // kDynamic.
      TimeFunction function;  // kDynamic.
      Value static_value;     // kStatic.
    };
    Kind kind = Kind::kMotion;
    ObjectClass* cls = nullptr;  ///< Null: no such class at enqueue.
    ObjectId id = kInvalidObjectId;
    Point2 position;  // kMotion.
    Vec2 velocity;    // kMotion.
    std::unique_ptr<Slow> slow;
  };

  struct Shard {
    std::shared_ptr<const std::set<ObjectId>> partition;
    std::unique_ptr<QueryManager> qm;
    MpscQueue<UpdateOp> queue;
    ShardWal wal;
    uint64_t updates_applied = 0;
    uint64_t updates_dropped = 0;
    uint64_t last_refresh_ns = 0;
    /// Drain scratch, reused across ticks.
    std::vector<UpdateOp> drained;
    /// The last drain's encoded WAL records, appended with one write.
    std::string wal_batch;
    /// Ids applied in the last drain, grouped by class (phase-2 input).
    /// Entries persist across drains; an empty list means none this time.
    std::vector<std::pair<const ObjectClass*, std::vector<ObjectId>>>
        drained_ids;
    // Registry-owned series (shard-labelled).
    obs::Counter* routed_total = nullptr;
    obs::Counter* applied_total = nullptr;
    obs::Counter* dropped_total = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Histogram* refresh_latency = nullptr;
  };

  struct EngineQuery {
    FtlQuery query;
    std::vector<QueryManager::QueryId> shard_ids;  ///< One per shard.
  };

  /// Registers eq->query in every shard, filling eq->shard_ids. All or
  /// nothing: on a shard's failure the others' registrations are
  /// cancelled and that failure returned.
  Status RegisterInShards(EngineQuery* eq);
  /// (Re)builds shards_ for router_.shard_count() shards from the
  /// database's current objects. Callers tear the old shards down first.
  Status BuildShards();
  /// Replaces the owner's partition set (and its query partition) after
  /// a structural change to `id`, then dirties `id` in every shard.
  void ReassignAfterStructuralChange(const std::string& class_name,
                                     ObjectId id);
  Status ApplyOp(const UpdateOp& op);
  /// Appends `op`'s WAL record to `batch`: a motion frame, or a v2 text
  /// line holding the "D"/"S" (or, for a class name too long for a frame,
  /// "M") tagged kUpdate row.
  static void EncodeOp(const UpdateOp& op, Tick now, std::string* batch);
  /// The class `class_name` names, or null; read on the data plane, which
  /// is safe because only the control plane creates classes.
  ObjectClass* ClassOf(const std::string& class_name) const;
  void Route(UpdateOp op);

  MostDatabase* db_;
  Options options_;
  ShardRouter router_;
  std::unique_ptr<ThreadPool> pool_;  ///< Null when shard_count == 1.
  std::vector<std::unique_ptr<Shard>> shards_;
  QueryId next_query_id_ = 1;
  std::map<QueryId, EngineQuery> queries_;
  obs::Counter* gather_merges_total_ = nullptr;
  obs::Counter* degraded_gathers_total_ = nullptr;
  /// What the last BuildShards returned. A shard WAL that failed to open
  /// leaves that shard without durability, so every DrainAndRefresh (and
  /// Advance) returns this status until a Reshard rebuilds cleanly.
  Status build_status_;
};

}  // namespace most

#endif  // MOST_CORE_SHARDED_ENGINE_H_
