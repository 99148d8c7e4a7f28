#ifndef MOST_FTL_QUERY_MANAGER_H_
#define MOST_FTL_QUERY_MANAGER_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/budget.h"
#include "common/result.h"
#include "core/object_model.h"
#include "ftl/ast.h"
#include "ftl/eval.h"
#include "obs/governor.h"
#include "obs/profile.h"

namespace most {

/// The three query types of Section 2.3.
enum class QueryType { kInstantaneous, kContinuous, kPersistent };

/// Confidence of an answer tuple under missing location updates. A tuple
/// is kCertain while every bound object has reported an update within the
/// staleness horizon; once an object goes silent past the horizon its
/// tuples are kStale — still computed from the stored motion functions
/// (dead reckoning), but no longer vouched for. Stale tuples belong to
/// the *may* answer, not the *must* answer (docs/durability.md).
enum class Confidence { kCertain, kStale };

/// One entry of Answer(CQ): an instantiation plus the interval during
/// which it satisfies the query.
struct AnswerTuple {
  std::vector<ObjectId> binding;
  Interval interval;
  Confidence confidence = Confidence::kCertain;

  bool operator==(const AnswerTuple& o) const = default;
};

/// Splices a wire-form Answer(CQ) delta into a per-object answer mirror.
/// Each upsert replaces that object's whole satisfaction set (an empty set
/// erases the entry — no-match is represented by absence, matching the
/// coordinator's matches map); each removal erases outright. This is the
/// per-object dirty-set splice the manager's OnUpdate performs locally,
/// lifted to the wire (AnswerDelta in distributed/network.h): applying the
/// deltas for every object dirtied since a mirror's anchor yields the same
/// map a full re-send would.
void SpliceAnswerDelta(
    std::map<ObjectId, IntervalSet>* mirror,
    const std::vector<std::pair<ObjectId, IntervalSet>>& upserts,
    const std::vector<ObjectId>& removals);

/// Runs MOST queries against a MostDatabase, implementing the paper's
/// processing model:
///
/// * Instantaneous query at time t: evaluated once on the future history
///   [t, t + horizon]; the user sees the tuples whose interval contains t
///   (or the whole Answer relation, for reaching-time style queries).
/// * Continuous query: evaluated once into Answer(CQ); at each clock tick
///   the current display is a lookup, not a re-evaluation. Only an
///   explicit database update triggers re-evaluation (Section 2.3), or
///   expiry of the evaluation window.
/// * Persistent query at time t0: a sequence of instantaneous queries all
///   evaluated on the history starting at t0. Updates between t0 and now
///   are recorded and stitched into the evaluated history, so e.g. the
///   paper's "speed doubled within 10 minutes" query R observes the two
///   explicit speed updates.
///
/// Temporal triggers (Section 2.3) are continuous queries coupled with an
/// action fired when a tuple's interval is entered.
///
/// Delta re-evaluation: an update to object o only invalidates the
/// Answer(CQ) rows that bind o (FTL relations are pointwise in their
/// bindings), so a refresh triggered purely by updates evicts those rows
/// and re-derives them with the evaluator's variable domains restricted to
/// the updated objects, byte-identical to a full re-evaluation
/// (docs/incremental_eval.md).
///
/// Every evaluation the manager runs (instantaneous queries,
/// registrations, full and delta refreshes) goes through the one
/// EvalContext it owns, so within one database version a class snapshot
/// or a subformula relation is built once and shared by every query that
/// needs it (docs/eval_internals.md). Persistent queries evaluate over a
/// shadow history database with a private context.
///
/// Refreshes are governed by ResourceGovernor::Global().limits() and by
/// nothing else (docs/robustness.md): every entry point that can refresh
/// (TickAll, the answer reads, Poll, registration) reads the limits once
/// and applies that snapshot to all the refreshes it runs. The per-refresh
/// budget sheds a refresh that exhausts it (the query keeps its previous
/// answer, every tuple kStale, until a later refresh completes), the
/// queue limit sheds a TickAll batch's longest-stale surplus, the cooldown
/// holds a budget-shed query back, and the dirty fraction sends a refresh
/// whose coalesced dirty set is too large down the full path.
class QueryManager {
 public:
  struct Options {
    /// Length of the evaluated future-history prefix: "a continuous query
    /// expires after a predefined (but very large) amount of time".
    Tick horizon = 1024;
    /// Optional Section 4 motion indexes consulted by the evaluator (not
    /// owned; may be null).
    const MotionIndexManager* motion_indexes = nullptr;
    /// Register an update listener on the database (the default). The
    /// sharded engine turns this off and instead feeds each shard's
    /// manager coalesced per-tick batches through NoteUpdates, so the
    /// parallel queue drain never funnels every update through every
    /// manager's listener serially (docs/sharding.md).
    bool listen = true;
    /// Standing partition of the object domain: when set, the FIRST FROM
    /// variable of every query this manager runs is restricted to these
    /// ids (composed into full and delta refreshes and instantaneous
    /// evaluation alike). Because FTL relations are pointwise in their
    /// bindings, the manager's answers are then exactly the unpartitioned
    /// answers filtered to rows whose first-variable binding is owned —
    /// which is what makes the sharded engine's union-over-shards gather
    /// byte-identical to a single-shard oracle (docs/sharding.md).
    std::shared_ptr<const std::set<ObjectId>> domain_partition = nullptr;
    /// Degraded-mode staleness horizon: an object that has not received
    /// an explicit update for more than this many ticks is considered
    /// stale, and continuous/persistent answer tuples binding it are
    /// reported with Confidence::kStale (excluded from CurrentAnswer,
    /// retained in PossibleAnswer). Negative disables staleness tracking
    /// (every tuple is kCertain, the pre-degraded-mode behaviour).
    Tick staleness_horizon = -1;
    /// Shard this manager serves inside a sharded engine (-1 standalone).
    /// Purely observational: stamped onto trace spans and slow-query-log
    /// entries so a slow line names the shard it ran on.
    int64_t shard_id = -1;
  };

  explicit QueryManager(MostDatabase* db) : QueryManager(db, Options()) {}
  QueryManager(MostDatabase* db, Options options);
  ~QueryManager();

  QueryManager(const QueryManager&) = delete;
  QueryManager& operator=(const QueryManager&) = delete;

  // ---- Instantaneous queries -------------------------------------------

  /// Full Answer relation on [now, now + horizon].
  Result<TemporalRelation> Evaluate(const FtlQuery& query);

  /// Instantiations satisfying the query right now (interval contains the
  /// current tick).
  Result<std::vector<std::vector<ObjectId>>> Instantaneous(
      const FtlQuery& query);

  /// The paper's "(motel, reaching-time)" form: every instantiation that
  /// satisfies the query somewhere in the window, with the earliest tick
  /// at which it does.
  struct ReachingTime {
    std::vector<ObjectId> binding;
    Tick at = 0;
  };
  Result<std::vector<ReachingTime>> FirstSatisfactionTimes(
      const FtlQuery& query);

  // ---- Continuous queries ----------------------------------------------

  using QueryId = uint64_t;

  Result<QueryId> RegisterContinuous(const FtlQuery& query);
  Status Cancel(QueryId id);

  /// The materialized Answer(CQ) (re-evaluated lazily if a relevant update
  /// or window expiry invalidated it). Each tuple carries its confidence
  /// (kStale when a bound object is past the staleness horizon).
  Result<std::vector<AnswerTuple>> ContinuousAnswer(QueryId id);

  /// The raw materialized projected relation behind ContinuousAnswer,
  /// refreshed first if stale. This is the sharded engine's gather hook:
  /// the per-shard *relations* must be merged (projection can collapse a
  /// binding present in several shards, whose tick sets then union and
  /// re-coalesce) before tuples are flattened, so handing out the tuple
  /// list would lose the byte-identity contract (docs/sharding.md).
  /// `degrade` is kNone while the relation is fully up to date; anything
  /// else means this is a previous/partial answer the caller must not
  /// vouch for. The relation is shared, not copied: a refresh installs a
  /// new one and never mutates a relation it has handed out.
  struct AnswerSnapshot {
    std::shared_ptr<const TemporalRelation> answer;
    DegradeReason degrade = DegradeReason::kNone;
    Tick evaluated_at = 0;
  };
  Result<AnswerSnapshot> SnapshotContinuousAnswer(QueryId id);

  /// Flattens a projected relation into the tuple form ContinuousAnswer
  /// returns: rows in map order, intervals in order, confidence re-derived
  /// per binding at the current tick (`force_stale` demotes every tuple,
  /// as a degraded answer does). ContinuousAnswer itself goes through this
  /// helper, so the sharded engine's gather — which merges per-shard
  /// snapshot relations and then flattens the union — produces tuples byte
  /// for byte as a single-shard manager would (docs/sharding.md).
  std::vector<AnswerTuple> FlattenAnswer(const FtlQuery& query,
                                         const TemporalRelation& relation,
                                         bool force_stale) const;

  /// Replaces the standing domain partition (Options::domain_partition).
  /// The caller owns re-derivation: swap the partition, then mark every id
  /// whose ownership changed dirty as kOwned (NoteUpdates) so the delta
  /// path evicts or re-derives exactly those rows — the sharded engine
  /// does this when an object is created or deleted. Must not run
  /// concurrently with refreshes.
  void SetDomainPartition(std::shared_ptr<const std::set<ObjectId>> partition);

  /// What the user's display shows at the current tick: the *must*
  /// answer. Tuples binding stale objects are excluded — the database
  /// refuses to vouch for dead-reckoned fiction.
  Result<std::vector<std::vector<ObjectId>>> CurrentAnswer(QueryId id);

  /// The *may* answer at the current tick: CurrentAnswer plus the tuples
  /// carried only by stale (dead-reckoned) objects. Equal to
  /// CurrentAnswer when staleness tracking is disabled.
  Result<std::vector<std::vector<ObjectId>>> PossibleAnswer(QueryId id);

  /// Number of times this query's Answer set was (re)computed — the
  /// quantity experiment E3 compares against per-tick re-evaluation.
  /// Delta and full refreshes both count.
  Result<uint64_t> EvaluationCount(QueryId id) const;

  /// How a query's refreshes were served: by the delta path (evict dirty
  /// rows + restricted re-evaluation + splice) or by a full window
  /// re-evaluation. The benchmark and the CI differential stage assert
  /// delta_evaluations > 0 to prove the fast path actually ran.
  struct RefreshCounters {
    uint64_t delta_evaluations = 0;
    uint64_t full_evaluations = 0;
  };
  Result<RefreshCounters> QueryRefreshCounters(QueryId id) const;
  /// Manager-wide totals across all queries (including cancelled ones),
  /// read under the registry lock, so the pair is never torn.
  RefreshCounters TotalRefreshCounters() const;

  /// Degraded-answer state of one continuous query. `reason` is kNone
  /// while the answer is fully up to date; otherwise the query is serving
  /// a stale (previous or partial) answer and every tuple reads kStale.
  struct DegradeInfo {
    DegradeReason reason = DegradeReason::kNone;
    std::string detail;
    Tick at = -1;  ///< Tick of the most recent shed (-1 = never shed).
    uint64_t shed_refreshes = 0;  ///< Lifetime shed count for this query.
  };
  Result<DegradeInfo> QueryDegradeInfo(QueryId id) const;

  /// EXPLAIN ANALYZE for FTL: renders the profile recorded by the query's
  /// most recent refresh — the chosen path (delta/full) with its reason,
  /// and one node per subformula with wall time, result cardinalities and
  /// counter deltas (the appendix's bottom-up algorithm computes one
  /// interval relation per subformula, so the profile tree mirrors the
  /// formula tree). `include_timings=false` masks wall times for
  /// deterministic golden output. Every completed refresh records a
  /// profile: one ProfileNode per subformula, never on the per-tuple hot
  /// paths, and no answer depends on it. NotFound for an unknown id or a
  /// query with no completed refresh yet.
  Result<std::string> Explain(QueryId id, bool include_timings = true) const;
  /// The raw profile behind Explain (shared snapshot; safe to hold after
  /// further refreshes, which install a fresh profile object).
  Result<std::shared_ptr<const obs::QueryProfile>> Profile(QueryId id) const;

  /// Advances every registered continuous query to the current tick in one
  /// batch: stale answers (dirty or expired) are re-evaluated in query id
  /// order; returns the first error. Database mutations must not run
  /// concurrently with this.
  Status TickAll();

  /// Whose objects a NoteUpdates batch names. An unpartitioned manager
  /// owns every object; a partitioned one owns its domain_partition (plus
  /// an object whose ownership the caller is retiring, such as a deleted
  /// one).
  enum class Ownership { kOwned, kForeign };

  /// Batch form of the update listener, for managers created with
  /// Options::listen == false: marks continuous-query dirty sets and
  /// extends persistent-query recordings — everything OnUpdate does, under
  /// one lock acquisition for the whole batch. Foreign ids dirty only
  /// multi-variable queries: a partitioned manager's single-variable
  /// query binds owned objects alone, so its marking costs O(owned
  /// updates) with no per-id ownership lookup (docs/sharding.md). Safe to
  /// call concurrently from several threads (the sharded engine calls it
  /// per shard per drained tick).
  void NoteUpdates(const std::string& class_name,
                   const std::vector<ObjectId>& ids,
                   Ownership ownership = Ownership::kOwned);

  // ---- Persistent queries ----------------------------------------------

  /// Registers a persistent query anchored at the current time t0; from
  /// now on updates to dynamic and numeric static attributes are recorded.
  Result<QueryId> RegisterPersistent(const FtlQuery& query);

  /// Evaluates the persistent query on the recorded history starting at
  /// its registration time and returns the tuples satisfied at that
  /// anchor (the paper evaluates the same instantaneous query repeatedly
  /// as the history gets refined by updates).
  Result<std::vector<AnswerTuple>> PersistentAnswer(QueryId id);

  // ---- Temporal triggers -----------------------------------------------

  /// Fired with the tuple and the tick at which its interval was entered.
  using TriggerAction =
      std::function<void(const std::vector<ObjectId>& binding, Tick at)>;

  /// Couples a continuous query with an action. Poll() fires the action
  /// once per (tuple, interval) when the clock enters the interval.
  Result<QueryId> RegisterTrigger(const FtlQuery& query,
                                  TriggerAction action);

  /// Advances trigger state to the current clock tick, firing any actions
  /// whose intervals were entered since the last poll. Fired-state entries
  /// whose intervals are entirely in the past (or whose binding left the
  /// answer, e.g. a deleted object) are garbage-collected so the per-
  /// trigger memory tracks the live answer, not the query's history.
  Status Poll();

  /// Number of (binding -> last fire tick) entries a trigger currently
  /// retains; exposed so tests can pin down the Poll-time GC.
  Result<size_t> TriggerFiredEntries(QueryId id) const;

 private:
  struct Continuous {
    QueryId id = 0;  ///< Registry key, echoed into slow-query-log entries.
    FtlQuery query;
    /// Unprojected Answer relation (one column per WHERE/RETRIEVE
    /// variable). This is the representation the delta path maintains:
    /// its rows are pointwise in their bindings, so rows touching updated
    /// objects can be evicted and re-derived independently. `answer` is
    /// its projection onto the RETRIEVE variables (projection aggregates
    /// over dropped columns, so it cannot be spliced directly), replaced
    /// whole on every refresh so snapshots can share it.
    TemporalRelation full;
    std::shared_ptr<const TemporalRelation> answer =
        std::make_shared<const TemporalRelation>();
    Tick evaluated_at = 0;
    /// Evaluation window [window_begin, expires_at]. Anchored at
    /// registration and slid to [now, now + horizon] on the first tick
    /// past expiry (SlideExpiredWindow), whether or not that tick's
    /// refresh is shed; update-triggered refreshes re-evaluate over the
    /// existing window so the delta splice and a full re-evaluation agree
    /// byte for byte.
    Tick window_begin = 0;
    Tick expires_at = 0;
    /// Force a full re-evaluation (registration; delta-path failure).
    bool dirty = true;
    /// Updates coalesced since the last refresh: class -> updated object
    /// ids. Many updates to one object collapse into one dirty entry, so
    /// refresh cost scales with distinct dirty objects, not update count.
    std::map<std::string, std::set<ObjectId>> dirty_objects;
    uint64_t evaluations = 0;
    uint64_t delta_evaluations = 0;
    uint64_t full_evaluations = 0;
    /// Degraded-answer state (docs/robustness.md). Non-kNone means the
    /// last refresh attempt was shed and the materialized relation is a
    /// previous (full path) or partial-but-correct (delta path) answer;
    /// reads force every tuple to kStale until a refresh completes.
    DegradeReason degrade = DegradeReason::kNone;
    std::string degrade_detail;
    Tick degraded_at = -1;        ///< Cooldown anchor (tick of last shed).
    uint64_t shed_refreshes = 0;
    /// Tick at which the entry first went stale since its last completed
    /// refresh (-1 = clean, or stale for a non-update reason such as
    /// window expiry, which admission control treats as oldest).
    Tick first_dirty_at = -1;
    /// Profile of the most recent completed refresh (null until then).
    std::shared_ptr<const obs::QueryProfile> last_profile;
    // Trigger state.
    TriggerAction action;
    Tick last_polled = -1;
    std::map<std::vector<ObjectId>, Tick> fired;  // binding -> last fire tick.
  };

  struct RecordedAttribute {
    // (update time, state). For numeric statics the state is a constant
    // DynamicAttribute.
    std::vector<std::pair<Tick, DynamicAttribute>> timeline;
  };

  struct Persistent {
    FtlQuery query;
    Tick anchored_at = 0;
    // (class, object, attribute) -> recorded timeline since t0.
    std::map<std::tuple<std::string, ObjectId, std::string>,
             RecordedAttribute>
        recordings;
  };

  /// True when the entry's answer is not current: forced dirty, pending
  /// coalesced updates, or the evaluation window has expired.
  bool NeedsRefresh(const Continuous& cq, Tick now) const;
  /// Slides an expired window to [now, now + horizon] and forces a full
  /// refresh over it. The window is thus a function of the registration
  /// tick and the ticks the manager is consulted on, never of which
  /// refreshes were shed — managers that register a query on the same
  /// tick and tick together (the sharded engine's shards) share one
  /// window.
  void SlideExpiredWindow(Continuous* cq, Tick now) const;
  /// Brings one entry up to date: no-op when clean, delta when only a
  /// small dirty set is pending, full otherwise (or when the delta path
  /// errors), under the caller's snapshot of the governor's limits.
  /// Caller holds mu_.
  Status Refresh(Continuous* cq, const ResourceGovernor::Limits& limits);
  /// Full re-evaluation over the entry's window. `reason` says why
  /// the full path ran (initial/expired/forced/dirty_fraction/delta_error)
  /// — recorded in the profile and the fallback counters.
  Status RefreshFull(Continuous* cq, const char* reason, const Budget& budget);
  /// Delta re-evaluation over the existing window: evicts rows binding a
  /// dirty object, runs one domain-restricted pass per dirty column, and
  /// splices the results back into the unprojected relation.
  Status RefreshDelta(Continuous* cq, const Budget& budget);

  /// Per-column staleness lookup state, resolved once per relation read
  /// instead of rescanning query.from and the class registry for every
  /// row (the read path is O(rows); the resolution is O(vars * from)).
  struct ConfidenceColumns {
    struct Column {
      const ObjectClass* cls = nullptr;  ///< Null with check => missing class.
      bool check = false;                ///< Column is a FROM variable.
    };
    std::vector<Column> columns;
  };
  ConfidenceColumns ResolveConfidenceColumns(
      const FtlQuery& query, const std::vector<std::string>& vars) const;
  /// kStale if any checked column's object is past the staleness horizon
  /// at `now` (or deleted, or its class vanished); kCertain otherwise.
  Confidence BindingConfidence(const ConfidenceColumns& cols,
                               const std::vector<ObjectId>& binding,
                               Tick now) const;
  FtlEvaluator::Options EvalOptions(const Budget& budget) const;
  /// Composes Options::domain_partition into an evaluation: restricts the
  /// query's first FROM variable to the partition (no-op when
  /// unpartitioned or variable-free).
  void ApplyPartition(FtlEvaluator::Options* opts,
                      const FtlQuery& query) const;
  void OnUpdate(const std::string& class_name, ObjectId id);
  /// A batch's registry bookkeeping (dirty marking + persistent
  /// recording), shared by OnUpdate and NoteUpdates. Caller holds mu_.
  void NoteUpdatesLocked(const std::string& class_name,
                         std::span<const ObjectId> ids, Ownership ownership,
                         Tick now);

  /// True while a budget-exhausted query must keep serving its stale
  /// answer instead of being re-attempted (queue sheds don't cool down —
  /// the entry just waits for the next TickAll round).
  static bool InCooldown(const Continuous& cq, Tick now, Tick cooldown);
  /// Records one shed refresh: flips the entry into degraded mode, feeds
  /// the governor's event ring and most_qm_shed_refreshes_total, and logs
  /// a degrade-tagged slow-query entry.
  void NoteShed(Continuous* cq, DegradeReason reason, Tick now,
                const std::string& detail, const char* path,
                uint64_t dur_ns);

  // mu_-held implementations behind the public locking wrappers.
  Result<QueryId> RegisterContinuousLocked(
      const FtlQuery& query, const ResourceGovernor::Limits& limits);
  Result<std::vector<AnswerTuple>> ContinuousAnswerLocked(
      QueryId id, const ResourceGovernor::Limits& limits);

  /// Builds the shadow database representing the history recorded by a
  /// persistent query: dynamic attributes become stitched piecewise
  /// functions (with resets at update times).
  Result<std::unique_ptr<MostDatabase>> BuildHistoryDatabase(
      const Persistent& pq) const;

  MostDatabase* db_;
  Options options_;
  MostDatabase::ListenerId listener_id_ = 0;

  /// Guards the query registries. Evaluation reads the database without a
  /// lock (the evaluator is read-only), so database mutations must be
  /// externally serialized against query evaluation; the registries
  /// themselves are safe to use from concurrent threads.
  mutable std::mutex mu_;
  QueryId next_id_ = 1;
  std::map<QueryId, Continuous> continuous_;
  std::map<QueryId, Persistent> persistent_;
  /// Manager-wide refresh totals, under mu_ like every refresh.
  RefreshCounters totals_;
  /// Shared by every evaluation of this manager's database; synchronized
  /// on its own, since Evaluate does not take mu_.
  EvalContext context_;
};

}  // namespace most

#endif  // MOST_FTL_QUERY_MANAGER_H_
