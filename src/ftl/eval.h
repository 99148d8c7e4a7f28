#ifndef MOST_FTL_EVAL_H_
#define MOST_FTL_EVAL_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/budget.h"
#include "common/interval.h"
#include "common/result.h"
#include "core/class_snapshot.h"
#include "core/motion_index_manager.h"
#include "core/object_model.h"
#include "ftl/ast.h"
#include "ftl/eval_context.h"
#include "obs/profile.h"

namespace most {

class ThreadPool;

/// The relation R_g the appendix associates with a subformula g: one row
/// per instantiation of g's free object variables, carrying the set of
/// ticks at which g is satisfied under that instantiation. Rows with empty
/// tick sets are not stored. The interval sets are normalized (sorted,
/// non-overlapping, non-consecutive), exactly the appendix's invariant.
struct TemporalRelation {
  std::vector<std::string> vars;  ///< Sorted variable names (columns).
  std::map<std::vector<ObjectId>, IntervalSet> rows;

  /// Projects onto a subset of columns, unioning tick sets of rows that
  /// collapse together.
  TemporalRelation Project(const std::vector<std::string>& keep) const;

  std::string ToString() const;
};

/// Counters exposed for the benchmarks (experiments E4/E5).
struct FtlEvalStats {
  size_t atomic_evaluations = 0;  ///< Atomic predicate solves.
  size_t instantiations = 0;      ///< Object tuples enumerated.
  size_t join_pairs = 0;          ///< Row pairs examined by joins.
  size_t assign_subevals = 0;     ///< Body evaluations for [x := q].
  size_t index_pruned = 0;        ///< Objects skipped thanks to an index.
  size_t arena_bytes = 0;         ///< Bump-arena bytes drawn by evaluations.
  size_t arena_heap_fallbacks = 0;  ///< Oversize arena requests sent to heap.
  size_t snapshot_builds = 0;     ///< ClassSnapshots built (not borrowed).
  /// Subformula relations served by the evaluation context, whole or
  /// filtered from the unrestricted relation.
  size_t shared_hits = 0;
};

/// Checks a query before evaluation: a valid window, a WHERE formula,
/// distinct FROM variables over existing classes, every object variable of
/// the formula and of RETRIEVE bound by FROM, every FROM variable used by
/// the formula or RETRIEVE, no free value variable, and every region the
/// formula names defined. Returns each FROM variable's class. FtlEvaluator
/// and NaiveFtlEvaluator both call it, so they reject exactly the same
/// queries with the same status.
Result<std::map<std::string, const ObjectClass*>> ValidateQuery(
    const MostDatabase& db, const FtlQuery& query, Interval window);

/// Evaluates FTL formulas over the implicit future history of a MOST
/// database, per the paper's appendix: bottom-up computation of interval
/// relations with interval-intersection joins (AND), maximal-chain merges
/// (UNTIL), and substitution joins (assignment quantifier).
///
/// The evaluation window is the finite prefix [window.begin, window.end]
/// of the infinite future history (the paper: "a continuous query expires
/// after a predefined (but very large) amount of time"). Temporal
/// operators treat window.end as the end of history.
///
/// Every evaluation goes through an EvalContext: class snapshots and the
/// relations of completed subformulas are taken from it when an earlier
/// evaluation of the same database version built them, and left in it for
/// later ones (docs/eval_internals.md). An evaluator built without one
/// uses a private context; the query manager passes the one it owns, so
/// all of its evaluations share.
class FtlEvaluator {
 public:
  struct Options {
    /// Safety valve on domain enumeration (cross products).
    size_t max_instantiations = 4u << 20;
    /// Optional Section 4 motion indexes: INSIDE atoms over indexed
    /// classes examine only the index's candidates instead of every
    /// object (the paper's combination of the index with the FTL
    /// algorithm). Not owned; may be null.
    const MotionIndexManager* motion_indexes = nullptr;
    /// Optional thread pool for atomic-predicate extraction: objects are
    /// independent until the join stages, so INSIDE / DIST / attribute
    /// range atoms are partitioned across the pool's workers and merged
    /// back in deterministic binding order. Null (or a 1-worker pool) is
    /// the serial path; any thread count produces
    /// byte-identical relations (see docs/parallel_eval.md). Not owned.
    ThreadPool* pool = nullptr;
    /// Restricts the listed object variables to the given candidate ids
    /// for the whole evaluation: the result is exactly the unrestricted
    /// relation filtered to rows whose binding for each listed variable
    /// lies in its set (FTL relations are pointwise in their bindings —
    /// a row's tick set depends only on the bound objects' states — so
    /// the restriction commutes with every connective). This is the
    /// engine of the query manager's delta re-evaluation: one pass per
    /// FROM position with that variable pinned to the updated objects
    /// (docs/incremental_eval.md). Variables absent from the map are
    /// unrestricted.
    std::map<std::string, std::shared_ptr<const std::set<ObjectId>>>
        domain_restrictions;
    /// Optional profiling sink: when set, every evaluated subformula
    /// appends one child node (mirroring the formula tree — the appendix
    /// computes one interval relation R_g per subformula g) annotated with
    /// its wall time, result cardinalities and counter deltas. Null = no
    /// profiling, no clock reads. Not owned; must outlive the evaluation.
    obs::ProfileNode* profile = nullptr;
    /// Per-evaluation resource budget. The default (all zero) imposes
    /// nothing. When any field is set, the evaluator checks it at coarse
    /// safe points (per subformula, per snapshot build, per join) and
    /// aborts with Status::ResourceExhausted the moment one trips; the
    /// caller (the query manager) degrades to a stale answer instead of
    /// failing the query. Aborting — rather than truncating the relation
    /// mid-build — is what keeps budgeted evaluation sound: a truncated
    /// intermediate under NOT would over-approximate (docs/robustness.md).
    Budget budget;
  };

  explicit FtlEvaluator(const MostDatabase& db) : FtlEvaluator(db, Options()) {}
  FtlEvaluator(const MostDatabase& db, Options options);
  /// Shares `context` (not owned; must outlive the evaluator) with every
  /// other evaluator on it.
  FtlEvaluator(const MostDatabase& db, Options options, EvalContext* context);
  ~FtlEvaluator();

  /// Evaluates a full query over the window, returning the Answer relation
  /// projected onto the RETRIEVE variables.
  Result<TemporalRelation> EvaluateQuery(const FtlQuery& query,
                                         Interval window);

  /// Same evaluation, but without the final projection: one column per
  /// variable of the WHERE formula plus every RETRIEVE variable. Because
  /// the unprojected relation is pointwise in its bindings, it is the
  /// representation the query manager's delta splice maintains (projection
  /// aggregates over dropped variables and would not be spliceable).
  Result<TemporalRelation> EvaluateQueryUnprojected(const FtlQuery& query,
                                                    Interval window);

  /// Evaluates a formula whose object variables are bound to classes by
  /// `var_classes`. Exposed for tests and for the query manager.
  Result<TemporalRelation> EvalFormula(
      const FormulaPtr& formula,
      const std::map<std::string, std::string>& var_classes, Interval window);

  const FtlEvalStats& stats() const { return stats_; }

  /// Which budget limit aborted the last evaluation (kNone if it ran to
  /// completion). Valid after EvaluateQuery*/EvalFormula returns.
  DegradeReason degrade_reason() const { return gate_.tripped(); }

 private:
  struct Domains;  // Resolved per-variable object class extents.
  /// What a subformula's context key is built from.
  struct NodeKey {
    FormulaPtr formula;               ///< Pinned: its address names it.
    std::string structure;            ///< EvalContext::Structure.
    std::set<std::string> free_vars;  ///< Free object variables.
  };

  Result<TemporalRelation> EvaluateQueryUnprojectedImpl(const FtlQuery& query,
                                                        Interval window);
  /// Starts a top-level evaluation: fresh scratch, the armed budget and
  /// the context generation of the database as it is now.
  void BeginEvaluation();
  /// Evaluates a subformula, or takes its relation from the context: one
  /// ProfileNode per subformula (when Options::profile is set), then a
  /// context lookup, else EvalNode. A relation that is not the root
  /// (`keep`) is looked up in the context and left there for later
  /// requests; the root is neither.
  Result<RelationPtr> Eval(const FormulaPtr& f, const Domains& domains,
                           Interval window, bool keep = true);
  /// The structure and free object variables of `f`, composed from its
  /// children's and memoized for the evaluation, so each node is encoded
  /// once.
  const NodeKey& KeyOf(const FormulaPtr& f);
  Result<TemporalRelation> EvalNode(const FormulaPtr& f,
                                    const Domains& domains, Interval window);
  Result<TemporalRelation> EvalCompare(const FtlFormula& f,
                                       const Domains& domains,
                                       Interval window);
  Result<TemporalRelation> EvalAssign(const FtlFormula& f,
                                      const Domains& domains,
                                      Interval window);

  /// Snapshot (structure-of-arrays) extraction of the single-variable
  /// INSIDE/OUTSIDE atom and of the two-variable DIST comparison against
  /// an instantiation-independent bound: motion coefficients are read
  /// from per-class ClassSnapshots (docs/eval_internals.md).
  Result<TemporalRelation> EvalInsideSoA(const FtlFormula& f,
                                         const Domains& domains,
                                         Interval window, bool is_inside,
                                         bool self_anchored,
                                         const ObjectClass* cls,
                                         const Polygon& region);
  Result<TemporalRelation> EvalDistSoA(const Domains& domains,
                                       Interval window, const FtlTerm* dist,
                                       const TermPtr& other,
                                       FtlFormula::CmpOp op,
                                       const std::vector<std::string>& vars);

  /// The per-class SoA snapshot for this evaluation over the class's
  /// scope, taken from the context generation (built there on first use)
  /// and charged to this evaluation's budget either way. Every other
  /// per-evaluation scratch structure lives in arena_, which
  /// BeginEvaluation() drops wholesale (nothing arena-allocated escapes an
  /// evaluation — docs/eval_internals.md).
  const ClassSnapshot& GetSnapshot(const ObjectClass* cls, Interval window);
  void NoteSnapshotRead(const ObjectClass* cls) {
    if (snapshot_reads_.empty() || snapshot_reads_.back() != cls) {
      snapshot_reads_.push_back(cls);
    }
  }
  /// Sets each class's snapshot scope from the evaluation's top-level
  /// `domains`: the union of the restrictions on the variables over the
  /// class, or the whole class when one of them is unrestricted. Every
  /// later filter narrows a restriction (the AND semi-join intersects with
  /// the enclosing domain), so no evaluation binds an object outside its
  /// class's scope.
  void SetScopes(const Domains& domains);
  /// Cooperative budget checkpoint: OK while within Options::budget,
  /// Status::ResourceExhausted once a limit trips. `rows_hint` is the
  /// cardinality of whatever relation the caller just materialized (0
  /// when the checkpoint guards time/memory only). A single branch when
  /// no budget is armed.
  Status BudgetCheckpoint(size_t rows_hint);
  /// Bytes this evaluation is charged for: every snapshot it borrowed or
  /// built in the context, plus its own arena draws and those of the
  /// shared relations it borrowed.
  size_t ChargedBytes() const { return snapshot_bytes_ + RelationBytes(); }
  size_t RelationBytes() const {
    return arena_.stats().bytes_allocated + borrowed_bytes_;
  }
  /// Folds the arena's per-cycle stats into stats_ (called once per
  /// top-level evaluation, after the result is produced).
  void AccumulateArenaStats();

  const MostDatabase& db_;
  Options options_;
  std::unique_ptr<EvalContext> own_context_;  ///< Null when shared.
  EvalContext* context_;
  /// The generation this evaluation reads (held until the next one
  /// starts, so a concurrent key change cannot free it).
  std::shared_ptr<EvalContext::Generation> generation_;
  FtlEvalStats stats_;
  BudgetGate gate_;
  BumpArena arena_;
  /// Snapshots this evaluation took from the generation (each charged
  /// once).
  std::map<const ObjectClass*, const ClassSnapshot*> snapshots_;
  /// Every class whose snapshot the evaluation read, in order of reading
  /// (a subformula's reads are the suffix its evaluation appended).
  std::vector<const ObjectClass*> snapshot_reads_;
  size_t snapshot_bytes_ = 0;
  size_t borrowed_bytes_ = 0;
  /// KeyOf's memo for the evaluation, by node address.
  std::unordered_map<const FtlFormula*, NodeKey> node_keys_;
  /// Largest rows_hint any budget checkpoint saw in the subformula being
  /// evaluated (the rows a shared relation charges its borrowers).
  size_t rows_seen_ = 0;
  /// Per-class snapshot scope (null = the whole class).
  std::map<const ObjectClass*, std::shared_ptr<const std::set<ObjectId>>>
      scopes_;
  /// Parent node the next Eval() attaches its child to; null = profiling
  /// off. Only mutated by the single thread driving the recursion (pool
  /// workers never call Eval).
  obs::ProfileNode* profile_current_ = nullptr;
};

}  // namespace most

#endif  // MOST_FTL_EVAL_H_
