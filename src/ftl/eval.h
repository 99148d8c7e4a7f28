#ifndef MOST_FTL_EVAL_H_
#define MOST_FTL_EVAL_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/budget.h"
#include "common/interval.h"
#include "common/result.h"
#include "core/class_snapshot.h"
#include "core/motion_index_manager.h"
#include "core/object_model.h"
#include "ftl/ast.h"
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
};

/// Checks a query before evaluation: a valid window, a WHERE formula,
/// distinct FROM variables over existing classes, every object variable of
/// the formula and of RETRIEVE bound by FROM, and no free value variable.
/// Returns each FROM variable's class. FtlEvaluator and NaiveFtlEvaluator
/// both call it, so they reject exactly the same queries with the same
/// status.
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
class FtlEvaluator {
 public:
  struct Options {
    /// Negation is outside the paper's conjunctive subset; when allowed it
    /// is evaluated by complementation over the full variable domain.
    bool allow_negation = true;
    /// Safety valve on domain enumeration (cross products).
    size_t max_instantiations = 4u << 20;
    /// AND evaluates its cheaper side first and restricts the other
    /// side's variable domains to joinable bindings (a semi-join).
    bool enable_semijoin = true;
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
  FtlEvaluator(const MostDatabase& db, Options options)
      : db_(db), options_(options) {}

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
  void ResetStats() { stats_ = FtlEvalStats(); }

  /// Which budget limit aborted the last evaluation (kNone if it ran to
  /// completion). Valid after EvaluateQuery*/EvalFormula returns.
  DegradeReason degrade_reason() const { return gate_.tripped(); }

 private:
  struct Domains;  // Resolved per-variable object class extents.

  Result<TemporalRelation> EvaluateQueryUnprojectedImpl(const FtlQuery& query,
                                                        Interval window);
  /// Profiling wrapper: records one ProfileNode per subformula (when
  /// Options::profile is set), then dispatches to EvalNode.
  Result<TemporalRelation> Eval(const FormulaPtr& f, const Domains& domains,
                                Interval window);
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

  /// The per-class SoA snapshot for this evaluation, built on first use.
  /// Snapshots and every other per-evaluation scratch structure live in
  /// arena_; ResetEvalScratch() drops them wholesale at the start of each
  /// top-level evaluation (nothing arena-allocated escapes an evaluation —
  /// docs/eval_internals.md).
  const ClassSnapshot& GetSnapshot(const ObjectClass* cls, Interval window);
  void ResetEvalScratch();
  /// Cooperative budget checkpoint: OK while within Options::budget,
  /// Status::ResourceExhausted once a limit trips. `rows_hint` is the
  /// cardinality of whatever relation the caller just materialized (0
  /// when the checkpoint guards time/memory only). A single branch when
  /// no budget is armed.
  Status BudgetCheckpoint(size_t rows_hint);
  /// Folds the arena's per-cycle stats into stats_ (called once per
  /// top-level evaluation, after the result is produced).
  void AccumulateArenaStats();

  const MostDatabase& db_;
  Options options_;
  FtlEvalStats stats_;
  BudgetGate gate_;
  BumpArena arena_;
  std::map<const ObjectClass*, ClassSnapshot> snapshots_;
  /// Parent node the next Eval() attaches its child to; null = profiling
  /// off. Only mutated by the single thread driving the recursion (pool
  /// workers never call Eval).
  obs::ProfileNode* profile_current_ = nullptr;
};

}  // namespace most

#endif  // MOST_FTL_EVAL_H_
