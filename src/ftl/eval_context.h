#ifndef MOST_FTL_EVAL_CONTEXT_H_
#define MOST_FTL_EVAL_CONTEXT_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/interval.h"
#include "core/class_snapshot.h"
#include "core/object_model.h"
#include "ftl/ast.h"

namespace most {

struct TemporalRelation;

/// A relation as evaluations share it: immutable once shared.
using RelationPtr = std::shared_ptr<const TemporalRelation>;

/// What the evaluations of one database version share
/// (docs/eval_internals.md, "Per-version evaluation context").
///
/// The appendix evaluates a formula bottom-up, one interval relation R_g
/// per subformula g, and an instantaneous query is answered against the
/// database as it is now (§2.3). While no update arrives, R_g is therefore
/// a pure function of (database state, window, bound domains), and every
/// evaluation that needs it can take it from here instead of rebuilding
/// it. A context holds, for the current key (database, version(), Now()):
///
/// * one ClassSnapshot per (class, window, scope), and
/// * the relation of every completed proper subformula per (structural
///   key, window, per-variable restriction contents).
///
/// The first evaluation under a new key drops everything (the old
/// generation is freed once no evaluation still reads it), so nothing
/// outlives an update and there is nothing to invalidate. Thread-safe:
/// the query manager's instantaneous evaluations run concurrently with
/// its refreshes.
class EvalContext {
 public:
  /// Restrictions on a subformula's free object variables: (variable,
  /// candidate ids), sorted by variable; unrestricted variables are
  /// absent. Compared by contents, never by pointer.
  using Restrictions =
      std::vector<std::pair<std::string,
                            std::shared_ptr<const std::set<ObjectId>>>>;

  /// A lookup hit. `filtered` says the relation is the unrestricted one
  /// and the borrower must cut it down to its restrictions, which is exact
  /// because FTL relations are pointwise in their bindings.
  struct Hit {
    RelationPtr relation;
    bool filtered = false;
  };

  /// A snapshot handed out by a generation; `built` is true for the one
  /// caller that built it.
  struct Snapshot {
    const ClassSnapshot* snapshot = nullptr;
    size_t bytes = 0;
    bool built = false;
  };

  /// The contents for one key. Evaluations hold the generation they
  /// started under, so a concurrent key change never frees what they read.
  /// A budgeted evaluation makes one of its own that no other evaluation
  /// sees (FtlEvaluator::BeginEvaluation).
  class Generation {
   public:
    Generation() = default;
    Generation(const Generation&) = delete;
    Generation& operator=(const Generation&) = delete;

    /// The stored relation under `key` with exactly `restrictions`, else
    /// the unrestricted one for a restricted request.
    std::optional<Hit> FindRelation(const std::string& key,
                                    const Restrictions& restrictions);
    /// Stores a completed relation (a second store of the same request
    /// keeps the first; both are equal).
    void StoreRelation(const std::string& key, Restrictions restrictions,
                       RelationPtr relation);
    /// The snapshot of `cls` over `window` for exactly `scope` (null =
    /// the whole class), built on first request.
    Snapshot GetSnapshot(
        const ObjectClass& cls, Interval window,
        const std::shared_ptr<const std::set<ObjectId>>& scope);

   private:
    struct RelationEntry {
      Restrictions restrictions;
      RelationPtr relation;
    };
    struct SnapshotEntry {
      const ObjectClass* cls;
      Interval window;
      std::shared_ptr<const std::set<ObjectId>> scope;
      std::unique_ptr<ClassSnapshot> snapshot;
      size_t bytes;
    };

    std::mutex mu_;
    /// Backs the snapshots; declared first so it outlives them.
    BumpArena arena_;
    std::unordered_map<std::string, std::vector<RelationEntry>> relations_;
    std::vector<SnapshotEntry> snapshots_;
  };

  EvalContext() = default;
  EvalContext(const EvalContext&) = delete;
  EvalContext& operator=(const EvalContext&) = delete;

  /// The generation for `db` as it is now, starting a new one when the
  /// database, its version() or its clock moved since the last call.
  std::shared_ptr<Generation> Acquire(const MostDatabase& db);
  /// Drops the current generation; evaluations still reading it keep it
  /// alive until they end. The next Acquire starts a new one.
  void Release();

  /// Exact structural encoding of `f`, given the encodings of its
  /// children in order: equal only for structurally equal subformulas.
  /// Every literal is encoded bit for bit (formula text rounds doubles).
  static std::string Structure(const FtlFormula& f,
                               const std::vector<const std::string*>& children);
  /// Key of a request: a subformula's Structure over the classes of its
  /// free object variables and a window. Two requests share a relation
  /// only when their keys are equal.
  static std::string SubformulaKey(
      const std::string& structure,
      const std::map<std::string, const ObjectClass*>& classes,
      const std::set<std::string>& free_vars, Interval window);

 private:
  struct Key {
    const MostDatabase* db = nullptr;
    uint64_t version = 0;
    Tick now = 0;
    bool operator==(const Key&) const = default;
  };

  std::mutex mu_;
  Key key_;
  std::shared_ptr<Generation> current_;
};

}  // namespace most

#endif  // MOST_FTL_EVAL_CONTEXT_H_
