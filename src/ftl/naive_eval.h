#ifndef MOST_FTL_NAIVE_EVAL_H_
#define MOST_FTL_NAIVE_EVAL_H_

#include <map>
#include <string>

#include "common/result.h"
#include "core/object_model.h"
#include "ftl/ast.h"
#include "ftl/eval.h"
#include "ftl/term_eval.h"

namespace most {

/// Reference evaluator: walks the database history state by state and
/// checks the FTL semantics directly (Section 3.3). Exponentially slower
/// than FtlEvaluator's interval algorithm but obviously correct — property
/// tests cross-check the two, and benchmark E4 measures the gap. Unlike
/// the interval evaluator it also handles arbitrary negation for free.
class NaiveFtlEvaluator {
 public:
  explicit NaiveFtlEvaluator(const MostDatabase& db) : db_(db) {}

  /// Truth of `f` at tick `t` for the given instantiation, on the finite
  /// history prefix `window` (window.end acts as the end of history, the
  /// same convention FtlEvaluator uses).
  Result<bool> Holds(const FormulaPtr& f, const Instantiation& inst, Tick t,
                     Interval window) const;

  /// Full query evaluation by brute force: every instantiation, every tick.
  /// Invalid queries are rejected by ValidateQuery, as FtlEvaluator does.
  Result<TemporalRelation> EvaluateQuery(const FtlQuery& query,
                                         Interval window) const;

 private:
  const MostDatabase& db_;
};

}  // namespace most

#endif  // MOST_FTL_NAIVE_EVAL_H_
