#include "ftl/eval.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <sstream>

#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "ftl/spatial_eval.h"
#include "ftl/term_eval.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace most {

struct FtlEvaluator::Domains {
  /// Object class extent for each object variable.
  std::map<std::string, const ObjectClass*> classes;
  /// Optional per-variable candidate restriction installed by the AND
  /// semi-join: only these ids can contribute to the enclosing join, so
  /// enumeration skips everything else. Soundness: every relation row is
  /// computed per binding independently, and rows outside the filter
  /// cannot match the already-evaluated sibling.
  std::map<std::string, std::shared_ptr<const std::set<ObjectId>>> filters;
};

namespace {

constexpr double kCmpEps = 1e-9;

std::vector<std::string> SortedVars(const std::set<std::string>& s) {
  return std::vector<std::string>(s.begin(), s.end());
}

/// Shared numeric/ordinal comparison semantics for both evaluators:
/// numeric comparisons absorb float noise with a small epsilon, everything
/// else compares exactly.
Result<bool> CompareFtlValues(FtlFormula::CmpOp op, const Value& lhs,
                              const Value& rhs) {
  if (lhs.is_numeric() && rhs.is_numeric()) {
    double diff = lhs.AsDouble().value() - rhs.AsDouble().value();
    switch (op) {
      case FtlFormula::CmpOp::kLe:
        return diff <= kCmpEps;
      case FtlFormula::CmpOp::kLt:
        return diff < -kCmpEps;
      case FtlFormula::CmpOp::kGe:
        return diff >= -kCmpEps;
      case FtlFormula::CmpOp::kGt:
        return diff > kCmpEps;
      case FtlFormula::CmpOp::kEq:
        return std::abs(diff) <= kCmpEps;
      case FtlFormula::CmpOp::kNe:
        return std::abs(diff) > kCmpEps;
    }
    return Status::Internal("bad cmp op");
  }
  if (lhs.type() != rhs.type()) {
    return Status::TypeError("comparison between " +
                             std::string(ValueTypeToString(lhs.type())) +
                             " and " +
                             std::string(ValueTypeToString(rhs.type())));
  }
  int c = lhs.Compare(rhs);
  switch (op) {
    case FtlFormula::CmpOp::kLe:
      return c <= 0;
    case FtlFormula::CmpOp::kLt:
      return c < 0;
    case FtlFormula::CmpOp::kGe:
      return c >= 0;
    case FtlFormula::CmpOp::kGt:
      return c > 0;
    case FtlFormula::CmpOp::kEq:
      return c == 0;
    case FtlFormula::CmpOp::kNe:
      return c != 0;
  }
  return Status::Internal("bad cmp op");
}

using ClassMap = std::map<std::string, const ObjectClass*>;
using FilterMap =
    std::map<std::string, std::shared_ptr<const std::set<ObjectId>>>;

/// Calls fn(binding, instantiation) for every tuple in the cross product of
/// the variables' class extents (restricted per-variable by `filters`).
/// Bindings are parallel to `vars`.
Status EnumerateInstantiations(
    const std::vector<std::string>& vars, const ClassMap& classes,
    const FilterMap& filters, size_t max_count, size_t* counter,
    const std::function<Status(const std::vector<ObjectId>&,
                               const Instantiation&)>& fn) {
  if (vars.empty()) {
    ++*counter;
    return fn({}, {});
  }
  // Materialize per-variable candidate lists (filtered).
  std::vector<std::vector<std::pair<ObjectId, const MostObject*>>> extents(
      vars.size());
  for (size_t i = 0; i < vars.size(); ++i) {
    auto it = classes.find(vars[i]);
    if (it == classes.end()) {
      return Status::InvalidArgument("object variable '" + vars[i] +
                                     "' is not bound by the FROM clause");
    }
    auto filter_it = filters.find(vars[i]);
    if (filter_it != filters.end() && filter_it->second != nullptr) {
      for (ObjectId id : *filter_it->second) {
        if (const MostObject* obj = it->second->Find(id)) {
          extents[i].emplace_back(id, obj);
        }
      }
    } else {
      for (const auto& [id, obj] : it->second->objects()) {
        extents[i].emplace_back(id, &obj);
      }
    }
    if (extents[i].empty()) return Status::OK();  // Empty cross product.
  }
  std::vector<size_t> odometer(vars.size(), 0);
  std::vector<ObjectId> binding(vars.size());
  Instantiation inst;
  while (true) {
    if (++*counter > max_count) {
      return Status::OutOfRange("instantiation limit exceeded (" +
                                std::to_string(max_count) + ")");
    }
    for (size_t i = 0; i < vars.size(); ++i) {
      binding[i] = extents[i][odometer[i]].first;
      inst[vars[i]] = extents[i][odometer[i]].second;
    }
    MOST_RETURN_IF_ERROR(fn(binding, inst));
    // Advance odometer.
    size_t d = vars.size();
    while (d > 0) {
      --d;
      if (++odometer[d] < extents[d].size()) break;
      odometer[d] = 0;
      if (d == 0) return Status::OK();
    }
  }
}

// ---------------------------------------------------------------------------
// Parallel atomic extraction.
//
// Atomic predicates are solved per variable instantiation, and
// instantiations are independent of each other, so the extraction is
// partitioned across a thread pool and the per-binding interval sets are
// merged back in enumeration order. The merge target is a std::map keyed by
// the binding, so the resulting relation is byte-identical to the serial
// path no matter how the work was scheduled.
// ---------------------------------------------------------------------------

/// One unit of atomic-extraction work: a fully materialized instantiation.
struct AtomicJob {
  std::vector<ObjectId> binding;
  Instantiation inst;
};

Result<std::vector<AtomicJob>> MaterializeJobs(
    const std::vector<std::string>& vars, const ClassMap& classes,
    const FilterMap& filters, size_t max_count, size_t* counter) {
  std::vector<AtomicJob> jobs;
  MOST_RETURN_IF_ERROR(EnumerateInstantiations(
      vars, classes, filters, max_count, counter,
      [&](const std::vector<ObjectId>& binding, const Instantiation& inst) {
        jobs.push_back({binding, inst});
        return Status::OK();
      }));
  return jobs;
}

/// Solve-loop batch size between budget checks: small enough that an
/// exhausted budget aborts within a few hundred microseconds of work,
/// large enough that the check is free relative to the batch.
constexpr size_t kBudgetBatchJobs = 4096;

/// Solves one atomic relation over pre-materialized jobs: partitions them
/// across the pool and merges every row in deterministic binding order.
/// `solve` must be a pure function of the job (it runs concurrently on
/// pool workers). `checkpoint` (may be empty) is the evaluator's budget
/// gate, polled between batches on the calling thread so the quadratic
/// loop cannot sail past its deadline.
Result<TemporalRelation> SolveAtomicRelation(
    std::vector<std::string> vars, const std::vector<AtomicJob>& jobs,
    const FtlEvaluator::Options& options, FtlEvalStats* stats,
    const std::function<Result<IntervalSet>(const AtomicJob&)>& solve,
    const std::function<Status(size_t)>& checkpoint = {}) {
  TemporalRelation out;
  out.vars = std::move(vars);

  std::vector<IntervalSet> results(jobs.size());
  std::vector<Status> errors(jobs.size());
  for (size_t base = 0; base < jobs.size(); base += kBudgetBatchJobs) {
    if (checkpoint) MOST_RETURN_IF_ERROR(checkpoint(0));
    const size_t batch = std::min(kBudgetBatchJobs, jobs.size() - base);
    ParallelFor(options.pool, batch, [&](size_t k) {
      const size_t i = base + k;
      Result<IntervalSet> r = solve(jobs[i]);
      if (!r.ok()) {
        errors[i] = r.status();
        return;
      }
      results[i] = std::move(r).value();
    });
  }
  stats->atomic_evaluations += jobs.size();
  for (const Status& s : errors) {
    MOST_RETURN_IF_ERROR(s);
  }
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (!results[i].empty()) {
      out.rows.emplace(jobs[i].binding, std::move(results[i]));
    }
    if (checkpoint && (i % kBudgetBatchJobs) == kBudgetBatchJobs - 1) {
      MOST_RETURN_IF_ERROR(checkpoint(out.rows.size()));
    }
  }
  return out;
}

/// Expands a relation to a superset of variables: missing variables range
/// over their full class extents (cross product). A relation that already
/// has the target columns is handed back as is, not copied.
Result<RelationPtr> ExpandToVars(RelationPtr rel_ptr,
                                 const std::vector<std::string>& target,
                                 const ClassMap& classes,
                                 const FilterMap& filters, size_t max_count,
                                 size_t* counter) {
  if (rel_ptr->vars == target) return rel_ptr;
  const TemporalRelation& rel = *rel_ptr;
  std::vector<std::string> missing;
  for (const std::string& v : target) {
    if (std::find(rel.vars.begin(), rel.vars.end(), v) == rel.vars.end()) {
      missing.push_back(v);
    }
  }
  // Positions of the original columns within the target layout.
  std::vector<size_t> orig_pos(rel.vars.size());
  std::vector<size_t> miss_pos(missing.size());
  for (size_t i = 0; i < rel.vars.size(); ++i) {
    orig_pos[i] = std::find(target.begin(), target.end(), rel.vars[i]) -
                  target.begin();
  }
  for (size_t i = 0; i < missing.size(); ++i) {
    miss_pos[i] = std::find(target.begin(), target.end(), missing[i]) -
                  target.begin();
  }
  TemporalRelation out;
  out.vars = target;
  Status status = EnumerateInstantiations(
      missing, classes, filters, max_count, counter,
      [&](const std::vector<ObjectId>& mbinding, const Instantiation&) {
        for (const auto& [binding, when] : rel.rows) {
          std::vector<ObjectId> full(target.size());
          for (size_t i = 0; i < binding.size(); ++i) {
            full[orig_pos[i]] = binding[i];
          }
          for (size_t i = 0; i < mbinding.size(); ++i) {
            full[miss_pos[i]] = mbinding[i];
          }
          out.rows.emplace(std::move(full), when);
        }
        return Status::OK();
      });
  MOST_RETURN_IF_ERROR(status);
  return RelationPtr(std::make_shared<TemporalRelation>(std::move(out)));
}

std::vector<std::string> UnionVars(const std::vector<std::string>& a,
                                   const std::vector<std::string>& b) {
  std::set<std::string> s(a.begin(), a.end());
  s.insert(b.begin(), b.end());
  return SortedVars(s);
}

/// Natural join on shared variables with per-row interval intersection
/// (the appendix's AND rule), as a sort-merge join: both sides' rows are
/// flattened into arena-backed (key, row*) runs sorted by the shared-
/// variable key, then merged with galloping so a side whose keys are
/// sparse in the other is skipped in logarithmic hops instead of row by
/// row. Matching runs produce the same pairs (and the same join_pairs
/// count) as the old map-index scan; Union over canonical interval sets
/// is order-independent, so the output relation is byte-identical.
TemporalRelation JoinAnd(const TemporalRelation& r1,
                         const TemporalRelation& r2, FtlEvalStats* stats,
                         BumpArena* arena) {
  TemporalRelation out;
  out.vars = UnionVars(r1.vars, r2.vars);

  // Shared variable positions in each input.
  std::vector<size_t> shared1, shared2;
  for (size_t i = 0; i < r1.vars.size(); ++i) {
    auto it = std::find(r2.vars.begin(), r2.vars.end(), r1.vars[i]);
    if (it != r2.vars.end()) {
      shared1.push_back(i);
      shared2.push_back(it - r2.vars.begin());
    }
  }
  // Column positions in the output layout.
  std::vector<size_t> pos1(r1.vars.size()), pos2(r2.vars.size());
  for (size_t i = 0; i < r1.vars.size(); ++i) {
    pos1[i] = std::find(out.vars.begin(), out.vars.end(), r1.vars[i]) -
              out.vars.begin();
  }
  for (size_t i = 0; i < r2.vars.size(); ++i) {
    pos2[i] = std::find(out.vars.begin(), out.vars.end(), r2.vars[i]) -
              out.vars.begin();
  }

  const size_t k = shared1.size();
  using Row = std::pair<const std::vector<ObjectId>, IntervalSet>;

  ArenaVector<const Row*> rows1{ArenaAllocator<const Row*>(arena)};
  ArenaVector<const Row*> rows2{ArenaAllocator<const Row*>(arena)};
  ArenaVector<ObjectId> keys1{ArenaAllocator<ObjectId>(arena)};
  ArenaVector<ObjectId> keys2{ArenaAllocator<ObjectId>(arena)};
  rows1.reserve(r1.rows.size());
  keys1.reserve(k * r1.rows.size());
  for (const Row& row : r1.rows) {
    rows1.push_back(&row);
    for (size_t i = 0; i < k; ++i) keys1.push_back(row.first[shared1[i]]);
  }
  rows2.reserve(r2.rows.size());
  keys2.reserve(k * r2.rows.size());
  for (const Row& row : r2.rows) {
    rows2.push_back(&row);
    for (size_t i = 0; i < k; ++i) keys2.push_back(row.first[shared2[i]]);
  }
  const size_t m = rows1.size(), n = rows2.size();

  // Row order sorted by key; ties keep binding (map) order.
  ArenaVector<uint32_t> ord1{ArenaAllocator<uint32_t>(arena)};
  ArenaVector<uint32_t> ord2{ArenaAllocator<uint32_t>(arena)};
  ord1.resize(m);
  ord2.resize(n);
  for (size_t i = 0; i < m; ++i) ord1[i] = static_cast<uint32_t>(i);
  for (size_t j = 0; j < n; ++j) ord2[j] = static_cast<uint32_t>(j);
  auto key_cmp = [k](const ObjectId* a, const ObjectId* b) -> int {
    for (size_t t = 0; t < k; ++t) {
      if (a[t] < b[t]) return -1;
      if (a[t] > b[t]) return 1;
    }
    return 0;
  };
  auto sort_by_key = [&](ArenaVector<uint32_t>& ord,
                         const ArenaVector<ObjectId>& keys) {
    std::sort(ord.begin(), ord.end(), [&](uint32_t a, uint32_t b) {
      int c = key_cmp(keys.data() + a * k, keys.data() + b * k);
      return c != 0 ? c < 0 : a < b;
    });
  };
  sort_by_key(ord1, keys1);
  sort_by_key(ord2, keys2);

  // First position >= from whose key is not lexicographically below
  // `target`: exponential probe, then binary search over the bracket.
  auto gallop = [&](const ArenaVector<uint32_t>& ord,
                    const ArenaVector<ObjectId>& keys, size_t from,
                    size_t size, const ObjectId* target) -> size_t {
    auto below = [&](size_t idx) {
      return key_cmp(keys.data() + ord[idx] * k, target) < 0;
    };
    if (from >= size || !below(from)) return from;
    size_t step = 1, prev = from, cur = from + 1;
    while (cur < size && below(cur)) {
      prev = cur;
      step <<= 1;
      cur = from + step;
    }
    size_t lo = prev + 1, hi = std::min(cur, size);
    while (lo < hi) {
      size_t mid = lo + (hi - lo) / 2;
      if (below(mid)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  };

  size_t i = 0, j = 0;
  while (i < m && j < n) {
    const ObjectId* ki = keys1.data() + ord1[i] * k;
    const ObjectId* kj = keys2.data() + ord2[j] * k;
    int c = key_cmp(ki, kj);
    if (c < 0) {
      i = gallop(ord1, keys1, i + 1, m, kj);
      continue;
    }
    if (c > 0) {
      j = gallop(ord2, keys2, j + 1, n, ki);
      continue;
    }
    // Equal keys: delimit both runs and cross them.
    size_t i_end = i + 1;
    while (i_end < m && key_cmp(keys1.data() + ord1[i_end] * k, ki) == 0) {
      ++i_end;
    }
    size_t j_end = j + 1;
    while (j_end < n && key_cmp(keys2.data() + ord2[j_end] * k, ki) == 0) {
      ++j_end;
    }
    for (size_t a = i; a < i_end; ++a) {
      const Row* row1 = rows1[ord1[a]];
      for (size_t b = j; b < j_end; ++b) {
        const Row* row2 = rows2[ord2[b]];
        ++stats->join_pairs;
        IntervalSet when = row1->second.Intersect(row2->second);
        if (when.empty()) continue;
        std::vector<ObjectId> merged(out.vars.size());
        for (size_t t = 0; t < row1->first.size(); ++t) {
          merged[pos1[t]] = row1->first[t];
        }
        for (size_t t = 0; t < row2->first.size(); ++t) {
          merged[pos2[t]] = row2->first[t];
        }
        auto [pos, inserted] = out.rows.emplace(std::move(merged), when);
        if (!inserted) pos->second = pos->second.Union(when);
      }
    }
    i = i_end;
    j = j_end;
  }
  return out;
}

/// The relation behind `rel` as a value the caller may rewrite: moved out
/// when nobody else holds it (a relation the context does not keep),
/// copied when it is shared. Every evaluated relation is allocated
/// non-const, so the move is well defined.
TemporalRelation Own(RelationPtr rel) {
  if (rel.use_count() == 1) {
    return std::move(const_cast<TemporalRelation&>(*rel));
  }
  return *rel;
}

/// The rows of `rel` whose binding of every restricted variable lies in
/// its restriction: what the restricted evaluation of the same subformula
/// returns, because relations are pointwise in their bindings. A
/// subformula's relation has one column per free variable, so every
/// restricted variable is a column. Returns `rel` itself when every row
/// survives.
RelationPtr FilterRows(const RelationPtr& rel,
                       const EvalContext::Restrictions& restrictions) {
  std::vector<std::pair<size_t, const std::set<ObjectId>*>> cols;
  for (const auto& [var, ids] : restrictions) {
    cols.emplace_back(
        std::find(rel->vars.begin(), rel->vars.end(), var) - rel->vars.begin(),
        ids.get());
  }
  // Rows are sorted by binding, so column 0 ascends: its restriction is
  // walked alongside instead of searched.
  const std::set<ObjectId>* first = nullptr;
  if (!cols.empty() && cols.front().first == 0) {
    first = cols.front().second;
    cols.erase(cols.begin());
  }
  auto walk =
      first != nullptr ? first->begin() : std::set<ObjectId>::iterator();
  auto keep = [&](const std::vector<ObjectId>& binding) {
    if (first != nullptr) {
      while (walk != first->end() && *walk < binding[0]) ++walk;
      if (walk == first->end() || *walk != binding[0]) return false;
    }
    for (const auto& [col, ids] : cols) {
      if (ids->count(binding[col]) == 0) return false;
    }
    return true;
  };
  auto it = rel->rows.begin();
  while (it != rel->rows.end() && keep(it->first)) ++it;
  if (it == rel->rows.end()) return rel;
  auto out = std::make_shared<TemporalRelation>();
  out->vars = rel->vars;
  out->rows.insert(rel->rows.begin(), it);
  for (++it; it != rel->rows.end(); ++it) {
    if (keep(it->first)) out->rows.emplace_hint(out->rows.end(), *it);
  }
  return out;
}

const char* FormulaOpName(FtlFormula::Kind kind) {
  switch (kind) {
    case FtlFormula::Kind::kBoolLit:
      return "BoolLit";
    case FtlFormula::Kind::kCompare:
      return "Compare";
    case FtlFormula::Kind::kInside:
      return "Inside";
    case FtlFormula::Kind::kOutside:
      return "Outside";
    case FtlFormula::Kind::kWithinSphere:
      return "WithinSphere";
    case FtlFormula::Kind::kAnd:
      return "And";
    case FtlFormula::Kind::kOr:
      return "Or";
    case FtlFormula::Kind::kNot:
      return "Not";
    case FtlFormula::Kind::kUntil:
      return "Until";
    case FtlFormula::Kind::kUntilWithin:
      return "UntilWithin";
    case FtlFormula::Kind::kNexttime:
      return "Nexttime";
    case FtlFormula::Kind::kEventually:
      return "Eventually";
    case FtlFormula::Kind::kEventuallyWithin:
      return "EventuallyWithin";
    case FtlFormula::Kind::kEventuallyAfter:
      return "EventuallyAfter";
    case FtlFormula::Kind::kAlways:
      return "Always";
    case FtlFormula::Kind::kAlwaysFor:
      return "AlwaysFor";
    case FtlFormula::Kind::kAssign:
      return "Assign";
  }
  return "Formula";
}

std::string FormulaLabel(const FtlFormula& f) {
  std::string label = FormulaOpName(f.kind());
  label += " ";
  std::string text = f.ToString();
  constexpr size_t kMaxText = 60;
  if (text.size() > kMaxText) {
    text.resize(kMaxText - 3);
    text += "...";
  }
  label += text;
  return label;
}

/// Counter deltas accumulated inside one subformula (inclusive of its
/// children, like EXPLAIN ANALYZE's inclusive timings). Only non-zero
/// deltas are noted to keep renderings compact.
void NoteStatsDelta(const FtlEvalStats& before, const FtlEvalStats& after,
                    obs::ProfileNode* node) {
  auto note = [node](const char* name, size_t b, size_t a) {
    if (a > b) node->Note(name, a - b);
  };
  note("atoms", before.atomic_evaluations, after.atomic_evaluations);
  note("inst", before.instantiations, after.instantiations);
  note("join_pairs", before.join_pairs, after.join_pairs);
  note("assign_subevals", before.assign_subevals, after.assign_subevals);
}

/// Registry-owned series the evaluator flushes its per-evaluation stats
/// deltas into at the EvaluateQueryUnprojected boundary. Hot paths touch
/// only the plain FtlEvalStats fields; the registry sees one batch of
/// relaxed increments per evaluation, so instrumentation overhead is a
/// handful of atomics per query, not per tuple.
struct FtlRegistrySeries {
  obs::Counter* evaluations;
  obs::Counter* atomic_evaluations;
  obs::Counter* instantiations;
  obs::Counter* join_pairs;
  obs::Counter* assign_subevals;
  obs::Counter* arena_bytes;
  obs::Counter* arena_heap_fallbacks;
  obs::Counter* snapshot_builds;
  obs::Counter* shared_subformulas;
  obs::Histogram* latency;

  static const FtlRegistrySeries& Get() {
    static const FtlRegistrySeries s = [] {
      auto& r = obs::MetricsRegistry::Global();
      FtlRegistrySeries s;
      s.evaluations = r.GetCounter("most_ftl_evaluations_total",
                                   "FTL query evaluations completed");
      s.atomic_evaluations =
          r.GetCounter("most_ftl_atomic_evaluations_total",
                       "Atomic predicate extractions actually solved");
      s.instantiations = r.GetCounter("most_ftl_instantiations_total",
                                      "Object tuples enumerated");
      s.join_pairs = r.GetCounter("most_ftl_join_pairs_total",
                                  "Row pairs examined by interval joins");
      s.assign_subevals =
          r.GetCounter("most_ftl_assign_subevals_total",
                       "Assignment-quantifier body evaluations");
      s.arena_bytes = r.GetCounter(
          "most_ftl_arena_bytes_total",
          "Bump-arena bytes drawn by per-evaluation scratch structures");
      s.arena_heap_fallbacks = r.GetCounter(
          "most_ftl_arena_heap_fallbacks_total",
          "Arena requests too large for a block, served as dedicated blocks");
      s.snapshot_builds = r.GetCounter(
          "most_ftl_snapshot_builds_total",
          "Class snapshots built (a snapshot borrowed from the evaluation "
          "context is not counted)");
      s.shared_subformulas = r.GetCounter(
          "most_ftl_shared_subformulas_total",
          "Subformula relations served by the per-version evaluation "
          "context, whole or filtered");
      s.latency = r.GetHistogram(
          "most_ftl_eval_latency_seconds", "EvaluateQuery wall time",
          obs::ExponentialBuckets(1e-5, 4.0, 10));
      return s;
    }();
    return s;
  }
};

}  // namespace

TemporalRelation TemporalRelation::Project(
    const std::vector<std::string>& keep) const {
  TemporalRelation out;
  std::set<std::string> keep_set(keep.begin(), keep.end());
  out.vars = SortedVars(keep_set);
  std::vector<size_t> positions;
  for (const std::string& v : out.vars) {
    positions.push_back(std::find(vars.begin(), vars.end(), v) - vars.begin());
  }
  for (const auto& [binding, when] : rows) {
    std::vector<ObjectId> projected;
    projected.reserve(positions.size());
    for (size_t p : positions) projected.push_back(binding[p]);
    auto [pos, inserted] = out.rows.emplace(std::move(projected), when);
    if (!inserted) pos->second = pos->second.Union(when);
  }
  return out;
}

std::string TemporalRelation::ToString() const {
  std::ostringstream os;
  os << "(";
  for (size_t i = 0; i < vars.size(); ++i) {
    if (i) os << ", ";
    os << vars[i];
  }
  os << ") {";
  bool first = true;
  for (const auto& [binding, when] : rows) {
    if (!first) os << "; ";
    first = false;
    os << "[";
    for (size_t i = 0; i < binding.size(); ++i) {
      if (i) os << ",";
      os << binding[i];
    }
    os << "] -> " << when.ToString();
  }
  os << "}";
  return os.str();
}

FtlEvaluator::FtlEvaluator(const MostDatabase& db, Options options)
    : db_(db),
      options_(std::move(options)),
      own_context_(std::make_unique<EvalContext>()),
      context_(own_context_.get()) {}

FtlEvaluator::FtlEvaluator(const MostDatabase& db, Options options,
                           EvalContext* context)
    : db_(db), options_(std::move(options)), context_(context) {}

FtlEvaluator::~FtlEvaluator() = default;

const ClassSnapshot& FtlEvaluator::GetSnapshot(const ObjectClass* cls,
                                               Interval window) {
  auto it = snapshots_.find(cls);
  if (it != snapshots_.end()) return *it->second;
  auto scope = scopes_.find(cls);
  EvalContext::Snapshot snap = generation_->GetSnapshot(
      *cls, window, scope != scopes_.end() ? scope->second : nullptr);
  if (snap.built) {
    ++stats_.snapshot_builds;
    stats_.arena_bytes += snap.bytes;
    snapshot_bytes_ += snap.bytes;
  }
  snapshots_.emplace(cls, snap.snapshot);
  return *snap.snapshot;
}

void FtlEvaluator::BeginEvaluation() {
  snapshots_.clear();
  scopes_.clear();
  node_keys_.clear();
  arena_.Reset();
  snapshot_bytes_ = 0;
  gate_.Arm(options_.budget);
  // A budgeted evaluation works in a generation of its own: it neither
  // reads nor stores anything of the shared context, so it is the
  // evaluation a fresh evaluator would run, and it sheds exactly when that
  // one would.
  generation_ = gate_.active() ? std::make_shared<EvalContext::Generation>()
                               : context_->Acquire(db_);
}

void FtlEvaluator::SetScopes(const Domains& domains) {
  for (const auto& [var, cls] : domains.classes) {
    auto filter = domains.filters.find(var);
    std::shared_ptr<const std::set<ObjectId>> ids =
        filter != domains.filters.end() ? filter->second : nullptr;
    auto [scope, fresh] = scopes_.emplace(cls, ids);
    if (fresh || scope->second == nullptr || scope->second == ids) continue;
    if (ids == nullptr) {
      scope->second = nullptr;  // An unrestricted variable: whole class.
      continue;
    }
    auto merged = std::make_shared<std::set<ObjectId>>(*scope->second);
    merged->insert(ids->begin(), ids->end());
    scope->second = std::move(merged);
  }
}

Status FtlEvaluator::BudgetCheckpoint(size_t rows_hint) {
  if (!gate_.active()) return Status::OK();
  // Only reachable with a budget armed: lets tests inject a sleep here to
  // trip tiny deadlines deterministically, with zero effect on unbudgeted
  // evaluation.
  MOST_FAILPOINT("ftl/eval/checkpoint");
  DegradeReason reason = gate_.Check(ChargedBytes(), rows_hint);
  if (reason == DegradeReason::kNone) return Status::OK();
  return Status::ResourceExhausted("evaluation budget exhausted: " +
                                   std::string(DegradeReasonToString(reason)));
}

void FtlEvaluator::AccumulateArenaStats() {
  const BumpArena::Stats& as = arena_.stats();
  stats_.arena_bytes += as.bytes_allocated;
  stats_.arena_heap_fallbacks += as.heap_fallbacks;
}

namespace {

/// Checks that every region an INSIDE/OUTSIDE atom of `f` names exists.
/// Done up front because an atom over an empty domain is never solved, so
/// an evaluator would otherwise only notice the missing region when some
/// object reaches it.
Status CheckRegions(const MostDatabase& db, const FtlFormula& f) {
  if (f.kind() == FtlFormula::Kind::kInside ||
      f.kind() == FtlFormula::Kind::kOutside) {
    MOST_RETURN_IF_ERROR(db.GetRegion(f.region()).status());
  }
  for (const FormulaPtr& child : f.children()) {
    MOST_RETURN_IF_ERROR(CheckRegions(db, *child));
  }
  return Status::OK();
}

}  // namespace

Result<std::map<std::string, const ObjectClass*>> ValidateQuery(
    const MostDatabase& db, const FtlQuery& query, Interval window) {
  if (!window.valid()) {
    return Status::InvalidArgument("invalid evaluation window");
  }
  std::map<std::string, std::string> var_classes;
  for (const FromBinding& fb : query.from) {
    if (var_classes.count(fb.var) > 0) {
      return Status::InvalidArgument("duplicate FROM variable '" + fb.var +
                                     "'");
    }
    var_classes[fb.var] = fb.class_name;
  }
  std::map<std::string, const ObjectClass*> classes;
  for (const auto& [var, cls] : var_classes) {
    MOST_ASSIGN_OR_RETURN(classes[var], db.GetClass(cls));
  }
  if (query.where == nullptr) {
    return Status::InvalidArgument("query has no WHERE formula");
  }
  std::set<std::string> free_vars;
  query.where->CollectObjectVars(&free_vars);
  for (const std::string& v : free_vars) {
    if (classes.count(v) == 0) {
      return Status::InvalidArgument("object variable '" + v +
                                     "' is not bound by the FROM clause");
    }
  }
  std::set<std::string> free_value_vars;
  query.where->CollectFreeValueVars(&free_value_vars);
  if (!free_value_vars.empty()) {
    return Status::InvalidArgument("free value variable '" +
                                   *free_value_vars.begin() + "'");
  }
  for (const std::string& v : query.retrieve) {
    if (classes.count(v) == 0) {
      return Status::InvalidArgument("RETRIEVE variable '" + v +
                                     "' is not bound by the FROM clause");
    }
  }
  // A FROM variable the query never uses would still range over its class,
  // emptying the answer when the class is empty. Relations (and the delta
  // path's dirty tracking) only carry used variables, so reject it.
  std::set<std::string> used = std::move(free_vars);
  used.insert(query.retrieve.begin(), query.retrieve.end());
  for (const auto& [var, cls] : classes) {
    if (used.count(var) == 0) {
      return Status::InvalidArgument("FROM variable '" + var +
                                     "' is used by neither WHERE nor "
                                     "RETRIEVE");
    }
  }
  MOST_RETURN_IF_ERROR(CheckRegions(db, *query.where));
  return classes;
}

Result<TemporalRelation> FtlEvaluator::EvaluateQuery(const FtlQuery& query,
                                                     Interval window) {
  MOST_ASSIGN_OR_RETURN(TemporalRelation rel,
                        EvaluateQueryUnprojected(query, window));
  // Identity projection: RETRIEVE covers exactly the evaluated columns, so
  // Project would rebuild the same map row by row — hand the relation back.
  std::set<std::string> keep(query.retrieve.begin(), query.retrieve.end());
  if (rel.vars == SortedVars(keep)) return rel;
  return rel.Project(query.retrieve);
}

Result<TemporalRelation> FtlEvaluator::EvaluateQueryUnprojected(
    const FtlQuery& query, Interval window) {
  obs::TraceSpan span("ftl/evaluate_query");
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const bool metrics_on = registry.enabled();
  const bool timed = metrics_on || options_.profile != nullptr;
  const FtlEvalStats before = stats_;
  const uint64_t t0 = timed ? obs::MonotonicNowNs() : 0;
  obs::ProfileNode* saved = profile_current_;
  profile_current_ = options_.profile;
  Result<TemporalRelation> result =
      EvaluateQueryUnprojectedImpl(query, window);
  profile_current_ = saved;
  AccumulateArenaStats();
  const uint64_t dur_ns = timed ? obs::MonotonicNowNs() - t0 : 0;
  if (options_.profile != nullptr) {
    options_.profile->duration_ns += dur_ns;
    if (result.ok()) {
      options_.profile->tuples = result->rows.size();
      uint64_t intervals = 0;
      for (const auto& [binding, when] : result->rows) {
        intervals += when.intervals().size();
      }
      options_.profile->intervals = intervals;
    }
  }
  if (metrics_on) {
    const FtlRegistrySeries& s = FtlRegistrySeries::Get();
    s.evaluations->Inc();
    s.latency->Observe(static_cast<double>(dur_ns) * 1e-9);
    s.atomic_evaluations->Inc(stats_.atomic_evaluations -
                              before.atomic_evaluations);
    s.instantiations->Inc(stats_.instantiations - before.instantiations);
    s.join_pairs->Inc(stats_.join_pairs - before.join_pairs);
    s.assign_subevals->Inc(stats_.assign_subevals - before.assign_subevals);
    s.arena_bytes->Inc(stats_.arena_bytes - before.arena_bytes);
    s.arena_heap_fallbacks->Inc(stats_.arena_heap_fallbacks -
                                before.arena_heap_fallbacks);
    s.snapshot_builds->Inc(stats_.snapshot_builds - before.snapshot_builds);
    s.shared_subformulas->Inc(stats_.shared_hits - before.shared_hits);
  }
  return result;
}

Result<TemporalRelation> FtlEvaluator::EvaluateQueryUnprojectedImpl(
    const FtlQuery& query, Interval window) {
  BeginEvaluation();
  Domains domains;
  MOST_ASSIGN_OR_RETURN(domains.classes, ValidateQuery(db_, query, window));
  for (const auto& [var, ids] : options_.domain_restrictions) {
    if (ids != nullptr) domains.filters[var] = ids;
  }
  SetScopes(domains);

  // The root relation goes to the caller, which owns and rewrites it (the
  // delta splice), so it is not kept in the context.
  MOST_ASSIGN_OR_RETURN(RelationPtr rel,
                        Eval(query.where, domains, window, /*keep=*/false));
  // Variables mentioned in RETRIEVE but not constrained by the formula
  // range over their whole class.
  std::set<std::string> target_set(rel->vars.begin(), rel->vars.end());
  target_set.insert(query.retrieve.begin(), query.retrieve.end());
  MOST_ASSIGN_OR_RETURN(
      rel, ExpandToVars(std::move(rel), SortedVars(target_set),
                        domains.classes, domains.filters,
                        kMaxInstantiations, &stats_.instantiations));
  return Own(std::move(rel));
}

Result<RelationPtr> FtlEvaluator::Eval(const FormulaPtr& f,
                                       const Domains& domains, Interval window,
                                       bool keep) {
  obs::ProfileNode* parent = profile_current_;
  // One profile node per subformula. The child vector only ever grows at
  // the current level while deeper frames run, and children are heap
  // allocations, so `node` stays valid across the recursive call.
  obs::ProfileNode* node =
      parent != nullptr ? parent->AddChild(FormulaLabel(*f)) : nullptr;
  const uint64_t t0 = node != nullptr ? obs::MonotonicNowNs() : 0;
  auto finish = [&](const TemporalRelation& rel) {
    node->duration_ns = obs::MonotonicNowNs() - t0;
    node->tuples = rel.rows.size();
    for (const auto& [binding, when] : rel.rows) {
      node->intervals += when.intervals().size();
    }
  };

  // The request: the subformula over its free variables' classes and
  // restrictions. Restrictions on other variables cannot change its rows.
  std::string key;
  EvalContext::Restrictions restrictions;
  if (keep) {
    const NodeKey& node_key = KeyOf(f);
    for (const std::string& v : node_key.free_vars) {
      auto it = domains.filters.find(v);
      if (it != domains.filters.end() && it->second != nullptr) {
        restrictions.emplace_back(v, it->second);
      }
    }
    key = EvalContext::SubformulaKey(node_key.structure, domains.classes,
                                     node_key.free_vars, window);
    if (std::optional<EvalContext::Hit> hit =
            generation_->FindRelation(key, restrictions)) {
      RelationPtr rel = hit->filtered
                            ? FilterRows(hit->relation, restrictions)
                            : hit->relation;
      // The subtree is not profiled again.
      ++stats_.shared_hits;
      if (node != nullptr) {
        finish(*rel);
        node->Note("shared", 1);
        if (hit->filtered) node->Note("filtered", 1);
      }
      return rel;
    }
  }

  const FtlEvalStats before = stats_;
  if (node != nullptr) profile_current_ = node;
  Result<TemporalRelation> result = EvalNode(f, domains, window);
  profile_current_ = parent;
  if (node != nullptr) {
    if (result.ok()) {
      finish(*result);
    } else {
      node->duration_ns = obs::MonotonicNowNs() - t0;
    }
    NoteStatsDelta(before, stats_, node);
  }
  MOST_RETURN_IF_ERROR(result.status());
  // Allocated non-const so Own() may move it out later.
  RelationPtr rel =
      std::make_shared<TemporalRelation>(std::move(result).value());
  if (keep) generation_->StoreRelation(key, std::move(restrictions), rel);
  return rel;
}

const FtlEvaluator::NodeKey& FtlEvaluator::KeyOf(const FormulaPtr& f) {
  auto it = node_keys_.find(f.get());
  if (it != node_keys_.end()) return it->second;
  NodeKey key{f, {}, {}};
  std::vector<const std::string*> children;
  for (const FormulaPtr& c : f->children()) {
    const NodeKey& child = KeyOf(c);
    children.push_back(&child.structure);
    key.free_vars.insert(child.free_vars.begin(), child.free_vars.end());
  }
  // A node's own variables: all of a leaf's; of the rest, only an
  // assignment's term names any.
  if (f->children().empty()) {
    f->CollectObjectVars(&key.free_vars);
  } else if (f->kind() == FtlFormula::Kind::kAssign) {
    f->assign_term()->CollectObjectVars(&key.free_vars);
  }
  key.structure = EvalContext::Structure(*f, children);
  return node_keys_.emplace(f.get(), std::move(key)).first->second;
}

Result<TemporalRelation> FtlEvaluator::EvalNode(const FormulaPtr& f,
                                                const Domains& domains,
                                                Interval window) {
  MOST_RETURN_IF_ERROR(BudgetCheckpoint(0));
  switch (f->kind()) {
    case FtlFormula::Kind::kBoolLit: {
      TemporalRelation out;
      if (f->bool_value()) {
        out.rows.emplace(std::vector<ObjectId>{}, IntervalSet(window));
      }
      return out;
    }

    case FtlFormula::Kind::kCompare:
      return EvalCompare(*f, domains, window);

    case FtlFormula::Kind::kInside:
    case FtlFormula::Kind::kOutside: {
      MOST_ASSIGN_OR_RETURN(const Polygon* region, db_.GetRegion(f->region()));
      const bool is_inside = f->kind() == FtlFormula::Kind::kInside;

      // Anchored (moving) region with a distinct anchor variable: a
      // two-variable atomic relation over the exact relative motion.
      if (!f->anchor().empty() && f->anchor() != f->var()) {
        std::set<std::string> var_set = {f->var(), f->anchor()};
        std::vector<std::string> vars = SortedVars(var_set);
        MOST_ASSIGN_OR_RETURN(
            std::vector<AtomicJob> jobs,
            MaterializeJobs(vars, domains.classes, domains.filters,
                            kMaxInstantiations, &stats_.instantiations));
        return SolveAtomicRelation(
            std::move(vars), jobs, options_, &stats_,
            [&](const AtomicJob& job) -> Result<IntervalSet> {
              const MostObject* obj = job.inst.at(f->var());
              const MostObject* anchor = job.inst.at(f->anchor());
              if (!obj->IsSpatial() || !anchor->IsSpatial()) {
                return Status::TypeError(
                    "INSIDE/OUTSIDE over non-spatial object");
              }
              IntervalSet inside =
                  InsideTicksRelative(*obj, *anchor, *region, window);
              return is_inside ? inside : inside.Complement(window);
            },
            [this](size_t rows) { return BudgetCheckpoint(rows); });
      }

      const bool self_anchored = !f->anchor().empty();
      auto domain_it = domains.classes.find(f->var());
      if (domain_it == domains.classes.end()) {
        return Status::InvalidArgument("object variable '" + f->var() +
                                       "' is not bound by the FROM clause");
      }
      return EvalInsideSoA(*f, domains, window, is_inside, self_anchored,
                           domain_it->second, *region);
    }

    case FtlFormula::Kind::kWithinSphere: {
      std::set<std::string> var_set(f->sphere_vars().begin(),
                                    f->sphere_vars().end());
      std::vector<std::string> vars = SortedVars(var_set);
      MOST_ASSIGN_OR_RETURN(
          std::vector<AtomicJob> jobs,
          MaterializeJobs(vars, domains.classes, domains.filters,
                          kMaxInstantiations, &stats_.instantiations));
      return SolveAtomicRelation(
          std::move(vars), jobs, options_, &stats_,
          [&](const AtomicJob& job) -> Result<IntervalSet> {
            std::vector<const MostObject*> objects;
            for (const std::string& v : f->sphere_vars()) {
              const MostObject* obj = job.inst.at(v);
              if (!obj->IsSpatial()) {
                return Status::TypeError(
                    "WITHIN_SPHERE over non-spatial object");
              }
              objects.push_back(obj);
            }
            return SphereTicks(objects, f->radius(), window);
          },
          [this](size_t rows) { return BudgetCheckpoint(rows); });
    }

    case FtlFormula::Kind::kAnd: {
      // Semi-join: evaluate the side with fewer free variables first and
      // restrict the other side's domains to bindings that can still
      // join. Rows outside the restriction cannot survive the AND.
      std::set<std::string> lhs_vars, rhs_vars;
      f->children()[0]->CollectObjectVars(&lhs_vars);
      f->children()[1]->CollectObjectVars(&rhs_vars);
      FormulaPtr first = f->children()[0];
      FormulaPtr second = f->children()[1];
      if (rhs_vars.size() < lhs_vars.size()) std::swap(first, second);
      MOST_ASSIGN_OR_RETURN(RelationPtr r1, Eval(first, domains, window));
      Domains restricted = domains;
      for (size_t col = 0; col < r1->vars.size(); ++col) {
        auto ids = std::make_shared<std::set<ObjectId>>();
        for (const auto& [binding, when] : r1->rows) ids->insert(binding[col]);
        auto existing = restricted.filters.find(r1->vars[col]);
        if (existing != restricted.filters.end() &&
            existing->second != nullptr) {
          // Intersect with an enclosing restriction.
          auto narrowed = std::make_shared<std::set<ObjectId>>();
          for (ObjectId id : *ids) {
            if (existing->second->count(id)) narrowed->insert(id);
          }
          ids = narrowed;
        }
        restricted.filters[r1->vars[col]] = std::move(ids);
      }
      MOST_ASSIGN_OR_RETURN(RelationPtr r2, Eval(second, restricted, window));
      TemporalRelation joined = JoinAnd(*r1, *r2, &stats_, &arena_);
      MOST_RETURN_IF_ERROR(BudgetCheckpoint(joined.rows.size()));
      return joined;
    }

    case FtlFormula::Kind::kOr: {
      MOST_ASSIGN_OR_RETURN(RelationPtr r1,
                            Eval(f->children()[0], domains, window));
      MOST_ASSIGN_OR_RETURN(RelationPtr r2,
                            Eval(f->children()[1], domains, window));
      std::vector<std::string> target = UnionVars(r1->vars, r2->vars);
      MOST_ASSIGN_OR_RETURN(
          r1, ExpandToVars(std::move(r1), target, domains.classes,
                           domains.filters, kMaxInstantiations,
                           &stats_.instantiations));
      MOST_ASSIGN_OR_RETURN(
          r2, ExpandToVars(std::move(r2), target, domains.classes,
                           domains.filters, kMaxInstantiations,
                           &stats_.instantiations));
      TemporalRelation out = Own(std::move(r1));
      for (const auto& [binding, when] : r2->rows) {
        auto [pos, inserted] = out.rows.emplace(binding, when);
        if (!inserted) pos->second = pos->second.Union(when);
      }
      return out;
    }

    case FtlFormula::Kind::kNot: {
      // Outside the paper's conjunctive subset: evaluated by complementing
      // over the full variable domain.
      MOST_ASSIGN_OR_RETURN(RelationPtr r,
                            Eval(f->children()[0], domains, window));
      TemporalRelation out;
      out.vars = r->vars;
      auto hint = out.rows.end();
      Status status = EnumerateInstantiations(
          r->vars, domains.classes, domains.filters,
          kMaxInstantiations, &stats_.instantiations,
          [&](const std::vector<ObjectId>& binding, const Instantiation&) {
            auto it = r->rows.find(binding);
            IntervalSet when = (it == r->rows.end())
                                   ? IntervalSet(window)
                                   : it->second.Complement(window);
            // Enumeration yields ascending bindings; end hint = O(1).
            if (!when.empty()) {
              hint = out.rows.emplace_hint(hint, binding, std::move(when));
            }
            return Status::OK();
          });
      MOST_RETURN_IF_ERROR(status);
      return out;
    }

    case FtlFormula::Kind::kUntil:
    case FtlFormula::Kind::kUntilWithin: {
      Tick bound = f->kind() == FtlFormula::Kind::kUntilWithin ? f->bound()
                                                               : kTickMax;
      MOST_ASSIGN_OR_RETURN(RelationPtr r1,
                            Eval(f->children()[0], domains, window));
      MOST_ASSIGN_OR_RETURN(RelationPtr r2,
                            Eval(f->children()[1], domains, window));
      // Every satisfaction needs a g2 witness, so the result's rows come
      // from r2 (expanded to the union variables); the matching g1 tick
      // set (empty if r1 has no such row) feeds the chain merge.
      std::vector<std::string> target = UnionVars(r1->vars, r2->vars);
      MOST_ASSIGN_OR_RETURN(
          RelationPtr e2,
          ExpandToVars(std::move(r2), target, domains.classes, domains.filters,
                       kMaxInstantiations, &stats_.instantiations));
      std::vector<size_t> r1_positions;
      for (const std::string& v : r1->vars) {
        r1_positions.push_back(
            std::find(target.begin(), target.end(), v) - target.begin());
      }
      TemporalRelation out;
      out.vars = target;
      auto hint = out.rows.end();
      for (const auto& [binding, g2_when] : e2->rows) {
        std::vector<ObjectId> key(r1_positions.size());
        for (size_t i = 0; i < r1_positions.size(); ++i) {
          key[i] = binding[r1_positions[i]];
        }
        auto it = r1->rows.find(key);
        ++stats_.join_pairs;
        IntervalSet g1_when =
            (it == r1->rows.end()) ? IntervalSet() : it->second;
        IntervalSet when = g2_when.UntilWith(g1_when, bound).Clamp(window);
        // Source rows arrive in ascending binding order, so the end hint
        // makes each insert O(1).
        if (!when.empty()) {
          hint = out.rows.emplace_hint(hint, binding, std::move(when));
        }
      }
      return out;
    }

    case FtlFormula::Kind::kNexttime:
    case FtlFormula::Kind::kEventually:
    case FtlFormula::Kind::kEventuallyWithin:
    case FtlFormula::Kind::kEventuallyAfter:
    case FtlFormula::Kind::kAlways:
    case FtlFormula::Kind::kAlwaysFor: {
      MOST_ASSIGN_OR_RETURN(RelationPtr child,
                            Eval(f->children()[0], domains, window));
      TemporalRelation r = Own(std::move(child));
      Tick window_len = window.end - window.begin;
      // Keys survive the transform unchanged, so the child's relation (or
      // this evaluation's copy of it, when the context keeps it) is
      // rewritten in place — no node churn, no key copies — and rows whose
      // set becomes empty are erased. The in-place fused transforms produce
      // the same canonical sets as the const chains they replace.
      for (auto it = r.rows.begin(); it != r.rows.end();) {
        IntervalSet& when = it->second;
        switch (f->kind()) {
          case FtlFormula::Kind::kNexttime:
            when.ShiftClampInPlace(-1, window);
            break;
          case FtlFormula::Kind::kEventually:
            when.DilateLeftClampInPlace(window_len, window);
            break;
          case FtlFormula::Kind::kEventuallyWithin:
            when.DilateLeftClampInPlace(f->bound(), window);
            break;
          case FtlFormula::Kind::kEventuallyAfter:
            // DilateLeft(L).Shift(-b).Clamp(w): the unclamped dilation uses
            // the full tick universe, the shift applies the window clamp.
            when.DilateLeftClampInPlace(window_len,
                                        Interval(kTickMin, kTickMax));
            when.ShiftClampInPlace(-f->bound(), window);
            break;
          case FtlFormula::Kind::kAlways: {
            // Satisfied from t to the end of the evaluated history.
            IntervalSet transformed;
            if (!when.empty() && when.Max() >= window.end) {
              transformed =
                  IntervalSet(Interval(when.intervals().back().begin,
                                       window.end));
            }
            when = std::move(transformed);
            break;
          }
          case FtlFormula::Kind::kAlwaysFor:
            when.ErodeRightClampInPlace(f->bound(), window);
            break;
          default:
            break;
        }
        it = when.empty() ? r.rows.erase(it) : std::next(it);
      }
      return r;
    }

    case FtlFormula::Kind::kAssign:
      return EvalAssign(*f, domains, window);
  }
  return Status::Internal("bad formula kind");
}

Result<TemporalRelation> FtlEvaluator::EvalCompare(const FtlFormula& f,
                                                   const Domains& domains,
                                                   Interval window) {
  std::set<std::string> var_set;
  f.lhs_term()->CollectObjectVars(&var_set);
  f.rhs_term()->CollectObjectVars(&var_set);
  std::vector<std::string> vars = SortedVars(var_set);

  // Direct DIST(o1,o2) `op` constant pattern -> exact quadratic solver.
  const FtlTerm* dist = nullptr;
  TermPtr other;
  FtlFormula::CmpOp op = f.cmp_op();
  if (f.lhs_term()->kind() == FtlTerm::Kind::kDist &&
      IsTimeInvariant(f.rhs_term())) {
    dist = f.lhs_term().get();
    other = f.rhs_term();
  } else if (f.rhs_term()->kind() == FtlTerm::Kind::kDist &&
             IsTimeInvariant(f.lhs_term())) {
    dist = f.rhs_term().get();
    other = f.lhs_term();
    // c op DIST  ==  DIST op' c with the inequality mirrored.
    switch (op) {
      case FtlFormula::CmpOp::kLt:
        op = FtlFormula::CmpOp::kGt;
        break;
      case FtlFormula::CmpOp::kLe:
        op = FtlFormula::CmpOp::kGe;
        break;
      case FtlFormula::CmpOp::kGt:
        op = FtlFormula::CmpOp::kLt;
        break;
      case FtlFormula::CmpOp::kGe:
        op = FtlFormula::CmpOp::kLe;
        break;
      default:
        break;
    }
  }

  bool lhs_dist = ContainsDist(f.lhs_term());
  bool rhs_dist = ContainsDist(f.rhs_term());
  bool invariant =
      IsTimeInvariant(f.lhs_term()) && IsTimeInvariant(f.rhs_term());

  // SoA fast path for the plain two-variable DIST comparison against an
  // instantiation-independent bound (the overwhelmingly common shape).
  if (dist != nullptr && vars.size() == 2 && dist->var() != dist->var2()) {
    std::set<std::string> other_vars;
    other->CollectObjectVars(&other_vars);
    if (other_vars.empty()) {
      return EvalDistSoA(domains, window, dist, other, op, vars);
    }
  }
  MOST_ASSIGN_OR_RETURN(
      std::vector<AtomicJob> jobs,
      MaterializeJobs(vars, domains.classes, domains.filters,
                      kMaxInstantiations, &stats_.instantiations));
  return SolveAtomicRelation(
      std::move(vars), jobs, options_, &stats_,
      [&](const AtomicJob& job) -> Result<IntervalSet> {
        const Instantiation& inst = job.inst;
        IntervalSet when;
        if (dist != nullptr) {
          MOST_ASSIGN_OR_RETURN(Value bound_v,
                                EvalTermAt(other, inst, window.begin));
          MOST_ASSIGN_OR_RETURN(double bound, bound_v.AsDouble());
          const MostObject* a = inst.at(dist->var());
          const MostObject* b = inst.at(dist->var2());
          if (!a->IsSpatial() || !b->IsSpatial()) {
            return Status::TypeError("DIST over non-spatial objects");
          }
          when = DistCmpTicks(*a, *b, op, bound, window);
        } else if (invariant) {
          MOST_ASSIGN_OR_RETURN(Value lhs,
                                EvalTermAt(f.lhs_term(), inst, window.begin));
          MOST_ASSIGN_OR_RETURN(Value rhs,
                                EvalTermAt(f.rhs_term(), inst, window.begin));
          MOST_ASSIGN_OR_RETURN(bool holds,
                                CompareFtlValues(f.cmp_op(), lhs, rhs));
          if (holds) when = IntervalSet(window);
        } else if (lhs_dist || rhs_dist) {
          // Nested DIST arithmetic: per-tick fallback.
          std::vector<Interval> ticks;
          for (Tick t = window.begin; t <= window.end; ++t) {
            MOST_ASSIGN_OR_RETURN(Value lhs, EvalTermAt(f.lhs_term(), inst, t));
            MOST_ASSIGN_OR_RETURN(Value rhs, EvalTermAt(f.rhs_term(), inst, t));
            MOST_ASSIGN_OR_RETURN(bool holds,
                                  CompareFtlValues(f.cmp_op(), lhs, rhs));
            if (holds) ticks.push_back(Interval(t, t));
          }
          when = IntervalSet::FromIntervals(std::move(ticks));
        } else {
          MOST_ASSIGN_OR_RETURN(Plf lhs,
                                BuildTermPlf(f.lhs_term(), inst, window));
          MOST_ASSIGN_OR_RETURN(Plf rhs,
                                BuildTermPlf(f.rhs_term(), inst, window));
          switch (f.cmp_op()) {
            case FtlFormula::CmpOp::kLe:
              when = lhs.TicksLe(rhs);
              break;
            case FtlFormula::CmpOp::kGe:
              when = lhs.TicksGe(rhs);
              break;
            case FtlFormula::CmpOp::kLt:
              when = lhs.TicksGe(rhs).Complement(window);
              break;
            case FtlFormula::CmpOp::kGt:
              when = lhs.TicksLe(rhs).Complement(window);
              break;
            case FtlFormula::CmpOp::kEq:
              when = lhs.TicksEq(rhs);
              break;
            case FtlFormula::CmpOp::kNe:
              when = lhs.TicksEq(rhs).Complement(window);
              break;
          }
          when = when.Clamp(window);
        }
        return when;
      },
      [this](size_t rows) { return BudgetCheckpoint(rows); });
}

Result<TemporalRelation> FtlEvaluator::EvalInsideSoA(
    const FtlFormula& f, const Domains& domains, Interval window,
    bool is_inside, bool self_anchored, const ObjectClass* cls,
    const Polygon& region) {
  // Snapshot builds draw arena memory proportional to the class; check
  // the budget before, and again after so the bytes just drawn count.
  MOST_RETURN_IF_ERROR(BudgetCheckpoint(0));
  const ClassSnapshot& snap = GetSnapshot(cls, window);
  MOST_RETURN_IF_ERROR(BudgetCheckpoint(0));

  const std::set<ObjectId>* filter = nullptr;
  auto filter_it = domains.filters.find(f.var());
  if (filter_it != domains.filters.end() && filter_it->second != nullptr) {
    filter = filter_it->second.get();
  }

  // Candidate snapshot indices, ascending.
  ArenaVector<uint32_t> cand{ArenaAllocator<uint32_t>(&arena_)};
  if (filter != nullptr) {
    cand.reserve(filter->size());
    for (ObjectId id : *filter) {
      size_t oi = snap.IndexOf(id);
      if (oi == ClassSnapshot::npos) continue;  // Deleted id: no row.
      cand.push_back(static_cast<uint32_t>(oi));
    }
  } else {
    cand.reserve(snap.size());
    for (size_t oi = 0; oi < snap.size(); ++oi) {
      cand.push_back(static_cast<uint32_t>(oi));
    }
  }
  if (!cand.empty()) {
    stats_.instantiations += cand.size();
    if (stats_.instantiations > kMaxInstantiations) {
      return Status::OutOfRange("instantiation limit exceeded (" +
                                std::to_string(kMaxInstantiations) + ")");
    }
  }
  for (uint32_t oi : cand) {
    if (!snap.spatial_ok(oi)) {
      return Status::TypeError("INSIDE/OUTSIDE over non-spatial object");
    }
  }

  TemporalRelation out;
  out.vars = {f.var()};
  const size_t n = cand.size();
  std::vector<IntervalSet> results(n);
  {
    obs::TraceSpan span("ftl/inside_ticks_batch");
    if (self_anchored) {
      // Relative to itself every object sits at the origin
      // (cf. InsideTicksRelative).
      IntervalSet base =
          region.Contains({0, 0}) ? IntervalSet(window) : IntervalSet();
      for (IntervalSet& r : results) r = base;
    } else {
      ParallelFor(options_.pool, n, [&](size_t i) {
        thread_local SpatialScratch scratch;
        results[i] =
            SnapshotInsideTicks(snap, cand[i], region, window, &scratch);
      });
    }
  }
  stats_.atomic_evaluations += n;
  auto hint = out.rows.end();
  for (size_t i = 0; i < n; ++i) {
    IntervalSet when =
        is_inside ? std::move(results[i]) : results[i].Complement(window);
    if (when.empty()) continue;
    hint = out.rows.emplace_hint(hint,
                                 std::vector<ObjectId>{snap.id(cand[i])},
                                 std::move(when));
  }
  return out;
}

Result<TemporalRelation> FtlEvaluator::EvalDistSoA(
    const Domains& domains, Interval window, const FtlTerm* dist,
    const TermPtr& other, FtlFormula::CmpOp op,
    const std::vector<std::string>& vars) {
  TemporalRelation out;
  out.vars = vars;

  const ObjectClass* cls[2];
  for (size_t s = 0; s < 2; ++s) {
    auto it = domains.classes.find(vars[s]);
    if (it == domains.classes.end()) {
      return Status::InvalidArgument("object variable '" + vars[s] +
                                     "' is not bound by the FROM clause");
    }
    cls[s] = it->second;
  }
  MOST_RETURN_IF_ERROR(BudgetCheckpoint(0));
  const ClassSnapshot* snap[2] = {&GetSnapshot(cls[0], window),
                                  &GetSnapshot(cls[1], window)};
  MOST_RETURN_IF_ERROR(BudgetCheckpoint(0));

  // Per-variable extents as snapshot indices, ascending — the order
  // EnumerateInstantiations produces.
  ArenaVector<uint32_t> ext0{ArenaAllocator<uint32_t>(&arena_)};
  ArenaVector<uint32_t> ext1{ArenaAllocator<uint32_t>(&arena_)};
  ArenaVector<uint32_t>* ext[2] = {&ext0, &ext1};
  for (size_t s = 0; s < 2; ++s) {
    const std::set<ObjectId>* filter = nullptr;
    auto filter_it = domains.filters.find(vars[s]);
    if (filter_it != domains.filters.end() && filter_it->second != nullptr) {
      filter = filter_it->second.get();
    }
    if (filter != nullptr) {
      ext[s]->reserve(filter->size());
      for (ObjectId id : *filter) {
        size_t oi = snap[s]->IndexOf(id);
        if (oi == ClassSnapshot::npos) continue;  // Deleted id: no row.
        ext[s]->push_back(static_cast<uint32_t>(oi));
      }
    } else {
      ext[s]->reserve(snap[s]->size());
      for (size_t oi = 0; oi < snap[s]->size(); ++oi) {
        ext[s]->push_back(static_cast<uint32_t>(oi));
      }
    }
    if (ext[s]->empty()) return out;  // Empty cross product.
  }
  const size_t n0 = ext0.size(), n1 = ext1.size();
  const size_t total = n0 * n1;
  stats_.instantiations += total;
  if (stats_.instantiations > kMaxInstantiations) {
    return Status::OutOfRange("instantiation limit exceeded (" +
                              std::to_string(kMaxInstantiations) + ")");
  }

  // The bound is instantiation-independent here, so it is evaluated once
  // (before the spatial check, as the general per-job solver orders them).
  Instantiation empty_inst;
  MOST_ASSIGN_OR_RETURN(Value bound_v,
                        EvalTermAt(other, empty_inst, window.begin));
  MOST_ASSIGN_OR_RETURN(double bound, bound_v.AsDouble());
  for (size_t s = 0; s < 2; ++s) {
    for (uint32_t oi : *ext[s]) {
      if (!snap[s]->spatial_ok(oi)) {
        return Status::TypeError("DIST over non-spatial objects");
      }
    }
  }

  std::vector<IntervalSet> results(total);

  // Column s of `vars` maps to DIST's (a, b) argument order.
  const bool dist_first = vars[0] == dist->var();
  const ClassSnapshot& a_snap = dist_first ? *snap[0] : *snap[1];
  const ClassSnapshot& b_snap = dist_first ? *snap[1] : *snap[0];
  // The quadratic solve dwarfs the snapshot builds; run it in batches
  // with a budget check between them so a deadline overrun aborts within
  // one batch of extra work instead of sailing to the end.
  for (size_t base = 0; base < total; base += kBudgetBatchJobs) {
    MOST_RETURN_IF_ERROR(BudgetCheckpoint(0));
    const size_t batch = std::min(kBudgetBatchJobs, total - base);
    ParallelFor(options_.pool, batch, [&](size_t k) {
      thread_local SpatialScratch scratch;
      const size_t p = base + k;
      const uint32_t e0 = ext0[p / n1], e1 = ext1[p % n1];
      const uint32_t ai = dist_first ? e0 : e1;
      const uint32_t bi = dist_first ? e1 : e0;
      results[p] = SnapshotDistCmpTicks(a_snap, ai, b_snap, bi, op, bound,
                                        window, &scratch);
    });
  }
  stats_.atomic_evaluations += total;

  auto hint = out.rows.end();
  size_t p = 0;
  for (size_t i0 = 0; i0 < n0; ++i0) {
    const ObjectId id0 = snap[0]->id(ext0[i0]);
    MOST_RETURN_IF_ERROR(BudgetCheckpoint(out.rows.size()));
    for (size_t i1 = 0; i1 < n1; ++i1, ++p) {
      if (results[p].empty()) continue;
      hint = out.rows.emplace_hint(
          hint, std::vector<ObjectId>{id0, snap[1]->id(ext1[i1])},
          std::move(results[p]));
    }
  }
  return out;
}

Result<TemporalRelation> FtlEvaluator::EvalAssign(const FtlFormula& f,
                                                  const Domains& domains,
                                                  Interval window) {
  const TermPtr& q = f.assign_term();
  const FormulaPtr& body = f.children()[0];
  std::set<std::string> q_var_set;
  q->CollectObjectVars(&q_var_set);
  std::vector<std::string> q_vars = SortedVars(q_var_set);

  TemporalRelation result;
  bool result_initialized = false;
  // Body evaluations are cached per distinct assigned value.
  std::map<Value, RelationPtr> body_cache;

  Status status = EnumerateInstantiations(
      q_vars, domains.classes, domains.filters,
      kMaxInstantiations, &stats_.instantiations,
      [&](const std::vector<ObjectId>& binding, const Instantiation& inst) {
        // Decompose the term's value over the window into
        // (value, tick-interval) tuples: the relation Q of the appendix.
        std::vector<std::pair<Value, IntervalSet>> tuples;
        if (IsTimeInvariant(q)) {
          MOST_ASSIGN_OR_RETURN(Value v, EvalTermAt(q, inst, window.begin));
          tuples.emplace_back(std::move(v), IntervalSet(window));
        } else if (!ContainsDist(q)) {
          MOST_ASSIGN_OR_RETURN(Plf plf, BuildTermPlf(q, inst, window));
          for (const Plf::Piece& piece : plf.pieces()) {
            if (piece.slope == 0.0) {
              tuples.emplace_back(Value(piece.value_at_begin),
                                  IntervalSet(piece.ticks));
            } else {
              for (Tick t = piece.ticks.begin; t <= piece.ticks.end; ++t) {
                tuples.emplace_back(Value(piece.At(t)),
                                    IntervalSet(Interval(t, t)));
              }
            }
          }
        } else {
          for (Tick t = window.begin; t <= window.end; ++t) {
            MOST_ASSIGN_OR_RETURN(Value v, EvalTermAt(q, inst, t));
            tuples.emplace_back(std::move(v), IntervalSet(Interval(t, t)));
          }
        }

        TemporalRelation q_row;
        q_row.vars = q_vars;

        for (auto& [v, valid_when] : tuples) {
          auto cache_it = body_cache.find(v);
          if (cache_it == body_cache.end()) {
            ++stats_.assign_subevals;
            FormulaPtr substituted = SubstituteValueVar(body, f.var(), v);
            MOST_ASSIGN_OR_RETURN(RelationPtr body_rel,
                                  Eval(substituted, domains, window));
            cache_it = body_cache.emplace(v, std::move(body_rel)).first;
          }
          // Constrain the body relation to this q-instantiation and to the
          // ticks where the term has this value.
          q_row.rows.clear();
          q_row.rows.emplace(binding, valid_when);
          TemporalRelation joined =
              JoinAnd(*cache_it->second, q_row, &stats_, &arena_);
          if (!result_initialized) {
            result.vars = joined.vars;
            result_initialized = true;
          }
          for (auto& [b, when] : joined.rows) {
            auto [pos, inserted] = result.rows.emplace(b, when);
            if (!inserted) pos->second = pos->second.Union(when);
          }
        }
        return Status::OK();
      });
  MOST_RETURN_IF_ERROR(status);
  if (!result_initialized) {
    // Determine the output arity even when empty.
    std::set<std::string> body_vars;
    body->CollectObjectVars(&body_vars);
    body_vars.insert(q_var_set.begin(), q_var_set.end());
    result.vars = SortedVars(body_vars);
  }
  return result;
}

}  // namespace most
