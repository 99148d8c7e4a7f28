// The per-version evaluation context (docs/eval_internals.md): what one
// database version's evaluations share, when a new context starts, that a
// borrowed relation answers exactly what building it would, and that an
// evaluation under a budget neither reads nor writes a shared context, so
// it passes and sheds exactly as a fresh evaluator does.

#include "ftl/eval_context.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ftl/eval.h"
#include "ftl/parser.h"
#include "ftl/query_manager.h"
#include "obs/metrics.h"

namespace most {
namespace {

class EvalContextTest : public ::testing::Test {
 protected:
  EvalContextTest() {
    EXPECT_TRUE(db_.CreateClass("CARS", {{"FUEL", true, ValueType::kNull}},
                                /*spatial=*/true)
                    .ok());
    EXPECT_TRUE(
        db_.DefineRegion("P", Polygon::Rectangle({0, 0}, {10, 10})).ok());
    EXPECT_TRUE(
        db_.DefineRegion("Q", Polygon::Rectangle({20, 0}, {30, 10})).ok());
    // Cars 2, 4, ... cross P and then Q; odd cars stay far away.
    for (int i = 0; i < 12; ++i) {
      auto obj = db_.CreateObject("CARS");
      EXPECT_TRUE(obj.ok());
      const ObjectId id = (*obj)->id();
      cars_.push_back(id);
      const Point2 pos = i % 2 == 0 ? Point2{-3.0 * i - 2, 5}
                                    : Point2{500.0 + i, 500};
      EXPECT_TRUE(db_.SetMotion("CARS", id, pos, {1, 0}).ok());
      EXPECT_TRUE(db_.UpdateDynamic("CARS", id, "FUEL", 10.0 + i,
                                    TimeFunction::Linear(-0.1))
                      .ok());
    }
  }

  FtlQuery Parse(const std::string& s) {
    auto q = ParseQuery(s);
    EXPECT_TRUE(q.ok()) << q.status();
    return *q;
  }

  /// The relation a fresh evaluator (private context) returns.
  TemporalRelation Fresh(const FtlQuery& q, Interval window,
                         FtlEvaluator::Options opts = {}) {
    auto rel = FtlEvaluator(db_, opts).EvaluateQueryUnprojected(q, window);
    EXPECT_TRUE(rel.ok()) << rel.status();
    return rel.ok() ? *rel : TemporalRelation();
  }

  static uint64_t Counter(const char* name) {
    return obs::MetricsRegistry::Global().GetCounter(name, "")->value();
  }

  MostDatabase db_;
  std::vector<ObjectId> cars_;
  const Interval window_{0, 100};
};

// Paper queries I-III as one tick of instantaneous evaluations: the three
// share one whole-class CARS snapshot, II borrows INSIDE(o, P) from I (and
// cuts its AND's second INSIDE from it), III borrows II's conjunction. An
// update starts a new context.
TEST_F(EvalContextTest, PaperQueriesBuildOneSnapshotPerVersion) {
  QueryManager qm(&db_, {.horizon = 100});
  const std::vector<FtlQuery> queries = {
      Parse("RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 30 INSIDE(o, P)"),
      Parse("RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 30 "
            "(INSIDE(o, P) AND ALWAYS FOR 5 INSIDE(o, P))"),
      Parse("RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 30 "
            "(INSIDE(o, P) AND ALWAYS FOR 5 INSIDE(o, P) AND "
            "EVENTUALLY AFTER 10 INSIDE(o, Q))")};
  for (int version = 0; version < 2; ++version) {
    const uint64_t builds = Counter("most_ftl_snapshot_builds_total");
    const uint64_t shared = Counter("most_ftl_shared_subformulas_total");
    std::vector<TemporalRelation> got;
    for (const FtlQuery& q : queries) {
      auto rel = qm.Evaluate(q);
      ASSERT_TRUE(rel.ok()) << rel.status();
      got.push_back(*rel);
    }
    EXPECT_EQ(Counter("most_ftl_snapshot_builds_total") - builds, 1u);
    // II: INSIDE(o, P) whole and filtered; III: II's conjunction.
    EXPECT_GE(Counter("most_ftl_shared_subformulas_total") - shared, 3u);
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(got[i].rows, Fresh(queries[i], window_).rows)
          << queries[i].ToString();
      EXPECT_FALSE(got[i].rows.empty());
    }
    ASSERT_TRUE(db_.SetMotion("CARS", cars_[0], {-1, 5}, {1, 0}).ok());
  }
}

// The context key holds the clock: an advance with no update starts a new
// context, even for the same window.
TEST_F(EvalContextTest, ClockAdvanceStartsANewContext) {
  const FtlQuery q =
      Parse("RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 5 INSIDE(o, P)");
  EvalContext context;
  FtlEvaluator first(db_, {}, &context);
  ASSERT_TRUE(first.EvaluateQuery(q, window_).ok());
  EXPECT_EQ(first.stats().snapshot_builds, 1u);

  FtlEvaluator same(db_, {}, &context);
  ASSERT_TRUE(same.EvaluateQuery(q, window_).ok());
  EXPECT_EQ(same.stats().snapshot_builds, 0u);
  EXPECT_EQ(same.stats().shared_hits, 1u);

  db_.clock().Advance(1);
  FtlEvaluator later(db_, {}, &context);
  auto rel = later.EvaluateQueryUnprojected(q, window_);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->rows, Fresh(q, window_).rows);
  EXPECT_EQ(later.stats().snapshot_builds, 1u);
  EXPECT_EQ(later.stats().shared_hits, 0u);
}

// A region redefinition is a new version: a relation over the old polygon
// is never served.
TEST_F(EvalContextTest, RegionRedefinitionStartsANewContext) {
  const FtlQuery q =
      Parse("RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 5 INSIDE(o, P)");
  EvalContext context;
  auto before = FtlEvaluator(db_, {}, &context).EvaluateQuery(q, window_);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(
      db_.DefineRegion("P", Polygon::Rectangle({40, 0}, {60, 10})).ok());
  auto after = FtlEvaluator(db_, {}, &context).EvaluateQuery(q, window_);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows, Fresh(q, window_).rows);
  EXPECT_NE(after->rows, before->rows);
}

// A restricted request whose unrestricted relation is in the context is
// served by filtering its rows: exactly the restricted evaluation.
TEST_F(EvalContextTest, RestrictedRequestIsCutFromTheUnrestrictedRelation) {
  const FtlQuery q =
      Parse("RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 5 INSIDE(o, P)");
  EvalContext context;
  auto whole = FtlEvaluator(db_, {}, &context).EvaluateQuery(q, window_);
  ASSERT_TRUE(whole.ok());

  FtlEvaluator::Options opts;
  opts.domain_restrictions["o"] =
      std::make_shared<const std::set<ObjectId>>(std::set<ObjectId>{
          cars_[0], cars_[1], cars_[4]});
  FtlEvaluator restricted(db_, opts, &context);
  auto rel = restricted.EvaluateQueryUnprojected(q, window_);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(restricted.stats().shared_hits, 1u);
  EXPECT_EQ(restricted.stats().snapshot_builds, 0u);
  const TemporalRelation want = Fresh(q, window_, opts);
  EXPECT_EQ(rel->rows, want.rows);
  EXPECT_EQ(want.rows.size(), 2u);  // Cars 0 and 4; car 1 never enters P.
  EXPECT_GT(whole->rows.size(), want.rows.size());
}

// Structurally different subformulas never share, even when their text
// renders alike: the key encodes every literal bit for bit.
TEST_F(EvalContextTest, KeysTellApartLiteralsTheTextRoundsAlike) {
  auto query = [](double bound) {
    FtlQuery q;
    q.retrieve = {"o"};
    q.from = {{"CARS", "o"}};
    q.where = FtlFormula::EventuallyWithin(
        0, FtlFormula::Compare(FtlFormula::CmpOp::kLe,
                               FtlTerm::AttrRef("o", "FUEL"),
                               FtlTerm::Literal(Value(bound))));
    return q;
  };
  // Car 0's FUEL is 10 at tick 0: under the high bound, not the low one.
  const FtlQuery low = query(9.9999995);
  const FtlQuery high = query(10.0000005);
  ASSERT_EQ(low.where->ToString(), high.where->ToString());
  EvalContext context;
  auto a = FtlEvaluator(db_, {}, &context).EvaluateQuery(low, window_);
  auto b = FtlEvaluator(db_, {}, &context).EvaluateQuery(high, window_);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->rows, Fresh(low, window_).rows);
  EXPECT_EQ(b->rows, Fresh(high, window_).rows);
  EXPECT_NE(a->rows, b->rows);
}

// A budgeted evaluation works in a generation of its own. After an
// unbudgeted evaluation it borrows nothing and builds its own snapshot;
// before one it leaves nothing behind, so the unbudgeted one builds too.
// Either way it returns the fresh relation.
TEST_F(EvalContextTest, BudgetedEvaluationNeitherReadsNorWritesTheContext) {
  const FtlQuery q = Parse(
      "RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 30 "
      "(INSIDE(o, P) AND EVENTUALLY WITHIN 40 INSIDE(o, Q))");
  const TemporalRelation want = Fresh(q, window_);
  FtlEvaluator::Options governed;
  governed.budget.max_rows = 1u << 20;  // Never trips.

  {
    EvalContext context;
    FtlEvaluator unbudgeted(db_, {}, &context);
    ASSERT_TRUE(unbudgeted.EvaluateQueryUnprojected(q, window_).ok());
    EXPECT_EQ(unbudgeted.stats().snapshot_builds, 1u);
    FtlEvaluator budgeted(db_, governed, &context);
    auto rel = budgeted.EvaluateQueryUnprojected(q, window_);
    ASSERT_TRUE(rel.ok()) << rel.status();
    EXPECT_EQ(rel->rows, want.rows);
    EXPECT_EQ(budgeted.stats().snapshot_builds, 1u);
    EXPECT_EQ(budgeted.stats().shared_hits, 0u);
  }
  {
    EvalContext context;
    FtlEvaluator budgeted(db_, governed, &context);
    auto rel = budgeted.EvaluateQueryUnprojected(q, window_);
    ASSERT_TRUE(rel.ok()) << rel.status();
    EXPECT_EQ(rel->rows, want.rows);
    FtlEvaluator unbudgeted(db_, {}, &context);
    auto after = unbudgeted.EvaluateQueryUnprojected(q, window_);
    ASSERT_TRUE(after.ok()) << after.status();
    EXPECT_EQ(after->rows, want.rows);
    EXPECT_EQ(unbudgeted.stats().snapshot_builds, 1u);
    EXPECT_EQ(unbudgeted.stats().shared_hits, 0u);
  }
}

// A budgeted evaluation after an unbudgeted one builds and is charged its
// own snapshot: a one-byte arena budget sheds it exactly as it sheds a
// fresh one.
TEST_F(EvalContextTest, BudgetedEvaluationIsChargedItsOwnSnapshot) {
  const FtlQuery q = Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)");
  EvalContext context;
  ASSERT_TRUE(FtlEvaluator(db_, {}, &context).EvaluateQuery(q, window_).ok());
  FtlEvaluator::Options opts;
  opts.budget.max_arena_bytes = 1;
  FtlEvaluator budgeted(db_, opts, &context);
  auto rel = budgeted.EvaluateQuery(q, window_);
  EXPECT_EQ(budgeted.stats().snapshot_builds, 1u);
  ASSERT_FALSE(rel.ok());
  EXPECT_EQ(rel.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(budgeted.degrade_reason(), DegradeReason::kMemory);
  FtlEvaluator fresh(db_, opts);
  EXPECT_EQ(fresh.EvaluateQuery(q, window_).status().code(),
            StatusCode::kResourceExhausted);
}

// A budget abort stores nothing half-built: the next evaluation in the
// same context gets the exact answer. A budgeted evaluation after it takes
// nothing from the context and sheds under the row limit as a fresh one
// does.
TEST_F(EvalContextTest, BudgetAbortLeavesNoPartialEntry) {
  const FtlQuery q = Parse(
      "RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 30 "
      "(INSIDE(o, P) AND EVENTUALLY WITHIN 40 INSIDE(o, Q))");
  const TemporalRelation want = Fresh(q, window_);
  ASSERT_GT(want.rows.size(), 1u);
  FtlEvaluator::Options opts;
  opts.budget.max_rows = 1;
  EvalContext context;
  FtlEvaluator aborted(db_, opts, &context);
  auto shed = aborted.EvaluateQueryUnprojected(q, window_);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(aborted.degrade_reason(), DegradeReason::kRows);

  FtlEvaluator after(db_, {}, &context);
  auto rel = after.EvaluateQueryUnprojected(q, window_);
  ASSERT_TRUE(rel.ok()) << rel.status();
  EXPECT_EQ(rel->rows, want.rows);

  // The conjunction is now in the context; an evaluation under the same
  // row limit does not take it and sheds again, as a fresh one does.
  FtlEvaluator budgeted(db_, opts, &context);
  EXPECT_FALSE(budgeted.EvaluateQueryUnprojected(q, window_).ok());
  EXPECT_EQ(budgeted.degrade_reason(), DegradeReason::kRows);
  EXPECT_EQ(budgeted.stats().shared_hits, 0u);
  FtlEvaluator fresh(db_, opts);
  EXPECT_FALSE(fresh.EvaluateQueryUnprojected(q, window_).ok());
  EXPECT_EQ(fresh.degrade_reason(), DegradeReason::kRows);
}

// A restricted evaluation in a shared context is charged what its own
// request costs, not what the unrestricted relation or the whole-class
// snapshot in the context cost: under the smallest budget a fresh one
// passes (and the unrestricted one does not) it passes as well, and one
// below that budget it is shed, as the fresh one is. A second round after
// the first round's budgeted evaluations finds the context as they left
// it: they stored nothing.
TEST_F(EvalContextTest, BudgetedRestrictedEvaluationShedsAsAFreshOne) {
  const FtlQuery q = Parse(
      "RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 30 "
      "(INSIDE(o, P) AND EVENTUALLY WITHIN 40 INSIDE(o, Q))");
  FtlEvaluator::Options restricted;
  restricted.domain_restrictions["o"] =
      std::make_shared<const std::set<ObjectId>>(
          std::set<ObjectId>{cars_[0], cars_[1], cars_[2]});
  const TemporalRelation want = Fresh(q, window_, restricted);
  ASSERT_EQ(want.rows.size(), 2u);  // Car 1 never enters P.

  auto passes_fresh = [&](FtlEvaluator::Options opts) {
    return FtlEvaluator(db_, opts).EvaluateQueryUnprojected(q, window_).ok();
  };
  // The smallest row and byte limits a fresh restricted evaluation passes.
  FtlEvaluator::Options by_rows = restricted;
  by_rows.budget.max_rows = 1;
  while (!passes_fresh(by_rows)) ++by_rows.budget.max_rows;
  FtlEvaluator::Options by_bytes = restricted;
  size_t lo = 1, hi = size_t{1} << 30;
  while (lo < hi) {
    by_bytes.budget.max_arena_bytes = lo + (hi - lo) / 2;
    if (passes_fresh(by_bytes)) {
      hi = by_bytes.budget.max_arena_bytes;
    } else {
      lo = by_bytes.budget.max_arena_bytes + 1;
    }
  }
  by_bytes.budget.max_arena_bytes = lo;

  for (const FtlEvaluator::Options* budgeted : {&by_rows, &by_bytes}) {
    // The unrestricted evaluation costs more than the budget.
    FtlEvaluator::Options whole = *budgeted;
    whole.domain_restrictions.clear();
    ASSERT_FALSE(passes_fresh(whole));
    FtlEvaluator::Options tight = *budgeted;
    ASSERT_GT(tight.budget.max_rows + tight.budget.max_arena_bytes, 1u);
    if (tight.budget.max_rows > 0) --tight.budget.max_rows;
    if (tight.budget.max_arena_bytes > 0) --tight.budget.max_arena_bytes;
    ASSERT_FALSE(passes_fresh(tight));

    EvalContext context;
    ASSERT_TRUE(
        FtlEvaluator(db_, {}, &context).EvaluateQuery(q, window_).ok());
    for (int round = 0; round < 2; ++round) {
      FtlEvaluator shed(db_, tight, &context);
      EXPECT_FALSE(shed.EvaluateQueryUnprojected(q, window_).ok())
          << "round " << round;
      FtlEvaluator passing(db_, *budgeted, &context);
      auto rel = passing.EvaluateQueryUnprojected(q, window_);
      ASSERT_TRUE(rel.ok()) << "round " << round << ": " << rel.status();
      EXPECT_EQ(rel->rows, want.rows);
      EXPECT_EQ(passing.stats().shared_hits, 0u) << "round " << round;
      EXPECT_EQ(passing.stats().snapshot_builds, 1u) << "round " << round;
    }
  }
}

}  // namespace
}  // namespace most
