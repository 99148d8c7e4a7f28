#include "ftl/eval.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ftl/naive_eval.h"
#include "ftl/parser.h"
#include "sim_world.h"

namespace most {
namespace {

// World used by the deterministic tests: spatial class PLANES with a static
// PRICE and a dynamic FUEL attribute, plus rectangular regions P and Q.
class FtlEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateClass("PLANES",
                                {{"PRICE", false, ValueType::kDouble},
                                 {"FUEL", true, ValueType::kNull}},
                                /*spatial=*/true)
                    .ok());
    ASSERT_TRUE(db_.DefineRegion("P", Polygon::Rectangle({0, 0}, {10, 10}))
                    .ok());
    ASSERT_TRUE(db_.DefineRegion("Q", Polygon::Rectangle({20, 0}, {30, 10}))
                    .ok());
  }

  // Creates a plane at `pos` moving with `vel`, fuel starting at `fuel`
  // draining at `fuel_rate`.
  ObjectId AddPlane(Point2 pos, Vec2 vel, double price = 50.0,
                    double fuel = 100.0, double fuel_rate = 0.0) {
    auto obj = db_.CreateObject("PLANES");
    EXPECT_TRUE(obj.ok());
    ObjectId id = (*obj)->id();
    EXPECT_TRUE(db_.SetMotion("PLANES", id, pos, vel).ok());
    EXPECT_TRUE(db_.UpdateStatic("PLANES", id, "PRICE", Value(price)).ok());
    EXPECT_TRUE(db_.UpdateDynamic("PLANES", id, "FUEL", fuel,
                                  TimeFunction::Linear(fuel_rate))
                    .ok());
    return id;
  }

  Result<TemporalRelation> Run(const std::string& query, Interval window) {
    MOST_ASSIGN_OR_RETURN(FtlQuery q, ParseQuery(query));
    FtlEvaluator eval(db_);
    return eval.EvaluateQuery(q, window);
  }

  IntervalSet RowSet(const TemporalRelation& rel, ObjectId id) {
    auto it = rel.rows.find({id});
    return it == rel.rows.end() ? IntervalSet() : it->second;
  }

  MostDatabase db_;
};

TEST_F(FtlEvalTest, InstantRangePredicate) {
  ObjectId a = AddPlane({5, 5}, {0, 0});   // Inside P forever.
  ObjectId b = AddPlane({50, 5}, {0, 0});  // Never inside P.
  auto rel = Run("RETRIEVE o FROM PLANES o WHERE INSIDE(o, P)",
                 Interval(0, 100));
  ASSERT_TRUE(rel.ok()) << rel.status();
  EXPECT_EQ(RowSet(*rel, a), IntervalSet(Interval(0, 100)));
  EXPECT_TRUE(RowSet(*rel, b).empty());
}

TEST_F(FtlEvalTest, MovingObjectEntersRegion) {
  // Crosses P (x from 0 to 10) during t in [20, 30].
  ObjectId a = AddPlane({-20, 5}, {1, 0});
  auto rel = Run("RETRIEVE o FROM PLANES o WHERE INSIDE(o, P)",
                 Interval(0, 100));
  ASSERT_TRUE(rel.ok()) << rel.status();
  EXPECT_EQ(RowSet(*rel, a), IntervalSet(Interval(20, 30)));
}

TEST_F(FtlEvalTest, PaperQueryI_PriceAndEventuallyWithin) {
  // Enters P at t=20: outside "within 3 of t<=17"; satisfied from t=17.
  ObjectId cheap = AddPlane({-20, 5}, {1, 0}, /*price=*/80);
  ObjectId expensive = AddPlane({-20, 5}, {1, 0}, /*price=*/200);
  auto rel = Run(
      "RETRIEVE o FROM PLANES o "
      "WHERE o.PRICE <= 100 AND EVENTUALLY WITHIN 3 INSIDE(o, P)",
      Interval(0, 100));
  ASSERT_TRUE(rel.ok()) << rel.status();
  EXPECT_EQ(RowSet(*rel, cheap), IntervalSet(Interval(17, 30)));
  EXPECT_TRUE(RowSet(*rel, expensive).empty());
}

TEST_F(FtlEvalTest, PaperQueryII_EnterAndStay) {
  // Fast plane stays in P for 10 ticks; slow plane dips in for 2 ticks.
  ObjectId stayer = AddPlane({-3, 5}, {1, 0});    // In P for t in [3, 13].
  ObjectId sprinter = AddPlane({-15, 5}, {5, 0}); // In P for t in [3, 5].
  auto rel = Run(
      "RETRIEVE o FROM PLANES o "
      "WHERE EVENTUALLY WITHIN 3 (INSIDE(o, P) AND ALWAYS FOR 2 "
      "INSIDE(o, P))",
      Interval(0, 100));
  ASSERT_TRUE(rel.ok()) << rel.status();
  // stayer: inside AND stays-2-more on [3, 11]; eventually-within-3 from 0.
  EXPECT_EQ(RowSet(*rel, stayer), IntervalSet(Interval(0, 11)));
  // sprinter: inside [3,5]; always-for-2 only at t=3; within 3 -> [0,3].
  EXPECT_EQ(RowSet(*rel, sprinter), IntervalSet(Interval(0, 3)));
}

TEST_F(FtlEvalTest, PaperQueryIII_ThenReachQ) {
  // Enters P at t=2 (x: -2 -> crosses 0..10 at t in [2,12]), stays, and
  // reaches Q (x in [20,30]) at t in [22, 32].
  ObjectId good = AddPlane({-2, 5}, {1, 0});
  // This one turns back before Q.
  ObjectId bad = AddPlane({-2, 5}, {1, 0});
  // Install a piecewise route for bad: forward till t=14, then backward.
  auto f = TimeFunction::Piecewise({{0, 1.0}, {14, -1.0}});
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(db_.UpdateDynamic("PLANES", bad, kAttrX, -2.0, *f).ok());

  auto rel = Run(
      "RETRIEVE o FROM PLANES o "
      "WHERE EVENTUALLY WITHIN 3 (INSIDE(o, P) AND ALWAYS FOR 2 INSIDE(o, P) "
      "AND EVENTUALLY AFTER 5 INSIDE(o, Q))",
      Interval(0, 100));
  ASSERT_TRUE(rel.ok()) << rel.status();
  EXPECT_FALSE(RowSet(*rel, good).empty());
  EXPECT_TRUE(RowSet(*rel, good).Contains(0));
  EXPECT_TRUE(RowSet(*rel, bad).empty());
}

TEST_F(FtlEvalTest, PaperQueryQ_DistUntilBothInside) {
  // Two planes flying together into P.
  ObjectId o1 = AddPlane({-10, 4}, {1, 0});
  ObjectId o2 = AddPlane({-12, 6}, {1, 0});  // 2 behind, stays within 5.
  // A third plane far away from both.
  AddPlane({500, 500}, {0, 0});
  auto rel = Run(
      "RETRIEVE o, n FROM PLANES o, PLANES n "
      "WHERE DIST(o, n) <= 5 UNTIL (INSIDE(o, P) AND INSIDE(n, P))",
      Interval(0, 60));
  ASSERT_TRUE(rel.ok()) << rel.status();
  // o1 enters P at t=10, o2 at t=12; both inside during [12, 20].
  // DIST(o1,o2) is constantly ~2.83 <= 5, so satisfaction extends to t=0.
  auto it = rel->rows.find({o2, o1});  // vars sorted: n, o -> binding (n, o)?
  // Variables are sorted alphabetically: ("n", "o").
  ASSERT_EQ(rel->vars, (std::vector<std::string>{"n", "o"}));
  // Pair (o = o1, n = o2): binding order (n=o2, o=o1).
  it = rel->rows.find({o2, o1});
  ASSERT_NE(it, rel->rows.end());
  EXPECT_TRUE(it->second.Contains(0));
  EXPECT_TRUE(it->second.Contains(20));
  EXPECT_FALSE(it->second.Contains(21));
}

TEST_F(FtlEvalTest, SubAttributeQueries) {
  // Paper: "the objects whose speed in the X direction is 5".
  ObjectId fast = AddPlane({0, 0}, {5, 0});
  ObjectId slow = AddPlane({0, 0}, {2, 0});
  auto rel = Run(
      "RETRIEVE o FROM PLANES o WHERE SPEED(o.X.POSITION) = 5",
      Interval(0, 10));
  ASSERT_TRUE(rel.ok()) << rel.status();
  EXPECT_EQ(RowSet(*rel, fast), IntervalSet(Interval(0, 10)));
  EXPECT_TRUE(RowSet(*rel, slow).empty());

  // updatetime sub-attribute equals the motion update time (0 here).
  auto rel2 = Run(
      "RETRIEVE o FROM PLANES o WHERE o.X.POSITION.updatetime = 0",
      Interval(0, 10));
  ASSERT_TRUE(rel2.ok()) << rel2.status();
  EXPECT_EQ(rel2->rows.size(), 2u);
}

TEST_F(FtlEvalTest, DynamicAttributeComparisonOverTime) {
  // Fuel drains from 100 at 2/tick: below 40 from tick 31 on.
  ObjectId a = AddPlane({0, 0}, {0, 0}, 50, 100.0, -2.0);
  auto rel = Run("RETRIEVE o FROM PLANES o WHERE o.FUEL < 40",
                 Interval(0, 100));
  ASSERT_TRUE(rel.ok()) << rel.status();
  EXPECT_EQ(RowSet(*rel, a), IntervalSet(Interval(31, 100)));
}

TEST_F(FtlEvalTest, TimeTermComparison) {
  AddPlane({0, 0}, {0, 0});
  auto rel = Run("RETRIEVE o FROM PLANES o WHERE time >= 42",
                 Interval(0, 100));
  ASSERT_TRUE(rel.ok()) << rel.status();
  ASSERT_EQ(rel->rows.size(), 1u);
  EXPECT_EQ(rel->rows.begin()->second, IntervalSet(Interval(42, 100)));
}

TEST_F(FtlEvalTest, AssignmentDetectsValueChange) {
  // [x := o.FUEL] NEXTTIME o.FUEL != x -- true whenever fuel is changing.
  ObjectId draining = AddPlane({0, 0}, {0, 0}, 50, 100.0, -1.0);
  ObjectId constant = AddPlane({0, 0}, {0, 0}, 50, 100.0, 0.0);
  auto rel = Run(
      "RETRIEVE o FROM PLANES o "
      "WHERE [x := o.FUEL] NEXTTIME o.FUEL != x",
      Interval(0, 20));
  ASSERT_TRUE(rel.ok()) << rel.status();
  // Draining object: satisfied at every tick with a next state, [0, 19].
  EXPECT_EQ(RowSet(*rel, draining), IntervalSet(Interval(0, 19)));
  EXPECT_TRUE(RowSet(*rel, constant).empty());
}

TEST_F(FtlEvalTest, AssignmentSpeedDoubles) {
  // Paper's query R (Section 2.3) in its instantaneous reading: an object
  // whose speed doubles within 10 ticks. With a piecewise route (speed 5
  // then 10 at t=6) the future history itself contains the change.
  ObjectId doubles = AddPlane({0, 0}, {5, 0});
  auto f = TimeFunction::Piecewise({{0, 5.0}, {6, 10.0}});
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(db_.UpdateDynamic("PLANES", doubles, kAttrX, 0.0, *f).ok());
  ObjectId steady = AddPlane({0, 0}, {5, 0});

  auto rel = Run(
      "RETRIEVE o FROM PLANES o "
      "WHERE [x := SPEED(o.X.POSITION)] EVENTUALLY WITHIN 10 "
      "SPEED(o.X.POSITION) = x * 2",
      Interval(0, 30));
  ASSERT_TRUE(rel.ok()) << rel.status();
  // Speed is 5 on [0,5] and 10 from 6: doubling observed from t=0..5
  // (within 10 of the change at 6).
  EXPECT_EQ(RowSet(*rel, doubles), IntervalSet(Interval(0, 5)));
  EXPECT_TRUE(RowSet(*rel, steady).empty());
}

TEST_F(FtlEvalTest, OutsideIsComplement) {
  ObjectId a = AddPlane({-20, 5}, {1, 0});  // Inside P during [20, 30].
  auto rel = Run("RETRIEVE o FROM PLANES o WHERE OUTSIDE(o, P)",
                 Interval(0, 60));
  ASSERT_TRUE(rel.ok()) << rel.status();
  EXPECT_EQ(RowSet(*rel, a),
            IntervalSet::FromIntervals({{0, 19}, {31, 60}}));
}

TEST_F(FtlEvalTest, WithinSphereRelation) {
  ObjectId a = AddPlane({-10, 0}, {1, 0});
  ObjectId b = AddPlane({10, 0}, {-1, 0});
  auto rel = Run(
      "RETRIEVE o, n FROM PLANES o, PLANES n "
      "WHERE n.PRICE >= 0 AND WITHIN_SPHERE(2.5, o, n)",
      Interval(0, 20));
  ASSERT_TRUE(rel.ok()) << rel.status();
  // |a-b| = 20 - 2t <= 5 for t in [7.5, 12.5] -> ticks 8..12.
  auto it = rel->rows.find({b, a});
  ASSERT_NE(it, rel->rows.end());
  EXPECT_EQ(it->second, IntervalSet(Interval(8, 12)));
}

TEST_F(FtlEvalTest, MovingRegionAnchoredAtObject) {
  // The paper's moving circle: a region drawn around a car that travels
  // with its motion vector. Region coordinates are anchor-relative.
  ASSERT_TRUE(db_.DefineRegion(
                     "NEAR_ME", Polygon::RegularApprox({0, 0}, 5.0, 32))
                  .ok());
  ObjectId car = AddPlane({0, 0}, {1, 0});
  ObjectId follows = AddPlane({-10, 0}, {1, 0});   // Constant offset -10.
  ObjectId crosses = AddPlane({50, 0}, {-1, 0});   // Passes the car at t=25.
  auto rel = Run(
      "RETRIEVE o, c FROM PLANES o, PLANES c WHERE INSIDE(o, NEAR_ME, c)",
      Interval(0, 60));
  ASSERT_TRUE(rel.ok()) << rel.status();
  // Vars sorted: (c, o). The follower is never within 5 of the car.
  EXPECT_EQ(rel->rows.count({car, follows}), 0u);
  // The crosser is within 5 of the car when |50 - 2t| <= 5 -> t in
  // [22.5, 27.5] -> ticks 23..27.
  auto it = rel->rows.find({car, crosses});
  ASSERT_NE(it, rel->rows.end());
  EXPECT_EQ(it->second, IntervalSet(Interval(23, 27)));
  // Every object is inside its own 5-radius circle the whole time.
  it = rel->rows.find({car, car});
  ASSERT_NE(it, rel->rows.end());
  EXPECT_EQ(it->second, IntervalSet(Interval(0, 60)));
}

TEST_F(FtlEvalTest, MovingRegionParsesAndPrints) {
  auto q = ParseQuery(
      "RETRIEVE o FROM PLANES o, PLANES c WHERE INSIDE(o, NEAR_ME, c)");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->where->anchor(), "c");
  auto q2 = ParseQuery(q->ToString());
  ASSERT_TRUE(q2.ok()) << q2.status();
  EXPECT_EQ(q->ToString(), q2->ToString());
}

TEST_F(FtlEvalTest, NegationViaComplement) {
  ObjectId a = AddPlane({-20, 5}, {1, 0});  // Inside P during [20, 30].
  auto rel = Run("RETRIEVE o FROM PLANES o WHERE NOT INSIDE(o, P)",
                 Interval(0, 60));
  ASSERT_TRUE(rel.ok()) << rel.status();
  EXPECT_EQ(RowSet(*rel, a), IntervalSet::FromIntervals({{0, 19}, {31, 60}}));
}

TEST_F(FtlEvalTest, SemijoinPrunesAndPreservesResults) {
  // 30 planes; only one is headed for P, so the AND's cheap INSIDE side
  // should shrink the expensive DIST side's domain to ~1 object.
  ObjectId inbound = AddPlane({-20, 5}, {1, 0});
  for (int i = 0; i < 29; ++i) {
    AddPlane({1000.0 + 10 * i, 1000}, {0, 0});
  }
  auto q = ParseQuery(
      "RETRIEVE o, n FROM PLANES o, PLANES n "
      "WHERE INSIDE(o, P) AND DIST(o, n) <= 50");
  ASSERT_TRUE(q.ok());
  Interval window(0, 80);
  FtlEvaluator eval(db_);
  auto rel = eval.EvaluateQuery(*q, window);
  auto oracle = NaiveFtlEvaluator(db_).EvaluateQuery(*q, window);
  ASSERT_TRUE(rel.ok()) << rel.status();
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  EXPECT_EQ(rel->rows, oracle->rows);
  EXPECT_FALSE(rel->rows.empty());
  // 30 INSIDE solves, then the DIST atom over 1 * 30 pairs instead of the
  // 30 * 30 an unrestricted join would solve.
  EXPECT_LE(eval.stats().atomic_evaluations, 2u * 30u);
  (void)inbound;
}

TEST_F(FtlEvalTest, QueryValidationErrors) {
  AddPlane({0, 0}, {0, 0});
  ASSERT_TRUE(db_.CreateClass("EMPTY", {}, /*spatial=*/true).ok());
  // Both evaluators validate through ValidateQuery, so every invalid query
  // fails in both, with the same status code.
  const char* kInvalid[] = {
      // Unbound variable in WHERE.
      "RETRIEVE o FROM PLANES o WHERE INSIDE(z, P)",
      // Unbound RETRIEVE variable.
      "RETRIEVE z FROM PLANES o WHERE INSIDE(o, P)",
      // Unbound RETRIEVE variable beside a valid two-variable formula.
      "RETRIEVE o, Un FROM PLANES o, PLANES n "
      "WHERE DIST(o, n) <= 4 AND INSIDE(o, P)",
      // Unknown class.
      "RETRIEVE o FROM NOPE o WHERE INSIDE(o, P)",
      // Unknown region.
      "RETRIEVE o FROM PLANES o WHERE INSIDE(o, NOPE)",
      // Unbound variable and unknown region: the binding error wins.
      "RETRIEVE o FROM PLANES o WHERE INSIDE(z, NOPE)",
      // Free value variable.
      "RETRIEVE o FROM PLANES o WHERE o.PRICE <= x",
      // FROM variable used by neither WHERE nor RETRIEVE.
      "RETRIEVE o FROM PLANES o, PLANES n WHERE INSIDE(o, P)",
      // Unknown region in an atom whose domain is empty.
      "RETRIEVE o FROM PLANES o, EMPTY e WHERE INSIDE(o, P) OR "
      "INSIDE(e, NOPE)",
  };
  for (const char* text : kInvalid) {
    auto query = ParseQuery(text);
    ASSERT_TRUE(query.ok()) << text << ": " << query.status();
    auto fast = FtlEvaluator(db_).EvaluateQuery(*query, Interval(0, 10));
    auto naive = NaiveFtlEvaluator(db_).EvaluateQuery(*query, Interval(0, 10));
    EXPECT_FALSE(fast.ok()) << text;
    EXPECT_FALSE(naive.ok()) << text;
    if (fast.ok() || naive.ok()) continue;
    EXPECT_EQ(fast.status().code(), naive.status().code())
        << text << "\nfast: " << fast.status()
        << "\nnaive: " << naive.status();
  }
}

TEST_F(FtlEvalTest, UnconstrainedRetrieveVarRangesOverClass) {
  ObjectId a = AddPlane({5, 5}, {0, 0});
  ObjectId b = AddPlane({5, 5}, {0, 0});
  // n is retrieved but unconstrained: every (o, n) pair of inside-objects.
  auto rel = Run("RETRIEVE o, n FROM PLANES o, PLANES n WHERE INSIDE(o, P)",
                 Interval(0, 5));
  ASSERT_TRUE(rel.ok()) << rel.status();
  EXPECT_EQ(rel->rows.size(), 4u);
  (void)a;
  (void)b;
}

// ---------------------------------------------------------------------------
// Property test: the interval evaluator must agree with the state-stepping
// reference evaluator on randomized grid worlds and formulas (the
// differential harness's generator, tests/sim_world.h).
// ---------------------------------------------------------------------------

class FtlAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FtlAgreementTest, IntervalEvaluatorMatchesNaive) {
  Rng rng(GetParam());
  for (int world = 0; world < 4; ++world) {
    MostDatabase db;
    ASSERT_NO_FATAL_FAILURE(test::BuildWorld(&rng, &db, 3));

    for (int round = 0; round < 6; ++round) {
      FtlQuery query;
      query.retrieve = {"o", "n"};
      query.from = {{"M", "o"}, {"M", "n"}};
      query.where = test::RandomFormula(&rng, 2);

      Interval window(0, 30);
      FtlEvaluator fast(db);
      NaiveFtlEvaluator naive(db);
      auto fast_rel = fast.EvaluateQuery(query, window);
      auto naive_rel = naive.EvaluateQuery(query, window);
      ASSERT_TRUE(fast_rel.ok()) << fast_rel.status() << "\nformula: "
                                 << query.where->ToString();
      ASSERT_TRUE(naive_rel.ok()) << naive_rel.status();
      EXPECT_EQ(fast_rel->vars, naive_rel->vars);
      EXPECT_EQ(fast_rel->rows, naive_rel->rows)
          << "formula: " << query.where->ToString() << "\nfast: "
          << fast_rel->ToString() << "\nnaive: " << naive_rel->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FtlAgreementTest,
                         ::testing::Values(1, 2, 3, 4, 5, 42, 1997));

}  // namespace
}  // namespace most
