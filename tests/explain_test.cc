// Golden tests for QueryManager::Explain — EXPLAIN ANALYZE for FTL. The
// profile tree mirrors the formula tree (the appendix's bottom-up
// algorithm computes one interval relation per subformula), and with
// include_timings=false the rendering is fully deterministic: wall times
// mask to "..ns" while tuple/interval cardinalities and counter deltas
// stay exact.

#include <gtest/gtest.h>

#include "ftl/parser.h"
#include "ftl/query_manager.h"
#include "obs/metrics.h"

namespace most {
namespace {

class ExplainTest : public ::testing::Test {
 protected:
  ExplainTest() : qm_(&db_, {.horizon = 200}) {
    EXPECT_TRUE(db_.CreateClass("CARS", {{"PRICE", false, ValueType::kDouble}},
                                /*spatial=*/true)
                    .ok());
    EXPECT_TRUE(
        db_.DefineRegion("P", Polygon::Rectangle({0, 0}, {10, 10})).ok());
  }

  ObjectId AddCar(Point2 pos, Vec2 vel) {
    auto obj = db_.CreateObject("CARS");
    EXPECT_TRUE(obj.ok());
    EXPECT_TRUE(db_.SetMotion("CARS", (*obj)->id(), pos, vel).ok());
    return (*obj)->id();
  }

  FtlQuery Parse(const std::string& s) {
    auto q = ParseQuery(s);
    EXPECT_TRUE(q.ok()) << q.status();
    return *q;
  }

  MostDatabase db_;
  QueryManager qm_;
};

TEST_F(ExplainTest, FullRefreshGolden) {
  AddCar({-20, 5}, {1, 0});  // Inside P during [20, 30].
  AddCar({100, 100}, {0, 0});
  auto id = qm_.RegisterContinuous(
      Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(qm_.ContinuousAnswer(*id).ok());

  auto text = qm_.Explain(*id, /*include_timings=*/false);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_EQ(*text,
            "Query: RETRIEVE o FROM CARS o WHERE INSIDE(o, P)\n"
            "Window: [0, 200]\n"
            "Path: full (initial)\n"
            "Refresh: #1 dirty_objects=0 total=..ns\n"
            "-> EvaluateQuery  (tuples=1 intervals=1 time=..ns)\n"
            "  -> Inside INSIDE(o, P)  (tuples=1 intervals=1 time=..ns"
            " atoms=2 inst=2)\n");
}

TEST_F(ExplainTest, DeltaRefreshGolden) {
  ObjectId car = AddCar({-20, 5}, {1, 0});
  for (int i = 0; i < 5; ++i) AddCar({100.0 + i, 100}, {0, 0});
  auto id = qm_.RegisterContinuous(
      Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(qm_.ContinuousAnswer(*id).ok());

  // One updated object out of six: under the dirty fraction, so the
  // refresh is served by the delta path with a single restricted pass.
  ASSERT_TRUE(db_.SetMotion("CARS", car, {-10, 5}, {1, 0}).ok());
  ASSERT_TRUE(qm_.ContinuousAnswer(*id).ok());

  auto text = qm_.Explain(*id, /*include_timings=*/false);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_EQ(*text,
            "Query: RETRIEVE o FROM CARS o WHERE INSIDE(o, P)\n"
            "Window: [0, 200]\n"
            "Path: delta (coalesced updates)\n"
            "Refresh: #2 dirty_objects=1 total=..ns\n"
            "-> DeltaRefresh  (tuples=1 intervals=0 time=..ns)\n"
            "  -> RestrictedPass o (1 dirty)  (tuples=1 intervals=1"
            " time=..ns)\n"
            "    -> Inside INSIDE(o, P)  (tuples=1 intervals=1 time=..ns"
            " atoms=1 inst=1)\n");
}

// Two continuous queries over CARS share INSIDE(o, P). One TickAll
// refreshes both through the delta path in the same database version: the
// first builds the restricted INSIDE relation, the second borrows it from
// the manager's evaluation context, and its EXPLAIN says so instead of
// profiling the atom again.
TEST_F(ExplainTest, SharedSubformulaGolden) {
  ObjectId car = AddCar({-20, 5}, {1, 0});
  for (int i = 0; i < 5; ++i) AddCar({100.0 + i, 100}, {0, 0});
  auto first = qm_.RegisterContinuous(Parse(
      "RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 30 INSIDE(o, P)"));
  auto second = qm_.RegisterContinuous(
      Parse("RETRIEVE o FROM CARS o WHERE ALWAYS FOR 5 INSIDE(o, P)"));
  ASSERT_TRUE(first.ok() && second.ok());

  ASSERT_TRUE(db_.SetMotion("CARS", car, {-10, 5}, {1, 0}).ok());
  ASSERT_TRUE(qm_.TickAll().ok());

  auto built = qm_.Explain(*first, /*include_timings=*/false);
  ASSERT_TRUE(built.ok()) << built.status();
  EXPECT_EQ(*built,
            "Query: RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 30 "
            "(INSIDE(o, P))\n"
            "Window: [0, 200]\n"
            "Path: delta (coalesced updates)\n"
            "Refresh: #2 dirty_objects=1 total=..ns\n"
            "-> DeltaRefresh  (tuples=1 intervals=0 time=..ns)\n"
            "  -> RestrictedPass o (1 dirty)  (tuples=1 intervals=1"
            " time=..ns)\n"
            "    -> EventuallyWithin EVENTUALLY WITHIN 30 (INSIDE(o, P))"
            "  (tuples=1 intervals=1 time=..ns atoms=1 inst=1)\n"
            "      -> Inside INSIDE(o, P)  (tuples=1 intervals=1 time=..ns"
            " atoms=1 inst=1)\n");
  auto shared = qm_.Explain(*second, /*include_timings=*/false);
  ASSERT_TRUE(shared.ok()) << shared.status();
  EXPECT_EQ(*shared,
            "Query: RETRIEVE o FROM CARS o WHERE ALWAYS FOR 5 "
            "(INSIDE(o, P))\n"
            "Window: [0, 200]\n"
            "Path: delta (coalesced updates)\n"
            "Refresh: #2 dirty_objects=1 total=..ns\n"
            "-> DeltaRefresh  (tuples=1 intervals=0 time=..ns)\n"
            "  -> RestrictedPass o (1 dirty)  (tuples=1 intervals=1"
            " time=..ns)\n"
            "    -> AlwaysFor ALWAYS FOR 5 (INSIDE(o, P))  (tuples=1"
            " intervals=1 time=..ns)\n"
            "      -> Inside INSIDE(o, P)  (tuples=1 intervals=1 time=..ns"
            " shared=1)\n");
}

// Paper query R (Section 2.3) as a persistent query: each read refreshes
// its registration over the history, so after the two speed updates the
// last read took the delta path over the one updated car.
TEST_F(ExplainTest, PersistentDeltaRefreshGolden) {
  ObjectId car = AddCar({0, 0}, {5, 0});
  for (int i = 0; i < 5; ++i) AddCar({100.0 + i, 100}, {0, 0});
  auto id = qm_.RegisterPersistent(
      Parse("RETRIEVE o FROM CARS o "
            "WHERE [x := SPEED(o.X.POSITION)] EVENTUALLY WITHIN 10 "
            "SPEED(o.X.POSITION) >= x * 2"));
  ASSERT_TRUE(id.ok());
  db_.clock().AdvanceTo(1);
  ASSERT_TRUE(db_.UpdateDynamic("CARS", car, kAttrX, 5.0,
                                TimeFunction::Linear(7.0))
                  .ok());
  ASSERT_TRUE(qm_.PersistentAnswer(*id).ok());
  db_.clock().AdvanceTo(2);
  ASSERT_TRUE(db_.UpdateDynamic("CARS", car, kAttrX, 12.0,
                                TimeFunction::Linear(10.0))
                  .ok());
  ASSERT_TRUE(qm_.PersistentAnswer(*id).ok());

  auto text = qm_.Explain(*id, /*include_timings=*/false);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_EQ(*text,
            "Query: RETRIEVE o FROM CARS o WHERE [x := SPEED(o.X.POSITION)] "
            "(EVENTUALLY WITHIN 10 (SPEED(o.X.POSITION) >= (x * 2)))\n"
            "Window: [0, 200]\n"
            "Path: delta (coalesced updates)\n"
            "Refresh: #3 dirty_objects=1 total=..ns\n"
            "-> DeltaRefresh  (tuples=6 intervals=0 time=..ns)\n"
            "  -> RestrictedPass o (1 dirty)  (tuples=1 intervals=1"
            " time=..ns)\n"
            "    -> Assign [x := SPEED(o.X.POSITION)] (EVENTUALLY WITHIN 10"
            " (SPEED(o...  (tuples=1 intervals=1 time=..ns atoms=3 inst=4"
            " join_pairs=1 assign_subevals=3)\n"
            // One subevaluation per speed the history holds: 5, 7 and 10.
            "      -> EventuallyWithin EVENTUALLY WITHIN 10"
            " (SPEED(o.X.POSITION) >= (5 * 2))  (tuples=1 intervals=1"
            " time=..ns atoms=1 inst=1)\n"
            "        -> Compare SPEED(o.X.POSITION) >= (5 * 2)  (tuples=1"
            " intervals=1 time=..ns atoms=1 inst=1)\n"
            "      -> EventuallyWithin EVENTUALLY WITHIN 10"
            " (SPEED(o.X.POSITION) >= (7 * 2))  (tuples=0 intervals=0"
            " time=..ns atoms=1 inst=1)\n"
            "        -> Compare SPEED(o.X.POSITION) >= (7 * 2)  (tuples=0"
            " intervals=0 time=..ns atoms=1 inst=1)\n"
            "      -> EventuallyWithin EVENTUALLY WITHIN 10"
            " (SPEED(o.X.POSITION) >= (10 * 2))  (tuples=0 intervals=0"
            " time=..ns atoms=1 inst=1)\n"
            "        -> Compare SPEED(o.X.POSITION) >= (10 * 2)  (tuples=0"
            " intervals=0 time=..ns atoms=1 inst=1)\n");
}

TEST_F(ExplainTest, NestedFormulaMirrorsTheTree) {
  AddCar({-20, 5}, {1, 0});
  auto id = qm_.RegisterContinuous(Parse(
      "RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 50 INSIDE(o, P)"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(qm_.ContinuousAnswer(*id).ok());
  auto text = qm_.Explain(*id, /*include_timings=*/false);
  ASSERT_TRUE(text.ok()) << text.status();
  // The bounded-eventually node wraps the INSIDE leaf one level deeper.
  EXPECT_NE(text->find("-> EvaluateQuery"), std::string::npos);
  EXPECT_NE(text->find("    -> Inside"), std::string::npos);
}

TEST_F(ExplainTest, UnknownIdIsNotFound) {
  auto text = qm_.Explain(999);
  EXPECT_FALSE(text.ok());
  EXPECT_EQ(text.status().code(), StatusCode::kNotFound);
}

TEST_F(ExplainTest, ProfileSnapshotSurvivesLaterRefreshes) {
  ObjectId car = AddCar({-20, 5}, {1, 0});
  auto id = qm_.RegisterContinuous(
      Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(qm_.ContinuousAnswer(*id).ok());
  auto first = qm_.Profile(*id);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ((*first)->path, "full");

  ASSERT_TRUE(db_.SetMotion("CARS", car, {-10, 5}, {1, 0}).ok());
  ASSERT_TRUE(qm_.ContinuousAnswer(*id).ok());
  auto second = qm_.Profile(*id);
  ASSERT_TRUE(second.ok());
  // The earlier snapshot is untouched; the new refresh installed a fresh
  // profile object rather than mutating the old one.
  EXPECT_EQ((*first)->path, "full");
  EXPECT_EQ((*first)->refresh_seq, 1u);
  EXPECT_EQ((*second)->refresh_seq, 2u);
}

TEST_F(ExplainTest, ProfilingNeverChangesAnswers) {
  // Differential guard: the manager's answers are the same with the metrics
  // registry on and off, and an evaluator with a profile sink returns the
  // same relation as one without.
  auto run = [&](bool metrics) {
    obs::MetricsRegistry::Global().set_enabled(metrics);
    MostDatabase db;
    EXPECT_TRUE(db.CreateClass("CARS", {{"PRICE", false, ValueType::kDouble}},
                               /*spatial=*/true)
                    .ok());
    EXPECT_TRUE(
        db.DefineRegion("P", Polygon::Rectangle({0, 0}, {10, 10})).ok());
    QueryManager qm(&db, {.horizon = 200});
    std::vector<ObjectId> cars;
    for (int i = 0; i < 6; ++i) {
      auto obj = db.CreateObject("CARS");
      EXPECT_TRUE(obj.ok());
      cars.push_back((*obj)->id());
      EXPECT_TRUE(
          db.SetMotion("CARS", cars.back(), {-20.0 - i, 5}, {1, 0}).ok());
    }
    const FtlQuery q =
        *ParseQuery("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)");
    auto id = qm.RegisterContinuous(q);
    EXPECT_TRUE(id.ok());
    EXPECT_TRUE(db.SetMotion("CARS", cars[2], {0, 5}, {0.5, 0}).ok());
    auto answer = qm.ContinuousAnswer(*id);
    EXPECT_TRUE(answer.ok());
    obs::ProfileNode sink;
    const Interval window(0, 200);
    auto profiled = FtlEvaluator(db, {.profile = &sink}).EvaluateQuery(q, window);
    auto plain = FtlEvaluator(db).EvaluateQuery(q, window);
    EXPECT_TRUE(profiled.ok() && plain.ok());
    if (profiled.ok() && plain.ok()) EXPECT_EQ(profiled->rows, plain->rows);
    EXPECT_FALSE(sink.children.empty());
    obs::MetricsRegistry::Global().set_enabled(true);
    return *answer;
  };
  std::vector<AnswerTuple> baseline = run(false);
  EXPECT_EQ(run(true), baseline);
  EXPECT_FALSE(baseline.empty());
}

}  // namespace
}  // namespace most
