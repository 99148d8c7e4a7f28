// End-to-end simulation mixing every subsystem: a fleet with ongoing
// motion updates, continuous queries, triggers, and the MOST-on-DBMS
// mirror — with cross-checked invariants at every step.

#include <gtest/gtest.h>

#include "core/most_on_dbms.h"
#include "ftl/naive_eval.h"
#include "ftl/parser.h"
#include "ftl/query_manager.h"
#include "workload/fleet.h"

namespace most {
namespace {

TEST(IntegrationTest, LongRunningSimulationInvariants) {
  MostDatabase db;
  FleetGenerator fleet({.num_vehicles = 60,
                        .area = 500.0,
                        .change_probability = 0.05,
                        .seed = 1997});
  ASSERT_TRUE(fleet.Populate(&db, "CARS").ok());
  ASSERT_TRUE(
      db.DefineRegion("P", Polygon::Rectangle({150, 150}, {350, 350})).ok());

  QueryManager qm(&db, {.horizon = 128});
  auto inside_now = ParseQuery("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)");
  auto reach_soon = ParseQuery(
      "RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 40 INSIDE(o, P)");
  ASSERT_TRUE(inside_now.ok());
  ASSERT_TRUE(reach_soon.ok());

  auto cq = qm.RegisterContinuous(*inside_now);
  ASSERT_TRUE(cq.ok());
  int trigger_fires = 0;
  auto trig = qm.RegisterTrigger(
      *reach_soon,
      [&](const std::vector<ObjectId>&, Tick) { ++trigger_fires; });
  ASSERT_TRUE(trig.ok());

  auto updates = fleet.GenerateUpdates(300);
  size_t next_update = 0;
  for (Tick t = 1; t <= 300; ++t) {
    db.clock().AdvanceTo(t);
    while (next_update < updates.size() && updates[next_update].at <= t) {
      ASSERT_TRUE(
          FleetGenerator::Apply(&db, "CARS", updates[next_update]).ok());
      ++next_update;
    }
    ASSERT_TRUE(qm.Poll().ok());

    if (t % 50 != 0) continue;
    // Invariant 1: the continuous query's current answer equals a fresh
    // instantaneous evaluation.
    auto from_cq = qm.CurrentAnswer(*cq);
    auto fresh = qm.Instantaneous(*inside_now);
    ASSERT_TRUE(from_cq.ok());
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(*from_cq, *fresh) << "t=" << t;

    // Invariant 2: the displayed answer equals direct geometry.
    std::set<ObjectId> displayed;
    for (const auto& binding : *from_cq) displayed.insert(binding[0]);
    auto cars = db.GetClass("CARS");
    ASSERT_TRUE(cars.ok());
    auto region = db.GetRegion("P");
    for (const auto& [id, obj] : (*cars)->objects()) {
      EXPECT_EQ(displayed.count(id) > 0,
                (*region)->Contains(obj.PositionAt(t)))
          << "t=" << t << " id=" << id;
    }
  }
  EXPECT_GT(trigger_fires, 0);
  EXPECT_GT(db.update_count(), 60u);
}

TEST(IntegrationTest, InMemoryAndOnDbmsAgree) {
  // The same world represented twice: natively and via the Section 5.1
  // relational layering; both must return the same instantaneous answers
  // to a dynamic range query.
  MostDatabase native;
  Database host;
  Clock host_clock;
  MostOnDbms layered(&host, &host_clock);
  ASSERT_TRUE(native.CreateClass("T", {{"A", true, ValueType::kNull}}).ok());
  ASSERT_TRUE(layered.CreateTable("T", {{"A", true, ValueType::kNull}}).ok());

  Rng rng(7);
  std::vector<ObjectId> native_ids;
  std::vector<RowId> layered_ids;
  for (int i = 0; i < 50; ++i) {
    double v = rng.UniformDouble(-100, 100);
    double slope = rng.UniformDouble(-2, 2);
    auto obj = native.CreateObject("T");
    ASSERT_TRUE(obj.ok());
    ASSERT_TRUE(native
                    .UpdateDynamic("T", (*obj)->id(), "A", v,
                                   TimeFunction::Linear(slope))
                    .ok());
    native_ids.push_back((*obj)->id());
    auto rid = layered.Insert(
        "T", {},
        {{"A", DynamicAttribute(v, 0, TimeFunction::Linear(slope))}});
    ASSERT_TRUE(rid.ok());
    layered_ids.push_back(*rid);
  }

  for (Tick t : {0, 10, 40, 90}) {
    native.clock().AdvanceTo(t);
    host_clock.AdvanceTo(t);
    // Native: FTL instantaneous query A <= 20.
    QueryManager qm(&native, {.horizon = 16});
    auto q = ParseQuery("RETRIEVE o FROM T o WHERE o.A <= 20");
    ASSERT_TRUE(q.ok());
    auto native_answer = qm.Instantaneous(*q);
    ASSERT_TRUE(native_answer.ok());
    std::set<size_t> native_set;
    for (const auto& b : *native_answer) {
      native_set.insert(static_cast<size_t>(
          std::find(native_ids.begin(), native_ids.end(), b[0]) -
          native_ids.begin()));
    }
    // Layered: SELECT with the dynamic atom decomposition.
    SelectQuery sq{.table = "T",
                   .where = Expr::Compare(Expr::CmpOp::kLe, Expr::Column("A"),
                                          Expr::Literal(Value(20.0))),
                   .project = {}};
    auto rs = layered.ExecuteSelect(sq);
    ASSERT_TRUE(rs.ok());
    EXPECT_EQ(rs->rows.size(), native_set.size()) << "t=" << t;
  }
}

TEST(IntegrationTest, NaiveAndIntervalAgreeOnFleetWorkload) {
  // A coarser version of the randomized agreement test, on a realistic
  // fleet trace with piecewise routes applied mid-history.
  MostDatabase db;
  FleetGenerator fleet({.num_vehicles = 15,
                        .area = 200.0,
                        .change_probability = 0.05,
                        .seed = 3});
  ASSERT_TRUE(fleet.Populate(&db, "CARS").ok());
  ASSERT_TRUE(
      db.DefineRegion("P", Polygon::Rectangle({50, 50}, {150, 150})).ok());

  const char* queries[] = {
      "RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 20 INSIDE(o, P)",
      "RETRIEVE o FROM CARS o WHERE OUTSIDE(o, P) UNTIL INSIDE(o, P)",
      "RETRIEVE o, n FROM CARS o, CARS n "
      "WHERE DIST(o, n) <= 30 AND EVENTUALLY WITHIN 10 INSIDE(o, P)",
  };
  for (const char* text : queries) {
    auto q = ParseQuery(text);
    ASSERT_TRUE(q.ok());
    FtlEvaluator fast(db);
    NaiveFtlEvaluator naive(db);
    auto fast_rel = fast.EvaluateQuery(*q, Interval(0, 50));
    auto naive_rel = naive.EvaluateQuery(*q, Interval(0, 50));
    ASSERT_TRUE(fast_rel.ok()) << fast_rel.status();
    ASSERT_TRUE(naive_rel.ok()) << naive_rel.status();
    EXPECT_EQ(fast_rel->rows, naive_rel->rows) << text;
  }
}

}  // namespace
}  // namespace most
