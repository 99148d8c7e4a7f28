#include "ftl/query_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "ftl/eval.h"
#include "ftl/parser.h"
#include "scoped_governor_limits.h"

namespace most {
namespace {

class QueryManagerTest : public ::testing::Test {
 protected:
  QueryManagerTest() : qm_(&db_, {.horizon = 200}) {
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

TEST_F(QueryManagerTest, InstantaneousAnswerDependsOnEntryTime) {
  // Car crosses P during ticks [20, 30].
  ObjectId car = AddCar({-20, 5}, {1, 0});
  FtlQuery q = Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)");

  auto at0 = qm_.Instantaneous(q);
  ASSERT_TRUE(at0.ok());
  EXPECT_TRUE(at0->empty());

  db_.clock().AdvanceTo(25);
  auto at25 = qm_.Instantaneous(q);
  ASSERT_TRUE(at25.ok());
  ASSERT_EQ(at25->size(), 1u);
  EXPECT_EQ((*at25)[0], (std::vector<ObjectId>{car}));

  // The defining MOST behaviour: a different answer at a different time
  // with no intervening update.
  db_.clock().AdvanceTo(50);
  auto at50 = qm_.Instantaneous(q);
  ASSERT_TRUE(at50.ok());
  EXPECT_TRUE(at50->empty());
}

TEST_F(QueryManagerTest, InstantaneousFutureQuery) {
  // "Will reach P within 10 ticks": answered from the motion vector alone.
  AddCar({-5, 5}, {1, 0});  // Enters P (x >= 0) at t=5.
  FtlQuery q =
      Parse("RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 10 INSIDE(o, P)");
  auto now = qm_.Instantaneous(q);
  ASSERT_TRUE(now.ok());
  EXPECT_EQ(now->size(), 1u);
}

TEST_F(QueryManagerTest, FirstSatisfactionTimesAreReachingTimes) {
  // Paper: "Display the tuples (motel, reaching-time) representing the
  // motels that I will reach, and the time when I will do so".
  ObjectId fast = AddCar({-10, 5}, {1, 0});   // Reaches P (x>=0) at t=10.
  ObjectId slow = AddCar({-40, 5}, {0.5, 0}); // Reaches P at t=80.
  AddCar({-500, 5}, {0, 0});                  // Never reaches P.
  FtlQuery q = Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)");
  auto times = qm_.FirstSatisfactionTimes(q);
  ASSERT_TRUE(times.ok()) << times.status();
  ASSERT_EQ(times->size(), 2u);
  EXPECT_EQ((*times)[0].binding, (std::vector<ObjectId>{fast}));
  EXPECT_EQ((*times)[0].at, 10);
  EXPECT_EQ((*times)[1].binding, (std::vector<ObjectId>{slow}));
  EXPECT_EQ((*times)[1].at, 80);
}

TEST_F(QueryManagerTest, ContinuousQuerySingleEvaluation) {
  ObjectId car = AddCar({-20, 5}, {1, 0});  // In P during [20, 30].
  FtlQuery q = Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)");
  auto id = qm_.RegisterContinuous(q);
  ASSERT_TRUE(id.ok());

  // Answer(CQ) contains the interval tuple.
  auto answer = qm_.ContinuousAnswer(*id);
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->size(), 1u);
  EXPECT_EQ((*answer)[0].binding, (std::vector<ObjectId>{car}));
  EXPECT_EQ((*answer)[0].interval, Interval(20, 30));

  // Display changes per tick without re-evaluation.
  for (Tick t : {0, 19, 20, 30, 31}) {
    db_.clock().AdvanceTo(t);
    auto current = qm_.CurrentAnswer(*id);
    ASSERT_TRUE(current.ok());
    EXPECT_EQ(current->size(), (t >= 20 && t <= 30) ? 1u : 0u) << "t=" << t;
  }
  EXPECT_EQ(qm_.EvaluationCount(*id).value(), 1u);
}

TEST_F(QueryManagerTest, ContinuousQueryReevaluatedOnUpdate) {
  ObjectId car = AddCar({-20, 5}, {1, 0});
  FtlQuery q = Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)");
  auto id = qm_.RegisterContinuous(q);
  ASSERT_TRUE(id.ok());
  ASSERT_EQ(qm_.EvaluationCount(*id).value(), 1u);

  // Car turns away at t=10: the old tuple (20..30) must disappear.
  db_.clock().AdvanceTo(10);
  ASSERT_TRUE(db_.SetMotion("CARS", car, {-10, 5}, {0, 1}).ok());
  auto answer = qm_.ContinuousAnswer(*id);
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->empty());
  EXPECT_EQ(qm_.EvaluationCount(*id).value(), 2u);

  // Lookups without updates do not re-evaluate.
  db_.clock().AdvanceTo(20);
  ASSERT_TRUE(qm_.CurrentAnswer(*id).ok());
  EXPECT_EQ(qm_.EvaluationCount(*id).value(), 2u);
}

TEST_F(QueryManagerTest, ContinuousQueryExpiresAndSlides) {
  AddCar({5, 5}, {0, 0});  // Always inside P.
  FtlQuery q = Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)");
  auto id = qm_.RegisterContinuous(q);
  ASSERT_TRUE(id.ok());
  // Move past the horizon: the answer window must slide via re-evaluation.
  db_.clock().AdvanceTo(500);
  auto current = qm_.CurrentAnswer(*id);
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(current->size(), 1u);
  EXPECT_EQ(qm_.EvaluationCount(*id).value(), 2u);
}

TEST_F(QueryManagerTest, CancelRemovesQuery) {
  FtlQuery q = Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)");
  auto id = qm_.RegisterContinuous(q);
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(qm_.Cancel(*id).ok());
  EXPECT_FALSE(qm_.Cancel(*id).ok());
  EXPECT_FALSE(qm_.ContinuousAnswer(*id).ok());
}

TEST_F(QueryManagerTest, PersistentQueryPaperExampleR) {
  // Paper Section 2.3, query R: "retrieve the objects whose speed in the
  // X direction doubles within 10 minutes". Speed 5 at t=0, updated to 7
  // at t=1 and to 10 at t=2.
  ObjectId car = AddCar({0, 0}, {5, 0});
  FtlQuery r = Parse(
      "RETRIEVE o FROM CARS o "
      "WHERE [x := SPEED(o.X.POSITION)] EVENTUALLY WITHIN 10 "
      "SPEED(o.X.POSITION) >= x * 2");
  auto id = qm_.RegisterPersistent(r);
  ASSERT_TRUE(id.ok());

  // At time 0: speed constant in every future state -> empty.
  auto at0 = qm_.PersistentAnswer(*id);
  ASSERT_TRUE(at0.ok());
  EXPECT_TRUE(at0->empty());

  db_.clock().AdvanceTo(1);
  ASSERT_TRUE(db_.UpdateDynamic("CARS", car, kAttrX, 5.0,
                                TimeFunction::Linear(7.0))
                  .ok());
  auto at1 = qm_.PersistentAnswer(*id);
  ASSERT_TRUE(at1.ok());
  EXPECT_TRUE(at1->empty());  // 7 < 2 * 5.

  db_.clock().AdvanceTo(2);
  ASSERT_TRUE(db_.UpdateDynamic("CARS", car, kAttrX, 12.0,
                                TimeFunction::Linear(10.0))
                  .ok());
  auto at2 = qm_.PersistentAnswer(*id);
  ASSERT_TRUE(at2.ok());
  // The history anchored at 0 now contains speed 5 at t in [0,0] and
  // speed 10 from t=2: doubling observed within 10 of t=0.
  ASSERT_FALSE(at2->empty());
  bool found_at_anchor = false;
  for (const AnswerTuple& t : *at2) {
    if (t.binding == std::vector<ObjectId>{car} && t.interval.Contains(0)) {
      found_at_anchor = true;
    }
  }
  EXPECT_TRUE(found_at_anchor);

  // Entered as instantaneous at time 2, the same query stays empty: the
  // future history has constant speed 10 (the paper's point).
  auto inst = qm_.Instantaneous(r);
  ASSERT_TRUE(inst.ok());
  EXPECT_TRUE(inst->empty());
}

TEST_F(QueryManagerTest, PersistentQueryRecordsPositionHistory) {
  // Object enters P in the recorded past of the persistent query.
  ObjectId car = AddCar({-5, 5}, {1, 0});  // Enters P at t=5.
  FtlQuery q = Parse("RETRIEVE o FROM CARS o WHERE EVENTUALLY INSIDE(o, P)");
  auto id = qm_.RegisterPersistent(q);
  ASSERT_TRUE(id.ok());

  // At t=3 the car turns away; it never actually enters P after t=3, but
  // the history anchored at 0 still sees it entering at t=5? No: the
  // recorded history replaces the projection from t=3 on.
  db_.clock().AdvanceTo(3);
  ASSERT_TRUE(db_.SetMotion("CARS", car, {-2, 5}, {-1, 0}).ok());
  auto answer = qm_.PersistentAnswer(*id);
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->empty());

  // If instead it accelerates into P, the recorded history sees an entry.
  db_.clock().AdvanceTo(4);
  ASSERT_TRUE(db_.SetMotion("CARS", car, {-3, 5}, {2, 0}).ok());
  answer = qm_.PersistentAnswer(*id);
  ASSERT_TRUE(answer.ok());
  ASSERT_FALSE(answer->empty());
}

TEST_F(QueryManagerTest, PersistentAnswerReadEveryTickMatchesFirstRead) {
  // qm_ reads at every tick, each a refresh over the objects updated
  // since the previous read; manager k, anchored with qm_, reads for the
  // first time at tick k, one refresh over everything updated since the
  // anchor. Both must agree.
  constexpr Tick kTicks = 12;
  std::vector<std::unique_ptr<QueryManager>> first_read;
  std::vector<QueryManager::QueryId> first_read_ids;
  std::vector<ObjectId> cars;
  for (int i = 0; i < 6; ++i) {
    cars.push_back(AddCar({-10.0 - i, 1.0 + i}, {1, 0}));
    ASSERT_TRUE(
        db_.UpdateStatic("CARS", cars.back(), "PRICE", Value(10.0 * i)).ok());
  }
  FtlQuery q = Parse(
      "RETRIEVE o FROM CARS o "
      "WHERE o.PRICE <= 30 AND EVENTUALLY WITHIN 15 INSIDE(o, P)");
  auto every = qm_.RegisterPersistent(q);
  ASSERT_TRUE(every.ok());
  for (Tick t = 0; t <= kTicks; ++t) {
    first_read.push_back(
        std::make_unique<QueryManager>(&db_, QueryManager::Options{
                                                 .horizon = 200}));
    auto id = first_read.back()->RegisterPersistent(q);
    ASSERT_TRUE(id.ok());
    first_read_ids.push_back(*id);
  }
  ObjectId late = 0;  // Created after anchoring.
  for (Tick t = 1; t <= kTicks; ++t) {
    db_.clock().AdvanceTo(t);
    ASSERT_TRUE(db_.SetMotion("CARS", cars[1 + t % 5],
                              {-5.0 + t, 2.0 + t % 3},
                              {t % 2 == 0 ? 1.0 : -1.0, 0})
                    .ok());
    if (t % 4 == 0) {
      ASSERT_TRUE(db_.UpdateStatic("CARS", cars[1 + (t + 1) % 5], "PRICE",
                                   Value(5.0 * t))
                      .ok());
    }
    if (t == 3) {
      auto obj = db_.CreateObject("CARS");
      ASSERT_TRUE(obj.ok());
      late = (*obj)->id();
      ASSERT_TRUE(db_.UpdateStatic("CARS", late, "PRICE", Value(1.0)).ok());
      ASSERT_TRUE(db_.UpdateDynamic("CARS", late, kAttrX, -4.0,
                                    TimeFunction::Linear(1.0))
                      .ok());
      ASSERT_TRUE(
          db_.UpdateDynamic("CARS", late, kAttrY, 5.0, TimeFunction()).ok());
    }
    if (t == 5) {
      ASSERT_TRUE(
          db_.UpdateStatic("CARS", late, "PRICE", Value(int64_t{50})).ok());
    }
    if (t == 7) {
      ASSERT_TRUE(
          db_.UpdateStatic("CARS", late, "PRICE", Value(int64_t{2})).ok());
    }
    if (t == 8) {  // Equal to 2.
      ASSERT_TRUE(db_.UpdateStatic("CARS", late, "PRICE", Value(2.0)).ok());
    }
    if (t == 9) ASSERT_TRUE(db_.DeleteObject("CARS", cars[0]).ok());
    auto read = qm_.PersistentAnswer(*every);
    ASSERT_TRUE(read.ok()) << read.status();
    auto fresh = first_read[t]->PersistentAnswer(first_read_ids[t]);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    EXPECT_EQ(*read, *fresh) << "t=" << t;
  }
  // A region redefinition reaches the history too.
  ASSERT_TRUE(
      db_.DefineRegion("P", Polygon::Rectangle({0, 0}, {30, 10})).ok());
  auto read = qm_.PersistentAnswer(*every);
  ASSERT_TRUE(read.ok());
  auto fresh = first_read[0]->PersistentAnswer(first_read_ids[0]);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->empty());
  EXPECT_EQ(*read, *fresh);
}

TEST_F(QueryManagerTest, PersistentReadRefreshesOnlyChangedObjects) {
  // Eight parked cars west of P. Each tick one drives east, into P, and a
  // read sees it; a second read at that tick evaluates nothing; the car
  // then stops again within the tick, and a third read sees that write
  // too (the history's clock never leaves the anchor, so only its version
  // tells the two states apart).
  std::vector<ObjectId> cars;
  for (int i = 0; i < 8; ++i) cars.push_back(AddCar({-10.0 - i, 5}, {0, 0}));
  auto id = qm_.RegisterPersistent(
      Parse("RETRIEVE o FROM CARS o WHERE EVENTUALLY INSIDE(o, P)"));
  ASSERT_TRUE(id.ok());
  auto binds = [](const std::vector<AnswerTuple>& tuples, ObjectId car) {
    return std::any_of(tuples.begin(), tuples.end(), [&](const AnswerTuple& t) {
      return t.binding == std::vector<ObjectId>{car};
    });
  };
  for (Tick t = 1; t <= 8; ++t) {
    SCOPED_TRACE("t=" + std::to_string(t));
    db_.clock().AdvanceTo(t);
    const ObjectId car = cars[t - 1];
    const Point2 parked{-10.0 - static_cast<double>(t - 1), 5};
    auto before = qm_.QueryRefreshCounters(*id);
    ASSERT_TRUE(before.ok());
    ASSERT_TRUE(db_.SetMotion("CARS", car, parked, {1, 0}).ok());
    auto moving = qm_.PersistentAnswer(*id);
    ASSERT_TRUE(moving.ok()) << moving.status();
    EXPECT_TRUE(binds(*moving, car));
    auto after = qm_.QueryRefreshCounters(*id);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->delta_evaluations, before->delta_evaluations + 1);
    EXPECT_EQ(after->full_evaluations, before->full_evaluations);
    auto profile = qm_.Profile(*id);
    ASSERT_TRUE(profile.ok());
    EXPECT_EQ((*profile)->path, "delta");
    EXPECT_EQ((*profile)->dirty_objects, 1u);

    auto evaluations = qm_.EvaluationCount(*id);
    ASSERT_TRUE(evaluations.ok());
    auto again = qm_.PersistentAnswer(*id);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, *moving);
    EXPECT_EQ(qm_.EvaluationCount(*id).value(), *evaluations);

    ASSERT_TRUE(db_.SetMotion("CARS", car, parked, {0, 0}).ok());
    auto stopped = qm_.PersistentAnswer(*id);
    ASSERT_TRUE(stopped.ok());
    EXPECT_FALSE(binds(*stopped, car));
    EXPECT_EQ(qm_.QueryRefreshCounters(*id)->delta_evaluations,
              before->delta_evaluations + 2);
  }
}

TEST_F(QueryManagerTest, PersistentHistoryHoldsATeleportFromItsUpdateTick) {
  // A car parked at (100, 100) is set down inside P at t = 1. The history
  // holds it at (5, 5) from t = 1 on, so from the anchor on it eventually
  // is inside P.
  ObjectId car = AddCar({100, 100}, {0, 0});
  auto id = qm_.RegisterPersistent(
      Parse("RETRIEVE o FROM CARS o WHERE EVENTUALLY INSIDE(o, P)"));
  ASSERT_TRUE(id.ok());
  db_.clock().AdvanceTo(1);
  ASSERT_TRUE(db_.SetMotion("CARS", car, {5, 5}, {0, 0}).ok());
  auto answer = qm_.PersistentAnswer(*id);
  ASSERT_TRUE(answer.ok()) << answer.status();
  ASSERT_EQ(answer->size(), 1u);
  EXPECT_EQ((*answer)[0].binding, std::vector<ObjectId>{car});
  EXPECT_EQ((*answer)[0].interval, Interval(0, 200));
}

TEST_F(QueryManagerTest, TriggerFiresOnIntervalEntry) {
  AddCar({-20, 5}, {1, 0});  // In P during [20, 30].
  FtlQuery q = Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)");
  std::vector<Tick> fires;
  auto id = qm_.RegisterTrigger(
      q, [&](const std::vector<ObjectId>&, Tick at) { fires.push_back(at); });
  ASSERT_TRUE(id.ok());

  db_.clock().AdvanceTo(10);
  ASSERT_TRUE(qm_.Poll().ok());
  EXPECT_TRUE(fires.empty());

  db_.clock().AdvanceTo(25);
  ASSERT_TRUE(qm_.Poll().ok());
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0], 20);  // The tick at which the interval was entered.

  // No duplicate firing on later polls within the same interval.
  db_.clock().AdvanceTo(28);
  ASSERT_TRUE(qm_.Poll().ok());
  EXPECT_EQ(fires.size(), 1u);
}

TEST_F(QueryManagerTest, TriggerRespondsToUpdates) {
  ObjectId car = AddCar({100, 100}, {0, 0});  // Never in P.
  FtlQuery q = Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)");
  int fires = 0;
  auto id = qm_.RegisterTrigger(
      q, [&](const std::vector<ObjectId>&, Tick) { ++fires; });
  ASSERT_TRUE(id.ok());
  db_.clock().AdvanceTo(5);
  ASSERT_TRUE(qm_.Poll().ok());
  EXPECT_EQ(fires, 0);

  // Teleport the car into P: poll must fire after the update.
  ASSERT_TRUE(db_.SetMotion("CARS", car, {5, 5}, {0, 0}).ok());
  ASSERT_TRUE(qm_.Poll().ok());
  EXPECT_EQ(fires, 1);
}

// ---------------------------------------------------------------------------
// Delta maintenance: update-triggered refreshes splice only the dirty rows.
// ---------------------------------------------------------------------------

TEST_F(QueryManagerTest, DeltaRefreshSplicesUpdatedRowsOnly) {
  // Four cars so one dirty object sits exactly at the default 0.25
  // fraction: c0/c2 inside P, c1/c3 far away.
  ObjectId c0 = AddCar({5, 5}, {0, 0});
  ObjectId c1 = AddCar({100, 100}, {0, 0});
  ObjectId c2 = AddCar({5, 6}, {0, 0});
  AddCar({200, 200}, {0, 0});
  auto id = qm_.RegisterContinuous(
      Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)"));
  ASSERT_TRUE(id.ok());
  auto counters = qm_.QueryRefreshCounters(*id);
  ASSERT_TRUE(counters.ok());
  EXPECT_EQ(counters->full_evaluations, 1u);  // Registration.
  EXPECT_EQ(counters->delta_evaluations, 0u);

  // c1 teleports into P: the refresh must be served by the delta path and
  // add exactly c1's row.
  ASSERT_TRUE(db_.SetMotion("CARS", c1, {6, 6}, {0, 0}).ok());
  auto answer = qm_.ContinuousAnswer(*id);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->size(), 3u);
  counters = qm_.QueryRefreshCounters(*id);
  ASSERT_TRUE(counters.ok());
  EXPECT_EQ(counters->delta_evaluations, 1u);
  EXPECT_EQ(counters->full_evaluations, 1u);

  // c0 leaves P: its row must be evicted by the next delta refresh while
  // the clean rows (c1, c2) survive untouched.
  ASSERT_TRUE(db_.SetMotion("CARS", c0, {100, 5}, {0, 0}).ok());
  answer = qm_.ContinuousAnswer(*id);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->size(), 2u);
  for (const AnswerTuple& t : *answer) {
    EXPECT_TRUE(t.binding == std::vector<ObjectId>{c1} ||
                t.binding == std::vector<ObjectId>{c2});
  }
  counters = qm_.QueryRefreshCounters(*id);
  ASSERT_TRUE(counters.ok());
  EXPECT_EQ(counters->delta_evaluations, 2u);
  EXPECT_EQ(counters->full_evaluations, 1u);
  EXPECT_EQ(qm_.EvaluationCount(*id).value(), 3u);
}

TEST_F(QueryManagerTest, HeldSnapshotSurvivesDeltaRefreshAndPoll) {
  // RETRIEVE keeps every column, so the answer is the maintained relation
  // itself. A snapshot held across a delta refresh (TickAll) or a
  // trigger's refresh (Poll) stays byte-identical; the refreshed answer
  // equals a fresh evaluation; once every snapshot is dropped, the next
  // delta refresh splices in place.
  std::vector<ObjectId> cars;
  for (int i = 0; i < 8; ++i) {
    cars.push_back(AddCar({-20.0 - i, 5}, {1, 0}));
  }
  FtlQuery q = Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)");
  auto id = qm_.RegisterContinuous(q);
  int fires = 0;
  auto trigger = qm_.RegisterTrigger(
      q, [&](const std::vector<ObjectId>&, Tick) { ++fires; });
  ASSERT_TRUE(id.ok() && trigger.ok());
  auto fresh_answer = [&] {
    auto rel = FtlEvaluator(db_).EvaluateQuery(q, Interval(0, 200));
    EXPECT_TRUE(rel.ok()) << rel.status();
    return qm_.FlattenAnswer(q, *rel, /*force_stale=*/false);
  };
  for (QueryManager::QueryId query : {*id, *trigger}) {
    SCOPED_TRACE(query == *id ? "TickAll" : "Poll");
    const Tick t = db_.Now() + 1;
    db_.clock().AdvanceTo(t);
    auto held = qm_.SnapshotContinuousAnswer(query);
    ASSERT_TRUE(held.ok());
    const TemporalRelation before = *held->answer;
    ASSERT_EQ(before.rows.size(), 8u);
    ASSERT_TRUE(db_.SetMotion("CARS", cars[t], {-50, 5}, {1, 0}).ok());
    auto counters = qm_.QueryRefreshCounters(query);
    ASSERT_TRUE(counters.ok());
    ASSERT_TRUE(query == *id ? qm_.TickAll().ok() : qm_.Poll().ok());
    EXPECT_EQ(qm_.QueryRefreshCounters(query)->delta_evaluations,
              counters->delta_evaluations + 1);
    EXPECT_EQ(held->answer->rows, before.rows);
    EXPECT_EQ(held->answer->ToString(), before.ToString());
    auto answer = qm_.ContinuousAnswer(query);
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ(*answer, fresh_answer());
    EXPECT_NE(held->answer->rows, (*qm_.SnapshotContinuousAnswer(query))
                                      .answer->rows);
  }
  // No snapshot held: the next delta refresh keeps the relation's address.
  const TemporalRelation* maintained =
      qm_.SnapshotContinuousAnswer(*id)->answer.get();
  ASSERT_TRUE(db_.SetMotion("CARS", cars[0], {-60, 5}, {1, 0}).ok());
  ASSERT_TRUE(qm_.TickAll().ok());
  auto after = qm_.SnapshotContinuousAnswer(*id);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->answer.get(), maintained);
  EXPECT_EQ(*qm_.ContinuousAnswer(*id), fresh_answer());
}

TEST_F(QueryManagerTest, UpdateTriggeredRefreshKeepsWindowAnchor) {
  // The car is inside P during [5, 15]. An update to an unrelated object
  // at t=10 re-derives the answer over the *original* window, so the
  // already-elapsed part of the interval survives — under the old
  // re-anchor-on-every-refresh policy it would be clipped to [10, 15],
  // and the delta path (which keeps clean rows verbatim) could never
  // match the full path.
  ObjectId car = AddCar({-5, 5}, {1, 0});
  ObjectId far = AddCar({300, 300}, {0, 0});
  AddCar({310, 300}, {0, 0});
  AddCar({320, 300}, {0, 0});
  auto id = qm_.RegisterContinuous(
      Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)"));
  ASSERT_TRUE(id.ok());

  db_.clock().AdvanceTo(10);
  ASSERT_TRUE(db_.SetMotion("CARS", far, {301, 300}, {0, 0}).ok());
  auto answer = qm_.ContinuousAnswer(*id);
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->size(), 1u);
  EXPECT_EQ((*answer)[0].binding, (std::vector<ObjectId>{car}));
  EXPECT_EQ((*answer)[0].interval, Interval(5, 15));
}

TEST_F(QueryManagerTest, LargeDirtySetFallsBackToFullRefresh) {
  ObjectId c0 = AddCar({5, 5}, {0, 0});
  ObjectId c1 = AddCar({100, 100}, {0, 0});
  AddCar({5, 6}, {0, 0});
  AddCar({200, 200}, {0, 0});
  auto id = qm_.RegisterContinuous(
      Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)"));
  ASSERT_TRUE(id.ok());

  // Two of four objects dirty (0.5 > default 0.25): the coalesced batch
  // must be served by a single full re-evaluation, not the delta path.
  ASSERT_TRUE(db_.SetMotion("CARS", c0, {5.5, 5}, {0, 0}).ok());
  ASSERT_TRUE(db_.SetMotion("CARS", c1, {6, 6}, {0, 0}).ok());
  auto answer = qm_.ContinuousAnswer(*id);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->size(), 3u);
  auto counters = qm_.QueryRefreshCounters(*id);
  ASSERT_TRUE(counters.ok());
  EXPECT_EQ(counters->delta_evaluations, 0u);
  EXPECT_EQ(counters->full_evaluations, 2u);
}

TEST_F(QueryManagerTest, DeltaRefreshHandlesDeletedObjects) {
  // Five cars inside P; deleting one is a 1/4-of-remaining-domain dirty
  // set, inside the delta threshold.
  std::vector<ObjectId> cars;
  for (int i = 0; i < 5; ++i) {
    cars.push_back(AddCar({5, 5 + 0.5 * i}, {0, 0}));
  }
  auto id = qm_.RegisterContinuous(
      Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)"));
  ASSERT_TRUE(id.ok());
  ASSERT_EQ(qm_.ContinuousAnswer(*id)->size(), 5u);

  ASSERT_TRUE(db_.DeleteObject("CARS", cars[2]).ok());
  auto answer = qm_.ContinuousAnswer(*id);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->size(), 4u);
  for (const AnswerTuple& t : *answer) {
    EXPECT_NE(t.binding, (std::vector<ObjectId>{cars[2]}));
  }
  auto counters = qm_.QueryRefreshCounters(*id);
  ASSERT_TRUE(counters.ok());
  EXPECT_EQ(counters->delta_evaluations, 1u);
}

TEST_F(QueryManagerTest, DeltaRefreshFailureFallsBackToFull) {
  ObjectId c1 = AddCar({100, 100}, {0, 0});
  AddCar({5, 5}, {0, 0});
  AddCar({5, 6}, {0, 0});
  AddCar({200, 200}, {0, 0});
  auto id = qm_.RegisterContinuous(
      Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)"));
  ASSERT_TRUE(id.ok());

  auto& reg = FailpointRegistry::Instance();
  ASSERT_TRUE(reg.Arm("ftl/delta/refresh", "error*1").ok());
  uint64_t fired_before = reg.triggered("ftl/delta/refresh");
  ASSERT_TRUE(db_.SetMotion("CARS", c1, {6, 6}, {0, 0}).ok());
  auto answer = qm_.ContinuousAnswer(*id);
  reg.Disarm("ftl/delta/refresh");
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->size(), 3u);  // Correct despite the injected fault.
  EXPECT_GT(reg.triggered("ftl/delta/refresh"), fired_before);
  auto counters = qm_.QueryRefreshCounters(*id);
  ASSERT_TRUE(counters.ok());
  EXPECT_EQ(counters->delta_evaluations, 0u);
  EXPECT_EQ(counters->full_evaluations, 2u);
}

// An armed evaluator-checkpoint failpoint is a genuine error, not a
// budget exhaustion: it surfaces to the caller (it is not absorbed as a
// shed) and stops mattering once disarmed. The site only fires while a
// budget gate is active, so unbudgeted evaluations never pay for it.
TEST_F(QueryManagerTest, EvalCheckpointFailpointSurfacesAndRecovers) {
  ObjectId car = AddCar({5, 5}, {0, 0});
  AddCar({50, 50}, {0, 0});
  test::ScopedGovernorLimits gate({.refresh_budget = {.max_rows = 1u << 20}});
  auto id = qm_.RegisterContinuous(
      Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)"));
  ASSERT_TRUE(id.ok());

  auto& reg = FailpointRegistry::Instance();
  const uint64_t fired_before = reg.triggered("ftl/eval/checkpoint");
  ASSERT_TRUE(reg.Arm("ftl/eval/checkpoint", "error").ok());
  ASSERT_TRUE(db_.SetMotion("CARS", car, {6, 6}, {0, 0}).ok());
  db_.clock().Advance(1);
  EXPECT_FALSE(qm_.TickAll().ok()) << "injected eval fault must surface";
  EXPECT_GT(reg.triggered("ftl/eval/checkpoint"), fired_before);

  reg.Disarm("ftl/eval/checkpoint");
  db_.clock().Advance(1);
  EXPECT_TRUE(qm_.TickAll().ok());
  auto answer = qm_.ContinuousAnswer(*id);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->size(), 1u);
  EXPECT_EQ(qm_.QueryDegradeInfo(*id)->reason, DegradeReason::kNone);
}

// A budget shed serves the previous answer as the may-answer only: every
// tuple kStale, the must-answer empty, the degrade state explained — until
// a refresh completes once the budget lifts.
TEST_F(QueryManagerTest, BudgetShedServesStaleUntilTheBudgetLifts) {
  ObjectId car = AddCar({5, 5}, {0, 0});
  AddCar({6, 6}, {0, 0});
  auto id = qm_.RegisterContinuous(
      Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)"));
  ASSERT_TRUE(id.ok());
  {
    // One arena byte: every evaluation trips the gate.
    test::ScopedGovernorLimits starve(
        {.refresh_budget = {.max_arena_bytes = 1}});
    ASSERT_TRUE(db_.SetMotion("CARS", car, {7, 7}, {0, 0}).ok());
    db_.clock().Advance(1);
    ASSERT_TRUE(qm_.TickAll().ok());
    auto info = qm_.QueryDegradeInfo(*id);
    ASSERT_TRUE(info.ok());
    EXPECT_NE(info->reason, DegradeReason::kNone);
    EXPECT_FALSE(info->detail.empty());
    EXPECT_GE(info->at, 0);
    auto may = qm_.ContinuousAnswer(*id);
    ASSERT_TRUE(may.ok());
    EXPECT_EQ(may->size(), 2u);
    for (const AnswerTuple& t : *may) {
      EXPECT_EQ(t.confidence, Confidence::kStale);
    }
    EXPECT_TRUE(qm_.CurrentAnswer(*id)->empty());
  }
  db_.clock().Advance(1);
  ASSERT_TRUE(qm_.TickAll().ok());
  EXPECT_EQ(qm_.QueryDegradeInfo(*id)->reason, DegradeReason::kNone);
  EXPECT_EQ(qm_.CurrentAnswer(*id)->size(), 2u);
}

// A shed delta refresh changes nothing: the query serves the answer of its
// last completed refresh (the updated car's row included, not evicted),
// every tuple kStale, and keeps its dirty set, so the refresh after the
// budget lifts equals a fresh evaluation.
TEST_F(QueryManagerTest, ShedDeltaRefreshKeepsThePreviousAnswer) {
  std::vector<ObjectId> cars;
  for (int i = 0; i < 8; ++i) {
    // Even cars stand inside P, odd ones outside.
    cars.push_back(AddCar(i % 2 == 0 ? Point2{1.0 + i, 5} : Point2{50, 5.0 + i},
                          {0, 0}));
  }
  const FtlQuery q = Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)");
  auto id = qm_.RegisterContinuous(q);
  ASSERT_TRUE(id.ok());
  auto before = qm_.ContinuousAnswer(*id);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->size(), 4u);
  {
    test::ScopedGovernorLimits starve(
        {.refresh_budget = {.max_arena_bytes = 1}});
    // One dirty car of eight (12.5%): the refresh takes the delta path.
    ASSERT_TRUE(db_.SetMotion("CARS", cars[0], {50, 50}, {0, 0}).ok());
    db_.clock().Advance(1);
    ASSERT_TRUE(qm_.TickAll().ok());
    EXPECT_NE(qm_.QueryDegradeInfo(*id)->reason, DegradeReason::kNone);
    auto stale = qm_.ContinuousAnswer(*id);
    ASSERT_TRUE(stale.ok());
    ASSERT_EQ(stale->size(), before->size());
    for (size_t i = 0; i < stale->size(); ++i) {
      EXPECT_EQ((*stale)[i].binding, (*before)[i].binding);
      EXPECT_EQ((*stale)[i].interval, (*before)[i].interval);
      EXPECT_EQ((*stale)[i].confidence, Confidence::kStale);
    }
    EXPECT_TRUE(qm_.CurrentAnswer(*id)->empty());
  }
  db_.clock().Advance(1);
  ASSERT_TRUE(qm_.TickAll().ok());
  EXPECT_EQ(qm_.QueryDegradeInfo(*id)->reason, DegradeReason::kNone);
  auto counters = qm_.QueryRefreshCounters(*id);
  ASSERT_TRUE(counters.ok());
  EXPECT_EQ(counters->delta_evaluations, 1u);
  auto fresh = FtlEvaluator(db_).EvaluateQuery(q, Interval(0, 200));
  ASSERT_TRUE(fresh.ok());
  auto after = qm_.ContinuousAnswer(*id);
  ASSERT_TRUE(after.ok());
  std::vector<AnswerTuple> want;
  for (const auto& [binding, when] : fresh->rows) {
    for (const Interval& iv : when.intervals()) want.push_back({binding, iv});
  }
  EXPECT_EQ(*after, want);
}

// The window slides on the first tick past expiry even when that tick's
// refresh is held back by a cooldown: the later refresh runs over the
// slid window, so managers ticking together agree on it whatever each
// one shed.
TEST_F(QueryManagerTest, WindowSlidesOnExpiryEvenWhileCoolingDown) {
  ObjectId car = AddCar({5, 5}, {0, 0});  // Always inside P.
  auto id = qm_.RegisterContinuous(
      Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)"));
  ASSERT_TRUE(id.ok());  // Window [0, 200].
  {
    test::ScopedGovernorLimits starve(
        {.refresh_budget = {.max_arena_bytes = 1},
         .degrade_cooldown_ticks = 100});
    db_.clock().AdvanceTo(150);
    ASSERT_TRUE(db_.SetMotion("CARS", car, {6, 6}, {0, 0}).ok());
    ASSERT_TRUE(qm_.TickAll().ok());  // Shed: cooling down until 250.
    db_.clock().AdvanceTo(201);
    ASSERT_TRUE(qm_.TickAll().ok());  // Expired, still cooling down.
  }
  db_.clock().AdvanceTo(205);
  ASSERT_TRUE(qm_.TickAll().ok());
  auto answer = qm_.ContinuousAnswer(*id);
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->size(), 1u);
  EXPECT_EQ((*answer)[0].interval, Interval(201, 401));
}

// A registration whose initial refresh fails returns the error and leaves
// no entry behind: no later TickAll evaluates a query nobody holds an id
// for.
TEST_F(QueryManagerTest, FailedRegistrationLeavesNoOrphan) {
  AddCar({5, 5}, {0, 0});
  test::ScopedGovernorLimits gate({.refresh_budget = {.max_rows = 1u << 20}});
  auto& reg = FailpointRegistry::Instance();
  ASSERT_TRUE(reg.Arm("ftl/eval/checkpoint", "error*1").ok());
  EXPECT_FALSE(
      qm_.RegisterContinuous(Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)"))
          .ok());
  reg.Disarm("ftl/eval/checkpoint");
  db_.clock().Advance(1);
  ASSERT_TRUE(qm_.TickAll().ok());
  EXPECT_EQ(qm_.TotalRefreshCounters().full_evaluations, 0u);
}

TEST_F(QueryManagerTest, MultiVariableTriggerFiresOncePerIntervalUnderDelta) {
  // DIST(o, n) <= 5 over two cars: a stands at the origin-side of P, b
  // approaches. The (a, b) interval starts at [25, 35]; an update between
  // polls shifts it earlier to [19, 29] through the delta path, and the
  // trigger must still fire exactly once per (binding, interval).
  test::ScopedGovernorLimits limits({.delta_max_dirty_fraction = 1.0});
  QueryManager qm(&db_, {.horizon = 200});
  ObjectId a = AddCar({0, 5}, {0, 0});
  ObjectId b = AddCar({30, 5}, {-1, 0});
  std::map<std::vector<ObjectId>, std::vector<Tick>> fires;
  auto id = qm.RegisterTrigger(
      Parse("RETRIEVE o, n FROM CARS o, CARS n WHERE DIST(o, n) <= 5"),
      [&](const std::vector<ObjectId>& binding, Tick at) {
        fires[binding].push_back(at);
      });
  ASSERT_TRUE(id.ok());

  // First poll: only the self-pairs (distance 0 forever) have entered.
  db_.clock().AdvanceTo(5);
  ASSERT_TRUE(qm.Poll().ok());
  EXPECT_EQ(fires.size(), 2u);
  EXPECT_EQ((fires[{a, a}]), (std::vector<Tick>{0}));
  EXPECT_EQ((fires[{b, b}]), (std::vector<Tick>{0}));

  // Update between polls: b jumps closer, shifting the (a, b) interval
  // from [25, 35] to [19, 29]. Served by the delta path.
  db_.clock().AdvanceTo(10);
  ASSERT_TRUE(db_.SetMotion("CARS", b, {14, 5}, {-1, 0}).ok());
  db_.clock().AdvanceTo(20);
  ASSERT_TRUE(qm.Poll().ok());
  ASSERT_EQ((fires.count({a, b})), 1u);
  EXPECT_EQ((fires[{a, b}]), (std::vector<Tick>{19}));
  EXPECT_EQ((fires[{b, a}]), (std::vector<Tick>{19}));
  auto counters = qm.QueryRefreshCounters(*id);
  ASSERT_TRUE(counters.ok());
  EXPECT_GE(counters->delta_evaluations, 1u);

  // Another splice: b parks within range, widening the (a, b) interval to
  // the whole window — its begin (0) is now *earlier* than the recorded
  // fire tick (19). That is still one satisfaction interval the trigger
  // already announced, so no re-fire.
  db_.clock().AdvanceTo(21);
  ASSERT_TRUE(db_.SetMotion("CARS", b, {4, 5}, {0, 0}).ok());
  db_.clock().AdvanceTo(25);
  ASSERT_TRUE(qm.Poll().ok());
  EXPECT_EQ((fires[{a, b}]).size(), 1u);
  EXPECT_EQ((fires[{b, a}]).size(), 1u);
  EXPECT_EQ((fires[{a, a}]).size(), 1u);
  EXPECT_EQ((fires[{b, b}]).size(), 1u);
}

// One trigger's failing refresh must not swallow the firings Poll already
// collected for the others: they fire on that poll, exactly once, and the
// failing trigger fires on the next poll once its refresh succeeds.
TEST_F(QueryManagerTest, PollFiresWhatItCollectedWhenALaterTriggerFails) {
  ASSERT_TRUE(db_.CreateClass("TAXIS", {}, /*spatial=*/true).ok());
  AddCar({5, 5}, {0, 0});  // In P from the start.
  auto taxi = db_.CreateObject("TAXIS");
  ASSERT_TRUE(taxi.ok());
  const ObjectId taxi_id = (*taxi)->id();
  ASSERT_TRUE(db_.SetMotion("TAXIS", taxi_id, {50, 50}, {0, 0}).ok());
  test::ScopedGovernorLimits gate({.refresh_budget = {.max_rows = 1u << 20}});
  int car_fires = 0;
  int taxi_fires = 0;
  ASSERT_TRUE(qm_.RegisterTrigger(
                     Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)"),
                     [&](const std::vector<ObjectId>&, Tick) { ++car_fires; })
                  .ok());
  ASSERT_TRUE(qm_.RegisterTrigger(
                     Parse("RETRIEVE t FROM TAXIS t WHERE INSIDE(t, P)"),
                     [&](const std::vector<ObjectId>&, Tick) { ++taxi_fires; })
                  .ok());
  // The taxi's update dirties the second trigger only; its refresh fails.
  ASSERT_TRUE(db_.SetMotion("TAXIS", taxi_id, {6, 6}, {0, 0}).ok());
  auto& reg = FailpointRegistry::Instance();
  ASSERT_TRUE(reg.Arm("ftl/eval/checkpoint", "error").ok());
  EXPECT_FALSE(qm_.Poll().ok()) << "the failed refresh must surface";
  reg.Disarm("ftl/eval/checkpoint");
  EXPECT_EQ(car_fires, 1) << "the first trigger's firing was dropped";
  EXPECT_EQ(taxi_fires, 0);

  db_.clock().Advance(1);
  ASSERT_TRUE(qm_.Poll().ok());
  EXPECT_EQ(car_fires, 1);
  EXPECT_EQ(taxi_fires, 1);
}

TEST_F(QueryManagerTest, PollGarbageCollectsSpentFiredState) {
  // Car crosses P during [20, 30]; once the clock passes the interval the
  // fired entry is unreachable and must be dropped.
  ObjectId car = AddCar({-20, 5}, {1, 0});
  int fires = 0;
  auto id = qm_.RegisterTrigger(
      Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)"),
      [&](const std::vector<ObjectId>&, Tick) { ++fires; });
  ASSERT_TRUE(id.ok());

  db_.clock().AdvanceTo(25);
  ASSERT_TRUE(qm_.Poll().ok());
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(qm_.TriggerFiredEntries(*id).value(), 1u);

  db_.clock().AdvanceTo(40);  // Interval [20, 30] fully in the past.
  ASSERT_TRUE(qm_.Poll().ok());
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(qm_.TriggerFiredEntries(*id).value(), 0u);

  // A deleted object's fired state goes with its answer row.
  ObjectId visitor = AddCar({5, 5}, {0, 0});
  ASSERT_TRUE(qm_.Poll().ok());
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(qm_.TriggerFiredEntries(*id).value(), 1u);
  ASSERT_TRUE(db_.DeleteObject("CARS", visitor).ok());
  ASSERT_TRUE(qm_.Poll().ok());
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(qm_.TriggerFiredEntries(*id).value(), 0u);
  (void)car;
}

// ---------------------------------------------------------------------------
// Degraded mode: answers under missing location updates.
// ---------------------------------------------------------------------------

class StalenessTest : public ::testing::Test {
 protected:
  StalenessTest() : qm_(&db_, {.horizon = 500, .staleness_horizon = 50}) {
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

// The ISSUE acceptance scenario: 30% of the fleet stops sending location
// updates. Past the staleness horizon their dead-reckoned tuples drop out
// of the *must* answer but remain in the *may* answer, flagged kStale; a
// fresh update reinstates them as kCertain — all without re-evaluation.
TEST_F(StalenessTest, SilentObjectsDegradeToMayAnswersAndComeBack) {
  // Ten stationary cars inside P; the last three will go silent.
  std::vector<ObjectId> fleet;
  for (int i = 0; i < 10; ++i) {
    fleet.push_back(AddCar({5, 5}, {0, 0}));
  }
  auto id = qm_.RegisterContinuous(
      Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)"));
  ASSERT_TRUE(id.ok());

  // Within the horizon everything is certain: must == may == 10.
  db_.clock().AdvanceTo(40);
  ASSERT_TRUE(qm_.CurrentAnswer(*id).ok());
  EXPECT_EQ(qm_.CurrentAnswer(*id)->size(), 10u);
  EXPECT_EQ(qm_.PossibleAnswer(*id)->size(), 10u);

  // t=100: seven cars report in (any update refreshes last_update); three
  // stay silent, now 100 ticks past their last update, horizon 50.
  db_.clock().AdvanceTo(100);
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(db_.SetMotion("CARS", fleet[i], {5, 5}, {0, 0}).ok());
  }
  auto tuples = qm_.ContinuousAnswer(*id);
  ASSERT_TRUE(tuples.ok());
  ASSERT_EQ(tuples->size(), 10u);
  size_t certain = 0, stale = 0;
  for (const AnswerTuple& t : *tuples) {
    (t.confidence == Confidence::kCertain ? certain : stale) += 1;
  }
  EXPECT_EQ(certain, 7u);
  EXPECT_EQ(stale, 3u);
  // Must-answer excludes the silent cars; may-answer retains them.
  EXPECT_EQ(qm_.CurrentAnswer(*id)->size(), 7u);
  EXPECT_EQ(qm_.PossibleAnswer(*id)->size(), 10u);

  // The silent cars finally report: immediately certain again.
  for (int i = 7; i < 10; ++i) {
    ASSERT_TRUE(db_.SetMotion("CARS", fleet[i], {5, 5}, {0, 0}).ok());
  }
  EXPECT_EQ(qm_.CurrentAnswer(*id)->size(), 10u);
  EXPECT_EQ(qm_.PossibleAnswer(*id)->size(), 10u);
  auto reinstated = qm_.ContinuousAnswer(*id);
  ASSERT_TRUE(reinstated.ok());
  for (const AnswerTuple& t : *reinstated) {
    EXPECT_EQ(t.confidence, Confidence::kCertain);
  }
}

TEST_F(StalenessTest, StalenessDriftNeedsNoReevaluation) {
  AddCar({5, 5}, {0, 0});
  auto id = qm_.RegisterContinuous(
      Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)"));
  ASSERT_TRUE(id.ok());
  ASSERT_EQ(qm_.EvaluationCount(*id).value(), 1u);

  // Confidence is derived at read time from last_update: the same cached
  // evaluation answers certain at t=30 and stale at t=80.
  db_.clock().AdvanceTo(30);
  EXPECT_EQ(qm_.CurrentAnswer(*id)->size(), 1u);
  db_.clock().AdvanceTo(80);
  EXPECT_EQ(qm_.CurrentAnswer(*id)->size(), 0u);
  EXPECT_EQ(qm_.PossibleAnswer(*id)->size(), 1u);
  EXPECT_EQ(qm_.EvaluationCount(*id).value(), 1u);
}

TEST_F(StalenessTest, DisabledHorizonKeepsEverythingCertain) {
  QueryManager no_staleness(&db_, {.horizon = 500});
  AddCar({5, 5}, {0, 0});
  auto id = no_staleness.RegisterContinuous(
      Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)"));
  ASSERT_TRUE(id.ok());
  db_.clock().AdvanceTo(400);  // Way past any update.
  EXPECT_EQ(no_staleness.CurrentAnswer(*id)->size(), 1u);
  EXPECT_EQ(no_staleness.PossibleAnswer(*id)->size(), 1u);
  auto tuples = no_staleness.ContinuousAnswer(*id);
  ASSERT_TRUE(tuples.ok());
  for (const AnswerTuple& t : *tuples) {
    EXPECT_EQ(t.confidence, Confidence::kCertain);
  }
}

// Evaluate does not take the registry lock: instantaneous evaluations from
// several threads share the manager's evaluation context with each other
// and with a thread that registers queries and runs TickAll's refreshes.
// Every answer must equal the serial one (run under
// -DMOST_SANITIZE=thread to check the context's own synchronization).
// Database mutations stay on this thread, before the threads start.
TEST_F(QueryManagerTest, ConcurrentEvaluateSharesOneContext) {
  ASSERT_TRUE(
      db_.DefineRegion("Q", Polygon::Rectangle({20, 0}, {30, 10})).ok());
  std::vector<ObjectId> cars;
  for (int i = 0; i < 12; ++i) {
    cars.push_back(AddCar({-4.0 * i - 2, 1.0 + 0.5 * i},
                          {1.0 + 0.1 * (i % 3), 0}));
  }
  const std::vector<FtlQuery> queries = {
      Parse("RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 30 INSIDE(o, P)"),
      Parse("RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 30 "
            "(INSIDE(o, P) AND ALWAYS FOR 5 INSIDE(o, P))"),
      Parse("RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 30 "
            "(INSIDE(o, P) AND ALWAYS FOR 5 INSIDE(o, P) AND "
            "EVENTUALLY AFTER 10 INSIDE(o, Q))")};
  auto first = qm_.RegisterContinuous(queries[0]);
  ASSERT_TRUE(first.ok());
  // Dirty the registered query so the ticker's TickAll has delta work.
  ASSERT_TRUE(db_.SetMotion("CARS", cars[3], {-5, 4}, {1, 0}).ok());

  const Interval window(db_.Now(), db_.Now() + 200);
  std::vector<TemporalRelation> want;
  for (const FtlQuery& q : queries) {
    auto rel = FtlEvaluator(db_).EvaluateQuery(q, window);
    ASSERT_TRUE(rel.ok()) << rel.status();
    ASSERT_FALSE(rel->rows.empty());
    want.push_back(*rel);
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> evaluators;
  for (int t = 0; t < 4; ++t) {
    evaluators.emplace_back([&, t] {
      for (int i = 0; i < 40; ++i) {
        const size_t k = static_cast<size_t>(t + i) % queries.size();
        auto rel = qm_.Evaluate(queries[k]);
        if (!rel.ok() || rel->rows != want[k].rows) ++mismatches;
      }
    });
  }
  std::thread ticker([&] {
    for (int i = 0; i < 20; ++i) {
      if (!qm_.TickAll().ok()) ++mismatches;
      auto id = qm_.RegisterContinuous(queries[1 + i % 2]);
      if (!id.ok()) {
        ++mismatches;
        continue;
      }
      auto answer = qm_.ContinuousAnswer(*id);
      if (!answer.ok() ||
          *answer != qm_.FlattenAnswer(queries[1 + i % 2],
                                       want[1 + i % 2], false)) {
        ++mismatches;
      }
      if (!qm_.Cancel(*id).ok()) ++mismatches;
    }
  });
  for (std::thread& t : evaluators) t.join();
  ticker.join();
  EXPECT_EQ(mismatches.load(), 0);
  auto answer = qm_.ContinuousAnswer(*first);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(*answer, qm_.FlattenAnswer(queries[0], want[0], false));
}

// ---------------------------------------------------------------------------
// Batch tick (TickAll) and the registry lock.
// ---------------------------------------------------------------------------

class TickAllTest : public ::testing::Test {
 protected:
  TickAllTest() : qm_(&db_, {.horizon = 200}) {
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

TEST_F(TickAllTest, TickAllRefreshesEveryStaleQuery) {
  ObjectId car = AddCar({-20, 5}, {1, 0});  // In P during [20, 30].
  std::vector<QueryManager::QueryId> ids;
  for (int i = 0; i < 8; ++i) {
    auto id = qm_.RegisterContinuous(
        Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)"));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  // An update dirties all eight; one batch tick refreshes them together.
  ASSERT_TRUE(db_.SetMotion("CARS", car, {-10, 5}, {1, 0}).ok());
  ASSERT_TRUE(qm_.TickAll().ok());
  for (QueryManager::QueryId id : ids) {
    EXPECT_EQ(qm_.EvaluationCount(id).value(), 2u);
    auto answer = qm_.ContinuousAnswer(id);
    ASSERT_TRUE(answer.ok());
    ASSERT_EQ(answer->size(), 1u);
    EXPECT_EQ((*answer)[0].interval, Interval(10, 20));
  }
  // Nothing stale: TickAll is a no-op, not a re-evaluation storm.
  ASSERT_TRUE(qm_.TickAll().ok());
  for (QueryManager::QueryId id : ids) {
    EXPECT_EQ(qm_.EvaluationCount(id).value(), 2u);
  }
}

TEST_F(TickAllTest, TickAllTracksMotionUpdates) {
  ObjectId car = AddCar({-20, 5}, {1, 0});
  FtlQuery q = Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)");
  auto id = qm_.RegisterContinuous(q);
  ASSERT_TRUE(id.ok());
  auto before = qm_.ContinuousAnswer(*id);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->size(), 1u);
  EXPECT_EQ((*before)[0].interval, Interval(20, 30));

  // The refreshed answer reflects the new motion.
  ASSERT_TRUE(db_.SetMotion("CARS", car, {-40, 5}, {2, 0}).ok());
  ASSERT_TRUE(qm_.TickAll().ok());
  auto after = qm_.ContinuousAnswer(*id);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->size(), 1u);
  EXPECT_EQ((*after)[0].interval, Interval(20, 25));
}

TEST_F(TickAllTest, TotalRefreshCountersNeverTear) {
  // Manager-wide refresh totals are read from another thread while TickAll
  // refreshes. The pair must come from one consistent snapshot — totals
  // can only grow, and a torn read could go backwards or count a refresh
  // in neither member. Run under -DMOST_SANITIZE=thread to verify the
  // snapshot is also race-free.
  std::vector<ObjectId> cars;
  for (int i = 0; i < 6; ++i) {
    cars.push_back(AddCar({static_cast<double>(-3 * i - 2), 5.0}, {1, 0}));
  }
  std::vector<QueryManager::QueryId> ids;
  for (int i = 0; i < 8; ++i) {
    auto id = qm_.RegisterContinuous(
        Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)"));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    uint64_t last_total = 0;
    while (!stop.load()) {
      QueryManager::RefreshCounters c = qm_.TotalRefreshCounters();
      uint64_t total = c.delta_evaluations + c.full_evaluations;
      ASSERT_GE(total, last_total) << "refresh totals went backwards";
      last_total = total;
    }
  });
  for (int round = 0; round < 30; ++round) {
    // Dirty every query (database mutations stay on this thread, per the
    // documented contract), then refresh the batch.
    ASSERT_TRUE(db_.SetMotion("CARS", cars[round % cars.size()],
                              {static_cast<double>(-2 - round), 5.0}, {1, 0})
                    .ok());
    ASSERT_TRUE(qm_.TickAll().ok());
  }
  stop.store(true);
  reader.join();
  QueryManager::RefreshCounters final = qm_.TotalRefreshCounters();
  EXPECT_GT(final.delta_evaluations + final.full_evaluations, 0u);
}

TEST_F(TickAllTest, SnapshotReaderRacesDeltaRefreshes) {
  // A reader takes, reads and drops snapshots of one query while TickAll
  // splices that query's maintained relation. A held snapshot never
  // changes, and a refresh that finds none held splices in place; run
  // under -DMOST_SANITIZE=thread to check the hand-over is race-free.
  // `db_mu` keeps database writes apart from the reader's refreshes (the
  // documented contract); TickAll runs on the writing thread.
  std::vector<ObjectId> cars;
  for (int i = 0; i < 16; ++i) {
    cars.push_back(AddCar({static_cast<double>(-3 * i - 2), 5.0}, {1, 0}));
  }
  const FtlQuery q = Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)");
  auto id = qm_.RegisterContinuous(q);
  ASSERT_TRUE(id.ok());
  std::shared_mutex db_mu;
  std::atomic<bool> stop{false};
  std::atomic<int> reads{0};
  std::atomic<bool> reader_done{false};
  std::thread reader([&] {
    [&] {
      while (!stop.load()) {
        std::shared_ptr<const TemporalRelation> held;
        {
          std::shared_lock<std::shared_mutex> lock(db_mu);
          auto snapshot = qm_.SnapshotContinuousAnswer(*id);
          ASSERT_TRUE(snapshot.ok());
          held = snapshot->answer;
        }
        const std::string first = held->ToString();
        std::this_thread::yield();
        ASSERT_EQ(held->ToString(), first) << "a held snapshot changed";
        ++reads;
      }
    }();
    reader_done.store(true);
  });
  // At least 60 refreshes, and on until the reader has overlapped some.
  for (size_t round = 0;
       round < 60 || (reads.load() < 10 && !reader_done.load()); ++round) {
    {
      std::unique_lock<std::shared_mutex> lock(db_mu);
      ASSERT_TRUE(db_.SetMotion("CARS", cars[round % cars.size()],
                                {static_cast<double>(-2 - round % 7), 5.0},
                                {1, 0})
                      .ok());
    }
    ASSERT_TRUE(qm_.TickAll().ok());
  }
  stop.store(true);
  reader.join();
  EXPECT_GT(qm_.QueryRefreshCounters(*id)->delta_evaluations, 0u);
  auto rel = FtlEvaluator(db_).EvaluateQuery(q, Interval(0, 200));
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(*qm_.ContinuousAnswer(*id),
            qm_.FlattenAnswer(q, *rel, /*force_stale=*/false));
}

TEST_F(TickAllTest, ConcurrentRegistrationDuringTicks) {
  // Registration, polling, and batch ticks from several threads must not
  // race (run under -DMOST_SANITIZE=thread to verify); database mutations
  // stay on this thread, per the documented contract.
  for (int i = 0; i < 6; ++i) {
    AddCar({static_cast<double>(-3 * i - 2), 5.0}, {1, 0});
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> registrar_done{false};
  std::atomic<int> registered{0};
  std::thread registrar([&] {
    [&] {
      while (!stop.load()) {
        auto id = qm_.RegisterContinuous(
            Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)"));
        ASSERT_TRUE(id.ok());
        ++registered;
        auto answer = qm_.ContinuousAnswer(*id);
        ASSERT_TRUE(answer.ok());
      }
    }();
    registrar_done.store(true);
  });
  std::thread ticker([&] {
    // Start ticking only once the registrar is running, so registrations
    // overlap the ticks: 50 near-empty TickAlls can otherwise finish
    // before the registrar thread is first scheduled.
    while (registered.load() == 0 && !registrar_done.load()) {
      std::this_thread::yield();
    }
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(qm_.TickAll().ok());
    }
  });
  ticker.join();
  stop.store(true);
  registrar.join();
  EXPECT_GT(registered.load(), 0);
  ASSERT_TRUE(qm_.TickAll().ok());
}

}  // namespace
}  // namespace most
