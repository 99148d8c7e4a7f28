#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/motion_index_manager.h"
#include "ftl/eval.h"
#include "ftl/parser.h"
#include "ftl/query_manager.h"
#include "workload/fleet.h"

namespace most {
namespace {

TEST(MotionIndexManagerTest, IndexClassValidation) {
  MostDatabase db;
  ASSERT_TRUE(db.CreateClass("CARS", {}, true).ok());
  ASSERT_TRUE(db.CreateClass("MOTELS", {}, false).ok());
  MotionIndexManager manager(&db);
  EXPECT_TRUE(manager.IndexClass("CARS").ok());
  EXPECT_FALSE(manager.IndexClass("CARS").ok());    // Duplicate.
  EXPECT_FALSE(manager.IndexClass("MOTELS").ok());  // Not spatial.
  EXPECT_FALSE(manager.IndexClass("NOPE").ok());
  EXPECT_NE(manager.Get("CARS"), nullptr);
  EXPECT_EQ(manager.Get("MOTELS"), nullptr);
}

TEST(MotionIndexManagerTest, TracksUpdatesAndDeletes) {
  MostDatabase db;
  ASSERT_TRUE(db.CreateClass("CARS", {}, true).ok());
  MotionIndexManager manager(&db);
  ASSERT_TRUE(manager.IndexClass("CARS").ok());

  auto car = db.CreateObject("CARS");
  ASSERT_TRUE(db.SetMotion("CARS", (*car)->id(), {5, 5}, {0, 0}).ok());
  MotionIndex* index = manager.Get("CARS");
  ASSERT_NE(index, nullptr);
  BoundingBox region{{0, 0}, {10, 10}};
  EXPECT_EQ(index->QueryRegionExact(region, 0).size(), 1u);

  // Motion change is tracked.
  ASSERT_TRUE(db.SetMotion("CARS", (*car)->id(), {500, 500}, {0, 0}).ok());
  EXPECT_TRUE(manager.Get("CARS")->QueryRegionExact(region, 0).empty());

  // Deletion is tracked.
  ASSERT_TRUE(db.DeleteObject("CARS", (*car)->id()).ok());
  EXPECT_EQ(manager.Get("CARS")->num_objects(), 0u);
}

TEST(MotionIndexManagerTest, LazyRebuildAfterHorizon) {
  MostDatabase db;
  ASSERT_TRUE(db.CreateClass("CARS", {}, true).ok());
  MotionIndexManager manager(&db, {.horizon = 64});
  ASSERT_TRUE(manager.IndexClass("CARS").ok());
  auto car = db.CreateObject("CARS");
  ASSERT_TRUE(db.SetMotion("CARS", (*car)->id(), {0, 0}, {1, 0}).ok());
  db.clock().AdvanceTo(500);
  MotionIndex* index = manager.Get("CARS");  // Triggers the rebuild.
  EXPECT_GE(index->epoch_start(), 500);
  BoundingBox region{{499, -1}, {501, 1}};
  EXPECT_EQ(index->QueryRegionExact(region, 500).size(), 1u);
}

// The index's segment boxes cover its epoch only. With the default
// 1024-tick epoch and the manager's default 1024-tick horizon, a window
// opened at tick 200 reaches past the epoch, and a car that enters P only
// at tick 1100 has no box there: INSIDE must fall back to the scan and
// still find it.
TEST(MotionIndexManagerTest, InsidePastTheEpochFallsBackToTheScan) {
  MostDatabase db;
  ASSERT_TRUE(db.CreateClass("CARS", {}, /*spatial=*/true).ok());
  ASSERT_TRUE(
      db.DefineRegion("P", Polygon::Rectangle({1100, 0}, {1110, 10})).ok());
  MotionIndexManager manager(&db);
  ASSERT_TRUE(manager.IndexClass("CARS").ok());
  auto car = db.CreateObject("CARS");
  ASSERT_TRUE(car.ok());
  const ObjectId id = (*car)->id();
  ASSERT_TRUE(db.SetMotion("CARS", id, {0, 5}, {1, 0}).ok());
  db.clock().AdvanceTo(200);

  auto query = ParseQuery("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)");
  ASSERT_TRUE(query.ok());
  const std::map<std::vector<ObjectId>, IntervalSet> want = {
      {{id}, IntervalSet(Interval(1100, 1110))}};
  QueryManager plain(&db);
  auto plain_rel = plain.Evaluate(*query);
  ASSERT_TRUE(plain_rel.ok()) << plain_rel.status();
  EXPECT_EQ(plain_rel->rows, want);
  QueryManager indexed(&db, {.motion_indexes = &manager});
  auto indexed_rel = indexed.Evaluate(*query);
  ASSERT_TRUE(indexed_rel.ok()) << indexed_rel.status();
  EXPECT_EQ(indexed_rel->rows, want);
}

class IndexedEvalTest : public ::testing::Test {
 protected:
  IndexedEvalTest() : manager_(&db_, {.horizon = 512}) {
    FleetGenerator fleet({.num_vehicles = 200, .area = 1000.0, .seed = 21});
    EXPECT_TRUE(fleet.Populate(&db_, "CARS").ok());
    EXPECT_TRUE(
        db_.DefineRegion("P", Polygon::Rectangle({100, 100}, {220, 220}))
            .ok());
    EXPECT_TRUE(manager_.IndexClass("CARS").ok());
  }

  MostDatabase db_;
  MotionIndexManager manager_;
};

TEST_F(IndexedEvalTest, IndexedInsideMatchesUnindexed) {
  auto query = ParseQuery(
      "RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 100 INSIDE(o, P)");
  ASSERT_TRUE(query.ok());
  FtlEvaluator plain(db_);
  FtlEvaluator::Options opts;
  opts.motion_indexes = &manager_;
  FtlEvaluator indexed(db_, opts);

  auto plain_rel = plain.EvaluateQuery(*query, Interval(0, 256));
  auto indexed_rel = indexed.EvaluateQuery(*query, Interval(0, 256));
  ASSERT_TRUE(plain_rel.ok());
  ASSERT_TRUE(indexed_rel.ok());
  EXPECT_EQ(plain_rel->rows, indexed_rel->rows);
  EXPECT_FALSE(plain_rel->rows.empty());
  // The index must actually have pruned something on this workload.
  EXPECT_GT(indexed.stats().index_pruned, 0u);
  EXPECT_LT(indexed.stats().atomic_evaluations,
            plain.stats().atomic_evaluations);
}

TEST_F(IndexedEvalTest, OutsideIsNeverPruned) {
  auto query = ParseQuery("RETRIEVE o FROM CARS o WHERE OUTSIDE(o, P)");
  ASSERT_TRUE(query.ok());
  FtlEvaluator::Options opts;
  opts.motion_indexes = &manager_;
  FtlEvaluator indexed(db_, opts);
  auto rel = indexed.EvaluateQuery(*query, Interval(0, 64));
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(indexed.stats().index_pruned, 0u);
  // Essentially every car is outside P at some point.
  EXPECT_GT(rel->rows.size(), 150u);
}

TEST_F(IndexedEvalTest, QueryManagerUsesIndexes) {
  QueryManager qm(&db_, {.horizon = 256, .motion_indexes = &manager_});
  auto query = ParseQuery("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)");
  ASSERT_TRUE(query.ok());
  auto answer = qm.Instantaneous(*query);
  ASSERT_TRUE(answer.ok());
  // Cross-check against an unindexed manager.
  QueryManager plain_qm(&db_, {.horizon = 256});
  auto plain_answer = plain_qm.Instantaneous(*query);
  ASSERT_TRUE(plain_answer.ok());
  EXPECT_EQ(*answer, *plain_answer);
}

TEST_F(IndexedEvalTest, IndexStaysConsistentUnderUpdates) {
  auto query = ParseQuery(
      "RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 50 INSIDE(o, P)");
  ASSERT_TRUE(query.ok());
  FtlEvaluator::Options opts;
  opts.motion_indexes = &manager_;
  Rng rng(5);
  for (int round = 0; round < 5; ++round) {
    db_.clock().Advance(20);
    for (int u = 0; u < 20; ++u) {
      ObjectId id = static_cast<ObjectId>(rng.UniformInt(0, 199));
      ASSERT_TRUE(db_.SetMotion("CARS", id,
                                {rng.UniformDouble(0, 1000),
                                 rng.UniformDouble(0, 1000)},
                                {rng.UniformDouble(-3, 3),
                                 rng.UniformDouble(-3, 3)})
                      .ok());
    }
    FtlEvaluator plain(db_);
    FtlEvaluator indexed(db_, opts);
    Tick now = db_.Now();
    auto plain_rel = plain.EvaluateQuery(*query, Interval(now, now + 128));
    auto indexed_rel = indexed.EvaluateQuery(*query, Interval(now, now + 128));
    ASSERT_TRUE(plain_rel.ok());
    ASSERT_TRUE(indexed_rel.ok());
    ASSERT_EQ(plain_rel->rows, indexed_rel->rows) << "round " << round;
  }
}

// A restricted evaluation over an indexed class snapshots only the
// restriction's objects, so every index candidate that passes the filter
// must be in the snapshot: the answer equals the unrestricted relation
// filtered to the restriction, and nothing trips the missing-row guard.
TEST_F(IndexedEvalTest, RestrictedIndexedInsideEqualsFilteredRelation) {
  auto query = ParseQuery(
      "RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 100 INSIDE(o, P)");
  ASSERT_TRUE(query.ok());
  FtlEvaluator::Options opts;
  opts.motion_indexes = &manager_;
  FtlEvaluator unrestricted(db_, opts);
  auto full = unrestricted.EvaluateQuery(*query, Interval(0, 256));
  ASSERT_TRUE(full.ok()) << full.status();

  // Every third car, plus an id no car has.
  auto restriction = std::make_shared<std::set<ObjectId>>();
  for (ObjectId id = 0; id < 200; id += 3) restriction->insert(id);
  restriction->insert(5000);
  opts.domain_restrictions["o"] = restriction;
  FtlEvaluator restricted(db_, opts);
  auto rel = restricted.EvaluateQuery(*query, Interval(0, 256));
  ASSERT_TRUE(rel.ok()) << rel.status();

  std::map<std::vector<ObjectId>, IntervalSet> want;
  for (const auto& [binding, when] : full->rows) {
    if (restriction->count(binding[0]) > 0) want.emplace(binding, when);
  }
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(rel->rows, want);
  EXPECT_GT(restricted.stats().index_pruned, 0u);
}

}  // namespace
}  // namespace most
