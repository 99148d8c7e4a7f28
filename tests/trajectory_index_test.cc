#include "index/trajectory_index.h"

#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "temporal/range_query.h"

namespace most {
namespace {

DynamicAttribute Linear(double v0, Tick at, double slope) {
  return DynamicAttribute(v0, at, TimeFunction::Linear(slope));
}

TEST(RangeQueryTest, ConstantAttribute) {
  DynamicAttribute a(5.0, 0, TimeFunction());
  EXPECT_EQ(TicksWhereInRange(a, 4, 6, Interval(0, 10)),
            IntervalSet(Interval(0, 10)));
  EXPECT_TRUE(TicksWhereInRange(a, 6, 7, Interval(0, 10)).empty());
}

TEST(RangeQueryTest, RisingAttribute) {
  // A(t) = 2t from t=0: in [10, 20] for t in [5, 10].
  DynamicAttribute a = Linear(0, 0, 2.0);
  EXPECT_EQ(TicksWhereInRange(a, 10, 20, Interval(0, 100)),
            IntervalSet(Interval(5, 10)));
}

TEST(RangeQueryTest, FallingAttribute) {
  DynamicAttribute a = Linear(100, 0, -3.0);
  // 100 - 3t in [10, 40] -> t in [20, 30].
  EXPECT_EQ(TicksWhereInRange(a, 10, 40, Interval(0, 100)),
            IntervalSet(Interval(20, 30)));
}

TEST(RangeQueryTest, PiecewiseReentersRange) {
  // Rises 0..50 over [0,10] (slope 5), then falls back (slope -5).
  auto f = TimeFunction::Piecewise({{0, 5.0}, {10, -5.0}});
  ASSERT_TRUE(f.ok());
  DynamicAttribute a(0.0, 0, *f);
  // A in [20, 30]: rising t in [4,6]; falling t in [14,16].
  IntervalSet s = TicksWhereInRange(a, 20, 30, Interval(0, 40));
  EXPECT_EQ(s, IntervalSet::FromIntervals({{4, 6}, {14, 16}}));
}

TEST(RangeQueryTest, ComparisonOperators) {
  DynamicAttribute a = Linear(0, 0, 1.0);  // A(t) = t.
  Interval w(0, 20);
  EXPECT_EQ(TicksWhereCompared(a, RangeCmp::kLt, 5, w),
            IntervalSet(Interval(0, 4)));
  EXPECT_EQ(TicksWhereCompared(a, RangeCmp::kLe, 5, w),
            IntervalSet(Interval(0, 5)));
  EXPECT_EQ(TicksWhereCompared(a, RangeCmp::kGt, 5, w),
            IntervalSet(Interval(6, 20)));
  EXPECT_EQ(TicksWhereCompared(a, RangeCmp::kGe, 5, w),
            IntervalSet(Interval(5, 20)));
  EXPECT_EQ(TicksWhereCompared(a, RangeCmp::kEq, 5, w),
            IntervalSet(Interval(5, 5)));
}

TEST(TrajectoryIndexTest, PaperScenarioCurrentRange) {
  // Paper Section 4: "Retrieve the objects for which currently 4 < A < 5".
  TrajectoryIndex index(0, {.horizon = 100});
  index.Upsert(1, Linear(0, 0, 0.1));   // A(t) = 0.1 t: in (4,5) at t=45.
  index.Upsert(2, Linear(10, 0, -0.1)); // In (4,5) around t=55.
  index.Upsert(3, Linear(100, 0, 0));   // Never.

  auto at45 = index.QueryExact(4.001, 4.999, 45);
  EXPECT_EQ(at45, (std::vector<ObjectId>{1}));
  auto at55 = index.QueryExact(4.001, 4.999, 55);
  EXPECT_EQ(at55, (std::vector<ObjectId>{2}));
  EXPECT_TRUE(index.QueryExact(4.001, 4.999, 80).empty());
}

TEST(TrajectoryIndexTest, CandidatesAreSuperset) {
  TrajectoryIndex index(0, {.horizon = 100});
  index.Upsert(1, Linear(0, 0, 1.0));
  auto candidates = index.QueryCandidates(0, 100, 50);
  auto exact = index.QueryExact(0, 100, 50);
  for (ObjectId id : exact) {
    EXPECT_NE(std::find(candidates.begin(), candidates.end(), id),
              candidates.end());
  }
}

TEST(TrajectoryIndexTest, UpdateMovesSegments) {
  TrajectoryIndex index(0, {.horizon = 100});
  index.Upsert(1, Linear(0, 0, 1.0));  // Reaches 50 at t=50.
  EXPECT_EQ(index.QueryExact(49, 51, 50), (std::vector<ObjectId>{1}));
  // Motion-vector update at t=10: now stationary at 10.
  index.Upsert(1, Linear(10, 10, 0.0));
  EXPECT_TRUE(index.QueryExact(49, 51, 50).empty());
  EXPECT_EQ(index.QueryExact(9, 11, 50), (std::vector<ObjectId>{1}));
}

TEST(TrajectoryIndexTest, RemoveObject) {
  TrajectoryIndex index(0, {.horizon = 100});
  index.Upsert(1, Linear(5, 0, 0));
  index.Upsert(2, Linear(5, 0, 0));
  index.Remove(1);
  EXPECT_EQ(index.QueryExact(4, 6, 10), (std::vector<ObjectId>{2}));
  EXPECT_EQ(index.num_objects(), 1u);
  index.Remove(99);  // No-op.
}

TEST(TrajectoryIndexTest, RebuildAtHorizon) {
  TrajectoryIndex index(0, {.horizon = 64});
  index.Upsert(1, Linear(0, 0, 1.0));
  EXPECT_FALSE(index.NeedsRebuild(63));
  EXPECT_TRUE(index.NeedsRebuild(64));
  index.Rebuild(64);
  EXPECT_EQ(index.epoch_start(), 64);
  EXPECT_EQ(index.epoch_end(), 128);
  // Object still findable in the new epoch: A(100) = 100.
  EXPECT_EQ(index.QueryExact(99, 101, 100), (std::vector<ObjectId>{1}));
}

TEST(TrajectoryIndexTest, QueryIntervalsContinuous) {
  // Paper: continuous query "4 < A < 5" entered at time t -> for each
  // candidate, the time intervals when it satisfies the range.
  TrajectoryIndex index(0, {.horizon = 200});
  index.Upsert(1, Linear(0, 0, 0.5));    // In [40,50] for t in [80,100].
  index.Upsert(2, Linear(45, 0, 0));     // Always in [40,50].
  index.Upsert(3, Linear(1000, 0, 0));   // Never.
  auto answer = index.QueryIntervals(40, 50, Interval(0, 150));
  ASSERT_EQ(answer.size(), 2u);
  EXPECT_EQ(answer[0].first, 1u);
  EXPECT_EQ(answer[0].second, IntervalSet(Interval(80, 100)));
  EXPECT_EQ(answer[1].first, 2u);
  EXPECT_EQ(answer[1].second, IntervalSet(Interval(0, 150)));
}

TEST(TrajectoryIndexTest, PiecewiseTrajectoryIndexedPerPiece) {
  auto f = TimeFunction::Piecewise({{0, 2.0}, {10, -2.0}});
  ASSERT_TRUE(f.ok());
  TrajectoryIndex index(0, {.horizon = 100});
  index.Upsert(1, DynamicAttribute(0.0, 0, *f));
  EXPECT_GE(index.num_segments(), 2u);
  // Peak of 20 at t=10; value 10 at t=5 and t=15.
  EXPECT_EQ(index.QueryExact(9.5, 10.5, 5), (std::vector<ObjectId>{1}));
  EXPECT_EQ(index.QueryExact(9.5, 10.5, 15), (std::vector<ObjectId>{1}));
  EXPECT_TRUE(index.QueryExact(9.5, 10.5, 10).empty());
}

class TrajectoryIndexPropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TrajectoryIndexPropertyTest, ExactQueriesMatchFullScan) {
  Rng rng(GetParam());
  TrajectoryIndex index(0, {.horizon = 256});
  std::unordered_map<ObjectId, DynamicAttribute> objects;

  // Populate with random linear attributes; interleave updates.
  for (ObjectId id = 0; id < 150; ++id) {
    DynamicAttribute a = Linear(rng.UniformDouble(-100, 100), 0,
                                rng.UniformDouble(-2, 2));
    objects.emplace(id, a);
    index.Upsert(id, a);
  }
  for (int round = 0; round < 20; ++round) {
    // Random motion update.
    ObjectId id = static_cast<ObjectId>(rng.UniformInt(0, 149));
    Tick now = rng.UniformInt(0, 200);
    DynamicAttribute updated(objects.at(id).ValueAt(now), now,
                             TimeFunction::Linear(rng.UniformDouble(-2, 2)));
    objects.at(id) = updated;
    index.Upsert(id, updated);

    // Random instantaneous range query vs. full scan.
    double lo = rng.UniformDouble(-120, 100);
    double hi = lo + rng.UniformDouble(0, 50);
    Tick t = rng.UniformInt(0, 255);
    std::set<ObjectId> got;
    for (ObjectId oid : index.QueryExact(lo, hi, t)) got.insert(oid);
    std::set<ObjectId> want;
    for (const auto& [oid, attr] : objects) {
      double v = attr.ValueAt(t);
      if (lo <= v && v <= hi) want.insert(oid);
    }
    ASSERT_EQ(got, want) << "round " << round << " t=" << t;
  }
}

TEST_P(TrajectoryIndexPropertyTest, IntervalQueriesMatchPerTickScan) {
  Rng rng(GetParam() + 1000);
  TrajectoryIndex index(0, {.horizon = 64});
  std::unordered_map<ObjectId, DynamicAttribute> objects;
  for (ObjectId id = 0; id < 40; ++id) {
    DynamicAttribute a = Linear(rng.UniformDouble(-50, 50), 0,
                                rng.UniformDouble(-2, 2));
    objects.emplace(id, a);
    index.Upsert(id, a);
  }
  double lo = -10, hi = 10;
  Interval window(0, 63);
  auto answer = index.QueryIntervals(lo, hi, window);
  std::unordered_map<ObjectId, IntervalSet> by_id(answer.begin(),
                                                  answer.end());
  for (const auto& [id, attr] : objects) {
    for (Tick t = window.begin; t <= window.end; ++t) {
      double v = attr.ValueAt(t);
      if (std::abs(v - lo) < 1e-6 || std::abs(v - hi) < 1e-6) continue;
      bool in_answer = by_id.count(id) > 0 && by_id.at(id).Contains(t);
      ASSERT_EQ(in_answer, lo <= v && v <= hi)
          << "object " << id << " t=" << t << " v=" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrajectoryIndexPropertyTest,
                         ::testing::Values(1, 2, 3, 1997));

}  // namespace
}  // namespace most
