#include "ftl/spatial_eval.h"

#include <gtest/gtest.h>

#include <bit>
#include <set>

#include "common/rng.h"
#include "geometry/mec.h"
#include "workload/fleet.h"

namespace most {
namespace {

class SpatialEvalTest : public ::testing::Test {
 protected:
  SpatialEvalTest() {
    EXPECT_TRUE(db_.CreateClass("M", {}, true).ok());
  }

  // Creates an object with a piecewise route given by (start, velocity,
  // switch_tick, velocity2).
  const MostObject* AddPiecewise(Point2 start, Vec2 v1, Tick switch_at,
                                 Vec2 v2) {
    auto obj = db_.CreateObject("M");
    EXPECT_TRUE(obj.ok());
    auto fx = TimeFunction::Piecewise({{0, v1.x}, {switch_at, v2.x}});
    auto fy = TimeFunction::Piecewise({{0, v1.y}, {switch_at, v2.y}});
    EXPECT_TRUE(fx.ok());
    EXPECT_TRUE(fy.ok());
    EXPECT_TRUE(db_.UpdateDynamic("M", (*obj)->id(), kAttrX, start.x, *fx)
                    .ok());
    EXPECT_TRUE(db_.UpdateDynamic("M", (*obj)->id(), kAttrY, start.y, *fy)
                    .ok());
    return *obj;
  }

  const MostObject* AddLinear(Point2 start, Vec2 v) {
    auto obj = db_.CreateObject("M");
    EXPECT_TRUE(obj.ok());
    EXPECT_TRUE(db_.SetMotion("M", (*obj)->id(), start, v).ok());
    return *obj;
  }

  MostDatabase db_;
};

TEST_F(SpatialEvalTest, InsideTicksWithTurn) {
  // Heads toward the square, turns away at t=10 before reaching it; then
  // a second object that turns INTO the square.
  Polygon square = Polygon::Rectangle({20, -5}, {30, 5});
  const MostObject* misses =
      AddPiecewise({0, 0}, {1, 0}, /*switch_at=*/10, {0, 5});
  const MostObject* hits =
      AddPiecewise({0, 50}, {1, 0}, /*switch_at=*/10, {1, -5});
  Interval window(0, 60);

  EXPECT_TRUE(InsideTicks(*misses, square, window).empty());
  IntervalSet hit_when = InsideTicks(*hits, square, window);
  EXPECT_FALSE(hit_when.empty());
  // Verify against per-tick ground truth.
  for (Tick t = 0; t <= 60; ++t) {
    Point2 p = hits->PositionAt(t);
    if (square.BoundaryDistance(p) < 1e-6) continue;
    EXPECT_EQ(hit_when.Contains(t), square.Contains(p)) << "t=" << t;
  }
}

TEST_F(SpatialEvalTest, DistCmpAllOperators) {
  const MostObject* a = AddLinear({0, 0}, {1, 0});
  const MostObject* b = AddLinear({20, 0}, {0, 0});
  Interval window(0, 40);
  // |a-b| = |20 - t|; <= 5 for t in [15, 25].
  EXPECT_EQ(DistCmpTicks(*a, *b, FtlFormula::CmpOp::kLe, 5, window),
            IntervalSet(Interval(15, 25)));
  EXPECT_EQ(DistCmpTicks(*a, *b, FtlFormula::CmpOp::kGe, 5, window),
            IntervalSet::FromIntervals({{0, 15}, {25, 40}}));
  EXPECT_EQ(DistCmpTicks(*a, *b, FtlFormula::CmpOp::kLt, 5, window),
            IntervalSet(Interval(16, 24)));
  EXPECT_EQ(DistCmpTicks(*a, *b, FtlFormula::CmpOp::kGt, 5, window),
            IntervalSet::FromIntervals({{0, 14}, {26, 40}}));
  EXPECT_EQ(DistCmpTicks(*a, *b, FtlFormula::CmpOp::kEq, 5, window),
            IntervalSet::FromIntervals({{15, 15}, {25, 25}}));
  EXPECT_EQ(DistCmpTicks(*a, *b, FtlFormula::CmpOp::kNe, 5, window),
            IntervalSet::FromIntervals({{0, 14}, {16, 24}, {26, 40}}));
}

TEST_F(SpatialEvalTest, DistCmpAcrossMotionChange) {
  // b reverses direction at t=10: distance shrinks, then grows again.
  const MostObject* a = AddLinear({0, 0}, {0, 0});
  const MostObject* b = AddPiecewise({20, 0}, {-1, 0}, 10, {1, 0});
  Interval window(0, 40);
  IntervalSet close = DistCmpTicks(*a, *b, FtlFormula::CmpOp::kLe, 12, window);
  // |b(t)| = 20-t until 10 (min 10 at t=10), then 10+(t-10).
  // <= 12 for t in [8, 12].
  EXPECT_EQ(close, IntervalSet(Interval(8, 12)));
}

TEST_F(SpatialEvalTest, SphereTicksMatchesPerTick) {
  Rng rng(3);
  std::vector<const MostObject*> objs;
  for (int i = 0; i < 3; ++i) {
    objs.push_back(AddPiecewise(
        {0.25 * rng.UniformInt(-100, 100), 0.25 * rng.UniformInt(-100, 100)},
        {0.25 * rng.UniformInt(-6, 6), 0.25 * rng.UniformInt(-6, 6)},
        rng.UniformInt(5, 20),
        {0.25 * rng.UniformInt(-6, 6), 0.25 * rng.UniformInt(-6, 6)}));
  }
  double r = 30.0;
  Interval window(0, 40);
  IntervalSet when = SphereTicks(objs, r, window);
  for (Tick t = 0; t <= 40; ++t) {
    std::vector<Point2> pts;
    for (const MostObject* o : objs) pts.push_back(o->PositionAt(t));
    double mec = MinimalEnclosingCircle(pts).radius;
    if (std::abs(mec - r) < 1e-6) continue;
    EXPECT_EQ(when.Contains(t), mec <= r) << "t=" << t << " mec=" << mec;
  }
}

// The snapshot (structure-of-arrays) kernels against the per-object
// solvers they replicate, on fleets with continuous coordinates and
// piecewise routes: SnapshotInsideTicks must equal InsideTicks for every
// object and region, and SnapshotDistCmpTicks must equal DistCmpTicks for
// every ordered pair and every comparison operator. Normalized interval
// sets compare exactly, so this is a bit-for-bit check.
TEST(SnapshotKernelTest, MatchPerObjectSolversOnFleets) {
  for (uint64_t seed : {7u, 11u, 4099u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    FleetGenerator::Options fopt;
    fopt.num_vehicles = 32;
    fopt.area = 400.0;
    fopt.change_probability = 0.05;
    fopt.seed = seed;
    FleetGenerator fleet(fopt);
    MostDatabase db;
    ASSERT_TRUE(fleet.Populate(&db, "V").ok());
    for (const MotionUpdate& u : fleet.GenerateUpdates(24)) {
      db.clock().AdvanceTo(u.at);
      ASSERT_TRUE(FleetGenerator::Apply(&db, "V", u).ok());
    }
    const Tick now = db.Now();

    // Every other vehicle gets a route that turns once inside the window,
    // so the kernels walk multi-segment motion.
    Rng rng(seed * 31 + 1);
    auto cls = db.GetClass("V");
    ASSERT_TRUE(cls.ok());
    std::vector<ObjectId> ids;
    for (const auto& [id, obj] : (*cls)->objects()) ids.push_back(id);
    for (size_t i = 0; i < ids.size(); i += 2) {
      Point2 p = (*(*cls)->Get(ids[i]))->PositionAt(now);
      Tick turn = rng.UniformInt(1, 40);
      auto fx = TimeFunction::Piecewise(
          {{0, rng.UniformDouble(-3, 3)}, {turn, rng.UniformDouble(-3, 3)}});
      auto fy = TimeFunction::Piecewise(
          {{0, rng.UniformDouble(-3, 3)}, {turn, rng.UniformDouble(-3, 3)}});
      ASSERT_TRUE(fx.ok() && fy.ok());
      ASSERT_TRUE(db.UpdateDynamic("V", ids[i], kAttrX, p.x, *fx).ok());
      ASSERT_TRUE(db.UpdateDynamic("V", ids[i], kAttrY, p.y, *fy).ok());
    }

    auto triangle = Polygon::Create(
        {{rng.UniformDouble(0, 200), rng.UniformDouble(0, 200)},
         {rng.UniformDouble(200, 400), rng.UniformDouble(0, 200)},
         {rng.UniformDouble(100, 300), rng.UniformDouble(200, 400)}});
    ASSERT_TRUE(triangle.ok());
    const std::vector<Polygon> regions = {
        RandomRegion(&rng, fopt.area, 0.2), RandomRegion(&rng, fopt.area, 0.05),
        *triangle};
    const Interval window(now, now + 64);
    ClassSnapshot snap;
    snap.Build(**cls, window);
    ASSERT_EQ(snap.size(), ids.size());
    SpatialScratch scratch;

    for (const Polygon& region : regions) {
      for (size_t oi = 0; oi < snap.size(); ++oi) {
        EXPECT_EQ(SnapshotInsideTicks(snap, oi, region, window, &scratch),
                  InsideTicks(*snap.object(oi), region, window))
            << "object " << snap.id(oi);
      }
    }

    const FtlFormula::CmpOp ops[] = {
        FtlFormula::CmpOp::kLe, FtlFormula::CmpOp::kLt,
        FtlFormula::CmpOp::kGe, FtlFormula::CmpOp::kGt,
        FtlFormula::CmpOp::kEq, FtlFormula::CmpOp::kNe};
    for (double bound : {12.5, 60.0}) {
      for (size_t a = 0; a < snap.size(); ++a) {
        for (size_t b = 0; b < snap.size(); ++b) {
          for (FtlFormula::CmpOp op : ops) {
            EXPECT_EQ(SnapshotDistCmpTicks(snap, a, snap, b, op, bound,
                                           window, &scratch),
                      DistCmpTicks(*snap.object(a), *snap.object(b), op,
                                   bound, window))
                << "pair (" << snap.id(a) << ", " << snap.id(b) << ") op "
                << static_cast<int>(op) << " bound " << bound;
          }
        }
      }
    }
  }
}

// A scoped build's rows are the whole-class build's rows for the scope's
// ids, bit for bit: ids, back-pointers, segment tables and coefficients.
// Ids of another class and of deleted objects are skipped, and an empty
// scope builds no rows.
TEST(SnapshotKernelTest, ScopedBuildMatchesWholeClassRows) {
  FleetGenerator::Options fopt;
  fopt.num_vehicles = 24;
  fopt.area = 400.0;
  fopt.change_probability = 0.05;
  fopt.seed = 5;
  FleetGenerator fleet(fopt);
  MostDatabase db;
  ASSERT_TRUE(fleet.Populate(&db, "V").ok());
  for (const MotionUpdate& u : fleet.GenerateUpdates(12)) {
    db.clock().AdvanceTo(u.at);
    ASSERT_TRUE(FleetGenerator::Apply(&db, "V", u).ok());
  }
  ASSERT_TRUE(db.CreateClass("W", {}, true).ok());
  auto other = db.CreateObject("W");
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE(db.SetMotion("W", (*other)->id(), {1, 2}, {0.5, -0.5}).ok());
  auto cls = db.GetClass("V");
  ASSERT_TRUE(cls.ok());
  std::vector<ObjectId> ids;
  for (const auto& [id, obj] : (*cls)->objects()) ids.push_back(id);

  // The first scoped vehicle turns inside the window (a multi-segment
  // row); the second is deleted.
  const Tick now = db.Now();
  auto fx = TimeFunction::Piecewise({{0, 1.5}, {7, -2.0}});
  auto fy = TimeFunction::Piecewise({{0, -0.5}, {19, 2.5}});
  ASSERT_TRUE(fx.ok() && fy.ok());
  ASSERT_TRUE(db.UpdateDynamic("V", ids[0], kAttrX, 10.0, *fx).ok());
  ASSERT_TRUE(db.UpdateDynamic("V", ids[0], kAttrY, 20.0, *fy).ok());
  ASSERT_TRUE(db.DeleteObject("V", ids[3]).ok());

  const Interval window(now, now + 48);
  ClassSnapshot whole;
  whole.Build(**cls, window);
  std::set<ObjectId> scope = {(*other)->id(), ids[3]};
  std::vector<ObjectId> expected;
  for (size_t i = 0; i < ids.size(); i += 3) {
    scope.insert(ids[i]);
    if (i != 3) expected.push_back(ids[i]);
  }
  ClassSnapshot scoped;
  scoped.Build(**cls, window, &scope);

  ASSERT_EQ(scoped.size(), expected.size());
  EXPECT_EQ(scoped.IndexOf((*other)->id()), ClassSnapshot::npos);
  EXPECT_EQ(scoped.IndexOf(ids[3]), ClassSnapshot::npos);
  EXPECT_GT(scoped.seg_count(0), 1u);
  size_t segments = 0;
  for (size_t i = 0; i < scoped.size(); ++i) {
    SCOPED_TRACE("object " + std::to_string(expected[i]));
    ASSERT_EQ(scoped.id(i), expected[i]);
    const size_t w = whole.IndexOf(expected[i]);
    ASSERT_NE(w, ClassSnapshot::npos);
    EXPECT_EQ(scoped.object(i), whole.object(w));
    EXPECT_EQ(scoped.last_update(i), whole.last_update(w));
    EXPECT_EQ(scoped.spatial_ok(i), whole.spatial_ok(w));
    ASSERT_EQ(scoped.seg_count(i), whole.seg_count(w));
    for (uint32_t k = 0; k < scoped.seg_count(i); ++k) {
      const uint32_t a = scoped.seg_begin(i) + k;
      const uint32_t b = whole.seg_begin(w) + k;
      EXPECT_EQ(scoped.seg_t0()[a], whole.seg_t0()[b]);
      EXPECT_EQ(scoped.seg_t1()[a], whole.seg_t1()[b]);
      EXPECT_EQ(std::bit_cast<uint64_t>(scoped.ox()[a]),
                std::bit_cast<uint64_t>(whole.ox()[b]));
      EXPECT_EQ(std::bit_cast<uint64_t>(scoped.oy()[a]),
                std::bit_cast<uint64_t>(whole.oy()[b]));
      EXPECT_EQ(std::bit_cast<uint64_t>(scoped.vx()[a]),
                std::bit_cast<uint64_t>(whole.vx()[b]));
      EXPECT_EQ(std::bit_cast<uint64_t>(scoped.vy()[a]),
                std::bit_cast<uint64_t>(whole.vy()[b]));
    }
    segments += scoped.seg_count(i);
  }
  EXPECT_EQ(scoped.total_segments(), segments);

  const std::set<ObjectId> empty;
  ClassSnapshot none;
  none.Build(**cls, window, &empty);
  EXPECT_EQ(none.size(), 0u);
  EXPECT_EQ(none.total_segments(), 0u);
  EXPECT_EQ(none.IndexOf(ids[0]), ClassSnapshot::npos);
}

}  // namespace
}  // namespace most
