#include "geometry/kinematics.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geometry/mec.h"

namespace most {
namespace {

constexpr RealInterval kWindow{0.0, 100.0};

TEST(DistanceWithinTest, HeadOnApproach) {
  // Two objects approaching on the x axis: a at 0 moving +1, b at 20
  // stationary; |a-b| <= 5 when t in [15, 25].
  MovingPoint2 a({0, 0}, {1, 0});
  MovingPoint2 b({20, 0}, {0, 0});
  auto ivs = DistanceWithin(a, b, 5.0, kWindow);
  ASSERT_EQ(ivs.size(), 1u);
  EXPECT_NEAR(ivs[0].begin, 15.0, 1e-9);
  EXPECT_NEAR(ivs[0].end, 25.0, 1e-9);
}

TEST(DistanceWithinTest, NeverWithin) {
  // Parallel motion, constant separation 10 > 5.
  MovingPoint2 a({0, 0}, {1, 0});
  MovingPoint2 b({0, 10}, {1, 0});
  EXPECT_TRUE(DistanceWithin(a, b, 5.0, kWindow).empty());
}

TEST(DistanceWithinTest, AlwaysWithin) {
  MovingPoint2 a({0, 0}, {1, 1});
  MovingPoint2 b({3, 0}, {1, 1});
  auto ivs = DistanceWithin(a, b, 5.0, kWindow);
  ASSERT_EQ(ivs.size(), 1u);
  EXPECT_DOUBLE_EQ(ivs[0].begin, kWindow.begin);
  EXPECT_DOUBLE_EQ(ivs[0].end, kWindow.end);
}

TEST(DistanceWithinTest, ClipsToWindow) {
  // Within 5 during [15,25] but window ends at 20.
  MovingPoint2 a({0, 0}, {1, 0});
  MovingPoint2 b({20, 0}, {0, 0});
  auto ivs = DistanceWithin(a, b, 5.0, {0.0, 20.0});
  ASSERT_EQ(ivs.size(), 1u);
  EXPECT_NEAR(ivs[0].begin, 15.0, 1e-9);
  EXPECT_NEAR(ivs[0].end, 20.0, 1e-9);
}

TEST(DistanceWithinTest, LinearCaseSameVelocityDifferentStart) {
  // Same velocity: relative position constant -> within iff initial
  // distance <= r.
  MovingPoint2 a({0, 0}, {2, 3});
  MovingPoint2 b({1, 1}, {2, 3});
  EXPECT_EQ(DistanceWithin(a, b, 2.0, kWindow).size(), 1u);
  EXPECT_TRUE(DistanceWithin(a, b, 1.0, kWindow).empty());
}

TEST(DistanceAtLeastTest, ComplementOfWithin) {
  MovingPoint2 a({0, 0}, {1, 0});
  MovingPoint2 b({20, 0}, {0, 0});
  auto ivs = DistanceAtLeast(a, b, 5.0, kWindow);
  ASSERT_EQ(ivs.size(), 2u);
  EXPECT_NEAR(ivs[0].begin, 0.0, 1e-9);
  EXPECT_NEAR(ivs[0].end, 15.0, 1e-9);
  EXPECT_NEAR(ivs[1].begin, 25.0, 1e-9);
  EXPECT_NEAR(ivs[1].end, 100.0, 1e-9);
}

TEST(InsidePolygonTest, CrossThrough) {
  // Point crosses a 10x10 square from the left: inside when x in [0,10],
  // i.e. t in [10, 20].
  Polygon square = Polygon::Rectangle({0, 0}, {10, 10});
  MovingPoint2 p({-10, 5}, {1, 0});
  auto ivs = InsidePolygon(p, square, kWindow);
  ASSERT_EQ(ivs.size(), 1u);
  EXPECT_NEAR(ivs[0].begin, 10.0, 1e-9);
  EXPECT_NEAR(ivs[0].end, 20.0, 1e-9);
}

TEST(InsidePolygonTest, StationaryInside) {
  Polygon square = Polygon::Rectangle({0, 0}, {10, 10});
  MovingPoint2 p({5, 5}, {0, 0});
  auto ivs = InsidePolygon(p, square, kWindow);
  ASSERT_EQ(ivs.size(), 1u);
  EXPECT_DOUBLE_EQ(ivs[0].begin, 0.0);
  EXPECT_DOUBLE_EQ(ivs[0].end, 100.0);
}

TEST(InsidePolygonTest, StationaryOutside) {
  Polygon square = Polygon::Rectangle({0, 0}, {10, 10});
  MovingPoint2 p({50, 5}, {0, 0});
  EXPECT_TRUE(InsidePolygon(p, square, kWindow).empty());
}

// A one-tick motion segment (a piecewise route whose breakpoint is the
// window's first or last tick) is solved over a one-instant window.
TEST(InsidePolygonTest, OneInstantWindow) {
  Polygon square = Polygon::Rectangle({0, 0}, {10, 10});
  MovingPoint2 p({-7, 5}, {1, 0});  // Inside on [7, 17].
  auto ivs = InsidePolygon(p, square, {12.0, 12.0});
  ASSERT_EQ(ivs.size(), 1u);
  EXPECT_DOUBLE_EQ(ivs[0].begin, 12.0);
  EXPECT_DOUBLE_EQ(ivs[0].end, 12.0);
  EXPECT_TRUE(InsidePolygon(p, square, {3.0, 3.0}).empty());
}

TEST(InsidePolygonTest, MissesPolygon) {
  Polygon square = Polygon::Rectangle({0, 0}, {10, 10});
  MovingPoint2 p({-10, 20}, {1, 0});
  EXPECT_TRUE(InsidePolygon(p, square, kWindow).empty());
}

TEST(InsidePolygonTest, ConcaveDoubleEntry) {
  // Crossing the "U" along y=4 enters the left prong, exits into the
  // notch, and re-enters the right prong.
  auto u = Polygon::Create({{0, 0}, {6, 0}, {6, 6}, {4, 6}, {4, 2},
                            {2, 2}, {2, 6}, {0, 6}});
  ASSERT_TRUE(u.ok());
  MovingPoint2 p({-2, 4}, {1, 0});
  auto ivs = InsidePolygon(p, *u, kWindow);
  ASSERT_EQ(ivs.size(), 2u);
  EXPECT_NEAR(ivs[0].begin, 2.0, 1e-9);   // x=0
  EXPECT_NEAR(ivs[0].end, 4.0, 1e-9);     // x=2
  EXPECT_NEAR(ivs[1].begin, 6.0, 1e-9);   // x=4
  EXPECT_NEAR(ivs[1].end, 8.0, 1e-9);     // x=6
}

TEST(TicksWhereTest, RoundsInward) {
  IntervalSet s = TicksWhere({{1.5, 4.5}});
  EXPECT_EQ(s, IntervalSet(Interval(2, 4)));
}

TEST(TicksWhereTest, EpsilonAbsorbsFloatNoise) {
  // 4.999999999 should still include tick 5.
  IntervalSet s = TicksWhere({{2.0000000001, 4.9999999999}});
  EXPECT_EQ(s, IntervalSet(Interval(2, 4 + 1)));
}

TEST(TicksWhereTest, EmptyWhenNoTickInside) {
  EXPECT_TRUE(TicksWhere({{1.2, 1.8}}).empty());
}

TEST(TicksWhereTest, MergesTouchingIntervals) {
  IntervalSet s = TicksWhere({{0.0, 3.2}, {3.9, 7.0}});
  EXPECT_EQ(s, IntervalSet(Interval(0, 7)));
}

TEST(IntersectRealTest, Basic) {
  auto out = IntersectReal({{0, 5}, {10, 15}}, {{3, 12}});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].begin, 3.0);
  EXPECT_DOUBLE_EQ(out[0].end, 5.0);
  EXPECT_DOUBLE_EQ(out[1].begin, 10.0);
  EXPECT_DOUBLE_EQ(out[1].end, 12.0);
}

TEST(WithinSphereTest, TwoPointsExact) {
  // Two points approaching: enclosable in radius r iff distance <= 2r.
  MovingPoint2 a({0, 0}, {1, 0});
  MovingPoint2 b({20, 0}, {0, 0});
  // Distance <= 10 for t in [10, 30] -> ticks 10..30.
  IntervalSet s = WithinSphereTicks({a, b}, 5.0, Interval(0, 100));
  EXPECT_EQ(s, IntervalSet(Interval(10, 30)));
}

TEST(WithinSphereTest, SinglePointAlwaysFits) {
  IntervalSet s = WithinSphereTicks({MovingPoint2({0, 0}, {9, 9})}, 0.0,
                                    Interval(0, 10));
  EXPECT_EQ(s, IntervalSet(Interval(0, 10)));
}

TEST(WithinSphereTest, ThreePointsUseMec) {
  // Three stationary points forming a triangle with circumradius ~5.77;
  // they fit in radius 6 but not radius 5.
  double s = 10.0;
  MovingPoint2 a({0, 0}, {0, 0});
  MovingPoint2 b({s, 0}, {0, 0});
  MovingPoint2 c({s / 2, s * std::sqrt(3.0) / 2}, {0, 0});
  EXPECT_EQ(WithinSphereTicks({a, b, c}, 6.0, Interval(0, 5)),
            IntervalSet(Interval(0, 5)));
  EXPECT_TRUE(WithinSphereTicks({a, b, c}, 5.0, Interval(0, 5)).empty());
}

TEST(WithinSphereTest, ConvergingTriangle) {
  // Three points converging towards the origin become enclosable once
  // close enough.
  MovingPoint2 a({-30, 0}, {1, 0});
  MovingPoint2 b({30, 0}, {-1, 0});
  MovingPoint2 c({0, 30}, {0, -1});
  IntervalSet s = WithinSphereTicks({a, b, c}, 5.0, Interval(0, 40));
  EXPECT_FALSE(s.empty());
  EXPECT_FALSE(s.Contains(0));
  // At t=30 all three are at the origin.
  EXPECT_TRUE(s.Contains(30));
}

// ---------------------------------------------------------------------------
// Property tests: analytic interval solvers vs. per-tick sampling oracle.
// ---------------------------------------------------------------------------

class KinematicsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

MovingPoint2 RandomMover(Rng* rng) {
  return MovingPoint2({rng->UniformDouble(-50, 50), rng->UniformDouble(-50, 50)},
                      {rng->UniformDouble(-3, 3), rng->UniformDouble(-3, 3)});
}

TEST_P(KinematicsPropertyTest, DistanceWithinMatchesSampling) {
  Rng rng(GetParam());
  for (int round = 0; round < 40; ++round) {
    MovingPoint2 a = RandomMover(&rng);
    MovingPoint2 b = RandomMover(&rng);
    double r = rng.UniformDouble(0.5, 30.0);
    IntervalSet ticks = TicksWhere(DistanceWithin(a, b, r, {0.0, 60.0}));
    for (Tick t = 0; t <= 60; ++t) {
      double d = std::sqrt(DistanceSquaredAt(a, b, static_cast<double>(t)));
      // Skip near-boundary ticks where float rounding is ambiguous.
      if (std::abs(d - r) < 1e-6) continue;
      EXPECT_EQ(ticks.Contains(t), d <= r)
          << "t=" << t << " d=" << d << " r=" << r;
    }
  }
}

TEST_P(KinematicsPropertyTest, DistanceAtLeastIsComplement) {
  Rng rng(GetParam());
  for (int round = 0; round < 40; ++round) {
    MovingPoint2 a = RandomMover(&rng);
    MovingPoint2 b = RandomMover(&rng);
    double r = rng.UniformDouble(0.5, 30.0);
    IntervalSet within = TicksWhere(DistanceWithin(a, b, r, {0.0, 60.0}));
    IntervalSet at_least = TicksWhere(DistanceAtLeast(a, b, r, {0.0, 60.0}));
    // Every tick is in at least one of the two (boundary ticks in both).
    for (Tick t = 0; t <= 60; ++t) {
      EXPECT_TRUE(within.Contains(t) || at_least.Contains(t)) << "t=" << t;
    }
  }
}

TEST_P(KinematicsPropertyTest, InsidePolygonMatchesSampling) {
  Rng rng(GetParam());
  for (int round = 0; round < 30; ++round) {
    Polygon poly = Polygon::RegularApprox(
        {rng.UniformDouble(-20, 20), rng.UniformDouble(-20, 20)},
        rng.UniformDouble(3, 25), static_cast<int>(rng.UniformInt(3, 10)));
    MovingPoint2 p = RandomMover(&rng);
    IntervalSet ticks = TicksWhere(InsidePolygon(p, poly, {0.0, 60.0}));
    for (Tick t = 0; t <= 60; ++t) {
      Point2 pos = p.At(static_cast<double>(t));
      // Skip ticks too close to the boundary for float-stable comparison.
      if (poly.BoundaryDistance(pos) < 1e-6) continue;
      EXPECT_EQ(ticks.Contains(t), poly.Contains(pos))
          << "t=" << t << " pos=" << pos;
    }
  }
}

TEST_P(KinematicsPropertyTest, WithinSphereMatchesMecSampling) {
  Rng rng(GetParam());
  for (int round = 0; round < 10; ++round) {
    std::vector<MovingPoint2> movers;
    int k = static_cast<int>(rng.UniformInt(2, 5));
    for (int i = 0; i < k; ++i) movers.push_back(RandomMover(&rng));
    double r = rng.UniformDouble(5.0, 60.0);
    IntervalSet ticks = WithinSphereTicks(movers, r, Interval(0, 40));
    std::vector<Point2> sample(movers.size());
    for (Tick t = 0; t <= 40; ++t) {
      for (int i = 0; i < k; ++i) {
        sample[i] = movers[i].At(static_cast<double>(t));
      }
      double mec = MinimalEnclosingCircle(sample).radius;
      if (std::abs(mec - r) < 1e-6) continue;  // Boundary-ambiguous.
      EXPECT_EQ(ticks.Contains(t), mec <= r) << "t=" << t << " mec=" << mec;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KinematicsPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

}  // namespace
}  // namespace most
