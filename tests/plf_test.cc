#include "ftl/plf.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace most {
namespace {

const Interval kWindow{0, 100};

TEST(PlfTest, ConstantAndTimeLine) {
  Plf c = Plf::Constant(kWindow, 7.5);
  EXPECT_TRUE(c.IsConstant());
  EXPECT_DOUBLE_EQ(c.At(0), 7.5);
  EXPECT_DOUBLE_EQ(c.At(100), 7.5);

  Plf t = Plf::TimeLine(kWindow);
  EXPECT_FALSE(t.IsConstant());
  EXPECT_DOUBLE_EQ(t.At(0), 0.0);
  EXPECT_DOUBLE_EQ(t.At(42), 42.0);
}

TEST(PlfTest, ArithmeticOps) {
  Plf t = Plf::TimeLine(kWindow);
  Plf c = Plf::Constant(kWindow, 10.0);
  EXPECT_DOUBLE_EQ(t.Add(c).At(5), 15.0);
  EXPECT_DOUBLE_EQ(t.Sub(c).At(5), -5.0);
  EXPECT_DOUBLE_EQ(t.Negate().At(5), -5.0);
  EXPECT_DOUBLE_EQ(t.Scale(3.0).At(5), 15.0);
  EXPECT_DOUBLE_EQ(t.AddConstant(1.0).At(5), 6.0);

  auto prod = t.Mul(c);
  ASSERT_TRUE(prod.ok());
  EXPECT_DOUBLE_EQ(prod->At(5), 50.0);
  auto quot = t.Div(c);
  ASSERT_TRUE(quot.ok());
  EXPECT_DOUBLE_EQ(quot->At(5), 0.5);

  // Nonlinear products and division by varying terms are rejected.
  EXPECT_FALSE(t.Mul(t).ok());
  EXPECT_FALSE(c.Div(t).ok());
  EXPECT_FALSE(c.Div(Plf::Constant(kWindow, 0.0)).ok());
}

TEST(PlfTest, AddAlignsDifferentPieceBoundaries) {
  // f: slope 1 until 50, then slope 0; g: slope 0 until 30, then slope 2.
  Plf f = Plf::FromPieces(kWindow, {{Interval(0, 49), 0.0, 1.0},
                                    {Interval(50, 100), 50.0, 0.0}});
  Plf g = Plf::FromPieces(kWindow, {{Interval(0, 29), 5.0, 0.0},
                                    {Interval(30, 100), 5.0, 2.0}});
  Plf sum = f.Add(g);
  for (Tick t : {0, 10, 29, 30, 49, 50, 80, 100}) {
    EXPECT_NEAR(sum.At(t), f.At(t) + g.At(t), 1e-9) << t;
  }
  EXPECT_EQ(sum.pieces().size(), 3u);  // Cuts at 30 and 50.
}

TEST(PlfTest, TicksLeSimpleCrossing) {
  // t <= 40.
  Plf t = Plf::TimeLine(kWindow);
  Plf c = Plf::Constant(kWindow, 40.0);
  EXPECT_EQ(t.TicksLe(c), IntervalSet(Interval(0, 40)));
  EXPECT_EQ(t.TicksGe(c), IntervalSet(Interval(40, 100)));
  EXPECT_EQ(t.TicksEq(c), IntervalSet(Interval(40, 40)));
}

TEST(PlfTest, TicksLeNonIntegerCrossing) {
  // 2t <= 41 -> t <= 20.5 -> ticks 0..20.
  Plf t = Plf::TimeLine(kWindow).Scale(2.0);
  Plf c = Plf::Constant(kWindow, 41.0);
  EXPECT_EQ(t.TicksLe(c), IntervalSet(Interval(0, 20)));
}

TEST(PlfTest, CompareConstantFunctions) {
  Plf a = Plf::Constant(kWindow, 1.0);
  Plf b = Plf::Constant(kWindow, 2.0);
  EXPECT_EQ(a.TicksLe(b), IntervalSet(kWindow));
  EXPECT_TRUE(a.TicksGe(b).empty());
  EXPECT_EQ(a.TicksEq(a), IntervalSet(kWindow));
}

// Off the grid, a function compared with its own value at a tick holds at
// that tick. At a window end the root then lands within rounding of the
// tick, on either side of it, and the tolerance must still admit it.
TEST(PlfTest, OwnValueHoldsAtItsTickOffTheGrid) {
  const Interval window(11, 21);
  Rng rng(7);
  for (int round = 0; round < 200; ++round) {
    const double value = rng.UniformDouble(-100, 100);
    const double slope = rng.UniformDouble(-2, 2);
    const Plf f = Plf::FromPieces(window, {{window, value, slope}});
    for (Tick t = window.begin; t <= window.end; ++t) {
      const Plf own = Plf::Constant(window, f.At(t));
      EXPECT_TRUE(f.TicksLe(own).Contains(t)) << "t=" << t << " " << slope;
      EXPECT_TRUE(f.TicksGe(own).Contains(t)) << "t=" << t << " " << slope;
    }
  }
}

class PlfPropertyTest : public ::testing::TestWithParam<uint64_t> {};

Plf RandomPlf(Rng* rng, Interval window) {
  // 1-3 pieces on a 0.25 grid.
  int pieces = static_cast<int>(rng->UniformInt(1, 3));
  std::vector<Tick> cuts = {window.begin};
  for (int i = 1; i < pieces; ++i) {
    cuts.push_back(rng->UniformInt(window.begin + 1, window.end - 1));
  }
  cuts.push_back(window.end + 1);
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::vector<Plf::Piece> ps;
  double value = 0.25 * static_cast<double>(rng->UniformInt(-80, 80));
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    Plf::Piece p;
    p.ticks = Interval(cuts[i], cuts[i + 1] - 1);
    p.value_at_begin = value;
    p.slope = 0.25 * static_cast<double>(rng->UniformInt(-8, 8));
    value = p.At(p.ticks.end) + p.slope;  // Keep it continuous.
    ps.push_back(p);
  }
  return Plf::FromPieces(window, std::move(ps));
}

TEST_P(PlfPropertyTest, ComparisonsMatchPointwiseEvaluation) {
  Rng rng(GetParam());
  Interval window(0, 60);
  for (int round = 0; round < 50; ++round) {
    Plf a = RandomPlf(&rng, window);
    Plf b = RandomPlf(&rng, window);
    IntervalSet le = a.TicksLe(b);
    IntervalSet ge = a.TicksGe(b);
    IntervalSet eq = a.TicksEq(b);
    for (Tick t = window.begin; t <= window.end; ++t) {
      double diff = a.At(t) - b.At(t);
      EXPECT_EQ(le.Contains(t), diff <= 1e-9) << "t=" << t;
      EXPECT_EQ(ge.Contains(t), diff >= -1e-9) << "t=" << t;
      EXPECT_EQ(eq.Contains(t), std::abs(diff) <= 1e-9) << "t=" << t;
    }
  }
}

TEST_P(PlfPropertyTest, AddSubMatchPointwise) {
  Rng rng(GetParam() + 99);
  Interval window(0, 60);
  for (int round = 0; round < 30; ++round) {
    Plf a = RandomPlf(&rng, window);
    Plf b = RandomPlf(&rng, window);
    Plf sum = a.Add(b);
    Plf diff = a.Sub(b);
    for (Tick t = window.begin; t <= window.end; ++t) {
      EXPECT_NEAR(sum.At(t), a.At(t) + b.At(t), 1e-9);
      EXPECT_NEAR(diff.At(t), a.At(t) - b.At(t), 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlfPropertyTest,
                         ::testing::Values(1, 2, 3, 1997));

}  // namespace
}  // namespace most
