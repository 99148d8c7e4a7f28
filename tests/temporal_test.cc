#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "temporal/clock.h"
#include "temporal/dynamic_attribute.h"
#include "temporal/time_function.h"

namespace most {
namespace {

TEST(TimeFunctionTest, ZeroFunction) {
  TimeFunction f;
  EXPECT_DOUBLE_EQ(f.Eval(0), 0.0);
  EXPECT_DOUBLE_EQ(f.Eval(100), 0.0);
  EXPECT_DOUBLE_EQ(f.SlopeAt(50), 0.0);
  EXPECT_TRUE(f.IsLinear());
}

TEST(TimeFunctionTest, LinearEval) {
  TimeFunction f = TimeFunction::Linear(5.0);
  EXPECT_DOUBLE_EQ(f.Eval(0), 0.0);
  EXPECT_DOUBLE_EQ(f.Eval(3), 15.0);
  EXPECT_DOUBLE_EQ(f.Eval(-2), -10.0);  // Backward extrapolation.
  EXPECT_DOUBLE_EQ(f.SlopeAt(7), 5.0);
}

TEST(TimeFunctionTest, PiecewiseValidation) {
  EXPECT_FALSE(TimeFunction::Piecewise({}).ok());
  EXPECT_FALSE(TimeFunction::Piecewise({{5, 1.0}}).ok());  // Must start at 0.
  EXPECT_FALSE(
      TimeFunction::Piecewise({{0, 1.0}, {3, 2.0}, {3, 4.0}}).ok());
  EXPECT_TRUE(TimeFunction::Piecewise({{0, 1.0}, {3, 2.0}}).ok());
}

TEST(TimeFunctionTest, PiecewiseEvalIsContinuous) {
  // Slope 2 for t in [0,5), slope -1 afterwards.
  auto f = TimeFunction::Piecewise({{0, 2.0}, {5, -1.0}});
  ASSERT_TRUE(f.ok());
  EXPECT_DOUBLE_EQ(f->Eval(0), 0.0);
  EXPECT_DOUBLE_EQ(f->Eval(5), 10.0);
  EXPECT_DOUBLE_EQ(f->Eval(7), 8.0);
  EXPECT_DOUBLE_EQ(f->Eval(4.5), 9.0);
  EXPECT_DOUBLE_EQ(f->SlopeAt(4.5), 2.0);
  EXPECT_DOUBLE_EQ(f->SlopeAt(5.0), -1.0);
  EXPECT_DOUBLE_EQ(f->SlopeAt(100), -1.0);
}

TEST(TimeFunctionTest, ValueAtPieceStart) {
  auto f = TimeFunction::Piecewise({{0, 2.0}, {5, -1.0}, {10, 0.5}});
  ASSERT_TRUE(f.ok());
  EXPECT_DOUBLE_EQ(f->ValueAtPieceStart(0), 0.0);
  EXPECT_DOUBLE_EQ(f->ValueAtPieceStart(1), 10.0);
  EXPECT_DOUBLE_EQ(f->ValueAtPieceStart(2), 5.0);
}

TEST(TimeFunctionTest, ResetAppliesFromItsStartTick) {
  // A parked value set elsewhere at offset 4: the piece that starts there
  // owns its start tick, so the jump is visible at 4, not only after it.
  auto f = TimeFunction::Piecewise(
      {{0, 0.0, /*has_reset=*/true, 100.0}, {4, 0.5, /*has_reset=*/true, 5.0}});
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->Eval(3.5), 100.0);
  EXPECT_EQ(f->Eval(4), 5.0);
  EXPECT_EQ(f->Eval(4), f->ValueAtPieceStart(1));
  EXPECT_EQ(f->Eval(6), 6.0);
  // The segment a persistent history reads starts at the reset value.
  DynamicAttribute a(0.0, 10, *f);
  std::vector<DynamicAttribute::LinearPiece> pieces =
      a.LinearPieces(Interval(10, 20));
  ASSERT_EQ(pieces.size(), 2u);
  EXPECT_EQ(pieces[1].ticks.begin, 14);
  EXPECT_EQ(pieces[1].value_at_begin, 5.0);
}

TEST(TimeFunctionTest, ResetFreeBoundariesAreBitIdenticalToThePreviousPiece) {
  // Without resets a boundary tick belongs to the next piece but must read
  // exactly the previous piece's end value, bit for bit: the prefix sum
  // of slope * length, summed in piece order.
  auto f = TimeFunction::Piecewise(
      {{0, 0.1}, {3, -0.7}, {7, 1.3}, {8, 0.0}, {13, -2.9}});
  ASSERT_TRUE(f.ok());
  const std::span<const TimeFunction::Piece> pieces = f->pieces();
  double end_of_previous = 0.0;
  for (size_t i = 1; i < pieces.size(); ++i) {
    end_of_previous +=
        pieces[i - 1].slope *
        static_cast<double>(pieces[i].start - pieces[i - 1].start);
    const double at = f->Eval(static_cast<double>(pieces[i].start));
    EXPECT_EQ(std::bit_cast<uint64_t>(at),
              std::bit_cast<uint64_t>(end_of_previous))
        << "boundary " << pieces[i].start << ": " << at << " vs "
        << end_of_previous;
    EXPECT_EQ(std::bit_cast<uint64_t>(at),
              std::bit_cast<uint64_t>(f->ValueAtPieceStart(i)));
  }
}

TEST(DynamicAttributeTest, PaperExampleSpeedFive) {
  // Paper Section 2.3: X.POSITION changes according to 5t.
  DynamicAttribute x(0.0, 0, TimeFunction::Linear(5.0));
  EXPECT_DOUBLE_EQ(x.ValueAt(Tick{0}), 0.0);
  EXPECT_DOUBLE_EQ(x.ValueAt(Tick{2}), 10.0);
  EXPECT_DOUBLE_EQ(x.SlopeAt(2), 5.0);
}

TEST(DynamicAttributeTest, ValueChangesWithoutExplicitUpdate) {
  // The defining property of a dynamic attribute: two queries at different
  // times see different values with no intervening update.
  DynamicAttribute a(100.0, 50, TimeFunction::Linear(2.0));
  EXPECT_DOUBLE_EQ(a.ValueAt(Tick{50}), 100.0);
  EXPECT_DOUBLE_EQ(a.ValueAt(Tick{60}), 120.0);
  EXPECT_DOUBLE_EQ(a.ValueAt(Tick{55}), 110.0);
}

TEST(DynamicAttributeTest, UpdateReplacesSubAttributes) {
  DynamicAttribute a(0.0, 0, TimeFunction::Linear(5.0));
  a.Update(/*now=*/10, /*new_value=*/a.ValueAt(Tick{10}),
           TimeFunction::Linear(7.0));
  EXPECT_DOUBLE_EQ(a.value(), 50.0);
  EXPECT_EQ(a.updatetime(), 10);
  EXPECT_DOUBLE_EQ(a.ValueAt(Tick{12}), 64.0);
  EXPECT_DOUBLE_EQ(a.SlopeAt(12), 7.0);
}

TEST(DynamicAttributeTest, SubAttributesAreQueryable) {
  // Paper: "the user can ask for the objects for which
  // X.POSITION.function = 5*t".
  DynamicAttribute a(3.0, 7, TimeFunction::Linear(5.0));
  EXPECT_DOUBLE_EQ(a.value(), 3.0);
  EXPECT_EQ(a.updatetime(), 7);
  EXPECT_EQ(a.function(), TimeFunction::Linear(5.0));
  EXPECT_FALSE(a.function() == TimeFunction::Linear(4.0));
}

TEST(DynamicAttributeTest, LinearPiecesSingle) {
  DynamicAttribute a(10.0, 5, TimeFunction::Linear(2.0));
  auto pieces = a.LinearPieces(Interval(0, 20));
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0].ticks, Interval(0, 20));
  EXPECT_DOUBLE_EQ(pieces[0].value_at_begin, 0.0);  // Extrapolated back.
  EXPECT_DOUBLE_EQ(pieces[0].slope, 2.0);
}

TEST(DynamicAttributeTest, LinearPiecesPiecewise) {
  auto f = TimeFunction::Piecewise({{0, 1.0}, {10, -2.0}});
  ASSERT_TRUE(f.ok());
  DynamicAttribute a(0.0, 100, *f);
  auto pieces = a.LinearPieces(Interval(100, 130));
  ASSERT_EQ(pieces.size(), 2u);
  EXPECT_EQ(pieces[0].ticks, Interval(100, 109));
  EXPECT_DOUBLE_EQ(pieces[0].value_at_begin, 0.0);
  EXPECT_DOUBLE_EQ(pieces[0].slope, 1.0);
  EXPECT_EQ(pieces[1].ticks, Interval(110, 130));
  EXPECT_DOUBLE_EQ(pieces[1].value_at_begin, 10.0);
  EXPECT_DOUBLE_EQ(pieces[1].slope, -2.0);
}

TEST(DynamicAttributeTest, LinearPiecesWindowBeforeUpdate) {
  auto f = TimeFunction::Piecewise({{0, 1.0}, {10, -2.0}});
  ASSERT_TRUE(f.ok());
  DynamicAttribute a(0.0, 100, *f);
  // Window entirely before the second piece begins.
  auto pieces = a.LinearPieces(Interval(90, 105));
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0].ticks, Interval(90, 105));
  EXPECT_DOUBLE_EQ(pieces[0].slope, 1.0);
  EXPECT_DOUBLE_EQ(pieces[0].value_at_begin, -10.0);
}

TEST(DynamicAttributeTest, PieceValuesAgreeWithValueAt) {
  auto f = TimeFunction::Piecewise({{0, 1.5}, {4, -0.5}, {9, 3.0}});
  ASSERT_TRUE(f.ok());
  DynamicAttribute a(7.0, 20, *f);
  for (const auto& piece : a.LinearPieces(Interval(15, 40))) {
    for (Tick t = piece.ticks.begin; t <= piece.ticks.end; ++t) {
      double from_piece =
          piece.value_at_begin +
          piece.slope * static_cast<double>(t - piece.ticks.begin);
      EXPECT_NEAR(from_piece, a.ValueAt(t), 1e-9) << "t=" << t;
    }
  }
}

TEST(ClockTest, AdvanceAndJump) {
  Clock c;
  EXPECT_EQ(c.Now(), 0);
  c.Advance();
  EXPECT_EQ(c.Now(), 1);
  c.Advance(9);
  EXPECT_EQ(c.Now(), 10);
  c.AdvanceTo(5);  // Backward jumps ignored.
  EXPECT_EQ(c.Now(), 10);
  c.AdvanceTo(50);
  EXPECT_EQ(c.Now(), 50);
}

}  // namespace
}  // namespace most
