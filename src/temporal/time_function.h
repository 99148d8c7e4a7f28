#ifndef MOST_TEMPORAL_TIME_FUNCTION_H_
#define MOST_TEMPORAL_TIME_FUNCTION_H_

#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/types.h"

namespace most {

/// The `A.function` sub-attribute of a dynamic attribute: a function of a
/// single variable t with f(0) = 0 (paper, Section 2.1).
///
/// Functions are piecewise linear: a list of pieces, each starting at a
/// tick offset (relative to the attribute's update time) with a constant
/// slope. The single-piece case is the paper's plain linear motion vector;
/// multiple pieces let one update install a whole planned route (the
/// paper's extension hook "the ideas can be extended to nonlinear
/// functions").
///
/// For t < 0 the first piece's slope extrapolates backwards — callers that
/// query the past of an attribute see its motion continued backwards, which
/// matches the paper's assumption that the stored state describes the
/// object's current motion.
class TimeFunction {
 public:
  struct Piece {
    Tick start = 0;     ///< Offset at which this piece's slope takes over.
    double slope = 0.0;
    /// When set, the function jumps to this value at the piece start
    /// instead of continuing from the previous piece's end value.
    /// Continuous routes never use this; it exists so recorded update
    /// histories (which may teleport a value at an update) can be stitched
    /// back into one function for persistent-query evaluation.
    bool has_reset = false;
    double reset_value = 0.0;
  };

  /// The zero function (static value).
  TimeFunction() = default;

  /// f(t) = slope * t.
  static TimeFunction Linear(double slope) {
    TimeFunction f;
    f.SetLinear(slope);
    return f;
  }

  /// Makes this f(t) = slope * t, equal to Linear(slope), in place.
  void SetLinear(double slope) {
    linear_ = Piece{0, slope};
    route_.clear();
  }

  /// Builds a piecewise function. Requirements: first piece starts at 0,
  /// piece starts strictly increase.
  static Result<TimeFunction> Piecewise(std::vector<Piece> pieces);

  std::span<const Piece> pieces() const {
    if (route_.empty()) return {&linear_, 1};
    return route_;
  }
  bool IsLinear() const { return route_.empty(); }

  /// f(t). f(0) == 0 by construction.
  double Eval(double t) const;

  /// Instantaneous slope at offset t (the right-continuous piece slope).
  double SlopeAt(double t) const;

  /// Value of f at the start of piece i (prefix integral).
  double ValueAtPieceStart(size_t i) const;

  bool operator==(const TimeFunction& o) const;

  std::string ToString() const;

 private:
  /// A one-piece function's piece, held inline: the motion write and a
  /// snapshot row touch no heap memory. Unused while route_ is non-empty.
  Piece linear_;
  /// Every piece of a function with more than one; otherwise empty.
  std::vector<Piece> route_;
};

}  // namespace most

#endif  // MOST_TEMPORAL_TIME_FUNCTION_H_
