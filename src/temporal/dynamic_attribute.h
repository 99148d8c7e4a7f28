#ifndef MOST_TEMPORAL_DYNAMIC_ATTRIBUTE_H_
#define MOST_TEMPORAL_DYNAMIC_ATTRIBUTE_H_

#include <string>
#include <vector>

#include "common/interval.h"
#include "common/types.h"
#include "temporal/time_function.h"

namespace most {

/// A dynamic attribute (paper, Section 2.1): the triple
/// (A.value, A.updatetime, A.function). Its value at absolute time
/// `updatetime + t0` is `value + function(t0)` — it changes as time passes
/// even without explicit updates. All three sub-attributes are
/// independently queryable.
class DynamicAttribute {
 public:
  DynamicAttribute() = default;
  DynamicAttribute(double value, Tick updatetime, TimeFunction function)
      : value_(value), updatetime_(updatetime), function_(std::move(function)) {}

  double value() const { return value_; }
  Tick updatetime() const { return updatetime_; }
  const TimeFunction& function() const { return function_; }

  /// The attribute's (implicit) value at absolute time `now`.
  double ValueAt(Tick now) const { return ValueAt(static_cast<double>(now)); }
  double ValueAt(double now) const {
    return value_ + function_.Eval(now - static_cast<double>(updatetime_));
  }

  /// Instantaneous rate of change at absolute time `now` (the paper's
  /// "speed in the X direction" when the attribute is X.POSITION).
  double SlopeAt(Tick now) const {
    return function_.SlopeAt(static_cast<double>(now - updatetime_));
  }

  /// Explicit update: replaces value and function, stamps `now`. This is
  /// the only way the attribute's sub-attributes change (the value itself
  /// keeps changing between updates via the function).
  void Update(Tick now, double new_value, TimeFunction new_function) {
    value_ = new_value;
    updatetime_ = now;
    function_ = std::move(new_function);
  }

  /// Update(now, new_value, TimeFunction::Linear(slope)) without
  /// building a function.
  void UpdateLinear(Tick now, double new_value, double slope) {
    value_ = new_value;
    updatetime_ = now;
    function_.SetLinear(slope);
  }

  /// One maximal linear stretch of the attribute's trajectory.
  struct LinearPiece {
    Interval ticks;        ///< Absolute tick range the piece covers.
    double value_at_begin = 0.0;  ///< Attribute value at ticks.begin.
    double slope = 0.0;
  };

  /// Decomposes the trajectory over the absolute window into maximal linear
  /// pieces (one per TimeFunction piece overlapping the window). The FTL
  /// kinematic solvers and the trajectory index both consume this form.
  std::vector<LinearPiece> LinearPieces(Interval window) const;

  bool operator==(const DynamicAttribute& o) const {
    return value_ == o.value_ && updatetime_ == o.updatetime_ &&
           function_ == o.function_;
  }

  std::string ToString() const;

 private:
  double value_ = 0.0;
  Tick updatetime_ = 0;
  TimeFunction function_;
};

}  // namespace most

#endif  // MOST_TEMPORAL_DYNAMIC_ATTRIBUTE_H_
