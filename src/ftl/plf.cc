#include "ftl/plf.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace most {

namespace {
constexpr double kEps = 1e-9;
}  // namespace

Plf Plf::Constant(Interval window, double value) {
  Plf f;
  f.window_ = window;
  f.pieces_ = {{window, value, 0.0}};
  return f;
}

Plf Plf::TimeLine(Interval window) {
  Plf f;
  f.window_ = window;
  f.pieces_ = {{window, static_cast<double>(window.begin), 1.0}};
  return f;
}

Plf Plf::FromPieces(Interval window, std::vector<Piece> pieces) {
  Plf f;
  f.window_ = window;
  f.pieces_ = std::move(pieces);
  MOST_DCHECK(!f.pieces_.empty());
  MOST_DCHECK(f.pieces_.front().ticks.begin == window.begin);
  MOST_DCHECK(f.pieces_.back().ticks.end == window.end);
  return f;
}

bool Plf::IsConstant() const {
  double v = pieces_.front().value_at_begin;
  for (const Piece& p : pieces_) {
    if (p.slope != 0.0 || p.value_at_begin != v) return false;
  }
  return true;
}

double Plf::At(Tick t) const {
  for (const Piece& p : pieces_) {
    if (p.ticks.Contains(t)) return p.At(t);
  }
  // Out of window: extrapolate the nearest piece.
  if (t < window_.begin) return pieces_.front().At(t);
  return pieces_.back().At(t);
}

Plf Plf::Negate() const { return Scale(-1.0); }

Plf Plf::Scale(double k) const {
  Plf out = *this;
  for (Piece& p : out.pieces_) {
    p.value_at_begin *= k;
    p.slope *= k;
  }
  return out;
}

Plf Plf::AddConstant(double k) const {
  Plf out = *this;
  for (Piece& p : out.pieces_) p.value_at_begin += k;
  return out;
}

Plf Plf::Add(const Plf& other) const {
  MOST_DCHECK(window_ == other.window_);
  Plf out;
  out.window_ = window_;
  size_t i = 0, j = 0;
  while (i < pieces_.size() && j < other.pieces_.size()) {
    const Piece& a = pieces_[i];
    const Piece& b = other.pieces_[j];
    Tick lo = std::max(a.ticks.begin, b.ticks.begin);
    Tick hi = std::min(a.ticks.end, b.ticks.end);
    if (lo <= hi) {
      Piece p;
      p.ticks = Interval(lo, hi);
      p.value_at_begin = a.At(lo) + b.At(lo);
      p.slope = a.slope + b.slope;
      out.pieces_.push_back(p);
    }
    if (a.ticks.end < b.ticks.end) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

Plf Plf::Sub(const Plf& other) const { return Add(other.Negate()); }

Result<Plf> Plf::Mul(const Plf& other) const {
  if (other.IsConstant()) return Scale(other.pieces_.front().value_at_begin);
  if (IsConstant()) return other.Scale(pieces_.front().value_at_begin);
  return Status::Unimplemented(
      "product of two time-varying terms is not piecewise linear");
}

Result<Plf> Plf::Div(const Plf& other) const {
  if (!other.IsConstant()) {
    return Status::Unimplemented(
        "division by a time-varying term is not piecewise linear");
  }
  double d = other.pieces_.front().value_at_begin;
  if (d == 0.0) return Status::InvalidArgument("division by zero");
  return Scale(1.0 / d);
}

IntervalSet Plf::TicksLe(const Plf& other) const {
  // this <= other  <=>  diff = this - other <= 0.
  Plf diff = Sub(other);
  std::vector<Interval> out;
  for (const Piece& p : diff.pieces_) {
    double t0 = static_cast<double>(p.ticks.begin);
    double t1 = static_cast<double>(p.ticks.end);
    double lo_t, hi_t;
    if (p.slope == 0.0) {
      if (p.value_at_begin > kEps) continue;
      lo_t = t0;
      hi_t = t1;
    } else {
      // value(t) = v0 + s (t - t0) <= 0.
      double root = t0 - p.value_at_begin / p.slope;
      if (p.slope > 0.0) {
        lo_t = t0;
        hi_t = std::min(t1, root);
      } else {
        lo_t = std::max(t0, root);
        hi_t = t1;
      }
      // A root within kEps past the piece's end (or before its start) is
      // rounding noise: its end tick still holds.
      if (lo_t > hi_t + kEps) continue;
    }
    Tick first = static_cast<Tick>(std::ceil(lo_t - kEps));
    Tick last = static_cast<Tick>(std::floor(hi_t + kEps));
    first = std::max(first, p.ticks.begin);
    last = std::min(last, p.ticks.end);
    if (first <= last) out.push_back(Interval(first, last));
  }
  return IntervalSet::FromIntervals(std::move(out));
}

IntervalSet Plf::TicksGe(const Plf& other) const { return other.TicksLe(*this); }

IntervalSet Plf::TicksEq(const Plf& other) const {
  return TicksLe(other).Intersect(TicksGe(other));
}

}  // namespace most
