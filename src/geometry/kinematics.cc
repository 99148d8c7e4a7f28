#include "geometry/kinematics.h"

#include <algorithm>
#include <cmath>

namespace most {

namespace {

/// Appends `iv` clipped to `window` to *out, if anything is left of it.
void AppendClipped(RealInterval iv, RealInterval window,
                   std::vector<RealInterval>* out) {
  iv.begin = std::max(iv.begin, window.begin);
  iv.end = std::min(iv.end, window.end);
  if (iv.valid()) out->push_back(iv);
}

}  // namespace

double DistanceSquaredAt(const MovingPoint2& a, const MovingPoint2& b,
                         double t) {
  return a.At(t).DistanceSquaredTo(b.At(t));
}

void DistanceWithinInto(const MovingPoint2& a, const MovingPoint2& b, double r,
                        RealInterval window, std::vector<RealInterval>* out) {
  out->clear();
  if (r < 0.0 || !window.valid()) return;
  // |dp + dv*t|^2 <= r^2  <=>  A t^2 + B t + C <= 0.
  Vec2 dp = a.origin - b.origin;
  Vec2 dv = a.velocity - b.velocity;
  double A = dv.NormSquared();
  double B = 2.0 * dp.Dot(dv);
  double C = dp.NormSquared() - r * r;
  if (A == 0.0) {
    if (B == 0.0) {
      // Constant distance.
      if (C <= 0.0) out->push_back(window);
      return;
    }
    double root = -C / B;
    RealInterval iv = (B > 0.0)
                          ? RealInterval{window.begin, root}
                          : RealInterval{root, window.end};
    AppendClipped(iv, window, out);
    return;
  }
  double disc = B * B - 4.0 * A * C;
  if (disc < 0.0) return;  // Never within r (A > 0: parabola opens up).
  double sq = std::sqrt(disc);
  double t1 = (-B - sq) / (2.0 * A);
  double t2 = (-B + sq) / (2.0 * A);
  AppendClipped({t1, t2}, window, out);
}

std::vector<RealInterval> DistanceWithin(const MovingPoint2& a,
                                         const MovingPoint2& b, double r,
                                         RealInterval window) {
  std::vector<RealInterval> out;
  DistanceWithinInto(a, b, r, window, &out);
  return out;
}

void DistanceAtLeastInto(const MovingPoint2& a, const MovingPoint2& b,
                         double r, RealInterval window,
                         std::vector<RealInterval>* out) {
  out->clear();
  if (!window.valid()) return;
  if (r <= 0.0) {
    out->push_back(window);
    return;
  }
  Vec2 dp = a.origin - b.origin;
  Vec2 dv = a.velocity - b.velocity;
  double A = dv.NormSquared();
  double B = 2.0 * dp.Dot(dv);
  double C = dp.NormSquared() - r * r;
  if (A == 0.0) {
    if (B == 0.0) {
      if (C >= 0.0) out->push_back(window);
      return;
    }
    double root = -C / B;
    RealInterval iv = (B > 0.0)
                          ? RealInterval{root, window.end}
                          : RealInterval{window.begin, root};
    AppendClipped(iv, window, out);
    return;
  }
  double disc = B * B - 4.0 * A * C;
  if (disc <= 0.0) {  // q(t) >= 0 everywhere.
    out->push_back(window);
    return;
  }
  double sq = std::sqrt(disc);
  double t1 = (-B - sq) / (2.0 * A);
  double t2 = (-B + sq) / (2.0 * A);
  AppendClipped({window.begin, t1}, window, out);
  AppendClipped({t2, window.end}, window, out);
}

std::vector<RealInterval> DistanceAtLeast(const MovingPoint2& a,
                                          const MovingPoint2& b, double r,
                                          RealInterval window) {
  std::vector<RealInterval> out;
  DistanceAtLeastInto(a, b, r, window, &out);
  return out;
}

void InsidePolygonInto(const MovingPoint2& p, const Polygon& poly,
                       RealInterval window, std::vector<double>* events_buf,
                       std::vector<RealInterval>* out) {
  out->clear();
  if (!window.valid()) return;
  if (p.IsStationary()) {
    if (poly.Contains(p.origin)) out->push_back(window);
    return;
  }
  if (window.begin == window.end) {
    // One instant (a one-tick motion segment): no piece between events.
    if (poly.Contains(p.At(window.begin))) out->push_back(window);
    return;
  }
  // Candidate event times: the moving point crosses an edge's supporting
  // line. cross(b - a, p(t) - a) is linear in t.
  std::vector<double>& events = *events_buf;
  events.clear();
  events.push_back(window.begin);
  events.push_back(window.end);
  const auto& vs = poly.vertices();
  size_t n = vs.size();
  for (size_t i = 0, j = n - 1; i < n; j = i++) {
    const Point2& a = vs[j];
    const Point2& b = vs[i];
    Vec2 e = b - a;
    // cross(e, origin - a) + t * cross(e, velocity) = 0.
    double c0 = e.Cross(p.origin - a);
    double c1 = e.Cross(p.velocity);
    if (c1 == 0.0) continue;  // Motion parallel to the edge.
    double t = -c0 / c1;
    if (t > window.begin && t < window.end) events.push_back(t);
  }
  std::sort(events.begin(), events.end());
  events.erase(std::unique(events.begin(), events.end()), events.end());

  // Boundary-touch memo for the event shared by piece i (as hi) and piece
  // i+1 (as lo): p.At(t) is the same double both times, so Contains is too.
  int prev_hi_contains = -1;  // -1 unknown, else 0/1 for events[i].
  for (size_t i = 0; i + 1 < events.size(); ++i) {
    double lo = events[i];
    double hi = events[i + 1];
    bool inside = poly.Contains(p.At((lo + hi) / 2.0));
    if (inside) {
      if (!out->empty() && out->back().end == lo) {
        out->back().end = hi;
      } else {
        out->push_back({lo, hi});
      }
      prev_hi_contains = -1;
    } else {
      // An isolated boundary touch at an event instant still satisfies the
      // closed INSIDE predicate. When the last emitted interval already
      // covers `lo` the touch action is a no-op either way, so the test is
      // skipped — output is identical.
      if (out->empty() || out->back().end < lo) {
        bool c = prev_hi_contains >= 0 ? prev_hi_contains != 0
                                       : poly.Contains(p.At(lo));
        if (c) {
          if (!out->empty() && out->back().end >= lo) {
            out->back().end = std::max(out->back().end, lo);
          } else {
            out->push_back({lo, lo});
          }
        }
      }
      bool c_hi = poly.Contains(p.At(hi));
      prev_hi_contains = c_hi ? 1 : 0;
      if (c_hi) {
        if (!out->empty() && out->back().end >= hi) {
          out->back().end = std::max(out->back().end, hi);
        } else {
          out->push_back({hi, hi});
        }
      }
    }
  }
}

std::vector<RealInterval> InsidePolygon(const MovingPoint2& p,
                                        const Polygon& poly,
                                        RealInterval window) {
  std::vector<double> events;
  std::vector<RealInterval> out;
  InsidePolygonInto(p, poly, window, &events, &out);
  return out;
}

IntervalSet TicksWhere(const std::vector<RealInterval>& real_intervals,
                       double eps) {
  std::vector<Interval> ticks;
  for (const RealInterval& iv : real_intervals) {
    if (!iv.valid()) continue;
    double lo = std::ceil(iv.begin - eps);
    double hi = std::floor(iv.end + eps);
    if (lo > hi) continue;
    if (lo < static_cast<double>(kTickMin)) lo = static_cast<double>(kTickMin);
    if (hi > static_cast<double>(kTickMax)) hi = static_cast<double>(kTickMax);
    ticks.push_back(Interval(static_cast<Tick>(lo), static_cast<Tick>(hi)));
  }
  return IntervalSet::FromIntervals(std::move(ticks));
}

std::vector<RealInterval> IntersectReal(const std::vector<RealInterval>& a,
                                        const std::vector<RealInterval>& b) {
  std::vector<RealInterval> out;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    double lo = std::max(a[i].begin, b[j].begin);
    double hi = std::min(a[i].end, b[j].end);
    if (lo <= hi) out.push_back({lo, hi});
    if (a[i].end < b[j].end) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

}  // namespace most
