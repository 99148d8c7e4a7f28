#ifndef MOST_GEOMETRY_KINEMATICS_H_
#define MOST_GEOMETRY_KINEMATICS_H_

#include <vector>

#include "common/interval.h"
#include "geometry/point.h"
#include "geometry/polygon.h"

namespace most {

/// A closed interval of real-valued time. The kinematic solvers work in
/// continuous time; results are converted to tick sets with TicksWhere.
struct RealInterval {
  double begin = 0.0;
  double end = 0.0;

  bool valid() const { return begin <= end; }
};

/// Solves |a(t) - b(t)| <= r over the window (a quadratic inequality in t).
/// Returns at most one interval for constant relative speed (distance is a
/// convex function of t).
std::vector<RealInterval> DistanceWithin(const MovingPoint2& a,
                                         const MovingPoint2& b, double r,
                                         RealInterval window);

/// Solves |a(t) - b(t)| >= r over the window (complement of DistanceWithin
/// inside the window; up to two intervals).
std::vector<RealInterval> DistanceAtLeast(const MovingPoint2& a,
                                          const MovingPoint2& b, double r,
                                          RealInterval window);

/// Allocation-free forms of DistanceWithin and DistanceAtLeast for hot
/// loops: write the solution intervals to *out (cleared first). Identical
/// arithmetic, so the endpoints are bit-equal to the returning forms'.
void DistanceWithinInto(const MovingPoint2& a, const MovingPoint2& b, double r,
                        RealInterval window, std::vector<RealInterval>* out);
void DistanceAtLeastInto(const MovingPoint2& a, const MovingPoint2& b,
                         double r, RealInterval window,
                         std::vector<RealInterval>* out);

/// Squared distance between a(t) and b(t) at real time t.
double DistanceSquaredAt(const MovingPoint2& a, const MovingPoint2& b,
                         double t);

/// Solves INSIDE(p(t), poly) over the window. Event-based: boundary
/// crossing times are the roots of linear equations (one per edge); each
/// elementary inter-event interval is classified by a point-in-polygon test
/// at its midpoint. Isolated boundary touches are included (INSIDE is a
/// closed predicate).
std::vector<RealInterval> InsidePolygon(const MovingPoint2& p,
                                        const Polygon& poly,
                                        RealInterval window);

/// Allocation-free form of InsidePolygon for hot loops: appends the
/// solution intervals to *out (cleared first) and reuses *events as
/// scratch. Identical arithmetic to InsidePolygon — the two produce
/// bit-equal interval endpoints for the same inputs, which the SoA
/// evaluation layout relies on (docs/eval_internals.md).
void InsidePolygonInto(const MovingPoint2& p, const Polygon& poly,
                       RealInterval window, std::vector<double>* events,
                       std::vector<RealInterval>* out);

/// Converts continuous-time solution intervals to the set of integer ticks
/// they cover: tick t is in the result iff t in [begin - eps, end + eps]
/// for some input interval. The epsilon absorbs floating-point noise so a
/// predicate that holds exactly at an integer tick is not dropped.
IntervalSet TicksWhere(const std::vector<RealInterval>& real_intervals,
                       double eps = 1e-9);

/// Intersects two lists of disjoint sorted real intervals.
std::vector<RealInterval> IntersectReal(const std::vector<RealInterval>& a,
                                        const std::vector<RealInterval>& b);

}  // namespace most

#endif  // MOST_GEOMETRY_KINEMATICS_H_
