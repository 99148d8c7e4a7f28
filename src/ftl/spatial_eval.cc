#include "ftl/spatial_eval.h"

#include <algorithm>

#include "geometry/kinematics.h"
#include "geometry/mec.h"

namespace most {

namespace {

RealInterval ToReal(Interval ticks) {
  return {static_cast<double>(ticks.begin), static_cast<double>(ticks.end)};
}

/// TicksWhere + Clamp fused for the SoA kernels: appends the tick form of
/// each solution interval, clamped to `clamp_iv`, to *out. Identical
/// rounding to TicksWhere (same eps, same kTickMin/kTickMax saturation);
/// the integer clamp commutes with normalization, so normalizing the
/// accumulated list reproduces TicksWhere(reals).Clamp(clamp_iv) exactly.
void AppendClampedTicks(const std::vector<RealInterval>& reals,
                        Interval clamp_iv, std::vector<Interval>* out) {
  constexpr double kEps = 1e-9;
  for (const RealInterval& iv : reals) {
    if (!iv.valid()) continue;
    double lo = std::ceil(iv.begin - kEps);
    double hi = std::floor(iv.end + kEps);
    if (lo > hi) continue;
    if (lo < static_cast<double>(kTickMin)) lo = static_cast<double>(kTickMin);
    if (hi > static_cast<double>(kTickMax)) hi = static_cast<double>(kTickMax);
    Tick tlo = std::max(static_cast<Tick>(lo), clamp_iv.begin);
    Tick thi = std::min(static_cast<Tick>(hi), clamp_iv.end);
    if (tlo <= thi) out->push_back(Interval(tlo, thi));
  }
}

}  // namespace

void ForEachAlignedSegment(
    const std::vector<const MostObject*>& objects, Interval window,
    const std::function<void(Interval, const std::vector<MovingPoint2>&)>&
        fn) {
  std::vector<std::vector<MotionSegment>> segs;
  segs.reserve(objects.size());
  std::vector<Tick> cuts = {window.begin,
                            TickSaturatingAdd(window.end, 1)};
  for (const MostObject* obj : objects) {
    segs.push_back(obj->MotionSegments(window));
    for (const MotionSegment& s : segs.back()) {
      cuts.push_back(s.ticks.begin);
      cuts.push_back(TickSaturatingAdd(s.ticks.end, 1));
    }
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  std::vector<MovingPoint2> movers(objects.size());
  for (size_t c = 0; c + 1 < cuts.size(); ++c) {
    Interval piece(cuts[c], cuts[c + 1] - 1);
    if (!piece.valid() || piece.end < window.begin ||
        piece.begin > window.end) {
      continue;
    }
    bool covered = true;
    for (size_t i = 0; i < objects.size() && covered; ++i) {
      covered = false;
      for (const MotionSegment& s : segs[i]) {
        if (s.ticks.begin <= piece.begin && piece.end <= s.ticks.end) {
          movers[i] = s.motion;
          covered = true;
          break;
        }
      }
    }
    if (covered) fn(piece, movers);
  }
}

IntervalSet InsideTicks(const MostObject& obj, const Polygon& polygon,
                        Interval window) {
  IntervalSet out;
  for (const MotionSegment& seg : obj.MotionSegments(window)) {
    IntervalSet piece =
        TicksWhere(InsidePolygon(seg.motion, polygon, ToReal(seg.ticks)))
            .Clamp(seg.ticks);
    out = out.Union(piece);
  }
  return out.Clamp(window);
}

IntervalSet InsideTicksRelative(const MostObject& obj,
                                const MostObject& anchor,
                                const Polygon& polygon, Interval window) {
  if (&obj == &anchor || obj.id() == anchor.id()) {
    // An object relative to itself sits at the origin.
    return polygon.Contains({0, 0}) ? IntervalSet(window) : IntervalSet();
  }
  IntervalSet out;
  ForEachAlignedSegment(
      {&obj, &anchor}, window,
      [&](Interval piece, const std::vector<MovingPoint2>& movers) {
        MovingPoint2 relative(movers[0].origin - movers[1].origin,
                              movers[0].velocity - movers[1].velocity);
        out = out.Union(
            TicksWhere(InsidePolygon(relative, polygon, ToReal(piece)))
                .Clamp(piece));
      });
  return out.Clamp(window);
}

IntervalSet DistCmpTicks(const MostObject& a, const MostObject& b,
                         FtlFormula::CmpOp op, double bound,
                         Interval window) {
  IntervalSet within;    // DIST <= bound.
  IntervalSet at_least;  // DIST >= bound.
  ForEachAlignedSegment(
      {&a, &b}, window,
      [&](Interval piece, const std::vector<MovingPoint2>& movers) {
        RealInterval rw = ToReal(piece);
        within = within.Union(
            TicksWhere(DistanceWithin(movers[0], movers[1], bound, rw))
                .Clamp(piece));
        at_least = at_least.Union(
            TicksWhere(DistanceAtLeast(movers[0], movers[1], bound, rw))
                .Clamp(piece));
      });
  switch (op) {
    case FtlFormula::CmpOp::kLe:
      return within;
    case FtlFormula::CmpOp::kGe:
      return at_least;
    case FtlFormula::CmpOp::kLt:
      return at_least.Complement(window);
    case FtlFormula::CmpOp::kGt:
      return within.Complement(window);
    case FtlFormula::CmpOp::kEq:
      return within.Intersect(at_least);
    case FtlFormula::CmpOp::kNe:
      return within.Intersect(at_least).Complement(window);
  }
  return IntervalSet();
}

IntervalSet SnapshotInsideTicks(const ClassSnapshot& snap, size_t oi,
                                const Polygon& polygon, Interval window,
                                SpatialScratch* scratch) {
  scratch->ticks.clear();
  const uint32_t begin = snap.seg_begin(oi);
  const uint32_t end = begin + snap.seg_count(oi);
  // Conservative per-segment reject: positions along a jointly-linear
  // segment stay within the hull of its endpoint positions (up to a few
  // ulps of rounding in ox + vx*t — far below kPruneMargin). A segment
  // whose widened hull misses the polygon's bounding box can never make
  // Contains() true, so the solver would emit nothing for it; skipping it
  // leaves the accumulated tick list — and the normalized result —
  // byte-identical.
  const BoundingBox& bb = polygon.bounding_box();
  constexpr double kPruneMargin = 1e-6;
  for (uint32_t s = begin; s < end; ++s) {
    const double t0 = static_cast<double>(snap.seg_t0()[s]);
    const double t1 = static_cast<double>(snap.seg_t1()[s]);
    const double x0 = snap.ox()[s] + snap.vx()[s] * t0;
    const double x1 = snap.ox()[s] + snap.vx()[s] * t1;
    const double y0 = snap.oy()[s] + snap.vy()[s] * t0;
    const double y1 = snap.oy()[s] + snap.vy()[s] * t1;
    if (std::max(x0, x1) < bb.min.x - kPruneMargin ||
        std::min(x0, x1) > bb.max.x + kPruneMargin ||
        std::max(y0, y1) < bb.min.y - kPruneMargin ||
        std::min(y0, y1) > bb.max.y + kPruneMargin) {
      continue;
    }
    MovingPoint2 motion({snap.ox()[s], snap.oy()[s]},
                        {snap.vx()[s], snap.vy()[s]});
    Interval seg_ticks(snap.seg_t0()[s], snap.seg_t1()[s]);
    InsidePolygonInto(motion, polygon, ToReal(seg_ticks), &scratch->events,
                      &scratch->reals);
    AppendClampedTicks(scratch->reals, seg_ticks, &scratch->ticks);
  }
  // Segments arrive in tick order, so the accumulated list is sorted:
  // normalizing it once equals InsideTicks' per-segment Union chain (the
  // normalized form is canonical).
  return IntervalSet::FromSortedIntervals(scratch->ticks.data(),
                                          scratch->ticks.size());
}

namespace {

/// One side (within / at-least) of the snapshot DIST comparison: walks the
/// two objects' window-tiling segment runs with a two-pointer merge — the
/// same elementary pieces ForEachAlignedSegment derives from its cut list.
IntervalSet SnapshotDistSide(const ClassSnapshot& a_snap, size_t ai,
                             const ClassSnapshot& b_snap, size_t bi,
                             bool within, double bound,
                             SpatialScratch* scratch) {
  scratch->ticks.clear();
  uint32_t i = a_snap.seg_begin(ai);
  const uint32_t ie = i + a_snap.seg_count(ai);
  uint32_t j = b_snap.seg_begin(bi);
  const uint32_t je = j + b_snap.seg_count(bi);
  while (i < ie && j < je) {
    Tick lo = std::max(a_snap.seg_t0()[i], b_snap.seg_t0()[j]);
    Tick hi = std::min(a_snap.seg_t1()[i], b_snap.seg_t1()[j]);
    if (lo <= hi) {
      MovingPoint2 ma({a_snap.ox()[i], a_snap.oy()[i]},
                      {a_snap.vx()[i], a_snap.vy()[i]});
      MovingPoint2 mb({b_snap.ox()[j], b_snap.oy()[j]},
                      {b_snap.vx()[j], b_snap.vy()[j]});
      Interval piece(lo, hi);
      RealInterval rw = ToReal(piece);
      std::vector<RealInterval> reals =
          within ? DistanceWithin(ma, mb, bound, rw)
                 : DistanceAtLeast(ma, mb, bound, rw);
      AppendClampedTicks(reals, piece, &scratch->ticks);
    }
    if (a_snap.seg_t1()[i] < b_snap.seg_t1()[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return IntervalSet::FromSortedIntervals(scratch->ticks.data(),
                                          scratch->ticks.size());
}

}  // namespace

IntervalSet SnapshotDistCmpTicks(const ClassSnapshot& a_snap, size_t ai,
                                 const ClassSnapshot& b_snap, size_t bi,
                                 FtlFormula::CmpOp op, double bound,
                                 Interval window, SpatialScratch* scratch) {
  // Unlike DistCmpTicks, only the needed side(s) are solved.
  switch (op) {
    case FtlFormula::CmpOp::kLe:
      return SnapshotDistSide(a_snap, ai, b_snap, bi, true, bound, scratch);
    case FtlFormula::CmpOp::kGe:
      return SnapshotDistSide(a_snap, ai, b_snap, bi, false, bound, scratch);
    case FtlFormula::CmpOp::kLt:
      return SnapshotDistSide(a_snap, ai, b_snap, bi, false, bound, scratch)
          .Complement(window);
    case FtlFormula::CmpOp::kGt:
      return SnapshotDistSide(a_snap, ai, b_snap, bi, true, bound, scratch)
          .Complement(window);
    case FtlFormula::CmpOp::kEq:
      return SnapshotDistSide(a_snap, ai, b_snap, bi, true, bound, scratch)
          .Intersect(
              SnapshotDistSide(a_snap, ai, b_snap, bi, false, bound, scratch));
    case FtlFormula::CmpOp::kNe:
      return SnapshotDistSide(a_snap, ai, b_snap, bi, true, bound, scratch)
          .Intersect(
              SnapshotDistSide(a_snap, ai, b_snap, bi, false, bound, scratch))
          .Complement(window);
  }
  return IntervalSet();
}

IntervalSet SphereTicks(const std::vector<const MostObject*>& objects,
                        double radius, Interval window) {
  IntervalSet out;
  ForEachAlignedSegment(
      objects, window,
      [&](Interval piece, const std::vector<MovingPoint2>& movers) {
        out = out.Union(WithinSphereTicks(movers, radius, piece));
      });
  return out;
}

}  // namespace most
