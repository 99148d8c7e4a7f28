#include "core/class_snapshot.h"

#include <algorithm>

namespace most {

void ClassSnapshot::Build(const ObjectClass& cls, Interval window,
                          const std::set<ObjectId>* scope) {
  window_ = window;
  const size_t n = scope != nullptr ? std::min(scope->size(), cls.size())
                                    : cls.size();
  ids_.clear();
  objects_.clear();
  last_update_.clear();
  spatial_ok_.clear();
  seg_begin_.clear();
  seg_t0_.clear();
  seg_t1_.clear();
  ox_.clear();
  oy_.clear();
  vx_.clear();
  vy_.clear();
  ids_.reserve(n);
  objects_.reserve(n);
  last_update_.reserve(n);
  spatial_ok_.reserve(n);
  seg_begin_.reserve(n + 1);
  // Single-piece motion is the common case: one segment per object.
  seg_t0_.reserve(n);
  seg_t1_.reserve(n);
  ox_.reserve(n);
  oy_.reserve(n);
  vx_.reserve(n);
  vy_.reserve(n);

  if (scope == nullptr) {
    for (const auto& [id, obj] : cls.objects()) AppendRow(id, obj);
  } else {
    // Both walks are ascending in id, so a scoped snapshot's rows are
    // exactly the whole-class snapshot's rows for the scope's ids.
    for (ObjectId id : *scope) {
      if (const MostObject* obj = cls.Find(id)) AppendRow(id, *obj);
    }
  }
  seg_begin_.push_back(static_cast<uint32_t>(seg_t0_.size()));
}

void ClassSnapshot::AppendRow(ObjectId id, const MostObject& obj) {
  ids_.push_back(id);
  objects_.push_back(&obj);
  last_update_.push_back(obj.last_update());
  seg_begin_.push_back(static_cast<uint32_t>(seg_t0_.size()));
  const bool spatial = obj.IsSpatial();
  spatial_ok_.push_back(spatial ? 1 : 0);
  // An invalid window produces no motion segments (LinearPieces yields
  // none), so every kernel returns the empty set — same as the
  // per-object solvers on an invalid window.
  if (!spatial || !window_.valid()) return;
  // Same derivation as MostObject::MotionSegments — identical clamping
  // and identical floating-point expressions, so the coefficients are
  // bit-equal to the per-object solvers'.
  const DynamicAttribute& x = obj.position_x();
  const DynamicAttribute& y = obj.position_y();
  if (x.function().IsLinear() && y.function().IsLinear()) {
    // Plain linear motion (the overwhelmingly common case): one piece
    // spanning the whole window on each axis, no LinearPieces vectors.
    // Identical arithmetic to the general merge below.
    Tick lo = window_.begin;
    double sx = x.function().pieces()[0].slope;
    double sy = y.function().pieces()[0].slope;
    double x_lo = x.ValueAt(lo);
    double y_lo = y.ValueAt(lo);
    seg_t0_.push_back(lo);
    seg_t1_.push_back(window_.end);
    ox_.push_back(x_lo - sx * static_cast<double>(lo));
    oy_.push_back(y_lo - sy * static_cast<double>(lo));
    vx_.push_back(sx);
    vy_.push_back(sy);
    return;
  }
  auto xs = x.LinearPieces(window_);
  auto ys = y.LinearPieces(window_);
  size_t i = 0, j = 0;
  while (i < xs.size() && j < ys.size()) {
    Tick lo = std::max(xs[i].ticks.begin, ys[j].ticks.begin);
    Tick hi = std::min(xs[i].ticks.end, ys[j].ticks.end);
    if (lo <= hi) {
      double x_lo = x.ValueAt(lo);
      double y_lo = y.ValueAt(lo);
      double sx = xs[i].slope;
      double sy = ys[j].slope;
      seg_t0_.push_back(lo);
      seg_t1_.push_back(hi);
      ox_.push_back(x_lo - sx * static_cast<double>(lo));
      oy_.push_back(y_lo - sy * static_cast<double>(lo));
      vx_.push_back(sx);
      vy_.push_back(sy);
    }
    if (xs[i].ticks.end < ys[j].ticks.end) {
      ++i;
    } else {
      ++j;
    }
  }
}

size_t ClassSnapshot::IndexOf(ObjectId id) const {
  auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (it == ids_.end() || *it != id) return npos;
  return static_cast<size_t>(it - ids_.begin());
}

}  // namespace most
