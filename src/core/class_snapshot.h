#ifndef MOST_CORE_CLASS_SNAPSHOT_H_
#define MOST_CORE_CLASS_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include "common/arena.h"
#include "common/interval.h"
#include "common/types.h"
#include "core/object_model.h"

namespace most {

/// Structure-of-arrays snapshot of one object class (or of a scope of
/// its objects) over an evaluation window.
///
/// The per-object solvers re-derive `MostObject::MotionSegments` (two
/// string-keyed map lookups, two LinearPieces vectors, one merge vector —
/// all heap-allocated) for every object inside every atomic predicate.
/// The snapshot performs that derivation once per class per database version,
/// for just the objects the evaluation can bind (its scope,
/// docs/eval_internals.md §1), and lays the results out as contiguous
/// arrays: object ids (ascending), update timestamps, and a
/// flattened segment table of motion coefficients (origin + velocity,
/// parameterized by absolute tick, exactly as `MotionSegments` computes
/// them). Atomic-predicate extraction (INSIDE / DIST crossings) then runs
/// tight index loops over these arrays — no maps, no strings, no
/// per-object allocation.
///
/// Coefficients are byte-identical to `MotionSegments`': Build() performs
/// the same LinearPieces clamping and the same `origin = value_at(lo) -
/// slope * lo` arithmetic in the same order, so every downstream root
/// solver sees bit-equal doubles and the snapshot kernels return exactly
/// what the per-object solvers return.
///
/// Lifetime: a snapshot borrows a BumpArena for its arrays (the evaluation
/// context's, which lives for one database version) and holds pointers
/// into the database; it must not outlive either (docs/eval_internals.md
/// §8). Read-only after Build(), so pool workers and concurrent
/// evaluations may share it.
class ClassSnapshot {
 public:
  ClassSnapshot() = default;  ///< Heap-backed (tests / no-arena callers).
  explicit ClassSnapshot(BumpArena* arena)
      : ids_(ArenaAllocator<ObjectId>(arena)),
        objects_(ArenaAllocator<const MostObject*>(arena)),
        last_update_(ArenaAllocator<Tick>(arena)),
        spatial_ok_(ArenaAllocator<uint8_t>(arena)),
        seg_begin_(ArenaAllocator<uint32_t>(arena)),
        seg_t0_(ArenaAllocator<Tick>(arena)),
        seg_t1_(ArenaAllocator<Tick>(arena)),
        ox_(ArenaAllocator<double>(arena)),
        oy_(ArenaAllocator<double>(arena)),
        vx_(ArenaAllocator<double>(arena)),
        vy_(ArenaAllocator<double>(arena)) {}

  /// Rebuilds the snapshot from `cls` over `window`. A non-null `scope`
  /// limits the rows to the class's objects whose ids it lists (ids of
  /// other classes and of deleted objects are skipped), so a build costs
  /// O(scope), not O(class); null is the whole class. Either way a row is
  /// bit-equal to the same object's row of a whole-class build.
  /// Non-spatial objects (or invalid windows) get zero segments and
  /// spatial_ok(i) == false.
  void Build(const ObjectClass& cls, Interval window,
             const std::set<ObjectId>* scope = nullptr);

  size_t size() const { return ids_.size(); }
  Interval window() const { return window_; }

  ObjectId id(size_t i) const { return ids_[i]; }
  const MostObject* object(size_t i) const { return objects_[i]; }
  Tick last_update(size_t i) const { return last_update_[i]; }
  bool spatial_ok(size_t i) const { return spatial_ok_[i] != 0; }

  /// Index of `id` in the per-object arrays (ids are ascending, so this is
  /// a binary search), or npos if the object is not in the snapshot.
  static constexpr size_t npos = static_cast<size_t>(-1);
  size_t IndexOf(ObjectId id) const;

  /// Object i's segments occupy [seg_begin(i), seg_begin(i) + seg_count(i))
  /// in the flat segment arrays; segments tile the window in tick order.
  uint32_t seg_begin(size_t i) const { return seg_begin_[i]; }
  uint32_t seg_count(size_t i) const {
    return seg_begin_[i + 1] - seg_begin_[i];
  }
  size_t total_segments() const { return seg_t0_.size(); }

  const Tick* seg_t0() const { return seg_t0_.data(); }
  const Tick* seg_t1() const { return seg_t1_.data(); }
  const double* ox() const { return ox_.data(); }
  const double* oy() const { return oy_.data(); }
  const double* vx() const { return vx_.data(); }
  const double* vy() const { return vy_.data(); }

 private:
  /// Appends `obj`'s row: its segments over window_.
  void AppendRow(ObjectId id, const MostObject& obj);

  Interval window_{0, -1};
  ArenaVector<ObjectId> ids_;
  ArenaVector<const MostObject*> objects_;
  ArenaVector<Tick> last_update_;
  ArenaVector<uint8_t> spatial_ok_;
  /// size() + 1 entries; seg_begin_[size()] == total_segments().
  ArenaVector<uint32_t> seg_begin_;
  ArenaVector<Tick> seg_t0_, seg_t1_;
  ArenaVector<double> ox_, oy_, vx_, vy_;
};

}  // namespace most

#endif  // MOST_CORE_CLASS_SNAPSHOT_H_
