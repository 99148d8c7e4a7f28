#ifndef MOST_INDEX_MOTION_INDEX_H_
#define MOST_INDEX_MOTION_INDEX_H_

#include <unordered_map>
#include <vector>

#include "common/interval.h"
#include "common/types.h"
#include "geometry/polygon.h"
#include "index/rtree.h"
#include "temporal/dynamic_attribute.h"

namespace most {

/// The 3-dimensional variant of Section 4's scheme for objects moving in
/// the plane: "the above scheme can be mimicked using an index of
/// 3-dimensional space, with the third dimension being, obviously, time."
/// Each object's (X.POSITION, Y.POSITION) trajectory over the epoch is cut
/// into linear pieces and stored as (t, x, y) boxes.
class MotionIndex {
 public:
  struct Options {
    Tick horizon = 1024;
    size_t rtree_fanout = 16;
    /// Time-slab width for segment chopping (see TrajectoryIndex).
    Tick time_slab = 64;
  };

  explicit MotionIndex(Tick epoch_start)
      : MotionIndex(epoch_start, Options()) {}
  MotionIndex(Tick epoch_start, Options options);

  Tick epoch_start() const { return epoch_start_; }
  Tick epoch_end() const { return epoch_end_; }
  size_t num_objects() const { return objects_.size(); }
  size_t num_segments() const { return rtree_.size(); }

  void Upsert(ObjectId id, const DynamicAttribute& x,
              const DynamicAttribute& y);
  void Remove(ObjectId id);
  bool NeedsRebuild(Tick now) const { return now >= epoch_end_; }
  void Rebuild(Tick new_epoch_start);
  /// True when `window` lies within the epoch. Segment boxes only cover
  /// the epoch, so only then can a query vouch for absence; outside it a
  /// caller that prunes by the index must scan instead.
  bool Covers(Interval window) const {
    return window.begin >= epoch_start_ && window.end < epoch_end_;
  }

  /// Candidate objects possibly inside `region` at time t.
  std::vector<ObjectId> QueryRegionCandidates(const BoundingBox& region,
                                              Tick t) const;

  /// Candidate objects possibly inside `region` at any time in `window`.
  std::vector<ObjectId> QueryRegionCandidates(const BoundingBox& region,
                                              Interval window) const;

  /// Exact instantaneous answer: candidates whose true position at t lies
  /// in `region`.
  std::vector<ObjectId> QueryRegionExact(const BoundingBox& region,
                                         Tick t) const;

  /// Candidate objects that may come within `radius` of the probe
  /// trajectory (x, y) at some tick of `window`: the probe is cut into the
  /// index's time-slab segments, each segment box dilated by `radius` in
  /// x/y, and the union of the R-tree hits returned (sorted, deduplicated).
  /// Conservative — an object absent from the result is farther than
  /// `radius` from the probe throughout `window` — which is what lets the
  /// FTL evaluator's delta passes pair restricted objects with index-pruned
  /// join partners instead of scanning the class. `window` must be one the
  /// index Covers().
  std::vector<ObjectId> QueryNearTrajectory(const DynamicAttribute& x,
                                            const DynamicAttribute& y,
                                            double radius,
                                            Interval window) const;

  size_t last_search_nodes() const { return rtree_.last_search_nodes; }

 private:
  using Box = RTreeBox<3>;  // Dimensions: time, x, y.

  struct ObjectState {
    DynamicAttribute x;
    DynamicAttribute y;
    std::vector<Box> boxes;
  };

  std::vector<Box> ComputeBoxes(const ObjectState& state) const;
  void InsertSegments(ObjectId id, ObjectState* state);
  void RemoveSegments(ObjectId id, ObjectState* state);

  Options options_;
  Tick epoch_start_;
  Tick epoch_end_;
  RTree<3, ObjectId> rtree_;
  std::unordered_map<ObjectId, ObjectState> objects_;
};

}  // namespace most

#endif  // MOST_INDEX_MOTION_INDEX_H_
