#ifndef MOST_CORE_MOTION_INDEX_MANAGER_H_
#define MOST_CORE_MOTION_INDEX_MANAGER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/object_model.h"
#include "index/motion_index.h"

namespace most {

/// Keeps a Section 4 motion index (the 3-D t/x/y variant) per chosen
/// spatial object class of a MostDatabase, synchronized through the
/// database's update listener. The FTL evaluator consults it to prune
/// candidate objects for INSIDE atoms instead of examining every object —
/// the combination of the paper's Section 4 with its Section 3.5
/// algorithm.
///
/// Horizon expiry is handled lazily: Get() rebuilds an index whose epoch
/// the clock has outrun.
class MotionIndexManager {
 public:
  explicit MotionIndexManager(MostDatabase* db)
      : MotionIndexManager(db, MotionIndex::Options()) {}
  MotionIndexManager(MostDatabase* db, MotionIndex::Options options);
  ~MotionIndexManager();

  MotionIndexManager(const MotionIndexManager&) = delete;
  MotionIndexManager& operator=(const MotionIndexManager&) = delete;

  /// Starts indexing a spatial class (existing objects are indexed
  /// immediately; later updates are tracked automatically).
  Status IndexClass(const std::string& class_name);

  /// The class's index, rebuilt if its epoch expired; nullptr if the
  /// class is not indexed.
  MotionIndex* Get(const std::string& class_name) const;

  /// Candidates of `class_name` that may come within `radius` of `probe`'s
  /// trajectory at some tick of `window` (a conservative superset, sorted).
  /// nullopt when the class is not indexed, the probe is not spatial, or
  /// `window` escapes the index epoch — the caller must fall back to a
  /// class scan. Used by the FTL evaluator to prune the join partners of a
  /// restricted DIST atom during delta re-evaluation.
  std::optional<std::vector<ObjectId>> CandidatesNearObject(
      const std::string& class_name, const MostObject& probe, double radius,
      Interval window) const;

 private:
  /// Re-synchronizes one object with its class index (upsert, or removal
  /// when the object no longer exists).
  void OnUpdate(const std::string& class_name, ObjectId id);

  MostDatabase* db_;
  MotionIndex::Options options_;
  MostDatabase::ListenerId listener_id_ = 0;
  // Mutable: Get() performs lazy horizon rebuilds.
  mutable std::map<std::string, std::unique_ptr<MotionIndex>> indexes_;
};

}  // namespace most

#endif  // MOST_CORE_MOTION_INDEX_MANAGER_H_
