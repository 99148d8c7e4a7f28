#ifndef MOST_CORE_OBJECT_MODEL_H_
#define MOST_CORE_OBJECT_MODEL_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/interval.h"
#include "common/result.h"
#include "common/types.h"
#include "geometry/point.h"
#include "geometry/polygon.h"
#include "storage/value.h"
#include "temporal/clock.h"
#include "temporal/dynamic_attribute.h"

namespace most {

/// Declaration of one attribute of an object class: either static (a
/// traditional value, constant between explicit updates) or dynamic (the
/// paper's (value, updatetime, function) triple).
struct AttributeDecl {
  std::string name;
  bool dynamic = false;
  ValueType static_type = ValueType::kNull;  ///< Only for static attributes.
};

/// Names of the position attributes every spatial object class carries.
/// (The paper uses X.POSITION / Y.POSITION / Z.POSITION; this library
/// models planar motion.)
inline constexpr const char* kAttrX = "X.POSITION";
inline constexpr const char* kAttrY = "Y.POSITION";

/// One maximal stretch of jointly-linear planar motion of an object.
struct MotionSegment {
  Interval ticks;
  MovingPoint2 motion;  ///< Parameterized by absolute tick time.
};

/// An object (a "tuple" of an object class) with static and dynamic
/// attributes.
class MostObject {
 public:
  MostObject() = default;
  MostObject(ObjectId id, std::string class_name)
      : id_(id), class_name_(std::move(class_name)) {}

  ObjectId id() const { return id_; }
  const std::string& class_name() const { return class_name_; }

  /// Clock tick of the last explicit update of any attribute of this
  /// object (creation counts). Between updates the database dead-reckons
  /// along the stored motion function; the gap `now - last_update()` is
  /// how long the object has been silent, which degraded-mode query
  /// answers compare against a staleness horizon (docs/durability.md).
  Tick last_update() const { return last_update_; }
  void set_last_update(Tick t) { last_update_ = t; }

  const std::map<std::string, Value>& statics() const { return statics_; }
  const std::map<std::string, DynamicAttribute>& dynamics() const {
    return dynamics_;
  }

  Result<Value> GetStatic(const std::string& name) const;
  Result<const DynamicAttribute*> GetDynamic(const std::string& name) const;
  bool HasDynamic(const std::string& name) const {
    return dynamics_.count(name) > 0;
  }
  /// The dynamic attribute `name`, or null if the object has none.
  DynamicAttribute* MutableDynamic(const std::string& name) {
    auto it = dynamics_.find(name);
    return it == dynamics_.end() ? nullptr : &it->second;
  }

  void SetStatic(const std::string& name, Value v) {
    statics_[name] = std::move(v);
  }
  void SetDynamic(const std::string& name, DynamicAttribute a) {
    dynamics_[name] = std::move(a);
  }

  /// True if the object carries both position attributes.
  bool IsSpatial() const {
    return HasDynamic(kAttrX) && HasDynamic(kAttrY);
  }

  /// Instantaneous position (requires IsSpatial()).
  Point2 PositionAt(Tick t) const;

  /// Decomposes the planar trajectory over `window` into jointly-linear
  /// segments (the form the kinematic solvers consume). Requires
  /// IsSpatial().
  std::vector<MotionSegment> MotionSegments(Interval window) const;

 private:
  ObjectId id_ = kInvalidObjectId;
  std::string class_name_;
  Tick last_update_ = 0;
  std::map<std::string, Value> statics_;
  std::map<std::string, DynamicAttribute> dynamics_;
};

/// True if `obj` has gone longer than `horizon` ticks without an explicit
/// update as of time `now`. A negative horizon disables staleness
/// tracking (nothing is ever stale).
inline bool IsStale(const MostObject& obj, Tick now, Tick horizon) {
  return horizon >= 0 && now - obj.last_update() > horizon;
}

/// An object class: attribute declarations plus the set of live objects.
class ObjectClass {
 public:
  ObjectClass() = default;
  ObjectClass(std::string name, std::vector<AttributeDecl> attributes,
              bool spatial);

  const std::string& name() const { return name_; }
  bool spatial() const { return spatial_; }
  const std::vector<AttributeDecl>& attributes() const { return attributes_; }
  size_t size() const { return objects_.size(); }

  const std::map<ObjectId, MostObject>& objects() const { return objects_; }

  Result<MostObject*> Get(ObjectId id);
  Result<const MostObject*> Get(ObjectId id) const;

 private:
  friend class MostDatabase;

  std::string name_;
  std::vector<AttributeDecl> attributes_;
  bool spatial_ = false;
  std::map<ObjectId, MostObject> objects_;
};

/// The MOST database: object classes, named spatial regions (polygons that
/// queries reference by name), and the global clock. All mutations go
/// through this class so that updates are clock-stamped and update
/// listeners (continuous-query re-evaluation, Section 2.3) fire.
class MostDatabase {
 public:
  MostDatabase() = default;
  explicit MostDatabase(Tick start_time) : clock_(start_time) {}

  MostDatabase(const MostDatabase&) = delete;
  MostDatabase& operator=(const MostDatabase&) = delete;

  Clock& clock() { return clock_; }
  const Clock& clock() const { return clock_; }
  Tick Now() const { return clock_.Now(); }

  /// Declares an object class. `spatial` classes implicitly receive the
  /// X.POSITION / Y.POSITION dynamic attributes.
  Result<ObjectClass*> CreateClass(const std::string& name,
                                   std::vector<AttributeDecl> attributes,
                                   bool spatial = false);

  Result<ObjectClass*> GetClass(const std::string& name);
  Result<const ObjectClass*> GetClass(const std::string& name) const;
  bool HasClass(const std::string& name) const {
    return classes_.count(name) > 0;
  }

  /// Registers a named region usable in spatial predicates (INSIDE etc.).
  Status DefineRegion(const std::string& name, Polygon polygon);
  Result<const Polygon*> GetRegion(const std::string& name) const;
  const std::map<std::string, Polygon>& regions() const { return regions_; }

  /// All object classes (catalog iteration for shadow databases).
  const std::map<std::string, ObjectClass>& classes() const {
    return classes_;
  }

  /// Creates an object of a class. Static attribute defaults are NULL;
  /// dynamic attributes start at value 0 with the zero function at the
  /// current time.
  Result<MostObject*> CreateObject(const std::string& class_name);

  /// Creates an object with a caller-chosen id (used when mirroring
  /// another database, e.g. persistent-query history shadows and
  /// distributed replicas, where bindings must stay comparable).
  Result<MostObject*> RestoreObject(const std::string& class_name,
                                    ObjectId id);

  Status DeleteObject(const std::string& class_name, ObjectId id);

  /// Explicit update of a static attribute, stamped with the current time.
  Status UpdateStatic(const std::string& class_name, ObjectId id,
                      const std::string& attr, Value value);

  /// Explicit update of a dynamic attribute: installs (value, now,
  /// function). This is "the motion vector changed" in the paper.
  Status UpdateDynamic(const std::string& class_name, ObjectId id,
                       const std::string& attr, double value,
                       TimeFunction function);

  /// Sets position and velocity of a spatial object at `now`: exactly the
  /// two UpdateDynamic calls for X.POSITION and Y.POSITION with linear
  /// functions (two updates counted, two failpoint hits, listeners
  /// notified after each), with the class and the object looked up once.
  Status SetMotion(const std::string& class_name, ObjectId id, Point2 position,
                   Vec2 velocity);
  /// The same, for a class already looked up (GetClass).
  Status SetMotion(ObjectClass* cls, ObjectId id, Point2 position,
                   Vec2 velocity);

  /// Update listeners run after every explicit update (object creation,
  /// deletion, attribute update). Used for continuous-query maintenance
  /// and temporal triggers. The
  /// returned id unregisters the listener (components whose lifetime is
  /// shorter than the database's must remove themselves on destruction).
  using UpdateListener = std::function<void(const std::string& class_name,
                                            ObjectId id)>;
  using ListenerId = uint64_t;
  ListenerId AddUpdateListener(UpdateListener listener) {
    ListenerId id = next_listener_id_++;
    listeners_.emplace_back(id, std::move(listener));
    return id;
  }
  void RemoveUpdateListener(ListenerId id) {
    std::erase_if(listeners_,
                  [id](const auto& entry) { return entry.first == id; });
  }

  /// Total explicit updates performed (experiment E1 counts these). The
  /// counter is a relaxed atomic so the sharded engine may apply updates
  /// to *disjoint* objects from several drain threads concurrently
  /// (docs/sharding.md): object state itself is still unsynchronized, so
  /// concurrent mutation is only safe when no two threads touch the same
  /// object, no structural create/delete runs, and every registered
  /// update listener is itself thread-safe.
  uint64_t update_count() const {
    return update_count_.load(std::memory_order_relaxed);
  }

  /// The database version: changes with every mutation, explicit update
  /// or catalog change alike (object creation, restoration and deletion,
  /// static and dynamic attribute updates, SetMotion, DefineRegion —
  /// redefinition included — and CreateClass). The clock is not part of
  /// it. Evaluation results that depend only on the database state are
  /// valid for exactly one version (docs/eval_internals.md). Catalog
  /// changes are control-plane operations, never concurrent with the
  /// drain, so their counter is a plain integer and the update path
  /// gains no atomic.
  uint64_t version() const { return update_count() + catalog_changes_; }

 private:
  void NotifyUpdate(const std::string& class_name, ObjectId id);

  Clock clock_;
  std::map<std::string, ObjectClass> classes_;
  std::map<std::string, Polygon> regions_;
  std::vector<std::pair<ListenerId, UpdateListener>> listeners_;
  ListenerId next_listener_id_ = 1;
  ObjectId next_id_ = 0;
  std::atomic<uint64_t> update_count_{0};
  uint64_t catalog_changes_ = 0;  ///< CreateClass and DefineRegion calls.
};

}  // namespace most

#endif  // MOST_CORE_OBJECT_MODEL_H_
