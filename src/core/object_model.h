#ifndef MOST_CORE_OBJECT_MODEL_H_
#define MOST_CORE_OBJECT_MODEL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
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
///
/// A spatial object's position axes (X.POSITION, Y.POSITION) are fixed
/// members, not entries of the name-keyed map: the motion write
/// (MostDatabase::SetMotion), the snapshot build and the kinematic solvers
/// reach them with no lookup. By name — GetDynamic, MutableDynamic,
/// SetDynamic, HasDynamic and dynamics() — they read like every other
/// dynamic attribute.
class MostObject {
 public:
  class Dynamics;

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
  /// Every dynamic attribute, the position axes included, in name order.
  Dynamics dynamics() const;

  Result<Value> GetStatic(const std::string& name) const;
  Result<const DynamicAttribute*> GetDynamic(const std::string& name) const;
  bool HasDynamic(const std::string& name) const {
    return FindDynamic(name) != nullptr;
  }
  /// The dynamic attribute `name`, or null if the object has none.
  DynamicAttribute* MutableDynamic(const std::string& name) {
    return const_cast<DynamicAttribute*>(FindDynamic(name));
  }

  void SetStatic(const std::string& name, Value v) {
    statics_[name] = std::move(v);
  }
  void SetDynamic(const std::string& name, DynamicAttribute a);

  /// True if the object carries both position attributes.
  bool IsSpatial() const { return axes_present_ == kBothAxes; }

  /// The position axes, read without a name lookup. Meaningful only when
  /// IsSpatial().
  const DynamicAttribute& position_x() const { return axes_[0]; }
  const DynamicAttribute& position_y() const { return axes_[1]; }

  /// Installs linear motion through `position` at `now` on both axes: what
  /// UpdateLinear on X.POSITION and Y.POSITION leaves. Requires
  /// IsSpatial().
  void SetLinearMotion(Tick now, Point2 position, Vec2 velocity) {
    axes_[0].UpdateLinear(now, position.x, velocity.x);
    axes_[1].UpdateLinear(now, position.y, velocity.y);
  }

  /// Instantaneous position (requires IsSpatial()).
  Point2 PositionAt(Tick t) const;

  /// Decomposes the planar trajectory over `window` into jointly-linear
  /// segments (the form the kinematic solvers consume). Requires
  /// IsSpatial().
  std::vector<MotionSegment> MotionSegments(Interval window) const;

 private:
  static constexpr int kAxes = 2;
  static constexpr uint8_t kBothAxes = 0b11;
  /// 0 for X.POSITION, 1 for Y.POSITION, -1 for any other name.
  static int AxisOf(const std::string& name);
  static const std::string& AxisName(int axis);
  const DynamicAttribute* FindDynamic(const std::string& name) const;
  bool HasAxis(int axis) const { return (axes_present_ >> axis) & 1; }
  /// The first present axis at or after `from`, or kAxes if none is.
  int NextAxis(int from) const {
    while (from < kAxes && !HasAxis(from)) ++from;
    return from;
  }

  ObjectId id_ = kInvalidObjectId;
  std::string class_name_;
  Tick last_update_ = 0;
  uint8_t axes_present_ = 0;  ///< Bit a set: axes_[a] is an attribute.
  DynamicAttribute axes_[kAxes];
  std::map<std::string, Value> statics_;
  /// The dynamic attributes other than the position axes.
  std::map<std::string, DynamicAttribute> dynamics_;
};

/// A read-only view of an object's dynamic attributes, position axes
/// included, iterated in name order as `(name, attribute)` pairs — the
/// order and contents a `std::map<std::string, DynamicAttribute>` of all
/// of them would have.
class MostObject::Dynamics {
 public:
  using value_type = std::pair<const std::string&, const DynamicAttribute&>;

  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Dynamics::value_type;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = value_type;

    const_iterator() = default;
    value_type operator*() const {
      if (AtAxis()) return {AxisName(axis_), obj_->axes_[axis_]};
      return {it_->first, it_->second};
    }
    const_iterator& operator++() {
      if (AtAxis()) {
        axis_ = obj_->NextAxis(axis_ + 1);
      } else {
        ++it_;
      }
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator was = *this;
      ++*this;
      return was;
    }
    bool operator==(const const_iterator& o) const {
      return it_ == o.it_ && axis_ == o.axis_;
    }

   private:
    friend class Dynamics;
    const_iterator(const MostObject* obj,
                   std::map<std::string, DynamicAttribute>::const_iterator it,
                   int axis)
        : obj_(obj), it_(it), axis_(axis) {}
    /// True when the next axis sorts before the next map entry.
    bool AtAxis() const {
      return axis_ < kAxes &&
             (it_ == obj_->dynamics_.end() || AxisName(axis_) < it_->first);
    }

    const MostObject* obj_ = nullptr;
    std::map<std::string, DynamicAttribute>::const_iterator it_;
    int axis_ = kAxes;  ///< The next present axis to visit; kAxes: none.
  };

  explicit Dynamics(const MostObject* obj) : obj_(obj) {}
  const_iterator begin() const {
    return {obj_, obj_->dynamics_.begin(), obj_->NextAxis(0)};
  }
  const_iterator end() const { return {obj_, obj_->dynamics_.end(), kAxes}; }
  size_t size() const {
    return obj_->dynamics_.size() + obj_->HasAxis(0) + obj_->HasAxis(1);
  }
  bool operator==(const Dynamics& o) const;

 private:
  const MostObject* obj_;
};

inline MostObject::Dynamics MostObject::dynamics() const {
  return Dynamics(this);
}

/// True if `obj` has gone longer than `horizon` ticks without an explicit
/// update as of time `now`. A negative horizon disables staleness
/// tracking (nothing is ever stale).
inline bool IsStale(const MostObject& obj, Tick now, Tick horizon) {
  return horizon >= 0 && now - obj.last_update() > horizon;
}

/// An object class: attribute declarations plus the set of live objects.
///
/// The objects live in one id-ordered row store. Each object is one row, a
/// `std::pair<const ObjectId, MostObject>` in a slot of fixed-size blocks
/// that never move, so a `MostObject*` stays valid until that object is
/// deleted (a deleted row's slot is reused by a later creation). An index
/// of `(id, row)` entries in ascending id order finds a row: entry k holds
/// an id in [front + k, back - (size - 1 - k)], so a lookup binary-searches
/// only that range, one entry for a class with contiguous ids. Creating the
/// next-highest id appends in O(1) amortized; a delete or an out-of-order
/// restore shifts the index tail (16 bytes per later object). A lookup is a
/// pure read, so drain threads may look up and update disjoint objects of
/// one class concurrently (docs/sharding.md), as long as no create or
/// delete runs.
class ObjectClass {
 public:
  using Row = std::pair<const ObjectId, MostObject>;
  class Objects;

  ObjectClass() = default;
  ObjectClass(std::string name, std::vector<AttributeDecl> attributes,
              bool spatial);
  ObjectClass(const ObjectClass&) = delete;
  ObjectClass& operator=(const ObjectClass&) = delete;
  ~ObjectClass();

  const std::string& name() const { return name_; }
  bool spatial() const { return spatial_; }
  const std::vector<AttributeDecl>& attributes() const { return attributes_; }
  size_t size() const { return index_.size(); }

  /// The live objects in ascending id order, read like a
  /// `const std::map<ObjectId, MostObject>`.
  Objects objects() const;

  /// The object `id`, or null if the class has none: a miss costs no
  /// allocation and formats no message.
  MostObject* Find(ObjectId id);
  const MostObject* Find(ObjectId id) const;

  /// Find as a Result: NotFound names the object and the class.
  Result<MostObject*> Get(ObjectId id);
  Result<const MostObject*> Get(ObjectId id) const;

 private:
  friend class MostDatabase;

  struct Entry {
    ObjectId id;
    Row* row;
  };
  /// Storage for one row; constructed and destroyed explicitly.
  union Slot {
    Slot() {}
    ~Slot() {}
    Row row;
  };

  /// Index of the first entry whose id is not below `id`.
  size_t LowerBound(ObjectId id) const;
  /// Adds a fresh object `id` (which must be absent) and returns it.
  MostObject* Insert(ObjectId id);
  /// Removes object `id`; false if the class has none.
  bool Erase(ObjectId id);

  std::string name_;
  std::vector<AttributeDecl> attributes_;
  bool spatial_ = false;
  std::vector<Entry> index_;  ///< Ascending ids.
  std::vector<std::unique_ptr<Slot[]>> blocks_;
  size_t block_capacity_ = 0;  ///< Slots in blocks_.back().
  size_t block_used_ = 0;      ///< Of those, ever handed out.
  std::vector<Slot*> free_;    ///< Slots of deleted rows.
};

/// The map-like read view ObjectClass::objects() returns: ascending
/// iteration and `lower_bound` by id, with iterators that dereference to
/// the row. Iterators stay valid until the next create or delete in the
/// class.
class ObjectClass::Objects {
 public:
  class const_iterator {
   public:
    using iterator_category = std::bidirectional_iterator_tag;
    using value_type = Row;
    using difference_type = std::ptrdiff_t;
    using pointer = const Row*;
    using reference = const Row&;

    const_iterator() = default;
    reference operator*() const { return *e_->row; }
    pointer operator->() const { return e_->row; }
    const_iterator& operator++() {
      ++e_;
      return *this;
    }
    const_iterator operator++(int) { return const_iterator(e_++); }
    const_iterator& operator--() {
      --e_;
      return *this;
    }
    const_iterator operator--(int) { return const_iterator(e_--); }
    bool operator==(const const_iterator& o) const { return e_ == o.e_; }

   private:
    friend class Objects;
    explicit const_iterator(const Entry* e) : e_(e) {}
    const Entry* e_ = nullptr;
  };
  using const_reverse_iterator = std::reverse_iterator<const_iterator>;

  explicit Objects(const ObjectClass* cls) : cls_(cls) {}
  const_iterator begin() const { return At(0); }
  const_iterator end() const { return At(size()); }
  const_reverse_iterator rbegin() const {
    return const_reverse_iterator(end());
  }
  const_reverse_iterator rend() const {
    return const_reverse_iterator(begin());
  }
  size_t size() const { return cls_->index_.size(); }
  bool empty() const { return cls_->index_.empty(); }

  const_iterator lower_bound(ObjectId id) const {
    return At(cls_->LowerBound(id));
  }

 private:
  const_iterator At(size_t k) const {
    return const_iterator(cls_->index_.data() + k);
  }
  const ObjectClass* cls_;
};

inline ObjectClass::Objects ObjectClass::objects() const {
  return Objects(this);
}

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

  /// Sets position and velocity of a spatial object at `now`: the state
  /// the two UpdateDynamic calls for X.POSITION and Y.POSITION with linear
  /// functions would leave, with the class and the object looked up once.
  /// It counts two updates, hits `core/update_dynamic` once before either
  /// axis is written, and notifies the listeners once, after both.
  Status SetMotion(const std::string& class_name, ObjectId id, Point2 position,
                   Vec2 velocity);
  /// The same, for a class already looked up (GetClass).
  Status SetMotion(ObjectClass* cls, ObjectId id, Point2 position,
                   Vec2 velocity);

  /// Update listeners run after every explicit update (object creation,
  /// deletion, attribute update; once per SetMotion). Used for
  /// continuous-query maintenance and temporal triggers. The
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
  /// counter is relaxed atomics so the sharded engine may apply updates
  /// to *disjoint* objects from several drain threads concurrently
  /// (docs/sharding.md): object state itself is still unsynchronized, so
  /// concurrent mutation is only safe when no two threads touch the same
  /// object, no structural create/delete runs, and every registered
  /// update listener is itself thread-safe.
  uint64_t update_count() const {
    uint64_t sum = 0;
    for (const UpdateStripe& s : update_stripes_) {
      sum += s.count.load(std::memory_order_relaxed);
    }
    return sum;
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

  /// CreateClass and DefineRegion calls so far. Neither notifies the
  /// update listeners, so a continuous query compares this count against
  /// the one it saw at its last evaluation to learn that a region it
  /// reads may have been redefined.
  uint64_t catalog_changes() const { return catalog_changes_; }

 private:
  void NotifyUpdate(const std::string& class_name, ObjectId id);
  /// Adds `n` to update_count() on the calling thread's stripe.
  void CountUpdates(uint64_t n);

  /// One part of update_count(), alone on its cache line. Each thread
  /// counts on one stripe, so drain threads updating disjoint objects at
  /// once share no written cache line; one shared counter would move its
  /// line between their cores on every update.
  struct alignas(64) UpdateStripe {
    std::atomic<uint64_t> count{0};
  };
  static constexpr size_t kUpdateStripes = 8;

  Clock clock_;
  std::map<std::string, ObjectClass> classes_;
  std::map<std::string, Polygon> regions_;
  std::vector<std::pair<ListenerId, UpdateListener>> listeners_;
  ListenerId next_listener_id_ = 1;
  ObjectId next_id_ = 0;
  UpdateStripe update_stripes_[kUpdateStripes];
  uint64_t catalog_changes_ = 0;  ///< CreateClass and DefineRegion calls.
};

}  // namespace most

#endif  // MOST_CORE_OBJECT_MODEL_H_
