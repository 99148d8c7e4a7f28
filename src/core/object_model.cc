#include "core/object_model.h"

#include <algorithm>
#include <memory>
#include <tuple>

#include "common/failpoint.h"

namespace most {

Result<Value> MostObject::GetStatic(const std::string& name) const {
  auto it = statics_.find(name);
  if (it == statics_.end()) {
    return Status::NotFound("static attribute '" + name + "' of object " +
                            std::to_string(id_));
  }
  return it->second;
}

const DynamicAttribute* MostObject::FindDynamic(const std::string& name) const {
  const int axis = AxisOf(name);
  if (axis >= 0) return HasAxis(axis) ? &axes_[axis] : nullptr;
  auto it = dynamics_.find(name);
  return it == dynamics_.end() ? nullptr : &it->second;
}

Result<const DynamicAttribute*> MostObject::GetDynamic(
    const std::string& name) const {
  const DynamicAttribute* a = FindDynamic(name);
  if (a == nullptr) {
    return Status::NotFound("dynamic attribute '" + name + "' of object " +
                            std::to_string(id_));
  }
  return a;
}

void MostObject::SetDynamic(const std::string& name, DynamicAttribute a) {
  const int axis = AxisOf(name);
  if (axis < 0) {
    dynamics_[name] = std::move(a);
    return;
  }
  axes_[axis] = std::move(a);
  axes_present_ |= static_cast<uint8_t>(1u << axis);
}

int MostObject::AxisOf(const std::string& name) {
  if (name == kAttrX) return 0;
  if (name == kAttrY) return 1;
  return -1;
}

const std::string& MostObject::AxisName(int axis) {
  static const std::string kNames[kAxes] = {kAttrX, kAttrY};
  return kNames[axis];
}

bool MostObject::Dynamics::operator==(const Dynamics& o) const {
  return std::equal(begin(), end(), o.begin(), o.end(),
                    [](const value_type& a, const value_type& b) {
                      return a.first == b.first && a.second == b.second;
                    });
}

Point2 MostObject::PositionAt(Tick t) const {
  return {axes_[0].ValueAt(t), axes_[1].ValueAt(t)};
}

std::vector<MotionSegment> MostObject::MotionSegments(Interval window) const {
  std::vector<MotionSegment> out;
  const DynamicAttribute& x = axes_[0];
  const DynamicAttribute& y = axes_[1];
  auto xs = x.LinearPieces(window);
  auto ys = y.LinearPieces(window);
  size_t i = 0, j = 0;
  while (i < xs.size() && j < ys.size()) {
    Tick lo = std::max(xs[i].ticks.begin, ys[j].ticks.begin);
    Tick hi = std::min(xs[i].ticks.end, ys[j].ticks.end);
    if (lo <= hi) {
      MotionSegment seg;
      seg.ticks = Interval(lo, hi);
      // Motion parameterized by absolute time: origin = position at t=0 of
      // the segment's linear extension.
      double x_lo = x.ValueAt(lo);
      double y_lo = y.ValueAt(lo);
      Vec2 v{xs[i].slope, ys[j].slope};
      seg.motion = MovingPoint2(
          {x_lo - v.x * static_cast<double>(lo),
           y_lo - v.y * static_cast<double>(lo)},
          v);
      out.push_back(seg);
    }
    if (xs[i].ticks.end < ys[j].ticks.end) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

ObjectClass::ObjectClass(std::string name,
                         std::vector<AttributeDecl> attributes, bool spatial)
    : name_(std::move(name)),
      attributes_(std::move(attributes)),
      spatial_(spatial) {
  if (spatial_) {
    attributes_.push_back({kAttrX, /*dynamic=*/true, ValueType::kNull});
    attributes_.push_back({kAttrY, /*dynamic=*/true, ValueType::kNull});
  }
}

ObjectClass::~ObjectClass() {
  for (Entry& e : index_) std::destroy_at(e.row);
}

size_t ObjectClass::LowerBound(ObjectId id) const {
  const size_t n = index_.size();
  if (n == 0 || id <= index_.front().id) return 0;
  if (id > index_.back().id) return n;
  // Ids are distinct and ascending, so entry k holds an id in
  // [front + k, back - (n - 1 - k)]: every entry before `lo` is below `id`
  // and every entry from `hi` on is above it.
  const ObjectId below_back = index_.back().id - id;
  const size_t lo = below_back < n ? n - 1 - below_back : 0;
  const size_t hi = std::min<ObjectId>(n - 1, id - index_.front().id) + 1;
  return std::lower_bound(index_.begin() + lo, index_.begin() + hi, id,
                          [](const Entry& e, ObjectId v) { return e.id < v; }) -
         index_.begin();
}

MostObject* ObjectClass::Find(ObjectId id) {
  const size_t k = LowerBound(id);
  return k < index_.size() && index_[k].id == id ? &index_[k].row->second
                                                 : nullptr;
}

const MostObject* ObjectClass::Find(ObjectId id) const {
  return const_cast<ObjectClass*>(this)->Find(id);
}

Result<MostObject*> ObjectClass::Get(ObjectId id) {
  MostObject* obj = Find(id);
  if (obj == nullptr) {
    return Status::NotFound("object " + std::to_string(id) + " in class " +
                            name_);
  }
  return obj;
}

Result<const MostObject*> ObjectClass::Get(ObjectId id) const {
  MOST_ASSIGN_OR_RETURN(MostObject * obj,
                        const_cast<ObjectClass*>(this)->Get(id));
  return obj;
}

MostObject* ObjectClass::Insert(ObjectId id) {
  Slot* slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    if (block_used_ == block_capacity_) {
      // Blocks grow with the class, from 16 rows up to 4096.
      block_capacity_ = std::clamp<size_t>(index_.size(), 16, 4096);
      blocks_.push_back(std::make_unique<Slot[]>(block_capacity_));
      block_used_ = 0;
    }
    slot = &blocks_.back()[block_used_++];
  }
  Row* row = std::construct_at(&slot->row, std::piecewise_construct,
                               std::forward_as_tuple(id),
                               std::forward_as_tuple(id, name_));
  index_.insert(index_.begin() + LowerBound(id), Entry{id, row});
  return &row->second;
}

bool ObjectClass::Erase(ObjectId id) {
  const size_t k = LowerBound(id);
  if (k == index_.size() || index_[k].id != id) return false;
  Row* row = index_[k].row;
  index_.erase(index_.begin() + k);
  std::destroy_at(row);
  // The row is the slot's only member, so they share an address.
  free_.push_back(reinterpret_cast<Slot*>(row));
  return true;
}

Result<ObjectClass*> MostDatabase::CreateClass(
    const std::string& name, std::vector<AttributeDecl> attributes,
    bool spatial) {
  if (classes_.count(name) > 0) {
    return Status::AlreadyExists("object class '" + name + "'");
  }
  for (const AttributeDecl& decl : attributes) {
    if (decl.name == kAttrX || decl.name == kAttrY) {
      return Status::InvalidArgument("attribute '" + decl.name +
                                     "' is reserved for spatial classes");
    }
  }
  auto [it, inserted] = classes_.emplace(
      std::piecewise_construct, std::forward_as_tuple(name),
      std::forward_as_tuple(name, std::move(attributes), spatial));
  ++catalog_changes_;
  return &it->second;
}

Result<ObjectClass*> MostDatabase::GetClass(const std::string& name) {
  auto it = classes_.find(name);
  if (it == classes_.end()) {
    return Status::NotFound("object class '" + name + "'");
  }
  return &it->second;
}

Result<const ObjectClass*> MostDatabase::GetClass(
    const std::string& name) const {
  auto it = classes_.find(name);
  if (it == classes_.end()) {
    return Status::NotFound("object class '" + name + "'");
  }
  return &it->second;
}

Status MostDatabase::DefineRegion(const std::string& name, Polygon polygon) {
  regions_.insert_or_assign(name, std::move(polygon));
  ++catalog_changes_;
  return Status::OK();
}

Result<const Polygon*> MostDatabase::GetRegion(const std::string& name) const {
  auto it = regions_.find(name);
  if (it == regions_.end()) {
    return Status::NotFound("region '" + name + "'");
  }
  return &it->second;
}

Result<MostObject*> MostDatabase::CreateObject(const std::string& class_name) {
  return RestoreObject(class_name, next_id_);
}

Result<MostObject*> MostDatabase::RestoreObject(const std::string& class_name,
                                                ObjectId id) {
  MOST_ASSIGN_OR_RETURN(ObjectClass * cls, GetClass(class_name));
  if (cls->Find(id) != nullptr) {
    return Status::AlreadyExists("object " + std::to_string(id));
  }
  MOST_FAILPOINT("core/create_object");
  next_id_ = std::max(next_id_, id + 1);
  MostObject* obj = cls->Insert(id);
  obj->set_last_update(Now());
  for (const AttributeDecl& decl : cls->attributes_) {
    if (decl.dynamic) {
      obj->SetDynamic(decl.name, DynamicAttribute(0.0, Now(), TimeFunction()));
    } else {
      obj->SetStatic(decl.name, Value::Null());
    }
  }
  CountUpdates(1);
  NotifyUpdate(class_name, id);
  return obj;
}

Status MostDatabase::DeleteObject(const std::string& class_name, ObjectId id) {
  MOST_ASSIGN_OR_RETURN(ObjectClass * cls, GetClass(class_name));
  if (!cls->Erase(id)) {
    return Status::NotFound("object " + std::to_string(id));
  }
  CountUpdates(1);
  NotifyUpdate(class_name, id);
  return Status::OK();
}

Status MostDatabase::UpdateStatic(const std::string& class_name, ObjectId id,
                                  const std::string& attr, Value value) {
  MOST_ASSIGN_OR_RETURN(ObjectClass * cls, GetClass(class_name));
  MOST_ASSIGN_OR_RETURN(MostObject * obj, cls->Get(id));
  if (obj->statics().count(attr) == 0) {
    return Status::NotFound("static attribute '" + attr + "'");
  }
  MOST_FAILPOINT("core/update_static");
  obj->SetStatic(attr, std::move(value));
  obj->set_last_update(Now());
  CountUpdates(1);
  NotifyUpdate(class_name, id);
  return Status::OK();
}

Status MostDatabase::UpdateDynamic(const std::string& class_name, ObjectId id,
                                   const std::string& attr, double value,
                                   TimeFunction function) {
  MOST_ASSIGN_OR_RETURN(ObjectClass * cls, GetClass(class_name));
  MOST_ASSIGN_OR_RETURN(MostObject * obj, cls->Get(id));
  if (!obj->HasDynamic(attr)) {
    return Status::NotFound("dynamic attribute '" + attr + "'");
  }
  MOST_FAILPOINT("core/update_dynamic");
  obj->SetDynamic(attr, DynamicAttribute(value, Now(), std::move(function)));
  obj->set_last_update(Now());
  CountUpdates(1);
  NotifyUpdate(class_name, id);
  return Status::OK();
}

Status MostDatabase::SetMotion(const std::string& class_name, ObjectId id,
                               Point2 position, Vec2 velocity) {
  MOST_ASSIGN_OR_RETURN(ObjectClass * cls, GetClass(class_name));
  return SetMotion(cls, id, position, velocity);
}

Status MostDatabase::SetMotion(ObjectClass* cls, ObjectId id, Point2 position,
                               Vec2 velocity) {
  MostObject* obj = cls->Find(id);
  if (obj == nullptr) {
    return Status::NotFound("object " + std::to_string(id) + " in class " +
                            cls->name());
  }
  if (!obj->IsSpatial()) {
    return Status::NotFound(std::string("dynamic attribute '") +
                            (obj->HasDynamic(kAttrX) ? kAttrY : kAttrX) + "'");
  }
  // Checked before either write: a failure leaves both axes untouched.
  MOST_FAILPOINT("core/update_dynamic");
  obj->SetLinearMotion(Now(), position, velocity);
  obj->set_last_update(Now());
  CountUpdates(2);
  NotifyUpdate(cls->name(), id);
  return Status::OK();
}

void MostDatabase::CountUpdates(uint64_t n) {
  // Threads take stripes in turn on their first update.
  static std::atomic<size_t> next_stripe{0};
  thread_local const size_t stripe =
      next_stripe.fetch_add(1, std::memory_order_relaxed) % kUpdateStripes;
  update_stripes_[stripe].count.fetch_add(n, std::memory_order_relaxed);
}

void MostDatabase::NotifyUpdate(const std::string& class_name, ObjectId id) {
  for (const auto& [lid, listener] : listeners_) {
    listener(class_name, id);
  }
}

}  // namespace most
