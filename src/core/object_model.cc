#include "core/object_model.h"

#include <algorithm>

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

Result<const DynamicAttribute*> MostObject::GetDynamic(
    const std::string& name) const {
  auto it = dynamics_.find(name);
  if (it == dynamics_.end()) {
    return Status::NotFound("dynamic attribute '" + name + "' of object " +
                            std::to_string(id_));
  }
  return &it->second;
}

Point2 MostObject::PositionAt(Tick t) const {
  const DynamicAttribute& x = dynamics_.at(kAttrX);
  const DynamicAttribute& y = dynamics_.at(kAttrY);
  return {x.ValueAt(t), y.ValueAt(t)};
}

std::vector<MotionSegment> MostObject::MotionSegments(Interval window) const {
  std::vector<MotionSegment> out;
  const DynamicAttribute& x = dynamics_.at(kAttrX);
  const DynamicAttribute& y = dynamics_.at(kAttrY);
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

Result<MostObject*> ObjectClass::Get(ObjectId id) {
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    return Status::NotFound("object " + std::to_string(id) + " in class " +
                            name_);
  }
  return &it->second;
}

Result<const MostObject*> ObjectClass::Get(ObjectId id) const {
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    return Status::NotFound("object " + std::to_string(id) + " in class " +
                            name_);
  }
  return &it->second;
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
      name, ObjectClass(name, std::move(attributes), spatial));
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
  if (cls->objects_.count(id) > 0) {
    return Status::AlreadyExists("object " + std::to_string(id));
  }
  MOST_FAILPOINT("core/create_object");
  next_id_ = std::max(next_id_, id + 1);
  MostObject obj(id, class_name);
  obj.set_last_update(Now());
  for (const AttributeDecl& decl : cls->attributes_) {
    if (decl.dynamic) {
      obj.SetDynamic(decl.name, DynamicAttribute(0.0, Now(), TimeFunction()));
    } else {
      obj.SetStatic(decl.name, Value::Null());
    }
  }
  auto [it, inserted] = cls->objects_.emplace(id, std::move(obj));
  update_count_.fetch_add(1, std::memory_order_relaxed);
  NotifyUpdate(class_name, id);
  return &it->second;
}

Status MostDatabase::DeleteObject(const std::string& class_name, ObjectId id) {
  MOST_ASSIGN_OR_RETURN(ObjectClass * cls, GetClass(class_name));
  if (cls->objects_.erase(id) == 0) {
    return Status::NotFound("object " + std::to_string(id));
  }
  update_count_.fetch_add(1, std::memory_order_relaxed);
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
  update_count_.fetch_add(1, std::memory_order_relaxed);
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
  update_count_.fetch_add(1, std::memory_order_relaxed);
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
  static const std::string kX = kAttrX;
  static const std::string kY = kAttrY;
  MOST_ASSIGN_OR_RETURN(MostObject * obj, cls->Get(id));
  DynamicAttribute* x = obj->MutableDynamic(kX);
  DynamicAttribute* y = obj->MutableDynamic(kY);
  if (x == nullptr || y == nullptr) {
    return Status::NotFound("dynamic attribute '" + (x == nullptr ? kX : kY) +
                            "'");
  }
  // Checked before either write: a failure leaves both axes untouched.
  MOST_FAILPOINT("core/update_dynamic");
  x->UpdateLinear(Now(), position.x, velocity.x);
  y->UpdateLinear(Now(), position.y, velocity.y);
  obj->set_last_update(Now());
  update_count_.fetch_add(2, std::memory_order_relaxed);
  NotifyUpdate(cls->name(), id);
  return Status::OK();
}

void MostDatabase::NotifyUpdate(const std::string& class_name, ObjectId id) {
  for (const auto& [lid, listener] : listeners_) {
    listener(class_name, id);
  }
}

}  // namespace most
