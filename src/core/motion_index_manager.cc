#include "core/motion_index_manager.h"

namespace most {

MotionIndexManager::MotionIndexManager(MostDatabase* db,
                                       MotionIndex::Options options)
    : db_(db), options_(options) {
  listener_id_ = db_->AddUpdateListener(
      [this](const std::string& class_name, ObjectId id) {
        OnUpdate(class_name, id);
      });
}

MotionIndexManager::~MotionIndexManager() {
  // Managers may be torn down before the database; leaving the listener
  // behind would invoke a dangling callback on the next update.
  db_->RemoveUpdateListener(listener_id_);
}

Status MotionIndexManager::IndexClass(const std::string& class_name) {
  if (indexes_.count(class_name) > 0) {
    return Status::AlreadyExists("motion index on class '" + class_name +
                                 "'");
  }
  MOST_ASSIGN_OR_RETURN(const ObjectClass* cls, db_->GetClass(class_name));
  if (!cls->spatial()) {
    return Status::InvalidArgument("class '" + class_name +
                                   "' is not spatial");
  }
  auto index = std::make_unique<MotionIndex>(db_->Now(), options_);
  for (const auto& [id, obj] : cls->objects()) {
    index->Upsert(id, *obj.GetDynamic(kAttrX).value(),
                  *obj.GetDynamic(kAttrY).value());
  }
  indexes_.emplace(class_name, std::move(index));
  return Status::OK();
}

MotionIndex* MotionIndexManager::Get(const std::string& class_name) const {
  auto it = indexes_.find(class_name);
  if (it == indexes_.end()) return nullptr;
  if (it->second->NeedsRebuild(db_->Now())) {
    it->second->Rebuild(db_->Now());
  }
  return it->second.get();
}

std::optional<std::vector<ObjectId>> MotionIndexManager::CandidatesNearObject(
    const std::string& class_name, const MostObject& probe, double radius,
    Interval window) const {
  MotionIndex* index = Get(class_name);
  if (index == nullptr || !probe.IsSpatial()) return std::nullopt;
  if (!index->Covers(window)) return std::nullopt;
  return index->QueryNearTrajectory(*probe.GetDynamic(kAttrX).value(),
                                    *probe.GetDynamic(kAttrY).value(),
                                    radius, window);
}

void MotionIndexManager::OnUpdate(const std::string& class_name,
                                  ObjectId id) {
  auto it = indexes_.find(class_name);
  if (it == indexes_.end()) return;
  MotionIndex* index = it->second.get();
  auto cls = db_->GetClass(class_name);
  if (!cls.ok()) return;
  auto obj = (*cls)->Get(id);
  if (!obj.ok()) {
    index->Remove(id);  // Object deleted.
    return;
  }
  if (!(*obj)->IsSpatial()) return;
  if (index->NeedsRebuild(db_->Now())) index->Rebuild(db_->Now());
  index->Upsert(id, *(*obj)->GetDynamic(kAttrX).value(),
                *(*obj)->GetDynamic(kAttrY).value());
}

}  // namespace most
