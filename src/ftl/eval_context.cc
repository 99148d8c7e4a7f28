#include "ftl/eval_context.h"

#include <cstring>

#include "ftl/eval.h"

namespace most {

namespace {

// The structural key is a byte string: a tag per node and every field
// encoded exactly (lengths before strings, doubles by their bits), so two
// keys are equal only for structurally equal subformulas.

template <typename T>
void AppendRaw(T v, std::string* out) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

void AppendString(const std::string& s, std::string* out) {
  AppendRaw<uint32_t>(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

void AppendValue(const Value& v, std::string* out) {
  AppendRaw<uint8_t>(static_cast<uint8_t>(v.type()), out);
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      AppendRaw<uint8_t>(v.bool_value() ? 1 : 0, out);
      break;
    case ValueType::kInt:
      AppendRaw<int64_t>(v.int_value(), out);
      break;
    case ValueType::kDouble:
      AppendRaw<double>(v.double_value(), out);
      break;
    case ValueType::kString:
      AppendString(v.string_value(), out);
      break;
  }
}

void AppendTerm(const FtlTerm& t, std::string* out) {
  AppendRaw<uint8_t>(static_cast<uint8_t>(t.kind()), out);
  switch (t.kind()) {
    case FtlTerm::Kind::kLiteral:
      AppendValue(t.literal(), out);
      break;
    case FtlTerm::Kind::kVarRef:
      AppendString(t.var(), out);
      break;
    case FtlTerm::Kind::kAttrRef:
      AppendString(t.var(), out);
      AppendString(t.attr(), out);
      AppendRaw<uint8_t>(static_cast<uint8_t>(t.sub()), out);
      break;
    case FtlTerm::Kind::kTime:
      break;
    case FtlTerm::Kind::kArith:
      AppendRaw<uint8_t>(static_cast<uint8_t>(t.arith_op()), out);
      break;
    case FtlTerm::Kind::kDist:
      AppendString(t.var(), out);
      AppendString(t.var2(), out);
      break;
  }
  for (const TermPtr& c : t.children()) AppendTerm(*c, out);
}

// One node's fields; the children's encodings follow it.
void AppendNode(const FtlFormula& f, std::string* out) {
  AppendRaw<uint8_t>(static_cast<uint8_t>(f.kind()), out);
  switch (f.kind()) {
    case FtlFormula::Kind::kBoolLit:
      AppendRaw<uint8_t>(f.bool_value() ? 1 : 0, out);
      break;
    case FtlFormula::Kind::kCompare:
      AppendRaw<uint8_t>(static_cast<uint8_t>(f.cmp_op()), out);
      AppendTerm(*f.lhs_term(), out);
      AppendTerm(*f.rhs_term(), out);
      break;
    case FtlFormula::Kind::kInside:
    case FtlFormula::Kind::kOutside:
      AppendString(f.var(), out);
      AppendString(f.region(), out);
      AppendString(f.anchor(), out);
      break;
    case FtlFormula::Kind::kWithinSphere:
      AppendRaw<double>(f.radius(), out);
      AppendRaw<uint32_t>(static_cast<uint32_t>(f.sphere_vars().size()), out);
      for (const std::string& v : f.sphere_vars()) AppendString(v, out);
      break;
    case FtlFormula::Kind::kAssign:
      AppendString(f.var(), out);
      AppendTerm(*f.assign_term(), out);
      break;
    default:
      AppendRaw<Tick>(f.bound(), out);  // Zero for unbounded operators.
      break;
  }
  AppendRaw<uint32_t>(static_cast<uint32_t>(f.children().size()), out);
}

bool SameIds(const std::shared_ptr<const std::set<ObjectId>>& a,
             const std::shared_ptr<const std::set<ObjectId>>& b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  return a->size() == b->size() && *a == *b;
}

bool SameRestrictions(const EvalContext::Restrictions& a,
                      const EvalContext::Restrictions& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first || !SameIds(a[i].second, b[i].second)) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string EvalContext::Structure(
    const FtlFormula& f, const std::vector<const std::string*>& children) {
  std::string out;
  AppendNode(f, &out);
  for (const std::string* c : children) out.append(*c);
  return out;
}

std::string EvalContext::SubformulaKey(
    const std::string& structure,
    const std::map<std::string, const ObjectClass*>& classes,
    const std::set<std::string>& free_vars, Interval window) {
  std::string key = structure;
  for (const std::string& v : free_vars) {
    auto it = classes.find(v);
    AppendString(v, &key);
    AppendRaw<const ObjectClass*>(it != classes.end() ? it->second : nullptr,
                                  &key);
  }
  AppendRaw<Tick>(window.begin, &key);
  AppendRaw<Tick>(window.end, &key);
  return key;
}

std::optional<EvalContext::Hit> EvalContext::Generation::FindRelation(
    const std::string& key, const Restrictions& restrictions,
    bool allow_filtered) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = relations_.find(key);
  if (it == relations_.end()) return std::nullopt;
  const RelationEntry* unrestricted = nullptr;
  for (const RelationEntry& e : it->second) {
    if (SameRestrictions(e.restrictions, restrictions)) {
      return Hit{e.shared, /*filtered=*/false};
    }
    if (e.restrictions.empty()) unrestricted = &e;
  }
  if (unrestricted == nullptr || !allow_filtered) return std::nullopt;
  return Hit{unrestricted->shared, /*filtered=*/true};
}

void EvalContext::Generation::StoreRelation(const std::string& key,
                                            Restrictions restrictions,
                                            SharedRelation shared) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RelationEntry>& entries = relations_[key];
  for (const RelationEntry& e : entries) {
    if (SameRestrictions(e.restrictions, restrictions)) return;
  }
  entries.push_back({std::move(restrictions), std::move(shared)});
}

EvalContext::Snapshot EvalContext::Generation::GetSnapshot(
    const ObjectClass& cls, Interval window,
    const std::shared_ptr<const std::set<ObjectId>>& scope,
    bool exact_scope) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const SnapshotEntry& e : snapshots_) {
    if (e.cls == &cls && e.window == window &&
        ((e.scope == nullptr && !exact_scope) || SameIds(e.scope, scope))) {
      return {e.snapshot.get(), e.bytes, /*built=*/false};
    }
  }
  // Built under the lock: the arena is not thread-safe, and a concurrent
  // request for the same snapshot waits for this build instead of
  // repeating it.
  const size_t before = arena_.stats().bytes_allocated;
  auto snapshot = std::make_unique<ClassSnapshot>(&arena_);
  snapshot->Build(cls, window, scope.get());
  const size_t bytes = arena_.stats().bytes_allocated - before;
  const ClassSnapshot* out = snapshot.get();
  snapshots_.push_back({&cls, window, scope, std::move(snapshot), bytes});
  return {out, bytes, /*built=*/true};
}

std::shared_ptr<EvalContext::Generation> EvalContext::Acquire(
    const MostDatabase& db) {
  const Key key{&db, db.version(), db.Now()};
  std::lock_guard<std::mutex> lock(mu_);
  if (current_ == nullptr || !(key_ == key)) {
    // The previous generation is freed here unless an evaluation still
    // holds it; it then dies with that evaluation's last reference.
    current_ = std::make_shared<Generation>();
    key_ = key;
  }
  return current_;
}

void EvalContext::Release() {
  std::lock_guard<std::mutex> lock(mu_);
  current_.reset();
}

}  // namespace most
