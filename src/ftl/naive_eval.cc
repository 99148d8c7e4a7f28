#include "ftl/naive_eval.h"

#include <algorithm>
#include <cmath>

#include "geometry/mec.h"

namespace most {

namespace {

constexpr double kCmpEps = 1e-9;

Result<bool> CompareAt(FtlFormula::CmpOp op, const Value& lhs,
                       const Value& rhs) {
  if (lhs.is_numeric() && rhs.is_numeric()) {
    double diff = lhs.AsDouble().value() - rhs.AsDouble().value();
    switch (op) {
      case FtlFormula::CmpOp::kLe:
        return diff <= kCmpEps;
      case FtlFormula::CmpOp::kLt:
        return diff < -kCmpEps;
      case FtlFormula::CmpOp::kGe:
        return diff >= -kCmpEps;
      case FtlFormula::CmpOp::kGt:
        return diff > kCmpEps;
      case FtlFormula::CmpOp::kEq:
        return std::abs(diff) <= kCmpEps;
      case FtlFormula::CmpOp::kNe:
        return std::abs(diff) > kCmpEps;
    }
    return Status::Internal("bad cmp op");
  }
  if (lhs.type() != rhs.type()) {
    return Status::TypeError("comparison between mismatched types");
  }
  int c = lhs.Compare(rhs);
  switch (op) {
    case FtlFormula::CmpOp::kLe:
      return c <= 0;
    case FtlFormula::CmpOp::kLt:
      return c < 0;
    case FtlFormula::CmpOp::kGe:
      return c >= 0;
    case FtlFormula::CmpOp::kGt:
      return c > 0;
    case FtlFormula::CmpOp::kEq:
      return c == 0;
    case FtlFormula::CmpOp::kNe:
      return c != 0;
  }
  return Status::Internal("bad cmp op");
}

}  // namespace

Result<bool> NaiveFtlEvaluator::Holds(const FormulaPtr& f,
                                      const Instantiation& inst, Tick t,
                                      Interval window) const {
  if (t < window.begin || t > window.end) return false;
  switch (f->kind()) {
    case FtlFormula::Kind::kBoolLit:
      return f->bool_value();

    case FtlFormula::Kind::kCompare: {
      MOST_ASSIGN_OR_RETURN(Value lhs, EvalTermAt(f->lhs_term(), inst, t));
      MOST_ASSIGN_OR_RETURN(Value rhs, EvalTermAt(f->rhs_term(), inst, t));
      return CompareAt(f->cmp_op(), lhs, rhs);
    }

    case FtlFormula::Kind::kInside:
    case FtlFormula::Kind::kOutside: {
      MOST_ASSIGN_OR_RETURN(const Polygon* region, db_.GetRegion(f->region()));
      auto it = inst.find(f->var());
      if (it == inst.end()) {
        return Status::Internal("uninstantiated variable '" + f->var() + "'");
      }
      if (!it->second->IsSpatial()) {
        return Status::TypeError("INSIDE/OUTSIDE over non-spatial object");
      }
      Point2 position = it->second->PositionAt(t);
      if (!f->anchor().empty()) {
        // Moving region: coordinates are relative to the anchor.
        auto anchor_it = inst.find(f->anchor());
        if (anchor_it == inst.end()) {
          return Status::Internal("uninstantiated variable '" + f->anchor() +
                                  "'");
        }
        if (!anchor_it->second->IsSpatial()) {
          return Status::TypeError("INSIDE/OUTSIDE over non-spatial anchor");
        }
        position = position - anchor_it->second->PositionAt(t);
      }
      bool inside = region->Contains(position);
      return f->kind() == FtlFormula::Kind::kInside ? inside : !inside;
    }

    case FtlFormula::Kind::kWithinSphere: {
      std::vector<Point2> points;
      for (const std::string& v : f->sphere_vars()) {
        auto it = inst.find(v);
        if (it == inst.end()) {
          return Status::Internal("uninstantiated variable '" + v + "'");
        }
        if (!it->second->IsSpatial()) {
          return Status::TypeError("WITHIN_SPHERE over non-spatial object");
        }
        points.push_back(it->second->PositionAt(t));
      }
      return MinimalEnclosingCircle(points).radius <= f->radius() + 1e-9;
    }

    case FtlFormula::Kind::kAnd: {
      MOST_ASSIGN_OR_RETURN(bool lhs, Holds(f->children()[0], inst, t, window));
      if (!lhs) return false;
      return Holds(f->children()[1], inst, t, window);
    }
    case FtlFormula::Kind::kOr: {
      MOST_ASSIGN_OR_RETURN(bool lhs, Holds(f->children()[0], inst, t, window));
      if (lhs) return true;
      return Holds(f->children()[1], inst, t, window);
    }
    case FtlFormula::Kind::kNot: {
      MOST_ASSIGN_OR_RETURN(bool v, Holds(f->children()[0], inst, t, window));
      return !v;
    }

    case FtlFormula::Kind::kUntil:
    case FtlFormula::Kind::kUntilWithin: {
      Tick limit = window.end;
      if (f->kind() == FtlFormula::Kind::kUntilWithin) {
        limit = std::min(limit, TickSaturatingAdd(t, f->bound()));
      }
      for (Tick tp = t; tp <= limit; ++tp) {
        MOST_ASSIGN_OR_RETURN(bool g2,
                              Holds(f->children()[1], inst, tp, window));
        if (g2) return true;
        MOST_ASSIGN_OR_RETURN(bool g1,
                              Holds(f->children()[0], inst, tp, window));
        if (!g1) return false;
      }
      return false;
    }

    case FtlFormula::Kind::kNexttime:
      if (t + 1 > window.end) return false;
      return Holds(f->children()[0], inst, t + 1, window);

    case FtlFormula::Kind::kEventually:
    case FtlFormula::Kind::kEventuallyWithin:
    case FtlFormula::Kind::kEventuallyAfter: {
      Tick from = t;
      Tick to = window.end;
      if (f->kind() == FtlFormula::Kind::kEventuallyWithin) {
        to = std::min(to, TickSaturatingAdd(t, f->bound()));
      } else if (f->kind() == FtlFormula::Kind::kEventuallyAfter) {
        from = TickSaturatingAdd(t, f->bound());
      }
      for (Tick tp = from; tp <= to; ++tp) {
        MOST_ASSIGN_OR_RETURN(bool v, Holds(f->children()[0], inst, tp, window));
        if (v) return true;
      }
      return false;
    }

    case FtlFormula::Kind::kAlways:
    case FtlFormula::Kind::kAlwaysFor: {
      Tick to = window.end;
      if (f->kind() == FtlFormula::Kind::kAlwaysFor) {
        Tick bounded = TickSaturatingAdd(t, f->bound());
        if (bounded > window.end) return false;  // Beyond evaluated history.
        to = bounded;
      }
      for (Tick tp = t; tp <= to; ++tp) {
        MOST_ASSIGN_OR_RETURN(bool v, Holds(f->children()[0], inst, tp, window));
        if (!v) return false;
      }
      return true;
    }

    case FtlFormula::Kind::kAssign: {
      MOST_ASSIGN_OR_RETURN(Value v, EvalTermAt(f->assign_term(), inst, t));
      FormulaPtr substituted = SubstituteValueVar(f->children()[0], f->var(), v);
      return Holds(substituted, inst, t, window);
    }
  }
  return Status::Internal("bad formula kind");
}

Result<TemporalRelation> NaiveFtlEvaluator::EvaluateQuery(
    const FtlQuery& query, Interval window) const {
  MOST_ASSIGN_OR_RETURN(auto var_classes, ValidateQuery(db_, query, window));
  // Enumerate the full cross product of the FROM classes, one odometer
  // digit per variable in sorted (column) order.
  TemporalRelation full;
  std::vector<const ObjectClass*> classes;
  for (const auto& [var, oc] : var_classes) {
    full.vars.push_back(var);
    classes.push_back(oc);
  }
  const std::vector<std::string>& vars = full.vars;

  std::vector<ObjectClass::Objects::const_iterator> odometer;
  for (const ObjectClass* oc : classes) {
    if (oc->objects().empty()) return full.Project(query.retrieve);
    odometer.push_back(oc->objects().begin());
  }
  while (true) {
    Instantiation inst;
    for (size_t i = 0; i < vars.size(); ++i) {
      inst[vars[i]] = &odometer[i]->second;
    }
    std::vector<Interval> ticks;
    for (Tick t = window.begin; t <= window.end; ++t) {
      MOST_ASSIGN_OR_RETURN(bool holds, Holds(query.where, inst, t, window));
      if (holds) {
        if (!ticks.empty() && ticks.back().end == t - 1) {
          ticks.back().end = t;
        } else {
          ticks.push_back(Interval(t, t));
        }
      }
    }
    if (!ticks.empty()) {
      std::vector<ObjectId> binding(vars.size());
      for (size_t i = 0; i < vars.size(); ++i) {
        binding[i] = odometer[i]->first;
      }
      full.rows.emplace(std::move(binding),
                        IntervalSet::FromIntervals(std::move(ticks)));
    }
    // Advance.
    size_t d = vars.size();
    if (d == 0) break;
    while (true) {
      --d;
      if (++odometer[d] != classes[d]->objects().end()) break;
      odometer[d] = classes[d]->objects().begin();
      if (d == 0) return full.Project(query.retrieve);
    }
  }
  return full.Project(query.retrieve);
}

}  // namespace most
