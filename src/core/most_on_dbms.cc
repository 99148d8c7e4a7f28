#include "core/most_on_dbms.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace most {

std::string EncodeTimeFunction(const TimeFunction& f) {
  std::ostringstream os;
  os.precision(17);  // Round-trips every double.
  bool first = true;
  for (const TimeFunction::Piece& p : f.pieces()) {
    if (!first) os << ";";
    first = false;
    os << p.start << ":" << p.slope;
    if (p.has_reset) os << ":" << p.reset_value;
  }
  return os.str();
}

Result<TimeFunction> DecodeTimeFunction(const std::string& encoded) {
  std::vector<TimeFunction::Piece> pieces;
  std::istringstream is(encoded);
  std::string segment;
  while (std::getline(is, segment, ';')) {
    TimeFunction::Piece piece;
    char* end = nullptr;
    piece.start = std::strtoll(segment.c_str(), &end, 10);
    if (end == segment.c_str() || *end != ':') {
      return Status::Corruption("bad time-function encoding: " + segment);
    }
    const char* slope_begin = end + 1;
    piece.slope = std::strtod(slope_begin, &end);
    if (end == slope_begin) {
      return Status::Corruption("bad time-function encoding: " + segment);
    }
    if (*end == ':') {
      const char* reset_begin = end + 1;
      piece.reset_value = std::strtod(reset_begin, &end);
      if (end == reset_begin) {
        return Status::Corruption("bad time-function encoding: " + segment);
      }
      piece.has_reset = true;
    }
    pieces.push_back(piece);
  }
  return TimeFunction::Piecewise(std::move(pieces));
}

namespace {

std::string ValueColumn(const std::string& a) { return a + ".value"; }
std::string UpdatetimeColumn(const std::string& a) { return a + ".updatetime"; }
std::string FunctionColumn(const std::string& a) { return a + ".function"; }

constexpr double kIndexInfinity = 1e15;

}  // namespace

Status MostOnDbms::CreateTable(const std::string& name,
                               std::vector<MostColumnSpec> columns) {
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("MOST table '" + name + "'");
  }
  std::vector<Column> host_columns;
  TableMeta meta;
  for (const MostColumnSpec& spec : columns) {
    if (spec.dynamic) {
      meta.dynamic_columns.insert(spec.name);
      host_columns.push_back({ValueColumn(spec.name), ValueType::kDouble});
      host_columns.push_back({UpdatetimeColumn(spec.name), ValueType::kInt});
      host_columns.push_back({FunctionColumn(spec.name), ValueType::kString});
    } else {
      host_columns.push_back({spec.name, spec.static_type});
    }
  }
  meta.logical_columns = std::move(columns);
  MOST_RETURN_IF_ERROR(
      db_->CreateTable(name, Schema(std::move(host_columns))).status());
  tables_.emplace(name, std::move(meta));
  return Status::OK();
}

Result<const MostOnDbms::TableMeta*> MostOnDbms::GetMeta(
    const std::string& table) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound("MOST table '" + table + "'");
  }
  return &it->second;
}

Result<RowId> MostOnDbms::Insert(
    const std::string& table, const std::map<std::string, Value>& statics,
    const std::map<std::string, DynamicAttribute>& dynamics) {
  MOST_ASSIGN_OR_RETURN(const TableMeta* meta, GetMeta(table));
  MOST_ASSIGN_OR_RETURN(Table * host, db_->GetTable(table));
  Row row;
  for (const MostColumnSpec& spec : meta->logical_columns) {
    if (spec.dynamic) {
      DynamicAttribute attr(0.0, clock_->Now(), TimeFunction());
      auto it = dynamics.find(spec.name);
      if (it != dynamics.end()) attr = it->second;
      row.push_back(Value(attr.value()));
      row.push_back(Value(static_cast<int64_t>(attr.updatetime())));
      row.push_back(Value(EncodeTimeFunction(attr.function())));
    } else {
      auto it = statics.find(spec.name);
      row.push_back(it == statics.end() ? Value::Null() : it->second);
    }
  }
  MOST_ASSIGN_OR_RETURN(RowId rid, host->Insert(std::move(row)));
  for (auto& [column, index] : tables_.at(table).indexes) {
    auto it = dynamics.find(column);
    DynamicAttribute attr = (it != dynamics.end())
                                ? it->second
                                : DynamicAttribute(0.0, clock_->Now(),
                                                   TimeFunction());
    if (index->NeedsRebuild(clock_->Now())) index->Rebuild(clock_->Now());
    index->Upsert(rid, attr);
  }
  return rid;
}

Status MostOnDbms::Delete(const std::string& table, RowId rid) {
  MOST_ASSIGN_OR_RETURN(const TableMeta* meta, GetMeta(table));
  MOST_ASSIGN_OR_RETURN(Table * host, db_->GetTable(table));
  MOST_RETURN_IF_ERROR(host->Delete(rid));
  for (auto& [column, index] : tables_.at(table).indexes) {
    index->Remove(rid);
  }
  (void)meta;
  return Status::OK();
}

Status MostOnDbms::UpdateStatic(const std::string& table, RowId rid,
                                const std::string& column, Value value) {
  MOST_ASSIGN_OR_RETURN(const TableMeta* meta, GetMeta(table));
  if (meta->dynamic_columns.count(column) > 0) {
    return Status::InvalidArgument("'" + column +
                                   "' is dynamic; use UpdateDynamic");
  }
  MOST_ASSIGN_OR_RETURN(Table * host, db_->GetTable(table));
  MOST_ASSIGN_OR_RETURN(size_t idx, host->schema().IndexOf(column));
  return host->UpdateColumn(rid, idx, std::move(value));
}

Status MostOnDbms::UpdateDynamic(const std::string& table, RowId rid,
                                 const std::string& column, double value,
                                 TimeFunction function) {
  MOST_ASSIGN_OR_RETURN(const TableMeta* meta, GetMeta(table));
  if (meta->dynamic_columns.count(column) == 0) {
    return Status::InvalidArgument("'" + column + "' is not dynamic");
  }
  MOST_ASSIGN_OR_RETURN(Table * host, db_->GetTable(table));
  const Schema& schema = host->schema();
  Tick now = clock_->Now();
  MOST_ASSIGN_OR_RETURN(size_t vi, schema.IndexOf(ValueColumn(column)));
  MOST_ASSIGN_OR_RETURN(size_t ui, schema.IndexOf(UpdatetimeColumn(column)));
  MOST_ASSIGN_OR_RETURN(size_t fi, schema.IndexOf(FunctionColumn(column)));
  MOST_RETURN_IF_ERROR(host->UpdateColumn(rid, vi, Value(value)));
  MOST_RETURN_IF_ERROR(
      host->UpdateColumn(rid, ui, Value(static_cast<int64_t>(now))));
  MOST_RETURN_IF_ERROR(
      host->UpdateColumn(rid, fi, Value(EncodeTimeFunction(function))));
  auto& indexes = tables_.at(table).indexes;
  auto idx_it = indexes.find(column);
  if (idx_it != indexes.end()) {
    if (idx_it->second->NeedsRebuild(now)) idx_it->second->Rebuild(now);
    idx_it->second->Upsert(rid, DynamicAttribute(value, now, function));
  }
  return Status::OK();
}

Result<double> MostOnDbms::CurrentValueFromRow(
    const Schema& schema, const Row& row, const std::string& column) const {
  MOST_ASSIGN_OR_RETURN(size_t vi, schema.IndexOf(ValueColumn(column)));
  MOST_ASSIGN_OR_RETURN(size_t ui, schema.IndexOf(UpdatetimeColumn(column)));
  MOST_ASSIGN_OR_RETURN(size_t fi, schema.IndexOf(FunctionColumn(column)));
  MOST_ASSIGN_OR_RETURN(double base, row[vi].AsDouble());
  if (row[ui].type() != ValueType::kInt ||
      row[fi].type() != ValueType::kString) {
    return Status::Corruption("malformed dynamic sub-attributes");
  }
  MOST_ASSIGN_OR_RETURN(TimeFunction f,
                        DecodeTimeFunction(row[fi].string_value()));
  DynamicAttribute attr(base, row[ui].int_value(), std::move(f));
  return attr.ValueAt(clock_->Now());
}

Result<double> MostOnDbms::ReadDynamic(const std::string& table, RowId rid,
                                       const std::string& column) const {
  MOST_ASSIGN_OR_RETURN(const TableMeta* meta, GetMeta(table));
  if (meta->dynamic_columns.count(column) == 0) {
    return Status::InvalidArgument("'" + column + "' is not dynamic");
  }
  MOST_ASSIGN_OR_RETURN(const Table* host, db_->GetTable(table));
  const Row* row = host->Get(rid);
  if (row == nullptr) return Status::NotFound("row " + std::to_string(rid));
  return CurrentValueFromRow(host->schema(), *row, column);
}

Status MostOnDbms::CreateDynamicIndex(const std::string& table,
                                      const std::string& column,
                                      TrajectoryIndex::Options options) {
  MOST_ASSIGN_OR_RETURN(const TableMeta* meta, GetMeta(table));
  if (meta->dynamic_columns.count(column) == 0) {
    return Status::InvalidArgument("'" + column + "' is not dynamic");
  }
  TableMeta& mutable_meta = tables_.at(table);
  if (mutable_meta.indexes.count(column) > 0) {
    return Status::AlreadyExists("dynamic index on " + column);
  }
  auto index = std::make_unique<TrajectoryIndex>(clock_->Now(), options);
  // Index existing rows.
  MOST_ASSIGN_OR_RETURN(const Table* host, db_->GetTable(table));
  const Schema& schema = host->schema();
  MOST_ASSIGN_OR_RETURN(size_t vi, schema.IndexOf(ValueColumn(column)));
  MOST_ASSIGN_OR_RETURN(size_t ui, schema.IndexOf(UpdatetimeColumn(column)));
  MOST_ASSIGN_OR_RETURN(size_t fi, schema.IndexOf(FunctionColumn(column)));
  Status status = Status::OK();
  host->Scan([&](RowId rid, const Row& row) {
    if (!status.ok()) return;
    auto f = DecodeTimeFunction(row[fi].string_value());
    if (!f.ok()) {
      status = f.status();
      return;
    }
    index->Upsert(rid, DynamicAttribute(row[vi].double_value(),
                                        row[ui].int_value(), *f));
  });
  MOST_RETURN_IF_ERROR(status);
  mutable_meta.indexes.emplace(column, std::move(index));
  return Status::OK();
}

void MostOnDbms::CollectDynamicAtoms(
    const ExprPtr& where, const std::set<std::string>& dynamic_columns,
    std::vector<ExprPtr>* atoms) {
  if (where == nullptr) return;
  switch (where->kind()) {
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr:
      CollectDynamicAtoms(where->children()[0], dynamic_columns, atoms);
      CollectDynamicAtoms(where->children()[1], dynamic_columns, atoms);
      return;
    case Expr::Kind::kNot:
      CollectDynamicAtoms(where->children()[0], dynamic_columns, atoms);
      return;
    default: {
      std::set<std::string> cols;
      where->CollectColumns(&cols);
      bool dynamic = false;
      for (const std::string& c : cols) {
        if (dynamic_columns.count(c) > 0) dynamic = true;
      }
      if (!dynamic) return;
      for (const ExprPtr& existing : *atoms) {
        if (existing->Equals(*where)) return;  // Structural dedup.
      }
      atoms->push_back(where);
    }
  }
}

namespace {

/// Rewrites an atom (or any expression) by replacing references to dynamic
/// columns with their current values for one row.
Result<ExprPtr> SubstituteDynamics(
    const ExprPtr& expr, const std::set<std::string>& dynamic_columns,
    const std::function<Result<double>(const std::string&)>& current_value) {
  if (expr == nullptr) return expr;
  if (expr->kind() == Expr::Kind::kColumn &&
      dynamic_columns.count(expr->column()) > 0) {
    MOST_ASSIGN_OR_RETURN(double v, current_value(expr->column()));
    return Expr::Literal(Value(v));
  }
  if (expr->children().empty()) return expr;
  std::vector<ExprPtr> rewritten;
  bool changed = false;
  for (const ExprPtr& c : expr->children()) {
    MOST_ASSIGN_OR_RETURN(
        ExprPtr rc, SubstituteDynamics(c, dynamic_columns, current_value));
    changed |= (rc != c);
    rewritten.push_back(std::move(rc));
  }
  if (!changed) return expr;
  switch (expr->kind()) {
    case Expr::Kind::kCompare:
      return Expr::Compare(expr->cmp_op(), rewritten[0], rewritten[1]);
    case Expr::Kind::kAnd:
      return Expr::And(rewritten[0], rewritten[1]);
    case Expr::Kind::kOr:
      return Expr::Or(rewritten[0], rewritten[1]);
    case Expr::Kind::kNot:
      return Expr::Not(rewritten[0]);
    case Expr::Kind::kArith:
      return Expr::Arith(expr->arith_op(), rewritten[0], rewritten[1]);
    default:
      return expr;
  }
}

}  // namespace

Result<bool> MostOnDbms::EvalDynamicAtom(const ExprPtr& atom,
                                         const TableMeta& meta,
                                         const Schema& schema,
                                         const Row& row) const {
  MOST_ASSIGN_OR_RETURN(
      ExprPtr substituted,
      SubstituteDynamics(atom, meta.dynamic_columns,
                         [&](const std::string& col) {
                           return CurrentValueFromRow(schema, row, col);
                         }));
  MOST_ASSIGN_OR_RETURN(Value v, substituted->Eval(schema, row));
  if (v.type() != ValueType::kBool) {
    return Status::TypeError("dynamic atom is not boolean");
  }
  return v.bool_value();
}

Result<std::vector<MostColumnSpec>> MostOnDbms::GetLogicalColumns(
    const std::string& table) const {
  MOST_ASSIGN_OR_RETURN(const TableMeta* meta, GetMeta(table));
  return meta->logical_columns;
}

Result<size_t> MostOnDbms::CountDynamicAtoms(const std::string& table,
                                             const ExprPtr& where) const {
  MOST_ASSIGN_OR_RETURN(const TableMeta* meta, GetMeta(table));
  std::vector<ExprPtr> atoms;
  CollectDynamicAtoms(where, meta->dynamic_columns, &atoms);
  return atoms.size();
}

Result<ResultSet> MostOnDbms::ExecuteSelect(const SelectQuery& query,
                                            QueryStats* stats,
                                            ExecOptions options) const {
  MOST_ASSIGN_OR_RETURN(const TableMeta* meta, GetMeta(query.table));
  MOST_ASSIGN_OR_RETURN(const Table* host, db_->GetTable(query.table));
  const Schema& schema = host->schema();
  QueryStats local;
  QueryStats* st = stats != nullptr ? stats : &local;

  // Output schema / logical projection.
  std::vector<std::string> projection = query.project;
  if (projection.empty()) {
    for (const MostColumnSpec& spec : meta->logical_columns) {
      projection.push_back(spec.name);
    }
  }
  std::vector<Column> out_columns;
  for (const std::string& name : projection) {
    if (meta->dynamic_columns.count(name) > 0) {
      out_columns.push_back({name, ValueType::kDouble});
    } else {
      bool found = false;
      for (const MostColumnSpec& spec : meta->logical_columns) {
        if (spec.name == name && !spec.dynamic) {
          out_columns.push_back({name, spec.static_type});
          found = true;
        }
      }
      if (!found) {
        return Status::NotFound("logical column '" + name + "'");
      }
    }
  }
  ResultSet result;
  result.schema = Schema(std::move(out_columns));

  auto emit_row = [&](const Row& row) -> Status {
    Row out;
    out.reserve(projection.size());
    for (const std::string& name : projection) {
      if (meta->dynamic_columns.count(name) > 0) {
        MOST_ASSIGN_OR_RETURN(double v, CurrentValueFromRow(schema, row, name));
        out.push_back(Value(v));
      } else {
        MOST_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(name));
        out.push_back(row[idx]);
      }
    }
    result.rows.push_back(std::move(out));
    return Status::OK();
  };

  std::vector<ExprPtr> atoms;
  CollectDynamicAtoms(query.where, meta->dynamic_columns, &atoms);

  if (atoms.empty()) {
    // No dynamic atoms: pass through (Section 5.1's first case), fetching
    // full rows so dynamic SELECT columns can be computed.
    SelectQuery host_query{query.table, query.where, {}};
    MOST_ASSIGN_OR_RETURN(ResultSet rs, db_->ExecuteSelect(host_query, st));
    for (const Row& row : rs.rows) {
      MOST_RETURN_IF_ERROR(emit_row(row));
    }
    return result;
  }

  // Indexed path: a top-level conjunct `A cmp const` with a trajectory
  // index prunes candidates; the full predicate is verified per candidate.
  if (options.use_dynamic_index) {
    std::vector<ExprPtr> conjuncts;
    SplitConjuncts(query.where, &conjuncts);
    for (const ExprPtr& conjunct : conjuncts) {
      if (conjunct->kind() != Expr::Kind::kCompare) continue;
      const ExprPtr& lhs = conjunct->children()[0];
      const ExprPtr& rhs = conjunct->children()[1];
      const Expr* col = nullptr;
      const Expr* lit = nullptr;
      bool mirrored = false;
      if (lhs->kind() == Expr::Kind::kColumn &&
          rhs->kind() == Expr::Kind::kLiteral) {
        col = lhs.get();
        lit = rhs.get();
      } else if (rhs->kind() == Expr::Kind::kColumn &&
                 lhs->kind() == Expr::Kind::kLiteral) {
        col = rhs.get();
        lit = lhs.get();
        mirrored = true;
      } else {
        continue;
      }
      auto idx_it = meta->indexes.find(col->column());
      if (idx_it == meta->indexes.end()) continue;
      if (!lit->literal().is_numeric()) continue;
      double c = lit->literal().AsDouble().value();
      Expr::CmpOp op = conjunct->cmp_op();
      if (mirrored) {
        switch (op) {
          case Expr::CmpOp::kLt:
            op = Expr::CmpOp::kGt;
            break;
          case Expr::CmpOp::kLe:
            op = Expr::CmpOp::kGe;
            break;
          case Expr::CmpOp::kGt:
            op = Expr::CmpOp::kLt;
            break;
          case Expr::CmpOp::kGe:
            op = Expr::CmpOp::kLe;
            break;
          default:
            break;
        }
      }
      double lo = -kIndexInfinity, hi = kIndexInfinity;
      switch (op) {
        case Expr::CmpOp::kEq:
          lo = hi = c;
          break;
        case Expr::CmpOp::kLt:
        case Expr::CmpOp::kLe:
          hi = c;
          break;
        case Expr::CmpOp::kGt:
        case Expr::CmpOp::kGe:
          lo = c;
          break;
        case Expr::CmpOp::kNe:
          continue;  // Not a contiguous range.
      }
      TrajectoryIndex* index = idx_it->second.get();
      if (index->NeedsRebuild(clock_->Now())) index->Rebuild(clock_->Now());
      st->used_index = true;
      st->queries_executed += 1;
      for (ObjectId rid : index->QueryExact(lo, hi, clock_->Now())) {
        const Row* row = host->Get(rid);
        if (row == nullptr) continue;
        st->rows_examined += 1;
        MOST_ASSIGN_OR_RETURN(
            ExprPtr substituted,
            SubstituteDynamics(query.where, meta->dynamic_columns,
                               [&](const std::string& name) {
                                 return CurrentValueFromRow(schema, *row,
                                                            name);
                               }));
        MOST_ASSIGN_OR_RETURN(Value keep, substituted->Eval(schema, *row));
        if (keep.type() == ValueType::kBool && keep.bool_value()) {
          MOST_RETURN_IF_ERROR(emit_row(*row));
        }
      }
      return result;
    }
  }

  // Section 5.1 decomposition: eliminate each dynamic atom p via
  // F = (F' AND p) OR (F'' AND NOT p), yielding up to 2^k host queries
  // whose WHERE clauses are dynamic-free; each branch's rows are then
  // verified against the recorded truth assignment using current values.
  struct Branch {
    ExprPtr where;
    std::vector<bool> assignment;
  };
  std::vector<Branch> branches = {{query.where, {}}};
  for (const ExprPtr& atom : atoms) {
    std::vector<Branch> next;
    next.reserve(branches.size() * 2);
    for (const Branch& b : branches) {
      Branch with_true{SubstituteAtom(b.where, atom, Expr::True()),
                       b.assignment};
      with_true.assignment.push_back(true);
      Branch with_false{SubstituteAtom(b.where, atom, Expr::False()),
                        b.assignment};
      with_false.assignment.push_back(false);
      next.push_back(std::move(with_true));
      next.push_back(std::move(with_false));
    }
    branches = std::move(next);
  }

  for (const Branch& branch : branches) {
    ExprPtr branch_where = branch.where;
    if (options.prune_trivial_branches) {
      branch_where = SimplifyExpr(branch_where);
      if (IsBoolLiteral(branch_where, false)) {
        st->branches_pruned += 1;
        continue;  // No host query needed: the branch is unsatisfiable.
      }
      if (IsBoolLiteral(branch_where, true)) branch_where = nullptr;
    }
    SelectQuery host_query{query.table, branch_where, {}};
    MOST_ASSIGN_OR_RETURN(ResultSet rs, db_->ExecuteSelect(host_query, st));
    for (const Row& row : rs.rows) {
      bool keep = true;
      for (size_t i = 0; i < atoms.size() && keep; ++i) {
        MOST_ASSIGN_OR_RETURN(bool truth,
                              EvalDynamicAtom(atoms[i], *meta, schema, row));
        keep = (truth == branch.assignment[i]);
      }
      if (keep) {
        MOST_RETURN_IF_ERROR(emit_row(row));
      }
    }
  }
  return result;
}

}  // namespace most
