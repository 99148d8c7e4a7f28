#include "core/most_on_dbms.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace most {
namespace {

TEST(TimeFunctionCodecTest, RoundTrips) {
  std::vector<TimeFunction> functions = {
      TimeFunction(),
      TimeFunction::Linear(2.5),
      TimeFunction::Linear(-0.125),
      TimeFunction::Linear(1.0 / 3.0),
      *TimeFunction::Piecewise(
          {{0, 0.1}, {7, -1.0 / 7.0, true, 42.123456789}}),
      *TimeFunction::Piecewise({{0, 1.0}, {10, -2.0}, {20, 0.0}}),
  };
  TimeFunction::Piece reset_piece{5, 1.0, true, 42.5};
  functions.push_back(
      *TimeFunction::Piecewise({{0, 0.5}, reset_piece}));
  for (const TimeFunction& f : functions) {
    auto decoded = DecodeTimeFunction(EncodeTimeFunction(f));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_TRUE(f == *decoded) << EncodeTimeFunction(f);
  }
}

TEST(TimeFunctionCodecTest, RejectsGarbage) {
  EXPECT_FALSE(DecodeTimeFunction("").ok());
  EXPECT_FALSE(DecodeTimeFunction("abc").ok());
  EXPECT_FALSE(DecodeTimeFunction("0").ok());
  EXPECT_FALSE(DecodeTimeFunction("0:x").ok());
  EXPECT_FALSE(DecodeTimeFunction("5:1.0").ok());  // First piece not at 0.
}

class MostOnDbmsTest : public ::testing::Test {
 protected:
  MostOnDbmsTest() : most_(&db_, &clock_) {
    // CARS(PLATE static, POS dynamic, PRICE static).
    EXPECT_TRUE(most_
                    .CreateTable("CARS",
                                 {{"PLATE", false, ValueType::kString},
                                  {"POS", true, ValueType::kNull},
                                  {"PRICE", false, ValueType::kDouble}})
                    .ok());
  }

  RowId AddCar(const char* plate, double pos, double speed, double price) {
    auto rid = most_.Insert(
        "CARS", {{"PLATE", Value(plate)}, {"PRICE", Value(price)}},
        {{"POS", DynamicAttribute(pos, clock_.Now(),
                                  TimeFunction::Linear(speed))}});
    EXPECT_TRUE(rid.ok()) << rid.status();
    return rid.value();
  }

  Database db_;
  Clock clock_;
  MostOnDbms most_;
};

TEST_F(MostOnDbmsTest, DynamicAttributeStoredAsThreeColumns) {
  AddCar("A", 0.0, 2.0, 10.0);
  auto host = db_.GetTable("CARS");
  ASSERT_TRUE(host.ok());
  const Schema& s = (*host)->schema();
  EXPECT_TRUE(s.HasColumn("POS.value"));
  EXPECT_TRUE(s.HasColumn("POS.updatetime"));
  EXPECT_TRUE(s.HasColumn("POS.function"));
  EXPECT_TRUE(s.HasColumn("PLATE"));
  EXPECT_FALSE(s.HasColumn("POS"));
}

TEST_F(MostOnDbmsTest, ReadDynamicDependsOnQueryTime) {
  RowId car = AddCar("A", 100.0, 3.0, 10.0);
  EXPECT_DOUBLE_EQ(most_.ReadDynamic("CARS", car, "POS").value(), 100.0);
  clock_.Advance(10);
  // No update happened, yet the answer changed.
  EXPECT_DOUBLE_EQ(most_.ReadDynamic("CARS", car, "POS").value(), 130.0);
}

TEST_F(MostOnDbmsTest, SelectWithDynamicColumnInProjection) {
  AddCar("A", 0.0, 1.0, 10.0);
  AddCar("B", 50.0, -1.0, 20.0);
  clock_.Advance(5);
  SelectQuery q{.table = "CARS", .where = nullptr, .project = {"PLATE", "POS"}};
  auto rs = most_.ExecuteSelect(q);
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->rows.size(), 2u);
  EXPECT_EQ(rs->rows[0][1], Value(5.0));
  EXPECT_EQ(rs->rows[1][1], Value(45.0));
}

TEST_F(MostOnDbmsTest, DynamicAtomInWhereClause) {
  AddCar("A", 0.0, 1.0, 10.0);   // POS(20) = 20.
  AddCar("B", 100.0, 0.0, 20.0); // POS(20) = 100.
  clock_.Advance(20);
  SelectQuery q{.table = "CARS",
                .where = Expr::Compare(Expr::CmpOp::kLe, Expr::Column("POS"),
                                       Expr::Literal(Value(50.0))),
                .project = {"PLATE"}};
  QueryStats stats;
  auto rs = most_.ExecuteSelect(q, &stats);
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0], Value("A"));
  // One dynamic atom -> 2^1 host queries.
  EXPECT_EQ(stats.queries_executed, 2u);
}

TEST_F(MostOnDbmsTest, MixedStaticAndDynamicAtoms) {
  AddCar("A", 0.0, 1.0, 10.0);
  AddCar("B", 0.0, 1.0, 200.0);
  AddCar("C", 500.0, 0.0, 10.0);
  clock_.Advance(20);
  // POS <= 50 AND PRICE <= 100: only A.
  auto where = Expr::And(
      Expr::Compare(Expr::CmpOp::kLe, Expr::Column("POS"),
                    Expr::Literal(Value(50.0))),
      Expr::Compare(Expr::CmpOp::kLe, Expr::Column("PRICE"),
                    Expr::Literal(Value(100.0))));
  SelectQuery q{.table = "CARS", .where = where, .project = {"PLATE"}};
  auto rs = most_.ExecuteSelect(q);
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0], Value("A"));
}

TEST_F(MostOnDbmsTest, DisjunctionAcrossDynamicAtoms) {
  AddCar("A", 0.0, 1.0, 10.0);    // POS(10) = 10.
  AddCar("B", 100.0, 2.0, 20.0);  // POS(10) = 120.
  clock_.Advance(10);
  // POS < 50 OR POS > 110 -> both.
  auto where = Expr::Or(
      Expr::Compare(Expr::CmpOp::kLt, Expr::Column("POS"),
                    Expr::Literal(Value(50.0))),
      Expr::Compare(Expr::CmpOp::kGt, Expr::Column("POS"),
                    Expr::Literal(Value(110.0))));
  SelectQuery q{.table = "CARS", .where = where, .project = {"PLATE"}};
  QueryStats stats;
  auto rs = most_.ExecuteSelect(q, &stats);
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->rows.size(), 2u);
  // Two distinct dynamic atoms -> 4 host queries.
  EXPECT_EQ(stats.queries_executed, 4u);
}

TEST_F(MostOnDbmsTest, RepeatedAtomCountedOnce) {
  auto p = Expr::Compare(Expr::CmpOp::kLe, Expr::Column("POS"),
                         Expr::Literal(Value(50.0)));
  auto where = Expr::Or(Expr::And(p, Expr::Compare(Expr::CmpOp::kGe,
                                                   Expr::Column("PRICE"),
                                                   Expr::Literal(Value(0.0)))),
                        Expr::Not(p));
  EXPECT_EQ(most_.CountDynamicAtoms("CARS", where).value(), 1u);
}

TEST_F(MostOnDbmsTest, UpdateDynamicChangesTrajectory) {
  RowId car = AddCar("A", 0.0, 1.0, 10.0);
  clock_.Advance(10);
  // Stop the car at its current position.
  ASSERT_TRUE(most_.UpdateDynamic("CARS", car, "POS", 10.0, TimeFunction())
                  .ok());
  clock_.Advance(10);
  EXPECT_DOUBLE_EQ(most_.ReadDynamic("CARS", car, "POS").value(), 10.0);
  // Updating a static column through the dynamic API fails and vice versa.
  EXPECT_FALSE(most_.UpdateDynamic("CARS", car, "PLATE", 0, TimeFunction())
                   .ok());
  EXPECT_FALSE(most_.UpdateStatic("CARS", car, "POS", Value(1.0)).ok());
  EXPECT_TRUE(most_.UpdateStatic("CARS", car, "PRICE", Value(99.0)).ok());
}

TEST_F(MostOnDbmsTest, BranchPruningSkipsImpossibleBranches) {
  AddCar("A", 0.0, 1.0, 10.0);   // POS(20) = 20.
  AddCar("B", 100.0, 0.0, 20.0);
  clock_.Advance(20);
  // Conjunctive WHERE with two dynamic atoms: the pure 2^k decomposition
  // runs 4 host queries, but 3 branches contain a FALSE conjunct.
  auto where = Expr::And(
      Expr::Compare(Expr::CmpOp::kLe, Expr::Column("POS"),
                    Expr::Literal(Value(50.0))),
      Expr::Compare(Expr::CmpOp::kGe, Expr::Column("POS"),
                    Expr::Literal(Value(10.0))));
  SelectQuery q{.table = "CARS", .where = where, .project = {"PLATE"}};

  QueryStats plain, pruned;
  auto rs_plain = most_.ExecuteSelect(q, &plain);
  auto rs_pruned = most_.ExecuteSelect(q, &pruned,
                                       {.prune_trivial_branches = true});
  ASSERT_TRUE(rs_plain.ok());
  ASSERT_TRUE(rs_pruned.ok());
  ASSERT_EQ(rs_plain->rows.size(), 1u);
  ASSERT_EQ(rs_pruned->rows.size(), 1u);
  EXPECT_EQ(rs_plain->rows[0][0], rs_pruned->rows[0][0]);
  EXPECT_EQ(plain.queries_executed, 4u);
  EXPECT_EQ(plain.branches_pruned, 0u);
  EXPECT_EQ(pruned.queries_executed, 1u);
  EXPECT_EQ(pruned.branches_pruned, 3u);
}

TEST_F(MostOnDbmsTest, IndexedSelectMatchesDecomposition) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    AddCar(("car" + std::to_string(i)).c_str(), rng.UniformDouble(-100, 100),
           rng.UniformDouble(-2, 2), rng.UniformDouble(10, 200));
  }
  ASSERT_TRUE(most_.CreateDynamicIndex("CARS", "POS", {256, 16}).ok());
  clock_.Advance(50);

  auto where = Expr::And(
      Expr::Compare(Expr::CmpOp::kLe, Expr::Column("POS"),
                    Expr::Literal(Value(20.0))),
      Expr::Compare(Expr::CmpOp::kGe, Expr::Column("POS"),
                    Expr::Literal(Value(-20.0))));
  SelectQuery q{.table = "CARS", .where = where, .project = {"PLATE"}};

  QueryStats plain_stats, indexed_stats;
  auto plain = most_.ExecuteSelect(q, &plain_stats);
  auto indexed = most_.ExecuteSelect(q, &indexed_stats,
                                     {.use_dynamic_index = true});
  ASSERT_TRUE(plain.ok()) << plain.status();
  ASSERT_TRUE(indexed.ok()) << indexed.status();

  auto names = [](const ResultSet& rs) {
    std::vector<std::string> out;
    for (const Row& r : rs.rows) out.push_back(r[0].string_value());
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(names(*plain), names(*indexed));
  EXPECT_FALSE(names(*plain).empty());
  EXPECT_TRUE(indexed_stats.used_index);
  // The index examined only candidates, not all 200 rows.
  EXPECT_LT(indexed_stats.rows_examined, 200u);
}

TEST_F(MostOnDbmsTest, IndexSurvivesHorizonRebuild) {
  RowId car = AddCar("A", 0.0, 1.0, 10.0);
  ASSERT_TRUE(most_.CreateDynamicIndex("CARS", "POS", {64, 8}).ok());
  clock_.Advance(300);  // Far past the 64-tick horizon.
  auto where = Expr::Compare(Expr::CmpOp::kGe, Expr::Column("POS"),
                             Expr::Literal(Value(299.0)));
  SelectQuery q{.table = "CARS", .where = where, .project = {"PLATE"}};
  auto rs = most_.ExecuteSelect(q, nullptr, {.use_dynamic_index = true});
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->rows.size(), 1u);
  (void)car;
}

TEST_F(MostOnDbmsTest, DeleteRemovesFromIndex) {
  RowId car = AddCar("A", 5.0, 0.0, 10.0);
  ASSERT_TRUE(most_.CreateDynamicIndex("CARS", "POS", {256, 8}).ok());
  ASSERT_TRUE(most_.Delete("CARS", car).ok());
  auto where = Expr::Compare(Expr::CmpOp::kEq, Expr::Column("POS"),
                             Expr::Literal(Value(5.0)));
  SelectQuery q{.table = "CARS", .where = where, .project = {"PLATE"}};
  auto rs = most_.ExecuteSelect(q, nullptr, {.use_dynamic_index = true});
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(rs->rows.empty());
  EXPECT_FALSE(most_.ReadDynamic("CARS", car, "POS").ok());
}

// Property test: decomposition must agree with direct evaluation of the
// logical predicate on every row, for random predicates over k atoms.
class DecompositionPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DecompositionPropertyTest, MatchesDirectEvaluation) {
  Rng rng(GetParam());
  Database db;
  Clock clock;
  MostOnDbms most(&db, &clock);
  ASSERT_TRUE(most.CreateTable("T", {{"ID", false, ValueType::kInt},
                                     {"D1", true, ValueType::kNull},
                                     {"D2", true, ValueType::kNull},
                                     {"S", false, ValueType::kDouble}})
                  .ok());
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(
        most.Insert("T",
                    {{"ID", Value(i)}, {"S", Value(rng.UniformDouble(0, 100))}},
                    {{"D1", DynamicAttribute(rng.UniformDouble(-50, 50), 0,
                                             TimeFunction::Linear(
                                                 rng.UniformDouble(-2, 2)))},
                     {"D2", DynamicAttribute(rng.UniformDouble(-50, 50), 0,
                                             TimeFunction::Linear(
                                                 rng.UniformDouble(-2, 2)))}})
            .ok());
  }
  clock.Advance(rng.UniformInt(1, 40));

  auto random_atom = [&](const char* col, double lo, double hi) {
    auto op = static_cast<Expr::CmpOp>(rng.UniformInt(0, 5));
    return Expr::Compare(op, Expr::Column(col),
                         Expr::Literal(Value(rng.UniformDouble(lo, hi))));
  };
  for (int round = 0; round < 20; ++round) {
    // Random boolean combination over D1, D2, S atoms.
    ExprPtr a = random_atom("D1", -100, 100);
    ExprPtr b = random_atom("D2", -100, 100);
    ExprPtr c = random_atom("S", 0, 100);
    ExprPtr where;
    switch (rng.UniformInt(0, 3)) {
      case 0:
        where = Expr::And(a, Expr::Or(b, c));
        break;
      case 1:
        where = Expr::Or(Expr::And(a, c), Expr::Not(b));
        break;
      case 2:
        where = Expr::Or(a, Expr::And(b, Expr::Not(c)));
        break;
      default:
        where = Expr::And(Expr::Not(a), Expr::Or(b, c));
        break;
    }
    SelectQuery q{.table = "T", .where = where, .project = {"ID"}};
    auto rs = most.ExecuteSelect(q);
    ASSERT_TRUE(rs.ok()) << rs.status();
    std::set<int64_t> got;
    for (const Row& r : rs->rows) got.insert(r[0].int_value());

    // Oracle: evaluate the logical predicate directly per row.
    std::set<int64_t> want;
    auto host = db.GetTable("T");
    ASSERT_TRUE(host.ok());
    const Schema& schema = (*host)->schema();
    Status oracle_status = Status::OK();
    (*host)->Scan([&](RowId rid, const Row& row) {
      if (!oracle_status.ok()) return;
      // Compute current values of D1/D2 and build a logical row.
      auto eval_col = [&](const char* name) {
        return most.ReadDynamic("T", rid, name).value();
      };
      // Substitute into the expression by building an augmented schema: we
      // reuse the public API instead: direct recursive evaluation.
      std::function<Result<Value>(const ExprPtr&)> eval =
          [&](const ExprPtr& e) -> Result<Value> {
        switch (e->kind()) {
          case Expr::Kind::kLiteral:
            return e->literal();
          case Expr::Kind::kColumn:
            if (e->column() == "D1" || e->column() == "D2") {
              return Value(eval_col(e->column().c_str()));
            }
            {
              MOST_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(e->column()));
              return row[idx];
            }
          case Expr::Kind::kCompare: {
            MOST_ASSIGN_OR_RETURN(Value l, eval(e->children()[0]));
            MOST_ASSIGN_OR_RETURN(Value r, eval(e->children()[1]));
            int cp = l.Compare(r);
            switch (e->cmp_op()) {
              case Expr::CmpOp::kEq:
                return Value(cp == 0);
              case Expr::CmpOp::kNe:
                return Value(cp != 0);
              case Expr::CmpOp::kLt:
                return Value(cp < 0);
              case Expr::CmpOp::kLe:
                return Value(cp <= 0);
              case Expr::CmpOp::kGt:
                return Value(cp > 0);
              case Expr::CmpOp::kGe:
                return Value(cp >= 0);
            }
            return Status::Internal("bad op");
          }
          case Expr::Kind::kAnd: {
            MOST_ASSIGN_OR_RETURN(Value l, eval(e->children()[0]));
            if (!l.bool_value()) return Value(false);
            return eval(e->children()[1]);
          }
          case Expr::Kind::kOr: {
            MOST_ASSIGN_OR_RETURN(Value l, eval(e->children()[0]));
            if (l.bool_value()) return Value(true);
            return eval(e->children()[1]);
          }
          case Expr::Kind::kNot: {
            MOST_ASSIGN_OR_RETURN(Value v, eval(e->children()[0]));
            return Value(!v.bool_value());
          }
          default:
            return Status::Internal("unexpected kind");
        }
      };
      Result<Value> v = eval(where);
      if (!v.ok()) {
        oracle_status = v.status();
        return;
      }
      if (v->bool_value()) {
        auto idx = schema.IndexOf("ID");
        want.insert(row[idx.value()].int_value());
      }
    });
    ASSERT_TRUE(oracle_status.ok()) << oracle_status;
    EXPECT_EQ(got, want) << "round " << round << " where "
                         << where->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecompositionPropertyTest,
                         ::testing::Values(1, 2, 3, 1997));

}  // namespace
}  // namespace most
