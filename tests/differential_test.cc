// Differential test harness for the FTL evaluation engine.
//
// Three implementations must agree on randomized worlds and formulas:
//   1. the interval evaluator, serial path (no pool),
//   2. the state-stepping reference evaluator (NaiveFtlEvaluator), and
//   3. the parallel path (worker pool), whose contract is *byte-identical*
//      relations at any thread count.
//
// Two corpora: grid worlds (all geometry snapped to a 0.25 grid so the
// naive oracle computes predicate flips exactly like the interval solver)
// are checked three ways; fleet worlds (continuous coordinates from the
// workload generator) are checked serial-vs-parallel only, since both
// sides share the same kinematic solvers there. The snapshot kernels are
// checked against the per-object solvers on fleets in spatial_eval_test.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/object_model.h"
#include "ftl/ast.h"
#include "ftl/eval.h"
#include "ftl/naive_eval.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "core/sharded_engine.h"
#include "ftl/query_manager.h"
#include "scoped_governor_limits.h"
#include "test_seed.h"
#include "workload/fleet.h"

namespace most {
namespace {

// All geometry on a 0.25 grid so predicate flips at integer ticks are
// computed identically (exactly) by the interval solver and the oracle.
double Grid(Rng* rng, double lo, double hi) {
  int64_t steps = static_cast<int64_t>((hi - lo) * 4);
  return lo + 0.25 * static_cast<double>(rng->UniformInt(0, steps));
}

// Atoms over `o` alone, for single-variable queries.
FormulaPtr RandomSingleVariableAtom(Rng* rng) {
  switch (rng->UniformInt(0, 4)) {
    case 0:
      return FtlFormula::Inside("o", rng->Bernoulli(0.5) ? "R1" : "R2");
    case 1:
      return FtlFormula::Outside("o", rng->Bernoulli(0.5) ? "R1" : "R2");
    case 2: {
      auto op = static_cast<FtlFormula::CmpOp>(rng->UniformInt(0, 5));
      return FtlFormula::Compare(op, FtlTerm::AttrRef("o", "FUEL"),
                                 FtlTerm::Literal(Value(Grid(rng, 0, 100))));
    }
    case 3: {
      auto op = static_cast<FtlFormula::CmpOp>(rng->UniformInt(0, 5));
      return FtlFormula::Compare(op, FtlTerm::Time(),
                                 FtlTerm::Literal(Value(static_cast<double>(
                                     rng->UniformInt(0, 30)))));
    }
    default:
      return FtlFormula::Assign(
          "x", FtlTerm::AttrRef("o", "FUEL"),
          FtlFormula::Compare(
              static_cast<FtlFormula::CmpOp>(rng->UniformInt(0, 5)),
              FtlTerm::AttrRef("o", "FUEL"), FtlTerm::VarRef("x")));
  }
}

FormulaPtr RandomAtom(Rng* rng, bool single_variable) {
  if (single_variable) return RandomSingleVariableAtom(rng);
  switch (rng->UniformInt(0, 9)) {
    case 0:
      return FtlFormula::Inside("o", rng->Bernoulli(0.5) ? "R1" : "R2");
    case 1:
      return FtlFormula::Outside("o", rng->Bernoulli(0.5) ? "R1" : "R2");
    case 2:
      return FtlFormula::Inside("n", rng->Bernoulli(0.5) ? "R1" : "R2");
    case 3:
      // Moving region anchored at the other object.
      return FtlFormula::Inside("o", rng->Bernoulli(0.5) ? "R1" : "R2", "n");
    case 4:
      return FtlFormula::Outside("n", rng->Bernoulli(0.5) ? "R1" : "R2", "o");
    case 5: {
      auto op = static_cast<FtlFormula::CmpOp>(rng->UniformInt(0, 5));
      return FtlFormula::Compare(op, FtlTerm::Dist("o", "n"),
                                 FtlTerm::Literal(Value(Grid(rng, 1, 30))));
    }
    case 6: {
      auto op = static_cast<FtlFormula::CmpOp>(rng->UniformInt(0, 5));
      return FtlFormula::Compare(op, FtlTerm::AttrRef("o", "FUEL"),
                                 FtlTerm::Literal(Value(Grid(rng, 0, 100))));
    }
    case 7: {
      auto op = static_cast<FtlFormula::CmpOp>(rng->UniformInt(0, 5));
      return FtlFormula::Compare(op, FtlTerm::Time(),
                                 FtlTerm::Literal(Value(static_cast<double>(
                                     rng->UniformInt(0, 30)))));
    }
    case 8:
      // Assignment quantifier: remember o's fuel now, compare later.
      return FtlFormula::Assign(
          "x", FtlTerm::AttrRef("o", "FUEL"),
          FtlFormula::Compare(
              static_cast<FtlFormula::CmpOp>(rng->UniformInt(0, 5)),
              FtlTerm::AttrRef("n", "FUEL"), FtlTerm::VarRef("x")));
    default:
      return FtlFormula::WithinSphere(Grid(rng, 1, 20), {"o", "n"});
  }
}

// `single_variable` draws every atom over `o` alone.
FormulaPtr RandomFormula(Rng* rng, int depth, bool single_variable = false) {
  if (depth <= 0) return RandomAtom(rng, single_variable);
  auto sub = [&] { return RandomFormula(rng, depth - 1, single_variable); };
  switch (rng->UniformInt(0, 9)) {
    case 0:
      return FtlFormula::And(sub(), sub());
    case 1:
      return FtlFormula::Or(sub(), sub());
    case 2:
      return FtlFormula::Not(sub());
    case 3:
      return FtlFormula::Until(sub(), sub());
    case 4:
      return FtlFormula::UntilWithin(rng->UniformInt(0, 10), sub(), sub());
    case 5:
      return FtlFormula::Nexttime(sub());
    case 6:
      return FtlFormula::EventuallyWithin(rng->UniformInt(0, 12), sub());
    case 7:
      return FtlFormula::AlwaysFor(rng->UniformInt(0, 8), sub());
    case 8:
      return rng->Bernoulli(0.5) ? FtlFormula::Eventually(sub())
                                 : FtlFormula::Always(sub());
    default:
      return FtlFormula::EventuallyAfter(rng->UniformInt(0, 10), sub());
  }
}

// A grid-snapped random world: spatial class "M" with a FUEL attribute,
// two rectangular regions, and a mix of straight and piecewise routes.
void BuildGridWorld(Rng* rng, MostDatabase* db, int num_objects) {
  ASSERT_TRUE(
      db->CreateClass("M", {{"FUEL", true, ValueType::kNull}}, true).ok());
  ASSERT_TRUE(
      db->DefineRegion("R1", Polygon::Rectangle({-10, -10}, {5, 5})).ok());
  ASSERT_TRUE(
      db->DefineRegion("R2", Polygon::Rectangle({0, 0}, {15, 12})).ok());
  for (int i = 0; i < num_objects; ++i) {
    auto obj = db->CreateObject("M");
    ASSERT_TRUE(obj.ok());
    ObjectId id = (*obj)->id();
    if (rng->Bernoulli(0.5)) {
      ASSERT_TRUE(db->SetMotion("M", id,
                                {Grid(rng, -20, 20), Grid(rng, -20, 20)},
                                {Grid(rng, -2, 2), Grid(rng, -2, 2)})
                      .ok());
    } else {
      auto fx = TimeFunction::Piecewise(
          {{0, Grid(rng, -2, 2)}, {rng->UniformInt(3, 15), Grid(rng, -2, 2)}});
      ASSERT_TRUE(fx.ok());
      ASSERT_TRUE(
          db->UpdateDynamic("M", id, kAttrX, Grid(rng, -20, 20), *fx).ok());
      ASSERT_TRUE(db->UpdateDynamic("M", id, kAttrY, Grid(rng, -20, 20),
                                    TimeFunction::Linear(Grid(rng, -2, 2)))
                      .ok());
    }
    ASSERT_TRUE(db->UpdateDynamic("M", id, "FUEL", Grid(rng, 0, 100),
                                  TimeFunction::Linear(Grid(rng, -2, 2)))
                    .ok());
  }
}

// Shared pools for the whole binary: also exercises pool reuse across many
// independent evaluations.
ThreadPool* Pool2() {
  static ThreadPool pool(2);
  return &pool;
}
ThreadPool* Pool4() {
  static ThreadPool pool(4);
  return &pool;
}

// Evaluates `query` with the given options and requires an identical
// relation to `expected`.
void ExpectSameRelation(const MostDatabase& db, const FtlQuery& query,
                        Interval window, const FtlEvaluator::Options& options,
                        const TemporalRelation& expected, const char* label) {
  FtlEvaluator eval(db, options);
  auto rel = eval.EvaluateQuery(query, window);
  ASSERT_TRUE(rel.ok()) << label << ": " << rel.status()
                        << "\nformula: " << query.where->ToString();
  EXPECT_EQ(rel->vars, expected.vars) << label;
  EXPECT_EQ(rel->rows, expected.rows)
      << label << " diverged\nformula: " << query.where->ToString()
      << "\ngot: " << rel->ToString() << "\nwant: " << expected.ToString();
}

// Corpus 1: grid worlds, three-way differential (serial interval evaluator
// vs naive oracle vs parallel paths) on > 200 random queries.
TEST(DifferentialTest, SerialNaiveAndParallelAgreeOnGridWorlds) {
  int queries = 0;
  for (uint64_t seed : test::SuiteSeeds("DifferentialTest.GridWorlds",
                                        {1, 2, 3, 4, 5, 6, 42, 1997, 2026})) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    for (int world = 0; world < 4; ++world) {
      MostDatabase db;
      ASSERT_NO_FATAL_FAILURE(
          BuildGridWorld(&rng, &db, 2 + static_cast<int>(world % 3)));

      for (int round = 0; round < 6; ++round) {
        ++queries;
        FtlQuery query;
        query.retrieve = {"o", "n"};
        query.from = {{"M", "o"}, {"M", "n"}};
        query.where = RandomFormula(&rng, 2);
        Interval window(0, 30);

        // Reference pair: serial interval evaluator and the oracle.
        FtlEvaluator serial(db);
        NaiveFtlEvaluator naive(db);
        auto serial_rel = serial.EvaluateQuery(query, window);
        auto naive_rel = naive.EvaluateQuery(query, window);
        ASSERT_TRUE(serial_rel.ok())
            << serial_rel.status()
            << "\nformula: " << query.where->ToString();
        ASSERT_TRUE(naive_rel.ok()) << naive_rel.status();
        EXPECT_EQ(serial_rel->vars, naive_rel->vars);
        EXPECT_EQ(serial_rel->rows, naive_rel->rows)
            << "oracle diverged\nformula: " << query.where->ToString()
            << "\nfast: " << serial_rel->ToString()
            << "\nnaive: " << naive_rel->ToString();

        // Parallel paths must be byte-identical to serial at two thread
        // counts.
        FtlEvaluator::Options p2;
        p2.pool = Pool2();
        ExpectSameRelation(db, query, window, p2, *serial_rel, "pool2");

        FtlEvaluator::Options p4;
        p4.pool = Pool4();
        ExpectSameRelation(db, query, window, p4, *serial_rel, "pool4");
      }

      // After an explicit motion update the serial and parallel paths
      // must still track the oracle.
      ASSERT_TRUE(db.SetMotion("M", ObjectId(0),
                               {Grid(&rng, -20, 20), Grid(&rng, -20, 20)},
                               {Grid(&rng, -2, 2), Grid(&rng, -2, 2)})
                      .ok());
      ++queries;
      FtlQuery query;
      query.retrieve = {"o", "n"};
      query.from = {{"M", "o"}, {"M", "n"}};
      query.where = RandomFormula(&rng, 2);
      Interval window(0, 30);
      auto naive_rel = NaiveFtlEvaluator(db).EvaluateQuery(query, window);
      ASSERT_TRUE(naive_rel.ok()) << naive_rel.status();
      ExpectSameRelation(db, query, window, {}, *naive_rel,
                         "post-update serial");
      FtlEvaluator::Options p4;
      p4.pool = Pool4();
      ExpectSameRelation(db, query, window, p4, *naive_rel,
                         "post-update pool4");
    }
  }
  if (!test::SeedOverridden()) {
    EXPECT_GE(queries, 200) << "differential corpus shrank below spec";
  }
}

// Corpus 1b: instrumentation must be invisible to answers. The same grid
// worlds and random formulas, evaluated with the observability layer fully
// off (registry kill switch, no profile) and fully on (registry enabled,
// trace sink recording, per-subformula profile tree): relations must be
// byte-identical. This is the guard that keeps metric flushes, trace spans
// and profile bookkeeping off the semantic path.
TEST(DifferentialTest, InstrumentationOnAndOffAgreeByteForByte) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::TraceSink& sink = obs::TraceSink::Global();
  obs::TelemetryRecorder& telemetry = obs::TelemetryRecorder::Global();
  const bool sink_was_enabled = sink.enabled();
  const bool telemetry_was_enabled = telemetry.enabled();
  telemetry.Track("most_ftl_eval_total");
  int queries = 0;
  for (uint64_t seed : test::SuiteSeeds("DifferentialTest.Instrumentation",
                                        {1, 2, 3, 4, 5, 6, 42, 1997, 2026})) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    for (int world = 0; world < 4; ++world) {
      MostDatabase db;
      ASSERT_NO_FATAL_FAILURE(
          BuildGridWorld(&rng, &db, 2 + static_cast<int>(world % 3)));
      for (int round = 0; round < 6; ++round) {
        ++queries;
        FtlQuery query;
        query.retrieve = {"o", "n"};
        query.from = {{"M", "o"}, {"M", "n"}};
        query.where = RandomFormula(&rng, 2);
        Interval window(0, 30);

        registry.set_enabled(false);
        sink.set_enabled(false);
        telemetry.set_enabled(false);
        FtlEvaluator plain(db);
        auto baseline = plain.EvaluateQuery(query, window);
        ASSERT_TRUE(baseline.ok())
            << baseline.status() << "\nformula: " << query.where->ToString();

        registry.set_enabled(true);
        sink.set_enabled(true);
        // Telemetry on, sampling every evaluation round: the per-tick
        // recorder must also stay off the semantic path.
        telemetry.set_enabled(true);
        telemetry.OnTick(static_cast<Tick>(queries));
        obs::QueryProfile profile;
        FtlEvaluator::Options opts;
        opts.profile = &profile.root;
        FtlEvaluator instrumented(db, opts);
        auto traced = instrumented.EvaluateQuery(query, window);
        ASSERT_TRUE(traced.ok()) << traced.status();
        EXPECT_EQ(traced->vars, baseline->vars);
        EXPECT_EQ(traced->rows, baseline->rows)
            << "instrumentation changed the answer\nformula: "
            << query.where->ToString();
      }
    }
  }
  registry.set_enabled(true);
  sink.set_enabled(sink_was_enabled);
  telemetry.set_enabled(telemetry_was_enabled);
  if (!test::SeedOverridden()) {
    EXPECT_GE(queries, 200) << "instrumentation corpus shrank below spec";
  }
}

// Corpus 2: continuous fleet worlds from the workload generator. The naive
// oracle is skipped (grid-free geometry), but serial vs parallel must
// still be byte-identical, including across motion updates applied
// mid-stream.
TEST(DifferentialTest, ParallelMatchesSerialOnFleets) {
  for (uint64_t seed :
       test::SuiteSeeds("DifferentialTest.Fleets", {7, 11, 4099})) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    FleetGenerator::Options fopt;
    fopt.num_vehicles = 48;
    fopt.area = 400.0;
    fopt.change_probability = 0.01;
    fopt.seed = seed;
    FleetGenerator fleet(fopt);
    MostDatabase db;
    ASSERT_TRUE(fleet.Populate(&db, "V").ok());
    Rng rng(seed * 31 + 1);
    ASSERT_TRUE(db.DefineRegion("R1", RandomRegion(&rng, fopt.area, 0.2)).ok());
    ASSERT_TRUE(db.DefineRegion("R2", RandomRegion(&rng, fopt.area, 0.1)).ok());

    std::vector<MotionUpdate> updates = fleet.GenerateUpdates(64);
    size_t next_update = 0;

    for (Tick now = 0; now <= 48; now += 16) {
      db.clock().AdvanceTo(now);
      while (next_update < updates.size() && updates[next_update].at <= now) {
        if (updates[next_update].at == now) {
          ASSERT_TRUE(
              FleetGenerator::Apply(&db, "V", updates[next_update]).ok());
        }
        ++next_update;
      }

      FtlQuery query;
      query.retrieve = {"o", "n"};
      query.from = {{"V", "o"}, {"V", "n"}};
      query.where = FtlFormula::And(
          FtlFormula::Eventually(FtlFormula::Inside("o", "R1")),
          FtlFormula::Until(
              FtlFormula::Compare(FtlFormula::CmpOp::kGe,
                                  FtlTerm::Dist("o", "n"),
                                  FtlTerm::Literal(Value(5.0))),
              FtlFormula::Inside("n", "R2")));
      Interval window(now, now + 64);

      FtlEvaluator serial(db);
      auto serial_rel = serial.EvaluateQuery(query, window);
      ASSERT_TRUE(serial_rel.ok()) << serial_rel.status();

      FtlEvaluator::Options p4;
      p4.pool = Pool4();
      ExpectSameRelation(db, query, window, p4, *serial_rel, "fleet pool4");
    }
  }
}

// Applies a random batch of mutations to the grid world: motion / fuel
// updates to live objects, occasional deletions and creations — the update
// stream the delta path must coalesce and splice correctly.
void RandomMutations(Rng* rng, MostDatabase* db) {
  int count = static_cast<int>(rng->UniformInt(1, 2));
  for (int u = 0; u < count; ++u) {
    auto cls = db->GetClass("M");
    ASSERT_TRUE(cls.ok());
    std::vector<ObjectId> ids;
    for (const auto& [oid, obj] : (*cls)->objects()) ids.push_back(oid);
    if (ids.empty()) return;
    ObjectId target =
        ids[rng->UniformInt(0, static_cast<int64_t>(ids.size()) - 1)];
    switch (rng->UniformInt(0, 5)) {
      case 0:
        if (ids.size() > 2) {
          ASSERT_TRUE(db->DeleteObject("M", target).ok());
          break;
        }
        [[fallthrough]];
      case 1: {
        auto obj = db->CreateObject("M");
        ASSERT_TRUE(obj.ok());
        ObjectId nid = (*obj)->id();
        ASSERT_TRUE(db->SetMotion("M", nid,
                                  {Grid(rng, -20, 20), Grid(rng, -20, 20)},
                                  {Grid(rng, -2, 2), Grid(rng, -2, 2)})
                        .ok());
        ASSERT_TRUE(db->UpdateDynamic("M", nid, "FUEL", Grid(rng, 0, 100),
                                      TimeFunction::Linear(Grid(rng, -2, 2)))
                        .ok());
        break;
      }
      case 2:
        ASSERT_TRUE(db->UpdateDynamic("M", target, "FUEL", Grid(rng, 0, 100),
                                      TimeFunction::Linear(Grid(rng, -2, 2)))
                        .ok());
        break;
      default:
        ASSERT_TRUE(db->SetMotion("M", target,
                                  {Grid(rng, -20, 20), Grid(rng, -20, 20)},
                                  {Grid(rng, -2, 2), Grid(rng, -2, 2)})
                        .ok());
    }
  }
}

// Corpus 3: continuous-query maintenance. A query manager serves
// refreshes from the delta path through a randomized update schedule, and
// after every step its Answer(CQ) must be byte-identical to a fresh,
// unbudgeted evaluation over the manager's window, flattened the way the
// manager flattens its own answer: coalesced updates, deletions,
// creations, clock advances and window expiries included. The test tracks
// the window itself — the registration tick, re-anchored to now once now
// passes anchor + horizon. The manager must actually serve from the delta
// path (counters), otherwise this corpus silently degenerates into
// full-vs-fresh.
TEST(DifferentialTest, DeltaRefreshMatchesFullOnRandomizedUpdateSchedules) {
  // The worlds are a handful of objects, so any update exceeds a
  // realistic dirty fraction; lift the fallback so the delta path is
  // actually what gets differentially tested.
  test::ScopedGovernorLimits limits({.delta_max_dirty_fraction = 1.0});
  constexpr Tick kHorizon = 24;
  int schedules = 0;
  uint64_t delta_served = 0;
  for (uint64_t seed : test::SuiteSeeds("DifferentialTest.DeltaRefresh",
                                        {1, 2, 3, 5, 8, 13, 21, 34, 55, 89})) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed * 7919 + 3);
    for (int world = 0; world < 5; ++world) {
      MostDatabase db;
      ASSERT_NO_FATAL_FAILURE(BuildGridWorld(&rng, &db, 3 + world % 3));
      QueryManager delta_serial(&db, {.horizon = kHorizon});

      for (int q = 0; q < 4; ++q) {
        ++schedules;
        FtlQuery query;
        query.retrieve = {"o", "n"};
        query.from = {{"M", "o"}, {"M", "n"}};
        query.where = RandomFormula(&rng, 2);

        auto id_d = delta_serial.RegisterContinuous(query);
        ASSERT_TRUE(id_d.ok()) << id_d.status()
                               << "\nformula: " << query.where->ToString();
        Tick anchor = db.Now();

        for (int step = 0; step < 6; ++step) {
          ASSERT_NO_FATAL_FAILURE(RandomMutations(&rng, &db));
          // Mostly small advances (delta refreshes over the live window);
          // occasionally jump past expiry to exercise re-anchoring.
          Tick advance = rng.Bernoulli(0.15) ? 30 : rng.UniformInt(0, 3);
          db.clock().AdvanceTo(db.Now() + advance);
          if (db.Now() > anchor + kHorizon) anchor = db.Now();

          FtlEvaluator fresh(db);
          auto rel =
              fresh.EvaluateQuery(query, Interval(anchor, anchor + kHorizon));
          ASSERT_TRUE(rel.ok()) << rel.status()
                                << "\nformula: " << query.where->ToString();
          auto a_d = delta_serial.ContinuousAnswer(*id_d);
          ASSERT_TRUE(a_d.ok()) << a_d.status();
          ASSERT_EQ(*a_d, delta_serial.FlattenAnswer(query, *rel, false))
              << "delta diverged from a fresh evaluation at step " << step
              << "\nformula: " << query.where->ToString();
        }

        auto c_d = delta_serial.QueryRefreshCounters(*id_d);
        ASSERT_TRUE(c_d.ok());
        delta_served += c_d->delta_evaluations;
        ASSERT_TRUE(delta_serial.Cancel(*id_d).ok());
      }
    }
  }
  if (!test::SeedOverridden()) {
    EXPECT_GE(schedules, 200) << "delta differential corpus shrank below spec";
    // The point of the corpus is delta-vs-full; if the delta path stopped
    // being selected these bounds catch it.
    EXPECT_GE(delta_served, 200u);
  }
}

// ci.sh arms MOST_FAILPOINTS="ftl/delta/refresh=noop" before running the
// DeltaRefresh suite; the probe counts one hit per delta refresh. If the
// delta path silently stops being exercised (option plumbing broken,
// fallback always taken), the count stays zero and this fails the build
// loudly. Self-contained: drives its own minimal delta scenario.
TEST(DifferentialTest, DeltaRefreshEnvArmedProbeFires) {
  const char* env = std::getenv("MOST_FAILPOINTS");
  if (env == nullptr ||
      std::string(env).find("ftl/delta/refresh") == std::string::npos) {
    GTEST_SKIP() << "MOST_FAILPOINTS probe not armed (not the CI stage)";
  }
  auto& reg = FailpointRegistry::Instance();
  // Other fixtures may DisarmAll(); re-parse the environment to restore
  // the probe exactly as startup arming did.
  ASSERT_TRUE(reg.ArmFromEnv().ok());

  Rng rng(99);
  MostDatabase db;
  ASSERT_NO_FATAL_FAILURE(BuildGridWorld(&rng, &db, 3));
  test::ScopedGovernorLimits limits({.delta_max_dirty_fraction = 1.0});
  QueryManager qm(&db);
  FtlQuery query;
  query.retrieve = {"o"};
  query.from = {{"M", "o"}};
  query.where = FtlFormula::Inside("o", "R1");
  auto id = qm.RegisterContinuous(query);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(db.SetMotion("M", ObjectId(0), {1.0, 1.0}, {0.5, 0.0}).ok());
  ASSERT_TRUE(qm.ContinuousAnswer(*id).ok());

  auto counters = qm.QueryRefreshCounters(*id);
  ASSERT_TRUE(counters.ok());
  EXPECT_GE(counters->delta_evaluations, 1u)
      << "update-triggered refresh was not served by the delta path";
  EXPECT_GE(reg.triggered("ftl/delta/refresh"), 1u)
      << "environment-armed delta probe did not fire";
}

// Shard counts the sharded corpus sweeps. MOST_SHARDS pins the sweep to
// one count (the CI sharded stage runs the suite once per count under
// sanitizers instead of 4x in one process).
std::vector<size_t> ShardCounts() {
  if (const char* env = std::getenv("MOST_SHARDS")) {
    int n = std::atoi(env);
    if (n > 0) return {static_cast<size_t>(n)};
  }
  return {1, 2, 4, 8};
}

// Replays the engine's shard logs into a database rebuilt to the world's
// initial population; it must equal the engine's database object by object
// (positions and velocities — every dynamic attribute — statics and
// last_update).
void ExpectShardWalsReplayTo(const std::string& dir, size_t shards,
                             uint64_t world_seed,
                             const MostDatabase& engine_db) {
  MostDatabase replayed;
  {
    Rng wrng(world_seed);
    ASSERT_NO_FATAL_FAILURE(BuildGridWorld(&wrng, &replayed, 4));
  }
  auto report = ShardedEngine::ReplayShardWals(dir, shards, &replayed);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->recovery.dropped, 0u);
  const ObjectClass* want = *engine_db.GetClass("M");
  const ObjectClass* got = *replayed.GetClass("M");
  ASSERT_EQ(got->size(), want->size()) << "replayed object count";
  for (const auto& [id, obj] : want->objects()) {
    auto copy = got->Get(id);
    ASSERT_TRUE(copy.ok()) << "object " << id << " missing after replay";
    EXPECT_EQ((*copy)->dynamics(), obj.dynamics()) << "object " << id;
    EXPECT_EQ((*copy)->statics(), obj.statics()) << "object " << id;
    EXPECT_EQ((*copy)->last_update(), obj.last_update()) << "object " << id;
  }
}

// Corpus 4: scatter-gather sharding. A sharded engine (twin database, all
// updates routed through the per-shard handoff queues and drained in
// parallel) must produce gathered continuous answers byte-identical to an
// unsharded serial QueryManager at every shard count — across random
// two-variable formulas (including DIST atoms whose join partners hash to
// different shards) and one random single-variable formula per world,
// coalesced updates, creations, deletions and window expiries.
// Instantaneous scatter evaluation is differenced the same way, and at the
// end of every schedule the per-shard WALs must replay to the engine's
// database.
TEST(DifferentialTest, ShardedEngineMatchesUnshardedOracle) {
  int schedules = 0;
  uint64_t sharded_delta_served = 0;
  for (uint64_t seed : test::SuiteSeeds("DifferentialTest.Sharded",
                                        {1, 2, 3, 5, 42, 1997, 2026})) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    for (size_t shards : ShardCounts()) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      Rng rng(seed * 2654435761u + shards);
      for (int world = 0; world < 2; ++world) {
        // Twin worlds: two identically-seeded generator streams produce
        // identical objects (and identical ids — both databases hand out
        // the same id counter).
        const uint64_t world_seed = seed * 131 + static_cast<uint64_t>(world);
        MostDatabase oracle_db;
        MostDatabase engine_db;
        {
          Rng wrng(world_seed);
          ASSERT_NO_FATAL_FAILURE(BuildGridWorld(&wrng, &oracle_db, 4));
        }
        {
          Rng wrng(world_seed);
          ASSERT_NO_FATAL_FAILURE(BuildGridWorld(&wrng, &engine_db, 4));
        }

        test::ScopedGovernorLimits limits({.delta_max_dirty_fraction = 1.0});
        QueryManager::Options qm_opt;
        qm_opt.horizon = 24;
        QueryManager oracle(&oracle_db, qm_opt);

        ShardedEngine::Options eng_opt;
        eng_opt.shard_count = shards;
        eng_opt.query_options = qm_opt;
        eng_opt.wal_dir = ::testing::TempDir() + "/diff_shard_wal_" +
                          std::to_string(getpid()) + "_" +
                          std::to_string(world_seed) + "_" +
                          std::to_string(shards);
        std::filesystem::remove_all(eng_opt.wal_dir);
        ShardedEngine engine(&engine_db, eng_opt);

        // A single-variable query lives through both schedules below: a
        // shard's single-variable query binds only the objects it owns,
        // so creations and deletions must reach it through ownership.
        // Its formula comes from its own stream so the two-variable
        // corpus stays as drawn.
        Rng single_rng(world_seed * 7919 + 1);
        FtlQuery single;
        single.retrieve = {"o"};
        single.from = {{"M", "o"}};
        single.where = RandomFormula(&single_rng, 2, /*single_variable=*/true);
        auto single_oracle_id = oracle.RegisterContinuous(single);
        auto single_engine_id = engine.RegisterContinuous(single);
        ASSERT_TRUE(single_oracle_id.ok())
            << single_oracle_id.status()
            << "\nformula: " << single.where->ToString();
        ASSERT_TRUE(single_engine_id.ok()) << single_engine_id.status();

        for (int q = 0; q < 2; ++q) {
          ++schedules;
          FtlQuery query;
          query.retrieve = {"o", "n"};
          query.from = {{"M", "o"}, {"M", "n"}};
          query.where = RandomFormula(&rng, 2);

          auto oracle_id = oracle.RegisterContinuous(query);
          auto engine_id = engine.RegisterContinuous(query);
          ASSERT_TRUE(oracle_id.ok())
              << oracle_id.status()
              << "\nformula: " << query.where->ToString();
          ASSERT_TRUE(engine_id.ok()) << engine_id.status();

          for (int step = 0; step < 5; ++step) {
            // Mutations decided once, applied directly to the oracle and
            // enqueued to the engine.
            std::vector<ObjectId> live;
            auto cls = oracle_db.GetClass("M");
            ASSERT_TRUE(cls.ok());
            for (const auto& [id, obj] : (*cls)->objects()) {
              live.push_back(id);
            }
            int mutations = static_cast<int>(rng.UniformInt(1, 3));
            for (int m = 0; m < mutations && !live.empty(); ++m) {
              ObjectId target = live[static_cast<size_t>(
                  rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
              if (rng.Bernoulli(0.3)) {
                double fuel = Grid(&rng, 0, 100);
                TimeFunction fn = TimeFunction::Linear(Grid(&rng, -2, 2));
                ASSERT_TRUE(oracle_db
                                .UpdateDynamic("M", target, "FUEL", fuel, fn)
                                .ok());
                engine.EnqueueDynamic("M", target, "FUEL", fuel, fn);
              } else {
                Point2 pos{Grid(&rng, -20, 20), Grid(&rng, -20, 20)};
                Vec2 vel{Grid(&rng, -2, 2), Grid(&rng, -2, 2)};
                ASSERT_TRUE(oracle_db.SetMotion("M", target, pos, vel).ok());
                engine.EnqueueMotion("M", target, pos, vel);
              }
            }
            if (rng.Bernoulli(0.15) && live.size() > 2) {
              ObjectId victim = live[static_cast<size_t>(
                  rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
              ASSERT_TRUE(oracle_db.DeleteObject("M", victim).ok());
              ASSERT_TRUE(engine.DeleteObject("M", victim).ok());
            } else if (rng.Bernoulli(0.15)) {
              auto o1 = oracle_db.CreateObject("M");
              auto o2 = engine.CreateObject("M");
              ASSERT_TRUE(o1.ok() && o2.ok());
              ASSERT_EQ((*o1)->id(), (*o2)->id());
              Point2 pos{Grid(&rng, -20, 20), Grid(&rng, -20, 20)};
              Vec2 vel{Grid(&rng, -2, 2), Grid(&rng, -2, 2)};
              ASSERT_TRUE(
                  oracle_db.SetMotion("M", (*o1)->id(), pos, vel).ok());
              engine.EnqueueMotion("M", (*o2)->id(), pos, vel);
            }
            // Apply the engine's queued batch at the current tick (as the
            // oracle just did), then advance both clocks together.
            ASSERT_TRUE(engine.DrainAndRefresh().ok());
            Tick advance = rng.Bernoulli(0.15) ? 30 : rng.UniformInt(0, 3);
            ASSERT_TRUE(engine.Advance(advance).ok());
            oracle_db.clock().AdvanceTo(engine_db.Now());

            auto want = oracle.ContinuousAnswer(*oracle_id);
            auto got = engine.ContinuousAnswer(*engine_id);
            ASSERT_TRUE(want.ok())
                << want.status()
                << "\nformula: " << query.where->ToString();
            ASSERT_TRUE(got.ok()) << got.status();
            EXPECT_TRUE(got->complete());
            ASSERT_EQ(got->tuples, *want)
                << "sharded gather diverged from oracle at step " << step
                << " with " << shards << " shards\nformula: "
                << query.where->ToString();

            auto want_single = oracle.ContinuousAnswer(*single_oracle_id);
            auto got_single = engine.ContinuousAnswer(*single_engine_id);
            ASSERT_TRUE(want_single.ok()) << want_single.status();
            ASSERT_TRUE(got_single.ok()) << got_single.status();
            EXPECT_TRUE(got_single->complete());
            ASSERT_EQ(got_single->tuples, *want_single)
                << "single-variable gather diverged from oracle at step "
                << step << " with " << shards << " shards\nformula: "
                << single.where->ToString();
          }

          // Instantaneous scatter evaluation differenced on the final
          // state.
          auto want_rel = oracle.Evaluate(query);
          auto got_rel = engine.Evaluate(query);
          ASSERT_TRUE(want_rel.ok()) << want_rel.status();
          ASSERT_TRUE(got_rel.ok()) << got_rel.status();
          EXPECT_EQ(got_rel->vars, want_rel->vars);
          ASSERT_EQ(got_rel->rows, want_rel->rows)
              << "scatter Evaluate diverged with " << shards
              << " shards\nformula: " << query.where->ToString();

          ASSERT_TRUE(engine.Cancel(*engine_id).ok());
          ASSERT_TRUE(oracle.Cancel(*oracle_id).ok());
          ASSERT_NO_FATAL_FAILURE(ExpectShardWalsReplayTo(
              eng_opt.wal_dir, shards, world_seed, engine_db));
        }
        auto want_single = oracle.Evaluate(single);
        auto got_single = engine.Evaluate(single);
        ASSERT_TRUE(want_single.ok()) << want_single.status();
        ASSERT_TRUE(got_single.ok()) << got_single.status();
        ASSERT_EQ(got_single->rows, want_single->rows)
            << "single-variable scatter Evaluate diverged with " << shards
            << " shards\nformula: " << single.where->ToString();
        ASSERT_TRUE(engine.Cancel(*single_engine_id).ok());
        ASSERT_TRUE(oracle.Cancel(*single_oracle_id).ok());
        sharded_delta_served +=
            engine.TotalRefreshCounters().delta_evaluations;
        std::filesystem::remove_all(eng_opt.wal_dir);
      }
    }
  }
  if (!test::SeedOverridden() && ShardCounts().size() > 1) {
    EXPECT_GE(schedules, 100) << "sharded differential corpus shrank";
    // The partition-aware delta path must actually serve refreshes, or
    // the corpus degenerates into full-vs-full.
    EXPECT_GE(sharded_delta_served, 100u);
  }
}


// Corpus 5: the per-version evaluation context. Each batch of random
// queries is drawn from a small pool of subformulas, so queries repeat
// subformulas across and within themselves, and runs through one manager:
// registration (full evaluations), instantaneous Evaluate, and TickAll's
// delta and full refreshes all share the manager's context. Every answer
// must be byte-identical to a fresh private-context FtlEvaluator and to
// the naive oracle. Between checks the database changes by updates,
// creations and deletions, by a clock advance alone, and by a region
// redefinition alone: each must start a new context. The same schedule
// runs against the sharded engine (one context per shard) at every shard
// count (MOST_SHARDS pins one).

/// A random subformula over `pool` members, reusing them on purpose: a
/// member under an AND's second operand is requested restricted by the
/// first operand's bindings, which the context serves by filtering the
/// member's unrestricted relation when another query stored it.
FormulaPtr SharingFormula(Rng* rng, const std::vector<FormulaPtr>& pool) {
  auto pick = [&] {
    return pool[rng->UniformInt(0, static_cast<int64_t>(pool.size()) - 1)];
  };
  FormulaPtr a = pick();
  FormulaPtr b = pick();
  switch (rng->UniformInt(0, 6)) {
    case 0:
      return FtlFormula::And(a, FtlFormula::EventuallyWithin(
                                    rng->UniformInt(0, 12), b));
    case 1:
      return FtlFormula::Or(a, FtlFormula::Not(b));
    case 2:
      return FtlFormula::Until(a, b);
    case 3:
      return FtlFormula::AlwaysFor(rng->UniformInt(0, 8),
                                   FtlFormula::And(a, b));
    case 4:
      return FtlFormula::And(b, FtlFormula::And(a, b));
    case 5:
      return FtlFormula::And(a, b);
    default:
      return FtlFormula::EventuallyWithin(rng->UniformInt(0, 12), a);
  }
}

/// One manager under test: an unsharded QueryManager, or a sharded engine
/// whose shards each own a context. Updates go through the engine's queues
/// when there is one.
struct ContextHarness {
  ContextHarness(uint64_t world_seed, size_t shards, Tick horizon) {
    Rng wrng(world_seed);
    BuildGridWorld(&wrng, &db, 4);
    QueryManager::Options opt;
    opt.horizon = horizon;
    if (shards == 0) {
      qm = std::make_unique<QueryManager>(&db, opt);
    } else {
      ShardedEngine::Options eng;
      eng.shard_count = shards;
      eng.query_options = opt;
      engine = std::make_unique<ShardedEngine>(&db, eng);
    }
  }

  Result<uint64_t> Register(const FtlQuery& q) {
    return qm ? qm->RegisterContinuous(q) : engine->RegisterContinuous(q);
  }
  Status Cancel(uint64_t id) {
    return qm ? qm->Cancel(id) : engine->Cancel(id);
  }
  Result<std::vector<AnswerTuple>> Answer(uint64_t id) {
    if (qm) return qm->ContinuousAnswer(id);
    MOST_ASSIGN_OR_RETURN(ShardedEngine::ShardedAnswer a,
                          engine->ContinuousAnswer(id));
    if (!a.complete()) return Status::Internal("incomplete gather");
    return a.tuples;
  }
  Result<TemporalRelation> Evaluate(const FtlQuery& q) {
    return qm ? qm->Evaluate(q) : engine->Evaluate(q);
  }
  /// Applies pending updates (the engine drains its queues) and brings
  /// every continuous answer up to date.
  Status Refresh() { return qm ? qm->TickAll() : engine->DrainAndRefresh(); }
  Status AdvanceClock(Tick ticks) {
    if (qm) {
      db.clock().Advance(ticks);
      return qm->TickAll();
    }
    return engine->Advance(ticks);
  }
  void Move(ObjectId id, Point2 pos, Vec2 vel) {
    if (qm) {
      ASSERT_TRUE(db.SetMotion("M", id, pos, vel).ok());
    } else {
      engine->EnqueueMotion("M", id, pos, vel);
    }
  }
  void Fuel(ObjectId id, double value, TimeFunction fn) {
    if (qm) {
      ASSERT_TRUE(db.UpdateDynamic("M", id, "FUEL", value, fn).ok());
    } else {
      engine->EnqueueDynamic("M", id, "FUEL", value, fn);
    }
  }
  void Delete(ObjectId id) {
    ASSERT_TRUE((qm ? db.DeleteObject("M", id) : engine->DeleteObject("M", id))
                    .ok());
  }
  void Create(Rng* rng) {
    auto obj = qm ? db.CreateObject("M") : engine->CreateObject("M");
    ASSERT_TRUE(obj.ok());
    Move((*obj)->id(), {Grid(rng, -20, 20), Grid(rng, -20, 20)},
         {Grid(rng, -2, 2), Grid(rng, -2, 2)});
  }

  MostDatabase db;
  std::unique_ptr<QueryManager> qm;
  std::unique_ptr<ShardedEngine> engine;
};

/// Counts the EXPLAIN nodes of a profile carrying `note`.
size_t CountNotes(const obs::ProfileNode& node, const std::string& note) {
  size_t n = 0;
  for (const auto& [name, value] : node.notes) n += name == note ? 1 : 0;
  for (const auto& child : node.children) n += CountNotes(*child, note);
  return n;
}

TEST(DifferentialTest, SharedContextMatchesFreshEvaluation) {
  constexpr Tick kHorizon = 24;
  obs::Counter* shared_total = obs::MetricsRegistry::Global().GetCounter(
      "most_ftl_shared_subformulas_total",
      "Subformula relations served by the per-version evaluation context, "
      "whole or filtered");
  const uint64_t shared_before = shared_total->value();
  std::vector<size_t> configs = {0};  // 0 = the unsharded manager.
  for (size_t shards : ShardCounts()) configs.push_back(shards);
  int checks = 0;
  size_t filtered_nodes = 0;
  for (bool governed : {false, true}) {
    // Worlds are a handful of objects: lift the dirty-fraction fallback so
    // TickAll serves updates by the delta path too. The governed pass arms
    // a refresh budget that never trips, so every evaluation works in a
    // generation of its own instead of the manager's context; its answers
    // must be the same.
    test::ScopedGovernorLimits limits(
        {.refresh_budget = {.max_rows = governed ? size_t{1} << 20 : 0},
         .delta_max_dirty_fraction = 1.0});
    SCOPED_TRACE(governed ? "governed" : "ungoverned");
    for (uint64_t seed : test::SuiteSeeds("DifferentialTest.SharedContext",
                                          {1, 2, 3, 5})) {
      SCOPED_TRACE("seed=" + std::to_string(seed));
      for (size_t shards : configs) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        Rng rng(seed * 6364136223846793005u + shards);
        ContextHarness h(seed * 977 + 5, shards, kHorizon);
        QueryManager::Options flat_opt;
        flat_opt.listen = false;
        QueryManager flattener(&h.db, flat_opt);

        struct Live {
          FtlQuery query;
          uint64_t id;
          Tick anchor;
        };
        auto check_all = [&](std::vector<Live>* live, const char* phase) {
          const Tick now = h.db.Now();
          for (Live& l : *live) {
            SCOPED_TRACE(std::string(phase) +
                         " formula: " + l.query.where->ToString());
            ++checks;
            const Interval inst(now, now + kHorizon);
            auto got = h.Evaluate(l.query);
            auto fresh = FtlEvaluator(h.db).EvaluateQuery(l.query, inst);
            auto naive = NaiveFtlEvaluator(h.db).EvaluateQuery(l.query, inst);
            ASSERT_TRUE(got.ok()) << got.status();
            ASSERT_TRUE(fresh.ok()) << fresh.status();
            ASSERT_TRUE(naive.ok()) << naive.status();
            ASSERT_EQ(got->vars, fresh->vars);
            ASSERT_EQ(got->rows, fresh->rows)
                << "Evaluate diverged from a fresh evaluation\ngot: "
                << got->ToString() << "\nwant: " << fresh->ToString();
            ASSERT_EQ(got->rows, naive->rows)
                << "Evaluate diverged from the oracle\ngot: " << got->ToString()
                << "\nnaive: " << naive->ToString();
            if (now > l.anchor + kHorizon) l.anchor = now;
            const Interval window(l.anchor, l.anchor + kHorizon);
            auto answer = h.Answer(l.id);
            auto cfresh = FtlEvaluator(h.db).EvaluateQuery(l.query, window);
            auto cnaive =
                NaiveFtlEvaluator(h.db).EvaluateQuery(l.query, window);
            ASSERT_TRUE(answer.ok()) << answer.status();
            ASSERT_TRUE(cfresh.ok() && cnaive.ok());
            ASSERT_EQ(*answer, flattener.FlattenAnswer(l.query, *cfresh, false))
                << "continuous answer diverged from a fresh evaluation";
            ASSERT_EQ(*answer, flattener.FlattenAnswer(l.query, *cnaive, false))
                << "continuous answer diverged from the oracle";
          }
        };

        for (int batch = 0; batch < 2; ++batch) {
          std::vector<FormulaPtr> pool;
          for (int i = 0; i < 3; ++i) pool.push_back(RandomFormula(&rng, 1));
          std::vector<Live> live;
          for (int q = 0; q < 4; ++q) {
            FtlQuery query;
            query.retrieve = {"o", "n"};
            query.from = {{"M", "o"}, {"M", "n"}};
            query.where = SharingFormula(&rng, pool);
            auto id = h.Register(query);
            ASSERT_TRUE(id.ok()) << id.status()
                                 << "\nformula: " << query.where->ToString();
            live.push_back({query, *id, h.db.Now()});
            if (h.qm) {
              auto profile = h.qm->Profile(*id);
              ASSERT_TRUE(profile.ok());
              filtered_nodes += CountNotes((*profile)->root, "filtered");
            }
          }
          ASSERT_NO_FATAL_FAILURE(check_all(&live, "registered"));
          for (int step = 0; step < 2; ++step) {
            // Updates: motions, fuel, a creation or a deletion.
            std::vector<ObjectId> ids;
            for (const auto& [id, obj] : (*h.db.GetClass("M"))->objects()) {
              ids.push_back(id);
            }
            const int n = static_cast<int>(rng.UniformInt(1, 3));
            for (int u = 0; u < n; ++u) {
              ObjectId target = ids[static_cast<size_t>(
                  rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))];
              if (rng.Bernoulli(0.3)) {
                ASSERT_NO_FATAL_FAILURE(
                    h.Fuel(target, Grid(&rng, 0, 100),
                           TimeFunction::Linear(Grid(&rng, -2, 2))));
              } else {
                ASSERT_NO_FATAL_FAILURE(
                    h.Move(target, {Grid(&rng, -20, 20), Grid(&rng, -20, 20)},
                           {Grid(&rng, -2, 2), Grid(&rng, -2, 2)}));
              }
            }
            if (rng.Bernoulli(0.2) && ids.size() > 3) {
              ASSERT_NO_FATAL_FAILURE(h.Delete(ids[static_cast<size_t>(
                  rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))]));
            } else if (rng.Bernoulli(0.2)) {
              ASSERT_NO_FATAL_FAILURE(h.Create(&rng));
            }
            ASSERT_TRUE(h.Refresh().ok());
            ASSERT_NO_FATAL_FAILURE(check_all(&live, "updated"));
            // The clock alone: no update, a new context all the same. A
            // jump past the horizon sends TickAll down the full path.
            ASSERT_TRUE(
                h.AdvanceClock(rng.Bernoulli(0.25) ? kHorizon + 6
                                                   : rng.UniformInt(1, 3))
                    .ok());
            ASSERT_NO_FATAL_FAILURE(check_all(&live, "clock"));
          }
          // A region redefinition alone (grid-aligned, so the oracle stays
          // exact). It notifies no listener; the catalog change alone must
          // bring the registered answers onto the new polygon.
          ASSERT_TRUE(h.db.DefineRegion(
                            "R1", Polygon::Rectangle(
                                      {Grid(&rng, -12, 0), Grid(&rng, -12, 0)},
                                      {Grid(&rng, 2, 12), Grid(&rng, 2, 12)}))
                          .ok());
          ASSERT_TRUE(h.Refresh().ok());
          ASSERT_NO_FATAL_FAILURE(check_all(&live, "region"));
          for (const Live& l : live) ASSERT_TRUE(h.Cancel(l.id).ok());
        }
      }
    }
  }
  if (!test::SeedOverridden()) {
    // 4 seeds x 2 batches x 6 checkpoints x 4 queries per configuration,
    // ungoverned and governed.
    EXPECT_GE(checks, 2 * 192 * static_cast<int>(configs.size()))
        << "shared-context corpus shrank";
    // The corpus must actually exercise sharing, filtered hits included.
    EXPECT_GT(shared_total->value(), shared_before);
    EXPECT_GT(filtered_nodes, 0u);
  }
}

}  // namespace
}  // namespace most
