// Differential suite for the FTL evaluation engine and the continuous
// query machinery built on it.
//
// One generator and one driver (tests/sim_world.h) serve every TEST: a
// seeded world (geometry on a 0.25 grid, so the naive per-state oracle
// computes predicate flips exactly like the interval solver; off the grid
// the serial evaluator is the oracle) with a schedule of motion and fuel
// updates, creations, deletions, region redefinitions, clock-only rounds,
// jumps past the horizon and query registrations, long enough for the
// long-lived queries' window to slide three times. RunSchedule runs it
// through cells of a configuration matrix — an unsharded QueryManager and
// ShardedEngines beside it; delta or forced full refreshes; ungoverned or
// under a budget that never trips; observability on or off; the fresh
// evaluator serial or on a pool — and checks every live query after every
// round: Evaluate against a fresh evaluator and the oracle, the continuous
// answer against a fresh evaluation over its window, the shard gather
// against the unsharded manager, and §2.3: the continuous answer at now
// equals the instantaneous answer at now, which equals the oracle's.
//
// Each TEST below runs one slice of the matrix and keeps its corpus floor.
// While continuous queries are evaluated over a finite window, a
// continuous answer is a truncated-history answer in the last FutureDepth
// ticks of its window (docs/incremental_eval.md, "Known deviation from
// §2.3"); those ticks are counted per cell and printed, and a difference
// anywhere else fails.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "ftl/query_manager.h"
#include "obs/metrics.h"
#include "scoped_governor_limits.h"
#include "sim_world.h"
#include "test_seed.h"

namespace most {
namespace {

using test::RunSlice;
using test::SimConfig;
using test::SimReport;

/// Shard counts the engine cells sweep. MOST_SHARDS pins one count (the CI
/// sanitizer stages run one count per process).
std::vector<size_t> ShardCounts() {
  if (const char* env = std::getenv("MOST_SHARDS")) {
    int n = std::atoi(env);
    if (n > 0) return {static_cast<size_t>(n)};
  }
  return {1, 2, 4, 8};
}

// The fresh evaluator's serial path and its pool at two thread counts,
// against the naive oracle and the manager (> 200 random queries).
TEST(DifferentialTest, SerialNaiveAndParallelAgreeOnGridWorlds) {
  const std::vector<SimReport> reports =
      RunSlice("DifferentialTest.GridWorlds",
               {1, 2, 3, 4, 5, 6, 42, 1997, 2026},
               {.objects = 3, .churn = 0.9},
               {{.pool = 0}, {.pool = 2}, {.pool = 4}});
  if (!test::SeedOverridden() && !HasFatalFailure()) {
    for (const SimReport& r : reports) {
      EXPECT_GE(r.queries, 200u) << "differential corpus shrank below spec";
    }
  }
}

// Instrumentation must be invisible to answers: the same corpus with the
// observability layer fully off (registry kill switch) and fully on
// (registry, trace sink, telemetry, a profile tree on the fresh
// evaluator).
TEST(DifferentialTest, InstrumentationOnAndOffAgreeByteForByte) {
  const std::vector<SimReport> reports =
      RunSlice("DifferentialTest.Instrumentation",
               {1, 2, 3, 4, 5, 6, 42, 1997, 2026},
               {.objects = 3, .churn = 0.9},
               {{.observed = false}, {.observed = true}});
  if (!test::SeedOverridden() && !HasFatalFailure()) {
    for (const SimReport& r : reports) {
      EXPECT_GE(r.queries, 200u) << "instrumentation corpus shrank below spec";
    }
  }
}

// The 4-worker pool against the serial evaluator, byte for byte, on
// fleets with continuous coordinates (off the grid the serial evaluator
// is the oracle): eight objects, so 64 bindings per two-variable query
// to partition.
TEST(DifferentialTest, ParallelMatchesSerialOnFleets) {
  RunSlice("DifferentialTest.Fleets", {7, 11, 4099},
           {.objects = 8, .grid = false}, {{.pool = 4}});
}

// Delta refreshes against forced full ones through the same schedules,
// both against a fresh evaluation over the query's window. The delta cell
// must actually be served by the delta path, and the full cell never.
TEST(DifferentialTest, DeltaRefreshMatchesFullOnRandomizedUpdateSchedules) {
  const std::vector<SimReport> reports = RunSlice(
      "DifferentialTest.DeltaRefresh", {1, 2, 3, 5, 8, 13, 21, 34, 55, 89},
      {.churn = 0.9}, {{.full = false}, {.full = true}});
  if (HasFatalFailure()) return;
  EXPECT_EQ(reports[1].delta_refreshes, 0u) << "forced-full cell took deltas";
  if (!test::SeedOverridden()) {
    for (const SimReport& r : reports) {
      EXPECT_GE(r.queries, 200u)
          << "delta differential corpus shrank below spec";
    }
    EXPECT_GE(reports[0].delta_refreshes, 200u);
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
  ASSERT_NO_FATAL_FAILURE(test::BuildWorld(&rng, &db, 3));
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

// Scatter-gather sharding at every shard count: the engine (its updates
// routed through the per-shard handoff queues and drained in parallel, its
// shards logging to per-shard WALs that must replay to its database after
// every schedule) against an unsharded manager over a twin database.
TEST(DifferentialTest, ShardedEngineMatchesUnshardedOracle) {
  std::vector<SimConfig> cells;
  for (size_t shards : ShardCounts()) cells.push_back({.shards = shards});
  const std::vector<SimReport> reports =
      RunSlice("DifferentialTest.Sharded", {1, 2, 3, 5, 42, 1997, 2026},
               {}, cells);
  if (!test::SeedOverridden() && ShardCounts().size() > 1 &&
      !HasFatalFailure()) {
    size_t queries = 0;
    uint64_t delta_served = 0;
    for (const SimReport& r : reports) {
      queries += r.queries;
      delta_served += r.delta_refreshes;
    }
    EXPECT_GE(queries, 100u) << "sharded differential corpus shrank";
    // The partition-aware delta path must actually serve refreshes, or
    // the corpus degenerates into full-vs-full.
    EXPECT_GE(delta_served, 100u);
  }
}

// The sharded sweep with a projecting long-lived slot, RETRIEVE n FROM M
// o, M n (SimSpec::projecting): every refresh installs the projection of
// the maintained relation, and the gather unions a binding of n that
// several shards' cars produce. The manager cell counts the checks at
// which projection collapsed rows.
TEST(DifferentialTest, ShardedEngineProjectingSlotMatchesUnshardedOracle) {
  std::vector<SimConfig> cells = {{.shards = 0}};
  for (size_t shards : ShardCounts()) cells.push_back({.shards = shards});
  const std::vector<SimReport> reports = RunSlice(
      "DifferentialTest.ShardedProjecting", {1, 2, 3, 5, 42, 1997},
      {.objects = 5, .long_lived = 2, .projecting = true}, cells);
  if (!test::SeedOverridden() && !HasFatalFailure()) {
    EXPECT_GE(reports[0].collapsed, 100u) << "projecting corpus shrank";
    EXPECT_GE(reports[0].delta_refreshes, 100u);
  }
}

// The per-version evaluation context: live queries repeat subformulas of
// a small pool, through one manager and through the engine (one context
// per shard), ungoverned and under a budget that never trips (so each
// evaluation works in a generation of its own). The shared-subformula
// counter is read, so the cells run observed.
TEST(DifferentialTest, SharedContextMatchesFreshEvaluation) {
  obs::Counter* shared_total = obs::MetricsRegistry::Global().GetCounter(
      "most_ftl_shared_subformulas_total",
      "Subformula relations served by the per-version evaluation context, "
      "whole or filtered");
  const uint64_t shared_before = shared_total->value();
  std::vector<size_t> configs = {0};  // 0 = the unsharded manager.
  for (size_t shards : ShardCounts()) configs.push_back(shards);
  std::vector<SimConfig> cells;
  for (bool governed : {false, true}) {
    for (size_t shards : configs) {
      cells.push_back(
          {.shards = shards, .governed = governed, .observed = true});
    }
  }
  const std::vector<SimReport> reports =
      RunSlice("DifferentialTest.SharedContext", {1, 2, 3, 5},
               {.objects = 3, .churn = 0.15, .sharing = true}, cells);
  if (!test::SeedOverridden() && !HasFatalFailure()) {
    size_t filtered = 0;
    for (const SimReport& r : reports) {
      // 2 x 192 checks per configuration, ungoverned and governed.
      EXPECT_GE(r.checks, 192u) << "shared-context corpus shrank";
      filtered += r.filtered_nodes;
    }
    // The corpus must actually exercise sharing, filtered hits included.
    EXPECT_GT(shared_total->value(), shared_before);
    EXPECT_GT(filtered, 0u);
  }
}

}  // namespace
}  // namespace most
