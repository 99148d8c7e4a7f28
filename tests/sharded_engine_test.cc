// Unit tests for the shard-per-core engine (docs/sharding.md): routing,
// scatter-gather byte-identity against an unsharded oracle, cross-shard
// edge cases (DIST atoms straddling shards, empty shards), resharding,
// degradation, per-shard WAL replay and batched appends, and producers
// on several threads.

#include "core/sharded_engine.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "core/shard_router.h"
#include "ftl/ast.h"
#include "ftl/eval.h"
#include "ftl/parser.h"
#include "ftl/query_manager.h"
#include "obs/governor.h"
#include "obs/telemetry.h"
#include "scoped_governor_limits.h"
#include "sim_world.h"
#include "workload/fleet.h"

namespace most {
namespace {

FleetGenerator::Options SmallFleet(size_t vehicles, uint64_t seed) {
  FleetGenerator::Options opt;
  opt.num_vehicles = vehicles;
  opt.area = 100.0;
  opt.change_probability = 0.2;
  opt.seed = seed;
  return opt;
}

FtlQuery InsideQuery() {
  FtlQuery q;
  q.retrieve = {"o"};
  q.from = {{"V", "o"}};
  q.where = FtlFormula::Eventually(FtlFormula::Inside("o", "R1"));
  return q;
}

FtlQuery DistQuery(double radius) {
  FtlQuery q;
  q.retrieve = {"o", "n"};
  q.from = {{"V", "o"}, {"V", "n"}};
  q.where = FtlFormula::Compare(FtlFormula::CmpOp::kLt,
                                FtlTerm::Dist("o", "n"),
                                FtlTerm::Literal(Value(radius)));
  return q;
}

// Builds identical fleet worlds in `oracle_db` and `engine_db` and defines
// the region both query forms reference.
void BuildTwinWorlds(const FleetGenerator::Options& fopt,
                     MostDatabase* oracle_db, MostDatabase* engine_db) {
  for (MostDatabase* db : {oracle_db, engine_db}) {
    FleetGenerator fleet(fopt);
    ASSERT_TRUE(fleet.Populate(db, "V").ok());
    ASSERT_TRUE(
        db->DefineRegion("R1", Polygon::Rectangle({10, 10}, {60, 60})).ok());
  }
}

// Drives the same update schedule into the oracle database (direct
// application) and the engine (enqueue + Advance), comparing the gathered
// continuous answer against the oracle's after every tick.
void RunScheduleAndCompare(const FleetGenerator::Options& fopt,
                           size_t shard_count, Tick ticks,
                           const FtlQuery& query) {
  MostDatabase oracle_db;
  MostDatabase engine_db;
  ASSERT_NO_FATAL_FAILURE(BuildTwinWorlds(fopt, &oracle_db, &engine_db));

  test::ScopedGovernorLimits limits({.delta_max_dirty_fraction = 1.0});
  QueryManager::Options qm_opt;
  qm_opt.horizon = 32;
  QueryManager oracle(&oracle_db, qm_opt);

  ShardedEngine::Options eng_opt;
  eng_opt.shard_count = shard_count;
  eng_opt.query_options = qm_opt;
  ShardedEngine engine(&engine_db, eng_opt);
  ASSERT_EQ(engine.shard_count(), shard_count);

  auto oracle_id = oracle.RegisterContinuous(query);
  auto engine_id = engine.RegisterContinuous(query);
  ASSERT_TRUE(oracle_id.ok()) << oracle_id.status();
  ASSERT_TRUE(engine_id.ok()) << engine_id.status();

  FleetGenerator fleet(fopt);
  std::vector<MotionUpdate> updates = fleet.GenerateUpdates(ticks);
  size_t next = 0;
  for (Tick t = 1; t <= ticks; ++t) {
    // Enqueue this tick's updates, then advance: the engine applies them
    // at tick t, exactly when the oracle does.
    size_t batch_begin = next;
    while (next < updates.size() && updates[next].at == t) {
      const MotionUpdate& u = updates[next];
      engine.EnqueueMotion("V", u.id, u.position, u.velocity);
      ++next;
    }
    ASSERT_TRUE(engine.Advance(1).ok());
    oracle_db.clock().AdvanceTo(t);
    for (size_t i = batch_begin; i < next; ++i) {
      ASSERT_TRUE(
          FleetGenerator::Apply(&oracle_db, "V", updates[i]).ok());
    }

    auto want = oracle.ContinuousAnswer(*oracle_id);
    auto got = engine.ContinuousAnswer(*engine_id);
    ASSERT_TRUE(want.ok()) << want.status();
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_TRUE(got->complete());
    ASSERT_EQ(got->tuples, *want)
        << "sharded answer diverged from oracle at tick " << t << " with "
        << shard_count << " shards";
  }
}

TEST(ShardedEngineTest, ShardRouterIsStableAndCoversAllShards) {
  ShardRouter router(8);
  std::set<size_t> hit;
  for (ObjectId id = 0; id < 1000; ++id) {
    size_t k = router.ShardOf(id);
    EXPECT_LT(k, 8u);
    EXPECT_EQ(k, router.ShardOf(id));  // Pure function of (id, count).
    hit.insert(k);
  }
  EXPECT_EQ(hit.size(), 8u) << "hash assignment left shards empty";
}

TEST(ShardedEngineTest, SingleShardMatchesUnshardedByteForByte) {
  RunScheduleAndCompare(SmallFleet(12, 7), /*shard_count=*/1, /*ticks=*/10,
                        InsideQuery());
}

TEST(ShardedEngineTest, FourShardsMatchOracleOnSingleVariableQuery) {
  RunScheduleAndCompare(SmallFleet(16, 11), /*shard_count=*/4, /*ticks=*/10,
                        InsideQuery());
}

// A DIST atom joins objects that hash to different shards: every shard
// evaluates (o restricted to its partition, n unrestricted), so cross-
// shard pairs must survive the gather.
TEST(ShardedEngineTest, DistAtomStraddlingShardsMatchesOracle) {
  RunScheduleAndCompare(SmallFleet(10, 13), /*shard_count=*/4, /*ticks=*/8,
                        DistQuery(25.0));
}

// More shards than objects: some shards own nothing and contribute empty
// relations; the gather must still be byte-identical and complete.
TEST(ShardedEngineTest, EmptyShardsGatherCleanly) {
  RunScheduleAndCompare(SmallFleet(2, 17), /*shard_count=*/8, /*ticks=*/6,
                        DistQuery(40.0));
}

TEST(ShardedEngineTest, StatsPartitionTheObjectDomain) {
  MostDatabase db;
  FleetGenerator fleet(SmallFleet(40, 3));
  ASSERT_TRUE(fleet.Populate(&db, "V").ok());
  ShardedEngine::Options opt;
  opt.shard_count = 4;
  ShardedEngine engine(&db, opt);
  size_t total = 0;
  for (const ShardedEngine::ShardStats& s : engine.Stats()) {
    total += s.objects;
    EXPECT_EQ(s.queue_depth, 0u);
  }
  EXPECT_EQ(total, 40u);
}

// Reshard re-partitions ownership and re-anchors query windows: the
// contract is equality with a *fresh* oracle registered at the same tick,
// not with the pre-reshard state (docs/sharding.md).
TEST(ShardedEngineTest, ReshardMatchesFreshOracleAndMovesOwnership) {
  FleetGenerator::Options fopt = SmallFleet(20, 23);
  MostDatabase oracle_db;
  MostDatabase engine_db;
  ASSERT_NO_FATAL_FAILURE(BuildTwinWorlds(fopt, &oracle_db, &engine_db));

  QueryManager::Options qm_opt;
  qm_opt.horizon = 32;
  ShardedEngine::Options eng_opt;
  eng_opt.shard_count = 2;
  eng_opt.query_options = qm_opt;
  ShardedEngine engine(&engine_db, eng_opt);
  auto engine_id = engine.RegisterContinuous(InsideQuery());
  ASSERT_TRUE(engine_id.ok());

  // Some ownership must actually move between 2 and 5 shards.
  std::vector<size_t> owner_before;
  for (ObjectId id = 0; id < 20; ++id) {
    owner_before.push_back(engine.ShardOf(id));
  }
  ASSERT_TRUE(engine.Advance(3).ok());
  oracle_db.clock().AdvanceTo(3);

  ASSERT_TRUE(engine.Reshard(5).ok());
  EXPECT_EQ(engine.shard_count(), 5u);
  bool moved = false;
  size_t total = 0;
  for (const ShardedEngine::ShardStats& s : engine.Stats()) total += s.objects;
  EXPECT_EQ(total, 20u) << "reshard lost or duplicated objects";
  for (ObjectId id = 0; id < 20; ++id) {
    if (engine.ShardOf(id) != owner_before[id]) moved = true;
  }
  EXPECT_TRUE(moved) << "rehash moved no object between shards";

  // The engine id survives the reshard; answers equal a fresh oracle.
  QueryManager fresh_oracle(&oracle_db, qm_opt);
  auto oracle_id = fresh_oracle.RegisterContinuous(InsideQuery());
  ASSERT_TRUE(oracle_id.ok());
  auto want = fresh_oracle.ContinuousAnswer(*oracle_id);
  auto got = engine.ContinuousAnswer(*engine_id);
  ASSERT_TRUE(want.ok()) << want.status();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_TRUE(got->complete());
  EXPECT_EQ(got->tuples, *want);
}

// A re-registration that fails during Reshard drops only that query:
// the engine cancels its partial registrations, re-registers every other
// live query, and returns the failure naming the dropped query's id.
TEST(ShardedEngineTest, FailedReregistrationDropsOnlyItsQuery) {
  MostDatabase db;
  FleetGenerator fleet(SmallFleet(12, 37));
  ASSERT_TRUE(fleet.Populate(&db, "V").ok());
  ASSERT_TRUE(
      db.DefineRegion("R1", Polygon::Rectangle({10, 10}, {60, 60})).ok());
  ShardedEngine::Options opt;
  opt.shard_count = 2;
  opt.query_options.horizon = 32;
  ShardedEngine engine(&db, opt);
  auto first = engine.RegisterContinuous(InsideQuery());
  auto second = engine.RegisterContinuous(DistQuery(30.0));
  ASSERT_TRUE(first.ok() && second.ok());

  // The checkpoint site fires only under a budget gate; one that never
  // trips keeps every evaluation otherwise unbudgeted.
  test::ScopedGovernorLimits gate({.refresh_budget = {.max_rows = 1u << 20}});
  auto& reg = FailpointRegistry::Instance();
  ASSERT_TRUE(reg.Arm("ftl/eval/checkpoint", "error*1").ok());
  Status s = engine.Reshard(3);
  reg.Disarm("ftl/eval/checkpoint");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("sharded query " + std::to_string(*first)),
            std::string::npos)
      << s;
  EXPECT_EQ(engine.ContinuousAnswer(*first).status().code(),
            StatusCode::kNotFound);
  auto survivor = engine.ContinuousAnswer(*second);
  ASSERT_TRUE(survivor.ok()) << survivor.status();
  EXPECT_TRUE(survivor->complete());
  // Two shards registered the dropped query before it was cancelled; the
  // survivor evaluated once per shard; no orphan refreshes on the tick.
  ASSERT_TRUE(engine.Advance(1).ok());
  EXPECT_EQ(engine.TotalRefreshCounters().full_evaluations, 2u + 3u);
}

// Engine-mediated creations and deletions keep partitions, indexes and
// answers consistent.
TEST(ShardedEngineTest, StructuralOpsReassignOwnershipAndDirtyQueries) {
  MostDatabase oracle_db;
  MostDatabase engine_db;
  ASSERT_NO_FATAL_FAILURE(
      BuildTwinWorlds(SmallFleet(6, 29), &oracle_db, &engine_db));
  QueryManager::Options qm_opt;
  qm_opt.horizon = 32;
  QueryManager oracle(&oracle_db, qm_opt);
  ShardedEngine::Options eng_opt;
  eng_opt.shard_count = 4;
  eng_opt.query_options = qm_opt;
  ShardedEngine engine(&engine_db, eng_opt);

  auto oid = oracle.RegisterContinuous(DistQuery(30.0));
  auto eid = engine.RegisterContinuous(DistQuery(30.0));
  ASSERT_TRUE(oid.ok() && eid.ok());

  // Create one object on both sides (same id: both databases hand out the
  // same counter), give it motion, then delete another.
  auto oracle_obj = oracle_db.CreateObject("V");
  auto engine_obj = engine.CreateObject("V");
  ASSERT_TRUE(oracle_obj.ok() && engine_obj.ok());
  ASSERT_EQ((*oracle_obj)->id(), (*engine_obj)->id());
  ObjectId new_id = (*engine_obj)->id();
  ASSERT_TRUE(oracle_db.SetMotion("V", new_id, {20, 20}, {1, 0}).ok());
  engine.EnqueueMotion("V", new_id, {20, 20}, {1, 0});
  ASSERT_TRUE(engine.DrainAndRefresh().ok());

  ASSERT_TRUE(oracle_db.DeleteObject("V", 0).ok());
  ASSERT_TRUE(engine.DeleteObject("V", 0).ok());

  ASSERT_TRUE(engine.Advance(2).ok());
  oracle_db.clock().AdvanceTo(2);

  auto want = oracle.ContinuousAnswer(*oid);
  auto got = engine.ContinuousAnswer(*eid);
  ASSERT_TRUE(want.ok()) << want.status();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->tuples, *want);

  size_t total = 0;
  for (const ShardedEngine::ShardStats& s : engine.Stats()) total += s.objects;
  EXPECT_EQ(total, 6u);  // 6 initial + 1 created - 1 deleted.
}

// Deleting an object through the engine evicts its row from the owner
// shard's single-variable query. The owner swaps the object out of its
// partition before dirty-marking it, so the mark must come from ownership
// (the owner retires the id as its own), not from the new partition.
TEST(ShardedEngineTest, DeleteEvictsRowFromOwnerSingleVariableQuery) {
  MostDatabase oracle_db;
  MostDatabase engine_db;
  ASSERT_NO_FATAL_FAILURE(
      BuildTwinWorlds(SmallFleet(16, 11), &oracle_db, &engine_db));
  QueryManager::Options qm_opt;
  qm_opt.horizon = 32;
  QueryManager oracle(&oracle_db, qm_opt);
  ShardedEngine::Options eng_opt;
  eng_opt.shard_count = 4;
  eng_opt.query_options = qm_opt;
  ShardedEngine engine(&engine_db, eng_opt);

  auto oid = oracle.RegisterContinuous(InsideQuery());
  auto eid = engine.RegisterContinuous(InsideQuery());
  ASSERT_TRUE(oid.ok() && eid.ok());
  auto before = oracle.ContinuousAnswer(*oid);
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_FALSE(before->empty());
  const ObjectId victim = before->front().binding[0];

  ASSERT_TRUE(oracle_db.DeleteObject("V", victim).ok());
  ASSERT_TRUE(engine.DeleteObject("V", victim).ok());
  ASSERT_TRUE(engine.Advance(1).ok());
  oracle_db.clock().AdvanceTo(1);

  auto want = oracle.ContinuousAnswer(*oid);
  auto got = engine.ContinuousAnswer(*eid);
  ASSERT_TRUE(want.ok()) << want.status();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->tuples, *want);
  for (const AnswerTuple& t : got->tuples) {
    EXPECT_NE(t.binding[0], victim) << "deleted object still answered";
  }
}

// A shard that blows its refresh budget degrades instead of blocking the
// gather: the merged answer lists it in missing_shards and every tuple is
// demoted to kStale (completeness marking, docs/sharding.md).
TEST(ShardedEngineTest, DegradedShardPoisonsGatherAsStale) {
  MostDatabase db;
  FleetGenerator fleet(SmallFleet(12, 31));
  ASSERT_TRUE(fleet.Populate(&db, "V").ok());
  ASSERT_TRUE(
      db.DefineRegion("R1", Polygon::Rectangle({0, 0}, {100, 100})).ok());

  ShardedEngine::Options opt;
  opt.shard_count = 4;
  opt.query_options.horizon = 32;
  // One arena byte: every shard's refresh trips the memory gate at its
  // first budget checkpoint. (max_rows would need a join to materialize a
  // row-counted relation; the arena knob sheds any evaluation shape.)
  ResourceGovernor::Limits limits;
  limits.refresh_budget.max_arena_bytes = 1;
  test::ScopedGovernorLimits guard(limits);
  ShardedEngine engine(&db, opt);
  auto id = engine.RegisterContinuous(InsideQuery());
  ASSERT_TRUE(id.ok());

  auto got = engine.ContinuousAnswer(*id);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_FALSE(got->complete());
  EXPECT_FALSE(got->missing_shards.empty());
  for (const AnswerTuple& t : got->tuples) {
    EXPECT_EQ(t.confidence, Confidence::kStale);
  }
}

// A projection that drops the partitioned first variable: cars owned by
// different shards pass one stationary taxi at different ticks, so several
// shards hold a row for the same taxi and the gather must union (and
// coalesce) their tick sets, for instantaneous and continuous answers.
TEST(ShardedEngineTest, GatherUnionsRowsThatProjectionCollapses) {
  const std::vector<double> starts = {-30, -40, -100, -131, -200, -260};
  MostDatabase oracle_db;
  MostDatabase engine_db;
  std::vector<ObjectId> cars;
  for (MostDatabase* db : {&oracle_db, &engine_db}) {
    cars.clear();
    ASSERT_TRUE(db->CreateClass("TAXIS", {}, /*spatial=*/true).ok());
    ASSERT_TRUE(db->CreateClass("CARS", {}, /*spatial=*/true).ok());
    auto taxi = db->CreateObject("TAXIS");
    ASSERT_TRUE(taxi.ok());
    ASSERT_TRUE(db->SetMotion("TAXIS", (*taxi)->id(), {0, 0}, {0, 0}).ok());
    for (double x : starts) {
      auto car = db->CreateObject("CARS");
      ASSERT_TRUE(car.ok());
      ASSERT_TRUE(db->SetMotion("CARS", (*car)->id(), {x, 0}, {1, 0}).ok());
      cars.push_back((*car)->id());
    }
  }
  std::set<size_t> owners;
  for (ObjectId car : cars) owners.insert(ShardRouter(4).ShardOf(car));
  ASSERT_GE(owners.size(), 2u) << "every car hashed to one shard";

  QueryManager::Options qm_opt;
  qm_opt.horizon = 300;
  QueryManager oracle(&oracle_db, qm_opt);
  ShardedEngine::Options eng_opt;
  eng_opt.shard_count = 4;
  eng_opt.query_options = qm_opt;
  ShardedEngine engine(&engine_db, eng_opt);
  auto q = ParseQuery("RETRIEVE n FROM CARS o, TAXIS n WHERE DIST(o, n) <= 15");
  ASSERT_TRUE(q.ok()) << q.status();
  auto oid = oracle.RegisterContinuous(*q);
  auto eid = engine.RegisterContinuous(*q);
  ASSERT_TRUE(oid.ok() && eid.ok());

  for (Tick t = 0; t <= 1; ++t) {
    if (t == 1) {  // One car turns back; its shard refreshes alone.
      engine.EnqueueMotion("CARS", cars[2], {-99, 0}, {-1, 0});
      ASSERT_TRUE(engine.Advance(1).ok());
      oracle_db.clock().AdvanceTo(1);
      ASSERT_TRUE(
          oracle_db.SetMotion("CARS", cars[2], {-99, 0}, {-1, 0}).ok());
    }
    auto want_rel = oracle.Evaluate(*q);
    auto got_rel = engine.Evaluate(*q);
    ASSERT_TRUE(want_rel.ok() && got_rel.ok());
    ASSERT_EQ(want_rel->rows.size(), 1u);
    EXPECT_EQ(got_rel->vars, want_rel->vars);
    EXPECT_EQ(got_rel->rows, want_rel->rows) << "at tick " << t;
    auto want = oracle.ContinuousAnswer(*oid);
    auto got = engine.ContinuousAnswer(*eid);
    ASSERT_TRUE(want.ok() && got.ok());
    EXPECT_TRUE(got->complete());
    EXPECT_EQ(got->tuples, *want) << "at tick " << t;
  }
}

// Durability: every drained update lands in its owner shard's WAL; replay
// into a fresh database reconstructs the exact object state.
TEST(ShardedEngineTest, ShardWalRoundTripReplaysExactState) {
  const std::string dir = ::testing::TempDir() + "/shard_wal_roundtrip";
  // Shard WALs open in append mode (a reopened engine must not truncate
  // its own history), so a rerun against a dirty dir would replay twice.
  std::filesystem::remove_all(dir);
  const size_t kShards = 4;
  MostDatabase db;
  ASSERT_TRUE(db.CreateClass("V", {}, /*spatial=*/true).ok());

  ShardedEngine::Options opt;
  opt.shard_count = kShards;
  opt.wal_dir = dir;
  ShardedEngine engine(&db, opt);

  // All structure and updates flow through the engine so the logs carry
  // the full history.
  std::vector<ObjectId> ids;
  for (int i = 0; i < 10; ++i) {
    auto obj = engine.CreateObject("V");
    ASSERT_TRUE(obj.ok());
    ids.push_back((*obj)->id());
  }
  for (Tick t = 1; t <= 5; ++t) {
    for (size_t i = 0; i < ids.size(); ++i) {
      engine.EnqueueMotion("V", ids[i],
                           {static_cast<double>(i) + t, 2.0 * t},
                           {0.5 * static_cast<double>(i % 3), 1.0});
    }
    ASSERT_TRUE(engine.Advance(1).ok());
  }
  ASSERT_TRUE(engine.DeleteObject("V", ids.back()).ok());

  MostDatabase replayed;
  ASSERT_TRUE(replayed.CreateClass("V", {}, /*spatial=*/true).ok());
  auto report = ShardedEngine::ReplayShardWals(dir, kShards, &replayed);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->applied, 50u);  // 10 creates + 50 motions + 1 delete.
  EXPECT_EQ(replayed.Now(), db.Now());

  auto orig_cls = db.GetClass("V");
  auto repl_cls = replayed.GetClass("V");
  ASSERT_TRUE(orig_cls.ok() && repl_cls.ok());
  ASSERT_EQ((*repl_cls)->size(), (*orig_cls)->size());
  for (const auto& [id, obj] : (*orig_cls)->objects()) {
    auto copy = (*repl_cls)->Get(id);
    ASSERT_TRUE(copy.ok());
    // Bit-exact reconstruction: the WAL stores the update's doubles and
    // the replay re-applies them at the same tick.
    Point2 want = obj.PositionAt(db.Now());
    Point2 got = (*copy)->PositionAt(db.Now());
    EXPECT_EQ(want.x, got.x);
    EXPECT_EQ(want.y, got.y);
    EXPECT_EQ(obj.last_update(), (*copy)->last_update());
  }
}

// A shard WAL that cannot be opened must not leave the engine silently
// running without durability: every tick reports the failure until a
// Reshard opens all the logs.
TEST(ShardedEngineTest, UnopenableShardWalFailsEveryTickUntilReshard) {
  const std::string blocker = ::testing::TempDir() + "/shard_wal_blocker_" +
                              std::to_string(getpid());
  std::filesystem::remove_all(blocker);
  { std::ofstream(blocker) << "not a directory"; }
  MostDatabase db;
  FleetGenerator fleet(SmallFleet(8, 23));
  ASSERT_TRUE(fleet.Populate(&db, "V").ok());

  ShardedEngine::Options opt;
  opt.shard_count = 2;
  opt.wal_dir = blocker + "/wal";  // A path under a regular file.
  ShardedEngine engine(&db, opt);
  engine.EnqueueMotion("V", 0, {1, 1}, {0, 0});
  EXPECT_FALSE(engine.Advance(1).ok());
  EXPECT_FALSE(engine.Advance(1).ok()) << "the failure must not be one-shot";
  EXPECT_EQ(db.Now(), 2);

  // The operator clears the path; a rebuild opens every log.
  std::filesystem::remove(blocker);
  EXPECT_TRUE(engine.Reshard(2).ok());
  engine.EnqueueMotion("V", 0, {2, 2}, {0, 0});
  EXPECT_TRUE(engine.Advance(1).ok());
  EXPECT_TRUE(std::filesystem::exists(opt.wal_dir));
  std::filesystem::remove_all(blocker);
}

// The telemetry watchdog arms from inside one shard's TickAll while the
// other shards' TickAll calls are reading the governor's limits — the
// only copy of them — on pool threads. Under the armed queue limit every
// gather is either complete and byte-identical to a fresh unsharded
// evaluation, or incomplete with every tuple kStale: never a kCertain
// tuple the oracle does not have. Disarming brings the next tick back to
// the oracle byte for byte. ci.sh runs this binary under TSan.
TEST(ShardedEngineTest, WatchdogArmingDuringParallelTickDegradesSoundly) {
  constexpr size_t kVehicles = 16;
  constexpr Tick kHorizon = 64;  // No window expiry inside the run.
  MostDatabase db;
  FleetGenerator fleet(SmallFleet(kVehicles, 41));
  ASSERT_TRUE(fleet.Populate(&db, "V").ok());
  ASSERT_TRUE(
      db.DefineRegion("R1", Polygon::Rectangle({10, 10}, {60, 60})).ok());
  test::ScopedGovernorLimits limits({});

  obs::TelemetryRecorder& rec = obs::TelemetryRecorder::Global();
  rec.Clear();
  rec.set_enabled(true);
  obs::TelemetryRecorder::WatchdogOptions wd;
  wd.window = 2;
  wd.arm_mean_seconds = 1e-12;  // Any refresh at all arms it.
  wd.armed_queue_limit = 1;
  wd.min_hold_ticks = 1000;  // Armed until DisarmWatchdog.
  rec.ConfigureWatchdog(wd);

  ShardedEngine::Options opt;
  opt.shard_count = 4;
  opt.query_options.horizon = kHorizon;
  ShardedEngine engine(&db, opt);
  const std::vector<FtlQuery> queries = {InsideQuery(), DistQuery(25.0)};
  std::vector<ShardedEngine::QueryId> ids;
  for (const FtlQuery& q : queries) {
    auto id = engine.RegisterContinuous(q);
    ASSERT_TRUE(id.ok()) << id.status();
    ids.push_back(*id);
  }
  test::AnswerWindow window(kHorizon, db.Now());
  QueryManager::Options flat_opt;
  flat_opt.listen = false;
  QueryManager flattener(&db, flat_opt);

  // Moves every vehicle, so both queries are stale in every shard and a
  // queue limit of 1 sheds one of them per shard per tick.
  auto tick = [&](Tick t) {
    for (ObjectId id = 0; id < kVehicles; ++id) {
      engine.EnqueueMotion("V", id,
                           {static_cast<double>((id * 7 + t * 3) % 80),
                            static_cast<double>((id * 11 + t) % 80)},
                           {1.0, -0.5});
    }
    return engine.Advance(1);
  };

  const uint64_t sheds_before = ResourceGovernor::Global().degrades_total();
  for (Tick t = 1; t <= 6; ++t) {
    SCOPED_TRACE("tick " + std::to_string(t));
    ASSERT_TRUE(tick(t).ok());
    for (size_t i = 0; i < queries.size(); ++i) {
      auto got = engine.ContinuousAnswer(ids[i]);
      ASSERT_TRUE(got.ok()) << got.status();
      const std::vector<AnswerTuple> want =
          window.Answer(db, queries[i], flattener);
      if (got->complete()) {
        EXPECT_EQ(got->tuples, want);
        continue;
      }
      for (const AnswerTuple& tuple : got->tuples) {
        EXPECT_EQ(tuple.confidence, Confidence::kStale)
            << "an incomplete gather must not vouch for any tuple";
      }
    }
  }
  ASSERT_TRUE(rec.watchdog_armed());
  EXPECT_EQ(ResourceGovernor::Global().limits().refresh_queue_limit, 1u);
  EXPECT_GT(ResourceGovernor::Global().degrades_total(), sheds_before)
      << "the armed queue limit never shed a refresh";

  rec.DisarmWatchdog();
  EXPECT_EQ(ResourceGovernor::Global().limits().refresh_queue_limit, 0u);
  ASSERT_TRUE(tick(7).ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto got = engine.ContinuousAnswer(ids[i]);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_TRUE(got->complete());
    EXPECT_EQ(got->tuples, window.Answer(db, queries[i], flattener));
  }
  rec.set_enabled(false);
  rec.Clear();
}

// The data plane from several threads at once: four producers enqueue
// motion, dynamic and static updates for objects of two classes (each
// object's updates come from one producer, so their order is that
// producer's), and after every Advance the database equals the same
// updates applied serially. ci.sh runs this binary under TSan.
TEST(ShardedEngineTest, ConcurrentProducersEnqueueAcrossClasses) {
  constexpr int kProducers = 4;
  constexpr int kObjects = 32;
  const std::vector<std::string> classes = {"CARS", "TAXIS"};
  // Object i is of class (i / kProducers) % 2, so every producer (which
  // owns the ids congruent to it mod kProducers) writes both classes.
  auto class_of = [&](ObjectId id) -> const std::string& {
    return classes[(id / kProducers) % 2];
  };
  auto build = [&](MostDatabase* db) {
    for (const std::string& name : classes) {
      ASSERT_TRUE(db->CreateClass(name,
                                  {{"FUEL", true, ValueType::kNull},
                                   {"PLATE", false, ValueType::kString}},
                                  /*spatial=*/true)
                      .ok());
    }
    for (ObjectId id = 0; id < kObjects; ++id) {
      ASSERT_TRUE(db->RestoreObject(class_of(id), id).ok());
    }
  };
  MostDatabase db;
  MostDatabase serial;
  ASSERT_NO_FATAL_FAILURE(build(&db));
  ASSERT_NO_FATAL_FAILURE(build(&serial));
  ShardedEngine::Options opt;
  opt.shard_count = 4;
  ShardedEngine engine(&db, opt);

  struct Op {
    int kind;  // 0 motion, 1 dynamic, 2 static.
    ObjectId id;
    double a, b, c, d;
  };
  for (int round = 0; round < 5; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::vector<std::vector<Op>> scripts(kProducers);
    Rng rng(1000 + static_cast<uint64_t>(round));
    for (int p = 0; p < kProducers; ++p) {
      for (int n = 0; n < 300; ++n) {
        Op op;
        op.kind = static_cast<int>(rng.UniformInt(0, 2));
        op.id = static_cast<ObjectId>(
            p + kProducers * rng.UniformInt(0, kObjects / kProducers - 1));
        op.a = rng.UniformDouble(-100, 100);
        op.b = rng.UniformDouble(-100, 100);
        op.c = rng.UniformDouble(-3, 3);
        op.d = rng.UniformDouble(-3, 3);
        scripts[p].push_back(op);
      }
    }
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (const Op& op : scripts[p]) {
          switch (op.kind) {
            case 0:
              engine.EnqueueMotion(class_of(op.id), op.id, {op.a, op.b},
                                   {op.c, op.d});
              break;
            case 1:
              engine.EnqueueDynamic(class_of(op.id), op.id, "FUEL", op.a,
                                    TimeFunction::Linear(op.c));
              break;
            default:
              engine.EnqueueStatic(class_of(op.id), op.id, "PLATE",
                                   Value(std::to_string(op.b)));
          }
        }
      });
    }
    for (std::thread& t : producers) t.join();
    ASSERT_TRUE(engine.Advance(1).ok());

    serial.clock().Advance(1);
    for (const std::vector<Op>& script : scripts) {
      for (const Op& op : script) {
        Status st =
            op.kind == 0
                ? serial.SetMotion(class_of(op.id), op.id, {op.a, op.b},
                                   {op.c, op.d})
            : op.kind == 1
                ? serial.UpdateDynamic(class_of(op.id), op.id, "FUEL", op.a,
                                       TimeFunction::Linear(op.c))
                : serial.UpdateStatic(class_of(op.id), op.id, "PLATE",
                                      Value(std::to_string(op.b)));
        ASSERT_TRUE(st.ok()) << st;
      }
    }
    EXPECT_EQ(db.update_count(), serial.update_count());
    for (const std::string& name : classes) {
      const ObjectClass* got = *db.GetClass(name);
      const ObjectClass* want = *serial.GetClass(name);
      ASSERT_EQ(got->size(), want->size());
      for (const auto& [id, obj] : want->objects()) {
        const MostObject* copy = *got->Get(id);
        EXPECT_EQ(copy->dynamics(), obj.dynamics()) << "object " << id;
        EXPECT_EQ(copy->statics(), obj.statics()) << "object " << id;
        EXPECT_EQ(copy->last_update(), obj.last_update()) << "object " << id;
      }
    }
  }
}

// A drain's WAL records go to the shard log as one batch. When that append
// fails (torn write, write error, ENOSPC, failed flush), the Advance
// returns the failure, the failed shard's log loses that whole drain — no
// fragment of it, and the next drain's batch is not glued onto one — and
// every other drain is in the log whole, so the logs replay with nothing
// dropped.
TEST(ShardedEngineTest, FailedDrainAppendLosesExactlyThatBatch) {
  FailpointRegistry& reg = FailpointRegistry::Instance();
  const std::vector<std::pair<std::string, std::string>> faults = {
      {"wal/append/write", "truncate*1"},
      {"wal/append/write", "error*1"},
      {"wal/append/enospc", "error*1"},
      {"wal/append/flush", "error*1"}};
  for (const auto& [site, spec] : faults) {
    SCOPED_TRACE(site + "=" + spec);
    const std::string dir = ::testing::TempDir() + "/shard_wal_batch_fault_" +
                            std::to_string(getpid());
    std::filesystem::remove_all(dir);
    MostDatabase db;
    ASSERT_TRUE(db.CreateClass("V", {}, /*spatial=*/true).ok());
    ShardedEngine::Options opt;
    opt.shard_count = 2;
    opt.wal_dir = dir;
    ShardedEngine engine(&db, opt);
    std::vector<ObjectId> ids;
    std::set<size_t> owners;
    for (int i = 0; i < 8; ++i) {
      auto obj = engine.CreateObject("V");
      ASSERT_TRUE(obj.ok());
      ids.push_back((*obj)->id());
      owners.insert(engine.ShardOf(ids.back()));
    }
    ASSERT_EQ(owners.size(), 2u) << "both shards must log every drain";

    // batches[round][shard]: the motion records that round's drain logs.
    std::vector<std::vector<std::vector<std::string>>> batches;
    auto round = [&](int r) {
      std::vector<std::vector<std::string>> batch(2);
      const int64_t tick = db.Now() + 1;
      for (ObjectId id : ids) {
        const Point2 p{r + 0.1 * static_cast<double>(id), -r / 3.0};
        const Vec2 v{0.5, r * 0.25};
        engine.EnqueueMotion("V", id, p, v);
        WalRecord rec;
        rec.kind = WalRecord::Kind::kUpdate;
        rec.table = "V";
        rec.rid = id;
        rec.row = {Value(kWalMotionTag), Value(tick), Value(p.x),
                   Value(p.y),           Value(v.x),  Value(v.y)};
        batch[engine.ShardOf(id)].push_back(EncodeWalRecord(rec));
      }
      batches.push_back(std::move(batch));
      return engine.Advance(1);
    };
    ASSERT_TRUE(round(0).ok());
    ASSERT_TRUE(reg.Arm(site, spec).ok());
    const Status failed = round(1);
    reg.Disarm(site);
    EXPECT_FALSE(failed.ok());
    EXPECT_NE(failed.message().find("failpoint " + site), std::string::npos)
        << failed;
    ASSERT_TRUE(round(2).ok());

    size_t lost = 0;
    for (size_t k = 0; k < 2; ++k) {
      RecoveryReport report;
      auto records = RecoverWal(ShardWal::PathFor(dir, k), &report);
      ASSERT_TRUE(records.ok()) << records.status();
      EXPECT_EQ(report.dropped, 0u) << "shard " << k;
      std::vector<std::string> motions;
      for (const WalRecord& r : *records) {
        if (r.row[0].string_value() == kWalMotionTag) {
          motions.push_back(EncodeWalRecord(r));
        }
      }
      std::vector<std::string> without = batches[0][k];
      without.insert(without.end(), batches[2][k].begin(),
                     batches[2][k].end());
      std::vector<std::string> all = batches[0][k];
      for (int r : {1, 2}) {
        all.insert(all.end(), batches[r][k].begin(), batches[r][k].end());
      }
      if (motions == without) {
        ++lost;
      } else {
        EXPECT_EQ(motions, all) << "shard " << k;
      }
    }
    EXPECT_EQ(lost, 1u) << "exactly the shard whose append failed loses it";

    MostDatabase replayed;
    ASSERT_TRUE(replayed.CreateClass("V", {}, /*spatial=*/true).ok());
    auto report = ShardedEngine::ReplayShardWals(dir, 2, &replayed);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->recovery.dropped, 0u);
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace most
