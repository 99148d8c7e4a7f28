// Overload-torture harness (docs/robustness.md): drive the engine with
// randomized update storms under deliberately tiny resource budgets and
// armed failpoints, and verify graceful degradation against an
// unconstrained oracle:
//
//   * soundness — a query whose refresh was shed serves its previous
//     answer with every tuple tagged kStale (excluded from the must
//     answer); a query that is not degraded answers byte-identically to
//     the oracle. Emitted bindings never stray outside what the oracle
//     has ever emitted — degradation may lose freshness, never invent
//     tuples;
//   * recovery — when the pressure lifts (governor limits cleared, quiet
//     ticks past the cooldown), every query converges back to the
//     oracle's exact answer;
//   * storage pressure — an armed wal/append/enospc failpoint degrades
//     the database to read-only-in-effect (writes fail and roll back,
//     reads keep working, the governor's sticky flag goes up) until a
//     checkpoint succeeds again through the capped retry backoff;
//   * bounded channels — a lossy storm against a capped reliable endpoint
//     never exceeds the unacked cap, delivers every payload at most
//     once, and keeps working after dead-peer eviction.
//
// A summary test fails loudly if the storms never actually shed anything
// (a harness that exercises no pressure would pass vacuously), and ci.sh
// arms a MOST_FAILPOINTS probe through this binary (ASan) to prove the
// env plumbing reaches the overload loop.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "metrics_dump_listener.h"

#include "common/failpoint.h"
#include "common/rng.h"
#include "distributed/network.h"
#include "distributed/reliable_channel.h"
#include "ftl/parser.h"
#include "ftl/query_manager.h"
#include "obs/governor.h"
#include "storage/durable_database.h"
#include "test_seed.h"

namespace most {
namespace {

constexpr size_t kCars = 12;
constexpr int kStormRounds = 40;

// Pressure actually observed across all torture seeds; the summary test
// at the bottom fails loudly if the whole suite ran pressure-free.
uint64_t g_query_sheds = 0;
uint64_t g_channel_sheds = 0;

class OverloadTortureTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FailpointRegistry::Instance().DisarmAll();
    // Leave no limits or sticky health state behind for other suites in
    // this binary.
    ResourceGovernor::Global().set_limits({});
    ResourceGovernor::Global().ResetStateForTest();
  }
};

FtlQuery MustParse(const std::string& s) {
  auto q = ParseQuery(s);
  EXPECT_TRUE(q.ok()) << q.status();
  return *q;
}

/// A world both managers share: one database, kCars cars with randomized
/// motion, one region. The governed and oracle managers both listen to
/// its updates.
struct QueryWorld {
  MostDatabase db;
  std::vector<ObjectId> cars;

  explicit QueryWorld(Rng* rng) {
    EXPECT_TRUE(db.CreateClass("CARS", {{"PRICE", false, ValueType::kDouble}},
                               /*spatial=*/true)
                    .ok());
    EXPECT_TRUE(
        db.DefineRegion("P", Polygon::Rectangle({0, 0}, {60, 60})).ok());
    for (size_t i = 0; i < kCars; ++i) {
      auto obj = db.CreateObject("CARS");
      EXPECT_TRUE(obj.ok());
      if (!obj.ok()) continue;
      cars.push_back((*obj)->id());
      Jolt(rng, cars.back());
    }
  }

  void Jolt(Rng* rng, ObjectId id) {
    Point2 pos{rng->UniformDouble(-40, 100), rng->UniformDouble(-40, 100)};
    Vec2 vel{rng->UniformDouble(-2, 2), rng->UniformDouble(-2, 2)};
    EXPECT_TRUE(db.SetMotion("CARS", id, pos, vel).ok());
  }
};

std::string Key(const std::vector<ObjectId>& binding) {
  std::string out;
  for (ObjectId id : binding) out += std::to_string(id) + ",";
  return out;
}

// The central differential check: the same queries over the same world in
// a governed manager (tiny budgets through the governor + its own queue
// and cooldown knobs) and an oracle manager that opts out of the governor
// with explicitly enormous budgets.
TEST_F(OverloadTortureTest, GovernedStormDegradesSoundlyAndRecovers) {
  const std::vector<uint64_t> seeds =
      test::SuiteSeeds("Overload.Storm", {1997, 42, 20260809});
  const std::vector<std::string> query_texts = {
      "RETRIEVE o FROM CARS o WHERE INSIDE(o, P)",
      "RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 50 INSIDE(o, P)",
      // The join is the budget-buster: kCars^2 candidate rows trip the
      // governor's max_rows while the single-variable queries fit.
      "RETRIEVE o, n FROM CARS o, CARS n WHERE DIST(o, n) <= 25",
  };

  for (uint64_t seed : seeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    QueryWorld world(&rng);

    // Storm-phase pressure comes from the governor so it can be lifted
    // later without touching the managers.
    ResourceGovernor::Global().ResetStateForTest();
    ResourceGovernor::Limits limits;
    limits.refresh_budget.max_rows = 64;  // < kCars^2, > kCars.
    ResourceGovernor::Global().set_limits(limits);

    QueryManager::Options governed_opts;
    governed_opts.horizon = 4096;  // No window expiry inside the run.
    governed_opts.refresh_queue_limit = 2;
    governed_opts.degrade_cooldown_ticks = 3;
    QueryManager governed(&world.db, governed_opts);

    QueryManager::Options oracle_opts;
    oracle_opts.horizon = 4096;
    // Fully-specified huge budget: skips the governor fallback entirely,
    // so the oracle stays unconstrained while the governor is armed.
    oracle_opts.refresh_budget = {uint64_t{1} << 60, size_t{1} << 50,
                                  size_t{1} << 50};
    QueryManager oracle(&world.db, oracle_opts);

    std::vector<QueryManager::QueryId> gq, oq;
    for (const std::string& text : query_texts) {
      FtlQuery q = MustParse(text);
      auto g = governed.RegisterContinuous(q);
      auto o = oracle.RegisterContinuous(q);
      ASSERT_TRUE(g.ok() && o.ok());
      gq.push_back(*g);
      oq.push_back(*o);
    }

    // Every binding the oracle has ever emitted, per query: the governed
    // manager's (possibly stale) tuples must never leave this set.
    std::vector<std::set<std::string>> oracle_seen(query_texts.size());

    auto check_round = [&]() {
      for (size_t i = 0; i < gq.size(); ++i) {
        auto oans = oracle.ContinuousAnswer(oq[i]);
        ASSERT_TRUE(oans.ok()) << oans.status();
        for (const AnswerTuple& t : *oans) {
          oracle_seen[i].insert(Key(t.binding));
        }
        auto info = governed.QueryDegradeInfo(gq[i]);
        ASSERT_TRUE(info.ok()) << info.status();
        auto gans = governed.ContinuousAnswer(gq[i]);
        ASSERT_TRUE(gans.ok()) << gans.status();
        // ContinuousAnswer may itself have refreshed (and shed); re-read
        // the degrade state it left behind.
        info = governed.QueryDegradeInfo(gq[i]);
        ASSERT_TRUE(info.ok());
        if (info->reason == DegradeReason::kNone) {
          EXPECT_EQ(*gans, *oans)
              << "non-degraded answer diverged from the oracle (query "
              << query_texts[i] << ")";
        } else {
          EXPECT_FALSE(info->detail.empty());
          EXPECT_GE(info->at, 0);
          for (const AnswerTuple& t : *gans) {
            EXPECT_EQ(t.confidence, Confidence::kStale)
                << "degraded answers must not vouch for any tuple";
            EXPECT_TRUE(oracle_seen[i].count(Key(t.binding)))
                << "degraded answer invented binding " << Key(t.binding);
          }
          // The must-answer refuses degraded tuples; the may-answer
          // carries them.
          auto must = governed.CurrentAnswer(gq[i]);
          ASSERT_TRUE(must.ok());
          EXPECT_TRUE(must->empty());
        }
      }
    };

    for (int round = 0; round < kStormRounds; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      const int updates = static_cast<int>(rng.UniformInt(1, 4));
      for (int u = 0; u < updates; ++u) {
        world.Jolt(&rng,
                   world.cars[static_cast<size_t>(
                       rng.UniformInt(0, static_cast<int64_t>(kCars) - 1))]);
      }
      world.db.clock().Advance(rng.UniformInt(1, 3));
      ASSERT_TRUE(oracle.TickAll().ok());
      ASSERT_TRUE(governed.TickAll().ok());
      check_round();
    }

    // The storm must have actually shed something for this seed.
    uint64_t sheds = 0;
    for (QueryManager::QueryId id : gq) {
      sheds += governed.QueryDegradeInfo(id)->shed_refreshes;
    }
    EXPECT_GT(sheds, 0u) << "storm ran pressure-free: harness is a no-op";
    g_query_sheds += sheds;

    // Lift the pressure: clear the governor and let quiet ticks drain the
    // cooldowns and the refresh queue. Every query must converge back to
    // the oracle's exact answer.
    ResourceGovernor::Global().set_limits({});
    bool converged = false;
    for (int t = 0; t < 32 && !converged; ++t) {
      world.db.clock().Advance(1);
      ASSERT_TRUE(oracle.TickAll().ok());
      ASSERT_TRUE(governed.TickAll().ok());
      converged = true;
      for (QueryManager::QueryId id : gq) {
        if (governed.QueryDegradeInfo(id)->reason != DegradeReason::kNone) {
          converged = false;
        }
      }
    }
    ASSERT_TRUE(converged) << "queries still degraded after pressure lifted";
    for (size_t i = 0; i < gq.size(); ++i) {
      auto gans = governed.ContinuousAnswer(gq[i]);
      auto oans = oracle.ContinuousAnswer(oq[i]);
      ASSERT_TRUE(gans.ok() && oans.ok());
      EXPECT_EQ(*gans, *oans)
          << "post-recovery answer diverged (query " << query_texts[i] << ")";
    }
  }
}

// An armed evaluator-checkpoint failpoint is a *genuine* error, not a
// budget exhaustion: it must surface to the caller (not be silently
// absorbed as a shed) and stop mattering the moment it is disarmed. The
// site only fires while a budget gate is active, so the unbudgeted oracle
// path never pays for it.
TEST_F(OverloadTortureTest, EvalCheckpointFailpointSurfacesAndRecovers) {
  Rng rng(7);
  QueryWorld world(&rng);
  QueryManager::Options opts;
  opts.horizon = 1024;
  opts.refresh_budget.max_rows = 1u << 20;  // Gate active, never trips.
  QueryManager qm(&world.db, opts);
  auto id = qm.RegisterContinuous(
      MustParse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(qm.ContinuousAnswer(*id).ok());

  ASSERT_TRUE(
      FailpointRegistry::Instance().Arm("ftl/eval/checkpoint", "error").ok());
  world.Jolt(&rng, world.cars[0]);
  world.db.clock().Advance(1);
  EXPECT_FALSE(qm.TickAll().ok()) << "injected eval fault must surface";
  EXPECT_GT(FailpointRegistry::Instance().triggered("ftl/eval/checkpoint"),
            0u);

  FailpointRegistry::Instance().Disarm("ftl/eval/checkpoint");
  world.db.clock().Advance(1);
  EXPECT_TRUE(qm.TickAll().ok());
  auto answer = qm.ContinuousAnswer(*id);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(qm.QueryDegradeInfo(*id)->reason, DegradeReason::kNone);
}

TEST_F(OverloadTortureTest, WalEnospcDegradesStorageUntilCheckpointHeals) {
  const std::string path = ::testing::TempDir() + "/overload_enospc_" +
                           std::to_string(getpid()) + ".log";
  std::remove(path.c_str());
  ResourceGovernor& gov = ResourceGovernor::Global();
  gov.ResetStateForTest();

  DurableDatabase db;
  ASSERT_TRUE(db.Open(path).ok());
  ASSERT_TRUE(db.CreateTable("T", Schema({{"v", ValueType::kInt}})).ok());
  for (int64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(db.Insert("T", {Value(i)}).ok());
  }
  auto live_rows = [&]() {
    size_t n = 0;
    auto table = db.GetTable("T");
    EXPECT_TRUE(table.ok());
    if (!table.ok()) return n;
    (*table)->Scan([&](RowId, const Row&) { ++n; });
    return n;
  };
  ASSERT_EQ(live_rows(), 4u);
  EXPECT_FALSE(gov.storage_degraded());

  // Device full: every append fails before writing a byte.
  auto& reg = FailpointRegistry::Instance();
  ASSERT_TRUE(reg.Arm("wal/append/enospc", "error").ok());
  EXPECT_FALSE(db.Insert("T", {Value(int64_t{99})}).ok());
  EXPECT_TRUE(gov.storage_degraded()) << "failed commit must raise the flag";
  EXPECT_FALSE(gov.storage_degraded_detail().empty());
  EXPECT_EQ(live_rows(), 4u) << "failed insert must roll back";
  EXPECT_TRUE(db.GetTable("T").ok()) << "reads must survive storage pressure";

  // Checkpoint fails too (its snapshot writes hit the same device) and
  // arms the retry backoff: 2 skipped retries after the first failure.
  EXPECT_FALSE(db.Checkpoint().ok());
  EXPECT_EQ(db.checkpoint_failures(), 1u);
  EXPECT_FALSE(db.CheckpointRetryDue());
  EXPECT_TRUE(db.MaybeRetryCheckpoint().ok());  // Backoff tick 1: no attempt.
  EXPECT_TRUE(db.MaybeRetryCheckpoint().ok());  // Backoff tick 2: no attempt.
  EXPECT_EQ(db.checkpoint_failures(), 1u);
  EXPECT_TRUE(db.CheckpointRetryDue());
  EXPECT_FALSE(db.MaybeRetryCheckpoint().ok());  // Due: attempts, fails.
  EXPECT_EQ(db.checkpoint_failures(), 2u);
  EXPECT_TRUE(gov.storage_degraded());

  // Space comes back: the next due retry succeeds, clears the sticky flag
  // and the backoff, and writes work again.
  reg.Disarm("wal/append/enospc");
  // Two failures left a countdown of 4: four calls drain the backoff, the
  // fifth is due and succeeds.
  for (int i = 0; i < 5 && db.checkpoint_failures() > 0; ++i) {
    EXPECT_TRUE(db.MaybeRetryCheckpoint().ok());
  }
  EXPECT_EQ(db.checkpoint_failures(), 0u);
  EXPECT_FALSE(gov.storage_degraded()) << "successful checkpoint must heal";
  ASSERT_TRUE(db.Insert("T", {Value(int64_t{5})}).ok());
  EXPECT_EQ(live_rows(), 5u);

  // The healed log is complete: a fresh recovery sees exactly the
  // committed rows, none of the failed ones.
  DurableDatabase recovered;
  ASSERT_TRUE(recovered.Open(path).ok());
  size_t n = 0;
  auto table = recovered.GetTable("T");
  ASSERT_TRUE(table.ok());
  (*table)->Scan([&](RowId, const Row&) { ++n; });
  EXPECT_EQ(n, 5u);
  std::remove(path.c_str());
}

TEST_F(OverloadTortureTest, BoundedChannelStormRespectsCapsAndNeverDuplicates) {
  const std::vector<uint64_t> seeds =
      test::SuiteSeeds("Overload.Channel", {1997, 42, 20260809});
  for (uint64_t seed : seeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
    Clock clock;
    SimNetwork net(&clock, {.latency = 1,
                            .loss_probability = 0.2,
                            .duplicate_probability = 0.1,
                            .reorder_probability = 0.1,
                            .reorder_jitter = 3,
                            .seed = seed});
    ReliableEndpoint::Options opts;
    opts.max_unacked_messages = 8;
    opts.peer_dead_horizon = 24;
    ReliableEndpoint sender(&net, &clock, opts);
    ReliableEndpoint receiver(&net, &clock);
    std::vector<uint64_t> delivered;
    receiver.SetHandler([&](const Message& m) {
      delivered.push_back(std::get<CancelQuery>(m.payload).qid);
    });

    uint64_t next_qid = 0;
    std::set<uint64_t> sent;
    bool cut = false;
    for (int round = 0; round < 120; ++round) {
      // Random bursts, with occasional partitions long enough to trigger
      // dead-peer eviction.
      if (rng.Bernoulli(0.05)) {
        if (cut) {
          net.Heal("cut");
        } else {
          net.Partition("cut", {sender.node_id()}, {receiver.node_id()});
        }
        cut = !cut;
      }
      const int burst = static_cast<int>(rng.UniformInt(0, 4));
      for (int b = 0; b < burst; ++b) {
        uint64_t qid = next_qid++;
        if (sender.SendReliable(receiver.node_id(), CancelQuery{qid}) !=
            Backpressure::kShed) {
          sent.insert(qid);
        }
      }
      EXPECT_LE(sender.unacked(), opts.max_unacked_messages)
          << "bounded buffer exceeded its cap";
      clock.Advance();
      net.DeliverDue();
    }
    if (cut) net.Heal("cut");
    for (int t = 0; t < 200 && sender.unacked() > 0; ++t) {
      clock.Advance();
      net.DeliverDue();
    }
    EXPECT_EQ(sender.unacked(), 0u) << "channel failed to quiesce";

    // At-most-once: no payload is ever delivered twice (epochs make
    // post-eviction resynchronization safe), and nothing is invented.
    std::set<uint64_t> unique(delivered.begin(), delivered.end());
    EXPECT_EQ(unique.size(), delivered.size())
        << "a payload was delivered more than once";
    for (uint64_t qid : delivered) {
      EXPECT_TRUE(sent.count(qid)) << "delivered a never-sent payload";
    }
    g_channel_sheds += sender.stats().frames_shed;
  }
  EXPECT_GT(g_channel_sheds, 0u)
      << "channel storm never shed: caps were not exercised";
}

// ---- CI loudness ----------------------------------------------------------

// ci.sh arms a probe via MOST_FAILPOINTS before running this suite under
// ASan; if the probe is armed but never counts a hit, env-based fault
// injection has silently broken for the overload stage.
TEST_F(OverloadTortureTest, EnvArmedProbeFires) {
  const char* env = std::getenv("MOST_FAILPOINTS");
  if (env == nullptr ||
      std::string(env).find("ci/overload_probe") == std::string::npos) {
    GTEST_SKIP() << "MOST_FAILPOINTS probe not armed (not the CI stage)";
  }
  auto& reg = FailpointRegistry::Instance();
  ASSERT_TRUE(reg.ArmFromEnv().ok());
  EXPECT_TRUE(reg.Check("ci/overload_probe").ok());  // noop spec: counts only.
  EXPECT_GE(reg.triggered("ci/overload_probe"), 1u)
      << "environment-armed failpoint did not fire";
}

// Runs last (gtest preserves declaration order): the storms must actually
// have exercised pressure. A pressure-free run means the harness no-ops,
// which must fail the build loudly.
TEST(OverloadTortureSummary, PressureActuallyHappened) {
  EXPECT_GT(g_query_sheds, 0u) << "no refresh was ever shed";
  EXPECT_GT(g_channel_sheds, 0u) << "the bounded channel never shed";
}

}  // namespace
}  // namespace most
