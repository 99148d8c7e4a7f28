// Crash/restart-torture suite: durable mobile nodes under a randomized
// schedule of process kills, restarts, and lease expiries, on top of a
// lossy network.
//
// The central check mirrors partition_torture_test.cc's differential
// oracle: the same fleet, motion updates, and queries run in two worlds —
// one where nodes crash (destructor = process kill; the SimNetwork entry
// survives with a nulled handler) and restart from their own WAL, one
// crash-free and lossless. After every node has restarted, rejoined under
// a bumped incarnation, and both channels quiesce, the coordinator's
// answers must be BYTE-IDENTICAL across the worlds, and a crashed mirror
// subscriber's recovered-and-caught-up Answer(CQ) mirror must equal the
// coordinator's own matches map.
//
// Along the way a per-tick invariant holds: while any leased node is
// silent past the liveness horizon, no active continuous query may read
// Confidence::kCertain (the never-certain-under-an-expired-lease rule).
//
// Guards: every run must observe at least one crash and at least one
// lease expiry, and the suite-level summary test fails if the whole file
// ran crash-free.

#include <gtest/gtest.h>

#include "metrics_dump_listener.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/failpoint.h"
#include "common/rng.h"
#include "test_seed.h"
#include "torture_world.h"

namespace most {
namespace {

using test::MustParse;
using test::SerializeCollected;
using test::SerializeReported;
using World = test::TortureWorld;

constexpr size_t kVehicles = World::kVehicles;

// Milder than the partition suite: the protagonists here are crashes, but
// loss/dup/reorder must still not break rejoin or catch-up.
constexpr test::FaultRates kFaults = {.loss = 0.1,
                                      .duplicate = 0.05,
                                      .reorder = 0.05,
                                      .reorder_jitter = 3};

// Crashes and lease expiries actually observed across all torture seeds.
uint64_t g_crashes_observed = 0;
uint64_t g_lease_expiries_observed = 0;

std::string SerializeMirror(const std::map<ObjectId, IntervalSet>& mirror) {
  std::ostringstream out;
  for (const auto& [id, when] : mirror) {
    out << id << "->" << when.ToString() << " ";
  }
  return out.str();
}

/// The full torture scenario for one seed: warmup, continuous queries +
/// a node-0 answer mirror, a randomized kill/restart schedule with the
/// per-tick lease invariant, settle, barrier flush, post-restart
/// one-shots, quiescence, and the byte-identical comparison.
void RunDifferential(uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  constexpr Tick kWarmup = 10;
  constexpr Tick kTortureEnd = 220;
  constexpr Tick kSettleEnd = 380;  // Rejoins + catch-up drain here.
  constexpr Tick kIssueOneShots = 390;
  constexpr Tick kFinal = 620;

  World faulty(kFaults, seed, /*wal_prefix=*/"crash_restart_f");
  World oracle(/*faults=*/{}, seed);
  auto step_both = [&](Tick until) {
    faulty.StepTo(until);
    oracle.StepTo(until);
  };

  step_both(kWarmup);

  FtlQuery cq = MustParse(
      "RETRIEVE o FROM FLEET o WHERE EVENTUALLY WITHIN 60 INSIDE(o, P)");
  uint64_t cq_broadcast_f = faulty.coordinator->IssueObjectQuery(
      cq, DistStrategy::kBroadcastFilter, /*continuous=*/true, 512);
  uint64_t cq_broadcast_o = oracle.coordinator->IssueObjectQuery(
      cq, DistStrategy::kBroadcastFilter, /*continuous=*/true, 512);
  uint64_t cq_collect_f = faulty.coordinator->IssueObjectQuery(
      cq, DistStrategy::kCollect, /*continuous=*/true, 512);
  uint64_t cq_collect_o = oracle.coordinator->IssueObjectQuery(
      cq, DistStrategy::kCollect, /*continuous=*/true, 512);
  ASSERT_EQ(cq_broadcast_f, cq_broadcast_o);
  ASSERT_EQ(cq_collect_f, cq_collect_o);

  // Node 0 mirrors Answer(CQ) of the broadcast query in both worlds; its
  // mirror (recovered + delta-caught-up in the faulty world) must end up
  // equal to each coordinator's matches map.
  step_both(kWarmup + 4);  // Let subscriptions install first.
  ASSERT_TRUE(faulty.coordinator
                  ->SubscribeAnswerMirror(cq_broadcast_f,
                                          faulty.nodes[0]->node_id())
                  .ok());
  ASSERT_TRUE(oracle.coordinator
                  ->SubscribeAnswerMirror(cq_broadcast_o,
                                          oracle.nodes[0]->node_id())
                  .ok());

  // Torture phase: identical motion in both worlds; random kills and
  // restarts in the faulty one. Downtimes straddle the liveness horizon
  // (40): short ones rejoin under a still-valid lease, long ones only
  // after being declared dead. One long downtime is forced so every seed
  // observes a lease expiry.
  FleetGenerator fleet({.num_vehicles = kVehicles, .area = 200.0, .seed = 77});
  std::vector<MotionUpdate> updates = fleet.GenerateUpdates(kTortureEnd);
  size_t next_update = 0;
  Rng schedule(seed * 6271 + 29);
  std::map<size_t, Tick> restart_at;  // Crashed node -> its restart tick.
  Tick next_crash = kWarmup + 12;
  bool forced_long_downtime = false;
  uint64_t crashes = 0;
  for (Tick t = kWarmup + 5; t <= kTortureEnd; ++t) {
    for (auto it = restart_at.begin(); it != restart_at.end();) {
      if (it->second <= t) {
        faulty.Restart(it->first);
        it = restart_at.erase(it);
      } else {
        ++it;
      }
    }
    if (t == next_crash) {
      size_t victim = static_cast<size_t>(
          schedule.UniformInt(0, static_cast<int64_t>(kVehicles) - 1));
      if (faulty.nodes[victim] != nullptr) {
        faulty.Crash(victim);
        ++crashes;
        Tick downtime = forced_long_downtime
                            ? schedule.UniformInt(10, 70)
                            : 60;  // First downtime outlives the lease.
        forced_long_downtime = true;
        restart_at[victim] = t + downtime;
      }
      next_crash = t + schedule.UniformInt(15, 45);
    }
    step_both(t);
    while (next_update < updates.size() && updates[next_update].at <= t) {
      const MotionUpdate& u = updates[next_update++];
      // A motion update reaches a crashed vehicle's node too — it is the
      // vehicle's own sensor. While the process is down the update is
      // simply lost; the barrier below re-synchronizes.
      if (faulty.nodes[u.id] != nullptr) {
        faulty.nodes[u.id]->UpdateMotion(u.position, u.velocity);
      }
      oracle.nodes[u.id]->UpdateMotion(u.position, u.velocity);
    }
    // The lease invariant: an expired lease on any expected node forbids
    // certainty on every active continuous query.
    if (!faulty.coordinator->ExpiredLeases().empty()) {
      auto reported = faulty.coordinator->ReportedMatches(cq_broadcast_f);
      ASSERT_TRUE(reported.ok());
      ASSERT_NE(reported->confidence, Confidence::kCertain)
          << "kCertain with an expired lease at tick " << t;
      auto collected_state = faulty.coordinator->GetState(cq_collect_f);
      ASSERT_TRUE(collected_state.ok());
      // EvaluateCollected runs a full central evaluation; checking the
      // cheap ReportedMatches surface every tick and the collected one
      // through the same EffectiveMissing is enough — both share it.
    }
    // The CI probe: proves MOST_FAILPOINTS reaches this torture loop.
    (void)FailpointRegistry::Instance().Check("ci/crash_probe");
  }
  ASSERT_GE(crashes, 1u) << "torture schedule never killed a node";

  // Restart any node still down, then let rejoins, catch-up deltas, and
  // retransmissions drain.
  for (const auto& [i, at] : restart_at) faulty.Restart(i);
  restart_at.clear();
  step_both(kSettleEnd);

  uint64_t lease_expiries =
      faulty.coordinator->recovery_stats().lease_expirations;
  EXPECT_GE(lease_expiries, 1u)
      << "no downtime ever outlived the lease horizon";
  EXPECT_GE(faulty.coordinator->recovery_stats().rejoins, 1u)
      << "no restarted node ever announced a bumped incarnation";

  // Barrier flush: the same motion update on every node at the same tick
  // in both worlds; every node whose answer shifted re-reports.
  for (size_t i = 0; i < kVehicles; ++i) {
    Point2 p = oracle.nodes[i]->state().position;
    Vec2 v = oracle.nodes[i]->state().velocity;
    faulty.nodes[i]->UpdateMotion(p, v);
    oracle.nodes[i]->UpdateMotion(p, v);
  }
  step_both(kIssueOneShots);

  // Post-restart one-shots (anchored at their issue tick).
  FtlQuery oq = MustParse(
      "RETRIEVE o FROM FLEET o WHERE EVENTUALLY WITHIN 40 INSIDE(o, P)");
  uint64_t os_broadcast_f = faulty.coordinator->IssueObjectQuery(
      oq, DistStrategy::kBroadcastFilter, /*continuous=*/false, 256);
  uint64_t os_broadcast_o = oracle.coordinator->IssueObjectQuery(
      oq, DistStrategy::kBroadcastFilter, /*continuous=*/false, 256);
  uint64_t os_collect_f = faulty.coordinator->IssueObjectQuery(
      oq, DistStrategy::kCollect, /*continuous=*/false, 256);
  uint64_t os_collect_o = oracle.coordinator->IssueObjectQuery(
      oq, DistStrategy::kCollect, /*continuous=*/false, 256);

  step_both(kFinal);
  ASSERT_TRUE(faulty.Quiescent())
      << "faulty world still has unacked frames at tick " << kFinal;
  ASSERT_TRUE(oracle.Quiescent());

  // Every answer certain again in the crashed world...
  for (uint64_t qid : {cq_broadcast_f, os_broadcast_f}) {
    EXPECT_EQ(faulty.coordinator->ReportedMatches(qid)->confidence,
              Confidence::kCertain)
        << "qid " << qid;
  }
  for (uint64_t qid : {cq_collect_f, os_collect_f}) {
    EXPECT_EQ(faulty.coordinator->EvaluateCollected(qid)->confidence,
              Confidence::kCertain)
        << "qid " << qid;
  }

  // ...and byte-identical to the crash-free oracle.
  EXPECT_EQ(SerializeReported(*faulty.coordinator, cq_broadcast_f),
            SerializeReported(*oracle.coordinator, cq_broadcast_o))
      << "continuous broadcast answers diverged";
  EXPECT_EQ(SerializeCollected(*faulty.coordinator, cq_collect_f),
            SerializeCollected(*oracle.coordinator, cq_collect_o))
      << "continuous collect answers diverged";
  EXPECT_EQ(SerializeReported(*faulty.coordinator, os_broadcast_f),
            SerializeReported(*oracle.coordinator, os_broadcast_o))
      << "one-shot broadcast answers diverged";
  EXPECT_EQ(SerializeCollected(*faulty.coordinator, os_collect_f),
            SerializeCollected(*oracle.coordinator, os_collect_o))
      << "one-shot collect answers diverged";

  // The crashed-and-recovered mirror caught up to the coordinator's own
  // answer — and to the never-crashed oracle mirror.
  const auto* mirror_f = faulty.nodes[0]->AnswerMirror(cq_broadcast_f);
  const auto* mirror_o = oracle.nodes[0]->AnswerMirror(cq_broadcast_o);
  ASSERT_NE(mirror_f, nullptr);
  ASSERT_NE(mirror_o, nullptr);
  EXPECT_EQ(SerializeMirror(*mirror_f),
            SerializeMirror(
                faulty.coordinator->ReportedMatches(cq_broadcast_f)->matches))
      << "recovered mirror diverged from the coordinator's answer";
  EXPECT_EQ(SerializeMirror(*mirror_f), SerializeMirror(*mirror_o))
      << "recovered mirror diverged from the oracle mirror";

  g_crashes_observed += crashes;
  g_lease_expiries_observed += lease_expiries;

  // Housekeeping: drop the logs so reruns start fresh.
  for (const std::string& path : faulty.wal_paths) std::remove(path.c_str());
}

TEST(CrashRestartTortureTest, DifferentialAgainstCrashFreeWorldSeed1) {
  (void)FailpointRegistry::Instance().ArmFromEnv();
  RunDifferential(test::SuiteSeed("CrashRestartTorture.Differential1", 1));
}

TEST(CrashRestartTortureTest, DifferentialAgainstCrashFreeWorldSeed2) {
  (void)FailpointRegistry::Instance().ArmFromEnv();
  RunDifferential(test::SuiteSeed("CrashRestartTorture.Differential2", 2));
}

// Deterministic lease walk-through on a lossless network: crash one node,
// watch its lease expire (answers degrade with the node named missing),
// restart it, and watch certainty return — with the node's recovered
// state, not its boot state.
TEST(CrashRestartTortureTest, LeaseExpiryDegradesAndRejoinRestores) {
  World world(/*faults=*/{}, 9, /*wal_prefix=*/"crash_restart_lease");
  world.StepTo(8);

  FtlQuery cq = MustParse(
      "RETRIEVE o FROM FLEET o WHERE EVENTUALLY WITHIN 60 INSIDE(o, P)");
  uint64_t qid = world.coordinator->IssueObjectQuery(
      cq, DistStrategy::kBroadcastFilter, /*continuous=*/true, 512);
  world.StepTo(16);
  ASSERT_EQ(world.coordinator->ReportedMatches(qid)->confidence,
            Confidence::kCertain);

  NodeId victim = world.nodes[2]->node_id();
  world.Crash(2);
  // Within the liveness horizon the dead node is still vouched for
  // (dead reckoning); past it, the lease expires and certainty is gone.
  world.StepTo(world.clock.Now() + 60);
  EXPECT_FALSE(world.coordinator->IsLive(victim));
  EXPECT_TRUE(world.coordinator->ExpiredLeases().count(victim));
  auto stale = world.coordinator->ReportedMatches(qid);
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale->confidence, Confidence::kStale);
  EXPECT_TRUE(stale->missing.count(victim));
  EXPECT_GE(world.coordinator->recovery_stats().lease_expirations, 1u);

  world.Restart(2);
  EXPECT_TRUE(world.nodes[2]->recovered_from_wal());
  EXPECT_EQ(world.nodes[2]->incarnation(), 1u);
  EXPECT_EQ(world.nodes[2]->node_id(), victim) << "network id not reclaimed";
  world.StepTo(world.clock.Now() + 30);
  EXPECT_TRUE(world.coordinator->IsLive(victim));
  auto healed = world.coordinator->ReportedMatches(qid);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(healed->confidence, Confidence::kCertain);
  EXPECT_TRUE(healed->missing.empty());
  EXPECT_GE(world.coordinator->recovery_stats().rejoins, 1u);

  for (const std::string& path : world.wal_paths) std::remove(path.c_str());
}

// ci.sh arms a probe via MOST_FAILPOINTS before running this suite; the
// torture loop checks the site every tick.
TEST(CrashRestartTortureTest, EnvArmedProbeFires) {
  const char* env = std::getenv("MOST_FAILPOINTS");
  if (env == nullptr ||
      std::string(env).find("ci/crash_probe") == std::string::npos) {
    GTEST_SKIP() << "MOST_FAILPOINTS probe not armed (not the CI stage)";
  }
  auto& reg = FailpointRegistry::Instance();
  ASSERT_TRUE(reg.ArmFromEnv().ok());
  EXPECT_TRUE(reg.Check("ci/crash_probe").ok());
  EXPECT_GE(reg.triggered("ci/crash_probe"), 1u)
      << "the torture loop never hit the armed probe";
}

// Runs after the differential tests (gtest preserves in-file order): the
// suite passing without a single crash or lease expiry would be vacuous.
TEST(CrashRestartTortureTest, ZSummaryCrashesActuallyFired) {
  EXPECT_GT(g_crashes_observed, 0u)
      << "no torture run ever killed a node — the suite is vacuous";
  EXPECT_GT(g_lease_expiries_observed, 0u)
      << "no torture run ever expired a lease — the suite is vacuous";
}

}  // namespace
}  // namespace most
