// Partition-torture suite: the distributed query protocol under a
// randomized schedule of message loss, duplication, reordering, and
// network partitions.
//
// The central check is a differential oracle (crash_torture_test.cc
// style): the same fleet, the same motion updates, and the same queries
// run in two worlds — one over a faulty network, one over a lossless one.
// After every partition heals and both reliable channels quiesce, the
// coordinator's answers must be BYTE-IDENTICAL across the worlds: the
// reliability layer's whole job is to make faults invisible to the
// answer, only visible to latency and message counts.
//
// Each torture run also asserts its faults actually fired (a seed that
// exercised nothing would pass vacuously), and ci.sh arms a
// MOST_FAILPOINTS probe through this binary to prove the env plumbing
// reaches the torture loop.

#include <gtest/gtest.h>

#include "metrics_dump_listener.h"

#include <cstdlib>
#include <set>

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

// Message fates of the faulty world.
constexpr test::FaultRates kFaults = {.loss = 0.15,
                                      .duplicate = 0.1,
                                      .reorder = 0.1,
                                      .reorder_jitter = 4};

// Faults actually observed across all torture seeds; the summary test at
// the bottom fails loudly if the whole suite ran fault-free.
uint64_t g_faults_observed = 0;

/// Runs the full torture scenario for one seed: warmup, continuous
/// queries, a randomized fault + partition schedule, heal, a barrier
/// flush, post-heal one-shot queries, quiescence, and the byte-identical
/// comparison.
void RunDifferential(uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  constexpr Tick kWarmup = 10;
  constexpr Tick kTortureEnd = 260;
  constexpr Tick kSettleEnd = 420;   // Revivals + re-syncs drain here.
  constexpr Tick kIssueOneShots = 430;
  constexpr Tick kFinal = 700;

  World faulty(kFaults, seed);
  World lossless(/*faults=*/{}, seed);
  auto step_both = [&](Tick until) {
    faulty.StepTo(until);
    lossless.StepTo(until);
  };

  step_both(kWarmup);

  // Continuous queries, issued at the same tick in both worlds.
  FtlQuery cq = MustParse(
      "RETRIEVE o FROM FLEET o WHERE EVENTUALLY WITHIN 60 INSIDE(o, P)");
  uint64_t cq_broadcast_f = faulty.coordinator->IssueObjectQuery(
      cq, DistStrategy::kBroadcastFilter, /*continuous=*/true, 512);
  uint64_t cq_broadcast_l = lossless.coordinator->IssueObjectQuery(
      cq, DistStrategy::kBroadcastFilter, /*continuous=*/true, 512);
  uint64_t cq_collect_f = faulty.coordinator->IssueObjectQuery(
      cq, DistStrategy::kCollect, /*continuous=*/true, 512);
  uint64_t cq_collect_l = lossless.coordinator->IssueObjectQuery(
      cq, DistStrategy::kCollect, /*continuous=*/true, 512);
  ASSERT_EQ(cq_broadcast_f, cq_broadcast_l);
  ASSERT_EQ(cq_collect_f, cq_collect_l);

  // Torture phase: identical motion updates in both worlds; a rotating
  // randomized partition (and the configured loss/dup/reorder rates) in
  // the faulty world only. Partitions are long enough (up to 2x the
  // liveness timeout) that nodes get declared dead and revived.
  FleetGenerator fleet({.num_vehicles = kVehicles, .area = 200.0, .seed = 77});
  std::vector<MotionUpdate> updates = fleet.GenerateUpdates(kTortureEnd);
  size_t next_update = 0;
  Rng schedule(seed * 7919 + 13);
  Tick next_cut = kWarmup + 10;
  Tick next_heal = -1;
  for (Tick t = kWarmup + 1; t <= kTortureEnd; ++t) {
    if (t == next_heal) faulty.net.Heal("cut");
    if (t == next_cut) {
      faulty.net.Heal("cut");
      // Cut 1..kVehicles-1 random mobile nodes off from the rest
      // (coordinator always on the majority side).
      std::set<NodeId> cut, rest;
      size_t n_cut = static_cast<size_t>(
          schedule.UniformInt(1, static_cast<int64_t>(kVehicles) - 1));
      std::vector<size_t> order(kVehicles);
      for (size_t i = 0; i < kVehicles; ++i) order[i] = i;
      for (size_t i = kVehicles - 1; i > 0; --i) {
        std::swap(order[i], order[schedule.UniformInt(0, i)]);
      }
      for (size_t i = 0; i < kVehicles; ++i) {
        (i < n_cut ? cut : rest).insert(faulty.nodes[order[i]]->node_id());
      }
      rest.insert(faulty.coordinator->node_id());
      faulty.net.Partition("cut", cut, rest);
      next_heal = t + schedule.UniformInt(10, 50);
      next_cut = t + schedule.UniformInt(40, 80);
    }
    step_both(t);
    while (next_update < updates.size() && updates[next_update].at <= t) {
      const MotionUpdate& u = updates[next_update++];
      faulty.nodes[u.id]->UpdateMotion(u.position, u.velocity);
      lossless.nodes[u.id]->UpdateMotion(u.position, u.velocity);
    }
    // The CI probe: proves MOST_FAILPOINTS reaches the torture loop.
    (void)FailpointRegistry::Instance().Check("ci/dist_probe");
  }

  // Heal everything and let retransmissions, revivals and continuous
  // re-syncs drain.
  faulty.net.HealAll();
  step_both(kSettleEnd);

  // Barrier flush: the same motion update on every node at the same tick
  // in both worlds. Every node whose answer shifted re-reports, so both
  // coordinators converge on reports computed at this exact tick.
  for (size_t i = 0; i < kVehicles; ++i) {
    Point2 p = lossless.nodes[i]->state().position;
    Vec2 v = lossless.nodes[i]->state().velocity;
    faulty.nodes[i]->UpdateMotion(p, v);
    lossless.nodes[i]->UpdateMotion(p, v);
  }
  step_both(kIssueOneShots);

  // Post-heal one-shot queries (anchored at their issue tick, so both
  // worlds evaluate the same window no matter how late requests land).
  FtlQuery oq = MustParse(
      "RETRIEVE o FROM FLEET o WHERE EVENTUALLY WITHIN 40 INSIDE(o, P)");
  FtlQuery rq = MustParse(
      "RETRIEVE o, n FROM FLEET o, FLEET n WHERE EVENTUALLY DIST(o, n) <= 50");
  uint64_t os_broadcast_f = faulty.coordinator->IssueObjectQuery(
      oq, DistStrategy::kBroadcastFilter, /*continuous=*/false, 256);
  uint64_t os_broadcast_l = lossless.coordinator->IssueObjectQuery(
      oq, DistStrategy::kBroadcastFilter, /*continuous=*/false, 256);
  uint64_t os_collect_f = faulty.coordinator->IssueObjectQuery(
      oq, DistStrategy::kCollect, /*continuous=*/false, 256);
  uint64_t os_collect_l = lossless.coordinator->IssueObjectQuery(
      oq, DistStrategy::kCollect, /*continuous=*/false, 256);
  uint64_t rel_f = faulty.coordinator->IssueRelationshipQuery(rq, 256);
  uint64_t rel_l = lossless.coordinator->IssueRelationshipQuery(rq, 256);

  // Quiesce: every endpoint in both worlds fully acknowledged, at the
  // same final tick (the continuous-query comparison below evaluates at
  // "now", so the clocks must agree).
  step_both(kFinal);
  ASSERT_TRUE(faulty.Quiescent())
      << "faulty world still has unacked frames at tick " << kFinal;
  ASSERT_TRUE(lossless.Quiescent());

  // Every answer must be certain in both worlds...
  for (uint64_t qid : {cq_broadcast_f, os_broadcast_f}) {
    EXPECT_EQ(faulty.coordinator->ReportedMatches(qid)->confidence,
              Confidence::kCertain)
        << "qid " << qid;
  }
  for (uint64_t qid : {cq_collect_f, os_collect_f, rel_f}) {
    EXPECT_EQ(faulty.coordinator->EvaluateCollected(qid)->confidence,
              Confidence::kCertain)
        << "qid " << qid;
  }

  // ...and byte-identical across the worlds.
  EXPECT_EQ(SerializeReported(*faulty.coordinator, cq_broadcast_f),
            SerializeReported(*lossless.coordinator, cq_broadcast_l))
      << "continuous broadcast answers diverged";
  EXPECT_EQ(SerializeCollected(*faulty.coordinator, cq_collect_f),
            SerializeCollected(*lossless.coordinator, cq_collect_l))
      << "continuous collect answers diverged";
  EXPECT_EQ(SerializeReported(*faulty.coordinator, os_broadcast_f),
            SerializeReported(*lossless.coordinator, os_broadcast_l))
      << "one-shot broadcast answers diverged";
  EXPECT_EQ(SerializeCollected(*faulty.coordinator, os_collect_f),
            SerializeCollected(*lossless.coordinator, os_collect_l))
      << "one-shot collect answers diverged";
  EXPECT_EQ(SerializeCollected(*faulty.coordinator, rel_f),
            SerializeCollected(*lossless.coordinator, rel_l))
      << "relationship answers diverged";

  // Fault guards: a run that tortured nothing proves nothing.
  const SimNetwork::Stats& fs = faulty.net.stats();
  EXPECT_GT(fs.dropped_loss, 0u) << "no message was ever lost";
  EXPECT_GT(fs.duplicated, 0u) << "no message was ever duplicated";
  EXPECT_GT(fs.reordered, 0u) << "no message was ever delayed/reordered";
  EXPECT_GT(fs.dropped_partition, 0u) << "no partition ever cut a message";
  g_faults_observed += fs.faults_total();
  // The lossless control world must be exactly that.
  EXPECT_EQ(lossless.net.stats().faults_total(), 0u);
  EXPECT_EQ(lossless.net.stats().dropped_partition, 0u);
}

TEST(PartitionTortureTest, DifferentialAgainstLosslessWorldSeed1) {
  (void)FailpointRegistry::Instance().ArmFromEnv();
  RunDifferential(test::SuiteSeed("PartitionTorture.Differential1", 1));
}

TEST(PartitionTortureTest, DifferentialAgainstLosslessWorldSeed2) {
  (void)FailpointRegistry::Instance().ArmFromEnv();
  RunDifferential(test::SuiteSeed("PartitionTorture.Differential2", 2));
}

TEST(PartitionTortureTest, DifferentialAgainstLosslessWorldSeed3) {
  (void)FailpointRegistry::Instance().ArmFromEnv();
  RunDifferential(test::SuiteSeed("PartitionTorture.Differential3", 3));
}

// Deterministic completeness check: a partial answer must name exactly
// the unreachable nodes and must never claim certainty while any are
// missing — under an active partition AND after arbitrary polling.
TEST(PartitionTortureTest, PartialAnswersNameTheMissingNodes) {
  World world(/*faults=*/{}, 5);
  world.StepTo(4);
  std::set<NodeId> cut = {world.nodes[1]->node_id(),
                          world.nodes[4]->node_id()};
  std::set<NodeId> rest;
  rest.insert(world.coordinator->node_id());
  for (const auto& node : world.nodes) {
    if (cut.count(node->node_id()) == 0) rest.insert(node->node_id());
  }
  world.net.Partition("cut", cut, rest);

  FtlQuery q = MustParse(
      "RETRIEVE o FROM FLEET o WHERE EVENTUALLY WITHIN 100 INSIDE(o, P)");
  uint64_t qid = world.coordinator->IssueObjectQuery(
      q, DistStrategy::kBroadcastFilter, /*continuous=*/false, 256);

  // Replies from reachable nodes drain within the first few ticks; until
  // then the missing set also contains nodes that simply have not
  // answered yet — but never certainty, and never without the cut nodes.
  for (int i = 0; i < 8; ++i) {
    world.StepTo(world.clock.Now() + 1);
    auto answer = world.coordinator->ReportedMatches(qid);
    ASSERT_TRUE(answer.ok());
    ASSERT_NE(answer->confidence, Confidence::kCertain);
    for (NodeId id : cut) ASSERT_TRUE(answer->missing.count(id));
  }
  // From here the missing set is exactly the partitioned nodes, at every
  // single tick until the heal.
  for (int i = 0; i < 64; ++i) {
    world.StepTo(world.clock.Now() + 1);
    auto answer = world.coordinator->ReportedMatches(qid);
    ASSERT_TRUE(answer.ok());
    ASSERT_NE(answer->confidence, Confidence::kCertain)
        << "claimed certainty while nodes were unreachable (tick "
        << world.clock.Now() << ")";
    ASSERT_EQ(answer->missing, cut);
  }
  EXPECT_TRUE(world.coordinator->DeadlinePassed(qid));

  world.net.Heal("cut");
  world.StepTo(world.clock.Now() + 80);
  auto answer = world.coordinator->ReportedMatches(qid);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->confidence, Confidence::kCertain);
  EXPECT_TRUE(answer->missing.empty());
}

// ci.sh arms a probe via MOST_FAILPOINTS before running this suite; the
// torture loop checks the site every tick, so a CI run that silently
// failed to arm the env would be caught here.
TEST(PartitionTortureTest, EnvArmedProbeFires) {
  const char* env = std::getenv("MOST_FAILPOINTS");
  if (env == nullptr ||
      std::string(env).find("ci/dist_probe") == std::string::npos) {
    GTEST_SKIP() << "MOST_FAILPOINTS probe not armed (not the CI stage)";
  }
  auto& reg = FailpointRegistry::Instance();
  ASSERT_TRUE(reg.ArmFromEnv().ok());
  EXPECT_TRUE(reg.Check("ci/dist_probe").ok());  // noop spec: counts only.
  EXPECT_GE(reg.triggered("ci/dist_probe"), 1u)
      << "the torture loop never hit the armed probe";
}

// Must run after the differential tests (gtest preserves in-file order):
// the whole suite passing without a single injected fault would mean the
// torture schedule is broken, not that the protocol is perfect.
TEST(PartitionTortureTest, ZSummaryFaultsActuallyFired) {
  EXPECT_GT(g_faults_observed, 0u)
      << "no torture run observed any fault — the suite is vacuous";
}

}  // namespace
}  // namespace most
