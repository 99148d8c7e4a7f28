// Fault simulation: one seeded schedule of faults drawn from every family
// at once, driven through one pair of worlds, checked by one set of
// invariants.
//
// The worlds (sim_world.h): a coordinator and WAL-backed mobile nodes
// over a lossy SimNetwork, its fault-free twin, and a small fleet under a
// 4-shard ShardedEngine with per-shard WALs. A schedule is data — a
// std::vector<FaultEvent>, printed whenever a run fails — and
// RandomSchedule(seed) draws partitions, crashes and restarts, node-WAL
// faults, governor storms, evaluator faults and Reshards onto the same
// timeline as the network's own loss, duplication and reordering.
//
// Every tick:
//  * no continuous coordinator query reads kCertain while the coordinator
//    reports an expired lease, or while a node has been cut off or down
//    for longer than the lease horizon;
//  * every engine gather is either complete and byte-identical to the
//    oracle, or incomplete, all kStale, and inside the bindings the
//    oracle ever emitted;
//  * while a channel cap is set, no endpoint's unacked count exceeds it;
//  * an engine error names an armed failpoint site, and a failed Reshard
//    drops at most the one query it names.
//
// At the end every fault is lifted, downed nodes restart, the network
// heals, a barrier flush re-synchronizes motion and the channels
// quiesce; then the coordinator's answers and node 0's Answer(CQ) mirror
// must be byte-identical to the twin's, and every engine answer
// byte-identical to the oracle and complete.
//
// Replay a seed with MOST_TEST_SEED=<n>. ci.sh runs the sweep with
// MOST_FAILPOINTS="ci/sim_probe=noop"; the summary test then asserts the
// probe fired once per simulated tick.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>

#include "common/failpoint.h"
#include "common/rng.h"
#include "metrics_dump_listener.h"
#include "obs/governor.h"
#include "scoped_governor_limits.h"
#include "sim_world.h"
#include "test_seed.h"

namespace most {
namespace {

using test::EngineWorld;
using test::NodeWorld;

constexpr size_t kVehicles = NodeWorld::kVehicles;
constexpr Tick kWarmup = 10;
constexpr Tick kFaultEnd = 200;
constexpr Tick kSettleEnd = 360;  // Revivals, rejoins and catch-up drain.
constexpr Tick kIssueOneShots = 370;
constexpr Tick kFinal = 600;
/// A WAL fault during the first ticks after a restart hits the rejoin's
/// identity, state and catch-up writes.
constexpr Tick kRejoinWindow = 10;

constexpr test::FaultRates kLossy = {
    .loss = 0.1, .duplicate = 0.05, .reorder = 0.05, .reorder_jitter = 3};

enum Family {
  kNetwork,
  kPartition,
  kCrash,
  kNodeWal,
  kStorm,
  kEvalFault,
  kReshard,
  kFamilies
};
constexpr const char* kFamilyNames[kFamilies] = {
    "network", "partition", "crash", "node-wal",
    "storm",   "eval-fault", "reshard"};

struct FaultEvent {
  // Declaration order is the order same-tick events apply in.
  enum class Kind {
    kHeal,
    kRestart,
    kCut,
    kCrash,
    kNodeWal,
    kStorm,
    kCalm,
    kEvalFault,
    kReshard
  };
  Tick at = 0;
  Kind kind = Kind::kHeal;
  /// kCut: mask of cut vehicles; kCrash/kRestart: vehicle; kNodeWal:
  /// index into kNodeWalFaults; kStorm: index into kStorms; kReshard: the
  /// new shard count.
  uint64_t arg = 0;
};
using Kind = FaultEvent::Kind;

struct SiteFault {
  const char* site;
  const char* spec;
};
// Armed around a node step until they fire. wal/sync is not drawn: node
// stores commit with flush durability and never fsync (wal_test's
// families cover the sync path).
constexpr SiteFault kNodeWalFaults[] = {
    {"wal/append/write", "truncate*1"},
    {"wal/append/write", "error*1"},
    {"wal/append/enospc", "error*1"},
    {"wal/append/flush", "error*1"},
};
constexpr char kEvalSite[] = "ftl/eval/checkpoint";

// Governor storms: the refresh limits govern the engine step, the channel
// limits the faulty world's step.
const ResourceGovernor::Limits kStorms[] = {
    {.refresh_budget = {.max_rows = 16},
     .refresh_queue_limit = 2,
     .degrade_cooldown_ticks = 3,
     .channel_max_unacked_messages = 4,
     .channel_peer_dead_horizon = 24},
    {.refresh_budget = {.max_rows = 8},
     .refresh_queue_limit = 1,
     .degrade_cooldown_ticks = 2,
     .channel_max_unacked_messages = 2,
     .channel_peer_dead_horizon = 48},
    {.refresh_budget = {.max_rows = 24},
     .refresh_queue_limit = 2,
     .channel_max_unacked_messages = 8},
};
constexpr Tick kMaxCooldown = 3;

std::string Describe(const std::vector<FaultEvent>& schedule) {
  constexpr const char* kNames[] = {"heal",  "restart", "cut",
                                    "crash", "node-wal", "storm",
                                    "calm",  "eval-fault", "reshard"};
  std::ostringstream out;
  for (const FaultEvent& e : schedule) {
    out << "  t=" << e.at << " " << kNames[static_cast<int>(e.kind)];
    if (e.kind == Kind::kNodeWal) {
      out << " " << kNodeWalFaults[e.arg].site << "="
          << kNodeWalFaults[e.arg].spec;
    } else if (e.kind != Kind::kHeal && e.kind != Kind::kCalm &&
               e.kind != Kind::kEvalFault) {
      out << " " << e.arg;
    }
    out << "\n";
  }
  return out.str();
}

std::vector<FaultEvent> RandomSchedule(uint64_t seed) {
  Rng rng(seed * 7919 + 13);
  std::vector<FaultEvent> s;
  auto add = [&](Tick at, Kind kind, uint64_t arg = 0) {
    if (at <= kFaultEnd) s.push_back({at, kind, arg});
  };
  // Partitions cut 1..kVehicles-1 nodes off from the coordinator for
  // 10-50 ticks, long enough for leases to expire and revivals to re-sync.
  Tick first_cut = kWarmup + 10;
  for (Tick t = first_cut; t <= kFaultEnd;) {
    std::vector<size_t> order(kVehicles);
    for (size_t i = 0; i < kVehicles; ++i) order[i] = i;
    for (size_t i = kVehicles - 1; i > 0; --i) {
      std::swap(order[i], order[rng.UniformInt(0, i)]);
    }
    uint64_t mask = 0;
    const int64_t n_cut = rng.UniformInt(1, kVehicles - 1);
    for (int64_t i = 0; i < n_cut; ++i) mask |= uint64_t{1} << order[i];
    const Tick heal = t + rng.UniformInt(10, 50);
    add(t, Kind::kCut, mask);
    add(heal, Kind::kHeal);
    t = heal + rng.UniformInt(5, 40);
  }
  // Crashes: the first lands inside the first partition and outlives the
  // lease; downtimes then straddle the liveness horizon.
  std::vector<Tick> up_at(kVehicles, 0);
  Tick first_restart = -1;
  for (Tick t = first_cut + 2; t <= kFaultEnd; t += rng.UniformInt(15, 45)) {
    const size_t victim = rng.UniformInt(0, kVehicles - 1);
    if (up_at[victim] > t) continue;
    const Tick downtime = first_restart < 0 ? 60 : rng.UniformInt(10, 70);
    if (first_restart < 0) first_restart = t + downtime;
    add(t, Kind::kCrash, victim);
    add(t + downtime, Kind::kRestart, victim);
    up_at[victim] = t + downtime + 1;
  }
  // Node-WAL faults, one of them armed around the first rejoin.
  add(first_restart, Kind::kNodeWal,
      rng.UniformInt(0, std::size(kNodeWalFaults) - 1));
  for (Tick t = kWarmup + 8; t <= kFaultEnd; t += rng.UniformInt(12, 30)) {
    add(t, Kind::kNodeWal, rng.UniformInt(0, std::size(kNodeWalFaults) - 1));
  }
  for (Tick t = kWarmup + rng.UniformInt(5, 30); t <= kFaultEnd;) {
    const Tick end = t + rng.UniformInt(8, 30);
    add(t, Kind::kStorm, rng.UniformInt(0, std::size(kStorms) - 1));
    add(end, Kind::kCalm);
    t = end + rng.UniformInt(10, 40);
  }
  // Evaluator faults; the first coincides with a Reshard.
  Tick first_eval = -1;
  for (Tick t = kWarmup + rng.UniformInt(5, 20); t <= kFaultEnd;
       t += rng.UniformInt(20, 45)) {
    if (first_eval < 0) first_eval = t;
    add(t, Kind::kEvalFault);
  }
  add(first_eval, Kind::kReshard, rng.UniformInt(1, 4));
  for (Tick t = kWarmup + rng.UniformInt(10, 30); t <= kFaultEnd;
       t += rng.UniformInt(15, 40)) {
    add(t, Kind::kReshard, rng.UniformInt(1, 4));
  }
  std::stable_sort(s.begin(), s.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at != b.at ? a.at < b.at : a.kind < b.kind;
                   });
  return s;
}

// The storm's levers, each of which must have acted somewhere in a sweep.
constexpr unsigned kRefreshLever = 1;  // A refresh shed (rows/queue).
constexpr unsigned kShedLever = 2;     // A channel cap refused a frame.
constexpr unsigned kEvictedLever = 4;  // A dead-peer eviction.

/// What runs observed; the sweep's runs all report into g_sweep.
struct RunReport {
  std::array<uint64_t, kFamilies> fired{};
  unsigned storm_levers = 0;
  uint64_t multi_family_ticks = 0;
  uint64_t crash_during_partition = 0;
  uint64_t wal_fault_during_rejoin = 0;
  uint64_t reshard_during_storm_or_eval = 0;
  uint64_t lease_expiries = 0;
};

RunReport g_sweep;
uint64_t g_simulated_ticks = 0;

std::string MirrorString(const std::map<ObjectId, IntervalSet>* mirror) {
  return mirror == nullptr ? "<no mirror>" : test::SerializeMatches(*mirror);
}

/// One run: a schedule driven through the faulty world, its twin and the
/// engine, tick by tick, then the convergence check.
class FaultSim {
 public:
  FaultSim(uint64_t seed, std::vector<FaultEvent> schedule,
           const test::FaultRates& rates)
      : faulty(rates, seed, "sim"),
        twin({}, seed),
        eng(seed, kFaultEnd),
        schedule_(std::move(schedule)) {}

  // A run cut short by a failed assertion must not leave its faults
  // armed for the next one.
  ~FaultSim() {
    FailpointRegistry::Instance().Disarm(kEvalSite);
    for (const SiteFault& f : kNodeWalFaults) {
      FailpointRegistry::Instance().Disarm(f.site);
    }
  }

  /// Per-tick hook for scripted schedules, called after the invariants.
  using Probe = std::function<void(FaultSim&, Tick)>;

  void Run(RunReport* report, const Probe& probe = nullptr) {
    ResourceGovernor::Global().ResetStateForTest();
    test::ScopedGovernorLimits restore({});
    for (EngineWorld::Slot& slot : eng.slots) {
      ASSERT_TRUE(eng.Register(&slot).ok());
    }
    FleetGenerator fleet(
        {.num_vehicles = kVehicles, .area = 200.0, .seed = 77});
    motion_ = fleet.GenerateUpdates(kFaultEnd);
    for (Tick t = 1; t <= kFaultEnd; ++t) {
      ActiveFamilies active{};
      ASSERT_NO_FATAL_FAILURE(ApplyEvents(t, report, &active));
      ASSERT_NO_FATAL_FAILURE(StepNodes(t, report, &active));
      if (t == kWarmup) IssueContinuousQueries();
      if (t == kWarmup + 4) SubscribeMirrors();
      if (t > kWarmup) {
        ASSERT_NO_FATAL_FAILURE(CheckCoordinator(t));
      }
      ASSERT_NO_FATAL_FAILURE(StepEngine(report, &active));
      if (probe) {
        ASSERT_NO_FATAL_FAILURE(probe(*this, t));
      }
      if (std::count(active.begin(), active.end(), true) >= 2) {
        ++report->multi_family_ticks;
      }
      (void)FailpointRegistry::Instance().Check("ci/sim_probe");
      ++g_simulated_ticks;
    }
    report->lease_expiries +=
        faulty.coordinator->recovery_stats().lease_expirations;
    ASSERT_NO_FATAL_FAILURE(Converge());
  }

  NodeWorld faulty;
  NodeWorld twin;
  EngineWorld eng;
  uint64_t cq_broadcast = 0;
  uint64_t cq_collect = 0;

 private:
  using ActiveFamilies = std::array<bool, kFamilies>;

  void ApplyEvents(Tick t, RunReport* report, ActiveFamilies* active) {
    auto& reg = FailpointRegistry::Instance();
    restarts_.clear();
    reshard_to_.reset();
    for (; next_event_ < schedule_.size() && schedule_[next_event_].at <= t;
         ++next_event_) {
      const FaultEvent& e = schedule_[next_event_];
      switch (e.kind) {
        case Kind::kHeal:
          faulty.net.Heal("cut");
          cut_.clear();
          break;
        case Kind::kRestart:
          restarts_.push_back(e.arg);
          break;
        case Kind::kCut: {
          std::set<NodeId> a, b = {faulty.coordinator->node_id()};
          cut_.clear();
          for (size_t i = 0; i < kVehicles; ++i) {
            if ((e.arg >> i) & 1) cut_.insert(i);
            ((e.arg >> i) & 1 ? a : b).insert(faulty.ids[i]);
          }
          faulty.net.Partition("cut", a, b);
          break;
        }
        case Kind::kCrash:
          faulty.Crash(e.arg);
          ++report->fired[kCrash];
          if (!cut_.empty()) ++report->crash_during_partition;
          break;
        case Kind::kNodeWal:
          wal_fault_ = e.arg;
          wal_deadline_ = t + 20;
          break;
        case Kind::kStorm:
          storm_ = e.arg;
          cap_floor_ = Unacked();
          break;
        case Kind::kCalm:
          storm_.reset();
          break;
        case Kind::kEvalFault:
          ASSERT_TRUE(reg.Arm(kEvalSite, "error*1").ok());
          eval_armed_ = true;
          break;
        case Kind::kReshard:
          reshard_to_ = e.arg;
          break;
      }
    }
    (*active)[kPartition] = !cut_.empty();
    (*active)[kStorm] = storm_.has_value();
    (*active)[kEvalFault] = eval_armed_;
    (*active)[kReshard] = reshard_to_.has_value();
  }

  ResourceGovernor::Limits StormLimits() const {
    return storm_ ? kStorms[*storm_] : ResourceGovernor::Limits{};
  }

  /// The faulty world's step (restarts, deliveries, motion) under the
  /// storm's channel limits and an armed node-WAL fault, then the twin's
  /// step under no limits at all.
  void StepNodes(Tick t, RunReport* report, ActiveFamilies* active) {
    auto& reg = FailpointRegistry::Instance();
    ResourceGovernor::Global().set_limits(StormLimits());
    const SimNetwork::Stats before = faulty.net.stats();
    const ReliableEndpoint::Stats channel_before =
        faulty.coordinator->channel().stats();
    std::optional<SiteFault> wal;
    uint64_t wal_fired_before = 0;
    if (wal_fault_) {
      wal = kNodeWalFaults[*wal_fault_];
      wal_fired_before = reg.triggered(wal->site);
      ASSERT_TRUE(reg.Arm(wal->site, wal->spec).ok());
      (*active)[kNodeWal] = true;
    }
    for (size_t i : restarts_) {
      faulty.Restart(i);
      last_restart_ = t;
    }
    faulty.StepTo(t);
    for (size_t u = next_motion_; u < motion_.size() && motion_[u].at <= t;
         ++u) {
      if (faulty.nodes[motion_[u].id] != nullptr) {
        faulty.nodes[motion_[u].id]->UpdateMotion(motion_[u].position,
                                                  motion_[u].velocity);
      }
    }
    if (wal) {
      reg.Disarm(wal->site);
      if (reg.triggered(wal->site) > wal_fired_before) {
        ++report->fired[kNodeWal];
        if (last_restart_ >= 0 && t - last_restart_ <= kRejoinWindow) {
          ++report->wal_fault_during_rejoin;
        }
        wal_fault_.reset();
      } else if (t >= wal_deadline_) {
        wal_fault_.reset();
      }
    }
    const SimNetwork::Stats after = faulty.net.stats();
    if (after.dropped_loss + after.duplicated + after.reordered >
        before.dropped_loss + before.duplicated + before.reordered) {
      ++report->fired[kNetwork];
      (*active)[kNetwork] = true;
    }
    if (after.dropped_partition > before.dropped_partition) {
      ++report->fired[kPartition];
    }
    const ReliableEndpoint::Stats channel_after =
        faulty.coordinator->channel().stats();
    if (channel_after.peers_evicted > channel_before.peers_evicted) {
      report->storm_levers |= kEvictedLever;
    }
    if (channel_after.frames_shed > channel_before.frames_shed) {
      report->storm_levers |= kShedLever;
      ++report->fired[kStorm];
    }
    ASSERT_NO_FATAL_FAILURE(CheckCaps(t));
    ResourceGovernor::Global().set_limits({});
    twin.StepTo(t);
    for (; next_motion_ < motion_.size() && motion_[next_motion_].at <= t;
         ++next_motion_) {
      const MotionUpdate& u = motion_[next_motion_];
      twin.nodes[u.id]->UpdateMotion(u.position, u.velocity);
    }
    (*active)[kCrash] = std::any_of(
        faulty.nodes.begin(), faulty.nodes.end(),
        [](const auto& node) { return node == nullptr; });
    for (size_t i = 0; i < kVehicles; ++i) {
      const bool unreachable = faulty.nodes[i] == nullptr || cut_.count(i);
      if (!unreachable) {
        unreachable_since_[i] = -1;
      } else if (unreachable_since_[i] < 0) {
        unreachable_since_[i] = t;
      }
    }
  }

  std::vector<size_t> Unacked() const {
    std::vector<size_t> out = {faulty.coordinator->channel().unacked()};
    for (const auto& node : faulty.nodes) {
      out.push_back(node == nullptr ? 0 : node->channel().unacked());
    }
    return out;
  }

  /// While a cap is set no endpoint buffers more than the cap per peer.
  /// Frames already pending when the storm began are excepted: a cap
  /// sheds new sends, it does not drop queued ones. A node has one peer,
  /// its home; the coordinator one buffer per vehicle.
  void CheckCaps(Tick t) {
    if (!storm_ || kStorms[*storm_].channel_max_unacked_messages == 0) return;
    const size_t cap = kStorms[*storm_].channel_max_unacked_messages;
    const std::vector<size_t> now = Unacked();
    ASSERT_LE(now[0], cap * kVehicles + cap_floor_[0])
        << "coordinator at tick " << t;
    for (size_t e = 1; e < now.size(); ++e) {
      ASSERT_LE(now[e], std::max(cap, cap_floor_[e]))
          << "vehicle " << e - 1 << " at tick " << t;
    }
  }

  void IssueContinuousQueries() {
    const FtlQuery cq = test::MustParse(
        "RETRIEVE o FROM FLEET o WHERE EVENTUALLY WITHIN 60 INSIDE(o, P)");
    for (NodeWorld* w : {&faulty, &twin}) {
      cq_broadcast = w->coordinator->IssueObjectQuery(
          cq, DistStrategy::kBroadcastFilter, /*continuous=*/true, 512);
      cq_collect = w->coordinator->IssueObjectQuery(
          cq, DistStrategy::kCollect, /*continuous=*/true, 512);
    }
  }

  // Node 0 mirrors the broadcast query's Answer(CQ) in both worlds; the
  // faulty mirror survives crashes through its WAL and delta catch-up.
  void SubscribeMirrors() {
    for (NodeWorld* w : {&faulty, &twin}) {
      if (w->nodes[0] == nullptr) continue;
      EXPECT_TRUE(w->coordinator
                      ->SubscribeAnswerMirror(cq_broadcast,
                                              w->nodes[0]->node_id())
                      .ok());
    }
  }

  void CheckCoordinator(Tick t) {
    const Coordinator& c = *faulty.coordinator;
    bool must_degrade = !c.ExpiredLeases().empty();
    for (Tick since : unreachable_since_) {
      // Frames in flight when the node went away land up to latency +
      // jitter later and renew its lease once more.
      must_degrade |= since >= 0 && t - since > NodeWorld::kLivenessTimeout +
                                                    kLossy.reorder_jitter + 2;
    }
    if (!must_degrade) return;
    auto reported = c.ReportedMatches(cq_broadcast);
    auto collected = c.EvaluateCollected(cq_collect);
    ASSERT_TRUE(reported.ok() && collected.ok());
    ASSERT_NE(reported->confidence, Confidence::kCertain)
        << "kCertain broadcast answer with a node gone at tick " << t;
    ASSERT_NE(collected->confidence, Confidence::kCertain)
        << "kCertain collect answer with a node gone at tick " << t;
  }

  bool NamesArmedSite(const Status& s) const {
    return eval_armed_ && s.message().find(kEvalSite) != std::string::npos;
  }

  /// The engine step: an optional Reshard, one tick of updates, then one
  /// gather per query against the oracle — all under the storm's refresh
  /// limits (or a never-tripping budget gate, so an armed evaluator fault
  /// can fire).
  void StepEngine(RunReport* report, ActiveFamilies* active) {
    auto& reg = FailpointRegistry::Instance();
    ResourceGovernor::Limits limits = StormLimits();
    if (eval_armed_ && limits.refresh_budget.Unlimited()) {
      limits.refresh_budget.max_rows = 1u << 20;
    }
    ResourceGovernor& gov = ResourceGovernor::Global();
    gov.set_limits(limits);
    const uint64_t degrades_before = gov.degrades_total();
    const uint64_t eval_before = reg.triggered(kEvalSite);
    if (reshard_to_) {
      ++report->fired[kReshard];
      if (storm_ || eval_armed_) ++report->reshard_during_storm_or_eval;
      ASSERT_NO_FATAL_FAILURE(Reshard(*reshard_to_));
    }
    Status advanced = eng.Advance();
    ASSERT_TRUE(advanced.ok() || NamesArmedSite(advanced)) << advanced;
    for (EngineWorld::Slot& slot : eng.slots) {
      auto got = eng.engine->ContinuousAnswer(slot.id);
      if (!got.ok()) {
        ASSERT_TRUE(NamesArmedSite(got.status())) << got.status();
        continue;
      }
      const std::vector<AnswerTuple> want = eng.Oracle(&slot);
      if (got->complete()) {
        ASSERT_EQ(test::SerializeTuples(got->tuples),
                  test::SerializeTuples(want))
            << "complete gather diverged from the oracle: "
            << slot.query.ToString() << " at engine tick " << eng.db.Now();
        continue;
      }
      for (const AnswerTuple& tuple : got->tuples) {
        ASSERT_EQ(tuple.confidence, Confidence::kStale)
            << "incomplete gather vouched for a tuple";
        ASSERT_TRUE(slot.seen.count(tuple.binding))
            << "degraded gather invented a binding: " << slot.query.ToString();
      }
    }
    if (gov.degrades_total() > degrades_before) {
      report->storm_levers |= kRefreshLever;
      ++report->fired[kStorm];
    }
    if (reg.triggered(kEvalSite) > eval_before) {
      ++report->fired[kEvalFault];
      eval_armed_ = false;  // error*1 spent.
    }
    (*active)[kEvalFault] = (*active)[kEvalFault] || eval_armed_;
    gov.set_limits({});
  }

  /// A Reshard re-anchors every window — unless its initial drain failed,
  /// which leaves the engine as it was. A query whose re-registration
  /// failed is gone, named in the error; it is registered afresh.
  void Reshard(size_t shards) {
    Status s = eng.engine->Reshard(shards);
    const bool rebuilt =
        s.ok() || s.message().find("re-registering") != std::string::npos;
    if (rebuilt) {
      for (EngineWorld::Slot& slot : eng.slots) {
        slot.window.Anchor(eng.db.Now());
      }
    }
    if (s.ok()) return;
    ASSERT_TRUE(NamesArmedSite(s)) << s;
    size_t dropped = 0;
    for (EngineWorld::Slot& slot : eng.slots) {
      if (eng.engine->ContinuousAnswer(slot.id).status().code() !=
          StatusCode::kNotFound) {
        continue;
      }
      ++dropped;
      ASSERT_NE(s.message().find("sharded query " + std::to_string(slot.id) +
                                 ":"),
                std::string::npos)
          << "Reshard dropped query " << slot.id << " without naming it: " << s;
      ASSERT_TRUE(eng.Register(&slot).ok());
    }
    ASSERT_LE(dropped, 1u) << "one failed re-registration dropped " << dropped
                           << " queries";
  }

  /// Lift every fault, restart, heal, barrier-flush, quiesce; then the
  /// byte-identical comparisons.
  void Converge() {
    FailpointRegistry::Instance().Disarm(kEvalSite);
    eval_armed_ = false;
    storm_.reset();
    ResourceGovernor::Global().set_limits({});
    for (size_t i = 0; i < kVehicles; ++i) {
      if (faulty.nodes[i] == nullptr) faulty.Restart(i);
    }
    faulty.net.HealAll();
    auto step_both = [&](Tick until) {
      faulty.StepTo(until);
      twin.StepTo(until);
    };
    step_both(kSettleEnd);
    // Barrier flush: the same motion on every node at the same tick in
    // both worlds; every node whose answer shifted re-reports.
    for (size_t i = 0; i < kVehicles; ++i) {
      const ObjectState& s = twin.nodes[i]->state();
      faulty.nodes[i]->UpdateMotion(s.position, s.velocity);
      twin.nodes[i]->UpdateMotion(s.position, s.velocity);
    }
    step_both(kIssueOneShots);
    // One-shots are anchored at their issue tick, so both worlds evaluate
    // the same window however late their requests land.
    const FtlQuery oq = test::MustParse(
        "RETRIEVE o FROM FLEET o WHERE EVENTUALLY WITHIN 40 INSIDE(o, P)");
    const FtlQuery rq = test::MustParse(
        "RETRIEVE o, n FROM FLEET o, FLEET n "
        "WHERE EVENTUALLY DIST(o, n) <= 50");
    uint64_t os_broadcast = 0, os_collect = 0, rel = 0;
    for (NodeWorld* w : {&faulty, &twin}) {
      os_broadcast = w->coordinator->IssueObjectQuery(
          oq, DistStrategy::kBroadcastFilter, /*continuous=*/false, 256);
      os_collect = w->coordinator->IssueObjectQuery(
          oq, DistStrategy::kCollect, /*continuous=*/false, 256);
      rel = w->coordinator->IssueRelationshipQuery(rq, 256);
    }
    step_both(kFinal);
    ASSERT_TRUE(faulty.Quiescent()) << "unacked frames at tick " << kFinal;
    ASSERT_TRUE(twin.Quiescent());
    for (uint64_t qid : {cq_broadcast, os_broadcast}) {
      EXPECT_EQ(test::SerializeReported(*faulty.coordinator, qid),
                test::SerializeReported(*twin.coordinator, qid));
      EXPECT_EQ(faulty.coordinator->ReportedMatches(qid)->confidence,
                Confidence::kCertain)
          << "qid " << qid;
    }
    for (uint64_t qid : {cq_collect, os_collect, rel}) {
      EXPECT_EQ(test::SerializeCollected(*faulty.coordinator, qid),
                test::SerializeCollected(*twin.coordinator, qid));
      EXPECT_EQ(faulty.coordinator->EvaluateCollected(qid)->confidence,
                Confidence::kCertain)
          << "qid " << qid;
    }
    EXPECT_EQ(MirrorString(faulty.nodes[0]->AnswerMirror(cq_broadcast)),
              MirrorString(twin.nodes[0]->AnswerMirror(cq_broadcast)))
        << "node 0's recovered mirror diverged from the twin's";
    EXPECT_EQ(
        MirrorString(faulty.nodes[0]->AnswerMirror(cq_broadcast)),
        test::SerializeMatches(
            faulty.coordinator->ReportedMatches(cq_broadcast)->matches));

    // The engine drains its cooldowns with the limits lifted, then every
    // answer is complete and byte-identical to the oracle.
    for (Tick k = 0; k <= kMaxCooldown; ++k) {
      ASSERT_TRUE(eng.Advance().ok());
    }
    for (EngineWorld::Slot& slot : eng.slots) {
      auto got = eng.engine->ContinuousAnswer(slot.id);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_TRUE(got->complete());
      EXPECT_EQ(test::SerializeTuples(got->tuples),
                test::SerializeTuples(eng.Oracle(&slot)))
          << slot.query.ToString();
    }
  }

  std::vector<FaultEvent> schedule_;
  size_t next_event_ = 0;
  std::vector<MotionUpdate> motion_;
  size_t next_motion_ = 0;
  std::set<size_t> cut_;
  std::vector<size_t> restarts_;
  Tick last_restart_ = -1;
  std::vector<Tick> unreachable_since_ = std::vector<Tick>(kVehicles, -1);
  std::optional<uint64_t> wal_fault_;
  Tick wal_deadline_ = 0;
  std::optional<uint64_t> storm_;
  std::vector<size_t> cap_floor_;
  bool eval_armed_ = false;
  std::optional<size_t> reshard_to_;
};

/// Runs one schedule; on failure prints it with the replay command.
void RunSchedule(uint64_t seed, const std::vector<FaultEvent>& schedule,
                 const test::FaultRates& rates, RunReport* report,
                 const FaultSim::Probe& probe = nullptr) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  const ::testing::TestResult& result =
      *::testing::UnitTest::GetInstance()->current_test_info()->result();
  const int failures_before = result.total_part_count();
  {
    FaultSim sim(seed, schedule, rates);
    sim.Run(report, probe);
  }
  if (result.total_part_count() > failures_before) {
    std::cout << "fault schedule (seed " << seed
              << "; a sweep seed replays with MOST_TEST_SEED=" << seed
              << "):\n"
              << Describe(schedule);
  }
}

TEST(FaultSimTest, RandomSchedulesHoldEveryInvariant) {
  for (uint64_t seed : test::SuiteSeeds(
           "FaultSim.Sweep", {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                              15, 16, 17, 18, 19, 20, 42, 1997, 4099,
                              20260809})) {
    RunSchedule(seed, RandomSchedule(seed), kLossy, &g_sweep);
  }
}

// Scripted: a partition cuts two nodes off before the queries are issued.
// The broadcast answer names exactly those nodes missing, never claims
// certainty while they are cut, and turns certain again after the heal.
TEST(FaultSimTest, PartialAnswersNameTheMissingNodes) {
  constexpr Tick kHeal = 90;
  const std::vector<FaultEvent> schedule = {
      {.at = 5, .kind = Kind::kCut, .arg = (1u << 1) | (1u << 4)},
      {.at = kHeal, .kind = Kind::kHeal},
  };
  RunReport report;
  RunSchedule(5, schedule, /*rates=*/{}, &report, [](FaultSim& sim, Tick t) {
    const Coordinator& c = *sim.faulty.coordinator;
    if (t < kWarmup + 4) return;
    auto answer = c.ReportedMatches(sim.cq_broadcast);
    ASSERT_TRUE(answer.ok());
    if (t < kHeal) {
      const std::set<NodeId> cut = {sim.faulty.ids[1], sim.faulty.ids[4]};
      ASSERT_NE(answer->confidence, Confidence::kCertain) << "tick " << t;
      ASSERT_EQ(answer->missing, cut) << "tick " << t;
      if (t > kWarmup + 64) {
        ASSERT_TRUE(c.DeadlinePassed(sim.cq_broadcast));
      }
    } else if (t >= kHeal + 50) {
      ASSERT_EQ(answer->confidence, Confidence::kCertain) << "tick " << t;
      ASSERT_TRUE(answer->missing.empty());
    }
  });
}

// Scripted: one node crashes on a lossless network. Past the liveness
// horizon its lease expires and the answer degrades with it missing; it
// restarts from its WAL under the same id and a bumped incarnation, and
// certainty returns.
TEST(FaultSimTest, LeaseExpiryDegradesAndRejoinRestores) {
  constexpr Tick kCrashAt = 20;
  constexpr Tick kRestartAt = 80;
  const std::vector<FaultEvent> schedule = {
      {.at = kCrashAt, .kind = Kind::kCrash, .arg = 2},
      {.at = kRestartAt, .kind = Kind::kRestart, .arg = 2},
  };
  RunReport report;
  RunSchedule(9, schedule, /*rates=*/{}, &report, [](FaultSim& sim, Tick t) {
    const Coordinator& c = *sim.faulty.coordinator;
    const MobileNode* node = sim.faulty.nodes[2].get();
    const NodeId victim = sim.faulty.ids[2];
    if (t == kRestartAt - 1) {
      EXPECT_FALSE(c.IsLive(victim));
      EXPECT_TRUE(c.ExpiredLeases().count(victim));
      auto stale = c.ReportedMatches(sim.cq_broadcast);
      ASSERT_TRUE(stale.ok());
      EXPECT_EQ(stale->confidence, Confidence::kStale);
      EXPECT_TRUE(stale->missing.count(victim));
      EXPECT_GE(c.recovery_stats().lease_expirations, 1u);
    }
    if (t == kRestartAt) {
      EXPECT_TRUE(node->recovered_from_wal());
      EXPECT_EQ(node->incarnation(), 1u);
      EXPECT_EQ(node->node_id(), victim) << "network id not reclaimed";
    }
    if (t == kRestartAt + 30) {
      EXPECT_TRUE(c.IsLive(victim));
      auto healed = c.ReportedMatches(sim.cq_broadcast);
      ASSERT_TRUE(healed.ok());
      EXPECT_EQ(healed->confidence, Confidence::kCertain);
      EXPECT_TRUE(healed->missing.empty());
      EXPECT_GE(c.recovery_stats().rejoins, 1u);
    }
  });
}

// Runs last (gtest keeps in-file order): the sweep must have exercised
// every family, and exercised them together.
TEST(FaultSimTest, ZSummaryEveryFamilyFiredTogether) {
  for (size_t f = 0; f < kFamilies; ++f) {
    EXPECT_GT(g_sweep.fired[f], 0u) << kFamilyNames[f] << " never fired";
  }
  // Each lever needs the right storm over the right partition; the sweep
  // must show all of them, a one-seed replay need not.
  if (!test::SeedOverridden()) {
    EXPECT_EQ(g_sweep.storm_levers, kRefreshLever | kShedLever | kEvictedLever)
        << "a storm lever never acted";
  }
  EXPECT_GE(g_sweep.multi_family_ticks, 100u);
  EXPECT_GT(g_sweep.lease_expiries, 0u);
  EXPECT_GT(g_sweep.crash_during_partition, 0u);
  EXPECT_GT(g_sweep.wal_fault_during_rejoin, 0u);
  EXPECT_GT(g_sweep.reshard_during_storm_or_eval, 0u);
  // ci.sh arms this probe through MOST_FAILPOINTS; the simulation loop
  // checks it once per tick, so fewer hits than ticks means the env
  // plumbing or the loop is broken.
  const char* env = std::getenv("MOST_FAILPOINTS");
  if (env != nullptr && std::string(env).find("ci/sim_probe") !=
                            std::string::npos) {
    EXPECT_GT(g_simulated_ticks, 0u);
    EXPECT_GE(FailpointRegistry::Instance().triggered("ci/sim_probe"),
              g_simulated_ticks);
  }
}

}  // namespace
}  // namespace most
