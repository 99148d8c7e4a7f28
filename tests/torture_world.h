#ifndef MOST_TESTS_TORTURE_WORLD_H_
#define MOST_TESTS_TORTURE_WORLD_H_

// The simulated distributed world the torture suites share
// (partition_torture_test.cc, crash_restart_torture_test.cc): a
// coordinator and a small fleet of mobile nodes over a SimNetwork, plus
// the helpers that compare two such worlds' answers byte for byte.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "distributed/coordinator.h"
#include "distributed/mobile_node.h"
#include "ftl/parser.h"
#include "workload/fleet.h"

namespace most::test {

/// Message fates a torture world's network injects. Default-constructed:
/// a lossless network.
struct FaultRates {
  double loss = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  Tick reorder_jitter = 3;
};

inline SimNetwork::Options NetOptions(const FaultRates& faults,
                                      uint64_t seed) {
  SimNetwork::Options o;
  o.latency = 1;
  o.seed = seed;
  o.loss_probability = faults.loss;
  o.duplicate_probability = faults.duplicate;
  o.reorder_probability = faults.reorder;
  o.reorder_jitter = faults.reorder_jitter;
  return o;
}

/// One complete simulation: a coordinator and kVehicles mobile nodes. Both
/// worlds of a differential pair are built from the same FleetGenerator
/// seed, so object state is identical; only message fate (and, in the
/// crash suite, process fate) differs.
///
/// With a non-empty `wal_prefix` every node is backed by its own WAL
/// (`<TempDir>/<wal_prefix>_<net_seed>_<i>.wal`, truncated first), and
/// Crash() kills a node — destroying the object; its network entry stays,
/// handler nulled, exactly like a dead process whose address keeps
/// routing — while Restart() re-creates it on the same log.
struct TortureWorld {
  static constexpr size_t kVehicles = 6;

  Clock clock;
  SimNetwork net;
  std::map<std::string, Polygon> regions;
  std::unique_ptr<Coordinator> coordinator;
  std::vector<std::unique_ptr<MobileNode>> nodes;
  std::vector<ObjectState> initial;
  std::vector<std::string> wal_paths;
  MobileNode::Options node_options;

  TortureWorld(const FaultRates& faults, uint64_t net_seed,
               const std::string& wal_prefix = "")
      : net(&clock, NetOptions(faults, net_seed)),
        regions({{"P", Polygon::Rectangle({40, 40}, {160, 160})}}) {
    Coordinator::Options copts;
    // 10 beacon periods: a *false* death verdict needs 10 consecutive
    // beacon losses (~loss^10), so post-heal re-syncs fire only for
    // genuine partition- or crash-induced deaths. That keeps the two
    // worlds' post-barrier reports aligned for the byte-identical
    // comparison.
    copts.liveness_timeout = 40;
    coordinator = std::make_unique<Coordinator>(&net, &clock, regions, copts);
    FleetGenerator fleet(
        {.num_vehicles = kVehicles, .area = 200.0, .seed = 77});
    node_options.beacon_interval = 4;  // Heartbeats drive liveness + re-sync.
    node_options.home = coordinator->node_id();
    initial = fleet.initial_states();
    for (size_t i = 0; i < initial.size(); ++i) {
      MobileNode::Options opts = node_options;
      if (!wal_prefix.empty()) {
        opts.wal_path = ::testing::TempDir() + "/" + wal_prefix + "_" +
                        std::to_string(net_seed) + "_" + std::to_string(i) +
                        ".wal";
        std::remove(opts.wal_path.c_str());  // Fresh log per run.
        wal_paths.push_back(opts.wal_path);
      }
      nodes.push_back(std::make_unique<MobileNode>(&net, &clock, initial[i],
                                                   regions, opts));
    }
  }

  void Crash(size_t i) { nodes[i].reset(); }

  void Restart(size_t i) {
    MobileNode::Options opts = node_options;
    opts.wal_path = wal_paths.at(i);
    // The "initial" state passed here is the stale boot-time one; the
    // node must recover its real pre-crash state from the WAL instead.
    nodes[i] = std::make_unique<MobileNode>(&net, &clock, initial[i],
                                            regions, opts);
  }

  void StepTo(Tick until) {
    while (clock.Now() < until) {
      clock.Advance();
      net.DeliverDue();
    }
  }

  /// Every live endpoint has had all its reliable frames acknowledged.
  bool Quiescent() const {
    if (coordinator->channel().unacked() > 0) return false;
    for (const auto& node : nodes) {
      if (node != nullptr && node->channel().unacked() > 0) return false;
    }
    return true;
  }
};

inline FtlQuery MustParse(const std::string& s) {
  auto q = ParseQuery(s);
  EXPECT_TRUE(q.ok()) << q.status();
  return *q;
}

inline std::string SerializeReported(const Coordinator& c, uint64_t qid) {
  auto answer = c.ReportedMatches(qid);
  if (!answer.ok()) return "error: " + answer.status().ToString();
  std::ostringstream out;
  out << "confidence="
      << (answer->confidence == Confidence::kCertain ? "certain" : "stale");
  out << " missing={";
  for (NodeId id : answer->missing) out << id << ",";
  out << "}";
  for (const auto& [id, when] : answer->matches) {
    out << " " << id << "->" << when.ToString();
  }
  return out.str();
}

inline std::string SerializeCollected(const Coordinator& c, uint64_t qid) {
  auto answer = c.EvaluateCollected(qid);
  if (!answer.ok()) return "error: " + answer.status().ToString();
  std::ostringstream out;
  out << "confidence="
      << (answer->confidence == Confidence::kCertain ? "certain" : "stale");
  out << " missing={";
  for (NodeId id : answer->missing) out << id << ",";
  out << "}\n";
  out << answer->relation.ToString();
  return out.str();
}

}  // namespace most::test

#endif  // MOST_TESTS_TORTURE_WORLD_H_
