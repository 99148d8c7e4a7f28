#ifndef MOST_TESTS_SIM_WORLD_H_
#define MOST_TESTS_SIM_WORLD_H_

// The worlds the fault simulation (fault_sim_test.cc) drives:
//
//  * NodeWorld — a coordinator and a small fleet of mobile nodes over a
//    SimNetwork, optionally WAL-backed, plus the helpers that compare two
//    such worlds' answers byte for byte;
//  * EngineWorld — a small fleet under a ShardedEngine with per-shard
//    WALs, running three continuous queries, each checked against an
//    oracle: a fresh, unbudgeted FtlEvaluator over the query's window,
//    flattened through QueryManager::FlattenAnswer.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/sharded_engine.h"
#include "distributed/coordinator.h"
#include "distributed/mobile_node.h"
#include "ftl/eval.h"
#include "ftl/parser.h"
#include "ftl/query_manager.h"
#include "workload/fleet.h"

namespace most::test {

/// Message fates a world's network injects. Default-constructed: a
/// lossless network.
struct FaultRates {
  double loss = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  Tick reorder_jitter = 3;
};

/// Scratch path unique to this process: ctest may run the plain and the
/// _fixed_seed entry of one binary at the same time.
inline std::string SimTempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(getpid()) + "_" + name;
}

inline FtlQuery MustParse(const std::string& s) {
  auto q = ParseQuery(s);
  EXPECT_TRUE(q.ok()) << q.status();
  return *q;
}

/// A coordinator and kVehicles mobile nodes. Both worlds of a
/// differential pair are built from the same FleetGenerator seed, so
/// object state is identical; only message and process fate differ.
///
/// With a non-empty `wal_prefix` every node is backed by its own WAL
/// (truncated first), and Crash() kills a node — destroying the object;
/// its network entry stays, handler nulled, exactly like a dead process
/// whose address keeps routing — while Restart() re-creates it on the
/// same log.
struct NodeWorld {
  static constexpr size_t kVehicles = 6;
  static constexpr Tick kLivenessTimeout = 40;

  Clock clock;
  SimNetwork net;
  std::map<std::string, Polygon> regions;
  std::unique_ptr<Coordinator> coordinator;
  std::vector<std::unique_ptr<MobileNode>> nodes;
  std::vector<ObjectState> initial;
  std::vector<NodeId> ids;  ///< Network id of vehicle i (kept on restart).
  std::vector<std::string> wal_paths;
  MobileNode::Options node_options;

  NodeWorld(const FaultRates& faults, uint64_t net_seed,
            const std::string& wal_prefix = "")
      : net(&clock, {.latency = 1,
                     .loss_probability = faults.loss,
                     .duplicate_probability = faults.duplicate,
                     .reorder_probability = faults.reorder,
                     .reorder_jitter = faults.reorder_jitter,
                     .seed = net_seed}),
        regions({{"P", Polygon::Rectangle({40, 40}, {160, 160})}}) {
    Coordinator::Options copts;
    // 10 beacon periods: a *false* death verdict needs 10 consecutive
    // beacon losses (~loss^10), so post-heal re-syncs fire only for
    // genuine partition- or crash-induced deaths. That keeps the two
    // worlds' post-barrier reports aligned for the byte-identical
    // comparison.
    copts.liveness_timeout = kLivenessTimeout;
    coordinator = std::make_unique<Coordinator>(&net, &clock, regions, copts);
    FleetGenerator fleet(
        {.num_vehicles = kVehicles, .area = 200.0, .seed = 77});
    node_options.beacon_interval = 4;  // Heartbeats drive liveness + re-sync.
    node_options.home = coordinator->node_id();
    initial = fleet.initial_states();
    for (size_t i = 0; i < initial.size(); ++i) {
      MobileNode::Options opts = node_options;
      if (!wal_prefix.empty()) {
        opts.wal_path = SimTempPath(wal_prefix + "_" +
                                    std::to_string(net_seed) + "_" +
                                    std::to_string(i) + ".wal");
        std::remove(opts.wal_path.c_str());  // Fresh log per run.
        wal_paths.push_back(opts.wal_path);
      }
      nodes.push_back(std::make_unique<MobileNode>(&net, &clock, initial[i],
                                                   regions, opts));
      ids.push_back(nodes.back()->node_id());
    }
  }

  ~NodeWorld() {
    nodes.clear();
    for (const std::string& path : wal_paths) std::remove(path.c_str());
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

inline std::string SerializeMissing(Confidence confidence,
                                    const std::set<NodeId>& missing) {
  std::ostringstream out;
  out << "confidence="
      << (confidence == Confidence::kCertain ? "certain" : "stale")
      << " missing={";
  for (NodeId id : missing) out << id << ",";
  out << "}";
  return out.str();
}

inline std::string SerializeMatches(
    const std::map<ObjectId, IntervalSet>& matches) {
  std::ostringstream out;
  for (const auto& [id, when] : matches) {
    out << " " << id << "->" << when.ToString();
  }
  return out.str();
}

inline std::string SerializeReported(const Coordinator& c, uint64_t qid) {
  auto answer = c.ReportedMatches(qid);
  if (!answer.ok()) return "error: " + answer.status().ToString();
  return SerializeMissing(answer->confidence, answer->missing) +
         SerializeMatches(answer->matches);
}

inline std::string SerializeCollected(const Coordinator& c, uint64_t qid) {
  auto answer = c.EvaluateCollected(qid);
  if (!answer.ok()) return "error: " + answer.status().ToString();
  return SerializeMissing(answer->confidence, answer->missing) + "\n" +
         answer->relation.ToString();
}

/// Answer tuples as text, so a divergence prints readably.
inline std::string SerializeTuples(const std::vector<AnswerTuple>& tuples) {
  std::ostringstream out;
  for (const AnswerTuple& t : tuples) {
    out << "(";
    for (ObjectId id : t.binding) out << id << ",";
    out << ")" << t.interval.ToString()
        << (t.confidence == Confidence::kCertain ? " " : "~ ");
  }
  return out.str();
}

/// A small fleet under a ShardedEngine with per-shard WALs. Each query
/// slot keeps the window its oracle evaluates: [anchor, anchor + horizon],
/// re-anchored at registration, at Reshard and on expiry — exactly when
/// the engine's shard managers re-anchor theirs.
struct EngineWorld {
  static constexpr size_t kCars = 8;
  static constexpr Tick kHorizon = 48;
  static constexpr size_t kInitialShards = 4;

  struct Slot {
    FtlQuery query;
    ShardedEngine::QueryId id = 0;
    Tick anchor = 0;
    /// Every binding the oracle ever emitted for this slot: a degraded
    /// gather may serve old tuples, never invented ones.
    std::set<std::vector<ObjectId>> seen;
  };

  std::string wal_dir;
  MostDatabase db;
  FleetGenerator fleet;
  std::vector<MotionUpdate> updates;
  size_t next_update = 0;
  std::unique_ptr<ShardedEngine> engine;
  /// Flattens oracle relations exactly as the engine's gather does.
  std::unique_ptr<QueryManager> flattener;
  std::vector<Slot> slots;

  EngineWorld(uint64_t seed, Tick until)
      : wal_dir(SimTempPath("sim_shards_" + std::to_string(seed))),
        fleet({.num_vehicles = kCars,
               .area = 100.0,
               .change_probability = 0.15,
               .seed = seed}) {
    std::filesystem::remove_all(wal_dir);
    EXPECT_TRUE(fleet.Populate(&db, "CARS").ok());
    EXPECT_TRUE(
        db.DefineRegion("P", Polygon::Rectangle({30, 30}, {70, 70})).ok());
    updates = fleet.GenerateUpdates(until);
    ShardedEngine::Options opts;
    opts.shard_count = kInitialShards;
    opts.query_options.horizon = kHorizon;
    opts.wal_dir = wal_dir;
    engine = std::make_unique<ShardedEngine>(&db, opts);
    flattener = std::make_unique<QueryManager>(
        &db, QueryManager::Options{.horizon = kHorizon, .listen = false});
    for (const char* text : {
             "RETRIEVE o FROM CARS o WHERE INSIDE(o, P)",
             "RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 50 INSIDE(o, P)",
             // The budget-buster: kCars^2 candidate rows trip max_rows
             // while the single-variable queries fit.
             "RETRIEVE o, n FROM CARS o, CARS n WHERE DIST(o, n) <= 25",
         }) {
      slots.emplace_back().query = MustParse(text);
    }
  }

  ~EngineWorld() {
    engine.reset();
    std::filesystem::remove_all(wal_dir);
  }

  Status Register(Slot* slot) {
    Result<ShardedEngine::QueryId> id = engine->RegisterContinuous(slot->query);
    if (!id.ok()) return id.status();
    slot->id = *id;
    slot->anchor = db.Now();
    return Status::OK();
  }

  /// Enqueues the updates due at the next tick and advances to it.
  Status Advance() {
    const Tick t = db.Now() + 1;
    for (; next_update < updates.size() && updates[next_update].at <= t;
         ++next_update) {
      const MotionUpdate& u = updates[next_update];
      engine->EnqueueMotion("CARS", u.id, u.position, u.velocity);
    }
    Status s = engine->Advance(1);
    for (Slot& slot : slots) {
      if (db.Now() > slot.anchor + kHorizon) slot.anchor = db.Now();
    }
    return s;
  }

  /// The oracle's Answer(CQ) for `slot` at the current tick.
  std::vector<AnswerTuple> Oracle(Slot* slot) {
    FtlEvaluator fresh(db);
    auto rel = fresh.EvaluateQuery(
        slot->query, Interval(slot->anchor, slot->anchor + kHorizon));
    EXPECT_TRUE(rel.ok()) << rel.status();
    if (!rel.ok()) return {};
    for (const auto& [binding, when] : rel->rows) slot->seen.insert(binding);
    return flattener->FlattenAnswer(slot->query, *rel, /*force_stale=*/false);
  }
};

}  // namespace most::test

#endif  // MOST_TESTS_SIM_WORLD_H_
