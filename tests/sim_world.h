#ifndef MOST_TESTS_SIM_WORLD_H_
#define MOST_TESTS_SIM_WORLD_H_

// The simulated worlds the randomized suites drive:
//
//  * AnswerWindow — the one oracle of a continuous answer: a fresh,
//    unbudgeted FtlEvaluator over the window the manager keeps for the
//    query, flattened through QueryManager::FlattenAnswer;
//  * NodeWorld — a coordinator and a small fleet of mobile nodes over a
//    SimNetwork, optionally WAL-backed, plus the helpers that compare two
//    such worlds' answers byte for byte (fault_sim_test.cc);
//  * EngineWorld — a small fleet under a ShardedEngine with per-shard
//    WALs, running three continuous queries, each checked against its
//    AnswerWindow (fault_sim_test.cc);
//  * the differential harness (differential_test.cc) — one generator of
//    worlds and schedules (SimSchedule), and one driver (RunSchedule)
//    that runs a schedule through cells of a configuration matrix
//    (SimConfig) and checks every live query at every tick the schedule
//    visits, §2.3's continuous-equals-instantaneous property included.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/sharded_engine.h"
#include "distributed/coordinator.h"
#include "distributed/mobile_node.h"
#include "ftl/eval.h"
#include "ftl/naive_eval.h"
#include "ftl/parser.h"
#include "ftl/query_manager.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "scoped_governor_limits.h"
#include "test_seed.h"
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

/// The window a manager evaluates a continuous query over: [anchor,
/// anchor + horizon] from registration, slid to [now, now + horizon] on
/// the first tick past its end that the manager is consulted on
/// (QueryManager::SlideExpiredWindow). A caller slides it on every such
/// tick, and anchors it again wherever the manager re-anchors (a
/// registration, a Reshard). Answer() is the one oracle of a continuous
/// answer.
class AnswerWindow {
 public:
  explicit AnswerWindow(Tick horizon, Tick anchor = 0)
      : horizon_(horizon), anchor_(anchor) {}

  void Anchor(Tick now) { anchor_ = now; }
  /// Slides the window if `now` is past its end; returns it.
  Interval At(Tick now) {
    if (now > end()) anchor_ = now;
    return Interval(anchor_, end());
  }
  Tick end() const { return TickSaturatingAdd(anchor_, horizon_); }

  /// Answer(CQ) at the database's current tick: a fresh, unbudgeted
  /// evaluation over the window, flattened exactly as the manager (or the
  /// engine's gather) flattens its own. `relation` (optional) receives the
  /// evaluated relation.
  std::vector<AnswerTuple> Answer(const MostDatabase& db,
                                  const FtlQuery& query,
                                  const QueryManager& flattener,
                                  TemporalRelation* relation = nullptr) {
    FtlEvaluator fresh(db);
    auto rel = fresh.EvaluateQuery(query, At(db.Now()));
    EXPECT_TRUE(rel.ok()) << rel.status()
                          << "\nformula: " << query.where->ToString();
    if (!rel.ok()) return {};
    std::vector<AnswerTuple> tuples =
        flattener.FlattenAnswer(query, *rel, /*force_stale=*/false);
    if (relation != nullptr) *relation = std::move(*rel);
    return tuples;
  }

 private:
  Tick horizon_;
  Tick anchor_;
};

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
/// slot keeps the window its oracle evaluates, anchored at registration
/// and at Reshard and slid on expiry — exactly when the engine's shard
/// managers move theirs.
struct EngineWorld {
  static constexpr size_t kCars = 8;
  static constexpr Tick kHorizon = 48;
  static constexpr size_t kInitialShards = 4;

  struct Slot {
    FtlQuery query;
    ShardedEngine::QueryId id = 0;
    AnswerWindow window{kHorizon};
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
             // Its projection: a car n near cars of several shards is a
             // row of each, which the gather unions.
             "RETRIEVE n FROM CARS o, CARS n WHERE DIST(o, n) <= 25",
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
    slot->window.Anchor(db.Now());
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
    for (Slot& slot : slots) slot.window.At(db.Now());
    return s;
  }

  /// The oracle's Answer(CQ) for `slot` at the current tick.
  std::vector<AnswerTuple> Oracle(Slot* slot) {
    TemporalRelation rel;
    std::vector<AnswerTuple> tuples =
        slot->window.Answer(db, slot->query, *flattener, &rel);
    for (const auto& [binding, when] : rel.rows) slot->seen.insert(binding);
    return tuples;
  }
};

// ---- The differential harness ------------------------------------------
//
// A world is spatial class "M" with a FUEL attribute, regions R1 and R2,
// and a mix of straight and piecewise routes. On grid worlds all geometry
// lies on a 0.25 grid, so the interval solver and the per-state oracle
// (NaiveFtlEvaluator) compute predicate flips at integer ticks
// identically; off the grid the two may round a flip near a tick apart,
// and the serial interval evaluator is the reference instead.

inline double Grid(Rng* rng, double lo, double hi) {
  int64_t steps = static_cast<int64_t>((hi - lo) * 4);
  return lo + 0.25 * static_cast<double>(rng->UniformInt(0, steps));
}

/// `single_variable` draws only atoms over `o` alone.
inline FormulaPtr RandomAtom(Rng* rng, bool single_variable) {
  auto region = [&] { return rng->Bernoulli(0.5) ? "R1" : "R2"; };
  auto cmp = [&] {
    return static_cast<FtlFormula::CmpOp>(rng->UniformInt(0, 5));
  };
  constexpr int64_t kSingle[] = {0, 1, 6, 7, 8};
  switch (single_variable ? kSingle[rng->UniformInt(0, 4)]
                          : rng->UniformInt(0, 9)) {
    case 0:
      return FtlFormula::Inside("o", region());
    case 1:
      return FtlFormula::Outside("o", region());
    case 2:
      return FtlFormula::Inside("n", region());
    case 3:
      // Moving region anchored at the other object.
      return FtlFormula::Inside("o", region(), "n");
    case 4:
      return FtlFormula::Outside("n", region(), "o");
    case 5: {
      const FtlFormula::CmpOp op = cmp();
      return FtlFormula::Compare(op, FtlTerm::Dist("o", "n"),
                                 FtlTerm::Literal(Value(Grid(rng, 1, 30))));
    }
    case 6: {
      const FtlFormula::CmpOp op = cmp();
      return FtlFormula::Compare(op, FtlTerm::AttrRef("o", "FUEL"),
                                 FtlTerm::Literal(Value(Grid(rng, 0, 100))));
    }
    case 7: {
      const FtlFormula::CmpOp op = cmp();
      return FtlFormula::Compare(op, FtlTerm::Time(),
                                 FtlTerm::Literal(Value(static_cast<double>(
                                     rng->UniformInt(0, 30)))));
    }
    case 8:
      // Assignment quantifier: remember o's fuel now, compare later.
      return FtlFormula::Assign(
          "x", FtlTerm::AttrRef("o", "FUEL"),
          FtlFormula::Compare(
              cmp(), FtlTerm::AttrRef(single_variable ? "o" : "n", "FUEL"),
              FtlTerm::VarRef("x")));
    default:
      return FtlFormula::WithinSphere(Grid(rng, 1, 20), {"o", "n"});
  }
}

inline FormulaPtr RandomFormula(Rng* rng, int depth,
                                bool single_variable = false) {
  if (depth <= 0) return RandomAtom(rng, single_variable);
  // One draw per statement: a call's arguments are evaluated in an
  // unspecified order, and a seed must name one formula on every compiler.
  const int64_t kind = rng->UniformInt(0, 9);
  const Tick bound = rng->UniformInt(0, kind == 6 ? 12 : kind == 7 ? 8 : 10);
  FormulaPtr a = RandomFormula(rng, depth - 1, single_variable);
  auto b = [&] { return RandomFormula(rng, depth - 1, single_variable); };
  switch (kind) {
    case 0:
      return FtlFormula::And(a, b());
    case 1:
      return FtlFormula::Or(a, b());
    case 2:
      return FtlFormula::Not(a);
    case 3:
      return FtlFormula::Until(a, b());
    case 4:
      return FtlFormula::UntilWithin(bound, a, b());
    case 5:
      return FtlFormula::Nexttime(a);
    case 6:
      return FtlFormula::EventuallyWithin(bound, a);
    case 7:
      return FtlFormula::AlwaysFor(bound, a);
    case 8:
      return rng->Bernoulli(0.5) ? FtlFormula::Eventually(a)
                                 : FtlFormula::Always(a);
    default:
      return FtlFormula::EventuallyAfter(bound, a);
  }
}

/// A random formula over `pool` members, reusing them on purpose: a
/// member under an AND's second operand is requested restricted by the
/// first operand's bindings, which a manager's evaluation context serves
/// by filtering the member's unrestricted relation when another query
/// stored it.
inline FormulaPtr SharingFormula(Rng* rng,
                                 const std::vector<FormulaPtr>& pool) {
  auto pick = [&] {
    return pool[rng->UniformInt(0, static_cast<int64_t>(pool.size()) - 1)];
  };
  FormulaPtr a = pick();
  FormulaPtr b = pick();
  switch (rng->UniformInt(0, 6)) {
    case 0:
      return FtlFormula::And(
          a, FtlFormula::EventuallyWithin(rng->UniformInt(0, 12), b));
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

/// How far into the future a formula's truth at a state looks: WITHIN c
/// and FOR c add c, NEXTTIME adds 1, and UNTIL, EVENTUALLY, ALWAYS and
/// EVENTUALLY AFTER look arbitrarily far (kTickMax). An evaluation over a
/// window that ends before now + depth answers at now from a truncated
/// history.
inline Tick FutureDepth(const FtlFormula& f) {
  Tick deepest = 0;
  for (const FormulaPtr& child : f.children()) {
    deepest = std::max(deepest, FutureDepth(*child));
  }
  switch (f.kind()) {
    case FtlFormula::Kind::kUntil:
    case FtlFormula::Kind::kEventually:
    case FtlFormula::Kind::kEventuallyAfter:
    case FtlFormula::Kind::kAlways:
      return kTickMax;
    case FtlFormula::Kind::kUntilWithin:
    case FtlFormula::Kind::kEventuallyWithin:
    case FtlFormula::Kind::kAlwaysFor:
      return TickSaturatingAdd(deepest, f.bound());
    case FtlFormula::Kind::kNexttime:
      return TickSaturatingAdd(deepest, 1);
    default:
      return deepest;
  }
}

/// A position, speed or fuel level in [lo, hi]: on the 0.25 grid, or
/// anywhere when `grid` is false.
inline double Coordinate(Rng* rng, double lo, double hi, bool grid) {
  return grid ? Grid(rng, lo, hi) : rng->UniformDouble(lo, hi);
}

/// Class "M" (spatial, with FUEL), regions R1 and R2, and `num_objects`
/// objects on straight or piecewise routes. One draw per statement, so a
/// seed names one world on every compiler.
inline void BuildWorld(Rng* rng, MostDatabase* db, int num_objects,
                       bool grid = true) {
  auto draw = [&](double lo, double hi) {
    return Coordinate(rng, lo, hi, grid);
  };
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
      const Point2 position{draw(-20, 20), draw(-20, 20)};
      const Vec2 velocity{draw(-2, 2), draw(-2, 2)};
      ASSERT_TRUE(db->SetMotion("M", id, position, velocity).ok());
    } else {
      // A braced list evaluates its elements in order.
      auto fx = TimeFunction::Piecewise(
          {{0, draw(-2, 2)}, {rng->UniformInt(3, 15), draw(-2, 2)}});
      ASSERT_TRUE(fx.ok());
      const double x = draw(-20, 20);
      ASSERT_TRUE(db->UpdateDynamic("M", id, kAttrX, x, *fx).ok());
      const double y = draw(-20, 20);
      const double vy = draw(-2, 2);
      ASSERT_TRUE(db->UpdateDynamic("M", id, kAttrY, y,
                                    TimeFunction::Linear(vy))
                      .ok());
    }
    const double fuel = draw(0, 100);
    const double slope = draw(-2, 2);
    ASSERT_TRUE(db->UpdateDynamic("M", id, "FUEL", fuel,
                                  TimeFunction::Linear(slope))
                    .ok());
  }
}

/// What a schedule is drawn from.
struct SimSpec {
  uint64_t seed = 1;
  int objects = 4;  ///< Initial population.
  /// The managers' window length. Every round is checked, so the corpus
  /// costs grow with it twice: more rounds to slide, longer evaluations.
  Tick horizon = 10;
  /// Query slots registered at tick 0 that live the whole schedule. Slot
  /// 0 is single-variable: a shard's single-variable query binds only the
  /// objects it owns, so creations and deletions reach it through
  /// ownership.
  int long_lived = 2;
  /// Further slots, each cancelled and registered afresh with a new
  /// formula with probability `churn` per round.
  int churned = 1;
  double churn = 0.3;
  /// The last long-lived slot (at least slot 1) retrieves n alone:
  /// RETRIEVE n FROM M o, M n. Its rows collapse every o into one binding,
  /// so a refresh installs a projection of the maintained relation, and
  /// the engine's gather unions one binding's rows across shards.
  bool projecting = false;
  /// Two-variable formulas from a small pool of subformulas
  /// (SharingFormula), so live queries repeat subformulas.
  bool sharing = false;
  /// Positions, speeds, fuel levels and region corners on the 0.25 grid
  /// (checked against the naive oracle); false draws them anywhere
  /// (checked against the serial evaluator).
  bool grid = true;
};

/// One change a schedule makes.
struct SimOp {
  enum class Kind { kRegister, kMotion, kFuel, kCreate, kDelete, kRegion };
  Kind kind = Kind::kMotion;
  size_t slot = 0;  ///< kRegister: the slot (its previous query cancelled).
  FtlQuery query;   ///< kRegister.
  ObjectId id = 0;  ///< kMotion, kFuel, kDelete; kCreate: the id it gets.
  Point2 position;  ///< kMotion, kCreate.
  Vec2 velocity;    ///< kMotion, kCreate.
  double fuel = 0;  ///< kFuel, kCreate.
  double fuel_slope = 0;
  std::string region;  ///< kRegion: a redefinition as a rectangle.
  Polygon polygon;
};

/// A round: registrations at the current tick, then updates, creations,
/// deletions and region redefinitions at that tick, then `advance` ticks
/// of the clock (0 is a second batch at the same tick). Every live query
/// is checked after every round.
struct SimRound {
  std::vector<SimOp> ops;
  Tick advance = 0;
};

struct SimSchedule {
  SimSpec spec;
  uint64_t world_seed = 0;  ///< Seeds BuildWorld.
  std::vector<SimRound> rounds;
  /// The round after which each long-lived slot's persistent twin is read
  /// for the first time (RunSchedule).
  size_t twin_first_read = 0;
};

/// Draws a schedule: mostly one-tick rounds of one to three motion and
/// fuel updates, with occasional creations and deletions, clock-only
/// rounds, region-only rounds and jumps past the horizon. It ends once the
/// long-lived queries' window has slid three times.
inline SimSchedule GenerateSchedule(const SimSpec& spec) {
  SimSchedule schedule;
  schedule.spec = spec;
  Rng rng(spec.seed);
  schedule.world_seed = rng.Next();
  std::vector<FormulaPtr> pool;
  if (spec.sharing) {
    for (int i = 0; i < 3; ++i) pool.push_back(RandomFormula(&rng, 1));
  }
  auto register_op = [&](size_t slot) {
    SimOp op;
    op.kind = SimOp::Kind::kRegister;
    op.slot = slot;
    op.query.retrieve = {"o"};
    op.query.from = {{"M", "o"}};
    if (slot == 0) {
      op.query.where = RandomFormula(&rng, 2, /*single_variable=*/true);
    } else {
      const bool projecting =
          spec.projecting && slot + 1 == static_cast<size_t>(spec.long_lived);
      op.query.retrieve = projecting ? std::vector<std::string>{"n"}
                                     : std::vector<std::string>{"o", "n"};
      op.query.from.push_back({"M", "n"});
      op.query.where = spec.sharing ? SharingFormula(&rng, pool)
                                    : RandomFormula(&rng, 2);
    }
    return op;
  };
  auto draw = [&](double lo, double hi) {
    return Coordinate(&rng, lo, hi, spec.grid);
  };
  auto motion = [&](SimOp* op) {
    op->position = {draw(-20, 20), draw(-20, 20)};
    op->velocity = {draw(-2, 2), draw(-2, 2)};
  };
  auto fuel = [&](SimOp* op) {
    op->fuel = draw(0, 100);
    op->fuel_slope = draw(-2, 2);
  };

  std::vector<ObjectId> live;
  for (int i = 0; i < spec.objects; ++i) live.push_back(ObjectId(i));
  ObjectId next_id = ObjectId(spec.objects);
  const size_t slots = static_cast<size_t>(spec.long_lived + spec.churned);
  AnswerWindow window(spec.horizon);
  Tick now = 0;
  int slid = 0;
  SimRound first;
  for (size_t slot = 0; slot < slots; ++slot) {
    first.ops.push_back(register_op(slot));
  }
  schedule.rounds.push_back(std::move(first));
  while (slid < 3) {
    SimRound round;
    for (size_t slot = static_cast<size_t>(spec.long_lived); slot < slots;
         ++slot) {
      if (rng.Bernoulli(spec.churn)) round.ops.push_back(register_op(slot));
    }
    const int64_t kind = rng.UniformInt(0, 99);
    if (kind < 12) {
      // The clock alone.
      round.advance = rng.Bernoulli(0.25) ? spec.horizon + 6 : 1;
    } else if (kind < 20) {
      // A region alone (grid-aligned on grid worlds).
      SimOp op;
      op.kind = SimOp::Kind::kRegion;
      op.region = rng.Bernoulli(0.5) ? "R1" : "R2";
      const Point2 lo{draw(-12, 0), draw(-12, 0)};
      const Point2 hi{draw(2, 12), draw(2, 12)};
      op.polygon = Polygon::Rectangle(lo, hi);
      round.ops.push_back(std::move(op));
      round.advance = rng.UniformInt(0, 1);
    } else {
      const int64_t updates = rng.UniformInt(1, 3);
      for (int64_t u = 0; u < updates; ++u) {
        SimOp op;
        op.id = live[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
        if (rng.Bernoulli(0.3)) {
          op.kind = SimOp::Kind::kFuel;
          fuel(&op);
        } else {
          op.kind = SimOp::Kind::kMotion;
          motion(&op);
        }
        round.ops.push_back(std::move(op));
      }
      if (rng.Bernoulli(0.12) && live.size() > 2) {
        SimOp op;
        op.kind = SimOp::Kind::kDelete;
        const size_t victim = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
        op.id = live[victim];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
        round.ops.push_back(std::move(op));
      } else if (rng.Bernoulli(0.12)) {
        SimOp op;
        op.kind = SimOp::Kind::kCreate;
        op.id = next_id++;
        motion(&op);
        fuel(&op);
        live.push_back(op.id);
        round.ops.push_back(std::move(op));
      }
      const int64_t step = rng.UniformInt(0, 99);
      round.advance = step < 12 ? 0 : step < 95 ? 1 : spec.horizon + 6;
    }
    now += round.advance;
    if (now > window.end()) {
      window.At(now);
      ++slid;
    }
    schedule.rounds.push_back(std::move(round));
  }
  // Drawn last, so the rounds are those of a seed without it.
  schedule.twin_first_read = static_cast<size_t>(rng.UniformInt(
      1, static_cast<int64_t>(schedule.rounds.size()) - 1));
  return schedule;
}

/// One cell of the configuration matrix.
struct SimConfig {
  /// 0: one QueryManager. n > 0: a ShardedEngine of n shards with
  /// per-shard WALs, beside an unsharded manager over a twin database
  /// (one manager for all the cells of a slice that differ only here).
  size_t shards = 0;
  /// delta_max_dirty_fraction 0, so every refresh takes the full path
  /// (otherwise 1, so every update-triggered refresh takes the delta one).
  bool full = false;
  /// A refresh budget that never trips: every evaluation of the manager
  /// under test works in a generation of its own.
  bool governed = false;
  /// Metrics registry, trace sink, telemetry and evaluator profiles on
  /// (otherwise the registry's kill switch is thrown and the rest is off).
  bool observed = false;
  /// Worker pool of the fresh evaluator the answers are compared with.
  size_t pool = 0;

  std::string Name() const {
    std::string name = shards == 0 ? "manager"
                                   : "engine/" + std::to_string(shards);
    name += full ? " full" : " delta";
    if (governed) name += " governed";
    if (observed) name += " observed";
    if (pool > 0) name += " pool" + std::to_string(pool);
    return name;
  }
};

/// What one cell's run of the harness saw.
struct SimReport {
  size_t queries = 0;  ///< Queries registered.
  size_t checks = 0;   ///< (live query, tick) pairs checked.
  uint64_t delta_refreshes = 0;
  uint64_t full_refreshes = 0;
  /// Ticks at which a continuous answer differed from the instantaneous
  /// one inside the truncation zone (now + FutureDepth > window end).
  size_t in_zone = 0;
  /// EXPLAIN nodes served filtered by the evaluation context from another
  /// query's relation (registrations of the unsharded manager).
  size_t filtered_nodes = 0;
  /// Checks of a projecting query at which projection collapsed rows
  /// (the unprojected relation has more rows than the answer).
  size_t collapsed = 0;

  std::string ToString() const {
    return "queries=" + std::to_string(queries) +
           " checks=" + std::to_string(checks) +
           " delta=" + std::to_string(delta_refreshes) +
           " full=" + std::to_string(full_refreshes) +
           " in_zone=" + std::to_string(in_zone) +
           " filtered=" + std::to_string(filtered_nodes) +
           " collapsed=" + std::to_string(collapsed);
  }
};

inline ThreadPool* SimPool(size_t threads) {
  static ThreadPool pool2(2);
  static ThreadPool pool4(4);
  if (threads == 0) return nullptr;
  return threads <= 2 ? &pool2 : &pool4;
}

/// Switches the observability layer on or off for a scope and restores
/// what it found.
class ScopedObservability {
 public:
  explicit ScopedObservability(bool on)
      : registry_(obs::MetricsRegistry::Global().enabled()),
        sink_(obs::TraceSink::Global().enabled()),
        telemetry_(obs::TelemetryRecorder::Global().enabled()) {
    obs::MetricsRegistry::Global().set_enabled(on);
    obs::TraceSink::Global().set_enabled(on);
    obs::TelemetryRecorder::Global().set_enabled(on);
    if (on) obs::TelemetryRecorder::Global().Track("most_ftl_eval_total");
  }
  ~ScopedObservability() {
    obs::MetricsRegistry::Global().set_enabled(registry_);
    obs::TraceSink::Global().set_enabled(sink_);
    obs::TelemetryRecorder::Global().set_enabled(telemetry_);
  }
  ScopedObservability(const ScopedObservability&) = delete;
  ScopedObservability& operator=(const ScopedObservability&) = delete;

 private:
  bool registry_;
  bool sink_;
  bool telemetry_;
};

/// Counts the EXPLAIN nodes of a profile carrying `note`.
inline size_t CountNotes(const obs::ProfileNode& node,
                         const std::string& note) {
  size_t n = 0;
  for (const auto& [name, value] : node.notes) n += name == note ? 1 : 0;
  for (const auto& child : node.children) n += CountNotes(*child, note);
  return n;
}

/// Replays an engine's shard logs into a database rebuilt to the world's
/// initial population; it must equal the engine's database object by
/// object (every dynamic attribute, statics and last_update).
inline void ExpectShardWalsReplayTo(const std::string& dir, size_t shards,
                                    const SimSchedule& schedule,
                                    const MostDatabase& engine_db) {
  MostDatabase replayed;
  {
    Rng wrng(schedule.world_seed);
    ASSERT_NO_FATAL_FAILURE(BuildWorld(&wrng, &replayed,
                                       schedule.spec.objects,
                                       schedule.spec.grid));
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

/// Bindings whose tick set (a relation row) or interval (an answer tuple)
/// contains `now`, in binding order.
inline std::vector<std::vector<ObjectId>> BindingsAt(
    const TemporalRelation& relation, Tick now) {
  std::vector<std::vector<ObjectId>> out;
  for (const auto& [binding, when] : relation.rows) {
    if (when.Contains(now)) out.push_back(binding);
  }
  return out;
}
inline std::vector<std::vector<ObjectId>> BindingsAt(
    const std::vector<AnswerTuple>& tuples, Tick now) {
  std::vector<std::vector<ObjectId>> out;
  for (const AnswerTuple& t : tuples) {
    if (t.confidence == Confidence::kCertain && t.interval.Contains(now)) {
      out.push_back(t.binding);
    }
  }
  return out;
}

/// Runs `schedule` through `cells`, which differ only in `shards`: one
/// QueryManager, and beside it one ShardedEngine (over a twin database,
/// with per-shard WALs) per engine cell. Every live query is checked after
/// every round:
///  * the manager's Evaluate equals a fresh FtlEvaluator (on the cells'
///    pool) and the oracle over [now, now + horizon]: the naive evaluator
///    on a grid world, the serial interval evaluator off the grid;
///  * the manager's continuous answer equals its AnswerWindow oracle;
///  * each engine's scatter Evaluate and gather equal the manager's (a
///    projecting query's rows collide across shards, and both union them);
///  * §2.3, for the manager and for each engine: the instantaneous answer
///    at now equals the oracle's, and the continuous answer at now equals
///    the instantaneous one. The window truncates the history a
///    continuous answer sees, so inside the truncation zone (now +
///    FutureDepth > window end) a difference is counted in the cell's
///    `in_zone`; outside it, it fails;
///  * each long-lived slot's formula is also two persistent queries of the
///    manager, registered with it: one read after every round, which must
///    succeed, and a twin read for the first time after the schedule's
///    `twin_first_read` round, where both answers must be equal.
/// reports[i] accumulates what cells[i] saw; a manager seen by no cell is
/// still checked.
inline void RunSchedule(const SimSchedule& schedule,
                        const std::vector<SimConfig>& cells,
                        std::vector<SimReport>* reports) {
  const SimSpec& spec = schedule.spec;
  const SimConfig& cfg = cells.front();
  std::string names;
  for (const SimConfig& c : cells) {
    names += (names.empty() ? "" : ", ") + c.Name();
  }
  SCOPED_TRACE("cells " + names + "; schedule seed " +
               std::to_string(spec.seed));
  ScopedGovernorLimits limits(
      {.refresh_budget = {.max_rows = cfg.governed ? size_t{1} << 20 : 0},
       .delta_max_dirty_fraction = cfg.full ? 0.0 : 1.0});
  ScopedObservability observability(cfg.observed);

  MostDatabase db;
  {
    Rng wrng(schedule.world_seed);
    ASSERT_NO_FATAL_FAILURE(
        BuildWorld(&wrng, &db, spec.objects, spec.grid));
  }
  QueryManager qm(&db, {.horizon = spec.horizon});
  SimReport unreported;
  SimReport* manager_report = &unreported;

  struct Engine {
    size_t shards = 0;
    SimReport* report = nullptr;
    std::string wal_dir;
    MostDatabase db;
    std::unique_ptr<ShardedEngine> engine;
  };
  std::vector<std::unique_ptr<Engine>> engines;
  for (size_t c = 0; c < cells.size(); ++c) {
    if (cells[c].shards == 0) {
      manager_report = &(*reports)[c];
      continue;
    }
    auto e = std::make_unique<Engine>();
    e->shards = cells[c].shards;
    e->report = &(*reports)[c];
    e->wal_dir = SimTempPath("diff_shard_wal_" + std::to_string(spec.seed) +
                             "_" + std::to_string(e->shards));
    Rng wrng(schedule.world_seed);
    ASSERT_NO_FATAL_FAILURE(
        BuildWorld(&wrng, &e->db, spec.objects, spec.grid));
    std::filesystem::remove_all(e->wal_dir);
    ShardedEngine::Options options;
    options.shard_count = e->shards;
    options.query_options.horizon = spec.horizon;
    options.wal_dir = e->wal_dir;
    e->engine = std::make_unique<ShardedEngine>(&e->db, options);
    engines.push_back(std::move(e));
  }

  struct Slot {
    FtlQuery query;
    QueryManager::QueryId id = 0;
    std::vector<ShardedEngine::QueryId> engine_ids;  ///< One per engine.
    AnswerWindow window;
    Tick depth = 0;
    /// Long-lived slots: the persistent query read every round, and its
    /// twin (0 = none).
    QueryManager::QueryId persistent = 0;
    QueryManager::QueryId twin = 0;
  };
  std::map<size_t, Slot> slots;

  auto apply = [&](const SimOp& op) {
    switch (op.kind) {
      case SimOp::Kind::kRegister: {
        auto old = slots.find(op.slot);
        if (old != slots.end()) {
          ASSERT_TRUE(qm.Cancel(old->second.id).ok());
          for (size_t e = 0; e < engines.size(); ++e) {
            ASSERT_TRUE(
                engines[e]->engine->Cancel(old->second.engine_ids[e]).ok());
          }
          slots.erase(old);
        }
        Slot slot{op.query, 0, {}, AnswerWindow(spec.horizon, db.Now()),
                  FutureDepth(*op.query.where)};
        auto id = qm.RegisterContinuous(op.query);
        ASSERT_TRUE(id.ok()) << id.status()
                             << "\nformula: " << op.query.where->ToString();
        slot.id = *id;
        if (op.slot < static_cast<size_t>(spec.long_lived)) {
          auto persistent = qm.RegisterPersistent(op.query);
          auto twin = qm.RegisterPersistent(op.query);
          ASSERT_TRUE(persistent.ok()) << persistent.status();
          ASSERT_TRUE(twin.ok()) << twin.status();
          slot.persistent = *persistent;
          slot.twin = *twin;
        }
        for (const auto& e : engines) {
          auto engine_id = e->engine->RegisterContinuous(op.query);
          ASSERT_TRUE(engine_id.ok()) << engine_id.status();
          slot.engine_ids.push_back(*engine_id);
        }
        auto profile = qm.Profile(slot.id);
        ASSERT_TRUE(profile.ok());
        const size_t filtered = CountNotes((*profile)->root, "filtered");
        for (SimReport& r : *reports) {
          r.filtered_nodes += filtered;
          ++r.queries;
        }
        slots.emplace(op.slot, std::move(slot));
        break;
      }
      case SimOp::Kind::kMotion:
        ASSERT_TRUE(db.SetMotion("M", op.id, op.position, op.velocity).ok());
        for (const auto& e : engines) {
          e->engine->EnqueueMotion("M", op.id, op.position, op.velocity);
        }
        break;
      case SimOp::Kind::kFuel: {
        const TimeFunction fn = TimeFunction::Linear(op.fuel_slope);
        ASSERT_TRUE(db.UpdateDynamic("M", op.id, "FUEL", op.fuel, fn).ok());
        for (const auto& e : engines) {
          e->engine->EnqueueDynamic("M", op.id, "FUEL", op.fuel, fn);
        }
        break;
      }
      case SimOp::Kind::kCreate: {
        const TimeFunction fn = TimeFunction::Linear(op.fuel_slope);
        auto obj = db.CreateObject("M");
        ASSERT_TRUE(obj.ok());
        ASSERT_EQ((*obj)->id(), op.id);
        ASSERT_TRUE(db.SetMotion("M", op.id, op.position, op.velocity).ok());
        ASSERT_TRUE(db.UpdateDynamic("M", op.id, "FUEL", op.fuel, fn).ok());
        for (const auto& e : engines) {
          auto twin = e->engine->CreateObject("M");
          ASSERT_TRUE(twin.ok());
          ASSERT_EQ((*twin)->id(), op.id);
          e->engine->EnqueueMotion("M", op.id, op.position, op.velocity);
          e->engine->EnqueueDynamic("M", op.id, "FUEL", op.fuel, fn);
        }
        break;
      }
      case SimOp::Kind::kDelete:
        ASSERT_TRUE(db.DeleteObject("M", op.id).ok());
        for (const auto& e : engines) {
          ASSERT_TRUE(e->engine->DeleteObject("M", op.id).ok());
        }
        break;
      case SimOp::Kind::kRegion:
        // Notifies no listener: the catalog change alone must bring the
        // continuous answers onto the new polygon.
        ASSERT_TRUE(db.DefineRegion(op.region, op.polygon).ok());
        for (const auto& e : engines) {
          ASSERT_TRUE(e->db.DefineRegion(op.region, op.polygon).ok());
        }
        break;
    }
  };

  // §2.3 for one subject at `now`: `current` (the continuous answer's
  // bindings at now) against `instantaneous`, which must equal the
  // oracle's.
  auto check_property =
      [&](const Slot& slot, const std::vector<std::vector<ObjectId>>& oracle,
          const std::vector<std::vector<ObjectId>>& instantaneous,
          const std::vector<std::vector<ObjectId>>& current,
          SimReport* report) {
        const Tick now = db.Now();
        ASSERT_EQ(instantaneous, oracle)
            << "the instantaneous answer diverged from the oracle at tick "
            << now;
        ++report->checks;
        if (current == instantaneous) return;
        ASSERT_GT(TickSaturatingAdd(now, slot.depth), slot.window.end())
            << "the continuous answer differs from the instantaneous one "
            << "outside the truncation zone: tick " << now
            << ", future depth " << slot.depth << ", window end "
            << slot.window.end();
        ++report->in_zone;
      };

  auto check = [&](Slot* slot) {
    const FtlQuery& q = slot->query;
    SCOPED_TRACE("formula: " + q.where->ToString());
    const Tick now = db.Now();
    const Interval instant(now, TickSaturatingAdd(now, spec.horizon));
    obs::QueryProfile profile;
    FtlEvaluator::Options fresh_opts;
    fresh_opts.pool = SimPool(cfg.pool);
    if (cfg.observed) fresh_opts.profile = &profile.root;
    auto fresh = FtlEvaluator(db, fresh_opts).EvaluateQuery(q, instant);
    auto oracle = spec.grid
                      ? NaiveFtlEvaluator(db).EvaluateQuery(q, instant)
                      : FtlEvaluator(db).EvaluateQuery(q, instant);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    ASSERT_EQ(fresh->vars, oracle->vars);
    ASSERT_EQ(fresh->rows, oracle->rows)
        << "a fresh evaluation diverged from the oracle at tick " << now
        << "\nfast: " << fresh->ToString()
        << "\noracle: " << oracle->ToString();
    if (q.retrieve.size() < q.from.size()) {
      auto unprojected =
          FtlEvaluator(db).EvaluateQueryUnprojected(q, instant);
      ASSERT_TRUE(unprojected.ok()) << unprojected.status();
      if (unprojected->rows.size() > fresh->rows.size()) {
        for (SimReport& r : *reports) ++r.collapsed;
      }
    }
    auto got = qm.Evaluate(q);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(got->vars, fresh->vars);
    ASSERT_EQ(got->rows, fresh->rows)
        << "Evaluate diverged from a fresh evaluation at tick " << now
        << "\ngot: " << got->ToString() << "\nwant: " << fresh->ToString();

    const std::vector<AnswerTuple> want = slot->window.Answer(db, q, qm);
    auto answer = qm.ContinuousAnswer(slot->id);
    ASSERT_TRUE(answer.ok()) << answer.status();
    ASSERT_EQ(*answer, want)
        << "continuous answer diverged from a fresh evaluation over its "
        << "window at tick " << now << "\ngot: " << SerializeTuples(*answer)
        << "\nwant: " << SerializeTuples(want);

    const std::vector<std::vector<ObjectId>> at_now = BindingsAt(*oracle, now);
    auto inst = qm.Instantaneous(q);
    auto cur = qm.CurrentAnswer(slot->id);
    ASSERT_TRUE(inst.ok()) << inst.status();
    ASSERT_TRUE(cur.ok()) << cur.status();
    ASSERT_NO_FATAL_FAILURE(
        check_property(*slot, at_now, *inst, *cur, manager_report));

    for (size_t e = 0; e < engines.size(); ++e) {
      SCOPED_TRACE("engine/" + std::to_string(engines[e]->shards));
      ShardedEngine& engine = *engines[e]->engine;
      auto scattered = engine.Evaluate(q);
      ASSERT_TRUE(scattered.ok()) << scattered.status();
      ASSERT_EQ(scattered->vars, got->vars);
      ASSERT_EQ(scattered->rows, got->rows)
          << "scatter Evaluate diverged from the unsharded manager at tick "
          << now;
      auto gathered = engine.ContinuousAnswer(slot->engine_ids[e]);
      ASSERT_TRUE(gathered.ok()) << gathered.status();
      ASSERT_TRUE(gathered->complete());
      ASSERT_EQ(gathered->tuples, *answer)
          << "shard gather diverged from the unsharded manager at tick "
          << now;
      ASSERT_NO_FATAL_FAILURE(check_property(
          *slot, at_now, BindingsAt(*scattered, now),
          BindingsAt(gathered->tuples, now), engines[e]->report));
    }
  };

  // The persistent answers of a long-lived slot after round `round`.
  auto check_persistent = [&](const Slot& slot, size_t round) {
    auto every = qm.PersistentAnswer(slot.persistent);
    ASSERT_TRUE(every.ok()) << every.status();
    if (round != schedule.twin_first_read) return;
    auto twin = qm.PersistentAnswer(slot.twin);
    ASSERT_TRUE(twin.ok()) << twin.status();
    ASSERT_EQ(*twin, *every)
        << "a persistent answer read for the first time at tick " << db.Now()
        << " differs from one read every round\ntwin: "
        << SerializeTuples(*twin) << "\nevery: " << SerializeTuples(*every);
  };

  for (size_t r = 0; r < schedule.rounds.size(); ++r) {
    const SimRound& round = schedule.rounds[r];
    for (const SimOp& op : round.ops) ASSERT_NO_FATAL_FAILURE(apply(op));
    db.clock().Advance(round.advance);
    ASSERT_TRUE(qm.TickAll().ok());
    for (const auto& e : engines) {
      // The engine applies its queued batch at this tick, as the twin
      // database just did, and then moves the clock.
      ASSERT_TRUE(e->engine->DrainAndRefresh().ok());
      if (round.advance > 0) {
        ASSERT_TRUE(e->engine->Advance(round.advance).ok());
      }
      ASSERT_EQ(e->db.Now(), db.Now());
    }
    for (auto& [index, slot] : slots) {
      ASSERT_NO_FATAL_FAILURE(check(&slot));
      if (slot.persistent != 0) {
        ASSERT_NO_FATAL_FAILURE(check_persistent(slot, r));
      }
    }
  }

  const QueryManager::RefreshCounters counters = qm.TotalRefreshCounters();
  manager_report->delta_refreshes += counters.delta_evaluations;
  manager_report->full_refreshes += counters.full_evaluations;
  for (const auto& e : engines) {
    const QueryManager::RefreshCounters c = e->engine->TotalRefreshCounters();
    e->report->delta_refreshes += c.delta_evaluations;
    e->report->full_refreshes += c.full_evaluations;
    ASSERT_NO_FATAL_FAILURE(
        ExpectShardWalsReplayTo(e->wal_dir, e->shards, schedule, e->db));
    e->engine.reset();
    std::filesystem::remove_all(e->wal_dir);
  }
}

/// Runs the schedule of every seed (`spec` with its seed replaced) through
/// every cell; returns one report per cell, each printed. Cells that
/// differ only in `shards` share each run: one manager, with one engine
/// per engine cell beside it.
inline std::vector<SimReport> RunSlice(const char* suite,
                                       std::initializer_list<uint64_t> seeds,
                                       SimSpec spec,
                                       const std::vector<SimConfig>& cells) {
  std::vector<SimSchedule> schedules;
  for (uint64_t seed : SuiteSeeds(suite, seeds)) {
    spec.seed = seed;
    schedules.push_back(GenerateSchedule(spec));
  }
  auto same_run = [](const SimConfig& a, const SimConfig& b) {
    return a.full == b.full && a.governed == b.governed &&
           a.observed == b.observed && a.pool == b.pool;
  };
  std::vector<SimReport> reports(cells.size());
  std::vector<bool> done(cells.size(), false);
  for (size_t first = 0; first < cells.size(); ++first) {
    if (done[first]) continue;
    std::vector<size_t> members;
    for (size_t c = first; c < cells.size(); ++c) {
      if (!done[c] && same_run(cells[first], cells[c])) {
        members.push_back(c);
        done[c] = true;
      }
    }
    std::vector<SimConfig> group;
    for (size_t c : members) group.push_back(cells[c]);
    std::vector<SimReport> group_reports(group.size());
    for (const SimSchedule& schedule : schedules) {
      RunSchedule(schedule, group, &group_reports);
      if (::testing::Test::HasFatalFailure()) return reports;
    }
    for (size_t m = 0; m < members.size(); ++m) {
      reports[members[m]] = group_reports[m];
    }
  }
  for (size_t c = 0; c < cells.size(); ++c) {
    std::printf("[cell] %s: %s\n", cells[c].Name().c_str(),
                reports[c].ToString().c_str());
  }
  std::fflush(stdout);
  return reports;
}

}  // namespace most::test

#endif  // MOST_TESTS_SIM_WORLD_H_
