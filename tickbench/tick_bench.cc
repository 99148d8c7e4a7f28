// Tick benchmark program for MOST (see README.md in this directory).
//
// One closed-loop client thread runs tick after tick against the public
// APIs of the sharded engine, the query manager, the FTL evaluator and the
// per-shard WAL, in the library's default configuration. Every input is
// generated from --seed before any timing starts. The run ends with an
// answer check, then prints one JSON report line that tickbench/run.py
// turns into the benchmark's result.
//
// Usage:
//   tick_bench --workload fleet|ingest|paper --seed N --seconds S
//              --trace 0|1 --out DIR
//
// --trace 1 keeps the benchmark's own spans in memory (one root per tick,
// one child per public call), interleaves traced and untraced ticks to
// measure the tracing overhead, and writes DIR/<workload>-seed<N>.trace.json
// in Chrome trace format. The program's own TraceSink stays off.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/class_snapshot.h"
#include "core/sharded_engine.h"
#include "ftl/eval.h"
#include "ftl/naive_eval.h"
#include "ftl/parser.h"
#include "ftl/query_manager.h"
#include "obs/metrics.h"
#include "workload/fleet.h"

namespace most {
namespace {

// ---- Workloads --------------------------------------------------------------

constexpr double kArea = 1000.0;
constexpr Tick kHorizon = 1024;  // QueryManager::Options default.
constexpr int kWarmTicks = 4;
// A run is a sequence of segments. Each builds a fresh world (one set-up
// sample), runs kWarmTicks untimed and kSegmentTicks timed ticks, and is
// torn down. A timed tick thus has the same age, counted from load and
// registration, in every run however many ticks the run manages: keeping
// an answer valid gets dearer as time since registration passes, and the
// heap scatters as objects are updated.
constexpr int kSegmentTicks = 32;
// The first segment warms the process (page faults, allocator pools) and
// is not recorded; at least this many segments are.
constexpr int kMinSegments = 3;
// Cap on pre-generated updates; batches are replayed cyclically beyond it.
constexpr size_t kMaxInputUpdates = 1000000;

constexpr char kQueryI[] =
    "RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 30 INSIDE(o, P)";
constexpr char kQueryII[] =
    "RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 30 "
    "(INSIDE(o, P) AND ALWAYS FOR 20 INSIDE(o, P))";
constexpr char kQueryIII[] =
    "RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 30 (INSIDE(o, P) AND "
    "ALWAYS FOR 20 INSIDE(o, P) AND EVENTUALLY AFTER 50 INSIDE(o, Q))";
constexpr char kTaxiDist[] =
    "RETRIEVE o, n FROM TAXIS o, TAXIS n WHERE DIST(o, n) <= 15";
constexpr char kIngestInside[] = "RETRIEVE o FROM CARS o WHERE INSIDE(o, R)";
constexpr char kTaxiPersistent[] =
    "RETRIEVE o FROM TAXIS o WHERE EVENTUALLY WITHIN 30 INSIDE(o, P)";

struct ClassShape {
  std::string name;
  size_t count = 0;
  size_t updates_per_tick = 0;
  ObjectId first_id = 0;  ///< Classes get disjoint id ranges.
};

struct Shape {
  std::string name;
  bool sharded = true;
  bool wal = false;
  std::vector<ClassShape> classes;
  std::vector<std::string> continuous;
  std::vector<std::string> persistent;
  std::vector<std::string> instantaneous;
};

// Why each workload exists is recorded in README.md.
bool LookupShape(const std::string& name, Shape* shape) {
  if (name == "fleet") {
    *shape = {"fleet", true, false,
              {{"CARS", 20000, 2000, 0}, {"TAXIS", 1000, 100, 1000000}},
              {kQueryI, kQueryIII, kTaxiDist}, {}, {}};
    return true;
  }
  if (name == "ingest") {
    *shape = {"ingest", true, true, {{"CARS", 100000, 20000, 0}},
              {kIngestInside}, {}, {}};
    return true;
  }
  if (name == "paper") {
    *shape = {"paper", false, false,
              {{"CARS", 20000, 200, 0}, {"TAXIS", 1000, 20, 1000000}},
              {kQueryI, kQueryII, kQueryIII}, {kTaxiPersistent},
              {kQueryI, kQueryII, kQueryIII}};
    return true;
  }
  return false;
}

// ---- Inputs -----------------------------------------------------------------

struct Update {
  ObjectId id = kInvalidObjectId;
  Point2 position;
  Vec2 velocity;
};

/// One tick's updates, per class (indexed like Shape::classes).
using Batch = std::vector<std::vector<Update>>;

struct Inputs {
  std::vector<std::vector<ObjectState>> initial;  ///< Per class.
  std::vector<Batch> batches;
  size_t updates_per_tick = 0;
};

Update RandomUpdate(ObjectId id, Rng* rng) {
  Update u;
  u.id = id;
  u.position = {rng->UniformDouble(0, kArea), rng->UniformDouble(0, kArea)};
  double speed = rng->UniformDouble(0.5, 3.0);
  double heading = rng->UniformDouble(0, 2.0 * M_PI);
  u.velocity = {speed * std::cos(heading), speed * std::sin(heading)};
  return u;
}

Inputs GenerateInputs(const Shape& shape, uint64_t seed) {
  Inputs in;
  Rng rng(seed ^ 0x7469636b62656e63ULL);
  for (size_t c = 0; c < shape.classes.size(); ++c) {
    const ClassShape& cs = shape.classes[c];
    FleetGenerator gen({.num_vehicles = cs.count,
                        .area = kArea,
                        .seed = seed * 1000003 + c});
    std::vector<ObjectState> states = gen.initial_states();
    for (ObjectState& s : states) s.id += cs.first_id;
    in.initial.push_back(std::move(states));
    in.updates_per_tick += cs.updates_per_tick;
  }
  const size_t batch_count =
      std::clamp<size_t>(kMaxInputUpdates / in.updates_per_tick, 16, 512);
  // Updated objects are drawn with replacement, so a batch of k updates
  // over n objects dirties about n * (1 - exp(-k / n)) of them.
  in.batches.resize(batch_count);
  for (Batch& batch : in.batches) {
    batch.resize(shape.classes.size());
    for (size_t c = 0; c < shape.classes.size(); ++c) {
      const ClassShape& cs = shape.classes[c];
      batch[c].reserve(cs.updates_per_tick);
      for (size_t k = 0; k < cs.updates_per_tick; ++k) {
        const int64_t i =
            rng.UniformInt(0, static_cast<int64_t>(cs.count) - 1);
        batch[c].push_back(
            RandomUpdate(cs.first_id + static_cast<ObjectId>(i), &rng));
      }
    }
  }
  return in;
}

// ---- Timing, spans and counters --------------------------------------------

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (every thread). Unlike wall time it
/// leaves out the time a shared host steals from the virtual CPUs.
int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

struct Span {
  const char* name = "";
  int64_t trace_id = 0;  ///< Tick number.
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// The benchmark's own in-memory spans. Add() is a no-op while off.
class Tracer {
 public:
  void BeginTick(int64_t tick, bool on) {
    on_ = on;
    tick_ = tick;
    root_ = on ? next_id_++ : 0;
  }
  void Add(const char* name, int64_t start_ns, int64_t end_ns) {
    if (on_) {
      spans_.push_back({name, tick_, next_id_++, root_, start_ns, end_ns});
    }
  }
  void EndTick(int64_t start_ns, int64_t end_ns) {
    if (on_) spans_.push_back({"tick", tick_, root_, 0, start_ns, end_ns});
    on_ = false;
  }
  /// Standalone span outside any tick (probes).
  void AddRoot(const char* name, int64_t tick, int64_t start_ns,
               int64_t end_ns) {
    spans_.push_back({name, tick, next_id_++, 0, start_ns, end_ns});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_ = false;
  int64_t tick_ = 0;
  uint64_t root_ = 0;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// Linear-interpolation quantile of unsorted samples (q in [0, 1]).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct CpuTimes {
  uint64_t steal = 0, total = 0;
};

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  for (int i = 0; i < 10 && in; ++i) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double LoadAverage() {
  std::ifstream in("/proc/loadavg");
  double load = -1;
  in >> load;
  return load;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) bytes += e.file_size(ec);
  }
  return bytes;
}

// ---- World ------------------------------------------------------------------

struct World {
  // Declared first so it is destroyed last: the engine and manager
  // borrow it.
  std::unique_ptr<MostDatabase> db;
  std::unique_ptr<ShardedEngine> engine;  ///< Sharded workloads.
  std::unique_ptr<QueryManager> qm;       ///< paper.
  std::vector<FtlQuery> continuous;
  std::vector<uint64_t> continuous_ids;
  Interval registration_window;
  std::vector<FtlQuery> persistent;
  std::vector<uint64_t> persistent_ids;
  std::vector<FtlQuery> instantaneous;
};

struct RunStats {
  std::vector<double> answer_ms, answer_cpu_ms;  ///< Wall and CPU per read.
  std::vector<double> eval_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t updates = 0;
  uint64_t answer_rows = 0;
  std::vector<std::string> errors;  ///< First few failure messages.

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
  void Check(const Status& s, const char* what) {
    ++attempted;
    if (!s.ok()) Fail(std::string(what) + ": " + s.ToString());
  }
};

Status Populate(const Shape& shape, const Inputs& in, MostDatabase* db) {
  for (size_t c = 0; c < shape.classes.size(); ++c) {
    const std::string& cls = shape.classes[c].name;
    MOST_RETURN_IF_ERROR(db->CreateClass(cls, {}, /*spatial=*/true).status());
    for (const ObjectState& s : in.initial[c]) {
      MOST_RETURN_IF_ERROR(db->RestoreObject(cls, s.id).status());
      MOST_RETURN_IF_ERROR(db->SetMotion(cls, s.id, s.position, s.velocity));
    }
  }
  MOST_RETURN_IF_ERROR(
      db->DefineRegion("P", Polygon::Rectangle({400, 400}, {600, 600})));
  MOST_RETURN_IF_ERROR(
      db->DefineRegion("Q", Polygon::Rectangle({700, 700}, {900, 900})));
  MOST_RETURN_IF_ERROR(
      db->DefineRegion("R", Polygon::Rectangle({450, 450}, {550, 550})));
  return Status::OK();
}

/// Builds the database and the engine or manager, and registers every
/// query with the first full evaluation of each continuous one.
Status BuildWorld(const Shape& shape, const Inputs& in,
                  const std::string& wal_dir, World* w) {
  w->db = std::make_unique<MostDatabase>();
  MOST_RETURN_IF_ERROR(Populate(shape, in, w->db.get()));
  for (const std::string& text : shape.continuous) {
    MOST_ASSIGN_OR_RETURN(FtlQuery q, ParseQuery(text));
    w->continuous.push_back(std::move(q));
  }
  for (const std::string& text : shape.persistent) {
    MOST_ASSIGN_OR_RETURN(FtlQuery q, ParseQuery(text));
    w->persistent.push_back(std::move(q));
  }
  for (const std::string& text : shape.instantaneous) {
    MOST_ASSIGN_OR_RETURN(FtlQuery q, ParseQuery(text));
    w->instantaneous.push_back(std::move(q));
  }
  const Tick now = w->db->Now();
  w->registration_window = Interval(now, now + kHorizon);
  if (shape.sharded) {
    ShardedEngine::Options opts;
    opts.wal_dir = wal_dir;
    w->engine = std::make_unique<ShardedEngine>(w->db.get(), opts);
    for (const FtlQuery& q : w->continuous) {
      MOST_ASSIGN_OR_RETURN(uint64_t id, w->engine->RegisterContinuous(q));
      MOST_RETURN_IF_ERROR(w->engine->ContinuousAnswer(id).status());
      w->continuous_ids.push_back(id);
    }
    return Status::OK();
  }
  w->qm = std::make_unique<QueryManager>(w->db.get());
  for (const FtlQuery& q : w->continuous) {
    MOST_ASSIGN_OR_RETURN(uint64_t id, w->qm->RegisterContinuous(q));
    MOST_RETURN_IF_ERROR(w->qm->ContinuousAnswer(id).status());
    w->continuous_ids.push_back(id);
  }
  for (const FtlQuery& q : w->persistent) {
    MOST_ASSIGN_OR_RETURN(uint64_t id, w->qm->RegisterPersistent(q));
    w->persistent_ids.push_back(id);
  }
  return Status::OK();
}

/// One tick: hand in the batch, bring every answer current, read every
/// answer (and, in paper, run the instantaneous queries).
void RunTick(const Shape& shape, const Batch& batch, World* w, Tracer* tr,
             RunStats* st) {
  int64_t s = NowNs();
  if (w->engine) {
    for (size_t c = 0; c < shape.classes.size(); ++c) {
      for (const Update& u : batch[c]) {
        w->engine->EnqueueMotion(shape.classes[c].name, u.id, u.position,
                                 u.velocity);
      }
      st->attempted += batch[c].size();
      st->updates += batch[c].size();
    }
    int64_t e = NowNs();
    tr->Add("engine.enqueue", s, e);
    s = e;
    Status adv = w->engine->Advance(1);
    e = NowNs();
    tr->Add("engine.advance", s, e);
    st->Check(adv, "Advance");
    for (uint64_t id : w->continuous_ids) {
      const int64_t c = CpuNs();
      s = NowNs();
      Result<ShardedEngine::ShardedAnswer> a = w->engine->ContinuousAnswer(id);
      e = NowNs();
      tr->Add("engine.gather", s, e);
      st->answer_ms.push_back(Ms(e - s));
      st->answer_cpu_ms.push_back(Ms(CpuNs() - c));
      st->Check(a.status(), "ContinuousAnswer");
      if (a.ok()) {
        st->answer_rows += a->tuples.size();
        if (!a->complete()) st->Fail("gather with missing_shards");
      }
    }
    return;
  }
  w->db->clock().Advance(1);
  for (size_t c = 0; c < shape.classes.size(); ++c) {
    for (const Update& u : batch[c]) {
      Status set = w->db->SetMotion(shape.classes[c].name, u.id, u.position,
                                    u.velocity);
      if (!set.ok()) st->Fail("SetMotion: " + set.ToString());
    }
    st->attempted += batch[c].size();
    st->updates += batch[c].size();
  }
  int64_t e = NowNs();
  tr->Add("core.set_motion", s, e);
  s = e;
  Status tick_all = w->qm->TickAll();
  e = NowNs();
  tr->Add("ftl.tick_all", s, e);
  st->Check(tick_all, "TickAll");
  for (uint64_t id : w->continuous_ids) {
    const int64_t c = CpuNs();
    s = NowNs();
    Result<std::vector<AnswerTuple>> a = w->qm->ContinuousAnswer(id);
    e = NowNs();
    tr->Add("ftl.answer", s, e);
    st->answer_ms.push_back(Ms(e - s));
    st->answer_cpu_ms.push_back(Ms(CpuNs() - c));
    st->Check(a.status(), "ContinuousAnswer");
    if (a.ok()) st->answer_rows += a->size();
  }
  for (uint64_t id : w->persistent_ids) {
    const int64_t c = CpuNs();
    s = NowNs();
    Result<std::vector<AnswerTuple>> a = w->qm->PersistentAnswer(id);
    e = NowNs();
    tr->Add("ftl.persistent", s, e);
    st->answer_ms.push_back(Ms(e - s));
    st->answer_cpu_ms.push_back(Ms(CpuNs() - c));
    st->Check(a.status(), "PersistentAnswer");
    if (a.ok()) st->answer_rows += a->size();
  }
  for (const FtlQuery& q : w->instantaneous) {
    s = NowNs();
    Result<TemporalRelation> r = w->qm->Evaluate(q);
    e = NowNs();
    tr->Add("ftl.eval", s, e);
    st->eval_ms.push_back(Ms(e - s));
    st->Check(r.status(), "Evaluate");
  }
}

uint64_t DroppedUpdates(const World& w) {
  uint64_t dropped = 0;
  if (w.engine) {
    for (const auto& s : w.engine->Stats()) dropped += s.updates_dropped;
  }
  return dropped;
}

// ---- Answer check -----------------------------------------------------------

/// Compares every continuous answer with a fresh full evaluation over its
/// registration window, and every instantaneous answer with the naive
/// per-state evaluator on sampled (object, tick) points.
void CheckAnswers(World* w, uint64_t seed, RunStats* st,
                  std::vector<std::string>* passed) {
  QueryManager::Options flat_opts;
  flat_opts.listen = false;
  QueryManager flattener(w->db.get(), flat_opts);
  ThreadPool pool(0);
  for (size_t i = 0; i < w->continuous.size(); ++i) {
    const FtlQuery& q = w->continuous[i];
    ++st->attempted;
    std::vector<AnswerTuple> got;
    if (w->engine) {
      auto a = w->engine->ContinuousAnswer(w->continuous_ids[i]);
      if (!a.ok()) {
        st->Fail("check read: " + a.status().ToString());
        continue;
      }
      got = std::move(a->tuples);
    } else {
      auto a = w->qm->ContinuousAnswer(w->continuous_ids[i]);
      if (!a.ok()) {
        st->Fail("check read: " + a.status().ToString());
        continue;
      }
      got = std::move(*a);
    }
    FtlEvaluator::Options eopts;
    eopts.pool = &pool;
    FtlEvaluator fresh(*w->db, eopts);
    Result<TemporalRelation> rel =
        fresh.EvaluateQuery(q, w->registration_window);
    if (!rel.ok()) {
      st->Fail("check eval: " + rel.status().ToString());
      continue;
    }
    std::vector<AnswerTuple> want = flattener.FlattenAnswer(q, *rel, false);
    if (got != want) {
      st->Fail("continuous answer differs from a fresh evaluation: " +
               q.ToString() + " (" + std::to_string(got.size()) + " vs " +
               std::to_string(want.size()) + " tuples)");
    } else {
      passed->push_back("continuous: " + q.ToString() + " (" +
                        std::to_string(got.size()) + " tuples)");
    }
  }
  if (w->instantaneous.empty()) return;
  // Sampled sub-domain: kObjects objects of the query's class, half of
  // them drawn from the answer, and kTicks ticks of the evaluation window
  // each, half of those drawn from the object's answer intervals.
  constexpr int kObjects = 16;
  constexpr int kTicks = 6;
  Rng rng(seed * 31 + 7);
  NaiveFtlEvaluator naive(*w->db);
  const Tick now = w->db->Now();
  const Interval window(now, now + kHorizon);
  for (const FtlQuery& q : w->instantaneous) {
    Result<TemporalRelation> rel = w->qm->Evaluate(q);
    ++st->attempted;
    if (!rel.ok()) {
      st->Fail("check Evaluate: " + rel.status().ToString());
      continue;
    }
    auto cls = w->db->GetClass(q.from[0].class_name);
    if (!cls.ok() || (*cls)->objects().empty()) {
      st->Fail("check: class " + q.from[0].class_name);
      continue;
    }
    const auto& objects = (*cls)->objects();
    std::vector<ObjectId> answered;
    for (const auto& [binding, when] : rel->rows) {
      answered.push_back(binding[0]);
    }
    const ObjectId max_id = objects.rbegin()->first;
    int mismatches = 0, points = 0, hits = 0;
    for (int k = 0; k < kObjects; ++k) {
      ObjectId id = k % 2 == 0 && !answered.empty()
                        ? answered[rng.UniformInt(0, answered.size() - 1)]
                        : static_cast<ObjectId>(rng.UniformInt(0, max_id));
      auto it = objects.lower_bound(id);
      if (it == objects.end()) it = objects.begin();
      const MostObject* obj = &it->second;
      auto row = rel->rows.find({obj->id()});
      for (int j = 0; j < kTicks; ++j) {
        Tick t = rng.UniformInt(window.begin, window.end);
        if (j % 2 == 0 && row != rel->rows.end() && !row->second.empty()) {
          const auto& ivs = row->second.intervals();
          const Interval iv = ivs[rng.UniformInt(0, ivs.size() - 1)];
          t = rng.UniformInt(std::max(iv.begin, window.begin),
                             std::min(iv.end, window.end));
        }
        bool fast = row != rel->rows.end() && row->second.Contains(t);
        Result<bool> slow =
            naive.Holds(q.where, {{q.from[0].var, obj}}, t, window);
        ++points;
        hits += fast ? 1 : 0;
        if (!slow.ok() || *slow != fast) ++mismatches;
      }
    }
    if (mismatches > 0) {
      st->Fail("instantaneous answer differs from the naive evaluator at " +
               std::to_string(mismatches) + " of " + std::to_string(points) +
               " sampled points: " + q.ToString());
    } else {
      passed->push_back("instantaneous vs naive: " + q.ToString() + " (" +
                        std::to_string(points) + " points, " +
                        std::to_string(hits) + " true)");
    }
  }
}

// ---- Per-layer rollup -------------------------------------------------------

/// The per-layer values of one traced tick by name: child spans summed by
/// span name, probes, and counter deltas over the tick.
using LayerTick = std::map<std::string, double>;

const char* OperatorKind(const std::string& label) {
  std::string op = label.substr(0, label.find(' '));
  if (op == "And" || op == "Or" || op == "Not") return "join";
  if (op == "Until" || op == "UntilWithin" || op == "Nexttime" ||
      op == "Eventually" || op == "EventuallyWithin" ||
      op == "EventuallyAfter" || op == "Always" || op == "AlwaysFor" ||
      op == "Assign") {
    return "temporal";
  }
  if (op == "Inside" || op == "Outside" || op == "WithinSphere" ||
      op == "Compare" || op == "BoolLit") {
    return "atom";
  }
  // Refresh roots and restricted passes: eviction, splice, projection.
  return "project";
}

void AddSelfTimes(const obs::ProfileNode& node, LayerTick* lt) {
  uint64_t children = 0;
  for (const auto& c : node.children) {
    children += c->duration_ns;
    AddSelfTimes(*c, lt);
  }
  double self = Ms(static_cast<int64_t>(
      node.duration_ns > children ? node.duration_ns - children : 0));
  (*lt)[std::string("ftl.") + OperatorKind(node.label) + "_ms"] += self;
}

/// Cumulative readings a traced tick's deltas are taken from: counters
/// the program exports, refresh totals, and the size of the WAL.
using Readings = std::map<std::string, double>;

Readings Read(const World& w, const std::string& wal_dir) {
  Readings r;
  for (const obs::FamilySnapshot& f :
       obs::MetricsRegistry::Global().Collect()) {
    double value = 0, hist_sum = 0, hist_count = 0;
    for (const obs::SeriesSnapshot& s : f.series) {
      value += s.value;
      if (s.hist) {
        hist_sum += s.hist->sum;
        hist_count += static_cast<double>(s.hist->count);
      }
    }
    if (f.name == "most_ftl_instantiations_total") r["instantiations"] = value;
    if (f.name == "most_ftl_join_pairs_total") r["join_pairs"] = value;
    if (f.name == "most_ftl_arena_bytes_total") r["arena_bytes"] = value;
    if (f.name == "most_ftl_evaluations_total") r["evaluations"] = value;
    if (f.name == "most_qm_refresh_latency_seconds") r["refresh_s"] = hist_sum;
    if (f.name == "most_wal_append_latency_seconds") {
      r["wal_append_s"] = hist_sum;
      r["wal_appends"] = hist_count;
    }
  }
  const QueryManager::RefreshCounters rc =
      w.engine ? w.engine->TotalRefreshCounters()
               : w.qm->TotalRefreshCounters();
  r["delta_refreshes"] = static_cast<double>(rc.delta_evaluations);
  r["full_refreshes"] = static_cast<double>(rc.full_evaluations);
  r["wal_bytes"] =
      wal_dir.empty() ? 0 : static_cast<double>(DirectoryBytes(wal_dir));
  return r;
}

/// The per-layer record of the tick that just ended: its child spans, a
/// snapshot-build probe, per-shard refresh times or operator self times,
/// and counter deltas. Runs outside the tick's timing, after every tick of
/// a traced run, so traced and untraced ticks follow the same work.
LayerTick ProbeTick(World* w, const std::string& wal_dir, int64_t tick,
                    bool traced, double tick_ms, Tracer* tracer,
                    Readings* base) {
  LayerTick lt;
  lt["tick_ms"] = tick_ms;
  double children = 0;
  for (size_t i = tracer->spans().size(); i-- > 0;) {
    const Span& s = tracer->spans()[i];
    if (s.trace_id != tick) break;
    if (s.parent != 0) {
      lt[s.name] += Ms(s.end_ns - s.start_ns);
      children += Ms(s.end_ns - s.start_ns);
    }
  }
  lt["bench.unattributed_ms"] = tick_ms - children;
  auto cars = w->db->GetClass("CARS");
  if (cars.ok()) {
    const Tick now = w->db->Now();
    const int64_t p0 = NowNs();
    ClassSnapshot snap;
    snap.Build(**cars, Interval(now, now + kHorizon));
    const int64_t p1 = NowNs();
    lt["core.snapshot_build_ms"] = Ms(p1 - p0);
    if (traced) tracer->AddRoot("core.snapshot_build", tick, p0, p1);
  }
  if (w->engine) {
    double mx = 0, sum = 0;
    const auto stats = w->engine->Stats();
    for (const auto& s : stats) {
      mx = std::max(mx, s.last_refresh_seconds * 1e3);
      sum += s.last_refresh_seconds * 1e3;
    }
    lt["engine.refresh_max_ms"] = mx;
    lt["engine.refresh_sum_ms"] = sum;
    lt["engine.refresh_skew"] = sum > 0 ? mx / (sum / stats.size()) : 1.0;
  } else {
    for (uint64_t id : w->continuous_ids) {
      auto p = w->qm->Profile(id);
      if (p.ok() && *p) AddSelfTimes((*p)->root, &lt);
    }
  }
  const Readings now = Read(*w, wal_dir);
  for (const auto& [name, value] : now) lt[name] = value - (*base)[name];
  *base = now;
  return lt;
}

// ---- Report -----------------------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back("\"" + name + "\": {\"value\": " + Num(value) +
                       ", \"unit\": \"" + unit + "\"}");
  }
  void Field(const std::string& name, const std::string& json) {
    fields_.push_back("\"" + name + "\": " + json);
  }
  std::string Render() const {
    std::string out = "{";
    for (const std::string& f : fields_) out += f + ", ";
    out += "\"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      out += (i ? ", " : "") + metrics_[i];
    }
    return out + "}}";
  }

 private:
  std::vector<std::string> fields_;
  std::vector<std::string> metrics_;
};

std::string JsonStrings(const std::vector<std::string>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    out += (i ? ", \"" : "\"") + JsonEscape(v[i]) + "\"";
  }
  return out + "]";
}

Status WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                        int64_t origin_ns) {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot write " + path);
  out << "{\"traceEvents\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << Num(static_cast<double>(s.start_ns - origin_ns) / 1e3)
        << ", \"dur\": "
        << Num(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        << ", \"args\": {\"trace_id\": " << s.trace_id
        << ", \"span_id\": " << s.id << ", \"parent_id\": " << s.parent
        << "}}";
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out ? Status::OK() : Status::Internal("short write " + path);
}

/// Self time per span name: duration minus the part covered by children.
std::map<std::string, double> SelfTimeRollup(const std::vector<Span>& spans) {
  std::map<uint64_t, int64_t> child_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    self[s.name] += Ms(s.end_ns - s.start_ns - child_ns[s.id]);
  }
  return self;
}

// ---- Main -------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--out") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

int Run(const Args& args) {
  Shape shape;
  if (!LookupShape(args.workload, &shape)) {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  std::filesystem::create_directories(args.out_dir);
  const Inputs inputs = GenerateInputs(shape, args.seed);
  RunStats st;

  std::vector<double> setup_s, setup_wall_s, tick_ms, tick_cpu_ms, untraced_ms;
  std::vector<LayerTick> layers;
  Tracer tracer;
  // Held by pointer so destruction follows member order (manager and
  // engine before the database they borrow).
  std::unique_ptr<World> world;
  std::string wal_dir;
  size_t next_batch = 0;
  int64_t tick = 0, tick_wall_ns = 0, tick_cpu_ns = 0;
  int recorded_segments = 0;
  CpuTimes cpu_before;
  int64_t loop_start = 0;
  const int64_t budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  for (int segment = 0;; ++segment) {
    const bool record = segment > 0;
    if (segment == 1) {
      cpu_before = ReadCpuTimes();
      loop_start = NowNs();
    }
    if (segment > kMinSegments && NowNs() - loop_start >= budget_ns) break;
    world.reset();
    if (!wal_dir.empty()) std::filesystem::remove_all(wal_dir);
    if (shape.wal) {
      wal_dir = args.out_dir + "/wal-" + shape.name + "-" +
                std::to_string(getpid());
      std::filesystem::remove_all(wal_dir);
    }
    world = std::make_unique<World>();
    RunStats unrecorded;
    Tracer off;
    const int64_t s0 = NowNs(), c0 = CpuNs();
    Status built = BuildWorld(shape, inputs, wal_dir, world.get());
    if (!built.ok()) {
      std::cerr << "set-up failed: " << built << "\n";
      return 1;
    }
    for (int k = 0; k < kWarmTicks; ++k) {
      RunTick(shape, inputs.batches[next_batch++ % inputs.batches.size()],
              world.get(), &off, &unrecorded);
    }
    if (record) {
      setup_s.push_back(static_cast<double>(CpuNs() - c0) / 1e9);
      setup_wall_s.push_back(static_cast<double>(NowNs() - s0) / 1e9);
      ++recorded_segments;
    }
    const uint64_t dropped_before = DroppedUpdates(*world);
    Readings base = args.trace ? Read(*world, wal_dir) : Readings();
    RunStats* sink = record ? &st : &unrecorded;
    for (int k = 0; k < kSegmentTicks; ++k, ++tick) {
      const bool traced = record && args.trace && tick % 2 == 0;
      const uint64_t updates_before = sink->updates;
      const uint64_t rows_before = sink->answer_rows;
      tracer.BeginTick(tick, traced);
      const int64_t c0 = CpuNs();
      const int64_t t0 = NowNs();
      RunTick(shape, inputs.batches[next_batch++ % inputs.batches.size()],
              world.get(), &tracer, sink);
      const int64_t t1 = NowNs();
      const int64_t c1 = CpuNs();
      tracer.EndTick(t0, t1);
      if (record) {
        (traced || !args.trace ? tick_ms : untraced_ms).push_back(Ms(t1 - t0));
        tick_cpu_ms.push_back(Ms(c1 - c0));
        tick_wall_ns += t1 - t0;
        tick_cpu_ns += c1 - c0;
      }
      if (args.trace) {
        LayerTick lt = ProbeTick(world.get(), wal_dir, tick, traced,
                                 Ms(t1 - t0), &tracer, &base);
        lt["updates"] = static_cast<double>(sink->updates - updates_before);
        lt["answer_rows"] =
            static_cast<double>(sink->answer_rows - rows_before);
        if (traced) layers.push_back(std::move(lt));
      }
    }
    const uint64_t dropped = DroppedUpdates(*world) - dropped_before;
    for (uint64_t i = 0; i < dropped; ++i) st.Fail("dropped update");
    st.attempted += unrecorded.attempted;
    st.failed += unrecorded.failed;
    for (const std::string& e : unrecorded.errors) {
      if (st.errors.size() < 8) st.errors.push_back("unrecorded: " + e);
    }
  }
  const CpuTimes cpu_after = ReadCpuTimes();
  const double loop_s = static_cast<double>(NowNs() - loop_start) / 1e9;
  const double peak_rss = PeakRssMb();

  std::vector<std::string> passed;
  CheckAnswers(world.get(), args.seed, &st, &passed);

  Report rep;
  rep.Field("workload", "\"" + shape.name + "\"");
  rep.Field("seed", std::to_string(args.seed));
  rep.Field("trace", args.trace ? "1" : "0");

  std::vector<std::string> checks = passed;
  if (!args.trace) {
    const double updates = static_cast<double>(st.updates);
    // Gated in BENCHMARK.json: CPU time, which host steal does not inflate.
    rep.Metric("tick_cpu_p50_ms", Quantile(tick_cpu_ms, 0.5), "ms");
    rep.Metric("tick_cpu_p90_ms", Quantile(tick_cpu_ms, 0.9), "ms");
    rep.Metric("updates_per_cpu_s", updates / (tick_cpu_ns / 1e9), "1/s");
    rep.Metric("answer_cpu_p50_ms", Quantile(st.answer_cpu_ms, 0.5), "ms");
    rep.Metric("answer_cpu_p90_ms", Quantile(st.answer_cpu_ms, 0.9), "ms");
    rep.Metric("setup_s", Quantile(setup_s, 0.5), "s");
    rep.Metric("peak_rss_mb", peak_rss, "MB");
    // Wall-clock latency as a user sees it; reported beside the above.
    rep.Metric("tick_p50_ms", Quantile(tick_ms, 0.5), "ms");
    rep.Metric("tick_p90_ms", Quantile(tick_ms, 0.9), "ms");
    rep.Metric("updates_per_s", updates / (tick_wall_ns / 1e9), "1/s");
    rep.Metric("answer_p50_ms", Quantile(st.answer_ms, 0.5), "ms");
    rep.Metric("answer_p90_ms", Quantile(st.answer_ms, 0.9), "ms");
    if (!st.eval_ms.empty()) {
      rep.Metric("eval_p50_ms", Quantile(st.eval_ms, 0.5), "ms");
      rep.Metric("eval_p90_ms", Quantile(st.eval_ms, 0.9), "ms");
    }
    rep.Metric("setup_wall_s", Quantile(setup_wall_s, 0.5), "s");
  } else {
    // Per-layer values are means over the traced ticks whose duration lies
    // between the first and third quartile, so they add up to a typical
    // tick rather than being dragged by outliers.
    std::vector<double> traced_ms;
    for (const LayerTick& lt : layers) traced_ms.push_back(lt.at("tick_ms"));
    const double q1 = Quantile(traced_ms, 0.25), q3 = Quantile(traced_ms, 0.75);
    LayerTick sum;
    double n = 0;
    for (const LayerTick& lt : layers) {
      if (lt.at("tick_ms") < q1 || lt.at("tick_ms") > q3) continue;
      ++n;
      for (const auto& [k, v] : lt) sum[k] += v;
    }
    n = std::max(n, 1.0);
    auto mean = [&](const std::string& key) { return sum[key] / n; };
    auto ratio = [&](const std::string& a, const std::string& b) {
      return sum[b] > 0 ? sum[a] / sum[b] : 0.0;
    };
    const double traced_p50 = Quantile(traced_ms, 0.5);
    const double untraced_p50 = Quantile(untraced_ms, 0.5);
    // Stage split shared by every workload.
    double updates_ms, refresh_ms, answers_ms;
    if (world->engine) {
      updates_ms = mean("engine.enqueue");
      refresh_ms = mean("engine.advance");
      answers_ms = mean("engine.gather");
    } else {
      updates_ms = mean("core.set_motion");
      refresh_ms = mean("ftl.tick_all");
      answers_ms =
          mean("ftl.answer") + mean("ftl.persistent") + mean("ftl.eval");
    }
    const double unattributed = mean("bench.unattributed_ms");
    rep.Metric("tick.updates_ms", updates_ms, "ms");
    rep.Metric("tick.refresh_ms", refresh_ms, "ms");
    rep.Metric("tick.answers_ms", answers_ms, "ms");
    rep.Metric("bench.unattributed_ms", unattributed, "ms");
    rep.Metric("bench.trace_overhead_pct",
               untraced_p50 > 0 ? (traced_p50 / untraced_p50 - 1) * 100 : 0,
               "%");
    rep.Metric("core.snapshot_build_ms", mean("core.snapshot_build_ms"), "ms");
    rep.Metric("ftl.refresh_ms", mean("refresh_s") * 1e3, "ms");
    sum["refreshes"] = sum["delta_refreshes"] + sum["full_refreshes"];
    rep.Metric("ftl.delta_frac", ratio("delta_refreshes", "refreshes"),
               "ratio");
    rep.Metric("ftl.instantiations_per_row",
               ratio("instantiations", "answer_rows"), "ratio");
    rep.Metric("ftl.arena_mb", mean("arena_bytes") / (1 << 20), "MB");
    rep.Metric("ftl.evaluations", mean("evaluations"), "count");
    rep.Metric("ftl.join_pairs", mean("join_pairs"), "count");
    if (world->engine) {
      rep.Metric("engine.enqueue_ms", updates_ms, "ms");
      rep.Metric("engine.advance_ms", refresh_ms, "ms");
      rep.Metric("engine.refresh_max_ms", mean("engine.refresh_max_ms"), "ms");
      rep.Metric("engine.refresh_sum_ms", mean("engine.refresh_sum_ms"), "ms");
      rep.Metric("engine.refresh_skew", mean("engine.refresh_skew"), "ratio");
      const double drain = refresh_ms - mean("engine.refresh_max_ms");
      rep.Metric("engine.drain_ms", drain, "ms");
      rep.Metric("engine.drain_us_per_update",
                 drain * 1e3 / std::max(mean("updates"), 1.0), "us");
      rep.Metric("engine.gather_ms", answers_ms, "ms");
    } else {
      rep.Metric("core.set_motion_ms", updates_ms, "ms");
      rep.Metric("ftl.tick_all_ms", refresh_ms, "ms");
      rep.Metric("ftl.answer_ms", mean("ftl.answer"), "ms");
      rep.Metric("ftl.persistent_ms", mean("ftl.persistent"), "ms");
      rep.Metric("ftl.eval_ms", mean("ftl.eval"), "ms");
      for (const char* kind : {"atom", "join", "temporal", "project"}) {
        const std::string name = std::string("ftl.") + kind + "_ms";
        rep.Metric(name, mean(name), "ms");
      }
    }
    if (shape.wal) {
      rep.Metric("storage.wal_append_us",
                 ratio("wal_append_s", "wal_appends") * 1e6, "us");
      rep.Metric("storage.wal_bytes_per_update", ratio("wal_bytes", "updates"),
                 "B");
    }
    rep.Metric("bench.traced_tick_p50_ms", traced_p50, "ms");
    rep.Metric("bench.untraced_tick_p50_ms", untraced_p50, "ms");
    // Rollup check: the split plus the unattributed remainder must add up
    // to the traced run's median tick.
    const double rollup = updates_ms + refresh_ms + answers_ms + unattributed;
    const double err = traced_p50 > 0 ? std::abs(rollup / traced_p50 - 1) : 1;
    rep.Metric("bench.rollup_ms", rollup, "ms");
    ++st.attempted;
    if (err > 0.10 || unattributed < 0) {
      st.Fail("per-layer rollup " + Num(rollup) + " ms vs traced tick p50 " +
              Num(traced_p50) + " ms");
    } else {
      checks.push_back("rollup: " + Num(rollup) + " ms vs traced tick p50 " +
                       Num(traced_p50) + " ms");
    }
    const std::string trace_path = args.out_dir + "/" + shape.name + "-seed" +
                                   std::to_string(args.seed) + ".trace.json";
    st.Check(WriteChromeTrace(trace_path, tracer.spans(), loop_start),
             "write trace");
    std::string rollup_json = "{";
    for (const auto& [name, ms] : SelfTimeRollup(tracer.spans())) {
      rollup_json += (rollup_json.size() > 1 ? ", \"" : "\"") + name +
                     "\": " + Num(ms);
    }
    rep.Field("self_time_ms", rollup_json + "}");
    rep.Field("trace_file", "\"" + JsonEscape(trace_path) + "\"");
  }
  rep.Metric("failed_frac",
             st.attempted > 0 ? static_cast<double>(st.failed) /
                                    static_cast<double>(st.attempted)
                              : 1.0,
             "ratio");
  rep.Field("samples",
            "{\"ticks\": " + std::to_string(tick_ms.size()) +
                ", \"untraced_ticks\": " + std::to_string(untraced_ms.size()) +
                ", \"traced_layer_ticks\": " + std::to_string(layers.size()) +
                ", \"answers\": " + std::to_string(st.answer_ms.size()) +
                ", \"evals\": " + std::to_string(st.eval_ms.size()) +
                ", \"segments\": " + std::to_string(recorded_segments) + "}");
  rep.Field("steadiness",
            "{\"cpus\": " +
                std::to_string(std::thread::hardware_concurrency()) +
                ", \"shards\": " +
                std::to_string(world->engine ? world->engine->shard_count()
                                             : 1) +
                ", \"loadavg_1m\": " + Num(LoadAverage()) +
                ", \"steal_jiffies\": " +
                std::to_string(cpu_after.steal - cpu_before.steal) +
                ", \"cpu_jiffies\": " +
                std::to_string(cpu_after.total - cpu_before.total) +
                ", \"loop_s\": " + Num(loop_s) + "}");
  rep.Field("checks", JsonStrings(checks));
  rep.Field("errors", JsonStrings(st.errors));
  rep.Field("correct", st.failed == 0 ? "true" : "false");
  rep.Field("attempted", std::to_string(st.attempted));
  rep.Field("failed", std::to_string(st.failed));

  world.reset();
  if (!wal_dir.empty()) std::filesystem::remove_all(wal_dir);
  std::cout << rep.Render() << std::endl;
  return 0;
}

}  // namespace
}  // namespace most

int main(int argc, char** argv) {
  most::Args args;
  if (!most::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: tick_bench --workload fleet|ingest|paper --seed N "
                 "--seconds S --trace 0|1 [--out DIR]\n";
    return 2;
  }
  return most::Run(args);
}
