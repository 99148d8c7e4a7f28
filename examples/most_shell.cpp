// An interactive shell for the MOST database: build a world of moving
// objects, advance the clock, and run FTL queries against it. Designed to
// be equally usable from a pipe, so scenarios can be scripted:
//
//   echo 'demo
//   query RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 30 INSIDE(o, P)
//   tick 25
//   query RETRIEVE o FROM CARS o WHERE INSIDE(o, P)' | ./most_shell
//
// Type `help` for the command list.

#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>

#include "common/failpoint.h"
#include "core/object_model.h"
#include "core/sharded_engine.h"
#include "ftl/nearest.h"
#include "ftl/parser.h"
#include "ftl/query_manager.h"
#include "obs/exporters.h"
#include "obs/governor.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

using namespace most;

namespace {

constexpr const char* kHelp = R"(Commands:
  class <name> [spatial] [attr:double|int|string|dyn ...]
                                 declare an object class
  object <class>                 create an object (prints its id)
  motion <class> <id> <x> <y> <vx> <vy>
                                 set position + velocity at the current time
  static <class> <id> <attr> <value>
                                 set a static attribute
  dynamic <class> <id> <attr> <value> <slope>
                                 set a dynamic attribute (value + per-tick slope)
  region <name> rect <x0> <y0> <x1> <y1>
  region <name> circle <cx> <cy> <radius>
                                 define a named region
  tick [n]                       advance the clock (default 1)
  now                            print the current time
  query <FTL query>              instantaneous query at the current time
  answer <FTL query>             full Answer relation with time intervals
  continuous <FTL query>         register a continuous query (prints handle)
  show <handle>                  current display of a continuous query
  explain <handle>               per-subformula evaluation profile of the
                                 last refresh (EXPLAIN ANALYZE)
  cancel <handle>                cancel a continuous query
  metrics                        dump the engine metrics snapshot
  health                         governor limits, backpressure, storage
                                 health and recent degrade events
  shards [n]                     shard-per-core engine view: per-shard
                                 object counts, queue depths, refresh
                                 counts and latencies (docs/sharding.md);
                                 n reshards (default: one per core)
  failpoints                     armed fault-injection sites (spec + fired
                                 counts); docs/durability.md lists all sites
  trace [file]                   dump recorded spans as Chrome trace-event
                                 JSON (open in Perfetto / chrome://tracing);
                                 writes to file if given, else stdout
  telemetry                      per-tick telemetry timeline: tracked
                                 series, recent samples, window rates and
                                 watchdog state (docs/observability.md)
  nearest <from-class> <id> <target-class>
                                 nearest target object, now and over time
  demo                           load a small ready-made world
  help                           this text
  quit                           exit
)";

class Shell {
 public:
  Shell() : qm_(&db_, {.horizon = 512}) {}

  int Run() {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!Dispatch(line)) break;
    }
    return 0;
  }

 private:
  static std::vector<std::string> Tokens(const std::string& line) {
    std::istringstream is(line);
    std::vector<std::string> out;
    std::string tok;
    while (is >> tok) out.push_back(tok);
    return out;
  }

  void Report(const Status& status) {
    if (!status.ok()) std::cout << "error: " << status.ToString() << "\n";
  }

  // Returns false to quit.
  bool Dispatch(const std::string& line) {
    std::vector<std::string> t = Tokens(line);
    if (t.empty() || t[0][0] == '#') return true;
    const std::string& cmd = t[0];
    if (cmd == "quit" || cmd == "exit") return false;
    if (cmd == "help") {
      std::cout << kHelp;
    } else if (cmd == "class" && t.size() >= 2) {
      bool spatial = false;
      std::vector<AttributeDecl> attrs;
      for (size_t i = 2; i < t.size(); ++i) {
        if (t[i] == "spatial") {
          spatial = true;
          continue;
        }
        size_t colon = t[i].rfind(':');
        if (colon == std::string::npos) {
          std::cout << "error: attribute must be name:type\n";
          return true;
        }
        std::string name = t[i].substr(0, colon);
        std::string type = t[i].substr(colon + 1);
        if (type == "dyn") {
          attrs.push_back({name, true, ValueType::kNull});
        } else if (type == "double") {
          attrs.push_back({name, false, ValueType::kDouble});
        } else if (type == "int") {
          attrs.push_back({name, false, ValueType::kInt});
        } else if (type == "string") {
          attrs.push_back({name, false, ValueType::kString});
        } else {
          std::cout << "error: unknown type '" << type << "'\n";
          return true;
        }
      }
      Report(db_.CreateClass(t[1], attrs, spatial).status());
    } else if (cmd == "object" && t.size() == 2) {
      auto obj = db_.CreateObject(t[1]);
      if (obj.ok()) {
        std::cout << "object " << (*obj)->id() << "\n";
      } else {
        Report(obj.status());
      }
    } else if (cmd == "motion" && t.size() == 7) {
      Report(db_.SetMotion(t[1], std::stoull(t[2]),
                           {std::stod(t[3]), std::stod(t[4])},
                           {std::stod(t[5]), std::stod(t[6])}));
    } else if (cmd == "static" && t.size() == 5) {
      // Numbers become doubles, everything else a string.
      char* end = nullptr;
      double v = std::strtod(t[4].c_str(), &end);
      Value value = (*end == '\0') ? Value(v) : Value(t[4]);
      Report(db_.UpdateStatic(t[1], std::stoull(t[2]), t[3], value));
    } else if (cmd == "dynamic" && t.size() == 6) {
      Report(db_.UpdateDynamic(t[1], std::stoull(t[2]), t[3],
                               std::stod(t[4]),
                               TimeFunction::Linear(std::stod(t[5]))));
    } else if (cmd == "region" && t.size() >= 3 && t[2] == "rect" &&
               t.size() == 7) {
      Report(db_.DefineRegion(
          t[1], Polygon::Rectangle({std::stod(t[3]), std::stod(t[4])},
                                   {std::stod(t[5]), std::stod(t[6])})));
    } else if (cmd == "region" && t.size() >= 3 && t[2] == "circle" &&
               t.size() == 6) {
      Report(db_.DefineRegion(
          t[1], Polygon::RegularApprox({std::stod(t[3]), std::stod(t[4])},
                                       std::stod(t[5]), 32)));
    } else if (cmd == "tick") {
      db_.clock().Advance(t.size() > 1 ? std::stoll(t[1]) : 1);
      std::cout << "t=" << db_.Now() << "\n";
    } else if (cmd == "now") {
      std::cout << "t=" << db_.Now() << "\n";
    } else if (cmd == "query" || cmd == "answer" || cmd == "continuous") {
      std::string text = line.substr(line.find(cmd) + cmd.size());
      auto query = ParseQuery(text);
      if (!query.ok()) {
        Report(query.status());
        return true;
      }
      if (cmd == "query") {
        auto result = qm_.Instantaneous(*query);
        if (!result.ok()) {
          Report(result.status());
          return true;
        }
        for (const auto& binding : *result) {
          std::cout << " ";
          for (size_t i = 0; i < binding.size(); ++i) {
            std::cout << (i ? "," : "") << binding[i];
          }
          std::cout << "\n";
        }
        std::cout << result->size() << " result(s) at t=" << db_.Now()
                  << "\n";
      } else if (cmd == "answer") {
        auto rel = qm_.Evaluate(*query);
        if (!rel.ok()) {
          Report(rel.status());
          return true;
        }
        for (const auto& [binding, when] : rel->rows) {
          std::cout << " (";
          for (size_t i = 0; i < binding.size(); ++i) {
            std::cout << (i ? "," : "") << binding[i];
          }
          std::cout << ") during " << when.ToString() << "\n";
        }
        std::cout << rel->rows.size() << " tuple(s)\n";
      } else {
        auto handle = qm_.RegisterContinuous(*query);
        if (handle.ok()) {
          std::cout << "continuous query " << *handle << " registered\n";
        } else {
          Report(handle.status());
        }
      }
    } else if (cmd == "show" && t.size() == 2) {
      auto result = qm_.CurrentAnswer(std::stoull(t[1]));
      if (!result.ok()) {
        Report(result.status());
        return true;
      }
      for (const auto& binding : *result) {
        std::cout << " ";
        for (size_t i = 0; i < binding.size(); ++i) {
          std::cout << (i ? "," : "") << binding[i];
        }
        std::cout << "\n";
      }
      std::cout << result->size() << " on display at t=" << db_.Now() << "\n";
    } else if (cmd == "explain" && t.size() == 2) {
      auto text = qm_.Explain(std::stoull(t[1]));
      if (text.ok()) {
        std::cout << *text;
      } else {
        Report(text.status());
      }
    } else if (cmd == "metrics") {
      obs::DumpMetrics(std::cout);
    } else if (cmd == "health") {
      PrintHealth();
    } else if (cmd == "failpoints") {
      PrintFailpoints();
    } else if (cmd == "trace") {
      CmdTrace(t.size() >= 2 ? t[1] : "");
    } else if (cmd == "telemetry") {
      PrintTelemetry();
    } else if (cmd == "shards") {
      CmdShards(t.size() >= 2 ? std::stoull(t[1]) : 0);
    } else if (cmd == "cancel" && t.size() == 2) {
      Report(qm_.Cancel(std::stoull(t[1])));
    } else if (cmd == "nearest" && t.size() == 4) {
      auto cls = db_.GetClass(t[1]);
      if (!cls.ok()) {
        Report(cls.status());
        return true;
      }
      auto obj = (*cls)->Get(std::stoull(t[2]));
      if (!obj.ok()) {
        Report(obj.status());
        return true;
      }
      auto now_result = NearestNeighbor(db_, t[3], **obj, db_.Now());
      if (!now_result.ok()) {
        Report(now_result.status());
        return true;
      }
      std::cout << "nearest now: object " << now_result->id << " at distance "
                << now_result->distance << "\n";
      auto envelope = NearestOverWindow(
          db_, t[3], **obj, Interval(db_.Now(), db_.Now() + 100));
      if (envelope.ok()) {
        for (const auto& [id, when] : *envelope) {
          std::cout << "  object " << id << " nearest during "
                    << when.ToString() << "\n";
        }
      }
    } else if (cmd == "demo") {
      LoadDemo();
    } else {
      std::cout << "error: unrecognized command (try `help`)\n";
    }
    return true;
  }

  static void PrintLimit(const char* name, uint64_t value) {
    std::cout << "  " << name << ": ";
    if (value == 0) {
      std::cout << "unlimited\n";
    } else {
      std::cout << value << "\n";
    }
  }

  // One-stop operator view of the resource-governance state
  // (docs/robustness.md): knobs, storage health, channel backpressure and
  // the most recent degrade events.
  void PrintHealth() {
    ResourceGovernor& gov = ResourceGovernor::Global();
    const ResourceGovernor::Limits limits = gov.limits();
    std::cout << "governor limits (0 = unlimited):\n";
    PrintLimit("refresh deadline (ns)",
               static_cast<uint64_t>(limits.refresh_budget.deadline_ns));
    PrintLimit("refresh arena bytes", limits.refresh_budget.max_arena_bytes);
    PrintLimit("refresh rows", limits.refresh_budget.max_rows);
    PrintLimit("refresh queue", limits.refresh_queue_limit);
    PrintLimit("degrade cooldown (ticks)",
               static_cast<uint64_t>(limits.degrade_cooldown_ticks));
    PrintLimit("channel unacked messages", limits.channel_max_unacked_messages);
    PrintLimit("channel unacked bytes", limits.channel_max_unacked_bytes);
    PrintLimit("channel dead horizon (ticks)",
               static_cast<uint64_t>(limits.channel_peer_dead_horizon));
    std::cout << "storage: "
              << (gov.storage_degraded() ? "DEGRADED" : "ok");
    if (gov.storage_degraded()) {
      std::cout << " (" << gov.storage_degraded_detail() << ")";
    }
    std::cout << "\n";
    std::vector<ResourceGovernor::PeerPressure> peers =
        gov.BackpressureSnapshot();
    if (peers.empty()) {
      std::cout << "backpressure: no reliable endpoints registered\n";
    } else {
      std::cout << "backpressure:\n";
      for (const auto& p : peers) {
        std::cout << "  node " << p.endpoint_node << " -> peer " << p.peer
                  << ": " << BackpressureToString(p.state) << " ("
                  << p.pending_messages << " msgs, " << p.pending_bytes
                  << " bytes unacked)\n";
      }
    }
    std::vector<ResourceGovernor::DegradeEvent> events = gov.RecentDegrades(10);
    if (events.empty()) {
      std::cout << "degrades: none ("
                << gov.degrades_total() << " total)\n";
    } else {
      std::cout << "degrades (" << gov.degrades_total()
                << " total, newest last):\n";
      for (const auto& e : events) {
        std::cout << "  t=" << e.at << " query " << e.query_id << " "
                  << DegradeReasonToString(e.reason);
        if (!e.detail.empty()) std::cout << " — " << e.detail;
        std::cout << "\n";
      }
    }
  }

  // Operator view of the shard-per-core engine (docs/sharding.md): lazily
  // builds the engine over the shell's world (n == 0 sizes it to the
  // machine), reshards on an explicit count change, and prints the
  // per-shard ownership/queue/refresh table. The engine is a parallel
  // view: it shares the shell's database but refreshes only queries
  // registered through it, so the table's refresh columns stay zero until
  // updates are routed through the engine's data plane.
  void CmdShards(size_t n) {
    if (engine_ == nullptr) {
      ShardedEngine::Options opts;
      opts.shard_count = n;  // 0 = one shard per hardware thread.
      opts.query_options.horizon = 512;
      engine_ = std::make_unique<ShardedEngine>(&db_, opts);
    } else if (n != 0 && n != engine_->shard_count()) {
      Status resharded = engine_->Reshard(n);
      if (!resharded.ok()) {
        Report(resharded);
        return;
      }
    }
    std::cout << "shards: " << engine_->shard_count() << "\n"
              << "  shard   objects   queued   applied   dropped   "
                 "delta/full   last refresh\n";
    for (const ShardedEngine::ShardStats& s : engine_->Stats()) {
      std::ostringstream refreshes;
      refreshes << s.delta_refreshes << "/" << s.full_refreshes;
      std::cout << "  " << std::setw(5) << s.shard << std::setw(10)
                << s.objects << std::setw(9) << s.queue_depth << std::setw(10)
                << s.updates_applied << std::setw(10) << s.updates_dropped
                << std::setw(13) << refreshes.str() << std::setw(12)
                << std::fixed << std::setprecision(3)
                << s.last_refresh_seconds * 1e3 << " ms\n";
      std::cout.unsetf(std::ios::fixed);
    }
  }

  // Fault-injection visibility: what is armed right now (spec syntax as
  // Arm() accepts it, budgets reflecting remaining triggers) and which
  // sites have fired since process start. The full site inventory lives
  // in docs/durability.md.
  void PrintFailpoints() {
    FailpointRegistry& reg = FailpointRegistry::Instance();
    std::map<std::string, std::string> armed = reg.ArmedSpecs();
    if (armed.empty()) {
      std::cout << "failpoints: none armed (arm via MOST_FAILPOINTS, e.g. "
                   "\"wal/append/write=truncate*1\")\n";
    } else {
      std::cout << "armed failpoints:\n";
      for (const auto& [site, spec] : armed) {
        std::cout << "  " << site << " = " << spec << "\n";
      }
    }
    std::map<std::string, uint64_t> fired = reg.TriggeredCounts();
    if (fired.empty()) {
      std::cout << "fired: none\n";
    } else {
      std::cout << "fired (" << reg.total_triggered() << " total):\n";
      for (const auto& [site, count] : fired) {
        std::cout << "  " << site << " x" << count << "\n";
      }
    }
  }

  // Dump the global trace ring as Chrome trace-event JSON. The sink is
  // off by default (MOST_TRACE=1 arms it at startup); when disabled we
  // say so instead of emitting an empty envelope.
  void CmdTrace(const std::string& path) {
    obs::TraceSink& sink = obs::TraceSink::Global();
    if (!sink.enabled()) {
      std::cout << "trace: sink disabled (set MOST_TRACE=1 to record "
                   "spans)\n";
      return;
    }
    std::string json = obs::ChromeTraceJson(sink);
    if (path.empty()) {
      std::cout << json << "\n";
    } else {
      std::ofstream out(path, std::ios::trunc);
      if (!out) {
        std::cout << "error: cannot open " << path << "\n";
        return;
      }
      out << json << "\n";
      std::cout << "trace: wrote " << sink.Events().size() << " spans to "
                << path << " (" << sink.dropped() << " dropped)\n";
    }
  }

  // Per-tick telemetry timeline: what the recorder sampled recently and
  // what the latency watchdog is doing with the governor.
  void PrintTelemetry() {
    obs::TelemetryRecorder& rec = obs::TelemetryRecorder::Global();
    if (!rec.enabled()) {
      std::cout << "telemetry: recorder disabled (set MOST_TELEMETRY=1 to "
                   "sample per tick)\n";
      return;
    }
    std::cout << "telemetry: " << rec.samples_total() << " samples over "
              << rec.ticks_sampled() << " ticks (stride "
              << rec.options().stride << ", retention "
              << rec.options().retention << ")\n";
    for (const std::string& key : rec.TrackedKeys()) {
      std::vector<obs::TelemetryRecorder::Sample> recent = rec.Series(key, 5);
      std::cout << "  " << key << ":";
      if (recent.empty()) {
        std::cout << " (no samples)\n";
        continue;
      }
      for (const auto& s : recent) {
        std::cout << " t" << s.tick << "=" << s.value;
      }
      std::cout << "  rate/tick=" << rec.WindowRate(key, 8).value_or(0.0)
                << "\n";
    }
    std::cout << "  watchdog: "
              << (rec.watchdog_armed() ? "ARMED (governor limits tightened)"
                                       : "relaxed")
              << ", arms=" << rec.watchdog_arms()
              << ", relaxes=" << rec.watchdog_relaxes() << "\n";
  }

  void LoadDemo() {
    const char* script[] = {
        "class CARS spatial PLATE:string",
        "class HOSPITALS spatial",
        "region P rect 0 0 20 20",
        "object CARS",
        "motion CARS 0 -30 10 1 0",
        "static CARS 0 PLATE RWW860",
        "object CARS",
        "motion CARS 1 100 100 0 0",
        "object HOSPITALS",
        "motion HOSPITALS 2 5 5 0 0",
        "object HOSPITALS",
        "motion HOSPITALS 3 200 0 0 0",
    };
    for (const char* line : script) {
      std::cout << "> " << line << "\n";
      Dispatch(line);
    }
    std::cout << "demo world loaded; try:\n"
              << "  query RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 40 "
                 "INSIDE(o, P)\n"
              << "  nearest CARS 0 HOSPITALS\n";
  }

  MostDatabase db_;
  QueryManager qm_;
  std::unique_ptr<ShardedEngine> engine_;  // Created by `shards`.
};

}  // namespace

int main() {
  std::cout << "MOST shell — moving-objects database (type `help`)\n";
  return Shell().Run();
}
