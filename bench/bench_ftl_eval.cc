// Experiment E4 — Section 3.5 / appendix: the interval-relation algorithm
// evaluates an FTL query once, versus the naive semantics that would check
// the formula at every state of the history.
//
// Workload: the paper's example queries I, II, III (Section 3.4) over a
// moving fleet, for growing fleet sizes and history lengths. Expected
// shape: the interval evaluator is roughly independent of the history
// length H, while the naive evaluator grows superlinearly with H.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <thread>

#include "bench_obs.h"
#include "common/thread_pool.h"
#include "ftl/eval.h"
#include "ftl/naive_eval.h"
#include "ftl/parser.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "workload/fleet.h"

namespace most {
namespace {

std::unique_ptr<MostDatabase> MakeWorld(size_t vehicles) {
  auto db = std::make_unique<MostDatabase>();
  FleetGenerator fleet({.num_vehicles = vehicles, .area = 600.0,
                        .change_probability = 0.0, .seed = 1997});
  (void)fleet.Populate(db.get(), "CARS");
  (void)db->DefineRegion("P", Polygon::Rectangle({200, 200}, {400, 400}));
  (void)db->DefineRegion("Q", Polygon::Rectangle({450, 450}, {600, 600}));
  return db;
}

const char* kQueries[] = {
    // Paper query I.
    "RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 30 INSIDE(o, P)",
    // Paper query II.
    "RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 30 "
    "(INSIDE(o, P) AND ALWAYS FOR 20 INSIDE(o, P))",
    // Paper query III.
    "RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 30 (INSIDE(o, P) AND "
    "ALWAYS FOR 20 INSIDE(o, P) AND EVENTUALLY AFTER 50 INSIDE(o, Q))",
};

void BM_IntervalEvaluator(benchmark::State& state) {
  size_t vehicles = static_cast<size_t>(state.range(0));
  Tick horizon = state.range(1);
  int query_idx = static_cast<int>(state.range(2));
  auto db = MakeWorld(vehicles);
  auto query = ParseQuery(kQueries[query_idx]);
  size_t rows = 0;
  // A fresh evaluator per iteration: one evaluator's private context
  // would serve every later iteration's subformulas (the database does
  // not change between them).
  for (auto _ : state) {
    FtlEvaluator eval(*db);
    auto rel = eval.EvaluateQuery(*query, Interval(0, horizon));
    rows = rel->rows.size();
    benchmark::DoNotOptimize(rel);
  }
  state.counters["answer_rows"] = static_cast<double>(rows);
  state.counters["H"] = static_cast<double>(horizon);
}
BENCHMARK(BM_IntervalEvaluator)
    ->ArgsProduct({{200, 1000}, {64, 256, 1024}, {0, 1, 2}})
    ->Unit(benchmark::kMillisecond);

void BM_NaiveEvaluator(benchmark::State& state) {
  size_t vehicles = static_cast<size_t>(state.range(0));
  Tick horizon = state.range(1);
  int query_idx = static_cast<int>(state.range(2));
  auto db = MakeWorld(vehicles);
  auto query = ParseQuery(kQueries[query_idx]);
  NaiveFtlEvaluator eval(*db);
  size_t rows = 0;
  for (auto _ : state) {
    auto rel = eval.EvaluateQuery(*query, Interval(0, horizon));
    rows = rel->rows.size();
    benchmark::DoNotOptimize(rel);
  }
  state.counters["answer_rows"] = static_cast<double>(rows);
  state.counters["H"] = static_cast<double>(horizon);
}
// The naive evaluator is O(N * H^2)-ish; keep the sweep smaller.
BENCHMARK(BM_NaiveEvaluator)
    ->ArgsProduct({{200}, {64, 256}, {0, 1, 2}})
    ->Unit(benchmark::kMillisecond);

// Section 4 + Section 3.5 combined: the same FTL query with the motion
// index pruning INSIDE candidates. The region covers ~11% of the area;
// trajectories that never sweep near it are skipped without any geometry.
void BM_IntervalEvaluatorWithIndex(benchmark::State& state) {
  size_t vehicles = static_cast<size_t>(state.range(0));
  bool use_index = state.range(1) == 1;
  auto db = MakeWorld(vehicles);
  MotionIndexManager manager(db.get(), {.horizon = 2048});
  if (use_index) {
    (void)manager.IndexClass("CARS");
  }
  auto query = ParseQuery(kQueries[0]);
  FtlEvaluator::Options opts;
  opts.motion_indexes = use_index ? &manager : nullptr;
  for (auto _ : state) {
    FtlEvaluator eval(*db, opts);
    auto rel = eval.EvaluateQuery(*query, Interval(0, 256));
    benchmark::DoNotOptimize(rel);
    state.counters["pruned"] =
        static_cast<double>(eval.stats().index_pruned);
    state.counters["atomic_evals"] =
        static_cast<double>(eval.stats().atomic_evaluations);
  }
  state.counters["indexed"] = use_index ? 1 : 0;
}
BENCHMARK(BM_IntervalEvaluatorWithIndex)
    ->ArgsProduct({{1000, 10000}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// Two-variable query Q from Section 3.2 (the DIST Until pair query):
// exercises the join machinery of the interval algorithm.
void BM_IntervalEvaluatorPairQuery(benchmark::State& state) {
  size_t vehicles = static_cast<size_t>(state.range(0));
  auto db = MakeWorld(vehicles);
  auto query = ParseQuery(
      "RETRIEVE o, n FROM CARS o, CARS n "
      "WHERE DIST(o, n) <= 50 UNTIL (INSIDE(o, P) AND INSIDE(n, P))");
  for (auto _ : state) {
    FtlEvaluator eval(*db);
    auto rel = eval.EvaluateQuery(*query, Interval(0, 256));
    benchmark::DoNotOptimize(rel);
  }
  state.counters["pairs"] = static_cast<double>(vehicles * vehicles);
}
BENCHMARK(BM_IntervalEvaluatorPairQuery)->Arg(50)->Arg(100)->Arg(200)
    ->Unit(benchmark::kMillisecond);

// Parallel atomic extraction: query I over a large fleet, partitioned
// across a worker pool. threads == 1 is the exact serial path. Speedups
// require real cores; on a single-CPU container every configuration
// degrades to roughly serial time (the "hardware_threads" counter records
// what was available).
void BM_ParallelEval(benchmark::State& state) {
  size_t vehicles = static_cast<size_t>(state.range(0));
  size_t threads = static_cast<size_t>(state.range(1));
  auto db = MakeWorld(vehicles);
  auto query = ParseQuery(kQueries[0]);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  FtlEvaluator::Options opts;
  opts.pool = pool.get();
  for (auto _ : state) {
    FtlEvaluator eval(*db, opts);
    auto rel = eval.EvaluateQuery(*query, Interval(0, 256));
    benchmark::DoNotOptimize(rel);
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["hardware_threads"] =
      static_cast<double>(std::thread::hardware_concurrency());
}
BENCHMARK(BM_ParallelEval)
    ->ArgsProduct({{8192, 65536}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

}  // namespace

// ---------------------------------------------------------------------------
// Machine-readable summary: the headline configurations measured directly
// and written to BENCH_ftl_eval.json (consumed by CI dashboards / scripts,
// no benchmark-output parsing required).
// ---------------------------------------------------------------------------

namespace {

double MeasureNsPerOp(const std::function<void()>& op, int iters = 3) {
  op();  // Warm-up.
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < iters; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    op();
    auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, static_cast<double>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                      .count()));
  }
  return best;
}

}  // namespace

void EmitBenchJson(const char* path) {
  const size_t vehicles = benchio::EnvSize("MOST_BENCH_VEHICLES", 65536);
  const Interval window(0, 256);
  auto db = MakeWorld(vehicles);
  auto query = ParseQuery(kQueries[0]);

  auto eval_with = [&](ThreadPool* pool) {
    FtlEvaluator::Options opts;
    opts.pool = pool;
    FtlEvaluator eval(*db, opts);
    auto rel = eval.EvaluateQuery(*query, window);
    benchmark::DoNotOptimize(rel);
  };

  double serial_ns = MeasureNsPerOp([&] { eval_with(nullptr); });
  std::map<size_t, double> parallel_ns;
  for (size_t threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    parallel_ns[threads] =
        MeasureNsPerOp([&] { eval_with(&pool); });
  }

  // Instrumentation overhead: the same serial evaluation with the metrics
  // registry armed vs. the MOST_METRICS=off kill switch. CI holds the
  // delta under 5%. The two sides are measured interleaved (armed,
  // disarmed, armed, ...) taking the best of each, so clock-frequency
  // drift or cache warm-up skews both equally instead of one side.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  auto time_once = [&] {
    auto t0 = std::chrono::steady_clock::now();
    eval_with(nullptr);
    auto t1 = std::chrono::steady_clock::now();
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
  };
  eval_with(nullptr);  // Shared warm-up.
  double instrumented_ns = std::numeric_limits<double>::infinity();
  double uninstrumented_ns = std::numeric_limits<double>::infinity();
  for (int round = 0; round < 7; ++round) {
    registry.set_enabled(true);
    instrumented_ns = std::min(instrumented_ns, time_once());
    registry.set_enabled(false);
    uninstrumented_ns = std::min(uninstrumented_ns, time_once());
  }
  registry.set_enabled(true);
  double overhead_pct =
      (instrumented_ns - uninstrumented_ns) / uninstrumented_ns * 100.0;

  // Tracing + telemetry overhead, measured the same interleaved way on
  // top of an armed registry: spans recording into the global ring plus
  // one per-tick telemetry sample, vs both subsystems disabled. CI holds
  // this delta under 5% too (the PR-10 acceptance bound).
  obs::TraceSink& sink = obs::TraceSink::Global();
  obs::TelemetryRecorder& telemetry = obs::TelemetryRecorder::Global();
  const bool sink_was_enabled = sink.enabled();
  const bool telemetry_was_enabled = telemetry.enabled();
  telemetry.Track("most_ftl_eval_total");
  Tick telemetry_tick = 1;
  auto time_once_traced = [&] {
    auto t0 = std::chrono::steady_clock::now();
    eval_with(nullptr);
    telemetry.OnTick(telemetry_tick++);  // No-op when disabled.
    auto t1 = std::chrono::steady_clock::now();
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
  };
  double traced_ns = std::numeric_limits<double>::infinity();
  double untraced_ns = std::numeric_limits<double>::infinity();
  for (int round = 0; round < 7; ++round) {
    sink.set_enabled(true);
    telemetry.set_enabled(true);
    traced_ns = std::min(traced_ns, time_once_traced());
    sink.set_enabled(false);
    telemetry.set_enabled(false);
    untraced_ns = std::min(untraced_ns, time_once_traced());
  }
  sink.set_enabled(sink_was_enabled);
  telemetry.set_enabled(telemetry_was_enabled);
  double trace_overhead_pct =
      (traced_ns - untraced_ns) / untraced_ns * 100.0;

  std::ostringstream out;
  out << "{\n"
      << "  \"benchmark\": \"ftl_eval\",\n"
      << "  \"query\": \"paper_query_I\",\n"
      << "  \"vehicles\": " << vehicles << ",\n"
      << "  \"window\": [" << window.begin << ", " << window.end << "],\n"
      << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n"
      << "  \"serial_ns_per_op\": " << serial_ns << ",\n"
      << "  \"parallel_ns_per_op\": {";
  bool first = true;
  for (const auto& [threads, ns] : parallel_ns) {
    out << (first ? "" : ", ") << "\"" << threads << "\": " << ns;
    first = false;
  }
  out << "},\n"
      << "  \"speedup_4_threads\": " << serial_ns / parallel_ns[4] << ",\n"
      << "  \"metrics_on_ns_per_op\": " << instrumented_ns << ",\n"
      << "  \"metrics_off_ns_per_op\": " << uninstrumented_ns << ",\n"
      << "  \"metrics_overhead_pct\": " << overhead_pct << ",\n"
      << "  \"trace_on_ns_per_op\": " << traced_ns << ",\n"
      << "  \"trace_off_ns_per_op\": " << untraced_ns << ",\n"
      << "  \"trace_overhead_pct\": " << trace_overhead_pct << "\n";
  benchio::FinishBenchJson(path, "ftl_eval", out.str());
}

}  // namespace most

// Custom main (this binary does not link benchmark_main): run the
// registered benchmarks, then emit the machine-readable summary.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  most::EmitBenchJson("BENCH_ftl_eval.json");
  return 0;
}
