// Shard-per-core scaling (docs/sharding.md).
//
// A fleet world drives a continuous query through the sharded engine at
// shard counts 1/2/4/8: every tick enqueues a batch of motion updates
// (routed lock-free to owner shards), advances the clock, drains +
// refreshes every shard, and gathers the merged answer. The question the
// numbers answer: does per-tick latency drop as shards spread over real
// cores, while the single-shard configuration stays within the serial
// engine's envelope?
//
//  * BM_ShardScaling — interactive form: one shard count per run,
//    reporting per-tick p50/p99 and sustained updates/sec as counters.
//  * main() measures the full sweep directly and writes BENCH_shard.json
//    (appended to bench/trajectories/shard.json when
//    MOST_BENCH_TRAJECTORY_DIR is set). The summary records "cpus": on a
//    1-CPU container every shard count collapses to roughly serial time
//    (caller-participation scheduling, docs/parallel_eval.md), so scaling
//    claims are only meaningful where cpus >= shards.
//
// Workload knobs (defaults sized for CI; the committed trajectory run
// uses MOST_BENCH_VEHICLES=100000 MOST_BENCH_UPDATES=10000):
//   MOST_BENCH_VEHICLES  fleet size               (default 2000)
//   MOST_BENCH_UPDATES   motion updates per tick  (default vehicles/10)

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_obs.h"
#include "common/rng.h"
#include "core/sharded_engine.h"
#include "ftl/parser.h"
#include "workload/fleet.h"

namespace most {
namespace {

constexpr Tick kHorizon = 64;
constexpr int kTicks = 24;
constexpr double kArea = 1000.0;

size_t Vehicles() { return benchio::EnvSize("MOST_BENCH_VEHICLES", 2000); }

size_t UpdatesPerTick(size_t vehicles) {
  return benchio::EnvSize("MOST_BENCH_UPDATES",
                          std::max<size_t>(vehicles / 10, 1));
}

std::unique_ptr<MostDatabase> MakeWorld(size_t vehicles) {
  auto db = std::make_unique<MostDatabase>();
  FleetGenerator fleet({.num_vehicles = vehicles, .area = kArea,
                        .change_probability = 0.0, .seed = 1997});
  (void)fleet.Populate(db.get(), "CARS");
  (void)db->DefineRegion("P", Polygon::Rectangle({400, 400}, {600, 600}));
  return db;
}

struct CellResult {
  double p50_ms = 0;           ///< Per-tick drain+refresh+gather latency.
  double p99_ms = 0;
  double updates_per_sec = 0;  ///< Sustained enqueue->applied throughput.
  size_t answer_rows = 0;
  uint64_t delta_refreshes = 0;
  uint64_t full_refreshes = 0;
};

/// One sweep cell: `shards` shards over a fresh world, kTicks rounds of
/// enqueue -> Advance -> gather. The first two rounds warm the continuous
/// answer (registration full refresh) and are not timed: the
/// steady-state delta path is what sharding is supposed to scale.
CellResult RunCell(size_t vehicles, size_t updates, size_t shards) {
  auto db = MakeWorld(vehicles);
  ShardedEngine::Options opt;
  opt.shard_count = shards;
  opt.query_options.horizon = kHorizon;
  ShardedEngine engine(db.get(), opt);
  auto query =
      ParseQuery("RETRIEVE o FROM CARS o WHERE EVENTUALLY INSIDE(o, P)");
  auto cq = engine.RegisterContinuous(*query);
  for (int t = 0; t < 2; ++t) {
    (void)engine.Advance(1);
    (void)engine.ContinuousAnswer(*cq);
  }

  // Same stream at every shard count: identical workload per cell, so
  // answer_rows agreeing across the sweep doubles as a cheap end-to-end
  // identity check of the gather.
  Rng rng(1997);
  std::vector<double> latencies_ms;
  latencies_ms.reserve(kTicks);
  CellResult result;
  uint64_t total_ns = 0;
  for (int tick = 0; tick < kTicks; ++tick) {
    for (size_t u = 0; u < updates; ++u) {
      ObjectId id = static_cast<ObjectId>(
          rng.UniformInt(0, static_cast<int64_t>(vehicles) - 1));
      engine.EnqueueMotion(
          "CARS", id,
          {rng.UniformDouble(0, kArea), rng.UniformDouble(0, kArea)},
          {rng.UniformDouble(-2, 2), rng.UniformDouble(-2, 2)});
    }
    auto t0 = std::chrono::steady_clock::now();
    (void)engine.Advance(1);
    auto answer = engine.ContinuousAnswer(*cq);
    auto t1 = std::chrono::steady_clock::now();
    uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    total_ns += ns;
    latencies_ms.push_back(static_cast<double>(ns) * 1e-6);
    result.answer_rows = answer.ok() ? answer->tuples.size() : 0;
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  result.p50_ms = latencies_ms[latencies_ms.size() / 2];
  result.p99_ms = latencies_ms[latencies_ms.size() * 99 / 100];
  result.updates_per_sec =
      static_cast<double>(updates) * kTicks /
      (static_cast<double>(std::max<uint64_t>(total_ns, 1)) * 1e-9);
  QueryManager::RefreshCounters counters = engine.TotalRefreshCounters();
  result.delta_refreshes = counters.delta_evaluations;
  result.full_refreshes = counters.full_evaluations;
  return result;
}

void BM_ShardScaling(benchmark::State& state) {
  const size_t vehicles = Vehicles();
  const size_t updates = UpdatesPerTick(vehicles);
  const size_t shards = static_cast<size_t>(state.range(0));
  CellResult cell;
  for (auto _ : state) {
    cell = RunCell(vehicles, updates, shards);
  }
  state.counters["p50_ms"] = cell.p50_ms;
  state.counters["p99_ms"] = cell.p99_ms;
  state.counters["updates_per_sec"] = cell.updates_per_sec;
  state.counters["vehicles"] = static_cast<double>(vehicles);
}
BENCHMARK(BM_ShardScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void EmitBenchJson(const char* path) {
  const size_t vehicles = Vehicles();
  const size_t updates = UpdatesPerTick(vehicles);

  std::ostringstream out;
  out << "{\n"
      << "  \"benchmark\": \"shard\",\n"
      << "  \"query\": \"eventually_inside\",\n"
      << "  \"vehicles\": " << vehicles << ",\n"
      << "  \"updates_per_tick\": " << updates << ",\n"
      << "  \"ticks\": " << kTicks << ",\n"
      << "  \"cpus\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"cells\": [\n";
  bool first = true;
  for (size_t shards : {1u, 2u, 4u, 8u}) {
    CellResult cell = RunCell(vehicles, updates, shards);
    if (!first) out << ",\n";
    first = false;
    out << "    {\"shards\": " << shards << ", \"p50_ms\": " << cell.p50_ms
        << ", \"p99_ms\": " << cell.p99_ms
        << ", \"updates_per_sec\": " << cell.updates_per_sec
        << ", \"answer_rows\": " << cell.answer_rows
        << ", \"delta_refreshes\": " << cell.delta_refreshes
        << ", \"full_refreshes\": " << cell.full_refreshes << "}";
  }
  out << "\n  ]";
  benchio::FinishBenchJson(path, "shard", out.str());
}

}  // namespace
}  // namespace most

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  most::EmitBenchJson("BENCH_shard.json");
  return 0;
}
