// Experiment E9 — graceful degradation under overload (docs/robustness.md).
//
// A continuous query over a fleet is driven with an update storm at 1x,
// 4x and 16x a baseline rate, with and without the resource governor's
// refresh budget. The question the numbers answer: does the governor turn
// "p99 refresh latency grows with offered load" into "p99 stays bounded
// near the budget while the shed rate absorbs the excess"?
//
//  * BM_OverloadShed — interactive form: one (multiplier, governed) cell
//    per benchmark run, reporting shed_rate and p99 as counters.
//  * main() measures the full grid directly and writes
//    BENCH_overload.json (appended to bench/trajectories/overload.json
//    when MOST_BENCH_TRAJECTORY_DIR is set).
//
// The governed budget is sized relative to the machine -- 4x the measured
// warm mean refresh at 1x load, which clears the delta-path cost of
// moderate storms but not the full re-evaluation that a heavy storm
// forces -- so 1x/4x stay fresh while 16x must shed to hold the line. A
// fixed nanosecond constant would make the comparison meaningless across
// hosts.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <vector>

#include "bench_obs.h"
#include "common/rng.h"
#include "obs/governor.h"
#include "ftl/parser.h"
#include "ftl/query_manager.h"
#include "workload/fleet.h"

namespace most {
namespace {

constexpr Tick kHorizon = 256;
constexpr size_t kBaseUpdatesPerTick = 20;
constexpr int kTicks = 128;

size_t Vehicles() {
  if (const char* env = std::getenv("MOST_BENCH_VEHICLES")) {
    return static_cast<size_t>(std::strtoull(env, nullptr, 10));
  }
  return 300;
}

std::unique_ptr<MostDatabase> MakeWorld(size_t vehicles) {
  auto db = std::make_unique<MostDatabase>();
  FleetGenerator fleet({.num_vehicles = vehicles, .area = 1000.0,
                        .change_probability = 0.0, .seed = 1997});
  (void)fleet.Populate(db.get(), "CARS");
  (void)db->DefineRegion("P", Polygon::Rectangle({400, 400}, {600, 600}));
  return db;
}

struct CellResult {
  double p50_ms = 0;
  double p99_ms = 0;
  double shed_rate = 0;       ///< Shed refreshes / offered refreshes.
  size_t answer_rows = 0;
  uint64_t sheds = 0;
};

QueryManager::Options CommonOpts(bool governed) {
  QueryManager::Options opts;
  opts.horizon = kHorizon;
  // Let a 1x storm ride the delta path while heavy storms (most of the
  // fleet dirty every tick) fall back to full re-evaluation.
  opts.delta_max_dirty_fraction = 0.5;
  if (governed) {
    opts.refresh_queue_limit = 4;
    opts.degrade_cooldown_ticks = 2;
  }
  return opts;
}

/// Drives one grid cell: `multiplier` x the baseline update rate for
/// kTicks ticks against a fresh world, timing each per-tick refresh.
/// `budget_ns` == 0 means ungoverned. The budget is armed through the
/// process-global governor only after the initial evaluation has warmed
/// the answer: an SLO binds steady state, not boot.
CellResult RunCell(size_t vehicles, size_t multiplier, uint64_t budget_ns) {
  auto db = MakeWorld(vehicles);
  QueryManager qm(db.get(), CommonOpts(budget_ns > 0));
  auto query = ParseQuery("RETRIEVE o, n FROM CARS o, CARS n WHERE DIST(o, n) <= 15");
  auto cq = qm.RegisterContinuous(*query);
  for (int t = 0; t < 2; ++t) {
    db->clock().Advance();
    (void)qm.TickAll();
    (void)qm.ContinuousAnswer(*cq);
  }
  if (budget_ns > 0) {
    ResourceGovernor::Limits limits;
    limits.refresh_budget.deadline_ns = budget_ns;
    ResourceGovernor::Global().set_limits(limits);
  }

  Rng rng(1997 + multiplier);
  const size_t updates = kBaseUpdatesPerTick * multiplier;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(kTicks);
  CellResult result;
  for (int tick = 0; tick < kTicks; ++tick) {
    for (size_t u = 0; u < updates; ++u) {
      ObjectId id = static_cast<ObjectId>(
          rng.UniformInt(0, static_cast<int64_t>(vehicles) - 1));
      (void)db->SetMotion(
          "CARS", id,
          {rng.UniformDouble(0, 1000), rng.UniformDouble(0, 1000)},
          {rng.UniformDouble(-2, 2), rng.UniformDouble(-2, 2)});
    }
    db->clock().Advance();
    auto t0 = std::chrono::steady_clock::now();
    (void)qm.TickAll();
    auto answer = qm.ContinuousAnswer(*cq);
    auto t1 = std::chrono::steady_clock::now();
    latencies_ms.push_back(
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
            t1 - t0).count()) * 1e-6);
    result.answer_rows = answer.ok() ? answer->size() : 0;
  }
  ResourceGovernor::Global().set_limits({});
  std::sort(latencies_ms.begin(), latencies_ms.end());
  result.p50_ms = latencies_ms[latencies_ms.size() / 2];
  result.p99_ms = latencies_ms[latencies_ms.size() * 99 / 100];
  result.sheds = qm.QueryDegradeInfo(*cq)->shed_refreshes;
  result.shed_rate =
      static_cast<double>(result.sheds) / static_cast<double>(kTicks);
  return result;
}

/// Mean warm ungoverned refresh time at 1x load (the delta path in steady
/// state): the yardstick the governed budget is derived from.
uint64_t BaselineRefreshNs(size_t vehicles) {
  auto db = MakeWorld(vehicles);
  QueryManager qm(db.get(), CommonOpts(false));
  auto query = ParseQuery("RETRIEVE o, n FROM CARS o, CARS n WHERE DIST(o, n) <= 15");
  auto cq = qm.RegisterContinuous(*query);
  for (int t = 0; t < 2; ++t) {
    db->clock().Advance();
    (void)qm.TickAll();
    (void)qm.ContinuousAnswer(*cq);
  }
  Rng rng(7);
  uint64_t total_ns = 0;
  constexpr int kProbeTicks = 16;
  for (int tick = 0; tick < kProbeTicks; ++tick) {
    for (size_t u = 0; u < kBaseUpdatesPerTick; ++u) {
      ObjectId id = static_cast<ObjectId>(
          rng.UniformInt(0, static_cast<int64_t>(vehicles) - 1));
      (void)db->SetMotion(
          "CARS", id,
          {rng.UniformDouble(0, 1000), rng.UniformDouble(0, 1000)},
          {rng.UniformDouble(-2, 2), rng.UniformDouble(-2, 2)});
    }
    db->clock().Advance();
    auto t0 = std::chrono::steady_clock::now();
    (void)qm.TickAll();
    auto t1 = std::chrono::steady_clock::now();
    total_ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
  }
  (void)cq;
  return std::max<uint64_t>(total_ns / kProbeTicks, 1);
}

void BM_OverloadShed(benchmark::State& state) {
  const size_t vehicles = Vehicles();
  const size_t multiplier = static_cast<size_t>(state.range(0));
  const bool governed = state.range(1) != 0;
  const uint64_t budget =
      governed ? 4 * BaselineRefreshNs(vehicles) : 0;
  CellResult cell;
  for (auto _ : state) {
    cell = RunCell(vehicles, multiplier, budget);
  }
  state.counters["p99_ms"] = cell.p99_ms;
  state.counters["shed_rate"] = cell.shed_rate;
  state.counters["vehicles"] = static_cast<double>(vehicles);
}
BENCHMARK(BM_OverloadShed)
    ->ArgsProduct({{1, 4, 16}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void EmitBenchJson(const char* path) {
  const size_t vehicles = Vehicles();
  const uint64_t budget_ns = 4 * BaselineRefreshNs(vehicles);

  std::ostringstream out;
  out << "{\n"
      << "  \"benchmark\": \"overload\",\n"
      << "  \"query\": \"dist_join\",\n"
      << "  \"vehicles\": " << vehicles << ",\n"
      << "  \"base_updates_per_tick\": " << kBaseUpdatesPerTick << ",\n"
      << "  \"ticks\": " << kTicks << ",\n"
      << "  \"governed_budget_ns\": " << budget_ns << ",\n"
      << "  \"cells\": [\n";
  bool first = true;
  for (size_t multiplier : {1u, 4u, 16u}) {
    for (bool governed : {false, true}) {
      CellResult cell =
          RunCell(vehicles, multiplier, governed ? budget_ns : 0);
      if (!first) out << ",\n";
      first = false;
      out << "    {\"overload\": " << multiplier
          << ", \"governed\": " << (governed ? "true" : "false")
          << ", \"p50_ms\": " << cell.p50_ms
          << ", \"p99_ms\": " << cell.p99_ms
          << ", \"shed_rate\": " << cell.shed_rate
          << ", \"sheds\": " << cell.sheds
          << ", \"answer_rows\": " << cell.answer_rows << "}";
    }
  }
  out << "\n  ]";
  benchio::FinishBenchJson(path, "overload", out.str());
}

}  // namespace
}  // namespace most

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  most::EmitBenchJson("BENCH_overload.json");
  return 0;
}
