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
// The governed budget is sized relative to the machine -- 4x the median
// warm per-tick refresh at 1x load over kProbeWorlds probe worlds, which
// clears the delta-path cost of moderate storms but not the full
// re-evaluation that a heavy storm forces -- so 1x/4x stay fresh while 16x
// must shed to hold the line. A fixed nanosecond constant would make the
// comparison meaningless across hosts. Medians keep one descheduled tick
// or one slow probe from moving the budget.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <vector>

#include "../tests/scoped_governor_limits.h"
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
constexpr int kProbeWorlds = 5;
constexpr int kProbeTicks = 16;

size_t Vehicles() { return benchio::EnvSize("MOST_BENCH_VEHICLES", 300); }

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

/// The governor's limits for a cell; `budget_ns` == 0 means ungoverned.
ResourceGovernor::Limits CellLimits(uint64_t budget_ns) {
  ResourceGovernor::Limits limits;
  // Let a 1x storm ride the delta path while heavy storms (most of the
  // fleet dirty every tick) fall back to full re-evaluation.
  limits.delta_max_dirty_fraction = 0.5;
  if (budget_ns > 0) {
    limits.refresh_budget.deadline_ns = budget_ns;
    limits.refresh_queue_limit = 4;
    limits.degrade_cooldown_ticks = 2;
  }
  return limits;
}

/// Drives one grid cell: `multiplier` x the baseline update rate for
/// kTicks ticks against a fresh world, timing each per-tick refresh.
/// `budget_ns` == 0 means ungoverned. The budget is armed through the
/// process-global governor only after the initial evaluation has warmed
/// the answer: an SLO binds steady state, not boot.
CellResult RunCell(size_t vehicles, size_t multiplier, uint64_t budget_ns) {
  auto db = MakeWorld(vehicles);
  test::ScopedGovernorLimits limits(CellLimits(0));
  QueryManager qm(db.get(), {.horizon = kHorizon});
  auto query = ParseQuery("RETRIEVE o, n FROM CARS o, CARS n WHERE DIST(o, n) <= 15");
  auto cq = qm.RegisterContinuous(*query);
  for (int t = 0; t < 2; ++t) {
    db->clock().Advance();
    (void)qm.TickAll();
    (void)qm.ContinuousAnswer(*cq);
  }
  if (budget_ns > 0) {
    ResourceGovernor::Global().set_limits(CellLimits(budget_ns));
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
  std::sort(latencies_ms.begin(), latencies_ms.end());
  result.p50_ms = latencies_ms[latencies_ms.size() / 2];
  result.p99_ms = latencies_ms[latencies_ms.size() * 99 / 100];
  result.sheds = qm.QueryDegradeInfo(*cq)->shed_refreshes;
  result.shed_rate =
      static_cast<double>(result.sheds) / static_cast<double>(kTicks);
  return result;
}

/// The warm ungoverned per-tick refresh at 1x load (the delta path in
/// steady state), across the probe worlds: the yardstick the governed
/// budget is derived from.
struct Baseline {
  uint64_t min_ns = 0;
  uint64_t median_ns = 1;  ///< What the budget is sized from.
  uint64_t max_ns = 0;
};

/// The median per-tick refresh of one fresh probe world whose 1x updates
/// are drawn from `seed`.
uint64_t ProbeRefreshNs(size_t vehicles, uint64_t seed) {
  auto db = MakeWorld(vehicles);
  test::ScopedGovernorLimits limits(CellLimits(0));
  QueryManager qm(db.get(), {.horizon = kHorizon});
  auto query = ParseQuery("RETRIEVE o, n FROM CARS o, CARS n WHERE DIST(o, n) <= 15");
  auto cq = qm.RegisterContinuous(*query);
  for (int t = 0; t < 2; ++t) {
    db->clock().Advance();
    (void)qm.TickAll();
    (void)qm.ContinuousAnswer(*cq);
  }
  Rng rng(seed);
  std::vector<uint64_t> tick_ns;
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
    tick_ns.push_back(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
  }
  std::nth_element(tick_ns.begin(), tick_ns.begin() + kProbeTicks / 2,
                   tick_ns.end());
  return tick_ns[kProbeTicks / 2];
}

Baseline BaselineRefreshNs(size_t vehicles) {
  std::vector<uint64_t> probes;
  for (int w = 0; w < kProbeWorlds; ++w) {
    probes.push_back(ProbeRefreshNs(vehicles, 7 + static_cast<uint64_t>(w)));
  }
  std::sort(probes.begin(), probes.end());
  return {probes.front(), std::max<uint64_t>(probes[probes.size() / 2], 1),
          probes.back()};
}

void BM_OverloadShed(benchmark::State& state) {
  const size_t vehicles = Vehicles();
  const size_t multiplier = static_cast<size_t>(state.range(0));
  const bool governed = state.range(1) != 0;
  const uint64_t budget =
      governed ? 4 * BaselineRefreshNs(vehicles).median_ns : 0;
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
  const Baseline baseline = BaselineRefreshNs(vehicles);
  const uint64_t budget_ns = 4 * baseline.median_ns;

  std::ostringstream out;
  out << "{\n"
      << "  \"benchmark\": \"overload\",\n"
      << "  \"query\": \"dist_join\",\n"
      << "  \"vehicles\": " << vehicles << ",\n"
      << "  \"base_updates_per_tick\": " << kBaseUpdatesPerTick << ",\n"
      << "  \"ticks\": " << kTicks << ",\n"
      << "  \"probe_worlds\": " << kProbeWorlds << ",\n"
      << "  \"probe_refresh_ns_min\": " << baseline.min_ns << ",\n"
      << "  \"probe_refresh_ns_median\": " << baseline.median_ns << ",\n"
      << "  \"probe_refresh_ns_max\": " << baseline.max_ns << ",\n"
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
