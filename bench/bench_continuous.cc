// Experiment E3 — Section 2.3's processing claim: a continuous query is
// evaluated ONCE into Answer(CQ); displaying the per-tick answer is then a
// lookup. Re-evaluation happens only on explicit updates.
//
//  * BM_PerTickReevaluation — the strawman: run the instantaneous query at
//    every clock tick.
//  * BM_AnswerCqLookup — evaluate once, then per-tick interval lookups.
//  * BM_AnswerCqWithUpdates — same, but a trickle of motion updates forces
//    occasional re-evaluation (the realistic middle case).
//  * BM_RefreshDeltaVsFull — the incremental-maintenance experiment: a
//    steady update stream served by the delta splice path versus full
//    window re-evaluation (docs/incremental_eval.md).
//
// The custom main() then measures the headline delta-vs-full grid directly
// and writes BENCH_continuous.json.

#include <benchmark/benchmark.h>

#include <chrono>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <vector>

#include "../tests/scoped_governor_limits.h"
#include "bench_obs.h"
#include "ftl/parser.h"
#include "ftl/query_manager.h"
#include "obs/governor.h"
#include "workload/fleet.h"

namespace most {
namespace {

constexpr Tick kHorizon = 256;

std::unique_ptr<MostDatabase> MakeWorld(size_t vehicles) {
  auto db = std::make_unique<MostDatabase>();
  FleetGenerator fleet({.num_vehicles = vehicles, .area = 1000.0,
                        .change_probability = 0.0, .seed = 1997});
  (void)fleet.Populate(db.get(), "CARS");
  (void)db->DefineRegion("P", Polygon::Rectangle({400, 400}, {600, 600}));
  return db;
}

FtlQuery TheQuery() {
  auto q = ParseQuery("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)");
  return *q;
}

void BM_PerTickReevaluation(benchmark::State& state) {
  size_t vehicles = static_cast<size_t>(state.range(0));
  auto db = MakeWorld(vehicles);
  QueryManager qm(db.get(), {.horizon = kHorizon});
  FtlQuery query = TheQuery();
  for (auto _ : state) {
    state.PauseTiming();
    db->clock().AdvanceTo(db->Now());  // No-op; keep clock monotone.
    state.ResumeTiming();
    size_t total = 0;
    for (Tick t = 0; t < 64; ++t) {
      db->clock().Advance();
      auto answer = qm.Instantaneous(query);
      total += answer->size();
    }
    benchmark::DoNotOptimize(total);
    state.counters["evaluations"] = 64;
  }
  state.counters["vehicles"] = static_cast<double>(vehicles);
}
BENCHMARK(BM_PerTickReevaluation)->Arg(100)->Arg(1000)->Arg(4000)
    ->Unit(benchmark::kMillisecond);

void BM_AnswerCqLookup(benchmark::State& state) {
  size_t vehicles = static_cast<size_t>(state.range(0));
  auto db = MakeWorld(vehicles);
  QueryManager qm(db.get(), {.horizon = kHorizon});
  FtlQuery query = TheQuery();
  for (auto _ : state) {
    auto cq = qm.RegisterContinuous(query);
    size_t total = 0;
    for (Tick t = 0; t < 64; ++t) {
      db->clock().Advance();
      auto answer = qm.CurrentAnswer(*cq);
      total += answer->size();
    }
    state.counters["evaluations"] =
        static_cast<double>(qm.EvaluationCount(*cq).value());
    (void)qm.Cancel(*cq);
    benchmark::DoNotOptimize(total);
  }
  state.counters["vehicles"] = static_cast<double>(vehicles);
}
BENCHMARK(BM_AnswerCqLookup)->Arg(100)->Arg(1000)->Arg(4000)
    ->Unit(benchmark::kMillisecond);

void BM_AnswerCqWithUpdates(benchmark::State& state) {
  size_t vehicles = 1000;
  // Updates per 64-tick window.
  size_t updates = static_cast<size_t>(state.range(0));
  auto db = MakeWorld(vehicles);
  QueryManager qm(db.get(), {.horizon = kHorizon});
  FtlQuery query = TheQuery();
  Rng rng(7);
  for (auto _ : state) {
    auto cq = qm.RegisterContinuous(query);
    size_t total = 0;
    for (Tick t = 0; t < 64; ++t) {
      db->clock().Advance();
      if (updates > 0 && t % std::max<Tick>(1, 64 / updates) == 0) {
        ObjectId id = static_cast<ObjectId>(rng.UniformInt(0, vehicles - 1));
        (void)db->SetMotion("CARS", id,
                            {rng.UniformDouble(0, 1000),
                             rng.UniformDouble(0, 1000)},
                            {rng.UniformDouble(-2, 2),
                             rng.UniformDouble(-2, 2)});
      }
      auto answer = qm.CurrentAnswer(*cq);
      total += answer->size();
    }
    state.counters["evaluations"] =
        static_cast<double>(qm.EvaluationCount(*cq).value());
    (void)qm.Cancel(*cq);
    benchmark::DoNotOptimize(total);
  }
  state.counters["updates_per_window"] = static_cast<double>(updates);
}
BENCHMARK(BM_AnswerCqWithUpdates)->Arg(0)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);

// The maintenance mode under test: the default delta path, or a zero dirty
// fraction that sends every refresh down the full path.
ResourceGovernor::Limits ModeLimits(bool delta) {
  ResourceGovernor::Limits limits;
  if (!delta) limits.delta_max_dirty_fraction = 0.0;
  return limits;
}

// One op = one tick of a steady update stream: `updates` random motion
// updates, clock advance, answer read (which refreshes). range(1) selects
// the maintenance mode.
void BM_RefreshDeltaVsFull(benchmark::State& state) {
  size_t vehicles = 1000;
  size_t updates = static_cast<size_t>(state.range(0));
  bool delta = state.range(1) == 1;
  auto db = MakeWorld(vehicles);
  test::ScopedGovernorLimits mode(ModeLimits(delta));
  QueryManager qm(db.get(), {.horizon = kHorizon});
  FtlQuery query = TheQuery();
  auto cq = qm.RegisterContinuous(query);
  Rng rng(11);
  size_t total = 0;
  for (auto _ : state) {
    for (size_t u = 0; u < updates; ++u) {
      ObjectId id = static_cast<ObjectId>(rng.UniformInt(0, vehicles - 1));
      (void)db->SetMotion("CARS", id,
                          {rng.UniformDouble(0, 1000),
                           rng.UniformDouble(0, 1000)},
                          {rng.UniformDouble(-2, 2), rng.UniformDouble(-2, 2)});
    }
    db->clock().Advance();
    auto answer = qm.ContinuousAnswer(*cq);
    total += answer->size();
  }
  benchmark::DoNotOptimize(total);
  auto counters = qm.QueryRefreshCounters(*cq);
  state.counters["delta_refreshes"] =
      static_cast<double>(counters->delta_evaluations);
  state.counters["full_refreshes"] =
      static_cast<double>(counters->full_evaluations);
  state.counters["updates_per_tick"] = static_cast<double>(updates);
}
BENCHMARK(BM_RefreshDeltaVsFull)
    ->ArgsProduct({{1, 10, 100}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

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

// ---------------------------------------------------------------------------
// Machine-readable summary, written to BENCH_continuous.json: refresh
// latency and throughput for the delta-vs-full grid — {1k, 10k} vehicles
// x {1, 10, 100} updates/tick, single-threaded, plus the headline speedup
// at 10k vehicles with 1% of the fleet updated per tick (the acceptance
// configuration).
// ---------------------------------------------------------------------------

void EmitBenchJson(const char* path) {
  struct Config {
    size_t vehicles;
    size_t updates_per_tick;
    bool delta;
    double ns_per_tick = 0;
    uint64_t delta_refreshes = 0;
    uint64_t full_refreshes = 0;
    size_t answer_rows = 0;
  };
  std::vector<size_t> fleet_sizes = {1000, 10000};
  if (size_t vehicles = benchio::EnvSize("MOST_BENCH_VEHICLES", 0)) {
    fleet_sizes = {vehicles};
  }
  constexpr int kTicksPerOp = 4;

  std::vector<Config> configs;
  for (size_t vehicles : fleet_sizes) {
    for (size_t updates : {1u, 10u, 100u}) {
      for (bool delta : {false, true}) {
        Config cfg{vehicles, updates, delta};
        auto db = MakeWorld(vehicles);
        test::ScopedGovernorLimits mode(ModeLimits(delta));
        QueryManager qm(db.get(), {.horizon = kHorizon});
        FtlQuery query = TheQuery();
        auto cq = qm.RegisterContinuous(query);
        Rng rng(1997);
        size_t rows = 0;
        double batch_ns = MeasureNsPerOp([&] {
          for (int tick = 0; tick < kTicksPerOp; ++tick) {
            for (size_t u = 0; u < updates; ++u) {
              ObjectId id =
                  static_cast<ObjectId>(rng.UniformInt(0, vehicles - 1));
              (void)db->SetMotion("CARS", id,
                                  {rng.UniformDouble(0, 1000),
                                   rng.UniformDouble(0, 1000)},
                                  {rng.UniformDouble(-2, 2),
                                   rng.UniformDouble(-2, 2)});
            }
            db->clock().Advance();
            auto answer = qm.ContinuousAnswer(*cq);
            rows = answer->size();
          }
        });
        cfg.ns_per_tick = batch_ns / kTicksPerOp;
        cfg.answer_rows = rows;
        auto counters = qm.QueryRefreshCounters(*cq);
        cfg.delta_refreshes = counters->delta_evaluations;
        cfg.full_refreshes = counters->full_evaluations;
        configs.push_back(cfg);
      }
    }
  }

  // Headline: largest fleet, 1% of it updated per tick.
  size_t head_vehicles = fleet_sizes.back();
  size_t head_updates = 100;
  double full_ns = 0, delta_ns = 0;
  for (const Config& c : configs) {
    if (c.vehicles == head_vehicles && c.updates_per_tick == head_updates) {
      (c.delta ? delta_ns : full_ns) = c.ns_per_tick;
    }
  }

  std::ostringstream out;
  out << "{\n"
      << "  \"benchmark\": \"continuous\",\n"
      << "  \"query\": \"inside_region\",\n"
      << "  \"horizon\": " << kHorizon << ",\n"
      << "  \"configs\": [\n";
  for (size_t i = 0; i < configs.size(); ++i) {
    const Config& c = configs[i];
    out << "    {\"vehicles\": " << c.vehicles
        << ", \"updates_per_tick\": " << c.updates_per_tick
        << ", \"mode\": \"" << (c.delta ? "delta" : "full") << "\""
        << ", \"refresh_ns_per_tick\": " << c.ns_per_tick
        << ", \"refreshes_per_sec\": " << 1e9 / c.ns_per_tick
        << ", \"answer_rows\": " << c.answer_rows
        << ", \"delta_refreshes\": " << c.delta_refreshes
        << ", \"full_refreshes\": " << c.full_refreshes << "}"
        << (i + 1 < configs.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"headline\": {\"vehicles\": " << head_vehicles
      << ", \"updates_per_tick\": " << head_updates
      << ", \"full_ns_per_tick\": " << full_ns
      << ", \"delta_ns_per_tick\": " << delta_ns
      << ", \"delta_speedup\": " << (delta_ns > 0 ? full_ns / delta_ns : 0)
      << "}\n";
  benchio::FinishBenchJson(path, "continuous", out.str());
}

}  // namespace most

// Custom main (this binary does not link benchmark_main): run the
// registered benchmarks, then emit the machine-readable summary.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  most::EmitBenchJson("BENCH_continuous.json");
  return 0;
}
