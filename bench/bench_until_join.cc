// Experiment E5 — the appendix's Until computation. The paper notes the
// join "may run in time proportional to the product of the sizes of R1 and
// R2" in the worst case, with the per-pair chain merge running on sorted
// interval lists.
//
//  * BM_UntilChainMerge — the per-instantiation maximal-chain merge as the
//    number of intervals per set grows (expected: linear).
//  * BM_UntilRelationJoin — relation-level Until across K matching rows
//    per side (expected: proportional to pairs considered).
//  * BM_CoalescingAblation — DESIGN.md ablation: the appendix requires
//    non-consecutive interval lists; feeding fragmented (tick-sized)
//    intervals instead of coalesced ones inflates every downstream cost.

#include <benchmark/benchmark.h>

#include "common/interval.h"
#include "common/rng.h"
#include "ftl/eval.h"
#include "ftl/parser.h"

namespace most {
namespace {

IntervalSet MakeStripes(Tick start, Tick stride, Tick width, size_t count) {
  std::vector<Interval> ivs;
  for (size_t i = 0; i < count; ++i) {
    Tick b = start + static_cast<Tick>(i) * stride;
    ivs.push_back(Interval(b, b + width - 1));
  }
  return IntervalSet::FromIntervals(std::move(ivs));
}

void BM_UntilChainMerge(benchmark::State& state) {
  size_t intervals = static_cast<size_t>(state.range(0));
  // Alternating g1/g2 stripes that chain end-to-end (the worst case for
  // chain construction: every pair is compatible with the next).
  IntervalSet g1 = MakeStripes(0, 20, 10, intervals);
  IntervalSet g2 = MakeStripes(10, 20, 10, intervals);
  for (auto _ : state) {
    IntervalSet result = g2.UntilWith(g1);
    benchmark::DoNotOptimize(result);
  }
  state.counters["intervals_per_set"] = static_cast<double>(intervals);
  state.SetComplexityN(static_cast<int64_t>(intervals));
}
BENCHMARK(BM_UntilChainMerge)->RangeMultiplier(4)->Range(64, 65536)
    ->Complexity(benchmark::oN);

// Relation-level Until: one object class, rows generated so g1 and g2
// each hold K interval rows; measures the evaluator's join.
void BM_UntilRelationJoin(benchmark::State& state) {
  size_t objects = static_cast<size_t>(state.range(0));
  MostDatabase db;
  (void)db.CreateClass("M", {{"A", true, ValueType::kNull}}, true);
  Rng rng(1997);
  for (size_t i = 0; i < objects; ++i) {
    auto obj = db.CreateObject("M");
    (void)db.SetMotion("M", (*obj)->id(),
                       {rng.UniformDouble(-100, 100),
                        rng.UniformDouble(-100, 100)},
                       {rng.UniformDouble(-2, 2), rng.UniformDouble(-2, 2)});
    (void)db.UpdateDynamic("M", (*obj)->id(), "A",
                           rng.UniformDouble(0, 100),
                           TimeFunction::Linear(rng.UniformDouble(-1, 1)));
  }
  auto query = ParseQuery(
      "RETRIEVE o FROM M o WHERE o.A >= 20 UNTIL o.A <= 10");
  for (auto _ : state) {
    // Fresh per iteration, so no iteration borrows the previous one's
    // relations from the evaluator's context.
    FtlEvaluator eval(db);
    auto rel = eval.EvaluateQuery(*query, Interval(0, 512));
    benchmark::DoNotOptimize(rel);
    state.counters["join_pairs"] =
        static_cast<double>(eval.stats().join_pairs);
  }
  state.counters["objects"] = static_cast<double>(objects);
}
BENCHMARK(BM_UntilRelationJoin)->Arg(100)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// Ablation: identical tick sets, coalesced vs fragmented representation.
void BM_CoalescingAblation(benchmark::State& state) {
  bool coalesced = state.range(0) == 1;
  size_t span = 20000;
  IntervalSet g1, g2;
  if (coalesced) {
    g1 = MakeStripes(0, 40, 20, span / 40);
    g2 = MakeStripes(20, 40, 20, span / 40);
  } else {
    // Same membership, but handed over tick-by-tick; FromIntervals must
    // re-coalesce (this is the normalization step the appendix mandates).
    std::vector<Interval> f1, f2;
    for (Tick t = 0; t < static_cast<Tick>(span); ++t) {
      if (t % 40 < 20) {
        f1.push_back(Interval(t, t));
      } else {
        f2.push_back(Interval(t, t));
      }
    }
    for (auto _ : state) {
      IntervalSet a = IntervalSet::FromIntervals(f1);
      IntervalSet b = IntervalSet::FromIntervals(f2);
      IntervalSet result = b.UntilWith(a);
      benchmark::DoNotOptimize(result);
    }
    state.counters["input_intervals"] = static_cast<double>(f1.size());
    return;
  }
  for (auto _ : state) {
    IntervalSet result = g2.UntilWith(g1);
    benchmark::DoNotOptimize(result);
  }
  state.counters["input_intervals"] = static_cast<double>(g1.size());
}
BENCHMARK(BM_CoalescingAblation)->Arg(1)->Arg(0);

}  // namespace
}  // namespace most
