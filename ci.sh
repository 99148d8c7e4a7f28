#!/usr/bin/env bash
# CI entry point: build the Release and the combined Address- plus
# UndefinedBehaviorSanitizer configurations and run the full test suite in
# each (UBSan halts on the first report, so UB fails the build), then build
# and run the tick benchmark with its answer check. `./ci.sh tsan`
# additionally runs a ThreadSanitizer configuration (slower; exercises the
# parallel evaluator, thread pool, query-manager registry lock and the
# sharded engine's parallel phases).
set -euo pipefail
cd "$(dirname "$0")"

JOBS="${JOBS:-$(nproc)}"

run_config() {
  local dir="$1"
  shift
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j "$JOBS"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

run_config build-release -DCMAKE_BUILD_TYPE=Release
export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
run_config build-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DMOST_SANITIZE=address,undefined

# Fault-simulation stage: the seeded sweep of tests/fault_sim_test.cc
# under ASan — one schedule per seed drawing network loss, partitions,
# crash/restart, node-WAL faults, governor storms, evaluator faults and
# Reshards onto one timeline, checked tick by tick against a fault-free
# twin and the engine's oracle (docs/robustness.md). Its summary test
# fails unless every family fired, the families overlapped, and the
# armed probe below fired once per simulated tick, so this stage cannot
# silently become a no-op.
echo "=== fault-sim stage (env-armed probe, ASan+UBSan) ==="
MOST_FAILPOINTS="ci/sim_probe=noop" ./build-asan/tests/fault_sim_test

# Delta-refresh stage: the differential harness's delta and forced-full
# cells (over 200 random queries through randomized update schedules, each
# answer byte-identical to a fresh evaluation over the query's window at
# every tick) plus the env-armed probe that proves the delta path —
# not the full-refresh fallback — served the refreshes
# (docs/incremental_eval.md). The probe test skips unless
# MOST_FAILPOINTS names ftl/delta/refresh, so arming it here keeps the
# stage from silently degrading to full re-evaluation.
echo "=== delta-refresh stage (env-armed probe, ASan+UBSan) ==="
MOST_FAILPOINTS="ftl/delta/refresh=noop" ./build-asan/tests/differential_test \
  --gtest_filter='DifferentialTest.DeltaRefresh*'

# Shard-differential stage: the sharded engine's scatter-gather answers
# against a twin unsharded oracle, pinned at every shard count the bench
# sweeps (docs/sharding.md). MOST_SHARDS pins the corpus to one count per
# run — a 4-count sweep of the full product would square the stage's
# runtime for no added coverage per count. The unit suite then exercises
# the edge cases (reshard migration, DIST straddling shards, empty-shard
# gather, WAL round-trip, degraded-shard poisoning) under ASan. Each
# differential schedule also replays its per-shard WALs and compares the
# database, and every cell checks §2.3 at every tick (the continuous
# answer at now equals the instantaneous answer outside the window's
# truncation zone; docs/incremental_eval.md), so the sweep checks replay
# and §2.3 at every shard count. The filter also runs the projecting
# slice (ShardedEngineProjectingSlot*: a long-lived RETRIEVE n FROM M o,
# M n, whose rows collide across shards and which every refresh
# reprojects), so the gather's one-pass k-way union is checked at 1, 2,
# 4 and 8 shards.
echo "=== shard-differential stage (MOST_SHARDS sweep, ASan+UBSan) ==="
for shards in 1 2 4 8; do
  MOST_SHARDS="$shards" ./build-asan/tests/differential_test \
    --gtest_filter='DifferentialTest.ShardedEngine*'
done
# The shared-context cells: queries that repeat subformulas, through one
# manager or one engine whose shards each own an evaluation context,
# against fresh evaluation and the oracle (docs/eval_internals.md §8).
for shards in 1 2 4; do
  MOST_SHARDS="$shards" ./build-asan/tests/differential_test \
    --gtest_filter='DifferentialTest.SharedContext*'
done
./build-asan/tests/sharded_engine_test
./build-asan/tests/mpsc_queue_test

# Fuzz-smoke stage: replay the checked-in parser/evaluator corpus and a
# bounded deterministic mutation loop per seed under the sanitizers. Every
# input that parses is evaluated by the interval evaluator (twice through
# one evaluation context, once fresh) and by the per-state reference
# evaluator (NaiveFtlEvaluator, the paper's semantics); status codes must
# match, and relations must be byte-identical. The harness aborts (and this stage fails) on any
# divergence or sanitizer report, and fails if no input reached the row
# comparison (tests/fuzz/ftl_fuzz.cc).
echo "=== fuzz-smoke stage (corpus + 2000 mutations x 5 seeds, ASan+UBSan) ==="
for seed in 1 2 3 7 42; do
  MOST_TEST_SEED="$seed" ./build-asan/tests/ftl_fuzz tests/fuzz/corpus \
    --mutate 2000
done

# Observability stage: the exporter/EXPLAIN goldens re-run explicitly (a
# ctest filter change can never drop them), then the demo binary's
# Prometheus exposition is checked against the required-metric allowlist —
# families from five instrumented subsystems (FTL evaluation, query
# manager, WAL/storage, network/reliable channel, resource governance /
# graceful degradation) plus the failpoint collector
# (docs/observability.md, docs/robustness.md).
echo "=== observability stage (goldens + exporter allowlist, ASan+UBSan) ==="
./build-asan/tests/obs_test
./build-asan/tests/explain_test
PROM="$(./build-asan/examples/observability_demo)"
for metric in \
  most_ftl_evaluations_total \
  most_ftl_eval_latency_seconds_bucket \
  most_ftl_arena_bytes_total \
  most_ftl_arena_heap_fallbacks_total \
  most_ftl_snapshot_builds_total \
  most_ftl_shared_subformulas_total \
  most_qm_refreshes_total \
  most_qm_refresh_latency_seconds_bucket \
  most_wal_appends_total \
  most_checkpoints_total \
  most_net_messages_sent_total \
  most_rc_retransmissions_total \
  most_rc_frames_shed_total \
  most_rc_peers_evicted_total \
  most_governor_sheds_total \
  most_governor_degrades \
  most_governor_storage_degraded \
  most_qm_shed_refreshes_total \
  most_shard_updates_routed_total \
  most_shard_updates_applied_total \
  most_shard_queue_depth \
  most_shard_refresh_latency_seconds_bucket \
  most_shard_gather_merges_total \
  most_coord_deadline_expired_total \
  most_coord_requests_shed_total \
  most_coord_lease_expirations_total \
  most_coord_rejoins_total \
  most_coord_catchup_bytes_total \
  most_node_recoveries_total \
  most_trace_spans_recorded_total \
  most_trace_spans_dropped_total \
  most_telemetry_samples_total \
  most_telemetry_ticks_sampled_total \
  most_telemetry_watchdog_adjustments_total \
  most_failpoint_fired_total; do
  if ! grep -q "^${metric}" <<<"$PROM"; then
    echo "observability stage: missing required metric '${metric}'"
    exit 1
  fi
done

# Trace-golden stage: the causal-tracing suite (span parenting, context
# propagation across the network and the sharded scatter-gather, the
# masked Perfetto/Chrome-trace golden, JSON escaping) and the telemetry
# timeline suite (sampling semantics, watchdog arm/relax against the
# governor) re-run explicitly so a ctest filter change can never drop
# them (docs/observability.md).
echo "=== trace-golden stage (causal tracing + telemetry, ASan+UBSan) ==="
./build-asan/tests/trace_test
./build-asan/tests/telemetry_test

# Tick-benchmark stage: build the unmodified tick benchmark from this
# checkout the way its runner does, and run every workload (fleet, ingest,
# paper) briefly. The runner's last line is one JSON summary; the stage
# fails unless its answer check passed ("correct": true, "failed": 0), so
# a public-API change that breaks the benchmark's build or its answers
# fails here. It runs before the timing gates below, so a timing gate
# that trips on a loaded host cannot hide the answer check.
echo "=== tickbench stage (all workloads, answer check) ==="
summary="$(CARGO_TARGET_DIR=build-tickbench python3 tickbench/run.py \
  --workload all --seconds 1 --trace 0 | tail -n 1)"
python3 - "$summary" <<'PY'
import json, sys
r = json.loads(sys.argv[1])
print(f"tickbench: correct={r['correct']} attempted={r['attempted']} "
      f"failed={r['failed']}")
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)
PY

# Metrics-overhead stage: bench_ftl_eval measures the same serial
# evaluation with the registry armed vs. the kill switch, and again with
# tracing + telemetry armed vs. disabled; each delta must stay under 5%
# (Release — sanitizer builds would distort the ratio).
echo "=== metrics-overhead stage (Release, < 5%) ==="
(cd build-release && MOST_BENCH_VEHICLES=4096 \
  ./bench/bench_ftl_eval --benchmark_filter=OVERHEAD_ONLY >/dev/null)
overhead="$(grep -o '"metrics_overhead_pct": *[-0-9.eE+]*' \
  build-release/BENCH_ftl_eval.json | awk '{print $2}')"
awk -v o="$overhead" 'BEGIN {
  printf "metrics overhead: %s%%\n", o
  if (o >= 5.0) { print "metrics overhead exceeds the 5% budget"; exit 1 }
}'
trace_overhead="$(grep -o '"trace_overhead_pct": *[-0-9.eE+]*' \
  build-release/BENCH_ftl_eval.json | awk '{print $2}')"
awk -v o="$trace_overhead" 'BEGIN {
  printf "trace+telemetry overhead: %s%%\n", o
  if (o >= 5.0) { print "trace overhead exceeds the 5% budget"; exit 1 }
}'
# E9 overload grid: smoke-run bench_overload on a small fleet with the
# interactive cells filtered out, so its calibration and JSON emitter stay
# healthy. Only the six grid cells are checked; there is no timing gate.
(cd build-release && MOST_BENCH_VEHICLES=60 \
  ./bench/bench_overload --benchmark_filter=NONE >/dev/null 2>&1)
python3 - build-release/BENCH_overload.json <<'PY'
import json, sys
cells = json.load(open(sys.argv[1]))["cells"]
grid = {(c["overload"], c["governed"]) for c in cells}
want = {(m, g) for m in (1, 4, 16) for g in (False, True)}
print(f"bench_overload: {len(cells)} cells")
sys.exit(0 if len(cells) == 6 and grid == want else 1)
PY

# Bench-regression stage: re-measure the serial FTL evaluation at the same
# vehicle count as the last recorded bench/trajectories/ftl_eval.json
# entry and fail on a >15% regression. Three full bench invocations (each
# internally best-of-3) with the overall minimum taken, so a scheduler
# hiccup on a loaded runner does not produce a false alarm.
echo "=== bench-regression stage (serial path, Release, < +15%) ==="
baseline="$(grep -o '"serial_ns_per_op": *[0-9.eE+-]*' \
  bench/trajectories/ftl_eval.json | tail -1 | awk '{print $2}')"
base_vehicles="$(grep -o '"vehicles": *[0-9]*' \
  bench/trajectories/ftl_eval.json | tail -1 | awk '{print $2}')"
fresh=""
for _ in 1 2 3; do
  (cd build-release && MOST_BENCH_VEHICLES="$base_vehicles" \
    ./bench/bench_ftl_eval --benchmark_filter=OVERHEAD_ONLY >/dev/null)
  run="$(grep -o '"serial_ns_per_op": *[0-9.eE+-]*' \
    build-release/BENCH_ftl_eval.json | awk '{print $2}')"
  fresh="$(awk -v a="${fresh:-inf}" -v b="$run" \
    'BEGIN { print (a == "inf" || b + 0 < a + 0) ? b : a }')"
done
awk -v base="$baseline" -v fresh="$fresh" 'BEGIN {
  pct = (fresh - base) / base * 100.0
  printf "serial ns/op: baseline %s, fresh %s (%+.1f%%)\n", base, fresh, pct
  if (pct > 15.0) { print "serial path regressed beyond the 15% budget"; exit 1 }
}'

if [[ "${1:-}" == "tsan" ]]; then
  run_config build-tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMOST_SANITIZE=thread
  # The query-manager concurrency suite (registration, reads and TickAll
  # from several threads against the registry lock, refresh totals read
  # while refreshes run) and the delta differential are what the refresh
  # path most needs under TSan; run them explicitly so a ctest filter
  # change can never drop them from this configuration.
  echo "=== query-manager concurrency suite (TSan) ==="
  # QueryManagerTest.ConcurrentEvaluateSharesOneContext: instantaneous
  # evaluations from four threads share the manager's evaluation context
  # with registrations and TickAll (Evaluate takes no registry lock, so
  # the context's own locks are what TSan checks).
  # TickAllTest.SnapshotReaderRacesDeltaRefreshes: a reader thread takes,
  # reads and drops answer snapshots while TickAll splices the same
  # relation in place whenever no snapshot holds it (the snapshot count's
  # release/acquire hand-over; docs/incremental_eval.md, copy on write).
  ./build-tsan/tests/query_manager_test
  ./build-tsan/tests/differential_test \
    --gtest_filter='DifferentialTest.DeltaRefresh*'
  # The sharded engine's lock-free handoff queue and parallel
  # drain/refresh phases are memory-ordering claims; TSan is the tool
  # that checks them (docs/sharding.md).
  # ShardedEngineTest.WatchdogArmingDuringParallelTickDegradesSoundly arms
  # the telemetry watchdog from inside one shard's TickAll while the other
  # shards read the governor's limits on pool threads;
  # ShardedEngineTest.ConcurrentProducersEnqueueAcrossClasses enqueues
  # from four producer threads across two classes (the data plane's class
  # lookup and the handoff queues). The differential filter includes the
  # projecting slice: each gather drops its shard snapshots on this
  # thread, and the next tick's refreshes on pool threads then splice
  # those relations in place.
  # ObjectModelTest.ConcurrentSetMotionOnDisjointObjects is the drain's
  # contract on the object store: four threads look up and update disjoint
  # objects of one class, so every lookup must be a pure read.
  echo "=== sharded-engine concurrency suite (TSan) ==="
  ./build-tsan/tests/object_model_test \
    --gtest_filter='ObjectModelTest.ConcurrentSetMotionOnDisjointObjects'
  ./build-tsan/tests/mpsc_queue_test
  ./build-tsan/tests/sharded_engine_test
  MOST_SHARDS=4 ./build-tsan/tests/differential_test \
    --gtest_filter='DifferentialTest.ShardedEngine*:DifferentialTest.SharedContext*'
  # One pinned seed of the fault simulation: Reshard and the engine's
  # parallel phases under storms and evaluator faults.
  echo "=== fault-sim pinned seed (TSan) ==="
  MOST_TEST_SEED=42 ./build-tsan/tests/fault_sim_test
fi
