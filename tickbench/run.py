#!/usr/bin/env python3
"""Tick benchmark for MOST: builds tick_bench from source and runs a workload.

Run from the root of the repository:

    python3 tickbench/run.py --workload fleet|ingest|paper|all \
        --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR (default .bench_build), reports and
traces to .bench_out/. Every metric is printed by name with its unit; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. See tickbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fleet", "ingest", "paper"]

# Reported on every workload; kept in step with BENCHMARK.json.
END_TO_END = ["tick_cpu_p50_ms", "tick_cpu_p90_ms", "updates_per_cpu_s",
              "answer_cpu_p50_ms", "answer_cpu_p90_ms", "setup_s",
              "peak_rss_mb"]
PER_LAYER = ["tick.updates_ms", "tick.refresh_ms", "tick.answers_ms",
             "bench.unattributed_ms", "bench.trace_overhead_pct",
             "core.snapshot_build_ms", "ftl.refresh_ms",
             "ftl.instantiations_per_row", "ftl.arena_mb"]

# Wall-clock limit for one invocation, after the build.
RUN_LIMIT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds tick_bench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("MOST sources (src/) not found next to tickbench/")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "tickbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "tick_bench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "tick_bench")


def run_workload(binary, workload, seed, seconds, trace, deadline):
    out_dir = os.path.join(ROOT, ".bench_out")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", out_dir]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"tick_bench exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(out_dir, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    return report


def show(report):
    """Prints every metric, the checks and the steadiness record."""
    w = report["workload"]
    print(f"== {w} (seed {report['seed']}, trace {report['trace']})")
    for name, m in report["metrics"].items():
        print(f"  {w}/{name:32s} {m['value']:14.6g} {m['unit']}")
    print(f"  samples    {json.dumps(report['samples'])}")
    print(f"  steadiness {json.dumps(report['steadiness'])}")
    for c in report["checks"]:
        print(f"  ok    {c}")
    for e in report["errors"]:
        print(f"  FAIL  {e}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S * len(workloads)
    wanted = PER_LAYER if args.trace else END_TO_END
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        try:
            report = run_workload(binary, w, args.seed, args.seconds,
                                  args.trace, deadline)
        except (RuntimeError, OSError, ValueError, IndexError,
                subprocess.TimeoutExpired) as e:
            log(f"{w}: {e}")
            return 1
        show(report)
        missing = [m for m in wanted if m not in report["metrics"]]
        if missing:
            log(f"{w}: metrics missing from the report: {missing}")
            return 1
        result["correct"] = result["correct"] and report["correct"]
        result["attempted"] += report["attempted"]
        result["failed"] += report["failed"]
        prefix = "" if len(workloads) == 1 else w + "/"
        for m in wanted:
            result["metrics"][prefix + m] = report["metrics"][m]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
