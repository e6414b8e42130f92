#!/usr/bin/env python3
"""Host-cost benchmark for the faaspart simulator (see README.md here).

    python3 bench/hostcost/run.py --workload gpu-fleet --seed 1 --seconds 25 --trace 0

Builds bench/hostcost (CMake, Release) under .bench_build/hostcost, then
runs repetitions of one workload, each in a fresh `hostcost` process, until
--seconds have passed. Each repetition times its phases: setup, the run in
slices of a fixed number of simulated events, readout and teardown. Every
repetition does the same work in each phase, so setup_s, run_s and cpu_s
are each a sum over phases of the fastest repetition's time in that phase
(README.md: "Noise, sizing and bounds"); peak_rss_mb is the median over
repetitions. --trace 0 reports these end-to-end metrics on the last stdout
line. --trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics, plus bench.trace_overhead_s (traced minus untraced
run_s).

Every repetition checks that each offered request settled exactly once and
that no request was dispatched mid-repartition; on the default seed it also
checks the outcome digest committed in digests.json (gpu-fleet-obs must
match gpu-fleet's). Any failed check makes `failed` non-zero, `correct`
false and the exit code 1. A failed build exits 2 without a result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "hostcost"
WORK = BUILD / "work"
DEFAULT_SEED = 1
WORKLOADS = ("gpu-fleet", "cpu-burst", "llm-kv", "gpu-fleet-obs")
MIN_REPS = 3      # per kind (untraced / traced) before the clock may stop a run
MAX_REPS = 400
REP_TIMEOUT_S = 120

END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "sim.events": "count",
    "sim.run_self_s": "s",
    "sim.ns_per_event": "ns",
    "gpu.kernel_launches": "count",
    "gpu.contexts_created": "count",
    "gpu.kv_pages_allocated": "count",
    "gpu.kv_grow_failures": "count",
    "gpu.kv_peak_pages": "count",
    "trace.recorder_spans": "count",
    "trace.util_query_s": "s",
    "faas.attempts": "count",
    "faas.cold_starts": "count",
    "faas.worker_boots": "count",
    "faas.tasks_done": "count",
    "faas.tasks_failed": "count",
    "faas.dfk_submits": "count",
    "federation.offered": "count",
    "federation.admitted": "count",
    "federation.shed": "count",
    "federation.dispatched": "count",
    "federation.warm_dispatch_ratio": "ratio",
    "federation.submit_ns.p50": "ns",
    "federation.submit_ns.p99": "ns",
    "federation.submit_samples": "count",
    "core.weight_misses": "count",
    "core.weight_hit_ratio": "ratio",
    "core.reconfigures": "count",
    "serve.iterations": "count",
    "serve.decode_tokens": "count",
    "serve.prefill_tokens": "count",
    "serve.preemptions": "count",
    "serve.sheds": "count",
    "serve.peak_batch": "count",
    "serve.submit_ns.p50": "ns",
    "serve.submit_ns.p99": "ns",
    "serve.submit_samples": "count",
    "serve.ns_per_decode_token": "ns",
    "scenario.arrivals": "count",
    "scenario.trace_bytes": "B",
    "scenario.synthesize_s": "s",
    "scenario.save_s": "s",
    "scenario.load_s": "s",
    "obs.spans": "count",
    "obs.finish_s": "s",
    "obs.critical_path_s": "s",
    "obs.min_coverage": "ratio",
    "setup.fleet_build_s": "s",
    "teardown_s": "s",
    "bench.trace_overhead_s": "s",
}

# Modelled quantities: identical in every repetition of one seed and size.
EXACT_UNITS = ("count", "ratio", "B")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"hostcost: build step failed: {' '.join(cmd)}")
            return False
    return True


def expected_digest(workload, size, seed):
    """The committed default-seed digest, or None when not compared."""
    if seed != DEFAULT_SEED:
        return None
    with open(HERE / "digests.json") as f:
        table = json.load(f)[size]
    # Observability must not change simulated outcomes: gpu-fleet-obs is
    # held to gpu-fleet's digest.
    return table["gpu-fleet" if workload == "gpu-fleet-obs" else workload]


def run_rep(args, traced, expect):
    """One repetition in a fresh process; returns its parsed result."""
    cmd = [str(BUILD / "hostcost"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(WORK)]
    if args.size == "tiny":
        cmd.append("--tiny")
    if traced:
        cmd += ["--traced", str(span_file(args))]
    if expect:
        cmd += ["--expect-digest", expect]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=REP_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        rep = json.loads(lines[-1])
        rep["human"] = lines[:-1]
        if proc.returncode != 0 and not rep["failures"]:
            rep["failures"] = [f"exit code {proc.returncode}"]
    except (subprocess.TimeoutExpired, IndexError, ValueError, KeyError) as e:
        rep = {"offered": 0, "failed": 1, "digest": "", "layers": {},
               "human": [], "failures": [f"repetition did not report: {e!r}"]}
    if rep["failures"]:
        rep["failed"] = max(rep["failed"], rep["offered"], 1)
    rep["traced"] = traced
    return rep


def span_file(args):
    return WORK / f"{args.workload}-seed{args.seed}.spans.json"


def fastest_phases(reps, col, first=0):
    """Sum over phases[first:] of the fastest repetition's time per phase.

    Column 0 is wall seconds, 1 CPU seconds. Every repetition of one run
    does the same work in each phase, and a busy host only adds time to it.
    """
    phases = [r["phases"] for r in reps]
    return sum(min(p[k][col] for p in phases)
               for k in range(first, len(phases[0])))


def spread(values):
    """(median, interquartile range as a share of the median)."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the benchmark's own test size")
    args = ap.parse_args()

    if not build():
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    expect = expected_digest(args.workload, args.size, args.seed)

    reps = []
    start = time.monotonic()
    while len(reps) < MAX_REPS:
        # --trace 1 interleaves untraced and traced repetitions so drift on
        # the host cannot bias bench.trace_overhead_s.
        traced = args.trace == 1 and len(reps) % 2 == 1
        reps.append(run_rep(args, traced, expect))
        kinds = 2 if args.trace == 1 else 1
        if (time.monotonic() - start >= args.seconds
                and len(reps) >= MIN_REPS * kinds):
            break

    # Timings and counts come from the repetitions that reported.
    untraced = [r for r in reps if "run_s" in r and not r["traced"]]
    traced = [r for r in reps if "run_s" in r and r["traced"]]
    attempted = sum(max(r["offered"], 1) for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = sorted({f for r in reps for f in r["failures"]})

    # Determinism: one seed, one outcome and one phase layout — tracing
    # included.
    digests = {r["digest"] for r in reps}
    if len(digests) != 1:
        problems.append(f"outcome digest differs between repetitions: {sorted(digests)}")
        failed = attempted
    layouts = {len(r["phases"]) for r in untraced + traced}
    if len(layouts) > 1:
        problems.append(f"phase count differs between repetitions: {sorted(layouts)}")
        failed = attempted

    for line in reps[0]["human"]:
        print(line)
    print(f"repetitions: {len(untraced)} untraced, {len(traced)} traced "
          f"({len(reps) - len(untraced) - len(traced)} did not report), "
          f"{time.monotonic() - start:.1f} s")

    metrics = {}
    if args.trace == 0 and untraced and len(layouts) == 1:
        fastest = {"setup_s": min(r["phases"][0][0] for r in untraced),
                   "run_s": fastest_phases(untraced, 0, first=1),
                   "cpu_s": fastest_phases(untraced, 1)}
        for name, unit in END_TO_END.items():
            values = [r[name] for r in untraced]
            med, iqr = spread(values)
            value = fastest.get(name, med)
            print(f"  {name:<12} {value:.6f} {unit}  (whole repetitions: "
                  f"median {med:.6f}, min {min(values):.6f}, IQR {100 * iqr:.1f}%)")
            metrics[name] = {"value": value, "unit": unit}
    elif args.trace == 1 and traced and untraced and len(layouts) == 1:
        for name, unit in PER_LAYER.items():
            if name == "bench.trace_overhead_s":
                value = (fastest_phases(traced, 0, first=1)
                         - fastest_phases(untraced, 0, first=1))
            else:
                values = [r["layers"].get(name, 0.0) for r in traced]
                # Untraced repetitions report the counts that need no
                # telemetry: tracing must not move them either.
                values_all = values + [r["layers"][name] for r in untraced
                                       if name in r["layers"]]
                if unit in EXACT_UNITS and len(set(values_all)) != 1:
                    problems.append(f"{name} differs between repetitions: "
                                    f"{sorted(set(values_all))}")
                    failed = attempted
                value = statistics.median_low(values)  # a measured value
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<32} {value:.6g} {unit}")
        unknown = sorted({k for r in reps for k in r["layers"]} - set(PER_LAYER))
        if unknown:
            problems.append(f"unlisted layer metrics: {unknown}")
            failed = attempted
        # The span file holds the last traced repetition; so does this line.
        for line in traced[-1]["human"]:
            if line.startswith("  layer self time"):
                print(line)
        print(f"  spans: {span_file(args).relative_to(ROOT)}")

    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(f"error_rate {failed / attempted:.6f} ({failed} of {attempted} requests)")
    correct = failed == 0 and not problems and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
