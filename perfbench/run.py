#!/usr/bin/env python3
"""Repository benchmark: builds the Sharon library and the benchmark harness
from the checkout's sources, runs measured rounds of one workload and
prints one JSON result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload lr_fanin --seed 1 --seconds 45 --trace 0

--trace 0 runs rounds (one fresh process each) while another round still
fits in --seconds (at least three) and reports each end-to-end metric as
the median over rounds of the round's own figure. Finalize-lag
percentiles are taken per group of consecutive rounds that together hold
at least 1 000 punctuations (10 beyond the p99), median over groups.
--trace 1 runs one untraced and one traced round with the same seed and
reports the per-layer metrics. Every round's finalized result cells are
checked against the reference evaluator; a mismatch fails the run and
counts all of its operations as failed. See perfbench/README.md.

Every line before the last is a JSON record carrying the seeds; the last
line is the result: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

# The workloads BENCHMARK.json lists.
WORKLOADS = ("lr_fanin", "drift_ops")
# Runnable by name but not listed: tx_dense's closed-loop figures track the
# shared host's load too closely to hold a 25% bound (README.md
# "Workloads").
UNLISTED = ("tx_dense",)

# name -> unit, for the --trace 0 result (BENCHMARK.json "end_to_end").
END_TO_END = {
    "events_per_s": "events/s",
    "cpu_us_per_event": "us",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "finalize_lag_p50_ms": "ms",
    "finalize_lag_p99_ms": "ms",
    "gen_late_p99_ms": "ms",
    "op_success_frac": "ratio",
}

# name -> unit, for the --trace 1 result (BENCHMARK.json "per_layer").
PER_LAYER = {
    "planner.optimize_ms": "ms",
    "planner.plan_candidates": "count",
    "exec.segment_counter_ns_per_event": "ns",
    "exec.engine_ns_per_event": "ns",
    "exec.sharing_speedup": "ratio",
    "exec.live_counter_starts_peak": "count",
    "exec.snapshot_panes_peak": "count",
    "exec.pending_windows_peak": "count",
    "exec.state_bytes_peak": "bytes",
    "exec.allocs_per_event": "allocs/event",
    "runtime.overhead_frac": "ratio",
    "runtime.shard_busy_s": "s",
    "runtime.shard_busy_skew": "ratio",
    "runtime.producer_stalls": "count",
    "runtime.worker_idle_spins": "count",
    "runtime.batch_occupancy": "events/batch",
    "runtime.ingest_ns_per_event": "ns",
    "runtime.finish_ms": "ms",
    "runtime.allocs_per_event": "allocs/event",
    "runtime.late_dropped": "count",
    "runtime.evicted_panes": "count",
    "adaptive.swaps_accepted": "count",
    "adaptive.swaps_rejected": "count",
    "adaptive.dual_run_peak_bytes": "bytes",
    "query.churn_swaps": "count",
    "query.churn_swap_retries": "count",
    "checkpoint.bytes": "bytes",
    "trace.overhead_frac": "ratio",
    "self.planner_s": "s",
    "self.exec_s": "s",
    "self.runtime_s": "s",
}

MIN_ROUNDS = 3
# Finalize-lag samples that one percentile is taken over.
LAG_GROUP_SAMPLES = 1000
# Stop starting rounds after this much wall time: a run must end within
# 180 s even when the machine is slow.
ROUND_BUDGET_S = 140.0
ROUND_TIMEOUT_S = 170.0


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds the harness; returns its path or None."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    exe = os.path.join(build_dir, "sharon_perfbench")
    return exe if os.path.exists(exe) else None


def run_round(exe, args, root, work_dir, traced, extra):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--work-dir", work_dir, "--scale", repr(args.scale)] + extra
    if traced:
        cmd.append("--traced")
    if args.perturb_expected:
        cmd.append("--perturb-expected")
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("round timed out")
        return None
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if proc.returncode != 0 or not lines:
        log(f"round exited with {proc.returncode}")
        return None
    return json.loads(lines[-1])


def echo(record):
    """Prints a round record without its raw lag samples."""
    print(json.dumps({k: v for k, v in record.items() if k != "lag_ms"}), flush=True)


def percentile(values, p):
    """Nearest-rank percentile, as the harness takes it."""
    v = sorted(values)
    return v[min(len(v), max(1, math.ceil(p / 100 * len(v)))) - 1] if v else 0.0


def lag_groups(rounds):
    """Consecutive rounds pooled until each group holds LAG_GROUP_SAMPLES
    finalize-lag samples; a short tail joins the last group."""
    groups, cur = [], []
    for r in rounds:
        cur.extend(r["lag_ms"])
        if len(cur) >= LAG_GROUP_SAMPLES:
            groups.append(cur)
            cur = []
    if cur and groups:
        groups[-1].extend(cur)
    elif cur or not groups:
        groups.append(cur)
    return groups


def end_to_end(rounds):
    med = lambda key: statistics.median(key(r) for r in rounds)
    groups = lag_groups(rounds)
    lag = lambda p: statistics.median(percentile(g, p) for g in groups)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    values = {
        "events_per_s": med(lambda r: r["data_events"] / r["wall_s"]),
        "cpu_us_per_event": med(lambda r: r["cpu_s"] * 1e6 / r["data_events"]),
        "peak_rss_mb": med(lambda r: r["peak_rss_mb"]),
        "setup_s": med(lambda r: r["setup_s"]),
        "finalize_lag_p50_ms": lag(50),
        "finalize_lag_p99_ms": lag(99),
        "gen_late_p99_ms": med(lambda r: r["late_p99_ms"]),
        "op_success_frac": 1.0 - failed / attempted if attempted else 0.0,
    }
    summary = {"lag_groups": len(groups),
               "lag_samples_per_group": min(len(g) for g in groups),
               "rss_reset": all(r["rss_reset"] for r in rounds)}
    return values, summary


def per_layer(untraced, traced):
    values = {}
    values.update(traced["layers"])
    values.update(traced["counts"])
    self_s = traced["trace"].get("self_s", {})
    for layer in ("planner", "exec", "runtime"):
        values[f"self.{layer}_s"] = self_s.get(layer, 0.0)
    eps_plain = untraced["data_events"] / untraced["wall_s"]
    eps_traced = traced["data_events"] / traced["wall_s"]
    values["trace.overhead_frac"] = (eps_plain - eps_traced) / eps_plain
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + UNLISTED)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="stream length multiplier (self-check only)")
    ap.add_argument("--perturb-expected", action="store_true",
                    help="corrupt the expected checksum (self-check only)")
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "sharon.h")):
        log("no Sharon sources under ./src; run from the root of a checkout")
        return 2
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    exe = build(root, build_dir)
    if exe is None:
        return 3
    work_dir = os.path.join(build_dir, "run")
    os.makedirs(work_dir, exist_ok=True)

    start = time.monotonic()
    rounds = []
    if args.trace == 0:
        extra = []
        # Wall time of the rounds so far; another round starts while a
        # typical one still fits, so a single slow round does not cost
        # the run its last round.
        durations = []
        typical = lambda: statistics.median(durations) if durations else 0.0
        while (len(rounds) < MIN_ROUNDS
               or time.monotonic() - start + typical() < args.seconds) \
                and time.monotonic() - start < ROUND_BUDGET_S:
            t = time.monotonic()
            if args.workload == "drift_ops":
                # Each round draws its own stream from the run seed: where
                # the drift swap lands among churn and checkpoints moves
                # with the stream, and the median then spans many streams.
                extra = ["--round", str(len(rounds))]
            r = run_round(exe, args, root, work_dir, False, extra)
            if r is None:
                return 4
            # The first round also computes the reference; later ones reuse it.
            if rounds or args.workload == "drift_ops":
                durations.append(time.monotonic() - t)
            echo(r)
            rounds.append(r)
            if args.workload != "drift_ops" and not extra:
                # Same seed, same inputs: later rounds reuse this reference.
                extra = ["--reference",
                         f"{r['reference_checksum']}:{r['reference_cells']}"]
    else:
        for traced in (False, True):
            r = run_round(exe, args, root, work_dir, traced, [])
            if r is None:
                return 4
            echo(r)
            rounds.append(r)

    correct = all(r["correct"] for r in rounds)
    attempted = sum(r["attempted"] for r in rounds)
    failed = attempted if not correct else sum(r["failed"] for r in rounds)
    if args.trace == 0:
        values, summary = end_to_end(rounds)
        if not correct:
            values["op_success_frac"] = 0.0
        units = END_TO_END
    else:
        values = per_layer(rounds[0], rounds[1])
        summary = {"scoped": rounds[1]["scoped"], "trace": rounds[1]["trace"]}
        units = PER_LAYER
    summary.update({"workload": args.workload, "seed": args.seed,
                    "seeds": rounds[0]["seeds"], "rounds": len(rounds),
                    "stream_seeds": [r["seeds"]["stream"] for r in rounds],
                    "errors": [r["error"] for r in rounds if r["error"]],
                    "elapsed_s": time.monotonic() - start})
    print(json.dumps({"summary": summary}), flush=True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
