#!/usr/bin/env python3
"""Self-check of the benchmark, run from the root of a checkout:

    python3 perfbench/selfcheck.py

Runs every workload (the BENCHMARK.json ones and tx_dense) at a tiny size
and asserts that
  1. the workload and metric names (and units) that run.py and the harness
     print match BENCHMARK.json;
  2. a perturbed expected checksum fails the run and counts all of its
     operations as failed;
  3. the traced spans nest, and the top-level spans cover the traced
     round's wall time (their self times plus their children's add up to
     it).
Exits 0 when every check passed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own tables)

# Stream-length multipliers that keep each workload at a few seconds.
TINY = {"tx_dense": 0.2, "lr_fanin": 0.05, "drift_ops": 0.2}
COVER = 0.95

failures = []


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        failures.append(what)
    return cond


def bench(workload, trace, perturb=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace),
           "--scale", str(TINY[workload])]
    if perturb:
        cmd.append("--perturb-expected")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-2000:])
        return None, None
    return json.loads(lines[-2])["summary"], json.loads(lines[-1])


def check_result(workload, result, expected_metrics):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result line has exactly the contract keys")
    names = list(result["metrics"])
    check(names == [m["name"] for m in expected_metrics],
          f"{workload}: printed metric names match BENCHMARK.json")
    check(all(result["metrics"][m["name"]]["unit"] == m["unit"]
              for m in expected_metrics if m["name"] in result["metrics"]),
          f"{workload}: printed units match BENCHMARK.json")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{workload}: attempted is a whole number >= 1")


def check_spans(workload, trace):
    path = trace.get("spans_file", "")
    if not check(bool(path) and os.path.exists(path), f"{workload}: span file written"):
        return
    spans = [json.loads(l) for l in open(path)]
    by_id = {s["id"]: s for s in spans}
    nested = all(s["parent"] < 0 or (
        by_id[s["parent"]]["start_ns"] <= s["start_ns"]
        and s["end_ns"] <= by_id[s["parent"]]["end_ns"]) for s in spans)
    check(nested, f"{workload}: every span lies inside its parent")
    top = sorted((s["start_ns"], s["end_ns"]) for s in spans if s["parent"] < 0)
    disjoint = all(a[1] <= b[0] for a, b in zip(top, top[1:]))
    check(disjoint, f"{workload}: top-level spans do not overlap")
    covered = sum(e - s for s, e in top)
    wall = trace["wall_s"] * 1e9
    check(covered >= COVER * wall,
          f"{workload}: top-level spans cover {covered / wall:.3f} of the traced wall time")
    # A span's self time plus its children's durations is its duration,
    # so the self times of a top-level tree add up to its root's duration
    # (children of one parent may overlap across producer threads, hence
    # the >=).
    total_self = sum(s["self_ns"] for s in spans)
    check(total_self >= 0.999 * covered - 1e6,
          f"{workload}: self times account for the top-level spans")
    check(all(s["self_ns"] >= 0 for s in spans), f"{workload}: self times are >= 0")


def main():
    if not os.path.exists(os.path.join(os.getcwd(), "BENCHMARK.json")):
        print("run from the root of a checkout (BENCHMARK.json not found)")
        return 2
    spec = json.load(open("BENCHMARK.json"))
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "run.py workloads match BENCHMARK.json")
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items()),
          "run.py end-to-end table matches BENCHMARK.json")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER.items()),
          "run.py per-layer table matches BENCHMARK.json")

    for workload in run.WORKLOADS + run.UNLISTED:
        summary, result = bench(workload, 0)
        if not check(result is not None, f"{workload}: timed run completes"):
            continue
        check(result["correct"] and result["failed"] < result["attempted"],
              f"{workload}: timed run passes its output gate")
        check_result(workload, result, spec["end_to_end"])
        check(summary["seed"] == 7 and "seeds" in summary, f"{workload}: summary carries the seeds")

        _, bad = bench(workload, 0, perturb=True)
        if check(bad is not None, f"{workload}: perturbed run completes"):
            check(not bad["correct"], f"{workload}: perturbed checksum fails the run")
            check(bad["failed"] == bad["attempted"],
                  f"{workload}: perturbed run counts every operation as failed")
            check(bad["metrics"]["op_success_frac"]["value"] == 0.0,
                  f"{workload}: perturbed run reports op_success_frac 0")

        summary, traced = bench(workload, 1)
        if not check(traced is not None, f"{workload}: traced run completes"):
            continue
        check(traced["correct"], f"{workload}: traced run passes its gates "
              f"({'; '.join(summary['errors']) or 'no errors'})")
        check_result(workload, traced, spec["per_layer"])
        check_spans(workload, summary["trace"])

    lister = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "sharon_perfbench")
    listed = subprocess.run([lister, "--list-workloads"], capture_output=True, text=True)
    check(sorted(listed.stdout.split()) == sorted(run.WORKLOADS + run.UNLISTED),
          "harness workloads match run.py")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
