#!/usr/bin/env python3
"""The gamma4 benchmark: end-to-end metrics per workload, or per-layer with a trace.

Run from the root of a checkout (the library is imported from ``src``):

    python3 perfbench/run.py                          # every workload
    python3 perfbench/run.py --workload family-sweep --seed 3
    python3 perfbench/run.py --workload cli-session --trace 1

Each workload runs in fresh interpreters with NumPy and BLAS thread pools
set to one thread: ``SETUP_RUNS - 1`` that only set up, then one that sets
up and measures.  ``setup_s`` is the median of all set-ups.  The load is a
closed loop with one client on one thread: each op starts when the
previous one has finished.  Times are scaled to a fixed machine speed with
a calibration unit timed beside the ops (see ``worker.py``); the report
prints the slowdowns measured, and set-up's wall time.

Output: a table of every metric with its unit, the stamp (interpreter,
NumPy, kernel backend, core count, commit, seed, op count), and as the last
line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the per-layer metrics, from a run
that alternates untraced and traced passes.  The exit code is 1 when any op
failed its correctness check, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("family-sweep", "closed-form-scan", "cli-session")
SETUP_RUNS = 5
#: Seconds a worker may run beyond ``--seconds`` before it is stopped.
GRACE_S = 60
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def load_spec() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def git_commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def worker(root: str, args, workload: str, *extra: str) -> dict:
    """Run ``worker.py`` in a fresh interpreter and return its JSON result."""
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    done = subprocess.run(
        command, cwd=root, env=env, capture_output=True, text=True,
        timeout=args.seconds + GRACE_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} worker exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(root: str, args, workload: str) -> dict:
    setup_only = [worker(root, args, workload, "--setup-only") for _ in range(SETUP_RUNS - 1)]
    setups = [run["setup_s"] for run in setup_only]
    extra = []
    if args.trace:
        spans = os.path.join(root, ".perfbench", f"spans-{workload}-seed{args.seed}.csv.gz")
        extra = ["--spans", spans]
    result = worker(root, args, workload, *extra)
    setups.append(result["setup_s"])
    result["setup_runs"] = setups
    result["setup_wall_s"] = statistics.median(
        [result["setup_wall_s"]] + [run["setup_wall_s"] for run in setup_only])
    result["setup_s"] = statistics.median(setups)
    result["fail_ratio"] = result["failed"] / result["attempted"]
    return result


def end_to_end(result: dict) -> dict:
    return {
        "ops_per_s": result["ops_per_s"],
        "op_p50_ms": result["op_p50_ms"],
        "op_tail_ms": result["op_tail_ms"],
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": result["setup_s"],
    }


def print_report(workload: str, result: dict, spec: dict, trace: bool) -> None:
    stamp = result["stamp"]
    print(f"== {workload}: {result['attempted']} ops in {result['passes']} untraced passes "
          f"of {stamp['ops_per_pass']} ops, {result['failed']} failed")
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    notes = {
        "op_p50_ms": f"over {stamp['ops_per_pass']} per-op medians",
        "op_tail_ms": f"p{result['op_tail_percentile']:.1f}, ten ops above it",
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in result["setup_runs"]),
    }
    for name, value in end_to_end(result).items():
        print(f"  {name:<14} {value:14.4f} {units[name]:<6} {notes.get(name, '')}")
    print(f"  {'fail_ratio':<14} {result['fail_ratio']:14.4f} {'ratio':<6} "
          f"{result['failed']} of {result['attempted']}")
    quartiles = ", ".join(f"{q:.3f}" for q in result["slowdown_quartiles"])
    print(f"  times at reference speed; machine slowdown quartiles in the op loop {quartiles}; "
          f"set-up wall time {result['setup_wall_s']:.4f} s")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    if trace:
        layers = result["layers"]
        print(f"  per layer, per traced pass ({result['traced_passes']} traced passes):")
        for name, value in layers.items():
            note = " (computed)" if name.endswith(("matrix_bytes", "cells")) else ""
            print(f"    {name:<40} {value:.6g}{note}")
        shares: dict[str, float] = {}
        for name, value in layers.items():
            if name.endswith("self_s") or name == "cli.cache.save_s":
                layer = name.split(".")[0]
                shares[layer] = shares.get(layer, 0.0) + value
        total = sum(shares.values()) or 1.0
        print("  self-time share by layer: " + ", ".join(
            f"{layer} {value / total:.1%}"
            for layer, value in sorted(shares.items(), key=lambda kv: -kv[1])))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per workload; figures compare only at "
                             "BENCHMARK.json's run_seconds, the default")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gamma4", "__init__.py")):
        print("error: run from the root of a gamma4 checkout (no src/gamma4 here)",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    commit = git_commit(root)
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    try:
        for name in names:
            result = run_workload(root, args, name)
            result["stamp"]["commit"] = commit
            print_report(name, result, spec, bool(args.trace))
            attempted += result["attempted"]
            failed += result["failed"]
            if args.trace:
                values = result["layers"]
                wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
            else:
                values = end_to_end(result)
                wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            prefix = "" if len(names) == 1 else f"{name}."
            for metric, unit in wanted.items():
                metrics[prefix + metric] = {"value": values[metric], "unit": unit}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
