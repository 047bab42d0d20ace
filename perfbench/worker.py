#!/usr/bin/env python3
"""Run one workload in this interpreter and print its measurements as JSON.

``run.py`` starts one fresh interpreter per workload with this script, so
memory peaks and garbage-collector state belong to that workload alone.
Set-up (imports, input generation, and a warm-up on fixed small inputs
that do not depend on the seed) is timed from the first statement.  The op
loop repeats the whole op list in passes until ``--seconds`` have gone by;
each op is timed on its own, and its correctness check runs after the timer
stops.

Every time reported is scaled to a fixed machine speed.  On a shared host
the speed of the same code moves by up to 1.8 times, in stretches from
under a second to more than a minute, and a whole run can fall into one
slow stretch.  So a calibration unit (a fixed pure-Python loop and a fixed
NumPy kernel, no library code) is timed beside the ops, at least every
``SAMPLE_EVERY_S``, and each op time is divided by the slowdown measured
just before and just after it.  A change to the library moves op times and
leaves the calibration unit alone.

With ``--trace 1`` passes alternate between untraced and traced, so the
tracing overhead is measured on the same ops; per-layer numbers are per
traced pass.  With ``--setup-only`` the script stops after set-up.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import gamma4  # noqa: E402
from gamma4 import _kernels  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

MAX_FAILURES_SHOWN = 5
#: Longest time between two slowdown samples during the op loop; the
#: machine's speed holds for a few tenths of a second at least.
SAMPLE_EVERY_S = 0.1
#: Median time of each half of the calibration unit at the reference speed,
#: over 3960 samples on the 2-core shared VM the benchmark was defined on
#: (Python 3.11.7, NumPy 2.4.6).  Reported times are times at that speed.
CALIBRATION_PYTHON_S = 0.89e-3
CALIBRATION_NUMPY_S = 0.68e-3
_GAPS = np.arange(60_000, dtype=np.int64) * 7919 % 100_003
_GAPS_REVERSED = _GAPS[:40_000][::-1].copy()
_WORDS = np.arange(256, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)


def _calibration_python() -> int:
    """Dictionary and tuple work, as in the complex and CLI code."""
    table: dict[tuple[int, int], int] = {}
    for i in range(2500):
        key = (i % 97, i & 15)
        table[key] = table.get(key, 0) + i
    return len(table)


def _calibration_numpy() -> int:
    """Shifted array differences and small bit scans, as in ``_kernels``."""
    total = 0
    for shift in range(12):
        total = max(total, int((_GAPS_REVERSED - _GAPS[shift:shift + 40_000]).max()))
    for bit in range(40):
        total += int(np.nonzero((_WORDS >> np.uint64(bit)) & np.uint64(1))[0].size)
    return total


def slowdown() -> float:
    """How many times slower than the reference speed the machine runs now.

    The geometric mean of the two halves' ratios, each the fastest of three.
    """
    python_s = numpy_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _calibration_python()
        middle = time.perf_counter()
        _calibration_numpy()
        end = time.perf_counter()
        python_s = min(python_s, middle - start)
        numpy_s = min(numpy_s, end - middle)
    return (python_s / CALIBRATION_PYTHON_S * numpy_s / CALIBRATION_NUMPY_S) ** 0.5


def tail_index(count: int) -> int:
    """Index, in ascending order, of the highest value with ten samples above it."""
    return max(0, count - 11)


def summarize_latencies(per_op: list[list[float]]) -> dict:
    """Percentiles over ops of each op's median scaled time across passes.

    ``ops_per_s`` is the op count over the sum of those times: one client
    running the op list back to back.
    """
    typical = sorted(statistics.median(times) for times in per_op)
    count = len(typical)
    index = tail_index(count)
    return {
        "ops_per_s": count / sum(typical),
        "op_p50_ms": 1e3 * statistics.median(typical),
        "op_tail_ms": 1e3 * typical[index],
        "op_tail_percentile": 100.0 * index / max(1, count - 1),
        "ops_per_pass": count,
    }


def stamp(name: str, seed: int, op_count: int) -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "backend": _kernels.BACKEND,
        "GAMMA4_NO_NUMBA": os.environ.get("GAMMA4_NO_NUMBA", ""),
        "gamma4": gamma4.__version__,
        "nproc": os.cpu_count(),
        "workload": name,
        "seed": seed,
        "ops_per_pass": op_count,
    }


def run_op(workload, tracer, index, item, prepared):
    """Time one op, then check it; return (seconds, output, failure or None)."""
    if tracer is not None:
        tracer.op_id = index
        tracer.active = True
    start = time.perf_counter()
    try:
        output, failure = workload.run(prepared), None
    except Exception as exc:  # a failing op is counted, not fatal
        output, failure = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    if failure is None:
        try:
            failure = workload.check(index, item, prepared, output)
        except Exception:  # a crashing check is a failed op, not a crashed run
            failure = "check raised: " + traceback.format_exc(limit=2).splitlines()[-1]
    return elapsed, output, failure


def layer_metrics(tracer: Tracer, passes: int, traced_s: float, untraced_s: float,
                  output_bytes: int) -> dict:
    """Per-layer metrics, per traced pass; names as in ``layer_map.json``."""
    out: dict[str, float] = {}

    def per_pass(value):
        return value / passes

    for name in tracer.names:
        if name.startswith("cli.cache."):
            continue
        out[f"{name}.calls"] = per_pass(tracer.calls[name])
        out[f"{name}.self_s"] = per_pass(tracer.self_s[name])
    counters = tracer.counters
    out["cli.output_bytes"] = per_pass(output_bytes)
    out["cli.cache.hits"] = per_pass(counters["cli.cache.lookup"]["hits"])
    out["cli.cache.misses"] = per_pass(counters["cli.cache.lookup"]["misses"])
    out["cli.cache.save_s"] = per_pass(tracer.self_s["cli.cache.save"])
    for kind in ("closed_form", "complex", "unsupported"):
        out[f"nuplus.route.{kind}"] = per_pass(counters["nuplus.route"][kind])
    vi_calls = tracer.calls["nuplus.vi_expr"]
    out["nuplus.vi_expr.distinct_ratio"] = (
        counters["nuplus.vi_expr"]["distinct"] / vi_calls if vi_calls else 0.0
    )
    out["semigroups.from_generators.genus_sum"] = per_pass(
        counters["semigroups.from_generators"]["genus_sum"]
    )
    out["cfk.tensor.generators_out"] = per_pass(counters["cfk.tensor"]["generators_out"])
    levels = counters["cfk.vi_sequence"]["levels"]
    out["cfk.vi_sequence.levels"] = per_pass(levels)
    out["cfk.levels_per_entry"] = tracer.levels_evaluated / levels if levels else 0.0
    out["kernels.pack_bit_rows.entries"] = per_pass(counters["kernels.pack_bit_rows"]["entries"])
    snf = counters["kernels.graded_snf"]
    out["kernels.graded_snf.n_sum"] = per_pass(snf["n_sum"])
    out["kernels.graded_snf.n_max"] = float(snf["n_max"])
    out["kernels.graded_snf.rank_ratio"] = snf["rank_x2"] / snf["n_sum"] if snf["n_sum"] else 0.0
    out["kernels.graded_snf.matrix_bytes"] = per_pass(snf["matrix_bytes"])
    out["kernels.sieve_members.cells"] = per_pass(counters["kernels.sieve_members"]["cells"])
    out["kernels.max_gap_profile.cells"] = per_pass(counters["kernels.max_gap_profile"]["cells"])
    del out["bounds.thin_bounds.self_s"]  # thin_bounds is reported by its calls only
    out["trace.overhead_ratio"] = traced_s / untraced_s if untraced_s else 0.0
    out["trace.coverage"] = sum(tracer.self_s.values()) / traced_s if traced_s else 0.0
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="gzipped CSV file for the traced spans")
    args = parser.parse_args()

    scratch = os.path.join(os.getcwd(), ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.CliSession:
        workload = cls(tempfile.mkdtemp(prefix="cli-", dir=scratch))
    else:
        workload = cls()
    try:
        items = workload.inputs(args.seed)
        prepared = [workload.prepare(item) for item in items]
        for item in workload.WARMUP:
            workload.begin_pass()
            workload.run(workload.prepare(item))
        setup_wall_s = time.perf_counter() - _START
        setup_slowdown = statistics.median(slowdown() for _ in range(5))
        result = {
            "stamp": stamp(args.workload, args.seed, len(items)),
            "setup_s": setup_wall_s / setup_slowdown,
            "setup_wall_s": setup_wall_s,
        }
        if not args.setup_only:
            result.update(measure(workload, items, prepared, args))
    finally:
        workload.close()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


def measure(workload, items, prepared, args) -> dict:
    """Run whole passes until the deadline; every other pass traced if asked."""
    tracer = Tracer() if args.trace else None
    per_op: list[list[float]] = [[] for _ in items]
    untraced: list[float] = []
    traced: list[float] = []
    output_bytes = attempted = failed = 0
    failures: list[str] = []
    slowdowns = [slowdown()]
    sampled_at = time.perf_counter()
    timed: list[tuple[int, float, int]] = []  # (op, seconds, last sample before it)
    deadline = time.perf_counter() + args.seconds
    while True:
        tracing = tracer is not None and len(untraced) > len(traced)
        workload.begin_pass()
        if tracing:
            tracer.install()
        elapsed = 0.0
        try:
            for index, item in enumerate(items):
                if time.perf_counter() - sampled_at > SAMPLE_EVERY_S:
                    slowdowns.append(slowdown())
                    sampled_at = time.perf_counter()
                seconds, output, failure = run_op(
                    workload, tracer if tracing else None, index, item, prepared[index]
                )
                elapsed += seconds
                attempted += 1
                if tracing:
                    output_bytes += workload.output_bytes(output)
                else:
                    timed.append((index, seconds, len(slowdowns) - 1))
                if failure is not None:
                    failed += 1
                    if len(failures) < MAX_FAILURES_SHOWN:
                        failures.append(f"op {index} {item!r}: {failure}")
        finally:
            if tracing:
                tracer.end_pass()
                tracer.uninstall()
        (traced if tracing else untraced).append(elapsed)
        paired = tracer is None or len(traced) == len(untraced)
        if paired and time.perf_counter() >= deadline:
            break
    slowdowns.append(slowdown())
    for index, seconds, before in timed:
        per_op[index].append(2.0 * seconds / (slowdowns[before] + slowdowns[before + 1]))
    out = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "passes": len(untraced),
        "slowdown_quartiles": statistics.quantiles(slowdowns, n=4),
        **summarize_latencies(per_op),
    }
    if tracer is not None:
        out["traced_passes"] = len(traced)
        out["layers"] = layer_metrics(tracer, len(traced), sum(traced), sum(untraced), output_bytes)
        if args.spans:
            tracer.write_spans(args.spans)
    return out


if __name__ == "__main__":
    sys.exit(main())
