"""Tests of the benchmark itself: inputs, budgets, tracing and failure counting.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

import gamma4
import worker
import workloads
from gamma4 import cfk, nuplus
from gamma4.expressions import multiply, parse
from tracer import Tracer

from conftest import BENCH, ROOT


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    cls = workloads.WORKLOADS[name]
    assert cls().inputs(7) == cls().inputs(7)
    assert cls().inputs(7) != cls().inputs(8)


@pytest.mark.parametrize("seed", [1, 2])
def test_closed_form_scan_never_touches_cfk(seed):
    scan = workloads.ClosedFormScan()
    items = scan.inputs(seed)
    prepared = [scan.prepare(item) for item in items]
    for kind, expr, _ in prepared:
        assert nuplus.route(expr).kind == "closed-form"
    tracer = Tracer()
    tracer.install()
    try:
        for index, (item, args) in enumerate(zip(items, prepared)):
            _, _, failure = worker.run_op(scan, tracer, index, item, args)
            assert failure is None, failure
    finally:
        tracer.uninstall()
    assert tracer.calls["nuplus.vi_from_nuplus"] > 0
    touched = {name for name, calls in tracer.calls.items() if name.startswith("cfk.") and calls}
    assert touched == set()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cli_session_stays_within_budgets(seed):
    session = workloads.CliSession()
    items = session.inputs(seed)
    limits = {
        "complex": session.MULTIPLE_GENERATORS,
        "reduced": session.REDUCED_GENUS,
        "closed-form": session.MULTIPLE_GENUS,
    }
    refusals = 0
    for argv, code in items:
        args = [a for a in argv if a != "--json"]
        if code == 3:
            refusals += 1
            cap = int(args[args.index("--genus-cap") + 1])
            assert nuplus.route(parse(args[1]), cap).kind == "unsupported"
            continue
        if args[0] == "d-invariant":
            assert 1 <= abs(int(args[2])) <= 14
        for flag in ("--stable", "--max-n"):
            if flag in args:
                horizon = int(args[args.index(flag) + 1])
                for n in range(1, horizon + 1):
                    kind, size = workloads.multiple_cost(args[1], n)
                    assert size <= limits[kind], (argv, n, kind, size)
                    assert nuplus.route(multiply(parse(args[1]), n)).kind != "unsupported"
    assert refusals >= 1


def test_multiple_cost_matches_the_router():
    for text in ("T(2,3) + T(3,4) - T(2,5)", "T(2,5) - T(3,5)", "T(2,3) - T(5,6)"):
        for n in (1, 2):
            kind, size = workloads.multiple_cost(text, n)
            expr = multiply(parse(text), n)
            routed = nuplus.route(expr, genus_cap=10_000)
            if kind == "complex":
                assert routed.kind == "complex"
                assert len(nuplus.tensor_complex(expr)) == size
            else:
                assert routed.kind == "closed-form"


def test_copied_binding_is_attributed_to_its_home_module():
    left = cfk.staircase((1, 0, -1))
    right = cfk.dual(cfk.staircase((2, 1, 0, -1, -2)))
    original = cfk.tensor
    tracer = Tracer()
    tracer.install()
    try:
        assert nuplus.tensor is cfk.tensor is not original
        tracer.active = True
        nuplus.tensor(left, right)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert nuplus.tensor is original and cfk.tensor is original
    assert tracer.calls["cfk.tensor"] == 1
    assert tracer.counters["cfk.tensor"]["generators_out"] == 15


def test_self_times_add_up_to_no_more_than_wall_time():
    expr = parse("T(2,3) + T(3,4) - T(2,5)")
    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        start = time.perf_counter()
        assert nuplus.vi_expr(expr) == nuplus.vi_tensor_oracle(expr)
        wall = time.perf_counter() - start
        tracer.active = False
    finally:
        tracer.uninstall()
    total = sum(tracer.self_s.values())
    assert 0 < total <= wall
    assert tracer.calls["kernels.graded_snf"] == tracer.calls["cfk.homology"] > 0
    assert tracer.levels_evaluated == tracer.counters["cfk.vi_sequence"]["levels"]
    # Every span closes within its parent.
    for name, start_s, end_s, parent, _ in tracer.spans:
        assert start_s <= end_s
        if parent >= 0:
            _, p_start, p_end, _, _ = tracer.spans[parent]
            assert p_start <= start_s <= end_s <= p_end


def _measure(workload, texts_or_items):
    items = list(texts_or_items)
    prepared = [workload.prepare(item) for item in items]
    args = SimpleNamespace(seconds=0, trace=0, spans=None)
    return worker.measure(workload, items, prepared, args)


def test_wrong_profile_counts_as_failure(monkeypatch):
    family = workloads.FamilySweep()
    texts = ["T(2,3) - T(2,5)", "T(2,3) + T(3,4) - T(2,5)", "T(3,4)"]
    assert _measure(family, texts)["failed"] == 0

    real = nuplus.vi_expr

    def wrong(expr, *args, **kwargs):
        values = real(expr, *args, **kwargs)
        return (values[0] + 1,) + values

    monkeypatch.setattr(nuplus, "vi_expr", wrong)
    result = _measure(workloads.FamilySweep(), texts)
    assert result["attempted"] == 3 and result["failed"] == 3

    scan = workloads.ClosedFormScan()
    items = [("pair", "T(3,101) - T(7,13)", (3, 101), (7, 13), None)]
    assert _measure(scan, items)["failed"] == 1


def test_wrong_cli_output_counts_as_failure(monkeypatch):
    items = [(["--json", "invariants", "T(2,3) - T(5,6)"], 0),
             (["--json", "thin", "--tau", "3", "--sigma", "-4"], 0),
             (["--json", "invariants", "T(2,3) + T(3,4) - T(2,5)", "--genus-cap", "3"], 3)]
    assert _measure(workloads.CliSession(), items)["failed"] == 0

    real = nuplus.vi_expr
    monkeypatch.setattr(gamma4.cli, "vi_expr", lambda expr, *a: real(expr, *a)[:-1] + (1, 0))
    result = _measure(workloads.CliSession(), items)
    assert result["failed"] == 1

    wrong_code = [(["--json", "invariants", "T(2,3) - T(5,6)", "--genus-cap", "3"], 3)]
    assert _measure(workloads.CliSession(), wrong_code)["failed"] == 1


def test_op_times_are_divided_by_the_slowdown_around_them(monkeypatch):
    monkeypatch.setattr(worker, "run_op", lambda *args: (0.010, None, None))
    monkeypatch.setattr(worker, "slowdown", lambda: 2.0)
    result = _measure(workloads.FamilySweep(), ["T(2,3)", "T(2,5)"])
    assert result["op_p50_ms"] == pytest.approx(5.0)
    assert result["ops_per_s"] == pytest.approx(200.0)


def test_tail_has_ten_samples_above_it():
    per_op = [[float(i)] for i in range(40)]
    summary = worker.summarize_latencies(per_op)
    above = sum(1 for (value,) in per_op if value * 1e3 > summary["op_tail_ms"])
    assert above == 10
    assert summary["op_p50_ms"] == pytest.approx(19.5e3)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable if c == "python3" else c for c in spec["command"]]
        + ["--workload", "cli-session", "--seed", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert done.stdout == ""
