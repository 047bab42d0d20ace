"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import argparse
import ast
import functools
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gamma4
import gamma4.bounds
import gamma4.cli
import gamma4.nuplus
import gamma4.surgery
from gamma4.bounds import omega_upper
from gamma4.cli import main
from gamma4.expressions import multiply, parse
from gamma4.nuplus import route, t_invariant, vi_expr
from gamma4.semigroups import FormalSemigroup, MalformedSequenceError
from gamma4.surgery import d_invariant, d_invariant_negative


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def omega_rows(stdout: str) -> dict[int, tuple[str, str]]:
    """Map n -> (t, ratio) parsed from the omega table."""
    rows = {}
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) == 4 and fields[0].isdigit():
            rows[int(fields[0])] = (fields[1], fields[2])
    return rows


def test_invariants_torus(capsys):
    code, out, _ = run_cli(capsys, "invariants", "T(3,-5)")
    assert code == 0
    assert "signature: 8" in out
    assert "t: 3" in out
    assert "torsion profile (mirror): (2, 1, 1, 1, 0)" in out


def test_invariants_headline_and_mirror(capsys):
    code, out, _ = run_cli(capsys, "invariants", "T(2,3)-T(5,6)")
    assert code == 0
    assert "t: 6" in out
    code, out, _ = run_cli(capsys, "invariants", "T(5,6)-T(2,3)")
    assert code == 0
    assert "t: 0" in out


def test_invariants_rejects_link(capsys):
    code, _, err = run_cli(capsys, "invariants", "T(4,6)")
    assert code == 2
    assert "link" in err


def test_unsupported_expression_exit_code(capsys):
    code, _, err = run_cli(capsys, "invariants", "8*T(2,5) - T(2,3)")
    assert code == 3
    assert "unsupported" in err


def test_genus_cap_flag_limits_expansion(capsys):
    code, _, err = run_cli(
        capsys, "invariants", "T(2,3) + T(2,5)", "--genus-cap", "2"
    )
    assert code == 3
    assert "cap" in err
    code, _, _ = run_cli(capsys, "invariants", "T(2,3) + T(2,5)")
    assert code == 0


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (("--genus-cap", "-1", "invariants", "T(2,3) + T(2,5)"), 2,
         "error: --genus-cap must be at least 0\n"),
        (("--genus-cap", "-5", "invariants", "T(2,3)"), 2,
         "error: --genus-cap must be at least 0\n"),
        (("omega", "T(2,3)", "--max-n", "3", "--genus-cap", "-1", "--json"), 2,
         "error: --genus-cap must be at least 0\n"),
        (("--genus-cap", "0", "invariants", "T(2,3) + T(2,5)"), 3,
         "unsupported: reduced genus 3 exceeds the cap 0\n"),
        (("--genus-cap", "0", "invariants", "T(2,3)"), 0, ""),
        # the cap reaches the profiles of every multiple and of the mirror
        (("bound", "T(2,3) + T(2,5)", "--stable", "2", "--genus-cap", "4"), 3,
         "unsupported: reduced genus 6 exceeds the cap 4\n"),
        (("bound", "T(2,3) + T(2,5)", "--stable", "1", "--genus-cap", "4"), 0, ""),
        (("omega", "T(2,3) + T(2,5)", "--max-n", "2", "--genus-cap", "4"), 3,
         "unsupported: reduced genus 6 exceeds the cap 4\n"),
        (("d-invariant", "T(2,3) + T(2,5)", "-3", "--genus-cap", "2"), 3,
         "unsupported: reduced genus 3 exceeds the cap 2\n"),
    ],
)
def test_genus_cap_must_not_be_negative(capsys, argv, code, err):
    got_code, out, got_err = run_cli(capsys, *argv)
    assert (got_code, got_err) == (code, err)
    assert bool(out) == (code == 0)


@pytest.mark.parametrize(
    "argv",
    [("invariants",), ("bound",), ("d-invariant", "5"), ("omega", "--max-n", "3")],
)
@pytest.mark.parametrize(
    "text, flags, reason",
    [
        ("1000000000*T(2,5)", (), "reduced genus 2000000000 exceeds the cap 60"),
        (
            "1000000000*T(2,5) - T(2,3)",
            (),
            "several staircases share a side; "
            "total genus 2000000001 exceeds the cap 60",
        ),
        (
            "2*T(3,5) - T(2,7)",
            ("--genus-cap", "5"),
            "several staircases share a side; total genus 11 exceeds the cap 5",
        ),
    ],
)
def test_huge_coefficients_are_refused_at_once(capsys, argv, text, flags, reason):
    code, out, err = run_cli(capsys, argv[0], text, *argv[1:], *flags)
    assert (code, out, err) == (3, "", f"unsupported: {reason}\n")


def test_bound_headline_with_stable(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "T(2,3)-T(5,6)", "--stable", "50"
    )
    assert code == 0
    assert "main bound: 1" in out
    assert "upsilon bound: 2" in out
    assert "stable bound: 41/23 (witness n = 46)" in out
    assert "final lower bound: 2" in out


def test_bound_unknot_floor(capsys):
    code, out, _ = run_cli(capsys, "bound", "")
    assert code == 0
    assert "final lower bound: 1" in out


def test_d_invariant_unknot(capsys):
    code, out, _ = run_cli(capsys, "d-invariant", "", "3")
    assert code == 0
    assert "k = 0: 1/2" in out
    assert "k = 1: -1/6" in out
    assert "k = 2: -1/6" in out


def test_d_invariant_trefoil(capsys):
    code, out, _ = run_cli(capsys, "d-invariant", "T(2,3)", "1")
    assert code == 0
    assert "k = 0: -2" in out


def test_d_invariant_zero_framing(capsys):
    code, _, err = run_cli(capsys, "d-invariant", "T(2,3)", "0")
    assert code == 2
    assert "nonzero" in err


@pytest.mark.parametrize("n", [12, -12])
def test_d_invariant_computes_one_profile(capsys, monkeypatch, n):
    """All |N| correction terms come from one profile, and match the library."""
    text = "T(2,3) + T(3,4) - T(2,5)"
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return vi_expr(*args, **kwargs)

    monkeypatch.setattr(gamma4.cli, "vi_expr", counted)
    monkeypatch.setattr(gamma4.surgery, "vi_expr", counted)
    code, out, _ = run_cli(capsys, "--json", "d-invariant", text, str(n))
    monkeypatch.undo()
    assert code == 0
    assert len(calls) == 1
    compute = d_invariant if n > 0 else d_invariant_negative
    expected = [compute(parse(text), n, k) for k in range(abs(n))]
    got = [Fraction(d["num"], d["den"]) for d in json.loads(out)["results"]["d"]]
    assert got == expected


def test_bound_stable_computes_each_profile_once(capsys, monkeypatch):
    """The table and the n = 1 row of the stable bound share one profile."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return vi_expr(*args, **kwargs)

    monkeypatch.setattr(gamma4.cli, "vi_expr", counted)
    monkeypatch.setattr(gamma4.bounds, "vi_expr", counted)
    code, _, _ = run_cli(capsys, "--json", "bound", "T(2,3) - T(5,6)", "--stable", "50")
    monkeypatch.undo()
    assert code == 0
    assert len(calls) == 50
    assert len(set(calls)) == 50


def test_bound_stable_uses_the_cache(tmp_path, capsys):
    store = tmp_path / "cache.json"
    args = ("--json", "bound", "T(2,3) - T(5,6)", "--stable", "5")
    code, cold, _ = run_cli(capsys, *args, "--cache", str(store))
    assert code == 0
    stored = json.loads(store.read_text())
    assert len(stored) == 5
    key = f"-T(2,3) + T(5,6)|vi|{gamma4.__version__}"
    assert stored[key] == list(vi_expr(parse("T(5,6) - T(2,3)")))
    code, warm, _ = run_cli(capsys, *args, "--cache", str(store))
    assert code == 0
    code, plain, _ = run_cli(capsys, *args)
    assert cold == warm == plain


def test_omega_headline_rows(capsys):
    code, out, _ = run_cli(
        capsys, "omega", "T(2,3) - T(5,6)", "--max-n", "25"
    )
    assert code == 0
    rows = omega_rows(out)
    assert rows[5] == ("27", "27/5")
    assert rows[10] == ("53", "53/10")
    assert rows[25] == ("131", "131/25")


def test_omega_rows_match_library(capsys):
    """Each row's t and the running minimum agree with the library."""
    expr = parse("T(2,3) - T(5,6)")
    code, out, _ = run_cli(
        capsys, "--json", "omega", "T(2,3) - T(5,6)", "--max-n", "25"
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert [row["t"] for row in results["rows"]] == [
        t_invariant(multiply(expr, n)) for n in range(1, 26)
    ]
    estimate = omega_upper(expr, 25)
    bound = results["upper_bound"]
    assert Fraction(bound["num"], bound["den"]) == estimate.value
    assert results["witness"] == estimate.witness


def test_omega_torus_constant_ratio(capsys):
    code, out, _ = run_cli(capsys, "omega", "T(3,-5)", "--max-n", "8")
    assert code == 0
    rows = omega_rows(out)
    assert rows == {m: (str(3 * m), "3") for m in range(1, 9)}
    assert "ratio strictly decreasing: no" in out


def test_omega_unknot(capsys):
    code, out, _ = run_cli(capsys, "omega", "", "--max-n", "5")
    assert code == 0
    rows = omega_rows(out)
    assert rows == {n: ("0", "0") for n in range(1, 6)}
    assert "stable upper bound: 0" in out


def test_omega_bad_horizon(capsys):
    code, _, err = run_cli(capsys, "omega", "T(2,3)", "--max-n", "0")
    assert code == 2
    assert "max-n" in err


def test_json_schema_and_byte_stability(capsys):
    code, first, _ = run_cli(capsys, "d-invariant", "", "3", "--json")
    assert code == 0
    code, second, _ = run_cli(capsys, "d-invariant", "", "3", "--json")
    assert first == second
    payload = json.loads(first)
    assert sorted(payload) == ["input", "results", "version"]
    assert payload["input"]["command"] == "d-invariant"
    assert payload["results"]["d"] == [
        {"num": 1, "den": 2},
        {"num": -1, "den": 6},
        {"num": -1, "den": 6},
    ]
    assert all(entry["den"] > 0 for entry in payload["results"]["d"])


def test_json_global_flag_before_subcommand(capsys):
    code, out, _ = run_cli(capsys, "--json", "invariants", "T(2,3)")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["t"] == 0
    assert payload["results"]["vi"] == [1, 0]


def test_decimal_marked_inexact(capsys):
    code, out, _ = run_cli(capsys, "d-invariant", "", "3", "--decimal")
    assert code == 0
    assert "k = 1: -1/6 ~ -0.166667 (inexact)" in out
    code, out, _ = run_cli(
        capsys, "d-invariant", "", "3", "--json", "--decimal"
    )
    entry = json.loads(out)["results"]["d"][1]
    assert entry["decimal"] == "-0.166667"
    assert entry["inexact"] is True


def test_cache_hits_are_bit_identical(tmp_path, capsys):
    store = tmp_path / "cache.json"
    args = ("omega", "T(2,3) - T(5,6)", "--max-n", "8")
    code, plain, _ = run_cli(capsys, *args)
    assert code == 0
    code, cold, _ = run_cli(capsys, *args, "--cache", str(store))
    assert code == 0
    code, warm, _ = run_cli(capsys, *args, "--cache", str(store))
    assert code == 0
    assert cold == plain
    assert warm == plain
    contents = json.loads(store.read_text())
    assert all(key.endswith(f"|vi|{gamma4.__version__}") for key in contents)
    code, out, _ = run_cli(
        capsys, "invariants", "T(2,3) - T(5,6)", "--cache", str(store)
    )
    assert code == 0
    assert "t: 6" in out


@pytest.mark.parametrize(
    "argv, routes",
    [
        (("invariants", "T(2,3) + T(2,5) + T(3,4) + T(2,7)"), 2),
        (("omega", "T(2,3) - T(5,6)", "--max-n", "8"), 8),
    ],
)
def test_cold_profiles_are_routed_once(capsys, monkeypatch, argv, routes):
    """A cache miss routes its expression once, inside ``vi_expr``."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return route(*args, **kwargs)

    monkeypatch.setattr(gamma4.cli, "route", counted)
    monkeypatch.setattr(gamma4.nuplus, "route", counted)
    code, _, _ = run_cli(capsys, "--json", *argv)
    monkeypatch.undo()
    assert code == 0
    assert len(calls) == routes


def test_cache_hits_are_routed_again(tmp_path, capsys):
    """A stored profile never masks a refusal under a tighter genus cap."""
    store = tmp_path / "cache.json"
    args = ("invariants", "T(2,3) + T(2,5)", "--cache", str(store))
    code, _, _ = run_cli(capsys, *args)
    assert code == 0
    code, _, err = run_cli(capsys, *args, "--genus-cap", "2")
    assert code == 3
    assert "cap" in err


def test_cache_hits_build_no_semigroup(tmp_path, capsys, monkeypatch):
    """A cache hit only routes, and a closed-form route builds nothing: the
    second run reads both profiles from the file with the store empty."""
    store = tmp_path / "cache.json"
    args = ("--json", "invariants", "T(2,3) + T(2,5) + T(3,4)", "--cache", str(store))
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    built = []
    build = FormalSemigroup.from_generators

    def counted(a, b):
        built.append((a, b))
        return build(a, b)

    gamma4.nuplus._SEMIGROUPS.clear()
    monkeypatch.setattr(FormalSemigroup, "from_generators", staticmethod(counted))
    code, second, _ = run_cli(capsys, *args)
    assert code == 0 and second == first
    assert built == []


@pytest.mark.parametrize(
    "argv, reads",
    [
        (("cfk-dump", "T(2,3) + T(3,4) - T(2,5)"), 1),
        (("cfk-dump", "2*T(2,3) + T(2,5) - T(3,4)"), 1),
        (("invariants", "T(5,6) - T(2,3)"), 2),
    ],
)
def test_a_request_builds_its_class_lists_once(capsys, argv, reads):
    """Routing, budgeting and building one expression share one build of its
    class lists; ``invariants`` reads the expression and its mirror."""
    gamma4.nuplus._classes.cache_clear()
    code, _, _ = run_cli(capsys, "--json", *argv)
    assert code == 0
    assert gamma4.nuplus._classes.cache_info().misses == reads


def test_a_cache_hit_builds_its_class_lists_once(tmp_path, capsys, monkeypatch):
    """A hit on both profiles routes each of its two expressions once."""
    store = tmp_path / "cache.json"
    args = ("--json", "invariants", "T(2,3) + T(3,4) - T(2,5)", "--cache", str(store))
    code, first, _ = run_cli(capsys, *args)
    assert code == 0

    def refused(*args, **kwargs):
        raise AssertionError("a cached profile was computed again")

    monkeypatch.setattr(gamma4.cli, "vi_expr", refused)
    gamma4.nuplus._classes.cache_clear()
    code, second, _ = run_cli(capsys, *args)
    assert code == 0 and second == first
    assert gamma4.nuplus._classes.cache_info().misses == 2


def test_cache_entries_of_another_version_are_never_hits(tmp_path, capsys):
    """A profile stored under another version's key, even a wrong one that
    passes the profile check, is ignored, kept, and joined by this
    version's own entry."""
    store = tmp_path / "cache.json"
    foreign = {"T(2,3)|vi": [2, 1, 0], "T(2,3)|vi|0.0.0": [2, 1, 0]}
    store.write_text(json.dumps(foreign))
    args = ("--json", "invariants", "T(2,3)")
    code, cached, _ = run_cli(capsys, *args, "--cache", str(store))
    assert code == 0
    code, plain, _ = run_cli(capsys, *args)
    assert cached == plain
    assert json.loads(plain)["results"]["vi"] == [1, 0]
    stored = json.loads(store.read_text())
    assert stored == foreign | {
        f"T(2,3)|vi|{gamma4.__version__}": [1, 0],
        f"-T(2,3)|vi|{gamma4.__version__}": [0],
    }


# a malformed cache is reported before a malformed expression (the link)
@pytest.mark.parametrize("text", ["T(2,3)", "T(2,4)"])
def test_cache_rejects_malformed_file(tmp_path, capsys, text):
    store = tmp_path / "cache.json"
    store.write_text("not json{")
    code, out, err = run_cli(capsys, "invariants", text, "--cache", str(store))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read cache file: ")


def test_empty_cache_path_is_refused_before_any_work(tmp_path, capsys, monkeypatch):
    (tmp_path / "work").mkdir()
    monkeypatch.chdir(tmp_path / "work")
    code, out, err = run_cli(capsys, "invariants", "T(2,3)", "--cache", "")
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read cache file: ")
    assert [p.name for p in tmp_path.iterdir()] == ["work"]
    assert not any((tmp_path / "work").iterdir())


def test_cache_in_a_missing_directory_is_refused_before_any_work(
    tmp_path, capsys, monkeypatch
):
    """The cache path's directory is checked where the file is read, so no
    profile is computed, and the error names the path, not a temp file."""
    monkeypatch.chdir(tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("a profile was computed")

    for module in (gamma4.cli, gamma4.bounds, gamma4.surgery, gamma4.nuplus):
        monkeypatch.setattr(module, "vi_expr", refuse)
    code, out, err = run_cli(
        capsys, "invariants", "T(2,3) + T(3,4) - T(2,5)", "--cache", "nodir/x.json"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read cache file: ")
    assert "nodir/x.json" in err and ".tmp" not in err
    assert not any(tmp_path.iterdir())


def test_modules_import_no_private_library_name():
    """Each module of the package reaches the others only through their
    public names; importing a module, such as ``_kernels``, is allowed, but
    reading a private attribute of it, such as ``_kernels._helper``, is not.

    Dunder names such as ``__version__`` are public by convention.
    """

    def is_private(name):
        return name.startswith("_") and not name.endswith("__")

    private = []
    for path in sorted(Path(gamma4.cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").startswith("gamma4"))
        ]
        # ``from . import _kernels`` binds a module; other imports bind names.
        modules = {
            alias.asname or alias.name
            for node in imports
            if not node.module
            for alias in node.names
        }
        private += [
            (path.name, node.module, alias.name)
            for node in imports
            if node.module
            for alias in node.names
            if is_private(alias.name)
        ]
        private += [
            (path.name, node.value.id, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and is_private(node.attr)
        ]
    assert private == []


def test_the_power_collapse_has_one_home():
    """Adjacent-parameter powers collapse in one function: it is the only
    function of the package that calls ``representative``, and no other
    ``nuplus`` function compares ``q == p + 1``."""
    adjacent = re.compile(r"(\w+\.)?q == (\w+\.)?p \+ 1|(\w+\.)?p \+ 1 == (\w+\.)?q")

    def scopes(tree):
        """The module and each function in it, with the nodes each holds
        outside its nested functions."""
        todo = [("<module>", tree)]
        while todo:
            name, scope = todo.pop()
            nodes, stack = [], list(ast.iter_child_nodes(scope))
            while stack:
                node = stack.pop()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    todo.append((node.name, node))
                else:
                    nodes.append(node)
                    stack.extend(ast.iter_child_nodes(node))
            yield name, nodes

    callers, comparers = set(), set()
    for path in sorted(Path(gamma4.cli.__file__).parent.glob("*.py")):
        for name, nodes in scopes(ast.parse(path.read_text(encoding="utf-8"))):
            for node in nodes:
                if isinstance(node, ast.Call) and (
                    ast.unparse(node.func).split(".")[-1] == "representative"
                ):
                    callers.add((path.stem, name))
                if isinstance(node, ast.Compare) and adjacent.fullmatch(
                    ast.unparse(node)
                ):
                    comparers.add((path.stem, name))
    assert len(callers) == 1, callers
    assert {c for c in comparers if c[0] == "nuplus"} <= callers


def test_only_the_front_ends_import_verify():
    """Computations never depend on checks: of the package's modules, only
    ``cli`` and ``__init__`` import ``verify``."""

    def imports_verify(node):
        if isinstance(node, ast.Import):
            return any(alias.name == "gamma4.verify" for alias in node.names)
        if not isinstance(node, ast.ImportFrom):
            return False
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "gamma4":
            return False
        return module.split(".")[-1] == "verify" or any(
            alias.name == "verify" for alias in node.names
        )

    importers = {
        path.stem
        for path in Path(gamma4.cli.__file__).parent.glob("*.py")
        if any(map(imports_verify, ast.walk(ast.parse(path.read_text(encoding="utf-8")))))
    }
    assert importers == {"cli", "__init__"}


def test_no_json_call_of_the_package_indents():
    """``json.dumps`` (or ``json.dump``) with ``indent`` runs the standard
    library's pure-Python encoder; ``--json`` output goes through
    ``cli._json_text`` instead.  No call in the package passes ``indent``,
    nor ``**`` keywords that could carry it."""
    indented = [
        (path.name, node.lineno)
        for path in sorted(Path(gamma4.cli.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).split(".")[-1] in ("dump", "dumps")
        and any(keyword.arg in ("indent", None) for keyword in node.keywords)
    ]
    assert indented == []


@pytest.mark.parametrize(
    "contents",
    [
        '{"T(2,3)|vi": 5}',  # an entry that is not a list
        '{"T(2,3)|vi": [7, 0]}',  # a list that drops by more than one
        "[1, 2]",  # a top level that is not an object
        '{"T(2,3)|vi": []}',  # an empty list
        '{"T(2,3)|vi": [true, 0]}',  # a bool is not an int
        '{"T(2,3)|vi": [1, 2, 0]}',  # a list that rises
        '{"T(2,3)|vi": [1, 0, 0]}',  # a zero before the last entry
        '{"T(2,3)|vi": [-1, 0]}',  # a negative entry
        '{"T(2,3)|vi": [2, 1]}',  # no final zero
    ],
)
def test_cache_rejects_malformed_entries(tmp_path, capsys, contents):
    store = tmp_path / "cache.json"
    store.write_text(contents)
    code, out, err = run_cli(
        capsys, "invariants", "T(2,3)", "--cache", str(store)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read cache file: ")
    assert store.read_text() == contents


def test_thin_cli(capsys):
    code, out, _ = run_cli(capsys, "thin", "--tau", "2", "--sigma", "-4")
    assert code == 0
    assert "t: 2" in out
    assert "side: mirrored" in out
    code, _, err = run_cli(capsys, "thin", "--tau", "-1", "--sigma", "0")
    assert code == 2
    assert "tau" in err


def test_verify_subset_cli(capsys):
    code, out, _ = run_cli(capsys, "verify", "--subset", "example-headline")
    assert code == 0
    assert "4/4 checks passed" in out


def test_verify_rejects_unknown_subset(capsys):
    code, _, _ = run_cli(capsys, "verify", "--subset", "nonsense")
    assert code == 2


def test_cfk_dump_trefoil(capsys):
    code, out, _ = run_cli(capsys, "cfk-dump", "T(2,3)")
    assert code == 0
    assert out.splitlines() == [
        "y1 0 1",
        "y2 -1 0",
        "y3 -2 -1",
        "y2 -> U^0 y3",
        "y2 -> U^1 y1",
    ]


@pytest.mark.parametrize(
    "text, generators",
    [("7*T(2,5)", 78125), ("8*T(2,5)", 390625)],
)
def test_cfk_dump_obeys_generator_limit(capsys, text, generators):
    # one-sided sums route to the closed form, but the dump builds the complex
    code, out, err = run_cli(capsys, "cfk-dump", text)
    assert (code, out) == (3, "")
    assert err == (
        f"unsupported: the tensor complex would need {generators} "
        "generators (limit 40000)\n"
    )


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 2


def _is_profile_reference(value) -> bool:
    """The cache's profile test as five separate passes, kept as reference."""
    return bool(
        isinstance(value, list)
        and value
        and all(type(v) is int for v in value)
        and value[-1] == 0
        and all(v > 0 for v in value[:-1])
        and all(cur - nxt in (0, 1) for cur, nxt in zip(value, value[1:]))
    )


_profile_lists = st.one_of(
    st.lists(st.integers(-2, 4), max_size=6),
    st.lists(st.one_of(st.integers(-1, 3), st.booleans(), st.just(1.0)), max_size=4),
    # descending staircases, so that accepted profiles are drawn often
    st.lists(st.integers(0, 1), max_size=6).map(
        lambda steps: [sum(steps[i:]) for i in range(len(steps))] + [0]
    ),
)
_profile_like = st.one_of(_profile_lists, st.integers(), st.none())


@settings(max_examples=300, deadline=None)
@given(_profile_like)
def test_cache_entry_check_matches_reference(value):
    data = {"K|vi": value}
    if _is_profile_reference(value):
        assert gamma4.cli._checked_cache_data(data) is data
    else:
        with pytest.raises(ValueError) as excinfo:
            gamma4.cli._checked_cache_data(data)
        assert str(excinfo.value) == "entry 'K|vi' is not a torsion profile"


@settings(max_examples=300, deadline=None)
@given(_profile_lists, st.integers(0, 3))
def test_from_vi_takes_the_cache_profile_rule(value, zeros):
    """``from_vi`` accepts a list exactly when it is a profile the cache
    accepts followed by integer zeros, and rebuilds that profile."""
    padded = value + [0] * zeros
    profiles = [
        padded[:end]
        for end in range(len(padded) + 1)
        if all(type(v) is int and v == 0 for v in padded[end:])
        and _is_profile_reference(padded[:end])
    ]
    if profiles:
        assert FormalSemigroup.from_vi(padded).vi == tuple(profiles[0])
    else:
        with pytest.raises(MalformedSequenceError):
            FormalSemigroup.from_vi(padded)


_json_text_chars = st.one_of(
    st.characters(),
    st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'),
)
_json_scalars = st.one_of(
    st.text(_json_text_chars, max_size=6),
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200).flatmap(
        lambda n: st.sampled_from([n, -n])
    ),
    st.floats(),
    st.fractions(),
)
_json_trees = st.recursive(
    _json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(st.integers(), max_size=4),
        st.dictionaries(st.text(_json_text_chars, max_size=4), children, max_size=4),
    ),
    max_leaves=24,
)


def _json_dumps(value, decimal: bool) -> str:
    """The reference for ``cli._json_text``: the standard library's encoder."""
    hook = functools.partial(gamma4.cli._fraction_json, decimal=decimal)
    return json.dumps(value, sort_keys=True, indent=2, default=hook)


@settings(max_examples=250, deadline=None)
@given(_json_trees)
def test_json_text_matches_json_dumps(value):
    for decimal in (False, True):
        assert gamma4.cli._json_text(value, decimal) == _json_dumps(value, decimal)


@pytest.mark.parametrize("decimal", [False, True])
@pytest.mark.parametrize("bad", [np.int64(3), {1, 2}], ids=["int64", "set"])
def test_json_text_refuses_what_json_dumps_refuses(bad, decimal):
    payload = {"results": [1, {"value": bad}]}
    with pytest.raises(TypeError) as reference:
        _json_dumps(payload, decimal)
    with pytest.raises(TypeError) as written:
        gamma4.cli._json_text(payload, decimal)
    assert str(written.value) == str(reference.value)


def test_cache_file_is_canonical_json(tmp_path, capsys):
    store = tmp_path / "cache.json"
    code, _, _ = run_cli(
        capsys, "omega", "T(2,3) - T(5,6)", "--max-n", "6", "--cache", str(store)
    )
    assert code == 0
    written = store.read_text(encoding="utf-8")
    assert len(json.loads(written)) == 6
    assert written == json.dumps(json.loads(written), sort_keys=True)
    assert not [path.name for path in tmp_path.iterdir() if path != store]


def fresh_parser() -> argparse.ArgumentParser:
    """A newly built argument parser, not the one ``main`` reuses."""
    return gamma4.cli.build_parser.__wrapped__()


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    fresh_parser()
    one_build = len(built)
    built.clear()
    for argv in (
        ("--json", "invariants", "T(2,3)"),
        ("thin", "--tau", "2", "--sigma", "-4"),
        ("d-invariant", "", "3"),
    ):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
    monkeypatch.undo()
    assert one_build > 0
    assert len(built) <= one_build


def test_flags_do_not_leak_between_calls(tmp_path, capsys):
    expr = "T(2,3) - T(5,6)"
    code, out, _ = run_cli(capsys, "--json", "bound", expr, "--stable", "3")
    assert code == 0
    assert json.loads(out)["input"]["stable_horizon"] == 3
    code, out, _ = run_cli(capsys, "bound", expr)
    assert code == 0
    assert out.startswith("expression: ")
    assert "stable bound:" not in out

    code, out, _ = run_cli(capsys, "--decimal", "d-invariant", expr, "5")
    assert code == 0
    assert "~" in out
    code, out, _ = run_cli(capsys, "d-invariant", expr, "5")
    assert code == 0
    assert "~" not in out

    store = tmp_path / "cache.json"
    code, _, _ = run_cli(capsys, "--cache", str(store), "invariants", expr)
    assert code == 0
    before = store.read_bytes()
    code, _, _ = run_cli(capsys, "invariants", "T(3,4) - T(2,5)")
    assert code == 0
    assert store.read_bytes() == before

    refused = "T(2,3) + T(2,5)"
    code, out, err = run_cli(capsys, "--genus-cap", "2", "invariants", refused)
    assert (code, out) == (3, "")
    assert "cap 2" in err
    code, _, err = run_cli(capsys, "invariants", refused)
    assert (code, err) == (0, "")


def _exit_of(capsys, call, argv):
    """Exit code, stdout and stderr of ``call(argv)``, which may exit."""
    try:
        code = call(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SUBCOMMANDS = (
    "invariants", "bound", "d-invariant", "omega", "thin", "verify", "cfk-dump",
)


@pytest.mark.parametrize(
    "argv",
    [("--help",)]
    + [(command, "--help") for command in SUBCOMMANDS]
    + [
        (),  # no subcommand
        ("bogus",),
        ("bound",),  # no expression
        ("d-invariant", "T(2,3)", "notanint"),
    ],
    ids=lambda argv: " ".join(argv) or "bare",
)
def test_help_and_usage_errors_match_a_fresh_parser(capsys, argv):
    expected = _exit_of(capsys, fresh_parser().parse_args, argv)
    assert expected[0] in (0, 2)
    assert expected[1] or expected[2]
    # twice, so an exit inside parse_args leaves the reused parser intact
    for _ in range(2):
        assert _exit_of(capsys, main, argv) == expected


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(
    "argv, code",
    [
        (("--json", "invariants", "T(2,3) - T(5,6)"), 0),
        (("bogus",), 2),
        (("invariants", "T(2,3) + T(2,5)", "--genus-cap", "2"), 3),
    ],
)
def test_module_entry_point_in_a_subprocess(argv, code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-m", "gamma4.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == code, done.stderr
    if code == 0:
        assert json.loads(done.stdout)["results"]["t"] == 6
    else:
        assert done.stdout == ""
        assert done.stderr
