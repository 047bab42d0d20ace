"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

import gamma4.cli
import gamma4.nuplus
import gamma4.surgery
from gamma4.bounds import omega_upper
from gamma4.cli import main
from gamma4.expressions import multiply, parse
from gamma4.nuplus import route, t_invariant, vi_expr
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
    assert all(key.endswith("|vi") for key in contents)
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


def test_cache_rejects_malformed_file(tmp_path, capsys):
    store = tmp_path / "cache.json"
    store.write_text("not json{")
    code, _, err = run_cli(
        capsys, "invariants", "T(2,3)", "--cache", str(store)
    )
    assert code == 2
    assert "cache" in err


@pytest.mark.parametrize(
    "contents",
    [
        '{"T(2,3)|vi": 5}',  # an entry that is not a list
        '{"T(2,3)|vi": [7, 0]}',  # a list that drops by more than one
        "[1, 2]",  # a top level that is not an object
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


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 2
