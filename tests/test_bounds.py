"""Tests for the slice-genus lower bounds, obstruction grids, and omega."""

from fractions import Fraction

import pytest

import gamma4.bounds
from gamma4.bounds import (
    ObstructionOutcome,
    OddEulerNumberError,
    OmegaEstimate,
    euler_obstruction,
    genus_obstruction,
    omega_upper,
    report,
    thin_bounds,
    upsilon_bound,
    upsilon_expr,
    upsilon_torus,
)
from gamma4.expressions import InvalidKnotError, mirror, multiply, parse
from gamma4.nuplus import hom_wu_nu_plus, t_invariant, vi_expr
from gamma4.semigroups import NotCoprimeError
from gamma4.torus import signature
from gamma4.verify import SAMPLE_FAMILY

HEADLINE = parse("T(2,3) - T(5,6)")

SAMPLES = [
    parse(s)
    for s in [
        "",
        "T(2,-3)",
        "T(3,-4)",
        "T(3,-5)",
        "T(2,3) - T(5,6)",
        "T(3,4) - T(2,3) - T(2,5)",
        "2*T(2,3) - T(3,4)",
    ]
]


def test_main_bound_values():
    assert report(parse("T(3,-5)")).main == 1
    assert report(HEADLINE).main == 1
    assert report(parse("")).main == 0


def test_main_bound_table_peaks_away_from_zero():
    # for T(3,-5) the m = 0 row gives 0; the maximum 1 appears at m = 1
    rep = report(parse("T(3,-5)"))
    assert rep.table[0] == 0
    assert rep.table[1] == 1
    assert rep.main == 1


def test_batson_bound_values():
    assert report(parse("T(3,-5)")).batson == 0
    assert report(parse("T(3,-4)")).batson == 1
    assert report(parse("")).batson == 0


def test_nu_plus_bound_values():
    assert report(parse("T(3,-5)")).nu_plus_bound == 0
    assert report(parse("T(2,-3)")).nu_plus_bound == 0
    assert report(parse("")).nu_plus_bound == 0


#: ``(p, q)`` with the value or the exception of ``signature`` and of
#: ``upsilon_torus``: non-coprime, non-positive, ``T(1, q)``, a float and
#: two knots.
MEMO_CASES = [
    ((4, 6), InvalidKnotError, NotCoprimeError),
    ((6, 4), InvalidKnotError, NotCoprimeError),
    ((0, 3), InvalidKnotError, ValueError),
    ((3, 0), InvalidKnotError, ValueError),
    ((-2, 3), InvalidKnotError, ValueError),
    ((2, -3), InvalidKnotError, ValueError),
    ((1, 7), 0, 0),
    ((7, 1), 0, 0),
    ((1, 1), 0, 0),
    ((2, 3), -2, -1),
    ((2.0, 3), TypeError, TypeError),  # not the cached value of (2, 3)
    ((3, 2), -2, -1),
]


@pytest.mark.parametrize("memo, column", [(signature, 1), (upsilon_torus, 2)])
def test_torus_memos_are_bounded_and_keep_every_outcome(memo, column):
    """Each call, first or repeated, gives the value or raises the exception
    the unmemoised function did; exceptions are not cached."""
    assert 0 < memo.cache_info().maxsize < 1 << 16
    memo.cache_clear()
    for _ in range(2):
        for case in MEMO_CASES:
            args, want = case[0], case[column]
            if isinstance(want, int):
                assert memo(*args) == want, args
            else:
                with pytest.raises(want) as raised:
                    memo(*args)
                assert type(raised.value) is want, args
    assert memo.cache_info().currsize == sum(isinstance(c[column], int) for c in MEMO_CASES)


def test_upsilon_values():
    assert upsilon_torus(2, 3) == -1
    assert upsilon_torus(5, 6) == -6
    assert upsilon_torus(3, 5) == -3
    assert upsilon_expr(HEADLINE) == 5
    assert upsilon_bound(HEADLINE) == 2
    assert upsilon_bound(parse("T(3,-5)")) == 1
    assert upsilon_bound(parse("")) == 0


def test_upsilon_bound_matches_report_on_sample_family():
    # the formula |sigma/2 - upsilon| is written twice: here and in the report
    for expr in SAMPLE_FAMILY:
        assert upsilon_bound(expr) == report(expr).upsilon_bound, expr


def test_upsilon_equals_negated_t_of_mirror():
    # for a single positive torus knot, upsilon = -t(mirror)
    for p, q in [(2, 3), (2, 7), (3, 4), (3, 5), (5, 6), (4, 7)]:
        expr = parse(f"T({p},{q})")
        assert upsilon_torus(p, q) == -t_invariant(mirror(expr))


def test_table_specializations_on_samples():
    for expr in SAMPLES:
        rep = report(expr)
        assert rep.table[0] == rep.batson
        first_zero = hom_wu_nu_plus(mirror(expr))
        assert rep.table[first_zero] == rep.nu_plus_bound
        assert rep.main == max(rep.table)
        assert rep.main >= rep.batson
        assert rep.main >= rep.nu_plus_bound
        assert rep.main == rep.sigma // 2 - rep.t


def test_report_headline_showcase():
    rep = report(HEADLINE, horizon=50)
    assert rep.sigma == 14
    assert rep.t == 6
    assert rep.main == 1
    assert rep.upsilon_bound == 2
    assert rep.stable == Fraction(41, 23)
    assert rep.stable_witness == 46
    assert rep.final_gamma4_lower == 2  # the stable bound beats main here


def test_report_unknot_floor():
    rep = report(parse(""))
    assert rep.main == 0
    assert rep.final_gamma4_lower == 1


def test_thin_bounds():
    assert thin_bounds(3, -6).main == 0
    assert thin_bounds(0, 0).main == 0
    assert thin_bounds(0, 0).final_gamma4_lower == 1
    qa = thin_bounds(2, -4)
    assert qa.t == 2
    assert qa.side == "mirrored"
    assert qa.main == 0
    assert qa.upsilon_bound == 0  # quasi-alternating: sigma = -2 tau
    with pytest.raises(ValueError):
        thin_bounds(-1, 0)
    with pytest.raises(ValueError):
        thin_bounds(1, 3)


def test_thin_bounds_prefers_stronger_side():
    # positive signature with trivial mirror profile: the as-given side wins
    rep = thin_bounds(2, 6)
    assert rep.side == "as-given"
    assert rep.main == 3


def test_genus_obstruction_values():
    out = genus_obstruction(parse("T(3,-5)"), 0, n_max=9)
    assert out == ObstructionOutcome(feasible=False, witness=(3, -4))
    assert genus_obstruction(parse("T(3,-5)"), 1, n_max=9).feasible
    assert genus_obstruction(parse(""), 0, n_max=9).feasible


def test_genus_obstruction_monotone_in_h():
    for expr in SAMPLES:
        feasible_seen = False
        for h in range(0, 5):
            ok = genus_obstruction(expr, h, n_max=15).feasible
            if feasible_seen:
                assert ok
            feasible_seen = feasible_seen or ok
        assert feasible_seen


def test_smallest_feasible_h_matches_main_bound():
    for expr in SAMPLES:
        target = max(report(expr).main, 0)
        smallest = next(
            h
            for h in range(0, 8)
            if genus_obstruction(expr, h, n_max=25).feasible
        )
        assert smallest == target, expr


def test_euler_obstruction_unknot_grid():
    # all torsion vanishes, so (h, e) is feasible exactly when e <= 2h
    for h in range(0, 3):
        for e in range(-6, 7, 2):
            out = euler_obstruction(parse(""), h, e, n_max=9)
            assert out.feasible == (e <= 2 * h), (h, e)
    assert euler_obstruction(parse(""), 1, 4, n_max=9).witness == (1, -1)


def test_euler_obstruction_errors():
    with pytest.raises(OddEulerNumberError):
        euler_obstruction(parse("T(3,-5)"), 0, 19, n_max=9)
    with pytest.raises(ValueError):
        euler_obstruction(parse(""), -1, 0, n_max=9)
    with pytest.raises(ValueError):
        genus_obstruction(parse(""), -1, n_max=9)


def _wider_grid(n_max):
    for n in range(1, n_max + 1, 2):
        for k in range(-3 * n, n + 1):
            yield n, k


def test_wider_grids_change_nothing(monkeypatch):
    base_genus = {
        (expr, h): genus_obstruction(expr, h, n_max=9).feasible
        for expr in SAMPLES
        for h in range(0, 4)
    }
    base_euler = {
        (expr, e): euler_obstruction(expr, 1, e, n_max=9).feasible
        for expr in SAMPLES
        for e in (-2, 0, 2, 4)
    }
    monkeypatch.setattr(gamma4.bounds, "_grid", _wider_grid)
    for (expr, h), feasible in base_genus.items():
        assert genus_obstruction(expr, h, n_max=9).feasible == feasible, (expr, h)
    for (expr, e), feasible in base_euler.items():
        assert euler_obstruction(expr, 1, e, n_max=9).feasible == feasible, (expr, e)


def test_omega_upper_values():
    assert omega_upper(HEADLINE, 5) == OmegaEstimate(Fraction(27, 5), 5)
    # over n <= 50 the best ratio appears at n = 46, not at a multiple of 5
    assert omega_upper(HEADLINE, 50) == OmegaEstimate(Fraction(120, 23), 46)
    assert omega_upper(parse(""), 10) == OmegaEstimate(Fraction(0), 1)
    with pytest.raises(ValueError):
        omega_upper(HEADLINE, 0)


def test_omega_witness_t_value():
    # the witness ratio comes from t(46 K) = 240
    assert t_invariant(multiply(HEADLINE, 46)) == 240
    assert Fraction(240, 46) == Fraction(120, 23)
    assert Fraction(120, 23) > Fraction(26, 5)  # still above the limit value


def test_stable_bound_values():
    assert report(HEADLINE, 50).stable == Fraction(41, 23)
    assert report(parse(""), 5).stable == 0


def test_stable_bound_non_decreasing_in_horizon():
    values = [report(HEADLINE, n).stable for n in range(1, 13)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_omega_homogeneity_proxy():
    for n in (2, 3):
        for horizon in (3, 4):
            lhs = omega_upper(multiply(HEADLINE, n), horizon)
            rhs = omega_upper(HEADLINE, n * horizon)
            assert lhs.value >= n * rhs.value
            if rhs.witness % n == 0:
                assert lhs.value == n * rhs.value


def test_mirror_profile_drives_the_bounds():
    # spot-check the T(3,-5) inputs quoted above
    assert vi_expr(parse("T(3,5)")) == (2, 1, 1, 1, 0)
    assert t_invariant(parse("T(3,-5)")) == 3
