"""Tests for the closed-form torsion profiles and the expression router."""

import random
from itertools import combinations_with_replacement, permutations
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gamma4.cfk
import gamma4.nuplus
from gamma4 import _kernels
from gamma4.cfk import staircase_exponents, vi_sequence
from gamma4.expressions import KnotExpression, mirror, parse
from gamma4.nuplus import (
    UnsupportedExpressionError,
    _infimal_fold,
    _nu_profile,
    _tensor_generator_count,
    hom_wu_nu_plus,
    nu_plus_v,
    route,
    t_from_profile,
    t_invariant,
    tensor_complex,
    vi_expr,
    vi_from_nuplus,
    vi_tensor_oracle,
)
from gamma4.semigroups import UNKNOT_SEMIGROUP, FormalSemigroup
from gamma4.torus import vi_lspace

S526 = FormalSemigroup.from_generators(5, 26)
S211 = FormalSemigroup.from_generators(2, 11)
S23 = FormalSemigroup.from_generators(2, 3)

semigroups = st.tuples(
    st.integers(min_value=2, max_value=9), st.integers(min_value=2, max_value=25)
).filter(lambda ab: gcd(*ab) == 1).map(
    lambda ab: FormalSemigroup.from_generators(*ab)
)


def test_nu_plus_v_frozen_values():
    assert nu_plus_v(S526, S211, 13) == 1
    assert nu_plus_v(S526, S211, 2) == 35
    assert nu_plus_v(S23, UNKNOT_SEMIGROUP, 0) == 1


def test_vi_from_nuplus_frozen_values():
    assert vi_from_nuplus(S526, S211)[0] == 14
    assert vi_from_nuplus(S23, UNKNOT_SEMIGROUP) == (1, 0)
    assert vi_from_nuplus(UNKNOT_SEMIGROUP, S23) == (0,)


def test_vi_expr_headline_values():
    assert vi_expr(parse("T(5,6) - T(2,3)")) == (3, 3, 3, 2, 2, 1, 1, 1, 1, 0)
    assert vi_expr(parse("T(2,3) - T(5,6)")) == (0,)
    assert vi_expr(parse("")) == (0,)


def test_empty_fold_is_the_unknot():
    # both tensor folds start from the one-generator unknot staircase
    assert len(tensor_complex(parse(""))) == 1
    assert vi_sequence(tensor_complex(parse(""))) == (0,)
    assert vi_tensor_oracle(parse("")) == (0,)


def test_t_invariant_values():
    assert t_invariant(parse("T(2,3) - T(5,6)")) == 6
    assert t_invariant(parse("T(5,6) - T(2,3)")) == 0
    assert t_invariant(parse("5*T(2,3) - 5*T(5,6)")) == 27
    assert t_invariant(parse("T(3,-5)")) == 3
    assert t_invariant(parse("")) == 0


def test_hom_wu_values():
    assert hom_wu_nu_plus(parse("T(3,5)")) == 4
    assert hom_wu_nu_plus(parse("")) == 0
    assert hom_wu_nu_plus(parse("T(2,-3)")) == 0
    assert hom_wu_nu_plus(parse("-T(2,3) - T(5,6)")) == 0


def test_route_kinds():
    plan = route(parse("5*T(2,3) - 5*T(5,6)"))
    assert plan.kind == "closed-form"
    assert plan.positive == FormalSemigroup.from_generators(2, 11)
    assert plan.negative == FormalSemigroup.from_generators(5, 26)
    # one-sided sums fold by infimal convolution, still under the genus cap
    assert route(parse("T(2,3) + T(3,5)")).kind == "closed-form"
    assert route(parse("-T(2,3) - T(3,5)")).kind == "closed-form"
    # several different staircases against a nonempty other side do not
    mixed = route(parse("T(2,3) + T(3,5) - T(2,5)"))
    assert mixed.kind == "complex"
    assert mixed.genus == 7
    for text in ("T(2,3) + T(3,5)", "-T(2,3) - T(3,5)"):
        tight = route(parse(text), genus_cap=3)
        assert tight.kind == "unsupported"
        assert tight.reason == "reduced genus 5 exceeds the cap 3"
    with pytest.raises(UnsupportedExpressionError):
        vi_expr(parse("T(2,3) + T(3,5)"), genus_cap=3)
    # the direct path respects the genus cap too
    assert route(parse("T(2,3) + T(3,5) - T(2,5)"), genus_cap=6).kind == (
        "unsupported"
    )


def test_one_sided_route_builds_no_complex(monkeypatch):
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for module in (gamma4.cfk, gamma4.nuplus):
        for name in ("tensor", "vi_sequence", "vi_by_rank"):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(
        FormalSemigroup,
        "from_vi",
        staticmethod(counted("from_vi", FormalSemigroup.from_vi)),
    )
    for text in ("T(2,5) + T(3,4)", "-T(2,5) - T(3,4)", "T(7,9) + T(8,11)",
                 "T(2,3) + T(2,5) + T(3,4) + T(2,7)", "3*T(2,5) + 2*T(3,4)"):
        assert route(parse(text)).kind == "closed-form"
    assert calls == []


ONE_SIDED_KNOTS = [
    parse(s).terms[0][0]
    for s in ["T(2,3)", "T(2,5)", "T(2,7)", "T(2,9)", "T(3,4)",
              "T(3,5)", "T(3,7)", "T(4,5)", "T(5,6)"]
]


def one_sided_sums(low: int, high: int) -> list[KnotExpression]:
    """Sums of 2 and 3 of the knots above whose tensor complex (adjacent
    powers collapsed) has more than ``low`` and at most ``high`` generators."""
    out = []
    for size in (2, 3):
        for combo in combinations_with_replacement(ONE_SIDED_KNOTS, size):
            expr = KnotExpression.from_terms((knot, 1) for knot in combo)
            if low < _tensor_generator_count(expr) <= high:
                out.append(expr)
    return out


@pytest.mark.parametrize(
    "low, high", [(0, 405), pytest.param(405, 729, marks=pytest.mark.slow)]
)
def test_infimal_fold_matches_tensor_oracle(low, high):
    # together the two budgets cover every sum of 2 and 3 of the nine knots
    for expr in one_sided_sums(low, high):
        for signed in (expr, mirror(expr)):
            assert vi_expr(signed) == vi_tensor_oracle(signed), signed


ORACLE_GENERATOR_BUDGET = 405


@st.composite
def budgeted_expressions(draw):
    """Signed sums over the nine knots whose raw tensor (one staircase per
    copy, as ``vi_tensor_oracle`` builds it) stays within the budget.

    Powers of an adjacent-parameter knot are collapsed by the routed path,
    inside tensors on the complex route.
    """
    terms = []
    generators = 1
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        knot = draw(st.sampled_from(ONE_SIDED_KNOTS))
        sign = draw(st.sampled_from((1, -1)))
        size = len(staircase_exponents(FormalSemigroup.from_generators(knot.p, knot.q)))
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            if generators * size <= ORACLE_GENERATOR_BUDGET:
                generators *= size
                terms.append((knot, sign))
    return KnotExpression.from_terms(terms)


@given(budgeted_expressions())
# random draws seldom put a power inside the tensor of the complex route
@example(parse("2*T(2,3) + T(2,5) - T(3,4)"))
@example(parse("2*T(3,4) - T(2,3) - T(2,5)"))
@settings(max_examples=100, deadline=None)
def test_routed_profile_matches_tensor_oracle(expr):
    assert vi_expr(expr) == vi_tensor_oracle(expr), expr


MIXED = parse("T(2,3) + T(3,4) - T(2,5)")


def test_complex_route_runs_no_elimination(monkeypatch):
    """The routed complex path reads its profile off rank tests: no graded
    Smith normal form, no level homology, no packed pattern."""
    assert route(MIXED).kind == "complex"
    expected = vi_tensor_oracle(MIXED)

    def refuse(*args, **kwargs):
        raise AssertionError("the complex route ran the oracle's algorithm")

    monkeypatch.setattr(_kernels, "graded_snf", refuse)
    monkeypatch.setattr(gamma4.cfk, "homology_over_polynomial_ring", refuse)
    monkeypatch.setattr(gamma4.cfk.BifilteredComplex, "_pattern", property(refuse))
    assert vi_expr(MIXED) == expected == (1, 1, 0)
    with pytest.raises(AssertionError, match="oracle's algorithm"):
        vi_tensor_oracle(MIXED)


def test_oracle_eliminates_every_level(monkeypatch):
    """The oracle runs graded Smith normal form and level homology once per
    profile entry."""
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(_kernels, "graded_snf", counted("snf", _kernels.graded_snf))
    monkeypatch.setattr(
        gamma4.cfk,
        "homology_over_polynomial_ring",
        counted("homology", gamma4.cfk.homology_over_polynomial_ring),
    )
    profile = vi_tensor_oracle(MIXED)
    assert calls.count("snf") == calls.count("homology") == len(profile) > 0


def test_infimal_fold_identities():
    factors = [FormalSemigroup.from_generators(k.p, k.q) for k in ONE_SIDED_KNOTS]
    assert _infimal_fold([]) == UNKNOT_SEMIGROUP
    for a in factors:
        assert _infimal_fold([a, UNKNOT_SEMIGROUP]) == a
        assert _infimal_fold([UNKNOT_SEMIGROUP, a]) == a
        for b in factors:
            assert _infimal_fold([a, b]) == _infimal_fold([b, a])
    triple = factors[1], factors[4], factors[8]
    assert len({_infimal_fold(list(order)) for order in permutations(triple)}) == 1


def test_route_generator_limit():
    # genus 17 passes the default cap, but eight uncollapsible 5-generator
    # staircases and a trefoil multiply past the generator budget
    plan = route(parse("8*T(2,5) - T(2,3)"))
    assert plan.kind == "unsupported"
    assert "generators" in plan.reason
    with pytest.raises(UnsupportedExpressionError):
        vi_expr(parse("8*T(2,5) - T(2,3)"))


def test_mixed_multifactor_closed_form_fails():
    """The two-sided formula is wrong on some heterogeneous sums.

    Reducing T(2,3) + T(5,6) to a single formal semigroup preserves its
    torsion profile, but feeding that semigroup into the two-sided formula
    against T(2,5) yields a provably wrong answer — which is why the router
    only trusts the formula when each side is a single staircase.
    """
    expr = parse("T(2,3) - T(2,5) + T(5,6)")
    correct = (3, 3, 3, 2, 2, 1, 1, 1, 1, 0)
    assert vi_expr(expr) == correct
    assert route(expr).kind == "complex"
    assert vi_tensor_oracle(expr) == correct

    positive_profile = vi_expr(parse("T(2,3) + T(5,6)"))
    reduced = FormalSemigroup.from_vi(positive_profile)
    assert reduced.vi == positive_profile  # the reduction round-trips...
    assert not reduced.is_closed_under_addition  # ...but is merely formal
    wrong = vi_from_nuplus(reduced, FormalSemigroup.from_generators(2, 5))
    assert wrong != correct


def test_adjacent_powers_bypass_genus_cap():
    # 50 copies on each side reduce via single representatives; no cap applies.
    expr = mirror(parse("50*T(2,3) - 50*T(5,6)"))
    assert t_from_profile(vi_expr(expr, genus_cap=60)) == 261


@given(semigroups, semigroups, st.integers(min_value=0, max_value=40))
@settings(max_examples=60, deadline=None)
def test_extended_k_range_never_changes_value(a, b, v):
    ga, gb = a.genus, b.genus
    brute = max(
        b.enumerating(k) - a.enumerating(k + v) for k in range(gb + 201)
    )
    assert nu_plus_v(a, b, v) == max(0, ga - gb + brute)


coprime_small = st.tuples(
    st.integers(min_value=2, max_value=9), st.integers(min_value=2, max_value=25)
).filter(lambda ab: gcd(*ab) == 1)


@given(coprime_small)
@settings(max_examples=25, deadline=None)
def test_degenerate_closed_form_matches_torsion_formula(ab):
    sg = FormalSemigroup.from_generators(*ab)
    assert vi_from_nuplus(sg, UNKNOT_SEMIGROUP) == vi_lspace(*ab)


@given(semigroups, semigroups)
@settings(max_examples=30, deadline=None)
def test_profile_shape(a, b):
    nus = _nu_profile(a, b)
    assert nus[-1] == 0
    assert all(x >= y for x, y in zip(nus, nus[1:]))  # non-increasing
    assert all(x > 0 for x in nus[:-1])  # ends exactly at the first zero


FAMILY_KNOTS = [parse(s).terms[0][0] for s in ["T(2,3)", "T(2,5)", "T(3,4)", "T(3,5)", "T(5,6)"]]


def oracle_family() -> list[KnotExpression]:
    """All expressions over the five reference knots, coefficients in [-2, 2],
    total genus at most 14."""
    out = []
    coeffs = range(-2, 3)
    for c0 in coeffs:
        for c1 in coeffs:
            for c2 in coeffs:
                for c3 in coeffs:
                    for c4 in coeffs:
                        cs = (c0, c1, c2, c3, c4)
                        expr = KnotExpression.from_terms(zip(FAMILY_KNOTS, cs))
                        if expr.total_genus <= 14:
                            out.append(expr)
    return out


def tensor_size(expr: KnotExpression) -> int:
    size = 1
    for knot, count in expr.terms:
        size *= (2 * knot.genus + 1) ** abs(count)
    return size


def test_oracle_family_sample_agreement():
    family = [e for e in oracle_family() if tensor_size(e) <= 1500]
    sample = random.Random(7).sample(family, 40)
    for expr in sample:
        assert vi_expr(expr) == vi_tensor_oracle(expr), expr


@pytest.mark.slow
def test_oracle_family_largest_case():
    family = [e for e in oracle_family() if tensor_size(e) <= 1500]
    expr = max(family, key=tensor_size)
    assert vi_expr(expr) == vi_tensor_oracle(expr), expr


# ---------------------------------------------------------------------------
# The closed-form grid: first-zero cut and run-start cut
# ---------------------------------------------------------------------------


def max_gap_reference(gam_a, gam_b, v_count: int) -> list[int]:
    """Every k at every v, in plain Python."""
    b = [int(x) for x in gam_b]
    a = [int(x) for x in gam_a]
    return [max(b[k] - a[k + v] for k in range(len(b))) for v in range(v_count)]


def nu_profile_full_grid(a: FormalSemigroup, b: FormalSemigroup) -> np.ndarray:
    """Every level up to ``genus(a)`` and every ``k``, cut after the first zero."""
    ga, gb = a.genus, b.genus
    gam_a = a.enumerating_prefix(gb + ga + 1)
    gam_b = b.enumerating_prefix(gb + 1)
    raw = np.array(
        [int((gam_b - gam_a[v : v + gb + 1]).max()) for v in range(ga + 1)],
        dtype=np.int64,
    )
    nus = np.maximum(raw + (ga - gb), 0)
    return nus[: int(np.argmax(nus == 0)) + 1]


def increasing_with_runs(steps):
    """A strictly increasing sequence from (jump, run length) pairs."""
    out, x = [], -1
    for jump, length in steps:
        x += jump
        out.extend(range(x, x + length))
        x += length - 1
    return out


runs = st.lists(
    st.tuples(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=12)),
    min_size=1,
    max_size=12,
)


@given(
    runs,
    runs,
    st.integers(min_value=1, max_value=40),
    # (GRID_BLOCK_CELLS, ROW_BLOCK_MIN_LEVELS): small blocks, both paths
    st.sampled_from([(3, 1), (64, 8), (64, 64), (1 << 16, 1 << 10)]),
    # added to both arrays: rows in int32, near its top or across it, or
    # in int64
    st.sampled_from([0, 2**31 - 64, 2**40]),
)
@settings(max_examples=150, deadline=None)
def test_max_gap_profile_matches_every_cell(b_runs, a_runs, v_count, block, offset):
    cells, row_min = block
    gam_b = np.array(increasing_with_runs(b_runs), dtype=np.int64) + offset
    head = increasing_with_runs(a_runs)
    need = len(gam_b) + v_count - 1
    gam_a = np.array(head + list(range(head[-1] + 1, head[-1] + 1 + need)), dtype=np.int64)
    gam_a += offset
    with mock.patch.object(_kernels, "GRID_BLOCK_CELLS", cells), mock.patch.object(
        _kernels, "ROW_BLOCK_MIN_LEVELS", row_min
    ):
        got = _kernels.max_gap_profile(gam_a, gam_b, v_count)
    assert got.dtype == np.int64
    assert got.tolist() == max_gap_reference(gam_a, gam_b, v_count)


def test_max_gap_profile_long_profile_uses_rows():
    # past ROW_BLOCK_MIN_LEVELS levels, and past one block of levels per row
    a = FormalSemigroup.from_generators(3, 1000)
    b = FormalSemigroup.from_generators(2, 7)
    v_count = 1500
    gam_a = a.enumerating_prefix(b.genus + v_count)
    gam_b = b.enumerating_prefix(b.genus + 1)
    want = max_gap_reference(gam_a, gam_b, v_count)
    assert _kernels.max_gap_profile(gam_a, gam_b, v_count).tolist() == want
    with mock.patch.object(_kernels, "GRID_BLOCK_CELLS", 100):
        assert _kernels.max_gap_profile(gam_a, gam_b, v_count).tolist() == want


def test_max_gap_profile_rows_across_int32():
    # gam_a runs across 2**31, so the rows run in int64.  With gam_b near 0
    # the cells fall below -2**31 as well, where int32 would wrap.
    a = FormalSemigroup.from_generators(3, 1000)
    b = FormalSemigroup.from_generators(2, 7)
    v_count = 1500
    for a_offset, b_offset in ((2**31 - 1000, 2**31 - 1000), (2**31 - 1000, 0)):
        gam_a = a.enumerating_prefix(b.genus + v_count) + a_offset
        gam_b = b.enumerating_prefix(b.genus + 1) + b_offset
        assert gam_a[0] < 2**31 <= gam_a[-1]
        want = max_gap_reference(gam_a, gam_b, v_count)
        for cells in (_kernels.GRID_BLOCK_CELLS, 100):
            with mock.patch.object(_kernels, "GRID_BLOCK_CELLS", cells):
                got = _kernels.max_gap_profile(gam_a, gam_b, v_count)
            assert got.dtype == np.int64
            assert got.tolist() == want


@pytest.mark.parametrize(
    "bad",
    [
        [0.5, 2.7, 3.0, 5.0],
        np.array([0.0, 2.0, 3.0, 5.0]),
        np.array([False, True, True, True]),
        np.array([0, 2, 3, 2**70], dtype=object),
        np.array([0, 2, 3, 5], dtype=np.uint64),
    ],
)
def test_max_gap_profile_refuses_non_integer_input(bad):
    """Floats would be truncated and uint64 wrapped by a cast to int64."""
    good = np.array([0, 2, 3, 5], dtype=np.int64)
    with pytest.raises(ValueError, match="gam_a must hold integers"):
        _kernels.max_gap_profile(bad, good[:2], 2)
    with pytest.raises(ValueError, match="gam_b must hold integers"):
        _kernels.max_gap_profile(good, bad, 1)


def test_max_gap_profile_takes_any_safe_integer_dtype():
    gam_a, gam_b = [0, 2, 3, 5, 6], [0, 2, 3]
    want = max_gap_reference(gam_a, gam_b, 3)
    for dtype in (np.int8, np.int32, np.uint8, np.uint32, np.int64):
        got = _kernels.max_gap_profile(np.array(gam_a, dtype), np.array(gam_b, dtype), 3)
        assert got.dtype == np.int64
        assert got.tolist() == want
    assert _kernels.max_gap_profile(gam_a, gam_b, 3).tolist() == want


def test_max_gap_profile_rejects_non_increasing_gam_a():
    gam_b = np.array([0, 2, 3], dtype=np.int64)
    with pytest.raises(ValueError, match="strictly increasing"):
        _kernels.max_gap_profile(np.array([0, 2, 2, 5], dtype=np.int64), gam_b, 2)
    with pytest.raises(ValueError, match="strictly increasing"):
        _kernels.max_gap_profile(np.array([0, 3, 1, 5], dtype=np.int64), gam_b, 2)


@given(
    st.one_of(st.just(UNKNOT_SEMIGROUP), semigroups),
    st.one_of(st.just(UNKNOT_SEMIGROUP), semigroups),
)
@settings(max_examples=80, deadline=None)
def test_nu_profile_matches_full_grid(a, b):
    for top, bottom in ((a, b), (b, a)):
        assert _nu_profile(top, bottom).tolist() == nu_profile_full_grid(top, bottom).tolist()


@pytest.mark.parametrize(
    "pos, neg",
    [((41, 5001), (9, 250)), ((5, 26), (2, 11)), ((5, 1301), (2, 521)), ((2, 3), None)],
)
def test_nu_profile_matches_full_grid_on_large_pairs(pos, neg):
    a = FormalSemigroup.from_generators(*pos)
    b = FormalSemigroup.from_generators(*neg) if neg else UNKNOT_SEMIGROUP
    for top, bottom in ((a, b), (b, a)):
        assert _nu_profile(top, bottom).tolist() == nu_profile_full_grid(top, bottom).tolist()
