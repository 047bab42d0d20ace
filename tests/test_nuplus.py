"""Tests for the closed-form torsion profiles and the expression router."""

import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamma4.cfk import vi_sequence
from gamma4.expressions import KnotExpression, parse
from gamma4.nuplus import (
    UnsupportedExpressionError,
    hom_wu_nu_plus,
    nu_plus_v,
    route,
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
    # one-sided sums may still use the iterated reduction
    assert route(parse("T(2,3) + T(3,5)")).kind == "closed-form"
    assert route(parse("-T(2,3) - T(3,5)")).kind == "closed-form"
    # several different staircases against a nonempty other side do not
    mixed = route(parse("T(2,3) + T(3,5) - T(2,5)"))
    assert mixed.kind == "complex"
    assert mixed.genus == 7
    tight = route(parse("T(2,3) + T(3,5)"), genus_cap=3)
    assert tight.kind == "unsupported"
    with pytest.raises(UnsupportedExpressionError):
        vi_expr(parse("T(2,3) + T(3,5)"), genus_cap=3)
    # the direct path respects the genus cap too
    assert route(parse("T(2,3) + T(3,5) - T(2,5)"), genus_cap=6).kind == (
        "unsupported"
    )


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
    assert t_invariant(parse("50*T(2,3) - 50*T(5,6)"), genus_cap=60) == 261


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
    from gamma4.nuplus import _nu_profile

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

