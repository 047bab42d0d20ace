"""Tests for Alexander polynomials, torsion sequences, and signatures."""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamma4.expressions import KnotExpression, TorusKnot, parse
from gamma4.semigroups import FormalSemigroup
from gamma4.torus import (
    alexander,
    representative,
    signature,
    signature_expr,
    signature_seifert,
    torsion_coefficients,
    vi_lspace,
)

coprime_pairs = (
    st.tuples(st.integers(min_value=2, max_value=24), st.integers(min_value=2, max_value=24))
    .filter(lambda ab: gcd(*ab) == 1 and ab[0] * ab[1] <= 600)
)


def test_alexander_frozen_values():
    assert alexander(3, 5) == {4: 1, -4: 1, 3: -1, -3: -1, 1: 1, -1: 1, 0: -1}
    assert alexander(2, 3) == {1: 1, 0: -1, -1: 1}
    assert alexander(1, 9) == {0: 1}


def test_torsion_coefficients():
    assert torsion_coefficients(alexander(3, 5)) == [-1, 1, 0, -1, 1]
    assert torsion_coefficients(alexander(2, 3)) == [-1, 1]
    assert torsion_coefficients({0: 1}) == [1]
    with pytest.raises(ValueError):
        torsion_coefficients({1: 1, 0: 2})


def test_vi_frozen_values():
    assert vi_lspace(3, 5) == (2, 1, 1, 1, 0)
    assert vi_lspace(2, 3) == (1, 0)
    assert vi_lspace(2, 11)[0] == 3
    assert vi_lspace(5, 6) == (3, 3, 3, 3, 2, 1, 1, 1, 1, 1, 0)


@given(coprime_pairs)
@settings(max_examples=50, deadline=None)
def test_alexander_shape(ab):
    p, q = ab
    delta = alexander(p, q)
    g = (p - 1) * (q - 1) // 2
    assert delta[g] == 1
    assert all(delta[d] == delta[-d] for d in delta)
    assert all(c in (-1, 1) for c in delta.values())
    assert max(delta) == g
    # Alternating signs along the support, sorted by exponent.
    support = sorted(delta)
    assert all(delta[a] == -delta[b] for a, b in zip(support, support[1:]))


@given(coprime_pairs)
@settings(max_examples=50, deadline=None)
def test_vi_shape_and_semigroup_agreement(ab):
    p, q = ab
    seq = vi_lspace(p, q)
    g = (p - 1) * (q - 1) // 2
    assert len(seq) == g + 1
    assert seq[-1] == 0
    assert all(cur - nxt in (0, 1) for cur, nxt in zip(seq, seq[1:]))
    # First zero exactly at the genus (L-space knots have nu+ = g).
    assert min(i for i, v in enumerate(seq) if v == 0) == g
    # Independent derivation: gap counting in the semigroup.
    assert seq == FormalSemigroup.from_generators(p, q).vi


def test_signature_anchors():
    assert signature(2, 3) == -2
    assert signature(5, 6) == -16
    assert signature(3, 5) == -8
    assert signature(1, 4) == 0


def test_signature_twist_family():
    for n in range(1, 11):
        assert signature(2, 2 * n + 1) == -2 * n
        assert signature_seifert(2, 2 * n + 1) == -2 * n


@given(coprime_pairs.filter(lambda ab: ab[0] * ab[1] <= 200))
@settings(max_examples=40, deadline=None)
def test_signature_matches_seifert_reference(ab):
    assert signature(*ab) == signature_seifert(*ab)


def test_signature_expr():
    assert signature_expr(parse("T(2,3) - T(5,6)")) == 14
    assert signature_expr(KnotExpression()) == 0
    assert signature_expr(parse("T(3,-5)")) == 8
    assert signature_expr(parse("2*T(2,3) + T(3,5)")) == -12


def test_representative():
    assert representative(5, 5) == TorusKnot(5, 26)
    assert representative(5, 2) == TorusKnot(2, 11)
    assert representative(1, 3) == TorusKnot(3, 4)
    with pytest.raises(ValueError):
        representative(0, 3)
    with pytest.raises(ValueError):
        representative(2, 1)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=2, max_value=7))
def test_representative_is_valid_knot(n, p):
    knot = representative(n, p)
    assert knot.p == p and knot.q == p * n + 1 and gcd(knot.p, knot.q) == 1
