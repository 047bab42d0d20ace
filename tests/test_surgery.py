"""Tests for surgery correction terms."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamma4.expressions import mirror, parse
from gamma4.nuplus import vi_expr
from gamma4.surgery import (
    SpincLabel,
    correction_terms,
    d_invariant,
    d_invariant_negative,
)

UNKNOT = parse("")

SMALL_EXPRS = [
    parse(s)
    for s in ["", "T(2,3)", "T(2,-3)", "T(3,5)", "T(3,5) - T(2,5)", "2*T(2,3) - T(3,4)"]
]


def test_frozen_examples():
    assert d_invariant(UNKNOT, 3, 1) == Fraction(-1, 6)
    assert d_invariant(parse("T(2,3)"), 1, 0) == -2
    assert d_invariant(UNKNOT, 1, 0) == 0
    assert d_invariant_negative(UNKNOT, -3, 1) == Fraction(1, 6)
    assert d_invariant_negative(parse("T(3,-5)"), -1, 0) == 4


def test_spinc_label_validation():
    SpincLabel(3, 2)
    SpincLabel(-3, 2)
    with pytest.raises(ValueError):
        SpincLabel(0, 0)
    with pytest.raises(ValueError):
        SpincLabel(3, 3)
    with pytest.raises(ValueError):
        SpincLabel(3, -1)
    with pytest.raises(ValueError):
        d_invariant(UNKNOT, 0, 0)
    with pytest.raises(ValueError):
        d_invariant(UNKNOT, -2, 0)
    with pytest.raises(ValueError):
        d_invariant_negative(UNKNOT, 2, 0)


def test_unknot_matches_lens_space_quadratic():
    for n in range(1, 51):
        for k in range(n):
            assert d_invariant(UNKNOT, n, k) == Fraction((2 * k - n) ** 2 - n, 4 * n)


@given(
    st.sampled_from(SMALL_EXPRS),
    st.integers(min_value=2, max_value=12),
)
@settings(max_examples=40, deadline=None)
def test_conjugation_symmetry(expr, n):
    for k in range(1, n):
        assert d_invariant(expr, n, k) == d_invariant(expr, n, n - k)


def test_sign_consistency_and_batson_anchor():
    for expr in SMALL_EXPRS:
        assert d_invariant(expr, 1, 0) + d_invariant_negative(mirror(expr), -1, 0) == 0
        assert d_invariant_negative(expr, -1, 0) == 2 * vi_expr(mirror(expr))[0]


def test_correction_terms_match_per_label_values():
    for expr in SMALL_EXPRS:
        for n in (1, 2, 7):
            assert correction_terms(expr, n) == [d_invariant(expr, n, k) for k in range(n)]
            assert correction_terms(expr, -n) == [
                d_invariant_negative(expr, -n, k) for k in range(n)
            ]
    with pytest.raises(ValueError, match="surgery framing must be nonzero"):
        correction_terms(UNKNOT, 0)


def test_correction_terms_read_one_profile():
    expr = parse("T(2,3) - T(3,5)")
    calls = []

    def profile_of(e):
        calls.append(e)
        return vi_expr(e)

    assert correction_terms(expr, -9, profile_of) == correction_terms(expr, -9)
    assert calls == [mirror(expr)]


# ---------------------------------------------------------------------------
# Lens-space oracle
# ---------------------------------------------------------------------------


def lens_d(p: int, q: int, i: int) -> Fraction:
    """Correction terms of the lens space L(p, q) by the Ozsvath-Szabo
    recursion (arXiv:math/0110170), which reads no torsion profile."""
    if p == 1:
        return Fraction(0)
    return (
        Fraction(-1, 4)
        + Fraction((2 * i + 1 - p - q) ** 2, 4 * p * q)
        - lens_d(q, p % q, i % q)
    )


def _lens_multiset(p: int, q: int) -> list[Fraction]:
    return sorted(lens_d(p, q, i) for i in range(p))


TORUS_PAIRS = [(p, q) for p in range(2, 8) for q in range(p + 1, 30) if gcd(p, q) == 1]


def test_lens_space_surgeries_on_torus_knots():
    """``(pq - 1)``-surgery on ``T(p, q)`` is the lens space ``L(pq - 1, q^2)``
    (Moser); on the mirror, ``-(pq - 1)``-surgery is its reverse."""
    for p, q in TORUS_PAIRS:
        n = p * q - 1
        lens = _lens_multiset(n, q * q % n)
        assert sorted(correction_terms(parse(f"T({p},{q})"), n)) == lens, (p, q)
        negated = sorted(-d for d in lens)
        assert sorted(correction_terms(parse(f"T({p},-{q})"), -n)) == negated, (p, q)


def test_unknot_surgeries_are_lens_spaces():
    for n in range(1, 40):
        assert sorted(correction_terms(UNKNOT, n)) == _lens_multiset(n, 1), n
