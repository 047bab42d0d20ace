"""Tests for Alexander polynomials, torsion sequences, and signatures."""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamma4.expressions import KnotExpression, TorusKnot, parse, torus_knot
from gamma4.semigroups import FormalSemigroup
from gamma4.torus import (
    alexander,
    representative,
    signature,
    signature_expr,
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


# Cross-column entries of the symmetrized fence Seifert form.  The two signs
# are pinned by calibration against anchored signature values; flipping both
# together is a change of basis, so only their relative sign matters.
_CROSS_SAME = 1
_CROSS_PREV = -1


def _fence_form(p: int, q: int) -> list[list[int]]:
    """Symmetrized Seifert matrix V + V^T of the fence surface of T(p, q).

    Basis loops x[i][j] run through consecutive bands j, j+1 of braid column
    i (0-indexed: i < p-1, j < q-1).  Each loop has self-pairing -2, pairs
    with its vertical neighbors in the same column, and with the loops of the
    adjacent column whose band interval interleaves its own.
    """
    n = (p - 1) * (q - 1)

    def idx(i: int, j: int) -> int:
        return i * (q - 1) + j

    form = [[0] * n for _ in range(n)]
    for i in range(p - 1):
        for j in range(q - 1):
            a = idx(i, j)
            form[a][a] = -2
            if j + 1 < q - 1:
                b = idx(i, j + 1)
                form[a][b] = form[b][a] = 1
            if i + 1 < p - 1:
                b = idx(i + 1, j)
                form[a][b] = form[b][a] = _CROSS_SAME
                if j > 0:
                    b = idx(i + 1, j - 1)
                    form[a][b] = form[b][a] = _CROSS_PREV
    return form


def _symmetric_signature(form: list[list[int]]) -> int:
    """Signature of a symmetric integer matrix by fraction-free congruence
    diagonalization.

    Pivot ``p`` at stage ``k`` contributes its sign, and the trailing block
    becomes ``(|p| a[i][j] - sign(p) a[i][k] a[k][j]) / |prev|``, a positive
    multiple of the Schur complement of ``p``, where ``prev`` is the last
    pivot.  The division is exact (Bareiss), so every entry is an integer
    (up to sign, a minor of the form), and no fractions are built.  Swaps,
    mates and skipped null directions act on the trailing indices only, so
    they keep the division exact.
    """
    n = len(form)
    work = [list(row) for row in form]
    sig = 0
    prev = 1
    for k in range(n):
        if work[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if work[i][i] != 0), None)
            if swap is not None:
                for row in work[k:]:
                    row[k], row[swap] = row[swap], row[k]
                work[k], work[swap] = work[swap], work[k]
            else:
                mate = next((i for i in range(k + 1, n) if work[k][i] != 0), None)
                if mate is None:
                    continue  # zero row/column: null direction, contributes 0
                for col in range(k, n):
                    work[k][col] += work[mate][col]
                for row in work[k:]:
                    row[k] += row[mate]
        pivot = work[k][k]
        sign = 1 if pivot > 0 else -1
        scale = abs(pivot)
        sig += sign
        pivot_row = work[k]
        for row in work[k + 1 :]:
            factor = sign * row[k]
            for j in range(k + 1, n):
                row[j] = (scale * row[j] - factor * pivot_row[j]) // prev
        prev = scale
    return sig


def signature_seifert(p: int, q: int) -> int:
    """Reference signature from the fence Seifert matrix, exactly diagonalized."""
    knot = torus_knot(p, q)
    if knot is None:
        return 0
    return _symmetric_signature(_fence_form(knot.p, knot.q))


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
