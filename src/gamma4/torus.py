"""Torus-knot invariants: Alexander polynomials, torsion sequences, signatures.

Alexander polynomials are computed by exact integer long division of
``(t^{pq} - 1)(t - 1)`` by ``(t^p - 1)(t^q - 1)`` and recentered so the
support is symmetric about 0.  The torsion sequence ``V_i`` of the positive
torus knot is recovered from the torsion coefficients of the polynomial, one
of three independent routes to the same data (the others: semigroup gap
counts, and homology of the bifiltered complex).

Signatures count lattice points, one sign per eigenvalue of the
symmetrized Seifert form.  The tests hold the count to an independent
reference, which diagonalizes the symmetrized Seifert matrix of the fence
surface of the closed (p, q) braid by exact congruence over the rationals.
"""

from __future__ import annotations

import functools

from . import _kernels
from .expressions import KnotExpression, TorusKnot, torus_knot


def alexander(p: int, q: int) -> dict[int, int]:
    """Symmetrized Alexander polynomial of T(p, q) as {exponent: coefficient}.

    The support lies in [-g, g] with g = (p-1)(q-1)/2, the top coefficient is
    +1, and all coefficients are in {-1, 0, +1}.  T(1, q) gives the constant 1.
    """
    knot = torus_knot(p, q)
    if knot is None:
        return {0: 1}
    p, q = knot
    two_g = (p - 1) * (q - 1)
    # numerator (t^{pq} - 1)(t - 1); index d holds the coefficient of t^d
    rem = [0] * (p * q + 2)
    rem[p * q + 1] += 1
    rem[p * q] -= 1
    rem[1] -= 1
    rem[0] += 1
    denominator = ((p + q, 1), (p, -1), (q, -1), (0, 1))
    quotient = [0] * (two_g + 1)
    for d in range(two_g, -1, -1):
        c = rem[d + p + q]
        if c:
            quotient[d] = c
            for exp, coeff in denominator:
                rem[d + exp] -= c * coeff
    if any(rem):
        raise AssertionError("inexact polynomial division; this is a bug")
    g = two_g // 2
    return {d - g: c for d, c in enumerate(quotient) if c}


def torsion_coefficients(delta: dict[int, int]) -> list[int]:
    """Coefficients a_0, ..., a_g of a symmetric Laurent polynomial.

    Raises ValueError if the polynomial is not symmetric under t -> 1/t.
    """
    if any(delta.get(d, 0) != delta.get(-d, 0) for d in delta):
        raise ValueError("polynomial is not symmetric")
    top = max((d for d, c in delta.items() if c), default=0)
    return [delta.get(j, 0) for j in range(top + 1)]


def vi_lspace(p: int, q: int) -> tuple[int, ...]:
    """Torsion sequence V_0, ..., V_g of the POSITIVE torus knot T(p, q).

    V_i is the weighted tail sum of torsion coefficients: sum of j * a_{j+i}
    over j >= 1.
    """
    coeffs = torsion_coefficients(alexander(p, q))
    g = len(coeffs) - 1
    out = []
    for i in range(g + 1):
        out.append(sum(j * coeffs[j + i] for j in range(1, g - i + 1)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1024, typed=True)
def signature(p: int, q: int) -> int:
    """Signature of the positive torus knot T(p, q) (even, non-positive).

    A lattice-point count (see the kernel docstring), held by property
    tests to the fence Seifert matrix reference kept with them.  Memoised
    per process, keyed by argument type too; an exception is not cached.
    """
    knot = torus_knot(p, q)
    if knot is None:
        return 0
    return _kernels.signature_count(knot.p, knot.q)


def signature_expr(expr: KnotExpression) -> int:
    """Signature of a formal sum: additive, with mirrors negating."""
    return sum(c * signature(k.p, k.q) for k, c in expr.terms)


def representative(n: int, p: int) -> TorusKnot:
    """The torus knot T(p, pn+1), standing in for the n-fold sum of T(p, p+1).

    The stable complex of n T(p, p+1) agrees with the staircase of T(p, pn+1),
    so every torsion-sequence computation may use the latter.
    """
    if n < 1 or p < 2:
        raise ValueError("need n >= 1 and p >= 2")
    return TorusKnot(p, p * n + 1)
