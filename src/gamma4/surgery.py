"""Correction terms of integer surgeries along torus-knot expressions.

For a knot ``K`` and a positive framing ``n``, the correction term of the
surgered manifold in the spin^c structure labeled ``k`` (``0 <= k < n``) is

    d = -(n - (2k - n)^2) / (4n) - 2 * max(V_k, V_{n-k})

where ``V`` is the torsion profile of ``K`` (indices past the end of the
profile count as zero).  Negative framings reduce to positive ones on the
mirror, with the overall sign flipped.  All values are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .expressions import KnotExpression, mirror
from .nuplus import profile_at, vi_expr


@dataclass(frozen=True)
class SpincLabel:
    """A spin^c structure on an n-framed surgery, labeled by a residue.

    ``framing`` is the nonzero surgery coefficient; ``residue`` satisfies
    ``0 <= residue < |framing|``.
    """

    framing: int
    residue: int

    def __post_init__(self) -> None:
        if self.framing == 0:
            raise ValueError("framing must be nonzero")
        if not 0 <= self.residue < abs(self.framing):
            raise ValueError(
                f"residue {self.residue} out of range for framing {self.framing}"
            )


def d_from_profile(values: tuple[int, ...], n: int, k: int) -> Fraction:
    """The correction term formula for ``n > 0``, given the torsion profile."""
    quadratic = Fraction((2 * k - n) ** 2 - n, 4 * n)
    return quadratic - 2 * max(profile_at(values, k), profile_at(values, n - k))


def d_invariant(expr: KnotExpression, n: int, k: int) -> Fraction:
    """Correction term of positive ``n``-surgery in the spin^c structure ``k``."""
    if n < 1:
        raise ValueError("framing must be positive; use d_invariant_negative")
    SpincLabel(n, k)
    return d_from_profile(vi_expr(expr), n, k)


def d_invariant_negative(expr: KnotExpression, n: int, k: int) -> Fraction:
    """Correction term of negative ``n``-surgery (``n < 0``), via the mirror."""
    if n > -1:
        raise ValueError("framing must be negative; use d_invariant for n > 0")
    SpincLabel(n, k)
    return -d_invariant(mirror(expr), -n, k)
