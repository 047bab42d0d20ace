"""Correction terms of integer surgeries along torus-knot expressions.

For a knot ``K`` and a positive framing ``n``, the correction term of the
surgered manifold in the spin^c structure labeled ``k`` (``0 <= k < n``) is

    d = -(n - (2k - n)^2) / (4n) - 2 * max(V_k, V_{n-k})

where ``V`` is the torsion profile of ``K`` (indices past the end of the
profile count as zero).  Negative framings reduce to positive ones on the
mirror, with the overall sign flipped.  All values are exact rationals.

This is the one home of integer-surgery correction terms: ``d-invariant``
reads the sign rule of ``correction_terms``, the obstruction grids of
``bounds`` the formula ``d_from_profile``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

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


def correction_terms(
    expr: KnotExpression,
    n: int,
    profile_of: Callable[[KnotExpression], tuple[int, ...]] | None = None,
) -> list[Fraction]:
    """Correction terms of ``n``-surgery for the labels ``0 .. |n| - 1``, from
    one profile: ``profile_of(expr)``, or for ``n < 0`` the mirror's with the
    sign flipped (by default ``vi_expr``; the CLI passes its cache)."""
    if n == 0:
        raise ValueError("surgery framing must be nonzero")
    if profile_of is None:  # looked up per call, so a wrapped vi_expr is seen
        profile_of = vi_expr
    if n > 0:
        profile = profile_of(expr)
        return [d_from_profile(profile, n, k) for k in range(n)]
    profile = profile_of(mirror(expr))
    return [-d_from_profile(profile, -n, k) for k in range(-n)]


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
