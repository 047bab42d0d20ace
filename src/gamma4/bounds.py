"""Lower bounds for the non-orientable slice genus of torus-knot expressions.

Everything here is driven by three exact ingredients: the signature of the
expression, the torsion profile ``V_0, V_1, ...`` of its mirror, and (for the
stable bound) the packaged invariant ``t`` of its multiples.  The headline
inequality is

    gamma4(K) >= sigma(K)/2 - (m + 2 V_m(mirror K))      for every m >= 0,

whose best value over ``m`` is ``sigma/2 - t(K)``.  Specializing ``m`` gives
the classical correction-term bound (``m = 0``) and the bound through the
first vanishing index of the profile.  Independent of these, the upsilon
invariant gives ``gamma4 >= |sigma/2 - upsilon|`` (upsilon is additive under
connected sums, a fact imported from the literature and validated here only
on worked examples), and obstruction grids over surgery correction terms
exclude candidate ``(b_1, Euler number)`` pairs for spanning surfaces.

All arithmetic is exact; rationals only ever appear as `fractions.Fraction`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .expressions import KnotExpression, mirror, multiply, parse
from .nuplus import profile_at, t_from_profile, vi_expr
from .semigroups import FormalSemigroup
from .surgery import d_from_profile
from .torus import signature_expr


class OddEulerNumberError(ValueError):
    """Normal Euler numbers of spanning surfaces are always even."""


@dataclass(frozen=True)
class BoundReport:
    """All lower bounds for one expression, with the per-index table.

    ``table[m] = sigma/2 - m - 2 V_m(mirror)``; ``main`` is its maximum and
    equals ``sigma/2 - t``.  ``batson`` is the ``m = 0`` row and
    ``nu_plus_bound`` the row at the first vanishing index, so neither can
    exceed ``main``.  ``upsilon_bound`` is reported separately and is NOT
    folded into ``final_gamma4_lower``; the final value is
    ``max(1, main, ceil(stable))`` (the 1 reflects the convention that the
    non-orientable genus of any knot, the unknot included, is at least 1).
    """

    sigma: int
    t: int
    table: tuple[int, ...]
    batson: int
    nu_plus_bound: int
    main: int
    upsilon_bound: int
    stable: Fraction | None = None
    stable_witness: int | None = None
    final_gamma4_lower: int = 1
    side: str = "as-given"


@dataclass(frozen=True)
class ObstructionOutcome:
    """Result of scanning an obstruction grid.

    ``feasible`` means no grid cell violated the inequality; otherwise
    ``witness`` holds the first violating ``(n, k)`` pair, certifying that the
    tested ``(h, e)`` (or ``h``) cannot be realized.
    """

    feasible: bool
    witness: tuple[int, int] | None = None


@dataclass(frozen=True)
class OmegaEstimate:
    """An upper bound ``t(nE)/n`` for the stable invariant, with its witness."""

    value: Fraction
    witness: int


def _table(sigma: int, back_profile: tuple[int, ...]) -> tuple[int, ...]:
    """Rows ``sigma/2 - m - 2 V_m`` for m up to max(2 V_0, last index)."""
    top = max(2 * back_profile[0], len(back_profile) - 1)
    return tuple(
        sigma // 2 - m - 2 * profile_at(back_profile, m) for m in range(top + 1)
    )


@functools.lru_cache(maxsize=1024, typed=True)
def upsilon_torus(p: int, q: int) -> int:
    """Value of the upsilon invariant at its midpoint for a positive T(p, q).

    The torsion profile comes from the semigroup of ``T(p, q)``; the
    ``oracles/semigroup-profiles`` check holds it to the Alexander-polynomial
    profile ``torus.vi_lspace``.  Memoised per process, keyed by argument
    type too; an exception is not cached.
    """
    return -t_from_profile(FormalSemigroup.from_generators(p, q).vi)


def upsilon_expr(expr: KnotExpression) -> int:
    """Upsilon of the expression, using additivity under connected sums."""
    return sum(c * upsilon_torus(k.p, k.q) for k, c in expr.terms)


def upsilon_bound(expr: KnotExpression) -> int:
    """``|sigma/2 - upsilon|``, valid in both orientations at once.

    Needs no torsion profile; ``report(expr).upsilon_bound`` is the same value.
    """
    return abs(signature_expr(expr) // 2 - upsilon_expr(expr))


# ---------------------------------------------------------------------------
# Aggregate reports
# ---------------------------------------------------------------------------


def _assemble(
    sigma: int,
    back_profile: tuple[int, ...],
    upsilon_value: int,
    stable: Fraction | None,
    stable_witness: int | None,
    side: str,
) -> BoundReport:
    table = _table(sigma, back_profile)
    t = t_from_profile(back_profile)
    main = sigma // 2 - t
    candidates = [1, main]
    if stable is not None:
        candidates.append(math.ceil(stable))
    return BoundReport(
        sigma=sigma,
        t=t,
        table=table,
        batson=table[0],
        nu_plus_bound=table[len(back_profile) - 1],
        main=main,
        upsilon_bound=abs(sigma // 2 - upsilon_value),
        stable=stable,
        stable_witness=stable_witness,
        final_gamma4_lower=max(candidates),
        side=side,
    )


def report(
    expr: KnotExpression,
    horizon: int | None = None,
    profile_of: Callable[[KnotExpression], tuple[int, ...]] | None = None,
) -> BoundReport:
    """Full bound report; ``horizon`` enables the stable bound over n <= horizon.

    Every torsion profile comes from ``profile_of`` (by default ``vi_expr``
    at the default genus cap; the CLI passes its cache).  The mirror profile
    of ``expr`` is computed once and serves both the per-index table and the
    ``n = 1`` row of the stable bound.  This is the one derivation of every
    bound that reads a profile; callers read its fields.
    """
    if horizon is not None and horizon < 1:
        raise ValueError("horizon must be at least 1")
    if profile_of is None:  # looked up per call, so a wrapped vi_expr is seen
        profile_of = vi_expr
    back_expr = mirror(expr)
    back_profile = profile_of(back_expr)
    sigma = signature_expr(expr)
    stable = witness = None
    if horizon is not None:
        _, estimate = omega_table(
            expr,
            horizon,
            lambda e: back_profile if e == back_expr else profile_of(e),
        )
        stable = sigma // 2 - estimate.value
        witness = estimate.witness
    return _assemble(
        sigma=sigma,
        back_profile=back_profile,
        upsilon_value=upsilon_expr(expr),
        stable=stable,
        stable_witness=witness,
        side="as-given",
    )


def thin_bounds(tau: int, sigma: int) -> BoundReport:
    """Bound report for a Floer-thin knot given its tau and signature.

    Thin knots have the torsion profile of a two-strand torus knot: the side
    with ``tau >= 0`` carries the profile of ``T(2, 2 tau + 1)``, which
    ``vi_expr`` computes from the semigroup store (``T(2, 1)`` is the
    unknot), and its mirror a trivial one.  Both orientations of the
    headline bound are evaluated and the stronger side is reported
    (``side`` records which).
    Upsilon for these knots is ``-tau``, making the upsilon bound
    ``|sigma/2 + tau|`` — zero for quasi-alternating knots, where
    ``sigma = -2 tau``.
    """
    if tau < 0:
        raise ValueError("tau must be non-negative; mirror the knot first")
    if sigma % 2 != 0:
        raise ValueError("signature must be even")
    model = vi_expr(parse(f"T(2,{2 * tau + 1})"))
    upsilon_value = -tau
    plain = _assemble(sigma, (0,), upsilon_value, None, None, "as-given")
    flipped = _assemble(-sigma, model, -upsilon_value, None, None, "mirrored")
    return flipped if flipped.main > plain.main else plain


# ---------------------------------------------------------------------------
# Obstruction grids
# ---------------------------------------------------------------------------


def _grid(n_max: int) -> Iterable[tuple[int, int]]:
    for n in range(1, n_max + 1, 2):
        for k in range(-2 * n, 1):
            yield n, k


def _scan(
    back_profile: tuple[int, ...],
    lhs_flat: int,
    rhs_flat: int,
    cells: Iterable[tuple[int, int]],
) -> ObstructionOutcome:
    """Shared grid scan: a cell ``(n, k)`` excludes when the correction term
    ``d = d_from_profile(back_profile, n, k mod n)`` of the mirror satisfies
    ``4 d > lhs_flat - rhs_flat + n - 1 + 4 (n + k)^2 / n``."""
    for n, k in cells:
        d = d_from_profile(back_profile, n, k % n)
        if 4 * d > lhs_flat - rhs_flat + n - 1 + Fraction(4 * (n + k) ** 2, n):
            return ObstructionOutcome(feasible=False, witness=(n, k))
    return ObstructionOutcome(feasible=True)


def euler_obstruction(
    expr: KnotExpression, h: int, e: int, n_max: int
) -> ObstructionOutcome:
    """Can a surface with first Betti number h and normal Euler number e span?

    An ``excluded`` outcome certifies the pair ``(h, e)`` is impossible for
    the given knot.
    """
    if e % 2 != 0:
        raise OddEulerNumberError(f"normal Euler number must be even, got {e}")
    if h < 0:
        raise ValueError("first Betti number must be non-negative")
    back = vi_expr(mirror(expr))
    return _scan(back, 2 * h, e, _grid(n_max))


def genus_obstruction(expr: KnotExpression, h: int, n_max: int) -> ObstructionOutcome:
    """Euler-number-free obstruction: ``excluded`` certifies gamma4 > h."""
    if h < 0:
        raise ValueError("first Betti number must be non-negative")
    back = vi_expr(mirror(expr))
    sigma = signature_expr(expr)
    return _scan(back, 4 * h, 2 * sigma, _grid(n_max))


# ---------------------------------------------------------------------------
# Stable bound
# ---------------------------------------------------------------------------


def omega_table(
    expr: KnotExpression,
    horizon: int,
    profile_of: Callable[[KnotExpression], tuple[int, ...]] | None = None,
) -> tuple[list[tuple[int, int, Fraction, Fraction]], OmegaEstimate]:
    """Rows ``(n, t(n E), t(n E)/n, running minimum)`` for ``1 <= n <= horizon``.

    Also returns the least ratio with the first ``n`` that attains it.  This
    is the one loop over multiples: ``omega_upper``, the stable bound of
    ``report`` and the CLI's ``omega`` table all read it.  ``t(n E)`` is read
    off ``profile_of(mirror(n E))`` (by default ``vi_expr``; the CLI passes
    its cache).  A horizon below 1 raises ``ValueError``.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if profile_of is None:  # looked up per call, so a wrapped vi_expr is seen
        profile_of = vi_expr
    rows = []
    best: Fraction | None = None
    witness = 1
    for n in range(1, horizon + 1):
        t = t_from_profile(profile_of(mirror(multiply(expr, n))))
        ratio = Fraction(t, n)
        if best is None or ratio < best:
            best, witness = ratio, n
        rows.append((n, t, ratio, best))
    return rows, OmegaEstimate(value=best, witness=witness)


def omega_upper(expr: KnotExpression, horizon: int) -> OmegaEstimate:
    """Least ``t(n * expr)/n`` over ``1 <= n <= horizon``, read from ``omega_table``.

    The limit of this ratio exists and equals its infimum, so every value is
    an upper bound for the limit; larger horizons can only improve it.  A
    horizon below 1 raises ``ValueError``.
    """
    return omega_table(expr, horizon)[1]
