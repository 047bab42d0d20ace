"""Closed-form torsion coefficients for differences of positive torus-knot sums.

For a knot ``A # -B`` where both ``A`` and ``B`` are (formal) connected sums
of positive torus knots, the minimal filtration level ``nu_plus_v`` at which
the level-``v`` truncated homology tower reaches a given height admits a
closed form in terms of the enumerating functions of the two semigroups:

    nu_plus_v(A, B, v) = max(0, max_{0 <= k <= g_B} {
        g_A - g_B + Gamma_B(k) - Gamma_A(k + v) })

Inverting it in ``v`` recovers the full torsion profile ``V_0, V_1, ...``
without ever building a chain complex.

The router in this module decides, per expression, when that formula is
trustworthy.  Three situations qualify:

* one side is empty — then the formula degenerates to reading off the
  torsion profile of the other side, and only that profile matters.  For a
  connected sum of L-space knots it is an infimal convolution of the
  factors' profiles, so the side folds to one formal semigroup by a
  min-plus convolution of their counting functions.  The fold never builds
  a complex, but a side of several factors still obeys the genus cap;
* both sides are single two-generator semigroups — genuine torus-knot
  staircases, the case the formula is stated for;
* ``n`` identical copies of an adjacent-parameter knot ``T(p, p+1)`` stand
  in for the single knot ``T(p, pn+1)`` on either side — the substitution
  preserves the two-sided answer, not just the one-sided profile.

A side made of several *different* staircases is another matter: replacing
its tensor product by the staircase of a recovered formal semigroup keeps
the profile but not the underlying filtered structure, and the two-sided
formula then provably returns wrong values for some expressions.  Such
expressions are routed to the direct tensor computation instead, and the
test suite cross-checks the closed form against that oracle wherever both
apply; any disagreement is a hard failure, never a silent fallback.

The adjacent-parameter substitution is stronger than the fold: it holds
at the level of the underlying filtered complex (the power's complex
splits as the collapsed staircase plus acyclic pieces), so the direct
tensor path applies it inside arbitrary tensor contexts to keep generator
counts down, and reads the profile off one F_2 rank test per level
(``cfk.vi_by_rank``).  ``vi_tensor_oracle`` deliberately does neither —
it builds one staircase per copy and runs graded Smith normal form at
every level (``cfk.vi_sequence``).  The two are independent algorithms,
and the oracle is the cross-check for every shortcut above.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from . import _kernels
from .cfk import (
    BifilteredComplex,
    dual,
    staircase_exponents,
    staircase_from_semigroup,
    tensor,
    vi_by_rank,
    vi_sequence,
)
from .expressions import KnotExpression, mirror, split_parts
from .semigroups import UNKNOT_SEMIGROUP, FormalSemigroup
from .torus import representative

DEFAULT_GENUS_CAP = 60

#: Hard ceiling on the number of generators the direct tensor path may
#: allocate.  The genus cap alone does not bound the product of staircase
#: sizes (many small factors multiply up), and past this point the
#: elimination kernels would run for hours; refusing with a clear error is
#: more honest than hanging.
COMPLEX_GENERATOR_LIMIT = 40_000


class UnsupportedExpressionError(ValueError):
    """The expression is outside the supported computation budget."""


@dataclass(frozen=True)
class VRoute:
    """How the torsion profile of an expression will be computed.

    ``kind`` is one of:

    * ``"closed-form"`` — the sides reduced to the formal semigroups
      ``positive`` / ``negative`` and the two-sided enumerating-function
      formula applies: one side is trivial and the other folds by infimal
      convolution, or both sides are single two-generator semigroups (a
      lone summand, or ``n`` copies of ``T(p, p+1)`` collapsed to
      ``T(p, pn+1)``).  No complex is built.
    * ``"complex"`` — several staircases (different knots, or copies of one
      knot that no adjacent-power collapse removes) share a side while the
      other side is nonempty; direct tensor computation over ``genus`` total
      genus.
    * ``"unsupported"`` — the work would exceed the genus cap or the
      generator limit; ``reason`` says which.
    """

    kind: str
    positive: FormalSemigroup | None = None
    negative: FormalSemigroup | None = None
    genus: int | None = None
    reason: str = ""


def nu_plus_v(a: FormalSemigroup, b: FormalSemigroup, v: int) -> int:
    """Minimal index at which the level-``v`` torsion of ``A # -B`` vanishes.

    ``a`` describes the positive summand and ``b`` the summand being
    mirrored.  Restricting ``k`` to ``0..genus(b)`` is enough because the
    enumerating function of ``b`` grows at most as fast as that of ``a``
    shifted by ``v``.
    """
    if v < 0:
        raise ValueError("level must be non-negative")
    ga, gb = a.genus, b.genus
    best = max(b.enumerating(k) - a.enumerating(k + v) for k in range(gb + 1))
    return max(0, ga - gb + best)


def _nu_profile(a: FormalSemigroup, b: FormalSemigroup) -> np.ndarray:
    """Vector of ``nu_plus_v(a, b, v)`` for ``v = 0 .. V_0`` (ends at 0).

    Only the levels up to the first zero are evaluated.  That index comes
    straight from the counting function of ``a``: ``Gamma_A(j) >= c`` iff
    ``j >= #{s in A : s < c}``, so every term ``g_A - g_B + Gamma_B(k) -
    Gamma_A(k + v)`` is at most 0 iff ``v >= #{s in A : s < Gamma_B(k) +
    g_A - g_B} - k``, and the first zero is the largest of these bounds
    (at least 0, and at most ``g_A`` because ``Gamma_B(k) <= k + g_B``).
    ``nu_plus_v`` does not increase in ``v``, so the grid ends there; a
    grid whose last value is not its only zero is a bug and raises
    ``AssertionError``.  ``max_gap_profile`` reads only the run starts of
    ``Gamma_B`` (see its docstring for why that is exact).
    """
    ga, gb = a.genus, b.genus
    gam_a = a.enumerating_prefix(gb + ga + 1)
    gam_b = b.enumerating_prefix(gb + 1)
    targets = gam_b + (ga - gb)
    below = np.where(
        targets >= 2 * ga, targets - ga, np.searchsorted(gam_a[:ga], targets)
    )
    first_zero = max(0, int((below - np.arange(gb + 1)).max()))
    raw = _kernels.max_gap_profile(
        gam_a[: gb + first_zero + 1], gam_b, first_zero + 1
    )
    nus = np.maximum(raw + (ga - gb), 0)
    if nus[-1] != 0 or (first_zero > 0 and nus[-2] <= 0):
        raise AssertionError(
            f"closed-form grid does not end at its first zero ({first_zero})"
        )
    return nus


def _invert_profile(nus: np.ndarray) -> tuple[int, ...]:
    """Recover ``V_m = min{v : nu_plus_v <= m}`` from a profile ending at 0.

    ``nu_plus`` does not increase, so ``V_m = v`` exactly for the ``m`` in
    ``[nus[v], nus[v - 1])``, reading ``nus[-1]`` as ``nus[0] + 1``.  Each
    value is one int object repeated over its span, so a long profile holds
    one int object per level ``v``, not one per entry.
    """
    upper = np.concatenate(([nus[0] + 1], nus[:-1]))
    spans = (upper - nus)[::-1].tolist()
    return tuple(chain.from_iterable(map(repeat, range(len(nus) - 1, -1, -1), spans)))


def vi_from_nuplus(a: FormalSemigroup, b: FormalSemigroup) -> tuple[int, ...]:
    """Torsion profile of ``A # -B`` by inverting the closed form."""
    return _invert_profile(_nu_profile(a, b))


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------


def _part_factors(part: KnotExpression) -> list[FormalSemigroup]:
    """One semigroup factor per summand, collapsing adjacent-parameter powers.

    ``n`` copies of ``T(p, p+1)`` contribute exactly like the single knot
    ``T(p, pn+1)`` — on either side of a difference — so such powers
    collapse to one factor.
    """
    factors = []
    for knot, count in part:
        if knot.q == knot.p + 1:
            rep = representative(count, knot.p)
            factors.append(FormalSemigroup.from_generators(rep.p, rep.q))
        else:
            factors.extend(
                [FormalSemigroup.from_generators(knot.p, knot.q)] * count
            )
    factors.sort(key=lambda s: s.genus, reverse=True)
    return factors


def _factor_count(part: KnotExpression) -> int:
    """How many factors ``_part_factors`` returns, counted without building them."""
    return sum(1 if knot.q == knot.p + 1 else count for knot, count in part)


def _infimal_fold(factors: list[FormalSemigroup]) -> FormalSemigroup:
    """The formal semigroup with the torsion profile of the sum of ``factors``.

    For a connected sum of L-space knots the counting function
    ``I(m) = #{s in S : s < m}`` is the infimal convolution of the factors'
    (Borodzik–Livingston, arXiv:1304.1062): ``I(m) = min_i (I_A(i) +
    I_B(m - i))`` with genus ``g_A + g_B``, and the members below ``2g`` are
    the ``m`` with ``I(m + 1) > I(m)``.  Past its conductor a factor's
    ``I`` rises at every step, so no larger ``i`` can lower the minimum.
    The filtered structure is lost, so this holds only for one-sided sums.
    """
    if len(factors) == 1:  # a lone factor may have genus 10^5: no O(g^2) pass
        return factors[0]
    genus = sum(s.genus for s in factors)
    m = np.arange(2 * genus + 1)
    acc = m  # the unknot's counting function
    for s in factors:
        step = np.searchsorted(s.enumerating_prefix(2 * genus - s.genus), m)
        folded = acc.copy()
        for i in range(1, min(s.conductor, 2 * genus) + 1):
            np.minimum(folded[i:], step[i] + acc[: acc.size - i], out=folded[i:])
        acc = folded
    members = np.flatnonzero(np.diff(acc) > 0)
    if members.size != genus:
        raise AssertionError(
            f"infimal fold has {members.size} members below 2g, not g = {genus}"
        )
    return FormalSemigroup(members)


def _tensor_generator_count(expr: KnotExpression) -> int:
    """Number of generators the direct tensor path would allocate."""
    positive, negative = split_parts(expr)
    count = 1
    for sg in _part_factors(positive) + _part_factors(negative):
        count *= len(staircase_exponents(sg))
    return count


def route(expr: KnotExpression, genus_cap: int = DEFAULT_GENUS_CAP) -> VRoute:
    """Decide how to compute the torsion profile of ``expr``.

    Budgets are checked from the term counts before any factor is built.
    """
    positive, negative = split_parts(expr)
    sides = (_factor_count(positive), _factor_count(negative))
    if min(sides) > 0 and max(sides) > 1:
        return _complex_route(expr, positive, negative, genus_cap)
    part = positive if sides[0] else negative
    if max(sides) > 1 and part.total_genus > genus_cap:
        # an adjacent power has the genus of its representative, so this is
        # the genus of the reduced side
        return VRoute(
            kind="unsupported",
            reason=f"reduced genus {part.total_genus} exceeds the cap {genus_cap}",
        )
    return VRoute(
        kind="closed-form",
        positive=_infimal_fold(_part_factors(positive)),
        negative=_infimal_fold(_part_factors(negative)),
    )


def _generator_excess(expr: KnotExpression) -> str:
    """Why the tensor complex of ``expr`` is too big, or ``""`` if it is not."""
    generators = _tensor_generator_count(expr)
    if generators > COMPLEX_GENERATOR_LIMIT:
        return (
            f"the tensor complex would need {generators} "
            f"generators (limit {COMPLEX_GENERATOR_LIMIT})"
        )
    return ""


def _complex_route(
    expr: KnotExpression,
    positive: KnotExpression,
    negative: KnotExpression,
    genus_cap: int,
) -> VRoute:
    """Route to the direct tensor computation, budget permitting."""
    preface = "several staircases share a side"
    total = positive.total_genus + negative.total_genus
    if total > genus_cap:
        return VRoute(
            kind="unsupported",
            reason=(
                f"{preface}; total genus {total} exceeds the cap {genus_cap}"
            ),
        )
    excess = _generator_excess(expr)
    if excess:
        return VRoute(kind="unsupported", reason=f"{preface}; {excess}")
    return VRoute(kind="complex", genus=total, reason=preface)


def _fold(pieces: list[BifilteredComplex]) -> BifilteredComplex:
    """Tensor the pieces left to right, longest first; the unknot if none."""
    if not pieces:
        return staircase_from_semigroup(UNKNOT_SEMIGROUP)
    pieces.sort(key=len, reverse=True)
    acc = pieces[0]
    for nxt in pieces[1:]:
        acc = tensor(acc, nxt)
    return acc


def tensor_complex(expr: KnotExpression) -> BifilteredComplex:
    """The tensor of staircases and duals representing the expression.

    Adjacent-parameter powers collapse to their representative staircase
    first; the substitution is valid inside tensor products, and it keeps
    the generator count in line with what the route guard promised.  An
    empty expression yields the one-generator unknot complex.
    """
    positive, negative = split_parts(expr)
    pieces = [staircase_from_semigroup(s) for s in _part_factors(positive)]
    pieces += [
        dual(staircase_from_semigroup(s)) for s in _part_factors(negative)
    ]
    return _fold(pieces)


def vi_tensor_oracle(expr: KnotExpression) -> tuple[int, ...]:
    """Torsion profile from the raw tensor, one staircase per copy.

    No power collapse, no reductions, and graded Smith normal form at every
    level where the direct path runs rank tests: this is the independent
    oracle the closed form and the direct path are tested against.  It
    imposes no size guard, so callers choose their own budgets.
    """
    positive, negative = split_parts(expr)
    pieces: list[BifilteredComplex] = []
    for knot, count in positive:
        sg = FormalSemigroup.from_generators(knot.p, knot.q)
        pieces.extend([staircase_from_semigroup(sg)] * count)
    for knot, count in negative:
        sg = FormalSemigroup.from_generators(knot.p, knot.q)
        pieces.extend([dual(staircase_from_semigroup(sg))] * count)
    return vi_sequence(_fold(pieces))


def vi_expr(
    expr: KnotExpression, genus_cap: int = DEFAULT_GENUS_CAP
) -> tuple[int, ...]:
    """Torsion profile ``V_0, V_1, ..., 0`` of a torus-knot expression."""
    plan = route(expr, genus_cap)
    if plan.kind == "closed-form":
        return vi_from_nuplus(plan.positive, plan.negative)
    if plan.kind == "complex":
        return vi_by_rank(tensor_complex(expr))
    raise UnsupportedExpressionError(plan.reason)


def profile_at(values: tuple[int, ...], index: int) -> int:
    """``V_index`` of a torsion profile; indices past its end count as zero."""
    return values[index] if index < len(values) else 0


def t_from_profile(profile: tuple[int, ...]) -> int:
    """``min_m { m + 2 V_m }`` over a torsion profile ``V_0, ..., 0``.

    The minimum is reached within the profile: past its end every ``V_m``
    is zero and ``m`` alone already exceeds the last candidate.
    """
    return min(m + 2 * v for m, v in enumerate(profile))


def t_invariant(expr: KnotExpression) -> int:
    """The packaged invariant ``min_m { m + 2 V_m(mirror) }``."""
    return t_from_profile(vi_expr(mirror(expr)))


def hom_wu_nu_plus(expr: KnotExpression) -> int:
    """First index where the torsion profile of ``expr`` reaches zero."""
    return len(vi_expr(expr)) - 1
