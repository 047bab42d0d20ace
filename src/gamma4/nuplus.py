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
  torsion profile of the other side, and an iterated staircase reduction of
  that side (tensor two staircases, recover a formal semigroup from the
  resulting profile, repeat) is exact by construction, because only the
  profile matters;
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

The adjacent-parameter substitution is stronger than the iterated
reduction: it holds at the level of the underlying filtered complex (the
power's complex splits as the collapsed staircase plus acyclic pieces), so
the direct tensor path applies it inside arbitrary tensor contexts to keep
generator counts down.  ``vi_tensor_oracle`` deliberately does not — it
builds one staircase per copy and serves as the independent cross-check
for every shortcut above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .cfk import (
    BifilteredComplex,
    dual,
    staircase_exponents,
    staircase_from_semigroup,
    tensor,
    vi_sequence,
)
from .expressions import KnotExpression, mirror, split_parts
from .semigroups import (
    UNKNOT_SEMIGROUP,
    FormalSemigroup,
    MalformedSequenceError,
)
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
      formula applies: one side is trivial, or both sides are single
      two-generator semigroups (a lone summand, or ``n`` copies of
      ``T(p, p+1)`` collapsed to ``T(p, pn+1)``).
    * ``"complex"`` — several different staircases share a side while the
      other side is nonempty, or a one-sided reduction failed its
      round-trip check; direct tensor computation over ``genus`` total
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
    """Vector of ``nu_plus_v(a, b, v)`` for ``v = 0 .. V_0`` (ends at 0)."""
    ga, gb = a.genus, b.genus
    v_max = ga  # the profile provably vanishes for v >= genus(a)
    gam_a = a.enumerating_prefix(gb + v_max + 1)
    gam_b = b.enumerating_prefix(gb + 1)
    raw = _kernels.max_gap_profile(gam_a, gam_b, v_max + 1)
    nus = np.maximum(raw + (ga - gb), 0)
    first_zero = int(np.argmax(nus == 0))
    return nus[: first_zero + 1]


def _invert_profile(nus: np.ndarray) -> tuple[int, ...]:
    """Recover ``V_m = min{v : nu_plus_v <= m}`` from a profile ending at 0."""
    m_max = int(nus[0])
    values = [0] * (m_max + 1)
    v = 0
    for m in range(m_max, -1, -1):
        while nus[v] > m:
            v += 1
        values[m] = v
    return tuple(values)


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


def _reduce_side(
    factors: list[FormalSemigroup], genus_cap: int
) -> tuple[FormalSemigroup | None, str]:
    """Collapse one side of a difference to a single formal semigroup.

    Only valid when the other side is empty: the iterated reduction
    preserves the torsion profile (each step is round-trip checked) but not
    the filtered structure a two-sided computation would need.  Returns
    ``(semigroup, "")`` or ``(None, reason)``; the reduction is subject to
    ``genus_cap``, and a round-trip failure is reported so the router can
    fall back to the direct computation.
    """
    if not factors:
        return UNKNOT_SEMIGROUP, ""
    if len(factors) == 1:
        return factors[0], ""
    total_genus = sum(s.genus for s in factors)
    if total_genus > genus_cap:
        return None, f"reduced genus {total_genus} exceeds the cap {genus_cap}"
    current = factors[0]
    for nxt in factors[1:]:
        product = tensor(
            staircase_from_semigroup(current), staircase_from_semigroup(nxt)
        )
        profile = vi_sequence(product)
        try:
            reduced = FormalSemigroup.from_vi(profile)
        except MalformedSequenceError:
            return None, "iterated reduction produced no formal semigroup"
        if reduced.vi != profile:
            return None, "iterated reduction round-trip mismatch"
        current = reduced
    return current, ""


def _tensor_generator_count(expr: KnotExpression) -> int:
    """Number of generators the direct tensor path would allocate."""
    positive, negative = split_parts(expr)
    count = 1
    for sg in _part_factors(positive) + _part_factors(negative):
        count *= len(staircase_exponents(sg))
    return count


def route(expr: KnotExpression, genus_cap: int = DEFAULT_GENUS_CAP) -> VRoute:
    """Decide how to compute the torsion profile of ``expr``."""
    positive, negative = split_parts(expr)
    pos_factors = _part_factors(positive)
    neg_factors = _part_factors(negative)

    if len(pos_factors) <= 1 and len(neg_factors) <= 1:
        sg_pos = pos_factors[0] if pos_factors else UNKNOT_SEMIGROUP
        sg_neg = neg_factors[0] if neg_factors else UNKNOT_SEMIGROUP
        return VRoute(kind="closed-form", positive=sg_pos, negative=sg_neg)

    if not pos_factors or not neg_factors:
        factors = pos_factors or neg_factors
        reduced, why = _reduce_side(factors, genus_cap)
        if reduced is not None:
            if pos_factors:
                return VRoute(
                    kind="closed-form",
                    positive=reduced,
                    negative=UNKNOT_SEMIGROUP,
                )
            return VRoute(
                kind="closed-form",
                positive=UNKNOT_SEMIGROUP,
                negative=reduced,
            )
        if "cap" in why:
            return VRoute(kind="unsupported", reason=why)
        return _complex_route(
            expr, positive, negative, genus_cap, preface=why
        )

    return _complex_route(
        expr,
        positive,
        negative,
        genus_cap,
        preface="several different staircases share a side",
    )


def _complex_route(
    expr: KnotExpression,
    positive: KnotExpression,
    negative: KnotExpression,
    genus_cap: int,
    preface: str,
) -> VRoute:
    """Route to the direct tensor computation, budget permitting."""
    total = positive.total_genus + negative.total_genus
    if total > genus_cap:
        return VRoute(
            kind="unsupported",
            reason=(
                f"{preface}; total genus {total} exceeds the cap {genus_cap}"
            ),
        )
    generators = _tensor_generator_count(expr)
    if generators > COMPLEX_GENERATOR_LIMIT:
        return VRoute(
            kind="unsupported",
            reason=(
                f"{preface}; the tensor complex would need {generators} "
                f"generators (limit {COMPLEX_GENERATOR_LIMIT})"
            ),
        )
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

    No power collapse, no reductions: this is the independent oracle the
    closed form and the shortcut-laden direct path are tested against.  It
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
        return vi_sequence(tensor_complex(expr))
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


def t_invariant(
    expr: KnotExpression, genus_cap: int = DEFAULT_GENUS_CAP
) -> int:
    """The packaged invariant ``min_m { m + 2 V_m(mirror) }``."""
    return t_from_profile(vi_expr(mirror(expr), genus_cap))


def hom_wu_nu_plus(
    expr: KnotExpression, genus_cap: int = DEFAULT_GENUS_CAP
) -> int:
    """First index where the torsion profile of ``expr`` reaches zero."""
    return len(vi_expr(expr, genus_cap)) - 1
