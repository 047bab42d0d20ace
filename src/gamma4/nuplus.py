"""Closed-form torsion coefficients for differences of positive torus-knot sums.

For a knot ``A # -B`` where both ``A`` and ``B`` are (formal) connected sums
of positive torus knots, the minimal filtration level ``nu_plus_v`` at which
the level-``v`` truncated homology tower reaches a given height admits a
closed form in terms of the enumerating functions of the two semigroups:

    nu_plus_v(A, B, v) = max(0, max_{0 <= k <= g_B} {
        g_A - g_B + Gamma_B(k) - Gamma_A(k + v) })

Inverting it in ``v`` recovers the full torsion profile ``V_0, V_1, ...``
without ever building a chain complex.

The profile can also be read without the grid and without the inversion.
Write ``I_X(y)`` for the number of members of X below ``y`` (0 for ``y <=
0``), the counting-function view of Borodzik–Livingston
(arXiv:1304.1062), and ``c = g_A - g_B``.  Since ``Gamma_A(j) >= t`` iff
``j >= I_A(t)``, ``nu_plus_v <= m`` holds iff ``v >= I_A(Gamma_B(k) + c -
m) - k`` for every k, so

    V_m = max(0, max_{s in S} I_A(s + c - m) - I_B(s)),  m = 0 .. nu_plus_0,

where S is the set of run starts of B's members: inside a run of
consecutive members ``s`` and ``I_B(s)`` rise by one per step and ``I_A``
by at most one, so a run's maximum is at its start.  On the rows ``x = c -
m`` of one residue class mod ``p``, where ``A + p`` lies inside A (the
multiplicity when one pass over the members confirms it, otherwise the
conductor, a period of every formal semigroup), the matrix ``I_A(s + x) -
I_B(s)`` is inverse Monge: shifting a window right by a multiple of ``p``
maps A's members into members, so the count of members in a window of that
length never falls as it moves right.  Its row maxima then come from a
divide and conquer that reads far fewer cells than the grid
(``_kernels.profile_by_row_maxima``).  The grid has no such structure in
the index ``v``, so ``nu_profile`` keeps the full grid.
``vi_from_nuplus`` crosses over at one grid block: a grid of at most
``_kernels.GRID_BLOCK_CELLS`` cells (run starts times levels ``0 ..
V_0``) runs as ``nu_profile`` and its inversion, where the divide and
conquer's fixed costs would dominate, and so does a larger grid that has
no more cells than the divide and conquer's first round, which reads the
first and last row of each residue class in full (``V_0 + 1 <= 2
min(p, nu_plus_0 + 1)`` with ``p`` the multiplicity of A: few rows per
class).  Every other grid runs as row maxima.  ``nu_profile`` also
stays the reference of the tests and the index-grid input of ``verify``.

The router in this module, ``route``, decides per expression when that
formula is trustworthy.  It decides from the two class lists of
``_classes`` and the genus cap alone, and ``vi_expr`` then builds what it
decided, so a caller that reads only the decision builds nothing.  The
build reads the same lists again, and ``_classes`` holds the lists of the
last expression, so deciding and building make them once.  Three
situations qualify:

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
splits as the collapsed staircase plus acyclic pieces).  It happens in
one place, ``_classes``, which returns both sides' factor classes as two
tuples, built in one pass over the terms.  The router, the generator
budget, the closed-form build and the direct tensor path all read them, so
the substitution applies inside any tensor product; the tuples of the
last expression are held, so these readers share one build.  The direct
path reads the profile off one F_2 rank test per level
(``cfk.vi_by_rank``).  ``vi_tensor_oracle`` deliberately does neither — it
tensors one staircase per copy of each term as written and runs graded
Smith normal form at every level (``cfk.vi_sequence``).  The two are
independent algorithms, and the oracle is the cross-check for every
shortcut above.

Every knot's two-generator semigroup comes from one per-process store,
``_semigroup``, which the closed-form build of ``vi_expr``, the generator
budget and the piece cache all read: a semigroup is frozen and its members
read-only, so each knot's is built once and shared.  The store is bounded
by the members it holds, ``SEMIGROUP_STORE_MEMBERS`` over all its entries
(about 1 MB of int64), not by its entry count: a few genus-10^5 sides
would hold tens of MB under an entry bound.  It drops its oldest entries
first to make room, and a semigroup with more members than the bound is
returned but never held.

Both paths take their staircases and duals from one piece cache,
``_piece``, an ``lru_cache`` keyed by ``(knot, mirrored)`` and bounded by
``PIECE_CACHE_SIZE`` entries: complexes are immutable, so a piece is
built and checked once and shared by every tensor that uses it.  Each
tensor is one ``cfk.tensor`` call over all its pieces, keyed by its piece
keys in the order the tensor takes them, and the last one is held: when
no class collapses, the routed path and the oracle ask for the same
tensor of the same expression, and the second request builds nothing.
They share the complex only, never its homology.  Only one complex is
held, so no earlier tensor stays in memory and a repeated sweep builds
its tensors again.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from dataclasses import dataclass

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
from .expressions import KnotExpression, TorusKnot, mirror, split_parts
from .semigroups import UNKNOT_SEMIGROUP, FormalSemigroup
from .torus import representative

DEFAULT_GENUS_CAP = 60

#: Entries the piece cache ``_piece`` keeps, one staircase or dual per
#: ``(knot, mirrored)``: a family over a few knots needs two per knot.
PIECE_CACHE_SIZE = 64

#: Members the semigroup store ``_semigroup`` holds over all its entries,
#: about 1 MB of int64.
SEMIGROUP_STORE_MEMBERS = 1 << 17

#: Hard ceiling on the number of generators the direct tensor path may
#: allocate.  The genus cap alone does not bound the product of staircase
#: sizes (many small factors multiply up).  The direct path's cost is
#: quadratic in its generators, because each generator's rank-test target
#: mask spans its whole parity class: ``tensor_complex`` plus ``vi_by_rank``
#: take 0.11 + 0.53 s at 42 875 generators and 0.23 + 1.17 s (312 MB peak)
#: at 78 125 on a 2-core VM, 12.2 s and 2.3 GB at 234 375, and run out of
#: memory at 390 625.  Past this point an expression is refused with a
#: clear error.
COMPLEX_GENERATOR_LIMIT = 40_000


class UnsupportedExpressionError(ValueError):
    """The expression is outside the supported computation budget."""


@dataclass(frozen=True)
class VRoute:
    """How the torsion profile of an expression will be computed.

    A route is a decision only: it holds no semigroup and no complex, and
    ``vi_expr`` builds what it names.  ``kind`` is one of:

    * ``"closed-form"`` — the two-sided enumerating-function formula
      applies: one side is trivial and the other folds by infimal
      convolution, or each side is a single two-generator semigroup (a
      lone summand, or ``n`` copies of ``T(p, p+1)`` collapsed to
      ``T(p, pn+1)``).  No complex is built.
    * ``"complex"`` — several staircases (different knots, or copies of one
      knot that no adjacent-power collapse removes) share a side while the
      other side is nonempty; direct tensor computation.
    * ``"unsupported"`` — the work would exceed the genus cap or the
      generator limit.

    ``reason`` says why a route is ``"complex"`` or ``"unsupported"``, and
    is empty for a closed form.
    """

    kind: str
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


def _first_zero(a: FormalSemigroup, b: FormalSemigroup) -> int:
    """The first zero of ``nu_plus``, that is ``V_0``.

    ``Gamma_A(j) >= c`` iff ``j >= I_A(c)``, where ``I_A(c)`` counts the
    members of ``a`` below ``c``, so every term ``g_A - g_B + Gamma_B(k) -
    Gamma_A(k + v)`` is at most 0 iff ``v >= I_A(Gamma_B(k) + g_A - g_B) -
    k``, and the first zero is the largest of these bounds over ``k = 0 ..
    g_B``, at least 0.  Only the ``k`` with ``0 < Gamma_B(k) + g_A - g_B <
    2 g_A`` are read: below that window ``I_A`` is 0, and from its top on
    ``I_A(y) = y - g_A`` while ``Gamma_B(k) <= k + g_B``, so every bound
    outside it is at most 0.  ``Gamma_B`` increases, so the window is the
    ``k`` from ``I_B(1 - g_A + g_B)`` to below ``I_B(g_A + g_B)``, and a
    trivial direction reads none of B's members.
    """
    ga, gb = a.genus, b.genus
    shift = ga - gb
    lo = b.count_below(1 - shift)
    hi = min(b.count_below(2 * ga - shift), gb + 1)
    if lo >= hi:
        return 0
    targets = b.enumerating_prefix(hi)[lo:] + shift
    below = np.searchsorted(a.members, targets)
    return max(0, int((below - np.arange(lo, hi)).max()))


def _nu_grid(
    a: FormalSemigroup, b: FormalSemigroup, gam_b: np.ndarray, first_zero: int
) -> np.ndarray:
    """``nu_plus_v`` for ``v = 0 .. first_zero`` by the grid ``max_gap_profile``."""
    ga, gb = a.genus, b.genus
    raw = _kernels.max_gap_profile(
        a.enumerating_prefix(gb + first_zero + 1), gam_b, first_zero + 1
    )
    nus = np.maximum(raw + (ga - gb), 0)
    if nus[-1] != 0 or (first_zero > 0 and nus[-2] <= 0):
        raise AssertionError(
            f"closed-form grid does not end at its first zero ({first_zero})"
        )
    return nus


def nu_profile(a: FormalSemigroup, b: FormalSemigroup) -> np.ndarray:
    """Vector of ``nu_plus_v(a, b, v)`` for ``v = 0 .. V_0`` (ends at 0).

    Only the levels up to the first zero are evaluated; that index comes
    straight from the counting function of ``a`` (``_first_zero``).
    ``nu_plus_v`` does not increase in ``v``, so the grid ends there; a
    grid whose last value is not its only zero is a bug and raises
    ``AssertionError``.  ``max_gap_profile`` reads only the run starts of
    ``Gamma_B`` (see its docstring for why that is exact).
    """
    return _nu_grid(a, b, b.enumerating_prefix(b.genus + 1), _first_zero(a, b))


def _invert_profile(nus: np.ndarray) -> tuple[int, ...]:
    """Recover ``V_m = min{v : nu_plus_v <= m}`` from a profile ending at 0.

    ``nu_plus`` does not increase, so ``V_m = v`` exactly for the ``m`` in
    ``[nus[v], nus[v - 1])``, reading ``nus[-1]`` as ``nus[0] + 1``.  Each
    value is one int object repeated over its span, so a long profile holds
    one int object per level ``v``, not one per entry: an object array
    repeats references, and its ``tolist`` hands them back as they are.
    """
    upper = np.concatenate(([nus[0] + 1], nus[:-1]))
    return _repeat_levels(upper - nus)


def _repeat_levels(spans: np.ndarray) -> tuple[int, ...]:
    """The profile with ``spans[v]`` entries ``v``, largest ``v`` first."""
    levels = np.array(range(len(spans) - 1, -1, -1), dtype=object)
    return tuple(levels.repeat(spans[::-1]).tolist())


def vi_from_nuplus(a: FormalSemigroup, b: FormalSemigroup) -> tuple[int, ...]:
    """Torsion profile of ``A # -B`` from the closed form.

    A first zero at ``v = 0`` is the profile ``(0,)``, found without
    reading ``Gamma_B``.  Otherwise the grid
    (run starts of ``Gamma_B`` times levels ``0 .. V_0``) runs as
    ``nu_profile`` and its inversion when it has at most
    ``GRID_BLOCK_CELLS`` cells, or no more than the first round of the row
    maxima reads: the first and last of the ``nu_plus_0 + 1`` rows ``m`` in
    each residue class modulo the multiplicity of ``a``, over every run
    start.  Otherwise ``profile_by_row_maxima`` runs (see the module
    docstring).  Row maxima that do not start at ``V_0`` or do not end at
    their only zero are a bug and raise ``AssertionError``.
    """
    first_zero = _first_zero(a, b)
    if first_zero == 0:
        return (0,)
    ga, gb = a.genus, b.genus
    gam_b = b.enumerating_prefix(gb + 1)
    runs = 1 + int(np.count_nonzero(gam_b[1:] != gam_b[:-1] + 1))
    if runs * (first_zero + 1) <= _kernels.GRID_BLOCK_CELLS:
        return _invert_profile(_nu_grid(a, b, gam_b, first_zero))
    nu_0 = max(0, ga - gb + int((gam_b - a.enumerating_prefix(gb + 1)).max()))
    if first_zero + 1 <= 2 * min(a.enumerating(1), nu_0 + 1):
        return _invert_profile(_nu_grid(a, b, gam_b, first_zero))
    values = _kernels.profile_by_row_maxima(a.members, gam_b, ga - gb, nu_0 + 1)
    if values[0] != first_zero or values[-1] != 0 or (nu_0 > 0 and values[-2] <= 0):
        raise AssertionError(
            f"row maxima do not run from V_0 = {first_zero} to their only zero"
        )
    # V_m never rises in m, so its count per level puts it in order
    spans = np.bincount(values)
    del values  # not held while the tuple is built
    return _repeat_levels(spans)


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _classes(
    expr: KnotExpression,
) -> tuple[tuple[tuple[TorusKnot, int], ...], tuple[tuple[TorusKnot, int], ...]]:
    """Both sides' factor classes ``(knot, copies)``, largest genus first.

    This is the one place where adjacent-parameter powers collapse: ``c``
    copies of ``T(p, p+1)`` become the class ``(T(p, pc+1), 1)``, because
    the power's complex splits as that staircase plus acyclic summands.
    Every other knot keeps its count.  Nothing is built: one pass over the
    terms sends each to its side (a negative coefficient to the mirrored
    one), and each side is then sorted.  The sort is stable, and
    ``tensor_fold`` keeps this order among staircases of equal length, so
    it fixes the generator numbering of ``tensor_complex``.

    The classes of the last expression are held, as immutable tuples that
    every caller shares: ``route``, the generator budget, the closed-form
    build of ``vi_expr`` and ``tensor_complex`` each read them, so a
    request builds them once.
    """
    sides: tuple[list, list] = ([], [])
    for k, c in expr.terms:
        n = abs(c)
        sides[c < 0].append((representative(n, k.p), 1) if k.q == k.p + 1 else (k, n))
    positive, negative = (
        tuple(sorted(side, key=lambda kc: kc[0].genus, reverse=True)) for side in sides
    )
    return positive, negative


class _SemigroupStore:
    """Knot semigroups by knot, oldest first, holding at most ``limit`` members.

    A semigroup is frozen and its members read-only, so every caller may
    share one.  A miss builds the semigroup and stores it, first dropping
    the oldest entries until its members fit; one with more than ``limit``
    members is returned but not held.  Distinct knots of small genus are
    few, so the bound caps the entries too: 2**17 members hold at most 946
    (every knot of genus up to 255).  The store takes no lock; the package
    runs on one thread.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.members = 0
        self.entries: dict[TorusKnot, FormalSemigroup] = {}

    def get(self, knot: TorusKnot) -> FormalSemigroup:
        held = self.entries.get(knot)
        if held is not None:
            return held
        semigroup = FormalSemigroup.from_generators(knot.p, knot.q)
        if semigroup.genus <= self.limit:
            while self.members + semigroup.genus > self.limit:
                self.members -= self.entries.pop(next(iter(self.entries))).genus
            self.entries[knot] = semigroup
            self.members += semigroup.genus
        return semigroup

    def clear(self) -> None:
        self.entries.clear()
        self.members = 0


_SEMIGROUPS = _SemigroupStore(SEMIGROUP_STORE_MEMBERS)


def _semigroup(knot: TorusKnot) -> FormalSemigroup:
    """The two-generator semigroup of ``knot``, from the semigroup store."""
    return _SEMIGROUPS.get(knot)


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
    if len(factors) <= 1:  # a lone factor may have genus 10^5: no O(g^2) pass
        return factors[0] if factors else UNKNOT_SEMIGROUP
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


def route(expr: KnotExpression, genus_cap: int = DEFAULT_GENUS_CAP) -> VRoute:
    """Decide how to compute the torsion profile of ``expr``.

    The decision reads the class lists of ``_classes`` and the genus cap
    alone, and builds nothing for a closed form: folding its semigroups is
    ``vi_expr``'s work.  The one exception is the complex branch's
    generator budget, which reads the staircase lengths of knots whose
    total genus is already within the cap.
    """
    sides = _classes(expr)
    counts = [sum(copies for _, copies in side) for side in sides]
    genera = [sum(knot.genus * copies for knot, copies in side) for side in sides]
    if min(counts) > 0 and max(counts) > 1:
        preface = "several staircases share a side"
        total = sum(genera)
        excess = (
            f"total genus {total} exceeds the cap {genus_cap}"
            if total > genus_cap
            else _generator_excess(sides)
        )
        if excess:
            return VRoute(kind="unsupported", reason=f"{preface}; {excess}")
        return VRoute(kind="complex", reason=preface)
    if max(counts) > 1 and max(genera) > genus_cap:
        # the other side is empty, so this is the genus of the reduced side
        return VRoute(
            kind="unsupported",
            reason=f"reduced genus {max(genera)} exceeds the cap {genus_cap}",
        )
    return VRoute(kind="closed-form")


def _generator_excess(sides: Iterable[Iterable[tuple[TorusKnot, int]]]) -> str:
    """Why the tensor complex of the class lists ``sides`` is too big, or ``""``.

    Each factor class contributes its staircase length ``copies`` times.
    """
    generators = 1
    for side in sides:
        for knot, copies in side:
            generators *= len(staircase_exponents(_semigroup(knot))) ** copies
    if generators > COMPLEX_GENERATOR_LIMIT:
        return (
            f"the tensor complex would need {generators} "
            f"generators (limit {COMPLEX_GENERATOR_LIMIT})"
        )
    return ""


def generator_excess(expr: KnotExpression) -> str:
    """Why the tensor complex of ``expr`` is too big, or ``""`` if it is not."""
    return _generator_excess(_classes(expr))


def tensor_fold(pieces: list[BifilteredComplex]) -> BifilteredComplex:
    """The tensor of the pieces, longest first; the unknot if none.

    One ``tensor`` call over all of them, which numbers the generators as
    the left fold would.  The order is that of a stable sorted copy, so the
    caller's list is left as it was.  ``tensor_fold([c] * n)`` is the
    ``n``-fold tensor power of ``c``; a lone piece is returned as it is.
    """
    if not pieces:
        return staircase_from_semigroup(UNKNOT_SEMIGROUP)
    return tensor(*sorted(pieces, key=len, reverse=True))


@functools.lru_cache(maxsize=PIECE_CACHE_SIZE)
def _piece(knot: TorusKnot, mirrored: bool) -> BifilteredComplex:
    """The staircase of ``knot``, or its dual when ``mirrored``, built once.

    Every caller shares the cached complex, which is safe because a complex
    is frozen and its arrays are read-only.
    """
    if mirrored:
        return dual(_piece(knot, False))
    return staircase_from_semigroup(_semigroup(knot))


@functools.lru_cache(maxsize=1)
def _tensor_of_pieces(keys: tuple[tuple[TorusKnot, bool], ...]) -> BifilteredComplex:
    """The tensor of the pieces ``_piece(*key)``, in the order of ``keys``.

    Only the last complex is kept, so the routed path and the oracle share
    one construction when they ask for the same tensor in a row, and no
    earlier tensor is held.
    """
    return tensor_fold([_piece(*key) for key in keys])


def _tensor_of(
    positive: Iterable[tuple[TorusKnot, int]],
    negative: Iterable[tuple[TorusKnot, int]],
) -> BifilteredComplex:
    """One staircase per positive class and one dual per negative class,
    each repeated ``copies`` times, tensored by ``tensor_fold``.

    The tensor is keyed by its piece keys ``(knot, mirrored)`` sorted as
    ``tensor_fold`` sorts the pieces, longest first and stable, so a key
    fixes the generator numbering of the complex it names.
    """
    keys = [
        (knot, mirrored)
        for classes, mirrored in ((positive, False), (negative, True))
        for knot, copies in classes
        for _ in range(copies)
    ]
    keys.sort(key=lambda key: len(_piece(*key)), reverse=True)
    return _tensor_of_pieces(tuple(keys))


def tensor_complex(expr: KnotExpression) -> BifilteredComplex:
    """The tensor of staircases and duals representing the expression.

    It is built from the factor classes, so adjacent-parameter powers
    collapse to their representative staircase (valid inside tensor
    products), and ``generator_excess`` counts exactly its generators.  An
    empty expression yields the one-generator unknot complex.
    """
    return _tensor_of(*_classes(expr))


def vi_tensor_oracle(expr: KnotExpression) -> tuple[int, ...]:
    """Torsion profile from the raw tensor, one staircase per copy.

    Terms as written: no power collapse, no reductions, and graded Smith
    normal form at every level where the direct path runs rank tests: this
    is the independent oracle the closed form and the direct path are
    tested against.  It imposes no size guard, so callers choose their own
    budgets.
    """
    return vi_sequence(_tensor_of(*split_parts(expr)))


def vi_expr(
    expr: KnotExpression, genus_cap: int = DEFAULT_GENUS_CAP
) -> tuple[int, ...]:
    """Torsion profile ``V_0, V_1, ..., 0`` of a torus-knot expression.

    ``route`` decides, and this builds what it decided: for a closed form,
    each side's class semigroups from the store, folded by infimal
    convolution, into ``vi_from_nuplus``; for a complex, the rank tests of
    ``tensor_complex``.  A refusal raises ``UnsupportedExpressionError``
    with the route's reason.
    """
    plan = route(expr, genus_cap)
    if plan.kind == "closed-form":
        positive, negative = (
            _infimal_fold([s for knot, n in side for s in [_semigroup(knot)] * n])
            for side in _classes(expr)
        )
        return vi_from_nuplus(positive, negative)
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
