"""Bifiltered chain complexes over mod-2 one-variable polynomials.

A complex is a finite free module over F_2[U] with a Maslov grading ``M``
(U has degree -2), an Alexander filtration level ``A`` per generator, and a
differential whose arrows carry non-negative U-exponents.  Three structural
invariants are enforced on every construction:

* the differential squares to zero;
* each arrow drops the Maslov grading by one: ``M(tgt) - 2e = M(src) - 1``;
* each arrow respects the filtration: ``A(tgt) - e <= A(src)``.

A complex is its arrays: read-only int64 gradings per generator, and ends
and U-exponents per arrow, which every construction computes and both
homology algorithms read.  No construction needs cancellation mod 2, as
none can make a duplicate arrow: staircase targets are distinct, reversing
distinct pairs keeps them distinct, each Leibniz term of a tensor moves
the index of one factor only, and a level shift keeps every pair.

Staircase complexes model L-space knots; duals model mirrors; tensor
products, of any number of factors in one construction, model connected
sums.  Homology over the polynomial ring is exact Smith normal form:
because arrows are Maslov-homogeneous, every matrix entry is a forced
monomial, and the reduction is a column reduction with clearing on bitsets
(see ``_kernels``).  Clearing needs ``d^2 = 0``, which every construction
checks.  Each complex packs its bit rows, builds its Python-int column
bitsets straight from its arrows, notes where each source's arrows start,
and groups its generators by their two gradings, each once, on first use.

The torsion invariants ``V_s`` drop out of the homology of the subcomplexes
at each filtration level, making this module the independent oracle for all
closed-form counting paths.  Truncating at level ``s`` moves gradings and
arrow exponents but never changes which generators an arrow joins, and it
preserves all three invariants.  So level homology is read off the parent's
packed pattern and its bitsets with shifted gradings, with no subcomplex
built or checked and no bitsets built again; ``subcomplex_at_level``
builds that subcomplex explicitly, validated, as the reference.  A
level's set-up is one vectorised pass: each column's first pivot, its
target of least grading and lowest index, is a minimum over its arrows,
which are sorted by source.  A level shifts the grading of every
generator of a ``(maslov, alexander)`` group alike, so the grade masks
that a second pivot search reads are merged from the groups, and only on
a level where some column is XORed.  The tower locator reads the pivot
counts alone: in grading ``m`` the free part has the generators, less the
pivot rows, less the pivot columns, of gradings ``>= m`` and the parity
of ``m``.

Two independent algorithms give the profile ``V_0, V_1, ...``.
``vi_sequence`` reduces each level completely and locates its tower;
the tensor-complex oracle uses it.  ``vi_by_rank`` asks, one grading at a
time, whether a cycle of the level survives in the homology of the whole
complex: three F_2 ranks of the target masks, built on first use, and one
query per level after ``V_0``; the routed complex path uses it.  They share
no elimination, no tower locator and no packed pattern.

This module holds complexes and their homology only.  The checks run on
them, such as the splitting of trefoil tensor powers, are in ``verify``.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _kernels
from .semigroups import FormalSemigroup


class MalformedExponentsError(ValueError):
    """Raised when a staircase exponent list violates its shape rules."""


class NotSingleTowerError(ValueError):
    """Raised when homology does not have exactly one free summand."""


class _Pattern(NamedTuple):
    """A complex's boundary pattern for the Smith normal form, built once,
    on first use."""

    rows: np.ndarray  # uint64 bit rows: bit src of row tgt set per arrow
    bits: tuple[int, ...]  # column bitsets, from the arrows: bit tgt of column src
    heads: np.ndarray  # the distinct arrow sources, increasing: the nonzero columns
    starts: np.ndarray  # where each head's arrows start among the sorted arrows
    counts: np.ndarray  # how many arrows each head has


class _Groups(NamedTuple):
    """The generators grouped by ``(maslov, alexander)``, in order of first
    appearance: a level shifts the grading of every member of a group
    alike."""

    reps: np.ndarray  # the first member of each group
    masks: tuple[int, ...]  # the row mask of each group's members


#: The array fields of a complex, in constructor order.
_ARRAYS = ("maslov", "alexander", "src", "tgt", "exponent")


def _parity_places(maslov: np.ndarray) -> np.ndarray:
    """Each generator's place, in index order, among the generators of its
    Maslov parity."""
    odd = maslov & 1
    before = np.add.accumulate(odd) - odd  # odd generators before each one
    return np.where(odd == 1, before, np.arange(len(maslov)) - before)


@dataclass(frozen=True, eq=False)
class BifilteredComplex:
    """Immutable bifiltered complex; indices into ``ids`` label generators.

    Read-only int64 arrays hold one grading of each kind per generator and
    one ``src``, ``tgt`` and ``exponent`` per arrow ``src -> U^exponent tgt``,
    sorted by ``(src, exponent, tgt)``.  The constructor copies integer
    sequences or arrays, passed through ``_kernels.int64_array``.  Equality
    and hashing go by ``ids`` and the arrays.
    """

    ids: tuple[str, ...]
    maslov: np.ndarray
    alexander: np.ndarray
    src: np.ndarray
    tgt: np.ndarray
    exponent: np.ndarray

    def __post_init__(self) -> None:
        ids = self.ids
        n = len(ids)
        maslov, alexander, src, tgt, exponent = (
            _kernels.int64_array(getattr(self, name), name) for name in _ARRAYS
        )
        # The arrows are copied by the sort below, the gradings here.
        maslov, alexander = maslov.copy(), alexander.copy()
        m = len(src)
        if not (len(maslov) == len(alexander) == n and len(tgt) == len(exponent) == m):
            raise ValueError("field lengths disagree")
        if len(set(ids)) != n:
            raise ValueError("generator ids must be unique")
        order = np.lexsort((tgt, exponent, src))
        src, tgt, exponent = src[order], tgt[order], exponent[order]
        if m and not (0 <= src[0] and src[-1] < n):
            raise ValueError("arrow source out of range")
        end = np.minimum(np.maximum(tgt, 0), n - 1)  # an index for every arrow
        repeated = np.zeros(m, dtype=bool)  # the later arrows of equal triples
        repeated[1:] = (src[1:] == src[:-1]) & (tgt[1:] == tgt[:-1])
        repeated[1:] &= exponent[1:] == exponent[:-1]
        checks = (
            (exponent < 0) | (tgt != end),
            repeated,
            maslov[end] - 2 * exponent != maslov[src] - 1,
            alexander[end] - exponent > alexander[src],
        )
        bad = checks[0] | checks[1] | checks[2] | checks[3]
        if np.count_nonzero(bad):
            # The first bad arrow of a walk by source, each source's arrows
            # in their given order, which the stable sort kept in ``order``.
            hits = bad.nonzero()[0]
            hits = hits[src[hits] == src[hits[0]]]
            k = hits[np.argmin(order[hits])]
            arrow = f"{ids[src[k]]} -> {ids[end[k]]}"
            messages = (
                "arrow exponent/target out of range",
                "duplicate arrow; canonicalize mod 2 first",
                f"grading violation on {arrow}",
                f"filtration violation on {arrow}",
            )
            raise ValueError(next(text for check, text in zip(checks, messages) if check[k]))
        # The gradings force each arrow's exponent, so d^2 = 0 iff the paths
        # src -> mid -> tgt join each (src, tgt) an even number of times.
        # Sorted, the arrows out of one source are contiguous, from ``start``.
        out = np.bincount(src, minlength=n)
        start = np.add.accumulate(out) - out
        count = out[tgt]  # the pairs that start with each arrow
        first = np.add.accumulate(count) - count  # where they start among all pairs
        second = np.arange(np.add.reduce(count)) + (start[tgt] - first).repeat(count)
        keys = np.sort(src.repeat(count) * n + tgt[second])
        # Sorted keys pair off iff every count is even; the first unpaired
        # key is the least of odd count.
        lone = (keys[: keys.size - 1 : 2] != keys[1::2]).nonzero()[0]
        if lone.size or keys.size % 2:
            key = keys[2 * lone[0] if lone.size else -1]
            raise ValueError(f"differential does not square to zero at {ids[key // n]}")
        for name, value in zip(_ARRAYS, (maslov, alexander, src, tgt, exponent)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BifilteredComplex):
            return NotImplemented
        return self.ids == other.ids and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _ARRAYS
        )

    def __hash__(self) -> int:
        return hash((self.ids, *(getattr(self, name).tobytes() for name in _ARRAYS)))

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def _pattern(self) -> _Pattern:
        """The packed bit rows, the column bitsets and the runs of arrows by
        source, cached outside the dataclass fields; the bitsets come from
        the arrows, not the rows."""
        rows = _kernels.pack_bit_rows(len(self), np.stack((self.tgt, self.src), axis=1))
        rows.setflags(write=False)
        starts = np.flatnonzero(np.diff(self.src, prepend=-1))
        counts = np.diff(starts, append=len(self.src))
        return _Pattern(
            rows,
            _kernels.column_bitsets(len(self), self.src, self.tgt),
            self.src[starts],
            starts,
            counts,
        )

    @cached_property
    def _groups(self) -> _Groups:
        """The generators grouped by ``(maslov, alexander)``, with one
        representative and the row mask of each group."""
        masks: dict[tuple[int, int], int] = {}
        reps: list[int] = []
        for k, key in enumerate(zip(self.maslov.tolist(), self.alexander.tolist())):
            mask = masks.get(key)
            if mask is None:
                reps.append(k)
                mask = 0
            masks[key] = mask | 1 << k
        return _Groups(np.array(reps, dtype=np.int64), tuple(masks.values()))

    @cached_property
    def _targets(self) -> tuple[int, ...]:
        """Bit ``k`` of ``_targets[x]`` is set iff ``x`` has an arrow to the
        generator at place ``k`` of ``_parity_places``: in one grading of
        CF^-, the column of the boundary map at ``x``.  Arrows flip the
        Maslov parity, so each parity's masks share a half-width bit space;
        ``_kernels.column_bitsets`` builds them with the places as bits."""
        places = _parity_places(self.maslov)[self.tgt]
        return _kernels.column_bitsets(len(self), self.src, places)

    def dump(self) -> str:
        """Stable text form: `id M A` lines, then `src -> U^e tgt` arrow lines."""
        ids, gradings = self.ids, zip(self.maslov.tolist(), self.alexander.tolist())
        arrows = zip(self.src.tolist(), self.exponent.tolist(), self.tgt.tolist())
        lines = [f"{gid} {m} {a}" for gid, (m, a) in zip(ids, gradings)]
        lines += [f"{ids[s]} -> U^{e} {ids[t]}" for s, e, t in arrows]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def staircase(exponents) -> BifilteredComplex:
    """Staircase complex on a strictly decreasing symmetric exponent list.

    Generators ``y1 .. y_{2r+1}`` carry Alexander levels given by the
    exponents; even-index generators map to both neighbors, with U-powers
    equal to the drop in Alexander level on the leftward arrow; odd-index
    generators are cycles.  Maslov gradings follow from M(y1) = 0 and the
    grading rule.  The exponents pass ``_kernels.int64_array``: float, bool,
    object and uint64 input raises ``MalformedExponentsError``, never a
    truncated staircase, and so do exponents whose gradings leave int64.
    """
    try:
        alpha = _kernels.int64_array(exponents, "exponents")
    except ValueError as error:
        raise MalformedExponentsError(str(error)) from None
    n = len(alpha)
    if n % 2 != 1:
        raise MalformedExponentsError("exponent list must have odd length")
    if np.count_nonzero(alpha[1:] >= alpha[:-1]):
        raise MalformedExponentsError("exponents must be strictly decreasing")
    # The middle is tested first: once it is 0, each mirrored pair of the
    # decreasing list has one sign each side, so no pair sum overflows int64.
    if alpha[n // 2] or np.count_nonzero(alpha + alpha[::-1]):
        raise MalformedExponentsError("exponents must be symmetric about 0")
    # y_{2k} maps onto y_{2k-1} with U^drop and onto y_{2k+1} with U^0, so
    # from M(y1) = 0 the gradings step by 1 - 2 drop, then by -1.  By
    # symmetry the drops sum to alpha[0], so the gradings fall to
    # -2 alpha[0]; past 2**62 that would wrap in int64.
    if alpha[0] > 2**62:
        raise MalformedExponentsError("exponents too large: Maslov gradings leave int64")
    drop = alpha[:-1:2] - alpha[1::2]
    step = np.zeros(n, dtype=np.int64)
    step[1::2] = 1 - 2 * drop
    step[2::2] = -1
    middle = np.arange(1, n, 2)
    return BifilteredComplex(
        ids=tuple(f"y{i + 1}" for i in range(n)),
        maslov=np.add.accumulate(step),
        alexander=alpha,
        src=np.concatenate((middle, middle)),
        tgt=np.concatenate((middle - 1, middle + 1)),
        exponent=np.concatenate((drop, np.zeros_like(drop))),
    )


def staircase_exponents(semigroup: FormalSemigroup) -> tuple[int, ...]:
    """Exponent list of the staircase attached to a formal semigroup.

    The polynomial (1 - t) * sum of t^s over members s <= 2g, with the stray
    t^{2g+1} term removed, is supported exactly on the staircase exponents
    (recentered by -g).  Round-trips with the Alexander polynomial for
    genuine torus-knot semigroups.
    """
    g = semigroup.genus
    shifted = np.zeros(2 * g + 2, dtype=bool)  # shifted[d + 1]: d <= 2g is a member
    shifted[semigroup.members + 1] = shifted[2 * g + 1] = True
    support = (shifted[1:] != shifted[:-1]).nonzero()[0]  # coefficient of t^d is 1
    return tuple((support[::-1] - g).tolist())


def staircase_from_semigroup(semigroup: FormalSemigroup) -> BifilteredComplex:
    return staircase(staircase_exponents(semigroup))


def trefoil_staircase() -> BifilteredComplex:
    return staircase((1, 0, -1))


def dual(complex_: BifilteredComplex) -> BifilteredComplex:
    """Mirror model: negate both gradings and reverse all arrows."""
    return BifilteredComplex(
        ids=tuple(f"{gid}*" for gid in complex_.ids),
        maslov=-complex_.maslov,
        alexander=-complex_.alexander,
        src=complex_.tgt,
        tgt=complex_.src,
        exponent=complex_.exponent,
    )


def tensor(*factors: BifilteredComplex) -> BifilteredComplex:
    """Tensor product over the polynomial ring, with the Leibniz differential.

    Generator ``(i_1, ..., i_k)`` has the mixed-radix index with the first
    factor most significant, and id ``a*b*...``; an arrow of one factor
    moves its own index for every choice of the others.  So ``tensor(a, b,
    c)`` is ``tensor(tensor(a, b), c)``, the same ids, gradings and arrows,
    in one construction and one check.  A lone factor is returned as it is.
    """
    if not factors:
        raise TypeError("tensor needs at least one factor")
    if len(factors) == 1:
        return factors[0]
    sizes = [len(f) for f in factors]
    maslov, alexander = factors[0].maslov, factors[0].alexander
    for f in factors[1:]:
        maslov = np.add.outer(maslov, f.maslov).ravel()
        alexander = np.add.outer(alexander, f.alexander).ravel()
    src, tgt, exponent = [], [], []
    for t, f in enumerate(factors):
        stride = math.prod(sizes[t + 1 :])  # the place value of index i_t
        # Every generator whose index i_t is 0: the other indices, in order.
        base = np.add.outer(
            np.arange(math.prod(sizes[:t])) * (sizes[t] * stride), np.arange(stride)
        ).ravel()
        src.append(np.add.outer(base, f.src * stride).ravel())
        tgt.append(np.add.outer(base, f.tgt * stride).ravel())
        exponent.append(np.tile(f.exponent, base.size))
    return BifilteredComplex(
        ids=tuple(map("*".join, itertools.product(*(f.ids for f in factors)))),
        maslov=maslov,
        alexander=alexander,
        src=np.concatenate(src),
        tgt=np.concatenate(tgt),
        exponent=np.concatenate(exponent),
    )


def subcomplex_at_level(complex_: BifilteredComplex, s: int) -> BifilteredComplex:
    """The subcomplex generated by U^{max(0, A(x) - s)} x for every generator x.

    This is the finite model of the large-surgery subcomplex at filtration
    level s; its homology carries the torsion invariant V_s.
    """
    shift = np.maximum(complex_.alexander - s, 0)
    return dataclasses.replace(
        complex_,
        maslov=complex_.maslov - 2 * shift,
        alexander=np.minimum(complex_.alexander, s),
        exponent=complex_.exponent + shift[complex_.src] - shift[complex_.tgt],
    )


# ---------------------------------------------------------------------------
# Homology
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomologySummary:
    """Graded homology of a complex over the polynomial ring.

    ``free_rank`` counts free summands; ``tower_grading`` is the top Maslov
    grading of the free part when there is exactly one summand (None
    otherwise); ``torsion`` lists (order exponent d, top grading) pairs for
    the summands isomorphic to F_2[U]/(U^d).
    """

    free_rank: int
    tower_grading: int | None
    torsion: tuple[tuple[int, int], ...]

    @property
    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion


def _tower_grading(grading: np.ndarray, piv_row: np.ndarray, piv_col: np.ndarray) -> int:
    """Top grading of the single free summand, from the pivot counts.

    In grading m the free part has dimension ``free(m)``: the generators,
    minus the pivot rows, minus the pivot columns, all counted among the
    gradings ``>= m`` of the parity of m.  The chains in grading m are the
    generators counted so; the boundary out of m has one dimension per
    pivot column counted so; and a pivot row counted so is a boundary into
    m when its column lies above m, and a dimension of its torsion summand
    otherwise.  A generator that is both a pivot row and a pivot column
    counts twice.  So each generator adds 1 less the number of pivots it
    is, only the few that are not exactly one pivot are read, and one scan
    down from the top grading stops at the first grading where a dimension
    survives: there the free summand tops out.
    """
    pivots = np.bincount(np.concatenate((piv_row, piv_col)), minlength=len(grading))
    alive = (pivots != 1).nonzero()[0]
    by_grading: dict[int, int] = {}
    for m, k in zip(grading[alive].tolist(), pivots[alive].tolist()):
        by_grading[m] = by_grading.get(m, 0) + 1 - k
    free = [0, 0]
    for m in sorted(by_grading, reverse=True):
        free[m & 1] += by_grading[m]
        if free[m & 1] >= 1:
            return m
    raise AssertionError("free summand not located; this is a bug")


def _level_snf(complex_: BifilteredComplex, level: int | None):
    """The gradings ``M(x) - 2 max(0, A(x) - level)`` of ``complex_`` at
    ``level`` (``M`` for ``None``) and ``graded_snf``'s pivot triples under
    them, on the packed pattern of ``complex_``.

    The shifted exponents ``e + shift(src) - shift(tgt)`` are checked to be
    non-negative, as ``grading(tgt) >= grading(src) - 1``; ``ValueError``
    otherwise.  Each column's first pivot, its target of least grading and
    lowest index, comes from one vectorised pass over the arrows, which are
    sorted by source: the least target grading of each source, then the
    least target that has it.
    """
    pattern = complex_._pattern
    grading = complex_.maslov
    if level is not None:
        grading = grading - 2 * np.maximum(complex_.alexander - level, 0)
    target = grading[complex_.tgt]
    least = np.minimum.reduceat(target, pattern.starts)
    if level is not None and np.count_nonzero(least < grading[pattern.heads] - 1):
        raise ValueError(f"negative arrow exponent at filtration level {level}")
    lowest = np.where(target == least.repeat(pattern.counts), complex_.tgt, len(complex_))
    return grading, _kernels.graded_snf(
        pattern.rows,
        grading,
        bits=pattern.bits,
        heads=pattern.heads,
        first=np.minimum.reduceat(lowest, pattern.starts),
        groups=complex_._groups,
    )


def homology_over_polynomial_ring(
    complex_: BifilteredComplex, level: int | None = None
) -> HomologySummary:
    """Exact Smith-normal-form homology over the mod-2 polynomial ring.

    With ``level=s`` this is the homology of ``subcomplex_at_level(complex_,
    s)``, read off the packed pattern of ``complex_`` by ``_level_snf``,
    which raises ``ValueError`` for a negative shifted exponent.
    ``graded_snf`` merges grade masks from the grading groups of
    ``complex_`` only where a column needs a second pivot search, and the
    tower is read off the pivot counts.
    """
    n = len(complex_)
    if n == 0:
        return HomologySummary(free_rank=0, tower_grading=None, torsion=())
    grading, (piv_row, piv_col, piv_deg) = _level_snf(complex_, level)
    free_rank = n - 2 * len(piv_row)
    kept = piv_deg >= 1
    torsion = tuple(sorted(zip(piv_deg[kept].tolist(), grading[piv_row[kept]].tolist())))
    tower = _tower_grading(grading, piv_row, piv_col) if free_rank == 1 else None
    return HomologySummary(free_rank=free_rank, tower_grading=tower, torsion=torsion)


def v_invariant(complex_: BifilteredComplex, s: int) -> int:
    """Torsion invariant V_s: minus half the tower grading at filtration level s.

    The level homology comes from the packed pattern of ``complex_``; no
    subcomplex is built.
    """
    summary = homology_over_polynomial_ring(complex_, s)
    if summary.free_rank != 1:
        raise NotSingleTowerError(
            f"expected a single free summand, found {summary.free_rank}"
        )
    tau = summary.tower_grading
    assert tau is not None and tau % 2 == 0 and tau <= 0, "tower grading must be even and <= 0"
    return -tau // 2


def vi_sequence(complex_: BifilteredComplex) -> tuple[int, ...]:
    """V_0, V_1, ... up to and including the first zero.

    Every level reads the same packed pattern, bitsets, arrow runs and
    grading groups of ``complex_``, built on the first level, and finds
    only its own first pivots; the complex's invariants were checked when
    it was built.
    """
    out = []
    bound = max(complex_.alexander.tolist(), default=0) + 1
    s = 0
    while True:
        v = v_invariant(complex_, s)
        out.append(v)
        if v == 0:
            return tuple(out)
        if s > bound:
            raise AssertionError("torsion sequence failed to reach zero; this is a bug")
        s += 1


def _rank_test(complex_: BifilteredComplex):
    """The test ``V_s <= v`` on ``complex_``, as a function of ``(s, v)``.

    In the grading ``d = -2v`` each generator ``x`` with ``M(x) >= d`` of the
    parity of ``d`` spans one basis vector ``U^k x`` of ``CF^-``: the set
    ``T``.  Those of the level-``s`` subcomplex ``A_s`` are the ``x`` with
    ``M(x) - 2 max(0, A(x) - s) >= d``: the set ``S``.  ``A_s`` includes
    into ``CF^-``, whose homology is one tower topped at grading 0, and
    maps its own tower onto the part at and below grading ``-2 V_s``.  So
    ``V_s <= v`` iff some cycle of ``A_s`` in grading ``d`` is not a
    boundary in ``CF^-``: iff ``dim Z_d(A_s) = |S| - r1`` exceeds
    ``dim(B_d(CF^-) ∩ A_s) = r2 - r3``, where ``r1`` is the rank of the
    boundary on ``S``, ``r2`` that on the generators of grading ``d + 1``
    and ``r3`` that of the same columns restricted to the rows ``T \\ S``.
    All three are F_2 ranks of target masks.

    ``T``, ``r2`` and the homology of ``CF^-`` in grading ``d`` are computed
    once per grading; that homology must be 1 for ``d <= 0`` and 0 for
    ``d = 2``, or ``NotSingleTowerError`` is raised.  Gradings 2 and 0 are
    checked at once, and so is the free rank of the homology over
    ``F_2[U]``, which must be 1: it is ``n - 2 rank(d)`` with the rank over
    ``F_2(U)``, and for a homogeneous boundary that is the sum, over the two
    Maslov parities, of the F_2 ranks of the target masks of the generators
    of that parity.  So a second tower below every grading the queries visit
    fails too.
    """
    targets, maslov, alexander = complex_._targets, complex_.maslov, complex_.alexander
    places = _parity_places(maslov)
    slices: dict[int, tuple[np.ndarray, list[int], int]] = {}

    def grading_slice(d: int) -> tuple[np.ndarray, list[int], int]:
        if d not in slices:
            above = maslov - d
            cells = ((above >= 0) & (above % 2 == 0)).nonzero()[0]
            incoming = [targets[x] for x in ((above > 0) & (above % 2 == 1)).nonzero()[0].tolist()]
            r2 = _kernels.f2_rank(incoming)
            dim = len(cells) - _kernels.f2_rank(targets[x] for x in cells.tolist()) - r2
            if dim != (d <= 0):
                raise NotSingleTowerError(
                    f"homology of CF^- in grading {d} has dimension {dim}, "
                    f"expected {int(d <= 0)}"
                )
            slices[d] = cells, incoming, r2
        return slices[d]

    def at_most(s: int, v: int) -> bool:
        d = -2 * v
        cells, incoming, r2 = grading_slice(d)
        inside = maslov[cells] - 2 * np.maximum(alexander[cells] - s, 0) >= d
        chosen = cells[inside].tolist()  # S
        outside = np.zeros(len(maslov), dtype=bool)  # T \ S, as a bit mask
        outside[places[cells[~inside]]] = True
        mask = int.from_bytes(np.packbits(outside, bitorder="little").tobytes(), "little")
        r1 = _kernels.f2_rank(targets[x] for x in chosen)
        r3 = _kernels.f2_rank(t & mask for t in incoming)
        return len(chosen) - r1 > r2 - r3

    grading_slice(2)
    grading_slice(0)
    free_rank = len(targets) - 2 * sum(
        _kernels.f2_rank(targets[x] for x in (maslov % 2 == parity).nonzero()[0].tolist())
        for parity in (0, 1)
    )
    if free_rank != 1:
        raise NotSingleTowerError(
            f"homology of CF^- has free rank {free_rank} over F_2[U], expected 1"
        )
    return at_most


def vi_by_rank(complex_: BifilteredComplex) -> tuple[int, ...]:
    """V_0, V_1, ... up to and including the first zero, by ``_rank_test``.

    ``V_0`` is the least ``v`` that passes the test.  Each later level
    takes one query, because ``V_{s-1} - 1 <= V_s <= V_{s-1}`` (Rasmussen,
    arXiv:math/0306378).  An independent algorithm from ``vi_sequence``:
    no Smith normal form, no tower locator, no packed pattern.
    """
    at_most = _rank_test(complex_)
    v = 0
    while not at_most(0, v):
        v += 1
    out = [v]
    s = 0
    while v:
        s += 1
        if at_most(s, v - 1):
            v -= 1
        out.append(v)
    return tuple(out)

