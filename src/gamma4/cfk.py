"""Bifiltered chain complexes over mod-2 one-variable polynomials.

A complex is a finite free module over F_2[U] with a Maslov grading ``M``
(U has degree -2), an Alexander filtration level ``A`` per generator, and a
differential whose arrows carry non-negative U-exponents.  Three structural
invariants are enforced on every construction:

* the differential squares to zero;
* each arrow drops the Maslov grading by one: ``M(tgt) - 2e = M(src) - 1``;
* each arrow respects the filtration: ``A(tgt) - e <= A(src)``.

Staircase complexes model L-space knots; duals model mirrors; tensor
products model connected sums.  Homology over the polynomial ring is exact
Smith normal form: because arrows are Maslov-homogeneous, every matrix entry
is a forced monomial and the reduction runs on bit rows (see ``_kernels``).
Each complex packs those bit rows, and unpacks them into Python-int row and
column bitsets, once, on first use.

The torsion invariants ``V_s`` drop out of the homology of the subcomplexes
at each filtration level, making this module the independent oracle for all
closed-form counting paths.  Truncating at level ``s`` moves gradings and
arrow exponents but never changes which generators an arrow joins, and it
preserves all three invariants.  So level homology is read off the parent's
packed pattern and its bitsets with shifted gradings, with no subcomplex
built, checked or unpacked again; ``subcomplex_at_level`` builds that
subcomplex explicitly, validated, as the reference.

Two independent algorithms give the profile ``V_0, V_1, ...``.
``vi_sequence`` eliminates each level completely and locates its tower;
the tensor-complex oracle uses it.  ``vi_by_rank`` asks, one grading at a
time, whether a cycle of the level survives in the homology of the whole
complex: three F_2 ranks of the target masks the validation already
builds, and one query per level after ``V_0``; the routed complex path
uses it.  They share no elimination, no tower locator and no packed
pattern.
"""

from __future__ import annotations

from bisect import bisect_left
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


Arrow = tuple[int, int]  # (U-exponent, target generator index)


class _Pattern(NamedTuple):
    """A complex's boundary pattern, built once, on first use: read-only
    arrays, and the bit rows unpacked into Python-int bitsets."""

    rows: np.ndarray  # uint64 bit rows: bit src of row tgt set per arrow
    bits: tuple[tuple[int, ...], tuple[int, ...]]  # unpack_bit_rows(rows)
    src: np.ndarray  # one entry per arrow
    tgt: np.ndarray
    exponent: np.ndarray
    maslov: np.ndarray  # one entry per generator
    alexander: np.ndarray


@dataclass(frozen=True)
class BifilteredComplex:
    """Immutable bifiltered complex; indices into ``ids`` label generators."""

    ids: tuple[str, ...]
    maslov: tuple[int, ...]
    alexander: tuple[int, ...]
    arrows: tuple[tuple[Arrow, ...], ...]  # arrows[src] = ((e, tgt), ...)

    def __post_init__(self) -> None:
        ids, maslov, alexander, arrows = self.ids, self.maslov, self.alexander, self.arrows
        n = len(ids)
        if not (len(maslov) == len(alexander) == len(arrows) == n):
            raise ValueError("field lengths disagree")
        if len(set(ids)) != n:
            raise ValueError("generator ids must be unique")
        targets = [0] * n  # bit t of targets[src] set iff src has an arrow to t
        for src, terms in enumerate(arrows):
            seen = set()
            mask = 0
            for e, tgt in terms:
                if e < 0 or not 0 <= tgt < n:
                    raise ValueError("arrow exponent/target out of range")
                if (e, tgt) in seen:
                    raise ValueError("duplicate arrow; canonicalize mod 2 first")
                seen.add((e, tgt))
                if maslov[tgt] - 2 * e != maslov[src] - 1:
                    raise ValueError(f"grading violation on {ids[src]} -> {ids[tgt]}")
                if alexander[tgt] - e > alexander[src]:
                    raise ValueError(f"filtration violation on {ids[src]} -> {ids[tgt]}")
                mask |= 1 << tgt
            targets[src] = mask
        # The grading check fixes each arrow's exponent from the Maslov
        # gradings of its ends, so every path src -> mid -> tgt carries the
        # same power of U: d^2 vanishes at src iff the paths to each target
        # cancel in pairs, i.e. iff the XOR of the targets of its targets is 0.
        for src, terms in enumerate(arrows):
            square = 0
            for _, mid in terms:
                square ^= targets[mid]
            if square:
                raise ValueError(f"differential does not square to zero at {ids[src]}")
        # Kept outside the dataclass fields (so ``==`` and ``hash`` see the
        # fields alone): in one grading of CF^-, the column of the boundary
        # map at a generator is its target mask.
        object.__setattr__(self, "_targets", tuple(targets))

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def _pattern(self) -> _Pattern:
        """The packed boundary pattern, cached outside the dataclass fields
        (so ``==`` and ``hash`` see the fields alone)."""
        src, tgt, exponent = [], [], []
        for s, terms in enumerate(self.arrows):
            for e, t in terms:
                src.append(s)
                tgt.append(t)
                exponent.append(e)
        arrays = dict(
            rows=_kernels.pack_bit_rows(len(self), list(zip(tgt, src))),
            src=np.array(src, dtype=np.int64),
            tgt=np.array(tgt, dtype=np.int64),
            exponent=np.array(exponent, dtype=np.int64),
            maslov=np.array(self.maslov, dtype=np.int64),
            alexander=np.array(self.alexander, dtype=np.int64),
        )
        for array in arrays.values():
            array.flags.writeable = False
        return _Pattern(bits=_kernels.unpack_bit_rows(arrays["rows"]), **arrays)

    def dump(self) -> str:
        """Stable text form: `id M A` lines, then `src -> U^e tgt` arrow lines."""
        lines = [
            f"{gid} {m} {a}"
            for gid, m, a in zip(self.ids, self.maslov, self.alexander)
        ]
        for src, terms in enumerate(self.arrows):
            for e, tgt in sorted(terms):
                lines.append(f"{self.ids[src]} -> U^{e} {self.ids[tgt]}")
        return "\n".join(lines)


def _canonical_arrows(raw: list[list[Arrow]]) -> tuple[tuple[Arrow, ...], ...]:
    """Cancel duplicate arrows mod 2 and sort for determinism."""
    out = []
    for terms in raw:
        acc: dict[Arrow, int] = {}
        for arrow in terms:
            acc[arrow] = acc.get(arrow, 0) ^ 1
        out.append(tuple(sorted(a for a, alive in acc.items() if alive)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def staircase(exponents, prefix: str = "y") -> BifilteredComplex:
    """Staircase complex on a strictly decreasing symmetric exponent list.

    Generators ``y1 .. y_{2r+1}`` carry Alexander levels given by the
    exponents; even-index generators map to both neighbors, with U-powers
    equal to the drop in Alexander level on the leftward arrow; odd-index
    generators are cycles.  Maslov gradings follow from M(y1) = 0 and the
    grading rule.
    """
    alpha = [int(x) for x in exponents]
    if len(alpha) % 2 != 1:
        raise MalformedExponentsError("exponent list must have odd length")
    if any(a <= b for a, b in zip(alpha, alpha[1:])):
        raise MalformedExponentsError("exponents must be strictly decreasing")
    if any(alpha[i] != -alpha[-1 - i] for i in range(len(alpha))):
        raise MalformedExponentsError("exponents must be symmetric about 0")
    n = len(alpha)
    maslov = [0] * n
    for i in range(1, n):
        if i % 2 == 1:  # even-index generator y_{i+1}: arrow onto predecessor
            maslov[i] = maslov[i - 1] + 1 - 2 * (alpha[i - 1] - alpha[i])
        else:
            maslov[i] = maslov[i - 1] - 1
    arrows: list[list[Arrow]] = [[] for _ in range(n)]
    for i in range(1, n, 2):  # generators y_2, y_4, ... at positions 1, 3, ...
        arrows[i].append((alpha[i - 1] - alpha[i], i - 1))
        arrows[i].append((0, i + 1))
    return BifilteredComplex(
        ids=tuple(f"{prefix}{i + 1}" for i in range(n)),
        maslov=tuple(maslov),
        alexander=tuple(alpha),
        arrows=_canonical_arrows(arrows),
    )


def staircase_exponents(semigroup: FormalSemigroup) -> tuple[int, ...]:
    """Exponent list of the staircase attached to a formal semigroup.

    The polynomial (1 - t) * sum of t^s over members s <= 2g, with the stray
    t^{2g+1} term removed, is supported exactly on the staircase exponents
    (recentered by -g).  Round-trips with the Alexander polynomial for
    genuine torus-knot semigroups.
    """
    g = semigroup.genus
    members = list(semigroup.elements) + [2 * g]
    coeff: dict[int, int] = {}
    for s in members:
        coeff[s] = coeff.get(s, 0) ^ 1
        if s + 1 != 2 * g + 1:
            coeff[s + 1] = coeff.get(s + 1, 0) ^ 1
    support = sorted((d for d, c in coeff.items() if c), reverse=True)
    return tuple(d - g for d in support)


def staircase_from_semigroup(semigroup: FormalSemigroup) -> BifilteredComplex:
    return staircase(staircase_exponents(semigroup))


def trefoil_staircase() -> BifilteredComplex:
    return staircase((1, 0, -1))


def dual(complex_: BifilteredComplex) -> BifilteredComplex:
    """Mirror model: negate both gradings and reverse all arrows."""
    n = len(complex_)
    arrows: list[list[Arrow]] = [[] for _ in range(n)]
    for src, terms in enumerate(complex_.arrows):
        for e, tgt in terms:
            arrows[tgt].append((e, src))
    return BifilteredComplex(
        ids=tuple(f"{gid}*" for gid in complex_.ids),
        maslov=tuple(-m for m in complex_.maslov),
        alexander=tuple(-a for a in complex_.alexander),
        arrows=_canonical_arrows(arrows),
    )


def tensor(left: BifilteredComplex, right: BifilteredComplex) -> BifilteredComplex:
    """Tensor product over the polynomial ring, with the Leibniz differential."""
    nl, nr = len(left), len(right)

    def idx(i: int, j: int) -> int:
        return i * nr + j

    ids = []
    maslov = []
    alexander = []
    arrows: list[list[Arrow]] = []
    for i in range(nl):
        for j in range(nr):
            ids.append(f"{left.ids[i]}*{right.ids[j]}")
            maslov.append(left.maslov[i] + right.maslov[j])
            alexander.append(left.alexander[i] + right.alexander[j])
            # A left arrow moves only i and a right arrow only j, so two
            # duplicate-free factors give duplicate-free terms: sorting is
            # all the canonical form needs.
            terms = [(e, idx(t, j)) for e, t in left.arrows[i]]
            terms += [(e, idx(i, t)) for e, t in right.arrows[j]]
            terms.sort()
            arrows.append(tuple(terms))
    return BifilteredComplex(
        ids=tuple(ids),
        maslov=tuple(maslov),
        alexander=tuple(alexander),
        arrows=tuple(arrows),
    )


def tensor_power(complex_: BifilteredComplex, n: int) -> BifilteredComplex:
    if n < 1:
        raise ValueError("tensor power needs n >= 1")
    out = complex_
    for _ in range(n - 1):
        out = tensor(out, complex_)
    return out


def subcomplex_at_level(complex_: BifilteredComplex, s: int) -> BifilteredComplex:
    """The subcomplex generated by U^{max(0, A(x) - s)} x for every generator x.

    This is the finite model of the large-surgery subcomplex at filtration
    level s; its homology carries the torsion invariant V_s.
    """
    n = len(complex_)
    shift = [max(0, a - s) for a in complex_.alexander]
    arrows: list[list[Arrow]] = [[] for _ in range(n)]
    for src, terms in enumerate(complex_.arrows):
        for e, tgt in terms:
            arrows[src].append((e + shift[src] - shift[tgt], tgt))
    return BifilteredComplex(
        ids=complex_.ids,
        maslov=tuple(m - 2 * k for m, k in zip(complex_.maslov, shift)),
        alexander=tuple(min(a, s) for a in complex_.alexander),
        arrows=_canonical_arrows(arrows),
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


def _tower_grading(maslov, pivot_src_m, torsion) -> int:
    """Top grading of the single free summand, by graded dimension count.

    In each Maslov grading m the chain space has one dimension per generator
    with the same parity sitting at or above m; the boundary rank in and out
    of the grading is read off the pivot source gradings; torsion summands
    account for finitely many leftover dimensions.  The free summand tops out
    at the largest grading where a dimension survives beyond the torsion.
    """
    by_parity: dict[int, list[int]] = {0: [], 1: []}
    for m in maslov:
        by_parity[m & 1].append(m)
    piv_by_parity: dict[int, list[int]] = {0: [], 1: []}
    for m in pivot_src_m:
        piv_by_parity[m & 1].append(m)
    tors_top: dict[int, list[int]] = {0: [], 1: []}
    tors_bot: dict[int, list[int]] = {0: [], 1: []}
    for d, m in torsion:
        tors_top[m & 1].append(m)
        tors_bot[m & 1].append(m - 2 * d)
    for seq in (*by_parity.values(), *piv_by_parity.values(), *tors_top.values(), *tors_bot.values()):
        seq.sort()

    def at_least(sorted_vals: list[int], x: int) -> int:
        return len(sorted_vals) - bisect_left(sorted_vals, x)

    top = max(maslov)
    floor = min(maslov) - 2 * (max((d for d, _ in torsion), default=0) + 2)
    for mu in range(top, floor - 1, -1):
        par = mu & 1
        dim = at_least(by_parity[par], mu)
        rank_out = at_least(piv_by_parity[par], mu)
        rank_in = at_least(piv_by_parity[1 - par], mu + 1)
        alive_torsion = at_least(tors_top[par], mu) - at_least(tors_bot[par], mu)
        if dim - rank_out - rank_in - alive_torsion >= 1:
            return mu
    raise AssertionError("free summand not located; this is a bug")


def homology_over_polynomial_ring(
    complex_: BifilteredComplex, level: int | None = None
) -> HomologySummary:
    """Exact Smith-normal-form homology over the mod-2 polynomial ring.

    With ``level=s`` this is the homology of ``subcomplex_at_level(complex_,
    s)``, read off the packed pattern of ``complex_`` with the gradings
    ``M(x) - 2 max(0, A(x) - s)``.  The shifted exponents
    ``e + shift(src) - shift(tgt)`` are checked to be non-negative;
    ``ValueError`` otherwise.
    """
    n = len(complex_)
    if n == 0:
        return HomologySummary(free_rank=0, tower_grading=None, torsion=())
    pattern = complex_._pattern
    grading = pattern.maslov
    if level is not None:
        shift = np.maximum(pattern.alexander - level, 0)
        if (pattern.exponent + shift[pattern.src] < shift[pattern.tgt]).any():
            raise ValueError(f"negative arrow exponent at filtration level {level}")
        grading = grading - 2 * shift
    piv_row, piv_col, piv_deg = _kernels.graded_snf(
        pattern.rows, grading, bits=pattern.bits
    )
    maslov = grading.tolist()
    rank = len(piv_row)
    free_rank = n - 2 * rank
    torsion = tuple(
        sorted(
            (int(d), maslov[i])
            for i, d in zip(piv_row.tolist(), piv_deg.tolist())
            if d >= 1
        )
    )
    tower = None
    if free_rank == 1:
        pivot_src_m = [maslov[j] for j in piv_col.tolist()]
        tower = _tower_grading(maslov, pivot_src_m, torsion)
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

    Every level reads the same packed pattern of ``complex_``, built on the
    first level; the complex's invariants were checked when it was built.
    """
    out = []
    bound = max(complex_.alexander, default=0) + 1
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
    ``F_2(U)``, and for a homogeneous boundary that is the F_2 rank of the
    target masks.  So a second tower below every grading the queries visit
    fails too.
    """
    targets, maslov, alexander = complex_._targets, complex_.maslov, complex_.alexander
    slices: dict[int, tuple[list[int], list[int], int]] = {}

    def grading_slice(d: int) -> tuple[list[int], list[int], int]:
        if d not in slices:
            cells = [x for x, m in enumerate(maslov) if m >= d and (m - d) % 2 == 0]
            incoming = [targets[x] for x, m in enumerate(maslov) if m > d and (m - d) % 2 == 1]
            r2 = _kernels.f2_rank(incoming)
            dim = len(cells) - _kernels.f2_rank(targets[x] for x in cells) - r2
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
        chosen, outside = [], 0  # S, and the mask of T \ S
        for x in cells:
            if maslov[x] - 2 * max(0, alexander[x] - s) >= d:
                chosen.append(x)
            else:
                outside |= 1 << x
        r1 = _kernels.f2_rank(targets[x] for x in chosen)
        r3 = _kernels.f2_rank(t & outside for t in incoming)
        return len(chosen) - r1 > r2 - r3

    grading_slice(2)
    grading_slice(0)
    free_rank = len(targets) - 2 * _kernels.f2_rank(targets)
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


# ---------------------------------------------------------------------------
# Mechanical verification of the staircase splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StaircaseSplitReport:
    """Outcome of verify_staircase2n: per-check results across all steps."""

    n: int
    passed: bool
    checks: tuple[tuple[str, bool, str], ...]

    def failures(self) -> tuple[tuple[str, bool, str], ...]:
        return tuple(c for c in self.checks if not c[1])


def _f2_inverse(columns: list[int], size: int) -> list[int] | None:
    """Inverse of an F_2 matrix given as column bitmasks; None if singular.

    Returns the inverse as row bitmasks: row r of the inverse has bit c set
    iff (T^{-1})[r][c] = 1.
    """
    # Work on rows of T: row r bitmask over columns c.
    rows = [0] * size
    for c, col in enumerate(columns):
        for r in range(size):
            if (col >> r) & 1:
                rows[r] |= 1 << c
    aug = [rows[r] | (1 << (size + r)) for r in range(size)]
    for col in range(size):
        pivot = next(
            (r for r in range(col, size) if (aug[r] >> col) & 1),
            None,
        )
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(size):
            if r != col and (aug[r] >> col) & 1:
                aug[r] ^= aug[col]
    return [row >> size for row in aug]


def verify_staircase2n(n: int) -> StaircaseSplitReport:
    """Check the inductive splitting of tensor powers of the trefoil staircase.

    For each step k < n, tensors the (2k+1)-generator two-strand staircase
    with the trefoil staircase and verifies, by explicit linear algebra over
    the polynomial ring:

    * the declared (2k+3)-dimensional subspace and the k rank-4 blocks are
      each closed under the differential;
    * together they form a basis (direct-sum decomposition);
    * every rank-4 block is acyclic;
    * the distinguished subspace is isomorphic, gradings and differential
      included, to the two-strand staircase with 2k+3 generators.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    checks: list[tuple[str, bool, str]] = []

    def record(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, ok, detail))

    for k in range(1, n):
        tag = f"step {k}->{k + 1}"
        left = staircase(range(k, -k - 1, -1), prefix="x")
        tref = trefoil_staircase()
        # Rename trefoil generators to a, b, c for readable combination ids.
        tref = BifilteredComplex(
            ids=("a", "b", "c"),
            maslov=tref.maslov,
            alexander=tref.alexander,
            arrows=tref.arrows,
        )
        full = tensor(left, tref)
        size = len(full)
        pos = {gid: i for i, gid in enumerate(full.ids)}

        def gen(i: int, letter: str) -> int:
            return pos[f"x{i}*{letter}"]

        combos: list[tuple[str, int]] = []  # (label, F2 bitmask over generators)
        combos.append(("v1", 1 << gen(1, "a")))
        combos.append(("v2", 1 << gen(1, "b")))
        for i in range(1, 2 * k + 2):
            combos.append((f"v{i + 2}", 1 << gen(i, "c")))
        block_slices: list[range] = []
        for i in range(1, k + 1):
            start = len(combos)
            combos.append((f"w{i}.1", 1 << gen(2 * i, "b")))
            combos.append((f"w{i}.2", (1 << gen(2 * i - 1, "b")) | (1 << gen(2 * i, "a"))))
            combos.append((f"w{i}.3", (1 << gen(2 * i + 1, "b")) | (1 << gen(2 * i, "c"))))
            combos.append((f"w{i}.4", (1 << gen(2 * i - 1, "c")) | (1 << gen(2 * i + 1, "a"))))
            block_slices.append(range(start, start + 4))
        v_slice = range(0, 2 * k + 3)

        ok_count = len(combos) == size
        record(f"{tag}: vector count", ok_count, f"{len(combos)} of {size}")
        inverse = _f2_inverse([mask for _, mask in combos], size)
        record(f"{tag}: direct sum (basis change invertible)", inverse is not None)
        if inverse is None or not ok_count:
            continue

        # Homogeneous gradings of each combination.
        def combo_gradings(mask: int) -> tuple[int, int] | None:
            ms = {full.maslov[g] for g in range(size) if (mask >> g) & 1}
            al = {full.alexander[g] for g in range(size) if (mask >> g) & 1}
            if len(ms) != 1 or len(al) != 1:
                return None
            return ms.pop(), al.pop()

        gradings = [combo_gradings(mask) for _, mask in combos]
        record(f"{tag}: combinations homogeneous", all(g is not None for g in gradings))
        if any(g is None for g in gradings):
            continue

        # Differential of each combination, in combination coordinates.
        # Coordinates are U-polynomials encoded as exponent bitmasks.
        def boundary_coords(mask: int) -> list[int]:
            in_gens = [0] * size
            for g in range(size):
                if (mask >> g) & 1:
                    for e, tgt in full.arrows[g]:
                        in_gens[tgt] ^= 1 << e
            out = []
            for r in range(len(combos)):
                acc = 0
                sel = inverse[r]
                for g in range(size):
                    if (sel >> g) & 1:
                        acc ^= in_gens[g]
                out.append(acc)
            return out

        coords = [boundary_coords(mask) for _, mask in combos]

        def closed(indices: range) -> bool:
            inside = set(indices)
            return all(
                coords[i][j] == 0
                for i in indices
                for j in range(len(combos))
                if j not in inside
            )

        record(f"{tag}: distinguished subspace closed", closed(v_slice))
        record(
            f"{tag}: rank-4 blocks closed",
            all(closed(block) for block in block_slices),
        )

        def block_complex(indices: range) -> BifilteredComplex | None:
            local = list(indices)
            arrows: list[list[Arrow]] = [[] for _ in local]
            for a, i in enumerate(local):
                for b, j in enumerate(local):
                    poly = coords[i][j]
                    if poly == 0:
                        continue
                    if poly & (poly - 1):
                        return None  # not a monomial; cannot happen for graded maps
                    arrows[a].append((poly.bit_length() - 1, b))
            return BifilteredComplex(
                ids=tuple(combos[i][0] for i in local),
                maslov=tuple(gradings[i][0] for i in local),
                alexander=tuple(gradings[i][1] for i in local),
                arrows=_canonical_arrows(arrows),
            )

        acyclic_ok = True
        detail = ""
        for block in block_slices:
            built = block_complex(block)
            if built is None:
                acyclic_ok = False
                detail = "non-monomial entry"
                break
            summary = homology_over_polynomial_ring(built)
            if not summary.is_zero:
                acyclic_ok = False
                detail = f"homology {summary}"
                break
        record(f"{tag}: rank-4 blocks acyclic", acyclic_ok, detail)

        reduced = block_complex(v_slice)
        target = staircase(range(k + 1, -k - 2, -1), prefix="y")
        if reduced is None:
            record(f"{tag}: reduced subspace matches bigger staircase", False, "non-monomial entry")
            continue
        same = (
            reduced.maslov == target.maslov
            and reduced.alexander == target.alexander
            and reduced.arrows == target.arrows
        )
        record(f"{tag}: reduced subspace matches bigger staircase", same)

    return StaircaseSplitReport(
        n=n, passed=all(ok for _, ok, _ in checks), checks=tuple(checks)
    )
