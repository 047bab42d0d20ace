"""Hot integer kernels: exact integer computation, never floating point.

Each kernel has one implementation.  The graded Smith normal form
``graded_snf`` is a column reduction with clearing on Python-int bitsets;
the tests hold it to the graded invariants of a NumPy doubly-minimal
elimination, which lives with them.  ``f2_rank`` is the plain F_2 rank of
Python-int bitsets.  The sieve, signature and profile-grid kernels
are plain NumPy.  The profile grid ``max_gap_profile`` takes integer arrays
only and returns int64; it runs as an int64 gather over blocks of levels
and, inside each, of run starts.  ``profile_by_row_maxima`` reads the
torsion profile that the grid's inversion gives as the row maxima of a
counting-function matrix instead: each residue class of its rows modulo a
shift period of the semigroup is an inverse Monge matrix, so a divide and
conquer (Aggarwal, Klawe, Moran, Shor and Wilber, 1987) finds the maxima
in vectorised rounds of at most ``ROUND_CELLS`` cells, and one gather in
blocks of as many rows reads the values.

This module owns two formats.  Every integer array or sequence that enters
a complex, a semigroup, a staircase or the profile grid passes one gate,
``int64_array``.  The bitset format: ``pack_bit_rows`` packs a pattern into
uint64 bit rows, and ``column_bitsets`` builds the Python-int column
bitsets that ``graded_snf`` reduces straight from a differential's arrows.
``graded_snf`` has one set-up path: its caller, which runs one pattern
under many gradings, builds the bitsets, the nonzero columns and a
grouping of the generators by grading once, and passes them as
``bits=...``, ``heads=...`` and ``groups=...``, with each grading's first
pivots, found in one vectorised pass over the arrows, as ``first=...``.
``graded_snf`` unpacks nothing; it sorts the columns once, and merges the
groups into grade masks only when a column needs a second pivot search.

The central kernel diagonalizes differentials over the one-variable
polynomial ring with mod-2 coefficients.  Because the differential is
homogeneous of internal degree -1, a nonzero entry in position (i, j) is
forced to be the monomial of degree ``(grading[i] - grading[j] + 1) / 2`` at
every stage of the reduction, so the whole reduction runs on column bitsets
plus the integer grading vector: column XORs, no polynomial arithmetic.
Over F_2[U] such a differential is a persistence module, and its graded
Smith normal form is the standard column reduction (Zomorodian and
Carlsson, "Computing persistent homology", 2005), made fast by clearing
(Chen and Kerber, "Persistent homology computation with a twist", 2011):
a column whose generator is already a pivot row is skipped, as it would
reduce to zero.

Every entry degree is non-negative (``cfk.homology_over_polynomial_ring``
checks the shifted exponents of each level, and ``graded_snf`` each first
pivot), so an entry (i, j) has ``grading[i] >= grading[j] - 1``.  Columns
are reduced by descending grading, so a column XORed into column j has
grading at least ``grading[j]`` and keeps that bound.  A search after an
XOR therefore scans the grade masks upward from ``grading[j] - 1``; the
masks it skips hold no entry.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

#: Which kernel implementation runs; benchmark reports record it.
BACKEND = "numpy"


def int64_array(values, name: str) -> np.ndarray:
    """``values`` as a one-dimensional int64 array, an int64 array as it is.

    Other integer input is cast, which is exact; empty input of any dtype is
    the empty int64 array.  ``ValueError`` for float, bool, object and uint64
    input, for any other number of dimensions, and for a bool inside a
    sequence, which NumPy would read as an integer.
    """
    raw = np.asarray(values)
    # int64 first: it is what every caller passes, and ``can_cast`` costs
    # several times the rest of the check.
    if raw.dtype != np.int64:
        if raw.size and not (raw.dtype.kind in "iu" and np.can_cast(raw.dtype, np.int64)):
            raise ValueError(f"{name} must hold integers, not {raw.dtype}")
        raw = raw.astype(np.int64)
    if raw.ndim != 1:
        raise ValueError(f"{name} must hold integers in one dimension, not {raw.ndim}")
    if not isinstance(values, np.ndarray) and not {bool, np.bool_}.isdisjoint(map(type, values)):
        raise ValueError(f"{name} must hold integers, not bools")
    return raw


def pack_bit_rows(n: int, entries) -> np.ndarray:
    """Pack matrix entries into uint64 bit rows.

    Parameters
    ----------
    n : int
        Matrix is n x n; bit j of row i set iff entry (i, j) is nonzero.
    entries : (k, 2) integer array, or a sequence of (i, j) pairs
        Positions of nonzero entries.
    """
    words = max(1, (n + 63) // 64)
    rows = np.zeros((max(1, n), words), dtype=np.uint64)
    pos = np.asarray(entries, dtype=np.int64).reshape(-1, 2)
    i, j = pos[:, 0], pos[:, 1]
    bits = np.left_shift(np.uint64(1), (j & 63).astype(np.uint64))
    np.bitwise_or.at(rows, (i, j >> 6), bits)
    return rows


def column_bitsets(n: int, src: np.ndarray, tgt: np.ndarray) -> tuple[int, ...]:
    """Python-int column bitsets of an ``n``-generator differential, built
    straight from its arrows ``src -> tgt``: bit ``tgt`` of column ``src``.

    Bit i of column j is set iff ``pack_bit_rows(n, pairs)``, with one
    ``(tgt, src)`` pair per arrow, sets bit j of row i.
    """
    col_bits = [0] * n
    for s, t in zip(src.tolist(), tgt.tolist()):
        col_bits[s] |= 1 << t
    return tuple(col_bits)


def f2_rank(vectors) -> int:
    """Rank over F_2 of Python-int bitsets, bit i being coordinate i.

    Each vector is reduced against an XOR basis keyed by top bit; a vector
    that does not reduce to zero joins the basis under its new top bit.
    """
    basis: dict[int, int] = {}
    for vector in vectors:
        while vector:
            top = vector.bit_length() - 1
            pivot = basis.get(top)
            if pivot is None:
                basis[top] = vector
                break
            vector ^= pivot
    return len(basis)


# ---------------------------------------------------------------------------
# Graded Smith normal form (column reduction with clearing)
# ---------------------------------------------------------------------------


_NO_ENTRY = (
    "no entry in the grade window: the pattern is not homogeneous with "
    "non-negative entry degrees"
)


def _first_extreme(bits: int, classes) -> int:
    """Lowest index set in ``bits`` within the first of ``classes`` it meets.

    ``classes`` holds one index mask per grading value, in order of
    preference, from the first class that may hold an entry, so this is the
    first index of extreme grading in ``bits``.
    """
    for mask in classes:
        hit = bits & mask
        if hit:
            return (hit & -hit).bit_length() - 1
    raise AssertionError(_NO_ENTRY)


def _grade_masks(grading: np.ndarray, groups) -> tuple[list[int], list[int]]:
    """The distinct values of ``grading``, ascending, and the row mask of
    the indices that carry each, merged from ``groups``."""
    reps, masks = groups
    merged: dict[int, int] = {}
    for value, mask in zip(grading[reps].tolist(), masks):
        merged[value] = merged.get(value, 0) | mask
    values = sorted(merged)
    return values, [merged[value] for value in values]


def graded_snf(
    rows: np.ndarray,
    grading: np.ndarray,
    *,
    bits: tuple[int, ...],
    heads: np.ndarray,
    first: np.ndarray,
    groups: tuple[np.ndarray, tuple[int, ...]],
):
    """Diagonalize a graded mod-2 differential; returns pivot data.

    ``bits`` are the column bitsets of the nonzero pattern, from
    ``column_bitsets``; entry degrees are implied by ``grading``.
    ``heads`` are the nonzero columns in increasing order, and ``first``
    holds each one's first pivot: its row of least grading, lowest index
    first.  ``groups`` partition the indices into groups of equal grading:
    an int64 array with one index of each group, and a tuple with the row
    mask of each.  All must be exactly that.  A caller that reduces one
    pattern under many gradings builds the bitsets, the heads and the
    groups once and finds the first pivots of each grading in one
    vectorised pass; the grade masks are merged from the groups only once
    a column needs a second pivot search, and nothing is unpacked here.
    ``rows``, the same pattern as uint64 bit rows from ``pack_bit_rows``,
    is not read: it stays the first argument so that a profiler can size
    the matrix from it.  Returns int64 arrays ``(pivot_row, pivot_col,
    pivot_degree)``.

    Column reduction with clearing: columns are taken by descending grading,
    ties by index, from one stable sort.  A column's pivot is its row of
    least grading, lowest index first; while another column already owns
    that pivot row, its stored reduced column is XORed in, and the pivot of
    what is left is searched in the grade masks.  A column whose generator
    is already a pivot row is skipped.

    Requires every entry (i, j) to have a non-negative degree
    ``(grading[i] - grading[j] + 1) / 2``, and the pattern to square to zero
    mod 2.  The degrees make each XOR a valid column operation: the stored
    column has grading no less than the one it is added to, so the
    coefficient is a non-negative power of U, and no entry of column j ever
    lies below class ``grading[j] - 1``, where its pivot search starts.  A
    first pivot below that class raises ``AssertionError``.  ``d^2 = 0``
    makes clearing sound: a stored column with pivot row k is a boundary,
    so, divided by its power of U at row k, it is a cycle of grading
    ``grading[k]``: ``x_k`` plus rows after k.  Taking that cycle as the
    basis vector of column k is a unitriangular change of basis that makes
    column k zero without reducing it.  Without ``d^2 = 0`` the results are
    wrong, not refused.

    The pivots may differ from those of a doubly-minimal elimination, but
    the graded invariants do not: the rank, the ``(degree, row grading)``
    pairs and the ``(row grading, column grading)`` pairs are fixed by the
    graded structure theorem.
    """
    n = len(grading)
    empty = np.zeros(0, dtype=np.int64)
    if n == 0:
        return empty, empty.copy(), empty.copy()
    g = np.asarray(grading, dtype=np.int64)
    head_grading = g[heads]
    if np.count_nonzero(g[first] < head_grading - 1):
        raise AssertionError(_NO_ENTRY)
    order = (-head_grading).argsort(kind="stable")

    reduced = [0] * n  # pivot row -> its reduced column; 0 for no pivot
    values = ascending = None  # the grade masks, merged on first need
    piv_i: list[int] = []
    piv_j: list[int] = []
    for j, i in zip(heads[order].tolist(), first[order].tolist()):
        if reduced[j]:
            continue  # cleared: its generator is a pivot row
        column = bits[j]
        window = None
        while True:
            other = reduced[i]
            if not other:
                reduced[i] = column
                piv_i.append(i)
                piv_j.append(j)
                break
            column ^= other
            if not column:
                break
            if window is None:
                if values is None:
                    values, ascending = _grade_masks(g, groups)
                # A column of grading g holds rows of grading >= g - 1.
                window = ascending[bisect_left(values, int(g[j]) - 1) :]
            i = _first_extreme(column, window)
    piv_row = np.array(piv_i, dtype=np.int64)
    piv_col = np.array(piv_j, dtype=np.int64)
    return piv_row, piv_col, (g[piv_row] - g[piv_col] + 1) >> 1


# ---------------------------------------------------------------------------
# Numerical semigroup membership sieve
# ---------------------------------------------------------------------------


def sieve_members(a: int, b: int, limit: int) -> np.ndarray:
    """uint8 membership array for the semigroup generated by a and b on [0, limit).

    Every m*a + n*b below ``limit`` is marked by strided slice writes: one
    per multiple of the larger generator, striding by the smaller one, so
    the Python loop runs ``limit / max(a, b)`` times.
    """
    small, large = sorted((a, b))
    members = np.zeros(max(0, limit), dtype=np.uint8)
    for base in range(0, limit, large):
        members[base::small] = 1
    return members


# ---------------------------------------------------------------------------
# Torus knot signature lattice count
# ---------------------------------------------------------------------------


def signature_count(p: int, q: int) -> int:
    """Sum of eigenvalue signs of the symmetrized Seifert form of T(p, q).

    Pair (a, b) in [1, p-1] x [1, q-1] contributes -1 when
    1/2 < a/p + b/q < 3/2 and +1 otherwise, tested as an integer comparison
    (equality is impossible for coprime p, q: 2(aq + bp) = pq forces, writing
    p = 2m with q odd, a = m and then b = 0, and both odd makes the sides
    differ in parity; similarly for 3pq).
    """
    a = np.arange(1, p, dtype=np.int64)[:, None]
    b = np.arange(1, q, dtype=np.int64)[None, :]
    x = 2 * (a * q + b * p)
    pq = p * q
    inside = (x > pq) & (x < 3 * pq)
    return int((p - 1) * (q - 1) - 2 * int(inside.sum()))


# ---------------------------------------------------------------------------
# Difference-profile maximum for the closed-form invariant grid
# ---------------------------------------------------------------------------


#: Cells per block of the profile grid: bounds the temporaries of one step.
GRID_BLOCK_CELLS = 1 << 16


def max_gap_profile(gam_a: np.ndarray, gam_b: np.ndarray, v_count: int) -> np.ndarray:
    """out[v] = max over k of gam_b[k] - gam_a[k + v], for v in [0, v_count).

    Requires ``len(gam_a) >= len(gam_b) + v_count - 1`` and ``gam_a``
    strictly increasing (``ValueError`` otherwise).

    Only the run starts of ``gam_b`` are read: the ``k`` with ``k = 0`` or
    ``gam_b[k] != gam_b[k - 1] + 1``.  Inside a run ``gam_b`` rises by
    exactly 1 per step while ``gam_a`` rises by at least 1, so
    ``gam_b[k + 1] - gam_a[k + 1 + v] <= gam_b[k] - gam_a[k + v]``: the
    maximum over a run is attained at its start, for every ``v``.

    The grid of run starts times levels is evaluated as a 2-D int64 gather
    in blocks of at most ``GRID_BLOCK_CELLS`` cells: blocks of at most
    ``GRID_BLOCK_CELLS`` levels outside, and inside them as many run starts
    as fit times every level of the block.

    Both arrays pass ``int64_array``, so float, bool, object and uint64
    input raises ``ValueError`` instead of being truncated or wrapped.
    """
    gam_a = int64_array(gam_a, "gam_a")
    gam_b = int64_array(gam_b, "gam_b")
    if v_count <= 0:
        return np.zeros(0, dtype=np.int64)
    if gam_a.shape[0] < gam_b.shape[0] + v_count - 1:
        raise ValueError("gam_a too short for requested profile length")
    if (gam_a[1:] <= gam_a[:-1]).any():
        raise ValueError("gam_a must be strictly increasing")
    if gam_b.shape[0] == 0:
        raise ValueError("gam_b must be nonempty")
    # k = 0 starts the first run and seeds ``out``; the rest are listed.
    out = gam_b[0] - gam_a[:v_count]
    starts = np.flatnonzero(gam_b[1:] != gam_b[:-1] + 1) + 1
    tops = gam_b[starts]
    width = min(v_count, GRID_BLOCK_CELLS)
    rows = GRID_BLOCK_CELLS // width
    for v0 in range(0, v_count, width):
        levels = np.arange(v0, min(v0 + width, v_count), dtype=np.int64)
        part = out[v0 : v0 + width]
        for lo in range(0, starts.shape[0], rows):
            ks = starts[lo : lo + rows, None]
            block = tops[lo : lo + rows, None] - gam_a[ks + levels]
            np.maximum(part, block.max(axis=0), out=part)
    return out


# ---------------------------------------------------------------------------
# Torsion profile by monotone row maxima
# ---------------------------------------------------------------------------

#: Cells per search round and rows per block of the last gather of
#: ``profile_by_row_maxima``: a quarter of a grid block, so that the five or
#: so int64 temporaries of a round stay below 1 MB together.
ROUND_CELLS = GRID_BLOCK_CELLS // 4


def _shift_period(member: np.ndarray) -> int:
    """A positive ``p`` with ``S + p`` inside ``S``, for the formal semigroup
    ``S`` whose members ``member`` marks below its conductor ``len(member)``.

    The multiplicity (the least nonzero member) when one pass over the
    marks confirms it, otherwise the conductor, which is a period of every
    formal semigroup; 1 for the unknot's, whose conductor is 0.
    """
    conductor = member.shape[0]
    if conductor <= 2:  # genus 0 or 1: no nonzero member below the conductor
        return conductor or 1
    p = 1 + int(member[1:].argmax())
    # a member m below 2g - p needs m + p in S; from 2g - p on it is there
    if (member[: conductor - p] > member[p:]).any():
        return conductor
    return p


def _row_argmax(rows, lo, width, table, x_off, s_col, key_col, weight):
    """For each row ``r`` of ``rows``, the least column ``j`` in ``[lo, lo +
    width)`` that maximises ``table[s_col[j] + r + x_off] - k_j``, as int64.

    ``key_col[j] = weight * (-k_j) + weight - 1 - j``, with ``weight`` the
    number of columns, so one maximum of ``table[...] * weight + key_col[j]``
    finds the greatest value and, among equal values, the least column.  In
    rounds of at most ``ROUND_CELLS`` cells: as many whole rows as fit, or
    one column block of a row that does not fit alone.
    """

    def keys(col, x):
        key = np.multiply(table.take(s_col.take(col) + x), weight, dtype=np.int64)
        key += key_col.take(col)
        return key

    found = np.empty(rows.shape[0], dtype=np.int64)
    ends = np.cumsum(width)
    first = 0
    while first < rows.shape[0]:
        base = int(ends[first - 1]) if first else 0
        stop = int(np.searchsorted(ends, base + ROUND_CELLS, "right"))
        if stop == first:  # a row wider than a round
            x = int(rows[first]) + x_off
            left = int(lo[first])
            right = left + int(width[first])
            found[first] = max(
                int(keys(np.arange(j, min(j + ROUND_CELLS, right)), x).max())
                for j in range(left, right, ROUND_CELLS)
            )
            first += 1
            continue
        span = width[first:stop]
        offsets = ends[first:stop] - span - base
        col = np.repeat(lo[first:stop] - offsets, span)
        col += np.arange(col.shape[0])
        found[first:stop] = np.maximum.reduceat(
            keys(col, np.repeat(rows[first:stop] + x_off, span)), offsets
        )
        first = stop
    return weight - 1 - found % weight


def profile_by_row_maxima(
    members_a: np.ndarray, gam_b: np.ndarray, shift: int, count: int
) -> np.ndarray:
    """out[m] = max(0, max over k of I_A(gam_b[k] + shift - m) - k), for m
    in [0, count), where ``I_A(y)`` counts the members of A below ``y``
    (0 for ``y <= 0``).

    ``members_a`` are the members of a formal semigroup A below its
    conductor ``2g`` (from there on every integer is a member); ``gam_b``
    is strictly increasing and non-negative (``ValueError`` otherwise).
    Both pass ``int64_array``.  The result is int64.

    Only the run starts ``s = gam_b[k]`` are read, ``k = 0`` or
    ``gam_b[k] != gam_b[k - 1] + 1``: inside a run ``gam_b`` rises by 1 per
    step, ``I_A`` by at most 1 and ``k`` by exactly 1.  So the result is
    the row maxima of the matrix ``M[x, s] = I_A(s + x) - k(s)`` over rows
    ``x = shift - m``, clipped at 0.

    If ``A + p`` lies inside A, the rows ``x`` of one residue class mod
    ``p`` form an inverse Monge matrix: for rows ``x < x'`` with ``x' - x
    = d`` a multiple of ``p`` and columns ``s < s'``, ``M[x, s] + M[x', s']
    - M[x, s'] - M[x', s] = f(s' + x) - f(s + x)`` with ``f(y) = I_A(y + d)
    - I_A(y)``, and ``f(y + 1) - f(y) = [y + d in A] - [y in A] >= 0``.  So
    the least maximising column never decreases down a class (Aggarwal,
    Klawe, Moran, Shor and Wilber, "Geometric applications of a
    matrix-searching algorithm", 1987).  ``_shift_period`` finds ``p``.
    Each class first searches its first and last rows over every column.
    Then, round by round, each two rows searched that have unsearched rows
    of their class between them and maximise in different columns have
    the row halfway between them searched between those two columns.  Two
    rows that maximise in one column pass it to every row between them, by
    one running maximum down each class.  A last gather reads the values.

    Every search round, and every block of the last gather, touches at
    most ``ROUND_CELLS`` cells (one column block of one row when a
    single row is wider).  A class's cells in one round number at most its
    columns plus its rows, and there are about ``log2(count / p)`` rounds,
    against ``count`` times the columns for the full grid.  The counting
    table of ``I_A`` has about ``g_A + g_B + count`` int32 entries, the
    marks it is summed from one byte each, and the maximising columns one
    int32 per row.
    """
    members_a = int64_array(members_a, "members_a")
    gam_b = int64_array(gam_b, "gam_b")
    g = members_a.shape[0]
    if g and (
        members_a[0] != 0
        or members_a[-1] >= 2 * g
        or (members_a[1:] <= members_a[:-1]).any()
    ):
        raise ValueError("members_a must be a formal semigroup's members below 2g")
    if gam_b.shape[0] == 0 or gam_b[0] < 0 or (gam_b[1:] <= gam_b[:-1]).any():
        raise ValueError("gam_b must be nonempty, non-negative and strictly increasing")
    if count <= 0:
        return np.zeros(0, dtype=np.int64)
    cols = np.flatnonzero(np.concatenate(([True], gam_b[1:] != gam_b[:-1] + 1)))
    s_col = gam_b[cols]
    weight = cols.shape[0]
    key_col = weight - 1 - np.arange(weight) - cols * weight

    # One mark per member of A on [0, max(y_hi, 2g)): the period reads the
    # marks below the conductor, and table[y - y_lo] = I_A(y), for every
    # y = s + x that a cell reads, is their running sum.
    x_lo = shift - count + 1
    y_lo = min(0, x_lo)
    y_hi = max(0, int(s_col[-1]) + shift)
    member = np.zeros(max(y_hi, 2 * g), dtype=bool)
    member[members_a] = True
    member[2 * g :] = True
    period = min(_shift_period(member[: 2 * g]), count)
    table = np.zeros(y_hi - y_lo + 1, dtype=np.int32)
    np.cumsum(member[:y_hi], dtype=np.int32, out=table[1 - y_lo :])
    del member
    x_off = x_lo - y_lo  # row r, x = x_lo + r, reads table[s + r + x_off]

    depth = -(-count // period)
    best = np.full(depth * period, -1, dtype=np.int32)
    left = np.arange(period)
    right = left + (count - 1 - left) // period * period
    ends = np.union1d(left, right)
    search = (table, x_off, s_col, key_col, weight)
    best[ends] = _row_argmax(ends, np.zeros_like(ends), np.full_like(ends, weight), *search)
    lo, hi = best[left].astype(np.int64), best[right].astype(np.int64)
    while True:
        open_ = np.flatnonzero((right - left > period) & (lo != hi))
        if not open_.shape[0]:
            break
        left, right, lo, hi = left[open_], right[open_], lo[open_], hi[open_]
        mid = left + (right - left) // (2 * period) * period
        at = _row_argmax(mid, lo, hi - lo + 1, *search)
        best[mid] = at
        left, right = np.concatenate((left, mid)), np.concatenate((mid, right))
        lo, hi = np.concatenate((lo, at)), np.concatenate((at, hi))
    # An unsearched row lies between two rows of its class that maximise
    # in one column, and columns never decrease down a class.
    by_class = best.reshape(depth, period)  # row r at [r // period, r % period]
    np.maximum.accumulate(by_class, axis=0, out=by_class)

    out = np.empty(count, dtype=np.int64)
    for r0 in range(0, count, ROUND_CELLS):
        r1 = min(r0 + ROUND_CELLS, count)
        col = best[r0:r1]
        y = s_col.take(col)
        y += np.arange(r0 + x_off, r1 + x_off)
        np.subtract(table.take(y), cols.take(col), out=out[count - r1 : count - r0][::-1])
    return np.maximum(out, 0, out=out)
