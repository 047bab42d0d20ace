"""Hot integer kernels: exact integer computation, never floating point.

Each kernel has one implementation.  The graded elimination ``graded_snf``
runs on Python-int bitsets; ``_graded_snf_numpy`` is the NumPy reference it
is tested against.  ``f2_rank`` is the plain F_2 rank of Python-int
bitsets.  The sieve, signature and profile-grid kernels are plain NumPy.
The profile grid ``max_gap_profile`` takes integer arrays only and returns
int64.  Its long rows loop over blocks of levels outside and run starts
inside, and run in int32 whenever every input value lies in ``[0, 2**31)``
(exact there, see its docstring), in int64 otherwise; its short profiles
run as an int64 gather.

This module owns two formats.  Every integer array or sequence that enters
a complex, a semigroup, a staircase or the profile grid passes one gate,
``int64_array``.  The bitset format: ``pack_bit_rows`` packs a pattern into
uint64 bit rows, and ``unpack_bit_rows`` turns those into the Python-int
row and column bitsets that ``graded_snf`` eliminates on.  A caller that
runs one pattern under many gradings unpacks it once and passes the pair
as ``graded_snf(..., bits=...)``; the pivot rule does not depend on where
the bitsets came from.

The central kernel diagonalizes boundary matrices over the one-variable
polynomial ring with mod-2 coefficients.  Because the boundary map is
homogeneous of internal degree -1, a nonzero entry in position (i, j) is
forced to be the monomial of degree ``(grading[i] - grading[j] + 1) / 2`` at
every stage of the reduction, so the whole elimination runs on bit rows
plus the integer grading vector — row XORs, no polynomial arithmetic.

Pivots are chosen *doubly minimal*: minimal row grading within their column
and maximal column grading within their row (a short alternating fixpoint).
That makes every row operation, and every implicit column operation at
deactivation time, a multiplication by a non-negative power of U, hence a
valid change of basis; the final diagonal then gives the module structure of
kernel and cokernel directly (invariant-factor ordering is irrelevant for
the direct-sum decomposition).

The same degrees bound the pivot searches.  Every entry degree is
non-negative (``cfk.homology_over_polynomial_ring`` checks the shifted
exponents of each level), so an entry (i, j) has ``grading[i] >=
grading[j] - 1``, and a row XOR keeps that: the pivot row has the least
grading in its column, so it is no greater than the grading of any row it
is added to.  ``graded_snf`` therefore scans the grading classes of a
column upward from ``grading[j] - 1``, and those of a row downward from
``grading[i] + 1``; the classes it skips hold no entry, so its pivots are
those of a scan over every class.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

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


def unpack_bit_rows(rows: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Python-int row and column bitsets of square uint64 bit rows.

    Bit j of the i-th row bitset, and bit i of the j-th column bitset, is
    set iff bit j of row i is set.  ``rows`` is left unchanged.
    """
    n, words = rows.shape
    stride = 8 * words
    raw = np.ascontiguousarray(rows, dtype="<u8").tobytes()
    row_bits = tuple(
        int.from_bytes(raw[k : k + stride], "little") for k in range(0, n * stride, stride)
    )
    col_bits = [0] * n
    for i, bits in enumerate(row_bits):
        flag = 1 << i
        while bits:
            low = bits & -bits
            col_bits[low.bit_length() - 1] |= flag
            bits ^= low
    return row_bits, tuple(col_bits)


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
# Graded Smith normal form (doubly minimal bit elimination)
# ---------------------------------------------------------------------------


def _graded_snf_numpy(rows: np.ndarray, grading: np.ndarray):
    """NumPy reference for ``graded_snf``, kept for the tests.

    ``rows`` is consumed (modified in place).  Returns three int64 arrays
    (pivot_row, pivot_col, pivot_degree); the number of pivots is the rank.
    """
    n = int(grading.shape[0])
    empty = np.zeros(0, dtype=np.int64)
    if n == 0:
        return empty, empty.copy(), empty.copy()
    row_active = np.ones(n, dtype=bool)
    col_active = np.ones(n, dtype=bool)
    piv_i: list[int] = []
    piv_j: list[int] = []
    piv_d: list[int] = []

    byte_view = rows.view(np.uint8)  # aliases rows; requires C-contiguity

    def row_support(i: int) -> np.ndarray:
        bits = np.unpackbits(byte_view[i], bitorder="little")[:n]
        return np.nonzero(bits.astype(bool) & col_active)[0]

    def col_rows(j: int) -> np.ndarray:
        word, bit = j >> 6, np.uint64(1) << np.uint64(j & 63)
        return np.nonzero(row_active & ((rows[:, word] & bit) != 0))[0]

    for j_start in range(n):
        while col_active[j_start]:
            holders = col_rows(j_start)
            if holders.size == 0:
                break  # zero column: a kernel direction, never a pivot
            i_cur = int(holders[np.argmin(grading[holders])])
            j_cur = j_start
            while True:
                support = row_support(i_cur)
                j_best = int(support[np.argmax(grading[support])])
                if grading[j_best] > grading[j_cur]:
                    j_cur = j_best
                    continue
                holders = col_rows(j_cur)
                i_best = int(holders[np.argmin(grading[holders])])
                if grading[i_best] < grading[i_cur]:
                    i_cur = i_best
                    continue
                break
            piv_i.append(i_cur)
            piv_j.append(j_cur)
            piv_d.append((int(grading[i_cur]) - int(grading[j_cur]) + 1) >> 1)
            row_active[i_cur] = False
            col_active[j_cur] = False
            hit = col_rows(j_cur)
            if hit.size:
                rows[hit] ^= rows[i_cur]
    return (
        np.array(piv_i, dtype=np.int64),
        np.array(piv_j, dtype=np.int64),
        np.array(piv_d, dtype=np.int64),
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
    raise AssertionError(
        "no entry in the grade window: the pattern is not homogeneous with "
        "non-negative entry degrees"
    )


def graded_snf(
    rows: np.ndarray,
    grading: np.ndarray,
    *,
    bits: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
):
    """Diagonalize a graded mod-2 boundary matrix; returns pivot data.

    ``rows`` (uint64 bit rows from ``pack_bit_rows``, left unchanged) encodes
    the nonzero pattern; entry degrees are implied by ``grading``.  ``bits``
    is ``unpack_bit_rows(rows)``, passed by callers that eliminate one
    pattern under many gradings; without it ``rows`` is unpacked here.
    Returns int64 arrays ``(pivot_row, pivot_col, pivot_degree)``.

    The elimination runs on copies of those bitsets, plus an active-row and
    an active-column mask.  It makes exactly the pivot choices of
    ``_graded_snf_numpy`` (first index of minimal row grading, first index
    of maximal column grading, same fixpoint, same row XOR), so both return
    identical triples.

    Requires every entry (i, j) to have a non-negative degree
    ``(grading[i] - grading[j] + 1) / 2``.  The search for the least row
    grading in column j then starts at class ``grading[j] - 1``, and the
    search for the greatest column grading in row i at class
    ``grading[i] + 1``: no entry lies outside these windows, before or
    after any row XOR, so the pivots are those of a full scan.
    """
    n = len(grading)
    empty = np.zeros(0, dtype=np.int64)
    if n == 0:
        return empty, empty.copy(), empty.copy()
    grade = np.asarray(grading, dtype=np.int64).tolist()
    row_bits, col_bits = unpack_bit_rows(rows[:n]) if bits is None else bits
    row_bits, col_bits = list(row_bits), list(col_bits)
    by_grade: dict[int, int] = {}
    for k, value in enumerate(grade):
        by_grade[value] = by_grade.get(value, 0) | (1 << k)
    values = sorted(by_grade)
    ascending = [by_grade[value] for value in values]
    # The grade windows: column j holds rows of grading >= grade[j] - 1
    # only, row i columns of grading <= grade[i] + 1 only.
    rows_from = {g: ascending[bisect_left(values, g - 1) :] for g in values}
    cols_from = {g: ascending[: bisect_right(values, g + 1)][::-1] for g in values}
    row_window = [rows_from[g] for g in grade]
    col_window = [cols_from[g] for g in grade]

    row_active = col_active = (1 << n) - 1
    piv_i: list[int] = []
    piv_j: list[int] = []
    piv_d: list[int] = []
    for j_start in range(n):
        while col_active >> j_start & 1:
            holders = col_bits[j_start] & row_active
            if not holders:
                break  # zero column: a kernel direction, never a pivot
            # The fixpoint of the reference, minus its repeated scans: i_cur
            # is always the pick of column j_cur when the row is scanned,
            # and j_cur the pick of row i_cur when the column is scanned.
            i_cur = _first_extreme(holders, row_window[j_start])
            j_cur = j_start
            while True:
                j_best = _first_extreme(row_bits[i_cur] & col_active, col_window[i_cur])
                if grade[j_best] <= grade[j_cur]:
                    break
                j_cur = j_best
                i_best = _first_extreme(col_bits[j_cur] & row_active, row_window[j_cur])
                if grade[i_best] >= grade[i_cur]:
                    break
                i_cur = i_best
            piv_i.append(i_cur)
            piv_j.append(j_cur)
            piv_d.append((grade[i_cur] - grade[j_cur] + 1) >> 1)
            row_active ^= 1 << i_cur
            col_active ^= 1 << j_cur
            hit = col_bits[j_cur] & row_active
            if not hit:
                continue
            pivot = row_bits[i_cur]
            rest = hit
            while rest:
                low = rest & -rest
                row_bits[low.bit_length() - 1] ^= pivot
                rest ^= low
            # Inactive columns are never read again, so only active ones track.
            rest = pivot & col_active
            while rest:
                low = rest & -rest
                col_bits[low.bit_length() - 1] ^= hit
                rest ^= low
    return (
        np.array(piv_i, dtype=np.int64),
        np.array(piv_j, dtype=np.int64),
        np.array(piv_d, dtype=np.int64),
    )


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
#: Profiles at least this long are evaluated one run start at a time, on
#: contiguous slices; shorter ones as a 2-D gather over many run starts.
#: Must not exceed ``GRID_BLOCK_CELLS``, so that a gather block holds a row.
#: Near 1000 levels the two cost the same: about 2 us of Python per slice
#: against about 2.5 ns per cell more for the gather.
ROW_BLOCK_MIN_LEVELS = 1 << 10


def max_gap_profile(gam_a: np.ndarray, gam_b: np.ndarray, v_count: int) -> np.ndarray:
    """out[v] = max over k of gam_b[k] - gam_a[k + v], for v in [0, v_count).

    Requires ``len(gam_a) >= len(gam_b) + v_count - 1`` and ``gam_a``
    strictly increasing (``ValueError`` otherwise).

    Only the run starts of ``gam_b`` are read: the ``k`` with ``k = 0`` or
    ``gam_b[k] != gam_b[k - 1] + 1``.  Inside a run ``gam_b`` rises by
    exactly 1 per step while ``gam_a`` rises by at least 1, so
    ``gam_b[k + 1] - gam_a[k + 1 + v] <= gam_b[k] - gam_a[k + v]``: the
    maximum over a run is attained at its start, for every ``v``.

    The grid of run starts times levels is evaluated in blocks of at most
    ``GRID_BLOCK_CELLS`` cells, never one level at a time: one run start
    times a contiguous slice of levels when ``v_count`` reaches
    ``ROW_BLOCK_MIN_LEVELS``, otherwise as many run starts as fit times
    every level.  The rows loop over blocks of levels outside and run
    starts inside, so each run start costs one subtraction and one maximum
    over the block of ``out`` at hand.  They run in int32 when every
    value of ``gam_a`` and ``gam_b`` lies in ``[0, 2**31)``, in int64
    otherwise: each cell ``top - gam_a[j]`` then lies in ``(-2**31, 2**31)``,
    so int32 is exact.  The gather path always runs in int64, and the
    result is always int64.

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
    if v_count >= ROW_BLOCK_MIN_LEVELS:
        # gam_a is increasing, so its ends bound it.
        fits = 0 <= min(gam_a[0], gam_b.min()) and max(gam_a[-1], gam_b.max()) < 1 << 31
        cell = np.int32 if fits else np.int64
        gam_a = gam_a.astype(cell, copy=False)
        out = out.astype(cell, copy=False)
        pairs = list(zip(starts.tolist(), tops.tolist()))
        for v0 in range(0, v_count, GRID_BLOCK_CELLS):
            v1 = min(v0 + GRID_BLOCK_CELLS, v_count)
            part = out[v0:v1]
            for k, top in pairs:
                np.maximum(part, top - gam_a[k + v0 : k + v1], out=part)
        return out.astype(np.int64, copy=False)
    levels = np.arange(v_count, dtype=np.int64)
    rows = GRID_BLOCK_CELLS // v_count
    for lo in range(0, starts.shape[0], rows):
        ks = starts[lo : lo + rows, None]
        block = tops[lo : lo + rows, None] - gam_a[ks + levels]
        np.maximum(out, block.max(axis=0), out=out)
    return out
