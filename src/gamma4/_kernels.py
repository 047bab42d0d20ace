"""Hot integer kernels: exact integer computation, never floating point.

Each kernel has one implementation.  The graded elimination ``graded_snf``
runs on Python-int bitsets; ``_graded_snf_numpy`` is the NumPy reference it
is tested against.  The sieve, signature and profile-grid kernels are plain
NumPy.

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
"""

from __future__ import annotations

import numpy as np

#: Which kernel implementation runs; benchmark reports record it.
BACKEND = "numpy"


def pack_bit_rows(n: int, entries) -> np.ndarray:
    """Pack matrix entries into uint64 bit rows.

    Parameters
    ----------
    n : int
        Matrix is n x n; bit j of row i set iff entry (i, j) is nonzero.
    entries : iterable of (i, j)
        Positions of nonzero entries.
    """
    words = max(1, (n + 63) // 64)
    rows = np.zeros((max(1, n), words), dtype=np.uint64)
    pos = np.array(list(entries), dtype=np.int64).reshape(-1, 2)
    i, j = pos[:, 0], pos[:, 1]
    bits = np.left_shift(np.uint64(1), (j & 63).astype(np.uint64))
    np.bitwise_or.at(rows, (i, j >> 6), bits)
    return rows


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
    preference, so this is the first index of extreme grading in ``bits``.
    """
    for mask in classes:
        hit = bits & mask
        if hit:
            return (hit & -hit).bit_length() - 1
    raise AssertionError("empty bit set; this is a bug")


def graded_snf(rows: np.ndarray, grading: np.ndarray):
    """Diagonalize a graded mod-2 boundary matrix; returns pivot data.

    ``rows`` (uint64 bit rows from ``pack_bit_rows``, left unchanged) encodes
    the nonzero pattern; entry degrees are implied by ``grading``.  Returns
    int64 arrays ``(pivot_row, pivot_col, pivot_degree)``.

    The elimination runs on Python-int bitsets: one int per row, one per
    column, and an active-row and an active-column mask.  It makes exactly
    the pivot choices of ``_graded_snf_numpy`` (first index of minimal row
    grading, first index of maximal column grading, same fixpoint, same row
    XOR), so both return identical triples.
    """
    n = len(grading)
    empty = np.zeros(0, dtype=np.int64)
    if n == 0:
        return empty, empty.copy(), empty.copy()
    grade = np.asarray(grading, dtype=np.int64).tolist()
    stride = 8 * rows.shape[1]
    raw = np.ascontiguousarray(rows[:n], dtype="<u8").tobytes()
    row_bits = [
        int.from_bytes(raw[k : k + stride], "little") for k in range(0, n * stride, stride)
    ]
    col_bits = [0] * n
    for i, bits in enumerate(row_bits):
        flag = 1 << i
        while bits:
            low = bits & -bits
            col_bits[low.bit_length() - 1] |= flag
            bits ^= low
    by_grade: dict[int, int] = {}
    for k, value in enumerate(grade):
        by_grade[value] = by_grade.get(value, 0) | (1 << k)
    ascending = [by_grade[value] for value in sorted(by_grade)]
    descending = ascending[::-1]

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
            i_cur = _first_extreme(holders, ascending)
            j_cur = j_start
            while True:
                j_best = _first_extreme(row_bits[i_cur] & col_active, descending)
                if grade[j_best] <= grade[j_cur]:
                    break
                j_cur = j_best
                i_best = _first_extreme(col_bits[j_cur] & row_active, ascending)
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

    Every m*a + n*b below ``limit`` is marked by strided slice writes.
    """
    members = np.zeros(max(0, limit), dtype=np.uint8)
    for base in range(0, limit, a):
        members[base::b] = 1
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


def max_gap_profile(gam_a: np.ndarray, gam_b: np.ndarray, v_count: int) -> np.ndarray:
    """out[v] = max over k of gam_b[k] - gam_a[k + v], for v in [0, v_count).

    Requires ``len(gam_a) >= len(gam_b) + v_count - 1``.
    """
    gam_a = np.ascontiguousarray(gam_a, dtype=np.int64)
    gam_b = np.ascontiguousarray(gam_b, dtype=np.int64)
    if v_count <= 0:
        return np.zeros(0, dtype=np.int64)
    if gam_a.shape[0] < gam_b.shape[0] + v_count - 1:
        raise ValueError("gam_a too short for requested profile length")
    k = gam_b.shape[0]
    out = np.empty(v_count, dtype=np.int64)
    for v in range(v_count):
        out[v] = int((gam_b - gam_a[v : v + k]).max())
    return out
