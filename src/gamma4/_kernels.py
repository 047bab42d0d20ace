"""Hot integer kernels: exact integer computation, never floating point.

Each kernel has one implementation.  The graded Smith normal form
``graded_snf`` is a column reduction with clearing on Python-int bitsets;
the tests hold it to the graded invariants of a NumPy doubly-minimal
elimination, which lives with them.  ``f2_rank`` is the plain F_2 rank of
Python-int bitsets.  The sieve, signature and profile-grid kernels
are plain NumPy.  The profile grid ``max_gap_profile`` takes integer arrays
only and returns int64.  Its long rows loop over blocks of levels outside
and run starts inside, and run in int32 whenever every input value lies in
``[0, 2**31)`` (exact there, see its docstring), in int64 otherwise; its
short profiles run as an int64 gather.

This module owns two formats.  Every integer array or sequence that enters
a complex, a semigroup, a staircase or the profile grid passes one gate,
``int64_array``.  The bitset format: ``pack_bit_rows`` packs a pattern into
uint64 bit rows, and ``unpack_bit_rows`` turns those into the Python-int
column bitsets that ``graded_snf`` reduces; ``column_bitsets`` builds the
same bitsets straight from a differential's arrows.  A caller that runs one
pattern under many gradings builds them once and passes them as
``graded_snf(..., bits=...)``, and may pass each grading's grade classes,
built from generators it keeps grouped by grading, as ``classes=...``, so
that ``graded_snf`` sorts nothing.

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
checks the shifted exponents of each level), so an entry (i, j) has
``grading[i] >= grading[j] - 1``.  Columns are reduced by descending
grading, so a column XORed into column j has grading at least
``grading[j]`` and keeps that bound.  ``graded_snf`` therefore scans the
grading classes of a column upward from ``grading[j] - 1``; the classes it
skips hold no entry.
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


def unpack_bit_rows(rows: np.ndarray) -> tuple[int, ...]:
    """Python-int column bitsets of square uint64 bit rows.

    Bit i of the j-th column bitset is set iff bit j of row i is set.
    ``rows`` is left unchanged.
    """
    n, words = rows.shape
    stride = 8 * words
    raw = np.ascontiguousarray(rows, dtype="<u8").tobytes()
    col_bits = [0] * n
    for i, k in enumerate(range(0, n * stride, stride)):
        bits = int.from_bytes(raw[k : k + stride], "little")
        flag = 1 << i
        while bits:
            low = bits & -bits
            col_bits[low.bit_length() - 1] |= flag
            bits ^= low
    return tuple(col_bits)


def column_bitsets(n: int, src: np.ndarray, tgt: np.ndarray) -> tuple[int, ...]:
    """Python-int column bitsets of an ``n``-generator differential, built
    straight from its arrows ``src -> tgt``: bit ``tgt`` of column ``src``.

    The same bitsets as ``unpack_bit_rows(pack_bit_rows(n, pairs))`` with one
    ``(tgt, src)`` pair per arrow, with no bit rows in between.
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


def _grade_classes(g: np.ndarray) -> list[tuple[int, list[int], int]]:
    """The grade classes of ``g``, by descending grading: each grading, the
    indices that carry it in increasing order, and their mask."""
    order = np.argsort(-g, kind="stable")
    negated, starts = np.unique(-g[order], return_index=True)
    classes = []
    for value, members in zip((-negated).tolist(), np.split(order, starts[1:])):
        members = members.tolist()
        mask = 0
        for k in members:
            mask |= 1 << k
        classes.append((value, members, mask))
    return classes


def graded_snf(
    rows: np.ndarray,
    grading: np.ndarray,
    *,
    bits: tuple[int, ...] | None = None,
    classes: list[tuple[int, list[int], int]] | None = None,
):
    """Diagonalize a graded mod-2 differential; returns pivot data.

    ``rows`` (uint64 bit rows from ``pack_bit_rows``, left unchanged) encodes
    the nonzero pattern; entry degrees are implied by ``grading``.  ``bits``
    are the column bitsets of that pattern, ``unpack_bit_rows(rows)`` or the
    same bitsets from ``column_bitsets``, passed by callers that reduce one
    pattern under many gradings; when ``bits`` is given ``rows`` is not
    read, and without it ``rows`` is unpacked here.  ``classes`` are the
    grade classes of ``grading``, by descending grading: each a triple of
    the grading, the indices that carry it in increasing order, and the
    mask of those indices.  A caller that holds its generators grouped by
    grading builds them without a sort; without ``classes`` they are built
    here from ``grading``, and given, they must be exactly those.  Returns
    int64 arrays ``(pivot_row, pivot_col, pivot_degree)``.

    Column reduction with clearing: columns are taken by descending grading,
    ties by index.  A column's pivot is its row of least grading, lowest
    index first; while another column already owns that pivot row, its
    stored reduced column is XORed in.  A column whose generator is already
    a pivot row is skipped.

    Requires every entry (i, j) to have a non-negative degree
    ``(grading[i] - grading[j] + 1) / 2``, and the pattern to square to zero
    mod 2.  The degrees make each XOR a valid column operation: the stored
    column has grading no less than the one it is added to, so the
    coefficient is a non-negative power of U, and no entry of column j ever
    lies below class ``grading[j] - 1``, where its pivot search starts.
    ``d^2 = 0`` makes clearing sound: a stored column with pivot row k is a
    boundary, so, divided by its power of U at row k, it is a cycle of
    grading ``grading[k]``: ``x_k`` plus rows after k.  Taking that cycle as
    the basis vector of column k is a unitriangular change of basis that
    makes column k zero without reducing it.  Without ``d^2 = 0`` the
    results are wrong, not refused.

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
    col_bits = unpack_bit_rows(rows[:n]) if bits is None else bits
    if classes is None:
        classes = _grade_classes(g)
    values = [value for value, _, _ in reversed(classes)]  # ascending
    ascending = [mask for _, _, mask in reversed(classes)]  # one row mask per grading

    reduced = [0] * n  # pivot row -> its reduced column; 0 for no pivot
    piv_i: list[int] = []
    piv_j: list[int] = []
    for value, members, _ in classes:
        # The grade window: a column of grading g holds rows of grading >= g - 1.
        window = ascending[bisect_left(values, value - 1) :]
        for j in members:
            column = col_bits[j]
            if not column or reduced[j]:
                continue  # zero column, or cleared: its generator is a pivot row
            while True:
                i = _first_extreme(column, window)
                other = reduced[i]
                if not other:
                    reduced[i] = column
                    piv_i.append(i)
                    piv_j.append(j)
                    break
                column ^= other
                if not column:
                    break
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
