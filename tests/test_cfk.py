"""Tests for bifiltered complexes: staircases, tensors, homology."""

import dataclasses
import functools
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamma4 import _kernels
from gamma4.cfk import (
    BifilteredComplex,
    HomologySummary,
    MalformedExponentsError,
    NotSingleTowerError,
    _level_snf,
    _rank_test,
    _tower_grading,
    dual,
    homology_over_polynomial_ring,
    staircase,
    staircase_exponents,
    staircase_from_semigroup,
    subcomplex_at_level,
    tensor,
    trefoil_staircase,
    v_invariant,
    vi_by_rank,
    vi_sequence,
)
from gamma4.nuplus import tensor_fold
from gamma4.semigroups import FormalSemigroup
from gamma4.torus import alexander, vi_lspace

coprime_pairs = (
    st.tuples(st.integers(min_value=2, max_value=14), st.integers(min_value=2, max_value=14))
    .filter(lambda ab: gcd(*ab) == 1 and ab[0] * ab[1] <= 120)
)


def torus_staircase(p: int, q: int) -> BifilteredComplex:
    return staircase_from_semigroup(FormalSemigroup.from_generators(p, q))


def _arrows(c: BifilteredComplex) -> list[tuple[int, int, int]]:
    """The arrows of ``c`` as ``(src, exponent, tgt)`` triples, in stored order."""
    return list(zip(c.src.tolist(), c.exponent.tolist(), c.tgt.tolist()))


def test_staircase_frozen_gradings():
    tref = trefoil_staircase()
    assert tref.maslov.tolist() == [0, -1, -2]
    assert tref.alexander.tolist() == [1, 0, -1]
    assert _arrows(tref) == [(1, 0, 2), (1, 1, 0)]
    s35 = staircase([4, 3, 1, 0, -1, -3, -4])
    assert s35.maslov.tolist() == [0, -1, -2, -3, -4, -7, -8]
    unknot = staircase([0])
    assert unknot.maslov.tolist() == [0] and _arrows(unknot) == []
    # The largest total drop whose gradings stay in int64
    floor = staircase((2**62, 0, -(2**62)))
    assert floor.maslov.tolist() == [0, 1 - 2**63, -(2**63)]


@pytest.mark.parametrize(
    "bad",
    [
        [1, 0],
        [1, 1, 0, -1, -1],
        [2, 0, -1],
        [0, 1, -1],
        (1.9, 0, -1.9),  # floats are refused, not truncated
        (True, False, -1),
        np.array([1.0, 0.0, -1.0]),
        (-(2**63),),  # its negation wraps to itself in int64
        # Maslov gradings below -2**63, which int64 would wrap
        (2**62 + 5, 0, -(2**62 + 5)),
        (2**63 - 1, 0, -(2**63 - 1)),
    ],
)
def test_staircase_malformed(bad):
    with pytest.raises(MalformedExponentsError):
        staircase(bad)


def test_staircase_exponents_match_alexander_support():
    for p, q in [(2, 3), (3, 5), (5, 6), (4, 7)]:
        exps = staircase_exponents(FormalSemigroup.from_generators(p, q))
        assert list(exps) == sorted(alexander(p, q), reverse=True)


def test_complex_validation_rejects_bad_data():
    with pytest.raises(ValueError):
        BifilteredComplex(("x", "x"), (0, 0), (0, 0), (), (), ())  # duplicate ids
    with pytest.raises(ValueError):
        BifilteredComplex(("x", "y"), (0, -2), (0, 0), [0], [1], [0])  # grading
    with pytest.raises(ValueError):  # filtration: A(tgt) - e > A(src)
        BifilteredComplex(("x", "y"), (0, -1), (0, 5), [0], [1], [0])
    with pytest.raises(ValueError):  # differential does not square to zero
        BifilteredComplex(
            ("a", "b", "c"),
            (0, -1, -2),
            (0, 0, 0),
            [0, 1],
            [1, 2],
            [0, 0],
        )


def test_array_fields_are_read_only():
    c = tensor(trefoil_staircase(), dual(torus_staircase(2, 5)))
    for name in ("maslov", "alexander", "src", "tgt", "exponent"):
        field = getattr(c, name)
        assert field.dtype == np.int64 and not field.flags.writeable, name
        with pytest.raises(ValueError):
            field[0] = 1


def test_array_fields_are_private_copies():
    maslov = np.array([0, -1])
    c = BifilteredComplex(("x", "y"), maslov, (0, 0), [0], [1], [0])
    maslov[1] = -3
    assert c.maslov.tolist() == [0, -1] and maslov.flags.writeable


@pytest.mark.parametrize("name", ["maslov", "alexander", "src", "tgt", "exponent"])
@pytest.mark.parametrize(
    "bad",
    [
        np.array([0.0]),
        np.array([True]),
        np.array([0], dtype=object),
        np.array([0], np.uint64),
        [0, True],  # NumPy would read the bool as 1
    ],
)
def test_constructor_refuses_non_integer_arrays(name, bad):
    fields = dict(maslov=[0, -1], alexander=[0, 0], src=[0], tgt=[1], exponent=[0])
    fields[name] = bad
    with pytest.raises(ValueError, match=f"{name} must hold integers"):
        BifilteredComplex(("x", "y"), **fields)


def test_equality_and_hash_go_by_ids_and_arrays():
    def build():
        return tensor(torus_staircase(2, 3), dual(torus_staircase(3, 4)))

    c = build()
    assert c == build() and hash(c) == hash(build())
    assert c != dataclasses.replace(c, ids=tuple(f"{gid}'" for gid in c.ids))
    # One exponent changed, built past validation: the gradings no longer
    # fit, but equality must see the change.
    other = object.__new__(BifilteredComplex)
    for name in ("ids", "maslov", "alexander", "src", "tgt", "exponent"):
        object.__setattr__(other, name, getattr(c, name))
    exponent = c.exponent.copy()
    exponent[0] += 1
    object.__setattr__(other, "exponent", exponent)
    assert c != other


def test_dump_golden_trefoil():
    assert trefoil_staircase().dump() == (
        "y1 0 1\n"
        "y2 -1 0\n"
        "y3 -2 -1\n"
        "y2 -> U^0 y3\n"
        "y2 -> U^1 y1"
    )


def test_homology_examples():
    one = BifilteredComplex(("x",), (0,), (0,), (), (), ())
    assert homology_over_polynomial_ring(one) == HomologySummary(1, 0, ())
    pair = BifilteredComplex(("x", "y"), (0, -1), (0, 0), [0], [1], [0])
    assert homology_over_polynomial_ring(pair) == HomologySummary(0, None, ())
    assert homology_over_polynomial_ring(pair).is_zero
    # Trefoil at filtration level 0: tower drops to grading -2.
    level0 = subcomplex_at_level(trefoil_staircase(), 0)
    assert homology_over_polynomial_ring(level0).tower_grading == -2


def test_v_invariant_values():
    tref = trefoil_staircase()
    assert v_invariant(tref, 0) == 1
    assert v_invariant(tref, 1) == 0
    assert v_invariant(staircase([4, 3, 1, 0, -1, -3, -4]), 0) == 2
    with pytest.raises(NotSingleTowerError):
        v_invariant(
            BifilteredComplex(("x", "y"), (0, 0), (0, 0), (), (), ()), 0
        )


def test_vi_sequence_examples():
    assert vi_sequence(staircase([4, 3, 1, 0, -1, -3, -4])) == (2, 1, 1, 1, 0)
    assert vi_sequence(staircase([0])) == (0,)
    assert vi_sequence(torus_staircase(5, 6)) == vi_lspace(5, 6)
    assert vi_sequence(dual(trefoil_staircase())) == (0,)


def test_tensor_basics():
    tref = trefoil_staircase()
    assert len(tensor(tref, tref)) == 9
    assert vi_sequence(tensor(tref, tref)) == vi_lspace(2, 5) == (1, 1, 0)
    unit = staircase([0])
    prod = tensor(tref, unit)
    assert prod.maslov.tolist() == tref.maslov.tolist()
    assert prod.alexander.tolist() == tref.alexander.tolist()
    assert _arrows(prod) == _arrows(tref)


def test_dual_involution():
    for p, q in [(2, 3), (3, 5)]:
        c = torus_staircase(p, q)
        dd = dual(dual(c))
        assert dd.maslov.tolist() == c.maslov.tolist()
        assert dd.alexander.tolist() == c.alexander.tolist()
        assert _arrows(dd) == _arrows(c)


@given(coprime_pairs)
@settings(max_examples=30, deadline=None)
def test_vi_matches_torsion_formula(ab):
    p, q = ab
    assert vi_sequence(torus_staircase(p, q)) == vi_lspace(p, q)


@given(coprime_pairs.filter(lambda ab: ab[0] * ab[1] <= 60))
@settings(max_examples=20, deadline=None)
def test_dual_staircases_have_zero_profile(ab):
    assert vi_sequence(dual(torus_staircase(*ab))) == (0,)


# The pairs of ``coprime_pairs`` with product at most 40, listed rather than
# filtered: filtering two draws that far made Hypothesis's filter health
# check fail now and then.
small_pairs = st.sampled_from(
    [(a, b) for a in range(2, 15) for b in range(2, 15) if gcd(a, b) == 1 and a * b <= 40]
)


@given(small_pairs, small_pairs)
@settings(max_examples=15, deadline=None)
def test_tensor_profile_shape(ab, cd):
    """Tensor products of staircases: construction validates all invariants,
    and the torsion profile is a well-formed sequence reaching 0 at the genus."""
    c = tensor(torus_staircase(*ab), torus_staircase(*cd))
    seq = vi_sequence(c)
    genus = max(c.alexander)
    assert len(seq) == genus + 1
    assert seq[-1] == 0
    assert all(cur - nxt in (0, 1) for cur, nxt in zip(seq, seq[1:]))


@pytest.mark.parametrize(
    "p,n",
    [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3)],
)
def test_tensor_power_matches_representative(p, n):
    base = torus_staircase(p, p + 1)
    assert vi_sequence(tensor_fold([base] * n)) == vi_lspace(p, p * n + 1)


@pytest.mark.slow
def test_tensor_power_matches_representative_large():
    base = torus_staircase(5, 6)
    assert vi_sequence(tensor_fold([base] * 4)) == vi_lspace(5, 21)


def test_subcomplex_gradings():
    tref = trefoil_staircase()
    sub = subcomplex_at_level(tref, 0)
    assert sub.maslov.tolist() == [-2, -1, -2]
    assert sub.alexander.tolist() == [0, 0, -1]
    # Level at or above the genus changes nothing.
    assert subcomplex_at_level(tref, 1).maslov.tolist() == tref.maslov.tolist()


def _bit_rows(c: BifilteredComplex) -> np.ndarray:
    entries = [(t, src) for src, _, t in _arrows(c)]
    return _kernels.pack_bit_rows(len(c), entries)


def _unpack_bit_rows(rows: np.ndarray) -> tuple[int, ...]:
    """Reference for ``_kernels.column_bitsets``: the Python-int column
    bitsets of square uint64 bit rows.

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


def _set_up_alone(rows: np.ndarray, grading: np.ndarray) -> dict:
    """Reference for the set-up of ``cfk._level_snf``, from the bit rows and
    the gradings alone: the column bitsets unpacked from ``rows``, the
    nonzero columns, each one's first pivot found bit by bit as its row of
    least ``(grading, index)``, and one group per grading value."""
    n = len(grading)
    bits = _unpack_bit_rows(rows[:n])
    g = np.asarray(grading, dtype=np.int64).tolist()
    heads, first = [], []
    for j, column in enumerate(bits):
        if column:
            heads.append(j)
            first.append(min((g[i], i) for i in range(n) if column >> i & 1)[1])
    masks: dict[int, int] = {}
    reps = []
    for k, value in enumerate(g):
        if value not in masks:
            reps.append(k)
        masks[value] = masks.get(value, 0) | 1 << k
    return {
        "bits": bits,
        "heads": np.array(heads, dtype=np.int64),
        "first": np.array(first, dtype=np.int64),
        "groups": (np.array(reps, dtype=np.int64), tuple(masks.values())),
    }


def _graded_snf_alone(rows: np.ndarray, grading: np.ndarray):
    """``graded_snf`` set up from the bit rows and the gradings alone, by
    ``_set_up_alone``."""
    return _kernels.graded_snf(rows, grading, **_set_up_alone(rows, grading))


def _graded_snf_numpy(rows: np.ndarray, grading: np.ndarray):
    """NumPy reference for ``_kernels.graded_snf``: a doubly-minimal elimination.

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


def _graded_invariants(result, grading: np.ndarray):
    """What the graded structure theorem fixes in pivot triples: the rank,
    the torsion ``(degree, row grading)`` pairs and the ``(row grading,
    column grading)`` pairs."""
    piv_row, piv_col, piv_deg = result
    row_grades, col_grades = grading[piv_row].tolist(), grading[piv_col].tolist()
    return (
        len(piv_row),
        sorted((d, g) for d, g in zip(piv_deg.tolist(), row_grades) if d >= 1),
        sorted(zip(row_grades, col_grades)),
    )


def _tower_grading_numpy(grading: np.ndarray, pivot_src_m: np.ndarray, torsion) -> int:
    """NumPy reference for ``cfk._tower_grading``: top grading of the single
    free summand, by graded dimension count over every grading at once.

    In each Maslov grading m the chain space has one dimension per generator
    with the same parity sitting at or above m; the boundary rank in and out
    of the grading is read off the pivot source gradings; torsion summands
    account for finitely many leftover dimensions.  The free summand tops out
    at the largest grading where a dimension survives beyond the torsion.
    """
    degrees = np.array([d for d, _ in torsion], dtype=np.int64)
    tops = np.array([m for _, m in torsion], dtype=np.int64)
    floor = int(grading.min()) - 2 * (int(degrees.max(initial=0)) + 2)
    span = int(grading.max()) - floor + 2  # gradings floor .. max + 1

    def at_least(values: np.ndarray) -> np.ndarray:
        """Per grading ``floor + i``: the values at or above it of its parity."""
        counts = np.bincount(values - floor, minlength=span)
        for parity in (0, 1):
            counts[parity::2] = counts[parity::2][::-1].cumsum()[::-1]
        return counts

    pivots = at_least(pivot_src_m)
    alive = (
        at_least(grading) - pivots - np.append(pivots[1:], 0)
        - at_least(tops) + at_least(tops - 2 * degrees)
    )
    found = np.flatnonzero(alive[:-1] >= 1)
    if not found.size:
        raise AssertionError("free summand not located; this is a bug")
    return floor + int(found[-1])


def _snf_all(c: BifilteredComplex, bits):
    """Graded invariants on ``c`` of ``graded_snf``, which must return the
    same int64 triples on bitsets unpacked from its own bit rows and on
    ``bits``, and of the NumPy reference."""
    grading = np.asarray(c.maslov, dtype=np.int64)
    rows = _bit_rows(c)
    before = rows.copy()
    fast = _graded_snf_alone(rows, grading)
    shared = _kernels.graded_snf(rows, grading, **{**_set_up_alone(rows, grading), "bits": bits})
    assert np.array_equal(rows, before)  # the input is left unchanged
    assert len(fast) == len(shared) == 3
    for got, again in zip(fast, shared):
        assert got.dtype == again.dtype == np.int64
        assert got.tolist() == again.tolist()
    ref = _graded_snf_numpy(rows, grading.copy())
    return _graded_invariants(fast, grading), _graded_invariants(ref, grading)


def _every_level(c: BifilteredComplex) -> list[BifilteredComplex]:
    return [
        subcomplex_at_level(c, s)
        for s in range(min(c.alexander) - 1, max(c.alexander) + 1)
    ]


def _sample_complexes() -> list[BifilteredComplex]:
    t23, t25 = torus_staircase(2, 3), torus_staircase(2, 5)
    return [
        torus_staircase(3, 5),
        tensor(t23, t25),
        # T(2,3) + T(3,4) - T(2,5)
        tensor(tensor(t23, torus_staircase(3, 4)), dual(t25)),
        # T(3,4) - 2*T(5,6) as the oracle assembles it: 405 generators
        tensor(tensor(dual(torus_staircase(5, 6)), dual(torus_staircase(5, 6))),
               torus_staircase(3, 4)),
    ]


def test_backends_agree_on_homology_structure():
    """``graded_snf`` has the graded invariants of the NumPy reference at
    every level, whether it is given the bitsets unpacked from the level's
    own bit rows or those unpacked once for the whole complex, which
    ``column_bitsets`` builds straight from the arrows."""
    samples = [*_sample_complexes(), BifilteredComplex(("x",), (0,), (0,), (), (), ())]
    assert max(len(c) for c in samples) == 405
    for c in samples:
        bits = _unpack_bit_rows(_bit_rows(c))
        assert len(bits) == len(c)
        assert _kernels.column_bitsets(len(c), c.src, c.tgt) == bits
        for sub in _every_level(c):
            assert _unpack_bit_rows(_bit_rows(sub)) == bits  # same pattern
            got, want = _snf_all(sub, bits)
            assert got == want
    empty = np.zeros(0, dtype=np.int64)
    for res in (
        _graded_snf_alone(_kernels.pack_bit_rows(0, []), empty),
        _graded_snf_numpy(_kernels.pack_bit_rows(0, []), empty),
    ):
        assert [x.tolist() for x in res] == [[], [], []]


@pytest.mark.slow
def test_backends_agree_on_homology_structure_at_scale():
    """Every level of the 1 323-generator oracle complex of
    ``T(3,5) + T(2,7) - T(5,6) - T(2,3)``, on the column bitsets of the
    whole complex."""
    c = tensor_fold([
        torus_staircase(3, 5), torus_staircase(2, 7),
        dual(torus_staircase(5, 6)), dual(torus_staircase(2, 3)),
    ])
    assert len(c) == 1323
    bits = _unpack_bit_rows(_bit_rows(c))
    levels = _every_level(c)
    assert len(levels) == 38
    for sub in levels:
        got, want = _snf_all(sub, bits)
        assert got == want


def _level_gradings(c: BifilteredComplex):
    """Every level from ``min(A) - 1`` to ``max(A) + 1``, and ``None``, with
    its gradings ``M(x) - 2 max(0, A(x) - s)``."""
    yield None, c.maslov
    for s in range(min(c.alexander) - 1, max(c.alexander) + 2):
        yield s, c.maslov - 2 * np.maximum(c.alexander - s, 0)


def _assert_level_snf_matches_references(c: BifilteredComplex, invariants: bool) -> None:
    """At every level of ``c`` and at ``None``, the elimination that
    ``_level_snf`` sets up from the complex's arrows and groups has exactly
    the int64 triples of a set-up from the bit rows and the gradings alone,
    and the tower read off its pivot counts is that of the NumPy reference,
    which counts graded dimensions over every grading.  With
    ``invariants``, its graded invariants are also those of the NumPy
    elimination."""
    rows = c._pattern.rows
    for s, grading in _level_gradings(c):
        level_grading, triples = _level_snf(c, s)
        assert level_grading.tolist() == grading.tolist()
        for got, want in zip(triples, _graded_snf_alone(rows, grading)):
            assert got.dtype == want.dtype == np.int64
            assert got.tolist() == want.tolist(), s
        if invariants:
            ref = _graded_snf_numpy(rows.copy(), grading.copy())
            assert _graded_invariants(triples, grading) == _graded_invariants(ref, grading), s
        _assert_tower_at(c, s, grading, triples)


def test_level_set_up_gives_identical_triples():
    """On every level of the samples, the 405-generator complex among them,
    the first pivots from the arrows and the grade masks from the groups
    give ``graded_snf`` exactly the triples of a set-up from the bit rows
    and the gradings alone."""
    samples = _sample_complexes()
    assert max(len(c) for c in samples) == 405
    for c in samples:
        _assert_level_snf_matches_references(c, invariants=False)


def _assert_tower_at(c: BifilteredComplex, s, grading: np.ndarray, triples) -> None:
    """The tower read off the pivot counts of the level-``s`` triples is
    that of the NumPy reference, which counts graded dimensions over every
    grading, and the level homology reports it with the triples' torsion."""
    piv_row, piv_col, piv_deg = triples
    assert len(c) - 2 * len(piv_row) == 1
    kept = piv_deg >= 1
    torsion = tuple(sorted(zip(piv_deg[kept].tolist(), grading[piv_row[kept]].tolist())))
    tower = _tower_grading(grading, piv_row, piv_col)
    assert tower == _tower_grading_numpy(grading, grading[piv_col], torsion), s
    assert homology_over_polynomial_ring(c, s) == HomologySummary(1, tower, torsion)


def _assert_tower_matches_reference(c: BifilteredComplex) -> None:
    for s, grading in _level_gradings(c):
        _assert_tower_at(c, s, grading, _level_snf(c, s)[1])


def test_tower_locator_matches_numpy_reference():
    for c in _sample_complexes():
        _assert_tower_matches_reference(c)


def _mod2_inverse_unitriangular(b: np.ndarray) -> np.ndarray:
    """``b^-1`` mod 2 for ``b = 1 + N`` with ``N`` nilpotent: ``1 + N + N^2 + ...``."""
    n = len(b)
    nilpotent = b ^ np.eye(n, dtype=np.int64)
    inverse, power = np.eye(n, dtype=np.int64), np.eye(n, dtype=np.int64)
    for _ in range(n):
        power = power @ nilpotent % 2
        inverse ^= power
    return inverse


@st.composite
def _homogeneous_differentials(draw):
    """A homogeneous differential of degree -1 with non-negative entry
    degrees, and the graded invariants it must have.

    ``graded_snf`` clears, which needs ``d^2 = 0``, so the patterns are
    differentials, not arbitrary homogeneous patterns: a direct sum of
    pieces ``x -> U^d y`` and free generators under a random numbering,
    conjugated by a random homogeneous unitriangular change of basis
    ``B = 1 + N``.  ``N`` has entries (a, b) with ``grade[a] - grade[b]``
    even and ``(grade[b], b) < (grade[a], a)``, so ``B`` is invertible and
    ``B D B^-1`` keeps the pieces' invariants.  Over F_2[U] every entry is
    a forced monomial, so the products are mod-2 products of patterns."""
    pieces = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(0, 2)), max_size=12))
    free = draw(st.lists(st.integers(-4, 4), max_size=4))
    grade = [g for x, e in pieces for g in (x, x - 1 + 2 * e)] + free
    n = len(grade)
    place = draw(st.permutations(range(n)))
    grading = np.zeros(n, dtype=np.int64)
    grading[place] = grade
    d = np.zeros((n, n), dtype=np.int64)
    for k in range(len(pieces)):
        d[place[2 * k + 1], place[2 * k]] = 1
    allowed = [
        (a, b) for a in range(n) for b in range(n)
        if (grading[a] - grading[b]) % 2 == 0 and (grading[b], b) < (grading[a], a)
    ]
    b = np.eye(n, dtype=np.int64)
    for entry in draw(st.sets(st.sampled_from(allowed), max_size=4 * n)) if allowed else ():
        b[entry] = 1
    b_inv = _mod2_inverse_unitriangular(b)
    assert not (b @ b_inv % 2 ^ np.eye(n, dtype=np.int64)).any()
    differential = b @ d % 2 @ b_inv % 2
    assert not (differential @ differential % 2).any()
    expected = (
        len(pieces),
        sorted((e, x - 1 + 2 * e) for x, e in pieces if e >= 1),
        sorted((x - 1 + 2 * e, x) for x, e in pieces),
    )
    return grading, _kernels.pack_bit_rows(n, np.argwhere(differential)), expected


@settings(max_examples=200, deadline=None)
@given(_homogeneous_differentials())
def test_backends_agree_on_homogeneous_patterns(case):
    """On homogeneous differentials beyond the sample complexes, the graded
    invariants of ``graded_snf`` equal those of the NumPy reference and
    those of the pieces the differential was made of."""
    grading, rows, expected = case
    fast = _graded_snf_alone(rows, grading)
    ref = _graded_snf_numpy(rows.copy(), grading.copy())
    assert _graded_invariants(fast, grading) == _graded_invariants(ref, grading) == expected


def test_clearing_skips_only_pivot_rows():
    """``dx = y1 + y2``, ``dy1 = dy2 = z``: the column of ``x`` owns pivot
    row ``y1``, so column ``y1`` is cleared, while column ``y2``, a row of
    that column but not its pivot, must still be reduced."""
    grading = np.array([0, -1, -1, -2], dtype=np.int64)  # x, y1, y2, z
    rows = _kernels.pack_bit_rows(4, [(1, 0), (2, 0), (3, 1), (3, 2)])
    got = _graded_snf_alone(rows, grading)
    assert [x.tolist() for x in got] == [[1, 3], [0, 2], [0, 0]]
    assert _graded_invariants(got, grading) == (2, [], [(-2, -1), (-1, 0)])


def _assert_level_homology_matches_subcomplex(c: BifilteredComplex) -> None:
    for s in range(min(c.alexander) - 1, max(c.alexander) + 2):
        assert homology_over_polynomial_ring(c, s) == homology_over_polynomial_ring(
            subcomplex_at_level(c, s)
        ), s


def test_level_homology_matches_subcomplex():
    """Level homology from the packed pattern is the homology of the
    validated ``subcomplex_at_level`` reference, level by level."""
    samples = _sample_complexes()
    assert max(len(c) for c in samples) == 405
    for c in samples:
        _assert_level_homology_matches_subcomplex(c)


def _small_tensors(draw) -> BifilteredComplex:
    """A tensor of one to three staircases and duals, of at most 150 generators."""
    knots = st.sampled_from([(2, 3), (2, 5), (3, 4), (2, 7), (3, 5)])
    pieces = draw(st.lists(st.tuples(knots, st.booleans()), min_size=1, max_size=3))
    c = None
    for (p, q), mirrored in pieces:
        piece = torus_staircase(p, q)
        piece = dual(piece) if mirrored else piece
        if c is not None and len(c) * len(piece) > 150:
            break
        c = piece if c is None else tensor(c, piece)
    return c


small_tensors = st.composite(_small_tensors)


@given(small_tensors())
@settings(max_examples=60, deadline=None)
def test_level_homology_matches_subcomplex_on_small_tensors(c):
    _assert_level_homology_matches_subcomplex(c)


@given(small_tensors())
@settings(max_examples=40, deadline=None)
def test_level_set_up_matches_references_on_small_tensors(c):
    """On tensors of at most three small staircases or duals, at every
    level from ``min(A) - 1`` to ``max(A) + 1`` and at ``None``: the graded
    invariants of the NumPy elimination, the tower of the NumPy locator,
    and the triples of a set-up from the bit rows and the gradings alone."""
    _assert_level_snf_matches_references(c, invariants=True)


def _assert_rank_test_matches_homology(c: BifilteredComplex) -> None:
    """At every level, ``V_s <= v`` read off the level homology's tower is
    what the rank test answers, for every ``v`` up to one past the largest
    ``V_s``; and ``vi_by_rank`` is ``vi_sequence``."""
    levels = range(min(c.alexander) - 1, max(c.alexander) + 2)
    vs = {s: -homology_over_polynomial_ring(c, s).tower_grading // 2 for s in levels}
    at_most = _rank_test(c)
    for s in levels:
        for v in range(max(vs.values()) + 2):
            assert at_most(s, v) == (vs[s] <= v), (s, v)
    assert vi_by_rank(c) == vi_sequence(c)


def test_rank_test_matches_level_homology():
    samples = _sample_complexes()
    assert max(len(c) for c in samples) == 405
    for c in samples:
        _assert_rank_test_matches_homology(c)


@given(small_tensors())
@settings(max_examples=60, deadline=None)
def test_rank_test_matches_level_homology_on_small_tensors(c):
    _assert_rank_test_matches_homology(c)


@pytest.mark.slow
def test_vi_by_rank_matches_vi_sequence_on_criterion_6_complex():
    """The largest routed oracle complex of ``oracles/family-sweep``,
    ``2*T(2,3) - 2*T(2,5) + 2*T(3,5)`` with one staircase per copy."""
    t23, t25, t35 = torus_staircase(2, 3), torus_staircase(2, 5), torus_staircase(3, 5)
    c = tensor(tensor(tensor(tensor(tensor(t35, t35), dual(t25)), dual(t25)), t23), t23)
    assert len(c) == 11025
    assert vi_by_rank(c) == vi_sequence(c) == (2, 2, 2, 1, 1, 1, 0)


def test_rank_test_refuses_two_towers():
    with pytest.raises(NotSingleTowerError, match="grading 0 has dimension 2"):
        vi_by_rank(BifilteredComplex(("x", "y"), (0, 0), (0, 0), (), (), ()))


@pytest.mark.parametrize("low", [-2, -4])
def test_rank_test_refuses_a_second_tower_below_the_queries(low):
    """Gradings 0 and 2 alone look like one tower topped at 0, and
    ``V_0 = 0`` ends the queries there; the free rank sees the second."""
    c = BifilteredComplex(("x", "y"), (0, low), (0, 0), (), (), ())
    with pytest.raises(NotSingleTowerError):
        vi_sequence(c)
    with pytest.raises(NotSingleTowerError, match="free rank 2"):
        vi_by_rank(c)


def _direct_sum(c: BifilteredComplex, d: BifilteredComplex, shift: int) -> BifilteredComplex:
    """``c`` plus a copy of ``d`` whose Maslov gradings move by ``shift``."""
    n = len(c)
    return BifilteredComplex(
        tuple(f"c{i}" for i in c.ids) + tuple(f"d{i}" for i in d.ids),
        np.concatenate((c.maslov, d.maslov + shift)),
        np.concatenate((c.alexander, d.alexander)),
        np.concatenate((c.src, d.src + n)),
        np.concatenate((c.tgt, d.tgt + n)),
        np.concatenate((c.exponent, d.exponent)),
    )


@pytest.mark.parametrize("shift", [-2, -4, -6])
def test_free_rank_is_size_minus_twice_pattern_rank(shift):
    """The free rank over F_2[U] that ``_rank_test`` checks is the one
    ``homology_over_polynomial_ring`` reports, on one tower and on two."""
    samples = [trefoil_staircase(), torus_staircase(3, 4), torus_staircase(3, 5)]
    for c in samples:
        for x in (c, _direct_sum(c, samples[1], shift)):
            free = homology_over_polynomial_ring(x).free_rank
            parities = x.maslov.tolist()
            rank = sum(
                _kernels.f2_rank(t for t, m in zip(x._targets, parities) if m % 2 == parity)
                for parity in (0, 1)
            )
            assert len(x) - 2 * rank == free
        with pytest.raises(NotSingleTowerError, match="free rank 2"):
            vi_by_rank(_direct_sum(c, samples[1], shift))


@pytest.mark.parametrize("shift", [2, 4, 1, -1, -2])
def test_rank_test_refuses_a_tower_off_grading_0(shift):
    """A tower topped anywhere but grading 0 fails hard; it never shifts
    the profile."""
    c = torus_staircase(3, 5)
    moved = dataclasses.replace(c, maslov=c.maslov + shift)
    assert vi_by_rank(c) == (2, 1, 1, 1, 0)
    with pytest.raises(NotSingleTowerError):
        vi_by_rank(moved)


def test_f2_rank():
    assert _kernels.f2_rank([]) == _kernels.f2_rank([0, 0]) == 0
    assert _kernels.f2_rank([0b011, 0b110, 0b101]) == 2
    assert _kernels.f2_rank([0b001, 0b010, 0b100, 0b111]) == 3
    assert _kernels.f2_rank(iter([1 << 200, (1 << 200) | 1, 1])) == 2


def _canonical_tensor_arrows(left: BifilteredComplex, right: BifilteredComplex):
    """The Leibniz terms of ``left`` (x) ``right``, cancelled mod 2 and
    sorted by ``(src, exponent, tgt)``."""
    nl, nr = len(left), len(right)
    alive: dict[tuple[int, int, int], int] = {}
    terms = [(s * nr + j, e, t * nr + j) for s, e, t in _arrows(left) for j in range(nr)]
    terms += [(i * nr + s, e, i * nr + t) for s, e, t in _arrows(right) for i in range(nl)]
    for term in terms:
        alive[term] = alive.get(term, 0) ^ 1
    return sorted(term for term, odd in alive.items() if odd)


def _assert_tensor_is_canonical(c: BifilteredComplex) -> None:
    for piece in (trefoil_staircase(), dual(torus_staircase(2, 5))):
        for left, right in ((c, piece), (piece, c)):
            assert _arrows(tensor(left, right)) == _canonical_tensor_arrows(left, right)


def test_tensor_arrows_are_canonical():
    """The tensor's arrows are its Leibniz terms, sorted: no two terms of
    one generator coincide, so there is nothing to cancel mod 2."""
    for c in _sample_complexes():
        _assert_tensor_is_canonical(c)


@given(small_tensors())
@settings(max_examples=60, deadline=None)
def test_tensor_arrows_are_canonical_on_small_tensors(c):
    _assert_tensor_is_canonical(c)


@st.composite
def _tensor_factors(draw):
    """One to four random staircases and duals, of at most 400 generators
    together."""
    factors: list[BifilteredComplex] = []
    for _ in range(draw(st.integers(1, 4))):
        steps = draw(st.sets(st.integers(1, 6), max_size=3))
        exponents = sorted(steps, reverse=True) + [0] + [-x for x in sorted(steps)]
        piece = staircase(exponents)
        piece = dual(piece) if draw(st.booleans()) else piece
        if factors and prod(map(len, factors)) * len(piece) > 400:
            break
        factors.append(piece)
    return factors


@given(_tensor_factors())
@settings(max_examples=80, deadline=None)
def test_tensor_of_many_factors_is_the_left_fold(factors):
    """``tensor(*fs)`` has the ids, gradings and arrows of the left fold of
    two-factor tensors, and one arrow per factor arrow and choice of the
    other factors' generators."""
    c = tensor(*factors)
    folded = functools.reduce(tensor, factors)
    assert c == folded
    assert c.dump() == folded.dump()
    sizes = [len(f) for f in factors]
    assert len(c) == prod(sizes)
    assert len(c.src) == sum(len(f.src) * prod(sizes) // len(f) for f in factors)


@given(_tensor_factors())
@settings(max_examples=60, deadline=None)
def test_tower_locator_matches_numpy_reference_on_tensors(factors):
    _assert_tower_matches_reference(tensor(*factors))


def test_tensor_of_one_factor_is_that_factor():
    c = torus_staircase(3, 4)
    assert tensor(c) is c
    with pytest.raises(TypeError):
        tensor()


def test_packed_pattern_leaves_equality_and_hash_alone():
    def build():
        return tensor(torus_staircase(2, 3), dual(torus_staircase(3, 4)))

    c = build()
    vi_sequence(c)
    assert "_pattern" in vars(c) and "_groups" in vars(c)  # built by the first level
    rows, bits, groups = c._pattern.rows, c._pattern.bits, c._groups
    assert c == build() and hash(c) == hash(build())
    vi_sequence(c)
    assert c._pattern.rows is rows  # packed once, then reused
    assert c._pattern.bits is bits  # built once, then reused
    assert c._groups is groups  # grouped once, then reused
    # The column bitsets alone: bit tgt of column src set per arrow.
    assert isinstance(bits, tuple) and len(bits) == len(c)
    assert all(type(b) is int for b in bits)
    assert bits == _unpack_bit_rows(rows)
    assert sum(b.bit_count() for b in bits) == len(c.src)
    assert all(bits[src] >> tgt & 1 for src, tgt in zip(c.src.tolist(), c.tgt.tolist()))
    assert not rows.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 0] = 1


def test_level_sweep_builds_bitsets_once(monkeypatch):
    """Levels 0 to max(A) of the 405-generator oracle complex share one
    bitset build, straight from the arrows, and one grouping of the
    generators by grading, and every elimination gets the complex's bit
    rows, its bitsets, its arrow heads, its groups and the level's first
    pivots: ``graded_snf`` has no other set-up path."""
    c = _sample_complexes()[-1]
    levels = range(max(c.alexander) + 1)
    assert (len(c), len(levels)) == (405, 24)
    builds, eliminations, groupings = [], [], []
    group = BifilteredComplex.__dict__["_groups"].func

    def counted_group(self):
        groupings.append(len(self))
        return group(self)

    counted_groups = functools.cached_property(counted_group)
    counted_groups.__set_name__(BifilteredComplex, "_groups")
    monkeypatch.setattr(BifilteredComplex, "_groups", counted_groups)

    def counted_build(n, src, tgt):
        builds.append(n)
        return column_bitsets(n, src, tgt)

    def counted_snf(rows, grading, **kwargs):
        pattern = c._pattern
        shared = (
            rows is pattern.rows,
            kwargs["bits"] is pattern.bits,
            kwargs["heads"] is pattern.heads,
            kwargs["groups"] is c._groups,
        )
        eliminations.append((shared, sorted(kwargs)))
        return graded_snf(rows, grading, **kwargs)

    column_bitsets, graded_snf = _kernels.column_bitsets, _kernels.graded_snf
    monkeypatch.setattr(_kernels, "column_bitsets", counted_build)
    monkeypatch.setattr(_kernels, "graded_snf", counted_snf)
    for s in levels:
        assert homology_over_polynomial_ring(c, s).free_rank == 1
    reps, masks = c._groups
    monkeypatch.undo()
    assert builds == [405]
    assert groupings == [405]
    assert eliminations == [((True,) * 4, ["bits", "first", "groups", "heads"])] * 24
    # The groups partition the generators, each under its least member.
    assert sum(mask.bit_count() for mask in masks) == 405
    assert functools.reduce(int.__or__, masks) == (1 << 405) - 1
    assert reps.tolist() == [(mask & -mask).bit_length() - 1 for mask in masks]
    # The shared set-up changes nothing: the bitsets are those of the
    # packed rows, and each level gives the same triples as a set-up from
    # the bit rows and the gradings alone.
    rows, bits = c._pattern.rows, c._pattern.bits
    assert bits == _unpack_bit_rows(rows)
    for s in levels:
        grading, shared = _level_snf(c, s)
        alone = _graded_snf_alone(rows, grading)
        assert [x.tolist() for x in shared] == [x.tolist() for x in alone]


def test_graded_snf_takes_no_default_set_up():
    """Without every part of its set-up ``graded_snf`` refuses to run."""
    c = _sample_complexes()[0]
    rows = c._pattern.rows
    set_up = _set_up_alone(rows, c.maslov)
    for missing in set_up:
        kwargs = {key: value for key, value in set_up.items() if key != missing}
        with pytest.raises(TypeError):
            _kernels.graded_snf(rows, c.maslov, **kwargs)
    with pytest.raises(TypeError):
        _kernels.graded_snf(rows, c.maslov)


def test_graded_snf_refuses_a_first_pivot_below_the_grade_window():
    """``x -> y`` with ``grading(y) = grading(x) - 3``: an entry of degree
    -1, whose first pivot lies below the window ``grading(x) - 1``."""
    grading = np.array([0, -3], dtype=np.int64)
    rows = _kernels.pack_bit_rows(2, [(1, 0)])
    with pytest.raises(AssertionError, match="no entry in the grade window"):
        _graded_snf_alone(rows, grading)
    # One grade lower the entry has degree 0, and the pair is a pivot.
    got = _graded_snf_alone(rows, np.array([-2, -3], dtype=np.int64))
    assert [x.tolist() for x in got] == [[1], [0], [0]]


def test_level_homology_rejects_negative_shifted_exponent():
    # x -> y with A(y) - e > A(x), built past validation: at level 0 the
    # shifted exponent 0 + 0 - 5 is negative.
    bad = object.__new__(BifilteredComplex)
    for name, value in (
        ("ids", ("x", "y")),
        ("maslov", np.array([0, -1])),
        ("alexander", np.array([0, 5])),
        ("src", np.array([0])),
        ("tgt", np.array([1])),
        ("exponent", np.array([0])),
    ):
        object.__setattr__(bad, name, value)
    with pytest.raises(ValueError, match="negative arrow exponent"):
        homology_over_polynomial_ring(bad, 0)


def _dict_reference_check(ids, maslov, alexander, arrows) -> None:
    """The original validation, with the per-source dict ``d^2 = 0`` test."""
    n = len(ids)
    if not (len(maslov) == len(alexander) == len(arrows) == n):
        raise ValueError("field lengths disagree")
    if len(set(ids)) != n:
        raise ValueError("generator ids must be unique")
    for src, terms in enumerate(arrows):
        seen = set()
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
    for src in range(n):
        square: dict[tuple[int, int], int] = {}
        for e1, mid in arrows[src]:
            for e2, tgt in arrows[mid]:
                key = (e1 + e2, tgt)
                square[key] = square.get(key, 0) ^ 1
        if any(square.values()):
            raise ValueError(f"differential does not square to zero at {ids[src]}")


@st.composite
def maybe_corrupted_fields(draw):
    """Fields of a small tensor of staircases and duals, with at most one
    arrow dropped, retargeted or added."""
    c = _small_tensors(draw)
    n = len(c)
    arrows = [[] for _ in range(n)]
    for s, e, t in _arrows(c):
        arrows[s].append((e, t))
    kind = draw(st.sampled_from(["none", "drop", "retarget", "add"]))
    src = draw(st.integers(0, n - 1))
    if kind in ("drop", "retarget") and arrows[src]:
        k = draw(st.integers(0, len(arrows[src]) - 1))
        e, _ = arrows[src].pop(k)
        if kind == "retarget":
            arrows[src].insert(k, (e, draw(st.integers(0, n - 1))))
    elif kind == "add":
        tgt = draw(st.integers(0, n - 1))
        twice_e = int(c.maslov[tgt] - c.maslov[src]) + 1
        graded = twice_e >= 0 and twice_e % 2 == 0 and draw(st.booleans())
        e = twice_e // 2 if graded else draw(st.integers(0, 3))
        arrows[src].insert(draw(st.integers(0, len(arrows[src]))), (e, tgt))
    return c.ids, c.maslov.tolist(), c.alexander.tolist(), tuple(tuple(terms) for terms in arrows)


@st.composite
def several_faults_fields(draw):
    """Fields as above with one to four more faults at once: arrows out of
    range, with a negative exponent or repeated, and arrows reordered."""
    ids, maslov, alexander, arrows = draw(maybe_corrupted_fields())
    n = len(ids)
    arrows = [list(terms) for terms in arrows]
    for _ in range(draw(st.integers(1, 4))):
        terms = arrows[draw(st.integers(0, n - 1))]
        kind = draw(st.sampled_from(["range", "negative", "repeat", "reorder"]))
        at = draw(st.integers(0, len(terms)))
        if kind == "range":
            terms.insert(at, (0, draw(st.sampled_from([-1, n, n + 3]))))
        elif kind == "negative":
            terms.insert(at, (-1, draw(st.integers(0, n - 1))))
        elif kind == "repeat" and terms:
            terms.insert(at, draw(st.sampled_from(terms)))
        elif kind == "reorder":
            terms[:] = draw(st.permutations(terms))
    return ids, maslov, alexander, tuple(tuple(terms) for terms in arrows)


def _array_fields(ids, maslov, alexander, arrows):
    """The constructor's fields for arrows given as ``arrows[src] = ((e, tgt), ...)``."""
    flat = [(src, e, tgt) for src, terms in enumerate(arrows) for e, tgt in terms]
    src, exponent, tgt = ([arrow[k] for arrow in flat] for k in range(3))
    return ids, maslov, alexander, src, tgt, exponent


def _validation_error(check, fields) -> str | None:
    try:
        check(*fields)
    except ValueError as exc:
        return str(exc)
    return None


@given(st.one_of(maybe_corrupted_fields(), several_faults_fields()))
@settings(max_examples=400, deadline=None)
def test_validation_matches_dict_reference(fields):
    """The vectorised validation raises the same error as the dict one,
    exactly when the dict one does; with several faults, that is the error
    of the arrow a walk by source, each source's arrows as given, meets
    first."""
    expected = _validation_error(_dict_reference_check, fields)
    built = _validation_error(lambda *f: BifilteredComplex(*_array_fields(*f)), fields)
    assert built == expected
