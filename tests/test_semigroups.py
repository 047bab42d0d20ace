"""Tests for formal semigroups, enumerating functions, and torsion profiles."""

from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamma4 import _kernels
from gamma4.semigroups import (
    UNKNOT_SEMIGROUP,
    FormalSemigroup,
    MalformedSequenceError,
    NotCoprimeError,
    _is_integer,
    enumerating_bruteforce,
)


def contains(s: FormalSemigroup, x: object) -> bool:
    """Whether ``x`` is a member of ``s``; a bool, a float or a negative
    number never is, and every integer from the conductor on is."""
    if not _is_integer(x) or x < 0:
        return False
    if x >= s.conductor:
        return True
    i = s.count_below(x)
    return i < s.genus and int(s.members[i]) == x


def gaps(s: FormalSemigroup) -> tuple[int, ...]:
    """The gaps of ``s``: the non-members below its conductor."""
    is_gap = np.ones(s.conductor, dtype=bool)
    is_gap[s.members] = False
    return tuple(np.flatnonzero(is_gap).tolist())


def test_from_generators_frozen_values():
    s = FormalSemigroup.from_generators(2, 11)
    assert gaps(s) == (1, 3, 5, 7, 9)
    assert s.genus == 5
    assert FormalSemigroup.from_generators(5, 26).genus == 50
    assert gaps(FormalSemigroup.from_generators(2, 3)) == (1,)
    assert FormalSemigroup.from_generators(3, 5).elements == (0, 3, 5, 6)
    assert gaps(FormalSemigroup.from_generators(5, 6)) == (
        1, 2, 3, 4, 7, 8, 9, 13, 14, 19,
    )


def test_from_generators_errors():
    with pytest.raises(NotCoprimeError):
        FormalSemigroup.from_generators(4, 6)
    with pytest.raises(ValueError):
        FormalSemigroup.from_generators(0, 3)


def test_enumerating_values():
    assert FormalSemigroup.from_generators(2, 11).enumerating(3) == 6
    assert FormalSemigroup.from_generators(5, 26).enumerating(7) == 30
    for s in (UNKNOT_SEMIGROUP, FormalSemigroup.from_generators(3, 5)):
        assert s.enumerating(0) == 0


def test_enumerating_tail():
    s = FormalSemigroup.from_generators(3, 5)
    g = s.genus
    for k in range(g, g + 20):
        assert s.enumerating(k) == g + k


def test_enumerating_bruteforce_values():
    assert enumerating_bruteforce(2, 11, 7) == 12
    assert enumerating_bruteforce(2, 3, 1) == 2
    assert enumerating_bruteforce(5, 26, 6) == 26
    with pytest.raises(NotCoprimeError):
        enumerating_bruteforce(6, 9, 0)


def test_vi_frozen_values():
    assert FormalSemigroup.from_generators(3, 5).vi == (2, 1, 1, 1, 0)
    assert FormalSemigroup.from_generators(2, 3).vi == (1, 0)
    assert FormalSemigroup.from_generators(5, 6).vi == (3, 3, 3, 3, 2, 1, 1, 1, 1, 1, 0)
    assert FormalSemigroup.from_generators(2, 11).vi[0] == 3
    assert UNKNOT_SEMIGROUP.vi == (0,)


def test_from_vi_examples():
    assert gaps(FormalSemigroup.from_vi([1, 0])) == (1,)
    assert gaps(FormalSemigroup.from_vi([2, 1, 1, 1, 0])) == (1, 2, 4, 7)
    assert FormalSemigroup.from_vi([0]) == UNKNOT_SEMIGROUP
    # Extra trailing zeros are tolerated.
    assert gaps(FormalSemigroup.from_vi([1, 0, 0, 0])) == (1,)


@pytest.mark.parametrize(
    "bad",
    [
        [],
        [2, 0],
        [0, 1, 0],
        [1, 2, 1, 0],
        [1],
        [-1, 0],
        [1.5, 0],  # floats are refused, not truncated
        [2.7, 1.2, 0],
        [True, False],
    ],
)
def test_from_vi_malformed(bad):
    with pytest.raises(MalformedSequenceError):
        FormalSemigroup.from_vi(bad)


def test_membership_and_counting():
    s = FormalSemigroup.from_generators(3, 5)
    assert all(contains(s, x) for x in (0, 3, 8, 100, np.int64(3)))
    assert not any(contains(s, x) for x in (1, 7, -3, np.int64(7), True, 3.0))
    assert s.count_below(8) == 4
    assert s.count_below(0) == 0
    assert s.count_below(20) == 16
    assert s.conductor == 8


def test_enumerating_prefix_matches_scalar():
    s = FormalSemigroup.from_generators(5, 26)
    prefix = s.enumerating_prefix(120)
    assert [int(x) for x in prefix] == [s.enumerating(k) for k in range(120)]


coprime_pairs = (
    st.tuples(st.integers(min_value=2, max_value=45), st.integers(min_value=2, max_value=45))
    .filter(lambda ab: gcd(*ab) == 1 and ab[0] * ab[1] <= 2000)
)


@given(coprime_pairs, st.integers(min_value=0, max_value=200))
@settings(max_examples=60, deadline=None)
def test_enumerating_agrees_with_bruteforce(ab, k):
    a, b = ab
    assert FormalSemigroup.from_generators(a, b).enumerating(k) == enumerating_bruteforce(a, b, k)


@given(coprime_pairs)
@settings(max_examples=60, deadline=None)
def test_structural_invariants(ab):
    s = FormalSemigroup.from_generators(*ab)
    g = s.genus
    assert len(gaps(s)) == g
    assert all(0 <= x < 2 * g for x in gaps(s))
    # Symmetry: exactly one of s, 2g-1-s is a gap.
    gapset = set(gaps(s))
    assert all((x in gapset) != (2 * g - 1 - x in gapset) for x in range(2 * g))
    # Enumerating strictly increases and hits the tail formula.
    values = [s.enumerating(k) for k in range(g + 5)]
    assert all(y > x for x, y in zip(values, values[1:]))
    assert values[g:] == [g + k for k in range(g, g + 5)]


@given(coprime_pairs)
@settings(max_examples=60, deadline=None)
def test_vi_round_trip(ab):
    s = FormalSemigroup.from_generators(*ab)
    seq = s.vi
    assert seq[-1] == 0 and len(seq) == s.genus + 1
    assert all(cur - nxt in (0, 1) for cur, nxt in zip(seq, seq[1:]))
    assert FormalSemigroup.from_vi(seq) == s


@given(coprime_pairs, st.integers(min_value=0, max_value=400))
@settings(max_examples=60, deadline=None)
def test_sieve_is_symmetric_and_matches_bruteforce(ab, limit):
    a, b = ab
    members = _kernels.sieve_members(a, b, limit)
    assert np.array_equal(members, _kernels.sieve_members(b, a, limit))
    expected = []
    k = 0
    while (x := enumerating_bruteforce(a, b, k)) < limit:
        expected.append(x)
        k += 1
    assert np.flatnonzero(members).tolist() == expected


def test_from_generators_elements_are_python_ints():
    s = FormalSemigroup.from_generators(6, 61)
    assert type(s.elements) is tuple
    assert all(type(x) is int for x in s.elements)
    assert s.elements == tuple(enumerating_bruteforce(6, 61, k) for k in range(s.genus))


def test_members_are_read_only():
    s = FormalSemigroup.from_generators(3, 5)
    assert s.members.dtype == np.int64
    with pytest.raises(ValueError):
        s.members[1] = 4
    assert not s.enumerating_prefix(2).flags.writeable


def test_caller_array_is_copied():
    owned = np.array([0, 3, 5, 6])
    s = FormalSemigroup(owned)
    owned[1] = 4
    assert s.elements == (0, 3, 5, 6)
    assert s == FormalSemigroup.from_generators(3, 5)


def test_equality_and_hash_by_value():
    s = FormalSemigroup.from_generators(5, 6)
    assert FormalSemigroup.from_vi(s.vi) == s
    assert len({s, FormalSemigroup.from_vi(s.vi), FormalSemigroup(s.elements)}) == 1
    assert s != FormalSemigroup.from_generators(2, 11)
    assert repr(FormalSemigroup.from_generators(3, 5)) == (
        "FormalSemigroup(elements=(0, 3, 5, 6))"
    )


def test_queries_return_python_ints():
    s = FormalSemigroup.from_generators(3, 5)
    for value in (s.genus, s.conductor, s.enumerating(2), s.count_below(6)):
        assert type(value) is int
    assert type(contains(s, 3)) is bool
    assert all(type(x) is int for x in s.vi + gaps(s))


@pytest.mark.parametrize(
    "bad",
    [
        (0, 5, 3, 6),  # unsorted
        (0, 3, 3, 6),  # duplicate
        (0, 3, 5, 8),  # at 2g
        (1, 3, 5, 6),  # 0 missing
        (-1, 3, 5, 6),  # negative
        np.array([[0, 3], [5, 6]]),  # 2-D
        5,  # 0-D
        (0, 3, 5, 6.0),  # float
        np.array([0.0, 3.0, 5.0, 6.0]),  # float array
        (0, True),  # bool
        np.array([True, False]),  # bool array
        np.array([0, 1], np.uint64),  # uint64 array
    ],
)
def test_malformed_members_refused(bad):
    with pytest.raises(MalformedSequenceError):
        FormalSemigroup(bad)
