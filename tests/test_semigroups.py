"""Tests for formal semigroups, enumerating functions, and torsion profiles."""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamma4.semigroups import (
    UNKNOT_SEMIGROUP,
    FormalSemigroup,
    MalformedSequenceError,
    NotCoprimeError,
    enumerating_bruteforce,
)


def test_from_generators_frozen_values():
    s = FormalSemigroup.from_generators(2, 11)
    assert s.gaps == (1, 3, 5, 7, 9)
    assert s.genus == 5
    assert FormalSemigroup.from_generators(5, 26).genus == 50
    assert FormalSemigroup.from_generators(2, 3).gaps == (1,)
    assert FormalSemigroup.from_generators(3, 5).elements == (0, 3, 5, 6)
    assert FormalSemigroup.from_generators(5, 6).gaps == (
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
    assert FormalSemigroup.from_vi([1, 0]).gaps == (1,)
    assert FormalSemigroup.from_vi([2, 1, 1, 1, 0]).gaps == (1, 2, 4, 7)
    assert FormalSemigroup.from_vi([0]) == UNKNOT_SEMIGROUP
    # Extra trailing zeros are tolerated.
    assert FormalSemigroup.from_vi([1, 0, 0, 0]).gaps == (1,)


@pytest.mark.parametrize("bad", [[], [2, 0], [0, 1, 0], [1, 2, 1, 0], [1], [-1, 0]])
def test_from_vi_malformed(bad):
    with pytest.raises(MalformedSequenceError):
        FormalSemigroup.from_vi(bad)


def test_membership_and_counting():
    s = FormalSemigroup.from_generators(3, 5)
    assert 0 in s and 3 in s and 8 in s and 100 in s
    assert 1 not in s and 7 not in s and -3 not in s
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
    assert len(s.gaps) == g
    assert all(0 <= x < 2 * g for x in s.gaps)
    # Symmetry: exactly one of s, 2g-1-s is a gap.
    gapset = set(s.gaps)
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
