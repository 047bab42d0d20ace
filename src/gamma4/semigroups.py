"""Formal numerical semigroups and their enumerating functions.

A *formal semigroup* here is a set ``S`` of non-negative integers containing
0 whose complement (the *gaps*) is finite of size ``g`` (the genus), subject
to the symmetry ``s in S  iff  2g - 1 - s not in S``.  Genuine numerical
semigroups generated by two coprime integers are the motivating examples, but
the class deliberately does not require closure under addition: sets of this
shape also arise from torsion profiles of tensor products of staircase
complexes, where closure can fail.

The bridge to knot invariants: for an L-space knot, ``S`` is the exponent set
of the stable Alexander series, ``g`` is the Seifert genus, and the torsion
coefficients ``V_j`` of the large-surgery homology are recovered by counting
gaps at or above ``g + j``.  ``from_vi`` inverts that count.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from math import gcd

import numpy as np


class NotCoprimeError(ValueError):
    """Raised when semigroup generators share a common factor."""


class MalformedSequenceError(ValueError):
    """Raised when a purported torsion sequence violates its shape rules."""


@dataclass(frozen=True)
class FormalSemigroup:
    """A symmetric formal semigroup, stored as its elements below the conductor.

    ``elements`` is the strictly increasing tuple of members smaller than the
    conductor ``2 * genus``; every integer from the conductor on is a member.
    The symmetry invariant makes the member and gap counts below the
    conductor equal, so ``genus == len(elements)``.
    """

    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        g = len(self.elements)
        prev = -1
        for s in self.elements:
            if s <= prev or s >= 2 * g:
                raise MalformedSequenceError(
                    "elements must be strictly increasing and below twice their count"
                )
            prev = s
        if g > 0 and self.elements[0] != 0:
            raise MalformedSequenceError("0 must be a member")

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_generators(cls, a: int, b: int) -> "FormalSemigroup":
        """The numerical semigroup generated by two coprime positive integers."""
        if a < 1 or b < 1:
            raise ValueError("generators must be positive")
        if gcd(a, b) != 1:
            raise NotCoprimeError(f"generators {a} and {b} share a factor")
        genus = (a - 1) * (b - 1) // 2
        from . import _kernels

        members = _kernels.sieve_members(a, b, 2 * genus)
        return cls(tuple(int(x) for x in np.nonzero(members)[0]))

    @classmethod
    def from_vi(cls, values) -> "FormalSemigroup":
        """Rebuild a formal semigroup from its torsion sequence ``V_0, V_1, ...``.

        The sequence must be non-increasing with steps of at most 1, with
        non-negative entries ending at 0; the genus is the index of the first
        zero.  Positions at or above the genus are gaps exactly where the
        sequence strictly drops, and the symmetry pins down everything below.
        """
        vs = [int(v) for v in values]
        if not vs or vs[-1] != 0:
            raise MalformedSequenceError("torsion sequence must be nonempty and end at 0")
        if vs[0] < 0:
            raise MalformedSequenceError("torsion values must be non-negative")
        for cur, nxt in zip(vs, vs[1:]):
            if cur - nxt not in (0, 1):
                raise MalformedSequenceError(
                    "torsion sequence must be non-increasing with unit steps"
                )
        genus = vs.index(0)
        upper_gap = [vs[j] > vs[j + 1] for j in range(genus)]
        elements = [s for s in range(genus) if upper_gap[genus - 1 - s]]
        elements += [genus + j for j in range(genus) if not upper_gap[j]]
        return cls(tuple(elements))

    # -- basic structure --------------------------------------------------

    @property
    def genus(self) -> int:
        return len(self.elements)

    @property
    def conductor(self) -> int:
        return 2 * len(self.elements)

    @cached_property
    def gaps(self) -> tuple[int, ...]:
        member = set(self.elements)
        return tuple(s for s in range(self.conductor) if s not in member)

    def __contains__(self, x: object) -> bool:
        if not isinstance(x, int):
            return False
        if x < 0:
            return False
        if x >= self.conductor:
            return True
        i = bisect_left(self.elements, x)
        return i < len(self.elements) and self.elements[i] == x

    def count_below(self, x: int) -> int:
        """Number of members strictly below ``x``."""
        if x <= 0:
            return 0
        if x >= self.conductor:
            return x - self.genus
        return bisect_right(self.elements, x - 1)

    # -- enumerating function ---------------------------------------------

    def enumerating(self, k: int) -> int:
        """The k-th smallest member (0-indexed); ``genus + k`` once ``k >= genus``."""
        if k < 0:
            raise ValueError("index must be non-negative")
        if k < len(self.elements):
            return self.elements[k]
        return len(self.elements) + k

    def enumerating_prefix(self, count: int) -> np.ndarray:
        """int64 array of the first ``count`` members, for kernel consumption."""
        g = len(self.elements)
        out = np.empty(max(0, count), dtype=np.int64)
        head = min(count, g)
        out[:head] = self.elements[:head]
        if count > g:
            out[g:] = np.arange(g, count, dtype=np.int64) + g
        return out

    @cached_property
    def is_closed_under_addition(self) -> bool:
        """Whether this is a genuine numerical semigroup (sums stay inside).

        Only sums below the conductor can escape, so the check is quadratic in
        the genus.  Formal semigroups produced by ``from_vi`` on tensor-product
        profiles can fail this; two-generator semigroups never do.
        """
        member = set(self.elements)
        nonzero = [s for s in self.elements if s > 0]
        for i, s1 in enumerate(nonzero):
            for s2 in nonzero[i:]:
                total = s1 + s2
                if total >= self.conductor:
                    break
                if total not in member:
                    return False
        return True

    # -- torsion profile ---------------------------------------------------

    @cached_property
    def vi(self) -> tuple[int, ...]:
        """``V_j`` for ``j = 0..genus``: gaps at or above ``genus + j``, counted."""
        g = self.genus
        gaps = self.gaps
        return tuple(g - bisect_left(gaps, g + j) for j in range(g + 1))


UNKNOT_SEMIGROUP = FormalSemigroup(())


def enumerating_bruteforce(a: int, b: int, k: int) -> int:
    """Independent check of ``enumerating``: direct sieve, then count upward.

    Uses a reachability sweep (no stride tricks shared with the production
    kernel) over ``[0, (a-1)(b-1) + k]``, which always contains at least
    ``k + 1`` members because everything from the conductor on is a member.
    """
    if a < 1 or b < 1:
        raise ValueError("generators must be positive")
    if gcd(a, b) != 1:
        raise NotCoprimeError(f"generators {a} and {b} share a factor")
    if k < 0:
        raise ValueError("index must be non-negative")
    limit = (a - 1) * (b - 1) + k + 1
    reachable = bytearray(limit)
    reachable[0] = 1
    for x in range(limit):
        if reachable[x]:
            if x + a < limit:
                reachable[x + a] = 1
            if x + b < limit:
                reachable[x + b] = 1
    seen = -1
    for x in range(limit):
        if reachable[x]:
            seen += 1
            if seen == k:
                return x
    raise AssertionError("sieve window too small")  # pragma: no cover
