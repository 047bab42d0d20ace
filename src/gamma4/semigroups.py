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

A semigroup holds its members below the conductor as one read-only int64
NumPy array, from the sieve that finds them to the closed-form grid that
reads them; every query is a slice or a ``searchsorted`` over that array and
returns Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

import numpy as np

from . import _kernels


class NotCoprimeError(ValueError):
    """Raised when semigroup generators share a common factor."""


class MalformedSequenceError(ValueError):
    """Raised when a purported torsion sequence violates its shape rules."""


@dataclass(frozen=True, eq=False, repr=False)
class FormalSemigroup:
    """A symmetric formal semigroup, stored as its members below the conductor.

    ``members`` is a read-only, strictly increasing one-dimensional int64
    array of the members smaller than the conductor ``2 * genus``; every
    integer from the conductor on is a member.  The symmetry invariant makes
    the member and gap counts below the conductor equal, so
    ``genus == len(members)``.  The constructor keeps a private copy of what
    ``_kernels.int64_array`` makes of its input (``MalformedSequenceError``
    for float, bool, object and uint64 input).  Equality and hashing go by
    the members.
    """

    members: np.ndarray

    def __post_init__(self) -> None:
        try:
            members = _kernels.int64_array(self.members, "members").copy()
        except ValueError as error:
            raise MalformedSequenceError(str(error)) from None
        members.flags.writeable = False
        g = members.size
        if g and (
            members[0] < 0
            or members[-1] >= 2 * g
            or (members[1:] <= members[:-1]).any()
        ):
            raise MalformedSequenceError(
                "elements must be strictly increasing and below twice their count"
            )
        if g and members[0] != 0:
            raise MalformedSequenceError("0 must be a member")
        object.__setattr__(self, "members", members)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FormalSemigroup):
            return NotImplemented
        return np.array_equal(self.members, other.members)

    def __hash__(self) -> int:
        return hash(self.members.tobytes())

    def __repr__(self) -> str:
        return f"FormalSemigroup(elements={self.elements!r})"

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_generators(cls, a: int, b: int) -> "FormalSemigroup":
        """The numerical semigroup generated by two coprime positive integers."""
        if a < 1 or b < 1:
            raise ValueError("generators must be positive")
        if gcd(a, b) != 1:
            raise NotCoprimeError(f"generators {a} and {b} share a factor")
        genus = (a - 1) * (b - 1) // 2
        return cls(np.flatnonzero(_kernels.sieve_members(a, b, 2 * genus)))

    @classmethod
    def from_vi(cls, values) -> "FormalSemigroup":
        """Rebuild a formal semigroup from its torsion sequence ``V_0, V_1, ...``.

        With extra trailing zeros cut, the sequence must pass
        ``is_torsion_profile`` (``MalformedSequenceError`` otherwise, for
        floats and bools too); the genus is its last index.  Positions at or
        above the genus are gaps exactly where the sequence strictly drops,
        and the symmetry pins down everything below.
        """
        vs = list(values)
        while len(vs) > 1 and all(_is_integer(v) and v == 0 for v in vs[-2:]):
            vs.pop()  # an extra trailing zero
        if not is_torsion_profile(vs):
            raise MalformedSequenceError("the sequence is not a torsion profile")
        genus = len(vs) - 1
        upper_gap = [vs[j] > vs[j + 1] for j in range(genus)]
        elements = [s for s in range(genus) if upper_gap[genus - 1 - s]]
        elements += [genus + j for j in range(genus) if not upper_gap[j]]
        return cls(elements)

    # -- basic structure --------------------------------------------------

    @cached_property
    def elements(self) -> tuple[int, ...]:
        """The members below the conductor as a tuple of Python ints."""
        return tuple(self.members.tolist())

    @property
    def genus(self) -> int:
        return self.members.size

    @property
    def conductor(self) -> int:
        return 2 * self.members.size

    def count_below(self, x: int) -> int:
        """Number of members strictly below ``x``."""
        if x <= 0:
            return 0
        if x >= self.conductor:
            return x - self.genus
        return int(np.searchsorted(self.members, x))

    # -- enumerating function ---------------------------------------------

    def enumerating(self, k: int) -> int:
        """The k-th smallest member (0-indexed); ``genus + k`` once ``k >= genus``."""
        if k < 0:
            raise ValueError("index must be non-negative")
        if k < self.genus:
            return int(self.members[k])
        return self.genus + k

    def enumerating_prefix(self, count: int) -> np.ndarray:
        """int64 array of the first ``count`` members, for kernel consumption.

        Within the genus this is a read-only slice of ``members``; past it the
        members ``2g, 2g + 1, ...`` are appended in a new array.
        """
        g = self.genus
        if count <= g:
            return self.members[: max(0, count)]
        return np.concatenate(
            (self.members, np.arange(2 * g, count + g, dtype=np.int64))
        )

    # -- torsion profile ---------------------------------------------------

    @cached_property
    def vi(self) -> tuple[int, ...]:
        """``V_j`` for ``j = 0..genus``: gaps at or above ``genus + j``, counted.

        Of the ``g - j`` integers in ``[g + j, 2g)``, ``g - I(g + j)`` are
        members, where ``I(m)`` counts the members below ``m``; so
        ``V_j = I(g + j) - j``.
        """
        g = self.genus
        j = np.arange(g + 1)
        return tuple((np.searchsorted(self.members, g + j) - j).tolist())


UNKNOT_SEMIGROUP = FormalSemigroup(())


def _is_integer(x: object) -> bool:
    """Whether ``x`` is a Python or NumPy integer; a bool is not."""
    return type(x) is int or isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def is_torsion_profile(values) -> bool:
    """Whether ``values`` holds integers, bools not counted, that never rise,
    drop by at most one per step (Rasmussen: ``V_s - 1 <= V_{s+1} <= V_s``)
    and end at their only zero; one pass over them."""
    previous = None
    for current in values:
        if type(current) is not int and not _is_integer(current):
            return False
        if previous is not None and (
            previous <= 0 or current != previous and current != previous - 1
        ):
            return False
        previous = current
    return bool(previous == 0)


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
