"""Formal integer combinations of torus knots.

An expression is a finite formal sum ``sum_i c_i * T(p_i, q_i)`` with nonzero
integer coefficients; a negative coefficient means that many copies of the
mirror.  The empty expression is the unknot.  Text syntax::

    expr := ['-'] term (('+' | '-') term)*
    term := [INT '*'] 'T(' INT ',' INT ')'

Whitespace is ignored everywhere.  ``T(p, q)`` with ``q < 0`` denotes the
mirror of ``T(p, -q)``; ``T(q, p)`` is normalized to ``T(p, q)``; ``T(1, q)``
is the unknot and normalizes to the empty expression.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator, NamedTuple


class ExpressionSyntaxError(ValueError):
    """Raised when expression text does not match the grammar."""


class InvalidKnotError(ValueError):
    """Raised for torus parameters that do not name a knot (gcd > 1, p < 1)."""


class TorusKnot(NamedTuple):
    """A positive torus knot T(p, q), normalized so that 2 <= p < q, gcd = 1."""

    p: int
    q: int

    @property
    def genus(self) -> int:
        """Seifert genus (p - 1)(q - 1) / 2."""
        return (self.p - 1) * (self.q - 1) // 2

    def __str__(self) -> str:
        return f"T({self.p},{self.q})"


def torus_knot(p: int, q: int) -> TorusKnot | None:
    """Normalize raw parameters to a TorusKnot, or None for the unknot.

    Only the usual identifications are applied: T(q, p) = T(p, q) and
    T(1, q) = unknot.  The sign of q (mirroring) must be handled by the
    caller; both arguments must be positive here.

    Raises
    ------
    InvalidKnotError
        If p < 1, q < 1, or gcd(p, q) != 1 (with p, q >= 2).
    """
    if p < 1 or q < 1:
        raise InvalidKnotError(f"torus parameters must be positive, got ({p}, {q})")
    lo, hi = min(p, q), max(p, q)
    if lo == 1:
        return None
    if gcd(lo, hi) != 1:
        raise InvalidKnotError(f"T({p},{q}) is a link, not a knot (gcd {gcd(lo, hi)})")
    return TorusKnot(lo, hi)


@dataclass(frozen=True)
class KnotExpression:
    """Normalized formal sum of torus knots.

    ``terms`` is a tuple of (TorusKnot, coefficient) pairs, sorted by (p, q),
    with all coefficients nonzero.  The empty tuple is the unknot.
    """

    terms: tuple[tuple[TorusKnot, int], ...] = ()

    @staticmethod
    def from_terms(pairs: Iterable[tuple[TorusKnot, int]]) -> "KnotExpression":
        """Merge duplicate knots, drop zero coefficients, sort canonically."""
        acc: dict[TorusKnot, int] = {}
        for knot, coeff in pairs:
            acc[knot] = acc.get(knot, 0) + coeff
        kept = tuple(
            (knot, acc[knot]) for knot in sorted(acc) if acc[knot] != 0
        )
        return KnotExpression(kept)

    def __iter__(self) -> Iterator[tuple[TorusKnot, int]]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def total_genus(self) -> int:
        """Sum of |coefficient| * genus over all summands."""
        return sum(abs(c) * k.genus for k, c in self.terms)

    def __str__(self) -> str:
        return render(self)


_TERM_RE = re.compile(r"(?:(\d+)\*)?T\((-?\d+),(-?\d+)\)")


def parse(text: str) -> KnotExpression:
    """Parse expression text into a normalized KnotExpression.

    The empty (or all-whitespace) string parses to the unknot.

    Raises
    ------
    ExpressionSyntaxError
        Malformed text.
    InvalidKnotError
        Well-formed text naming a non-knot, e.g. ``T(4,2)``.
    """
    compact = re.sub(r"\s+", "", text)
    if not compact:
        return KnotExpression()
    pairs: list[tuple[TorusKnot, int]] = []
    pos = 0
    sign = 1
    if compact[0] == "-":
        sign = -1
        pos = 1
    while True:
        match = _TERM_RE.match(compact, pos)
        if match is None:
            raise ExpressionSyntaxError(
                f"expected a term c*T(p,q) at position {pos} in {text!r}"
            )
        count = int(match.group(1)) if match.group(1) is not None else 1
        p, q = int(match.group(2)), int(match.group(3))
        mirror_sign = 1
        if q < 0:
            mirror_sign = -1
            q = -q
        knot = torus_knot(p, q)
        if knot is not None:
            pairs.append((knot, sign * mirror_sign * count))
        pos = match.end()
        if pos == len(compact):
            break
        sep = compact[pos]
        if sep not in "+-":
            raise ExpressionSyntaxError(
                f"expected '+' or '-' at position {pos} in {text!r}"
            )
        sign = 1 if sep == "+" else -1
        pos += 1
    return KnotExpression.from_terms(pairs)


def render(expr: KnotExpression) -> str:
    """Canonical text for an expression; inverse of parse on normal forms.

    Terms appear sorted by (p, q); unit coefficients are left implicit;
    the unknot renders as the empty string.
    """
    parts: list[str] = []
    for knot, coeff in expr.terms:
        magnitude = f"{abs(coeff)}*{knot}" if abs(coeff) != 1 else str(knot)
        if not parts:
            parts.append(("-" if coeff < 0 else "") + magnitude)
        else:
            parts.append(("- " if coeff < 0 else "+ ") + magnitude)
    return " ".join(parts)


def mirror(expr: KnotExpression) -> KnotExpression:
    """Mirror image: negate every coefficient."""
    return KnotExpression(tuple((k, -c) for k, c in expr.terms))


def multiply(expr: KnotExpression, n: int) -> KnotExpression:
    """The n-fold connected sum n * expr (n may be zero or negative)."""
    if n == 0:
        return KnotExpression()
    return KnotExpression(tuple((k, n * c) for k, c in expr.terms))


def add(left: KnotExpression, right: KnotExpression) -> KnotExpression:
    """Connected sum of two expressions."""
    return KnotExpression.from_terms(tuple(left.terms) + tuple(right.terms))


def split_parts(expr: KnotExpression) -> tuple[KnotExpression, KnotExpression]:
    """Split E = P - N into positive-coefficient parts (P, N).

    Both returned expressions have strictly positive coefficients; N collects
    the mirrored summands with their signs flipped back to positive.
    """
    pos = tuple((k, c) for k, c in expr.terms if c > 0)
    neg = tuple((k, -c) for k, c in expr.terms if c < 0)
    return KnotExpression(pos), KnotExpression(neg)
