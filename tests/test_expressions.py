"""Tests for parsing, printing, and normalizing torus-knot expressions."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gamma4.expressions import (
    ExpressionSyntaxError,
    InvalidKnotError,
    KnotExpression,
    TorusKnot,
    add,
    mirror,
    multiply,
    parse,
    render,
    split_parts,
    torus_knot,
)


def is_empty(expr: KnotExpression) -> bool:
    """Whether ``expr`` is the unknot, the empty sum."""
    return not expr.terms


def as_dict(expr: KnotExpression) -> dict[TorusKnot, int]:
    """The terms of ``expr`` as ``{knot: coefficient}``."""
    return dict(expr.terms)


def test_parse_basic_difference():
    e = parse("T(2,3) - T(5,6)")
    assert e.terms == ((TorusKnot(2, 3), 1), (TorusKnot(5, 6), -1))


def test_parse_coefficient_and_negative_q_mirror():
    e = parse("5*T(2,3)+T(3,-5)")
    assert as_dict(e) == {TorusKnot(2, 3): 5, TorusKnot(3, 5): -1}


def test_parse_gcd_rejected():
    with pytest.raises(InvalidKnotError):
        parse("T(4,6)")


def test_parse_swapped_parameters_normalize():
    assert parse("T(5,3)") == parse("T(3,5)")
    assert parse("T(3,-5)") == mirror(parse("T(3,5)"))
    with pytest.raises(InvalidKnotError):
        parse("T(-5,3)")


def test_parse_unknot_forms():
    assert is_empty(parse(""))
    assert is_empty(parse("   "))
    assert is_empty(parse("T(1,7)"))
    assert is_empty(parse("3*T(1,2)"))
    assert is_empty(parse("0*T(2,3)"))


def test_parse_merges_duplicates():
    assert as_dict(parse("T(2,3)+2*T(2,3)")) == {TorusKnot(2, 3): 3}
    assert is_empty(parse("T(2,3)-T(2,3)"))
    assert is_empty(parse("T(2,3) + T(2,-3)"))


def test_parse_leading_minus_and_whitespace():
    e = parse("  - 2 * T( 2 , 3 ) + T(2,5)  ")
    assert as_dict(e) == {TorusKnot(2, 3): -2, TorusKnot(2, 5): 1}


@pytest.mark.parametrize(
    "bad",
    ["T(2,3", "2*", "T(2,3)++T(2,5)", "T(2,3) T(2,5)", "+T(2,3)", "*T(2,3)", "T(2)"],
)
def test_parse_syntax_errors(bad):
    with pytest.raises(ExpressionSyntaxError):
        parse(bad)


@pytest.mark.parametrize("bad", ["T(0,3)", "T(2,0)", "T(-2,-4)", "T(6,9)", "T(2,2)"])
def test_parse_invalid_knots(bad):
    with pytest.raises(InvalidKnotError):
        parse(bad)


def test_torus_knot_normalizer():
    assert torus_knot(3, 2) == TorusKnot(2, 3)
    assert torus_knot(1, 9) is None
    assert torus_knot(7, 1) is None
    assert TorusKnot(5, 6).genus == 10
    assert str(TorusKnot(3, 5)) == "T(3,5)"


def test_render_canonical_forms():
    assert render(parse("T(5,6)+T(2,3)")) == "T(2,3) + T(5,6)"
    assert render(parse("-T(2,3)-2*T(5,6)")) == "-T(2,3) - 2*T(5,6)"
    assert render(KnotExpression()) == ""


def test_mirror_and_split():
    e = parse("T(2,3) - T(5,6)")
    assert mirror(mirror(e)) == e
    p, n = split_parts(e)
    assert as_dict(p) == {TorusKnot(2, 3): 1}
    assert as_dict(n) == {TorusKnot(5, 6): 1}
    ps, ns = split_parts(mirror(e))
    assert (ps, ns) == (n, p)
    assert split_parts(KnotExpression()) == (KnotExpression(), KnotExpression())


def test_multiply_and_add():
    e = parse("T(2,3) - T(5,6)")
    assert as_dict(multiply(e, 5)) == {TorusKnot(2, 3): 5, TorusKnot(5, 6): -5}
    assert is_empty(multiply(KnotExpression(), 7))
    assert is_empty(multiply(e, 0))
    assert is_empty(add(e, mirror(e)))
    assert e.total_genus == 11


knots = st.builds(
    lambda p, k: (p, p * k + 1),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=5),
).map(lambda pq: TorusKnot(*pq))

expressions = st.lists(
    st.tuples(knots, st.integers(min_value=-4, max_value=4)), max_size=5
).map(KnotExpression.from_terms)


@given(expressions)
def test_parse_render_round_trip(e):
    assert parse(render(e)) == e


@given(expressions)
def test_mirror_involution_and_split_swap(e):
    assert mirror(mirror(e)) == e
    p, n = split_parts(e)
    assert add(p, mirror(n)) == e
    assert split_parts(mirror(e)) == (n, p)


@given(expressions, st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
def test_multiply_distributes(e, a, b):
    assert multiply(e, a + b) == add(multiply(e, a), multiply(e, b))
