"""Tests for the closed-form torsion profiles and the expression router."""

import dataclasses
import json
import random
import re
from itertools import chain, combinations_with_replacement, permutations, repeat
from math import gcd
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gamma4.cfk
import gamma4.nuplus
import gamma4.verify
from gamma4 import _kernels
from gamma4.cfk import (
    staircase,
    staircase_exponents,
    tensor,
    vi_by_rank,
    vi_sequence,
)
from gamma4.expressions import KnotExpression, TorusKnot, mirror, parse, split_parts
from gamma4.nuplus import (
    SEMIGROUP_STORE_MEMBERS,
    UnsupportedExpressionError,
    VRoute,
    _classes,
    _first_zero,
    _infimal_fold,
    _invert_profile,
    generator_excess,
    hom_wu_nu_plus,
    nu_plus_v,
    nu_profile,
    route,
    t_from_profile,
    t_invariant,
    tensor_complex,
    tensor_fold,
    vi_expr,
    vi_from_nuplus,
    vi_tensor_oracle,
)
from gamma4.semigroups import UNKNOT_SEMIGROUP, FormalSemigroup
from gamma4.torus import representative, vi_lspace

S526 = FormalSemigroup.from_generators(5, 26)
S211 = FormalSemigroup.from_generators(2, 11)
S23 = FormalSemigroup.from_generators(2, 3)

semigroups = st.tuples(
    st.integers(min_value=2, max_value=9), st.integers(min_value=2, max_value=25)
).filter(lambda ab: gcd(*ab) == 1).map(
    lambda ab: FormalSemigroup.from_generators(*ab)
)


def test_nu_plus_v_frozen_values():
    assert nu_plus_v(S526, S211, 13) == 1
    assert nu_plus_v(S526, S211, 2) == 35
    assert nu_plus_v(S23, UNKNOT_SEMIGROUP, 0) == 1


def test_vi_from_nuplus_frozen_values():
    assert vi_from_nuplus(S526, S211)[0] == 14
    assert vi_from_nuplus(S23, UNKNOT_SEMIGROUP) == (1, 0)
    assert vi_from_nuplus(UNKNOT_SEMIGROUP, S23) == (0,)


def test_vi_expr_headline_values():
    assert vi_expr(parse("T(5,6) - T(2,3)")) == (3, 3, 3, 2, 2, 1, 1, 1, 1, 0)
    assert vi_expr(parse("T(2,3) - T(5,6)")) == (0,)
    assert vi_expr(parse("")) == (0,)


def test_empty_fold_is_the_unknot():
    # both tensor paths start from the one-generator unknot staircase
    assert len(tensor_fold([])) == 1
    assert vi_sequence(tensor_fold([])) == (0,)
    assert len(tensor_complex(parse(""))) == 1
    assert vi_sequence(tensor_complex(parse(""))) == (0,)
    assert vi_tensor_oracle(parse("")) == (0,)


def test_tensor_fold_leaves_its_argument_unsorted():
    short = gamma4.cfk.trefoil_staircase()
    long = gamma4.cfk.staircase_from_semigroup(FormalSemigroup.from_generators(3, 4))
    pieces = [short, long]
    assert len(short) < len(long)
    folded = tensor_fold(pieces)
    assert pieces[0] is short and pieces[1] is long and len(pieces) == 2
    assert folded == tensor(long, short)  # longest first


def test_t_invariant_values():
    assert t_invariant(parse("T(2,3) - T(5,6)")) == 6
    assert t_invariant(parse("T(5,6) - T(2,3)")) == 0
    assert t_invariant(parse("5*T(2,3) - 5*T(5,6)")) == 27
    assert t_invariant(parse("T(3,-5)")) == 3
    assert t_invariant(parse("")) == 0


def test_hom_wu_values():
    assert hom_wu_nu_plus(parse("T(3,5)")) == 4
    assert hom_wu_nu_plus(parse("")) == 0
    assert hom_wu_nu_plus(parse("T(2,-3)")) == 0
    assert hom_wu_nu_plus(parse("-T(2,3) - T(5,6)")) == 0


def test_route_kinds():
    """Each route's kind and reason; a closed form builds the collapsed
    semigroups in ``vi_expr``."""
    expr = parse("5*T(2,3) - 5*T(5,6)")
    assert route(expr) == VRoute(kind="closed-form", reason="")
    assert vi_expr(expr) == vi_from_nuplus(
        FormalSemigroup.from_generators(2, 11), FormalSemigroup.from_generators(5, 26)
    )
    assert [field.name for field in dataclasses.fields(VRoute)] == ["kind", "reason"]
    # one-sided sums fold by infimal convolution, still under the genus cap
    assert route(parse("T(2,3) + T(3,5)")) == VRoute(kind="closed-form")
    assert route(parse("-T(2,3) - T(3,5)")) == VRoute(kind="closed-form")
    # several different staircases against a nonempty other side do not
    mixed = route(parse("T(2,3) + T(3,5) - T(2,5)"))
    assert mixed == VRoute(kind="complex", reason="several staircases share a side")
    for text in ("T(2,3) + T(3,5)", "-T(2,3) - T(3,5)"):
        tight = route(parse(text), genus_cap=3)
        assert tight.kind == "unsupported"
        assert tight.reason == "reduced genus 5 exceeds the cap 3"
    with pytest.raises(UnsupportedExpressionError):
        vi_expr(parse("T(2,3) + T(3,5)"), genus_cap=3)
    # the direct path respects the genus cap too
    assert route(parse("T(2,3) + T(3,5) - T(2,5)"), genus_cap=6) == VRoute(
        kind="unsupported",
        reason="several staircases share a side; total genus 7 exceeds the cap 6",
    )


def test_one_sided_route_builds_no_complex(monkeypatch):
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for module in (gamma4.cfk, gamma4.nuplus):
        for name in ("tensor", "vi_sequence", "vi_by_rank"):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(
        FormalSemigroup,
        "from_vi",
        staticmethod(counted("from_vi", FormalSemigroup.from_vi)),
    )
    for text in ("T(2,5) + T(3,4)", "-T(2,5) - T(3,4)", "T(7,9) + T(8,11)",
                 "T(2,3) + T(2,5) + T(3,4) + T(2,7)", "3*T(2,5) + 2*T(3,4)"):
        assert route(parse(text)).kind == "closed-form"
    assert calls == []


ONE_SIDED_KNOTS = [
    parse(s).terms[0][0]
    for s in ["T(2,3)", "T(2,5)", "T(2,7)", "T(2,9)", "T(3,4)",
              "T(3,5)", "T(3,7)", "T(4,5)", "T(5,6)"]
]


def budgeted_generators(expr: KnotExpression) -> int:
    """The generator count ``generator_excess`` reads for ``expr``: with a
    limit of 0 every count is over it and printed."""
    with mock.patch.object(gamma4.nuplus, "COMPLEX_GENERATOR_LIMIT", 0):
        excess = generator_excess(expr)
    return int(re.fullmatch(r"the tensor complex would need (\d+) .*", excess)[1])


def one_sided_sums(low: int, high: int) -> list[KnotExpression]:
    """Sums of 2 and 3 of the knots above whose tensor complex (adjacent
    powers collapsed) has more than ``low`` and at most ``high`` generators."""
    out = []
    for size in (2, 3):
        for combo in combinations_with_replacement(ONE_SIDED_KNOTS, size):
            expr = KnotExpression.from_terms((knot, 1) for knot in combo)
            if low < budgeted_generators(expr) <= high:
                out.append(expr)
    return out


@pytest.mark.parametrize(
    "low, high", [(0, 405), pytest.param(405, 729, marks=pytest.mark.slow)]
)
def test_infimal_fold_matches_tensor_oracle(low, high):
    # together the two budgets cover every sum of 2 and 3 of the nine knots
    for expr in one_sided_sums(low, high):
        for signed in (expr, mirror(expr)):
            assert vi_expr(signed) == vi_tensor_oracle(signed), signed


ORACLE_GENERATOR_BUDGET = 405


@st.composite
def budgeted_expressions(draw):
    """Signed sums over the nine knots whose raw tensor (one staircase per
    copy, as ``vi_tensor_oracle`` builds it) stays within the budget.

    Powers of an adjacent-parameter knot are collapsed by the routed path,
    inside tensors on the complex route.
    """
    terms = []
    generators = 1
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        knot = draw(st.sampled_from(ONE_SIDED_KNOTS))
        sign = draw(st.sampled_from((1, -1)))
        size = len(staircase_exponents(FormalSemigroup.from_generators(knot.p, knot.q)))
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            if generators * size <= ORACLE_GENERATOR_BUDGET:
                generators *= size
                terms.append((knot, sign))
    return KnotExpression.from_terms(terms)


@given(budgeted_expressions())
# random draws seldom put a power inside the tensor of the complex route
@example(parse("2*T(2,3) + T(2,5) - T(3,4)"))
@example(parse("2*T(3,4) - T(2,3) - T(2,5)"))
@settings(max_examples=100, deadline=None)
def test_routed_profile_matches_tensor_oracle(expr):
    assert vi_expr(expr) == vi_tensor_oracle(expr), expr


MIXED = parse("T(2,3) + T(3,4) - T(2,5)")


def test_complex_route_runs_no_elimination(monkeypatch):
    """The routed complex path reads its profile off rank tests: no graded
    Smith normal form, no level homology, no packed pattern."""
    assert route(MIXED).kind == "complex"
    expected = vi_tensor_oracle(MIXED)

    def refuse(*args, **kwargs):
        raise AssertionError("the complex route ran the oracle's algorithm")

    monkeypatch.setattr(_kernels, "graded_snf", refuse)
    monkeypatch.setattr(gamma4.cfk, "homology_over_polynomial_ring", refuse)
    monkeypatch.setattr(gamma4.cfk.BifilteredComplex, "_pattern", property(refuse))
    assert vi_expr(MIXED) == expected == (1, 1, 0)
    with pytest.raises(AssertionError, match="oracle's algorithm"):
        vi_tensor_oracle(MIXED)


def test_oracle_builds_no_target_masks(monkeypatch):
    """The oracle reads its profile off graded Smith normal form: no rank
    test, no F_2 rank, no target masks."""
    expected = vi_expr(MIXED)

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran the routed algorithm")

    monkeypatch.setattr(_kernels, "f2_rank", refuse)
    monkeypatch.setattr(gamma4.cfk, "_rank_test", refuse)
    monkeypatch.setattr(gamma4.cfk.BifilteredComplex, "_targets", property(refuse))
    assert vi_tensor_oracle(MIXED) == expected == (1, 1, 0)
    with pytest.raises(AssertionError, match="routed algorithm"):
        vi_expr(MIXED)


@pytest.mark.slow
def test_routed_profile_of_a_42875_generator_complex():
    """``3*T(3,5) - 3*T(2,5)`` builds, checks and rank-tests a complex far
    beyond the sizes the property tests draw."""
    c = tensor_complex(parse("3*T(3,5) - 3*T(2,5)"))
    assert (len(c), c.src.size) == (42875, 213150)
    assert vi_by_rank(c) == (2, 2, 2, 1, 1, 1, 0)


def test_oracle_eliminates_every_level(monkeypatch):
    """The oracle runs graded Smith normal form and level homology once per
    profile entry."""
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(_kernels, "graded_snf", counted("snf", _kernels.graded_snf))
    monkeypatch.setattr(
        gamma4.cfk,
        "homology_over_polynomial_ring",
        counted("homology", gamma4.cfk.homology_over_polynomial_ring),
    )
    profile = vi_tensor_oracle(MIXED)
    assert calls.count("snf") == calls.count("homology") == len(profile) > 0


def test_infimal_fold_identities():
    factors = [FormalSemigroup.from_generators(k.p, k.q) for k in ONE_SIDED_KNOTS]
    assert _infimal_fold([]) == UNKNOT_SEMIGROUP
    assert _infimal_fold([]) is UNKNOT_SEMIGROUP  # shared, not built again
    for a in factors:
        assert _infimal_fold([a, UNKNOT_SEMIGROUP]) == a
        assert _infimal_fold([UNKNOT_SEMIGROUP, a]) == a
        for b in factors:
            assert _infimal_fold([a, b]) == _infimal_fold([b, a])
    triple = factors[1], factors[4], factors[8]
    assert len({_infimal_fold(list(order)) for order in permutations(triple)}) == 1


def test_route_generator_limit():
    # genus 17 passes the default cap, but eight uncollapsible 5-generator
    # staircases and a trefoil multiply past the generator budget
    plan = route(parse("8*T(2,5) - T(2,3)"))
    assert plan.kind == "unsupported"
    assert "generators" in plan.reason
    with pytest.raises(UnsupportedExpressionError):
        vi_expr(parse("8*T(2,5) - T(2,3)"))


def test_budget_counts_the_built_complex():
    """The generator budget reads the same factor classes as the build, so
    it counts exactly the complex that ``tensor_complex`` builds."""
    family = gamma4.verify._genus_limited_family(14)
    assert len(family) == 491
    for expr in family:
        assert budgeted_generators(expr) == len(tensor_complex(expr)), expr


def test_oracle_builds_one_staircase_per_copy(monkeypatch):
    """The oracle takes the terms as written: ``2*T(2,3)`` is two trefoil
    staircases there, but one ``T(2,5)`` staircase in the routed complex."""
    expr = parse("2*T(2,3) - T(2,5)")
    sizes = []

    def measured(complex_):
        sizes.append(len(complex_))
        return vi_sequence(complex_)

    monkeypatch.setattr(gamma4.nuplus, "vi_sequence", measured)
    vi_tensor_oracle(expr)
    assert sizes == [45]
    assert len(tensor_complex(expr)) == 25


def test_tensor_complex_builds_one_staircase_per_class(monkeypatch):
    """Copies of a class share one staircase: from an empty piece cache,
    ``3*T(2,5) - T(3,4)`` builds two, not four, and a second build none."""
    built = []

    def counted(exponents):
        built.append(tuple(exponents))
        return staircase(exponents)

    gamma4.nuplus._piece.cache_clear()
    gamma4.nuplus._tensor_of_pieces.cache_clear()
    monkeypatch.setattr(gamma4.cfk, "staircase", counted)
    expr = parse("3*T(2,5) - T(3,4)")
    assert len(tensor_complex(expr)) == 5**3 * 5
    assert len(built) == 2
    assert tensor_complex(expr) == tensor_complex(parse("T(2,5) + T(2,5) + T(2,5) - T(3,4)"))
    assert len(built) == 2


def test_pieces_are_cached_and_read_only():
    """``_piece`` hands every caller the same complex, bounded by
    ``PIECE_CACHE_SIZE``; the complex cannot be changed through its arrays."""
    assert gamma4.nuplus._piece.cache_info().maxsize == gamma4.nuplus.PIECE_CACHE_SIZE
    for knot in ONE_SIDED_KNOTS[:4]:
        for mirrored in (False, True):
            piece = gamma4.nuplus._piece(knot, mirrored)
            assert gamma4.nuplus._piece(knot, mirrored) is piece
            assert piece.ids[0] == ("y1*" if mirrored else "y1")
            sides = ([], [(knot, 1)]) if mirrored else ([(knot, 1)], [])
            assert gamma4.nuplus._tensor_of(*sides) is piece  # a lone piece, shared
            for name in ("maslov", "alexander", "src", "tgt", "exponent"):
                array = getattr(piece, name)
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = array[0]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_tensor_fold_makes_one_construction(monkeypatch, k):
    """A fold of ``k`` pieces builds and checks one complex, not ``k - 1``."""
    pieces = [gamma4.nuplus._piece(knot, k % 2 == 1) for knot in ONE_SIDED_KNOTS[:k]]
    built = []
    post_init = gamma4.cfk.BifilteredComplex.__post_init__

    def counted(self):
        built.append(len(self.ids))
        post_init(self)

    monkeypatch.setattr(gamma4.cfk.BifilteredComplex, "__post_init__", counted)
    folded = tensor_fold(pieces)
    assert built == [len(folded)] == [int(np.prod([len(p) for p in pieces]))]


def _count_constructions(monkeypatch) -> list[int]:
    """The sizes of the complexes built and checked from now on."""
    built: list[int] = []
    post_init = gamma4.cfk.BifilteredComplex.__post_init__

    def counted(self):
        built.append(len(self.ids))
        post_init(self)

    monkeypatch.setattr(gamma4.cfk.BifilteredComplex, "__post_init__", counted)
    return built


def test_routed_path_and_oracle_share_one_construction(monkeypatch):
    """``vi_expr`` then ``vi_tensor_oracle`` on an expression whose classes
    do not collapse tensor the same pieces in the same order: one tensor is
    built and checked for both, and each path runs its own algorithm on it."""
    expr = parse("T(2,3) + T(3,4) - T(2,5)")
    assert route(expr).kind == "complex"
    vi_tensor_oracle(expr)  # fills the piece cache
    gamma4.nuplus._tensor_of_pieces.cache_clear()
    built = _count_constructions(monkeypatch)
    assert vi_expr(expr) == vi_tensor_oracle(expr) == (1, 1, 0)
    assert built == [75]


def test_collapsed_class_makes_a_second_construction(monkeypatch):
    """``2*T(2,3)`` is one ``T(2,5)`` staircase in the routed complex and
    two trefoils in the oracle: two different tensors, two constructions."""
    expr = parse("2*T(2,3) - T(2,5)")
    vi_tensor_oracle(expr)
    tensor_complex(expr)  # fills the piece cache
    gamma4.nuplus._tensor_of_pieces.cache_clear()
    built = _count_constructions(monkeypatch)
    assert len(tensor_complex(expr)) == 25
    vi_tensor_oracle(expr)
    assert built == [25, 45]


def test_tensor_cache_holds_one_complex(monkeypatch):
    """Only the last tensor is kept: after another expression, the first
    one is built again, equal to before but a new complex."""
    assert gamma4.nuplus._tensor_of_pieces.cache_info().maxsize == 1
    first, other = parse("T(2,3) + T(3,4) - T(2,5)"), parse("T(2,5) + T(3,4) - T(2,3)")
    tensor_complex(first), tensor_complex(other)  # fill the piece cache
    built = _count_constructions(monkeypatch)
    before = tensor_complex(first)
    assert tensor_complex(first) is before
    tensor_complex(other)
    again = tensor_complex(first)
    assert built == [75, 75, 75]
    assert again is not before and again == before
    assert gamma4.nuplus._tensor_of_pieces.cache_info().currsize == 1


STORE = gamma4.nuplus._SEMIGROUPS


def test_semigroup_store_returns_one_object_per_knot():
    assert STORE.limit == SEMIGROUP_STORE_MEMBERS
    STORE.clear()
    knot = TorusKnot(3, 5)
    first = gamma4.nuplus._semigroup(knot)
    assert gamma4.nuplus._semigroup(knot) is first
    assert first == FormalSemigroup.from_generators(3, 5)
    assert STORE.members == first.genus == 4


def test_semigroup_store_holds_at_most_its_bound():
    """The members held never exceed the bound, and room is made by
    dropping the oldest entries first."""
    store = gamma4.nuplus._SemigroupStore(12)
    # genera 1, 2, 3, 3, 4, 4, 6, 10, 1
    knots = [TorusKnot(2, 3), TorusKnot(2, 5), TorusKnot(3, 4), TorusKnot(2, 7),
             TorusKnot(3, 5), TorusKnot(2, 9), TorusKnot(4, 5), TorusKnot(5, 6),
             TorusKnot(2, 3)]
    held = []
    for knot in knots:
        held.append(knot)
        while sum(k.genus for k in held) > 12:
            held.pop(0)
        store.get(knot)
        assert list(store.entries) == held
        assert store.members == sum(s.genus for s in store.entries.values()) <= 12
    assert held == [TorusKnot(5, 6), TorusKnot(2, 3)]


def test_semigroup_store_returns_but_does_not_hold_an_oversized_semigroup():
    store = gamma4.nuplus._SemigroupStore(5)
    small = store.get(TorusKnot(2, 5))
    large = store.get(TorusKnot(5, 6))
    assert large.genus == 10 and large == FormalSemigroup.from_generators(5, 6)
    assert store.get(TorusKnot(5, 6)) is not large
    assert list(store.entries) == [TorusKnot(2, 5)] and store.members == 2
    assert store.get(TorusKnot(2, 5)) is small
    # at the real bound: genus 2**17 + 1
    knot = TorusKnot(2, 2 * SEMIGROUP_STORE_MEMBERS + 3)
    assert gamma4.nuplus._semigroup(knot).genus == SEMIGROUP_STORE_MEMBERS + 1
    assert knot not in STORE.entries
    assert STORE.members <= SEMIGROUP_STORE_MEMBERS


def test_route_and_its_mirror_build_each_knot_once(monkeypatch):
    built = []
    build = FormalSemigroup.from_generators

    def counted(a, b):
        built.append(TorusKnot(a, b))
        return build(a, b)

    monkeypatch.setattr(FormalSemigroup, "from_generators", staticmethod(counted))
    STORE.clear()
    gamma4.nuplus._piece.cache_clear()
    # closed form, then a complex route whose tensor is built
    for text in ("T(2,3) - T(5,6)", "3*T(2,5) - T(3,4) - T(2,3)"):
        expr = parse(text)
        route(expr), route(mirror(expr))
        vi_expr(expr), vi_expr(mirror(expr))
    assert built == [TorusKnot(2, 3), TorusKnot(5, 6), TorusKnot(2, 5), TorusKnot(3, 4)]


def test_route_builds_no_semigroup_for_a_closed_form(monkeypatch):
    """A closed-form decision reads the class lists alone: with the store
    empty and every semigroup build refused, it still decides, also for a
    knot whose sieve would need gigabytes; ``vi_expr`` builds."""

    def refused(a, b):
        raise AssertionError(f"the semigroup of T({a},{b}) was built")

    STORE.clear()
    monkeypatch.setattr(FormalSemigroup, "from_generators", staticmethod(refused))
    for text in ("T(2,3) - T(1000,1000001)", "T(2,3) + T(2,5) + T(3,4)"):
        assert route(parse(text)) == VRoute(kind="closed-form")
    with pytest.raises(AssertionError, match="was built"):
        vi_expr(parse("T(2,3) + T(2,5) + T(3,4)"))


def reference_classes(expr):
    """The reference for ``_classes``, built another way: a list per part
    of ``split_parts``, each sorted in place, stably, by genus."""
    sides = tuple(
        [(representative(c, k.p), 1) if k.q == k.p + 1 else (k, c) for k, c in part]
        for part in split_parts(expr)
    )
    for side in sides:
        side.sort(key=lambda kc: kc[0].genus, reverse=True)
    return sides


def assert_classes_match_reference(expr):
    got = _classes(expr)
    assert type(got) is tuple and [type(side) for side in got] == [tuple, tuple]
    assert [list(side) for side in got] == list(reference_classes(expr)), expr


CATALOG = Path(__file__).parents[1] / "perfbench" / "family_catalog.json"


def test_classes_match_the_reference_on_the_catalog():
    """Tuples in the reference order, for every catalog expression in turn,
    so each read follows a memo that holds the previous expression."""
    rows = json.loads(CATALOG.read_text(encoding="utf-8"))
    assert len(rows) == 421
    for text, *_ in rows:
        assert_classes_match_reference(parse(text))


small_terms = st.lists(
    st.tuples(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=-3, max_value=3).filter(bool),
    ).filter(lambda pdc: gcd(pdc[0], pdc[1]) == 1),
    max_size=6,
).map(
    lambda terms: KnotExpression.from_terms(
        (TorusKnot(p, p + d), c) for p, d, c in terms
    )
)


@given(small_terms)
@example(parse("T(3,4) + T(2,7) - T(2,9) - T(3,5) - 2*T(2,3)"))  # genus ties
@settings(max_examples=200, deadline=None)
def test_classes_match_the_reference(expr):
    assert_classes_match_reference(expr)
    assert_classes_match_reference(mirror(expr))


@pytest.mark.parametrize(
    "text",
    ["T(5,6) - T(2,3)", "7*T(2,3) - 7*T(5,6)", "T(2,3) + T(2,5) + T(3,4)",
     "T(2,3) + T(3,4) - T(2,5)", "3*T(2,5) - T(3,4)"],
)
def test_a_profile_builds_its_class_lists_once(monkeypatch, text):
    """``route``, the generator budget and the build of ``vi_expr`` share
    one build of the class lists, on the closed-form and complex routes:
    one memo miss, and one collapse per adjacent-parameter term."""
    expr = parse(text)
    collapsed = []

    def counted(n, p):
        collapsed.append(p)
        return representative(n, p)

    monkeypatch.setattr(gamma4.nuplus, "representative", counted)
    _classes.cache_clear()
    vi_expr(expr)
    assert _classes.cache_info().misses == 1
    assert len(collapsed) == sum(k.q == k.p + 1 for k, _ in expr.terms)


closed_form_pairs = st.tuples(
    st.sampled_from(ONE_SIDED_KNOTS + [TorusKnot(7, 9), TorusKnot(3, 22)]),
    st.sampled_from(ONE_SIDED_KNOTS + [TorusKnot(2, 41), TorusKnot(9, 10)]),
).map(lambda ab: KnotExpression.from_terms([(ab[0], 1), (ab[1], -1)]))


@pytest.mark.parametrize("clear_classes", [True, False])
@given(st.lists(closed_form_pairs | budgeted_expressions(), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_profiles_do_not_depend_on_the_store(clear_classes, exprs):
    """Each profile from a cold store and cold piece cache equals the same
    profile read again from warm ones, under the real bound and under one
    so small that the store keeps evicting.  The cold reads clear the class
    memo too, or keep it, so it never hands one expression another's lists."""

    def cold(expr):
        STORE.clear()
        gamma4.nuplus._piece.cache_clear()
        if clear_classes:
            _classes.cache_clear()
        return vi_expr(expr)

    want = [cold(expr) for expr in exprs]
    assert [vi_expr(expr) for expr in exprs] == want
    with mock.patch.object(STORE, "limit", 6):
        STORE.clear()
        assert [vi_expr(expr) for expr in exprs] == want
        assert [vi_expr(expr) for expr in exprs] == want
        assert STORE.members <= 6
    STORE.clear()


def is_closed_under_addition(s: FormalSemigroup) -> bool:
    """Whether ``s`` is a genuine numerical semigroup (sums stay inside).

    Only sums below the conductor can escape, so the check is quadratic in
    the genus.  Formal semigroups produced by ``from_vi`` on tensor-product
    profiles can fail this; two-generator semigroups never do.
    """
    member = set(s.elements)
    nonzero = [x for x in s.elements if x > 0]
    for i, s1 in enumerate(nonzero):
        for s2 in nonzero[i:]:
            total = s1 + s2
            if total >= s.conductor:
                break
            if total not in member:
                return False
    return True


def test_mixed_multifactor_closed_form_fails():
    """The two-sided formula is wrong on some heterogeneous sums.

    Reducing T(2,3) + T(5,6) to a single formal semigroup preserves its
    torsion profile, but feeding that semigroup into the two-sided formula
    against T(2,5) yields a provably wrong answer — which is why the router
    only trusts the formula when each side is a single staircase.
    """
    expr = parse("T(2,3) - T(2,5) + T(5,6)")
    correct = (3, 3, 3, 2, 2, 1, 1, 1, 1, 0)
    assert vi_expr(expr) == correct
    assert route(expr).kind == "complex"
    assert vi_tensor_oracle(expr) == correct

    positive_profile = vi_expr(parse("T(2,3) + T(5,6)"))
    reduced = FormalSemigroup.from_vi(positive_profile)
    assert reduced.vi == positive_profile  # the reduction round-trips...
    assert not is_closed_under_addition(reduced)  # ...but is merely formal
    wrong = vi_from_nuplus(reduced, FormalSemigroup.from_generators(2, 5))
    assert wrong != correct


def test_adjacent_powers_bypass_genus_cap():
    # 50 copies on each side reduce via single representatives; no cap applies.
    expr = mirror(parse("50*T(2,3) - 50*T(5,6)"))
    assert t_from_profile(vi_expr(expr, genus_cap=60)) == 261


@given(semigroups, semigroups, st.integers(min_value=0, max_value=40))
@settings(max_examples=60, deadline=None)
def test_extended_k_range_never_changes_value(a, b, v):
    ga, gb = a.genus, b.genus
    brute = max(
        b.enumerating(k) - a.enumerating(k + v) for k in range(gb + 201)
    )
    assert nu_plus_v(a, b, v) == max(0, ga - gb + brute)


coprime_small = st.tuples(
    st.integers(min_value=2, max_value=9), st.integers(min_value=2, max_value=25)
).filter(lambda ab: gcd(*ab) == 1)


@given(coprime_small)
@settings(max_examples=25, deadline=None)
def test_degenerate_closed_form_matches_torsion_formula(ab):
    sg = FormalSemigroup.from_generators(*ab)
    assert vi_from_nuplus(sg, UNKNOT_SEMIGROUP) == vi_lspace(*ab)


@given(semigroups, semigroups)
@settings(max_examples=30, deadline=None)
def test_profile_shape(a, b):
    nus = nu_profile(a, b)
    assert nus[-1] == 0
    assert all(x >= y for x, y in zip(nus, nus[1:]))  # non-increasing
    assert all(x > 0 for x in nus[:-1])  # ends exactly at the first zero


def _invert_by_repeats(nus: np.ndarray) -> tuple[int, ...]:
    """The profile inversion as a chain of ``repeat``s, one per level."""
    upper = [int(nus[0]) + 1, *nus[:-1].tolist()]
    spans = [u - x for u, x in zip(upper, nus.tolist())][::-1]
    return tuple(chain.from_iterable(map(repeat, range(len(nus) - 1, -1, -1), spans)))


def _assert_inversion(nus: np.ndarray) -> None:
    profile = _invert_profile(nus)
    assert profile == _invert_by_repeats(nus)
    assert all(type(v) is int for v in profile)
    assert len({id(v) for v in profile}) <= len(nus)  # one int object per level


@given(semigroups, semigroups)
@settings(max_examples=30, deadline=None)
def test_profile_inversion_matches_repeats(a, b):
    _assert_inversion(nu_profile(a, b))


def test_profile_inversion_shares_one_int_per_level():
    """601 levels, most above the small ints that Python caches anyway."""
    nus = np.arange(600, -1, -1, dtype=np.int64) * 3
    _assert_inversion(nus)
    assert len(_invert_profile(nus)) == 1801
    _assert_inversion(np.zeros(1, dtype=np.int64))


FAMILY_KNOTS = [parse(s).terms[0][0] for s in ["T(2,3)", "T(2,5)", "T(3,4)", "T(3,5)", "T(5,6)"]]


def oracle_family() -> list[KnotExpression]:
    """All expressions over the five reference knots, coefficients in [-2, 2],
    total genus at most 14."""
    out = []
    coeffs = range(-2, 3)
    for c0 in coeffs:
        for c1 in coeffs:
            for c2 in coeffs:
                for c3 in coeffs:
                    for c4 in coeffs:
                        cs = (c0, c1, c2, c3, c4)
                        expr = KnotExpression.from_terms(zip(FAMILY_KNOTS, cs))
                        if expr.total_genus <= 14:
                            out.append(expr)
    return out


def tensor_size(expr: KnotExpression) -> int:
    size = 1
    for knot, count in expr.terms:
        size *= (2 * knot.genus + 1) ** abs(count)
    return size


def test_oracle_family_sample_agreement():
    family = [e for e in oracle_family() if tensor_size(e) <= 1500]
    sample = random.Random(7).sample(family, 40)
    for expr in sample:
        assert vi_expr(expr) == vi_tensor_oracle(expr), expr


@pytest.mark.slow
def test_oracle_family_largest_case():
    family = [e for e in oracle_family() if tensor_size(e) <= 1500]
    expr = max(family, key=tensor_size)
    assert vi_expr(expr) == vi_tensor_oracle(expr), expr


# ---------------------------------------------------------------------------
# The closed-form grid: first-zero cut and run-start cut
# ---------------------------------------------------------------------------


def max_gap_reference(gam_a, gam_b, v_count: int) -> list[int]:
    """Every k at every v, in plain Python."""
    b = [int(x) for x in gam_b]
    a = [int(x) for x in gam_a]
    return [max(b[k] - a[k + v] for k in range(len(b))) for v in range(v_count)]


def nu_profile_full_grid(a: FormalSemigroup, b: FormalSemigroup) -> np.ndarray:
    """Every level up to ``genus(a)`` and every ``k``, cut after the first zero."""
    ga, gb = a.genus, b.genus
    gam_a = a.enumerating_prefix(gb + ga + 1)
    gam_b = b.enumerating_prefix(gb + 1)
    raw = np.array(
        [int((gam_b - gam_a[v : v + gb + 1]).max()) for v in range(ga + 1)],
        dtype=np.int64,
    )
    nus = np.maximum(raw + (ga - gb), 0)
    return nus[: int(np.argmax(nus == 0)) + 1]


def increasing_with_runs(steps):
    """A strictly increasing sequence from (jump, run length) pairs."""
    out, x = [], -1
    for jump, length in steps:
        x += jump
        out.extend(range(x, x + length))
        x += length - 1
    return out


runs = st.lists(
    st.tuples(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=12)),
    min_size=1,
    max_size=12,
)


@given(
    runs,
    runs,
    st.integers(min_value=1, max_value=40),
    # GRID_BLOCK_CELLS: one cell, blocks of levels, blocks of run starts
    st.sampled_from([1, 3, 64, 1 << 16]),
    # added to both arrays: cells near the top of int32, across it, or in
    # int64 only
    st.sampled_from([0, 2**31 - 64, 2**40]),
)
@settings(max_examples=150, deadline=None)
def test_max_gap_profile_matches_every_cell(b_runs, a_runs, v_count, cells, offset):
    gam_b = np.array(increasing_with_runs(b_runs), dtype=np.int64) + offset
    head = increasing_with_runs(a_runs)
    need = len(gam_b) + v_count - 1
    gam_a = np.array(head + list(range(head[-1] + 1, head[-1] + 1 + need)), dtype=np.int64)
    gam_a += offset
    with mock.patch.object(_kernels, "GRID_BLOCK_CELLS", cells):
        got = _kernels.max_gap_profile(gam_a, gam_b, v_count)
    assert got.dtype == np.int64
    assert got.tolist() == max_gap_reference(gam_a, gam_b, v_count)


def test_max_gap_profile_long_profile_spans_level_blocks():
    # 1 500 levels in one block, then in fifteen blocks of 100 levels times
    # one run start
    a = FormalSemigroup.from_generators(3, 1000)
    b = FormalSemigroup.from_generators(2, 7)
    v_count = 1500
    gam_a = a.enumerating_prefix(b.genus + v_count)
    gam_b = b.enumerating_prefix(b.genus + 1)
    want = max_gap_reference(gam_a, gam_b, v_count)
    assert _kernels.max_gap_profile(gam_a, gam_b, v_count).tolist() == want
    with mock.patch.object(_kernels, "GRID_BLOCK_CELLS", 100):
        assert _kernels.max_gap_profile(gam_a, gam_b, v_count).tolist() == want
    # a closed-form grid of more levels than a block holds cells
    a, b = FormalSemigroup.from_generators(2, 1001), FormalSemigroup.from_generators(2, 5)
    want = nu_profile_full_grid(a, b).tolist()
    assert len(want) == 250
    with mock.patch.object(_kernels, "GRID_BLOCK_CELLS", 64):
        assert nu_profile(a, b).tolist() == want


def test_max_gap_profile_across_int32():
    # gam_a runs across 2**31.  With gam_b near 0 the cells fall below
    # -2**31 as well, where int32 would wrap.
    a = FormalSemigroup.from_generators(3, 1000)
    b = FormalSemigroup.from_generators(2, 7)
    v_count = 1500
    for a_offset, b_offset in ((2**31 - 1000, 2**31 - 1000), (2**31 - 1000, 0)):
        gam_a = a.enumerating_prefix(b.genus + v_count) + a_offset
        gam_b = b.enumerating_prefix(b.genus + 1) + b_offset
        assert gam_a[0] < 2**31 <= gam_a[-1]
        want = max_gap_reference(gam_a, gam_b, v_count)
        for cells in (_kernels.GRID_BLOCK_CELLS, 100):
            with mock.patch.object(_kernels, "GRID_BLOCK_CELLS", cells):
                got = _kernels.max_gap_profile(gam_a, gam_b, v_count)
            assert got.dtype == np.int64
            assert got.tolist() == want


@pytest.mark.parametrize(
    "bad",
    [
        [0.5, 2.7, 3.0, 5.0],
        np.array([0.0, 2.0, 3.0, 5.0]),
        np.array([False, True, True, True]),
        np.array([0, 2, 3, 2**70], dtype=object),
        np.array([0, 2, 3, 5], dtype=np.uint64),
        [0, True, 3, 5],
        np.array([[0, 2], [3, 5]]),
    ],
)
def test_max_gap_profile_refuses_non_integer_input(bad):
    """A cast to int64 would truncate floats, wrap uint64 and read a bool
    in a list as 1; a 2-D array is not a member list."""
    good = np.array([0, 2, 3, 5], dtype=np.int64)
    with pytest.raises(ValueError, match="gam_a must hold integers"):
        _kernels.max_gap_profile(bad, good[:2], 2)
    with pytest.raises(ValueError, match="gam_b must hold integers"):
        _kernels.max_gap_profile(good, bad, 1)


def test_max_gap_profile_takes_any_safe_integer_dtype():
    gam_a, gam_b = [0, 2, 3, 5, 6], [0, 2, 3]
    want = max_gap_reference(gam_a, gam_b, 3)
    for dtype in (np.int8, np.int32, np.uint8, np.uint32, np.int64):
        got = _kernels.max_gap_profile(np.array(gam_a, dtype), np.array(gam_b, dtype), 3)
        assert got.dtype == np.int64
        assert got.tolist() == want
    assert _kernels.max_gap_profile(gam_a, gam_b, 3).tolist() == want


def test_max_gap_profile_rejects_non_increasing_gam_a():
    gam_b = np.array([0, 2, 3], dtype=np.int64)
    with pytest.raises(ValueError, match="strictly increasing"):
        _kernels.max_gap_profile(np.array([0, 2, 2, 5], dtype=np.int64), gam_b, 2)
    with pytest.raises(ValueError, match="strictly increasing"):
        _kernels.max_gap_profile(np.array([0, 3, 1, 5], dtype=np.int64), gam_b, 2)


@given(
    st.one_of(st.just(UNKNOT_SEMIGROUP), semigroups),
    st.one_of(st.just(UNKNOT_SEMIGROUP), semigroups),
)
@settings(max_examples=80, deadline=None)
def test_nu_profile_matches_full_grid(a, b):
    for top, bottom in ((a, b), (b, a)):
        assert nu_profile(top, bottom).tolist() == nu_profile_full_grid(top, bottom).tolist()


@pytest.mark.parametrize(
    "pos, neg",
    [((41, 5001), (9, 250)), ((5, 26), (2, 11)), ((5, 1301), (2, 521)), ((2, 3), None)],
)
def test_nu_profile_matches_full_grid_on_large_pairs(pos, neg):
    a = FormalSemigroup.from_generators(*pos)
    b = FormalSemigroup.from_generators(*neg) if neg else UNKNOT_SEMIGROUP
    for top, bottom in ((a, b), (b, a)):
        assert nu_profile(top, bottom).tolist() == nu_profile_full_grid(top, bottom).tolist()


# ---------------------------------------------------------------------------
# The closed form by monotone row maxima
# ---------------------------------------------------------------------------


def row_maxima_profile(a: FormalSemigroup, b: FormalSemigroup) -> tuple[int, ...]:
    """The torsion profile of ``A # -B`` from ``profile_by_row_maxima``
    alone, whatever the size of the grid."""
    ga, gb = a.genus, b.genus
    gam_b = b.enumerating_prefix(gb + 1)
    nu_0 = max(0, ga - gb + int((gam_b - a.enumerating_prefix(gb + 1)).max()))
    values = _kernels.profile_by_row_maxima(a.members, gam_b, ga - gb, nu_0 + 1)
    assert values.dtype == np.int64
    return tuple(values.tolist())


def grid_profile(a: FormalSemigroup, b: FormalSemigroup) -> tuple[int, ...]:
    return _invert_profile(nu_profile(a, b))


def marks(s: FormalSemigroup) -> np.ndarray:
    """Whether each integer below the conductor of ``s`` is a member."""
    member = np.zeros(s.conductor, dtype=bool)
    member[s.members] = True
    return member


def grid_cells(a: FormalSemigroup, b: FormalSemigroup) -> int:
    """Run starts of ``Gamma_B`` times the levels ``0 .. V_0`` of the grid."""
    gam_b = b.enumerating_prefix(b.genus + 1)
    runs = 1 + int(np.count_nonzero(gam_b[1:] != gam_b[:-1] + 1))
    return runs * len(nu_profile(a, b))


def _kernel_calls(monkeypatch) -> list[int]:
    calls = []
    kernel = _kernels.profile_by_row_maxima

    def counted(*args):
        calls.append(args[3])
        return kernel(*args)

    monkeypatch.setattr(_kernels, "profile_by_row_maxima", counted)
    return calls


two_generator = st.one_of(
    st.just(UNKNOT_SEMIGROUP),
    semigroups,
    # T(p, pn + 1), the class of n copies of T(p, p + 1)
    st.tuples(st.integers(min_value=2, max_value=9), st.integers(min_value=1, max_value=12)).map(
        lambda pn: FormalSemigroup.from_generators(pn[0], pn[0] * pn[1] + 1)
    ),
    st.tuples(st.integers(min_value=2, max_value=12), st.integers(min_value=13, max_value=90))
    .filter(lambda pq: gcd(*pq) == 1)
    .map(lambda pq: FormalSemigroup.from_generators(*pq)),
)


def first_zero_full(a: FormalSemigroup, b: FormalSemigroup) -> int:
    """``V_0`` of ``A # -B`` over every ``k = 0 .. g_B``: the largest
    ``I_A(Gamma_B(k) + g_A - g_B) - k``, at least 0."""
    ga, gb = a.genus, b.genus
    return max(0, *(a.count_below(b.enumerating(k) + ga - gb) - k for k in range(gb + 1)))


sides = st.one_of(
    two_generator,
    st.lists(two_generator, min_size=2, max_size=3).map(_infimal_fold),
)


@given(sides, sides)
@example(S23, UNKNOT_SEMIGROUP)  # a window of one k, ending where it starts
@example(UNKNOT_SEMIGROUP, UNKNOT_SEMIGROUP)
@settings(max_examples=300, deadline=None)
def test_first_zero_reads_only_its_window(a, b):
    """``V_0`` from the window ``0 < Gamma_B(k) + g_A - g_B < 2 g_A`` is
    ``V_0`` from every ``k``, in both orientations, on two-generator,
    unknot and folded sides."""
    for top, bottom in ((a, b), (b, a)):
        assert _first_zero(top, bottom) == first_zero_full(top, bottom)


def test_trivial_direction_reads_no_member_of_the_other_side(monkeypatch):
    """``V_0 = 0`` is found, and the profile ``(0,)`` returned, without
    building ``Gamma_B``."""
    big = FormalSemigroup.from_generators(41, 5001)

    def refuse(self, count):
        raise AssertionError("Gamma_B was built")

    monkeypatch.setattr(FormalSemigroup, "enumerating_prefix", refuse)
    assert _first_zero(UNKNOT_SEMIGROUP, big) == 0
    assert vi_from_nuplus(UNKNOT_SEMIGROUP, big) == (0,)


@given(two_generator, two_generator, st.sampled_from([3, 64, _kernels.ROUND_CELLS]))
@example(S526, S211, 3)
@example(FormalSemigroup.from_generators(2, 15), UNKNOT_SEMIGROUP, 3)
@settings(max_examples=200, deadline=None)
def test_row_maxima_match_the_grid(a, b, cells):
    """In both orientations, with rounds of a few cells (a row wider than a
    round, several rows per round) and of the default size."""
    with mock.patch.object(_kernels, "ROUND_CELLS", cells):
        for top, bottom in ((a, b), (b, a)):
            assert row_maxima_profile(top, bottom) == grid_profile(top, bottom)


@pytest.mark.parametrize(
    "pos, neg", [((41, 4978), (9, 251)), ((6, 24169), (3, 1516)), ((31, 2016), (12, 545))]
)
def test_row_maxima_match_the_grid_on_large_pairs(monkeypatch, pos, neg):
    a = FormalSemigroup.from_generators(*pos)
    b = FormalSemigroup.from_generators(*neg)
    calls = _kernel_calls(monkeypatch)
    for top, bottom in ((a, b), (b, a)):
        want = grid_profile(top, bottom)
        assert vi_from_nuplus(top, bottom) == want
        assert row_maxima_profile(top, bottom) == want
    assert grid_cells(a, b) > _kernels.GRID_BLOCK_CELLS
    assert calls[0] == len(vi_from_nuplus(a, b))  # the kernel ran, one row per m


def test_row_maxima_take_the_conductor_period_off_a_semigroup():
    """The profile of ``T(3,4) + T(5,6)`` gives a formal semigroup with
    ``A + 5`` not inside A, so the kernel takes the conductor as its
    period.  That of ``T(2,3) + T(5,6)`` is not closed under addition
    either (7 + 7 is a gap), but ``A + 5`` lies inside it, so it keeps its
    multiplicity.  On both the kernel is the grid."""
    broken = FormalSemigroup.from_vi(vi_expr(parse("T(3,4) + T(5,6)")))
    assert 10 in broken.elements and 15 not in broken.elements
    assert _kernels._shift_period(marks(broken)) == broken.conductor == 26
    shifted = FormalSemigroup.from_vi(vi_expr(parse("T(2,3) + T(5,6)")))
    assert not is_closed_under_addition(shifted)
    assert _kernels._shift_period(marks(shifted)) == 5
    others = [UNKNOT_SEMIGROUP, S23, S211, S526, FormalSemigroup.from_generators(3, 7)]
    for reduced in (broken, shifted):
        for other in others:
            for top, bottom in ((reduced, other), (other, reduced)):
                assert row_maxima_profile(top, bottom) == grid_profile(top, bottom)


def test_shift_period_is_the_multiplicity_of_a_semigroup():
    assert _kernels._shift_period(marks(UNKNOT_SEMIGROUP)) == 1
    assert _kernels._shift_period(marks(S23)) == 2  # the multiplicity and the conductor
    for p, q in ((2, 11), (5, 26), (41, 4978), (3, 1516)):
        assert _kernels._shift_period(marks(FormalSemigroup.from_generators(p, q))) == p


def test_row_maxima_profile_shares_one_int_per_level(monkeypatch):
    a = FormalSemigroup.from_generators(41, 4978)
    b = FormalSemigroup.from_generators(9, 251)
    calls = _kernel_calls(monkeypatch)
    profile = vi_from_nuplus(a, b)
    assert calls == [len(profile)]
    assert profile[0] > 256  # above the small ints that Python caches anyway
    assert all(type(v) is int for v in profile)
    assert len({id(v) for v in profile}) == profile[0] + 1  # one int object per level


@pytest.mark.parametrize(
    "pos, neg, cells, rows_run",
    [
        ((5, 638), (5, 212), 65535, False),
        ((5, 629), (9, 115), 65536, False),
        ((5, 642), (9, 254), 65540, True),
        # past one block, with 4 953 run starts and 20 residue classes:
        # 25 or 40 levels are no more than the first round's 2 * 20 rows
        ((20, 1057), (21, 1000), 4953 * 25, False),
        ((20, 1063), (21, 1000), 4953 * 40, False),
        ((20, 1067), (21, 1000), 4953 * 51, True),
    ],
)
def test_inputs_either_side_of_the_crossover_agree(monkeypatch, pos, neg, cells, rows_run):
    """Grids of up to ``GRID_BLOCK_CELLS`` cells, or of no more cells than
    the first round of row maxima, run as the grid, other ones as row
    maxima, and the two agree on either side."""
    a = FormalSemigroup.from_generators(*pos)
    b = FormalSemigroup.from_generators(*neg)
    assert grid_cells(a, b) == cells
    calls = _kernel_calls(monkeypatch)
    want = grid_profile(a, b)
    assert vi_from_nuplus(a, b) == row_maxima_profile(a, b) == want
    assert len(calls) == 1 + rows_run  # row_maxima_profile, and vi_from_nuplus if it ran them


def test_row_maxima_refuse_malformed_input():
    gam_b = S211.enumerating_prefix(S211.genus + 1)
    members = S526.members
    for bad in ([1, 2, 3], [0, 2, 2, 5], [0, 3, 1, 5], [0, 8]):
        with pytest.raises(ValueError, match="members_a"):
            _kernels.profile_by_row_maxima(np.array(bad), gam_b, 3, 4)
    for bad in ([], [-1, 0, 2], [0, 2, 2]):
        with pytest.raises(ValueError, match="gam_b"):
            _kernels.profile_by_row_maxima(members, np.array(bad, dtype=np.int64), 3, 4)
    with pytest.raises(ValueError, match="must hold integers"):
        _kernels.profile_by_row_maxima(members.astype(float), gam_b, 3, 4)
    assert _kernels.profile_by_row_maxima(members, gam_b, 3, 0).tolist() == []
