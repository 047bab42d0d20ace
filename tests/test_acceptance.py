"""Acceptance gate: one test per acceptance criterion, with runtime pins.

Every test runs a named subset of the reproduction suite and prints a
single pass/fail line (visible with ``pytest -s``); the test fails if any
check inside the subset fails, or if a pinned criterion overruns its
runtime budget.  All comparisons are exact; there are no tolerances.
"""

from __future__ import annotations

import time

from gamma4 import verify
from gamma4.bounds import report
from gamma4.cfk import trefoil_staircase, vi_sequence
from gamma4.expressions import parse

# Run the closed-form and complex paths once, so the timed criteria
# measure the computation rather than one-off imports and set-up.
report(parse("T(2,3) - T(2,5)"))
vi_sequence(trefoil_staircase())


def _conclude(
    number: int, label: str, subset: str, pin: float | None = None
) -> None:
    start = time.perf_counter()
    outcome = verify.run(subset)
    elapsed = time.perf_counter() - start
    ok = outcome.overall and (pin is None or elapsed < pin)
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s) - {label}"
    print(line)
    failures = [check for check in outcome.checks if not check.passed]
    detail = "; ".join(
        f"{check.id}: expected {check.expected}, computed {check.computed}"
        for check in failures[:3]
    )
    assert outcome.overall, f"{line}; {detail}"
    if pin is not None:
        assert elapsed < pin, f"{line}; runtime pin {pin:.0f}s exceeded"


def test_criterion_1_headline_values():
    _conclude(
        1,
        "t = 6 and mirrored t = 0 for T(2,3) - T(5,6); main bound 1; "
        "upsilon bound 2",
        "example-headline",
        pin=1.0,
    )


def test_criterion_2_t_of_multiples():
    _conclude(
        2,
        "t(5l K) = 26l + 1 for l <= 50 via the closed form, and "
        "t(nK)/n > 26/5 for n <= 50",
        "example-section",
        pin=30.0,
    )


def test_criterion_3_minimal_index_grid():
    _conclude(
        3,
        "minimal-index grid for <5,25l+1> against <2,10l+1>, l <= 25",
        "index-grid",
    )


def test_criterion_4_sharpness_chain():
    _conclude(
        4,
        "sharp bounds on T(3,-5) and its multiples, exact Alexander "
        "coefficients, and the T(3,-4) anchor",
        "sharpness",
    )


def test_criterion_5_staircase_power_splitting():
    _conclude(
        5,
        "trefoil tensor powers split as staircase plus acyclic, n <= 6",
        "staircase2n",
        pin=60.0,
    )


def test_criterion_6_oracle_equivalences():
    _conclude(
        6,
        "five independent-path equalities: sieve, Alexander profiles, "
        "family sweep, round-trips, power representatives",
        "oracles",
    )


def test_criterion_7_t_invariant_axioms():
    _conclude(
        7,
        "non-negativity, both upper bounds, vanishing criterion, "
        "subadditivity, and the trefoil neighbor bound",
        "t-properties",
    )


def test_criterion_8_surgery_formula():
    _conclude(
        8,
        "lens-space values, conjugation symmetry, and the -1-surgery "
        "anchor",
        "surgery",
    )


def test_criterion_9_superadditivity_showcase():
    _conclude(
        9,
        "stable bound 41/23 at horizon 50 lifts the final bound to 2, "
        "beating the main bound 1",
        "superadditivity",
    )
