#!/usr/bin/env python3
"""Regenerate ``family_catalog.json``, the population ``family-sweep`` samples.

The population is every expression over six small torus knots, with
coefficients in -2..2, whose oracle complex has at most ``GENERATOR_CAP``
generators.  Each row is ``[expression, oracle generators, profile
levels, reference op time in ms]``.  The reference time is the fastest of
``REPEATS`` timed ops, one per pass over the population, on the machine
that made the catalog.  It is used
only to order the population into cost strata, so that every seed draws
the same mix of cheap and expensive ops.  Regenerating the catalog
changes the benchmark's inputs.

Run from the repository root (a few minutes):

    PYTHONPATH=src python3 perfbench/make_family_catalog.py
"""

from __future__ import annotations

import itertools
import json
import os
import time

from gamma4.expressions import KnotExpression, parse, render
from gamma4.nuplus import vi_expr, vi_tensor_oracle
from gamma4.torus import alexander

KNOTS = ("T(2,3)", "T(2,5)", "T(2,7)", "T(3,4)", "T(3,5)", "T(5,6)")
COEFFICIENTS = range(-2, 3)
GENERATOR_CAP = 405
REPEATS = 5
CATALOG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "family_catalog.json")


def oracle_generators(expr: KnotExpression) -> int:
    """Generators of the oracle's complex: one staircase per copy."""
    count = 1
    for knot, coeff in expr.terms:
        count *= len(alexander(knot.p, knot.q)) ** abs(coeff)
    return count


def op_seconds(expr: KnotExpression) -> float:
    """Seconds of one family-sweep op on this machine."""
    start = time.perf_counter()
    vi_expr(expr)
    vi_tensor_oracle(expr)
    return time.perf_counter() - start


def main() -> None:
    knots = [parse(text).terms[0][0] for text in KNOTS]
    population = {}
    for coeffs in itertools.product(COEFFICIENTS, repeat=len(knots)):
        expr = KnotExpression.from_terms(zip(knots, coeffs))
        generators = oracle_generators(expr)
        if generators <= GENERATOR_CAP:
            population[render(expr)] = (expr, generators)
    texts = sorted(population, key=lambda t: (population[t][1], t))
    # Whole passes over the population, so that each expression's repeats
    # are spread over minutes and its fastest one is undisturbed by load.
    best = {text: float("inf") for text in texts}
    for _ in range(REPEATS):
        for text in texts:
            best[text] = min(best[text], op_seconds(population[text][0]))
    rows = [
        [text, population[text][1], len(vi_tensor_oracle(population[text][0])),
         round(1e3 * best[text], 2)]
        for text in texts
    ]
    with open(CATALOG, "w", encoding="utf-8") as handle:
        handle.write("[\n")
        handle.write(",\n".join(json.dumps(row) for row in rows))
        handle.write("\n]\n")


if __name__ == "__main__":
    main()
