"""Reproduction suite: recompute every frozen reference value and cross-check oracles.

Each subset returns a list of named checks with expected and computed values
rendered side by side; a check covering a whole grid reports how many grid
points matched and pinpoints the first mismatch.  The CLI ``verify`` command
renders these reports, and the acceptance tests assert on them directly.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import xor

from .bounds import omega_table, report, upsilon_bound
from .cfk import (
    BifilteredComplex,
    homology_over_polynomial_ring,
    staircase,
    staircase_from_semigroup,
    tensor,
    trefoil_staircase,
    vi_sequence,
)
from .expressions import KnotExpression, add, mirror, multiply, parse
from .nuplus import (
    hom_wu_nu_plus,
    nu_profile,
    route,
    t_invariant,
    tensor_fold,
    vi_expr,
    vi_tensor_oracle,
)
from .semigroups import FormalSemigroup, enumerating_bruteforce
from .surgery import d_invariant, d_invariant_negative
from .torus import alexander, vi_lspace

HEADLINE = parse("T(2,3) - T(5,6)")

SAMPLE_FAMILY = tuple(
    parse(s)
    for s in [
        "",
        "T(2,3)",
        "T(2,-3)",
        "T(3,5) - T(2,5)",
        "2*T(2,3) - T(3,4)",
        "T(3,4) - T(2,3) - T(2,5)",
        "T(2,3) + T(3,4) - T(2,5)",
        "T(2,3) - T(5,6)",
    ]
)

FAMILY_KNOTS = tuple(
    parse(s).terms[0][0]
    for s in ["T(2,3)", "T(2,5)", "T(3,4)", "T(3,5)", "T(5,6)"]
)


@dataclass(frozen=True)
class VerifyCheck:
    """One named comparison between an expected and a computed value."""

    id: str
    description: str
    expected: str
    computed: str
    passed: bool


@dataclass(frozen=True)
class VerifyReport:
    """All checks that ran, with the aggregate outcome."""

    checks: tuple[VerifyCheck, ...]

    @property
    def overall(self) -> bool:
        return all(check.passed for check in self.checks)


def _expect(check_id: str, description: str, expected, computed) -> VerifyCheck:
    return VerifyCheck(
        id=check_id,
        description=description,
        expected=str(expected),
        computed=str(computed),
        passed=expected == computed,
    )


def _tally(
    check_id: str, description: str, total: int, mismatches: list[str]
) -> VerifyCheck:
    if mismatches:
        computed = (
            f"{total - len(mismatches)}/{total} agree; "
            f"first mismatch: {mismatches[0]}"
        )
    else:
        computed = f"{total}/{total} agree"
    return VerifyCheck(
        id=check_id,
        description=description,
        expected=f"{total}/{total} agree",
        computed=computed,
        passed=not mismatches,
    )


# ---------------------------------------------------------------------------
# Subsets
# ---------------------------------------------------------------------------


def check_example_headline() -> list[VerifyCheck]:
    """Headline worked example: t, the mirrored t, and the two genus bounds."""
    return [
        _expect("headline/t", "t of T(2,3) - T(5,6)", 6, t_invariant(HEADLINE)),
        _expect(
            "headline/t-mirror",
            "t of the mirror T(5,6) - T(2,3)",
            0,
            t_invariant(mirror(HEADLINE)),
        ),
        _expect("headline/main", "main bound", 1, report(HEADLINE).main),
        _expect("headline/upsilon", "upsilon bound", 2, upsilon_bound(HEADLINE)),
    ]


def check_example_section() -> list[VerifyCheck]:
    """t of the multiples 5l K for l <= 50, and all fifty ratios t(nK)/n."""
    mismatches: list[str] = []
    for level in range(1, 51):
        expr = multiply(HEADLINE, 5 * level)
        plan = route(expr)
        if plan.kind != "closed-form":
            mismatches.append(f"l={level}: routed {plan.kind}")
            continue
        value = t_invariant(expr)
        if value != 26 * level + 1:
            mismatches.append(f"l={level}: t={value} != {26 * level + 1}")
    checks = [
        _tally(
            "example-section/t-multiples",
            "t(5l K) = 26l + 1 for l = 1..50, closed-form route",
            50,
            mismatches,
        )
    ]
    above: list[str] = []
    limit = Fraction(26, 5)
    for n, _, ratio, _ in omega_table(HEADLINE, 50)[0]:
        if not ratio > limit:
            above.append(f"n={n}: t(nK)/n = {ratio} not above {limit}")
    checks.append(
        _tally(
            "example-section/ratios",
            "t(nK)/n stays strictly above 26/5 for n = 1..50",
            50,
            above,
        )
    )
    return checks


def check_index_grid() -> list[VerifyCheck]:
    """The minimal-index grid for A = <5,25l+1>, B = <2,10l+1>, l = 1..25."""
    at_13l: list[str] = []
    linear: list[str] = []
    lower: list[str] = []
    v_zero: list[str] = []
    for level in range(1, 26):
        a = FormalSemigroup.from_generators(5, 25 * level + 1)
        b = FormalSemigroup.from_generators(2, 10 * level + 1)
        profile = nu_profile(a, b)
        if profile[13 * level] != 1:
            at_13l.append(f"l={level}: {profile[13 * level]} != 1")
        bad_v = [
            v
            for v in range(0, 5 * level)
            if profile[v] != 45 * level - 5 * v
        ]
        if bad_v:
            linear.append(f"l={level}: first bad v={bad_v[0]}")
        bad_s = [
            s
            for s in range(1, 8 * level + 1)
            if profile[13 * level - s] < 2 * s + 1
        ]
        if bad_s:
            lower.append(f"l={level}: first bad s={bad_s[0]}")
        if len(profile) - 1 != 13 * level + 1:
            v_zero.append(f"l={level}: V_0={len(profile) - 1}")
    return [
        _tally(
            "index-grid/at-13l",
            "minimal index at level 13l equals 1",
            25,
            at_13l,
        ),
        _tally(
            "index-grid/linear-range",
            "minimal index is 45l - 5v for v < 5l",
            25,
            linear,
        ),
        _tally(
            "index-grid/lower-range",
            "minimal index at 13l - s is at least 2s + 1 for s <= 8l",
            25,
            lower,
        ),
        _tally(
            "index-grid/first-zero",
            "torsion V_0 equals 13l + 1",
            25,
            v_zero,
        ),
    ]


def check_sharpness() -> list[VerifyCheck]:
    """The equality chain on T(3,-5) multiples and the T(3,-4) anchor."""
    rep = report(parse("T(3,-5)"))
    alex_expected = {4: 1, 3: -1, 1: 1, 0: -1, -1: 1, -3: -1, -4: 1}
    multiples: list[str] = []
    for m in range(1, 9):
        value = report(multiply(parse("T(3,-5)"), m)).main
        if value != m:
            multiples.append(f"m={m}: main={value} != {m}")
    return [
        _expect("sharpness/main-3-5", "main bound of T(3,-5)", 1, rep.main),
        _expect(
            "sharpness/table-peak",
            "per-index table of T(3,-5) peaks at index 1",
            1,
            max(range(len(rep.table)), key=rep.table.__getitem__),
        ),
        _expect(
            "sharpness/alexander-3-5",
            "Alexander coefficients of T(3,5)",
            alex_expected,
            alexander(3, 5),
        ),
        _expect(
            "sharpness/v1-3-5",
            "torsion V_1 of T(3,5)",
            1,
            vi_expr(parse("T(3,5)"))[1],
        ),
        _tally(
            "sharpness/multiples",
            "main bound of m T(3,-5) equals m for m = 1..8",
            8,
            multiples,
        ),
        _expect(
            "sharpness/batson-3-4",
            "correction-term bound of T(3,-4)",
            1,
            report(parse("T(3,-4)")).batson,
        ),
    ]


def _f2_inverse(columns: list[int], size: int) -> list[int] | None:
    """Inverse of an F_2 matrix given as column bitmasks; None if singular.

    Returns the inverse as row bitmasks: row r of the inverse has bit c set
    iff (T^{-1})[r][c] = 1.
    """
    # Work on rows of T: row r bitmask over columns c.
    rows = [0] * size
    for c, col in enumerate(columns):
        for r in range(size):
            if (col >> r) & 1:
                rows[r] |= 1 << c
    aug = [rows[r] | (1 << (size + r)) for r in range(size)]
    for col in range(size):
        pivot = next(
            (r for r in range(col, size) if (aug[r] >> col) & 1),
            None,
        )
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(size):
            if r != col and (aug[r] >> col) & 1:
                aug[r] ^= aug[col]
    return [row >> size for row in aug]


def _staircase_step(k: int) -> list[tuple[str, bool]]:
    """The named checks that step ``k -> k+1`` of the trefoil power splits.

    Tensors the (2k+1)-generator two-strand staircase with the trefoil
    staircase and verifies, by explicit linear algebra over the polynomial
    ring:

    * the declared (2k+3)-dimensional subspace and the k rank-4 blocks are
      each closed under the differential;
    * together they form a basis (direct-sum decomposition);
    * every rank-4 block is acyclic;
    * the distinguished subspace is isomorphic, gradings and differential
      included, to the two-strand staircase with 2k+3 generators.

    Seven checks in all; the list stops early when the vectors are not a
    basis of homogeneous elements.
    """
    tag = f"step {k}->{k + 1}"
    full = tensor(staircase(range(k, -k - 1, -1)), trefoil_staircase())
    size = len(full)

    def gen(i: int, letter: str) -> int:
        """The bit of ``y_i`` tensor the trefoil generator ``a``, ``b`` or ``c``."""
        return 1 << (3 * (i - 1) + "abc".index(letter))

    # v1, v2, v3 .. v_{2k+3} span the bigger staircase; four vectors span
    # each rank-4 block.
    vectors = [gen(1, "a"), gen(1, "b")] + [gen(i, "c") for i in range(1, 2 * k + 2)]
    for i in range(1, k + 1):
        vectors += [
            gen(2 * i, "b"),
            gen(2 * i - 1, "b") | gen(2 * i, "a"),
            gen(2 * i + 1, "b") | gen(2 * i, "c"),
            gen(2 * i - 1, "c") | gen(2 * i + 1, "a"),
        ]
    blocks = [range(2 * k + 3 + 4 * i, 2 * k + 7 + 4 * i) for i in range(k)]
    v_slice = range(2 * k + 3)

    inverse = _f2_inverse(vectors, size)
    checks = [
        (f"{tag}: vector count", len(vectors) == size),
        (f"{tag}: direct sum (basis change invertible)", inverse is not None),
    ]
    if inverse is None or len(vectors) != size:
        return checks

    # Each vector is homogeneous iff its generators share one grading pair.
    pairs = list(zip(full.maslov.tolist(), full.alexander.tolist()))
    gradings = [{pairs[g] for g in range(size) if (mask >> g) & 1} for mask in vectors]
    homogeneous = all(len(grading) == 1 for grading in gradings)
    checks.append((f"{tag}: combinations homogeneous", homogeneous))
    if not homogeneous:
        return checks
    maslov, alexander = zip(*(grading.pop() for grading in gradings))

    # coords[i][j]: the coefficient of vector j in the boundary of vector i,
    # a U-polynomial encoded as an exponent bitmask.
    arrows = list(zip(full.src.tolist(), full.exponent.tolist(), full.tgt.tolist()))
    coords = []
    for mask in vectors:
        image = [0] * size
        for src, e, tgt in arrows:
            if (mask >> src) & 1:
                image[tgt] ^= 1 << e
        coords.append(
            [reduce(xor, (image[g] for g in range(size) if (row >> g) & 1), 0) for row in inverse]
        )

    def closed(indices: range) -> bool:
        return all(coords[i][j] == 0 for i in indices for j in range(size) if j not in indices)

    def block_complex(indices: range) -> BifilteredComplex | None:
        """The complex the vectors at ``indices`` span; None if some
        boundary coefficient is not a monomial."""
        src, tgt, exponent = [], [], []
        for a, i in enumerate(indices):
            for b, j in enumerate(indices):
                poly = coords[i][j]
                if poly & (poly - 1):
                    return None  # cannot happen for graded maps
                if poly:
                    src.append(a)
                    tgt.append(b)
                    exponent.append(poly.bit_length() - 1)
        return BifilteredComplex(
            tuple(map(str, indices)),
            [maslov[i] for i in indices],
            [alexander[i] for i in indices],
            src,
            tgt,
            exponent,
        )

    def acyclic(indices: range) -> bool:
        built = block_complex(indices)
        return built is not None and homology_over_polynomial_ring(built).is_zero

    reduced = block_complex(v_slice)
    target = staircase(range(k + 1, -k - 2, -1))
    return checks + [
        (f"{tag}: distinguished subspace closed", closed(v_slice)),
        (f"{tag}: rank-4 blocks closed", all(closed(block) for block in blocks)),
        (f"{tag}: rank-4 blocks acyclic", all(acyclic(block) for block in blocks)),
        (
            f"{tag}: reduced subspace matches bigger staircase",
            reduced is not None and reduced == dataclasses.replace(target, ids=reduced.ids),
        ),
    ]


def check_staircase2n() -> list[VerifyCheck]:
    """Inductive splitting of trefoil tensor powers, n = 1..6.

    The tally for ``n`` covers steps ``1 .. n-1``; each step runs once.
    """
    steps = [_staircase_step(k) for k in range(1, 6)]
    checks = []
    for n in range(1, 7):
        done = [check for step in steps[: n - 1] for check in step]
        failed = [name for name, ok in done if not ok]
        checks.append(
            VerifyCheck(
                id=f"staircase2n/n={n}",
                description=(
                    "subcomplex, direct sum, acyclicity and isomorphism "
                    f"checks for the {n}-fold trefoil power"
                ),
                expected=f"{len(done)} checks pass",
                computed=(
                    f"{len(done) - len(failed)}/{len(done)} pass"
                    + (f"; first failure: {failed[0]}" if failed else "")
                ),
                passed=not failed,
            )
        )
    return checks


def _coprime_pairs_up_to(product_limit: int) -> list[tuple[int, int]]:
    pairs = []
    a = 2
    while a * (a + 1) <= product_limit:
        for b in range(a + 1, product_limit // a + 1):
            if gcd(a, b) == 1:
                pairs.append((a, b))
        a += 1
    return pairs


def check_oracles() -> list[VerifyCheck]:
    """Independent-path equalities: every shortcut against its slow twin."""
    checks = []

    rng = random.Random(411)
    sieve_mismatch: list[str] = []
    for _ in range(200):
        while True:
            a = rng.randint(2, 50)
            b = rng.randint(3, 100)
            if a != b and gcd(a, b) == 1:
                break
        sg = FormalSemigroup.from_generators(a, b)
        spots = (0, 1, 2, sg.genus, sg.genus + 1, rng.randint(3, 9999), 10000)
        for k in spots:
            if sg.enumerating(k) != enumerating_bruteforce(a, b, k):
                sieve_mismatch.append(f"<{a},{b}> at k={k}")
                break
    checks.append(
        _tally(
            "oracles/enumerating-sieve",
            "piecewise enumerating function vs brute-force sieve, "
            "200 random pairs, k up to 10^4",
            200,
            sieve_mismatch,
        )
    )

    lspace_pairs = [
        (p, q)
        for p in range(2, 9)
        for q in range(p + 1, 62)
        if gcd(p, q) == 1 and (p - 1) * (q - 1) <= 60
    ]
    lspace_mismatch: list[str] = []
    for p, q in lspace_pairs:
        sg = FormalSemigroup.from_generators(p, q)
        if vi_lspace(p, q) != vi_sequence(staircase_from_semigroup(sg)):
            lspace_mismatch.append(f"T({p},{q})")
    checks.append(
        _tally(
            "oracles/lspace-profiles",
            "torsion profiles from the Alexander polynomial vs the "
            "staircase complex, every torus knot of genus <= 30",
            len(lspace_pairs),
            lspace_mismatch,
        )
    )

    profile_pairs = [
        (p, q) for p in range(2, 12) for q in range(p + 1, 60) if gcd(p, q) == 1
    ]
    profile_mismatch = [
        f"T({p},{q})"
        for p, q in profile_pairs
        if FormalSemigroup.from_generators(p, q).vi != vi_lspace(p, q)
    ]
    checks.append(
        _tally(
            "oracles/semigroup-profiles",
            "torsion profiles from semigroup gap counts (the production "
            "upsilon path) vs the Alexander polynomial, 2 <= p < 12, p < q < 60",
            len(profile_pairs),
            profile_mismatch,
        )
    )

    family = _genus_limited_family(14)
    family_mismatch: list[str] = []
    for expr in family:
        if vi_expr(expr) != vi_tensor_oracle(expr):
            family_mismatch.append(str(expr))
    checks.append(
        _tally(
            "oracles/family-sweep",
            "routed torsion profiles vs the raw tensor complex on the "
            "five-knot family of total genus <= 14",
            len(family),
            family_mismatch,
        )
    )

    pairs = _coprime_pairs_up_to(2000)
    roundtrip_mismatch: list[str] = []
    for a, b in pairs:
        sg = FormalSemigroup.from_generators(a, b)
        if FormalSemigroup.from_vi(sg.vi) != sg:
            roundtrip_mismatch.append(f"<{a},{b}>")
    checks.append(
        _tally(
            "oracles/semigroup-roundtrip",
            "profile-to-semigroup round-trips on all two-generator "
            "semigroups with product <= 2000",
            len(pairs),
            roundtrip_mismatch,
        )
    )

    power_mismatch: list[str] = []
    power_grid = [(p, n) for p in (2, 3, 5) for n in range(1, 5)]
    for p, n in power_grid:
        base = staircase_from_semigroup(FormalSemigroup.from_generators(p, p + 1))
        if vi_sequence(tensor_fold([base] * n)) != vi_lspace(p, p * n + 1):
            power_mismatch.append(f"p={p}, n={n}")
    checks.append(
        _tally(
            "oracles/power-representative",
            "n-fold adjacent-parameter powers vs their single-knot "
            "representatives, p in {2,3,5}, n <= 4",
            len(power_grid),
            power_mismatch,
        )
    )

    return checks


def _genus_limited_family(genus_limit: int) -> list[KnotExpression]:
    out = []
    span = range(-2, 3)
    for c0 in span:
        for c1 in span:
            for c2 in span:
                for c3 in span:
                    for c4 in span:
                        expr = KnotExpression.from_terms(
                            zip(FAMILY_KNOTS, (c0, c1, c2, c3, c4))
                        )
                        if expr.total_genus <= genus_limit:
                            out.append(expr)
    return sorted(set(out), key=str)


def check_t_properties() -> list[VerifyCheck]:
    """The packaged invariant's axioms on the sample family."""
    bounds_bad: list[str] = []
    zero_bad: list[str] = []
    for expr in SAMPLE_FAMILY:
        t = t_invariant(expr)
        back = vi_expr(mirror(expr))
        if not 0 <= t <= min(hom_wu_nu_plus(mirror(expr)), 2 * back[0]):
            bounds_bad.append(str(expr))
        if (t == 0) != (back[0] == 0):
            zero_bad.append(str(expr))
    sub_bad: list[str] = []
    for e1 in SAMPLE_FAMILY:
        for e2 in SAMPLE_FAMILY:
            if t_invariant(add(e1, e2)) > t_invariant(e1) + t_invariant(e2):
                sub_bad.append(f"{e1} | {e2}")
    neighbor_bad: list[str] = []
    trefoil = parse("T(2,3)")
    for expr in SAMPLE_FAMILY:
        if abs(t_invariant(add(expr, trefoil)) - t_invariant(expr)) > 1:
            neighbor_bad.append(str(expr))
    n = len(SAMPLE_FAMILY)
    return [
        _tally(
            "t-properties/bounds",
            "0 <= t <= min(first vanishing index, 2 V_0) of the mirror",
            n,
            bounds_bad,
        ),
        _tally(
            "t-properties/zero-iff",
            "t vanishes exactly when the mirror torsion V_0 does",
            n,
            zero_bad,
        ),
        _tally(
            "t-properties/subadditive",
            "t of a sum never exceeds the sum of t values",
            n * n,
            sub_bad,
        ),
        _tally(
            "t-properties/trefoil-neighbor",
            "adding a trefoil moves t by at most one",
            n,
            neighbor_bad,
        ),
    ]


def check_surgery() -> list[VerifyCheck]:
    """Correction terms: lens values, conjugation, and the -1 anchor."""
    unknot = parse("")
    lens_bad: list[str] = []
    cells = 0
    for n in range(1, 51):
        for k in range(n):
            cells += 1
            expected = Fraction(-(n - (2 * k - n) ** 2), 4 * n)
            if d_invariant(unknot, n, k) != expected:
                lens_bad.append(f"n={n}, k={k}")
    conj_bad: list[str] = []
    conj_cells = 0
    for expr in SAMPLE_FAMILY:
        for n in range(1, 13):
            for k in range(1, n):
                conj_cells += 1
                if d_invariant(expr, n, k) != d_invariant(expr, n, n - k):
                    conj_bad.append(f"{expr}: n={n}, k={k}")
    anchor_bad: list[str] = []
    for expr in SAMPLE_FAMILY:
        expected = Fraction(2 * vi_expr(mirror(expr))[0])
        if d_invariant_negative(expr, -1, 0) != expected:
            anchor_bad.append(str(expr))
    return [
        _tally(
            "surgery/lens",
            "unknot surgeries match the lens-space quadratic, n <= 50",
            cells,
            lens_bad,
        ),
        _tally(
            "surgery/conjugation",
            "conjugation symmetry k <-> n-k on the sample family",
            conj_cells,
            conj_bad,
        ),
        _tally(
            "surgery/anchor",
            "-1-surgery value equals twice the mirror torsion V_0",
            len(SAMPLE_FAMILY),
            anchor_bad,
        ),
    ]


def check_superadditivity() -> list[VerifyCheck]:
    """The stable bound beating the per-knot bound on the headline knot."""
    rep = report(HEADLINE, horizon=50)
    return [
        _expect(
            "superadditivity/stable",
            "stable bound of T(2,3) - T(5,6) at horizon 50",
            Fraction(41, 23),
            rep.stable,
        ),
        _expect(
            "superadditivity/witness",
            "witnessing multiple of the best ratio",
            46,
            rep.stable_witness,
        ),
        _expect(
            "superadditivity/final",
            "final lower bound (beats the main bound 1)",
            2,
            rep.final_gamma4_lower,
        ),
        _expect(
            "superadditivity/main",
            "main bound it improves on",
            1,
            rep.main,
        ),
    ]


SUBSETS = {
    "example-headline": check_example_headline,
    "example-section": check_example_section,
    "index-grid": check_index_grid,
    "sharpness": check_sharpness,
    "staircase2n": check_staircase2n,
    "oracles": check_oracles,
    "t-properties": check_t_properties,
    "surgery": check_surgery,
    "superadditivity": check_superadditivity,
}


def run(subset: str | None = None) -> VerifyReport:
    """Run one named subset, or every subset in order when none is given."""
    if subset is not None:
        if subset not in SUBSETS:
            known = ", ".join(sorted(SUBSETS))
            raise KeyError(f"unknown subset {subset!r}; known: {known}")
        return VerifyReport(checks=tuple(SUBSETS[subset]()))
    checks: list[VerifyCheck] = []
    for builder in SUBSETS.values():
        checks.extend(builder())
    return VerifyReport(checks=tuple(checks))
