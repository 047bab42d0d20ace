"""Seeded inputs, timed ops and correctness checks of the three workloads.

Each workload is a class with the same five methods:

* ``inputs(seed)`` — the op list as plain data; the same seed gives the
  same list, and the library sees nothing but these values;
* ``prepare(item)`` — turn one item into the arguments of its op (parsing
  happens here, in set-up, not in the op);
* ``run(prepared)`` — one op, the only code inside the op timer;
* ``check(index, item, prepared, output)`` — ``None`` when the output is
  right, else a one-line reason; runs outside the op timer;
* ``begin_pass()`` — reset state an op can leave behind (the CLI cache).

Every pass runs the whole op list, so a later pass repeats the same work.
Checks that recompute values through the library run on the first output
of each op; later passes must reproduce that output exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import shutil
from fractions import Fraction

from gamma4 import bounds, cli, nuplus
from gamma4.expressions import mirror, multiply, parse
from gamma4.nuplus import nu_plus_v, t_invariant
from gamma4.semigroups import FormalSemigroup
from gamma4.surgery import d_invariant, d_invariant_negative
from gamma4.torus import alexander, signature_expr

HERE = os.path.dirname(os.path.abspath(__file__))


def _rng(workload: str, seed: int, salt: str = "") -> random.Random:
    return random.Random(f"{workload}:{seed}:{salt}")


def profile_shape_error(values) -> str | None:
    """Why ``values`` is not a torsion profile: non-increasing, unit steps, ends at 0."""
    values = tuple(values)
    if not values or values[-1] != 0:
        return f"profile {values[:8]} does not end at 0"
    for cur, nxt in zip(values, values[1:]):
        if cur - nxt not in (0, 1):
            return f"profile step {cur} -> {nxt} is not 0 or 1"
    if 0 in values[:-1]:
        return "profile reaches 0 before its last entry"
    return None


def _nu_from_profile(values: tuple[int, ...], v: int) -> int:
    """``nu_plus_v`` read off a profile: the first index ``m`` with ``V_m <= v``."""
    return next(m for m, value in enumerate(values) if value <= v)


class _Repeatable:
    """Remembers each op's first output; later passes must reproduce it."""

    def __init__(self) -> None:
        self.first: dict[int, object] = {}

    def check(self, index, item, prepared, output):
        if index in self.first:
            if output != self.first[index]:
                return "output differs from the first pass"
            return None
        self.first[index] = output
        return self.check_first(item, prepared, output)

    def begin_pass(self) -> None:
        pass

    def output_bytes(self, output) -> int:
        return 0

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# family-sweep: routed profile against the tensor-complex oracle
# ---------------------------------------------------------------------------


class FamilySweep(_Repeatable):
    """A cost-stratified seeded sample of ``family_catalog.json``.

    The catalog holds every expression over six small torus knots, with
    coefficients in -2..2, whose oracle complex has at most 405 generators,
    with a reference time for its op.  The ``ALWAYS`` most expensive ones
    run in every pass.  Sorted by reference time, the rest falls into runs
    of ``STRATUM_SIZE``; the seed draws one expression from each run.  Every
    seed thus gets the same spread of cheap and expensive ops, and the
    median and tail ops of a pass cost nearly the same for every seed.
    """

    name = "family-sweep"
    WARMUP = ("T(2,3) + T(3,4) - T(2,5)",)
    STRATUM_SIZE = 4
    #: The most expensive expressions run in every pass, so that the tail op
    #: and the ten above it are the same for every seed; drawn from strata,
    #: they would come from the sparse top of the cost order, where the
    #: members of one stratum differ in cost by a fifth.
    ALWAYS = 11

    def inputs(self, seed: int) -> list[str]:
        with open(os.path.join(HERE, "family_catalog.json"), encoding="utf-8") as handle:
            catalog = json.load(handle)
        ranked = [text for text, _, _, ref_ms in sorted(catalog, key=lambda row: (row[3], row[0]))]
        head, top = ranked[:-self.ALWAYS], ranked[-self.ALWAYS:]
        rng = _rng(self.name, seed)
        chosen = [rng.choice(head[i:i + self.STRATUM_SIZE])
                  for i in range(0, len(head), self.STRATUM_SIZE)] + top
        rng.shuffle(chosen)
        return chosen

    def prepare(self, item: str):
        return parse(item)

    def run(self, expr):
        routed = nuplus.vi_expr(expr)
        oracle = nuplus.vi_tensor_oracle(expr)
        return routed, oracle, routed == oracle

    def check_first(self, item, expr, output):
        routed, oracle, agree = output
        if not agree or routed != oracle:
            return f"routed {routed} != oracle {oracle}"
        return profile_shape_error(routed) or profile_shape_error(oracle)


# ---------------------------------------------------------------------------
# closed-form-scan: large single-factor sides, never a complex
# ---------------------------------------------------------------------------


def _knot_with_genus(p: int, genus: int) -> tuple[int, int]:
    """The torus knot T(p, q), q > p + 1 coprime to p, with genus close to ``genus``."""
    q = max(p + 2, round(2 * genus / (p - 1)) + 1)
    while math.gcd(p, q) != 1:
        q += 1
    return p, q


class ClosedFormScan(_Repeatable):
    """Large closed-form inputs: one semigroup factor on each side.

    Items are ``(kind, text, positive generators, negative generators,
    extra)``; the generators name the semigroup of each side (``(p, q)`` for
    ``T(p, q)``, ``(p, p n + 1)`` for ``n T(p, p+1)``), which the check
    rebuilds on its own.  Side genera run from about 10^3 to 10^5; the
    product of the two, which sets the cost of the closed-form grid, is
    drawn from fixed strata, so the pass cost hardly depends on the seed.
    """

    name = "closed-form-scan"
    WARMUP = (("pair", "T(7,31) - T(5,12)", (7, 31), (5, 12), None),)
    #: (smaller generator, side genus) of the two sides of single pairs.
    PAIRS = (
        ((12, 1_000), (9, 1_000)), ((15, 3_000), (9, 1_000)), ((21, 10_000), (9, 1_000)),
        ((31, 30_000), (9, 1_000)), ((41, 100_000), (9, 1_000)), ((15, 3_000), (12, 3_000)),
        ((21, 10_000), (12, 3_000)), ((31, 30_000), (12, 3_000)), ((41, 100_000), (11, 2_000)),
        ((21, 10_000), (20, 10_000)),
    )
    #: (p, side genus) of the two sides of adjacent-power pairs n T(p, p+1).
    POWERS = (
        ((2, 1_000), (3, 1_000)), ((4, 5_000), (3, 1_000)), ((5, 20_000), (2, 2_000)),
        ((6, 60_000), (3, 1_500)), ((4, 8_000), (5, 6_000)), ((3, 2_000), (2, 2_000)),
    )
    #: Three more draws of the pair stratum whose ops sit in the middle of
    #: the cost order: the median op of a pass is then the middle of five
    #: draws of one stratum, with two on each side, not the edge of a gap
    #: in the cost order (about 25, 40 to 50 and 60 ms on a 2-core VM).
    MEDIAN_PAIR = ((21, 10_000), (9, 1_000))
    MEDIAN_DRAWS = 3
    HEADLINE_MULTIPLES = (20, 60, 120, 260)  # l in 5 l (T(2,3) - T(5,6))
    OMEGA = (((2, 40), (3, 39), 12), ((3, 60), (4, 60), 10))
    SAMPLED_LEVELS = 2
    DRAWS = 2  # draws per stratum, so that ten ops lie above the tail

    def inputs(self, seed: int) -> list[tuple]:
        """Strata fix each side's smaller generator and genus; the seed moves
        each genus by up to 1 %, picks which side is mirrored, and the order.
        The grid's cost goes with the product of the two genera, so a wider
        move would make the median and tail ops cost differently per seed."""
        rng = _rng(self.name, seed)

        def jitter(value: int) -> int:
            return max(1, round(value * rng.uniform(0.99, 1.01)))

        def oriented(kind, left, right, extra):
            if rng.random() < 0.5:
                left, right = right, left
            return kind, left[0], left[1], right[0], right[1], extra

        def power(p: int, genus: int) -> tuple[str, tuple[int, int]]:
            n = max(1, round(jitter(genus) / (p * (p - 1) // 2)))
            return f"{n}*T({p},{p + 1})", (p, p * n + 1)

        def single(p: int, genus: int) -> tuple[str, tuple[int, int]]:
            knot = _knot_with_genus(p, jitter(genus))
            return f"T({knot[0]},{knot[1]})", knot

        raw = []
        for _ in range(self.DRAWS):
            for left, right in self.PAIRS:
                raw.append(oriented("pair", single(*left), single(*right), None))
            for left, right in self.POWERS:
                raw.append(oriented("pair", power(*left), power(*right), None))
            for base in self.HEADLINE_MULTIPLES:
                l = jitter(base)
                raw.append(("headline", f"{5 * l}*T(2,3)", (2, 10 * l + 1),
                            f"{5 * l}*T(5,6)", (5, 25 * l + 1), l))
        for _ in range(self.MEDIAN_DRAWS):
            raw.append(oriented("pair", single(*self.MEDIAN_PAIR[0]),
                                single(*self.MEDIAN_PAIR[1]), None))
        for left, right, horizon in self.OMEGA:
            raw.append(oriented("omega", power(*left), power(*right),
                                horizon + rng.randint(-1, 1)))
        items = [(kind, f"{pos} - {neg}", pos_gens, neg_gens, extra)
                 for kind, pos, pos_gens, neg, neg_gens, extra in raw]
        rng.shuffle(items)
        return items

    def prepare(self, item):
        return item[0], parse(item[1]), item[4]

    def run(self, prepared):
        kind, expr, extra = prepared
        if kind == "omega":
            return bounds.omega_upper(expr, extra)
        forward = nuplus.vi_expr(expr)
        backward = nuplus.vi_expr(mirror(expr))
        return forward, backward, min(m + 2 * v for m, v in enumerate(backward))

    def check_first(self, item, prepared, output):
        kind, text, pos, neg, extra = item
        expr = prepared[1]
        if kind == "omega":
            return self._check_omega(expr, extra, output)
        forward, backward, t = output
        error = profile_shape_error(forward) or profile_shape_error(backward)
        if error:
            return error
        a = FormalSemigroup.from_generators(*pos)
        b = FormalSemigroup.from_generators(*neg)
        rng = _rng(self.name, len(forward), text)
        for values, top, bottom in ((forward, a, b), (backward, b, a)):
            for v in sorted(rng.sample(range(values[0] + 1), min(self.SAMPLED_LEVELS, values[0] + 1))):
                expected = nu_plus_v(top, bottom, v)
                got = _nu_from_profile(values, v)
                if got != expected:
                    return f"nu_plus_{v} read {got}, scalar formula {expected}"
        if kind == "headline" and t != 26 * extra + 1:
            return f"t(5l K) = {t}, expected 26 l + 1 = {26 * extra + 1}"
        return None

    @staticmethod
    def _check_omega(expr, horizon, estimate):
        if not 1 <= estimate.witness <= horizon:
            return f"witness {estimate.witness} outside 1..{horizon}"
        witness_t = t_invariant(multiply(expr, estimate.witness))
        if estimate.value != Fraction(witness_t, estimate.witness):
            return "omega value is not t(w E)/w at its witness"
        for n in (1, horizon):
            if estimate.value > Fraction(t_invariant(multiply(expr, n)), n):
                return f"omega value exceeds t({n} E)/{n}"
        return None


# ---------------------------------------------------------------------------
# cli-session: a user exploring a few expressions through the CLI
# ---------------------------------------------------------------------------

CACHE_TOKEN = "<cache>"


def _results_json(value):
    """The CLI's JSON form of a result: fractions as num/den, tuples as lists."""
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, dict):
        return {key: _results_json(inner) for key, inner in value.items()}
    if isinstance(value, (list, tuple)):
        return [_results_json(inner) for inner in value]
    return value


def _report_results(rep) -> dict:
    return _results_json({
        "sigma": rep.sigma,
        "t": rep.t,
        "table": rep.table,
        "batson": rep.batson,
        "nu_plus_bound": rep.nu_plus_bound,
        "main": rep.main,
        "upsilon_bound": rep.upsilon_bound,
        "stable": rep.stable,
        "stable_witness": rep.stable_witness,
        "side": rep.side,
        "final_gamma4_lower": rep.final_gamma4_lower,
    })


def expected_cli_results(argv: list[str]) -> dict:
    """The ``results`` object of ``gamma4 --json`` recomputed through the library."""
    args = [a for a in argv if a != "--json"]
    if "--cache" in args:
        at = args.index("--cache")
        del args[at:at + 2]
    command = args[0]
    if command == "thin":
        return _report_results(bounds.thin_bounds(int(args[2]), int(args[4])))
    expr = parse(args[1])
    if command == "invariants":
        forward = nuplus.vi_expr(expr)
        backward = nuplus.vi_expr(mirror(expr))
        return _results_json({
            "sigma": signature_expr(expr),
            "genus": {
                "negative_part": sum(-c * k.genus for k, c in expr.terms if c < 0),
                "positive_part": sum(c * k.genus for k, c in expr.terms if c > 0),
            },
            "alexander": [
                {
                    "knot": str(knot),
                    "coefficient": coeff,
                    "coefficients": sorted(alexander(knot.p, knot.q).items(), reverse=True),
                }
                for knot, coeff in expr.terms
            ],
            "vi": forward,
            "vi_mirror": backward,
            "nu_plus": len(forward) - 1,
            "t": t_invariant(expr),
        })
    if command == "bound":
        horizon = int(args[3]) if len(args) > 2 else None
        return _report_results(bounds.report(expr, horizon=horizon))
    if command == "d-invariant":
        n = int(args[2])
        compute = d_invariant if n > 0 else d_invariant_negative
        return _results_json({"framing": n, "d": [compute(expr, n, k) for k in range(abs(n))]})
    if command == "omega":
        rows, best, witness = [], None, 0
        for n in range(1, int(args[3]) + 1):
            ratio = Fraction(t_invariant(multiply(expr, n)), n)
            if best is None or ratio < best:
                best, witness = ratio, n
            rows.append({"n": n, "t": ratio.numerator * n // ratio.denominator,
                         "ratio": ratio, "running_min": best})
        return _results_json({
            "rows": rows,
            "upper_bound": best,
            "witness": witness,
            "strictly_decreasing": all(
                rows[i]["ratio"] < rows[i - 1]["ratio"] for i in range(1, len(rows))
            ),
        })
    if command == "cfk-dump":
        return {"dump": nuplus.tensor_complex(expr).dump()}
    raise ValueError(f"no expected results for {command}")


def _staircase_length(p: int, q: int) -> int:
    return len(alexander(p, q))


def multiple_cost(text: str, n: int) -> tuple[str, int]:
    """Route kind of ``n`` times the expression, with the size that bounds its work.

    Adjacent powers ``c T(p, p+1)`` collapse to one staircase of
    ``T(p, p|c| + 1)``, other knots give one staircase per copy, as the
    router does.  A side with at most one factor, or an empty side, stays
    closed-form and is measured by its genus; otherwise the complex path
    runs, measured by its generator count.
    """
    factors = {1: [], -1: []}
    for knot, coeff in parse(text).terms:
        count = abs(coeff) * n
        side = factors[1 if coeff > 0 else -1]
        if knot.q == knot.p + 1:
            side.append((knot.p, knot.p * count + 1))
        else:
            side += [(knot.p, knot.q)] * count
    genus = sum((p - 1) * (q - 1) // 2 for side in factors.values() for p, q in side)
    if len(factors[1]) <= 1 and len(factors[-1]) <= 1:
        return "closed-form", genus
    if not factors[1] or not factors[-1]:
        return "reduced", genus
    generators = 1
    for side in factors.values():
        for p, q in side:
            generators *= _staircase_length(p, q)
    return "complex", generators


class CliSession(_Repeatable):
    """In-process ``gamma4.cli.main(argv)`` calls with ``--json``.

    A session visits fifteen expressions, each the way a user explores a
    knot: seven calls on it, in a fixed order, so that which cached calls
    miss and which hit does not depend on the seed.  They are six with
    single-knot sides whose multiples stay closed-form, five whose multiples
    become complexes, a one-sided sum and its mirror (the router reduces
    them through small tensor products), and a mixed sum and its mirror
    (always the complex path).  The expressions and the command mix are the
    same for every seed, and so are the arguments that set an op's cost
    (the framings, ``--stable`` and ``--max-n``): the median and tail ops
    are the same calls for every seed.  The seed picks the order of the
    visits and of the calls between them, the ``thin`` arguments, the
    refused genus caps and the expression of one ``cfk-dump``.
    ``--stable`` and ``--max-n`` are capped per
    expression so that no multiple is routed to a complex of more than
    ``MULTIPLE_GENERATORS`` generators, a one-sided reduction of genus above
    ``REDUCED_GENUS`` (it tensors staircases pairwise) or a closed form of
    genus above ``MULTIPLE_GENUS``.  Items are ``(argv, expected exit code)``.
    """

    name = "cli-session"
    WARMUP = ((["--json", "invariants", "T(2,3) + T(3,4) - T(2,5)"], 0),)
    EXPRESSIONS = (
        "T(2,3) - T(5,6)", "T(3,4) - T(2,3)", "T(4,5) - 2*T(2,3)",
        "2*T(2,3) - T(3,4)", "T(2,3) - T(4,5)", "3*T(2,3) - T(4,5)",
        "T(2,5) - T(3,5)", "T(2,7) - T(3,5)", "T(3,5) - T(2,5)",
        "T(2,5) - T(2,7)", "T(2,7) - T(2,5)",
        "T(2,5) + T(3,4)", "-T(2,5) - T(3,4)",
        "T(2,3) + T(3,4) - T(2,5)", "T(2,5) - T(2,3) - T(3,4)",
    )
    CHEAP = 11  # the expressions before this index have one knot on each side
    FRAMINGS = (12, -2)  # of the two d-invariant calls per expression
    MULTIPLE_GENERATORS = 150
    MULTIPLE_GENUS = 400
    REDUCED_GENUS = 5
    MAX_MULTIPLE = 12

    def __init__(self, workdir: str | None = None) -> None:
        super().__init__()
        self.workdir = workdir
        self.cache_path = None if workdir is None else os.path.join(workdir, "profiles.json")

    def horizon_cap(self, text: str) -> int:
        """Largest multiple within budget, at most ``MAX_MULTIPLE``."""
        cap = 0
        for n in range(1, self.MAX_MULTIPLE + 1):
            kind, size = multiple_cost(text, n)
            limit = {
                "complex": self.MULTIPLE_GENERATORS,
                "reduced": self.REDUCED_GENUS,
                "closed-form": self.MULTIPLE_GENUS,
            }[kind]
            if size > limit:
                break
            cap = n
        return max(1, cap)

    def inputs(self, seed: int) -> list[tuple[list[str], int]]:
        rng = _rng(self.name, seed)
        mixed = self.EXPRESSIONS[-1]
        visits: list[list[tuple[list[str], int]]] = []

        def call(*argv, cache: bool = False, code: int = 0):
            extra = ["--cache", CACHE_TOKEN] if cache else []
            return ["--json", *argv, *extra], code

        for text in self.EXPRESSIONS:
            cap = self.horizon_cap(text)
            visits.append([
                call("invariants", text),
                call("invariants", text, cache=True),
                call("bound", text),
                call("bound", text, "--stable", str(cap)),
                call("d-invariant", text, str(self.FRAMINGS[0])),
                call("d-invariant", text, str(self.FRAMINGS[1])),
                call("omega", text, "--max-n", str(cap), cache=True),
            ])
        for _ in range(4):
            tau = rng.randint(0, 40)
            visits.append([call("thin", "--tau", str(tau),
                                "--sigma", str(-2 * rng.randint(0, tau + 2)))])
        visits.append([call("cfk-dump", rng.choice(self.EXPRESSIONS[:self.CHEAP]))])
        visits.append([call("cfk-dump", mixed)])
        genus = parse(mixed).total_genus
        for command in ("invariants", "bound", "cfk-dump"):
            visits.append([call(command, mixed, "--genus-cap",
                                str(rng.randint(1, genus - 1)), code=3)])
        rng.shuffle(visits)
        return [item for visit in visits for item in visit]

    def prepare(self, item):
        argv, code = item
        if self.cache_path is not None:
            argv = [self.cache_path if a == CACHE_TOKEN else a for a in argv]
        return argv, code

    def begin_pass(self) -> None:
        if self.cache_path is not None and os.path.exists(self.cache_path):
            os.unlink(self.cache_path)

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def run(self, prepared):
        argv, _ = prepared
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def output_bytes(self, output) -> int:
        return 0 if output is None else len(output[1].encode())

    def check_first(self, item, prepared, output):
        argv, expected_code = prepared
        code, stdout, stderr = output
        if code != expected_code:
            return f"exit {code}, expected {expected_code}: {stderr.strip()[:120]}"
        if expected_code == 3:
            if stdout or not stderr.startswith("unsupported:"):
                return "refusal did not print only an 'unsupported:' reason"
            return None
        if json.loads(stdout)["results"] != expected_cli_results(argv):
            return "JSON results differ from the library's values"
        return None


WORKLOADS = {
    FamilySweep.name: FamilySweep,
    ClosedFormScan.name: ClosedFormScan,
    CliSession.name: CliSession,
}
