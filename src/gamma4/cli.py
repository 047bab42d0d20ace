"""Command-line front end for the concordance-invariant library.

Subcommands
-----------

``invariants EXPR``
    Signature, genus of both parts, the Alexander polynomial of every
    summand, the torsion profiles of the expression and its mirror, the
    first vanishing index, and the t invariant.
``bound EXPR [--stable N]``
    The full lower-bound report for the non-orientable slice genus,
    optionally with the stable refinement over multiples up to N.
``d-invariant EXPR N``
    Correction terms of N-surgery, one exact rational per spin^c label.
``omega EXPR --max-n N``
    The table t(n EXPR)/n for n up to N with its running minimum.
``thin --tau T --sigma S``
    Bounds for a thin knot described by its two classical inputs.
``verify [--subset NAME]``
    The reproduction suite; exits 1 when any check fails.
``cfk-dump EXPR``
    The assembled bifiltered complex in the debug text format.

Global flags work before or after the subcommand: ``--json`` emits the
stable machine schema, ``--decimal`` adds six-significant-digit decimal
renderings marked inexact, ``--cache FILE`` memoises torsion profiles
across invocations without ever changing a value, and ``--genus-cap G``
bounds the total genus the router will expand into a tensor complex (a
negative ``G`` is a usage error).  ``G`` is given once to the profile
cache, through which every subcommand reads its profiles, and to the
router for ``cfk-dump``.  A one-sided sum of several knots folds by infimal
convolution and never expands, but obeys the same cap; closed-form
staircase pairs are exempt.

The argument parser is built once per process, on the first ``main`` call,
and reused by every later call.

Exit codes: 0 success, 1 failed verification, 2 usage or parse error,
3 structurally unsupported expression.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .bounds import _omega_table, report, thin_bounds
from .expressions import (
    KnotExpression,
    mirror,
    parse,
    render,
    split_parts,
)
from .nuplus import (
    DEFAULT_GENUS_CAP,
    UnsupportedExpressionError,
    _generator_excess,
    route,
    t_from_profile,
    tensor_complex,
    vi_expr,
)
from .surgery import d_from_profile
from .torus import alexander, signature_expr
from .verify import SUBSETS
from .verify import run as run_verify


@dataclass
class _Output:
    """What a subcommand produced: text lines, JSON results, exit code."""

    input_info: dict
    lines: list[str]
    results: dict
    code: int = 0


def _checked_cache_data(data) -> dict[str, list[int]]:
    """The loaded cache store, or ValueError unless every entry is a profile.

    A torsion profile is a list of ints that never rises, drops by at most
    one per step (Rasmussen: ``V_s - 1 <= V_{s+1} <= V_s``) and ends at its
    only zero.
    """
    if not isinstance(data, dict):
        raise ValueError("top level is not a JSON object")
    for key, value in data.items():
        if not _is_profile(value):
            raise ValueError(f"entry {key!r} is not a torsion profile")
    return data


def _is_profile(value) -> bool:
    """Whether ``value`` is a torsion profile, checked in one pass over it."""
    if not isinstance(value, list) or not value:
        return False
    previous = None
    for current in value:
        if type(current) is not int:
            return False
        if previous is not None and (previous <= 0 or previous - current not in (0, 1)):
            return False
        previous = current
    return previous == 0


class ProfileCache:
    """Torsion profiles memoised per canonical expression string.

    The store is a single JSON object mapping ``"<expression>|vi"`` to the
    profile; writes go through a sibling temporary file and an atomic
    rename.  Every profile is read under the one ``genus_cap`` given at
    construction.  A hit is routed again before it is returned, so it can
    never mask an error or return anything a cold run would not.
    """

    def __init__(self, path: str | None, genus_cap: int) -> None:
        self.path = path
        self.genus_cap = genus_cap
        self.data: dict[str, list[int]] = {}
        self.dirty = False
        if path is not None and os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                self.data = _checked_cache_data(json.load(handle))

    def profile(self, expr: KnotExpression) -> tuple[int, ...]:
        key = f"{render(expr)}|vi"
        hit = self.data.get(key)
        if hit is not None:
            plan = route(expr, self.genus_cap)
            if plan.kind == "unsupported":
                raise UnsupportedExpressionError(plan.reason)
            return tuple(hit)
        value = vi_expr(expr, self.genus_cap)  # routes, and refuses, by itself
        self.data[key] = list(value)
        self.dirty = True
        return value

    def save(self) -> None:
        if self.path is None or not self.dirty:
            return
        directory = os.path.dirname(os.path.abspath(self.path))
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(self.data, sort_keys=True))
            os.replace(tmp, self.path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------


def _jsonify(value, decimal: bool):
    """Make a nested result JSON-ready; fractions become num/den pairs."""
    if isinstance(value, Fraction):
        out: dict = {"num": value.numerator, "den": value.denominator}
        if decimal:
            out["decimal"] = f"{float(value):.6g}"
            out["inexact"] = True
        return out
    if isinstance(value, dict):
        return {key: _jsonify(inner, decimal) for key, inner in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(inner, decimal) for inner in value]
    return value


def _frac_text(value: Fraction, decimal: bool) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    text = f"{value.numerator}/{value.denominator}"
    if decimal:
        text += f" ~ {float(value):.6g} (inexact)"
    return text


def _seq_text(values) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def _poly_text(coeffs: dict[int, int]) -> str:
    parts: list[str] = []
    for exponent in sorted(coeffs, reverse=True):
        c = coeffs[exponent]
        if c == 0:
            continue
        if exponent == 0:
            term = str(abs(c))
        else:
            power = "t" if exponent == 1 else f"t^{exponent}"
            term = power if abs(c) == 1 else f"{abs(c)}*{power}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {term}")
    return " ".join(parts) if parts else "0"


def _display_expr(canonical: str) -> str:
    return canonical if canonical else "(unknot)"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_invariants(args, cache: ProfileCache) -> _Output:
    expr = parse(args.expr)
    canonical = render(expr)
    positive, negative = split_parts(expr)
    forward = cache.profile(expr)
    backward = cache.profile(mirror(expr))
    sigma = signature_expr(expr)
    summands = [
        (knot, coeff, alexander(knot.p, knot.q)) for knot, coeff in expr.terms
    ]
    lines = [
        f"expression: {_display_expr(canonical)}",
        f"signature: {sigma}",
        f"genus: positive part {positive.total_genus}, "
        f"negative part {negative.total_genus}",
    ]
    for knot, coeff, delta in summands:
        lines.append(f"alexander {knot} (coefficient {coeff}): {_poly_text(delta)}")
    lines += [
        f"torsion profile: {_seq_text(forward)}",
        f"torsion profile (mirror): {_seq_text(backward)}",
        f"first vanishing index: {len(forward) - 1}",
        f"t: {t_from_profile(backward)}",
    ]
    results = {
        "sigma": sigma,
        "genus": {
            "negative_part": negative.total_genus,
            "positive_part": positive.total_genus,
        },
        "alexander": [
            {
                "knot": str(knot),
                "coefficient": coeff,
                "coefficients": [[e, delta[e]] for e in sorted(delta, reverse=True)],
            }
            for knot, coeff, delta in summands
        ],
        "vi": list(forward),
        "vi_mirror": list(backward),
        "nu_plus": len(forward) - 1,
        "t": t_from_profile(backward),
    }
    info = {"command": "invariants", "expression": canonical, "genus_cap": args.genus_cap}
    return _Output(info, lines, results)


def _bound_lines_results(rep, decimal: bool) -> tuple[list[str], dict]:
    lines = [
        f"signature: {rep.sigma}",
        f"t: {rep.t}",
        f"per-index table: {_seq_text(rep.table)}",
        f"batson bound: {rep.batson}",
        f"nu-plus bound: {rep.nu_plus_bound}",
        f"main bound: {rep.main}",
    ]
    if rep.upsilon_bound is not None:
        lines.append(f"upsilon bound: {rep.upsilon_bound}")
    if rep.stable is not None:
        lines.append(
            f"stable bound: {_frac_text(rep.stable, decimal)} "
            f"(witness n = {rep.stable_witness})"
        )
    lines.append(f"side: {rep.side}")
    lines.append(f"final lower bound: {rep.final_gamma4_lower}")
    results = {
        "sigma": rep.sigma,
        "t": rep.t,
        "table": list(rep.table),
        "batson": rep.batson,
        "nu_plus_bound": rep.nu_plus_bound,
        "main": rep.main,
        "upsilon_bound": rep.upsilon_bound,
        "stable": rep.stable,
        "stable_witness": rep.stable_witness,
        "side": rep.side,
        "final_gamma4_lower": rep.final_gamma4_lower,
    }
    return lines, results


def _cmd_bound(args, cache: ProfileCache) -> _Output:
    expr = parse(args.expr)
    canonical = render(expr)
    rep = report(expr, horizon=args.stable, profile_of=cache.profile)
    body, results = _bound_lines_results(rep, args.decimal)
    lines = [f"expression: {_display_expr(canonical)}"] + body
    info = {
        "command": "bound",
        "expression": canonical,
        "genus_cap": args.genus_cap,
        "stable_horizon": args.stable,
    }
    return _Output(info, lines, results)


def _cmd_d_invariant(args, cache: ProfileCache) -> _Output:
    expr = parse(args.expr)
    canonical = render(expr)
    n = args.n
    if n == 0:
        raise ValueError("surgery framing must be nonzero")
    # Negative framings read the mirror's profile and flip the sign.
    if n > 0:
        profile = cache.profile(expr)
        values = [d_from_profile(profile, n, k) for k in range(n)]
    else:
        profile = cache.profile(mirror(expr))
        values = [-d_from_profile(profile, -n, k) for k in range(-n)]
    lines = [
        f"expression: {_display_expr(canonical)}",
        f"framing: {n}",
    ]
    lines += [
        f"k = {k}: {_frac_text(value, args.decimal)}"
        for k, value in enumerate(values)
    ]
    results = {"framing": n, "d": values}
    info = {
        "command": "d-invariant",
        "expression": canonical,
        "framing": n,
        "genus_cap": args.genus_cap,
    }
    return _Output(info, lines, results)


def _cmd_omega(args, cache: ProfileCache) -> _Output:
    expr = parse(args.expr)
    canonical = render(expr)
    if args.max_n < 1:
        raise ValueError("--max-n must be at least 1")
    table, estimate = _omega_table(expr, args.max_n, cache.profile)
    rows = [
        {"n": n, "t": t, "ratio": ratio, "running_min": running}
        for n, t, ratio, running in table
    ]
    best, witness = estimate.value, estimate.witness
    strictly_decreasing = all(
        rows[i]["ratio"] < rows[i - 1]["ratio"] for i in range(1, len(rows))
    )
    cells = [("n", "t(n*K)", "ratio", "running min")]
    for row in rows:
        cells.append(
            (
                str(row["n"]),
                str(row["t"]),
                _frac_text(row["ratio"], args.decimal),
                _frac_text(row["running_min"], args.decimal),
            )
        )
    widths = [max(len(row[col]) for row in cells) for col in range(4)]
    lines = [f"expression: {_display_expr(canonical)}"]
    lines += [
        "  ".join(entry.rjust(width) for entry, width in zip(row, widths))
        for row in cells
    ]
    lines += [
        f"stable upper bound: {_frac_text(best, args.decimal)} "
        f"(attained at n = {witness})",
        f"ratio strictly decreasing: {'yes' if strictly_decreasing else 'no'}",
    ]
    results = {
        "rows": rows,
        "upper_bound": best,
        "witness": witness,
        "strictly_decreasing": strictly_decreasing,
    }
    info = {
        "command": "omega",
        "expression": canonical,
        "max_n": args.max_n,
        "genus_cap": args.genus_cap,
    }
    return _Output(info, lines, results)


def _cmd_thin(args, cache: ProfileCache) -> _Output:
    rep = thin_bounds(args.tau, args.sigma)
    body, results = _bound_lines_results(rep, args.decimal)
    lines = [f"thin knot: tau = {args.tau}, sigma = {args.sigma}"] + body
    info = {"command": "thin", "tau": args.tau, "sigma": args.sigma}
    return _Output(info, lines, results)


def _cmd_verify(args, cache: ProfileCache) -> _Output:
    outcome = run_verify(args.subset)
    lines = []
    for check in outcome.checks:
        if check.passed:
            lines.append(f"[ ok ] {check.id}: {check.description}")
        else:
            lines.append(
                f"[FAIL] {check.id}: {check.description} "
                f"(expected {check.expected}, computed {check.computed})"
            )
    passed = sum(1 for check in outcome.checks if check.passed)
    lines.append(f"{passed}/{len(outcome.checks)} checks passed")
    results = {
        "checks": [
            {
                "id": check.id,
                "description": check.description,
                "expected": check.expected,
                "computed": check.computed,
                "pass": check.passed,
            }
            for check in outcome.checks
        ],
        "overall": outcome.overall,
    }
    info = {"command": "verify", "subset": args.subset}
    return _Output(info, lines, results, code=0 if outcome.overall else 1)


def _cmd_cfk_dump(args, cache: ProfileCache) -> _Output:
    expr = parse(args.expr)
    canonical = render(expr)
    plan = route(expr, args.genus_cap)
    if plan.kind == "unsupported":
        raise UnsupportedExpressionError(plan.reason)
    # a closed-form route builds no complex, but the dump always does
    excess = _generator_excess(expr)
    if excess:
        raise UnsupportedExpressionError(excess)
    text = tensor_complex(expr).dump()
    info = {
        "command": "cfk-dump",
        "expression": canonical,
        "genus_cap": args.genus_cap,
    }
    return _Output(info, text.splitlines(), {"dump": text})


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("global options")
    group.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="emit the stable JSON schema instead of text",
    )
    group.add_argument(
        "--decimal",
        action="store_true",
        default=argparse.SUPPRESS,
        help="add 6-significant-digit decimal renderings, marked inexact",
    )
    group.add_argument(
        "--cache",
        metavar="FILE",
        default=argparse.SUPPRESS,
        help="JSON file memoising torsion profiles across runs",
    )
    group.add_argument(
        "--genus-cap",
        type=int,
        metavar="G",
        default=argparse.SUPPRESS,
        help="refuse tensor-complex expansions above total genus G "
        f"(default {DEFAULT_GENUS_CAP}; single staircase pairs never expand)",
    )
    return common


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    Reuse is safe because ``parse_args`` fills a fresh ``Namespace`` on every
    call and the global flags default to ``argparse.SUPPRESS``; callers must
    not add to the returned parser.
    """
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="gamma4",
        description="Concordance invariants and non-orientable slice genus "
        "bounds for sums of torus knots, in exact arithmetic.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "invariants",
        parents=[common],
        help="signature, Alexander polynomials, torsion profiles, and t",
    )
    p.add_argument("expr", help='knot expression, e.g. "T(2,3) - T(5,6)"')
    p.set_defaults(handler=_cmd_invariants)

    p = sub.add_parser(
        "bound",
        parents=[common],
        help="lower bounds for the non-orientable slice genus",
    )
    p.add_argument("expr", help="knot expression")
    p.add_argument(
        "--stable",
        type=int,
        metavar="N",
        default=None,
        help="refine with the stable bound over multiples up to N",
    )
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser(
        "d-invariant",
        parents=[common],
        help="correction terms of an integer surgery",
    )
    p.add_argument("expr", help="knot expression")
    p.add_argument("n", type=int, help="nonzero surgery framing")
    p.set_defaults(handler=_cmd_d_invariant)

    p = sub.add_parser(
        "omega",
        parents=[common],
        help="growth of t over multiples and its running minimum",
    )
    p.add_argument("expr", help="knot expression")
    p.add_argument(
        "--max-n",
        type=int,
        metavar="N",
        required=True,
        dest="max_n",
        help="largest multiple to tabulate",
    )
    p.set_defaults(handler=_cmd_omega)

    p = sub.add_parser(
        "thin",
        parents=[common],
        help="bounds for a thin knot given tau and sigma",
    )
    p.add_argument("--tau", type=int, required=True, help="tau invariant")
    p.add_argument(
        "--sigma", type=int, required=True, help="signature (an even integer)"
    )
    p.set_defaults(handler=_cmd_thin)

    p = sub.add_parser(
        "verify",
        parents=[common],
        help="recompute every frozen reference value and oracle cross-check",
    )
    p.add_argument(
        "--subset",
        choices=sorted(SUBSETS),
        default=None,
        help="run a single named subset instead of the whole suite",
    )
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser(
        "cfk-dump",
        parents=[common],
        help="dump the assembled bifiltered complex as text",
    )
    p.add_argument("expr", help="knot expression")
    p.set_defaults(handler=_cmd_cfk_dump)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    json_mode = getattr(args, "json", False)
    args.decimal = getattr(args, "decimal", False)
    args.genus_cap = getattr(args, "genus_cap", DEFAULT_GENUS_CAP)
    if args.genus_cap < 0:
        print("error: --genus-cap must be at least 0", file=sys.stderr)
        return 2
    cache_path = getattr(args, "cache", None)
    try:
        cache = ProfileCache(cache_path, args.genus_cap)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read cache file: {exc}", file=sys.stderr)
        return 2
    try:
        out = args.handler(args, cache)
    except UnsupportedExpressionError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        cache.save()
    except OSError as exc:
        print(f"error: cannot write cache file: {exc}", file=sys.stderr)
        return 2
    if json_mode:
        payload = {
            "input": out.input_info,
            "version": __version__,
            "results": _jsonify(out.results, args.decimal),
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in out.lines:
            print(line)
    return out.code


if __name__ == "__main__":
    sys.exit(main())
