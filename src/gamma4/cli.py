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
stable machine schema (one writer, ``_json_text``, prints the bytes of
``json.dumps(payload, sort_keys=True, indent=2)``, with each rational as
``_fraction_json`` renders it), ``--decimal`` adds six-significant-digit
decimal renderings marked inexact, ``--cache FILE`` memoises torsion profiles
across invocations without ever changing a value, and ``--genus-cap G``
bounds the total genus the router will expand into a tensor complex (a
negative ``G`` is a usage error).  ``G`` is given once to the profile
cache, through which every subcommand that takes ``EXPR`` reads its
profiles, and to the router for ``cfk-dump``.  A one-sided sum of several
knots folds by infimal convolution and never expands, but obeys the same
cap; closed-form staircase pairs are exempt.

``main`` is the one frame every subcommand shares.  It parses ``EXPR``
once, before any handler runs; writes the ``input`` object of ``--json``
(the command, and for a subcommand that takes ``EXPR`` its canonical
form and the genus cap, merged with the handler's own inputs); and maps
refusals to exit codes.  The handlers only compute.  An empty ``--cache``
path is refused (exit 2) before any work.

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
from dataclasses import dataclass, fields
from fractions import Fraction

from . import __version__
from .bounds import omega_table, report, thin_bounds
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
    generator_excess,
    route,
    t_from_profile,
    tensor_complex,
    vi_expr,
)
from .semigroups import is_torsion_profile
from .surgery import correction_terms
from .torus import alexander, signature_expr
from .verify import SUBSETS
from .verify import run as run_verify


@dataclass
class _Output:
    """What a subcommand produced: its own inputs, text lines, JSON results,
    exit code.  ``main`` records the command, expression and genus cap."""

    input_info: dict
    lines: list[str]
    results: dict
    code: int = 0


def _checked_cache_data(data) -> dict[str, list[int]]:
    """The loaded cache store, or ValueError unless every entry is a list
    that ``is_torsion_profile`` accepts."""
    if not isinstance(data, dict):
        raise ValueError("top level is not a JSON object")
    for key, value in data.items():
        if not isinstance(value, list) or not is_torsion_profile(value):
            raise ValueError(f"entry {key!r} is not a torsion profile")
    return data


class ProfileCache:
    """Torsion profiles memoised per canonical expression string.

    The store is a single JSON object mapping ``"<expression>|vi|<version>"``
    to the profile, so an entry written by another package version is never
    a hit; writes go through a sibling temporary file and an atomic rename.
    Every entry is still validated when the file is read.  Every profile is
    read under the one ``genus_cap`` given at construction.  A hit is routed
    again before it is returned, so it can never mask an error or return
    anything a cold run would not.
    """

    def __init__(self, path: str | None, genus_cap: int) -> None:
        self.path = path
        self.genus_cap = genus_cap
        self.data: dict[str, list[int]] = {}
        self.dirty = False
        if path == "":
            raise ValueError("the path is empty")
        if path is not None and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ValueError(f"the directory of {path} does not exist")
        if path is not None and os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                self.data = _checked_cache_data(json.load(handle))

    def profile(self, expr: KnotExpression) -> tuple[int, ...]:
        key = f"{render(expr)}|vi|{__version__}"
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


def _fraction_json(value, decimal: bool) -> dict:
    """The fallback of the JSON writer: a fraction as a num/den pair.

    With ``decimal`` the pair also carries a six-significant-digit
    ``decimal`` rendering marked ``inexact``.  Any other type the writer
    cannot write raises ``TypeError``.
    """
    if not isinstance(value, Fraction):
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    out: dict = {"num": value.numerator, "den": value.denominator}
    if decimal:
        out["decimal"] = f"{float(value):.6g}"
        out["inexact"] = True
    return out


_quote = json.encoder.encode_basestring_ascii


def _json_text(value, decimal: bool) -> str:
    """The text of ``json.dumps(value, sort_keys=True, indent=2,
    default=partial(_fraction_json, decimal=decimal))``, written directly.

    With ``indent`` set, ``json.dumps`` runs the pure-Python encoder; this
    writer gives the same bytes in fewer steps.  It writes only the types
    the package prints, checked in the encoder's order (str, None, True,
    False, int, list or tuple, dict, then ``_fraction_json``), so it refuses
    what ``json.dumps`` refuses with the same ``TypeError``, and a float
    too: no payload holds one.  Dict keys must be strings, and ``value``
    must be a tree: the writer has no cycle check.
    """
    chunks: list[str] = []
    out = chunks.append

    def emit(value, newline: str) -> None:
        if isinstance(value, str):
            out(_quote(value))
        elif value is None:
            out("null")
        elif value is True:
            out("true")
        elif value is False:
            out("false")
        elif isinstance(value, int):
            out(int.__repr__(value))
        elif isinstance(value, (list, tuple)):
            if not value:
                out("[]")
                return
            inner = newline + "  "
            separator = "," + inner
            if all(type(item) is int for item in value):
                out("[" + inner + separator.join(map(int.__repr__, value)) + newline + "]")
                return
            lead = "[" + inner
            for item in value:
                out(lead)
                emit(item, inner)
                lead = separator
            out(newline + "]")
        elif isinstance(value, dict):
            if not value:
                out("{}")
                return
            inner = newline + "  "
            lead = "{" + inner
            for key in sorted(value):
                out(lead + _quote(key) + ": ")
                emit(value[key], inner)
                lead = "," + inner
            out(newline + "}")
        else:
            emit(_fraction_json(value, decimal), newline)

    emit(value, "\n")
    return "".join(chunks)


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


def _heading(expr: KnotExpression) -> str:
    return f"expression: {render(expr) or '(unknot)'}"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_invariants(args, expr: KnotExpression, cache: ProfileCache) -> _Output:
    positive, negative = split_parts(expr)
    forward = cache.profile(expr)
    backward = cache.profile(mirror(expr))
    nu_plus = len(forward) - 1
    t = t_from_profile(backward)
    sigma = signature_expr(expr)
    summands = [
        (knot, coeff, alexander(knot.p, knot.q)) for knot, coeff in expr.terms
    ]
    lines = [
        _heading(expr),
        f"signature: {sigma}",
        f"genus: positive part {positive.total_genus}, "
        f"negative part {negative.total_genus}",
    ]
    for knot, coeff, delta in summands:
        lines.append(f"alexander {knot} (coefficient {coeff}): {_poly_text(delta)}")
    lines += [
        f"torsion profile: {_seq_text(forward)}",
        f"torsion profile (mirror): {_seq_text(backward)}",
        f"first vanishing index: {nu_plus}",
        f"t: {t}",
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
        "nu_plus": nu_plus,
        "t": t,
    }
    return _Output({}, lines, results)


def _bound_lines_results(rep, decimal: bool) -> tuple[list[str], dict]:
    lines = [
        f"signature: {rep.sigma}",
        f"t: {rep.t}",
        f"per-index table: {_seq_text(rep.table)}",
        f"batson bound: {rep.batson}",
        f"nu-plus bound: {rep.nu_plus_bound}",
        f"main bound: {rep.main}",
        f"upsilon bound: {rep.upsilon_bound}",
    ]
    if rep.stable is not None:
        lines.append(
            f"stable bound: {_frac_text(rep.stable, decimal)} "
            f"(witness n = {rep.stable_witness})"
        )
    lines.append(f"side: {rep.side}")
    lines.append(f"final lower bound: {rep.final_gamma4_lower}")
    return lines, {f.name: getattr(rep, f.name) for f in fields(rep)}


def _cmd_bound(args, expr: KnotExpression, cache: ProfileCache) -> _Output:
    rep = report(expr, horizon=args.stable, profile_of=cache.profile)
    body, results = _bound_lines_results(rep, args.decimal)
    return _Output({"stable_horizon": args.stable}, [_heading(expr)] + body, results)


def _cmd_d_invariant(args, expr: KnotExpression, cache: ProfileCache) -> _Output:
    n = args.n
    values = correction_terms(expr, n, cache.profile)
    lines = [_heading(expr), f"framing: {n}"]
    lines += [
        f"k = {k}: {_frac_text(value, args.decimal)}"
        for k, value in enumerate(values)
    ]
    return _Output({"framing": n}, lines, {"framing": n, "d": values})


def _cmd_omega(args, expr: KnotExpression, cache: ProfileCache) -> _Output:
    if args.max_n < 1:
        raise ValueError("--max-n must be at least 1")
    table, estimate = omega_table(expr, args.max_n, cache.profile)
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
    lines = [_heading(expr)]
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
    return _Output({"max_n": args.max_n}, lines, results)


def _cmd_thin(args, expr: None, cache: ProfileCache) -> _Output:
    rep = thin_bounds(args.tau, args.sigma)
    body, results = _bound_lines_results(rep, args.decimal)
    lines = [f"thin knot: tau = {args.tau}, sigma = {args.sigma}"] + body
    return _Output({"tau": args.tau, "sigma": args.sigma}, lines, results)


def _cmd_verify(args, expr: None, cache: ProfileCache) -> _Output:
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
    code = 0 if outcome.overall else 1
    return _Output({"subset": args.subset}, lines, results, code)


def _cmd_cfk_dump(args, expr: KnotExpression, cache: ProfileCache) -> _Output:
    plan = route(expr, args.genus_cap)
    if plan.kind == "unsupported":
        raise UnsupportedExpressionError(plan.reason)
    # a closed-form route builds no complex, but the dump always does
    excess = generator_excess(expr)
    if excess:
        raise UnsupportedExpressionError(excess)
    text = tensor_complex(expr).dump()
    return _Output({}, text.splitlines(), {"dump": text})


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
    info = {"command": args.command}
    expr = None
    try:
        if "expr" in args:
            expr = parse(args.expr)
            info.update(expression=render(expr), genus_cap=args.genus_cap)
        out = args.handler(args, expr, cache)
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
            "input": info | out.input_info,
            "version": __version__,
            "results": out.results,
        }
        print(_json_text(payload, args.decimal))
    else:
        for line in out.lines:
            print(line)
    return out.code


if __name__ == "__main__":
    sys.exit(main())
