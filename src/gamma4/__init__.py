"""Exact concordance invariants and non-orientable slice genus bounds.

The package computes, in exact integer/rational arithmetic, the torsion
invariants of large surgeries on formal sums of torus knots, the derived
concordance quantities built from them, correction terms of rational
surgeries, and the resulting lower bounds for the non-orientable slice genus.
Two independent computation paths are provided: closed-form counting via
numerical semigroups, and reduction of bifiltered chain complexes.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    ObstructionOutcome,
    OddEulerNumberError,
    OmegaEstimate,
    batson_bound,
    euler_obstruction,
    genus_obstruction,
    main_bound,
    nu_plus_bound,
    omega_upper,
    report,
    stable_bound,
    thin_bounds,
    upsilon_bound,
    upsilon_expr,
    upsilon_torus,
)
from .cfk import (
    BifilteredComplex,
    MalformedExponentsError,
    NotSingleTowerError,
    StaircaseSplitReport,
    dual,
    staircase,
    staircase_from_semigroup,
    tensor,
    tensor_power,
    v_invariant,
    verify_staircase2n,
    vi_sequence,
)
from .expressions import (
    ExpressionSyntaxError,
    InvalidKnotError,
    KnotExpression,
    TorusKnot,
    mirror,
    multiply,
    parse,
    render,
)
from .nuplus import (
    UnsupportedExpressionError,
    VRoute,
    hom_wu_nu_plus,
    nu_plus_v,
    route,
    t_invariant,
    vi_expr,
    vi_tensor_oracle,
)
from .semigroups import (
    FormalSemigroup,
    MalformedSequenceError,
    NotCoprimeError,
)
from .surgery import SpincLabel, d_invariant, d_invariant_negative
from .torus import alexander, signature, signature_expr, vi_lspace
from .verify import VerifyCheck, VerifyReport
from .verify import run as run_verification

__all__ = [
    "BifilteredComplex",
    "BoundReport",
    "ExpressionSyntaxError",
    "FormalSemigroup",
    "InvalidKnotError",
    "KnotExpression",
    "MalformedExponentsError",
    "MalformedSequenceError",
    "NotCoprimeError",
    "NotSingleTowerError",
    "ObstructionOutcome",
    "OddEulerNumberError",
    "OmegaEstimate",
    "SpincLabel",
    "StaircaseSplitReport",
    "TorusKnot",
    "UnsupportedExpressionError",
    "VRoute",
    "VerifyCheck",
    "VerifyReport",
    "__version__",
    "alexander",
    "batson_bound",
    "d_invariant",
    "d_invariant_negative",
    "dual",
    "euler_obstruction",
    "genus_obstruction",
    "hom_wu_nu_plus",
    "main_bound",
    "mirror",
    "multiply",
    "nu_plus_bound",
    "nu_plus_v",
    "omega_upper",
    "parse",
    "render",
    "report",
    "route",
    "run_verification",
    "signature",
    "signature_expr",
    "stable_bound",
    "staircase",
    "staircase_from_semigroup",
    "t_invariant",
    "tensor",
    "tensor_power",
    "thin_bounds",
    "upsilon_bound",
    "upsilon_expr",
    "upsilon_torus",
    "v_invariant",
    "verify_staircase2n",
    "vi_expr",
    "vi_lspace",
    "vi_sequence",
    "vi_tensor_oracle",
]
