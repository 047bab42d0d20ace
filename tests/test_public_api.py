"""The package's public names, pinned so that every change to them is a visible diff."""

import gamma4

PUBLIC_API = [
    "BifilteredComplex", "BoundReport", "ExpressionSyntaxError",
    "FormalSemigroup", "InvalidKnotError", "KnotExpression",
    "MalformedExponentsError", "MalformedSequenceError", "NotCoprimeError",
    "NotSingleTowerError", "ObstructionOutcome", "OddEulerNumberError",
    "OmegaEstimate", "SpincLabel", "TorusKnot",
    "UnsupportedExpressionError", "VRoute", "VerifyCheck", "VerifyReport",
    "__version__", "alexander", "d_invariant",
    "d_invariant_negative", "dual", "euler_obstruction", "genus_obstruction",
    "hom_wu_nu_plus", "mirror", "multiply",
    "nu_plus_v", "omega_upper", "parse", "render", "report", "route",
    "run_verification", "signature", "signature_expr",
    "staircase", "staircase_from_semigroup", "t_invariant", "tensor",
    "tensor_fold", "thin_bounds", "upsilon_bound", "upsilon_expr",
    "upsilon_torus", "v_invariant", "vi_expr",
    "vi_lspace", "vi_sequence", "vi_tensor_oracle",
]


def test_all_is_sorted_and_pinned():
    assert gamma4.__all__ == sorted(gamma4.__all__)
    assert gamma4.__all__ == PUBLIC_API


def test_every_public_name_resolves():
    for name in gamma4.__all__:
        assert hasattr(gamma4, name), name
