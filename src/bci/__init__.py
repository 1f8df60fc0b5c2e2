"""Branch-cut contour integrals of z**beta / (z - alpha) on the unit circle.

Four independent evaluation routes — hypergeometric closed forms, a direct
termwise series, finite log sums for rational exponents, and adaptive
quadrature — plus differential (ODE-residual) and integral-identity checks
that tie them together.  See the README for the CLI.
"""

from .branchcut import (
    ANGULAR_GUARD,
    DEFAULT_EXCLUSION_BAND,
    INTEGER_DETECTION_TOL,
    BranchAngle,
    BranchValue,
    ProblemInstance,
    as_integer,
    branch_arg,
    branch_log,
    branch_pow,
    cut_jump_factor,
    int_pow,
    integrand,
)
from .closedform import (
    METHOD_CLOSED_FORM,
    METHOD_QUADRATURE,
    METHOD_RATIONAL,
    METHOD_SERIES,
    MethodResult,
    RationalBeta,
    check_reconciliation,
    eval_closed_form,
    eval_direct_series,
    eval_rational_logsum,
    hyp2f1_rational,
    roots_of_unity_filter,
)
from .errors import (
    AlphaOnCircle,
    AlphaOnCut,
    BetaNonNegativeInteger,
    DivergentAtZero,
    EvaluationError,
    IntegerBeta,
    InvalidC,
    NonFiniteValue,
    OnBranchCut,
    PoleHit,
    RegimeStraddle,
    SingularPath,
    SlowConvergence,
    ZeroInput,
)
from .hypergeometric import SeriesResult, hyp2f1_one_b, hyp2f1_series, pochhammer
from .odecheck import (
    INFINITY,
    OdeCoefficients,
    OdeResidual,
    coefficients_for,
    ode_coefficients_inside,
    ode_coefficients_outside,
    ode_residual,
    scaling_constant,
    singular_points,
)
from .quadrature import (
    QuadratureResult,
    adaptive_quadrature,
    check_circle_vs_radial,
    check_integral_reduction,
    circle_integral,
    euler_integral,
    radial_integral,
)
from .report import (
    EvaluationReport,
    MethodFailure,
    dumps_canonical,
    evaluate_instance,
    report_to_jsonable,
)
from .verify import CHECK_ORDER, DEFAULT_THRESHOLDS, run_verify

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # branch-cut primitives
    "ANGULAR_GUARD",
    "DEFAULT_EXCLUSION_BAND",
    "INTEGER_DETECTION_TOL",
    "BranchAngle",
    "BranchValue",
    "ProblemInstance",
    "as_integer",
    "branch_arg",
    "branch_log",
    "branch_pow",
    "cut_jump_factor",
    "int_pow",
    "integrand",
    # series machinery
    "SeriesResult",
    "hyp2f1_series",
    "hyp2f1_one_b",
    "pochhammer",
    # closed forms and cross forms
    "METHOD_CLOSED_FORM",
    "METHOD_SERIES",
    "METHOD_QUADRATURE",
    "METHOD_RATIONAL",
    "MethodResult",
    "RationalBeta",
    "eval_closed_form",
    "eval_direct_series",
    "eval_rational_logsum",
    "hyp2f1_rational",
    "roots_of_unity_filter",
    "check_reconciliation",
    # quadrature
    "QuadratureResult",
    "adaptive_quadrature",
    "circle_integral",
    "euler_integral",
    "radial_integral",
    "check_integral_reduction",
    "check_circle_vs_radial",
    # ODE checks
    "INFINITY",
    "OdeCoefficients",
    "OdeResidual",
    "ode_coefficients_outside",
    "ode_coefficients_inside",
    "coefficients_for",
    "ode_residual",
    "scaling_constant",
    "singular_points",
    # orchestration
    "EvaluationReport",
    "MethodFailure",
    "evaluate_instance",
    "report_to_jsonable",
    "dumps_canonical",
    "run_verify",
    "CHECK_ORDER",
    "DEFAULT_THRESHOLDS",
    # errors
    "EvaluationError",
    "ZeroInput",
    "OnBranchCut",
    "AlphaOnCut",
    "PoleHit",
    "AlphaOnCircle",
    "IntegerBeta",
    "BetaNonNegativeInteger",
    "InvalidC",
    "SlowConvergence",
    "SingularPath",
    "DivergentAtZero",
    "RegimeStraddle",
    "NonFiniteValue",
]
