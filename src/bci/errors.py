"""Exception types shared across the package.

Everything numerical here either returns a result object carrying its own
diagnostics, or raises one of these.  They all derive from EvaluationError
(itself a ValueError) so callers — notably the CLI — can catch domain
failures per method without masking genuine bugs.
"""

from __future__ import annotations

__all__ = [
    "EvaluationError",
    "ZeroInput",
    "OnBranchCut",
    "AlphaOnCut",
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


class EvaluationError(ValueError):
    """The inputs violate a precondition of the requested operation."""


class ZeroInput(EvaluationError):
    """z = 0 where a branch logarithm (or a power built on one) is required."""


class OnBranchCut(EvaluationError):
    """Input lies on, or within the angular guard of, the cut ray."""


class AlphaOnCut(OnBranchCut):
    """The pole alpha itself sits on the cut ray, where its branch power is undefined."""


class AlphaOnCircle(EvaluationError):
    """|alpha| falls inside the exclusion band around the unit circle."""


class IntegerBeta(EvaluationError):
    """Operation requires a non-integer exponent."""


class BetaNonNegativeInteger(IntegerBeta):
    """Operation requires beta outside the nonnegative integers."""


class InvalidC(EvaluationError):
    """Hypergeometric denominator parameter is zero or a negative integer."""


class SlowConvergence(EvaluationError):
    """A series cannot reach its tolerance within its term cap: its argument is on or too near the unit circle."""


class SingularPath(EvaluationError):
    """The integrand has a pole on the integration path."""


class DivergentAtZero(EvaluationError):
    """Re(beta) <= 0 makes the endpoint singularity non-integrable."""


class RegimeStraddle(EvaluationError):
    """A finite-difference stencil crosses the unit circle."""


class NonFiniteValue(EvaluationError):
    """The value or its error bound overflows double precision (e.g. |z**beta| on the circle)."""
