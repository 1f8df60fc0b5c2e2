"""Closed forms for the circle integral of z**beta / (z - alpha).

Everything is organised around one identity.  Write F(b, z) for
2F1(1, b; 1+b; z) and P for cut_jump_factor(beta, theta).  Then, for
non-integer beta,

    |alpha| > 1:   I = (P/beta) * (1 - F(beta,  e^{i theta} / alpha))
    |alpha| < 1:   I = (P/beta) * F(-beta, alpha e^{-i theta})

while integer beta collapses to the residue values 0 and +-2*pi*i*alpha^beta
with no series involved.  The other routes in this module evaluate the same
quantity by different computations — a direct termwise series, a finite sum
of logarithms for rational beta — precisely so the results can be compared
against each other and against the quadrature oracle.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Any

from .branchcut import (
    TWO_PI,
    ProblemInstance,
    as_integer,
    branch_arg,
    branch_log,
    cut_jump_with_bound,
    int_pow,
)
from .errors import (
    AlphaOnCut,
    BetaNonNegativeInteger,
    DivergentAtZero,
    EvaluationError,
    IntegerBeta,
    OnBranchCut,
    ZeroInput,
)
from .hypergeometric import DEFAULT_MAX_TERMS, hyp2f1_one_b
from .quadrature import euler_integral

_EPS = sys.float_info.epsilon

__all__ = [
    "METHOD_CLOSED_FORM",
    "METHOD_SERIES",
    "METHOD_RATIONAL",
    "METHOD_QUADRATURE",
    "MethodResult",
    "RationalBeta",
    "eval_closed_form",
    "eval_direct_series",
    "roots_of_unity_drift",
    "roots_of_unity_filter",
    "hyp2f1_rational",
    "hyp2f1_rational_with_bound",
    "eval_rational_logsum",
    "check_reconciliation",
]

# Wire-format method names used in reports; fixed, do not localise.
METHOD_CLOSED_FORM = "TheoremHypergeometric"
METHOD_SERIES = "SeriesDirect"
METHOD_RATIONAL = "RationalLogSum"
METHOD_QUADRATURE = "Quadrature"


@dataclass(frozen=True)
class MethodResult:
    """One method's value for one instance, with an honest error estimate.

    diagnostics always records the regime (inside/outside the unit circle)
    and the beta classification; methods add whatever else explains their run
    (series term counts, shift counts, convergence flags...).
    """

    value: complex
    method: str
    error_estimate: float
    diagnostics: dict[str, Any]


@dataclass(frozen=True)
class RationalBeta:
    """Exact rational exponent m/n, normalised to lowest terms with n >= 2.

    Built only from caller-supplied integers — floats are never silently
    reinterpreted as fractions.  A pair that reduces to an integer raises
    IntegerBeta: the log-sum route needs a genuine fraction.
    """

    m: int
    n: int

    def __post_init__(self) -> None:
        m, n = int(self.m), int(self.n)
        if n == 0:
            raise ValueError("denominator must be nonzero")
        if n < 0:
            m, n = -m, -n
        g = math.gcd(abs(m), n)
        if g > 1:
            m //= g
            n //= g
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        if n == 1:
            raise IntegerBeta(f"{m}/{n} reduces to an integer; the log-sum form needs a genuine fraction")

    @property
    def value(self) -> float:
        return self.m / self.n


def _base_diagnostics(inst: ProblemInstance) -> dict[str, Any]:
    diag: dict[str, Any] = {"regime": "outside" if inst.alpha_outside() else "inside"}
    if inst.alpha != 0:
        try:
            branch_arg(inst.alpha, inst.theta)
        except OnBranchCut:
            # The formulas below never take a branch power of alpha itself, so
            # this is informational: related identities (residue terms) do.
            diag["alpha_arg_on_cut"] = True
    return diag


def _residue_value(inst: ProblemInstance, n: int) -> complex:
    """Integer-exponent values: pure residues, no series touched."""
    if inst.alpha_outside():
        if n < 0:
            return -2j * math.pi * int_pow(inst.alpha, n)
        return complex(0.0)
    if n > 0:
        return 2j * math.pi * int_pow(inst.alpha, n)
    if n == 0:
        return complex(0.0, TWO_PI)  # alpha may be 0 here: z^0/z has residue 1
    return complex(0.0)


def _argument_rounding(b: complex, z: complex, f: complex) -> float:
    """Error in f = 2F1(1, b; 1+b; z) from the rounding of z = alpha e^{-i theta}
    or e^{i theta}/alpha, relatively 3 eps (one exp, one complex product or
    quotient); it moves f by that times z f'(z) = b (1/(1 - z) - f)."""
    return 3.0 * _EPS * abs(b) * abs(1.0 / (1.0 - z) - f)


def eval_closed_form(inst: ProblemInstance, series_tol: float | None = None) -> MethodResult:
    """Hypergeometric closed form of the circle integral (both regimes).

    Integer beta returns the exact residue case; otherwise the identity at
    the top of this module is evaluated with the fast 2F1(1, b; 1+b; .)
    series.  series_tol overrides the series tolerance (default: the tighter
    of 1e-12 and the instance tolerance) — the ODE residual checks push it to
    ~1e-15 so finite differences stay truncation-limited.
    """
    inst.require_alpha_off_circle()
    diag = _base_diagnostics(inst)
    beta = inst.beta
    n = as_integer(beta)
    if n is not None:
        diag["beta_class"] = "integer"
        value = _residue_value(inst, n)
        return MethodResult(value, METHOD_CLOSED_FORM, 1e-15 * (1.0 + abs(value)), diag)

    diag["beta_class"] = "generic"
    tol = series_tol if series_tol is not None else min(1e-12, inst.tol)
    theta = inst.theta_value
    jump, jump_err = cut_jump_with_bound(beta, inst.theta)
    prefactor = jump / beta
    if inst.alpha_outside():
        b, z = beta, cmath.exp(1j * theta) / inst.alpha
    else:
        b, z = -beta, inst.alpha * cmath.exp(-1j * theta)
    series = hyp2f1_one_b(b, z, tol=tol)
    factor = 1.0 - series.value if inst.alpha_outside() else series.value
    value = prefactor * factor
    diag["series_terms"] = series.terms_used
    diag["series_converged"] = series.converged
    rounding = 1e-15 * max(1.0, abs(series.value)) + _argument_rounding(b, z, series.value)
    estimate = abs(prefactor) * (series.tail_estimate + rounding) + jump_err / abs(beta) * abs(factor)
    return MethodResult(value, METHOD_CLOSED_FORM, estimate, diag)


def eval_direct_series(inst: ProblemInstance, max_terms: int = DEFAULT_MAX_TERMS) -> MethodResult:
    """Direct termwise series for |alpha| < 1:

        I = cut_jump_factor(beta, theta) * sum_{k>=0} alpha^k e^{-i k theta} / (beta - k).

    Expanding 1/(z - alpha) geometrically on |z| = 1 and integrating the
    branch powers term by term gives this sum; it rearranges into the
    |alpha| < 1 closed form, which is exactly why it is kept as a separate
    method instead of being folded away — two routes, one number.

    beta in Z_{>=0} would hit a zero denominator at k = beta; there the
    integral is the plain residue 2*pi*i*alpha^beta, returned directly with a
    diagnostic rather than raised (negative integers need no redirect: the
    jump factor vanishes and the sum is finite, so the product is exactly 0).
    """
    inst.require_alpha_off_circle()
    if inst.alpha_outside():
        raise EvaluationError("the direct series converges only for |alpha| < 1")
    diag = _base_diagnostics(inst)
    beta = inst.beta
    n = as_integer(beta)
    if n is not None and n >= 0:
        diag["beta_class"] = "nonnegative-integer-residue"
        value = _residue_value(inst, n)
        return MethodResult(value, METHOD_SERIES, 1e-15 * (1.0 + abs(value)), diag)

    diag["beta_class"] = "integer" if n is not None else "generic"
    prefactor, jump_err = cut_jump_with_bound(beta, inst.theta)  # refuses an overflow before the sum
    tol = min(1e-12, inst.tol)
    z = inst.alpha * cmath.exp(-1j * inst.theta_value)
    total = 1.0 / beta
    zk = complex(1.0)
    q = abs(z)
    geom = q / (1.0 - q) if q > 0 else 0.0
    tail = 0.0
    terms = 1
    converged = q == 0.0
    for k in range(1, max_terms):
        zk *= z
        term = zk / (beta - k)
        total += term
        terms = k + 1
        tail = abs(term) * geom
        if k > abs(beta) + 1 and tail <= tol * max(abs(total), 1.0):
            converged = True
            break
    diag["series_terms"] = terms
    diag["series_converged"] = converged
    value = prefactor * total
    rounding = _argument_rounding(-beta, z, beta * total) / abs(beta)  # total = F(-beta, z)/beta
    estimate = abs(prefactor) * (tail + 1e-15 * max(1.0, abs(total)) + rounding) + jump_err * abs(total)
    return MethodResult(value, METHOD_SERIES, estimate, diag)


def roots_of_unity_drift(n: int, d: int) -> tuple[float, float]:
    """roots_of_unity_filter's exact value and the distance of the float sum
    from it.  Angles are reduced with exact integer arithmetic ((j*d) mod n)
    before any trigonometry, so the drift measures roundoff in the sum."""
    exact = 1.0 if d % n == 0 else 0.0
    angles = [TWO_PI * ((j * d) % n) / n for j in range(n)]
    re = math.fsum(math.cos(a) for a in angles) / n
    im = math.fsum(math.sin(a) for a in angles) / n
    return exact, math.hypot(re - exact, im)


def roots_of_unity_filter(n: int, d: int) -> float:
    """(1/n) sum_{j=0}^{n-1} e^{2 pi i j d / n}: exactly 1.0 if n | d, else 0.0.

    The floating sum is recomputed alongside the exact answer and must agree
    to 1e-12 — a built-in diagnostic that the multisection filter used by the
    rational log sum really does select residues (see roots_of_unity_drift).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    exact, drift = roots_of_unity_drift(n, d)
    if drift > 1e-12:
        raise ArithmeticError(f"root-of-unity float sum drifted {drift:.3e} from the exact value {exact}")
    return exact


def hyp2f1_rational(z: complex, beta: RationalBeta, branch: int = 0) -> complex:
    """2F1(1, m/n; 1+m/n; z) for |z| < 1; the value of hyp2f1_rational_with_bound."""
    return hyp2f1_rational_with_bound(z, beta, branch)[0]


def hyp2f1_rational_with_bound(z: complex, beta: RationalBeta, branch: int = 0) -> tuple[complex, float]:
    """2F1(1, m/n; 1+m/n; z) as a finite sum of n logarithms, for |z| < 1,
    with a bound on its rounding error.

    With b = m/n and S(b) = sum_{k>=0} z^k / (b+k) (so the target is b*S(b)),
    the base exponent m0 = m mod n in (0, n) has the closed form

        S(m0/n) = -w^{-m0} * sum_{j=0}^{n-1} e^{-2 pi i j m0/n} * log(1 - e^{2 pi i j/n} w),

    where w is an n-th root of z: each logarithm expands into sum_l (r w)^l / l
    and averaging over the n-th roots of unity r with the e^{-2 pi i j m0/n}
    twist keeps exactly the powers l = m0 (mod n) — a root-of-unity
    multisection of -log(1 - w) aimed at the wanted residues.  General m is
    reached from m0 by the contiguous shifts

        S(b+1) = (S(b) - 1/b) / z        S(b-1) = 1/(b-1) + z*S(b),

    applied (m - m0)/n times.  Downward shifts contract errors (|z| < 1);
    upward shifts amplify by 1/|z| per step, so pushing m far above n at tiny
    |z| costs accuracy — callers at |z| >= 0.1 with |m| <= ~2n are safe to
    well beyond 1e-10.  The returned bound follows that: through each shift
    it scales the incoming error by 1/|z| or |z| and adds a rounding of the
    operands.

    branch selects the rotated root w * e^{2 pi i branch/n}.  Rotating the
    root permutes the summand set exactly: substituting j -> j - branch maps
    each rotated term onto a principal-root term, and the coefficient shift
    cancels the prefactor rotation through integer index arithmetic alone.
    The implementation realizes the rotation as that permutation (the
    rotated enumeration order is absorbed by exact fsum addition), so the
    returned value is identical to the last bit for every branch — the
    root choice is immaterial by construction, not merely to roundoff.
    Realizing it as a float multiplication instead would let the up-shift
    amplification magnify ulp-level branch noise at small |z|.

    Principal logarithms throughout (log 1 = 0): the sum is analytic on the
    disk slit from 1 outward and agrees with the series at z -> 0.  z = 0
    returns exactly 1, the series' value, as a special case, with bound 0.
    """
    z = complex(z)
    if z == 0:
        return complex(1.0), 0.0
    if abs(z) >= 1.0:
        raise ValueError(f"|z| = {abs(z):.6g} is outside the open unit disk")
    m, n = beta.m, beta.n
    m0 = m % n  # in 1..n-1 because gcd(m, n) = 1 and n >= 2
    shifts = (m - m0) // n
    w = cmath.exp(cmath.log(z) / n)
    roots = [cmath.exp(2j * math.pi * j / n) for j in range(n)]
    # Rotating the root by e^{2 pi i l/n} relabels summand j as j + l and
    # multiplies the prefactor by roots[(-l*m0) % n], which the relabelled
    # coefficients absorb exactly: (-l*m0) + (-(k-l)*m0) == -k*m0 (mod n).
    # After that exact cancellation only the enumeration order depends on
    # the branch, and fsum makes the addition order-independent.
    start = branch % n
    terms = [
        roots[(-k * m0) % n] * cmath.log(1.0 - roots[k] * w)
        for k in ((start + i) % n for i in range(n))
    ]
    acc = complex(
        math.fsum(t.real for t in terms),
        math.fsum(t.imag for t in terms),
    )
    s = -int_pow(w, -m0) * acc
    # Each log is off by eps times its size (at most -log(1 - |w|)) plus eps
    # over its argument (at least |1 - w|); w**-m0 adds about m0 roundings.
    err = _EPS * (abs(w) ** -m0 * n * (1.0 / abs(1.0 - w) - math.log1p(-abs(w))) + m0 * abs(s))
    b0 = m0 / n
    q = abs(z)
    if shifts > 0:
        for r in range(shifts):
            err = (err + 2.0 * _EPS * (abs(s) + 1.0 / (b0 + r))) / q
            s = (s - 1.0 / (b0 + r)) / z
    else:
        for r in range(-shifts):
            err = q * (err + 2.0 * _EPS * abs(s)) + 2.0 * _EPS / (r + 1.0 - b0)
            s = 1.0 / (b0 - r - 1.0) + z * s
    value = (m / n) * s
    return value, abs(m / n) * err + _EPS * abs(value)


def eval_rational_logsum(inst: ProblemInstance, beta: RationalBeta) -> MethodResult:
    """Circle integral via the finite log sum, for exactly rational exponents.

    Evaluates the same closed forms as eval_closed_form but with the
    hypergeometric factor computed by hyp2f1_rational — n logarithms and a
    handful of shifts instead of a truncated series, and therefore exact up
    to roundoff.  The instance's beta must match m/n (to 1e-9); mismatches
    are a caller bug, not a numerical condition.
    """
    inst.require_alpha_off_circle()
    if abs(inst.beta - beta.value) > 1e-9 * max(1.0, abs(beta.value)):
        raise ValueError(
            f"instance beta {inst.beta!r} does not match the rational exponent {beta.m}/{beta.n}"
        )
    diag = _base_diagnostics(inst)
    diag["m"] = beta.m
    diag["n"] = beta.n
    theta = inst.theta_value
    b = beta.value
    jump, jump_err = cut_jump_with_bound(b, inst.theta)
    prefactor = jump * (beta.n / beta.m)
    if inst.alpha_outside():
        # outside form carries 2F1(1, beta; 1+beta; .)
        z = cmath.exp(1j * theta) / inst.alpha
        used = beta
        g, g_err = hyp2f1_rational_with_bound(z, used)
        factor = 1.0 - g
    else:
        # inside form carries 2F1(1, -beta; 1-beta; .)
        z = inst.alpha * cmath.exp(-1j * theta)
        used = RationalBeta(-beta.m, beta.n)
        g, g_err = hyp2f1_rational_with_bound(z, used)
        factor = g
    value = prefactor * factor
    diag["up_shifts"] = max((used.m - used.m % used.n) // used.n, 0)
    estimate = abs(prefactor) * (g_err + _argument_rounding(used.value, z, g)) + jump_err / abs(b) * abs(factor)
    return MethodResult(value, METHOD_RATIONAL, estimate, diag)


def check_reconciliation(inst: ProblemInstance, quad_tol: float = 1e-10) -> float:
    """Residual of the identity tying the Euler integral across regimes.

    For 0 < |alpha| < 1 the Euler integral that powers the |alpha| > 1 closed
    form can still be evaluated at w = e^{i theta}/alpha (now |w| > 1, with
    the pole 1/w = alpha e^{-i theta} off the path as long as Arg(alpha) !=
    theta); it equals the |alpha| < 1 form up to the contribution of that
    pole:

        integral_0^1 t^{beta-1}/(1 - w t) dt
            = 2 pi i e^{beta (log_theta(alpha) - i theta)} / (1 - e^{-2 pi i beta})
              + (1/beta) (1 - 2F1(1, -beta; 1-beta; alpha e^{-i theta})).

    The left side is quadrature, the right side closed forms, so the residual
    is a genuine cross-regime consistency check.  The pole term's power uses
    the theta-cut logarithm of alpha, shifted by the ray rotation — matching
    the two banks of the cut forces that branch; the principal one is wrong
    for cuts far from theta = pi.

    Preconditions: 0 < |alpha| < 1 (off the exclusion band), Re(beta) > 0,
    beta not a nonnegative integer, Arg(alpha) != theta.
    """
    inst.require_alpha_off_circle()
    alpha, beta = inst.alpha, inst.beta
    theta = inst.theta_value
    if alpha == 0:
        raise ZeroInput("the identity needs the pole strictly inside: alpha != 0")
    if abs(alpha) >= 1.0:
        raise EvaluationError("the identity is stated for |alpha| < 1")
    if beta.real <= 0.0:
        raise DivergentAtZero(f"Re(beta) = {beta.real:g} <= 0: both sides diverge at t = 0")
    nb = as_integer(beta)
    if nb is not None and nb >= 0:
        raise BetaNonNegativeInteger(f"beta = {beta!r}: the pole term's denominator vanishes")
    try:
        log_alpha = branch_log(alpha, inst.theta).log_value
    except OnBranchCut as exc:
        raise AlphaOnCut(str(exc)) from exc
    w = cmath.exp(1j * theta) / alpha
    lhs = euler_integral(w, beta, tol=quad_tol).value
    pole_term = 2j * math.pi * cmath.exp(beta * (log_alpha - 1j * theta)) / (1.0 - cmath.exp(-2j * math.pi * beta))
    series = hyp2f1_one_b(-beta, alpha * cmath.exp(-1j * theta), tol=min(1e-12, inst.tol))
    rhs = pole_term + (1.0 - series.value) / beta
    return abs(lhs - rhs) / max(abs(rhs), 1.0)
