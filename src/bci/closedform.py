"""Closed forms for the circle integral of z**beta / (z - alpha).

Everything is organised around one identity.  Write F(b, z) for
2F1(1, b; 1+b; z) and P for cut_jump_factor(beta, theta).  Then, for
non-integer beta,

    |alpha| > 1:   I = (P/beta) * (1 - F(beta,  e^{i theta} / alpha))
    |alpha| < 1:   I = (P/beta) * F(-beta, alpha e^{-i theta})

while integer beta collapses to the residue values 0 and +-2*pi*i*alpha^beta
with no series involved.  The finite sum of logarithms for rational beta
evaluates F by a different computation.  The direct termwise series is the
|alpha| < 1 closed form rearranged on the same z, jump, powers and term
count, so it checks nothing the closed form does not and runs only by name.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import Any, NamedTuple

import numpy as np

from .branchcut import (
    TWO_PI,
    ProblemInstance,
    as_integer,
    branch_arg,
    branch_pow,
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
    SlowConvergence,
    ZeroInput,
)
from .hypergeometric import _powers, _series_length, hyp2f1_one_b
from .quadrature import euler_integrals

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
    "check_reconciliations",
]

# Wire-format method names used in reports; fixed, do not localise.
METHOD_CLOSED_FORM = "TheoremHypergeometric"
METHOD_SERIES = "SeriesDirect"
METHOD_RATIONAL = "RationalLogSum"
METHOD_QUADRATURE = "Quadrature"


class MethodResult(NamedTuple):
    """One method's value for one instance, with an honest error estimate.

    diagnostics always records the regime (inside/outside the unit circle)
    and the beta classification; methods add whatever else explains their run
    (series term counts, shift counts, convergence flags...).
    """

    value: complex
    method: str
    error_estimate: float
    diagnostics: dict[str, Any]


class _Fraction(NamedTuple):
    m: int
    n: int


class RationalBeta(_Fraction):
    """Exact rational exponent m/n, normalised to lowest terms with n >= 2.

    Built only from caller-supplied integers — floats are never silently
    reinterpreted as fractions.  A pair that reduces to an integer raises
    IntegerBeta: the log-sum route needs a genuine fraction.  Like
    ProblemInstance, an immutable named tuple checked on every construction.
    """

    __slots__ = ()

    def __new__(cls, m: int, n: int) -> RationalBeta:
        m, n = int(m), int(n)
        if n == 0:
            raise ValueError("denominator must be nonzero")
        if n < 0:
            m, n = -m, -n
        g = math.gcd(abs(m), n)
        if g > 1:
            m //= g
            n //= g
        if n == 1:
            raise IntegerBeta(f"{m}/{n} reduces to an integer; the log-sum form needs a genuine fraction")
        return super().__new__(cls, m, n)

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def value(self) -> float:
        return self.m / self.n

    def matches(self, beta: complex) -> bool:
        """Whether beta is m/n to within 1e-9 * max(1, |m/n|); a wider gap is
        a caller's mistake, not a numerical condition."""
        return abs(beta - self.value) <= 1e-9 * max(1.0, abs(self.value))


def _regime(inst: ProblemInstance) -> tuple[bool, dict[str, Any], complex]:
    """The setup the three closed-form routes share, once alpha is off the
    band: (whether alpha is outside the circle, the base diagnostics, the
    series argument z = e^{i theta}/alpha outside or alpha e^{-i theta}
    inside).  The diagnostics give the regime and whether alpha is on the cut."""
    inst.require_alpha_off_circle()
    outside = inst.alpha_outside()
    diag: dict[str, Any] = {"regime": "outside" if outside else "inside"}
    if inst.alpha != 0:
        try:
            branch_arg(inst.alpha, inst.theta)
        except OnBranchCut:
            # The formulas below never take a branch power of alpha itself, so
            # this is informational: related identities (residue terms) do.
            diag["alpha_arg_on_cut"] = True
    z = cmath.exp(1j * inst.theta) / inst.alpha if outside else inst.alpha * cmath.exp(-1j * inst.theta)
    return outside, diag, z


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


def eval_closed_form(inst: ProblemInstance) -> MethodResult:
    """Hypergeometric closed form of the circle integral (both regimes).

    Integer beta returns the exact residue case; otherwise the identity at
    the top of this module is evaluated with the fast 2F1(1, b; 1+b; .) series
    up to the band, to the tighter of 1e-12 and the instance tolerance.
    """
    outside, diag, z = _regime(inst)
    beta = inst.beta
    n = as_integer(beta)
    if n is not None:
        diag["beta_class"] = "integer"
        value = _residue_value(inst, n)
        return MethodResult(value, METHOD_CLOSED_FORM, 1e-15 * (1.0 + abs(value)), diag)

    diag["beta_class"] = "generic"
    jump, jump_err = cut_jump_with_bound(beta, inst.theta)
    b = beta if outside else -beta
    series = hyp2f1_one_b(b, z, tol=min(1e-12, inst.tol))
    prefactor = jump / beta
    factor = 1.0 - series.value if outside else series.value
    value = prefactor * factor
    diag["series_terms"] = series.terms_used
    rounding = 1e-15 * max(1.0, abs(series.value)) + _argument_rounding(b, z, series.value)
    estimate = abs(prefactor) * (series.tail_estimate + rounding) + jump_err / abs(beta) * abs(factor)
    return MethodResult(value, METHOD_CLOSED_FORM, estimate, diag)


def eval_direct_series(inst: ProblemInstance) -> MethodResult:
    """Direct termwise series for |alpha| < 1:

        I = cut_jump_factor(beta, theta) * sum_{k>=0} alpha^k e^{-i k theta} / (beta - k).

    Expanding 1/(z - alpha) geometrically on |z| = 1 and integrating the
    branch powers term by term gives this sum: the |alpha| < 1 closed form
    divided through by beta, on the closed form's own z (_regime), jump,
    powers and term count (_series_length).  A fault in those moves both
    alike, so it is no independent route and evaluate_instance runs it only
    by name.  Its terms z^k/(beta - k) are |b/(b+k) z^k|/|beta| in modulus
    with b = -beta, so it takes the term count of hyp2f1_one_b at tol |beta|,
    from K > |beta| + 1, and raises SlowConvergence before summing when its
    term cap stops it short.

    beta in Z_{>=0} puts a zero denominator at k = beta and is refused with
    BetaNonNegativeInteger; the closed form's residue table covers it.
    Negative integers need no refusal: the sum is finite and the jump factor
    is 0 up to its rounding, so the value is roundoff where the residue
    theorem gives 0, and the estimate covers it through the jump's rounding
    bound.
    """
    outside, diag, z = _regime(inst)
    if outside:
        raise EvaluationError("the direct series converges only for |alpha| < 1")
    beta = inst.beta
    n = as_integer(beta)
    if n is not None and n >= 0:
        raise BetaNonNegativeInteger(f"beta = {n}: the direct series term k = {n} has a zero denominator")
    diag["beta_class"] = "integer" if n is not None else "generic"
    prefactor, jump_err = cut_jump_with_bound(beta, inst.theta)  # refuses an overflow before the sum
    tol = min(1e-12, inst.tol)
    last, tail = _series_length(-beta, abs(z), tol * abs(beta), math.floor(abs(beta) + 1.0) + 1)
    if tail > tol * abs(beta):
        raise SlowConvergence(f"the direct series needs more than {last + 1} terms at |z| = {abs(z):.6g}")
    total = complex(1.0 / beta + np.add.reduce(_powers(z, last) / (beta - np.arange(1.0, last + 1))))
    diag["series_terms"] = last + 1
    value = prefactor * total
    rounding = _argument_rounding(-beta, z, beta * total) / abs(beta)  # total = F(-beta, z)/beta
    estimate = abs(prefactor) * (tail / abs(beta) + 1e-15 * max(1.0, abs(total)) + rounding) + jump_err * abs(total)
    return MethodResult(value, METHOD_SERIES, estimate, diag)


def roots_of_unity_drift(n: int, d: int) -> tuple[float, float]:
    """roots_of_unity_filter's exact value and the distance of the float sum
    from it.  Angles are reduced with exact integer arithmetic before any
    trigonometry, so the drift measures roundoff in the sum.

    The sum depends on d only through g = gcd(n, d): the residues
    (j*d) mod n, 0 <= j < n, are the n/g multiples of g, each taken g
    times.  So only those n/g angles are evaluated, and each list is summed
    g times over.  math.fsum rounds the exact sum of its inputs once,
    whatever their order, so the result has the same bits as the sum over
    j itself.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    g = math.gcd(n, d)
    exact = 1.0 if g == n else 0.0
    angles = [TWO_PI * r / n for r in range(0, n, g)]
    re = math.fsum([math.cos(a) for a in angles] * g) / n
    im = math.fsum([math.sin(a) for a in angles] * g) / n
    return exact, math.hypot(re - exact, im)


def roots_of_unity_filter(n: int, d: int) -> float:
    """(1/n) sum_{j=0}^{n-1} e^{2 pi i j d / n}: exactly 1.0 if n | d, else 0.0.

    This is the multisection identity behind the rational log sum, which
    computes its multisection itself and does not call it; the tests hold
    it to the exact value.  The float sum is recomputed alongside the
    exact answer and must agree to 1e-12, else ArithmeticError.  It depends
    on d only through gcd(n, d) (see roots_of_unity_drift), and fsum keeps
    the sum over those residue classes bit for bit equal to the sum over j.
    """
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
    if not abs(z) < 1.0:  # a z that is not finite too
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
    to roundoff.  The instance's beta must match m/n (RationalBeta.matches),
    checked once alpha is off the band; a mismatch raises ValueError.
    """
    outside, diag, z = _regime(inst)
    if not beta.matches(inst.beta):
        raise ValueError(
            f"instance beta {inst.beta!r} does not match the rational exponent {beta.m}/{beta.n}"
        )
    diag["m"] = beta.m
    diag["n"] = beta.n
    b = beta.value
    jump, jump_err = cut_jump_with_bound(b, inst.theta)
    prefactor = jump * (beta.n / beta.m)
    # the outside form carries 2F1(1, beta; 1+beta; .), the inside one 2F1(1, -beta; 1-beta; .)
    used = beta if outside else RationalBeta(-beta.m, beta.n)
    g, g_err = hyp2f1_rational_with_bound(z, used)
    factor = 1.0 - g if outside else g
    value = prefactor * factor
    diag["up_shifts"] = max((used.m - used.m % used.n) // used.n, 0)
    estimate = abs(prefactor) * (g_err + _argument_rounding(used.value, z, g)) + jump_err / abs(b) * abs(factor)
    return MethodResult(value, METHOD_RATIONAL, estimate, diag)


def check_reconciliations(insts: list[ProblemInstance]) -> list[float]:
    """Residual of the identity tying the Euler integral across regimes, for
    each instance; the Euler integrals are one batch.

    For 0 < |alpha| < 1 the Euler integral that powers the |alpha| > 1 closed
    form can still be evaluated at w = e^{i theta}/alpha (now |w| > 1, with
    the pole 1/w = alpha e^{-i theta} off the path as long as Arg(alpha) !=
    theta); it equals the |alpha| < 1 form up to the contribution of that
    pole:

        integral_0^1 t^{beta-1}/(1 - w t) dt
            = 2 pi i e^{beta (log_theta(alpha) - i theta)} / (1 - e^{-2 pi i beta})
              + (1/beta) (1 - 2F1(1, -beta; 1-beta; alpha e^{-i theta})).

    The left side is quadrature, the right side closed forms, so the residual
    is a genuine cross-regime consistency check.  It runs on eval's pieces:
    w = 1/z with z from _regime, and the pole term is 2 pi i times the
    theta-cut branch_pow(alpha, beta, theta) (the branch that matches the two
    banks of the cut) over the jump e^{i beta theta} (1 - e^{-2 pi i beta}) of
    cut_jump_with_bound.  A finite jump keeps the pole term finite: the power
    is below the jump's larger exponential (Re beta > 0, |alpha| < 1), and
    beta is more than 1e-12 from an integer.

    Preconditions: 0 < |alpha| < 1 (off the exclusion band), Re(beta) > 0,
    beta not a nonnegative integer, Arg(alpha) != theta.  A jump that
    overflows raises NonFiniteValue, before any integral; an Euler
    integral that stopped unconverged, or a series capped short of its
    tolerance, raises SlowConvergence.
    """
    poles, zs = [], []
    for inst in insts:
        zs.append(_regime(inst)[2])  # eval's series argument, alpha e^{-i theta} for |alpha| < 1
        alpha, beta = inst.alpha, inst.beta
        if alpha == 0:
            raise ZeroInput("the identity needs the pole strictly inside: alpha != 0")
        if abs(alpha) >= 1.0:
            raise EvaluationError("the identity is stated for |alpha| < 1")
        if beta.real <= 0.0:
            raise DivergentAtZero(f"Re(beta) = {beta.real:g} <= 0: both sides diverge at t = 0")
        nb = as_integer(beta)
        if nb is not None and nb >= 0:
            raise BetaNonNegativeInteger(f"beta = {beta!r}: the pole term's denominator vanishes")
        jump = cut_jump_with_bound(beta, inst.theta)[0]
        try:
            poles.append(2j * math.pi * branch_pow(alpha, beta, inst.theta) / jump)
        except OnBranchCut as exc:
            raise AlphaOnCut(str(exc)) from exc
    lhs = euler_integrals([1.0 / z for z in zs], [inst.beta for inst in insts])
    sums = [hyp2f1_one_b(-inst.beta, z, min(1e-12, inst.tol)) for inst, z in zip(insts, zs)]
    residuals = []
    for inst, pole, left, series in zip(insts, poles, lhs, sums):
        rhs = pole + (1.0 - series.value) / inst.beta
        residuals.append(abs(left.converged_value("Euler integral") - rhs) / max(abs(rhs), 1.0))
    return residuals


def check_reconciliation(inst: ProblemInstance) -> float:
    """check_reconciliations for the one instance."""
    return check_reconciliations([inst])[0]
