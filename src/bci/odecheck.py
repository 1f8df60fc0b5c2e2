"""Second-order ODEs in alpha satisfied by the circle integral.

Fix beta and theta and let I(alpha) denote the integral.  Differentiating
the closed forms twice and eliminating the hypergeometric factor leaves a
linear ODE with polynomial coefficients in alpha:

    |alpha| > 1:
        (alpha^2 - alpha^3 e^{-i theta}) I'' +
        ((beta-1) e^{-i theta} alpha^2 - beta alpha) I' + beta I
            = cut_jump_factor(beta, theta)

    |alpha| < 1:
        (alpha e^{i theta} - alpha^2) I'' +
        ((1-beta) e^{i theta} - (2-beta) alpha) I' + beta I = 0

Verifying that independently computed values satisfy these equations is a
differential check that no pointwise comparison replicates: it exercises the
alpha-dependence of the implementation, not just isolated values.
ode_residuals, which run_verify's ode check calls, takes the derivative terms
p2 I'' + p1 I' as one contour integral, differentiated under the integral
sign (quadrature.circle_ode_integrals), and I from closedform.eval_closed_form,
the closed form eval runs, at tol 1e-15: one closed form and one contour
integral per instance, and a residual at rounding level.  ode_residual is the
five-point stencil over closed forms, kept as API for its fourth-order
halving law; its points carry tol 1e-15, which sums each series that far, so
the differences stay truncation-limited.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import Literal, NamedTuple

import numpy as np

from .branchcut import ProblemInstance, as_integer, cut_jump_factor
from .closedform import eval_closed_form
from .errors import IntegerBeta, RegimeStraddle
from .quadrature import circle_ode_integrals

__all__ = [
    "INFINITY",
    "OdeCoefficients",
    "OdeResidual",
    "ode_coefficients_outside",
    "ode_coefficients_inside",
    "coefficients_for",
    "ode_residual",
    "ode_residuals",
    "singular_points",
]

DEFAULT_STEP = 1e-3

#: Sentinel for the point at infinity in singular_points output.
INFINITY = float("inf")

#: singular_points: roots of p2 closer than this (relative to the largest)
#: are one point, and a remainder this small (relative to the dividend)
#: counts as zero in an order of vanishing.
_ROOT_TOL = 1e-9


class OdeCoefficients(NamedTuple):
    """Polynomial data for  p2(a) I'' + p1(a) I' + zero_order I = rhs.

    p2 and p1 hold ascending coefficient tuples (constant term first); the
    zero-order coefficient and the right-hand side are constants in alpha.
    """

    p2: tuple[complex, ...]
    p1: tuple[complex, ...]
    zero_order: complex
    rhs: complex
    regime: Literal["inside", "outside"]


class OdeResidual(NamedTuple):
    lhs_minus_rhs: complex
    relative_residual: float
    step: float


def ode_coefficients_outside(beta: complex, theta: float) -> OdeCoefficients:
    w = cmath.exp(-1j * theta)
    return OdeCoefficients(
        p2=(0j, 0j, complex(1.0), -w),
        p1=(0j, -beta, (beta - 1.0) * w),
        zero_order=complex(beta),
        rhs=cut_jump_factor(beta, theta),
        regime="outside",
    )


def ode_coefficients_inside(beta: complex, theta: float) -> OdeCoefficients:
    w = cmath.exp(1j * theta)
    return OdeCoefficients(
        p2=(0j, w, complex(-1.0)),
        p1=((1.0 - beta) * w, -(2.0 - beta)),
        zero_order=complex(beta),
        rhs=0j,
        regime="inside",
    )


def coefficients_for(inst: ProblemInstance) -> OdeCoefficients:
    inst.require_alpha_off_circle()
    if inst.alpha_outside():
        return ode_coefficients_outside(inst.beta, inst.theta)
    return ode_coefficients_inside(inst.beta, inst.theta)


def _poly_at(coeffs: tuple[complex, ...], a: complex) -> complex:
    acc = complex(0.0)
    for c in reversed(coeffs):
        acc = acc * a + c
    return acc


def _refuse_integer(beta: complex) -> None:
    n = as_integer(beta)
    if n is not None:
        raise IntegerBeta(f"beta = {n}: the integral is piecewise trivial in alpha and the ODE check is vacuous")


def _band_guard(inst: ProblemInstance, offsets: tuple[float, ...], h: float) -> None:
    """All stencil points must sit strictly on inst.alpha's side of |a| = 1."""
    outside = inst.alpha_outside()
    band = inst.exclusion_band
    for k in offsets:
        a = inst.alpha + k * h
        r = abs(a)
        if abs(r - 1.0) <= band or (r > 1.0) != outside:
            raise RegimeStraddle(
                f"stencil point alpha + {k:g}*h = {a:.6g} leaves the "
                f"{'outside' if outside else 'inside'} regime (|a| = {r:.6g}, band {band:g})"
            )


def ode_residual(inst: ProblemInstance, h: float = DEFAULT_STEP) -> OdeResidual:
    """Finite-difference residual of the regime ODE at inst.alpha.

    I is evaluated by the closed form at five stencil points displaced along
    the real direction (I is analytic in alpha off the circle and cut, so any
    fixed direction serves), with fourth-order central differences:

        I'  = (-I2 + 8 I1 - 8 I-1 + I-2) / (12 h)
        I'' = (-I2 + 16 I1 - 30 I0 + 16 I-1 - I-2) / (12 h^2)

    The truncation error scales as h^4, so halving h should shrink the
    residual by ~16x until series tolerance (~1e-15/h^2) takes over; the
    conservative acceptance factor is 8.  The relative residual is the
    defect over the natural scale of the equation at this point.

    h must be positive with 12 h^2 a normal float, finite, as the second
    difference divides by it.  The instance is checked before any value
    (IntegerBeta, then RegimeStraddle for a stencil that leaves its regime);
    then each stencil point is an eval_closed_form call at tol 1e-15.
    """
    if not (h > 0.0 and sys.float_info.min <= 12.0 * h * h < math.inf):
        raise ValueError(f"step h must be positive and finite, with 12 h^2 a normal float, got {h!r}")
    offsets = (-2.0, -1.0, 0.0, 1.0, 2.0)
    _refuse_integer(inst.beta)
    _band_guard(inst, offsets, h)
    coeffs = coefficients_for(inst)
    a = inst.alpha
    i_m2, i_m1, i_0, i_p1, i_p2 = (
        eval_closed_form(ProblemInstance(a + k * h, inst.beta, inst.theta, 1e-15, inst.exclusion_band)).value
        for k in offsets
    )
    d1 = (-i_p2 + 8.0 * i_p1 - 8.0 * i_m1 + i_m2) / (12.0 * h)
    d2 = (-i_p2 + 16.0 * i_p1 - 30.0 * i_0 + 16.0 * i_m1 - i_m2) / (12.0 * h * h)
    p2, p1 = _poly_at(coeffs.p2, a), _poly_at(coeffs.p1, a)
    defect = p2 * d2 + p1 * d1 + coeffs.zero_order * i_0 - coeffs.rhs
    scale = max(abs(coeffs.rhs), max(abs(p2), abs(p1), abs(coeffs.zero_order)) * max(abs(d2), abs(d1), abs(i_0)), 1.0)
    return OdeResidual(lhs_minus_rhs=defect, relative_residual=abs(defect) / scale, step=h)


def ode_residuals(insts: list[ProblemInstance]) -> list[float]:
    """Relative residual of the regime ODE at each instance,
    |J + beta I - rhs| / max(|rhs|, |J|, |beta I|, 1).

    J = p2 I'' + p1 I' is one contour integral, of
    z^beta (2 p2 + p1 (z - alpha)) / (z - alpha)^3 with p2 and p1 at alpha
    (quadrature.circle_ode_integrals), and I is eval_closed_form at tol 1e-15.
    Every instance is checked before any integral (IntegerBeta, AlphaOnCircle,
    NonFiniteValue for an integrand that could overflow); a contour integral
    that stops unconverged raises SlowConvergence.
    """
    coeffs = []
    for inst in insts:
        _refuse_integer(inst.beta)
        coeffs.append(coefficients_for(inst))
    numerators = [(2.0 * _poly_at(c.p2, inst.alpha), _poly_at(c.p1, inst.alpha)) for inst, c in zip(insts, coeffs)]
    residuals = []
    for inst, c, integral in zip(insts, coeffs, circle_ode_integrals(insts, numerators)):
        j = integral.converged_value("ODE contour integral")
        point = ProblemInstance(inst.alpha, inst.beta, inst.theta, 1e-15, inst.exclusion_band)
        i0 = c.zero_order * eval_closed_form(point).value
        residuals.append(abs(j + i0 - c.rhs) / max(abs(c.rhs), abs(j), abs(i0), 1.0))
    return residuals


def _order(p: np.ndarray, r: complex) -> float:
    """Order of vanishing at r of p (descending coefficients, no leading
    zeros), by repeated np.polydiv by (a - r); a remainder within _ROOT_TOL
    of the dividend's scale counts as zero.  Infinite for the zero polynomial."""
    if not p.any():
        return math.inf
    order = 0
    while len(p) > 1:
        quot, rem = np.polydiv(p, [1.0, -r])
        if abs(rem[-1]) > _ROOT_TOL * max(np.abs(p).max(), 1.0):
            break
        p, order = quot, order + 1
    return order


def singular_points(coeffs: OdeCoefficients) -> list[tuple[complex | float, str]]:
    """Singular points of the homogeneous equation, each classified as
    "Regular" or "Irregular" (Fuchsian criterion); returns [] only if the
    leading coefficient is constant and infinity is an ordinary point.

    Finite candidates are the roots of p2 (np.roots).  A root r is regular
    iff ord_r(p2) - ord_r(p1) <= 1 and ord_r(p2) - ord_r(c) <= 2, where c
    is the constant zero-order coefficient, with the orders of vanishing
    found by repeated division by (a - r).  Infinity is ordinary iff
    2a - a^2 p1/p2 and a^4 c/p2 stay bounded as a -> infinity, i.e. iff
    deg(a^2 p1 - 2a p2) <= deg p2, and c = 0 or deg p2 >= 4; a singular
    infinity is regular iff a p1/p2 and a^2 c/p2 stay bounded, i.e. iff
    deg p1 < deg p2, and c = 0 or deg p2 >= 2 (the zero polynomial has
    degree -1).

    Finite points are sorted by (real, imag); infinity, when singular, is
    appended last with the INFINITY sentinel.  Classification strings are
    exactly "Regular" and "Irregular".
    """
    p2, p1 = (np.trim_zeros(np.array(p[::-1], dtype=complex), "f") for p in (coeffs.p2, coeffs.p1))
    has_c = coeffs.zero_order != 0
    out: list[tuple[complex | float, str]] = []

    if len(p2) > 1:
        roots = np.roots(p2)
        seen: list[complex] = []
        scale = max(1.0, max(abs(r) for r in roots))
        for raw in roots:
            r = complex(raw)
            if any(abs(r - s) <= _ROOT_TOL * scale for s in seen):
                continue
            seen.append(r)
        seen.sort(key=lambda r: (r.real, r.imag))
        for r in seen:
            m2 = _order(p2, r)
            regular = m2 - _order(p1, r) <= 1 and (not has_c or m2 <= 2)
            out.append((r, "Regular" if regular else "Irregular"))

    q = np.trim_zeros(np.polysub(np.append(p1, [0.0, 0.0]), np.append(2.0 * p2, 0.0)), "f")
    deg2 = len(p2) - 1
    if len(q) - 1 > deg2 or (has_c and deg2 < 4):
        regular = len(p1) - 1 < deg2 and (not has_c or deg2 >= 2)
        out.append((INFINITY, "Regular" if regular else "Irregular"))
    return out
