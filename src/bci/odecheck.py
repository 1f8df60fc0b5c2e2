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

Verifying that independently computed values of I satisfy these equations —
to fourth order in the finite-difference step — is a differential check that
no pointwise comparison replicates: it exercises the alpha-dependence of the
implementation, not just isolated values.  ode_residuals checks a list of
instances with one batch of closed-form values at all their stencil points
(closedform.eval_closed_forms, the floats of eval_closed_form at each
point).  The points carry tol 1e-15, which sums each series that far, so the
differences stay truncation-limited; ode_residual is its one-instance form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .branchcut import ProblemInstance, as_integer, cut_jump_factor
from .closedform import eval_closed_forms
from .errors import IntegerBeta, RegimeStraddle

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


@dataclass(frozen=True)
class OdeCoefficients:
    """Polynomial data for  p2(a) I'' + p1(a) I' + zero_order I = rhs.

    p2 and p1 hold ascending coefficient tuples (constant term first); the
    zero-order coefficient and the right-hand side are constants in alpha.
    """

    p2: tuple[complex, ...]
    p1: tuple[complex, ...]
    zero_order: complex
    rhs: complex
    regime: Literal["inside", "outside"]


@dataclass(frozen=True)
class OdeResidual:
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


def ode_residuals(insts: list[ProblemInstance], h: float = DEFAULT_STEP) -> list[OdeResidual]:
    """Finite-difference residual of the regime ODE at each inst.alpha.

    I is evaluated by the closed form at five stencil points displaced along
    the real direction (I is analytic in alpha off the circle and cut, so any
    fixed direction serves), with fourth-order central differences:

        I'  = (-I2 + 8 I1 - 8 I-1 + I-2) / (12 h)
        I'' = (-I2 + 16 I1 - 30 I0 + 16 I-1 - I-2) / (12 h^2)

    The truncation error scales as h^4, so halving h should shrink the
    residual by ~16x until series tolerance (~1e-15/h^2) takes over; the
    conservative acceptance factor is 8.  The relative residual is the
    defect over the natural scale of the equation at this point.

    h must be finite and positive.  Every instance is checked first, in
    order (IntegerBeta, then RegimeStraddle for a stencil that leaves its
    regime); then the 5 values per instance are one eval_closed_forms batch
    over stencil points of tol 1e-15, the floats eval_closed_form gives each
    point.
    """
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"step h must be positive and finite, got {h!r}")
    offsets = (-2.0, -1.0, 0.0, 1.0, 2.0)
    coeffs = []
    for inst in insts:
        n = as_integer(inst.beta)
        if n is not None:
            raise IntegerBeta(
                f"beta = {n}: the integral is piecewise trivial in alpha and the ODE check is vacuous"
            )
        _band_guard(inst, offsets, h)
        coeffs.append(coefficients_for(inst))
    points = [ProblemInstance(i.alpha + k * h, i.beta, i.theta, 1e-15, i.exclusion_band) for i in insts for k in offsets]
    values = [r.value for r in eval_closed_forms(points)]
    return [
        _residual(inst.alpha, c, values[5 * j : 5 * j + 5], h) for j, (inst, c) in enumerate(zip(insts, coeffs))
    ]


def _residual(a: complex, coeffs: OdeCoefficients, values: list[complex], h: float) -> OdeResidual:
    """ode_residuals' stencil at a, from I at a - 2h, a - h, a, a + h, a + 2h."""
    i_m2, i_m1, i_0, i_p1, i_p2 = values
    d1 = (-i_p2 + 8.0 * i_p1 - 8.0 * i_m1 + i_m2) / (12.0 * h)
    d2 = (-i_p2 + 16.0 * i_p1 - 30.0 * i_0 + 16.0 * i_m1 - i_m2) / (12.0 * h * h)
    lhs = _poly_at(coeffs.p2, a) * d2 + _poly_at(coeffs.p1, a) * d1 + coeffs.zero_order * i_0
    defect = lhs - coeffs.rhs
    scale = max(
        abs(coeffs.rhs),
        max(abs(_poly_at(coeffs.p2, a)), abs(_poly_at(coeffs.p1, a)), abs(coeffs.zero_order))
        * max(abs(d2), abs(d1), abs(i_0)),
        1.0,
    )
    return OdeResidual(lhs_minus_rhs=defect, relative_residual=abs(defect) / scale, step=h)


def ode_residual(inst: ProblemInstance, h: float = DEFAULT_STEP) -> OdeResidual:
    """ode_residuals for the one instance."""
    return ode_residuals([inst], h)[0]


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
