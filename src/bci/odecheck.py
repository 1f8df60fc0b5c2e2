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
implementation, not just isolated values.
"""

from __future__ import annotations

import cmath
import dataclasses
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .branchcut import ProblemInstance, as_integer, cut_jump_factor
from .closedform import eval_closed_form
from .errors import IntegerBeta, RegimeStraddle

__all__ = [
    "INFINITY",
    "OdeCoefficients",
    "OdeResidual",
    "ode_coefficients_outside",
    "ode_coefficients_inside",
    "coefficients_for",
    "ode_residual",
    "singular_points",
]

DEFAULT_STEP = 1e-3

#: Sentinel for the point at infinity in singular_points output.
INFINITY = float("inf")


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
        return ode_coefficients_outside(inst.beta, inst.theta_value)
    return ode_coefficients_inside(inst.beta, inst.theta_value)


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


def ode_residual(inst: ProblemInstance, h: float = DEFAULT_STEP) -> OdeResidual:
    """Finite-difference residual of the regime ODE at inst.alpha.

    I is evaluated by eval_closed_form at five stencil points displaced along
    the real direction (I is analytic in alpha off the circle and cut, so any
    fixed direction serves), with fourth-order central differences:

        I'  = (-I2 + 8 I1 - 8 I-1 + I-2) / (12 h)
        I'' = (-I2 + 16 I1 - 30 I0 + 16 I-1 - I-2) / (12 h^2)

    The truncation error scales as h^4, so halving h should shrink the
    residual by ~16x until series tolerance (~1e-15/h^2) takes over; the
    conservative acceptance factor is 8.  The relative residual is the
    defect over the natural scale of the equation at this point.
    """
    if h <= 0.0:
        raise ValueError("step h must be positive")
    n = as_integer(inst.beta)
    if n is not None:
        raise IntegerBeta(
            f"beta = {n}: the integral is piecewise trivial in alpha and the ODE check is vacuous"
        )
    offsets = (-2.0, -1.0, 0.0, 1.0, 2.0)
    _band_guard(inst, offsets, h)
    coeffs = coefficients_for(inst)
    values = [
        eval_closed_form(dataclasses.replace(inst, alpha=inst.alpha + k * h), series_tol=1e-15).value
        for k in offsets
    ]
    i_m2, i_m1, i_0, i_p1, i_p2 = values
    d1 = (-i_p2 + 8.0 * i_p1 - 8.0 * i_m1 + i_m2) / (12.0 * h)
    d2 = (-i_p2 + 16.0 * i_p1 - 30.0 * i_0 + 16.0 * i_m1 - i_m2) / (12.0 * h * h)
    a = inst.alpha
    lhs = _poly_at(coeffs.p2, a) * d2 + _poly_at(coeffs.p1, a) * d1 + coeffs.zero_order * i_0
    defect = lhs - coeffs.rhs
    scale = max(
        abs(coeffs.rhs),
        max(abs(_poly_at(coeffs.p2, a)), abs(_poly_at(coeffs.p1, a)), abs(coeffs.zero_order))
        * max(abs(d2), abs(d1), abs(i_0)),
        1.0,
    )
    return OdeResidual(lhs_minus_rhs=defect, relative_residual=abs(defect) / scale, step=h)


def _trim_zeros(coeffs: tuple[complex, ...]) -> tuple[complex, ...]:
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _valuation(coeffs: tuple[complex, ...]) -> int:
    """Order of vanishing at 0; len(coeffs) if identically zero."""
    for k, c in enumerate(coeffs):
        if c != 0:
            return k
    return len(coeffs)


def _root_multiplicity(coeffs: tuple[complex, ...], r: complex, tol: float) -> int:
    """Multiplicity of r as a root, by repeated synthetic division."""
    work = list(reversed(_trim_zeros(coeffs)))  # descending
    mult = 0
    scale = max(abs(c) for c in work)
    while len(work) > 1:
        quot: list[complex] = []
        acc = complex(0.0)
        for c in work:
            acc = acc * r + c
            quot.append(acc)
        rem = quot.pop()
        if abs(rem) > tol * max(scale, 1.0):
            break
        mult += 1
        work = quot
        scale = max((abs(c) for c in work), default=1.0)
    return mult


def _reversed_poly(coeffs: tuple[complex, ...], degree: int) -> tuple[complex, ...]:
    """Ascending coefficients of x^degree * p(1/x) for ascending p."""
    out = [complex(0.0)] * (degree + 1)
    for k, c in enumerate(coeffs):
        out[degree - k] = complex(c)
    return tuple(out)


def _shift_up(coeffs: tuple[complex, ...], power: int) -> tuple[complex, ...]:
    return tuple([complex(0.0)] * power) + tuple(complex(c) for c in coeffs)


def _scale(coeffs: tuple[complex, ...], factor: complex) -> tuple[complex, ...]:
    return tuple(factor * c for c in coeffs)


def _add(a: tuple[complex, ...], b: tuple[complex, ...]) -> tuple[complex, ...]:
    length = max(len(a), len(b))
    return tuple(
        (a[k] if k < len(a) else 0j) + (b[k] if k < len(b) else 0j) for k in range(length)
    )


def singular_points(coeffs: OdeCoefficients, root_tol: float = 1e-9) -> list[tuple[complex | float, str]]:
    """Singular points of the homogeneous equation, each classified as
    "Regular" or "Irregular" (Fuchsian criterion); returns [] only if the
    leading coefficient is constant and infinity is an ordinary point.

    Finite candidates are the roots of p2.  At a root r of multiplicity m2,
    the point is regular iff ord_r(p1) >= m2 - 1 and ord_r(zero term) >=
    m2 - 2 (the zero-order coefficient here is a nonzero constant, so its
    order at r is 0).  The point at infinity is analysed through x = 1/a:
    with N = max(deg p2, deg p1) and rev(p) = x^N p(1/x),

        A = x^4 rev(p2),   B = 2 x^3 rev(p2) - x^2 rev(p1),   C = zero_order x^N,

    reduced by their common power of x; infinity is singular iff A(0) = 0,
    and regular iff ord_0(A) - ord_0(B) <= 1 and ord_0(A) - ord_0(C) <= 2.

    Finite points are sorted by (real, imag); infinity, when singular, is
    appended last with the INFINITY sentinel.  Classification strings are
    exactly "Regular" and "Irregular".
    """
    p2 = _trim_zeros(coeffs.p2)
    p1 = _trim_zeros(coeffs.p1)
    c0 = complex(coeffs.zero_order)
    out: list[tuple[complex | float, str]] = []

    if len(p2) > 1:
        roots = np.roots([complex(c) for c in reversed(p2)])
        seen: list[complex] = []
        scale = max(1.0, max(abs(r) for r in roots))
        for raw in roots:
            r = complex(raw)
            if any(abs(r - s) <= root_tol * scale for s in seen):
                continue
            seen.append(r)
        seen.sort(key=lambda r: (r.real, r.imag))
        for r in seen:
            m2 = _root_multiplicity(p2, r, root_tol)
            m1 = _root_multiplicity(p1, r, root_tol) if any(c != 0 for c in p1) else len(p2)
            m0 = 0 if c0 != 0 else len(p2)
            regular = m1 >= m2 - 1 and m0 >= m2 - 2
            out.append((r, "Regular" if regular else "Irregular"))

    deg2 = len(p2) - 1
    deg1 = len(p1) - 1 if any(c != 0 for c in p1) else -1
    n_deg = max(deg2, deg1, 0)
    rev2 = _reversed_poly(p2, n_deg)
    rev1 = _reversed_poly(p1, n_deg) if deg1 >= 0 else (0j,)
    a_poly = _shift_up(rev2, 4)
    b_poly = _add(_shift_up(_scale(rev2, 2.0), 3), _scale(_shift_up(rev1, 2), -1.0))
    c_poly = _shift_up((c0,), n_deg)
    vals = [
        v
        for v, p in ((_valuation(a_poly), a_poly), (_valuation(b_poly), b_poly), (_valuation(c_poly), c_poly))
        if v < len(p)
    ]
    common = min(vals) if vals else 0
    orda = _valuation(a_poly) - common
    ordb = _valuation(b_poly) - common
    ordc = _valuation(c_poly) - common
    if orda > 0:  # leading coefficient of the transformed equation vanishes at x = 0
        regular = (orda - ordb) <= 1 and (orda - ordc) <= 2
        out.append((INFINITY, "Regular" if regular else "Irregular"))
    return out
