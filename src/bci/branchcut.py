"""Branch-aware complex logarithm, powers, and the cut jump factor.

The whole package works on the plane slit along the ray {r e^{i theta} : r >= 0}
for a cut angle 0 < theta < 2*pi.  Fixing log(1) = 0 on that slit plane forces
the argument function into the open interval (theta - 2*pi, theta): starting
from arg(1) = 0 and moving continuously, the argument can climb to just below
theta on one side of the cut and descend to just above theta - 2*pi on the
other.  theta = pi reproduces the principal branch.

Everything downstream — series arguments, closed-form prefactors, quadrature
integrands — inherits its branch behaviour from `branch_log`, so this module
is deliberately small and heavily cross-checked.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import NamedTuple

from .errors import AlphaOnCircle, NonFiniteValue, OnBranchCut, ZeroInput

__all__ = [
    "ANGULAR_GUARD",
    "INTEGER_DETECTION_TOL",
    "DEFAULT_EXCLUSION_BAND",
    "TWO_PI",
    "ProblemInstance",
    "as_integer",
    "int_pow",
    "branch_arg",
    "branch_log",
    "branch_pow",
    "cut_jump_factor",
    "cut_jump_with_bound",
]

TWO_PI = 2.0 * math.pi

_EPS = sys.float_info.epsilon

#: Inputs closer than this (in radians) to the cut ray are rejected.  The
#: branch is genuinely discontinuous across the ray, and silently assigning a
#: side would poison every cross-check built on top of this module.
ANGULAR_GUARD = 1e-12

#: An exponent counts as an integer when both components are within this of
#: one.  The closed forms split into discrete residue cases at integers, and
#: every method must make that call identically.
INTEGER_DETECTION_TOL = 1e-12

#: Default half-width of the refused annulus around |alpha| = 1.  Both the
#: series (argument modulus -> 1) and the quadrature (pole distance -> 0)
#: degrade as the pole approaches the contour; inside this band we refuse
#: rather than return junk.
DEFAULT_EXCLUSION_BAND = 0.02


def _theta_of(theta: float) -> float:
    """theta as a float, refused unless 0 < theta < 2*pi."""
    th = float(theta)
    if not (0.0 < th < TWO_PI):
        raise ValueError(f"branch angle must lie in the open interval (0, 2*pi), got {th!r}")
    return th


def require_tol(tol: float) -> None:
    """Refuse a tolerance that is not finite and positive: an infinite one
    would pass every comparison it thresholds."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


class _Instance(NamedTuple):
    alpha: complex
    beta: complex
    theta: float
    tol: float
    exclusion_band: float


class ProblemInstance(_Instance):
    """One evaluation problem: pole alpha, exponent beta, cut angle 0 < theta < 2*pi.

    tol is the relative tolerance used both as the methods' internal accuracy
    target and as the cross-method agreement threshold.  exclusion_band is
    the half-width of the annulus around |alpha| = 1 inside which evaluation
    refuses to run (AlphaOnCircle).  An immutable named tuple whose fields
    are checked on every construction, _replace and unpickling included.
    """

    __slots__ = ()

    def __new__(
        cls, alpha: complex, beta: complex, theta: float, tol: float = 1e-8, exclusion_band: float = DEFAULT_EXCLUSION_BAND
    ) -> ProblemInstance:
        alpha, beta, theta = complex(alpha), complex(beta), _theta_of(theta)
        if not (cmath.isfinite(alpha) and cmath.isfinite(beta)):
            raise ValueError(f"alpha and beta must be finite, got alpha={alpha!r}, beta={beta!r}")
        require_tol(tol)
        if not 0.0 < exclusion_band < 1.0:
            raise ValueError("exclusion band must lie in (0, 1)")
        return super().__new__(cls, alpha, beta, theta, tol, exclusion_band)

    # the named tuple's _make, behind _replace, would skip __new__ and its checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    def alpha_outside(self) -> bool:
        """True when the pole lies outside the unit circle."""
        return abs(self.alpha) > 1.0

    def require_alpha_off_circle(self) -> None:
        if abs(1.0 - abs(self.alpha)) < self.exclusion_band:
            raise AlphaOnCircle(
                f"|alpha| = {abs(self.alpha):.6g} is within {self.exclusion_band:g} of the unit circle"
            )


def as_integer(beta: complex) -> int | None:
    """Return beta as an int when both components sit within 1e-12 of one, else None."""
    b = complex(beta)
    # the imaginary part first: it settles almost every non-integer, a NaN too
    if not (abs(b.imag) < INTEGER_DETECTION_TOL and math.isfinite(b.real)):
        return None
    n = round(b.real)
    return n if abs(b.real - n) < INTEGER_DETECTION_TOL else None


def int_pow(z: complex, n: int) -> complex:
    """z**n for integer n by square-and-multiply; no logarithms involved."""
    if n < 0:
        return 1.0 / int_pow(z, -n)
    out = complex(1.0)
    base = complex(z)
    while n:
        if n & 1:
            out *= base
        n >>= 1
        if n:
            base *= base
    return out


def branch_arg(z: complex, theta: float) -> float:
    """Argument of z placed in the open interval (theta - 2*pi, theta).

    Raises OnBranchCut for z within ANGULAR_GUARD radians of the cut ray and
    ZeroInput at the origin, where no branch choice helps.
    """
    th = _theta_of(theta)
    z = complex(z)
    if z == 0:
        raise ZeroInput("branch argument undefined at z = 0")
    offset = (cmath.phase(z) - th) % TWO_PI  # in [0, 2*pi)
    if offset < ANGULAR_GUARD or TWO_PI - offset < ANGULAR_GUARD:
        raise OnBranchCut(
            f"z = {z!r} lies within {ANGULAR_GUARD:g} rad of the cut ray at angle {th:.12g}"
        )
    return th - TWO_PI + offset


def branch_log(z: complex, theta: float) -> complex:
    """Logarithm on the plane slit along angle theta, normalised by log(1) = 0."""
    arg = branch_arg(z, theta)  # first: it refuses z = 0, where log(|z|) would fail
    return complex(math.log(abs(complex(z))), arg)


def branch_pow(z: complex, beta: complex, theta: float) -> complex:
    """z**beta on the slit plane: exp(beta * branch_log(z, theta)).

    Integer exponents short-circuit to exact repeated multiplication, which is
    branch independent (two logarithm branches differ by 2*pi*i*k, and
    exp(2*pi*i*k*n) = 1 for integer n).  That keeps integer powers legal on
    the cut itself, and at z = 0 for positive exponents, where the general
    branch power is undefined.
    """
    z = complex(z)
    n = as_integer(beta)
    if n is not None:
        if z == 0:
            if n > 0:
                return 0j
            raise ZeroInput(f"0**{n} is undefined")
        return int_pow(z, n)
    return cmath.exp(complex(beta) * branch_log(z, theta))


def cut_jump_factor(beta: complex, theta: float) -> complex:
    """Jump of z**beta across the cut: e^{i beta theta} - e^{i beta (theta - 2 pi)}.

    On the unit circle the branch power at angle t in (theta, theta + 2*pi) is
    exp(i*beta*(t - 2*pi)); letting t run once around, the limits on the two
    banks of the cut differ by exactly this constant (equivalently written
    e^{i beta theta} (1 - e^{-2 pi i beta})).  Every closed form in the
    package carries it as a prefactor, and it vanishes identically at integer
    beta, where the power is single valued and only residues survive.
    """
    return cut_jump_with_bound(beta, theta)[0]


def cut_jump_with_bound(beta: complex, theta: float) -> tuple[complex, float]:
    """cut_jump_factor(beta, theta) and a bound on its rounding error.

    With e = beta - round(Re beta), exact, the jump is the larger exponential
    times expm1 of a w = x + iy with x <= 0: e^{i beta (theta - 2 pi)}
    expm1(2 pi i e) for Im beta > 0, else -e^{i beta theta} expm1(-2 pi i e).
    The real part of expm1(w) = expm1(x) cos y - 2 sin^2(y/2) + i e^x sin y
    adds two terms of one sign or is at most -1, so nothing cancels near an
    integer, the jump is exactly 0 at one, and those terms sum to at most
    4 |expm1(w)|.  The anchor e^v is off by eps (1 + |v|), plus |beta| 2 pi
    eps from the rounding of 2 pi; expm1 by 4 eps on its terms and by e^x eps
    |w| from the rounding of w; the product by 2 eps.  Raises NonFiniteValue
    when the anchor, the jump's modulus or the bound is past the float range:
    from Im(beta) (2 pi - theta), or -Im(beta) theta, near 709.78 on.
    """
    th = _theta_of(theta)
    b = complex(beta)
    if not cmath.isfinite(b):
        raise NonFiniteValue(f"the cut jump factor is not finite at beta = {b!r}")
    e = b - round(b.real)
    up = b.imag > 0.0
    if up:
        v, w, span = 1j * b * (th - TWO_PI), 2j * math.pi * e, 2.0 * TWO_PI - th
    else:
        v, w, span = 1j * b * th, -2j * math.pi * e, th
    try:
        anchor = cmath.exp(v)
    except OverflowError:
        raise NonFiniteValue(f"the cut jump factor overflows at beta = {b!r}") from None
    grow, half = math.exp(w.real), math.sin(0.5 * w.imag)
    expm1 = complex(math.expm1(w.real) * math.cos(w.imag) - 2.0 * half * half, grow * math.sin(w.imag))
    jump = anchor * expm1 if up else -anchor * expm1
    try:
        bound = _EPS * abs(jump) * (19.0 + abs(b) * span) + _EPS * abs(anchor) * grow * abs(w)
    except OverflowError:  # a modulus past the float range, though its parts are finite
        bound = math.inf
    if not (math.isfinite(bound) and cmath.isfinite(jump)):
        raise NonFiniteValue(f"the cut jump or its rounding bound overflows at beta = {b!r}")
    return jump, bound
