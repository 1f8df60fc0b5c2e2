"""Adaptive Gauss quadrature oracles for the circle and unit-interval integrals.

Engine
------
Plain interval bisection driven by a priority queue.  Each panel gets a
7-point and a 15-point Gauss-Legendre rule; their difference is the panel's
error estimate (the embedded-pair trick), and the panel with the worst
estimate splits first.  The integrands are analytic away from isolated
endpoints, so the high-order rule converges fast on smooth panels while
bisection walks geometrically into whatever misbehaviour remains — endpoint
oscillation from imaginary exponents, or a pole sitting near (never on) the
path.

The integrands are cheap, so the cost is numpy call overhead, not arithmetic.
The 22 nodes of every panel in hand therefore go to f in one flat array: one
call for all initial panels, then one call per split for both children.
adaptive_quadrature starts on equal panels; the unit-interval integrals start
on a mesh graded toward 0 (next section), and both refine the same way.

Refinement and stopping look only at |G15 - G7|.  That difference can fall
below the rounding error of the G15 sum itself, so the reported estimate also
carries QUADPACK's floor, 50 * eps * integral of |f| (Piessens et al., 1983),
and converged is judged on that floored estimate.

Determinism is part of the contract: the CLI promises byte-identical reports,
so ties in the queue break by insertion order, panels are totalled by a
sorted pairwise tree, and nothing here threads.

Endpoint singularities
----------------------
For integral_0^1 t^mu * f(t) dt with -1 < Re(mu) < 1 the substitution
t = u^{1/(1+Re mu)} absorbs exactly the real part of the exponent: the
transformed integrand is a constant times u^{i c} f(u^s), bounded (|u^{ic}|=1)
though infinitely oscillatory toward 0 when Im(mu) != 0.  Geometric panel
refinement handles that: the oscillation amplitude is constant while the
panel mass shrinks linearly.

Bisection from four equal panels reaches that geometric mesh one level per
split, one f call of 44 nodes each, so an integral that needs a panel
[0, 2^-25] spent 23 calls getting there.  The unit-interval integrals therefore
start on the mesh 0, 2^-K, ..., 2^-3, 1/4, 1/2, 3/4, 1 (the edges that walk
builds) in one call, and refine from there as usual.  K = 36 was chosen by
measurement on the identity checks of run_verify: started from equal panels,
half the integrals stopped at depth 2 to 10 and the rest at 15 to 33; on the
graded mesh almost none refine below 2^-K.  The worst residual stopped
improving at K = 36, and run time was flat from K = 24 to K = 40.
"""

from __future__ import annotations

import cmath
import heapq
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .branchcut import TWO_PI, ProblemInstance, branch_pow, cut_jump_factor
from .errors import AlphaOnCut, DivergentAtZero, OnBranchCut, SingularPath

__all__ = [
    "DEFAULT_QUAD_TOL",
    "DEFAULT_MAX_PANELS",
    "QuadratureResult",
    "adaptive_quadrature",
    "circle_integral",
    "euler_integral",
    "radial_integral",
    "check_integral_reduction",
    "check_circle_vs_radial",
]

DEFAULT_QUAD_TOL = 1e-10
DEFAULT_MAX_PANELS = 20_000

_LO_NODES, _LO_WEIGHTS = np.polynomial.legendre.leggauss(7)
_HI_NODES, _HI_WEIGHTS = np.polynomial.legendre.leggauss(15)
_NODES = np.concatenate([_HI_NODES, _LO_NODES])  # one panel's 22 abscissae on [-1, 1]

#: Factor of the roundoff floor on the reported estimate (see the module notes).
_ROUNDOFF = 50.0 * sys.float_info.epsilon

#: Graded start of the unit-interval integrals (see the module notes).
_UNIT_DEPTH = 36
_UNIT_EDGES = np.array([0.0] + [2.0**-k for k in range(_UNIT_DEPTH, 2, -1)] + [0.25, 0.5, 0.75, 1.0])


@dataclass(frozen=True)
class QuadratureResult:
    """Value, honest absolute error estimate, and how hard it was to get."""

    value: complex
    abs_error_estimate: float
    subdivisions: int
    converged: bool


def _panels(f: Callable, lefts: np.ndarray, rights: np.ndarray) -> tuple[list, list, list]:
    """G15 values, |G15 - G7| estimates and G15 masses of many panels, one f call."""
    mid = 0.5 * (lefts + rights)
    half = 0.5 * (rights - lefts)
    x = mid[:, None] + half[:, None] * _NODES
    vals = np.asarray(f(x.ravel()), dtype=complex).reshape(x.shape)
    hi = half * (vals[:, :15] @ _HI_WEIGHTS)
    lo = half * (vals[:, 15:] @ _LO_WEIGHTS)
    mass = half * (np.abs(vals[:, :15]) @ _HI_WEIGHTS)
    return hi.tolist(), np.abs(hi - lo).tolist(), mass.tolist()


def _pairwise_sum(values: list[complex]) -> complex:
    """Fixed-shape pairwise tree sum: independent of refinement history."""
    if not values:
        return complex(0.0)
    layer = values
    while len(layer) > 1:
        nxt = [layer[i] + layer[i + 1] for i in range(0, len(layer) - 1, 2)]
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
    return layer[0]


def adaptive_quadrature(
    f: Callable,
    a: float,
    b: float,
    tol: float = DEFAULT_QUAD_TOL,
    max_panels: int = DEFAULT_MAX_PANELS,
    initial_panels: int = 8,
) -> QuadratureResult:
    """Integrate the vectorised complex integrand f over [a, b].

    f receives a numpy array of abscissae and must return the integrand
    values.  Refinement stops once the summed panel estimates drop below
    tol * max(1, |value|) (absolute-or-relative) or the panel budget is
    spent; the latter reports converged=False with the best value so far.
    The reported estimate adds the roundoff floor 50 * eps * integral |f| to
    the panel estimates, and converged tests that floored estimate.
    """
    return _adaptive(f, np.linspace(a, b, initial_panels + 1), tol, max_panels)


def _adaptive(f: Callable, edges: np.ndarray, tol: float, max_panels: int) -> QuadratureResult:
    """The engine behind adaptive_quadrature, started on the given increasing edges."""
    lefts, rights = edges[:-1], edges[1:]
    vals, errs, masses = _panels(f, lefts, rights)
    rows = zip(lefts.tolist(), rights.tolist(), vals, errs, masses)
    heap = [(-err, seq, left, right, val, mass) for seq, (left, right, val, err, mass) in enumerate(rows)]
    heapq.heapify(heap)  # (-err, seq) keys are unique, so the pop order is fixed
    total = sum(vals, complex(0.0))
    err_total = sum(errs, 0.0)
    seq = len(heap)
    min_width = abs(edges[-1] - edges[0]) * 1e-15
    frozen: list[tuple[float, float, complex, float, float]] = []  # panels too narrow to split
    while err_total > tol * max(1.0, abs(total)) and heap:
        if len(heap) + len(frozen) >= max_panels:
            break
        neg_err, _, left, right, val, mass = heapq.heappop(heap)
        err = -neg_err
        if err == 0.0 or right - left <= min_width:
            frozen.append((left, right, val, err, mass))
            continue
        mid = 0.5 * (left + right)
        (v1, v2), (e1, e2), (m1, m2) = _panels(f, np.array([left, mid]), np.array([mid, right]))
        total += v1 + v2 - val
        err_total += e1 + e2 - err
        heapq.heappush(heap, (-e1, seq, left, mid, v1, m1))
        heapq.heappush(heap, (-e2, seq + 1, mid, right, v2, m2))
        seq += 2
    panels = frozen + [(left, right, val, -neg, mass) for (neg, _, left, right, val, mass) in heap]
    panels.sort(key=lambda p: p[0])
    value = _pairwise_sum([p[2] for p in panels])
    estimate = math.fsum(p[3] for p in panels) + _ROUNDOFF * math.fsum(p[4] for p in panels)
    converged = estimate <= tol * max(1.0, abs(value))
    return QuadratureResult(value, estimate, len(panels), converged)


def circle_integral(
    inst: ProblemInstance,
    tol: float = DEFAULT_QUAD_TOL,
    max_panels: int = DEFAULT_MAX_PANELS,
) -> QuadratureResult:
    """Contour integral of z**beta / (z - alpha) over the unit circle.

    Parameterised as z = e^{it} on the window t in [theta, theta + 2*pi],
    which walks the circle once starting and ending on the cut.  There the
    branch argument of e^{it} is t - 2*pi, so the power is exp(i*beta*(t-2*pi))
    with no logarithm calls in the hot loop.  That integrand is analytic on the
    closed window (the cut only enters through its endpoints, which Gauss nodes
    never touch), so the engine's result is returned as is.
    """
    inst.require_alpha_off_circle()
    th = inst.theta_value
    alpha = inst.alpha
    beta = inst.beta

    def f(t: np.ndarray) -> np.ndarray:
        return np.exp(1j * beta * (t - TWO_PI) + 1j * t) * 1j / (np.exp(1j * t) - alpha)

    return adaptive_quadrature(f, th, th + TWO_PI, tol=tol, max_panels=max_panels, initial_panels=16)


def _unit_power_integral(
    mu: complex,
    factor: Callable,
    tol: float,
    max_panels: int,
) -> QuadratureResult:
    """integral_0^1 t^mu * factor(t) dt with the endpoint power tamed.

    factor must be vectorised, smooth and pole-free on (0, 1].  Re(mu) > -1
    is the caller's responsibility.  Re(mu) >= 1 integrates directly; below
    that the t = u^{1/(1+Re mu)} substitution described in the module notes
    removes the real part of the endpoint exponent entirely.
    """
    mu = complex(mu)
    if mu.real >= 1.0:

        def f(t: np.ndarray) -> np.ndarray:
            return np.exp(mu * np.log(t)) * factor(t)

        return _adaptive(f, _UNIT_EDGES, tol, max_panels)

    s = 1.0 / (1.0 + mu.real)  # t = u**s maps (0, 1] onto itself
    c = mu.imag * s  # leftover purely imaginary exponent

    def g(u: np.ndarray) -> np.ndarray:
        lu = np.log(u)
        return s * np.exp(1j * c * lu) * factor(np.exp(s * lu))

    return _adaptive(g, _UNIT_EDGES, tol, max_panels)


def euler_integral(
    w: complex,
    beta: complex,
    tol: float = DEFAULT_QUAD_TOL,
    max_panels: int = DEFAULT_MAX_PANELS,
) -> QuadratureResult:
    """integral_0^1 t^{beta-1} / (1 - w t) dt for Re(beta) > 0 and w off [1, inf).

    beta times this integral is 2F1(1, beta; 1+beta; w) — Euler's integral
    representation with its (1-t)^{c-b-1} factor trivial — which is exactly
    how the cross-checks consume it.  w on the real ray [1, inf) puts the
    pole 1/w onto the path and raises SingularPath; Re(beta) <= 0 makes the
    endpoint non-integrable and raises DivergentAtZero.
    """
    w = complex(w)
    beta = complex(beta)
    if beta.real <= 0.0:
        raise DivergentAtZero(f"Re(beta) = {beta.real:g} <= 0: t^(beta-1) is not integrable at 0")
    if abs(w.imag) < 1e-13 and w.real >= 1.0 - 1e-13:
        raise SingularPath(f"w = {w!r} puts the pole t = 1/w on the integration path [0, 1]")

    def factor(t: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 - w * t)

    return _unit_power_integral(beta - 1.0, factor, tol, max_panels)


def radial_integral(
    inst: ProblemInstance,
    tol: float = DEFAULT_QUAD_TOL,
    max_panels: int = DEFAULT_MAX_PANELS,
) -> QuadratureResult:
    """integral_0^1 t^beta / (t - alpha e^{-i theta}) dt for Re(beta) > 0.

    This is the integral the circle contour collapses onto along the two
    banks of the cut: substituting z = t e^{i theta} maps the ray segment to
    the unit interval, and on (0, 1] the branch power of a positive real t is
    the principal one for every theta, so plain t**beta applies.  The pole
    sits at alpha e^{-i theta}; if that lands on (0, 1] — i.e. Arg(alpha) =
    theta with |alpha| <= 1 — the path is singular.
    """
    beta = inst.beta
    if beta.real <= 0.0:
        raise DivergentAtZero(f"Re(beta) = {beta.real:g} <= 0: t^beta/t is not integrable at 0")
    pole = inst.alpha * cmath.exp(-1j * inst.theta_value)
    if abs(pole.imag) < 1e-13 and 0.0 <= pole.real <= 1.0 + 1e-13:
        raise SingularPath(f"pole t = {pole!r} lies on the integration path [0, 1]")

    def factor(t: np.ndarray) -> np.ndarray:
        return 1.0 / (t - pole)

    return _unit_power_integral(beta, factor, tol, max_panels)


def check_integral_reduction(inst: ProblemInstance, tol: float = DEFAULT_QUAD_TOL) -> float:
    """Relative discrepancy in: radial integral = 1/beta - Euler integral at e^{i theta}/alpha.

    Writing t/(t - p) = 1 + p/(t - p) with p = alpha e^{-i theta} reduces
        integral_0^1 t^beta/(t - p) dt = 1/beta - integral_0^1 t^{beta-1}/(1 - t/p) dt.
    Both sides are evaluated by independent quadratures (different integrands,
    different substitutions), so small residuals are evidence, not tautology.
    """
    lhs = radial_integral(inst, tol=tol).value
    pole = inst.alpha * cmath.exp(-1j * inst.theta_value)
    rhs = 1.0 / inst.beta - euler_integral(1.0 / pole, inst.beta, tol=tol).value
    return abs(lhs - rhs) / max(abs(rhs), 1.0)


def check_circle_vs_radial(inst: ProblemInstance, tol: float = DEFAULT_QUAD_TOL) -> float:
    """Residual of: circle integral = enclosed residue + cut jump * radial integral.

    Collapsing the circle onto the two banks of the cut leaves (i) the full
    residue 2*pi*i*alpha^beta when the pole is enclosed (|alpha| < 1), with
    alpha^beta the branch power e^{beta log_theta(alpha)} — that is what the
    residue of z^beta/(z - alpha) at alpha means on this slit plane — and
    (ii) the two ray integrals, whose branch powers differ by exactly
    cut_jump_factor(beta, theta).  Needs Re(beta) > 0 (ray integrals converge
    at the origin) and, when |alpha| < 1, alpha off the cut.
    """
    circ = circle_integral(inst, tol=tol).value
    rad = radial_integral(inst, tol=tol).value
    rhs = cut_jump_factor(inst.beta, inst.theta) * rad
    if abs(inst.alpha) < 1.0 and inst.alpha != 0:
        try:
            rhs += 2j * math.pi * branch_pow(inst.alpha, inst.beta, inst.theta)
        except OnBranchCut as exc:
            raise AlphaOnCut(str(exc)) from exc
    return abs(circ - rhs) / max(abs(rhs), 1.0)
