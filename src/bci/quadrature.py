"""Adaptive Gauss quadrature oracles for the circle and unit-interval integrals.

These notes give the reason for each choice and the conditions it needs;
the measurements behind the choices are in CHANGES.md.

Engine
------
Plain interval bisection in rounds.  Each panel gets the 15-point
Gauss-Kronrod rule K15 and the 7-point Gauss rule G7 whose nodes are every
second K15 node, so the pair costs 15 integrand values, not 22.  K15 is the
panel's value and |K15 - G7| its error estimate (the embedded-pair trick).
Until the estimates sum (math.fsum) to at most goal = tol * max(1, |I|), each
round bisects every one of the N panels whose estimate exceeds goal / N, so
an integral with several hard spots refines them all in one f call.  The
integrands are analytic away from isolated endpoints, so the high-order rule
converges fast on smooth panels while bisection walks geometrically into
whatever misbehaviour remains — endpoint oscillation from imaginary
exponents, or a pole sitting near (never on) the path.

The nodes and weights are QUADPACK's qk15 table (Piessens et al., 1983),
typed at its 33 published digits; each reads as the double nearest the
exact constant, found at 60 digits in mpmath.  The rules integrate x^k to
within 4e-16 for k <= 22 (K15) and k <= 13 (G7), and tests/test_quadrature.py
holds them to that.  A symmetric 15-point rule of degree 22 whose every
second node carries a 7-point rule of degree 13 is unique, so a wrong
constant shows as a moment error.

A first round of 16 panels costs about as much in numpy calls and Python as
in arithmetic on its nodes, so the fixed cost is kept small: a start that
cannot grade returns before building anything, nothing is subtracted when
c = 0, and an integral builds one result.  The nodes of the panels to
evaluate go to f in one flat array: one call for all initial panels (shared
by a unit-interval batch, below), then one per round for the children of all
the panels split, which join the panels kept.
Refinement stops unconverged when no panel over its share is wider than
1e-15 of the interval, or when a round would pass max_panels.
adaptive_quadrature starts on the edges its caller gives: the circle and
unit-interval integrals start on meshes graded toward what the instance says
is hard (the sections below), so almost every integral stops on that first
round.

Refinement and stopping look only at |K15 - G7|.  That difference can fall
below the rounding error of the K15 sum itself, so the reported estimate also
carries QUADPACK's floor, 50 * eps * integral of |f| (Piessens et al., 1983;
the integral of |f| is taken with the K15 weights), and converged is judged
on that floored estimate.  On the circle, the power exp(i beta s) carries
the rounding of an exponential whose argument reaches |beta| 2 pi, and
z = e^{is} its own, so the estimate adds eps * 2 pi * (|beta| + 1) *
integral of |f|.  That term is a bound on a rounding that happens, so it
stays even where a scan finds the estimate holds without it.
The residue added back, 2 pi c, is rounded in its product, and the estimate
carries 2 eps |2 pi c| for it (_judge): at beta = 0 the subtracted integrand
is 0 and that rounding is the whole error.

Determinism is part of the contract: the CLI promises byte-identical
reports.  Each panel's two rules and mass are sums over its own 15 values
in numpy's einsum loop, which calls no BLAS, so a panel gives the same bits
wherever it sits and on every BLAS kernel; every total over panels is
math.fsum, correctly rounded, so no panel order changes a bit either, and
nothing here threads.  A total fsum cannot form (an overflow, or inf - inf)
is NaN; a value not finite never converges.

Circle start
------------
The integral of z^beta/(z - alpha) dz has one pole, at
s0 = arg(alpha) - i log|alpha| with arg(alpha) in the window, and its residue
c = alpha^beta = e^{i beta s0} is known before any node is evaluated.  When the
pole is within _POLE_REACH of the window, circle_integral integrates
(z^beta - c)/(z - alpha) dz, analytic at s0, and adds 2 pi i c when the pole is
inside (Helsing & Ojala, J. Comput. Phys. 227, 2008, subtract near-contour
poles from Cauchy integrals the same way).  The images s0 +- 2 pi keep
residues scaled by e^{+-2 pi i beta}, which the subtraction does not cancel,
so the start adds, to 16 equal panels, the points s0 +- 2 pi +- h 2^k with
h = |log|alpha|| / 2 that fall in the window: a pole near the cut grades the
window's ends.  |z^beta| = e^{-Im(beta) s} peaks at theta - 2 pi for
Im(beta) > 0 and at theta below 0; once |Im beta| 2 pi/16 > 2 the points
2/|Im beta| times 2^k grade in from that end.  Both runs of points double up
to two base panels.  A start without such points takes module constants:
with lo = theta - 2 pi its nodes are lo + _PLAIN_NODES and e^{is} is
e^{i lo} _PLAIN_TURNS, with no node build and one complex exponential fewer.

The pole is subtracted rather than graded toward because near it e^{is} -
alpha carries a relative rounding of eps/|e^{is} - alpha|, about
pi eps/||alpha| - 1|| over the window, which neither |K15 - G7| nor the
rounding terms cover: a mesh graded toward s0 lets the estimate fall below
the error under custom bands close to the circle (tests/test_quadrature.py,
TestCircleNearTheBand).

The subtraction is skipped, and s0 graded like its images, when
|alpha|^Re(beta), the ratio of |c| to |z^beta| at arg(alpha), exceeds
e^_POLE_GROWTH: there c dwarfs the integrand and its rounding the value, and
the subtracted integral need not converge (alpha = 1.5 e^i,
beta = 40 + 0.3i, theta = 2 in tests/test_quadrature.py).  That only happens
where the pole lies further from the circle than about _POLE_GROWTH/|Re beta|,
where grading toward it is sound.  The grading constants (a first step of
0.5 |log|alpha||, a reach of 0.6, a peak threshold of 2, a first step of
2/|Im beta| and 16 base panels) were chosen as those taking the fewest
calls on the eval-mixed pools.

Endpoint singularities
----------------------
For integral_0^1 t^mu * f(t) dt with Re(mu) > -1 the substitution
t = u^{1/(1+Re mu)} absorbs exactly the real part of the exponent: the
transformed integrand is a constant times u^{i c} f(u^s), bounded (|u^{ic}|=1)
though infinitely oscillatory toward 0 when Im(mu) != 0.  Geometric panel
refinement handles that: the oscillation amplitude is constant while the
panel mass shrinks linearly.  For Re(mu) >= 1 a smooth t^mu would do
without it, but f(u^s) with s <= 1/2 is bounded and continuous at 0 too, and
the graded start below absorbs it, so every Re(mu) takes the one path: on
the identity checks of run_verify it takes no more calls and loses no accuracy.

Bisection from equal panels would reach that geometric mesh one level per f
call, and the integrals of run_verify's identity checks need panels as deep
as 2^-33.  The unit-interval integrals therefore start on the mesh 0, 2^-K,
..., 2^-3, 1/4, 1/2, 3/4, 1 (the edges that walk builds) in one call, and
refine from there as usual.  K = 36 was chosen by measurement on those
checks: the worst residual stops improving at K = 36, and a deeper K costs
no more calls.

Batched first round
-------------------
Almost every integral stops on its first call, so the unit-interval batches
(euler_integrals, radial_integrals) evaluate all their first rounds in one
_panels call on their shared mesh.  The integrand gets its parameters as
(k, 1) columns, and _rules reduces the (k, P, 15) values panel by panel.
Each integral's row of that round goes straight to _refine, whose first
step is the stopping test (_judge), so no separate pass repeats it; only
those that fail it refine, alone, with scalar parameters.  So each result is
the float it is alone (tests/test_quadrature.py holds them equal field for
field, and a shuffled batch or first round to the same bits).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .branchcut import TWO_PI, ProblemInstance, branch_pow, cut_jump_factor
from .errors import AlphaOnCut, DivergentAtZero, NonFiniteValue, OnBranchCut, SingularPath, SlowConvergence

__all__ = [
    "DEFAULT_QUAD_TOL",
    "DEFAULT_MAX_PANELS",
    "QuadratureResult",
    "adaptive_quadrature",
    "circle_integral",
    "circle_integrals",
    "euler_integral",
    "euler_integrals",
    "radial_integral",
    "radial_integrals",
    "check_integral_reduction",
    "check_integral_reductions",
    "check_circle_vs_radial",
    "check_circles_vs_radial",
]

DEFAULT_QUAD_TOL = 1e-10
DEFAULT_MAX_PANELS = 20_000


#: QUADPACK's qk15 table (Piessens et al., 1983), from x = 1 in to the centre:
#: the K15 nodes and weights, and the G7 weights on every second node.
_XGK = [
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.000000000000000000000000000000000,
]
_WGK = [
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
]
_WG = [
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
]

#: One panel's abscissae on [-1, 1] in increasing order, its K15 weights, and
#: a C-contiguous (2, 15) array of weights: the K15 row, and the G7 row with 0
#: on the nodes G7 does not use, so one reduction over a panel's values gives
#: both rules.  It is complex, as the values are, so einsum casts nothing.
_NODES = np.array([-x for x in _XGK[:-1]] + _XGK[::-1])
_KRONROD_WEIGHTS = np.array(_WGK[:-1] + _WGK[::-1])
_RULE_WEIGHTS = np.array([_KRONROD_WEIGHTS, np.zeros(15)], dtype=complex)
_RULE_WEIGHTS[1, 1::2] = _WG + _WG[-2::-1]

_EPS = sys.float_info.epsilon

#: Factor of the roundoff floor on the reported estimate (see the module notes).
_ROUNDOFF = 50.0 * _EPS

#: Graded start of the unit-interval integrals (see the module notes).
_UNIT_DEPTH = 36
_UNIT_EDGES = np.array([0.0] + [2.0**-k for k in range(_UNIT_DEPTH, 2, -1)] + [0.25, 0.5, 0.75, 1.0])

#: Start of the circle integral (see the module notes): equal panels, plus
#: points doubling away from the pole's images one turn either side of the
#: window when the pole is within _POLE_REACH of it (and from the window's own
#: image too when the pole is not subtracted), and from the end where
#: |z^beta| peaks when |Im beta| times the panel width exceeds _PEAK_MIN.
_CIRCLE_PANELS = 16
_CIRCLE_WIDTH = TWO_PI / _CIRCLE_PANELS
_POLE_REACH = 0.6
_POLE_STEP = 0.5  # first step, as a fraction of the pole's distance |log|alpha||
_PEAK_MIN = 2.0
_PEAK_STEP = 2.0  # first step, divided by |Im beta|
#: The residue c = alpha^beta is subtracted only while |alpha|^Re(beta), the
#: ratio of |c| to |z^beta| at z = alpha / |alpha|, is at most e^_POLE_GROWTH.
_POLE_GROWTH = 2.0

#: The plain start (no grading points) relative to the window's left end:
#: its edges, the panels' half widths, its 16 x 15 nodes in panel order, and
#: e^{i node}.
_PLAIN_EDGES = _CIRCLE_WIDTH * np.arange(_CIRCLE_PANELS + 1.0)
_PLAIN_HALF = 0.5 * (_PLAIN_EDGES[1:] - _PLAIN_EDGES[:-1])
_PLAIN_NODES = (0.5 * (_PLAIN_EDGES[:-1] + _PLAIN_EDGES[1:])[:, None] + _PLAIN_HALF[:, None] * _NODES).ravel()
_PLAIN_TURNS = np.exp(1j * _PLAIN_NODES)

#: circle_integral refuses when its integrand may reach e^_EXP_LIMIT on the
#: window: a little below the float overflow at e^709.78, so no node overflows.
_EXP_LIMIT = 700.0


@dataclass(frozen=True)
class QuadratureResult:
    """Value, honest absolute error estimate, and how hard it was to get."""

    value: complex
    abs_error_estimate: float
    subdivisions: int
    converged: bool

    def converged_value(self, name: str) -> complex:
        """value, or SlowConvergence when the quadrature stopped short of its tolerance."""
        if not self.converged:
            raise SlowConvergence(f"the {name} stopped unconverged, estimate {self.abs_error_estimate:.3g}")
        return self.value


def _panels(f: Callable, lefts: np.ndarray, rights: np.ndarray) -> tuple:
    """K15 values, |K15 - G7| estimates and K15 masses of many panels, one f call.

    f gets the flat array of all nodes.  It may return values with leading
    batch dimensions, one row per integrand; the results then carry the same
    leading dimensions, with the panels last.
    """
    mid = 0.5 * (lefts + rights)
    half = 0.5 * (rights - lefts)
    x = mid[:, None] + half[:, None] * _NODES
    return _rules(np.asarray(f(x.ravel()), dtype=complex), half)


def _rules(vals: np.ndarray, half: np.ndarray) -> tuple:
    """_panels from the integrand's values at the nodes, given the panels' half
    widths; each panel's results depend on its own values alone (module notes)."""
    vals = vals.reshape(vals.shape[:-1] + (half.size, 15))
    rules = half[:, None] * np.einsum("...j,kj->...k", vals, _RULE_WEIGHTS)
    hi = rules[..., 0]
    return hi, np.abs(hi - rules[..., 1]), half * np.einsum("...j,j->...", np.abs(vals), _KRONROD_WEIGHTS)


def _fsum(parts: np.ndarray, extra: float = 0.0) -> float:
    """math.fsum of an array and extra, or NaN for a sum it cannot form (an
    intermediate overflow, or inf - inf)."""
    terms = parts.tolist()
    if extra:
        terms.append(extra)
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return math.nan


def _judge(
    vals: np.ndarray, errs: np.ndarray, masses: np.ndarray, tol: float, roundoff: float, offset: complex
) -> tuple:
    """The stopping test on an integral's panels plus offset: (its value and
    estimate, goal = tol * max(1, |value|), whether the summed estimates are at
    most goal or NaN).  The estimate carries offset's own rounding, 2 eps
    |offset|.  A value that is not finite gets a NaN goal: it stops unconverged."""
    value = complex(_fsum(vals.real, offset.real), _fsum(vals.imag, offset.imag))
    goal = tol * max(1.0, abs(value)) if cmath.isfinite(value) else math.nan
    err = _fsum(errs)
    estimate = err + roundoff * _fsum(masses) + 2.0 * _EPS * abs(offset)
    return value, estimate, goal, not err > goal


def adaptive_quadrature(
    f: Callable,
    edges: np.ndarray,
    tol: float = DEFAULT_QUAD_TOL,
    max_panels: int = DEFAULT_MAX_PANELS,
) -> QuadratureResult:
    """Integrate the vectorised complex integrand f from edges[0] to edges[-1],
    starting on the panels between the given increasing edges.

    f receives a numpy array of abscissae and must return the integrand
    values.  Refinement stops once the summed panel estimates drop below
    tol * max(1, |value|) (absolute-or-relative), or when no panel can split
    or a round would pass max_panels; the latter two report converged=False
    with the best value so far.  The reported estimate adds the summation
    floor 50 * eps * integral |f| to the panel estimates, and converged tests
    that floored estimate.
    """
    lefts, rights = edges[:-1], edges[1:]
    return QuadratureResult(*_refine(f, (lefts, rights, *_panels(f, lefts, rights)), tol, max_panels, _ROUNDOFF))


def _refine(
    f: Callable, panels: tuple, tol: float, max_panels: int, roundoff: float, offset: complex = 0j
) -> tuple:
    """adaptive_quadrature from its first round, as QuadratureResult fields, of
    the integral plus offset (a constant known in closed form): panels holds the
    left and right edges, K15 values, estimates and masses, in any order."""
    while True:
        lefts, rights, vals, errs, masses = panels
        value, estimate, goal, stops = _judge(vals, errs, masses, tol, roundoff, offset)
        result = value, estimate, errs.size, estimate <= goal
        if stops:
            return result
        split = (errs > goal / errs.size) & (rights - lefts > 1e-15 * (rights.max() - lefts.min()))
        count = np.count_nonzero(split)
        if count == 0 or errs.size + count > max_panels:
            return result
        split_lefts, split_rights = lefts[split], rights[split]
        mids = 0.5 * (split_lefts + split_rights)
        child_lefts = np.concatenate((split_lefts, mids))
        child_rights = np.concatenate((mids, split_rights))
        children = (child_lefts, child_rights, *_panels(f, child_lefts, child_rights))
        keep = ~split
        panels = [np.concatenate((old[keep], new)) for old, new in zip(panels, children)]


def circle_integral(inst: ProblemInstance, tol: float = DEFAULT_QUAD_TOL) -> QuadratureResult:
    """Contour integral of z**beta / (z - alpha) over the unit circle.

    Parameterised as z = e^{is} on the window s in [theta - 2 pi, theta],
    which walks the circle once starting and ending on the cut.  There the
    branch argument of e^{is} is s itself, so the power is exp(i beta s) with
    no logarithm calls in the hot loop.  That integrand is analytic on the
    closed window (the cut only enters through its endpoints, which Gauss nodes
    never touch).  A pole near the circle is subtracted and its residue
    added back, the engine starts on the mesh of _circle_start, and the
    estimate adds the rounding of the exponential and of that residue (module
    notes).  Raises NonFiniteValue when the integrand could overflow on the
    window, or the value or estimate is not finite.
    """
    roundoff = _circle_roundoff(inst)
    lo, alpha, beta = inst.theta - TWO_PI, inst.alpha, inst.beta
    edges, pole = _circle_start(lo, alpha, beta)
    c = None if pole is None else cmath.exp(1j * beta * pole)
    g = _circle_integrand(beta, alpha, c)
    f = lambda s: g(s, np.exp(1j * s))
    if edges is None:
        edges = lo + _PLAIN_EDGES
        first = _rules(g(lo + _PLAIN_NODES, cmath.exp(1j * lo) * _PLAIN_TURNS), _PLAIN_HALF)
    else:
        first = _panels(f, edges[:-1], edges[1:])
    # the i of dz = i z ds multiplies the total, the enclosed residue 2 pi i c included
    offset = 0j if c is None or inst.alpha_outside() else TWO_PI * c
    value, *rest = _refine(f, (edges[:-1], edges[1:], *first), tol, DEFAULT_MAX_PANELS, roundoff, offset)
    return _finite(QuadratureResult(complex(-value.imag, value.real), *rest))


def circle_integrals(insts: list[ProblemInstance], tol: float = DEFAULT_QUAD_TOL) -> list[QuadratureResult]:
    """circle_integral for each instance, once every instance is checked, in order."""
    for inst in insts:
        _circle_roundoff(inst)
    return [circle_integral(inst, tol) for inst in insts]


def _circle_roundoff(inst: ProblemInstance) -> float:
    """Factor of integral |f| in the estimate of inst's circle integral (module
    notes), once inst is checked: alpha off the circle, and no node overflowing."""
    inst.require_alpha_off_circle()
    th, alpha, beta = inst.theta, inst.alpha, inst.beta
    # log |z^beta| = -Im(beta) s is largest at one end of the window,
    # and |z - alpha| >= |1 - |alpha|| on the circle
    peak = beta.imag * (TWO_PI - th) if beta.imag > 0.0 else -beta.imag * th
    peak -= math.log(abs(1.0 - abs(alpha)))
    if peak > _EXP_LIMIT:
        raise NonFiniteValue(f"|z**beta / (z - alpha)| may reach e^{peak:.6g} on the circle, beyond double precision")
    return _ROUNDOFF + _EPS * TWO_PI * (abs(beta) + 1.0)


def _circle_integrand(beta: complex, alpha: complex, c: complex | None) -> Callable:
    """z (z**beta - c) / (z - alpha) at s, given z = e^{is}: the integrand over
    ds, short of the constant factor i; c = None gives the bits of c = 0j."""
    if c is None:
        return lambda s, z: z * np.exp(1j * beta * s) / (z - alpha)
    return lambda s, z: z * (np.exp(1j * beta * s) - c) / (z - alpha)


def _finite(result: QuadratureResult) -> QuadratureResult:
    if not (cmath.isfinite(result.value) and math.isfinite(result.abs_error_estimate)):
        raise NonFiniteValue(f"circle quadrature gave {result.value!r} +- {result.abs_error_estimate!r}")
    return result


def _circle_start(lo: float, alpha: complex, beta: complex) -> tuple:
    """Start of circle_integral on [lo, lo + 2 pi] (module notes): (the graded
    edges, or None for the plain start; the pole s0 = arg(alpha) - i log|alpha|,
    arg(alpha) in the window, when its residue is subtracted, or None).

    The edges are built from Python floats, sorted and deduplicated, so they
    are a pure function of the instance.
    """
    log_mod = math.log(abs(alpha)) if alpha != 0 else -math.inf
    dist = abs(log_mod)
    im = abs(beta.imag)
    if dist >= _POLE_REACH and im * _CIRCLE_WIDTH <= _PEAK_MIN:
        return None, None  # nothing grades: the plain start
    reach = 2.0 * _CIRCLE_WIDTH
    hi = lo + TWO_PI
    points = []

    def grade(start: float, step: float, sign: float) -> None:
        # the points run monotonically from near to at most far, so a walk
        # with both ends on one side of the window adds none
        near, far = start + sign * step, start + sign * reach
        if (near < hi and far > lo) if sign > 0.0 else (far < hi and near > lo):
            while step <= reach:
                if lo < (point := start + sign * step) < hi:
                    points.append(point)
                step *= 2.0

    pole = None
    if dist < _POLE_REACH:
        # the pole's images one turn away keep residues scaled by e^{+-2 pi i
        # beta}, which the subtraction leaves; grade both sides of each, so a
        # pole near the cut grades both ends of the window
        s0 = lo + (cmath.phase(alpha) - lo) % TWO_PI
        centres = [s0 - TWO_PI, s0 + TWO_PI]
        if beta.real * log_mod <= _POLE_GROWTH:
            pole = complex(s0, -log_mod)
        else:
            centres.append(s0)
            if lo < s0 < hi:
                points.append(s0)
        for centre in centres:
            grade(centre, _POLE_STEP * dist, 1.0)
            grade(centre, _POLE_STEP * dist, -1.0)
    if im * _CIRCLE_WIDTH > _PEAK_MIN:
        # |z^beta| = e^{-Im(beta) s} peaks at lo for Im(beta) > 0, at hi below 0
        if beta.imag > 0.0:
            grade(lo, _PEAK_STEP / im, 1.0)
        else:
            grade(hi, _PEAK_STEP / im, -1.0)
    if not points:
        return None, pole
    points += [lo + k * _CIRCLE_WIDTH for k in range(1, _CIRCLE_PANELS)]
    return np.array([lo] + sorted(set(points)) + [hi]), pole


def _unit_power_integrals(mu: list[complex], param: list[complex], factor: Callable) -> list[QuadratureResult]:
    """integral_0^1 t^mu_k * factor(t, param_k) dt for every k, to DEFAULT_QUAD_TOL.

    factor(t, p) must be vectorised, broadcast a column p over t, and be
    smooth and pole-free on (0, 1].  Re(mu_k) > -1 is the caller's
    responsibility.  The t = u^{1/(1+Re mu)} substitution
    described in the module notes removes the real part of the endpoint
    exponent entirely.  All integrals share one first round: the integrand
    gets (k, 1) columns of its parameters there, and scalars in the rounds of
    an integral that refines, so each value is the same float either way.
    """
    mu = [complex(m) for m in mu]
    s = [1.0 / (1.0 + m.real) for m in mu]  # t = u**s maps (0, 1] onto itself
    c = [m.imag * sk for m, sk in zip(mu, s)]  # leftover purely imaginary exponent

    def g(u: np.ndarray, s, c, p) -> np.ndarray:
        lu = np.log(u)
        return s * np.exp(1j * c * lu) * factor(np.exp(s * lu), p)

    columns = [np.array(values)[:, None] for values in (s, c, param)]
    lefts, rights = _UNIT_EDGES[:-1], _UNIT_EDGES[1:]
    vals, errs, masses = _panels(lambda u: g(u, *columns), lefts, rights)
    return [
        QuadratureResult(*_refine(
            lambda u, k=k: g(u, s[k], c[k], param[k]), (lefts, rights, vals[k], errs[k], masses[k]),
            DEFAULT_QUAD_TOL, DEFAULT_MAX_PANELS, _ROUNDOFF,
        ))
        for k in range(len(mu))
    ]


def euler_integrals(ws: list[complex], betas: list[complex]) -> list[QuadratureResult]:
    """integral_0^1 t^{beta-1} / (1 - w t) dt for each pair (w, beta) of ws and
    betas, with Re(beta) > 0 and w off [1, inf), evaluated as one batch.

    beta times this integral is 2F1(1, beta; 1+beta; w) — Euler's integral
    representation with its (1-t)^{c-b-1} factor trivial — which is exactly
    how the cross-checks consume it.  w on the real ray [1, inf) puts the
    pole 1/w onto the path and raises SingularPath; Re(beta) <= 0 makes the
    endpoint non-integrable and raises DivergentAtZero.  Every pair is
    checked, in order, before any is integrated.
    """
    ws = [complex(w) for w in ws]
    betas = [complex(beta) for beta in betas]
    for w, beta in zip(ws, betas, strict=True):
        if beta.real <= 0.0:
            raise DivergentAtZero(f"Re(beta) = {beta.real:g} <= 0: t^(beta-1) is not integrable at 0")
        if abs(w.imag) < 1e-13 and w.real >= 1.0 - 1e-13:
            raise SingularPath(f"w = {w!r} puts the pole t = 1/w on the integration path [0, 1]")
    return _unit_power_integrals([beta - 1.0 for beta in betas], ws, lambda t, w: 1.0 / (1.0 - w * t))


def euler_integral(w: complex, beta: complex) -> QuadratureResult:
    """euler_integrals for the one pair (w, beta)."""
    return euler_integrals([w], [beta])[0]


def radial_integrals(insts: list[ProblemInstance]) -> list[QuadratureResult]:
    """integral_0^1 t^beta / (t - alpha e^{-i theta}) dt for each instance with
    Re(beta) > 0, evaluated as one batch.

    This is the integral the circle contour collapses onto along the two
    banks of the cut: substituting z = t e^{i theta} maps the ray segment to
    the unit interval, and on (0, 1] the branch power of a positive real t is
    the principal one for every theta, so plain t**beta applies.  The pole
    sits at alpha e^{-i theta}; if that lands on (0, 1] — i.e. Arg(alpha) =
    theta with |alpha| <= 1 — the path is singular.  Every instance is
    checked, in order, before any is integrated.
    """
    poles = []
    for inst in insts:
        if inst.beta.real <= 0.0:
            raise DivergentAtZero(f"Re(beta) = {inst.beta.real:g} <= 0: t^beta/t is not integrable at 0")
        pole = inst.alpha * cmath.exp(-1j * inst.theta)
        if abs(pole.imag) < 1e-13 and 0.0 <= pole.real <= 1.0 + 1e-13:
            raise SingularPath(f"pole t = {pole!r} lies on the integration path [0, 1]")
        poles.append(pole)
    return _unit_power_integrals([inst.beta for inst in insts], poles, lambda t, pole: 1.0 / (t - pole))


def radial_integral(inst: ProblemInstance) -> QuadratureResult:
    """radial_integrals for the one instance."""
    return radial_integrals([inst])[0]


def check_integral_reductions(insts: list[ProblemInstance]) -> list[float]:
    """Relative discrepancy in: radial integral = 1/beta - Euler integral at
    e^{i theta}/alpha, for each instance.

    Writing t/(t - p) = 1 + p/(t - p) with p = alpha e^{-i theta} reduces
        integral_0^1 t^beta/(t - p) dt = 1/beta - integral_0^1 t^{beta-1}/(1 - t/p) dt.
    Both sides are evaluated by independent quadratures (different integrands,
    different substitutions), so small residuals are evidence, not tautology.
    Each side is one batch over the instances, and a quadrature that stopped
    unconverged raises SlowConvergence.
    """
    lhs = radial_integrals(insts)
    poles = [inst.alpha * cmath.exp(-1j * inst.theta) for inst in insts]
    euler = euler_integrals([1.0 / pole for pole in poles], [inst.beta for inst in insts])
    residuals = []
    for inst, left, right in zip(insts, lhs, euler):
        radial = left.converged_value("radial integral")
        rhs = 1.0 / inst.beta - right.converged_value("Euler integral")
        residuals.append(abs(radial - rhs) / max(abs(rhs), 1.0))
    return residuals


def check_integral_reduction(inst: ProblemInstance) -> float:
    """check_integral_reductions for the one instance."""
    return check_integral_reductions([inst])[0]


def check_circles_vs_radial(insts: list[ProblemInstance]) -> list[float]:
    """Residual of: circle integral = enclosed residue + cut jump * radial
    integral, for each instance.

    Collapsing the circle onto the two banks of the cut leaves (i) the full
    residue 2*pi*i*alpha^beta when the pole is enclosed (|alpha| < 1), with
    alpha^beta the branch power e^{beta log_theta(alpha)} — that is what the
    residue of z^beta/(z - alpha) at alpha means on this slit plane — and
    (ii) the two ray integrals, whose branch powers differ by exactly
    cut_jump_factor(beta, theta).  Needs Re(beta) > 0 (ray integrals converge
    at the origin) and, when |alpha| < 1, alpha off the cut.  The circle
    integrals run one by one, the radial ones as one batch, and a quadrature
    that stopped unconverged raises SlowConvergence.
    """
    circles = circle_integrals(insts)
    radials = radial_integrals(insts)
    residuals = []
    for inst, circle, radial in zip(insts, circles, radials):
        circ = circle.converged_value("circle integral")
        rhs = cut_jump_factor(inst.beta, inst.theta) * radial.converged_value("radial integral")
        if abs(inst.alpha) < 1.0 and inst.alpha != 0:
            try:
                rhs += 2j * math.pi * branch_pow(inst.alpha, inst.beta, inst.theta)
            except OnBranchCut as exc:
                raise AlphaOnCut(str(exc)) from exc
        residuals.append(abs(circ - rhs) / max(abs(rhs), 1.0))
    return residuals


def check_circle_vs_radial(inst: ProblemInstance) -> float:
    """check_circles_vs_radial for the one instance."""
    return check_circles_vs_radial([inst])[0]
