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
cannot grade returns before building anything, and an integral builds one
result.  The nodes of the panels to evaluate go to f in one flat array: one
call for all initial panels (a batch evaluates its own first rounds, below),
then one per round for the children of all the panels split, which join the
panels kept.
Refinement stops unconverged when no panel over its share is wider than
1e-15 of the interval, or when a round would pass DEFAULT_MAX_PANELS.
adaptive_quadrature starts on the edges its caller gives: the circle and
unit-interval integrals start on meshes graded toward what the instance says
is hard (the sections below), so almost every integral stops on that first
round.

Refinement looks only at |K15 - G7|.  That difference can fall below the
rounding error of the K15 sum itself, so the reported estimate also carries
QUADPACK's floor, 50 * eps * integral of |f| (Piessens et al., 1983; the
integral of |f| is taken with the K15 weights), and converged is judged on
that floored estimate.  An integral stops once its summed |K15 - G7| meets
the goal, unless the rounding terms below leave that estimate past the goal
while they are short of it themselves: one round more then converges it
(an ODE row of run_verify stopped unconverged on about 1 draw in 12,000
without that), and rounding terms at or past the goal stop it at once, as
no round can lower them.  On the circle, the power exp(i beta s) carries
the rounding of an exponential whose argument reaches |beta| 2 pi, and
z = e^{is} its own, so the estimate adds eps * 2 pi * (|beta| + 1) *
integral of |f|.  That term is a bound on a rounding that happens, so it
stays even where a scan finds the estimate holds without it.  The plain
start forms the power as two factors (Circle start, below): the anchor
e^{i beta (lo + mid)}, whose argument reaches |beta| (2 pi - h) as the
midpoints lie h inside the window, and the shape e^{i beta h x}, reaching
|beta| h.  Each argument is one rounded sum or product times i beta, so it
is within eps of its size, and the two exponentials and their product add
about 3 eps: the factored power is within eps (2 pi |beta| + 3) of the
exact power at the rule's node, inside the same term (tests/test_quadrature.py,
TestFactoredCirclePhase; on 400 draws with |beta| up to 40 it stayed within
0.56 of the term).
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
to two base panels.  A start without such points, the plain start, takes
module constants.  Its 16 panels share one half width h = pi/16, so with
lo = theta - 2 pi every node is lo + mid + h x for its panel's midpoint mid
and one of 15 offsets h x (the rule's panel ends meet the edges refinement
splits to within an ulp of them).  So e^{is} is e^{i lo} _PLAIN_TURNS, one
complex exponential, and the power e^{i beta s} is e^{i beta (lo + mid)}
e^{i beta h x}, an outer product of 16 anchors and 15 shapes: 31 complex
exponentials a row for 240 nodes.  A 15-row chunk then takes its powers in
~25 us rather than ~87 us.  Refinement rounds and graded starts take
e^{i beta s} directly at their nodes.

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
calls on the eval-mixed pools, and the ODE integrand's own reach of 0.85
as the one taking the fewest on run_verify's ode draws (below).

ODE integrand
-------------
Differentiating under the integral sign, p2 I'' + p1 I' of the circle
integral I(alpha) is one contour integral, of z^beta N(z)/(z - alpha)^3 with
N = n0 + n1 (z - alpha), n0 = 2 p2(alpha) and n1 = p1(alpha)
(circle_ode_integrals; odecheck.ode_residuals).  It runs on circle_integral's
window, _circle_start mesh and engine, and where that subtracts the pole it
subtracts the degree-2 Taylor polynomial T = t0 + t1 d + t2 d^2, d = z - alpha,
of z^beta N at alpha instead: with c0 = alpha^beta = e^{i beta s0},
c1 = beta c0/alpha and c2 = (beta - 1) c1/(2 alpha), t0 = c0 n0,
t1 = c1 n0 + c0 n1 and t2 = c2 n0 + c1 n1.  Of T/d^3 only t2/d has a residue,
so 2 pi i t2 is added back when alpha is inside.  Its pole is near within
_ODE_POLE_REACH = 0.85 of the window, not the circle's 0.6: past a simple
pole's reach a triple pole still leaves the plain 16 panels short.  At 0.6,
1.17 of the 12 ode rows a run_verify op draws (seeds 1000-1299) refined
from the plain start, one round alone each; at 0.85 0.12 do, and 0.51 rows
start graded, against 0.28.  Graded first rounds plus refinement rounds,
per op, were 1.45 at 0.6, 0.68 at 0.8, 0.64 at 0.85, 0.66 at 0.9 and 0.79
at 1.0, and 0.85 was the least on seeds 2000-2599 and 4000-4029 too.

Its overflow guard is the circle's with 3 log(1/|1 - |alpha||) for the
triple pole and log max|N| on the circle, |n0 - n1 alpha| + |n1|, added to
the peak, so it refuses exponents the circle takes: at verify's seed 1 and
Re beta = 0.5, Im beta past 119.92 or below -116.20, where the circle
refuses past 125.49 or below -126.04 (tests/test_verify.py).  Its estimate
is the circle's, and where T is subtracted it carries the rounding of that
subtraction too.  Near the pole z^beta N - T is O(d^3), formed from parts
of size |z^beta N| and |T|, and the power and z round apart: a rounding
delta of z moves N and T but not the power, so it enters the difference as
|beta| |z^beta N| |delta|.  On the plain start the power is within
eps (2 pi |beta| + 3) of its value at the rule's node (Engine, above) and
z = e^{i lo} _PLAIN_TURNS within eps (pi + 3.1) (its node rounded once, two
exponentials and their product), so the parts round by at most
eps ((3 pi + 3.1) |beta| + 5), inside twice the power's term, eps 4 pi
(|beta| + 1); elsewhere z and the power share their node, and round less.
That rounding is relative to |z^beta N|/|d|^3 <= |f| + |T|/|d|^3, so the
estimate takes twice the power's term on integral |f| and adds it times
integral |T|/|d|^3 <= |t0| I3 + |t1| I2 + |t2| I1, where Ik is the integral
of 1/|d|^k over the circle: I2 = 2 pi/|1 - r^2| for r = |alpha| (the
Poisson kernel), I3 <= I2/|1 - r| and I1 <= sqrt(2 pi I2) (Cauchy-Schwarz).
Without that term, on 600 draws with |alpha| in 0.8-0.9 or 1.1-1.25 and
verify's exponents, the error passed the estimate on 1 draw (1.06 times it)
with the power taken directly and on 5 (up to 2.6 times) with it factored;
with it, the worst error is 0.033 of the estimate.  The term is a bound,
so it is pessimistic: within a few hundredths of the circle it can pass the
goal, and the row stops unconverged (on 4 of 300 draws with |alpha| from
0.95 to 1.05, all at 1.021; at 1.0002, where the error reached 7.6e-11
against a goal of 2.5e-10 with the power taken directly).  run_verify draws
|alpha| at least 0.1 from the circle, where the term stays below 0.17 of
the goal (seeds 1000-1299).

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
as 2^-33.  The unit-interval integrals therefore start on a mesh graded
toward 0 in one call, and refine from there as usual: 0, then 2^-36 to
2^-24 in steps of 2^3, up to 2^-14 in steps of 2^2, then 2^-13, ..., 1/4,
1/2, 3/4, 1, 25 panels.  Its depth was chosen by measurement on those
checks: on a mesh doubling all the way from 2^-K, the worst residual stops
improving at K = 36, and a deeper K costs no more calls.  The wider steps
below 2^-14 suffice because K15 resolves the phase u^{ic} on them in log u:
on the 2550 unit-interval rows run_verify drew over seeds 4000-4029 (with a
reduction check since gone) the mesh stops on its first round for the same
2457 rows as the 38-panel doubling mesh, within 1.6e-16 relative of it.
Where the phase turns fast, more than 2 per unit of log u, it stops there
less often (on 40 of 300 Euler draws with 2 < |c| <= 4, against 56 on the
doubling mesh) and refines instead; run_verify drew 36 such rows in 28,050
over seeds 1000-1299 and 4000-4029.

The first round factors the phase u^{ic}, which would otherwise take a
complex exponential at each of its nodes.  Every node is u = a w with a the
least power of two at or above its panel (1 for the last two panels), so
w = u / a is exact and log u = log a + log w with both terms at most 0:
nothing cancels, and each is rounded to within eps |log u|.  So
e^{ic log a} e^{ic log w} stays within a few eps (1 + |c log u|) of the
direct e^{ic log u}, the direct form's own rounding (tests/test_quadrature.py,
TestFactoredFirstRound).  All panels whose ends have one ratio share one
shape of w, so w takes six shapes, one per panel family (the first panel,
the ratios 8, 4 and 2, and the last two), and a row costs 25 + 90 complex
exponentials for 375 node values.  The panel's midpoint would not do as the
anchor: near u = 1, log mid and log(1 + r x) nearly cancel, and the phase
error grows to |c| eps |log mid|, ~125 times that bound at the node next to
1.  Refinement rounds take e^{ic log u} at their nodes directly.

Batched first round
-------------------
Almost every integral stops on its first round, so the batches evaluate
their first rounds together (circle_integrals and circle_ode_integrals those
of their rows on the plain start, both through _contour_integrals; a
graded or lone row runs alone): the integrand gets its parameters
as (k, 1) columns, and _rules reduces the (k, 15 n) values panel by panel,
with einsum, which calls no BLAS (an earlier circle batch's BLAS product
rounded a row by its place in the matrix under some OpenBLAS kernels).  One
stopping pass per chunk (_settle) then judges its rows: one tolist per
array, math.fsum per row, by _judge's rules.  Only the rows that fail it go
to _refine, alone, with scalar parameters, and _refine takes that judgement
rather than making it again.  So each result is the float it is alone
(tests/test_quadrature.py holds them equal field for field, and a shuffled
batch to the same bits).

A chunk holds at most _UNIT_CHUNK = 15 rows, 5625 node values (3600 for
circles).  That bounds the arrays a chunk has live at once to ~0.4 MB
(tracemalloc; a 60-row batch whole peaks at ~2 MB).  Whole batches of 15 and
20 rows of 570 node values (38 panels) made glibc's malloc give pages back at
the top of the heap after each batch and fault them in again at the next:
~430 page faults per verify op, at ~1.6 us each on a 2-core x86-64 VM, which
took back most of what the factored phase saves.  In chunks a verify op takes
none there, for one more pass of numpy calls per batch.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import Callable, NamedTuple

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
    "circle_ode_integrals",
    "euler_integral",
    "euler_integrals",
    "radial_integral",
    "radial_integrals",
    "check_integral_reduction",
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

def _unit_mesh(edges: list[float]) -> tuple:
    """The first round of the unit-interval integrals with the phase factored
    (module notes) on the increasing edges 0, powers of two up to 1/2, 3/4 and
    1, flat in panel order: the edges and the panels' half widths, log u at
    the nodes (built as _panels builds them), and the table of the phase.
    Each node is u = a w with a the least power of two at or above its panel,
    so w = u / a is exact, and the panels whose ends have one ratio share one
    shape of w.  The table holds log a for each panel, then log w on each
    shape; a node takes its a and its w from the entries the last two arrays
    give."""
    edges = np.array(edges)
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = 0.5 * (edges[:-1] + edges[1:])[:, None] + half[:, None] * _NODES
    anchors = np.array([2.0 ** math.ceil(math.log2(right)) for right in edges[1:].tolist()])
    w = nodes / anchors[:, None]
    keys = [row.tobytes() for row in w]
    shapes = list(dict.fromkeys(keys))  # each shape of w once, in panel order
    shape = np.array([shapes.index(key) for key in keys])
    return (
        edges,
        half,
        np.log(nodes).ravel(),
        np.log(np.concatenate((anchors, w[[keys.index(key) for key in shapes]].ravel()))),
        np.repeat(np.arange(half.size), 15),
        half.size + (15 * shape[:, None] + np.arange(15)).ravel(),
    )


#: The graded start of the unit-interval integrals (see the module notes):
#: steps of 2^3 from 2^-36 up to 2^-24 and of 2^2 up to 2^-14, then doubling.
_UNIT_EDGES, _UNIT_HALF, _UNIT_LOGS, _UNIT_PHASE_LOGS, _UNIT_ANCHOR, _UNIT_SHAPE = _unit_mesh(
    [0.0] + [2.0**-k for k in (*range(36, 24, -3), *range(24, 14, -2), *range(14, 0, -1))] + [0.75, 1.0]
)
#: Rows of a first-round chunk, at most (module notes).
_UNIT_CHUNK = 15

#: Start of the circle integral (see the module notes): equal panels, plus
#: points doubling away from the pole's images one turn either side of the
#: window when the pole is within _POLE_REACH of it (and from the window's own
#: image too when the pole is not subtracted), and from the end where
#: |z^beta| peaks when |Im beta| times the panel width exceeds _PEAK_MIN.
_CIRCLE_PANELS = 16
_CIRCLE_WIDTH = TWO_PI / _CIRCLE_PANELS
_POLE_REACH = 0.6
#: The ODE integrand's pole is triple, so its Taylor polynomial is subtracted
#: out to a reach of its own (module notes).
_ODE_POLE_REACH = 0.85
_POLE_STEP = 0.5  # first step, as a fraction of the pole's distance |log|alpha||
_PEAK_MIN = 2.0
_PEAK_STEP = 2.0  # first step, divided by |Im beta|
#: The residue c = alpha^beta is subtracted only while |alpha|^Re(beta), the
#: ratio of |c| to |z^beta| at z = alpha / |alpha|, is at most e^_POLE_GROWTH.
_POLE_GROWTH = 2.0

#: The plain start (no grading points) relative to the window's left end:
#: its edges, the panels' midpoints, the offsets h x of a panel's nodes from
#: its midpoint, which every panel shares with its half width h = pi/16, the
#: 16 x 15 nodes in panel order, and e^{i node} (module notes).
_PLAIN_EDGES = _CIRCLE_WIDTH * np.arange(_CIRCLE_PANELS + 1.0)
_PLAIN_MIDS = _CIRCLE_WIDTH * np.arange(0.5, _CIRCLE_PANELS)
_PLAIN_HALF = np.full(_CIRCLE_PANELS, 0.5 * _CIRCLE_WIDTH)
_PLAIN_SHAPE = 0.5 * _CIRCLE_WIDTH * _NODES
_PLAIN_NODES = (_PLAIN_MIDS[:, None] + _PLAIN_SHAPE).ravel()
_PLAIN_TURNS = np.exp(1j * _PLAIN_NODES)

#: circle_integral refuses when its integrand may reach e^_EXP_LIMIT on the
#: window: a little below the float overflow at e^709.78, so no node overflows.
_EXP_LIMIT = 700.0


class QuadratureResult(NamedTuple):
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


def _fsum(terms: list, extra: float = 0.0) -> float:
    """math.fsum of a list of floats and extra, or NaN for a sum it cannot
    form (an intermediate overflow, or inf - inf)."""
    if extra:
        terms = [*terms, extra]
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return math.nan


def _judge(
    re: list, im: list, errs: list, masses: list, tol: float, roundoff: float, offset: complex, fixed: float = 0.0
) -> tuple:
    """The stopping test on an integral's panels plus offset, given the real
    and imaginary parts of their K15 values, their estimates and masses as
    lists: (its value and estimate, goal = tol * max(1, |value|), whether it
    stops).  The estimate carries offset's own rounding, 2 eps |offset|, and
    fixed, a rounding term its caller bounds before any node.  It
    stops once the summed estimates are at most goal or NaN, unless the
    rounding terms alone are below goal and the estimate is not: a round
    more can meet the goal then.  A value that is not finite gets a NaN goal:
    it stops unconverged."""
    value = complex(_fsum(re, offset.real), _fsum(im, offset.imag))
    goal = tol * max(1.0, abs(value)) if cmath.isfinite(value) else math.nan
    err, floor, rounding = _fsum(errs), roundoff * _fsum(masses), 2.0 * _EPS * abs(offset) + fixed
    estimate = err + floor + rounding
    return value, estimate, goal, not (err > goal or (estimate > goal and floor + rounding < goal))


def adaptive_quadrature(f: Callable, edges: np.ndarray, tol: float = DEFAULT_QUAD_TOL) -> QuadratureResult:
    """Integrate the vectorised complex integrand f from edges[0] to edges[-1],
    starting on the panels between the given increasing edges.

    f receives a numpy array of abscissae and must return the integrand
    values.  Refinement stops once the summed panel estimates drop below
    tol * max(1, |value|) (absolute-or-relative), or when no panel can split
    or a round would pass DEFAULT_MAX_PANELS; the latter two report
    converged=False with the best value so far.  The reported estimate adds
    the summation floor 50 * eps * integral |f| to the panel estimates, and
    converged tests that floored estimate.
    """
    lefts, rights = edges[:-1], edges[1:]
    return QuadratureResult(*_refine(f, (lefts, rights, *_panels(f, lefts, rights)), tol, _ROUNDOFF))


def _refine(
    f: Callable,
    panels: tuple,
    tol: float,
    roundoff: float,
    offset: complex = 0j,
    fixed: float = 0.0,
    judged: tuple | None = None,
) -> tuple:
    """adaptive_quadrature from its first round, as QuadratureResult fields, of
    the integral plus offset (a constant known in closed form), its estimate
    carrying fixed (_judge): panels holds the left and right edges, K15
    values, estimates and masses, in any order.  judged, when given, is
    _judge's result on the first round, which is then not judged again."""
    while True:
        lefts, rights, vals, errs, masses = panels
        value, estimate, goal, stops = judged or _judge(
            vals.real.tolist(), vals.imag.tolist(), errs.tolist(), masses.tolist(), tol, roundoff, offset, fixed
        )
        judged = None
        result = value, estimate, errs.size, estimate <= goal
        if stops:
            return result
        split = (errs > goal / errs.size) & (rights - lefts > 1e-15 * (rights.max() - lefts.min()))
        count = np.count_nonzero(split)
        if count == 0 or errs.size + count > DEFAULT_MAX_PANELS:
            return result
        split_lefts, split_rights = lefts[split], rights[split]
        mids = 0.5 * (split_lefts + split_rights)
        child_lefts = np.concatenate((split_lefts, mids))
        child_rights = np.concatenate((mids, split_rights))
        children = (child_lefts, child_rights, *_panels(f, child_lefts, child_rights))
        keep = ~split
        panels = [np.concatenate((old[keep], new)) for old, new in zip(panels, children)]


def _settle(count: int, first_round: Callable, tol: float, rows: list, alone: Callable) -> list[tuple]:
    """QuadratureResult fields of count integrals, first rounds in chunks (module notes):
    first_round(start, end) gives rows start to end as (k, n) arrays of K15 values,
    estimates and masses, and rows each row's roundoff and offset, and its fixed
    term if any (_judge).  A row k that fails its chunk's stopping pass refines
    alone, on alone(k) = (its integrand, its edges)."""
    results = []
    chunks = -(-count // _UNIT_CHUNK)
    for j in range(chunks):
        start, end = count * j // chunks, count * (j + 1) // chunks
        vals, errs, masses = first_round(start, end)
        parts = zip(vals.real.tolist(), vals.imag.tolist(), errs.tolist(), masses.tolist(), rows[start:end])
        for k, (re, im, err, mass, terms) in enumerate(parts, start):
            value, estimate, goal, stops = judged = _judge(re, im, err, mass, tol, *terms)
            if stops:
                results.append((value, estimate, len(err), estimate <= goal))
            else:
                f, edges = alone(k)
                panels = (edges[:-1], edges[1:], vals[k - start], errs[k - start], masses[k - start])
                results.append(_refine(f, panels, tol, *terms, judged=judged))
    return results


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
    return circle_integrals([inst], tol)[0]


def circle_integrals(insts: list[ProblemInstance], tol: float = DEFAULT_QUAD_TOL) -> list[QuadratureResult]:
    """circle_integral for each instance, each checked, in order, before any
    is integrated; rows on the plain start share first rounds (module notes)."""
    rows = []
    for inst in insts:
        roundoff = _circle_roundoff(inst)
        lo, alpha, beta = inst.theta - TWO_PI, inst.alpha, inst.beta
        edges, pole = _circle_start(lo, alpha, beta)
        c = 0j if pole is None else cmath.exp(1j * beta * pole)
        # the i of dz = i z ds multiplies the total, the enclosed residue 2 pi i c included
        offset = 0j if inst.alpha_outside() else TWO_PI * c
        rows.append((lo, cmath.exp(1j * lo), (beta, alpha, c), (roundoff, offset), edges))
    return _contour_integrals(rows, _circle_integrand, tol)


def circle_ode_integrals(
    insts: list[ProblemInstance], numerators: list[tuple[complex, complex]]
) -> list[QuadratureResult]:
    """Contour integral of z**beta N(z) / (z - alpha)**3 over the unit circle,
    N(z) = n0 + n1 (z - alpha), for each instance and its pair (n0, n1): with
    n0 = 2 p2(alpha) and n1 = p1(alpha), p2 I'' + p1 I' of circle_integral's
    I(alpha).  It runs as circle_integrals does, and subtracts the Taylor
    polynomial of z**beta N at alpha where that would subtract the pole
    with the reach _ODE_POLE_REACH, its estimate then carrying the rounding
    of that subtraction (module notes).  Each instance is checked, in order,
    before any is integrated: alpha off the circle, and no node overflowing
    (NonFiniteValue).
    """
    rows = []
    for inst, (n0, n1) in zip(insts, numerators, strict=True):
        lo, alpha, beta = inst.theta - TWO_PI, inst.alpha, inst.beta
        # max |N| on the circle is |n0 - n1 alpha| + |n1|
        roundoff = _circle_roundoff(inst, 3, abs(n0 - n1 * alpha) + abs(n1))
        edges, pole = _circle_start(lo, alpha, beta, _ODE_POLE_REACH)
        t0 = t1 = t2 = 0j
        fixed = 0.0
        if pole is not None:
            # Taylor coefficients of z**beta at alpha, c0 = alpha**beta
            c0 = cmath.exp(1j * beta * pole)
            c1 = beta * c0 / alpha
            c2 = (beta - 1.0) * c1 / (2.0 * alpha)
            t0, t1, t2 = c0 * n0, c1 * n0 + c0 * n1, c2 * n0 + c1 * n1
            # z**beta N - T cancels to O(d^3) from parts that round by twice the
            # power's term, on integral |f| + integral |T| / |d|^3 (module notes)
            parts = 2.0 * _power_rounding(beta)
            roundoff = _ROUNDOFF + parts
            r = abs(alpha)
            disk = TWO_PI / abs(1.0 - r * r)  # integral of 1/|z - alpha|^2 over the circle
            fixed = parts * (abs(t0) * disk / abs(1.0 - r) + abs(t1) * disk + abs(t2) * math.sqrt(TWO_PI * disk))
        offset = 0j if inst.alpha_outside() else TWO_PI * t2
        rows.append((lo, cmath.exp(1j * lo), (beta, alpha, n0, n1, t0, t1, t2), (roundoff, offset, fixed), edges))
    return _contour_integrals(rows, _ode_integrand, DEFAULT_QUAD_TOL)


def _contour_integrals(rows: list[tuple], integrand: Callable, tol: float) -> list[QuadratureResult]:
    """The integrals of checked circle rows, each (lo, e^{i lo}, params, beta
    first, (roundoff, offset) or (roundoff, offset, fixed) as _judge takes
    them, graded edges or None), of integrand(*params) over ds short of the
    factor i: rows on the plain start share first rounds in chunks, and a
    graded row, or a lone plain row, runs alone (module notes)."""
    plain = [row for row in rows if row[4] is None] if len(rows) > 1 else ()
    settled = None
    if len(plain) > 1:
        los, turns = (np.array(col)[:, None] for col in list(zip(*plain))[:2])
        columns = [np.array(col)[:, None] for col in zip(*(row[2] for row in plain))]
        first_round = lambda a, b: _plain_first(
            los[a:b], turns[a:b], columns[0][a:b], integrand(*(col[a:b] for col in columns))
        )
        alone = lambda k: (integrand(*plain[k][2]), plain[k][0] + _PLAIN_EDGES)
        settled = iter(_settle(len(plain), first_round, tol, [row[3] for row in plain], alone))
    results = []
    for lo, turn, params, terms, edges in rows:
        if settled and edges is None:
            fields = next(settled)
        else:  # a graded row, or a lone plain row on scalars: columns would cost it ~1 us
            f = integrand(*params)
            if edges is None:
                edges, first = lo + _PLAIN_EDGES, _plain_first(lo, turn, params[0], f)
            else:
                first = _panels(f, edges[:-1], edges[1:])
            fields = _refine(f, (edges[:-1], edges[1:], *first), tol, *terms)
        value, *rest = fields
        results.append(_finite(QuadratureResult(complex(-value.imag, value.real), *rest)))
    return results


def _plain_first(lo, turn, beta, g: Callable) -> tuple:
    """_rules of the circle integrand g on the plain start, turn = e^{i lo}:
    scalars give one integral's first round, (k, 1) columns a chunk's.  The
    power e^{i beta s} is e^{i beta (lo + mid)} e^{i beta h x} (module notes):
    16 + 15 complex exponentials a row for its 240 nodes."""
    anchors = np.exp(1j * beta * (lo + _PLAIN_MIDS))
    shapes = np.exp(1j * beta * _PLAIN_SHAPE)
    power = (anchors[..., :, None] * shapes[..., None, :]).reshape(anchors.shape[:-1] + (_PLAIN_NODES.size,))
    return _rules(g(None, turn * _PLAIN_TURNS, power), _PLAIN_HALF)


def _circle_roundoff(inst: ProblemInstance, order: int = 1, size: float = 1.0) -> float:
    """Factor of integral |f| in the estimate of inst's circle integral of
    z**beta N(z) / (z - alpha)**order, |N| at most size on the circle (module
    notes), once inst is checked: alpha off the circle, and no node overflowing."""
    inst.require_alpha_off_circle()
    th, alpha, beta = inst.theta, inst.alpha, inst.beta
    # log |z^beta| = -Im(beta) s is largest at one end of the window,
    # and |z - alpha| >= |1 - |alpha|| on the circle
    peak = beta.imag * (TWO_PI - th) if beta.imag > 0.0 else -beta.imag * th
    peak -= order * math.log(abs(1.0 - abs(alpha)))
    peak += math.log(size) if size else -math.inf
    if not peak <= _EXP_LIMIT:
        raise NonFiniteValue(f"the circle integrand may reach e^{peak:.6g} on the circle, beyond double precision")
    return _ROUNDOFF + _power_rounding(beta)


def _power_rounding(beta: complex) -> float:
    """eps 2 pi (|beta| + 1), the rounding of the circle's power e^{i beta s}
    and of z = e^{is}, relative to the integrand (module notes)."""
    return _EPS * TWO_PI * (abs(beta) + 1.0)


def _circle_integrand(beta: complex, alpha: complex, c: complex) -> Callable:
    """z (z**beta - c) / (z - alpha) at s, with z = e^{is} and z**beta =
    e^{i beta s} made from s unless given (s may be None when both are): the
    integrand over ds, short of the factor i; c = 0j when no pole is subtracted."""
    def g(s: np.ndarray | None, z: np.ndarray | None = None, power: np.ndarray | None = None) -> np.ndarray:
        z = np.exp(1j * s) if z is None else z
        power = np.exp(1j * beta * s) if power is None else power
        return z * (power - c) / (z - alpha)

    return g


def _ode_integrand(beta, alpha, n0, n1, t0, t1, t2) -> Callable:
    """z (z**beta N(z) - T(z)) / (z - alpha)**3 at s, z and z**beta as for
    _circle_integrand, with N = n0 + n1 d and T = t0 + t1 d + t2 d^2 for
    d = z - alpha: the integrand of circle_ode_integrals over ds, short of the
    factor i; T = 0 when no pole is subtracted."""
    def g(s: np.ndarray | None, z: np.ndarray | None = None, power: np.ndarray | None = None) -> np.ndarray:
        z = np.exp(1j * s) if z is None else z
        power = np.exp(1j * beta * s) if power is None else power
        d = z - alpha
        return z * (power * (n0 + n1 * d) - (t0 + (t1 + t2 * d) * d)) / (d * d * d)

    return g


def _finite(result: QuadratureResult) -> QuadratureResult:
    if not (cmath.isfinite(result.value) and math.isfinite(result.abs_error_estimate)):
        raise NonFiniteValue(f"circle quadrature gave {result.value!r} +- {result.abs_error_estimate!r}")
    return result


def _circle_start(lo: float, alpha: complex, beta: complex, pole_reach: float = _POLE_REACH) -> tuple:
    """Start of circle_integral on [lo, lo + 2 pi] (module notes): (the graded
    edges, or None for the plain start; the pole s0 = arg(alpha) - i log|alpha|,
    arg(alpha) in the window, when its residue is subtracted, or None).  The
    pole counts as near within pole_reach of the window: _POLE_REACH for the
    circle's simple pole, _ODE_POLE_REACH for the ODE integrand's triple one.

    The edges are built from Python floats, sorted and deduplicated, so they
    are a pure function of the instance.
    """
    log_mod = math.log(abs(alpha)) if alpha != 0 else -math.inf
    dist = abs(log_mod)
    im = abs(beta.imag)
    if dist >= pole_reach and im * _CIRCLE_WIDTH <= _PEAK_MIN:
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
    if dist < pole_reach:
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


def _unit_integrand(amplitude: np.ndarray, log_u: np.ndarray, s, p, factor: Callable) -> np.ndarray:
    """s u^{ic} factor(u^s, p), the integrand of _unit_power_integrals, given
    log u at the nodes and the amplitude s u^{ic} there."""
    return amplitude * factor(np.exp(s * log_u), p)


def _unit_first_values(s: np.ndarray, c: np.ndarray, p: np.ndarray, factor: Callable) -> np.ndarray:
    """_unit_integrand at the nodes of the first round, as a (k, 15 n) array in
    panel order for its n panels, given (k, 1) columns s, c and p: the phase
    u^{ic} is e^{ic log a} e^{ic log w} (module notes), one complex exponential
    a row for each panel and each node of a shape, and s rides on the
    panels'."""
    phases = np.exp(1j * c * _UNIT_PHASE_LOGS)
    phases[:, : _UNIT_HALF.size] *= s
    amplitude = phases.take(_UNIT_ANCHOR, axis=1) * phases.take(_UNIT_SHAPE, axis=1)
    return _unit_integrand(amplitude, _UNIT_LOGS, s, p, factor)


def _unit_power_integrals(mu: list[complex], param: list[complex], factor: Callable) -> list[QuadratureResult]:
    """integral_0^1 t^mu_k * factor(t, param_k) dt for every k, to DEFAULT_QUAD_TOL.

    factor(t, p) must be vectorised, broadcast a column p over t, and be
    smooth and pole-free on (0, 1].  Re(mu_k) > -1 is the caller's
    responsibility.  The t = u^{1/(1+Re mu)} substitution
    described in the module notes removes the real part of the endpoint
    exponent entirely.  The integrals share first rounds, in chunks, and one
    stopping pass per chunk, and an integral that fails the test refines
    alone, with scalar parameters (module notes).
    """
    mu = [complex(m) for m in mu]
    s = [1.0 / (1.0 + m.real) for m in mu]  # t = u**s maps (0, 1] onto itself
    c = [m.imag * sk for m, sk in zip(mu, s)]  # leftover purely imaginary exponent

    def g(u: np.ndarray, k: int) -> np.ndarray:
        # a refinement round of integral k
        lu = np.log(u)
        return _unit_integrand(s[k] * np.exp(1j * c[k] * lu), lu, s[k], param[k], factor)

    columns = [np.array(values)[:, None] for values in (s, c, param)]
    first_round = lambda a, b: _rules(_unit_first_values(*(col[a:b] for col in columns), factor), _UNIT_HALF)
    alone = lambda k: (lambda u: g(u, k), _UNIT_EDGES)
    fields = _settle(len(mu), first_round, DEFAULT_QUAD_TOL, [(_ROUNDOFF, 0j)] * len(mu), alone)
    return [QuadratureResult(*row) for row in fields]


def euler_integrals(ws: list[complex], betas: list[complex]) -> list[QuadratureResult]:
    """integral_0^1 t^{beta-1} / (1 - w t) dt for each pair (w, beta) of ws and
    betas, with Re(beta) > 0 and w off [1, inf), evaluated as one batch.

    beta times this integral is 2F1(1, beta; 1+beta; w) — Euler's integral
    representation with its (1-t)^{c-b-1} factor trivial — which is exactly
    how the cross-checks consume it.  w on the real ray [1, inf) puts the
    pole 1/w onto the path and raises SingularPath; Re(beta) <= 0 makes the
    endpoint non-integrable and raises DivergentAtZero; a w or beta that is
    not finite raises ValueError.  Every pair is checked, in order, before
    any is integrated.
    """
    ws = [complex(w) for w in ws]
    betas = [complex(beta) for beta in betas]
    for w, beta in zip(ws, betas, strict=True):
        if not (cmath.isfinite(w) and cmath.isfinite(beta)):
            raise ValueError(f"w = {w!r} and beta = {beta!r} must be finite")
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


def check_integral_reduction(inst: ProblemInstance) -> float:
    """Relative discrepancy in: radial integral = 1/beta - Euler integral at
    e^{i theta}/alpha.

    Writing t/(t - p) = 1 + p/(t - p) with p = alpha e^{-i theta} reduces
        integral_0^1 t^beta/(t - p) dt = 1/beta - integral_0^1 t^{beta-1}/(1 - t/p) dt.
    Both sides are unit-interval quadratures, on different integrands.
    run_verify no longer runs it: eval runs neither side.  A quadrature that
    stopped unconverged raises SlowConvergence.
    """
    radial = radial_integral(inst).converged_value("radial integral")
    pole = inst.alpha * cmath.exp(-1j * inst.theta)
    rhs = 1.0 / inst.beta - euler_integral(1.0 / pole, inst.beta).converged_value("Euler integral")
    return abs(radial - rhs) / max(abs(rhs), 1.0)


def check_circles_vs_radial(insts: list[ProblemInstance]) -> list[float]:
    """Residual of: circle integral = enclosed residue + cut jump * radial
    integral, for each instance.

    Collapsing the circle onto the two banks of the cut leaves (i) the full
    residue 2*pi*i*alpha^beta when the pole is enclosed (|alpha| < 1), with
    alpha^beta the branch power e^{beta log_theta(alpha)} — that is what the
    residue of z^beta/(z - alpha) at alpha means on this slit plane — and
    (ii) the two ray integrals, whose branch powers differ by exactly
    cut_jump_factor(beta, theta).  Needs Re(beta) > 0 (ray integrals converge
    at the origin) and, when |alpha| < 1, alpha off the cut.  The circles and
    the radial integrals are one batch each (circle_integrals, radial_integrals),
    and a quadrature that stopped unconverged raises SlowConvergence.
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
