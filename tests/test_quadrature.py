"""Adaptive quadrature engine and the three concrete integrals built on it."""

import cmath
import math
import random
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bci.quadrature
from bci import (
    AlphaOnCircle,
    DivergentAtZero,
    NonFiniteValue,
    ProblemInstance,
    SingularPath,
    SlowConvergence,
    adaptive_quadrature,
    check_circle_vs_radial,
    check_integral_reduction,
    circle_integral,
    circle_integrals,
    euler_integral,
    euler_integrals,
    evaluate_instance,
    hyp2f1_one_b,
    radial_integral,
    radial_integrals,
    run_verify,
)
from bci.quadrature import QuadratureResult

# Contour values computed independently with mpmath (40-digit brute quadrature
# of the parameterised circle).
FROZEN_OUT = (1.5 * cmath.exp(0.8j), 0.5 + 0.3j, 2.0, complex(1.3675970912328640, -1.2040600562880184))
FROZEN_IN = (0.4 * cmath.exp(2.9j), 0.7 - 0.2j, 2.5, complex(-0.86314240294559916, 0.28404864998768630))
FROZEN_OUT_REAL = (2.0, 0.5, math.pi, complex(0.0, 0.51832099453158721))
FROZEN_IN_REAL = (0.3, 0.5, math.pi, complex(0.0, 5.0978397870946862))


#: Eight equal starting panels on [0, 1].
EIGHTHS = np.linspace(0.0, 1.0, 9)

#: Two poles 0.01 off [0, 1]: the integral of 1/(t - c) over both is
#: sum of log(1 - c) - log(-c).
SPOTS = (0.3 + 0.01j, 0.7 + 0.01j)


def _two_spots(t):
    return sum(1.0 / (t - c) for c in SPOTS)


class TestAdaptiveEngine:
    def test_polynomial_is_exact(self):
        r = adaptive_quadrature(lambda t: t**3, EIGHTHS, tol=1e-12)
        assert r.converged
        assert r.subdivisions == 8  # the initial split already nails it
        assert r.value == pytest.approx(0.25, abs=1e-15)

    def test_full_turn_of_oscillation_cancels(self):
        r = adaptive_quadrature(lambda t: np.exp(1j * t), np.linspace(0.0, 2 * math.pi, 9), tol=1e-12)
        assert r.converged
        assert abs(r.value) < 1e-12

    def test_estimate_bounds_actual_error(self):
        exact = math.log(101.0)
        r = adaptive_quadrature(lambda t: 1.0 / (t + 0.01), EIGHTHS, tol=1e-10)
        assert r.converged
        assert abs(r.value - exact) <= 2.0 * r.abs_error_estimate + 1e-13

    def test_budget_exhaustion_still_returns(self):
        r = adaptive_quadrature(lambda t: 1.0 / (t + 1e-6), EIGHTHS, tol=1e-10, max_panels=16)
        assert not r.converged
        assert r.subdivisions <= 16
        assert math.isfinite(abs(r.value))
        assert r.abs_error_estimate > 0.0

    def test_one_integrand_call_per_round(self):
        # every panel over either pole splits in the same round, so the
        # refinement takes a few calls, not one per split
        sizes = []

        def f(t):
            sizes.append(t.size)
            return _two_spots(t)

        r = adaptive_quadrature(f, EIGHTHS, tol=1e-10)
        exact = sum(cmath.log(1.0 - c) - cmath.log(-c) for c in SPOTS)
        assert r.converged
        assert abs(r.value - exact) <= r.abs_error_estimate
        # all initial panels in one call, then the children of each round's splits in one
        assert len(sizes) <= 5, sizes
        assert sizes[0] == 8 * 15
        assert all(size % (2 * 15) == 0 for size in sizes[1:])
        assert r.subdivisions == 8 + sum(sizes[1:]) // (2 * 15)

    def test_round_past_the_budget_is_not_taken(self):
        # the two-spot integrand splits six panels a round (the budget test above
        # splits one): at a budget of 20, the round that would pass it stops
        # the refinement instead
        r = adaptive_quadrature(_two_spots, EIGHTHS, tol=1e-10, max_panels=20)
        assert not r.converged
        assert r.subdivisions <= 20

    def test_result_fields_are_python_scalars(self):
        # reports and trace files serialise these with the json module
        r = adaptive_quadrature(lambda t: np.exp(1j * t) / (t + 0.5), EIGHTHS)
        assert type(r.value) is complex
        assert type(r.abs_error_estimate) is float
        assert type(r.converged) is bool

    def test_tighter_tol_never_uses_fewer_panels(self):
        f = lambda t: np.exp(1j * 3.3 * t) / (t + 0.05)
        loose = adaptive_quadrature(f, EIGHTHS, tol=1e-4)
        tight = adaptive_quadrature(f, EIGHTHS, tol=1e-10)
        assert loose.subdivisions <= tight.subdivisions
        assert tight.converged

    def test_total_past_the_float_range_is_not_finite(self):
        # eight panels of 1.25e308 sum past the largest float: math.fsum raises
        # OverflowError there, and the result is a non-finite value instead
        r = adaptive_quadrature(lambda t: np.full(t.shape, 1e307 + 0j), np.linspace(0.0, 100.0, 9))
        assert not cmath.isfinite(r.value)
        assert not math.isfinite(r.abs_error_estimate)
        assert not r.converged and r.subdivisions == 8
        with pytest.raises(NonFiniteValue):
            bci.quadrature._finite(r)

    def test_inf_minus_inf_total_is_not_finite(self):
        # panels of +inf and -inf: math.fsum raises ValueError on their sum
        with np.errstate(invalid="ignore"):
            r = adaptive_quadrature(lambda t: np.where(t < 50.0, np.inf, -np.inf) + 0j, np.linspace(0.0, 100.0, 9))
        assert not cmath.isfinite(r.value)
        assert not r.converged and r.subdivisions == 8
        with pytest.raises(NonFiniteValue):
            bci.quadrature._finite(r)


class TestKronrodRule:
    """The K15 / G7 pair of bci.quadrature, checked by its moments.

    A symmetric 15-point rule exact to degree 22, with a 7-point rule exact to
    degree 13 on every second node, is unique, so a wrong constant shows as a
    moment error.  A correctly rounded table integrates x^k to ~1e-16.
    """

    def _moment_errors(self, weights, degrees):
        nodes = bci.quadrature._NODES
        return [abs(math.fsum(weights * nodes**k) - (2.0 / (k + 1) if k % 2 == 0 else 0.0)) for k in degrees]

    def test_exact_degrees(self):
        kronrod, gauss = bci.quadrature._RULE_WEIGHTS.real
        assert max(self._moment_errors(kronrod, range(23))) <= 4e-16
        assert max(self._moment_errors(gauss, range(14))) <= 4e-16

    def test_inexact_beyond_their_degrees(self):
        # a 15-point Gauss rule would still be exact here (degree 29)
        kronrod, gauss = bci.quadrature._RULE_WEIGHTS.real
        (k24,) = self._moment_errors(kronrod, [24])
        (g14,) = self._moment_errors(gauss, [14])
        assert k24 > 1e-10 and g14 > 1e-4

    def test_symmetric_nodes_and_positive_weights(self):
        nodes, weights = bci.quadrature._NODES, bci.quadrature._RULE_WEIGHTS
        assert nodes.shape == (15,) and weights.shape == (2, 15) and weights.flags["C_CONTIGUOUS"]
        assert np.array_equal(nodes, -nodes[::-1]) and nodes[7] == 0.0
        assert np.all(np.diff(nodes) > 0.0) and -1.0 < nodes[0]
        assert np.all(weights.imag == 0.0) and np.array_equal(weights[0].real, bci.quadrature._KRONROD_WEIGHTS)
        assert np.all(weights[0].real > 0.0)
        # G7 lives on every second node
        assert np.all(weights[1, 1::2].real > 0.0) and np.all(weights[1, 0::2] == 0.0)


class TestCircleIntegral:
    def test_residue_of_inverse_power(self):
        # beta = -1, pole outside: only the z = 0 residue contributes -pi*i
        inst = ProblemInstance(alpha=2.0, beta=-1, theta=math.pi)
        r = circle_integral(inst)
        assert r.value == pytest.approx(-1j * math.pi, abs=1e-8)

    @pytest.mark.parametrize("alpha,beta,theta,want", [FROZEN_OUT, FROZEN_IN, FROZEN_OUT_REAL, FROZEN_IN_REAL])
    def test_frozen_contours(self, alpha, beta, theta, want):
        inst = ProblemInstance(alpha=alpha, beta=beta, theta=theta)
        r = circle_integral(inst)
        assert r.value == pytest.approx(want, rel=1e-8, abs=1e-8)
        assert abs(r.value - want) <= 2.0 * r.abs_error_estimate

    def test_alpha_on_circle_refused(self):
        from bci.errors import AlphaOnCircle

        with pytest.raises(AlphaOnCircle):
            circle_integral(ProblemInstance(alpha=0.999, beta=0.5, theta=math.pi))


def _mp_circle(alpha, beta, theta):
    """Non-integer beta: the 2F1 identity of bci.closedform in mpmath, 30 digits plus 15 guard."""
    with mp.workdps(45):
        a, b, th = mp.mpc(alpha), mp.mpc(beta), mp.mpf(theta)
        jump = mp.exp(1j * b * th) - mp.exp(1j * b * (th - 2 * mp.pi))
        if abs(alpha) < 1.0:
            value = jump / b * mp.hyp2f1(1, -b, 1 - b, a * mp.exp(-1j * th))
        else:
            value = jump / b * (1 - mp.hyp2f1(1, b, 1 + b, mp.exp(1j * th) / a))
        return complex(value)


class TestCircleAgainstMpmath:
    def test_estimate_bounds_true_error(self):
        rng = random.Random(20221017)
        for _ in range(100):
            z = rng.uniform(0.02, 0.979)
            mod = z if rng.random() < 0.5 else 1.0 / z
            alpha = mod * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
            im = rng.uniform(-3.0, 3.0) if rng.random() < 0.7 else rng.choice((-1, 1)) * rng.uniform(3.0, 40.0)
            beta = complex(rng.uniform(-3.0, 3.0), im)
            theta = rng.uniform(0.05, 2 * math.pi - 0.05)
            r = circle_integral(ProblemInstance(alpha=alpha, beta=beta, theta=theta))
            err = abs(r.value - _mp_circle(alpha, beta, theta))
            assert err <= r.abs_error_estimate, (alpha, beta, theta, err, r.abs_error_estimate)

    @given(
        z=st.floats(min_value=0.02, max_value=0.979),
        outside=st.booleans(),
        arg=st.floats(min_value=0.0, max_value=2 * math.pi),
        br=st.floats(min_value=-3.0, max_value=3.0),
        bi=st.floats(min_value=-40.0, max_value=40.0),
        theta=st.floats(min_value=0.05, max_value=2 * math.pi - 0.05),
    )
    @settings(max_examples=60, deadline=None)
    def test_estimate_is_at_least_true_error(self, z, outside, arg, br, bi, theta):
        assume(abs(bi) > 1e-9 or abs(br - round(br)) > 1e-9)  # _mp_circle needs non-integer beta
        alpha = (1.0 / z if outside else z) * cmath.exp(1j * arg)
        beta = complex(br, bi)
        r = circle_integral(ProblemInstance(alpha=alpha, beta=beta, theta=theta))
        err = abs(r.value - _mp_circle(alpha, beta, theta))
        assert err <= r.abs_error_estimate, (alpha, beta, theta, err, r.abs_error_estimate)

    @pytest.mark.parametrize("alpha,beta,theta", [(0.5, 0.5 + 30j, 3.0), (3.0, 0.5 - 40j, 1.0)])
    def test_large_imaginary_exponent_agrees(self, alpha, beta, theta):
        report = evaluate_instance(ProblemInstance(alpha=alpha, beta=beta, theta=theta))
        assert report.verdict == "Agree"
        quad = next(r for r in report.results if r.method == "Quadrature")
        assert abs(quad.value - _mp_circle(alpha, beta, theta)) <= quad.error_estimate


    def test_large_imaginary_exponent_estimate_covers_exp_rounding(self):
        # exp(i beta (t - 2 pi) + i t) is off relatively by ~eps |beta + 1| 2 pi at a
        # node; once the start mesh makes |K15 - G7| tiny, only the estimate's
        # rounding term covers that (6 of these draws fall below their error without it)
        rng = random.Random(7)
        for _ in range(400):
            z = rng.uniform(0.02, 0.979)
            mod = z if rng.random() < 0.5 else 1.0 / z
            alpha = mod * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
            beta = complex(rng.uniform(-3.0, 3.0), rng.choice((-1, 1)) * rng.uniform(20.0, 40.0))
            theta = rng.uniform(0.05, 2 * math.pi - 0.05)
            r = circle_integral(ProblemInstance(alpha=alpha, beta=beta, theta=theta))
            err = abs(r.value - _mp_circle(alpha, beta, theta))
            assert err <= r.abs_error_estimate, (alpha, beta, theta, err, r.abs_error_estimate)


def _near_band_instance(rng, band, near_cut):
    """|alpha| 1-3 bands from the circle, inside or out, with arg alpha within
    0.3 rad of the cut at theta or at least 0.3 rad from it."""
    mod = 1.0 + rng.choice((-1, 1)) * band * rng.uniform(1.0, 3.0)
    theta = rng.uniform(0.05, 2 * math.pi - 0.05)
    offset = rng.choice((-1, 1)) * rng.uniform(0.0, 0.3) if near_cut else rng.uniform(0.3, 2 * math.pi - 0.3)
    beta = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
    return ProblemInstance(alpha=mod * cmath.exp(1j * (theta + offset)), beta=beta, theta=theta, exclusion_band=band)


class TestCircleNearTheBand:
    @pytest.mark.parametrize("band", [1e-4, 1e-6])
    @pytest.mark.parametrize("near_cut,count", [(False, 80), (True, 60)])
    def test_estimate_holds_on_few_panels(self, band, near_cut, count):
        # with the start graded toward the pole, the estimate held on 79/80
        # and 60/60 of these draws at band 1e-4 (away from the cut, then near
        # it) and on 58/80 and 38/60 at 1e-6, on 46-73 panels; with the pole
        # subtracted the integrand is smooth there
        rng = random.Random(f"near-band:{band}:{near_cut}")
        panels = 0
        for _ in range(count):
            inst = _near_band_instance(rng, band, near_cut)
            r = circle_integral(inst)
            err = abs(r.value - _mp_circle(inst.alpha, inst.beta, inst.theta))
            assert r.converged and err <= r.abs_error_estimate, (inst, err, r.abs_error_estimate)
            panels += r.subdivisions
        assert panels / count <= 20.0, panels / count

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_estimate_covers_the_added_residue(self, n):
        # integer beta = n >= 0 with alpha inside: the integral is 2 pi i alpha^n,
        # all of it the added residue; z^n - c vanishes identically at n = 0, so
        # only the rounding of 2 pi i c covers the error there
        rng = random.Random(n)
        for _ in range(40):
            mod = rng.uniform(0.56, 0.979)
            alpha = mod * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
            r = circle_integral(ProblemInstance(alpha=alpha, beta=n, theta=rng.uniform(0.05, 2 * math.pi - 0.05)))
            with mp.workdps(30):
                want = complex(2j * mp.pi * mp.mpc(alpha) ** n)
            err = abs(r.value - want)
            assert r.converged and err <= r.abs_error_estimate, (alpha, err, r.abs_error_estimate)
            assert r.abs_error_estimate > 0.0


def _count_panels_calls(monkeypatch):
    """Patch bci.quadrature._panels to count its calls; returns the live counter list."""
    calls = []
    panels = bci.quadrature._panels

    def counted(f, lefts, rights):
        calls.append(len(lefts))
        return panels(f, lefts, rights)

    monkeypatch.setattr(bci.quadrature, "_panels", counted)
    return calls


def _mixed_instance(rng):
    """The eval-mixed benchmark domain: |z| in [0.02, 0.979] with regimes 50/50;
    beta generic (|Re|, |Im| <= 3), large-|Im| (3 < |Im| <= 40) or an integer."""
    z = rng.uniform(0.02, 0.979)
    mod = z if rng.random() < 0.5 else 1.0 / z
    alpha = mod * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
    kind = rng.random()
    if kind < 0.05:
        beta = complex(rng.randint(-4, 4), 0.0)
    elif kind < 0.28:
        beta = complex(rng.uniform(-3.0, 3.0), rng.choice((-1, 1)) * rng.uniform(3.0, 40.0))
    else:
        beta = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
    return ProblemInstance(alpha=alpha, beta=beta, theta=rng.uniform(0.05, 2 * math.pi - 0.05))


class TestCircleGradedStart:
    def test_about_one_call_per_circle_integral(self, monkeypatch):
        # started on 16 equal panels, bisection toward the pole and the peak of
        # |z^beta| took ~2.2 calls per integral on this domain; a graded start
        # is one _panels call and the cached plain start none, so any call
        # beyond those is a refinement round
        calls = _count_panels_calls(monkeypatch)
        rng = random.Random(20261019)
        graded = 0
        for _ in range(200):
            inst = _mixed_instance(rng)
            graded += bci.quadrature._circle_start(inst.theta - 2 * math.pi, inst.alpha, inst.beta)[0] is not None
            assert circle_integral(inst, tol=1e-10).converged
        assert (len(calls) - graded) / 200 <= 0.05, (len(calls), graded)

    @pytest.mark.parametrize(
        "alpha,beta,theta,band",
        [
            (0.0, 0.5 + 0.3j, 2.0, 0.02),  # no pole to grade toward
            (0.7 * cmath.exp(2.0j + 5e-10j), 0.5 + 0.3j, 2.0, 0.02),  # pole image at both window ends
            (1.3 * cmath.exp(2.0j - 5e-10j), -1.5 + 0.2j, 2.0, 0.02),
            (1.0002 * cmath.exp(1.3j), 0.5 + 0.2j, 2.5, 1e-4),  # pole 2e-4 from the circle
            (0.6 * cmath.exp(0.4j), 0.5 + 100j, 3.0, 0.02),  # |z^beta| peaks at theta
            (1.7 * cmath.exp(4.0j), -1.0 - 100j, 3.0, 0.02),  # ... and at theta + 2 pi
            # |alpha|^Re(beta) = e^16 and e^15: a subtracted residue that large
            # stopped unconverged on ~2e4 panels, so the pole is graded instead
            (1.5 * cmath.exp(1.0j), 40.0 + 0.3j, 2.0, 0.02),
            (0.6 * cmath.exp(1.0j), -30.0 + 0.3j, 2.0, 0.02),
        ],
    )
    def test_edge_cases_converge_within_estimate(self, alpha, beta, theta, band):
        inst = ProblemInstance(alpha=alpha, beta=beta, theta=theta, exclusion_band=band)
        r = circle_integral(inst)
        assert r.converged
        err = abs(r.value - _mp_circle(alpha, beta, theta))
        assert err <= r.abs_error_estimate, (err, r.abs_error_estimate)

    def test_start_mesh_is_graded_and_deterministic(self):
        start = bci.quadrature._circle_start
        lo, width = 2.5 - 2 * math.pi, 2 * math.pi / 16
        # a pole 2e-4 from the circle mid-window is subtracted: no point grades toward it
        edges, pole = start(lo, 1.0002 * cmath.exp(1.3j), 0.5 + 0.2j)
        assert edges is None
        assert pole.real == pytest.approx(1.3, abs=1e-12) and pole.imag == -math.log(1.0002)
        # |Im beta| = 30 grades the left end, where |z^beta| peaks, and still not the pole
        edges, _ = start(lo, 1.0002 * cmath.exp(1.3j), 0.5 + 30j)
        assert edges[0] == lo and edges[-1] == lo + 2 * math.pi
        assert np.all(np.diff(edges) > 0.0)
        assert np.diff(edges)[0] == pytest.approx(2.0 / 30)
        assert np.min(np.abs(edges - 1.3)) > 0.02
        # a pole 2e-4 from the circle and 1e-3 past the cut at theta: subtracted at
        # the window's left end, while its image one turn on grades the right end
        edges, pole = start(lo, 1.0002 * cmath.exp(2.501j), 0.5 + 0.2j)
        steps = np.diff(edges)
        assert pole.real == pytest.approx(lo + 1e-3, abs=1e-12)
        assert steps[-1] < 1e-3 and steps[-4:-2] / steps[-3:-1] == pytest.approx([2.0, 2.0])
        assert steps[0] == pytest.approx(width)
        # ... and 1e-3 before it: the image one turn back grades the left end
        edges, pole = start(lo, 1.0002 * cmath.exp(2.499j), 0.5 + 0.2j)
        steps = np.diff(edges)
        assert pole.real == pytest.approx(2.499, abs=1e-12)
        assert steps[0] < 1e-3 and steps[1:3] / steps[2:4] == pytest.approx([0.5, 0.5])
        assert steps[-1] == pytest.approx(width)
        again, _ = start(lo, 1.0002 * cmath.exp(2.499j), 0.5 + 0.2j)
        assert edges.tobytes() == again.tobytes()

    def test_overflowing_power_is_refused(self):
        from bci.errors import NonFiniteValue

        with pytest.raises(NonFiniteValue):
            circle_integral(ProblemInstance(alpha=0.5, beta=0.5 + 1000j, theta=3.0))
        with pytest.raises(NonFiniteValue):
            circle_integral(ProblemInstance(alpha=0.5, beta=0.5 - 1000j, theta=3.0))
        # |z^beta| ~ e^697 is finite, but the pole 1e-9 from it is not
        near = ProblemInstance(alpha=1.000000001 * cmath.exp(3.01j), beta=0.5 + 212.8j, theta=3.0, exclusion_band=1e-10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any node overflows
            with pytest.raises(NonFiniteValue):
                circle_integral(near)


def _full_circle_start(lo, alpha, beta):
    """_circle_start without its short cuts: every grading walk runs to the
    reach, and the window filter comes after all of them."""
    q = bci.quadrature
    width = 2.0 * math.pi / q._CIRCLE_PANELS
    hi = lo + 2.0 * math.pi
    points = []

    def grade(start, step, sign):
        while step <= 2.0 * width:
            points.append(start + sign * step)
            step *= 2.0

    pole = None
    log_mod = math.log(abs(alpha)) if alpha != 0 else -math.inf
    dist = abs(log_mod)
    if dist < q._POLE_REACH:
        s0 = lo + (cmath.phase(alpha) - lo) % (2.0 * math.pi)
        centres = [s0 - 2.0 * math.pi, s0 + 2.0 * math.pi]
        if beta.real * log_mod <= q._POLE_GROWTH:
            pole = complex(s0, -log_mod)
        else:
            centres.append(s0)
            points.append(s0)
        for centre in centres:
            grade(centre, q._POLE_STEP * dist, 1.0)
            grade(centre, q._POLE_STEP * dist, -1.0)
    im = abs(beta.imag)
    if im * width > q._PEAK_MIN:
        if beta.imag > 0.0:
            grade(lo, q._PEAK_STEP / im, 1.0)
        else:
            grade(hi, q._PEAK_STEP / im, -1.0)
    points = [p for p in points if lo < p < hi]
    if not points:
        return None, pole
    points += [lo + k * width for k in range(1, q._CIRCLE_PANELS)]
    return np.array([lo] + sorted(set(points)) + [hi]), pole


class TestCircleShortCuts:
    """Each short cut of circle_integral gives the bits of the path it skips."""

    def test_integrand_without_residue_is_the_one_subtracting_zero(self):
        rng = np.random.default_rng(20261019)
        s = np.concatenate((rng.uniform(-2 * math.pi, 2 * math.pi, 300), [0.0, -0.0, math.pi, -math.pi]))
        turns = [np.exp(1j * s), np.array([complex(-0.0, 1.0), complex(1.0, -0.0), complex(-0.0, -1.0)] * 101 + [1j])]
        for beta in (0.5 + 0.3j, -1.5 - 38j, 3.0 + 0j, complex(0.0, -0.0), 12.0 + 0.3j):
            for alpha in (0.0, 0.3 * cmath.exp(2j), 1.5 * cmath.exp(-1j), complex(-0.0, 2.0)):
                for z in turns:
                    plain = bci.quadrature._circle_integrand(beta, alpha, None)(s, z)
                    subtracted = bci.quadrature._circle_integrand(beta, alpha, 0j)(s, z)
                    assert plain.tobytes() == subtracted.tobytes(), (beta, alpha)

    def test_start_equals_the_full_construction(self):
        # both sides of |log|alpha|| = _POLE_REACH (the pole may grade) and of
        # |Im beta| 2 pi/16 = _PEAK_MIN (the peak may grade), poles near the
        # cut, where grading walks cross the window's ends, and no pole at all
        rng = random.Random(20261019)
        reach, peak_min = bci.quadrature._POLE_REACH, bci.quadrature._PEAK_MIN
        width = 2 * math.pi / 16
        peak = peak_min / width
        cases = {"plain": 0, "early": 0, "graded": 0}
        for _ in range(4000):
            theta = rng.uniform(0.01, 2 * math.pi - 0.01)
            log_mod = rng.choice((-1, 1)) * reach * (1.0 + rng.choice((-1, 1)) * 10.0 ** rng.uniform(-15, -0.5))
            arg = rng.choice((rng.uniform(0.0, 2 * math.pi), theta + rng.uniform(-0.2, 0.2)))
            alpha = 0.0 if rng.random() < 0.02 else math.exp(log_mod) * cmath.exp(1j * arg)
            im = rng.choice((-1, 1)) * peak * (1.0 + rng.choice((-1, 1)) * 10.0 ** rng.uniform(-15, -0.5))
            beta = complex(rng.choice((rng.uniform(-3, 3), rng.uniform(-40, 40))), im)
            lo = theta - 2 * math.pi
            edges, pole = bci.quadrature._circle_start(lo, alpha, beta)
            want_edges, want_pole = _full_circle_start(lo, alpha, beta)
            assert pole == want_pole or pole is want_pole is None, (lo, alpha, beta)
            if want_edges is None:
                assert edges is None, (lo, alpha, beta)
                early = abs(math.log(abs(alpha)) if alpha != 0 else -math.inf) >= reach and abs(im) * width <= peak_min
                cases["early" if early else "plain"] += 1
            else:
                assert edges.tobytes() == want_edges.tobytes(), (lo, alpha, beta)
                cases["graded"] += 1
        assert min(cases.values()) >= 100, cases


class TestEulerIntegral:
    def test_w_zero_trivials(self):
        assert euler_integral(0.0, 2.0).value == pytest.approx(0.5, abs=1e-10)
        # every Re(beta) goes through the endpoint substitution: t = u^(1/2)
        # above (mu = 1), t = u^2 here (mu = -1/2)
        assert euler_integral(0.0, 0.5).value == pytest.approx(2.0, abs=1e-9)

    def test_divergent_at_zero(self):
        with pytest.raises(DivergentAtZero):
            euler_integral(0.3, 0.0)
        with pytest.raises(DivergentAtZero):
            euler_integral(0.3, -0.2 + 1j)

    def test_pole_on_path(self):
        with pytest.raises(SingularPath):
            euler_integral(2.0, 0.5)  # pole at t = 1/2
        with pytest.raises(SingularPath):
            euler_integral(1.0, 0.5)  # pole at t = 1
        euler_integral(1.5 + 0.5j, 0.5)  # off the real ray: fine

    @given(
        wmod=st.floats(min_value=0.0, max_value=0.85),
        warg=st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True),
        br=st.floats(min_value=0.25, max_value=2.8),
        bi=st.floats(min_value=-0.5, max_value=0.5),
    )
    @settings(max_examples=15, deadline=None)
    def test_beta_times_integral_is_gauss_series(self, wmod, warg, br, bi):
        w = wmod * cmath.exp(1j * warg)
        beta = complex(br, bi)
        series = hyp2f1_one_b(beta, w, tol=1e-13)
        quad = euler_integral(w, beta)
        assert beta * quad.value == pytest.approx(series.value, rel=1e-8, abs=1e-8)


    def test_unconverged_value_is_refused(self):
        r = euler_integral(0.5 + 0.3j, 1e-9 + 0.2j)
        assert not r.converged
        with pytest.raises(SlowConvergence, match="the Euler integral stopped unconverged"):
            r.converged_value("Euler integral")
        assert euler_integral(0.5, 0.5).converged_value("Euler integral") == euler_integral(0.5, 0.5).value


class TestRadialIntegral:
    def test_real_pole_outside_segment(self):
        # alpha e^{-i theta} = 2: integral_0^1 t/(t-2) dt = 1 - 2 log 2
        inst = ProblemInstance(alpha=-2.0, beta=1.0, theta=math.pi)
        r = radial_integral(inst)
        assert r.value == pytest.approx(1.0 - 2.0 * math.log(2.0), rel=1e-9)

    def test_pole_on_segment(self):
        inst = ProblemInstance(alpha=0.5 * cmath.exp(2.0j), beta=1.0, theta=2.0)
        with pytest.raises(SingularPath):
            radial_integral(inst)

    def test_divergent_at_zero(self):
        inst = ProblemInstance(alpha=-2.0, beta=-0.2, theta=math.pi)
        with pytest.raises(DivergentAtZero):
            radial_integral(inst)


def _draw_unit_case(rng):
    """beta with Re in [0.05, 3], |Im| <= 3; w with |w| off the unit circle and arg w >= 0.2 off the real ray."""
    beta = complex(rng.uniform(0.05, 3.0), rng.uniform(-3.0, 3.0))
    mod = rng.uniform(0.05, 0.95) if rng.random() < 0.5 else rng.uniform(1.05, 5.0)
    return mod * cmath.exp(1j * rng.uniform(0.2, 2 * math.pi - 0.2)), beta


class TestUnitIntervalIntegrals:
    def test_deep_endpoint_walk_takes_one_call(self, monkeypatch):
        # u^{ic} oscillates without end toward 0: started on four equal panels,
        # bisection would reach the depth this needs one _panels call per level
        calls = []
        panels = bci.quadrature._panels

        def counted(f, lefts, rights):
            calls.append(len(lefts))
            return panels(f, lefts, rights)

        monkeypatch.setattr(bci.quadrature, "_panels", counted)
        r = euler_integral(0.5, 0.5 + 0.3j)
        assert r.converged
        assert len(calls) <= 2, calls

    def test_euler_estimate_bounds_true_error(self):
        rng = random.Random(20261018)
        for _ in range(300):
            w, beta = _draw_unit_case(rng)
            r = euler_integral(w, beta)
            with mp.workdps(30):
                want = complex(mp.hyp2f1(1, mp.mpc(beta), 1 + mp.mpc(beta), mp.mpc(w)) / mp.mpc(beta))
            err = abs(r.value - want)
            assert err <= r.abs_error_estimate, (w, beta, err, r.abs_error_estimate)

    def test_radial_estimate_bounds_true_error(self):
        # integral_0^1 t^beta/(t - p) dt = -w 2F1(1, beta+1; beta+2; w)/(beta+1) with w = 1/p
        rng = random.Random(20261019)
        for _ in range(300):
            w, beta = _draw_unit_case(rng)
            theta = rng.uniform(0.05, 2 * math.pi - 0.05)
            r = radial_integral(ProblemInstance(alpha=cmath.exp(1j * theta) / w, beta=beta, theta=theta))
            with mp.workdps(30):
                b, z = mp.mpc(beta), mp.mpc(w)
                want = complex(-z * mp.hyp2f1(1, b + 1, b + 2, z) / (b + 1))
            err = abs(r.value - want)
            assert err <= r.abs_error_estimate, (w, beta, theta, err, r.abs_error_estimate)


def _unbatched_unit_integral(mu, factor):
    """The unit-interval integral with scalar parameters in every round: the
    arithmetic of one integral on its own, for comparison with a batch."""
    s = 1.0 / (1.0 + mu.real)
    c = mu.imag * s

    def g(u):
        lu = np.log(u)
        return s * np.exp(1j * c * lu) * factor(np.exp(s * lu))

    return adaptive_quadrature(g, bci.quadrature._UNIT_EDGES)


def _radial_case(rng):
    w, beta = _draw_unit_case(rng)
    theta = rng.uniform(0.05, 2 * math.pi - 0.05)
    return ProblemInstance(alpha=cmath.exp(1j * theta) / w, beta=beta, theta=theta)


class TestUnitIntegralBatches:
    def test_euler_batch_equals_each_integral_alone(self):
        rng = random.Random(20261020)
        cases = [_draw_unit_case(rng) for _ in range(40)]
        batch = euler_integrals([w for w, _ in cases], [beta for _, beta in cases])
        first_round = len(bci.quadrature._UNIT_EDGES) - 1
        assert sum(r.subdivisions > first_round for r in batch) >= 5  # stragglers refine on their own
        for (w, beta), got in zip(cases, batch):
            alone = _unbatched_unit_integral(beta - 1.0, lambda t: 1.0 / (1.0 - w * t))
            assert got == euler_integral(w, beta) == alone, (w, beta)

    def test_radial_batch_equals_each_integral_alone(self):
        rng = random.Random(20261021)
        insts = [_radial_case(rng) for _ in range(40)]
        batch = radial_integrals(insts)
        first_round = len(bci.quadrature._UNIT_EDGES) - 1
        assert any(r.subdivisions > first_round for r in batch)
        for inst, got in zip(insts, batch):
            pole = inst.alpha * cmath.exp(-1j * inst.theta)
            alone = _unbatched_unit_integral(inst.beta, lambda t: 1.0 / (t - pole))
            assert got == radial_integral(inst) == alone, inst

    def test_one_first_round_per_batch(self, monkeypatch):
        rng = random.Random(20261020)
        cases = [_draw_unit_case(rng) for _ in range(40)]
        calls = _count_panels_calls(monkeypatch)
        rounds = []
        for w, beta in cases:
            euler_integral(w, beta)
            rounds.append(len(calls) - 1)  # the refinement rounds of this integral
            calls.clear()
        assert sum(rounds) > 0
        euler_integrals([w for w, _ in cases], [beta for _, beta in cases])
        assert len(calls) == 1 + sum(rounds)
        assert calls[0] == len(bci.quadrature._UNIT_EDGES) - 1

    def test_empty_batch(self):
        assert euler_integrals([], []) == radial_integrals([]) == []

    def test_every_item_is_checked_before_any_integral(self, monkeypatch):
        calls = _count_panels_calls(monkeypatch)
        with pytest.raises(SingularPath):
            euler_integrals([0.5, 2.0, 0.5], [0.5, 0.5, -0.5])
        with pytest.raises(DivergentAtZero):
            euler_integrals([0.5, 0.5, 2.0], [0.5, -0.5, 0.5])
        good = ProblemInstance(alpha=2.0, beta=0.5, theta=math.pi)
        with pytest.raises(DivergentAtZero):
            radial_integrals([good, ProblemInstance(alpha=-2.0, beta=-0.2, theta=math.pi)])
        assert calls == []


def _bits(result):
    """Every field of a quadrature result, each float by its bits."""
    value, estimate = result.value, result.abs_error_estimate
    return value.real.hex(), value.imag.hex(), estimate.hex(), result.subdivisions, result.converged


#: Circle instances for the batch tests (alpha, beta, theta): poles 0.021
#: from the circle on both sides with |Im beta| 30-38, a pole image at both
#: ends of the window, no pole at all, a pole 2e-4 from the circle, and
#: Re beta = 12, whose oscillation refines from the 16-panel start.
EDGE_CIRCLES = [
    (0.979 * cmath.exp(0.5j), 0.5 + 30j, 1.0),
    (1.021 * cmath.exp(4.0j), -1.5 - 38j, 3.5),
    (0.979 * cmath.exp(4.0j), -1.5 - 38j, 1.0),
    (1.021 * cmath.exp(0.5j), 0.5 + 30j, 3.5),
    (0.7 * cmath.exp(2.0j + 5e-10j), 0.5 + 0.3j, 2.0),
    (1.3 * cmath.exp(2.0j - 5e-10j), -1.5 + 0.2j, 2.0),
    (0.0, 0.5 + 0.3j, 2.0),
    (1.0002 * cmath.exp(1.3j), 0.5 + 0.2j, 2.5),
    (0.5 * cmath.exp(1j), 12.0 + 0.3j, 2.0),
]


class TestCircleBatches:
    @pytest.mark.parametrize("tol", [1e-10, 1e-12, 1e-13])
    def test_batch_equals_each_integral_alone(self, tol):
        rng = random.Random(20261022)
        insts = [ProblemInstance(alpha=a, beta=b, theta=th, exclusion_band=1e-4) for a, b, th in EDGE_CIRCLES]
        insts += [_mixed_instance(rng) for _ in range(40)]
        rng.shuffle(insts)
        alone = [circle_integral(inst, tol) for inst in insts]
        starts = [bci.quadrature._circle_start(i.theta - 2 * math.pi, i.alpha, i.beta)[0] for i in insts]
        first_round = [16 if edges is None else len(edges) - 1 for edges in starts]
        assert any(r.subdivisions > n for r, n in zip(alone, first_round))  # stragglers refine on their own
        start = 0
        for size in (1, 2, 15, 7, 24):  # ragged batches
            batch = circle_integrals(insts[start : start + size], tol)
            assert [_bits(r) for r in batch] == [_bits(r) for r in alone[start : start + size]]
            start += size
        assert start == len(insts)

    def test_verify_circle_check_integrates_each_circle_alone(self, monkeypatch):
        # circle_integrals has no batch form of its own: each circle goes
        # through circle_integral
        insts = []
        alone = bci.quadrature.circle_integral

        def counted(inst, tol=bci.quadrature.DEFAULT_QUAD_TOL):
            insts.append(inst)
            return alone(inst, tol)

        monkeypatch.setattr(bci.quadrature, "circle_integral", counted)
        report = run_verify(4000, checks=("circle",))
        assert report["checks"][0]["cases"] == len(insts) == 15

    def test_every_instance_is_checked_before_any_integral(self, monkeypatch):
        calls = _count_panels_calls(monkeypatch)
        good = ProblemInstance(alpha=0.5, beta=0.5, theta=3.0)
        overflowing = ProblemInstance(alpha=0.5, beta=0.5 + 1000j, theta=3.0)
        on_circle = ProblemInstance(alpha=cmath.exp(1j), beta=0.5, theta=3.0)
        with pytest.raises(NonFiniteValue):
            circle_integrals([good, overflowing, on_circle])
        with pytest.raises(AlphaOnCircle):
            circle_integrals([good, on_circle, overflowing])
        assert calls == []
        assert circle_integrals([]) == []


class TestArraySettle:
    def test_rows_settle_as_they_do_alone(self):
        # each row of a batched first round goes to _refine; a row with a NaN
        # estimate (`not nan > goal`) or a NaN value (NaN goal) stops there
        poles = [2.0, 0.5 + 0.01j, 3.0 + 1j, 0.3 - 0.01j, -1.0, 0.7 + 2j]
        fs = [lambda t, c=c: 1.0 / (t - c) for c in poles]
        rows = [bci.quadrature._panels(f, EIGHTHS[:-1], EIGHTHS[1:]) for f in fs]
        rows[2][1][3] = math.nan
        rows[4][0][5] = complex(math.nan, 0.0)
        rows[4][1][5] = math.nan

        def uncalled(t):
            raise AssertionError("a row with a NaN estimate refined")

        fs[2] = fs[4] = uncalled
        roundoff = bci.quadrature._ROUNDOFF
        settled = [
            QuadratureResult(*bci.quadrature._refine(f, (EIGHTHS[:-1], EIGHTHS[1:], *row), 1e-10, 20_000, roundoff))
            for f, row in zip(fs, rows)
        ]
        assert [r.subdivisions > 8 for r in settled] == [False, True, False, True, False, False]
        assert math.isnan(settled[2].abs_error_estimate) and not settled[2].converged
        assert cmath.isnan(settled[4].value) and not settled[4].converged


class TestPanelOrder:
    """Every total is math.fsum, which is exact, so no panel or row order changes a bit."""

    #: Integrands that refine from a start of 8 or 11 panels: poles 0.01 and
    #: 1e-4 from [0, 1], an oscillation, and a power with its endpoint.
    INTEGRANDS = (
        _two_spots,
        lambda t: 1.0 / (t - 0.5 - 1e-4j),
        lambda t: np.exp(60j * t) / (t + 0.02),
        lambda t: t**-0.4 * np.exp(3j * t),
    )

    def test_shuffled_panels_refine_to_the_same_bits(self):
        # the children of each round reach f in the order of their parents,
        # and each panel's rules depend on its own values alone
        rng = np.random.default_rng(20261019)
        roundoff = bci.quadrature._ROUNDOFF
        for edges in (EIGHTHS, np.linspace(0.0, 1.0, 12)):
            lefts, rights = edges[:-1], edges[1:]
            for f in self.INTEGRANDS:
                first = bci.quadrature._panels(f, lefts, rights)

                def refine(p):
                    calls = []
                    g = lambda t: calls.append(t.size) or f(t)
                    got = QuadratureResult(
                        *bci.quadrature._refine(g, [part[p] for part in (lefts, rights, *first)], 1e-12, 20_000, roundoff)
                    )
                    return _bits(got), len(calls)

                want = refine(np.arange(len(lefts)))
                assert want[0][3] > len(lefts) + 8 and want[1] >= 3  # several rounds of splits
                for _ in range(6):
                    assert refine(rng.permutation(len(lefts))) == want

    def test_each_panel_rounds_alone(self):
        # a panel's K15 value, estimate and mass keep their bits when the
        # panels around it are permuted, and equal those of the panel alone
        rng = np.random.default_rng(20261021)
        for count in range(1, 60):
            scale = 10.0 ** rng.integers(-3, 4, (count, 1))
            vals = (rng.standard_normal((count, 15)) + 1j * rng.standard_normal((count, 15))) * scale
            half = rng.uniform(1e-3, 1.0, count)
            want = bci.quadrature._rules(vals.ravel(), half)
            alone = [bci.quadrature._rules(vals[k], half[k : k + 1]) for k in range(count)]
            for part, parts in zip(want, zip(*alone)):
                assert part.tobytes() == np.concatenate(parts).tobytes()
            p = rng.permutation(count)
            for part, shuffled in zip(want, bci.quadrature._rules(vals[p].ravel(), half[p])):
                assert part[p].tobytes() == shuffled.tobytes()

    def test_shuffled_batch_keeps_each_items_bits(self):
        # every row of a unit-interval batch, those that refine included,
        # gives the same bits wherever it sits in the batch
        rng = np.random.default_rng(20261020)
        draw = random.Random(20261022)
        # and a pole 0.01 from [0, 1] in each, which refines
        cases = [_draw_unit_case(draw) for _ in range(11)] + [(1.0 / (0.3 - 0.01j), 0.7 + 0.2j)]
        insts = [_radial_case(draw) for _ in range(11)]
        insts.append(ProblemInstance(alpha=(0.5 + 0.01j) * cmath.exp(2j), beta=0.7 + 0.2j, theta=2.0))
        first_round = len(bci.quadrature._UNIT_EDGES) - 1

        def batches(order):
            euler = euler_integrals([cases[k][0] for k in order], [cases[k][1] for k in order])
            radial = radial_integrals([insts[k] for k in order])
            return {k: (_bits(e), _bits(r)) for k, e, r in zip(order, euler, radial)}

        want = batches(list(range(12)))
        assert any(e[3] > first_round for e, _ in want.values())
        assert any(r[3] > first_round for _, r in want.values())
        for _ in range(6):
            assert batches(rng.permutation(12).tolist()) == want


def test_panels_calls_per_verify_run(monkeypatch):
    # per run: 5 batched first rounds (the reduction check's two, reconciliation,
    # the circle check's radial batch, euler) and 3.43 refinement rounds; of
    # the 450 circle integrals, 5 start graded and the rest on the cached
    # plain start, which needs no _panels call, and none refines
    calls = _count_panels_calls(monkeypatch)
    for seed in range(4000, 4030):
        run_verify(seed)
    assert len(calls) == 258


class TestIntegralIdentities:
    @pytest.mark.parametrize(
        "alpha", [0.3 * cmath.exp(0.8j), 0.7 * cmath.exp(4.4j), 1.5 * cmath.exp(0.8j), 3.0 * cmath.exp(2.2j)]
    )
    def test_reduction_identity(self, alpha):
        inst = ProblemInstance(alpha=alpha, beta=0.8 + 0.1j, theta=2.0)
        assert check_integral_reduction(inst) < 1e-9

    @pytest.mark.parametrize(
        "alpha,theta",
        [
            (0.3 * cmath.exp(0.8j), 2.0),
            (0.6 * cmath.exp(5.5j), 1.2),
            (1.5 * cmath.exp(0.8j), 2.0),
            (4.0 * cmath.exp(2.9j), 4.8),
        ],
    )
    def test_circle_collapses_to_radial(self, alpha, theta):
        inst = ProblemInstance(alpha=alpha, beta=0.5, theta=theta)
        assert check_circle_vs_radial(inst) < 1e-9
