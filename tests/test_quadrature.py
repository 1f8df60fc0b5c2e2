"""Adaptive quadrature engine and the three concrete integrals built on it."""

import cmath
import math
import random
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bci.quadrature
from bci import (
    DivergentAtZero,
    ProblemInstance,
    SingularPath,
    adaptive_quadrature,
    check_circle_vs_radial,
    check_integral_reduction,
    circle_integral,
    euler_integral,
    evaluate_instance,
    hyp2f1_one_b,
    radial_integral,
)

# Contour values computed independently with mpmath (40-digit brute quadrature
# of the parameterised circle).
FROZEN_OUT = (1.5 * cmath.exp(0.8j), 0.5 + 0.3j, 2.0, complex(1.3675970912328640, -1.2040600562880184))
FROZEN_IN = (0.4 * cmath.exp(2.9j), 0.7 - 0.2j, 2.5, complex(-0.86314240294559916, 0.28404864998768630))
FROZEN_OUT_REAL = (2.0, 0.5, math.pi, complex(0.0, 0.51832099453158721))
FROZEN_IN_REAL = (0.3, 0.5, math.pi, complex(0.0, 5.0978397870946862))


class TestAdaptiveEngine:
    def test_polynomial_is_exact(self):
        r = adaptive_quadrature(lambda t: t**3, 0.0, 1.0, tol=1e-12)
        assert r.converged
        assert r.subdivisions == 8  # the initial split already nails it
        assert r.value == pytest.approx(0.25, abs=1e-15)

    def test_full_turn_of_oscillation_cancels(self):
        r = adaptive_quadrature(lambda t: np.exp(1j * t), 0.0, 2 * math.pi, tol=1e-12)
        assert r.converged
        assert abs(r.value) < 1e-12

    def test_estimate_bounds_actual_error(self):
        exact = math.log(101.0)
        r = adaptive_quadrature(lambda t: 1.0 / (t + 0.01), 0.0, 1.0, tol=1e-10)
        assert r.converged
        assert abs(r.value - exact) <= 2.0 * r.abs_error_estimate + 1e-13

    def test_budget_exhaustion_still_returns(self):
        r = adaptive_quadrature(lambda t: 1.0 / (t + 1e-6), 0.0, 1.0, tol=1e-10, max_panels=16)
        assert not r.converged
        assert r.subdivisions <= 16
        assert math.isfinite(abs(r.value))
        assert r.abs_error_estimate > 0.0

    def test_one_integrand_call_per_split(self):
        sizes = []

        def f(t):
            sizes.append(t.size)
            return 1.0 / (t + 0.01)

        r = adaptive_quadrature(f, 0.0, 1.0, tol=1e-10, initial_panels=8)
        assert r.converged and r.subdivisions > 8
        # all initial panels in one call, then both children of each split in one
        assert len(sizes) == 1 + (r.subdivisions - 8)
        assert sizes == [8 * 22] + [2 * 22] * (len(sizes) - 1)

    def test_result_fields_are_python_scalars(self):
        # reports and trace files serialise these with the json module
        r = adaptive_quadrature(lambda t: np.exp(1j * t) / (t + 0.5), 0.0, 1.0)
        assert type(r.value) is complex
        assert type(r.abs_error_estimate) is float
        assert type(r.converged) is bool

    def test_tighter_tol_never_uses_fewer_panels(self):
        f = lambda t: np.exp(1j * 3.3 * t) / (t + 0.05)
        loose = adaptive_quadrature(f, 0.0, 1.0, tol=1e-4)
        tight = adaptive_quadrature(f, 0.0, 1.0, tol=1e-10)
        assert loose.subdivisions <= tight.subdivisions
        assert tight.converged


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

    @pytest.mark.parametrize("alpha,beta,theta", [(0.5, 0.5 + 30j, 3.0), (3.0, 0.5 - 40j, 1.0)])
    def test_large_imaginary_exponent_agrees(self, alpha, beta, theta):
        report = evaluate_instance(ProblemInstance(alpha=alpha, beta=beta, theta=theta))
        assert report.verdict == "Agree"
        quad = next(r for r in report.results if r.method == "Quadrature")
        assert abs(quad.value - _mp_circle(alpha, beta, theta)) <= quad.error_estimate


    def test_large_imaginary_exponent_estimate_covers_exp_rounding(self):
        # exp(i beta (t - 2 pi) + i t) is off relatively by ~eps |beta + 1| 2 pi at a
        # node; once the start mesh makes |G15 - G7| tiny, only the estimate's
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
        # |z^beta| took ~2.2 calls per integral on this domain
        calls = _count_panels_calls(monkeypatch)
        rng = random.Random(20261019)
        for _ in range(200):
            assert circle_integral(_mixed_instance(rng), tol=1e-10).converged
        assert len(calls) / 200 <= 1.05, len(calls)

    @pytest.mark.parametrize(
        "alpha,beta,theta,band",
        [
            (0.0, 0.5 + 0.3j, 2.0, 0.02),  # no pole to grade toward
            (0.7 * cmath.exp(2.0j + 5e-10j), 0.5 + 0.3j, 2.0, 0.02),  # pole image at both window ends
            (1.3 * cmath.exp(2.0j - 5e-10j), -1.5 + 0.2j, 2.0, 0.02),
            (1.0002 * cmath.exp(1.3j), 0.5 + 0.2j, 2.5, 1e-4),  # pole 2e-4 from the circle
            (0.6 * cmath.exp(0.4j), 0.5 + 100j, 3.0, 0.02),  # |z^beta| peaks at theta
            (1.7 * cmath.exp(4.0j), -1.0 - 100j, 3.0, 0.02),  # ... and at theta + 2 pi
        ],
    )
    def test_edge_cases_converge_within_estimate(self, alpha, beta, theta, band):
        inst = ProblemInstance(alpha=alpha, beta=beta, theta=theta, exclusion_band=band)
        r = circle_integral(inst)
        assert r.converged
        err = abs(r.value - _mp_circle(alpha, beta, theta))
        assert err <= r.abs_error_estimate, (err, r.abs_error_estimate)

    def test_start_mesh_is_graded_and_deterministic(self):
        edges = bci.quadrature._circle_edges(2.5, 1.0002 * cmath.exp(1.3j), 0.5 + 0.2j)
        assert edges[0] == 2.5 and edges[-1] == 2.5 + 2 * math.pi
        assert np.all(np.diff(edges) > 0.0)
        t0 = 1.3 + 2 * math.pi  # the pole's image in the window
        nearest = np.sort(np.abs(edges - t0))
        assert nearest[0] == 0.0 and nearest[1] == pytest.approx(1e-4, rel=1e-2)
        again = bci.quadrature._circle_edges(2.5, 1.0002 * cmath.exp(1.3j), 0.5 + 0.2j)
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


class TestEulerIntegral:
    def test_w_zero_trivials(self):
        assert euler_integral(0.0, 2.0).value == pytest.approx(0.5, abs=1e-10)
        # Re(beta) < 1 goes through the endpoint substitution
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
