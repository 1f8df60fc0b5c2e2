"""Regime ODEs: coefficients, finite-difference residuals, singular points."""

import cmath
import math
import random

import pytest

import bci.odecheck
import bci.quadrature
import bci.verify
from bci import (
    INFINITY,
    AlphaOnCircle,
    IntegerBeta,
    NonFiniteValue,
    OdeCoefficients,
    ProblemInstance,
    RegimeStraddle,
    coefficients_for,
    cut_jump_factor,
    hyp2f1_one_b,
    eval_closed_form,
    ode_coefficients_inside,
    ode_coefficients_outside,
    ode_residual,
    ode_residuals,
    singular_points,
    SlowConvergence,
)


class TestCoefficients:
    def test_outside_shape(self):
        beta, theta = 0.7 + 0.2j, 2.0
        c = ode_coefficients_outside(beta, theta)
        w = cmath.exp(-1j * theta)
        assert c.regime == "outside"
        assert c.p2 == (0j, 0j, 1.0 + 0j, -w)
        assert c.p1 == (0j, -beta, (beta - 1.0) * w)
        assert c.zero_order == beta
        assert c.rhs == cut_jump_factor(beta, theta)

    def test_inside_shape(self):
        beta, theta = 0.7 + 0.2j, 2.0
        c = ode_coefficients_inside(beta, theta)
        w = cmath.exp(1j * theta)
        assert c.regime == "inside"
        assert c.p2 == (0j, w, -1.0 + 0j)
        assert c.p1 == ((1.0 - beta) * w, -(2.0 - beta))
        assert c.zero_order == beta
        assert c.rhs == 0j

    def test_dispatch_on_alpha(self):
        assert coefficients_for(ProblemInstance(alpha=2.0, beta=0.5, theta=2.0)).regime == "outside"
        assert coefficients_for(ProblemInstance(alpha=0.5, beta=0.5, theta=2.0)).regime == "inside"


class TestOdeResidual:
    @pytest.mark.parametrize(
        "alpha",
        [2.0 * cmath.exp(1.1j), 4.5 * cmath.exp(3.3j), 0.45 * cmath.exp(2.7j), 0.25 * cmath.exp(5.9j)],
    )
    def test_residual_small_at_default_step(self, alpha):
        inst = ProblemInstance(alpha=alpha, beta=0.7 + 0.2j, theta=2.0)
        r = ode_residual(inst)
        assert r.step == 1e-3
        assert r.relative_residual < 1e-6

    @pytest.mark.parametrize("alpha", [2.0 * cmath.exp(1.1j), 0.45 * cmath.exp(2.7j)])
    def test_fourth_order_halving(self, alpha):
        # in the truncation-dominated regime the h^4 stencil gains ~16x per halving
        inst = ProblemInstance(alpha=alpha, beta=0.7 + 0.2j, theta=2.0)
        coarse = ode_residual(inst, h=0.05).relative_residual
        fine = ode_residual(inst, h=0.025).relative_residual
        assert coarse > 1e-7  # meaningful signal, not roundoff floor
        assert fine <= coarse / 8.0

    def test_integer_beta_is_vacuous(self):
        with pytest.raises(IntegerBeta):
            ode_residual(ProblemInstance(alpha=2.0, beta=3, theta=2.0))

    def test_stencil_must_not_change_regime(self):
        inst = ProblemInstance(alpha=1.06, beta=0.5, theta=2.0)
        with pytest.raises(RegimeStraddle):
            ode_residual(inst, h=0.05)
        ode_residual(inst, h=1e-3)  # small steps stay outside

    def test_alpha_in_band_rejected(self):
        inst = ProblemInstance(alpha=1.01, beta=0.5, theta=2.0)
        with pytest.raises(RegimeStraddle):
            ode_residual(inst)

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            ode_residual(ProblemInstance(alpha=2.0, beta=0.5, theta=2.0), h=0.0)

    @pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, 0.0, -1e-3, 1e-300, 1e-160, 1e200])
    @pytest.mark.parametrize("alpha", [2.0, 0.5])
    def test_step_not_finite_and_positive_is_refused(self, alpha, h):
        # nan and inf used to reach the stencil: RegimeStraddle, or a
        # ValueError about alpha from the instance at alpha + nan; at the last
        # three 12 h^2 is 0, subnormal or infinite, and 1e-300 died on a
        # complex division by zero
        with pytest.raises(ValueError, match="step h must be positive"):
            ode_residual(ProblemInstance(alpha=alpha, beta=0.5, theta=2.0), h=h)

    def test_checks_the_instance_before_any_value(self, monkeypatch):
        def no_values(point):
            raise AssertionError("evaluated before the instance was checked")

        monkeypatch.setattr(bci.odecheck, "eval_closed_form", no_values)
        integer = ProblemInstance(alpha=2.0, beta=3, theta=2.0)
        straddle = ProblemInstance(alpha=1.06, beta=0.5, theta=2.0)
        integer_straddle = ProblemInstance(alpha=1.06, beta=3, theta=2.0)
        with pytest.raises(ValueError, match="step h must be positive"):
            ode_residual(integer_straddle, h=math.nan)
        with pytest.raises(IntegerBeta):
            ode_residual(integer, h=0.05)
        with pytest.raises(IntegerBeta):
            ode_residual(integer_straddle, h=0.05)
        with pytest.raises(RegimeStraddle):
            ode_residual(straddle, h=0.05)


class TestOdeResiduals:
    def test_residuals_are_at_rounding_level(self, ode_draws):
        # one closed form and one contour integral per draw; the stencil's
        # worst on these draws is 4.2e-9, set by h^4 truncation and
        # 1e-15/h^2 rounding
        assert max(ode_residuals(ode_draws)) < 1e-12

    def test_works_where_the_stencil_leaves_its_regime(self):
        # no stencil points: an instance just past the band checks as any other
        for alpha in (1.03, 0.97 * cmath.exp(1j), 1.06):
            inst = ProblemInstance(alpha=alpha, beta=0.5 + 0.3j, theta=2.0)
            assert ode_residuals([inst])[0] < 1e-12
        with pytest.raises(RegimeStraddle):
            ode_residual(ProblemInstance(alpha=1.06, beta=0.5, theta=2.0), h=0.05)

    def test_the_list_equals_each_instance_alone(self, ode_draws):
        # shuffled verify draws, plain and graded, plus rows whose every
        # circle starts graded (|Im beta| 2 pi/16 > 2)
        rng = random.Random(20261028)
        insts = ode_draws[:96] + bci.verify._instances(rng, 0.5 + 6j, 12)
        rng.shuffle(insts)
        alone = [ode_residuals([inst])[0].hex() for inst in insts]
        assert [r.hex() for r in ode_residuals(insts)] == alone

    def test_every_instance_is_checked_before_any_integral(self, monkeypatch, ode_draws):
        def no_values(point):
            raise AssertionError("a closed form before every instance was checked")

        def no_rounds(*args):
            raise AssertionError("an integral before every instance was checked")

        monkeypatch.setattr(bci.odecheck, "eval_closed_form", no_values)
        monkeypatch.setattr(bci.quadrature, "_panels", no_rounds)
        monkeypatch.setattr(bci.quadrature, "_plain_first", no_rounds)
        good = ode_draws[:3]
        for bad, error in (
            (ProblemInstance(alpha=2.0, beta=3, theta=2.0), IntegerBeta),
            (ProblemInstance(alpha=1.01, beta=0.5, theta=2.0), AlphaOnCircle),
            (ProblemInstance(alpha=0.5, beta=0.5 + 1000j, theta=3.0), NonFiniteValue),
        ):
            for k in range(len(good) + 1):
                with pytest.raises(error):
                    ode_residuals(good[:k] + [bad] + good[k:])

    def test_unconverged_integral_is_refused(self, monkeypatch):
        # at Re beta = 12 this row refines past its 16-panel plain start, though
        # its Taylor polynomial is subtracted; with no room to split, it stops
        # unconverged, and a residual read off its value would be no check
        inst = ProblemInstance(alpha=0.5 * cmath.exp(1j), beta=12.0 + 0.3j, theta=2.0)
        assert ode_residuals([inst])[0] < 1e-12
        monkeypatch.setattr(bci.quadrature, "DEFAULT_MAX_PANELS", 16)
        with pytest.raises(SlowConvergence, match="the ODE contour integral stopped unconverged"):
            ode_residuals([inst])

    def test_empty_list(self):
        assert ode_residuals([]) == []


class TestJumpScaling:
    def test_rescales_integral_to_gauss_series(self):
        # beta / cut_jump_factor turns the |alpha| < 1 value into 2F1(1, -beta; 1-beta; alpha e^{-i theta})
        beta, theta = 0.8 - 0.3j, 2.6
        alpha = 0.55 * cmath.exp(1.2j)
        inst = ProblemInstance(alpha=alpha, beta=beta, theta=theta, tol=1e-15)
        value = eval_closed_form(inst).value
        want = hyp2f1_one_b(-beta, alpha * cmath.exp(-1j * theta), tol=1e-14).value
        assert beta / cut_jump_factor(beta, theta) * value == pytest.approx(want, rel=1e-12)


class TestSingularPoints:
    @pytest.mark.parametrize("theta", [1.0, math.pi, 5.0])
    @pytest.mark.parametrize("build", [ode_coefficients_outside, ode_coefficients_inside])
    def test_both_regimes_are_fuchsian(self, theta, build):
        pts = singular_points(build(0.7, theta))
        assert len(pts) == 3
        finite = [p for p, _ in pts if p != INFINITY]
        assert pts[-1][0] == INFINITY  # infinity reported last
        assert all(label == "Regular" for _, label in pts)
        assert min(abs(p) for p in finite) < 1e-9  # origin
        assert min(abs(p - cmath.exp(1j * theta)) for p in finite) < 1e-9  # cut-ray point

    def test_irregular_at_infinity(self):
        # I'' + I = 0: constant leading coefficient, essential point at infinity
        c = OdeCoefficients(p2=(1.0 + 0j,), p1=(0j,), zero_order=1.0 + 0j, rhs=0j, regime="inside")
        assert singular_points(c) == [(INFINITY, "Irregular")]

    def test_irregular_finite_point(self):
        # a^2 I'' + I' + I = 0: p1 vanishes to order 0 < 1 at the double root
        c = OdeCoefficients(p2=(0j, 0j, 1.0 + 0j), p1=(1.0 + 0j,), zero_order=1.0 + 0j, rhs=0j, regime="inside")
        pts = singular_points(c)
        finite = [(p, lab) for p, lab in pts if p != INFINITY]
        assert len(finite) == 1
        assert abs(finite[0][0]) < 1e-12
        assert finite[0][1] == "Irregular"

    def test_gauss_equation(self):
        # a(1-a) I'' + [c - (a+b+1) a] I' - ab I = 0: {0, 1, infinity}, all regular
        a, b, c = 0.3, 0.7, 1.5
        coeffs = OdeCoefficients(p2=(0j, 1.0, -1.0), p1=(c, -(a + b + 1.0)), zero_order=-a * b, rhs=0j, regime="inside")
        pts = singular_points(coeffs)
        assert [label for _, label in pts] == ["Regular"] * 3
        assert abs(pts[0][0]) < 1e-12 and abs(pts[1][0] - 1.0) < 1e-12 and pts[2][0] == INFINITY

    def test_ordinary_infinity(self):
        # a^2 I'' + 2a I' = 0: a^2 p1 - 2a p2 = 0 and no zero-order term, so
        # infinity is an ordinary point
        c = OdeCoefficients(p2=(0j, 0j, 1.0 + 0j), p1=(0j, 2.0 + 0j), zero_order=0j, rhs=0j, regime="inside")
        assert singular_points(c) == [(0, "Regular")]

    def test_regular_at_infinity_without_lower_terms(self):
        # I'' = 0: solutions 1 and a = 1/x, a pole at x = 0, so infinity is a
        # regular singular point
        c = OdeCoefficients(p2=(1.0 + 0j,), p1=(0j,), zero_order=0j, rhs=0j, regime="inside")
        assert singular_points(c) == [(INFINITY, "Regular")]
