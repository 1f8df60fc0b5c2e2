"""Branch-cut primitives: argument windows, logs, powers, the jump factor."""

import cmath
import math
import random

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bci import (
    ANGULAR_GUARD,
    OnBranchCut,
    ProblemInstance,
    ZeroInput,
    as_integer,
    branch_arg,
    branch_log,
    branch_pow,
    cut_jump_factor,
    int_pow,
)
from bci.branchcut import TWO_PI, cut_jump_with_bound
from bci.errors import AlphaOnCircle

thetas = st.floats(min_value=0.05, max_value=TWO_PI - 0.05)
moduli = st.floats(min_value=1e-6, max_value=1e6)
args = st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True)


def polar(mod, arg):
    return mod * cmath.exp(1j * arg)


def off_cut(arg, theta):
    gap = (arg - theta) % TWO_PI
    return min(gap, TWO_PI - gap) > 1e-6


class TestBranchAngle:
    @pytest.mark.parametrize("theta", [0.0, TWO_PI, -1.0])
    def test_open_interval(self, theta):
        message = r"branch angle must lie in the open interval \(0, 2\*pi\)"
        with pytest.raises(ValueError, match=message):
            ProblemInstance(alpha=0.5, beta=0.5, theta=theta)
        with pytest.raises(ValueError, match=message):
            branch_arg(1j, theta)


class TestBranchArg:
    def test_log_of_one_is_zero(self):
        # the normalisation that pins the branch: log(1) = 0 for every cut
        for theta in (0.3, math.pi / 2, math.pi, 4.0, 6.0):
            assert branch_arg(1.0, theta) == pytest.approx(0.0, abs=1e-15)
            assert branch_log(1.0, theta) == pytest.approx(0.0, abs=1e-15)

    def test_principal_values_at_theta_pi(self):
        assert branch_arg(1j, math.pi) == pytest.approx(math.pi / 2)
        assert branch_arg(-1j, math.pi) == pytest.approx(-math.pi / 2)
        assert branch_arg(1.0 - 1e-9j, math.pi) == pytest.approx(-1e-9)

    def test_other_cut_relocates_negative_axis(self):
        # with the cut along +i, the argument of -1 must come out as -pi
        assert branch_arg(-1.0, math.pi / 2) == pytest.approx(-math.pi)

    def test_zero_raises(self):
        with pytest.raises(ZeroInput):
            branch_arg(0.0, math.pi)

    def test_on_cut_raises(self):
        theta = 2.0
        with pytest.raises(OnBranchCut):
            branch_arg(polar(3.0, theta), theta)
        with pytest.raises(OnBranchCut):
            branch_arg(polar(3.0, theta + 0.5 * ANGULAR_GUARD), theta)
        # just beyond the guard is allowed
        branch_arg(polar(3.0, theta + 5e-12), theta)

    @given(mod=moduli, arg=args, theta=thetas)
    def test_arg_lands_in_open_window(self, mod, arg, theta):
        assume(off_cut(arg, theta))
        a = branch_arg(polar(mod, arg), theta)
        assert theta - TWO_PI < a < theta

    @given(mod=moduli, arg=args)
    def test_theta_pi_matches_principal_log(self, mod, arg):
        assume(off_cut(arg, math.pi))
        z = polar(mod, arg)
        assert branch_log(z, math.pi) == pytest.approx(cmath.log(z), rel=1e-14, abs=1e-14)


class TestBranchPow:
    @given(mod=moduli, arg=args, theta=thetas)
    @settings(max_examples=60)
    def test_exp_log_roundtrip(self, mod, arg, theta):
        assume(off_cut(arg, theta))
        z = polar(mod, arg)
        assert cmath.exp(branch_log(z, theta)) == pytest.approx(z, rel=1e-13)

    @given(
        mod=st.floats(min_value=0.1, max_value=10.0),
        arg=args,
        theta=thetas,
        a=st.floats(min_value=-2, max_value=2),
        b=st.floats(min_value=-2, max_value=2),
    )
    @settings(max_examples=60)
    def test_power_additivity(self, mod, arg, theta, a, b):
        assume(off_cut(arg, theta))
        z = polar(mod, arg)
        lhs = branch_pow(z, a + b, theta)
        rhs = branch_pow(z, a, theta) * branch_pow(z, b, theta)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_integer_exponent_is_branch_independent(self):
        z = polar(1.7, 4.1)
        assert branch_pow(z, 3, 1.0) == branch_pow(z, 3, 5.0) == z * z * z
        # even on the cut itself: integer powers never consult the logarithm
        assert branch_pow(polar(2.0, 1.0), -2, 1.0) == int_pow(polar(2.0, 1.0), -2)

    def test_zero_base(self):
        assert branch_pow(0.0, 3, math.pi) == 0.0
        with pytest.raises(ZeroInput):
            branch_pow(0.0, -1, math.pi)
        with pytest.raises(ZeroInput):
            branch_pow(0.0, 0.5, math.pi)

    def test_int_pow_values(self):
        assert int_pow(2.0, 10) == 1024.0
        assert int_pow(2.0, -2) == 0.25
        assert int_pow(0.0, 3) == 0.0
        assert int_pow(1.5j, 0) == 1.0
        assert int_pow(1j, 5) == pytest.approx(1j)


class TestCutJumpFactor:
    def test_reference_value(self):
        assert cut_jump_factor(0.5, math.pi) == pytest.approx(2j, rel=1e-15)

    @given(
        br=st.floats(min_value=-3, max_value=3),
        bi=st.floats(min_value=-1, max_value=1),
        theta=thetas,
    )
    def test_factored_form(self, br, bi, theta):
        beta = complex(br, bi)
        alt = cmath.exp(1j * beta * theta) * (1.0 - cmath.exp(-2j * math.pi * beta))
        assert cut_jump_factor(beta, theta) == pytest.approx(alt, rel=1e-12, abs=1e-12)

    def test_vanishes_at_integers(self):
        for n in (-3, 0, 2, 7):
            assert abs(cut_jump_factor(n, 2.0)) < 1e-12

    def test_bound_covers_rounding(self):
        rng = random.Random(5)
        for k in range(300):
            if k % 4 == 0:  # the exact jump is 0: the computed one is pure roundoff
                beta = complex(rng.randint(-6, 6))
            else:
                beta = complex(rng.uniform(-3.0, 3.0), rng.uniform(-40.0, 40.0))
            theta = rng.uniform(0.01, TWO_PI - 0.01)
            value, bound = cut_jump_with_bound(beta, theta)
            assert value == cut_jump_factor(beta, theta)
            with mp.workdps(40):
                b, th = mp.mpc(beta), mp.mpf(theta)
                exact = mp.exp(1j * b * th) - mp.exp(1j * b * (th - 2 * mp.pi))
                err = float(abs(mp.mpc(value) - exact))
            assert err <= bound, (beta, theta, err, bound)


class TestProblemInstance:
    def test_coercion_and_theta(self):
        inst = ProblemInstance(alpha=2, beta=1, theta=math.pi)
        assert inst.alpha == 2.0 + 0j and inst.beta == 1.0 + 0j
        assert inst.theta == math.pi
        assert inst.alpha_outside()

    def test_exclusion_band(self):
        inst = ProblemInstance(alpha=1.01, beta=0.5, theta=math.pi)
        with pytest.raises(AlphaOnCircle):
            inst.require_alpha_off_circle()
        ProblemInstance(alpha=1.05, beta=0.5, theta=math.pi).require_alpha_off_circle()
        wide = ProblemInstance(alpha=1.05, beta=0.5, theta=math.pi, exclusion_band=0.1)
        with pytest.raises(AlphaOnCircle):
            wide.require_alpha_off_circle()

    def test_validation(self):
        with pytest.raises(ValueError):
            ProblemInstance(alpha=2, beta=1, theta=0.0)
        with pytest.raises(ValueError):
            ProblemInstance(alpha=2, beta=1, theta=math.pi, tol=0.0)
        for tol in (math.inf, -math.inf, math.nan, -1e-8):
            with pytest.raises(ValueError, match="finite and positive"):
                ProblemInstance(alpha=2, beta=1, theta=math.pi, tol=tol)
        with pytest.raises(ValueError):
            ProblemInstance(alpha=2, beta=1, theta=math.pi, exclusion_band=1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.5, math.nan), complex(math.inf, 1.0)])
    def test_non_finite_alpha_or_beta_refused(self, bad):
        for alpha, beta in ((bad, 0.5), (0.3, bad)):
            with pytest.raises(ValueError, match="alpha and beta must be finite"):
                ProblemInstance(alpha=alpha, beta=beta, theta=2.0)


class TestAsInteger:
    def test_detection(self):
        assert as_integer(3.0) == 3
        assert as_integer(3.0 + 1e-13j) == 3
        assert as_integer(-2 + 0j) == -2
        assert as_integer(3.0 + 1e-9j) is None
        assert as_integer(2.5) is None
        assert as_integer(complex(float("inf"), 0)) is None
        assert as_integer(complex(float("nan"), 0)) is None
