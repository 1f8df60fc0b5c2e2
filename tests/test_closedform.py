"""Closed forms, the direct series, and the rational-exponent log sums."""

import cmath
import math
import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bci import (
    AlphaOnCircle,
    AlphaOnCut,
    DEFAULT_THRESHOLDS,
    BetaNonNegativeInteger,
    DivergentAtZero,
    EvaluationError,
    IntegerBeta,
    NonFiniteValue,
    ProblemInstance,
    RationalBeta,
    SlowConvergence,
    ZeroInput,
    check_reconciliation,
    eval_closed_form,
    eval_direct_series,
    eval_rational_logsum,
    evaluate_instance,
    hyp2f1_one_b,
    hyp2f1_rational,
    int_pow,
    roots_of_unity_filter,
)
from bci.branchcut import TWO_PI, cut_jump_with_bound
from bci.closedform import hyp2f1_rational_with_bound, roots_of_unity_drift

# Same mpmath contour anchors as in test_quadrature, reused against the
# analytic route this time.
FROZEN = [
    (1.5 * cmath.exp(0.8j), 0.5 + 0.3j, 2.0, complex(1.3675970912328640, -1.2040600562880184)),
    (0.4 * cmath.exp(2.9j), 0.7 - 0.2j, 2.5, complex(-0.86314240294559916, 0.28404864998768630)),
    (2.0, 0.5, math.pi, complex(0.0, 0.51832099453158721)),
    (0.3, 0.5, math.pi, complex(0.0, 5.0978397870946862)),
]


class TestResidueCases:
    @pytest.mark.parametrize("beta", [-3, -1, 0, 1, 2, 5])
    @pytest.mark.parametrize("alpha", [0.4 * cmath.exp(1.3j), 2.5 * cmath.exp(4.0j)])
    def test_integer_beta_residues(self, beta, alpha):
        inst = ProblemInstance(alpha=alpha, beta=beta, theta=2.0)
        got = eval_closed_form(inst).value
        if abs(alpha) > 1.0:
            want = -2j * math.pi * int_pow(alpha, beta) if beta < 0 else 0.0
        else:
            want = 2j * math.pi * int_pow(alpha, beta) if beta >= 0 else 0.0
        assert got == pytest.approx(want, abs=1e-12)

    def test_beta_zero_alpha_zero(self):
        inst = ProblemInstance(alpha=0.0, beta=0, theta=math.pi)
        assert eval_closed_form(inst).value == pytest.approx(2j * math.pi, rel=1e-15)

    def test_residues_are_theta_independent(self):
        a = 0.6 * cmath.exp(2.0j)
        vals = {th: eval_closed_form(ProblemInstance(alpha=a, beta=3, theta=th)).value for th in (1.0, math.pi, 5.5)}
        assert len({v for v in vals.values()}) == 1  # exact short-circuit, no logs


class TestClosedForm:
    @pytest.mark.parametrize("alpha,beta,theta,want", FROZEN)
    def test_frozen_contours(self, alpha, beta, theta, want):
        inst = ProblemInstance(alpha=alpha, beta=beta, theta=theta, tol=1e-15)
        got = eval_closed_form(inst)
        assert got.value == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_alpha_zero_noninteger_beta(self):
        # pure cut contribution: P(beta, theta)/beta, here 2i / (1/2) = 4i
        inst = ProblemInstance(alpha=0.0, beta=0.5, theta=math.pi)
        assert eval_closed_form(inst).value == pytest.approx(4j, rel=1e-14)

    def test_error_estimate_scales_with_series_tol(self):
        # the series runs to the instance tolerance, at most 1e-12
        rough = eval_closed_form(ProblemInstance(alpha=0.8 * cmath.exp(1.0j), beta=0.3, theta=2.0, tol=1e-12))
        sharp = eval_closed_form(ProblemInstance(alpha=0.8 * cmath.exp(1.0j), beta=0.3, theta=2.0, tol=1e-15))
        assert abs(rough.value - sharp.value) <= rough.error_estimate + sharp.error_estimate
        assert sharp.error_estimate < rough.error_estimate


class TestDirectSeries:
    def test_outside_refused(self):
        inst = ProblemInstance(alpha=1.5, beta=0.5, theta=math.pi)
        with pytest.raises(EvaluationError):
            eval_direct_series(inst)

    @pytest.mark.parametrize("alpha,beta", [(0.3j, 2), (0.3j, 0), (0.0, 0), (0.0, 3)])
    def test_nonnegative_integer_is_refused(self, alpha, beta):
        # the k = beta term has a zero denominator; the closed form gives the residue
        inst = ProblemInstance(alpha=alpha, beta=beta, theta=math.pi)
        with pytest.raises(BetaNonNegativeInteger):
            eval_direct_series(inst)
        assert eval_closed_form(inst).value == pytest.approx(2j * math.pi * alpha**beta, rel=1e-14)

    def test_negative_integer_beta_vanishes(self):
        inst = ProblemInstance(alpha=0.4 * cmath.exp(0.9j), beta=-2, theta=2.0)
        assert abs(eval_direct_series(inst).value) < 1e-12

    def test_alpha_zero(self):
        inst = ProblemInstance(alpha=0.0, beta=0.5, theta=math.pi)
        r = eval_direct_series(inst)
        assert r.value == pytest.approx(4j, rel=1e-14)

    def test_alpha_zero_sums_no_terms(self):
        # past k = 0 every term is zero, so the sum is 1/beta; the value and
        # estimate keep the bits they had when the zero terms were summed
        beta, theta = 7.5 + 0.3j, 2.0
        r = eval_direct_series(ProblemInstance(alpha=0.0, beta=beta, theta=theta))
        assert r.diagnostics["series_terms"] == 1
        assert r.value == cut_jump_with_bound(beta, theta)[0] * (1.0 / beta)
        assert r.error_estimate.hex() == "0x1.2630c2da28cb0p-46"

    @given(
        amod=st.floats(min_value=0.0, max_value=0.9),
        aarg=st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True),
        br=st.floats(min_value=-2.5, max_value=2.5),
        bi=st.floats(min_value=-1.0, max_value=1.0),
        theta=st.floats(min_value=0.1, max_value=2 * math.pi - 0.1),
    )
    @settings(max_examples=60)
    def test_matches_closed_form(self, amod, aarg, br, bi, theta):
        beta = complex(br, bi)
        assume(abs(beta - round(br)) > 0.05)
        inst = ProblemInstance(alpha=amod * cmath.exp(1j * aarg), beta=beta, theta=theta)
        series = eval_direct_series(inst).value
        closed = eval_closed_form(inst).value
        assert series == pytest.approx(closed, rel=1e-10, abs=1e-10)

    def test_sums_keep_the_bits_of_a_full_buffer_sum(self):
        # the direct series and hyp2f1_one_b fill one buffer with z, take the
        # running product, divide by float k and reduce with np.add.reduce:
        # each sum has the bits of np.full, an integer arange and .sum()
        rng = random.Random(20261019)
        for _ in range(300):
            alpha = rng.uniform(0.0, 0.97) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
            beta = complex(rng.uniform(-3.0, 3.0), rng.choice((rng.uniform(-3.0, 3.0), rng.uniform(-40.0, 40.0))))
            theta = rng.uniform(0.01, 2 * math.pi - 0.01)
            inst = ProblemInstance(alpha=alpha, beta=beta, theta=theta)
            z = alpha * cmath.exp(-1j * theta)
            try:
                direct = eval_direct_series(inst)
            except (SlowConvergence, NonFiniteValue):
                continue
            last = direct.diagnostics["series_terms"] - 1
            powers = np.multiply.accumulate(np.full(last, z))
            total = complex(1.0 / beta + (powers / (beta - np.arange(1, last + 1))).sum())
            want = cut_jump_with_bound(beta, theta)[0] * total
            assert (direct.value.real.hex(), direct.value.imag.hex()) == (want.real.hex(), want.imag.hex())
            series = hyp2f1_one_b(-beta, z)
            last = series.terms_used - 1
            powers = np.multiply.accumulate(np.full(last, z))
            total = complex(1.0 + (-beta / (-beta + np.arange(1, last + 1)) * powers).sum())
            assert (series.value.real.hex(), series.value.imag.hex()) == (total.real.hex(), total.imag.hex())


class TestRationalBeta:
    def test_normalisation(self):
        assert (RationalBeta(2, 4).m, RationalBeta(2, 4).n) == (1, 2)
        assert (RationalBeta(1, -2).m, RationalBeta(1, -2).n) == (-1, 2)
        assert (RationalBeta(-9, 6).m, RationalBeta(-9, 6).n) == (-3, 2)
        assert RationalBeta(5, 2).value == 2.5

    def test_integer_rejected(self):
        with pytest.raises(IntegerBeta):
            RationalBeta(4, 2)
        with pytest.raises(IntegerBeta):
            RationalBeta(0, 3)
        with pytest.raises(ValueError):
            RationalBeta(1, 0)


class TestRootsOfUnityFilter:
    def test_exact_values_and_float_agreement(self):
        for n in range(1, 9):
            for d in range(-17, 18):
                want = 1.0 if d % n == 0 else 0.0
                assert roots_of_unity_filter(n, d) == want

    def test_brute_force_comparison(self):
        for n in range(1, 7):
            for d in range(-7, 8):
                brute = sum(cmath.exp(2j * math.pi * j * d / n) for j in range(n)) / n
                assert roots_of_unity_filter(n, d) == pytest.approx(brute, abs=1e-12)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            roots_of_unity_filter(0, 1)
        with pytest.raises(ValueError):
            roots_of_unity_drift(0, 1)

    def test_drift_matches_the_sum_over_j_bit_for_bit(self):
        def reference(n, d):
            exact = 1.0 if d % n == 0 else 0.0
            angles = [TWO_PI * ((j * d) % n) / n for j in range(n)]
            re = math.fsum(math.cos(a) for a in angles) / n
            im = math.fsum(math.sin(a) for a in angles) / n
            return exact, math.hypot(re - exact, im)

        cases = [(n, d) for n in range(1, 33) for d in range(-128, 129)]
        cases += [(n, d) for n in (45, 64, 97, 360) for d in [*range(-2 * n, 2 * n + 1, 7), 0, n, -3 * n]]
        for n, d in cases:
            assert roots_of_unity_drift(n, d) == reference(n, d), (n, d)


class TestRationalLogSum:
    def test_log3_identity(self):
        # 2F1(1, 1/2; 3/2; 1/4) = log(3): two logs beat an infinite series
        got = hyp2f1_rational(0.25, RationalBeta(1, 2))
        assert got == pytest.approx(math.log(3.0), rel=1e-13)

    def test_z_zero_is_exactly_one(self):
        assert hyp2f1_rational(0.0, RationalBeta(3, 4)) == 1.0

    def test_outside_disk_rejected(self):
        # a NaN z once gave ((nan+nanj), nan), a value and bound unrefused
        for z in (1.0, 1.2j, math.nan, complex(0.2, math.nan), complex(math.inf, 0.1)):
            with pytest.raises(ValueError, match="outside the open unit disk"):
                hyp2f1_rational_with_bound(z, RationalBeta(1, 2))

    @pytest.mark.parametrize("m,n", [(1, 2), (-1, 2), (2, 3), (7, 2), (-9, 4), (5, 6)])
    def test_matches_series(self, m, n):
        z = 0.55 * cmath.exp(1.1j)
        got = hyp2f1_rational(z, RationalBeta(m, n))
        want = hyp2f1_one_b(m / n, z, tol=1e-14).value
        assert got == pytest.approx(want, rel=1e-9)

    def test_branch_choice_is_irrelevant(self):
        # The rotation is realized as an exact index permutation, so every
        # branch (including negative and wrapped ones) is bit-identical.
        z = 0.3 + 0.4j
        beta = RationalBeta(3, 5)
        base = hyp2f1_rational(z, beta, branch=0)
        for ell in (1, 2, 3, 4, 5, -2, 13):
            assert hyp2f1_rational(z, beta, branch=ell) == base

    @pytest.mark.parametrize(
        "alpha,m,n",
        [
            (0.45 * cmath.exp(1.3j), 1, 2),
            (0.45 * cmath.exp(1.3j), -3, 4),
            (2.2 * cmath.exp(5.1j), 1, 2),
            (2.2 * cmath.exp(5.1j), 5, 3),
        ],
    )
    def test_eval_matches_closed_form(self, alpha, m, n):
        inst = ProblemInstance(alpha=alpha, beta=m / n, theta=2.4, tol=1e-15)
        got = eval_rational_logsum(inst, RationalBeta(m, n)).value
        want = eval_closed_form(inst).value
        assert got == pytest.approx(want, rel=1e-11)

    def test_beta_mismatch_is_a_bug(self):
        inst = ProblemInstance(alpha=0.5, beta=0.5, theta=2.0)
        with pytest.raises(ValueError):
            eval_rational_logsum(inst, RationalBeta(1, 3))

    def test_band_is_checked_before_the_match(self):
        inst = ProblemInstance(alpha=1.01, beta=0.5, theta=2.0)
        with pytest.raises(AlphaOnCircle):
            eval_rational_logsum(inst, RationalBeta(1, 3))


class TestReconciliation:
    def test_preconditions(self):
        with pytest.raises(ZeroInput):
            check_reconciliation(ProblemInstance(alpha=0.0, beta=0.5, theta=2.0))
        with pytest.raises(EvaluationError):
            check_reconciliation(ProblemInstance(alpha=1.5, beta=0.5, theta=2.0))
        with pytest.raises(DivergentAtZero):
            check_reconciliation(ProblemInstance(alpha=0.5j, beta=-0.5, theta=2.0))
        with pytest.raises(BetaNonNegativeInteger):
            check_reconciliation(ProblemInstance(alpha=0.5j, beta=2, theta=2.0))
        with pytest.raises(AlphaOnCut):
            check_reconciliation(ProblemInstance(alpha=0.5 * cmath.exp(2.0j), beta=0.5, theta=2.0))

    @pytest.mark.parametrize(
        "alpha,beta,theta",
        [
            (0.3 * cmath.exp(0.8j), 0.5, 2.0),
            (0.7 * cmath.exp(4.0j), 1.5 + 0.3j, 5.0),
            (0.2 * cmath.exp(2.8j), 2.2, math.pi / 2),
        ],
    )
    def test_residual_small(self, alpha, beta, theta):
        inst = ProblemInstance(alpha=alpha, beta=beta, theta=theta)
        assert check_reconciliation(inst) < 1e-8

    def test_near_the_band(self):
        # |z| = 0.97: the series runs to the band here as in the closed form
        inst = ProblemInstance(alpha=0.97j, beta=0.5, theta=2.0)
        assert check_reconciliation(inst) <= DEFAULT_THRESHOLDS["reconciliation"]

    def test_unconverged_series_is_refused(self):
        # |z| = 1 - 2e-10 needs ~1e11 terms, past max_terms
        inst = ProblemInstance(alpha=0.9999999998j, beta=0.5, theta=2.0, exclusion_band=1e-10)
        with pytest.raises(SlowConvergence):
            check_reconciliation(inst)

    def test_overflowing_pole_term_is_refused(self):
        # the jump's e^{i beta (theta - 2 pi)} has modulus e^{250 (2 pi - 2)}
        inst = ProblemInstance(alpha=0.5 * cmath.exp(0.5j), beta=0.5 + 250j, theta=2.0)
        with pytest.raises(NonFiniteValue, match="cut jump"):
            check_reconciliation(inst)

    def test_tiny_pole_term_is_checked(self):
        # the pole term is about e^{-821}; e^{beta (log alpha - i theta)} alone
        # would overflow, but power and jump are each finite
        inst = ProblemInstance(alpha=0.5 * cmath.exp(0.5j), beta=0.5 + 250j, theta=3.5)
        assert check_reconciliation(inst) < 1e-8


def _mp_circle(alpha, beta, theta):
    """The circle integral from the 2F1 identity in mpmath, 30 digits plus
    15 guard; integer beta by residues."""
    with mp.workdps(45):
        a, b, th = mp.mpc(alpha), mp.mpc(beta), mp.mpf(theta)
        inside = abs(alpha) < 1.0
        if b.imag == 0 and b.real == int(b.real):
            n = int(b.real)
            if inside and n >= 0:
                return 2j * mp.pi * a**n
            if not inside and n < 0:
                return -2j * mp.pi * a**n
            return mp.mpc(0)
        jump = mp.exp(1j * b * th) - mp.exp(1j * b * (th - 2 * mp.pi))
        if inside:
            return jump / b * mp.hyp2f1(1, -b, 1 - b, a * mp.exp(-1j * th))
        return jump / b * (1 - mp.hyp2f1(1, b, 1 + b, mp.exp(1j * th) / a))


def _error(result, ref):
    with mp.workdps(30):
        return float(abs(mp.mpc(result.value) - ref))


def _draw_alpha(rng, low, high):
    z = rng.uniform(low, high)
    mod = z if rng.random() < 0.5 else 1.0 / z
    return mod * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))


class TestEstimatesAgainstMpmath:
    """Every closed-form error estimate bounds the true error, rounding included."""

    def test_theorem_and_series(self):
        rng = random.Random(20261018)
        for _ in range(150):
            alpha = _draw_alpha(rng, 0.02, 0.949)  # the series refuses |z| > 0.95
            im = rng.uniform(-3.0, 3.0) if rng.random() < 0.6 else rng.choice((-1, 1)) * rng.uniform(3.0, 40.0)
            beta = complex(rng.uniform(-3.0, 3.0), im)
            theta = rng.uniform(0.05, 2 * math.pi - 0.05)
            inst = ProblemInstance(alpha=alpha, beta=beta, theta=theta)
            ref = _mp_circle(alpha, beta, theta)
            methods = [eval_closed_form] + ([eval_direct_series] if abs(alpha) < 1 else [])
            for method in methods:
                r = method(inst)
                assert _error(r, ref) <= r.error_estimate, (method.__name__, alpha, beta, theta)

    def test_every_route_near_an_integer(self):
        # each route's estimate bounds its error next to an integer beta
        rng = random.Random(20261020)
        for d in (1e-11, 1e-9, 1e-7):
            for n in range(-3, 4):
                for mod in (0.5, 2.0):
                    beta = n + d * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
                    alpha = mod * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
                    theta = rng.uniform(0.05, 2 * math.pi - 0.05)
                    methods = ["TheoremHypergeometric", "Quadrature"] + (["SeriesDirect"] if mod < 1 else [])
                    report = evaluate_instance(ProblemInstance(alpha=alpha, beta=beta, theta=theta), methods)
                    ref = _mp_circle(alpha, beta, theta)
                    for r in report.results:
                        assert _error(r, ref) <= r.error_estimate, (r.method, alpha, beta, theta)

    @pytest.mark.parametrize("d", [3e-12, 1e-11, 1e-9, 1e-7, 1e-5, 0.3])
    def test_closed_form_keeps_its_digits_near_an_integer(self, d):
        # the jump e^{i beta theta} - e^{i beta (theta - 2 pi)} cancels to
        # ~2 pi d at beta = n + d; taken through expm1 it loses nothing, so
        # the closed form and its estimate stay at full accuracy and the
        # report reads Agree
        rng = random.Random(20261020)
        for n in range(-4, 5):
            for mod in (0.5, 2.0):
                beta = n + d * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
                alpha = mod * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
                theta = rng.uniform(0.05, 2 * math.pi - 0.05)
                inst = ProblemInstance(alpha=alpha, beta=beta, theta=theta)
                ref = _mp_circle(alpha, beta, theta)
                r = eval_closed_form(inst)
                assert _error(r, ref) <= r.error_estimate <= 1e-12 * max(1.0, abs(complex(ref))), (alpha, beta, theta)
                assert evaluate_instance(inst).verdict == "Agree", (alpha, beta, theta)

    def test_closed_form_at_the_overflow_edge(self):
        # |I| ~ 1e303 fits in a double; the jump is the larger exponential,
        # ~1e306, times expm1 of an exponent with real part <= 0, so it is
        # finite where the two exponentials were not both
        alpha, beta, theta = 0.7005 * cmath.exp(4.4439j), -1.0041 + 209.0003j, 2.9123
        inst = ProblemInstance(alpha=alpha, beta=beta, theta=theta)
        r = eval_closed_form(inst)
        ref = _mp_circle(alpha, beta, theta)
        assert _error(r, ref) <= r.error_estimate <= 1e-12 * abs(complex(ref))
        assert evaluate_instance(inst).verdict == "Partial"  # quadrature overflows

    @pytest.mark.parametrize("beta", [-1, -4])
    @pytest.mark.parametrize("theta", [1.2, 4.0, 6.0])
    def test_series_at_negative_integer_beta(self, beta, theta):
        # The exact value is 0, and so is the computed jump factor.
        r = eval_direct_series(ProblemInstance(alpha=0.15 * cmath.exp(0.7j), beta=beta, theta=theta))
        assert abs(r.value) <= r.error_estimate

    def test_rational_log_sum(self):
        rng = random.Random(20261019)
        for _ in range(300):
            n = rng.randint(2, 12)
            m = rng.randint(-3 * n, 3 * n)
            if math.gcd(m, n) != 1:
                continue
            alpha = _draw_alpha(rng, 0.1, 0.949)
            theta = rng.uniform(0.05, 2 * math.pi - 0.05)
            r = eval_rational_logsum(ProblemInstance(alpha=alpha, beta=m / n, theta=theta), RationalBeta(m, n))
            assert _error(r, _mp_circle(alpha, m / n, theta)) <= r.error_estimate, (alpha, m, n, theta)

    @pytest.mark.parametrize("tol", [1e-15, 1e-13, 1e-9])
    def test_theorem_at_each_series_tolerance(self, tol):
        # both regimes, alpha = 0, |alpha| = 1.05, an integer beta, |Im beta| =
        # 40 and a beta 1e-7 from a half-integer, the series summed to the
        # instance's own tolerance
        for alpha in (2.0 * cmath.exp(1.1j), 0.45 * cmath.exp(2.7j), 1.05, 0.0, 4.9j):
            for beta, theta in ((0.7 + 0.2j, 2.0), (3, 1.0), (0.5 - 40j, 5.5), (-2.5 + 1e-7j, 0.3)):
                r = eval_closed_form(ProblemInstance(alpha=alpha, beta=beta, theta=theta, tol=tol))
                assert _error(r, _mp_circle(alpha, beta, theta)) <= r.error_estimate, (alpha, beta, theta)


class TestEstimatesNearTheBand:
    """Both series routes run up to the exclusion band, and their estimates
    still bound the true error there."""

    @given(
        q=st.floats(min_value=0.02, max_value=1.0 / 1.02),
        outside=st.booleans(),
        aarg=st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True),
        br=st.floats(min_value=-3.0, max_value=3.0),
        bi=st.floats(min_value=-40.0, max_value=40.0),
        theta=st.floats(min_value=0.05, max_value=2 * math.pi - 0.05),
    )
    @settings(max_examples=60, deadline=None)
    def test_estimates_bound_the_error(self, q, outside, aarg, br, bi, theta):
        mod = 1.0 / q if outside else min(q, 0.98)
        alpha = mod * cmath.exp(1j * aarg)
        beta = complex(br, bi)
        assume(abs(1.0 - abs(alpha)) >= 0.02)  # |alpha| rounded into the band at q = 1/1.02
        # the 45-digit reference rounds the jump factor of a beta within ~1e-45
        # of an integer to 0, where bci takes beta as that integer
        assume(beta == round(br) or abs(beta - round(br)) > 1e-6)
        inst = ProblemInstance(alpha=alpha, beta=beta, theta=theta)
        ref = _mp_circle(alpha, beta, theta)
        for method in [eval_closed_form] + ([] if outside else [eval_direct_series]):
            if method is eval_direct_series and beta == round(br) >= 0:  # k = beta divides by 0
                with pytest.raises(BetaNonNegativeInteger):
                    method(inst)
                continue
            r = method(inst)
            assert _error(r, ref) <= r.error_estimate, method.__name__

    @pytest.mark.parametrize("band", [0.02, 0.05, 0.3])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_band_edges_are_cross_checked(self, band, sign):
        rng = random.Random(7)
        for _ in range(40):
            # the accepted alpha nearest the circle on a random ray (or the real axis)
            arg = rng.uniform(0.0, 2 * math.pi) if rng.random() < 0.8 else 0.0
            mod = 1.0 + sign * band
            while abs(1.0 - abs(mod * cmath.exp(1j * arg))) < band:
                mod = math.nextafter(mod, sign * math.inf)
            alpha = mod * cmath.exp(1j * arg)
            theta = rng.uniform(0.05, 2 * math.pi - 0.05)
            inst = ProblemInstance(alpha=alpha, beta=0.5 + 0.3j, theta=theta, exclusion_band=band)
            report = evaluate_instance(inst)
            assert report.verdict == "Agree", (alpha, theta, report.results)
            assert len(report.results) >= 2

    @pytest.mark.parametrize("alpha,band", [(1.00001, 1e-5), (1.0 + 2e-10, 1e-10)])
    def test_tiny_band_still_refuses(self, alpha, band):
        # |z| = 1/(1 + band) needs ~4e6 terms, past max_terms: the closed form
        # refuses instead of returning a partial sum
        inst = ProblemInstance(alpha=alpha, beta=0.5, theta=2.0, exclusion_band=band)
        with pytest.raises(SlowConvergence):
            eval_closed_form(inst)
        assert evaluate_instance(inst).verdict == "Partial"

    def test_z_rounded_onto_the_circle_is_refused(self):
        # band 1e-17 accepts |alpha| = 1 - eps/2, and |z| = |alpha e^{-i theta}| rounds to 1.0
        alpha = math.nextafter(1.0, 0.0) * cmath.exp(1j)
        inst = ProblemInstance(alpha=alpha, beta=0.5, theta=0.0033, exclusion_band=1e-17)
        assert abs(alpha * cmath.exp(-0.0033j)) == 1.0
        for method in (eval_closed_form, eval_direct_series):
            with pytest.raises(SlowConvergence):
                method(inst)
        # the pole is subtracted from the circle integrand, so quadrature alone
        # certifies a value there, and it holds against mpmath
        report = evaluate_instance(inst)
        assert report.verdict == "Partial"
        (quad,) = [r for r in report.results if r.method == "Quadrature"]
        assert abs(quad.value - complex(_mp_circle(alpha, 0.5, 0.0033))) <= quad.error_estimate <= inst.tol

    def test_direct_series_count_rule(self):
        beta = 2.6 - 1.5j
        for alpha, tol in ((0.5 * cmath.exp(1.0j), 1e-12), (0.98j, 1e-12), (0.7, 1e-6)):
            inst = ProblemInstance(alpha=alpha, beta=beta, theta=2.0, tol=tol)
            r = eval_direct_series(inst)
            last = r.diagnostics["series_terms"] - 1
            q = abs(alpha)
            assert last > abs(beta) + 1
            assert q**last / abs(beta - last) * q / (1.0 - q) <= min(1e-12, tol)

    def test_direct_series_refuses_at_a_tiny_band(self):
        # |z| = 1 - 2e-10 needs ~1e11 terms, past max_terms: the direct series
        # refuses instead of returning a partial sum, as the closed form does
        inst = ProblemInstance(alpha=0.9999999998, beta=0.5, theta=2.0, exclusion_band=1e-10)
        with pytest.raises(SlowConvergence):
            eval_direct_series(inst)
        assert evaluate_instance(inst).verdict == "Partial"


class TestDiagnostics:
    @pytest.mark.parametrize(
        "alpha,flagged",
        [(0.4 * cmath.exp(2.0j), True), (2.5 * cmath.exp(2.0j), True), (0.4 * cmath.exp(2.5j), False), (0.0, False)],
    )
    def test_alpha_on_cut_ray_is_flagged(self, alpha, flagged):
        inst = ProblemInstance(alpha=alpha, beta=0.5, theta=2.0)
        assert eval_closed_form(inst).diagnostics.get("alpha_arg_on_cut", False) is flagged
