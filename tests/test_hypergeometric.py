"""The Gauss series 2F1(1, b; 1+b; z), held to mpmath."""

import cmath
import math
import random
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bci.hypergeometric
from bci import InvalidC, SlowConvergence, hyp2f1_one_b


class TestOneBPath:
    @given(
        br=st.floats(min_value=-5, max_value=5),
        bi=st.floats(min_value=-2, max_value=2),
        zr=st.floats(min_value=-0.6, max_value=0.6),
        zi=st.floats(min_value=-0.6, max_value=0.6),
    )
    @settings(max_examples=80)
    def test_matches_general_series(self, br, bi, zr, zi):
        b = complex(br, bi)
        z = complex(zr, zi)
        assume(abs(z) <= 0.85)
        # keep b away from nonpositive integers, where c = 1+b degenerates
        assume(abs(b - round(br)) > 1e-3 or round(br) > 0 or abs(bi) > 1e-3)
        fast = hyp2f1_one_b(b, z, tol=1e-14)
        with mp.workdps(30):
            want = complex(mp.hyp2f1(1, mp.mpc(b), 1 + mp.mpc(b), mp.mpc(z)))
        assert fast.value == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_invalid_b(self):
        with pytest.raises(InvalidC):
            hyp2f1_one_b(-2.0, 0.3)
        with pytest.raises(InvalidC):
            hyp2f1_one_b(0.0, 0.3)

    def test_brute_partial_sum(self):
        # the classic slow route: sum (b/(b+k)) z^k directly
        brute = sum((0.5 / (0.5 + k)) * 0.25**k for k in range(200))
        r = hyp2f1_one_b(0.5, 0.25)
        assert r.value == pytest.approx(brute, rel=1e-12)
        # and the closed form of that particular sum: artanh route to log 3
        assert r.value == pytest.approx(math.log(3.0), rel=1e-12)

    def test_z_zero(self):
        r = hyp2f1_one_b(0.7 - 0.3j, 0.0)
        assert r.value == 1.0 and r.tail_estimate == 0.0


def _majorant(b, z, k):
    """|b/(b+k)| |z|^k |z|/(1-|z|): the bound on the tail after term k."""
    q = abs(z)
    return abs(b / (b + k)) * q**k * q / (1.0 - q)


class TestOneBTermCount:
    @pytest.mark.parametrize(
        "b,z",
        [(0.5, 0.25), (-2.5 + 0.001j, 0.9 * cmath.exp(2.0j)), (0.3 - 38.0j, -0.97), (7.2 + 1.0j, 1e-3j), (-0.4, 0.979j)],
    )
    @pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-15])
    def test_count_rule(self, b, z, tol):
        r = hyp2f1_one_b(b, z, tol=tol)
        last = r.terms_used - 1
        assert r.tail_estimate <= tol
        assert last >= abs(b)
        assert _majorant(b, z, last) <= tol
        assert r.tail_estimate == pytest.approx(_majorant(b, z, last), rel=1e-12)

    def test_partial_sum_has_that_many_terms(self):
        b, z = 0.7 - 0.3j, 0.6 + 0.5j
        r = hyp2f1_one_b(b, z)
        brute = math.fsum(((b / (b + k)) * z**k).real for k in range(r.terms_used))
        brute += 1j * math.fsum(((b / (b + k)) * z**k).imag for k in range(r.terms_used))
        assert r.value == pytest.approx(brute, rel=1e-14)

    def test_tail_estimate_bounds_truncation(self):
        b, z = -1.3 + 2.0j, -0.8 + 0.3j
        rough = hyp2f1_one_b(b, z, tol=1e-5)
        sharp = hyp2f1_one_b(b, z, tol=1e-15)
        assert abs(rough.value - sharp.value) <= rough.tail_estimate + sharp.tail_estimate + 1e-14

    def test_cap_binds(self, monkeypatch):
        # a tol just above the majorant at the cap sums to the cap
        monkeypatch.setattr(bci.hypergeometric, "DEFAULT_MAX_TERMS", 20)
        tail = _majorant(0.5, 0.9, 19)
        r = hyp2f1_one_b(0.5, 0.9, tol=1.01 * tail)
        assert r.terms_used == 20
        assert r.tail_estimate == pytest.approx(tail, rel=1e-12)
        assert r.value == pytest.approx(sum(0.5 / (0.5 + k) * 0.9**k for k in range(20)), rel=1e-14)
        # a tol below it is refused from the term count, before numpy builds a term
        monkeypatch.setattr(bci.hypergeometric, "np", None)
        with pytest.raises(SlowConvergence, match=r"^the 2F1 series needs more than 20 terms at \|z\| = 0\.9$"):
            hyp2f1_one_b(0.5, 0.9, tol=1e-12)

    def test_zero_tol_is_refused_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(bci.hypergeometric, "DEFAULT_MAX_TERMS", 30)
        with pytest.raises(SlowConvergence, match="needs more than 30 terms"):
            hyp2f1_one_b(0.5, 0.25, tol=0.0)

    def test_z_zero_and_invalid_b_unchanged(self, monkeypatch):
        monkeypatch.setattr(bci.hypergeometric, "DEFAULT_MAX_TERMS", 5)
        r = hyp2f1_one_b(3.5 + 2j, 0.0, tol=0.0)
        assert (r.value, r.terms_used, r.tail_estimate) == (1.0, 1, 0.0)
        for b in (0.0, -1.0, -7 + 0j):
            with pytest.raises(InvalidC):
                hyp2f1_one_b(b, 0.5)

    def test_z_on_the_circle_is_refused(self):
        # |z| = 1 never reaches the geometric tail
        for z in (1.0, -1j, cmath.exp(0.3j) / abs(cmath.exp(0.3j))):
            with pytest.raises(SlowConvergence):
                hyp2f1_one_b(0.5, z)



def _draws(seed, count):
    """(b, z) with |Im b| up to 40 and |z| from 0 to 0.979, some b near a
    negative integer, some z = 0: series of 1 to ~1500 terms."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        re = rng.choice([rng.uniform(-6.0, 6.0), rng.randint(-6, 6) + rng.choice([-1e-3, 1e-3])])
        b = complex(re, rng.choice([0.0, 1e-7, rng.uniform(-2.0, 2.0), rng.uniform(-40.0, 40.0)]))
        q = rng.choice([0.0, rng.uniform(0.0, 0.1), rng.uniform(0.0, 0.979), 0.979])
        out.append((b, q * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))))
    return out


class TestOneBDraws:
    @pytest.mark.parametrize("tol", [1e-12, 1e-13, 1e-15])
    @pytest.mark.parametrize("seed,count", [(1, 1), (2, 2), (3, 15), (4, 60), (5, 97)])
    def test_tail_and_rounding_bound_the_error(self, seed, count, tol):
        # the error is the tail, at most tail_estimate, plus a few roundings of
        # each term (3.2 eps sum |t_k| at worst on these draws)
        for b, z in _draws(seed, count):
            r = hyp2f1_one_b(b, z, tol=tol)
            with mp.workdps(40):
                want = mp.hyp2f1(1, mp.mpc(b), 1 + mp.mpc(b), mp.mpc(z))
                err = float(abs(mp.mpc(r.value) - want))
            k = np.arange(r.terms_used)
            rounding = 8.0 * np.finfo(float).eps * float(np.sum(np.abs(b / (b + k)) * abs(z) ** k))
            assert r.tail_estimate <= tol and err <= r.tail_estimate + rounding, (b, z, err, r)

    def test_draws_span_one_to_many_terms(self):
        terms = [hyp2f1_one_b(b, z, tol=1e-15).terms_used for b, z in _draws(6, 200)]
        assert min(terms) == 1 and max(terms) > 1400

    def test_cap_refuses_exactly_the_series_it_stops_short(self, monkeypatch):
        # under a cap of 200 terms a series is refused when the majorant after
        # its 200th term still exceeds its tol, and sums to its tol otherwise
        monkeypatch.setattr(bci.hypergeometric, "DEFAULT_MAX_TERMS", 200)
        refused, summed = 0, set()
        for k, (b, z) in enumerate(_draws(7, 30)):
            tol = random.Random(k).choice([0.0, 1e-6, 1e-12, 1e-15])
            short = z != 0 and _majorant(b, z, 199) > tol
            try:
                r = hyp2f1_one_b(b, z, tol=tol)
            except SlowConvergence as exc:
                assert short and str(exc) == f"the 2F1 series needs more than 200 terms at |z| = {abs(z):.6g}"
                refused += 1
            else:
                assert not short and r.terms_used <= 200 and r.tail_estimate <= tol
                summed.add(tol)
        assert refused > 1 and len(summed) > 1

    @pytest.mark.parametrize(
        "bad,error,match",
        [
            ((-3.0, 0.5), InvalidC, r"b = \(-3\+0j\)"),
            ((0.0, 0.0), InvalidC, r"b = 0j"),
            ((0.5, 1.0), SlowConvergence, r"\|z\| = 1 "),
            ((0.5, -1j), SlowConvergence, r"\|z\| = 1 "),
            # an infinite b once raised OverflowError from math.ceil, a NaN b
            # could not convert NaN to an integer, a NaN z read as SlowConvergence
            ((math.inf, 0.5), ValueError, r"^b = \(inf\+0j\) is not finite$"),
            ((math.nan, 0.0), ValueError, r"^b = \(nan\+0j\) is not finite$"),
            ((complex(0.5, -math.inf), 0.5), ValueError, r"^b = \(0\.5-infj\) is not finite$"),
            ((0.5, math.nan), ValueError, r"^z = \(nan\+0j\) is not finite$"),
            ((0.5, complex(0.2, math.inf)), ValueError, r"^z = \(0\.2\+infj\) is not finite$"),
        ],
    )
    def test_refusal_raises_before_any_array(self, bad, error, match, monkeypatch):
        class NoArrays:
            def __getattr__(self, name):
                raise AssertionError("numpy reached before the series was checked")

        monkeypatch.setattr(bci.hypergeometric, "np", NoArrays())
        with pytest.raises(error, match=match):
            hyp2f1_one_b(*bad)

    def test_long_series_holds_few_arrays_of_its_length(self):
        # 41,426 terms: the sum peaks at three complex arrays of that length
        b, z = 0.7 + 0.2j, 0.999 * cmath.exp(1j)
        tracemalloc.start()
        try:
            r = hyp2f1_one_b(b, z, tol=1e-15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.terms_used == 41_426
        assert peak < 4 * 16 * r.terms_used, peak
