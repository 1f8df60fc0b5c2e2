"""The Gauss series 2F1(1, b; 1+b; z), held to mpmath."""

import cmath
import math
import random
import re

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bci.hypergeometric
from bci import InvalidC, SlowConvergence, hyp2f1_one_b, hyp2f1_one_b_many


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


def _fields(r):
    """A SeriesResult as bits: value parts by repr, the rest as is."""
    return (repr(r.value.real), repr(r.value.imag), r.terms_used, repr(r.tail_estimate))


def _draws(seed, count):
    """(b, z) with |Im b| up to 40 and |z| from 0 to 0.979, some b near a
    negative integer, some z = 0: rows of 1 to ~1500 terms."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        re = rng.choice([rng.uniform(-6.0, 6.0), rng.randint(-6, 6) + rng.choice([-1e-3, 1e-3])])
        b = complex(re, rng.choice([0.0, 1e-7, rng.uniform(-2.0, 2.0), rng.uniform(-40.0, 40.0)]))
        q = rng.choice([0.0, rng.uniform(0.0, 0.1), rng.uniform(0.0, 0.979), 0.979])
        out.append((b, q * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))))
    return out


class TestOneBBatch:
    @pytest.mark.parametrize("tol", [1e-12, 1e-13, 1e-15])
    @pytest.mark.parametrize("seed,count", [(1, 1), (2, 2), (3, 15), (4, 60), (5, 97)])
    def test_rows_equal_the_single_sums(self, seed, count, tol):
        pairs = _draws(seed, count)
        many = hyp2f1_one_b_many([b for b, _ in pairs], [z for _, z in pairs], [tol] * count)
        assert [_fields(r) for r in many] == [_fields(hyp2f1_one_b(b, z, tol=tol)) for b, z in pairs]

    def test_rows_span_one_to_many_terms(self):
        pairs = _draws(6, 200)
        terms = [r.terms_used for r in hyp2f1_one_b_many([b for b, _ in pairs], [z for _, z in pairs], [1e-15] * 200)]
        assert min(terms) == 1 and max(terms) > 1400

    def test_tolerance_per_row_and_the_cap(self, monkeypatch):
        # rows the cap stops short of their tol refuse alone, and the first of
        # them in item order refuses the batch; the other rows sum as alone
        monkeypatch.setattr(bci.hypergeometric, "DEFAULT_MAX_TERMS", 200)
        pairs = _draws(7, 30)
        tols = [random.Random(k).choice([0.0, 1e-6, 1e-12, 1e-15]) for k in range(30)]
        rows = []
        for (b, z), t in zip(pairs, tols):
            try:
                rows.append((b, z, t, _fields(hyp2f1_one_b(b, z, tol=t))))
            except SlowConvergence as exc:
                rows.append((b, z, t, str(exc)))
        refused = [row for row in rows if isinstance(row[3], str)]
        summed = [row for row in rows if not isinstance(row[3], str)]
        assert len(refused) > 1 and len({t for _, _, t, _ in summed}) > 1
        with pytest.raises(SlowConvergence, match=f"^{re.escape(refused[0][3])}$"):
            hyp2f1_one_b_many(*zip(*[row[:3] for row in rows]))
        bs, zs, ts, want = zip(*summed)
        assert [_fields(r) for r in hyp2f1_one_b_many(bs, zs, ts)] == list(want)

    def test_empty_batch(self):
        assert hyp2f1_one_b_many([], [], []) == []

    def test_one_tolerance_per_pair(self):
        with pytest.raises(ValueError):
            hyp2f1_one_b_many([0.5, 1.5], [0.3, 0.4], [1e-12])
        with pytest.raises(TypeError):
            hyp2f1_one_b_many([0.5], [0.3], 1e-12)

    @pytest.mark.parametrize(
        "bad,error,match",
        [
            ((-3.0, 0.5), InvalidC, r"b = \(-3\+0j\)"),
            ((0.0, 0.0), InvalidC, r"b = 0j"),
            ((0.5, 1.0), SlowConvergence, r"\|z\| = 1 "),
            ((0.5, -1j), SlowConvergence, r"\|z\| = 1 "),
        ],
    )
    def test_first_refusal_raises_before_any_sum(self, bad, error, match, monkeypatch):
        class NoArrays:
            def __getattr__(self, name):
                raise AssertionError("numpy reached before every pair was checked")

        monkeypatch.setattr(bci.hypergeometric, "np", NoArrays())
        # later pairs that are refused too (b = -2, |z| = 2) must not raise first
        bs, zs = [0.5, 1.5 + 2j, bad[0], -2.0, 0.5], [0.3, 0.9j, bad[1], 0.5, 2.0]
        with pytest.raises(error, match=match):
            hyp2f1_one_b_many(bs, zs, [1e-12] * len(bs))
