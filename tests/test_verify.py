"""The seeded self-verification: how much work each check does."""

import math

import pytest

import bci.verify
from bci.verify import run_verify

# (n, g) with 1 <= n <= 32 and g | n: every residue class the delta check can draw
_DELTA_CLASSES = sum(1 for n in range(1, 33) for g in range(1, n + 1) if n % g == 0)


@pytest.mark.parametrize("seed,classes", [(0, 96), (1, 89), (42, 92)])
def test_delta_sums_once_per_residue_class(seed, classes, monkeypatch):
    calls = []
    drift = bci.verify.roots_of_unity_drift

    def counting(n, d):
        calls.append((n, math.gcd(n, d)))
        return drift(n, d)

    monkeypatch.setattr(bci.verify, "roots_of_unity_drift", counting)
    report = run_verify(seed, checks=("delta",))
    assert report["checks"][0]["cases"] == 400
    # one sum per distinct class among the 400 draws, none summed twice
    assert len(set(calls)) == len(calls) == classes
    assert classes <= _DELTA_CLASSES == 119
