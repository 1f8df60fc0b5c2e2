"""The seeded self-verification: how much work each check does."""

import functools
import math
import random

import pytest

import bci.closedform
import bci.odecheck
import bci.verify
from bci import SlowConvergence
from bci.closedform import check_reconciliation, check_reconciliations
from bci.odecheck import ode_residual, ode_residuals
from bci.quadrature import (
    check_circle_vs_radial,
    check_circles_vs_radial,
    check_integral_reduction,
    check_integral_reductions,
)
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


@pytest.mark.parametrize(
    "batch,single,inside_only",
    [
        (check_integral_reductions, check_integral_reduction, False),
        (check_reconciliations, check_reconciliation, True),
        (check_circles_vs_radial, check_circle_vs_radial, False),
        (functools.partial(ode_residuals, h=1e-3), functools.partial(ode_residual, h=1e-3), False),
        (functools.partial(ode_residuals, h=5e-4), functools.partial(ode_residual, h=5e-4), False),
    ],
)
def test_batch_checks_equal_the_single_instance_checks(batch, single, inside_only):
    insts = bci.verify._instances(random.Random(4000), None, 15, inside_only=inside_only)
    # repr writes every float by its bits
    assert [repr(r) for r in batch(insts)] == [repr(single(inst)) for inst in insts]


@pytest.mark.parametrize(
    "check,module,rows",
    [("reconciliation", bci.closedform, [15]), ("ode", bci.closedform, [60]), ("euler", bci.verify, [15])],
)
def test_series_checks_sum_one_batch(check, module, rows, monkeypatch):
    batches = []
    many = module.hyp2f1_one_b_many

    def counting(bs, zs, tol):
        batches.append(len(bs))
        return many(bs, zs, tol)

    def single(*args, **kwargs):
        raise AssertionError("a per-point closed form or series")

    monkeypatch.setattr(module, "hyp2f1_one_b_many", counting)
    monkeypatch.setattr(bci.closedform, "eval_closed_form", single)
    monkeypatch.setattr(bci.odecheck, "eval_closed_form", single, raising=False)
    monkeypatch.setattr(bci.closedform, "hyp2f1_one_b", single)
    report = run_verify(1, checks=(check,))
    assert report["verdict"] == "Agree"
    # the ode check: 12 draws x 5 stencil points in one batch
    assert batches == rows


@pytest.mark.parametrize("check,module", [("reconciliation", bci.closedform), ("euler", bci.verify)])
def test_unconverged_series_is_refused(check, module, monkeypatch):
    many = module.hyp2f1_one_b_many
    monkeypatch.setattr(module, "hyp2f1_one_b_many", lambda bs, zs, tol: many(bs, zs, tol, max_terms=5))
    with pytest.raises(SlowConvergence, match="the 2F1 series needs more than 5 terms"):
        run_verify(1, checks=(check,))


@pytest.mark.parametrize("where", [0, 7, 19])
def test_nan_residual_fails_its_check(where, monkeypatch):
    # max(0.0, nan) is 0.0: a worst-of that drops NaN would pass this check
    def residuals(insts):
        out = [1e-12] * len(insts)
        out[where] = math.nan
        return out

    monkeypatch.setattr(bci.verify, "check_integral_reductions", residuals)
    report = run_verify(1, checks=("reduction",))
    row = report["checks"][0]
    assert row["cases"] == 20
    assert math.isnan(row["max_residual"])
    assert row["pass"] is False
    assert report["verdict"] == "Disagree"


@pytest.mark.parametrize("beta", [complex(math.nan, 0.0), complex(0.5, math.inf), complex(math.inf, 0.0)])
def test_non_finite_pinned_beta_is_refused(beta):
    for checks in (None, ("reduction",), ("euler",)):
        with pytest.raises(ValueError, match="not finite"):
            run_verify(1, checks=checks, beta=beta)


@pytest.mark.parametrize("check", ["reduction", "reconciliation", "euler"])
def test_unconverged_quadrature_is_refused(check):
    # at Re(beta) = 1e-5 some Euler integrals stop unconverged on the panel
    # budget; a residual read off their values gave a false Disagree (euler)
    with pytest.raises(SlowConvergence, match="Euler integral stopped unconverged"):
        run_verify(1, checks=(check,), beta=1e-5 + 0.2j)
