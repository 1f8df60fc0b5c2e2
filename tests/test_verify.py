"""The seeded self-verification: how much work each check does."""

import cmath
import math
import random

import pytest

import bci.closedform
import bci.hypergeometric
import bci.odecheck
import bci.verify
from bci import NonFiniteValue, ProblemInstance, SlowConvergence
from bci.closedform import check_reconciliation, check_reconciliations
from bci.quadrature import check_circle_vs_radial, check_circles_vs_radial
from bci.verify import run_verify

@pytest.mark.parametrize("seed", [0, 1, 7, 42])
@pytest.mark.parametrize("check", bci.verify.CHECK_ORDER)
def test_a_check_alone_gives_its_row_of_the_full_report(seed, check):
    # each check draws from its own stream, whatever ran before it
    [row] = [row for row in run_verify(seed)["checks"] if row["name"] == check]
    alone = run_verify(seed, checks=(check,))
    assert repr(alone["checks"]) == repr([row])


@pytest.mark.parametrize(
    "batch,single,inside_only",
    [
        (check_reconciliations, check_reconciliation, True),
        (check_circles_vs_radial, check_circle_vs_radial, False),
    ],
)
def test_batch_checks_equal_the_single_instance_checks(batch, single, inside_only):
    insts = bci.verify._instances(random.Random(4000), None, 15, inside_only=inside_only)
    # repr writes every float by its bits
    assert [repr(r) for r in batch(insts)] == [repr(single(inst)) for inst in insts]


@pytest.mark.parametrize(
    "check,module,calls",
    [("reconciliation", bci.closedform, 15), ("ode", bci.closedform, 12), ("euler", bci.verify, 15)],
)
def test_series_checks_sum_each_series_alone(check, module, calls, monkeypatch):
    # every series is a hyp2f1_one_b call, the code eval runs; each of the
    # ode check's 12 draws takes one closed form through eval_closed_form
    rows = []
    single = bci.hypergeometric.hyp2f1_one_b

    def counting(b, z, tol=1e-12):
        rows.append(b)
        return single(b, z, tol)

    monkeypatch.setattr(module, "hyp2f1_one_b", counting)
    report = run_verify(1, checks=(check,))
    assert report["verdict"] == "Agree"
    assert len(rows) == calls


@pytest.mark.parametrize("check", ["reconciliation", "euler"])
def test_unconverged_series_is_refused(check, monkeypatch):
    # hyp2f1_one_b refuses at the term cap, read when it plans each series
    monkeypatch.setattr(bci.hypergeometric, "DEFAULT_MAX_TERMS", 5)
    with pytest.raises(SlowConvergence, match="the 2F1 series needs more than 5 terms"):
        run_verify(1, checks=(check,))


def test_a_biased_series_shows_in_eval_and_in_verify(monkeypatch):
    # a fault in the series that eval sums must reach verify as well
    inst = ProblemInstance(alpha=0.5 * cmath.exp(1j), beta=0.7 + 0.2j, theta=2.0)
    clean = bci.closedform.eval_closed_form(inst).value
    single = bci.hypergeometric.hyp2f1_one_b

    def biased(b, z, tol=1e-12):
        r = single(b, z, tol)
        return r._replace(value=r.value * (1.0 + 1e-6))

    monkeypatch.setattr(bci.closedform, "hyp2f1_one_b", biased)
    monkeypatch.setattr(bci.verify, "hyp2f1_one_b", biased)
    assert abs(bci.closedform.eval_closed_form(inst).value - clean) > 1e-7 * abs(clean)
    assert run_verify(1, checks=("euler",))["verdict"] == "Disagree"


def test_a_fault_in_the_series_argument_shows_in_reconciliation(monkeypatch):
    # the check takes z = alpha e^{-i theta} from _regime, as eval does
    regime = bci.closedform._regime

    def conjugated(inst):
        outside, diag, z = regime(inst)
        return outside, diag, z if outside else z.conjugate()

    monkeypatch.setattr(bci.closedform, "_regime", conjugated)
    assert run_verify(1, checks=("reconciliation",))["verdict"] == "Disagree"


@pytest.mark.parametrize("where", [0, 7, 14])
def test_nan_residual_fails_its_check(where, monkeypatch):
    # max(0.0, nan) is 0.0: a worst-of that drops NaN would pass this check
    def residuals(insts):
        out = [1e-12] * len(insts)
        out[where] = math.nan
        return out

    monkeypatch.setattr(bci.verify, "check_circles_vs_radial", residuals)
    report = run_verify(1, checks=("circle",))
    row = report["checks"][0]
    assert row["cases"] == 15
    assert math.isnan(row["max_residual"])
    assert row["pass"] is False
    assert report["verdict"] == "Disagree"


@pytest.mark.parametrize("beta", [complex(math.nan, 0.0), complex(0.5, math.inf), complex(math.inf, 0.0)])
def test_non_finite_pinned_beta_is_refused(beta):
    for checks in (None, ("circle",), ("euler",)):
        with pytest.raises(ValueError, match="not finite"):
            run_verify(1, checks=checks, beta=beta)


def test_no_checks_is_refused():
    # a verdict over no checks would be an Agree that checked nothing
    with pytest.raises(ValueError, match="^no checks selected$"):
        run_verify(1, checks=())


@pytest.mark.parametrize(
    "check,last,first",
    [("ode", 119.92, 119.93), ("ode", -116.20, -116.21), ("circle", 125.49, 125.50), ("circle", -126.04, -126.05)],
)
def test_pinned_exponent_where_the_circle_guard_refuses(check, last, first):
    # at seed 1 and Re(beta) 0.5: ode's integrand, with its triple pole and
    # the ODE's coefficients in its numerator, passes e^700 on the circle at
    # a smaller |Im(beta)| than circle's
    assert run_verify(1, checks=(check,), beta=complex(0.5, last))["verdict"] == "Agree"
    with pytest.raises(NonFiniteValue, match="may reach e\\^700\\.0"):
        run_verify(1, checks=(check,), beta=complex(0.5, first))


@pytest.mark.parametrize("check", ["reconciliation", "euler"])
def test_unconverged_quadrature_is_refused(check):
    # at Re(beta) = 1e-5 some Euler integrals stop unconverged on the panel
    # budget; a residual read off their values gave a false Disagree (euler)
    with pytest.raises(SlowConvergence, match="Euler integral stopped unconverged"):
        run_verify(1, checks=(check,), beta=1e-5 + 0.2j)
