"""Faults seeded into the code verify runs each fail verify.

Each fault is a monkeypatched wrapper around one piece of the code; the
source is left as it is.  On seeds 4000-4029 each unit-interval engine
fault must fail at least one of the checks that run the engine
(reconciliation, circle, euler) on at least as many seeds as it does now.
Two faults of the same size, the radial pole times 1 + 1e-7 and the radial
exponent plus 1e-7, fail no check on these seeds: the checks' fixed
thresholds are looser than what they move.  The ODE faults, C (the inside
series argument conjugated) and F (one inside ODE coefficient off by 1e-3),
must fail the ode check on every seed.
"""

import cmath

import pytest

import bci.closedform
import bci.odecheck
import bci.quadrature as quadrature
import bci.verify
from bci.verify import run_verify

SEEDS = range(4000, 4030)
ENGINE_CHECKS = ("reconciliation", "circle", "euler")


def _substitution_exponent(monkeypatch):
    # t = u^s with s = 1/(1 + Re mu) taken 1e-6 too large: the engine then
    # integrates t^mu' with 1 + Re mu' = (1 + Re mu)/(1 + 1e-6)
    engine = quadrature._unit_power_integrals

    def faulty(mu, param, factor):
        mu = [complex((1.0 + m.real) / (1.0 + 1e-6) - 1.0, m.imag) for m in map(complex, mu)]
        return engine(mu, param, factor)

    monkeypatch.setattr(quadrature, "_unit_power_integrals", faulty)


def _radial_pole_conjugated(monkeypatch):
    # the pole alpha e^{-i theta} of the radial integrand conjugated
    radial = quadrature.radial_integrals

    def faulty(insts):
        return radial([inst._replace(alpha=inst.alpha.conjugate() * cmath.exp(2j * inst.theta)) for inst in insts])

    monkeypatch.setattr(quadrature, "radial_integrals", faulty)


def _first_round_phase_flipped(monkeypatch):
    # u^{-ic} for u^{ic} on the factored first round
    first = quadrature._unit_first_values
    monkeypatch.setattr(quadrature, "_unit_first_values", lambda s, c, p, factor: first(s, -c, p, factor))


def _euler_exponent(monkeypatch):
    # t^{beta - 1 + 1e-7} for t^{beta - 1} in every Euler integral
    euler = quadrature.euler_integrals

    def faulty(ws, betas):
        return euler(ws, [complex(beta) + 1e-7 for beta in betas])

    for module in (quadrature, bci.closedform, bci.verify):
        monkeypatch.setattr(module, "euler_integrals", faulty)


def _refinement_phase_flipped(monkeypatch):
    # u^{-ic} for u^{ic} on refinement rounds; the first round evaluates on
    # the start mesh's own log u array, a refinement round on one it builds
    integrand = quadrature._unit_integrand

    def faulty(amplitude, log_u, s, p, factor):
        if log_u is not quadrature._UNIT_LOGS:
            amplitude = amplitude.conjugate()  # s u^{ic} with s real
        return integrand(amplitude, log_u, s, p, factor)

    monkeypatch.setattr(quadrature, "_unit_integrand", faulty)


def test_the_engine_unfaulted_passes():
    for seed in SEEDS:
        assert run_verify(seed, checks=ENGINE_CHECKS)["verdict"] == "Agree"


@pytest.mark.parametrize(
    "seed_fault,caught",
    [
        (_substitution_exponent, 30),
        (_radial_pole_conjugated, 30),
        (_first_round_phase_flipped, 30),
        (_euler_exponent, 30),
        (_refinement_phase_flipped, 24),  # only rows that refine see it
    ],
)
def test_seeded_engine_fault_fails_verify(seed_fault, caught, monkeypatch):
    seed_fault(monkeypatch)
    failed = [seed for seed in SEEDS if run_verify(seed, checks=ENGINE_CHECKS)["verdict"] == "Disagree"]
    assert len(failed) >= caught, failed


def _inside_argument_conjugated(monkeypatch):
    # fault C: the inside series argument alpha e^{-i theta} conjugated in
    # _regime, which eval_closed_form, and so the ode check's I0, takes it from
    regime = bci.closedform._regime

    def faulty(inst):
        outside, diag, z = regime(inst)
        return outside, diag, z if outside else z.conjugate()

    monkeypatch.setattr(bci.closedform, "_regime", faulty)


def _inside_coefficient(monkeypatch):
    # fault F: the constant term of the inside p1 times 1 + 1e-3
    inside = bci.odecheck.ode_coefficients_inside

    def faulty(beta, theta):
        coeffs = inside(beta, theta)
        return coeffs._replace(p1=(coeffs.p1[0] * (1.0 + 1e-3), *coeffs.p1[1:]))

    monkeypatch.setattr(bci.odecheck, "ode_coefficients_inside", faulty)


def test_the_ode_check_unfaulted_passes():
    for seed in SEEDS:
        assert run_verify(seed, checks=("ode",))["verdict"] == "Agree"


@pytest.mark.parametrize("seed_fault", [_inside_argument_conjugated, _inside_coefficient])
def test_seeded_ode_fault_fails_the_ode_check(seed_fault, monkeypatch):
    seed_fault(monkeypatch)
    passed = [seed for seed in SEEDS if run_verify(seed, checks=("ode",))["verdict"] == "Agree"]
    assert passed == []
