"""Tests of the benchmark's own parts: reference, generators, tracer, runner.

    python3 -m pytest bench -q

They import ``bci`` from ``src/`` only to check that generated inputs are
ones the program accepts.
"""

from __future__ import annotations

import cmath
import json
import math
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from bci import (  # noqa: E402
    METHOD_CLOSED_FORM,
    ProblemInstance,
    RationalBeta,
    evaluate_instance,
)
from bci.cli import main as bci_main  # noqa: E402


def quad_circle(alpha: complex, beta: complex, theta: float) -> mp.mpc:
    """mp.quad of the circle integrand over t in [theta, theta + 2 pi].

    On that window the branch power of e^{it} is exp(i beta (t - 2 pi)), an
    entire function of t, so the integrand is analytic on the closed window
    and Gauss-Legendre converges fast while alpha stays well off the circle.
    """
    with mp.workdps(45):
        a, b, th = mp.mpc(alpha), mp.mpc(beta), mp.mpf(theta)

        def f(t):
            z = mp.expjpi(t / mp.pi)
            return mp.exp(1j * b * (t - 2 * mp.pi)) * 1j * z / (z - a)

        return mp.quad(f, mp.linspace(th, th + 2 * mp.pi, 17))


AWAY_FROM_CIRCLE = [
    (0.3 + 0.2j, 0.5 + 0.1j, 2.0),
    (-0.4 + 0.1j, 1.7 - 0.8j, 5.0),
    (0.05j, -2.3 + 1.1j, 0.7),
    (0.8 * cmath.exp(2.9j), 2.5 - 2.0j, 3.0),
    (2.0, 0.5, math.pi),
    (1.5 - 1.5j, -1.3 + 2.2j, 1.0),
    (-4.0 + 0.5j, 0.25 + 3.0j, 4.4),
    (0.5j, 2.0, 3.0),
    (0.6, 0.0, 2.0),
    (0.4 - 0.3j, -3.0, 1.5),
    (2.5, -3.0, 1.0),
    (3.0, 0.0, 2.0),
    (-1.7j, 4.0, 5.5),
]


@pytest.mark.parametrize("alpha,beta,theta", AWAY_FROM_CIRCLE)
def test_reference_matches_quadrature_of_the_integrand(alpha, beta, theta):
    ref = reference.reference(alpha, beta, theta)
    with mp.workdps(40):
        gap = abs(ref - quad_circle(alpha, beta, theta)) / max(1, abs(ref))
    assert gap <= 1e-20


@pytest.mark.parametrize(
    "alpha,beta,theta",
    [(0.5, 0.5 + 30j, 3.0), (3.0, 0.5 - 40j, 1.0)],
)
def test_reference_sides_with_the_closed_form_where_methods_disagree(alpha, beta, theta):
    """At these points the closed form and quadrature differ by > 1e-8;
    the reference must confirm the closed form."""
    ref = reference.reference(alpha, beta, theta)
    report = evaluate_instance(ProblemInstance(alpha=alpha, beta=beta, theta=theta))
    values = {r.method: r.value for r in report.results}
    with mp.workdps(30):
        scale = max(1, abs(ref))
        closed_gap = float(abs(mp.mpc(values[METHOD_CLOSED_FORM]) - ref) / scale)
    assert closed_gap <= 1e-10


def test_reference_integer_residues():
    two_pi_i = 2j * math.pi
    assert complex(reference.reference(0.5, 2.0, 1.0)) == pytest.approx(two_pi_i * 0.25, rel=1e-15)
    assert complex(reference.reference(0.5, 0.0, 1.0)) == pytest.approx(two_pi_i, rel=1e-15)
    assert complex(reference.reference(2.0, -1.0, 1.0)) == pytest.approx(-two_pi_i * 0.5, rel=1e-15)
    assert complex(reference.reference(2.0, 3.0, 1.0)) == 0
    assert complex(reference.reference(0.5, -2.0, 1.0)) == 0


def _evaluable(d: dict) -> ProblemInstance:
    inst = ProblemInstance(alpha=d["alpha"], beta=d["beta"], theta=d["theta"])
    inst.require_alpha_off_circle()
    return inst


@pytest.mark.parametrize("make", [workloads.eval_mixed, workloads.eval_closedform])
def test_generators_repeat_for_a_seed_and_change_with_it(make):
    assert make(7, 300) == make(7, 300)
    assert make(7, 300) != make(8, 300)
    assert workloads.sweep_grid(7) == workloads.sweep_grid(7)
    assert workloads.sweep_grid(7) != workloads.sweep_grid(8)


def test_eval_mixed_instances_are_accepted_and_cover_the_domain():
    pool = workloads.eval_mixed(3, 4000)
    for d in pool:
        _evaluable(d)
    mods = [abs(d["alpha"]) for d in pool]
    betas = [d["beta"] for d in pool]
    share = lambda hits: sum(hits) / len(pool)  # noqa: E731
    assert share(0.95 < m < 0.98 for m in mods) == pytest.approx(0.015, abs=0.006)
    assert share(1.02 < m < 1.0 / 0.95 for m in mods) == pytest.approx(0.015, abs=0.006)
    assert share(m > 1.0 for m in mods) == pytest.approx(0.5, abs=0.03)
    assert min(mods) >= 0.02 and max(mods) <= 50.0
    assert share(abs(b.imag) > 3.0 for b in betas) == pytest.approx(0.23, abs=1e-12)
    assert share(b.imag == 0 and b.real == int(b.real) for b in betas) == pytest.approx(0.05, abs=1e-12)
    assert max(abs(b.imag) for b in betas) <= 40.0


def test_eval_closedform_instances_are_accepted():
    for d in workloads.eval_closedform(3, 2000):
        inst = _evaluable(d)
        rational = RationalBeta(d["m"], d["n"])
        assert (rational.m, rational.n) == (d["m"], d["n"])
        assert 2 <= rational.n <= 12
        assert inst.beta == rational.m / rational.n
        z = min(abs(inst.alpha), 1.0 / abs(inst.alpha))
        assert 0.1 <= z <= 0.949 + 1e-12


def test_sweep_grid_is_what_the_cli_evaluates(tmp_path):
    grid = workloads.sweep_grid(5)
    for d in grid["instances"]:
        _evaluable(d)
    out = tmp_path / "rows.jsonl"
    bci_main(["sweep", *grid["argv"], f"--out={out}"])
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == len(grid["instances"])
    for row, want in zip(rows, grid["instances"]):
        assert complex(*row["instance"]["alpha"]) == want["alpha"]
        assert complex(*row["instance"]["beta"]) == want["beta"]
        assert row["instance"]["theta"] == want["theta"]


def test_verify_seeds_are_consecutive_blocks():
    assert workloads.verify_seeds(2, 3) == [2000, 2001, 2002]


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.next_op()
    # evaluate [0, 100us] > closed form [10, 50us] > series [20, 40us]
    tracer.spans = [
        ("report.evaluate_instance", 0, 100_000, -1, 0, (60.0, ["SlowConvergence"]), None),
        ("closedform.eval_closed_form", 10_000, 50_000, 0, 0, None, None),
        ("hypergeometric.hyp2f1_one_b", 20_000, 40_000, 1, 0, 50, None),
    ]
    layers = tracer.aggregate(1)
    assert layers["report.evaluate_us"] == 100.0
    assert layers["report.self_us"] == 40.0
    assert layers["closedform.theorem_us"] == 40.0
    assert layers["closedform.self_us"] == 20.0
    assert layers["hypergeometric.ns_per_term"] == 400.0
    assert layers["report.failures.SlowConvergence"] == 1.0


def test_verify_checks_are_timed_from_the_calls_under_run_verify():
    tracer = tracing.Tracer()
    tracer.next_op()
    # run_verify [0, 100us] > reduction [10, 40us] > euler_integral [15, 35us]
    #                       > euler: euler_integral [50, 60us], hyp2f1_one_b [60, 65us]
    tracer.spans = [
        ("verify.run_verify", 0, 100_000, -1, 0, None, None),
        ("quadrature.check_integral_reduction", 10_000, 40_000, 0, 0, None, None),
        ("quadrature.euler_integral", 15_000, 35_000, 1, 0, 4, None),
        ("quadrature.euler_integral", 50_000, 60_000, 0, 0, 4, None),
        ("hypergeometric.hyp2f1_one_b", 60_000, 65_000, 0, 0, 9, None),
    ]
    layers = tracer.aggregate(1)
    assert layers["verify.reduction_us"] == 30.0
    assert layers["verify.euler_us"] == 15.0
    assert layers["verify.delta_us"] == 55.0
    assert layers["verify.circle_us"] == 0.0
    assert layers["quadrature.unit_us"] == 30.0


def test_tracer_restores_every_binding():
    import bci.report

    original = bci.report.circle_integral
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert bci.report.circle_integral is not original
        bci.report.evaluate_instance(ProblemInstance(alpha=0.3, beta=0.5, theta=2.0))
    finally:
        tracer.uninstall()
    assert bci.report.circle_integral is original
    assert {s[0] for s in tracer.spans} >= {"report.evaluate_instance", "quadrature.circle_integral"}


def test_tail_over_input_medians_ignores_a_stall_in_one_repeat(monkeypatch):
    monkeypatch.setattr(worker, "TAIL_MIN_BEYOND", 0)  # six samples: take the top one
    # pool of 3 inputs, run twice in order; input 2 stalls once (900)
    lat = [100.0, 200.0, 900.0, 100.0, 200.0, 300.0]
    assert worker.input_medians(lat, 3) == [100.0, 200.0, 600.0]
    over_samples = worker.latency_summary(lat, 99.9, lat)
    over_inputs = worker.latency_summary(lat, 99.9, worker.input_medians(lat, 3))
    assert over_samples["p50_us"] == over_inputs["p50_us"] == 0.2
    assert over_samples["tail_us"] == 0.9
    assert over_inputs["tail_us"] == 0.6


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "eval-mixed", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.DISTRIBUTIONS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
