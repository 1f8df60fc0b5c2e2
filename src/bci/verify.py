"""Seeded self-verification: internal identities checked end to end.

Each check draws random instances, measures the worst residual of one
mathematical identity, and compares it against that identity's own
accuracy budget.  A check draws from its own generator, seeded with
"<seed>:<name>", so its row depends on the seed alone, not on which checks
ran before it, and the report bytes are fully determined by the seed.  A
check draws all its cases first and then evaluates them as one batch, so
the unit-interval quadratures of a check share one first round (see the
quadrature module notes) and its 2F1(1, b; 1+b; .) series are the rows of
one hyp2f1_one_b_many call, each the float of its single sum.  A check
whose residuals include a NaN reports a NaN worst residual and fails.

Checks
------
reduction        radial integral vs its Euler-integral reduction
reconciliation   cross-regime Euler identity (pole term + closed form):
                 15 Euler integrals and 15 series, one batch each
ode              finite-difference residual of the regime ODE: 12 draws x 5
                 stencil points, one eval_closed_forms batch of 60 series
circle           contour integral vs residue + jump * radial integral: 15
                 circle integrals one by one, 15 radial integrals as one batch
euler            beta * Euler integral vs the 2F1(1, b; 1+b; .) series:
                 15 Euler integrals and 15 series, one batch each

The root-of-unity filter behind the rational log sum is not a check here:
that route computes its multisection itself, so no route runs through
roots_of_unity_filter, and the tests hold the filter to its exact value.
"""

from __future__ import annotations

import cmath
import math
import random
from typing import Any, Callable, Iterable

from .branchcut import TWO_PI, ProblemInstance, as_integer, require_tol
from .closedform import check_reconciliations
from .hypergeometric import hyp2f1_one_b_many
from .odecheck import ode_residuals
from .quadrature import check_circles_vs_radial, check_integral_reductions, euler_integrals

__all__ = ["CHECK_ORDER", "DEFAULT_THRESHOLDS", "run_verify"]

_ANGLE_MARGIN = 0.3  # keep Arg(alpha) away from the cut ray
_INT_MARGIN = 0.05  # keep Re(beta) away from integers


def _draw_alpha(rng: random.Random, theta: float, inside: bool) -> complex:
    mod = rng.uniform(0.1, 0.9) if inside else rng.uniform(1.1, 5.0)
    while True:
        arg = rng.uniform(0.0, TWO_PI)
        gap = abs(arg - theta) % TWO_PI
        if min(gap, TWO_PI - gap) >= _ANGLE_MARGIN:
            return mod * cmath.exp(1j * arg)


def _draw_beta(rng: random.Random, beta_fix: complex | None) -> complex:
    if beta_fix is not None:
        return beta_fix
    while True:
        re = rng.uniform(0.2, 3.0)
        if abs(re - round(re)) >= _INT_MARGIN:
            break
    return complex(re, rng.uniform(-0.5, 0.5))


def _instances(
    rng: random.Random, beta_fix: complex | None, count: int, inside_only: bool = False
) -> list[ProblemInstance]:
    """count instances, each drawn theta, then alpha, then beta; alpha
    alternates inside/outside the circle, starting inside."""
    out = []
    for k in range(count):
        theta = rng.uniform(0.1, TWO_PI - 0.1)
        alpha = _draw_alpha(rng, theta, inside=inside_only or k % 2 == 0)
        out.append(ProblemInstance(alpha=alpha, beta=_draw_beta(rng, beta_fix), theta=theta))
    return out


def _worst(residuals: Iterable[float]) -> tuple[int, float]:
    """(number of cases, largest residual) of a check; NaN when any residual
    is NaN, so that the check fails."""
    residuals = list(residuals)
    if any(math.isnan(residual) for residual in residuals):
        return len(residuals), math.nan
    return len(residuals), max(residuals, default=0.0)


def _euler_residuals(rng: random.Random, beta_fix: complex | None) -> list[float]:
    ws, betas = [], []
    for _ in range(15):
        mod = rng.uniform(0.1, 0.9)
        arg = rng.uniform(0.0, TWO_PI)
        ws.append(mod * cmath.exp(1j * arg))
        betas.append(_draw_beta(rng, beta_fix))
    series = [f.value for f in hyp2f1_one_b_many(betas, ws, [1e-13] * len(ws))]
    quads = euler_integrals(ws, betas)
    return [
        abs(beta * q.converged_value("Euler integral") - f) / max(1.0, abs(f)) for beta, q, f in zip(betas, quads, series)
    ]


#: name -> (threshold, residuals(rng, beta)), in report order; beta is the
#: pinned exponent or None
_CHECKS: dict[str, tuple[float, Callable[[random.Random, complex | None], Iterable[float]]]] = {
    "reduction": (1e-6, lambda rng, beta: check_integral_reductions(_instances(rng, beta, 20))),
    "reconciliation": (1e-6, lambda rng, beta: check_reconciliations(_instances(rng, beta, 15, inside_only=True))),
    "ode": (1e-4, lambda rng, beta: [r.relative_residual for r in ode_residuals(_instances(rng, beta, 12))]),
    "circle": (1e-6, lambda rng, beta: check_circles_vs_radial(_instances(rng, beta, 15))),
    "euler": (1e-8, _euler_residuals),
}

CHECK_ORDER = tuple(_CHECKS)

DEFAULT_THRESHOLDS = {name: threshold for name, (threshold, _) in _CHECKS.items()}


def run_verify(
    seed: int,
    checks: tuple[str, ...] | None = None,
    tol: float | None = None,
    beta: complex | None = None,
) -> dict[str, Any]:
    """Run the named checks (all five, in CHECK_ORDER, when None) and return
    the verdict report.

    tol, when given, replaces every check's own threshold — deliberately
    blunt, so `--tol 1e-30` forces a failing report and exercises the
    Disagree exit path.  It must be finite and positive.  beta pins the
    exponent in every check; it must be finite and satisfy the checks'
    preconditions (non-integer, Re > 0).
    """
    if tol is not None:
        require_tol(tol)
    if beta is not None and not cmath.isfinite(beta):
        raise ValueError(f"--beta {beta!r} is not finite")
    if beta is not None and (as_integer(beta) is not None or beta.real <= 0.0):
        raise ValueError(
            f"--beta {beta!r} cannot drive the identity checks: need non-integer beta with Re(beta) > 0"
        )
    selected = CHECK_ORDER if checks is None else tuple(checks)
    if not selected:
        raise ValueError("no checks selected")  # a verdict over no checks would pass vacuously
    for name in selected:
        if name not in _CHECKS:
            raise ValueError(f"unknown check {name!r}; expected one of {CHECK_ORDER}")
    rows = []
    for name in CHECK_ORDER:
        if name not in selected:
            continue
        own, residuals = _CHECKS[name]
        cases, worst = _worst(residuals(random.Random(f"{seed}:{name}"), beta))
        threshold = own if tol is None else tol
        ok = worst <= threshold
        rows.append({"name": name, "cases": cases, "max_residual": worst, "threshold": threshold, "pass": ok})
    verdict = "Agree" if all(row["pass"] for row in rows) else "Disagree"
    return {"seed": seed, "checks": rows, "verdict": verdict}
