"""Run several evaluation methods on one instance and compare the answers.

The point of keeping four routes to the same number is that they share
almost no code: a disagreement here is a bug report, not a tolerance issue.
evaluate_instance runs the requested subset, records failures as data rather
than exceptions, and renders a verdict from the pairwise spread of the
survivors.

report_to_jsonable shapes a report for the wire and dumps_canonical writes
it as one line of strict JSON through the standard library's C encoder:
the same report always gives the same bytes.
"""

from __future__ import annotations

import cmath
import json
import math
import time
from dataclasses import dataclass
from typing import Any, Sequence

from .branchcut import ProblemInstance
from .closedform import (
    METHOD_CLOSED_FORM,
    METHOD_QUADRATURE,
    METHOD_RATIONAL,
    METHOD_SERIES,
    MethodResult,
    RationalBeta,
    eval_closed_form,
    eval_direct_series,
    eval_rational_logsum,
)
from .errors import EvaluationError
from .quadrature import circle_integral

__all__ = [
    "KNOWN_METHODS",
    "MethodFailure",
    "EvaluationReport",
    "evaluate_instance",
    "report_to_jsonable",
    "dumps_canonical",
]

KNOWN_METHODS = (METHOD_CLOSED_FORM, METHOD_SERIES, METHOD_QUADRATURE, METHOD_RATIONAL)


@dataclass(frozen=True)
class MethodFailure:
    """A method that declined to produce a value, and why.

    status holds the exception class name (the wire-visible code) and
    detail the human-readable message.
    """

    method: str
    status: str
    detail: str


@dataclass(frozen=True)
class EvaluationReport:
    instance: ProblemInstance
    results: tuple[MethodResult | MethodFailure, ...]
    max_disagreement: float
    verdict: str
    timing_us: dict[str, float]


def _quadrature_result(inst: ProblemInstance) -> MethodResult:
    tol = min(max(0.01 * inst.tol, 1e-10), 1e-8)
    q = circle_integral(inst, tol=tol)
    diag: dict[str, Any] = {
        "regime": "outside" if inst.alpha_outside() else "inside",
        "subdivisions": q.subdivisions,
        "converged": q.converged,
    }
    return MethodResult(q.value, METHOD_QUADRATURE, q.abs_error_estimate, diag)


def evaluate_instance(
    inst: ProblemInstance,
    methods: Sequence[str] | None = None,
    rational: RationalBeta | None = None,
) -> EvaluationReport:
    """Evaluate with every requested method and cross-compare.

    methods lists wire names from KNOWN_METHODS; None selects the closed form
    and quadrature, plus the direct series when |alpha| < 1 and the rational
    log sum when `rational` is supplied; a name listed twice is refused.
    Per-method numerical refusals (EvaluationError subclasses) become
    MethodFailure records; anything else — a genuine bug — propagates.

    The verdict is "Disagree" when the largest pairwise relative disagreement
    exceeds inst.tol (or is not a number).  Otherwise it is "Uncertified"
    when some survivor's error estimate exceeds inst.tol * max(1, |value|),
    or its value is not finite: the methods cannot vouch for agreement that
    fine.  Failing both, it is
    "Agree" when every method produced a value and "Partial" when some failed.
    A report on which every method failed has verdict "Refused" (and
    disagreement 0.0): there is no value to agree on.
    """
    if methods is None:
        selected = [METHOD_CLOSED_FORM, METHOD_QUADRATURE]
        if not inst.alpha_outside():
            selected.append(METHOD_SERIES)
        if rational is not None:
            selected.append(METHOD_RATIONAL)
    else:
        selected = list(methods)
        for name in selected:
            if name not in KNOWN_METHODS:
                raise ValueError(f"unknown method {name!r}; expected one of {KNOWN_METHODS}")
            if selected.count(name) > 1:
                raise ValueError(f"method {name!r} is listed more than once; one route cannot cross-check itself")
    if METHOD_RATIONAL in selected and rational is None:
        raise ValueError("the rational log-sum method needs an explicit RationalBeta exponent")

    results: list[MethodResult | MethodFailure] = []
    timing: dict[str, float] = {}
    for name in selected:
        start = time.perf_counter()
        try:
            if name == METHOD_CLOSED_FORM:
                results.append(eval_closed_form(inst))
            elif name == METHOD_SERIES:
                results.append(eval_direct_series(inst))
            elif name == METHOD_QUADRATURE:
                results.append(_quadrature_result(inst))
            else:
                assert rational is not None
                results.append(eval_rational_logsum(inst, rational))
        except EvaluationError as exc:
            results.append(MethodFailure(name, type(exc).__name__, str(exc)))
        timing[name] = (time.perf_counter() - start) * 1e6

    survivors = [r for r in results if isinstance(r, MethodResult)]
    scales = [max(1.0, abs(r.value)) for r in survivors]
    disagreement = 0.0
    for i, first in enumerate(survivors):
        for j in range(i + 1, len(survivors)):
            gap = abs(first.value - survivors[j].value) / max(scales[i], scales[j])
            disagreement = max(disagreement, gap if gap == gap else math.inf)  # NaN never agrees
    if not survivors:
        verdict = "Refused"
    elif disagreement > inst.tol:
        verdict = "Disagree"
    elif not all(cmath.isfinite(r.value) and r.error_estimate <= inst.tol * scale for r, scale in zip(survivors, scales)):
        verdict = "Uncertified"
    else:
        verdict = "Agree" if len(survivors) == len(results) else "Partial"
    return EvaluationReport(
        instance=inst,
        results=tuple(results),
        max_disagreement=disagreement,
        verdict=verdict,
        timing_us=timing,
    )


#: allow_nan=False: non-finite floats raise instead of becoming bare NaN.
#: check_circular=False: a report is a tree, so no id markers are kept.
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False, check_circular=False)


def _quote_non_finite(obj: Any) -> Any:
    """Copy of obj with each non-finite float replaced by its JSON string."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "NaN" if obj != obj else ("Infinity" if obj > 0 else "-Infinity")
    if isinstance(obj, dict):
        return {key: _quote_non_finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_quote_non_finite(value) for value in obj]
    return obj


def dumps_canonical(obj: Any) -> str:
    """Deterministic strict JSON: insertion-ordered keys, no whitespace,
    floats as their shortest round-trip repr (they parse back to the same
    bits), non-finite floats as the strings "NaN", "Infinity", "-Infinity".
    Byte-identical text for identical reports is what makes `verify` --seed
    reproducibility testable at the byte level.  Raises TypeError for what
    JSON cannot represent.
    """
    try:
        return _ENCODER.encode(obj)
    except ValueError:
        # A non-finite float: only such reports pay for a walk in Python.
        return _ENCODER.encode(_quote_non_finite(obj))


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def report_to_jsonable(report: EvaluationReport) -> dict[str, Any]:
    """Shape an EvaluationReport for the wire.  Timing is deliberately left
    out: identical inputs must serialise identically across runs."""
    inst = report.instance
    results = []
    for r in report.results:
        if isinstance(r, MethodResult):
            results.append(
                {
                    "method": r.method,
                    "value": _complex_pair(r.value),
                    "error_estimate": float(r.error_estimate),
                    "status": "ok",
                }
            )
        else:
            results.append(
                {
                    "method": r.method,
                    "value": None,
                    "error_estimate": None,
                    "status": r.status,
                }
            )
    return {
        "instance": {
            "alpha": _complex_pair(inst.alpha),
            "beta": _complex_pair(inst.beta),
            "theta": inst.theta,
        },
        "results": results,
        "disagreement": float(report.max_disagreement),
        "verdict": report.verdict,
    }
