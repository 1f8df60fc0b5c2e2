"""Spans around calls into each layer's public functions.

``Tracer.install`` replaces every binding of the functions in ``TARGETS``
inside the loaded ``bci`` modules with a wrapper that records one span per
call: name, start, end, parent span and op id, plus one count the layer
reports about its own work (panels, series terms, ...).  Modules import
these functions by name, so each module's own binding is replaced, not
only the defining one.  ``uninstall`` puts the originals back.  Spans stay
in memory until ``write``; ``aggregate`` turns them into the per-layer
metrics, per op.

``report_to_jsonable`` and ``dumps_canonical`` are not wrapped: the latter
recurses through its module binding, so a wrapper would sit on every nested
value.  The worker's ops open one ``report.serialize`` span around the pair
instead (``Tracer.span``).
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path


def _subdivisions(result, args, kwargs):
    return result.subdivisions


def _terms(result, args, kwargs):
    return result.terms_used


def _series_terms(result, args, kwargs):
    return result.diagnostics.get("series_terms", 0)


def _log_count(result, args, kwargs):
    beta = args[1] if len(args) > 1 else kwargs["beta"]
    return beta.n


def _circle(result, args, kwargs):
    return result.subdivisions, result.converged


def _method_time(result, args, kwargs):
    failures = [r.status for r in result.results if not hasattr(r, "value")]
    return sum(result.timing_us.values()), failures


#: (module, function, count extractor or None).  The span name is
#: "<layer>.<function>" with the layer the module's last dotted part.
TARGETS = (
    ("bci.branchcut", "branch_pow", None),
    ("bci.branchcut", "cut_jump_factor", None),
    ("bci.hypergeometric", "hyp2f1_one_b", _terms),
    ("bci.closedform", "eval_closed_form", None),
    ("bci.closedform", "eval_direct_series", _series_terms),
    ("bci.closedform", "eval_rational_logsum", _log_count),
    ("bci.closedform", "check_reconciliation", None),
    ("bci.quadrature", "circle_integral", _circle),
    ("bci.quadrature", "euler_integral", _subdivisions),
    ("bci.quadrature", "radial_integral", _subdivisions),
    ("bci.quadrature", "check_integral_reduction", None),
    ("bci.quadrature", "check_circle_vs_radial", None),
    ("bci.odecheck", "ode_residual", None),
    ("bci.report", "evaluate_instance", _method_time),
    ("bci.verify", "run_verify", None),
)

#: Per-layer metric names and units, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = {
    "quadrature.circle_us": "us/op",
    "quadrature.circle_calls": "count/op",
    "quadrature.panels": "count/op",
    "quadrature.integrand_evals": "count/op",
    "quadrature.numpy_calls": "count/op",
    "quadrature.converged_ratio": "ratio",
    "quadrature.circle_share_pct": "%",
    "quadrature.unit_us": "us/op",
    "quadrature.unit_panels": "count/op",
    "hypergeometric.us": "us/op",
    "hypergeometric.calls": "count/op",
    "hypergeometric.terms": "count/op",
    "hypergeometric.ns_per_term": "ns",
    "hypergeometric.refused": "count/op",
    "closedform.theorem_us": "us/op",
    "closedform.series_direct_us": "us/op",
    "closedform.series_direct_terms": "count/op",
    "closedform.rational_us": "us/op",
    "closedform.rational_logs": "count/op",
    "closedform.self_us": "us/op",
    "branchcut.us": "us/op",
    "branchcut.calls": "count/op",
    "odecheck.us": "us/op",
    "odecheck.calls": "count/op",
    "verify.delta_us": "us/op",
    "verify.reduction_us": "us/op",
    "verify.reconciliation_us": "us/op",
    "verify.ode_us": "us/op",
    "verify.circle_us": "us/op",
    "verify.euler_us": "us/op",
    "report.evaluate_us": "us/op",
    "report.self_us": "us/op",
    "report.serialize_us": "us/op",
    "report.failures.SlowConvergence": "count/op",
    "report.failures.other": "count/op",
    "cli.process_s": "s",
    "cli.self_s": "s",
    "trace.overhead_pct": "%",
}

#: ``bci.verify.CHECK_ORDER``.
VERIFY_CHECKS = ("delta", "reduction", "reconciliation", "ode", "circle", "euler")
#: The public calls each check of ``run_verify`` makes directly: a span with
#: one of these names whose parent is ``verify.run_verify`` is that check's
#: time.  ``delta`` calls nothing public; it gets the rest of ``run_verify``
#: (its own sums, plus the draws and loops of every check).
VERIFY_CHECK_CALLS = {
    "quadrature.check_integral_reduction": "reduction",
    "closedform.check_reconciliation": "reconciliation",
    "odecheck.ode_residual": "ode",
    "quadrature.check_circle_vs_radial": "circle",
    "quadrature.euler_integral": "euler",
    "hypergeometric.hyp2f1_one_b": "euler",
}

#: Evaluated panels of one circle call with P final panels: 16 initial ones
#: plus two per split, i.e. 2P - 16; each costs 22 integrand evaluations
#: (7- and 15-point rules) in 2 numpy calls.  Computed, not counted.
CIRCLE_INITIAL_PANELS = 16
EVALS_PER_PANEL = 22
NUMPY_CALLS_PER_PANEL = 2


class Tracer:
    def __init__(self) -> None:
        # (name, start_ns, end_ns, parent index, op id, count, status)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.op_id = -1

    def next_op(self) -> None:
        self.op_id += 1

    @contextmanager
    def span(self, name: str):
        index = self._open()
        start = time.perf_counter_ns()
        status = None
        try:
            yield
        except Exception as exc:
            status = type(exc).__name__
            raise
        finally:
            self._close(index, name, start, None, status)

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)  # type: ignore[arg-type]
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str, start: int, count, status) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (name, start, end, parent, self.op_id, count, status)

    def _wrap(self, name: str, fn, extract):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open()
            start = time.perf_counter_ns()
            status = None
            count = None
            try:
                result = fn(*args, **kwargs)
                if extract is not None:
                    count = extract(result, args, kwargs)
                return result
            except Exception as exc:
                status = type(exc).__name__
                raise
            finally:
                tracer._close(index, name, start, count, status)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        originals = {}
        for module_name, func, extract in TARGETS:
            fn = getattr(sys.modules[module_name], func)
            layer = module_name.rsplit(".", 1)[1]
            originals[id(fn)] = (fn, self._wrap(f"{layer}.{func}", fn, extract))
        for module_name, module in list(sys.modules.items()):
            if module_name != "bci" and not module_name.startswith("bci."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, originals[id(value)][1])

    def uninstall(self) -> None:
        for module, attr, value in self._restore:
            setattr(module, attr, value)
        self._restore.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start_ns", "end_ns", "parent", "op", "count", "status")
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def aggregate(self, ops: int, speed: float = 1.0) -> dict[str, float]:
        """Per-layer metrics per op; self time = duration minus direct children.

        Times are multiplied by `speed`, the machine speed relative to the
        calibration's nominal one during the traced loop (``calibrate.py``).
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        total_us: dict[str, float] = {}
        self_us: dict[str, float] = {}
        calls: dict[str, int] = {}
        counts: dict[str, float] = {}
        circle_converged = 0
        report_self_us = 0.0
        failures = {"SlowConvergence": 0, "other": 0}
        refused = 0
        evals = 0
        verify_us = dict.fromkeys(VERIFY_CHECKS, 0.0)
        for i, (name, start, end, parent, op, count, status) in enumerate(self.spans):
            dur = (end - start) / 1e3 * speed
            total_us[name] = total_us.get(name, 0.0) + dur
            if name == "verify.run_verify":
                verify_us["delta"] += dur
            elif parent >= 0 and self.spans[parent][0] == "verify.run_verify" and name in VERIFY_CHECK_CALLS:
                verify_us[VERIFY_CHECK_CALLS[name]] += dur
                verify_us["delta"] -= dur
            self_us[name] = self_us.get(name, 0.0) + dur - child_ns[i] / 1e3 * speed
            calls[name] = calls.get(name, 0) + 1
            if name == "hypergeometric.hyp2f1_one_b" and status == "SlowConvergence":
                refused += 1
            if count is None:
                continue
            if name == "quadrature.circle_integral":
                panels, converged = count
                circle_converged += bool(converged)
                counts[name] = counts.get(name, 0) + panels
                evals += 2 * panels - CIRCLE_INITIAL_PANELS
            elif name == "report.evaluate_instance":
                method_us, failed = count
                report_self_us += dur - method_us * speed
                for status_name in failed:
                    failures[status_name if status_name in failures else "other"] += 1
            else:
                counts[name] = counts.get(name, 0) + count

        def per_op(x: float) -> float:
            return x / ops if ops else 0.0

        def t(name: str) -> float:
            return per_op(total_us.get(name, 0.0))

        def c(name: str) -> float:
            return per_op(calls.get(name, 0))

        def n(name: str) -> float:
            return per_op(counts.get(name, 0))

        hyp_terms = counts.get("hypergeometric.hyp2f1_one_b", 0)
        circle_calls = calls.get("quadrature.circle_integral", 0)
        out = {
            "quadrature.circle_us": t("quadrature.circle_integral"),
            "quadrature.circle_calls": c("quadrature.circle_integral"),
            "quadrature.panels": n("quadrature.circle_integral"),
            "quadrature.integrand_evals": per_op(EVALS_PER_PANEL * evals),
            "quadrature.numpy_calls": per_op(NUMPY_CALLS_PER_PANEL * evals),
            "quadrature.converged_ratio": circle_converged / circle_calls if circle_calls else 0.0,
            "quadrature.circle_share_pct": (
                100.0 * t("quadrature.circle_integral") / t("report.evaluate_instance")
                if total_us.get("report.evaluate_instance")
                else 0.0
            ),
            "quadrature.unit_us": t("quadrature.euler_integral") + t("quadrature.radial_integral"),
            "quadrature.unit_panels": n("quadrature.euler_integral") + n("quadrature.radial_integral"),
            "hypergeometric.us": t("hypergeometric.hyp2f1_one_b"),
            "hypergeometric.calls": c("hypergeometric.hyp2f1_one_b"),
            "hypergeometric.terms": n("hypergeometric.hyp2f1_one_b"),
            "hypergeometric.ns_per_term": (
                1e3 * total_us["hypergeometric.hyp2f1_one_b"] / hyp_terms if hyp_terms else 0.0
            ),
            "hypergeometric.refused": per_op(refused),
            "closedform.theorem_us": t("closedform.eval_closed_form"),
            "closedform.series_direct_us": t("closedform.eval_direct_series"),
            "closedform.series_direct_terms": n("closedform.eval_direct_series"),
            "closedform.rational_us": t("closedform.eval_rational_logsum"),
            "closedform.rational_logs": n("closedform.eval_rational_logsum"),
            "closedform.self_us": per_op(self_us.get("closedform.eval_closed_form", 0.0)),
            "branchcut.us": t("branchcut.branch_pow") + t("branchcut.cut_jump_factor"),
            "branchcut.calls": c("branchcut.branch_pow") + c("branchcut.cut_jump_factor"),
            "odecheck.us": t("odecheck.ode_residual"),
            "odecheck.calls": c("odecheck.ode_residual"),
            "report.evaluate_us": t("report.evaluate_instance"),
            "report.self_us": per_op(report_self_us),
            "report.serialize_us": t("report.serialize"),
            "report.failures.SlowConvergence": per_op(failures["SlowConvergence"]),
            "report.failures.other": per_op(failures["other"]),
        }
        for check, us in verify_us.items():
            out[f"verify.{check}_us"] = per_op(us)
        return out
