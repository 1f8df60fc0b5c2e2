"""Benchmark runner for bci.

    python3 bench/run.py --workload eval-mixed --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  It builds nothing: it imports ``bci`` from
``src/``.  Steps of one run:

1. make the workload's inputs from ``--seed`` (``workloads.py``);
2. ``setup_s``: launch fresh interpreters that only ``import bci``;
3. start the timed process (``worker.py``) and hand it the inputs; it runs
   the ops closed-loop with one caller and returns every op's output;
4. after it has exited, check every output: against a repeat of the same op,
   against the 30-digit mpmath reference (``reference.py``) and, for
   ``cli-sweep``, against the requested grid and the expected exit code;
5. print a summary and, as the last line, one JSON object:
   ``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
   metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

Per-run details (tail percentile and its sample count, failure reasons)
go to ``.bench_out/BENCH_<workload>.json``; the traced run writes its spans
to ``.bench_out/spans-<workload>.jsonl``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath as mp

import calibrate
import reference
import tracing
import workloads

OUT_DIR = ".bench_out"
#: Launches for setup_s, after one that writes the bytecode cache.
SETUP_LAUNCHES = 10
#: The worker runs --seconds of ops plus untimed passes (warm-up and baseline,
#: repeats, calibrations); this much on top of --seconds bounds those.
WORKER_MARGIN_S = 90
#: A value the program vouches for (verdict Agree or Partial) that is
#: further than this from the reference makes the run incorrect.  It is
#: 100 times the default agreement tolerance.
VOUCH_TOL = 1e-6
ECHO_TOL = 1e-13
#: Floor of max_rel_error in min_correct_digits (17 digits: beyond double).
MIN_REL_ERROR = 1e-17
#: Value of a metric on a workload it does not apply to: max_residual_ratio
#: off ``verify``, and cross_checked_fraction on ``verify``, whose checks
#: each run a fixed number of cases, so the share would be 1 by construction.
#: A constant, so it can never flag a change.
NOT_APPLICABLE = 1.0

POOL_SIZES = {"eval-mixed": 3000, "eval-closedform": 3000, "verify": 30}
#: op_tail_us percentile per workload, chosen to keep well over ten samples
#: beyond it at a 20 s run on the reference machine (about 18k, 100k, 220
#: and 70 timed ops): p99.9 moved by 15% between runs.  The worker steps
#: down when a slower machine leaves fewer than ten.
TAIL_PCT = {"eval-mixed": 99.0, "eval-closedform": 99.0, "verify": 90.0, "cli-sweep": 75.0}
#: Workloads whose tail is over the median latency of each input of the pool
#: (``worker.input_medians``): their ops are short, so one host stall is a
#: sample in the tail.  A verify op (90 ms) or a sweep process (0.3 s)
#: absorbs a stall, and their pools (30 seeds, one grid) are too small.
TAIL_PER_INPUT = {"eval-mixed", "eval-closedform"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_us": "us",
    "op_tail_us": "us",
    "min_correct_digits": "digits",
    "bound_held_fraction": "ratio",
    "cross_checked_fraction": "ratio",
    "ok_fraction": "ratio",
    "max_residual_ratio": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here (no program, a crashed worker...)."""


def find_root() -> Path:
    root = Path.cwd()
    if not (root / "src" / "bci" / "__init__.py").is_file():
        raise BenchError(f"no program to benchmark: {root / 'src' / 'bci'} is missing; run from the repo root")
    return root


def measure_setup(root: Path, launches: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters doing ``import bci``: (calibrated, raw).

    Each launch is scaled by the mean speed of the reference launches
    (``calibrate.launch_speed``) on either side of it.  Half the launches
    run before the timed process and half after it, so the median spans the
    whole run rather than one moment of the host.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, "-c", "import bci"]
    raw = []
    scaled = []
    before = calibrate.launch_speed()
    for _ in range(launches):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, timeout=60)
        raw.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"`import bci` failed: {proc.stderr.decode(errors='replace').strip()}")
        after = calibrate.launch_speed()
        scaled.append(raw[-1] * 0.5 * (before + after))
        before = after
    return scaled, raw


def pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def make_job(root: Path, args, scratch: Path) -> tuple[dict, list[dict]]:
    """The worker's job and the instances whose outputs need a reference."""
    job = {
        "root": str(root),
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "tail_pct": TAIL_PCT[args.workload],
        "tail_per_input": args.workload in TAIL_PER_INPUT,
        "scratch": str(scratch),
        "spans_path": str(root / OUT_DIR / f"spans-{args.workload}.jsonl"),
    }
    if args.workload == "eval-mixed":
        instances = workloads.eval_mixed(args.seed, POOL_SIZES["eval-mixed"])
    elif args.workload == "eval-closedform":
        instances = workloads.eval_closedform(args.seed, POOL_SIZES["eval-closedform"])
    elif args.workload == "verify":
        job["ops"] = workloads.verify_seeds(args.seed, POOL_SIZES["verify"])
        return job, []
    else:
        grid = workloads.sweep_grid(args.seed)
        instances = grid["instances"]
        job["ops"] = [None]
        job["sweep_argv"] = grid["argv"]
        job["sweep_instances"] = [dict(d, alpha=pair(d["alpha"]), beta=pair(d["beta"])) for d in instances]
        return job, instances
    job["ops"] = [dict(d, alpha=pair(d["alpha"]), beta=pair(d["beta"])) for d in instances]
    return job, instances


def run_worker(job: dict, seconds: float) -> dict:
    worker = Path(__file__).with_name("worker.py")
    proc = subprocess.run(
        [sys.executable, str(worker)],
        input=json.dumps(job).encode(),
        capture_output=True,
        timeout=seconds + WORKER_MARGIN_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.decode(errors='replace')[-2000:]}")
    return json.loads(proc.stdout)


class Tally:
    """Failures and accuracy over the distinct ops of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}
        self.incorrect: list[str] = []
        self.ok_results = 0  # base of bound_held_fraction
        self.bound_held = 0
        self.cases = 0  # base of cross_checked_fraction (eval ops)
        self.cross_checked = 0
        self.max_rel_error = 0.0
        self.residual_ratios: list[float] = []  # verify only

    def report(self, doc: dict, want: dict) -> list[str]:
        """Check one canonical report against its instance; return failure reasons."""
        reasons = []
        inst = doc["instance"]
        for key in ("alpha", "beta"):
            got, exp = complex(*inst[key]), want[key]
            if abs(got - exp) > ECHO_TOL * max(1.0, abs(exp)):
                self.incorrect.append(f"echoed {key} {got!r} is not the requested {exp!r}")
        if abs(inst["theta"] - want["theta"]) > ECHO_TOL * want["theta"]:
            self.incorrect.append(f"echoed theta {inst['theta']!r} is not the requested {want['theta']!r}")
        ok = [r for r in doc["results"] if r["status"] == "ok"]
        if doc["verdict"] == "Disagree":
            reasons.append("Disagree")
        if not ok:
            reasons.append("zero survivors")
        self.cases += 1
        if len(ok) >= 2:
            self.cross_checked += 1
        ref = reference.reference(want["alpha"], want["beta"], want["theta"])
        for r in ok:
            abs_err, rel = reference_error(complex(*r["value"]), ref)
            self.ok_results += 1
            self.bound_held += float(r["error_estimate"]) >= abs_err
            self.max_rel_error = max(self.max_rel_error, rel)
            if doc["verdict"] != "Disagree" and not rel <= VOUCH_TOL:
                self.incorrect.append(
                    f"{r['method']} = {r['value']} is {rel:.3g} from the reference at {want} "
                    f"under verdict {doc['verdict']}"
                )
        return reasons

    def count(self, reasons: list[str]) -> None:
        self.attempted += 1
        if reasons:
            self.failed += 1
            for reason in reasons:
                self.reasons[reason] = self.reasons.get(reason, 0) + 1


def reference_error(value: complex, ref: mp.mpc) -> tuple[float, float]:
    """(|value - ref|, |value - ref| / max(1, |ref|)), the report's normalisation."""
    with mp.workdps(reference.DIGITS):
        err = abs(mp.mpc(value) - ref)
        return float(err), float(err / max(mp.mpf(1), abs(ref)))


def error_kind(error: str) -> str:
    """'exception:TypeError: detail' -> 'exception:TypeError'."""
    return ":".join(error.split(":", 2)[:2])


def check_eval(result: dict, instances: list[dict]) -> Tally:
    tally = Tally()
    mismatched = set(result["mismatched"])
    for k, (out, want) in enumerate(zip(result["baseline"], instances)):
        reasons = []
        error = result["errors"].get(str(k))
        if error:
            reasons.append(error_kind(error))
            if error.startswith("exception:"):
                tally.incorrect.append(f"op {k} raised {error}")
        else:
            doc = json.loads(out)
            reasons += tally.report(doc, want)
        if k in mismatched:
            reasons.append("differs from a repeat")
            tally.incorrect.append(f"op {k} at {want} gave different output on a repeat")
        tally.count(reasons)
    return tally


def check_verify(result: dict, seeds: list[int]) -> Tally:
    tally = Tally()
    mismatched = set(result["mismatched"])
    for k, (out, seed) in enumerate(zip(result["baseline"], seeds)):
        reasons = []
        error = result["errors"].get(str(k))
        if error:
            reasons.append(error_kind(error))
            if error.startswith("exception:"):
                tally.incorrect.append(f"run_verify({seed}) raised {error}")
        else:
            doc = json.loads(out)
            tally.residual_ratios.append(max(c["max_residual"] / c["threshold"] for c in doc["checks"]))
            for check in doc["checks"]:
                tally.max_rel_error = max(tally.max_rel_error, check["max_residual"])
                tally.ok_results += 1
                tally.bound_held += bool(check["pass"])
                if not check["pass"]:
                    reasons.append(f"check {check['name']} failed")
        if k in mismatched:
            reasons.append("differs from a repeat")
            tally.incorrect.append(f"run_verify({seed}) gave different output on a repeat")
        tally.count(reasons)
    return tally


def check_sweep(result: dict, instances: list[dict]) -> Tally:
    tally = Tally()
    out = json.loads(result["baseline"][0]) if not result["errors"] else None
    process_fault = None
    if out is None:
        process_fault = result["errors"]["0"]
    elif result["mismatched"]:
        process_fault = "bytes differ between repeats"
    lines = [] if out is None else out["file"].splitlines()
    if out is not None and len(lines) != len(instances):
        process_fault = f"{len(lines)} rows for a grid of {len(instances)}"
    if process_fault:
        tally.incorrect.append(f"bci sweep: {process_fault}")
        for _ in instances:
            tally.count([process_fault])
        return tally
    disagree = False
    for line, want in zip(lines, instances):
        doc = json.loads(line)
        disagree = disagree or doc["verdict"] == "Disagree"
        tally.count(tally.report(doc, want))
    expected_rc = 2 if disagree else 0
    if out["rc"] != expected_rc:
        tally.incorrect.append(f"bci sweep exited {out['rc']}, expected {expected_rc}")
    return tally


def fraction(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end(workload: str, setup_s: float, result: dict, tally: Tally) -> dict[str, float]:
    lat = result["latency"]
    verify = workload == "verify"
    residual_ratio = statistics.median(tally.residual_ratios) if tally.residual_ratios else 0.0
    return {
        "setup_s": setup_s,
        "ops_per_s": lat["ops_per_s"],
        "op_p50_us": lat["p50_us"],
        "op_tail_us": lat["tail_us"],
        "min_correct_digits": -math.log10(max(tally.max_rel_error, MIN_REL_ERROR)),
        "bound_held_fraction": fraction(tally.bound_held, tally.ok_results),
        "cross_checked_fraction": NOT_APPLICABLE if verify else fraction(tally.cross_checked, tally.cases),
        "ok_fraction": 1.0 - fraction(tally.failed, tally.attempted),
        "max_residual_ratio": residual_ratio if verify else NOT_APPLICABLE,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(args, setup_s: float, result: dict) -> dict[str, float]:
    trace = result["trace"]
    values = dict.fromkeys(tracing.PER_LAYER_UNITS, 0.0)
    values.update({k: v for k, v in trace["layers"].items() if k in values})
    values["trace.overhead_pct"] = trace["overhead_pct"]
    if args.workload == "cli-sweep":
        process_s = result["latency"]["p50_us"] / 1e6
        values["cli.process_s"] = process_s
        values["cli.self_s"] = process_s - setup_s - trace["replay_s"]
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.DISTRIBUTIONS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        root = find_root()
        out_dir = root / OUT_DIR
        scratch = out_dir / f"tmp-{os.getpid()}"
        scratch.mkdir(parents=True, exist_ok=True)
        try:
            job, instances = make_job(root, args, scratch)
            # the first launch also writes the bytecode cache: not counted
            scaled, raw = (times[1:] for times in measure_setup(root, SETUP_LAUNCHES // 2 + 1))
            result = run_worker(job, args.seconds)
            more_scaled, more_raw = measure_setup(root, SETUP_LAUNCHES - SETUP_LAUNCHES // 2)
            setup_s = statistics.median(scaled + more_scaled)
            raw_setup_s = statistics.median(raw + more_raw)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 1

    if args.workload == "verify":
        tally = check_verify(result, job["ops"])
    elif args.workload == "cli-sweep":
        tally = check_sweep(result, instances)
    else:
        tally = check_eval(result, instances)

    if args.trace:
        values = per_layer(args, setup_s, result)
        units = tracing.PER_LAYER_UNITS
    else:
        values = end_to_end(args.workload, setup_s, result, tally)
        units = END_TO_END_UNITS
    lat = result["latency"]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "distribution": workloads.DISTRIBUTIONS[args.workload],
        "timed_ops": lat["ops"],
        "machine_speed": lat["speed"],
        "raw": dict(lat["raw"], setup_s=raw_setup_s),
        "tail_percentile": lat["tail_pct"],
        "tail_beyond": lat["tail_beyond"],
        "tail_over": "input medians" if job["tail_per_input"] else "samples",
        "failed_fraction": fraction(tally.failed, tally.attempted),
        "max_rel_error": tally.max_rel_error,
        "bound_violation_fraction": 1.0 - fraction(tally.bound_held, tally.ok_results),
        "failure_reasons": tally.reasons,
        "incorrect": tally.incorrect[:20],
        "metrics": values,
    }
    if args.trace:
        details["traced_ops"] = result["trace"]["ops"]
        details["spans"] = result["trace"]["spans"]
    (root / OUT_DIR / f"BENCH_{args.workload}.json").write_text(json.dumps(details, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# timed ops={lat['ops']}  op_tail_us is p{lat['tail_pct']:g} ({lat['tail_beyond']} {details['tail_over']} beyond)")
    print(f"# attempted={tally.attempted} failed={tally.failed} {tally.reasons}")
    print(
        f"# failed_fraction={details['failed_fraction']:.6g} "
        f"bound_violation_fraction={details['bound_violation_fraction']:.6g} max_rel_error={tally.max_rel_error:.6g}"
    )
    for problem in tally.incorrect[:10]:
        print(f"# INCORRECT: {problem}")
    for name, value in values.items():
        print(f"{name:34s} {value:14.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": not tally.incorrect,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
