"""Timed process of the benchmark: runs one workload's ops closed-loop.

The runner starts this script with a JSON job on stdin and reads a JSON
result from stdout.  It imports ``bci`` from the checkout's ``src/`` and
nothing heavier, so its peak RSS is the program's.  One caller, one thread:
each op starts only after the previous one returned.

Sequence of one job:

1. a first, untimed pass over every op of the pool (warm-up, and the
   baseline output of each op);
2. the timed loop, cycling through the pool for ``seconds``; each output is
   compared with the baseline of the same op after its latency is taken;
3. an untimed repeat of every op the timed loop did not reach, so every op
   is compared with a repeat of itself;
4. with tracing on, a second loop of the same length with spans recorded
   around each call into a layer's public functions (see ``tracing.py``).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import tracing

#: Percentiles for op_tail_us, highest first.  The job names the one to use;
#: when fewer than TAIL_MIN_BEYOND samples lie beyond it, the next one down
#: is taken instead.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
THROUGHPUT_BLOCKS = 10
SWEEP_TIMEOUT_S = 120
#: Op time between two calibrations: in-process ops (CPU), process ops (wall).
BLOCK_NS = 200_000_000
LAUNCH_BLOCK_NS = 1_000_000_000
#: A block is scaled by the calibrations up to this many places before and
#: after it: 2*SPEED_WINDOW of them, about 1 s of in-process ops.
SPEED_WINDOW = 3
#: The traced loop ends early once this many spans are held in memory.
SPAN_CAP = 300_000


def import_bci(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import bci

    if not Path(bci.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"bci was imported from {bci.__file__}, not from {src}")
    return bci


def in_process_ops(bci, workload: str, span=None):
    """op(spec) -> output string for the in-process workloads.

    The eval ops produce what ``bci eval`` prints: the canonical report
    line.  Comparing two such lines compares every value bit for bit.
    Attributes are looked up on the modules at call time so the tracer's
    wrappers are seen; `span` (``Tracer.span``) times the serialisation.
    """
    report = sys.modules["bci.report"]
    span = span or (lambda _name: contextlib.nullcontext())

    def emit(rep) -> str:
        with span("report.serialize"):
            return report.dumps_canonical(report.report_to_jsonable(rep))

    if workload == "eval-mixed":

        def op(spec):
            inst = bci.ProblemInstance(alpha=complex(*spec["alpha"]), beta=complex(*spec["beta"]), theta=spec["theta"])
            return emit(report.evaluate_instance(inst))

        return op
    if workload == "eval-closedform":

        def op(spec):
            alpha = complex(*spec["alpha"])
            inst = bci.ProblemInstance(alpha=alpha, beta=complex(*spec["beta"]), theta=spec["theta"])
            methods = [bci.METHOD_CLOSED_FORM, bci.METHOD_RATIONAL]
            if abs(alpha) < 1.0:
                methods.append(bci.METHOD_SERIES)
            rational = bci.RationalBeta(spec["m"], spec["n"])
            return emit(report.evaluate_instance(inst, methods=methods, rational=rational))

        return op
    if workload == "verify":
        verify = sys.modules["bci.verify"]
        return lambda seed: json.dumps(verify.run_verify(seed))
    raise ValueError(workload)


def sweep_op(root: Path, argv: list[str], out_path: Path):
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("BCI_DEFAULT_TOL", None)  # the grid runs at the default tolerance
    cmd = [sys.executable, "-m", "bci", "sweep", *argv, f"--out={out_path}"]

    def op(_spec):
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, timeout=SWEEP_TIMEOUT_S)
        return json.dumps(
            {"rc": proc.returncode, "stdout": proc.stdout.decode("utf-8", "replace"), "file": out_path.read_text()}
        )

    return op


def run_safely(op, spec, evaluation_error) -> tuple[str, str | None]:
    """(output, error) where error names an exception the op raised."""
    try:
        return op(spec), None
    except evaluation_error as exc:
        return f"EvaluationError:{type(exc).__name__}", f"refused:{type(exc).__name__}: {exc}"
    except Exception as exc:  # a bug in the program: counted, not fatal
        return f"exception:{type(exc).__name__}", f"exception:{type(exc).__name__}: {exc}"


def closed_loop(
    op,
    pool,
    seconds: float,
    baseline,
    evaluation_error,
    tail_pct: float,
    launches: bool = False,
    stop=None,
    tail_per_input: bool = False,
) -> tuple[dict, set[int]]:
    """Cycle through the pool for `seconds` (or until `stop()`).

    Returns the latency summary and the pool indices whose output differed
    from `baseline` (no comparison when baseline is None).  In-process ops
    are timed on the process CPU clock: one caller on one thread, so an
    op's CPU time is its latency, less the time the host took the core
    away, which comes unevenly from run to run (see bench/README.md).
    Process `launches` are timed on the wall clock.  A calibration
    runs before each block of ops and after the last (``calibrate.py``: the
    kernel, or a reference launch when the ops are process `launches`), and
    each block's latencies are scaled by the median of the calibrations
    within SPEED_WINDOW of it: the host drifts over seconds, while one
    calibration also carries its own jitter, which would otherwise go
    straight into the tail of the scaled latencies.  With `tail_per_input`
    the tail is taken over the inputs' median latencies (``input_medians``)
    rather than over every sample.
    """
    raw: list[int] = []
    mismatched: set[int] = set()
    speed = calibrate.launch_speed if launches else calibrate.speed
    block_limit = LAUNCH_BLOCK_NS if launches else BLOCK_NS
    calibrations = [speed()]
    block_starts = [0]
    block_ns = 0
    clock = time.perf_counter_ns if launches else time.process_time_ns
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    i = 0
    while True:
        k = i % len(pool)
        t0 = clock()
        out, _ = run_safely(op, pool[k], evaluation_error)
        t1 = clock()
        raw.append(t1 - t0)
        block_ns += t1 - t0
        if baseline is not None and out != baseline[k]:
            mismatched.add(k)
        i += 1
        done = time.perf_counter_ns() >= deadline or (stop is not None and stop())
        if block_ns >= block_limit or done:
            calibrations.append(speed())
            block_starts.append(len(raw))
            block_ns = 0
        if done:
            lat: list[float] = []
            speeds = []
            for b in range(len(block_starts) - 1):
                window = calibrations[max(0, b + 1 - SPEED_WINDOW) : b + 1 + SPEED_WINDOW]
                speeds.append(statistics.median(window))
                lat.extend(x * speeds[-1] for x in raw[block_starts[b] : block_starts[b + 1]])
            per_input = input_medians if tail_per_input else lambda x, _n: x
            summary = latency_summary(lat, tail_pct, per_input(lat, len(pool)))
            summary["raw"] = latency_summary(raw, tail_pct, per_input(raw, len(pool)))
            summary["speed"] = statistics.median(speeds)
            return summary, mismatched


def throughput(lat: list[float]) -> float:
    """Median over consecutive blocks of ops/s, each block's own time base."""
    blocks = min(THROUGHPUT_BLOCKS, len(lat))
    size = len(lat) // blocks
    rates = sorted(size / (sum(lat[b * size : (b + 1) * size]) / 1e9) for b in range(blocks))
    mid = len(rates) // 2
    return rates[mid] if len(rates) % 2 else 0.5 * (rates[mid - 1] + rates[mid])


def rank(n: int, p: float) -> int:
    """Nearest-rank index of the p-th percentile of n sorted samples."""
    return max(0, min(n, math.ceil(p / 100.0 * n)) - 1)


def input_medians(lat: list[float], pool_size: int) -> list[float]:
    """Each input's median latency over its repeats; sample j ran input j % pool_size.

    A host stall during one repeat of an input does not move its median, so
    a tail over these follows the slow inputs, not the stalls.  Over five
    seeds of ``eval-mixed`` the quartile spread of the p99 was 0.40 over all
    samples (one run met a stalled host) and 0.045 over input medians.
    """
    runs: dict[int, list[float]] = {}
    for j, x in enumerate(lat):
        runs.setdefault(j % pool_size, []).append(x)
    return [statistics.median(v) for v in runs.values()]


def latency_summary(lat: list[float], tail_pct: float, tail_lat: list[float]) -> dict:
    """Throughput and p50 over `lat`; the tail over `tail_lat` (`lat`, or its input medians)."""
    s = sorted(lat)
    n = len(s)
    t = sorted(tail_lat)
    m = len(t)
    ladder = [p for p in TAIL_LADDER if p <= tail_pct]
    tail_p = next((p for p in ladder if m - 1 - rank(m, p) >= TAIL_MIN_BEYOND), 50.0)
    return {
        "ops": n,
        "ops_per_s": throughput(lat),
        "p50_us": s[rank(n, 50.0)] / 1e3,
        "tail_us": t[rank(m, tail_p)] / 1e3,
        "tail_pct": tail_p,
        "tail_beyond": m - 1 - rank(m, tail_p),
    }


def main() -> None:
    job = json.load(sys.stdin)
    root = Path(job["root"])
    workload = job["workload"]
    seconds = float(job["seconds"])
    pool = job["ops"]
    bci = import_bci(root)
    evaluation_error = bci.EvaluationError

    if workload == "cli-sweep":
        out_path = Path(job["scratch"]) / "sweep.jsonl"
        op = sweep_op(root, job["sweep_argv"], out_path)
    else:
        op = in_process_ops(bci, workload)

    # 1. first pass: warm-up and baseline
    baseline: list[str] = []
    errors: dict[int, str] = {}
    for k, spec in enumerate(pool):
        out, err = run_safely(op, spec, evaluation_error)
        baseline.append(out)
        if err:
            errors[k] = err

    # 2. timed loop (tracing off)
    timed_s = seconds / 2 if job["trace"] else seconds
    launches = workload == "cli-sweep"
    latency, mismatched = closed_loop(
        op, pool, timed_s, baseline, evaluation_error, job["tail_pct"], launches, tail_per_input=job["tail_per_input"]
    )

    # 3. repeat what the timed loop did not reach
    for k in range(min(latency["ops"], len(pool)), len(pool)):
        out, _ = run_safely(op, pool[k], evaluation_error)
        if out != baseline[k]:
            mismatched.add(k)

    result = {
        "baseline": baseline,
        "errors": {str(k): v for k, v in errors.items()},
        "mismatched": sorted(mismatched),
        "latency": latency,
        "peak_rss_mb": peak_rss_mb(workload),
    }

    # 4. traced loop
    if job["trace"]:
        result["trace"] = traced_run(bci, job, pool, seconds / 2, result["latency"]["ops_per_s"])
    json.dump(result, sys.stdout)


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-sweep" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def traced_run(bci, job: dict, pool: list, seconds: float, untraced_ops_per_s: float) -> dict:
    """Per-layer aggregates from a traced loop of the same ops.

    For cli-sweep the spans cannot be taken inside the ``bci sweep``
    process, so the traced op replays the same grid in process
    (evaluate + serialise every row).  An untraced replay first gives the
    in-process time that ``cli.self_s`` subtracts.
    """
    workload = job["workload"]
    evaluation_error = bci.EvaluationError
    tracer = tracing.Tracer()
    extra: dict = {}
    if workload == "cli-sweep":
        rows = job["sweep_instances"]

        def grid_op(row_op):
            return lambda _spec: "\n".join(row_op(inst) for inst in rows)

        pool = [None]
        untraced = grid_op(in_process_ops(bci, "eval-mixed"))
        replay, _ = closed_loop(untraced, pool, min(seconds / 2, 5.0), None, evaluation_error, 50.0)
        extra["replay_s"] = replay["p50_us"] / 1e6
        untraced_ops_per_s = replay["ops_per_s"]
        op = grid_op(in_process_ops(bci, "eval-mixed", tracer.span))
    else:
        op = in_process_ops(bci, workload, tracer.span)

    def tracked(spec):
        tracer.next_op()
        return op(spec)

    tracer.install()
    try:
        traced, _ = closed_loop(
            tracked, pool, seconds, None, evaluation_error, 50.0, stop=lambda: len(tracer.spans) > SPAN_CAP
        )
    finally:
        tracer.uninstall()
    tracer.write(Path(job["spans_path"]))
    return {
        "ops": traced["ops"],
        "layers": tracer.aggregate(traced["ops"], traced["speed"]),
        "overhead_pct": 100.0 * (untraced_ops_per_s - traced["ops_per_s"]) / untraced_ops_per_s,
        "spans": len(tracer.spans),
        **extra,
    }


if __name__ == "__main__":
    main()
