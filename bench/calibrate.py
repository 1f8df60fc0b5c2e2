"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of one core drifts by +-30% over seconds to
minutes, and it drifts alike for programs that do the same kind of work.
So the benchmark times a fixed reference between blocks of ops and scales
each block's times by the reference's speed at that moment relative to its
nominal speed.  A timing therefore reads as the time on a machine where the
reference runs at the nominal speed; the raw times are kept next to it in
``.bench_out/BENCH_<workload>.json``.

Two references, one per kind of op:

* ``speed``: a kernel that mixes what ``bci`` spends its time on in
  process -- complex arithmetic in Python loops and numpy calls on
  15-element arrays -- run for 20 ms of process CPU time, the clock the
  worker times in-process ops with;
* ``launch_speed``: one launch of ``python -c "import numpy"``, for ops that
  are process launches, which the kernel does not follow (process start is
  dominated by loading code, and scaling it by the kernel made it worse).

Neither shares code with ``bci``, so no change to the program changes them.
Never edit a reference or its nominal speed in a change whose timings are
compared with an earlier run.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

#: Kernel calls per CPU second on the reference machine (Intel Xeon, 2.1 GHz,
#: 2 vCPUs, Python 3.11, numpy 2.4): a normalised time equals the raw one
#: when the kernel runs at this rate.
NOMINAL_PER_S = 12_000.0
SLICE_S = 0.02
#: Wall seconds of one ``python -c "import numpy"`` launch on the same machine.
NOMINAL_LAUNCH_S = 0.15

_X = np.linspace(-1.0, 1.0, 15)


def kernel() -> complex:
    acc = 0j
    z = 0.3 + 0.4j
    zk = 1 + 0j
    for k in range(1, 120):
        zk *= z
        acc += zk / (k + 0.5j)
    for _ in range(8):
        acc += complex(np.dot(_X, np.exp(1j * _X) / (np.exp(0.5j * _X) - 2.0)))
    return acc


def speed() -> float:
    """Current machine speed relative to the reference (1.0 = nominal)."""
    calls = 0
    start = time.process_time()
    while True:
        kernel()
        calls += 1
        elapsed = time.process_time() - start
        if elapsed >= SLICE_S:
            return calls / elapsed / NOMINAL_PER_S


def launch_speed() -> float:
    """Current process-launch speed relative to the reference (1.0 = nominal)."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True, check=True, timeout=60)
    return NOMINAL_LAUNCH_S / (time.perf_counter() - start)
