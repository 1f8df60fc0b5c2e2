"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: it draws from a
``random.Random`` seeded with the workload name and the seed, and returns
plain floats, so the same seed gives the same inputs on any machine.
Nothing here imports ``bci``.  The program sees
only the generated values.

Every draw stays where ``ProblemInstance`` accepts it and where evaluation
can run at all: theta strictly inside (0, 2*pi) and |alpha| outside the
default exclusion band 0.98 <= |alpha| <= 1.02.  A failure counted by the
benchmark is therefore the program's, never the generator's.
"""

from __future__ import annotations

import cmath
import math
import random

TWO_PI = 2.0 * math.pi

#: Default ``ProblemInstance.exclusion_band`` is 0.02; draws keep this much
#: extra distance from the band edge so |alpha| never rounds into it.
BAND_MARGIN = 1e-3

#: |z| = min(|alpha|, 1/|alpha|) is the argument of the closed form's series in
#: either regime, and alpha -> 1/alpha maps one regime onto the other, so
#: both eval workloads draw |z| uniformly and pick the regime 50/50.
#:
#: eval-mixed: |z| runs up to the exclusion band, over everything
#: ``ProblemInstance`` accepts down to 0.02 (|alpha| from 0.02 to 50).  That
#: puts 3% of the draws in the near-circle annuli 0.95 < |z| <= 0.979, where
#: ``hyp2f1_one_b`` refuses; 46 of 1500 full-domain draws (3.1%) in the
#: benchmark's planning measurements were such Partial reports.
MIXED_Z = (0.02, 0.98 - BAND_MARGIN)

#: eval-mixed: share of beta draws per kind.
#:
#: The large-|Im beta| share sets how many ops fail (Disagree): at the
#: baseline 79% of such draws Disagree, against 0.1% of generic draws and
#: 1.3% of integers (1500, 1500 and 300 draws of this |z| law).  0.23 makes
#: the expected Disagree share 18.3%, the rate of the planning measurement
#: on full-domain draws (272 of 1500, 18.1%).  The integer share is a
#: choice, not measured traffic: a few exact integers so the residue path
#: runs.
MIXED_BETA_LARGE_IM = 0.23  # |Im beta| in (3, 40]: the oscillatory case
MIXED_BETA_INTEGER = 0.05  # beta in -4..4, exactly
MIXED_BETA_RE = 3.0  # Re beta uniform in [-3, 3]
MIXED_BETA_IM = 3.0  # generic |Im beta| <= 3
MIXED_BETA_IM_MAX = 40.0

#: eval-closedform: |z| = min(|alpha|, 1/|alpha|) range and denominators.
CLOSEDFORM_Z = (0.1, 0.949)
CLOSEDFORM_N = (2, 12)
CLOSEDFORM_MAX_BETA = 3  # |m/n| <= 3

#: cli-sweep grid axes: |alpha| (two inside, two outside), arg alpha,
#: beta (three generic, one with Im beta = 12, the integer -2) and theta.
SWEEP_AXES = (
    [0.3, 0.7, 1.5, 3.0],
    [0.5, 4.0],
    [0.5 + 0.3j, -1.2 + 2.5j, 2.3 - 1.7j, 0.5 + 12j, -2 + 0j],
    [1.0, 3.5],
)

DISTRIBUTIONS = {
    "eval-mixed": (
        "theta, arg alpha uniform; |z| = min(|alpha|, 1/|alpha|) uniform in [0.02,0.979] "
        "(stratified), regime 50/50; beta, in exact shares: 0.72 Re in [-3,3], Im in [-3,3]; "
        "0.23 Re in [-3,3], |Im| in (3,40]; 0.05 integer in -4..4"
    ),
    "eval-closedform": (
        "beta = m/n in lowest terms, n in 2..12, |m/n| <= 3; |z| uniform in [0.1,0.949], "
        "regime 50/50 (|alpha| = |z| or 1/|z|); theta, arg alpha uniform"
    ),
    "verify": "run_verify on consecutive seeds 1000*seed .. 1000*seed + count - 1",
    "cli-sweep": (
        "fixed 4x2x5x2 grid, axis order shuffled by the seed: |alpha| 0.3,0.7,1.5,3; arg alpha 0.5,4; "
        "beta 0.5+0.3j, -1.2+2.5j, 2.3-1.7j, 0.5+12j, -2 (as mod@arg); theta 1, 3.5"
    ),
}


def _theta(rng: random.Random) -> float:
    while True:
        th = rng.uniform(0.0, TWO_PI)
        if 0.0 < th < TWO_PI:
            return th


def _polar(mod: float, arg: float) -> complex:
    return mod * complex(math.cos(arg), math.sin(arg))


def _alpha(rng: random.Random, z: float) -> complex:
    """|z| = min(|alpha|, 1/|alpha|) given, regime 50/50, arg alpha uniform."""
    mod = z if rng.random() < 0.5 else 1.0 / z
    return _polar(mod, rng.uniform(0.0, TWO_PI))


def _stratified(rng: random.Random, count: int, low: float, high: float) -> list[float]:
    """One uniform draw in each of `count` equal slices of [low, high], shuffled.

    Still uniform on [low, high], but a pool holds the same share of every
    range from seed to seed, so the pool's mix (and its cost) moves less.
    """
    width = (high - low) / count
    out = [low + (k + rng.random()) * width for k in range(count)]
    rng.shuffle(out)
    return out


def _mixed_beta(rng: random.Random, kind: str) -> complex:
    if kind == "integer":
        return complex(rng.randint(-4, 4), 0.0)
    re = rng.uniform(-MIXED_BETA_RE, MIXED_BETA_RE)
    if kind == "large-im":
        im = math.copysign(rng.uniform(MIXED_BETA_IM, MIXED_BETA_IM_MAX), rng.random() - 0.5)
        return complex(re, im)
    return complex(re, rng.uniform(-MIXED_BETA_IM, MIXED_BETA_IM))


def eval_mixed(seed: int, count: int) -> list[dict]:
    """Full-domain instances for ``evaluate_instance`` with default methods.

    |z| is stratified and the beta kinds come in their exact shares (in
    random order), so pools of different seeds differ only within strata.
    """
    rng = random.Random(f"eval-mixed:{seed}")
    integers = round(MIXED_BETA_INTEGER * count)
    large_im = round(MIXED_BETA_LARGE_IM * count)
    kinds = ["integer"] * integers + ["large-im"] * large_im + ["generic"] * (count - integers - large_im)
    rng.shuffle(kinds)
    out = []
    for z, kind in zip(_stratified(rng, count, *MIXED_Z), kinds):
        theta = _theta(rng)
        alpha = _alpha(rng, z)
        out.append({"alpha": alpha, "beta": _mixed_beta(rng, kind), "theta": theta})
    return out


def eval_closedform(seed: int, count: int) -> list[dict]:
    """Rational-exponent instances; ``m``/``n`` feed ``RationalBeta``."""
    rng = random.Random(f"eval-closedform:{seed}")
    out = []
    while len(out) < count:
        n = rng.randint(*CLOSEDFORM_N)
        m = rng.randint(-CLOSEDFORM_MAX_BETA * n, CLOSEDFORM_MAX_BETA * n)
        if math.gcd(m, n) != 1:
            continue  # an integer or a non-reduced pair: draw again
        alpha = _alpha(rng, rng.uniform(*CLOSEDFORM_Z))
        theta = _theta(rng)
        out.append({"alpha": alpha, "beta": complex(m / n, 0.0), "theta": theta, "m": m, "n": n})
    return out


def verify_seeds(seed: int, count: int) -> list[int]:
    """Consecutive ``run_verify`` seeds; a block of 1000 per benchmark seed."""
    return [1000 * seed + k for k in range(count)]


def sweep_grid(seed: int) -> dict:
    """One ``bci sweep`` grid: the argv axes and the instances they denote.

    The grid is fixed (``SWEEP_AXES``); the seed only shuffles the order of
    each axis, so every seed asks for the same 80 instances in a different
    row order.  A sweep of 80 rows is mostly process start-up, which is
    what this workload measures, and too few rows for a per-seed draw to
    give steady accuracy figures.

    Complex exponents are passed as ``mod@arg`` because the comma-list
    parser of ``bci sweep --beta`` splits ``re,im`` into two real
    exponents.  Instances are rebuilt here with the CLI's own formulas
    (``mod * complex(cos(arg), sin(arg))``) so each echoed row can be
    matched against the grid point that was asked for.
    """
    rng = random.Random(f"cli-sweep:{seed}")
    mods, args, exponents, thetas = (rng.sample(axis, len(axis)) for axis in SWEEP_AXES)
    betas = [(abs(b), cmath.phase(b)) for b in exponents]
    argv = [
        "--alpha-mod=" + ",".join(map(repr, mods)),
        "--alpha-arg=" + ",".join(map(repr, args)),
        "--beta=" + ",".join(f"{m!r}@{a!r}" for m, a in betas),
        "--theta=" + ",".join(map(repr, thetas)),
    ]
    instances = [
        {"alpha": _polar(mod, arg), "beta": _polar(bm, ba), "theta": theta}
        for mod in mods
        for arg in args
        for bm, ba in betas
        for theta in thetas
    ]
    return {"argv": argv, "instances": instances}
