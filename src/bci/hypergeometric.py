"""The Gauss hypergeometric series 2F1(1, b; 1+b; z) of the closed forms.

Only |z| < 1 is needed anywhere in this package: the closed forms always feed
the series an argument of modulus min(|alpha|, 1/|alpha|), which the circle
exclusion band keeps strictly inside the disk.  No analytic continuation is
attempted.  hyp2f1_one_b fixes its term count before it sums: the first
K >= |b| (from the geometric estimate up) with majorant
|b/(b+K)| |z|^K |z|/(1-|z|) <= tol.  |b+k| grows with k past |b|, so the
majorant bounds the tail (tail_estimate).  It refuses with SlowConvergence,
before summing anything, |z| >= 1 and a series whose majorant still exceeds
tol at DEFAULT_MAX_TERMS terms, the cap read when a series is planned.
eval and verify both sum each series through hyp2f1_one_b, one at a time:
a second, batched copy would let verify pass a fault in the one eval runs.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .branchcut import as_integer
from .errors import InvalidC, SlowConvergence

__all__ = [
    "DEFAULT_MAX_TERMS",
    "SeriesResult",
    "hyp2f1_one_b",
]

DEFAULT_MAX_TERMS = 100_000


class SeriesResult(NamedTuple):
    """Partial-sum value, its term count and its tail bound, at most the tolerance."""

    value: complex
    terms_used: int
    tail_estimate: float


def _series_length(b: complex, q: float, tol: float, k_min: int) -> tuple[int, float]:
    """Index K of the last term to sum and its tail majorant |b/(b+K)| q^K q/(1-q):
    the geometric estimate or k_min, then jumps while the majorant exceeds tol.
    Capped at DEFAULT_MAX_TERMS - 1; q = 0 has no terms, (0, 0.0), and q >= 1 is refused."""
    if q == 0.0:
        return 0, 0.0
    if not q < 1.0:
        raise SlowConvergence(f"|z| = {q:.17g} is not inside the unit disk")
    geom = q / (1.0 - q)
    last = DEFAULT_MAX_TERMS - 1
    k = max(k_min, math.ceil(math.log(min(tol / geom, 1.0)) / math.log(q))) if tol > 0.0 else last
    while True:
        k = min(k, last)
        tail = abs(b / (b + k)) * q**k * geom
        if tail <= tol or k == last:
            return k, tail
        k += max(1, math.ceil(math.log(tol / tail) / math.log(q)))


def _powers(z: complex, last: int) -> np.ndarray:
    """z, z^2, ..., z^last: one np.multiply.accumulate, over a buffer filled with z."""
    powers = np.empty(last, dtype=complex)
    powers.fill(z)
    return np.multiply.accumulate(powers)


def hyp2f1_one_b(b: complex, z: complex, tol: float = 1e-12) -> SeriesResult:
    """sum_{k>=0} b/(b+k) z^k, which is 2F1(1, b; 1+b; z) term for term.

    The (1, b; 1+b) parameter pattern collapses the Pochhammer ratio to
    b/(b+k); this is the form every closed form in the package consumes,
    summed as one array to the term count of the module docstring.  b must
    not be a non-positive integer (that makes 1+b an invalid denominator
    parameter — and would zero a denominator b+k at k = -b).  A b or z that
    is not finite is refused with ValueError, before the series is planned.
    """
    b = complex(b)
    z = complex(z)
    for name, value in (("b", b), ("z", z)):
        if not cmath.isfinite(value):
            raise ValueError(f"{name} = {value!r} is not finite")
    bi = as_integer(b)
    if bi is not None and bi <= 0:
        raise InvalidC(f"b = {b!r} makes c = 1+b a non-positive integer parameter")
    if z == 0:
        return SeriesResult(1 + 0j, 1, 0.0)
    last, tail = _series_length(b, abs(z), tol, max(1, math.ceil(abs(b))))
    if not tail <= tol:
        raise SlowConvergence(f"the 2F1 series needs more than {last + 1} terms at |z| = {abs(z):.6g}")
    # k as floats: b + k then needs no integer-to-complex cast, with the same bits
    total = 1.0 + np.add.reduce(b / (b + np.arange(1.0, last + 1)) * _powers(z, last))
    return SeriesResult(complex(total), last + 1, tail)
