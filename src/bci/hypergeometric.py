"""The Gauss hypergeometric series 2F1(1, b; 1+b; z) of the closed forms.

Only |z| < 1 is needed anywhere in this package: the closed forms always feed
the series an argument of modulus min(|alpha|, 1/|alpha|), which the circle
exclusion band keeps strictly inside the disk.  No analytic continuation is
attempted.  hyp2f1_one_b fixes its term count before it sums: the first
K >= |b| (from the geometric estimate up) with majorant
|b/(b+K)| |z|^K |z|/(1-|z|) <= tol.  |b+k| grows with k past |b|, so the
majorant bounds the tail (tail_estimate).  It refuses with SlowConvergence,
before summing anything, |z| >= 1 and a series whose majorant still exceeds
tol at max_terms terms.
hyp2f1_one_b_many sums many series in one set of array operations, each
over its own term count, so each is the float hyp2f1_one_b gives.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .branchcut import as_integer
from .errors import InvalidC, SlowConvergence

__all__ = [
    "DEFAULT_MAX_TERMS",
    "SeriesResult",
    "hyp2f1_one_b",
    "hyp2f1_one_b_many",
]

DEFAULT_MAX_TERMS = 100_000


@dataclass(frozen=True)
class SeriesResult:
    """Partial-sum value, its term count and its tail bound, at most the tolerance."""

    value: complex
    terms_used: int
    tail_estimate: float


def _series_length(b: complex, q: float, tol: float, k_min: int, max_terms: int) -> tuple[int, float]:
    """Index K of the last term to sum and its tail majorant |b/(b+K)| q^K q/(1-q):
    the geometric estimate or k_min, then jumps while the majorant exceeds tol.
    Capped at max_terms - 1; q = 0 has no terms, (0, 0.0), and q >= 1 is refused."""
    if q == 0.0:
        return 0, 0.0
    if not q < 1.0:
        raise SlowConvergence(f"|z| = {q:.17g} is not inside the unit disk")
    geom = q / (1.0 - q)
    last = max_terms - 1
    k = max(k_min, math.ceil(math.log(min(tol / geom, 1.0)) / math.log(q))) if tol > 0.0 else last
    while True:
        k = min(k, last)
        tail = abs(b / (b + k)) * q**k * geom
        if tail <= tol or k == last:
            return k, tail
        k += max(1, math.ceil(math.log(tol / tail) / math.log(q)))


def _plan(b: complex, z: complex, tol: float, max_terms: int) -> tuple[int, float]:
    """Index K of the last term of the series at (b, z) and its tail majorant, after refusing
    a non-positive integer b (InvalidC), and |z| >= 1 or a majorant above tol at the
    max_terms cap (SlowConvergence); z = 0 has no terms."""
    bi = as_integer(b)
    if bi is not None and bi <= 0:
        raise InvalidC(f"b = {b!r} makes c = 1+b a non-positive integer parameter")
    if z == 0:
        return 0, 0.0
    last, tail = _series_length(b, abs(z), tol, max(1, math.ceil(abs(b))), max_terms)
    if not tail <= tol:
        raise SlowConvergence(f"the 2F1 series needs more than {last + 1} terms at |z| = {abs(z):.6g}")
    return last, tail


def _powers(z: complex, last: int) -> np.ndarray:
    """z, z^2, ..., z^last: one np.multiply.accumulate, over a buffer filled with z."""
    powers = np.empty(last, dtype=complex)
    powers.fill(z)
    return np.multiply.accumulate(powers)


def hyp2f1_one_b(
    b: complex,
    z: complex,
    tol: float = 1e-12,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> SeriesResult:
    """sum_{k>=0} b/(b+k) z^k, which is 2F1(1, b; 1+b; z) term for term.

    The (1, b; 1+b) parameter pattern collapses the Pochhammer ratio to
    b/(b+k); this is the form every closed form in the package consumes,
    summed as one array to the term count of the module docstring.  b must
    not be a non-positive integer (that makes 1+b an invalid denominator
    parameter — and would zero a denominator b+k at k = -b).
    """
    b = complex(b)
    z = complex(z)
    last, tail = _plan(b, z, tol, max_terms)
    # k as floats: b + k then needs no integer-to-complex cast, with the same bits
    total = 1.0 + np.add.reduce(b / (b + np.arange(1.0, last + 1)) * _powers(z, last))
    return SeriesResult(complex(total), last + 1, tail)


def hyp2f1_one_b_many(
    bs: Sequence[complex],
    zs: Sequence[complex],
    tol: float | Sequence[float] = 1e-12,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> list[SeriesResult]:
    """hyp2f1_one_b(b, z, tol, max_terms) for each pair, field for field;
    tol is one float for every pair or one per pair.

    Every pair is checked and given its term count first, in item order, so
    the first non-positive integer b (InvalidC), or |z| >= 1 or series capped
    short of its tol (SlowConvergence), raises before anything is summed.
    The sums then share each array operation and keep the arithmetic of
    hyp2f1_one_b: the powers are one np.multiply.accumulate along rows
    padded to the longest series; each row's own terms k = 1..K are laid end
    to end, after a zero per row; and np.add.reduceat sums each row from its
    zero, the same pairwise sum that .sum() of that row alone does from the
    zero it starts from.
    """
    bs = [complex(b) for b in bs]
    zs = [complex(z) for z in zs]
    tols = [tol] * len(bs) if isinstance(tol, (int, float)) else list(tol)
    counts = [_plan(b, z, t, max_terms) for b, z, t in zip(bs, zs, tols, strict=True)]
    if not counts:
        return []
    lasts = np.array([last for last, _ in counts])
    row = np.repeat(np.arange(len(counts)), lasts)  # the row of each term, rows end to end
    place = np.arange(1, len(row) + 1)
    k = place - (np.cumsum(lasts) - lasts)[row]  # 1..lasts[r] along row r
    powers = np.multiply.accumulate(np.repeat(np.array(zs)[:, None], lasts.max(), axis=1), axis=1)[row, k - 1]
    b_rep = np.array(bs)[row]
    flat = np.zeros(len(counts) + len(row), dtype=complex)  # a zero before each row
    flat[place + row] = b_rep / (b_rep + k) * powers
    starts = np.cumsum(lasts + 1) - (lasts + 1)
    totals = (1.0 + np.add.reduceat(flat, starts)).tolist()
    return [SeriesResult(total, last + 1, tail) for total, (last, tail) in zip(totals, counts)]
