"""30-digit mpmath reference for I(alpha, beta, theta).

Non-integer beta uses the closed-form identity with ``mp.hyp2f1``; integer
beta uses residues.  Neither shares code with ``bci``: the identity is
evaluated by mpmath's own hypergeometric routine at a working precision
15 digits above the target, so the cancellation in ``1 - F`` near F = 1
costs nothing at the reported 30 digits.  ``bench/test_bench.py`` checks
the identity against ``mp.quad`` of the circle integrand.

Only the runner's parent process imports this module; it computes the
references after the timed process has exited, so mpmath adds nothing to
``setup_s`` or ``peak_rss_mb``.
"""

from __future__ import annotations

import mpmath as mp

DIGITS = 30
GUARD_DIGITS = 15

#: Same integer test as the program's: both components within 1e-12.
INTEGER_TOL = 1e-12


def _as_integer(beta: complex) -> int | None:
    n = round(beta.real)
    if abs(beta.real - n) < INTEGER_TOL and abs(beta.imag) < INTEGER_TOL:
        return int(n)
    return None


def reference(alpha: complex, beta: complex, theta: float) -> mp.mpc:
    """The contour integral of z**beta / (z - alpha) over |z| = 1, cut at theta.

    With P = e^{i beta theta} - e^{i beta (theta - 2 pi)} and
    F(b, z) = 2F1(1, b; 1 + b; z):

        |alpha| > 1:  I = (P / beta) (1 - F(beta, e^{i theta} / alpha))
        |alpha| < 1:  I = (P / beta) F(-beta, alpha e^{-i theta})

    Integer n = beta has the residue values 2 pi i alpha^n (inside, n >= 1),
    2 pi i (inside, n = 0), -2 pi i alpha^n (outside, n <= -1), else 0.
    """
    with mp.workdps(DIGITS + GUARD_DIGITS):
        a = mp.mpc(alpha)
        th = mp.mpf(theta)
        inside = abs(alpha) < 1.0
        n = _as_integer(complex(beta))
        if n is not None:
            two_pi_i = 2j * mp.pi
            if inside and n > 0:
                value = two_pi_i * a**n
            elif inside and n == 0:
                value = two_pi_i
            elif not inside and n < 0:
                value = -two_pi_i * a**n
            else:
                value = mp.mpc(0)
            return +value
        b = mp.mpc(beta)
        jump = mp.exp(1j * b * th) - mp.exp(1j * b * (th - 2 * mp.pi))
        if inside:
            value = jump / b * mp.hyp2f1(1, -b, 1 - b, a * mp.exp(-1j * th))
        else:
            value = jump / b * (1 - mp.hyp2f1(1, b, 1 + b, mp.exp(1j * th) / a))
        return +value

