"""The special functions behind the Kraus coefficients, in numpy and ``math``.

The coefficients are square roots of binomials times powers, the B1
operators are Hermite functions, and a state's tail mass is a Poisson tail.
These four functions give the values of ``scipy.special``'s ``gammaln``,
``xlogy``, ``eval_hermite`` and ``gammainc`` on the arguments the package
passes, bit for bit (``poisson_tail`` within ``2e-12`` relative above
``lam = 0.6 n``): they repeat the cephes arithmetic step by step.  Importing
``scipy.special`` maps a second OpenBLAS library, whose worker thread spins
through a short run, and the package imports no scipy module.

Logarithms are ``math.log`` (the C library's), as in cephes: ``np.log`` rounds
differently on some arguments.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameter

_LOG_SQRT_2PI = 0.91893853320467274178
_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
             -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_MACHEP = 1.11022302462515654042e-16
_MAXLOG = 7.09782712893383996732e2
_log_factorials = np.empty(0)


def _stirling_series(x: float) -> float:
    """cephes' ``lgam(x) - ((x - 0.5) log x - x + log sqrt(2 pi))`` at ``x >= 13``: a series in ``1/x^2``."""
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p + 0.0833333333333333333333) / x
    series = _STIRLING[0]
    for coeff in _STIRLING[1:]:
        series = series * p + coeff
    return series / x


def _lgam_whole(n: int) -> float:
    """cephes ``lgam(n)`` at a whole ``n >= 1``: the exact ``(n - 1)!`` below 13, else Stirling's form."""
    if n < 13:
        return math.log(math.factorial(n - 1))
    x = float(n)
    return (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI + _stirling_series(x)


def log_factorial(n):
    """``log(n!)`` at a whole ``n >= 0`` or an integer array of them: ``gammaln(n + 1)``.

    Read from a table that grows to the largest ``n`` asked for; each entry is
    computed on its own, so its bits do not depend on how the table grew.
    """
    global _log_factorials
    index = np.asarray(n)
    if index.min(initial=0) < 0:
        raise InvalidParameter(f"log_factorial takes whole numbers >= 0, got {n!r}")
    size, known = int(index.max(initial=-1)) + 1, len(_log_factorials)
    if size > known:
        grown = [_lgam_whole(k + 1) for k in range(known, max(size, 2 * known))]
        _log_factorials = np.concatenate([_log_factorials, grown])
    return _log_factorials[index]


def xlogy(x, y: float):
    """``x log(y)`` for a float ``y``, with ``0 log(y) = 0`` unless ``y`` is nan.

    ``log(y)`` is taken once and multiplied only where ``x != 0``, so ``y = 0``
    gives ``-inf`` there and no ``0 * inf`` warning.
    """
    log_y = math.log(y) if y > 0 else -math.inf if y == 0 else math.nan
    x = np.asarray(x, dtype=float)
    return np.multiply(x, log_y, out=np.zeros_like(x), where=(x != 0) | math.isnan(y))[()]


def eval_hermite(n: int, x) -> np.ndarray:
    """The physicists' Hermite polynomial ``H_n(x)``, ``n >= 0``: the backward recurrence of
    ``He_n(sqrt(2) x)``, times ``2^(n/2)``; like scipy, it overflows to ``inf`` without a warning."""
    t = math.sqrt(2.0) * np.asarray(x, dtype=float)
    y2, y3 = np.where(np.isnan(t), t, 1.0), 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n, 1, -1):
            y2, y3 = t * y2 - k * y3, y2
        return (t * y2 - y3 if n else y2) * math.pow(2.0, n / 2.0)


def poisson_tail(lam: float, n: int) -> float:
    """``P(N >= n)`` for ``N ~ Poisson(lam)``: ``gammainc(n, lam)``, with its values at ``n = 0``,
    ``lam = 0``, ``inf``, ``nan`` and below 0.

    Below ``lam = 0.6 n`` this is cephes' power series, bit for bit.  From there
    up to ``lam = n``, where cephes takes Lanczos or asymptotic forms, it is the
    same series with its prefactor's exponent in Stirling's form; above ``n`` it is
    one minus the first ``n`` Poisson weights.  Both stay within ``2e-12``
    relative of scipy up to ``n = 1000``.
    """
    if not lam >= 0.0:
        return math.nan
    if n == 0:
        return 1.0 if lam > 0.0 else math.nan
    if lam == 0.0 or lam == math.inf:
        return float(lam > 0.0)
    log_lam = math.log(lam)
    if lam > n:
        weights = (math.exp(k * log_lam - lam - f) for k, f in enumerate(log_factorial(np.arange(n)).tolist()))
        return 1.0 - math.fsum(weights)
    if lam < 0.6 * n or n < 13:
        ax = n * log_lam - lam - float(log_factorial(n - 1))
    else:  # the same exponent with lgam(n) in Stirling's form, whose n log n cancels against n log lam
        v = (lam - n) / n
        ax = n * (math.log1p(v) - v) + 0.5 * math.log(n) - _LOG_SQRT_2PI - _stirling_series(float(n))
    if ax < -_MAXLOG:
        return 0.0
    ax = math.exp(ax)
    r, c, total = float(n), 1.0, 1.0
    for _ in range(2000):
        r += 1.0
        c *= lam / r
        total += c
        if c <= _MACHEP * total:
            break
    return total * ax / n
