"""Brute-force statistics oracle, independent of the library under test.

Mean and sample standard deviation are computed with exact rational
arithmetic; the Student-t quantile comes from numerically integrating the
t density (composite Simpson) and inverting the CDF by bisection.  None
of this shares code with ``hpcflow.perf``, which it checks: there the
mean is an ``fsum``, the SD a ``hypot`` of the deviations, and the t
quantile Newton's method on a series for the tail.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


def brute_mean(samples: list[float]) -> float:
    total = sum(Fraction(x) for x in samples)
    return float(total / len(samples))


def brute_stdev(samples: list[float]) -> float:
    n = len(samples)
    mean = sum(Fraction(x) for x in samples) / n
    ss = sum((Fraction(x) - mean) ** 2 for x in samples)
    return math.sqrt(float(ss / (n - 1)))


def _t_pdf(x: np.ndarray, df: int) -> np.ndarray:
    c = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))
    return c * (1.0 + x * x / df) ** (-(df + 1) / 2)


def _t_cdf_upper_half(x: float, df: int, points: int = 50_001) -> float:
    """P(0 <= T <= x) by composite Simpson on a fine grid."""
    if x == 0.0:
        return 0.0
    grid = np.linspace(0.0, x, points)
    values = _t_pdf(grid, df)
    h = x / (points - 1)
    return float(h / 3.0 * (values[0] + values[-1] + 4 * values[1::2].sum() + 2 * values[2:-1:2].sum()))


@lru_cache(maxsize=None)
def brute_t_quantile(prob: float, df: int) -> float:
    """Inverse CDF by bisection; prob must be in (0.5, 1)."""
    target = prob - 0.5
    lo, hi = 0.0, 1.0
    while _t_cdf_upper_half(hi, df) < target:
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _t_cdf_upper_half(mid, df) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def brute_ci95_half_width(samples: list[float]) -> float:
    n = len(samples)
    if n == 1:
        return 0.0
    s = brute_stdev(samples)
    return brute_t_quantile(0.975, n - 1) * s / math.sqrt(n)
