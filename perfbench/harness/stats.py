"""Small statistics helpers shared by the workloads and the reporter."""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, Sequence

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def tail_percentile(count: int) -> int:
    """The highest whole percentile with ``TAIL_BEYOND`` samples beyond it.

    With ``count`` samples, nearest-rank percentile ``q`` leaves
    ``count - ceil(q * count / 100)`` samples above it; this is the
    largest ``q`` (at most 99, at least 50) for which that is at least
    :data:`TAIL_BEYOND`.
    """
    best = 50
    for q in range(50, 100):
        if count - math.ceil(q * count / 100.0) >= TAIL_BEYOND:
            best = q
    return best


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    result = d
    for m in range(1, 400):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            result *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return result


def beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_cf(b, a, 1.0 - x) / b


def harrell_davis(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of quantile ``q`` (0..1) of ``values``.

    A weighted mean of every order statistic, each weighted by the chance
    that it is the ``q`` quantile of a sample this size.  It estimates the
    same quantile as the nearest-rank value, but does not jump with the
    one observation that happens to sit at that rank.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    estimate, previous = 0.0, 0.0
    for index, value in enumerate(ordered, 1):
        upper = beta_cdf(index / n, a, b)
        estimate += (upper - previous) * value
        previous = upper
    return estimate


def latency_summary(samples_s: Sequence[float]) -> dict:
    """Median and tail (in ms) of per-operation wall times (in s)."""
    ms = [value * 1000.0 for value in samples_s]
    q = tail_percentile(len(ms))
    return {
        "p50_ms": harrell_davis(ms, 0.5),
        "tail_ms": harrell_davis(ms, q / 100.0),
        "tail_percentile": q,
        "samples": len(ms),
    }


def effect_digest(lines: Iterable[str]) -> str:
    """Order-sensitive digest of per-fault outcome lines."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]
