"""FIT-rate arithmetic and counting statistics for beam campaigns."""

from __future__ import annotations

import math
import random

from repro.beam.facility import JESD89A_NYC_FLUX
from repro.errors import ConfigurationError
from repro.injection.sampling import Z_SCORES


def fit_rate(errors: int | float, fluence: float, nyc_flux: float = JESD89A_NYC_FLUX) -> float:
    """FIT (failures per 1e9 device-hours) from an error count and fluence.

    ``cross_section = errors / fluence`` (cm^2); scaling by the reference
    terrestrial flux gives the expected field error rate.
    """
    if fluence <= 0:
        raise ConfigurationError("fluence must be positive")
    return errors / fluence * nyc_flux * 1e9


def poisson_interval_normal(
    count: int, confidence: float = 0.95
) -> tuple[float, float]:
    """Normal-approximation Poisson interval (the scipy-less fallback).

    The z-score comes from :data:`repro.injection.sampling.Z_SCORES` (one
    shared table for the whole code base), and ``count == 0`` - where the
    normal approximation degenerates to a zero-width interval - uses the
    exact Garwood bounds, which reduce to ``(0, -ln(alpha / 2))``.
    """
    if count < 0:
        raise ConfigurationError("count must be non-negative")
    alpha = 1.0 - confidence
    if count == 0:
        return 0.0, -math.log(alpha / 2.0)
    try:
        z = Z_SCORES[confidence]
    except KeyError:
        known = ", ".join(str(c) for c in Z_SCORES)
        raise ConfigurationError(
            f"confidence {confidence} needs scipy; without it only "
            f"{known} are supported"
        ) from None
    spread = z * math.sqrt(count)
    return max(0.0, count - spread), count + spread


def poisson_interval(count: int, confidence: float = 0.95) -> tuple[float, float]:
    """Exact two-sided confidence interval for a Poisson count.

    Uses the chi-squared relation (Garwood interval); falls back to
    :func:`poisson_interval_normal` if scipy is unavailable.
    """
    if count < 0:
        raise ConfigurationError("count must be non-negative")
    alpha = 1.0 - confidence
    try:
        from scipy.stats import chi2
    except ImportError:
        return poisson_interval_normal(count, confidence)
    lower = 0.0 if count == 0 else chi2.ppf(alpha / 2, 2 * count) / 2.0
    upper = chi2.ppf(1 - alpha / 2, 2 * (count + 1)) / 2.0
    return float(lower), float(upper)


def sample_poisson(rng: random.Random, mean: float) -> int:
    """Draw a Poisson variate (Knuth for small means, normal for large)."""
    if not math.isfinite(mean):
        raise ConfigurationError(f"mean must be finite, got {mean!r}")
    if mean < 0:
        raise ConfigurationError("mean must be non-negative")
    if mean == 0:
        return 0
    if mean < 30.0:
        limit = math.exp(-mean)
        count = 0
        product = rng.random()
        while product > limit:
            count += 1
            product *= rng.random()
        return count
    return max(0, int(round(rng.gauss(mean, math.sqrt(mean)))))
