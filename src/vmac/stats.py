"""Burstiness metrics and summary statistics for rate series.

Peak-to-mean ratio and coefficient of variation are the two burstiness
indices; mean_and_ci produces Student-t confidence intervals over a small
number of experiment repetitions (sample standard deviation, divisor n-1).
The t quantile comes from ``scipy.special.stdtrit``, imported on the first
interval so that importing vmac does not load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import TooShort, ZeroMean


@dataclass(frozen=True)
class SeriesSummary:
    mean: float
    sample_std: float
    peak: float
    count: int


@dataclass(frozen=True)
class MeanWithCI:
    mean: float
    ci_half_width: float
    confidence: float
    reps: int


def summarize(series: Sequence[float]) -> SeriesSummary:
    if not series:
        raise TooShort("cannot summarize an empty series")
    n = len(series)
    mean = math.fsum(series) / n
    if n > 1:
        var = math.fsum((x - mean) ** 2 for x in series) / (n - 1)
        std = math.sqrt(var)
    else:
        std = 0.0
    return SeriesSummary(mean=mean, sample_std=std, peak=max(series), count=n)


def peak_to_mean(series: Sequence[float]) -> float:
    """max/mean of a series; >= 1 for non-negative series, 1 for constant.

    The same mean and peak as `summarize`, without its variance pass."""
    if not series:
        raise TooShort("cannot summarize an empty series")
    mean = math.fsum(series) / len(series)
    if mean <= 0:
        raise ZeroMean(f"peak-to-mean needs a positive mean, got {mean}")
    return max(series) / mean


def coefficient_of_variation(series: Sequence[float]) -> float:
    """Sample standard deviation divided by mean; 0 for constant series."""
    if len(series) < 2:
        raise TooShort("coefficient of variation needs at least 2 values")
    s = summarize(series)
    if s.mean <= 0:
        raise ZeroMean(f"coefficient of variation needs a positive mean, got {s.mean}")
    return s.sample_std / s.mean


def mean_and_ci(rep_values: Sequence[float], confidence: float = 0.95) -> MeanWithCI:
    """Mean of repetition values with a Student-t confidence interval.

    Half-width is t_{(1+c)/2, n-1} * sample_std / sqrt(n); it collapses to 0
    when all repetition values are equal.
    """
    n = len(rep_values)
    if n < 2:
        raise TooShort("confidence interval needs at least 2 repetitions")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    s = summarize(rep_values)
    from scipy.special import stdtrit  # the quantile behind t.ppf in scipy

    quantile = float(stdtrit(n - 1, (1.0 + confidence) / 2.0))
    half_width = quantile * s.sample_std / math.sqrt(n)
    return MeanWithCI(
        mean=s.mean, ci_half_width=half_width, confidence=confidence, reps=n
    )
