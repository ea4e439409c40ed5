"""Burstiness metrics and summary statistics for rate series.

Peak-to-mean ratio and coefficient of variation are the two burstiness
indices; mean_and_ci produces Student-t confidence intervals over a small
number of experiment repetitions (sample standard deviation, divisor n-1).
Each reads a sequence of numbers or a float64 array as float64 values, with
the same results, through one mean, `_mean_and_std`, and one peak, `_peak`.

`summarize` forms its squared deviations in numpy with
``np.float_power(d, 2.0)``: its float64 loop calls libm ``pow(d, 2.0)``, as
Python's ``d ** 2`` does, so the two agree bit for bit (tests/test_stats.py
pins it on 10^6 seeded doubles).  ``np.square``, ``x * x`` and ``np.power``
do not qualify.  On 10^6 seeded doubles of both signs and magnitudes 1e-160
to 1e160 (numpy 2.4.6 with AVX2 loops, glibc, x86-64), each of the three
rounds 856 squares differently from ``x ** 2``; ``np.power``, whose AVX-512
loop is SVML's, rounded 27 280 differently on an AVX-512 host.  The peak
is numpy's ``max`` unless a NaN, an inf or a ±0.0 peak needs Python's.

Both sums equal `math.fsum`'s bit for bit, but from `_FSUM_CUTOFF` values
on they are formed by `_fsum`'s error-free extraction: a few whole-array
numpy passes, each splitting off the high bits of every value into an
exact sum, and `math.fsum` over those few sums and whatever the last pass
leaves.  Shorter series, such as the repetitions of `mean_and_ci`, and
series whose largest magnitude is 0, NaN, inf or too near the top of the
double range for the passes are summed by `math.fsum` itself, so every
NaN, inf, signed zero and SeriesOverflow stays as fsum gives it.

The t quantile comes from ``scipy.special.stdtrit``: at 95 % confidence and
1 to 60 degrees of freedom it is read from a table of its values, and any
other interval imports scipy on its first call, so that neither importing
vmac nor a default interval loads scipy.
"""

from __future__ import annotations

import math
from numbers import Real
from typing import NamedTuple, Sequence

import numpy as np

from .errors import SeriesOverflow, TooShort, ZeroMean


# float(stdtrit(df, (1.0 + 0.95) / 2.0)) for df 1..60, each the repr of the
# value scipy returns, so a lookup is bit-identical to the call it replaces
_T_QUANTILE_95 = {
    1: 12.706204736174694, 2: 4.302652729749462, 3: 3.1824463052837078,
    4: 2.7764451051977934, 5: 2.5705818356363146, 6: 2.4469118511449786,
    7: 2.364624251592784, 8: 2.306004135204166, 9: 2.262157162798205,
    10: 2.228138851986274, 11: 2.200985160091639, 12: 2.1788128296672284,
    13: 2.1603686564627913, 14: 2.144786687917804, 15: 2.131449545559776,
    16: 2.1199052992212546, 17: 2.1098155778333156, 18: 2.1009220402410382,
    19: 2.0930240544083087, 20: 2.085963447265864, 21: 2.0796138447276795,
    22: 2.0738730679040254, 23: 2.0686576104190486, 24: 2.0638985616280245,
    25: 2.0595385527532972, 26: 2.0555294386428735, 27: 2.0518305164802846,
    28: 2.0484071417952454, 29: 2.045229642132703, 30: 2.0422724563012378,
    31: 2.039513446396408, 32: 2.0369333434601016, 33: 2.0345152974493383,
    34: 2.0322445093177186, 35: 2.030107928250343, 36: 2.0280940009804502,
    37: 2.0261924630291093, 38: 2.0243941639119694, 39: 2.022690920036761,
    40: 2.021075390306273, 41: 2.019540970441376, 42: 2.0180817028184443,
    43: 2.016692199227824, 44: 2.0153675744437636, 45: 2.014103388880846,
    46: 2.012895598919429, 47: 2.0117405137297655, 48: 2.010634757624232,
    49: 2.0095752371292392, 50: 2.008559112100761, 51: 2.007583770315836,
    52: 2.006646805061688, 53: 2.0057459953178687, 54: 2.0048792881880564,
    55: 2.0040447832891455, 56: 2.003240718847872, 57: 2.002465459291007,
    58: 2.0017174841452356, 59: 2.000995378088267, 60: 2.0002978220142604,
}


# below this length `math.fsum` beats the extraction passes of `_fsum`
_FSUM_CUTOFF = 500
# extraction passes before `_fsum` hands what is left to `math.fsum`
_FSUM_PASSES = 3


def _fsum(values: np.ndarray, overwrite: bool = False) -> float:
    """`math.fsum` of a 1-D float64 array, bit for bit, in whole-array passes.

    Error-free extraction (Rump, Ogita and Oishi, "Accurate Floating-Point
    Summation", SIAM J. Sci. Comput. 31(1), 2008): with 2**m >= n + 2 and
    every |p| < 2**e, sigma = 2**(m + e) splits each p into q = (p + sigma) -
    sigma and p - q, both exact; each q is a multiple of 2**-53 * sigma and
    their magnitudes sum below sigma, so numpy sums them exactly in any
    order.  Each pass lowers sigma by 2**(m - 53).  The exact pass sums and
    whatever is left after `_FSUM_PASSES` go to `math.fsum`, which rounds
    their exact total as it would round the values'.  Short arrays, a
    largest magnitude of 0, NaN or inf, and one of 2**(1020 - m) or more
    (where sigma could overflow) go to `math.fsum` whole, with its result
    or error.  `overwrite` lets the passes work in `values` itself."""
    n = len(values)
    if n < _FSUM_CUTOFF:
        return math.fsum(values.data)
    q = np.abs(values)  # also the buffer of every pass's q
    top = float(q.max())
    m = (n + 1).bit_length()
    if not 0.0 < top < 2.0 ** (1020 - m):
        return math.fsum(values.data)
    sigma = 2.0 ** (m + math.frexp(top)[1])
    p = values if overwrite else values.copy()
    parts = []
    for _ in range(_FSUM_PASSES):
        np.add(p, sigma, out=q)
        q -= sigma
        p -= q
        parts.append(float(q.sum()))
        if not p.any():
            return math.fsum(parts)
        sigma *= 2.0 ** (m - 53)
    return math.fsum(parts + p[p != 0].tolist())


class SeriesSummary(NamedTuple):
    mean: float
    sample_std: float
    peak: float
    count: int


class MeanWithCI(NamedTuple):
    mean: float
    ci_half_width: float
    confidence: float
    reps: int


def _mean_and_std(series: Sequence[float],
                  with_std=True) -> tuple[np.ndarray, float, float]:
    """A series as float64 values, their mean and sample standard deviation
    (0.0 if not `with_std`).  Raises SeriesOverflow when its sum, a deviation
    or a squared deviation leaves the double range, which `math.fsum` signals
    with OverflowError and numpy, under ``over="raise"``, FloatingPointError."""
    n = len(series)
    if not n:
        raise TooShort("cannot summarize an empty series")
    try:
        values = np.asarray(series, dtype=np.float64)
        # 2-D input keeps fsum's TypeError
        mean = (_fsum(values) if values.ndim == 1 else math.fsum(values.tolist())) / n
        std = 0.0
        if with_std and n > 1:
            # float_power is libm pow(d, 2.0), as d ** 2 is; np.power and
            # np.square round some squares differently (see the module note)
            with np.errstate(all="ignore", over="raise"):
                squares = np.float_power(values - mean, 2.0)
            std = math.sqrt(_fsum(squares, overwrite=True) / (n - 1))
    except (OverflowError, FloatingPointError) as exc:
        raise SeriesOverflow(n) from exc
    return values, mean, std


def _peak(values: np.ndarray, mean: float) -> float:
    """Python's max of `values`: numpy's unless `mean` is not finite or the max ±0.0."""
    peak = float(values.max()) if math.isfinite(mean) else 0.0
    return peak or max(values.data)


def summarize(series: Sequence[float]) -> SeriesSummary:
    """Mean, sample standard deviation, peak and count of a series."""
    values, mean, std = _mean_and_std(series)
    return SeriesSummary(mean, std, _peak(values, mean), len(series))


def _over_mean(value: float, mean: float, metric: str) -> float:
    if mean <= 0:
        raise ZeroMean(f"{metric} needs a positive mean, got {mean}")
    return value / mean


def _check_two_values(count: int) -> None:
    if count < 2:
        raise TooShort("coefficient of variation needs at least 2 values")


def _check_confidence(confidence: float) -> None:
    """Refuse a confidence that is not a real in (0, 1), or so close to 1 that
    (1 + c) / 2 rounds to 1, whose t quantile is infinite.  Raises ValueError."""
    if not (isinstance(confidence, Real) and 0.0 < confidence
            and (1.0 + confidence) / 2.0 < 1.0):
        raise ValueError(f"confidence must be in (0, 1), with (1 + c) / 2 "
                         f"below 1, got {confidence!r}")


def peak_to_mean(series: Sequence[float]) -> float:
    """max/mean of a series; >= 1 for non-negative series, 1 for constant.

    `summarize`'s mean and peak, without its variance pass or that pass's errors."""
    values, mean, _ = _mean_and_std(series, with_std=False)
    return _over_mean(_peak(values, mean), mean, "peak-to-mean")


def coefficient_of_variation(series: Sequence[float]) -> float:
    """Sample standard deviation divided by mean; 0 for constant series."""
    _check_two_values(len(series))
    _, mean, std = _mean_and_std(series)
    return _over_mean(std, mean, "coefficient of variation")


def peak_to_mean_and_cov(series: Sequence[float]) -> tuple[float, float]:
    """`peak_to_mean` and `coefficient_of_variation` of one series from one
    `summarize`: the same values, and the error the first of the two calls
    to fail would raise."""
    s = summarize(series)
    pmr = _over_mean(s.peak, s.mean, "peak-to-mean")
    _check_two_values(s.count)
    return pmr, s.sample_std / s.mean


def mean_and_ci(rep_values: Sequence[float], confidence: float = 0.95) -> MeanWithCI:
    """Mean of repetition values with a Student-t confidence interval.

    Half-width is t_{(1+c)/2, n-1} * sample_std / sqrt(n); it collapses to 0
    when all repetition values are equal.
    """
    n = len(rep_values)
    if n < 2:
        raise TooShort("confidence interval needs at least 2 repetitions")
    _check_confidence(confidence)
    _, mean, std = _mean_and_std(rep_values)
    quantile = _T_QUANTILE_95.get(n - 1) if confidence == 0.95 else None
    if quantile is None:
        try:
            from scipy.special import stdtrit  # the quantile behind t.ppf in scipy
        except ImportError as exc:
            raise ImportError(f"a {confidence:g} confidence interval over {n} "
                              f"repetitions needs scipy (pip install scipy): "
                              f"{exc}") from exc
        quantile = float(stdtrit(n - 1, (1.0 + confidence) / 2.0))
    return MeanWithCI(mean, quantile * std / math.sqrt(n), confidence, n)
