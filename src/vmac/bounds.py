"""Concentration bound on the gap between instantaneous and average rate.

For n independent flows whose per-slot rates are confined to known ranges,
the probability that the aggregate rate exceeds its windowed average by
n*epsilon is at most

    delta = exp(-2 n^2 epsilon^2 / sum_i (max_i - min_i)^2)

The exponent is computed as written wherever epsilon's square and every
nonzero width's square are normal doubles and the result is finite;
elsewhere epsilon and the widths are first scaled by a power of two.
`empirical_exceedance` measures that probability on simulated flows so the
bound can be checked end to end.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateRanges
from .rate_engine import MeasurementWindow, _check_history, aggregate_rate_series
from .trace_model import (FlowInstance, FlowRateBounds, _instance, _int_field, _is_real,
                          _positive_real, _rng)

# exp() underflows to 0 below this exponent; we clamp instead so delta
# stays strictly positive
_MIN_EXPONENT = math.log(math.ulp(0.0)) + 1.0
# a square below the smallest normal double has lost precision
_MIN_NORMAL = sys.float_info.min


@dataclass(frozen=True)
class HoeffdingQuery:
    n: int
    epsilon: float  # bits/s, per-flow deviation
    ranges: tuple[FlowRateBounds, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", _int_field(self.n, "flow count", least=1))
        _positive_real(self.epsilon, "epsilon")
        try:
            ranges = tuple(self.ranges)
        except TypeError:
            raise ValueError(f"ranges must be an iterable, got {self.ranges!r}") from None
        object.__setattr__(self, "ranges", ranges)
        if len(ranges) != self.n:
            raise ValueError(f"expected {self.n} ranges, got {len(ranges)}")
        for r in ranges:
            _instance(r, FlowRateBounds, "a range must be FlowRateBounds")


class BoundResult(NamedTuple):
    delta: float
    exponent: float
    underflow: bool = False


def hoeffding_delta(query: HoeffdingQuery) -> BoundResult:
    """Evaluate the exceedance bound for a query.

    The exponent is the formula as written where it is finite and the squares
    of epsilon and of each nonzero width are normal doubles; elsewhere it is
    the scaled form of `_exponent`.

    Raises DegenerateRanges when every range has zero width (the exponent's
    denominator vanishes).
    """
    exponent = _exponent(query.n, query.epsilon, [r.width for r in query.ranges])
    if exponent < _MIN_EXPONENT:
        return BoundResult(delta=math.ulp(0.0), exponent=exponent, underflow=True)
    return BoundResult(delta=math.exp(exponent), exponent=exponent)


def _exponent(n: int, epsilon: float, widths: list[float]) -> float:
    """-2 n^2 epsilon^2 / sum(widths^2), as written where that is finite and
    the squares of epsilon and of each nonzero width are normal doubles.
    Elsewhere epsilon and the widths are first scaled by the power of two
    that brings the widest into [0.5, 1), keeping their ratio; only there,
    since a scaled ``x ** 2`` can round apart from the scaled square of `x`.
    An infinite width gives -0.0, and an exponent past the doubles -inf."""
    try:
        # a zero width's square is +0.0, which leaves the sum as it is
        squares = [x ** 2 for x in (epsilon, *widths) if x]
        exponent = -2.0 * n ** 2 * squares[0] / sum(squares[1:])
        if math.isfinite(exponent) and min(squares) >= _MIN_NORMAL:
            return exponent
    except (OverflowError, ZeroDivisionError):
        pass  # a square left the double range, or every width is 0
    widest = max(widths)
    if widest == 0.0:
        raise DegenerateRanges(
            "all flow rate ranges have zero width; the bound is undefined"
        )
    if widest == math.inf:
        return -0.0
    shift = -math.frexp(widest)[1]
    denom = sum(math.ldexp(w, shift) ** 2 for w in widths)
    try:
        # divided first: denom < n, so -2 n^2 times the scaled square could
        # overflow where the exponent does not
        return -2.0 * n ** 2 * (math.ldexp(epsilon, shift) ** 2 / denom)
    except OverflowError:
        return -math.inf


def empirical_exceedance(
    flows: Sequence[FlowInstance],
    window: MeasurementWindow,
    epsilon: float,
    samples: int,
    seed: int,
) -> float:
    """Fraction of random decision instants where the instantaneous aggregate
    rate is at least the windowed average plus n*epsilon (ties count).

    Decision instants are drawn uniformly over one full period of valid end
    slots, deterministically per seed.  Only the window's length is taken
    from `window`; its end slot is resampled.  An `epsilon` that is NaN, a
    bool or not real, and `samples` under 1 and `seed` under 0, a bool or
    not an integer, raise ValueError;
    flows whose `aggregate_rate_series` would not be exact raise
    ByteOverflow, and flows whose rates exceed the largest double RateOverflow.
    """
    samples = _int_field(samples, "samples", least=1)
    rng = _rng(seed)
    if not _is_real(epsilon):
        raise ValueError(f"epsilon must be a real number, got {epsilon!r}")
    if math.isnan(epsilon):
        # every comparison with NaN is false, which would read as 0.0
        raise ValueError("epsilon must not be NaN")
    flows = tuple(flows)
    if not flows:
        raise ValueError("empirical exceedance needs at least one flow")
    w = window.length_slots
    _check_history([f.trace for f in flows], w)
    horizon = max(len(f.trace) for f in flows)

    # rates at every valid end slot w-1 .. w-2+horizon; a pick indexes them
    inst, avg = aggregate_rate_series(flows, w, w - 1 + horizon)
    picks = rng.integers(0, horizon, size=samples)
    # each slot tested once, however often it is picked
    exceeds = inst >= avg + len(flows) * epsilon
    return int(np.count_nonzero(exceeds[picks])) / samples
