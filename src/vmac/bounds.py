"""Concentration bound on the gap between instantaneous and average rate.

For n independent flows whose per-slot rates are confined to known ranges,
the probability that the aggregate rate exceeds its windowed average by
n*epsilon is at most

    delta = exp(-2 n^2 epsilon^2 / sum_i (max_i - min_i)^2)

`empirical_exceedance` measures that probability on simulated flows so the
bound can be checked end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateRanges, InsufficientHistory
from .rate_engine import MeasurementWindow, aggregate_rate_series
from .trace_model import FlowInstance, FlowRateBounds

# exp() underflows to 0 below this exponent; we clamp instead so delta
# stays strictly positive
_MIN_EXPONENT = math.log(math.ulp(0.0)) + 1.0


@dataclass(frozen=True)
class HoeffdingQuery:
    n: int
    epsilon: float  # bits/s, per-flow deviation
    ranges: tuple[FlowRateBounds, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"flow count must be >= 1, got {self.n}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if len(self.ranges) != self.n:
            raise ValueError(
                f"expected {self.n} ranges, got {len(self.ranges)}"
            )


@dataclass(frozen=True)
class BoundResult:
    delta: float
    exponent: float
    underflow: bool = False


def hoeffding_delta(query: HoeffdingQuery) -> BoundResult:
    """Evaluate the exceedance bound for a query.

    Raises DegenerateRanges when every range has zero width (the exponent's
    denominator vanishes).
    """
    denom = sum(r.width ** 2 for r in query.ranges)
    if denom == 0.0:
        raise DegenerateRanges(
            "all flow rate ranges have zero width; the bound is undefined"
        )
    exponent = -2.0 * query.n ** 2 * query.epsilon ** 2 / denom
    if exponent < _MIN_EXPONENT:
        return BoundResult(delta=math.ulp(0.0), exponent=exponent, underflow=True)
    return BoundResult(delta=math.exp(exponent), exponent=exponent)


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
    from `window`; its end slot is resampled.  A NaN `epsilon` raises
    ValueError.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if math.isnan(epsilon):
        # every comparison with NaN is false, which would read as 0.0
        raise ValueError("epsilon must not be NaN")
    if not flows:
        raise ValueError("empirical exceedance needs at least one flow")
    w = window.length_slots
    shortest = min(len(f.trace) for f in flows)
    if shortest < w:
        raise InsufficientHistory(
            f"shortest trace has {shortest} slots, window needs {w}"
        )
    horizon = max(len(f.trace) for f in flows)
    rng = np.random.Generator(np.random.PCG64(seed))

    # rates at every valid end slot w-1 .. w-2+horizon; a pick indexes them
    inst, avg = aggregate_rate_series(flows, w, w - 1 + horizon)
    picks = rng.integers(0, horizon, size=samples)
    # each slot tested once, however often it is picked
    exceeds = inst >= avg + len(flows) * epsilon
    return int(np.count_nonzero(exceeds[picks])) / samples
