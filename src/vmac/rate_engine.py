"""Instantaneous and windowed-average aggregate rates over a set of flows.

All aggregation is done in integer frame bytes and converted to bits/s at
the end, so that for constant-bitrate input the windowed average equals the
instantaneous rate bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import MixedFps, WindowOutOfRange
from .trace_model import BITS_PER_BYTE, FlowInstance


@dataclass(frozen=True)
class MeasurementWindow:
    """Trailing window of `length_slots` frame slots ending at `end_slot`."""

    end_slot: int
    length_slots: int

    def __post_init__(self):
        if self.length_slots < 1:
            raise ValueError(f"length_slots must be >= 1, got {self.length_slots}")
        if self.end_slot < self.length_slots - 1:
            raise WindowOutOfRange(
                f"window of {self.length_slots} slots does not fit before "
                f"end_slot {self.end_slot}"
            )

    @property
    def start_slot(self) -> int:
        return self.end_slot - self.length_slots + 1


class RateSample(NamedTuple):
    """Paired measurement at a decision instant: the rate of the final window
    slot and the average over the whole window, both in bits/s."""

    instantaneous: float
    average: float
    window: MeasurementWindow


def _shared_fps(flows: Sequence[FlowInstance]) -> float:
    fps = flows[0].trace.fps
    for flow in flows[1:]:
        if flow.trace.fps != fps:
            raise MixedFps(
                f"flows mix frame rates {fps} and {flow.trace.fps}; "
                "a common slot grid requires one fps"
            )
    return fps


def instantaneous_aggregate_rate(flows: Sequence[FlowInstance], slot: int) -> float:
    """Sum of all flows' rates at one frame slot, in bits/s; 0 for no flows."""
    if not flows:
        return 0.0
    fps = _shared_fps(flows)
    total_bytes = sum(f.trace.size_at(f.start_offset + slot) for f in flows)
    return total_bytes * BITS_PER_BYTE * fps


def average_aggregate_rate(
    flows: Sequence[FlowInstance], window: MeasurementWindow
) -> float:
    """Mean aggregate rate over the window's slots, in bits/s.

    Equals the time integral of the aggregate rate over the window divided
    by its duration, exactly, because rates are constant within a slot.
    """
    if not flows:
        return 0.0
    fps = _shared_fps(flows)
    total_bytes = sum(
        f.trace.window_bytes(f.start_offset + window.start_slot, window.length_slots)
        for f in flows
    )
    # integer bytes summed exactly; divide before the fps multiply so the
    # CBR case reduces to the instantaneous expression bit-for-bit
    return total_bytes * BITS_PER_BYTE / window.length_slots * fps


def fill_periodic(row: np.ndarray, m: int) -> None:
    """Repeat `row[:m]`, which holds whole periods, to the end of `row` in
    place, by O(log(len(row) / m)) doubling copies of the row's own head."""
    while m < len(row):
        k = min(m, len(row) - m)
        row[m:m + k] = row[:k]
        m += k


def aggregate_rate_series(
    flows: Sequence[FlowInstance], window_slots: int, n_slots: int
) -> tuple[np.ndarray, np.ndarray]:
    """Both aggregate rates, in bits/s, at every end slot from
    ``window_slots - 1`` to ``n_slots - 1``: what `rate_sample` gives there,
    from one integer cumsum of the summed per-slot bytes; zeros for no flows.

    Each flow's bytes go into one reused row as one wrapped period from its
    offset, which `fill_periodic` repeats to the row's end; no index vector."""
    fps = _shared_fps(flows) if flows else 0.0
    agg = np.zeros(n_slots, dtype=np.int64)
    row = np.empty(n_slots, dtype=np.int64)
    for f in flows:
        sizes, s = f.trace.sizes, f.start_offset
        m = min(n_slots, len(sizes))
        head = min(m, len(sizes) - s)
        row[:head] = sizes[s:s + head]
        row[head:m] = sizes[:m - head]
        fill_periodic(row, m)
        agg += row
    cum = np.concatenate([[0], np.cumsum(agg)])
    w = window_slots
    inst = agg[w - 1:] * BITS_PER_BYTE * fps
    avg = (cum[w:] - cum[:-w]) * BITS_PER_BYTE / w * fps
    return inst, avg


def rate_sample(flows: Sequence[FlowInstance], window: MeasurementWindow) -> RateSample:
    """Measure both rates at a decision instant: the instantaneous rate at the
    window's final slot and the average over the window.

    One pass over the flows, three lookups each into the trace's doubled
    prefix sum, read as the tuple of ints that `VideoTrace.cum2_ints` builds
    on a trace's first sample; the bytes and rates equal
    `instantaneous_aggregate_rate` and `average_aggregate_rate` exactly, for
    any window length.
    """
    fps = flows[0].trace.fps if flows else 0.0
    w = window.length_slots
    first = window.start_slot
    inst = win = size = 0
    for f in flows:
        trace = f.trace
        if trace.fps != fps:
            _shared_fps(flows)  # raises MixedFps
        c = trace._cum2_ints
        if c is None:
            c = trace.cum2_ints()
        if len(c) != size:  # a new trace length: 2n + 1 prefix sums
            size = len(c)
            n = size >> 1
            # the window is `whole` full periods plus `stop` slots from s
            whole, last = divmod(w - 1, n)
            stop = last + 1
        s = (f.start_offset + first) % n
        hi = c[s + stop]
        if whole:
            win += whole * c[n]
        win += hi - c[s]
        inst += hi - c[s + last]
    # positional: building a NamedTuple by keyword is slower
    return RateSample(inst * BITS_PER_BYTE * fps, win * BITS_PER_BYTE / w * fps,
                      window)
