"""Instantaneous and windowed-average aggregate rates over a set of flows.

All aggregation is done in integer frame bytes and converted to bits/s at
the end, so that for constant-bitrate input the windowed average equals the
instantaneous rate bit-for-bit.  `_shared_fps` (one frame rate, so one slot
grid) and `_check_history` (a window that fits the shortest trace) are the
only copies of those rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (ByteOverflow, InsufficientHistory, MixedFps, RateOverflow,
                     WindowOutOfRange)
from .trace_model import (BITS_PER_BYTE, INT64_MAX, K, FlowInstance, VideoTrace,
                          _int_field, _int_fields)


@dataclass(frozen=True)
class MeasurementWindow:
    """Trailing window of `length_slots` frame slots ending at `end_slot`."""

    end_slot: int
    length_slots: int

    def __post_init__(self):
        _int_fields(self, "end_slot", "length_slots")
        _int_field(self.length_slots, "length_slots", least=1)
        if self.end_slot < self.length_slots - 1:
            raise WindowOutOfRange(
                f"window of {self.length_slots} slots does not fit before "
                f"end_slot {self.end_slot}"
            )

    @property
    def start_slot(self) -> int:
        return self.end_slot - self.length_slots + 1


# the low `K` bits of a sum of window table entries: the last slot's bytes
_LAST_SLOT = 2 ** K - 1

# builds a NamedTuple record as its generated `__new__` does, by
# `new_record(Record, (field, ...))` in field order, without that Python frame
new_record = tuple.__new__


class RateSample(NamedTuple):
    """Paired measurement at a decision instant: the rate of the final window
    slot and the average over the whole window, both in bits/s."""

    instantaneous: float
    average: float
    window: MeasurementWindow


def _shared_fps(traces: Sequence[VideoTrace]) -> float:
    """The one frame rate of `traces`, 0.0 for none.  Raises MixedFps naming
    the first frame rate and the first that differs from it."""
    fps = traces[0].fps if traces else 0.0
    for trace in traces:
        if trace.fps != fps:
            raise MixedFps(f"traces mix frame rates {fps} and {trace.fps}, "
                           "but a common slot grid needs one fps")
    return fps


def _check_history(traces: Sequence[VideoTrace], w: int) -> None:
    """Raises InsufficientHistory unless every trace holds a `w`-slot window."""
    shortest = min(len(t) for t in traces)
    if shortest < w:
        raise InsufficientHistory(
            f"shortest trace has {shortest} slots, window needs {w}")


def _rate_overflow(flows, fps) -> RateOverflow:
    return RateOverflow(f"a rate of {len(flows)} flows at fps={fps:g} exceeds "
                        "the largest double")


def instantaneous_aggregate_rate(flows: Sequence[FlowInstance], slot: int) -> float:
    """Sum of all flows' rates at one frame slot, in bits/s; 0 for no flows.
    Raises RateOverflow when it exceeds the largest double, and ValueError
    for a slot that is a bool or not an integer; a negative slot wraps."""
    slot = _int_field(slot, "slot")
    flows = tuple(flows)
    fps = _shared_fps([f.trace for f in flows])
    total_bytes = sum(f.trace.size_at(f.start_offset + slot) for f in flows)
    rate = total_bytes * BITS_PER_BYTE * fps
    if rate == inf:
        raise _rate_overflow(flows, fps)
    return rate


def average_aggregate_rate(
    flows: Sequence[FlowInstance], window: MeasurementWindow
) -> float:
    """Mean aggregate rate over the window's slots, in bits/s.

    Equals the time integral of the aggregate rate over the window divided
    by its duration, exactly, because rates are constant within a slot.
    Raises RateOverflow when it exceeds the largest double.
    """
    flows = tuple(flows)
    fps = _shared_fps([f.trace for f in flows])
    total_bytes = sum(
        f.trace.window_bytes(f.start_offset + window.start_slot, window.length_slots)
        for f in flows
    )
    # integer bytes summed exactly; divide before the fps multiply so the
    # CBR case reduces to the instantaneous expression bit-for-bit
    rate = total_bytes * BITS_PER_BYTE / window.length_slots * fps
    if rate == inf:
        raise _rate_overflow(flows, fps)
    return rate


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

    Each distinct trace fills once, by `fill_periodic`, a row as long as the
    series plus the longest trace; each flow adds the slots from its offset.
    Raises ByteOverflow when the flows' peak frames, summed, do not bound
    the cumsum within int64 and every window's bits within 2**53, where a
    double holds each integer exactly: beyond it the series could differ
    from `rate_sample`.  Raises RateOverflow when a rate exceeds the largest
    double, and ValueError, before any allocation, for a window under one
    slot, a negative slot count, or either of them a bool or not an integer."""
    window_slots = _int_field(window_slots, "window_slots")
    n_slots = _int_field(n_slots, "n_slots")
    if window_slots < 1 or n_slots < 0:
        raise ValueError(f"need window_slots >= 1 and n_slots >= 0, "
                         f"got {window_slots} and {n_slots}")
    flows = tuple(flows)
    fps = _shared_fps([f.trace for f in flows])
    agg = np.zeros(n_slots, dtype=np.int64)
    w = window_slots
    peak = sum(f.trace._peak for f in flows)  # bounds every slot's bytes
    if n_slots * peak > INT64_MAX or BITS_PER_BYTE * w * peak > 2 ** 53:
        raise ByteOverflow(
            f"rate series would not be exact: {len(flows)} flows of up to "
            f"{peak} bytes a slot, {n_slots} slots, {w}-slot windows")
    by_trace = {}  # each trace's sizes and flow offsets, by its identity
    for f in flows:
        by_trace.setdefault(id(f.trace), (f.trace.sizes, []))[1].append(f.start_offset)
    # one row for every trace: a row past 128 KiB maps fresh pages each time
    longest = max((len(sizes) for sizes, _ in by_trace.values()), default=0)
    row = np.empty(n_slots + longest, dtype=np.int64)
    for sizes, offsets in by_trace.values():
        row[:len(sizes)] = sizes
        fill_periodic(row, len(sizes))
        for s in offsets:
            agg += row[s:s + n_slots]
    cum = np.concatenate([[0], np.cumsum(agg)])
    try:
        with np.errstate(over="raise"):
            inst = agg[w - 1:] * BITS_PER_BYTE * fps
            avg = (cum[w:] - cum[:-w]) * BITS_PER_BYTE / w * fps
    except FloatingPointError:
        raise _rate_overflow(flows, fps) from None
    return inst, avg


def rate_sample(flows: Sequence[FlowInstance], window: MeasurementWindow) -> RateSample:
    """Measure both rates at a decision instant: the instantaneous rate at the
    window's final slot and the average over the window.

    One pass over the flows, one lookup each into the trace's window table
    (`VideoTrace.window_table`), added into one running Python int whose
    low `K` bits sum the last slot's bytes and whose high bits sum the
    window's; the sums are exact at any size, and the bytes and rates equal
    `instantaneous_aggregate_rate` and `average_aggregate_rate` exactly, for
    any window length.  Tables of one `(w, n, fps)` share one key object,
    so a flow whose table holds the key of the flow before it costs one
    identity test: its start slot is `start_offset + first % n`, taken
    once per key, which the table's 2n - 1 entries cover without a modulo.
    A trace keeps one table, for the last window length sampled: the first
    sample of a trace, or of another length, builds one (about 0.5 ms for
    3 000 frames).  Raises RateOverflow, as they do, when a rate exceeds
    the largest double.
    """
    fps = flows[0].trace.fps if flows else 0.0
    w = window.length_slots
    first = window.end_slot - w + 1
    total = 0
    key = None
    for f in flows:
        tkey, packed = f.trace._window
        if tkey is not key:
            tw, n, tfps = tkey
            if tfps != fps:
                _shared_fps([f.trace for f in flows])  # raises MixedFps
            if tw != w:
                tkey, packed = f.trace.window_table(w)
            key, first_mod = tkey, first % n
        total += packed[f.start_offset + first_mod]
    inst = (total & _LAST_SLOT) * BITS_PER_BYTE * fps
    avg = (total >> K) * BITS_PER_BYTE / w * fps
    if inst == inf or avg == inf:
        raise _rate_overflow(flows, fps)
    return new_record(RateSample, (inst, avg, window))
