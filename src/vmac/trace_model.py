"""Frame-size traces, rate lookup, the gap D and a bounded synthetic trace.

A trace is a sequence of frame sizes at a fixed frame rate.  Time is
discretized in frame slots of duration 1/fps and the rate within a slot is
constant: rate of frame k = size_bytes * 8 * fps (bits/s).  A flow is a
trace plus a start offset; slot lookups wrap modulo the trace length, so a
flow can run indefinitely.

Trace file format (plain text, one frame per line):

    # fps=30
    # class=news
    0 I 12000
    1 P 4000

Lines are either ``<size_bytes>`` or ``<index> <type-char> <size_bytes>``;
a 1-column line's index is its frame's ordinal, and a type other than I, P
or B is unknown.  Indices must increase strictly.  A line whose first
non-blank character is ``#`` is a comment; the optional ``# fps=`` and
``# class=`` directives set the frame rate and content class, with or
without spaces around the ``=``.

A parsed trace is held as columns: `VideoTrace.sizes`, `.frame_types` and
`.indices`.  Every vmac setting is checked by one of two rules, each written
once here: `_int_field` (an integer, at least a given value) and
`_positive_real` (a rate or frame rate).  Every random stream is `_rng(seed)`,
PCG64 of a seed checked as an integer >= 0, and a content class must be a
`ContentClass` member (`_content_class`).

The gap D = window bytes - w * last-slot bytes, per start slot of a trace,
is formed once, by `_gaps`, from the trace's doubled prefix sum `_cum2`,
which no other module reads.  The bursty on/off generator behind the
bundled traces lives in `scripts/generate_traces.py`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from itertools import repeat
from numbers import Real
from operator import add, index, length_hint, lshift
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (BoundsTooTight, ByteOverflow, EmptyTrace, MalformedLine,
                     MissingFps, RateOverflow)

BITS_PER_BYTE = 8
MBPS = 1_000_000.0
INT64_MAX = 2 ** 63 - 1
# a window table entry is window bytes << K plus last-slot bytes: a frame is
# below 2**62, so the last-slot bytes of under 2**34 flows sum below 2**K
K = 96


# one key object per window table shape `(w, n, fps)` ever built, so that
# `rate_sample` tells tables of one shape apart by identity alone
_KEYS: dict = {}

_TYPE_CHARS = "IPB?"
_BOOLS = frozenset((bool, np.bool_))


class ContentClass(enum.Enum):
    NEWS = "news"
    SPORTS = "sports"
    MOVIE = "movie"
    DEMO = "demo"
    UNKNOWN = "unknown"


def _int64_column(values, trace_id, name) -> np.ndarray:
    """`values` as a new int64 array: an integer array is range-checked and
    cast at once, anything else checked value by value.  Raises ValueError
    naming the trace unless every value is an integer (a bool is not), and
    OverflowError for one beyond int64."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        if values.size and values.dtype.kind == "u" and values.max() > INT64_MAX:
            raise OverflowError(name)
        return values.astype(np.int64)
    column = np.asarray(values, dtype=object)
    for v in column.flat:
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
            raise ValueError(f"trace {trace_id}: {name} must be integers, "
                             f"got {type(v).__name__} {v!r}")
    return column.astype(np.int64)


def _int_field(value, name: str, least=None) -> int:
    """`value` as a Python int.  Raises ValueError naming the field for a
    bool, for anything `operator.index` refuses, such as a float, and for a
    value below `least` where that is given."""
    if type(value) is not int:
        try:
            if type(value) in _BOOLS:
                raise TypeError(name)
            value = index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got "
                             f"{type(value).__name__} {value!r}") from None
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _positive_real(value, name: str):
    """`value` if it is a real number above 0 and below inf.  Raises ValueError
    naming the field for a bool, a non-number, zero, a negative, inf or NaN."""
    if isinstance(value, Real) and type(value) is not bool and 0 < value < math.inf:
        return value
    raise ValueError(f"{name} must be a positive real, got {value!r}")


def _content_class(value) -> ContentClass:
    """`value` if it is a `ContentClass` member; raises ValueError otherwise,
    for a class name too."""
    if isinstance(value, ContentClass):
        return value
    raise ValueError(f"content class must be a ContentClass, got "
                     f"{type(value).__name__} {value!r}")


def _rng(seed) -> np.random.Generator:
    """The PCG64 stream of `seed`, which must be an integer >= 0."""
    return np.random.Generator(np.random.PCG64(_int_field(seed, "seed", least=0)))


def _synth_stream(length, seed, fps) -> tuple[int, np.random.Generator, float]:
    """A generator's `length` (>= 1), `seed`'s stream and 8 * `fps` (a positive real)."""
    length = _int_field(length, "length")
    if length < 1:
        raise ValueError(f"length must be positive, got {length}")
    return length, _rng(seed), BITS_PER_BYTE * _positive_real(fps, "fps")


def _int_fields(record, *names: str) -> None:
    """Store each field `names` of the frozen dataclass `record` that is not
    exactly an int as `_int_field` gives it, with its ValueError."""
    for name in names:
        value = getattr(record, name)
        if type(value) is not int:
            object.__setattr__(record, name, _int_field(value, name))


@dataclass(frozen=True, eq=False)
class VideoTrace:
    """Immutable parsed trace, held as columns; shareable across threads.

    `sizes` (bytes per frame) and `indices` are read-only int64 arrays,
    copied from integers of any type: a float, bool or string among them
    raises ValueError, rather than being truncated.  An integer array is
    cast at once; a column given as a sequence is checked value by value.
    `frame_types` holds one character of "IPB?" per frame.  Without
    `indices` the frames are numbered 0, 1, 2, ...; without `frame_types`
    every type is unknown ("?").  Equality and hashing are by value; a copy
    or an unpickled trace is rebuilt from the columns.

    `__post_init__` also sets three attributes that are not dataclass
    fields, so `fields`, `asdict` and `astuple` never see them: `_cum2`, the
    doubled prefix sum of `sizes` for O(1) wrapped window sums, as the
    read-only int64 array from which `_gaps` forms D; `_window`, the
    window table `(key, packed)` that `window_table` builds for the last
    window length sampled, from which `rate_sample` reads one int per flow
    (`((0, n, fps), ())` until the first sample); and `_peak`, the largest
    frame size as a Python int, from which every int64 byte sum over the
    trace is bounded.  None of them is part of equality, hash, repr or
    pickle, so a trace that has a table behaves as one that has not.
    """

    id: str
    sizes: np.ndarray = field(repr=False)
    fps: float
    content_class: ContentClass = ContentClass.UNKNOWN
    frame_types: Optional[str] = field(default=None, repr=False)
    indices: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        try:
            sizes = _int64_column(self.sizes, self.id, "frame sizes")
        except OverflowError:
            raise ByteOverflow(f"trace {self.id}: a frame size exceeds int64") from None
        if sizes.ndim != 1:
            raise ValueError(f"trace {self.id}: sizes must be one-dimensional")
        n = len(sizes)
        if n == 0:
            raise EmptyTrace(self.id)
        _positive_real(self.fps, "fps")
        _content_class(self.content_class)
        frame_types = "?" * n if self.frame_types is None else "".join(self.frame_types)
        if len(frame_types) != n or not set(frame_types).issubset(_TYPE_CHARS):
            raise ValueError(
                f"trace {self.id}: need one frame type of 'IPB?' per frame"
            )
        if self.indices is None:
            indices = np.arange(n, dtype=np.int64)
        else:
            try:
                indices = _int64_column(self.indices, self.id, "frame indices")
            except OverflowError:
                raise ValueError(
                    f"trace {self.id}: a frame index exceeds int64"
                ) from None
            if indices.shape != sizes.shape:
                raise ValueError(f"trace {self.id}: need one index per frame")
        if indices[0] < 0 or (indices[1:] <= indices[:-1]).any():
            raise ValueError(
                f"trace {self.id}: frame indices must be >= 0 and strictly increasing"
            )
        if sizes.min() < 0:
            raise ValueError(f"trace {self.id}: frame sizes must be >= 0")
        peak = int(sizes.max())
        # the exact Python sum only runs when the cheap bound cannot rule
        # out a doubled byte total beyond int64
        if peak > INT64_MAX // (2 * n) and 2 * sum(sizes.tolist()) > INT64_MAX:
            raise ByteOverflow(f"trace {self.id}: window sums would exceed int64")
        cum2 = np.zeros(2 * n + 1, dtype=np.int64)
        np.cumsum(np.concatenate([sizes, sizes]), out=cum2[1:])
        for column in (sizes, indices, cum2):
            column.flags.writeable = False
        for name, value in (
            ("sizes", sizes), ("indices", indices), ("_cum2", cum2),
            ("_window", ((0, n, self.fps), ())), ("_peak", peak),
            ("frame_types", frame_types),
        ):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return VideoTrace, (
            self.id, self.sizes, self.fps, self.content_class,
            self.frame_types, self.indices,
        )

    def __eq__(self, other):
        if not isinstance(other, VideoTrace):
            return NotImplemented
        return (
            (self.id, self.fps, self.content_class, self.frame_types)
            == (other.id, other.fps, other.content_class, other.frame_types)
            and np.array_equal(self.sizes, other.sizes)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self):
        return hash((
            self.id, self.fps, self.content_class, self.frame_types,
            self.sizes.tobytes(), self.indices.tobytes(),
        ))

    def window_table(self, w: int) -> tuple:
        """`(key, packed)`: `key` is `(w, n, fps)`, one object for every table
        of equal `(w, n, fps)`; `packed` holds, for each start slot s in
        [0, n), the bytes of the w slots from s, whole periods included,
        shifted left by `K`, plus the bytes of the last of them, as one
        Python int, and then its first n - 1 entries again, so start slots
        up to 2n - 2 need no modulo.  Built on the first call with a new `w`
        (about 0.5 ms and 56 bytes a frame for 3 000 frames) and kept until
        a call with another `w` replaces it: one table per trace.  A racing
        thread gets the table for its own w."""
        table = self._window
        if table[0][0] != w:
            n, c = len(self.sizes), self._cum2
            whole, rem = divmod(w, n)
            j = (w - 1) % n  # the last slot's offset from the window start
            win = map(add, (c[rem:rem + n] - c[:n]).tolist(), repeat(whole * int(c[n])))
            last = self.sizes[j:].tolist() + self.sizes[:j].tolist()
            packed = tuple(map(add, map(lshift, win, repeat(K)), last))
            key = (w, n, self.fps)
            table = (_KEYS.setdefault(key, key), packed + packed[:n - 1])
            object.__setattr__(self, "_window", table)
        return table

    def __len__(self) -> int:
        return len(self.sizes)

    def size_at(self, slot: int) -> int:
        """Byte size of the frame occupying `slot` (wrapping)."""
        return int(self.sizes[slot % len(self.sizes)])

    def window_bytes(self, start_slot: int, count: int) -> int:
        """Sum of frame sizes over `count` consecutive slots from `start_slot`,
        wrapping modulo the trace length: whole periods of the trace total
        plus the wrapped remainder, summed from `sizes` without the prefix
        sum."""
        n = len(self.sizes)
        whole, rem = divmod(count, n)
        start = start_slot % n
        end = start + rem
        total = whole * sum(self.sizes.tolist()) if whole else 0
        return (total + sum(self.sizes[start:end].tolist())
                + sum(self.sizes[:max(0, end - n)].tolist()))

    def summary_rates(self) -> tuple[float, float, float]:
        """(min, mean, peak) slot rate in bits/s.  Raises RateOverflow when
        one exceeds the largest double."""
        # bytes times 8, then fps: a zero frame gives 0 even where 8 * fps
        # would be inf, and elsewhere the product is the same double
        rates = (
            float(self.sizes.min()) * BITS_PER_BYTE * self.fps,
            float(self.sizes.mean()) * BITS_PER_BYTE * self.fps,
            float(self.sizes.max()) * BITS_PER_BYTE * self.fps,
        )
        if math.inf in rates:
            raise RateOverflow(f"trace {self.id}: a rate at fps={self.fps:g} "
                               "exceeds the largest double")
        return rates


def _gaps(trace: VideoTrace, w: int, out: np.ndarray) -> np.ndarray:
    """Write into the int64 `out`, of length L, and return the gap D =
    window bytes - w * last-slot bytes of the `w`-slot window (w <= L) at
    each start slot of `trace`.  A run's average is below its instantaneous
    rate exactly when its flows' gaps sum below 0; over one period the gaps
    sum to 0."""
    c, n = trace._cum2, len(trace)
    # prefix sums: (at window end - at its start) - w * (at window end - at
    # its last slot's start), with no temporaries
    hi = c[w:n + w]
    np.subtract(hi, c[w - 1:n + w - 1], out=out)
    out *= -w
    out += hi
    out -= c[:n]
    return out


@dataclass(frozen=True)
class FlowInstance:
    trace: VideoTrace
    start_offset: int
    flow_id: int = 0

    def __post_init__(self):
        if not isinstance(self.trace, VideoTrace):
            raise ValueError(f"trace must be a VideoTrace, got {self.trace!r}")
        _int_fields(self, "start_offset", "flow_id")
        if not 0 <= self.start_offset < len(self.trace):
            raise ValueError(
                f"start_offset {self.start_offset} outside trace of length "
                f"{len(self.trace)}"
            )


@dataclass(frozen=True)
class FlowRateBounds:
    min_rate: float  # bits/s
    max_rate: float  # bits/s

    def __post_init__(self):
        for v in (self.min_rate, self.max_rate):
            if not isinstance(v, Real) or type(v) is bool:
                raise ValueError(f"rate bounds must be reals, got {v!r}")
        if not 0 <= self.min_rate <= self.max_rate:
            raise ValueError(
                f"need 0 <= min_rate <= max_rate, got [{self.min_rate}, {self.max_rate}]"
            )

    @property
    def width(self) -> float:
        return self.max_rate - self.min_rate


_CLASS_ALIASES = {c.value: c for c in ContentClass}
# a type token other than I, P or B is an unknown type
_TYPE_OF_TOKEN = {"I": "I", "P": "P", "B": "B"}


def parse_trace_file(path, fps_override: Optional[float] = None) -> VideoTrace:
    """Parse a frame-size trace file.

    The in-file ``# fps=`` directive wins over `fps_override`; if neither is
    present, MissingFps is raised.  Lines end at LF, CR LF or a lone CR and
    are read once, in file order, each decoded as UTF-8 as it is read; the
    first one that breaks the format raises MalformedLine with its line
    number: a byte that is not UTF-8, a bad ``fps=`` directive, a row that
    is not 1 or 3 integer columns, a negative size, or an index that is not
    above the previous one or is beyond int64.
    """
    path = Path(path)
    fps: Optional[float] = None
    content_class = ContentClass.UNKNOWN
    indices: list[int] = []
    types: list[str] = []
    sizes: list[int] = []
    prev = -1
    lines = path.read_bytes().splitlines()
    rest = iter(lines)
    try:
        for line in map(bytes.decode, rest):
            parts = line.split()
            if not parts:
                continue
            # the `in` test is a cheap filter, as rows seldom hold a "#"
            if "#" in line and parts[0][0] == "#":
                key, eq, value = line.strip()[1:].partition("=")
                key = key.strip() if eq else None
                if key == "fps":
                    fps = _positive_real(float(value), "fps")
                elif key == "class":
                    name = value.strip().lower()
                    content_class = _CLASS_ALIASES.get(name, ContentClass.UNKNOWN)
                continue
            if len(parts) == 3:
                index, size = int(parts[0]), int(parts[2])
                frame_type = _TYPE_OF_TOKEN.get(parts[1], "?")
            elif len(parts) == 1:
                index, frame_type, size = len(sizes), "?", int(parts[0])
            else:
                raise ValueError(f"{len(parts)} columns")
            if size < 0 or not prev < index <= INT64_MAX:
                raise ValueError("negative size or index out of order")
            indices.append(index)
            types.append(frame_type)
            sizes.append(size)
            prev = index
    except ValueError:
        # the line that raised is the last one taken from `rest`
        line_no = len(lines) - length_hint(rest)
        text = lines[line_no - 1].decode("utf-8", "replace").strip()
        raise MalformedLine(path, line_no, text) from None
    if not sizes:
        raise EmptyTrace(path)
    if fps is None:
        fps = fps_override
    if fps is None:
        raise MissingFps(path)
    # the columns go over as int64 arrays, which VideoTrace casts without a
    # per-value check; a size beyond int64 stays a list, for which VideoTrace
    # raises ByteOverflow, and a bad `fps_override` raises ValueError there:
    # neither is the fault of one line
    try:
        sizes = np.array(sizes, dtype=np.int64)
    except OverflowError:
        pass
    return VideoTrace(
        id=path.stem, sizes=sizes, fps=fps, content_class=content_class,
        frame_types=types, indices=np.array(indices, dtype=np.int64),
    )


def serialize_trace(trace: VideoTrace, path) -> None:
    """Write a trace in the file format understood by parse_trace_file; the
    fps is written as the shortest text that parses back to it."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# fps={repr(float(trace.fps)).removesuffix('.0')}\n")
        if trace.content_class is not ContentClass.UNKNOWN:
            fh.write(f"# class={trace.content_class.value}\n")
        fh.writelines(
            f"{index} {ftype} {size}\n"
            for index, ftype, size in zip(
                trace.indices.tolist(), trace.frame_types, trace.sizes.tolist()
            )
        )


def synth_bounded_trace(
    length: int,
    bounds: FlowRateBounds,
    fps: float,
    seed: int,
    trace_id: str = "synth-bounded",
) -> VideoTrace:
    """Trace with per-slot rates drawn i.i.d. uniformly from `bounds`.

    Rates are converted to integer frame sizes by rounding down, so realized
    rates sit on the 8*fps grid at or just below the drawn value.
    Deterministic per seed; `bounds` that are not FlowRateBounds raise
    ValueError, and a frame past int64 ByteOverflow, before any draw.
    """
    length, rng, factor = _synth_stream(length, seed, fps)
    if not isinstance(bounds, FlowRateBounds):
        raise ValueError(f"bounds must be FlowRateBounds, got {bounds!r}")
    if not bounds.max_rate / factor < 2.0 ** 63:
        raise ByteOverflow(f"largest frame size of {bounds} at fps={fps} exceeds int64")
    if math.floor(bounds.max_rate / factor) < 1 and bounds.min_rate > 0:
        raise BoundsTooTight(
            f"no positive frame size representable within "
            f"[{bounds.min_rate}, {bounds.max_rate}] bits/s at fps={fps}"
        )
    rates = rng.uniform(bounds.min_rate, bounds.max_rate, size=length)
    sizes = np.floor(rates / factor).astype(np.int64)
    return VideoTrace(id=trace_id, sizes=sizes, fps=fps)
