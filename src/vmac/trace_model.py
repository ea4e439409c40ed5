"""Frame-size traces, synthetic trace generators and per-flow rate lookup.

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

Lines are either ``<size_bytes>`` or ``<index> <type-char> <size_bytes>``.
``#`` starts a comment; the optional ``# fps=`` and ``# class=`` directives
set the frame rate and content class.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import BoundsTooTight, ByteOverflow, EmptyTrace, MalformedLine, MissingFps

BITS_PER_BYTE = 8
MBPS = 1_000_000.0
INT64_MAX = 2 ** 63 - 1


class FrameType(enum.Enum):
    I = "I"
    P = "P"
    B = "B"
    UNKNOWN = "?"


class ContentClass(enum.Enum):
    NEWS = "news"
    SPORTS = "sports"
    MOVIE = "movie"
    DEMO = "demo"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class FrameRecord:
    index: int
    frame_type: FrameType
    size: int  # bytes

    def __post_init__(self):
        if self.index < 0:
            raise ValueError(f"frame index must be >= 0, got {self.index}")
        if self.size < 0:
            raise ValueError(f"frame size must be >= 0, got {self.size}")


@dataclass(frozen=True)
class VideoTrace:
    """Immutable parsed trace; shareable across threads."""

    id: str
    frames: tuple[FrameRecord, ...]
    fps: float
    content_class: ContentClass = ContentClass.UNKNOWN

    # cached per-slot byte sizes and a doubled prefix sum for O(1) wrapped
    # window sums; both derived from `frames` and excluded from equality
    sizes: np.ndarray = field(init=False, repr=False, compare=False)
    _cum2: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.frames:
            raise EmptyTrace(self.id)
        if not (self.fps > 0 and math.isfinite(self.fps)):
            raise ValueError(f"fps must be a positive real, got {self.fps}")
        prev = -1
        for f in self.frames:
            if f.index <= prev:
                raise ValueError(
                    f"trace {self.id}: frame indices must be strictly increasing"
                )
            prev = f.index
        sizes = [f.size for f in self.frames]
        if 2 * sum(sizes) > INT64_MAX:
            raise ByteOverflow(f"trace {self.id}: window sums would exceed int64")
        sizes = np.array(sizes, dtype=np.int64)
        cum2 = np.zeros(2 * len(sizes) + 1, dtype=np.int64)
        np.cumsum(np.concatenate([sizes, sizes]), out=cum2[1:])
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "_cum2", cum2)

    def __len__(self) -> int:
        return len(self.frames)

    def size_at(self, slot: int) -> int:
        """Byte size of the frame occupying `slot` (wrapping)."""
        return int(self.sizes[slot % len(self.sizes)])

    def rate_at(self, slot: int) -> float:
        """Rate in bits/s of the frame occupying `slot` (wrapping)."""
        return self.size_at(slot) * BITS_PER_BYTE * self.fps

    def window_bytes(self, start_slot: int, count: int) -> int:
        """Sum of frame sizes over `count` consecutive slots from `start_slot`,
        wrapping modulo the trace length."""
        n = len(self.sizes)
        total_bytes = int(self._cum2[n]) if count >= n else 0
        whole, rem = divmod(count, n)
        start = start_slot % n
        return whole * total_bytes + int(self._cum2[start + rem] - self._cum2[start])

    def summary_rates(self) -> tuple[float, float, float]:
        """(min, mean, peak) slot rate in bits/s."""
        factor = BITS_PER_BYTE * self.fps
        return (
            float(self.sizes.min()) * factor,
            float(self.sizes.mean()) * factor,
            float(self.sizes.max()) * factor,
        )


@dataclass(frozen=True)
class FlowInstance:
    trace: VideoTrace
    start_offset: int
    flow_id: int = 0

    def __post_init__(self):
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
        if self.min_rate < 0 or self.min_rate > self.max_rate:
            raise ValueError(
                f"need 0 <= min_rate <= max_rate, got [{self.min_rate}, {self.max_rate}]"
            )

    @property
    def width(self) -> float:
        return self.max_rate - self.min_rate


def flow_rate_at(flow: FlowInstance, slot: int) -> float:
    """Instantaneous rate of one flow at a frame slot, in bits/s."""
    return flow.trace.rate_at(flow.start_offset + slot)


_CLASS_ALIASES = {c.value: c for c in ContentClass}


def parse_trace_file(path, fps_override: Optional[float] = None) -> VideoTrace:
    """Parse a frame-size trace file.

    The in-file ``# fps=`` directive wins over `fps_override`; if neither is
    present, MissingFps is raised.
    """
    path = Path(path)
    fps: Optional[float] = None
    content_class = ContentClass.UNKNOWN
    frames: list[FrameRecord] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                directive = line[1:].strip()
                if directive.startswith("fps="):
                    try:
                        fps = float(directive[4:])
                    except ValueError:
                        raise MalformedLine(path, line_no, line) from None
                    if not fps > 0:
                        raise MalformedLine(path, line_no, line)
                elif directive.startswith("class="):
                    name = directive[6:].strip().lower()
                    content_class = _CLASS_ALIASES.get(name, ContentClass.UNKNOWN)
                continue
            parts = line.split()
            try:
                if len(parts) == 1:
                    index, ftype, size = len(frames), FrameType.UNKNOWN, int(parts[0])
                elif len(parts) == 3:
                    index = int(parts[0])
                    ftype = FrameType(parts[1]) if parts[1] in "IPB" else FrameType.UNKNOWN
                    size = int(parts[2])
                else:
                    raise ValueError(line)
                if size < 0:
                    raise ValueError(line)
            except ValueError:
                raise MalformedLine(path, line_no, line) from None
            frames.append(FrameRecord(index=index, frame_type=ftype, size=size))
    if not frames:
        raise EmptyTrace(path)
    if fps is None:
        fps = fps_override
    if fps is None:
        raise MissingFps(path)
    return VideoTrace(
        id=path.stem, frames=tuple(frames), fps=fps, content_class=content_class
    )


def serialize_trace(trace: VideoTrace, path) -> None:
    """Write a trace in the file format understood by parse_trace_file."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# fps={trace.fps:g}\n")
        if trace.content_class is not ContentClass.UNKNOWN:
            fh.write(f"# class={trace.content_class.value}\n")
        for f in trace.frames:
            fh.write(f"{f.index} {f.frame_type.value} {f.size}\n")


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
    Deterministic per seed.
    """
    if length <= 0:
        raise ValueError(f"length must be positive, got {length}")
    factor = BITS_PER_BYTE * fps
    if math.floor(bounds.max_rate / factor) < 1 and bounds.min_rate > 0:
        raise BoundsTooTight(
            f"no positive frame size representable within "
            f"[{bounds.min_rate}, {bounds.max_rate}] bits/s at fps={fps}"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    rates = rng.uniform(bounds.min_rate, bounds.max_rate, size=length)
    sizes = np.floor(rates / factor).astype(np.int64)
    frames = tuple(
        FrameRecord(index=k, frame_type=FrameType.UNKNOWN, size=int(s))
        for k, s in enumerate(sizes)
    )
    return VideoTrace(id=trace_id, frames=frames, fps=fps)


def synth_onoff_trace(
    length: int,
    fps: float,
    seed: int,
    base_rate: float,
    dip_prob: float = 0.0,
    dip_factor: float = 1.0,
    quiet_enter: float = 0.0,
    quiet_exit: float = 1.0,
    quiet_factor: float = 1.0,
    noise: float = 0.0,
    trace_id: str = "synth-onoff",
    content_class: ContentClass = ContentClass.UNKNOWN,
) -> VideoTrace:
    """Bursty trace: a base rate with single-slot dips and quiet episodes.

    Each slot carries ``base_rate`` scaled by a multiplicative uniform noise
    of half-width `noise`.  Independently per slot, with probability
    `dip_prob` the slot drops to ``dip_factor * base_rate``.  A two-state
    Markov chain (enter probability `quiet_enter`, exit probability
    `quiet_exit`) overlays quiet episodes at ``quiet_factor * base_rate``
    whose mean length is 1/quiet_exit slots.  Deterministic per seed.
    """
    if length <= 0:
        raise ValueError(f"length must be positive, got {length}")
    rng = np.random.Generator(np.random.PCG64(seed))
    factor = BITS_PER_BYTE * fps
    sizes = np.empty(length, dtype=np.int64)
    quiet = False
    for k in range(length):
        if quiet:
            if rng.random() < quiet_exit:
                quiet = False
        elif rng.random() < quiet_enter:
            quiet = True
        level = base_rate * quiet_factor if quiet else base_rate
        if not quiet and dip_prob and rng.random() < dip_prob:
            level = base_rate * dip_factor
        if noise:
            level *= rng.uniform(1.0 - noise, 1.0 + noise)
        sizes[k] = int(level / factor)
    frames = tuple(
        FrameRecord(index=k, frame_type=FrameType.UNKNOWN, size=int(s))
        for k, s in enumerate(sizes)
    )
    return VideoTrace(
        id=trace_id, frames=frames, fps=fps, content_class=content_class
    )
