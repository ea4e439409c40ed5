"""Monte Carlo harness for the rate-relationship experiments.

Every experiment derives its randomness from a single master seed through
`derive_run_seed`, so results are bit-identical across re-runs; runs are
serial and the `workers` setting has no effect.  Flow sets are composed by
`draw_scenarios`: each flow independently picks a trace uniformly from the
library and a start offset uniformly within it; the decision instant is
then drawn uniformly over one full period of valid window end slots.

The probability of interest per run is whether the windowed average
aggregate rate is strictly below the instantaneous aggregate rate at the
decision instant; per repetition it is estimated over `runs_per_rep` runs
in one batched gather, and the sweep reports mean plus confidence interval
over `reps` repetitions.  The gap table the gather reads depends only on
the library and window, so a sweep builds it once for all the scenarios
that share them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ByteOverflow, ClassMissing, EmptyLibrary, InsufficientHistory, MixedFps
from .rate_engine import aggregate_rate_series, fill_periodic
from .stats import MeanWithCI, mean_and_ci, peak_to_mean_and_cov
from .trace_model import (
    INT64_MAX,
    MBPS,
    ContentClass,
    FlowInstance,
    VideoTrace,
    synth_onoff_trace,
)

_BATCH_FLOWS = 1 << 16  # flow draws per Monte Carlo kernel batch


def derive_run_seed(master_seed: int, rep_index: int, run_index: int) -> int:
    """Collision-resistant 63-bit seed mixed from the three inputs.

    SHA-256 over the decimal-encoded triple, truncated; pure and identical
    on every platform.
    """
    if rep_index < 0 or run_index < 0:
        raise ValueError("rep_index and run_index must be >= 0")
    payload = f"vmac:{master_seed}:{rep_index}:{run_index}".encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class ExperimentConfig:
    trace_library: tuple[VideoTrace, ...]
    flow_counts: tuple[int, ...] = (2, 5, 10, 15, 20, 30, 40)
    window_slots: int = 5
    runs_per_rep: int = 100
    reps: int = 5
    master_seed: int = 0
    confidence: float = 0.95
    workers: int = 1

    def __post_init__(self):
        if not self.trace_library:
            raise EmptyLibrary("experiment needs at least one trace")
        fps = self.trace_library[0].fps
        for t in self.trace_library:
            if t.fps != fps:
                raise MixedFps(
                    f"library mixes frame rates {fps} and {t.fps}"
                )
        check_settings(
            flow_counts=self.flow_counts, window_slots=self.window_slots,
            runs_per_rep=self.runs_per_rep, reps=self.reps,
            confidence=self.confidence, workers=self.workers,
        )
        shortest = min(len(t) for t in self.trace_library)
        if shortest < self.window_slots:
            raise InsufficientHistory(
                f"shortest trace has {shortest} slots, window needs "
                f"{self.window_slots}"
            )


def check_settings(*, flow_counts=None, window_slots=1, runs_per_rep=1, reps=2,
                   confidence=0.5, workers=1) -> None:
    """The `ExperimentConfig` checks that read no trace, so that a caller can
    refuse a bad setting before it loads any; a setting not given passes.
    Raises ValueError."""
    if flow_counts is not None:
        if not flow_counts:
            raise ValueError("flow counts must not be empty")
        if min(flow_counts) < 1:
            raise ValueError("flow counts must be >= 1")
    for name, value in (("window_slots", window_slots),
                        ("runs_per_rep", runs_per_rep), ("workers", workers)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if reps < 2:
        raise ValueError(f"reps must be >= 2 for a confidence interval, got {reps}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[tuple[int, MeanWithCI], ...]


@dataclass(frozen=True)
class TimeSeriesResult:
    slots: tuple[int, ...]
    instantaneous: tuple[float, ...]
    average: tuple[float, ...]


@dataclass(frozen=True)
class BurstinessRow:
    flow_count: int
    rate_kind: str  # "instantaneous" or "average"
    peak_to_mean: float
    cov: float


def _draw(rng, n, runs, lengths, lmax):
    """Trace indices and start offsets, both (runs, n), and the first slot
    of each run's window, (runs,), from one ``rng.random((runs, 2n+1))``
    block; each row is consumed as one run: n trace picks, n offsets, then
    the first slot over one period of the longest trace, `lmax` slots.
    `lengths` holds the trace lengths as float64, the factors the offset
    uniforms are scaled by (exact, and the same products as int64 gives)."""
    u = rng.random((runs, 2 * n + 1))
    # the products are >= 0, so truncating to int64 is their floor
    tr = (u[:, :n] * len(lengths)).astype(np.int64)
    offs = lengths.take(tr)
    offs *= u[:, n:2 * n]
    first = (u[:, 2 * n] * lmax).astype(np.int64)
    return tr, offs.astype(np.int64), first


def draw_scenarios(rng, library, n, w, runs):
    """Trace indices and start offsets, both (runs, n), and the end slot of
    each run's `w`-slot window, (runs,), from one ``rng.random((runs, 2n+1))``
    block; each row is consumed as one run: n trace picks, n offsets, then
    the end slot over one period of the longest trace."""
    lengths = np.array([len(t) for t in library], dtype=np.float64)
    tr, offs, first = _draw(rng, n, runs, lengths, max(len(t) for t in library))
    first += w - 1
    return tr, offs, first


def draw_flow_set(
    cfg: ExperimentConfig, n: int, seed: int
) -> tuple[list[FlowInstance], int]:
    """One seeded flow set, drawn as one Monte Carlo run of `draw_scenarios`
    over `cfg`'s library and window: its `n` flows and the end slot of its
    decision window."""
    library = cfg.trace_library
    rng = np.random.Generator(np.random.PCG64(seed))
    tr, offs, ends = draw_scenarios(rng, library, n, cfg.window_slots, 1)
    flows = [
        FlowInstance(trace=library[t], start_offset=int(o), flow_id=i)
        for i, (t, o) in enumerate(zip(tr[0], offs[0]))
    ]
    return flows, int(ends[0])


@dataclass(frozen=True)
class _GapTable:
    """What the scenarios over one library and window share: everything but
    the flow count and the seed; both arrays are read-only."""

    gaps: np.ndarray  # (traces, width) int64 periodic gap rows
    lengths: np.ndarray  # float64 trace lengths, as `_draw` takes them
    lmax: int  # the longest trace's length


def _gap_table(library, w, flows) -> _GapTable:
    """Per trace, the gap D = window bytes - w * last-slot bytes of the
    `w`-slot window at every start.  Each int64 row holds its trace's gaps
    repeated periodically to the common width 2 * Lmax - 1, so row[s] is the
    gap at start s % L for any s in a row.  A run's average is below its
    instantaneous rate exactly when its flows' gaps sum below 0; over one
    period each row sums to 0.  Raises ByteOverflow, before building, when a
    sum of `flows` gaps could exceed int64."""
    # a gap is at most w * max_frame bytes either way, so this bounds the
    # sums; the scan for max_frame only runs when the largest trace total,
    # which bounds it and is read from the prefix sum, cannot rule it out
    if flows * w * max(t._cum2[len(t)] for t in library) > INT64_MAX:
        max_frame = max(int(t.sizes.max()) for t in library)
        if flows * w * max_frame > INT64_MAX:
            raise ByteOverflow(
                f"{flows} flows x {w} slots x {max_frame} bytes exceeds int64")
    lengths = np.array([len(t) for t in library], dtype=np.float64)
    lmax = max(len(t) for t in library)
    table = np.empty((len(library), 2 * lmax - 1), dtype=np.int64)
    for row, trace in zip(table, library):
        c, n = np.asarray(trace._cum2), len(trace)
        hi, gap = c[w:n + w], row[:n]
        # (hi - c[:n]) - w * (hi - c[w - 1:n + w - 1]), with no temporaries
        np.subtract(hi, c[w - 1:n + w - 1], out=gap)
        gap *= -w
        gap += hi
        gap -= c[:n]
        fill_periodic(row, n)
    table.flags.writeable = lengths.flags.writeable = False
    return _GapTable(table, lengths, lmax)


def _gap_sums(gaps, idx, offs, first):
    """Each run's sum of its flows' gaps, gathered by one flat take from the
    periodic rows: a start offset plus the window's first slot is at most
    L + Lmax - 2, inside the row, so no index wraps.  `idx` holds the flows'
    trace indices and is overwritten with the flat index."""
    idx *= gaps.shape[1]
    idx += offs
    idx += first[:, None]
    return gaps.take(idx).sum(axis=1)


def _rep_probability(table, n, runs, seed) -> float:
    rng = np.random.Generator(np.random.PCG64(seed))
    # batches bound the memory of large runs; the draw order is unchanged
    batch = max(1, _BATCH_FLOWS // max(n, 1))
    hits = 0
    for done in range(0, runs, batch):
        tr, offs, first = _draw(rng, n, min(batch, runs - done),
                                table.lengths, table.lmax)
        # exact in int64, so ties (the CBR case) never count
        hits += int(np.count_nonzero(_gap_sums(table.gaps, tr, offs, first) < 0))
    return hits / runs


def _probability_scenario(cfg, table, n, scenario_seed) -> MeanWithCI:
    values = [
        _rep_probability(table, n, cfg.runs_per_rep,
                         derive_run_seed(scenario_seed, rep, 0))
        for rep in range(cfg.reps)
    ]
    return mean_and_ci(values, cfg.confidence)


def run_probability_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Probability that the windowed average is below the instantaneous rate,
    per flow count, with mean and confidence interval over repetitions."""
    table = _gap_table(cfg.trace_library, cfg.window_slots, max(cfg.flow_counts))
    return SweepResult(rows=tuple(
        (n, _probability_scenario(cfg, table, n,
                                  derive_run_seed(cfg.master_seed, idx, 0)))
        for idx, n in enumerate(cfg.flow_counts)
    ))


def run_rate_timeseries(
    cfg: ExperimentConfig, flow_count: int, duration_slots: int, seed: int
) -> TimeSeriesResult:
    """One fixed random flow set, per-slot instantaneous aggregate and
    sliding-window average for every slot where the window fits."""
    check_settings(flow_counts=(flow_count,))
    w = cfg.window_slots
    if duration_slots < w:
        raise InsufficientHistory(
            f"duration of {duration_slots} slots cannot fit a {w}-slot window"
        )
    flows, _ = draw_flow_set(cfg, flow_count, seed)
    inst, avg = aggregate_rate_series(flows, w, duration_slots)
    return TimeSeriesResult(
        slots=tuple(range(w - 1, duration_slots)),
        instantaneous=tuple(inst.tolist()),
        average=tuple(avg.tolist()),
    )


def run_burstiness_table(
    cfg: ExperimentConfig,
    flow_counts: Sequence[int],
    duration_slots: int = 300,
) -> tuple[BurstinessRow, ...]:
    """Peak-to-mean ratio and coefficient of variation of both rate series,
    one fixed scenario per flow count."""
    check_settings(flow_counts=flow_counts)
    rows = []
    for idx, n in enumerate(flow_counts):
        seed = derive_run_seed(cfg.master_seed, idx, 1)
        ts = run_rate_timeseries(cfg, n, duration_slots, seed)
        for kind, series in (
            ("instantaneous", ts.instantaneous),
            ("average", ts.average),
        ):
            rows.append(BurstinessRow(n, kind, *peak_to_mean_and_cov(series)))
    return tuple(rows)


def run_window_sweep(
    cfg: ExperimentConfig, flow_count: int, window_list: Sequence[int]
) -> tuple[tuple[int, MeanWithCI], ...]:
    """Probability sweep at a fixed flow count across window lengths."""
    check_settings(flow_counts=(flow_count,))
    if not window_list:
        raise ValueError("window lengths must not be empty")
    shortest = min(len(t) for t in cfg.trace_library)
    for w in window_list:
        if w < 1:
            raise ValueError("window lengths must be >= 1")
        if w > shortest:
            raise InsufficientHistory(
                f"window of {w} slots exceeds shortest trace ({shortest} slots)"
            )
    return tuple(
        (w, _probability_scenario(cfg, _gap_table(cfg.trace_library, w, flow_count),
                                  flow_count, derive_run_seed(cfg.master_seed, idx, 2)))
        for idx, w in enumerate(window_list)
    )


def run_content_comparison(
    cfg: ExperimentConfig,
    classes: Sequence[ContentClass],
    flow_counts: Sequence[int],
) -> tuple[tuple[ContentClass, int, MeanWithCI], ...]:
    """Probability sweep restricted to each content class in turn."""
    check_settings(flow_counts=flow_counts)
    if not classes:
        raise ValueError("content classes must not be empty")
    rows = []
    for content_class in classes:
        sub = tuple(
            t for t in cfg.trace_library if t.content_class is content_class
        )
        if not sub:
            raise ClassMissing(content_class)
        table = _gap_table(sub, cfg.window_slots, max(flow_counts))
        for n in flow_counts:
            scenario_seed = derive_run_seed(cfg.master_seed, len(rows), 3)
            rows.append((content_class, n, _probability_scenario(
                cfg, table, n, scenario_seed)))
    return tuple(rows)


# -- bundled synthetic libraries ---------------------------------------------
#
# Parameter choices follow the observed character of VBR video aggregates:
# most slots sit near a base rate, with occasional near-silent frames and
# short quiet episodes a few slots long.  The "bursty" library mixes
# low-rate bursty feeds with high-rate near-constant feeds; the content
# libraries differ only in how violent the rate swings are.

def bursty_library(
    seed: int, n_traces: int = 10, length: int = 3000, fps: float = 30.0
) -> tuple[VideoTrace, ...]:
    """Mixed library: 70% low-rate bursty traces, 30% high-rate smooth ones."""
    rng = np.random.Generator(np.random.PCG64(seed))
    traces = []
    n_bursty = (7 * n_traces + 9) // 10
    for i in range(n_traces):
        child = int(rng.integers(0, 2 ** 62))
        if i < n_bursty:
            base = rng.uniform(0.5, 0.7) * MBPS
            traces.append(
                synth_onoff_trace(
                    length, fps, child, base,
                    dip_prob=0.09, dip_factor=0.70,
                    quiet_enter=0.0075, quiet_exit=0.20, quiet_factor=0.02,
                    noise=0.05, trace_id=f"bursty-{i}",
                )
            )
        else:
            base = rng.uniform(7.0, 9.0) * MBPS
            traces.append(
                synth_onoff_trace(
                    length, fps, child, base, noise=0.003,
                    trace_id=f"smooth-{i}",
                )
            )
    return tuple(traces)


def content_library(
    seed: int,
    content_class: ContentClass,
    n_traces: int = 5,
    length: int = 3000,
    fps: float = 30.0,
) -> tuple[VideoTrace, ...]:
    """Synthetic per-class library: sports-like traces swing hard between
    near-silence and full rate, news-like traces barely move.  Only news
    and sports are synthesised; any other class is a ValueError."""
    if content_class not in (ContentClass.NEWS, ContentClass.SPORTS):
        raise ValueError(f"no synthetic recipe for content class {content_class}")
    rng = np.random.Generator(np.random.PCG64(seed))
    traces = []
    for i in range(n_traces):
        child = int(rng.integers(0, 2 ** 62))
        base = rng.uniform(2.5, 4.0) * MBPS
        name = f"{content_class.value}-{i}"
        if content_class is ContentClass.SPORTS:
            traces.append(
                synth_onoff_trace(
                    length, fps, child, base,
                    dip_prob=0.10, dip_factor=0.05,
                    quiet_enter=0.04, quiet_exit=0.33, quiet_factor=0.05,
                    noise=0.04, trace_id=name, content_class=content_class,
                )
            )
        else:
            traces.append(
                synth_onoff_trace(
                    length, fps, child, base, noise=0.05,
                    trace_id=name, content_class=content_class,
                )
            )
    return tuple(traces)
