"""Monte Carlo harness for the rate-relationship experiments.

Every experiment derives its randomness from a single master seed through
`derive_run_seed`, so results are bit-identical across re-runs; runs are
serial and the `workers` setting has no effect.  Flow sets are composed by
`_draw`: each flow independently picks a trace uniformly from the library
and a start offset uniformly within it; the decision instant is then drawn
uniformly over one full period of valid window end slots.

The probability of interest per run is whether the windowed average
aggregate rate is strictly below the instantaneous aggregate rate at the
decision instant; per repetition it is estimated over `runs_per_rep` runs
in one batched gather, and the sweep reports mean plus confidence interval
over `reps` repetitions.  The gap table the gather reads depends only on
the library and window; its rows are `trace_model._gaps`, the one place
the gap D is formed.  `_sweep` runs every probability sweep: it builds
one table per config and owns the seed tree: the sweep's k-th scenario is
seeded ``derive_run_seed(master_seed, k, tag)``, and that scenario's
repetition r ``derive_run_seed(scenario_seed, r, 0)``.
A public sweep builds, and so checks, its configs before the first table.
A config checks its library with `rate_engine`'s `_shared_fps` and
`_check_history`; every stream is `trace_model._rng` of a derived seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ByteOverflow, ClassMissing, EmptyLibrary, InsufficientHistory
from .rate_engine import _check_history, _shared_fps, aggregate_rate_series, fill_periodic
from .stats import (
    MeanWithCI,
    _check_confidence,
    _check_two_values,
    mean_and_ci,
    peak_to_mean_and_cov,
)
from .trace_model import (
    INT64_MAX,
    ContentClass,
    FlowInstance,
    VideoTrace,
    _content_class,
    _gaps,
    _int_field,
    _int_fields,
    _rng,
)

_BATCH_FLOWS = 1 << 16  # flow draws per Monte Carlo kernel batch


def derive_run_seed(master_seed: int, rep_index: int, run_index: int) -> int:
    """Collision-resistant 63-bit seed mixed from the three inputs.

    SHA-256 over the decimal-encoded triple, truncated; pure and identical
    on every platform.  Raises ValueError for an argument that is a bool or
    not an integer, or an index below 0; any integer master seed is hashed.
    """
    master_seed = _int_field(master_seed, "master_seed")
    rep_index = _int_field(rep_index, "rep_index", least=0)
    run_index = _int_field(run_index, "run_index", least=0)
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
        # Python ints, so that equal-looking seeds hash to one stream
        _int_fields(self, "window_slots", "runs_per_rep", "reps", "master_seed",
                    "workers")
        if not self.trace_library:
            raise EmptyLibrary("experiment needs at least one trace")
        _shared_fps(self.trace_library)
        object.__setattr__(self, "flow_counts", check_settings(
            flow_counts=self.flow_counts, window_slots=self.window_slots,
            runs_per_rep=self.runs_per_rep, reps=self.reps,
            confidence=self.confidence, workers=self.workers,
            master_seed=self.master_seed,
        ))
        _check_history(self.trace_library, self.window_slots)


def check_settings(*, flow_counts=None, window_slots=1, runs_per_rep=1, reps=2,
                   confidence=0.5, workers=1, master_seed=0):
    """The `ExperimentConfig` checks that read no trace, so that a caller can
    refuse a bad setting before it loads any; a setting not given passes.
    Returns the flow counts, read once, as a tuple of Python ints.  Raises
    ValueError, also for a seed or count that is a bool or not an integer
    and for flow counts that are not an iterable."""
    _int_field(master_seed, "seed", least=0)
    if flow_counts is not None:
        try:
            counts = iter(flow_counts)
        except TypeError:
            raise ValueError(f"flow counts must be an iterable of integers, got "
                             f"{type(flow_counts).__name__} {flow_counts!r}") from None
        flow_counts = tuple(_int_field(n, "flow count") for n in counts)
        if not flow_counts:
            raise ValueError("flow counts must not be empty")
        _int_field(min(flow_counts), "flow counts", least=1)
    for name, value, least in (
            ("window_slots", window_slots, 1), ("runs_per_rep", runs_per_rep, 1),
            ("workers", workers, 1), ("reps", reps, 2)):  # two for a CI
        _int_field(value, name, least)
    _check_confidence(confidence)
    return flow_counts


class SweepResult(NamedTuple):
    rows: tuple[tuple[int, MeanWithCI], ...]


class TimeSeriesResult(NamedTuple):
    slots: tuple[int, ...]
    instantaneous: tuple[float, ...]
    average: tuple[float, ...]


class BurstinessRow(NamedTuple):
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


def draw_flow_set(
    cfg: ExperimentConfig, n: int, seed: int
) -> tuple[list[FlowInstance], int]:
    """One seeded flow set, drawn as one Monte Carlo run of `_draw` over
    `cfg`'s library: its `n` flows and the end slot of its decision window,
    the window's first slot plus ``window_slots - 1``.  Raises ValueError,
    before any draw, for a count below 1, a bool or not an integer."""
    n = _int_field(n, "flow count", least=1)
    library = cfg.trace_library
    rng = _rng(seed)
    lengths = np.array([len(t) for t in library], dtype=np.float64)
    tr, offs, first = _draw(rng, n, 1, lengths, max(len(t) for t in library))
    flows = [
        FlowInstance(trace=library[t], start_offset=int(o), flow_id=i)
        for i, (t, o) in enumerate(zip(tr[0], offs[0]))
    ]
    return flows, int(first[0]) + cfg.window_slots - 1


class _GapTable(NamedTuple):
    """What the scenarios over one library and window share: everything but
    the flow count and the seed; both arrays are read-only."""

    gaps: np.ndarray  # (traces, width) int64 periodic gap rows
    lengths: np.ndarray  # float64 trace lengths, as `_draw` takes them
    lmax: int  # the longest trace's length


def _gap_table(library, w, flows) -> _GapTable:
    """Per trace, its `trace_model._gaps` for the `w`-slot window.  Each
    int64 row holds its trace's gaps repeated periodically to the common
    width 2 * Lmax - 1, so row[s] is the gap at start s % L for any s in a
    row.  Raises ByteOverflow, before building, when a sum of `flows` gaps
    could exceed int64."""
    # a gap is at most w * max_frame bytes either way, so this bounds the sums
    max_frame = max(t._peak for t in library)
    if flows * w * max_frame > INT64_MAX:
        raise ByteOverflow(
            f"{flows} flows x {w} slots x {max_frame} bytes exceeds int64")
    lengths = np.array([len(t) for t in library], dtype=np.float64)
    lmax = max(len(t) for t in library)
    table = np.empty((len(library), 2 * lmax - 1), dtype=np.int64)
    for row, trace in zip(table, library):
        n = len(trace)
        _gaps(trace, w, row[:n])
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
    rng = _rng(seed)
    # batches bound the memory of large runs; the draw order is unchanged
    batch = max(1, _BATCH_FLOWS // n)
    hits = 0
    for done in range(0, runs, batch):
        tr, offs, first = _draw(rng, n, min(batch, runs - done),
                                table.lengths, table.lmax)
        # exact in int64, so ties (the CBR case) never count
        hits += int(np.count_nonzero(_gap_sums(table.gaps, tr, offs, first) < 0))
    return hits / runs


def _sweep(cfgs, tag) -> list[tuple[ExperimentConfig, int, MeanWithCI]]:
    """`(cfg, n, ci)` for each flow count n of each config, over one gap table
    per config.  The k-th of them is seeded
    ``scenario_seed = derive_run_seed(cfg.master_seed, k, tag)``, and its
    repetition r ``derive_run_seed(scenario_seed, r, 0)``."""
    rows = []
    for cfg in cfgs:
        table = _gap_table(cfg.trace_library, cfg.window_slots, max(cfg.flow_counts))
        for n in cfg.flow_counts:
            seed = derive_run_seed(cfg.master_seed, len(rows), tag)
            values = [_rep_probability(table, n, cfg.runs_per_rep,
                                       derive_run_seed(seed, rep, 0))
                      for rep in range(cfg.reps)]
            rows.append((cfg, n, mean_and_ci(values, cfg.confidence)))
    return rows


def run_probability_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Probability that the windowed average is below the instantaneous rate,
    per flow count, with mean and confidence interval over repetitions."""
    return SweepResult(rows=tuple((n, ci) for _, n, ci in _sweep((cfg,), 0)))


def _rate_series(cfg, flow_count, duration_slots, seed):
    """Both float64 rate series of one seeded flow set of `flow_count`
    flows, from `aggregate_rate_series` over `duration_slots` slots."""
    w = cfg.window_slots
    if duration_slots < w:
        raise InsufficientHistory(
            f"duration of {duration_slots} slots cannot fit a {w}-slot window"
        )
    flows, _ = draw_flow_set(cfg, flow_count, seed)
    return aggregate_rate_series(flows, w, duration_slots)


def run_rate_timeseries(
    cfg: ExperimentConfig, flow_count: int, duration_slots: int, seed: int
) -> TimeSeriesResult:
    """One fixed random flow set, per-slot instantaneous aggregate and
    sliding-window average for every slot where the window fits.  Raises
    ByteOverflow or RateOverflow where `aggregate_rate_series` does, and
    ValueError for a flow count, seed or duration as `check_settings` does."""
    (flow_count,) = check_settings(flow_counts=(flow_count,), master_seed=seed)
    duration_slots = _int_field(duration_slots, "duration_slots")
    inst, avg = _rate_series(cfg, flow_count, duration_slots, seed)
    return TimeSeriesResult(
        slots=tuple(range(cfg.window_slots - 1, duration_slots)),
        instantaneous=tuple(inst.tolist()),
        average=tuple(avg.tolist()),
    )


def run_burstiness_table(
    cfg: ExperimentConfig,
    flow_counts: Sequence[int],
    duration_slots: int = 300,
) -> tuple[BurstinessRow, ...]:
    """Peak-to-mean ratio and coefficient of variation of both rate series,
    one fixed scenario per flow count, each summarized from its float64
    arrays.  Raises ByteOverflow or RateOverflow where a scenario's
    `aggregate_rate_series` does, and ValueError as `run_rate_timeseries`."""
    flow_counts = check_settings(flow_counts=flow_counts)
    duration_slots = _int_field(duration_slots, "duration_slots")
    # a one-window duration leaves each series one value, too few for the
    # CoV; a silent library's series fail first, on their zero mean
    if duration_slots == cfg.window_slots and any(t._peak for t in cfg.trace_library):
        _check_two_values(1)
    rows = []
    for idx, n in enumerate(flow_counts):
        seed = derive_run_seed(cfg.master_seed, idx, 1)
        inst, avg = _rate_series(cfg, n, duration_slots, seed)
        for kind, series in (("instantaneous", inst), ("average", avg)):
            rows.append(BurstinessRow(n, kind, *peak_to_mean_and_cov(series)))
    return tuple(rows)


def run_window_sweep(
    cfg: ExperimentConfig, flow_count: int, window_list: Sequence[int]
) -> tuple[tuple[int, MeanWithCI], ...]:
    """Probability sweep at a fixed flow count across window lengths.  Each
    window's config is built, and so checked, before any scenario runs."""
    cfgs = [replace(cfg, flow_counts=(flow_count,), window_slots=w)
            for w in window_list]
    if not cfgs:
        raise ValueError("window lengths must not be empty")
    return tuple((c.window_slots, ci) for c, _, ci in _sweep(cfgs, 2))


def run_content_comparison(
    cfg: ExperimentConfig,
    classes: Sequence[ContentClass],
    flow_counts: Sequence[int],
) -> tuple[tuple[ContentClass, int, MeanWithCI], ...]:
    """Probability sweep restricted to each content class in turn.  A class
    with no trace in the library raises ClassMissing before any scenario
    runs, as does any setting its config refuses; a value that is not a
    `ContentClass` member, such as its name, raises ValueError."""
    flow_counts = check_settings(flow_counts=flow_counts)
    cfgs = []
    for content_class in map(_content_class, classes):
        sub = tuple(t for t in cfg.trace_library if t.content_class is content_class)
        if not sub:
            raise ClassMissing(content_class)
        cfgs.append(replace(cfg, trace_library=sub, flow_counts=flow_counts))
    if not cfgs:
        raise ValueError("content classes must not be empty")
    return tuple((c.trace_library[0].content_class, n, ci)
                 for c, n, ci in _sweep(cfgs, 3))
