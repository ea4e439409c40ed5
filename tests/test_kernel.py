"""Batched Monte Carlo kernel, its per-start gap table, scenario drawer and
rate-series helper, checked against the per-quantity reference in
`rate_engine`: `instantaneous_aggregate_rate` and `average_aggregate_rate`,
which sum each flow's bytes from `sizes`, independently of the prefix sum
that `rate_sample` and the gap table read."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmac import experiments
from vmac.errors import ByteOverflow
from vmac.experiments import (
    ExperimentConfig,
    _gap_sums,
    _gap_table,
    _rep_probability,
    draw_scenarios,
    run_probability_sweep,
)
from vmac.rate_engine import (
    MeasurementWindow,
    aggregate_rate_series,
    average_aggregate_rate,
    instantaneous_aggregate_rate,
)
from vmac.trace_model import FlowInstance

from .conftest import make_trace

# traces of mixed lengths, short enough that most windows wrap
libraries = st.lists(
    st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=30),
    min_size=1, max_size=4,
).map(lambda sizes: tuple(
    make_trace(s, trace_id=f"t{i}") for i, s in enumerate(sizes)
))


def rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def scenario_flows(library, tr_row, offs_row):
    return [
        FlowInstance(trace=library[t], start_offset=int(o))
        for t, o in zip(tr_row, offs_row)
    ]


def run_gaps(library, w, tr, offs, ends):
    """Each run's gap sum, gathered from the gap table as the kernel does."""
    gaps, lengths = _gap_table(library, w)
    start = (offs + (ends - (w - 1))[:, None]) % lengths[tr]
    return gaps[tr, start].sum(axis=1)


def reference_gap(flows, end, w):
    """Window bytes minus w times last-slot bytes, from the reference sums."""
    return sum(
        f.trace.window_bytes(f.start_offset + end - w + 1, w)
        - w * f.trace.size_at(f.start_offset + end)
        for f in flows
    )


@settings(max_examples=60, deadline=None)
@given(library=libraries)
def test_gap_table_rows_match_brute_force(library):
    for w in range(1, min(len(t) for t in library) + 1):
        gaps, lengths = _gap_table(library, w)
        assert gaps.dtype == np.int64
        assert lengths.tolist() == [len(t) for t in library]
        assert gaps.shape == (len(library), 2 * max(lengths) - 1)
        for row, trace in zip(gaps, library):
            sizes, n = trace.sizes.tolist(), len(trace)
            brute = [
                sum(sizes[(s + k) % n] for k in range(w))
                - w * sizes[(s + w - 1) % n]
                for s in range(n)
            ]
            # every entry: the row repeats the trace's gaps periodically
            assert row.tolist() == [brute[j % n] for j in range(len(row))]
            # E[D] = 0: over all starts the window bytes and w times the
            # last-slot bytes both total w times the trace total
            assert row[:n].sum() == 0


def test_gap_table_of_cbr_is_zero(cbr_library):
    for w in (1, 5, 50):
        assert not _gap_table(cbr_library, w)[0].any()


@settings(max_examples=60, deadline=None)
@given(
    library=libraries,
    n=st.integers(1, 8),
    w_frac=st.floats(0.0, 1.0),
    runs=st.integers(1, 25),
    seed=st.integers(0, 2 ** 32),
)
def test_batched_runs_match_per_quantity_rates(library, n, w_frac, runs, seed):
    shortest = min(len(t) for t in library)
    w = 1 + int(w_frac * (shortest - 1))
    tr, offs, ends = draw_scenarios(rng(seed), library, n, w, runs)
    gap = run_gaps(library, w, tr, offs, ends)
    for r in range(runs):
        flows = scenario_flows(library, tr[r], offs[r])
        end = int(ends[r])
        instantaneous = instantaneous_aggregate_rate(flows, end)
        average = average_aggregate_rate(flows, MeasurementWindow(end, w))
        # the kernel forms no window or instant sum, only their gap
        assert gap[r] == reference_gap(flows, end, w)
        assert (gap[r] < 0) == (average < instantaneous)
    # the kernel's flat take gives the same sums, draws the same runs and
    # counts the same verdicts
    table = _gap_table(library, w)
    assert np.array_equal(_gap_sums(table[0], w, tr, offs, ends), gap)
    assert _rep_probability(library, table, n, w, runs, seed) == (
        np.count_nonzero(gap < 0) / runs)


@pytest.mark.parametrize("short, w", [(1, 1), (2, 2), (3, 3), (39, 5)])
def test_flat_take_matches_modulo_at_every_start(short, w):
    # a short trace beside a 40-slot one; every offset and every end term,
    # up to the largest index the drawer can produce (offset L - 1, end
    # term Lmax - 1), one flow per run
    longest = 40
    library = (make_trace([7 * k % 11 for k in range(short)]),
               make_trace([(k * k) % 23 + 1 for k in range(longest)]))
    cases = [(t, o, e) for t, trace in enumerate(library)
             for o in range(len(trace)) for e in range(longest)]
    tr, offs, e = (np.array(col, dtype=np.int64)[:, None] for col in zip(*cases))
    ends = e[:, 0] + w - 1
    gaps, _ = _gap_table(library, w)
    expected = run_gaps(library, w, tr, offs, ends)
    assert np.array_equal(_gap_sums(gaps, w, tr, offs, ends), expected)
    assert int(offs.max() + e.max()) == gaps.shape[1] - 1
    if w > 1:
        assert expected.any()


class StubRng:
    """Hands `draw_scenarios` a chosen block in place of uniform draws."""

    def __init__(self, block):
        self.block = np.asarray(block, dtype=np.float64)

    def random(self, shape):
        assert shape == self.block.shape
        return self.block


def test_draw_scenarios_truncation_equals_floor():
    library = (make_trace([1]), make_trace([1] * 7), make_trace([1] * 40))
    n, w = 3, 2
    top = np.nextafter(1.0, 0.0)
    rows = [[0.0] * 7, [top] * 7, [0.5] * 7,
            [top, 0.0, 0.34, 0.0, top, 0.99, top],
            [1 / 3, 2 / 3, 0.0, top, top, top, 0.25]]
    rows += rng(5).random((50, 2 * n + 1)).tolist()
    block = np.array(rows)
    tr, offs, ends = draw_scenarios(StubRng(block), library, n, w, len(rows))
    # the formula before truncation replaced np.floor
    lengths = np.array([len(t) for t in library], dtype=np.int64)
    floor_tr = np.floor(block[:, :n] * len(library)).astype(np.int64)
    floor_offs = np.floor(block[:, n:2 * n] * lengths[floor_tr]).astype(np.int64)
    floor_ends = w - 1 + np.floor(block[:, 2 * n] * lengths.max()).astype(np.int64)
    for got, want in ((tr, floor_tr), (offs, floor_offs), (ends, floor_ends)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    # the top uniform reaches the last trace, offset and end slot
    assert tr[1].tolist() == [2] * n and offs[1].tolist() == [39] * n
    assert ends[1] == w - 1 + 39


@settings(max_examples=60, deadline=None)
@given(
    library=libraries,
    picks=st.lists(st.tuples(st.integers(0, 3), st.floats(0.0, 1.0)),
                   min_size=1, max_size=6),
    w_frac=st.floats(0.0, 1.0),
    extra=st.integers(0, 80),
)
def test_rate_series_matches_per_quantity_rates_at_every_slot(
    library, picks, w_frac, extra
):
    flows = [
        FlowInstance(
            trace=library[t % len(library)],
            start_offset=int(u * (len(library[t % len(library)]) - 1)),
        )
        for t, u in picks
    ]
    shortest = min(len(f.trace) for f in flows)
    w = 1 + int(w_frac * (shortest - 1))
    n_slots = w + extra
    inst, avg = aggregate_rate_series(flows, w, n_slots)
    assert len(inst) == len(avg) == n_slots - w + 1
    for end in range(w - 1, n_slots):
        assert inst[end - w + 1] == instantaneous_aggregate_rate(flows, end)
        assert avg[end - w + 1] == average_aggregate_rate(
            flows, MeasurementWindow(end, w)
        )


def test_rate_series_of_no_flows_is_zero():
    inst, avg = aggregate_rate_series([], 3, 10)
    assert not inst.any() and not avg.any()


@settings(max_examples=30, deadline=None)
@given(library=libraries, n=st.integers(0, 6), runs=st.integers(1, 12),
       seed=st.integers(0, 2 ** 32))
def test_block_draw_equals_run_by_run_draw(library, n, runs, seed):
    block = draw_scenarios(rng(seed), library, n, 1, runs)
    one_by_one = rng(seed)
    rows = [draw_scenarios(one_by_one, library, n, 1, 1) for _ in range(runs)]
    for got, parts in zip(block, zip(*rows)):
        assert np.array_equal(got, np.concatenate(parts))


def test_batch_size_does_not_change_probability(bursty_lib, monkeypatch):
    table = _gap_table(bursty_lib, 25)
    expected = _rep_probability(bursty_lib, table, 5, 25, 200, seed=3)
    monkeypatch.setattr(experiments, "_BATCH_FLOWS", 7)
    assert _rep_probability(bursty_lib, table, 5, 25, 200, seed=3) == expected


def test_kernel_exact_near_int64_limit():
    big = 2 ** 59
    library = (make_trace([big + 3, big, 5]), make_trace([big, big + 1]))
    n, w, runs = 7, 2, 200  # 7 * 2 * (2^59 + 3) < 2^63
    tr, offs, ends = draw_scenarios(rng(1), library, n, w, runs)
    gap = run_gaps(library, w, tr, offs, ends)
    for r in range(runs):
        flows = scenario_flows(library, tr[r], offs[r])
        end = int(ends[r])
        # exact integers: float rates of 2^59-byte frames cannot resolve
        # gaps of a few bytes, so the verdict is the sign of this sum
        assert gap[r] == reference_gap(flows, end, w)
    assert 0 < np.count_nonzero(gap < 0) < runs


def test_kernel_refuses_sums_beyond_int64():
    library = (make_trace([2 ** 59 + 3, 2 ** 59, 5]),)
    ok = ExperimentConfig(trace_library=library, flow_counts=(7,),
                          window_slots=2, runs_per_rep=10, reps=2)
    run_probability_sweep(ok)
    with pytest.raises(ByteOverflow):
        run_probability_sweep(ExperimentConfig(
            trace_library=library, flow_counts=(8,), window_slots=2,
            runs_per_rep=10, reps=2,
        ))
