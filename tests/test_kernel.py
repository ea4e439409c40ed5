"""Batched Monte Carlo kernel, scenario drawer and rate-series helper,
checked against the per-quantity reference in `rate_engine`:
`instantaneous_aggregate_rate` and `average_aggregate_rate`, which sum each
flow's bytes independently of the one-pass `rate_sample`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmac import experiments
from vmac.errors import ByteOverflow
from vmac.experiments import (
    ExperimentConfig,
    _cum2_stack,
    _rep_probability,
    _window_bytes,
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
    win, inst = _window_bytes(_cum2_stack(library), w, tr, offs, ends)
    for r in range(runs):
        flows = scenario_flows(library, tr[r], offs[r])
        window = MeasurementWindow(int(ends[r]), w)
        instantaneous = instantaneous_aggregate_rate(flows, window.end_slot)
        average = average_aggregate_rate(flows, window)
        assert inst[r] * 8 * 30.0 == instantaneous
        assert win[r] * 8 / w * 30.0 == average
        assert (win[r] < w * inst[r]) == (average < instantaneous)


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
    stack = _cum2_stack(bursty_lib)
    expected = _rep_probability(bursty_lib, stack, 5, 25, 200, seed=3)
    monkeypatch.setattr(experiments, "_BATCH_FLOWS", 7)
    assert _rep_probability(bursty_lib, stack, 5, 25, 200, seed=3) == expected


def test_kernel_exact_near_int64_limit():
    big = 2 ** 59
    library = (make_trace([big + 3, big, 5]), make_trace([big, big + 1]))
    n, w, runs = 7, 2, 200  # 7 * 2 * (2^59 + 3) < 2^63
    tr, offs, ends = draw_scenarios(rng(1), library, n, w, runs)
    win, inst = _window_bytes(_cum2_stack(library), w, tr, offs, ends)
    for r in range(runs):
        flows = scenario_flows(library, tr[r], offs[r])
        end = int(ends[r])
        assert inst[r] == sum(f.trace.size_at(f.start_offset + end) for f in flows)
        assert win[r] == sum(
            f.trace.window_bytes(f.start_offset + end - w + 1, w) for f in flows
        )
    assert 0 < np.count_nonzero(win < w * inst) < runs


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
