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
from vmac.bounds import empirical_exceedance
from vmac.errors import ByteOverflow
from vmac.experiments import (
    ExperimentConfig,
    _draw,
    _gap_sums,
    _gap_table,
    _rep_probability,
    draw_flow_set,
    run_burstiness_table,
    run_content_comparison,
    run_probability_sweep,
    run_rate_timeseries,
    run_window_sweep,
)
from vmac.rate_engine import (
    MeasurementWindow,
    aggregate_rate_series,
    average_aggregate_rate,
    instantaneous_aggregate_rate,
    rate_sample,
)
from vmac.trace_model import BITS_PER_BYTE, K, FlowInstance, _gaps

from .conftest import bundled_library, make_trace

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


def run_gaps(table, tr, offs, first):
    """Each run's gap sum, gathered from the gap table `table` at each flow's
    window start modulo its trace length."""
    start = (offs + first[:, None]) % table.lengths.astype(np.int64)[tr]
    return table.gaps[tr, start].sum(axis=1)


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
        table = _gap_table(library, w, 1)
        gaps, lengths = table.gaps, table.lengths
        assert gaps.dtype == np.int64
        assert not (gaps.flags.writeable or lengths.flags.writeable)
        assert lengths.tolist() == [len(t) for t in library]
        assert table.lmax == max(lengths)
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
        assert not _gap_table(cbr_library, w, 1).gaps.any()


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
    table = _gap_table(library, w, n)
    tr, offs, first = _draw(rng(seed), n, runs, table.lengths, table.lmax)
    gap = run_gaps(table, tr, offs, first)
    for r in range(runs):
        flows = scenario_flows(library, tr[r], offs[r])
        end = int(first[r]) + w - 1
        instantaneous = instantaneous_aggregate_rate(flows, end)
        average = average_aggregate_rate(flows, MeasurementWindow(end, w))
        # the kernel forms no window or instant sum, only their gap
        assert gap[r] == reference_gap(flows, end, w)
        assert (gap[r] < 0) == (average < instantaneous)
    # the kernel's flat take gives the same sums, draws the same runs and
    # counts the same verdicts
    assert np.array_equal(_gap_sums(table.gaps, tr, offs, first), gap)
    assert _rep_probability(table, n, runs, seed) == (
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
    table = _gap_table(library, w, 1)
    expected = run_gaps(table, tr, offs, e[:, 0])
    assert np.array_equal(_gap_sums(table.gaps, tr, offs, e[:, 0]), expected)
    assert int(offs.max() + e.max()) == table.gaps.shape[1] - 1
    if w > 1:
        assert expected.any()


class StubRng:
    """Hands `_draw` a chosen block in place of uniform draws."""

    def __init__(self, block):
        self.block = np.asarray(block, dtype=np.float64)

    def random(self, shape):
        assert shape == self.block.shape
        return self.block


def test_draw_truncation_equals_floor():
    library = (make_trace([1]), make_trace([1] * 7), make_trace([1] * 40))
    n = 3
    top = np.nextafter(1.0, 0.0)
    rows = [[0.0] * 7, [top] * 7, [0.5] * 7,
            [top, 0.0, 0.34, 0.0, top, 0.99, top],
            [1 / 3, 2 / 3, 0.0, top, top, top, 0.25]]
    rows += rng(5).random((50, 2 * n + 1)).tolist()
    block = np.array(rows)
    table = _gap_table(library, 1, n)
    tr, offs, first = _draw(StubRng(block), n, len(rows), table.lengths, table.lmax)
    # the formula before truncation replaced np.floor
    lengths = np.array([len(t) for t in library], dtype=np.int64)
    floor_tr = np.floor(block[:, :n] * len(library)).astype(np.int64)
    floor_offs = np.floor(block[:, n:2 * n] * lengths[floor_tr]).astype(np.int64)
    floor_first = np.floor(block[:, 2 * n] * lengths.max()).astype(np.int64)
    for got, want in ((tr, floor_tr), (offs, floor_offs), (first, floor_first)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    # the top uniform reaches the last trace, offset and first slot
    assert tr[1].tolist() == [2] * n and offs[1].tolist() == [39] * n
    assert first[1] == 39


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


def shared_trace_flows():
    """Five flows on two trace objects, three of them on one."""
    a = make_trace([5, 900, 3, 0, 70, 2 ** 20], trace_id="a")
    b = make_trace([11, 4, 4000], trace_id="b")
    return [FlowInstance(trace=t, start_offset=s)
            for t, s in ((a, 0), (b, 2), (a, 5), (a, 3), (b, 2))]


def equal_trace_flows():
    """Two equal traces held as distinct objects, one flow on each and a
    third on the first."""
    a = make_trace([8, 1, 600, 42, 0], trace_id="x")
    b = make_trace([8, 1, 600, 42, 0], trace_id="x")
    assert a == b and a is not b
    return [FlowInstance(trace=a, start_offset=1),
            FlowInstance(trace=b, start_offset=4),
            FlowInstance(trace=a, start_offset=4)]


def mixed_length_flows():
    """Traces of 3, 9, 23 and 41 frames, so a 10- to 30-slot series is
    longer than some and shorter than others."""
    lengths = (3, 9, 23, 41)
    traces = [make_trace([(7 * k + 3 * n) % 97 + n for k in range(n)],
                         trace_id=f"len{n}") for n in lengths]
    return [FlowInstance(trace=t, start_offset=s)
            for t in traces for s in {0, len(t) // 2, len(t) - 1}]


@pytest.mark.parametrize("flows", [
    shared_trace_flows(), equal_trace_flows(), mixed_length_flows(),
], ids=["shared-trace", "equal-traces", "mixed-lengths"])
@pytest.mark.parametrize("w, n_slots", [(1, 1), (2, 10), (3, 22), (5, 30), (4, 95)])
def test_rate_series_at_every_slot_for_shared_and_mixed_traces(flows, w, n_slots):
    inst, avg = aggregate_rate_series(flows, w, n_slots)
    assert len(inst) == len(avg) == n_slots - w + 1
    for end in range(w - 1, n_slots):
        assert inst[end - w + 1] == instantaneous_aggregate_rate(flows, end)
        assert avg[end - w + 1] == average_aggregate_rate(
            flows, MeasurementWindow(end, w))


def wrap_gather_series(flows, w, n_slots):
    """The rate series as first written: each flow's bytes gathered at every
    slot by ``take(mode="wrap")``, summed, and one cumsum."""
    fps = flows[0].trace.fps if flows else 0.0
    slots = np.arange(n_slots)
    agg = np.zeros(n_slots, dtype=np.int64)
    for f in flows:
        agg += np.take(f.trace.sizes, f.start_offset + slots, mode="wrap")
    cum = np.concatenate([[0], np.cumsum(agg)])
    inst = agg[w - 1:] * BITS_PER_BYTE * fps
    avg = (cum[w:] - cum[:-w]) * BITS_PER_BYTE / w * fps
    return inst, avg


@settings(max_examples=100, deadline=None)
@given(
    short=st.lists(st.integers(0, 10 ** 9), min_size=1, max_size=7),
    long=st.lists(st.integers(0, 10 ** 9), min_size=40, max_size=40),
    long_offset=st.integers(0, 39),
    fps=st.sampled_from([1.0, 29.97, 30.0]),
    w=st.integers(1, 40),
    n_frac=st.floats(0.0, 1.0),
)
def test_rate_series_equals_wrap_gather(short, long, long_offset, fps, w, n_frac):
    # a 1-7 slot trace beside a 40-slot one, at every offset of the short
    # one, over 0 to 5 periods of the long one past the first window
    a = make_trace(short, fps=fps, trace_id="short")
    b = make_trace(long, fps=fps, trace_id="long")
    n_slots = w + int(n_frac * (5 * len(b) - w))
    for offset in range(len(a)):
        for flows in (
            [FlowInstance(trace=a, start_offset=offset)],
            [FlowInstance(trace=a, start_offset=offset),
             FlowInstance(trace=b, start_offset=long_offset),
             FlowInstance(trace=a, start_offset=(offset + 1) % len(a))],
        ):
            got = aggregate_rate_series(flows, w, n_slots)
            for g, want in zip(got, wrap_gather_series(flows, w, n_slots)):
                assert g.dtype == want.dtype and np.array_equal(g, want)


def test_rate_series_of_no_flows_is_zero():
    inst, avg = aggregate_rate_series([], 3, 10)
    assert not inst.any() and not avg.any()


@pytest.mark.parametrize("w, n_slots", [(-1, 6), (0, 6), (2, -2), (0, -2)])
def test_rate_series_refuses_a_bad_window_or_slot_count(w, n_slots):
    # refused before numpy could broadcast, allocate or return a negative
    # average
    flows = [FlowInstance(trace=make_trace([1, 2, 3, 4]), start_offset=0)]
    for flow_set in (flows, []):
        with pytest.raises(ValueError, match=f"need window_slots >= 1 and n_slots >= 0, "
                                             f"got {w} and {n_slots}"):
            aggregate_rate_series(flow_set, w, n_slots)


@pytest.mark.parametrize("w, n_slots, message", [
    (True, 10, "window_slots must be an integer, got bool True"),
    (5.0, 10, "window_slots must be an integer, got float 5.0"),
    (5, 10.0, "n_slots must be an integer, got float 10.0"),
    (1, True, "n_slots must be an integer, got bool True"),
], ids=["bool-window", "float-window", "float-slots", "bool-slots"])
def test_rate_series_refuses_a_window_or_slot_count_that_is_not_an_integer(
        w, n_slots, message):
    # a bool window used to give 1-slot rates, a float one a numpy TypeError
    flows = [FlowInstance(trace=make_trace([1, 2, 3, 4]), start_offset=0)]
    for flow_set in (flows, []):
        with pytest.raises(ValueError, match=f"^{message}$"):
            aggregate_rate_series(flow_set, w, n_slots)


def test_rate_series_of_no_slots_is_empty():
    flows = [FlowInstance(trace=make_trace([1, 2, 3, 4]), start_offset=0)]
    inst, avg = aggregate_rate_series(flows, 1, 0)
    assert (len(inst), len(avg)) == (0, 0)


@settings(max_examples=30, deadline=None)
@given(library=libraries, n=st.integers(0, 6), runs=st.integers(1, 12),
       seed=st.integers(0, 2 ** 32))
def test_block_draw_equals_run_by_run_draw(library, n, runs, seed):
    table = _gap_table(library, 1, n)
    block = _draw(rng(seed), n, runs, table.lengths, table.lmax)
    one_by_one = rng(seed)
    rows = [_draw(one_by_one, n, 1, table.lengths, table.lmax) for _ in range(runs)]
    for got, parts in zip(block, zip(*rows)):
        assert np.array_equal(got, np.concatenate(parts))


def test_batch_size_does_not_change_probability(bursty_lib, monkeypatch):
    table = _gap_table(bursty_lib, 25, 5)
    expected = _rep_probability(table, 5, 200, seed=3)
    monkeypatch.setattr(experiments, "_BATCH_FLOWS", 7)
    assert _rep_probability(table, 5, 200, seed=3) == expected


def test_kernel_exact_near_int64_limit():
    big = 2 ** 59
    library = (make_trace([big + 3, big, 5]), make_trace([big, big + 1]))
    n, w, runs = 7, 2, 200  # 7 * 2 * (2^59 + 3) < 2^63
    table = _gap_table(library, w, n)
    tr, offs, first = _draw(rng(1), n, runs, table.lengths, table.lmax)
    gap = run_gaps(table, tr, offs, first)
    for r in range(runs):
        flows = scenario_flows(library, tr[r], offs[r])
        end = int(first[r]) + w - 1
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


def test_gap_table_refuses_a_window_beyond_int64():
    # eight slots of the 2^60-byte frame exceed int64, so no table for
    # w = 8 can be built, even for one flow and beside a small-frame trace
    library = (make_trace(range(1, 9)), make_trace([2 ** 60] + [1] * 7))
    _gap_table(library, 7, 1)
    with pytest.raises(ByteOverflow):
        _gap_table(library, 8, 1)


def wrapping_config():
    """Four flows of one trace of frames 2^61 and 1 bytes at w = 2: a slot
    where all four show the large frame holds 2^63 bytes, one past int64,
    although the trace's own doubled total fits."""
    library = (make_trace([2 ** 61, 1], fps=1.0),)
    return ExperimentConfig(trace_library=library, flow_counts=(4,),
                            window_slots=2, runs_per_rep=10, reps=2)


@pytest.mark.parametrize("call", [
    lambda cfg: aggregate_rate_series(
        [FlowInstance(trace=cfg.trace_library[0], start_offset=0)] * 4, 2, 4),
    lambda cfg: run_rate_timeseries(cfg, 4, 4, 1),
    lambda cfg: run_burstiness_table(cfg, (4,), 4),
    lambda cfg: empirical_exceedance(
        [FlowInstance(trace=cfg.trace_library[0], start_offset=0)] * 4,
        MeasurementWindow(1, 2), 0.0, 10, 1),
    run_probability_sweep,
], ids=["series", "timeseries", "burstiness", "exceedance", "sweep"])
def test_rate_series_refuses_sums_beyond_int64(call):
    with pytest.raises(ByteOverflow):
        call(wrapping_config())


def test_rate_series_refuses_windows_beyond_exact_doubles():
    # a 3-slot window of frames near 2^52 bytes holds about 2^56.6 bits;
    # past 2^53 an int64 window sum converted to a double before the divide
    # by w can round, and the series so computed misses `rate_sample`
    flows = [FlowInstance(trace=make_trace([2 ** 52 + k * k for k in range(10)]),
                          start_offset=0)]
    w, n_slots = 3, 12
    _, float_avg = wrap_gather_series(flows, w, n_slots)
    missed = sum(
        float_avg[end - w + 1] != rate_sample(flows, MeasurementWindow(end, w)).average
        for end in range(w - 1, n_slots)
    )
    assert missed == 4
    with pytest.raises(ByteOverflow):
        aggregate_rate_series(flows, w, n_slots)


def edge_flows(b_sizes):
    """Two flows whose peaks, 2^48 and the largest of `b_sizes`, meet in
    slot 0; trace a's next frame is 2^48 - 1 bytes."""
    a = make_trace([2 ** 48, 2 ** 48 - 1, 3, 2 ** 47 + 5], trace_id="a")
    b = make_trace(b_sizes, trace_id="b")
    return [FlowInstance(trace=a, start_offset=0),
            FlowInstance(trace=b, start_offset=1)]


def test_rate_series_exact_at_2_53_bits_per_window():
    # summed peaks 2^49, so 8 x w x 2^49 = 2^53 at w = 2; the first window
    # holds 2^53 - 32 bits
    flows = edge_flows([7, 2 ** 48, 2 ** 48 - 3])
    w, n_slots = 2, 20
    inst, avg = aggregate_rate_series(flows, w, n_slots)
    for end in range(w - 1, n_slots):
        sample = rate_sample(flows, MeasurementWindow(end, w))
        assert (inst[end - w + 1], avg[end - w + 1]) == (
            sample.instantaneous, sample.average)


def test_rate_series_refuses_one_byte_past_2_53_bits_per_window():
    with pytest.raises(ByteOverflow):
        aggregate_rate_series(edge_flows([7, 2 ** 48 + 1, 2 ** 48 - 3]), 2, 20)


def test_rate_series_refuses_a_cumsum_beyond_int64():
    # one-slot windows of 2^49 bytes are 2^52 bits, exact doubles, but the
    # cumsum of 2^14 such slots reaches 2^63
    flows = [FlowInstance(trace=make_trace([2 ** 49]), start_offset=0)]
    inst, avg = aggregate_rate_series(flows, 1, 2 ** 14 - 1)
    assert (inst == 2 ** 52 * 30.0).all() and (avg == inst).all()
    with pytest.raises(ByteOverflow):
        aggregate_rate_series(flows, 1, 2 ** 14)


def test_each_sweep_builds_one_table_per_library_and_window(bursty_lib, monkeypatch):
    built = []

    def counted(library, w, flows):
        built.append((len(library), w, flows))
        return _gap_table(library, w, flows)

    monkeypatch.setattr(experiments, "_gap_table", counted)
    cfg = ExperimentConfig(trace_library=bursty_lib, flow_counts=(2, 40, 5),
                           runs_per_rep=10, reps=2)
    run_probability_sweep(cfg)
    assert built == [(10, 5, 40)]
    built.clear()
    run_content_comparison(cfg, (bursty_lib[0].content_class,), (2, 40, 5))
    assert built == [(10, 5, 40)]
    built.clear()
    run_window_sweep(cfg, 5, (2, 25))
    assert built == [(10, 2, 5), (10, 25, 5)]


# -- one gap D behind the gap table, the window table and rate_sample ------------

def trace_gaps(trace, w):
    return _gaps(trace, w, np.empty(len(trace), dtype=np.int64)).tolist()


@pytest.mark.parametrize("w", [1, 2, 5, 25, 60])
def test_gaps_equal_the_window_table_of_every_bundled_trace(w):
    traces = [t for name in ("bursty", "content", "samples")
              for t in bundled_library(name)]
    assert len(traces) == 25
    low = (1 << K) - 1
    for trace in traces:
        packed = trace.window_table(w)[1][:len(trace)]
        assert trace_gaps(trace, w) == [(p >> K) - w * (p & low) for p in packed]


@pytest.mark.parametrize("n", [1, 5, 40])
def test_rate_sample_verdict_is_the_sign_of_the_flows_gaps(bursty_lib, n):
    cfg = ExperimentConfig(trace_library=bursty_lib)
    w = cfg.window_slots
    gaps = {id(t): trace_gaps(t, w) for t in bursty_lib}
    for seed in range(300):
        flows, end = draw_flow_set(cfg, n, seed)
        first = end - w + 1
        total = sum(gaps[id(f.trace)][(f.start_offset + first) % len(f.trace)]
                    for f in flows)
        assert total == reference_gap(flows, end, w)
        s = rate_sample(flows, MeasurementWindow(end_slot=end, length_slots=w))
        assert (s.average < s.instantaneous) == (total < 0)
