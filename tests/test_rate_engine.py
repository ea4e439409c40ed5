"""Instantaneous and windowed-average aggregate rate computation."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmac.bounds import empirical_exceedance
from vmac.errors import MixedFps, RateOverflow, WindowOutOfRange
from vmac.rate_engine import (
    MeasurementWindow,
    RateSample,
    aggregate_rate_series,
    average_aggregate_rate,
    instantaneous_aggregate_rate,
    rate_sample,
)
from vmac.trace_model import MBPS, FlowInstance

from .conftest import flow_rate_at, make_trace


def mbps_flow(slot_rates_mbps, fps=30.0, trace_id="f"):
    """Flow whose slot rates are exactly the given Mbps values."""
    sizes = [round(r * MBPS / (8 * fps)) for r in slot_rates_mbps]
    return FlowInstance(trace=make_trace(sizes, fps=fps, trace_id=trace_id), start_offset=0)


def test_instantaneous_is_sum_of_flows():
    flows = [mbps_flow([1.2]), mbps_flow([2.4]), mbps_flow([3.6])]
    assert instantaneous_aggregate_rate(flows, 0) == pytest.approx(7.2 * MBPS)


def test_instantaneous_empty_flow_set_is_zero():
    assert instantaneous_aggregate_rate([], 3) == 0.0
    assert average_aggregate_rate([], MeasurementWindow(4, 5)) == 0.0


def test_instantaneous_single_flow_identity():
    flow = mbps_flow([1.0, 2.0, 3.0])
    for slot in range(6):
        assert instantaneous_aggregate_rate([flow], slot) == flow_rate_at(flow, slot)


@pytest.mark.parametrize("slot", [True, 2.5, "3"], ids=["bool", "float", "string"])
def test_instantaneous_refuses_a_slot_that_is_not_an_integer(slot):
    # True was read as slot 1 and 2.5 failed inside numpy
    flow = FlowInstance(trace=make_trace([1, 2, 3, 4, 5]), start_offset=0)
    with pytest.raises(ValueError, match="^slot must be an integer, got "):
        instantaneous_aggregate_rate([flow], slot)


def test_instantaneous_reads_integer_slots_and_wraps_negative_ones():
    flow = FlowInstance(trace=make_trace([1, 2, 3, 4, 5]), start_offset=0)
    assert instantaneous_aggregate_rate([flow], np.int64(1)) == 480.0
    assert instantaneous_aggregate_rate([flow], -1) == flow_rate_at(flow, 4)


def test_mixed_fps_rejected():
    flows = [mbps_flow([1.0], fps=30.0), mbps_flow([1.0], fps=25.0)]
    with pytest.raises(MixedFps):
        instantaneous_aggregate_rate(flows, 0)
    with pytest.raises(MixedFps):
        average_aggregate_rate(flows, MeasurementWindow(0, 1))
    with pytest.raises(MixedFps):
        rate_sample(flows, MeasurementWindow(0, 1))


@pytest.mark.parametrize("as_flows", [list, tuple, lambda flows: (f for f in flows)],
                         ids=["list", "tuple", "generator"])
def test_flow_sets_read_once(bursty_lib, as_flows):
    # the frame-rate check used up a generator: its rates read 0.0, its
    # series zeros, and its exceedance raised on an empty max()
    flows = tuple(FlowInstance(trace=t, start_offset=37 * k)
                  for k, t in enumerate(bursty_lib))
    window = MeasurementWindow(end_slot=40, length_slots=5)
    assert instantaneous_aggregate_rate(as_flows(flows), 40) == \
        instantaneous_aggregate_rate(flows, 40) > 0
    assert average_aggregate_rate(as_flows(flows), window) == \
        average_aggregate_rate(flows, window) > 0
    for got, want in zip(aggregate_rate_series(as_flows(flows), 5, 200),
                         aggregate_rate_series(flows, 5, 200)):
        assert want.all() and np.array_equal(got, want)
    assert empirical_exceedance(as_flows(flows), window, 0.0, 500, seed=3) == \
        empirical_exceedance(flows, window, 0.0, 500, seed=3)


def test_average_of_ramp():
    flow = mbps_flow([1, 2, 3, 4, 5])
    window = MeasurementWindow(end_slot=4, length_slots=5)
    assert average_aggregate_rate([flow], window) == pytest.approx(3.0 * MBPS)


def test_average_two_level():
    flow = mbps_flow([1, 1, 3, 3])
    window = MeasurementWindow(end_slot=3, length_slots=4)
    assert average_aggregate_rate([flow], window) == pytest.approx(2.0 * MBPS, rel=1e-3)


def test_cbr_average_equals_instantaneous_exactly():
    flows = [mbps_flow([1.2] * 10), mbps_flow([0.6] * 10)]
    for end in range(4, 10):
        window = MeasurementWindow(end_slot=end, length_slots=5)
        sample = rate_sample(flows, window)
        assert sample.average == sample.instantaneous  # bit-for-bit


def test_burst_at_window_end():
    flow = mbps_flow([1, 1, 1, 1, 5])
    sample = rate_sample([flow], MeasurementWindow(4, 5))
    assert sample.instantaneous == pytest.approx(5 * MBPS, rel=1e-3)
    assert sample.average == pytest.approx(1.8 * MBPS, rel=1e-3)


def test_burst_at_window_start():
    flow = mbps_flow([5, 1, 1, 1, 1])
    sample = rate_sample([flow], MeasurementWindow(4, 5))
    assert sample.instantaneous == pytest.approx(1 * MBPS, rel=1e-3)
    assert sample.average == pytest.approx(1.8 * MBPS, rel=1e-3)


def test_window_out_of_range():
    with pytest.raises(WindowOutOfRange):
        MeasurementWindow(end_slot=3, length_slots=5)


def test_window_length_validation():
    with pytest.raises(ValueError):
        MeasurementWindow(end_slot=0, length_slots=0)


def test_window_length_below_one_message():
    with pytest.raises(ValueError, match="^length_slots must be >= 1, got 0$"):
        MeasurementWindow(5, 0)


@pytest.mark.parametrize("end, w, field", [
    (4.0, 2, "end_slot"), (4, 2.0, "length_slots"), (4, True, "length_slots"),
    (True, 1, "end_slot"), (4, np.True_, "length_slots"),
    (np.float64(4.0), 2, "end_slot"), ("4", 2, "end_slot"), (4, None, "length_slots"),
], ids=["float-end", "float-length", "bool-length", "bool-end", "numpy-bool-length",
        "numpy-float-end", "string-end", "none-length"])
def test_window_fields_must_be_integers(end, w, field):
    # MeasurementWindow(4, True) used to measure a 1-slot window
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        MeasurementWindow(end, w)


def test_window_fields_store_python_ints():
    window = MeasurementWindow(np.int64(9), np.int32(4))
    assert (type(window.end_slot), type(window.length_slots)) == (int, int)
    assert window == MeasurementWindow(9, 4) and window.start_slot == 6
    flows = [FlowInstance(trace=make_trace([3, 1, 4, 1, 5]), start_offset=np.int64(2))]
    assert_sample_is_reference(flows, window)


def test_one_slot_window_average_equals_instantaneous():
    flow = mbps_flow([1, 4, 2, 8])
    for end in range(4):
        sample = rate_sample([flow], MeasurementWindow(end, 1))
        assert sample.average == sample.instantaneous


sizes_strategy = st.lists(st.integers(0, 50_000), min_size=5, max_size=30)


@given(sizes=sizes_strategy, end=st.integers(4, 100))
def test_sandwich_invariant(sizes, end):
    flow = FlowInstance(trace=make_trace(sizes), start_offset=0)
    window = MeasurementWindow(end_slot=end, length_slots=5)
    rates = [
        instantaneous_aggregate_rate([flow], k)
        for k in range(window.start_slot, end + 1)
    ]
    avg = average_aggregate_rate([flow], window)
    assert min(rates) <= avg + 1e-9
    assert avg <= max(rates) + 1e-9


@given(sizes=sizes_strategy, end=st.integers(4, 50))
def test_permutation_invariance(sizes, end):
    flows = [
        FlowInstance(trace=make_trace(sizes, trace_id="a"), start_offset=0),
        FlowInstance(trace=make_trace(list(reversed(sizes)), trace_id="b"), start_offset=0),
    ]
    window = MeasurementWindow(end_slot=end, length_slots=5)
    assert average_aggregate_rate(flows, window) == average_aggregate_rate(
        list(reversed(flows)), window
    )
    assert instantaneous_aggregate_rate(flows, end) == instantaneous_aggregate_rate(
        list(reversed(flows)), end
    )


@given(sizes=sizes_strategy, end=st.integers(4, 50))
def test_linearity_under_size_doubling(sizes, end):
    base = FlowInstance(trace=make_trace(sizes, trace_id="x"), start_offset=0)
    doubled = FlowInstance(trace=make_trace([2 * s for s in sizes], trace_id="x2"), start_offset=0)
    window = MeasurementWindow(end_slot=end, length_slots=5)
    assert instantaneous_aggregate_rate([doubled], end) == pytest.approx(
        2 * instantaneous_aggregate_rate([base], end)
    )
    assert average_aggregate_rate([doubled], window) == pytest.approx(
        2 * average_aggregate_rate([base], window)
    )


@st.composite
def flow_sets(draw):
    """Flows over traces of mixed lengths at one shared fps, with any start
    offset, and a window from 1 slot to beyond twice the shortest trace,
    often an exact multiple of one flow's trace length."""
    fps = draw(st.sampled_from([1.0, 24.0, 29.97, 30.0]))
    library = [
        make_trace(sizes, fps=fps, trace_id=f"t{i}")
        for i, sizes in enumerate(draw(st.lists(
            st.lists(st.integers(0, 10 ** 9), min_size=1, max_size=12),
            min_size=1, max_size=4,
        )))
    ]
    flows = [
        FlowInstance(trace=library[t % len(library)],
                     start_offset=o % len(library[t % len(library)]))
        for t, o in draw(st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 10 ** 6)),
            min_size=1, max_size=8,
        ))
    ]
    shortest = min(len(f.trace) for f in flows)
    w = draw(st.one_of(
        st.integers(1, 2 * shortest + 3),
        st.builds(lambda f, k: k * len(f.trace),
                  st.sampled_from(flows), st.integers(1, 3)),
    ))
    end = w - 1 + draw(st.integers(0, 60))
    return flows, MeasurementWindow(end, w)


@settings(max_examples=300, deadline=None)
@given(case=flow_sets())
def test_rate_sample_equals_per_quantity_rates(case):
    flows, window = case
    sample = rate_sample(flows, window)
    assert sample.instantaneous == instantaneous_aggregate_rate(flows, window.end_slot)
    assert sample.average == average_aggregate_rate(flows, window)
    assert sample.window == window


def test_rate_sample_of_no_flows_is_zero():
    sample = rate_sample([], MeasurementWindow(7, 3))
    assert (sample.instantaneous, sample.average) == (0.0, 0.0)


def test_rate_sample_is_exact_when_running_sums_pass_int64():
    # frames near 2**59 bytes: each trace's doubled total stays within int64,
    # as a VideoTrace requires, but over seven flows and windows longer than
    # the traces the window's byte total, and so the running sums of prefix
    # values that form it, pass 2**63
    big = 2 ** 59
    short = make_trace([big + 1, big - 7, 3], trace_id="short")
    long = make_trace([big - 1, 5, big + 11, 0, 2], trace_id="long")
    flows = [FlowInstance(trace=t, start_offset=o)
             for t in (short, long) for o in range(4) if o < len(t)]
    for w in (6, 7, 11, 16):
        window = MeasurementWindow(w + 2, w)
        sample = rate_sample(flows, window)
        assert type(sample) is RateSample
        assert sample.instantaneous == instantaneous_aggregate_rate(
            flows, window.end_slot)
        assert sample.average == average_aggregate_rate(flows, window)
        assert sample.window is window
        assert sum(f.trace.window_bytes(f.start_offset + window.start_slot, w)
                   for f in flows) > 2 ** 63


@pytest.mark.parametrize("sizes, fps, end, w, overflows", [
    # at fps 1e306 a 1000-byte frame is 8e309 bit/s, beyond the largest
    # double; a 3-byte frame is 2.4e307 bit/s, within it
    ([1000, 0, 500, 3, 7, 900], 1e306, 0, 1, ("inst", "avg")),
    ([1000, 0, 500, 3, 7, 900], 1e306, 3, 2, ("avg",)),
    # the last slot's 8e308 bit/s overflows, the window's mean 1e308 does not
    ([0] * 7 + [1000], 1e305, 7, 8, ("inst",)),
    ([1000, 0, 500, 3, 7, 900], 1e304, 5, 6, ()),
])
def test_rates_beyond_the_double_range(sizes, fps, end, w, overflows):
    flows = [FlowInstance(trace=make_trace(sizes, fps=fps), start_offset=0)]
    window = MeasurementWindow(end, w)
    rates = {"inst": lambda: instantaneous_aggregate_rate(flows, end),
             "avg": lambda: average_aggregate_rate(flows, window)}
    for kind, rate in rates.items():
        if kind in overflows:
            with pytest.raises(RateOverflow, match="exceeds the largest double"):
                rate()
        else:
            assert rate() < float("inf")
    if overflows:
        with pytest.raises(RateOverflow, match="exceeds the largest double"):
            rate_sample(flows, window)
    else:
        sample = rate_sample(flows, window)
        assert (sample.instantaneous, sample.average) == (rates["inst"](), rates["avg"]())


def assert_sample_is_reference(flows, window):
    """`rate_sample` equals the two reference rates in type and every bit."""
    sample = rate_sample(flows, window)
    for got, want in ((sample.instantaneous,
                       instantaneous_aggregate_rate(flows, window.end_slot)),
                      (sample.average, average_aggregate_rate(flows, window))):
        assert (type(got), repr(got)) == (type(want), repr(want))
    assert sample.window is window


@pytest.mark.parametrize("w", [1, 3, 7])
def test_rate_sample_is_exact_when_the_last_slot_sum_passes_2_64(w):
    # a one-frame trace of 2**62 - 1 bytes is the largest a VideoTrace
    # holds; eight flows of it put the last slot's byte sum past 2**64
    trace = make_trace([2 ** 62 - 1], trace_id="huge")
    flows = [FlowInstance(trace=trace, start_offset=0) for _ in range(8)]
    for end in (w - 1, w, w + 4):
        window = MeasurementWindow(end, w)
        assert_sample_is_reference(flows, window)
        assert sum(f.trace.size_at(f.start_offset + end) for f in flows) > 2 ** 64


def test_rate_sample_of_one_trace_across_window_lengths():
    # one trace sampled at one window length, then another, then the first
    # again, then a window longer than the trace
    trace = make_trace([5, 0, 9, 12, 3, 2 ** 40], trace_id="six")
    flows = [FlowInstance(trace=trace, start_offset=o) for o in (0, 2, 5, 2)]
    for w in (5, 7, 5, 2 * len(trace) + 3):
        for end in range(w - 1, w + 2 * len(trace)):
            assert_sample_is_reference(flows, MeasurementWindow(end, w))


def test_rate_sample_of_flows_alternating_trace_lengths():
    short = make_trace([7, 1, 2 ** 33], trace_id="short")
    long = make_trace([4, 0, 11, 2 ** 35, 6], trace_id="long")
    flows = [FlowInstance(trace=t, start_offset=o)
             for o in range(3) for t in (short, long)]
    for w in (1, 2, 3, 4, 5, 7, 15, 4):
        for end in range(w - 1, w + 16):
            assert_sample_is_reference(flows, MeasurementWindow(end, w))


@pytest.mark.parametrize("odd_at", [0, 2, 4])
@pytest.mark.parametrize("sampled", [False, True])
def test_rate_sample_mixed_fps_message_wherever_the_odd_flow_is(odd_at, sampled):
    # the same MixedFps as the reference rates give, whether or not the
    # traces were sampled before
    traces = [make_trace([3, 8, 1, 5], fps=30.0, trace_id=f"a{i}") for i in range(2)]
    odd = make_trace([3, 8, 1], fps=25.0, trace_id="odd")
    flows = [FlowInstance(trace=traces[i % 2], start_offset=i % 4) for i in range(4)]
    flows.insert(odd_at, FlowInstance(trace=odd, start_offset=1))
    window = MeasurementWindow(6, 5)
    if sampled:
        for group in ([f for f in flows if f.trace is not odd], [flows[odd_at]]):
            assert_sample_is_reference(group, window)
    messages = []
    for call in (lambda: rate_sample(flows, window),
                 lambda: instantaneous_aggregate_rate(flows, window.end_slot),
                 lambda: average_aggregate_rate(flows, window)):
        with pytest.raises(MixedFps) as caught:
            call()
        messages.append(str(caught.value))
    assert messages == [messages[0]] * 3
    assert "25.0" in messages[0] and "30.0" in messages[0]


def test_threads_sampling_one_fresh_trace_at_two_windows_agree():
    # two threads, switching often, race to sample one fresh trace at
    # window lengths 5 and 25; each sample equals the reference rates
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(3):
            trace = make_trace([(seed * 7919 + 31 * k * k) % 100_003 for k in range(3000)],
                               trace_id=f"race-{seed}")
            flows = [FlowInstance(trace=trace, start_offset=o) for o in (0, 17, 2990)]
            start = threading.Barrier(2)
            results = {}

            def sample(w):
                start.wait(timeout=10)
                results[w] = [rate_sample(flows, MeasurementWindow(end, w))
                              for end in range(w - 1, w + 39)]

            threads = [threading.Thread(target=sample, args=(w,)) for w in (5, 25)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert sorted(results) == [5, 25]
            for w, samples in results.items():
                assert samples == [(
                    instantaneous_aggregate_rate(flows, end),
                    average_aggregate_rate(flows, MeasurementWindow(end, w)),
                    MeasurementWindow(end, w),
                ) for end in range(w - 1, w + 39)]
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("first_fps", [30, 30.0])
@pytest.mark.parametrize("sampled", [False, True])
def test_rate_sample_of_int_and_float_fps_in_one_flow_set(first_fps, sampled):
    # fps=30 and fps=30.0 are one frame rate: no MixedFps, and the rates
    # take the first flow's fps, as the reference rates do
    other_fps = 30.0 if first_fps == 30 else 30
    sizes = [5, 0, 9, 12, 3, 2 ** 40, 7]
    first = make_trace(sizes, fps=first_fps, trace_id="first")
    same_len = make_trace(sizes[::-1], fps=other_fps, trace_id="same-length")
    other_len = make_trace(sizes[:4], fps=other_fps, trace_id="other-length")
    flows = [FlowInstance(trace=t, start_offset=o)
             for o in (0, 3) for t in (first, same_len, other_len)]
    if sampled:
        for t in (same_len, other_len):
            rate_sample([FlowInstance(trace=t, start_offset=0)], MeasurementWindow(9, 4))
    for w in (1, 4, 7, 9):
        for end in (w - 1, w + 5, 10 ** 12 + w):
            assert_sample_is_reference(flows, MeasurementWindow(end, w))


def test_rate_sample_at_w_300_mixing_stale_and_fresh_tables():
    # tables left at other window lengths, some of them above CPython's
    # small-int cache, interleaved in one call with traces never sampled;
    # two traces of each length, so equal lengths meet in one pass
    lengths = (7, 299, 300, 301, 1000)
    traces = [make_trace([(31 * k * k + 7 * k + i) % 100_003 for k in range(n)],
                         trace_id=f"n{n}-{i}")
              for n in lengths for i in range(2)]
    for i, trace in enumerate(traces):
        if i % 2:
            continue  # left fresh
        stale_w = (5, 299, 301, 600)[i // 2 % 4]
        rate_sample([FlowInstance(trace=trace, start_offset=0)],
                    MeasurementWindow(stale_w - 1, stale_w))
    flows = [FlowInstance(trace=t, start_offset=(17 * j) % len(t))
             for j, t in enumerate(traces + traces[::-1])]
    for end in (299, 300, 1298, 10 ** 12 - 1):
        assert_sample_is_reference(flows, MeasurementWindow(end, 300))
    # and the stale tables again, now that every trace holds w = 300
    for w in (299, 300, 5):
        assert_sample_is_reference(flows, MeasurementWindow(10 ** 6 + w, w))


@pytest.mark.parametrize("end", [10 ** 12 - 1, 10 ** 12, 10 ** 12 + 1,
                                 2 ** 40 + 12_345, 999_999_999_989])
def test_rate_sample_at_end_slots_near_10_12(end):
    # the slot of the window's start, taken modulo each trace's length, is
    # a large int here; lengths include primes and powers of two
    traces = [make_trace([(k * 7919 + n) % 65_537 for k in range(n)], trace_id=f"n{n}")
              for n in (1, 2, 3, 64, 97, 1000, 3000)]
    flows = [FlowInstance(trace=t, start_offset=o % len(t))
             for t in traces for o in (0, 1, 50)]
    for w in (1, 5, 96, 3001):
        assert_sample_is_reference(flows, MeasurementWindow(end, w))


def test_rate_sample_of_one_and_two_frame_traces():
    one = make_trace([2 ** 61], trace_id="one")
    one_b = make_trace([0], trace_id="one-b")
    two = make_trace([3, 2 ** 50], trace_id="two")
    two_b = make_trace([2 ** 40, 0], trace_id="two-b")
    flows = [FlowInstance(trace=t, start_offset=o)
             for o in (0, 1) for t in (one, two, one_b, two_b) if o < len(t)]
    for w in (1, 2, 3, 4, 5, 2, 1):
        for end in range(w - 1, w + 4):
            assert_sample_is_reference(flows, MeasurementWindow(end, w))
            assert_sample_is_reference(flows[::-1], MeasurementWindow(end, w))
        assert_sample_is_reference(flows, MeasurementWindow(10 ** 12 + w, w))
