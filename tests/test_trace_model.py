"""Trace parsing, synthesis and per-flow rate lookup."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmac.errors import (
    BoundsTooTight,
    ByteOverflow,
    EmptyTrace,
    MalformedLine,
    MissingFps,
)
from vmac.trace_model import (
    BITS_PER_BYTE,
    MBPS,
    ContentClass,
    FlowInstance,
    FlowRateBounds,
    FrameType,
    flow_rate_at,
    parse_trace_file,
    serialize_trace,
    synth_bounded_trace,
    synth_onoff_trace,
)

from .conftest import make_trace


# -- parsing ------------------------------------------------------------------

def test_parse_terse_format_with_override(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("1000\n2000\n3000\n")
    trace = parse_trace_file(p, fps_override=30)
    assert len(trace) == 3
    rates = [trace.rate_at(k) / MBPS for k in range(3)]
    assert rates == [0.24, 0.48, 0.72]


def test_parse_fps_directive_and_zero_sizes(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("# fps=25\n0\n0\n")
    trace = parse_trace_file(p)
    assert trace.fps == 25
    assert [trace.rate_at(k) for k in range(2)] == [0.0, 0.0]


def test_parse_three_column_format(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("# fps=30\n# class=sports\n0 I 12000\n1 P 4000\n2 B 2000\n")
    trace = parse_trace_file(p)
    assert trace.content_class is ContentClass.SPORTS
    assert [f.frame_type for f in trace.frames] == [
        FrameType.I, FrameType.P, FrameType.B,
    ]
    assert [f.size for f in trace.frames] == [12000, 4000, 2000]


def test_in_file_fps_wins_over_override(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("# fps=25\n100\n")
    assert parse_trace_file(p, fps_override=30).fps == 25


def test_malformed_line_reports_line_number(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("# fps=30\n100\nabc\n")
    with pytest.raises(MalformedLine) as exc:
        parse_trace_file(p)
    assert exc.value.line_no == 3
    assert "line 3" in str(exc.value)


def test_negative_size_is_malformed(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("# fps=30\n-5\n")
    with pytest.raises(MalformedLine):
        parse_trace_file(p)


def test_empty_file_rejected(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("# fps=30\n")
    with pytest.raises(EmptyTrace):
        parse_trace_file(p)


def test_missing_fps_rejected(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("100\n200\n")
    with pytest.raises(MissingFps):
        parse_trace_file(p)


def test_parse_serialize_parse_round_trip(tmp_path):
    src = tmp_path / "src.txt"
    src.write_text("# fps=24\n# class=news\n0 I 9000\n1 B 1500\n2 P 3000\n")
    first = parse_trace_file(src)
    out = tmp_path / "src.txt"  # same stem so ids compare equal
    serialize_trace(first, out)
    second = parse_trace_file(out)
    assert first == second


# -- flow rate lookup ---------------------------------------------------------

def test_flow_rate_basic():
    trace = make_trace([100, 200], fps=10.0)
    flow = FlowInstance(trace=trace, start_offset=0)
    assert flow_rate_at(flow, 0) == 8000.0


def test_flow_rate_wraps():
    trace = make_trace([100, 200], fps=10.0)
    flow = FlowInstance(trace=trace, start_offset=1)
    assert flow_rate_at(flow, 1) == 8000.0  # wraps back to frame 0


def test_cbr_rate_constant_across_slots():
    trace = make_trace([500] * 7, fps=30.0)
    flow = FlowInstance(trace=trace, start_offset=3)
    expected = 500 * BITS_PER_BYTE * 30.0
    assert all(flow_rate_at(flow, k) == expected for k in range(20))


@given(
    sizes=st.lists(st.integers(0, 10_000), min_size=1, max_size=20),
    offset_and_slot=st.tuples(st.integers(0, 19), st.integers(0, 100)),
)
def test_flow_rate_periodic(sizes, offset_and_slot):
    offset, slot = offset_and_slot
    trace = make_trace(sizes, fps=30.0)
    flow = FlowInstance(trace=trace, start_offset=offset % len(sizes))
    assert flow_rate_at(flow, slot) == flow_rate_at(flow, slot + len(sizes))


def test_window_bytes_wraps_and_matches_naive():
    trace = make_trace([10, 20, 30, 40, 50], fps=30.0)
    for start in range(5):
        for count in (1, 3, 5, 8, 12):
            naive = sum(trace.size_at(start + k) for k in range(count))
            assert trace.window_bytes(start, count) == naive


# -- int64 exactness ------------------------------------------------------------

def test_frame_size_beyond_int64_rejected(tmp_path):
    p = tmp_path / "huge.txt"
    p.write_text("# fps=30\n100\n" + str(10 ** 20) + "\n")
    with pytest.raises(ByteOverflow):
        parse_trace_file(p)


def test_window_sum_that_would_wrap_rejected():
    # three frames of 2^62 bytes: a two-slot window sum is 2^63, one past
    # int64, and used to come back as -2^63
    with pytest.raises(ByteOverflow):
        make_trace([2 ** 62] * 3)


def test_largest_exact_trace_accepted():
    # twice the byte total is exactly the int64 maximum
    half = (2 ** 63 - 1) // 2
    trace = make_trace([half - 1, 1])
    assert trace.window_bytes(0, 2) == half
    assert trace.window_bytes(1, 3) == half + 1


# -- bounded synthesis --------------------------------------------------------

def test_degenerate_bounds_give_cbr():
    rate = 2.4 * MBPS
    bounds = FlowRateBounds(rate, rate)
    trace = synth_bounded_trace(100, bounds, fps=30.0, seed=1)
    expected = math.floor(rate / (8 * 30.0)) * 8 * 30.0
    assert all(trace.rate_at(k) == expected for k in range(100))


def test_synth_bounded_deterministic():
    bounds = FlowRateBounds(1 * MBPS, 3 * MBPS)
    a = synth_bounded_trace(200, bounds, fps=30.0, seed=99)
    b = synth_bounded_trace(200, bounds, fps=30.0, seed=99)
    assert a == b


def test_synth_bounded_uniform_mean():
    # mean of uniform [1, 3] Mbps is 2 Mbps; Monte Carlo estimate over 10^4
    # slots must land inside [1.9, 2.1] Mbps
    bounds = FlowRateBounds(1 * MBPS, 3 * MBPS)
    trace = synth_bounded_trace(10_000, bounds, fps=30.0, seed=7)
    mean = float(np.mean([trace.rate_at(k) for k in range(len(trace))]))
    assert 1.9 * MBPS <= mean <= 2.1 * MBPS


def test_synth_bounded_rates_inside_bounds():
    bounds = FlowRateBounds(1 * MBPS, 3 * MBPS)
    trace = synth_bounded_trace(1000, bounds, fps=30.0, seed=3)
    flow = FlowInstance(trace=trace, start_offset=0)
    for k in range(len(trace)):
        assert bounds.min_rate - 8 * 30.0 <= flow_rate_at(flow, k) <= bounds.max_rate


@settings(max_examples=25)
@given(
    lo=st.floats(0.1, 5.0),
    width=st.floats(0.0, 5.0),
    seed=st.integers(0, 2 ** 31),
)
def test_synth_bounded_never_exceeds_declared_bounds(lo, width, seed):
    bounds = FlowRateBounds(lo * MBPS, (lo + width) * MBPS)
    trace = synth_bounded_trace(50, bounds, fps=30.0, seed=seed)
    for k in range(50):
        # floor quantization may land below min_rate, never above max_rate
        assert trace.rate_at(k) <= bounds.max_rate


def test_bounds_too_tight():
    bounds = FlowRateBounds(100.0, 200.0)  # < one byte per frame at 30 fps
    with pytest.raises(BoundsTooTight):
        synth_bounded_trace(10, bounds, fps=30.0, seed=0)


def test_invalid_bounds_rejected():
    with pytest.raises(ValueError):
        FlowRateBounds(3.0, 1.0)
    with pytest.raises(ValueError):
        FlowRateBounds(-1.0, 1.0)


# -- bursty synthesis ---------------------------------------------------------

def test_synth_onoff_deterministic():
    a = synth_onoff_trace(300, 30.0, 5, 1 * MBPS, dip_prob=0.1, dip_factor=0.5)
    b = synth_onoff_trace(300, 30.0, 5, 1 * MBPS, dip_prob=0.1, dip_factor=0.5)
    assert a == b


def test_synth_onoff_no_features_is_cbr():
    trace = synth_onoff_trace(100, 30.0, 1, 1.2 * MBPS)
    assert len(set(int(s) for s in trace.sizes)) == 1


def test_synth_onoff_dips_present():
    trace = synth_onoff_trace(
        2000, 30.0, 2, 1 * MBPS, dip_prob=0.1, dip_factor=0.1
    )
    sizes = trace.sizes
    assert sizes.min() < 0.2 * sizes.max()


def test_flow_offset_validation():
    trace = make_trace([1, 2, 3])
    with pytest.raises(ValueError):
        FlowInstance(trace=trace, start_offset=3)
