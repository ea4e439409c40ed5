"""Trace parsing, synthesis and per-flow rate lookup."""

import copy
import dataclasses
import io
import math
import pickle
import re
import sys
import tempfile
import threading
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmac import cli
from vmac.errors import (
    BoundsTooTight,
    ByteOverflow,
    EmptyTrace,
    MalformedLine,
    MissingFps,
    RateOverflow,
    TraceError,
)
from vmac.rate_engine import (
    MeasurementWindow,
    average_aggregate_rate,
    instantaneous_aggregate_rate,
    rate_sample,
)
from vmac.trace_model import (
    BITS_PER_BYTE,
    MBPS,
    K,
    ContentClass,
    FlowInstance,
    FlowRateBounds,
    VideoTrace,
    parse_trace_file,
    serialize_trace,
    synth_bounded_trace,
)

from .conftest import TRACES_DIR, flow_rate_at, generate_traces, make_trace, rate_at

synth_onoff_trace = generate_traces().synth_onoff_trace


# -- parsing ------------------------------------------------------------------

def test_parse_terse_format_with_override(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("1000\n2000\n3000\n")
    trace = parse_trace_file(p, fps_override=30)
    assert len(trace) == 3
    rates = [rate_at(trace, k) / MBPS for k in range(3)]
    assert rates == [0.24, 0.48, 0.72]


def test_parse_fps_directive_and_zero_sizes(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("# fps=25\n0\n0\n")
    trace = parse_trace_file(p)
    assert trace.fps == 25
    assert [rate_at(trace, k) for k in range(2)] == [0.0, 0.0]


def test_parse_three_column_format(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("# fps=30\n# class=sports\n0 I 12000\n1 P 4000\n2 B 2000\n")
    trace = parse_trace_file(p)
    assert trace.content_class is ContentClass.SPORTS
    assert (trace.indices.tolist(), trace.frame_types, trace.sizes.tolist()) == (
        [0, 1, 2], "IPB", [12000, 4000, 2000],
    )


@pytest.mark.parametrize(
    "fps_line, class_line",
    [
        ("# fps = 25", "# class = sports"),
        ("#fps =25", "#class= Sports"),
        ("  #\tfps\t=\t25 ", "# class =sports"),
    ],
)
def test_directives_allow_spaces_around_equals(tmp_path, fps_line, class_line):
    p = tmp_path / "t.txt"
    p.write_text(f"{fps_line}\n{class_line}\n0 I 100\n")
    trace = parse_trace_file(p, fps_override=30)
    assert (trace.fps, trace.content_class) == (25.0, ContentClass.SPORTS)


@pytest.mark.parametrize("line", ["# fps", "# fps 25", "# fpsx = 25", "# note fps = 25",
                                  "# class", "# classes = sports"])
def test_directive_needs_its_key_and_equals(tmp_path, line):
    p = tmp_path / "t.txt"
    p.write_text(f"{line}\n# class=news\n{line}\n100\n")
    trace = parse_trace_file(p, fps_override=30)
    assert (trace.fps, trace.content_class) == (30.0, ContentClass.NEWS)


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


@pytest.mark.parametrize(
    "text, line_no",
    [
        ("# fps=30\n0 I 1\n9223372036854775808 I 5\n", 3),
        ("# fps=30\n5 I 1\n7 P 2\n2\n", 4),
        ("# fps=30\n0 I 1\n1 P\n", 3),
        ("\n# fps=1e999\n0\n", 2),
        ("  # fps=30\n\t# fps=-2\n0\n", 2),
        ("# fps=30\n-0 I 1\n-3\n", 3),
        ("# fps=30\n0 I 99999999999999999999\n1 I x\n", 3),
        ("# fps=30\n-1 I 5\n# fps=inf\n", 2),
        ("1 I 5\n1 P 5\n# fps=0\n", 2),
        ("# fps=nan\n0 I x\n", 1),
        ("0 I 5\n3 P 7\n2 B 1\n", 3),
        ("# fps = 30\n0 I 5\n# fps = inf\n", 3),
        ("# fps = \n0 I 5\n", 1),
    ],
)
def test_malformed_row_or_directive_line_number(tmp_path, text, line_no):
    p = tmp_path / "t.txt"
    p.write_text(text)
    with pytest.raises(MalformedLine) as exc:
        parse_trace_file(p)
    assert exc.value.line_no == line_no


@pytest.mark.parametrize(
    "data, line_no",
    [
        (b"# fps=30\n100\n2\xe900\n", 3),
        (b"# caf\xe9\n100\n", 1),
        (b"# fps=30\r\n100\r2\xe900\r\n", 3),
        (b"# fps=30\n100\n\xc3", 3),
    ],
    ids=["row", "comment", "cr-line-ends", "truncated-at-end"],
)
def test_first_non_utf8_byte_is_malformed_line(tmp_path, data, line_no):
    p = tmp_path / "t.txt"
    p.write_bytes(data)
    with pytest.raises(MalformedLine) as exc:
        parse_trace_file(p)
    assert exc.value.line_no == line_no
    assert f"line {line_no}:" in str(exc.value)


@pytest.mark.parametrize(
    "data, line_no",
    [
        (b"# fps=30\n0 I 5\nx y\n\xff\n", 3),
        (b"# fps=30\n\xff\nx y\n", 2),
    ],
    ids=["bad-row-before-bad-byte", "bad-byte-before-bad-row"],
)
def test_utf8_is_checked_in_file_order_with_every_other_rule(tmp_path, data, line_no):
    # the whole file was decoded before any line was read, so a bad byte
    # was reported ahead of an earlier bad row
    p = tmp_path / "t.txt"
    p.write_bytes(data)
    with pytest.raises(MalformedLine) as exc:
        parse_trace_file(p)
    assert exc.value.line_no == line_no


def test_malformed_line_text_shows_a_bad_byte_as_a_replacement(tmp_path):
    p = tmp_path / "t.txt"
    p.write_bytes(b"# fps=30\r\n100\r2\xe900\r\n")
    with pytest.raises(MalformedLine) as exc:
        parse_trace_file(p)
    assert exc.value.text == "2\ufffd00"


def test_a_hash_after_the_first_column_is_a_frame_type(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("# fps=30\n0 # 5\n  #1 I 6\n1 I 7\n")
    trace = parse_trace_file(p)
    assert (trace.sizes.tolist(), trace.frame_types) == ([5, 7], "?I")


def test_cr_lf_and_lone_cr_end_lines(tmp_path):
    p = tmp_path / "t.txt"
    p.write_bytes(b"# fps=30\r\n100\r200\n\r300\r\n")
    assert parse_trace_file(p).sizes.tolist() == [100, 200, 300]


def test_mixed_and_commented_rows(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("0 I 5\n  # note\n\n1\n\t2 X 7\n# fps=30\n9 B 3\n")
    trace = parse_trace_file(p)
    assert trace.indices.tolist() == [0, 1, 2, 9]
    assert trace.frame_types == "I??B"
    assert trace.sizes.tolist() == [5, 1, 7, 3]


def test_empty_file_rejected(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("# fps=30\n")
    with pytest.raises(EmptyTrace):
        parse_trace_file(p)
    with pytest.raises(EmptyTrace):
        VideoTrace(id="t", sizes=[], fps=30.0)


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


@pytest.mark.parametrize("fps", [30000 / 1001, 24000 / 1001, 1 / 3])
def test_serialize_keeps_every_digit_of_fps(tmp_path, fps):
    trace = VideoTrace(id="t", sizes=[9000, 0, 1500], fps=fps)
    path = tmp_path / "t.txt"
    serialize_trace(trace, path)
    assert path.read_text().splitlines()[0] == f"# fps={fps!r}"
    assert parse_trace_file(path) == trace


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

def test_summary_rates_beyond_the_double_range():
    # a zero frame is 0 bit/s at any fps, also where 8 * fps is inf
    assert VideoTrace(id="t", sizes=[0], fps=1e308).summary_rates() == (0.0, 0.0, 0.0)
    with pytest.raises(RateOverflow):
        VideoTrace(id="t", sizes=[0, 1], fps=1e308).summary_rates()


def test_frame_size_beyond_int64_rejected(tmp_path):
    p = tmp_path / "huge.txt"
    p.write_text("# fps=30\n100\n" + str(10 ** 20) + "\n")
    with pytest.raises(ByteOverflow):
        parse_trace_file(p)


@pytest.mark.parametrize("size", [2 ** 63, 10 ** 20])
def test_parsed_size_beyond_int64_names_the_trace(tmp_path, size):
    # the parser hands its columns over as int64 arrays, except where a
    # size does not fit, which VideoTrace refuses
    p = tmp_path / "huge.txt"
    p.write_text(f"# fps=30\n0 I 100\n1 P {size}\n")
    with pytest.raises(ByteOverflow, match="^trace huge: a frame size exceeds int64$"):
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
    assert all(rate_at(trace, k) == expected for k in range(100))


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
    mean = float(np.mean([rate_at(trace, k) for k in range(len(trace))]))
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
        assert rate_at(trace, k) <= bounds.max_rate


def test_bounds_too_tight():
    bounds = FlowRateBounds(100.0, 200.0)  # < one byte per frame at 30 fps
    with pytest.raises(BoundsTooTight):
        synth_bounded_trace(10, bounds, fps=30.0, seed=0)


@pytest.mark.parametrize("bounds, fps", [
    (FlowRateBounds(1e21, 1e22), 30.0),
    (FlowRateBounds(2.0 ** 66, 2.0 ** 66), 1.0),
    (FlowRateBounds(0.0, math.inf), 30.0),
], ids=["1e22-at-30fps", "2^66-at-1fps", "inf"])
def test_bounds_whose_largest_frame_leaves_int64_refused_before_any_draw(bounds, fps):
    # 1e22 and 2^66 wrapped in numpy's cast, with a RuntimeWarning, into
    # negative sizes that VideoTrace refused; inf overflowed in math.floor
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ByteOverflow, match="largest frame size .* exceeds int64"):
            synth_bounded_trace(10, bounds, fps=fps, seed=0)


@pytest.mark.parametrize("bounds", [
    (0, 1e6), None,
    SimpleNamespace(min_rate=0.0, max_rate=1e6), SimpleNamespace(min_rate=0.0, max_rate=1e30),
], ids=["pair", "none", "look-alike", "int64-look-alike"])
def test_bounded_trace_refuses_bounds_that_are_not_rate_bounds(bounds):
    # a pair raised AttributeError on .max_rate, and a look-alike drew a
    # trace or raised ByteOverflow
    with pytest.raises(ValueError, match=f"^bounds must be FlowRateBounds, got {re.escape(repr(bounds))}$"):
        synth_bounded_trace(3, bounds, 30.0, 0)
    # the length, seed and fps are checked first
    for length, seed, fps, message in ((0, 0, 30.0, "length must be positive"),
                                       (3, -1, 30.0, "seed must be >= 0"),
                                       (3, 0, 0.0, "fps must be a positive real")):
        with pytest.raises(ValueError, match=f"^{message}"):
            synth_bounded_trace(length, bounds, fps, seed)


@pytest.mark.parametrize("min_rate, max_rate, shown", [
    (True, True, "True"),
    ("1", "2", "'1'"),
    (None, 1.0, "None"),
    (0.0, 1j, "1j"),
], ids=["bool", "string", "none", "complex"])
def test_rate_bounds_that_are_not_reals_refused(min_rate, max_rate, shown):
    # two bools built a range from which 1-byte frames were drawn; the
    # others raised TypeError from <=
    with pytest.raises(ValueError, match=f"^rate bounds must be reals, got {re.escape(shown)}$"):
        FlowRateBounds(min_rate, max_rate)


@pytest.mark.parametrize("min_rate, max_rate", [
    (math.inf, math.inf), (0, 10 ** 400), (10 ** 400, 10 ** 400),
], ids=["inf-inf", "int-past-doubles", "both-past-doubles"])
def test_rate_bounds_without_a_double_width_refused(min_rate, max_rate):
    # [inf, inf] built a range of NaN width, for which hoeffding_delta
    # returned a NaN delta, and 10**400 one for which it raised OverflowError
    message = f"rate bounds must be doubles of a defined width, got [{min_rate}, {max_rate}]"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FlowRateBounds(min_rate, max_rate)


def test_rate_bounds_keep_their_given_values():
    bounds = FlowRateBounds(0, 10 ** 300)
    assert (type(bounds.min_rate), bounds.max_rate) == (int, 10 ** 300)
    assert repr(FlowRateBounds(1, 2.5)) == "FlowRateBounds(min_rate=1, max_rate=2.5)"
    assert FlowRateBounds(5.0, math.inf).width == math.inf


def test_rate_bounds_keep_an_infinite_maximum_and_their_order_message():
    assert FlowRateBounds(0, math.inf).width == math.inf
    for min_rate, max_rate in ((math.nan, 1.0), (2.0, 1.0)):
        with pytest.raises(ValueError, match="^need 0 <= min_rate <= max_rate"):
            FlowRateBounds(min_rate, max_rate)


def test_invalid_bounds_rejected():
    with pytest.raises(ValueError):
        FlowRateBounds(3.0, 1.0)
    with pytest.raises(ValueError):
        FlowRateBounds(-1.0, 1.0)
    with pytest.raises(ValueError):
        FlowRateBounds(0.0, math.nan)
    with pytest.raises(ValueError, match="length must be positive"):
        synth_bounded_trace(0, FlowRateBounds(0.0, 1.0), fps=30.0, seed=0)
    with pytest.raises(ValueError, match="length must be positive"):
        synth_onoff_trace(0, 30.0, 0, 1 * MBPS)


GENERATORS = {
    "bounded": lambda length, seed: synth_bounded_trace(
        length, FlowRateBounds(0.0, 1 * MBPS), fps=30.0, seed=seed),
    "onoff": lambda length, seed: synth_onoff_trace(length, 30.0, seed, 1 * MBPS),
}


@pytest.mark.parametrize("generator", sorted(GENERATORS))
@pytest.mark.parametrize("length, seed, message", [
    (10, True, "seed must be an integer, got bool True"),
    (10, 1.5, "seed must be an integer, got float 1.5"),
    (10, -1, "seed must be >= 0, got -1"),
    (True, 0, "length must be an integer, got bool True"),
    (5.0, 0, "length must be an integer, got float 5.0"),
], ids=["bool-seed", "float-seed", "negative-seed", "bool-length", "float-length"])
def test_generators_refuse_a_bad_seed_or_length(generator, length, seed, message):
    # a seed of True drew the trace of seed 1, and a length of True built a
    # one-frame trace; the floats and -1 failed inside numpy
    with pytest.raises(ValueError, match=f"^{message}$"):
        GENERATORS[generator](length, seed)


@pytest.mark.parametrize("generator", ["bounded", "onoff"])
@pytest.mark.parametrize("fps, shown", [
    (0.0, "0.0"), ("30", "'30'"), (math.nan, "nan"), (math.inf, "inf"),
], ids=["zero", "string", "nan", "inf"])
def test_generators_refuse_a_bad_fps_before_using_it(generator, fps, shown):
    # 0.0 divided by zero, "30" raised TypeError and NaN failed in int();
    # the bounded generator at inf, with a positive least rate, raised
    # BoundsTooTight
    make = {
        "bounded": lambda: synth_bounded_trace(
            10, FlowRateBounds(0.5 * MBPS, 1 * MBPS), fps=fps, seed=0),
        "onoff": lambda: synth_onoff_trace(10, fps, 0, 1 * MBPS),
    }[generator]
    with pytest.raises(ValueError, match=f"^fps must be a positive real, got {re.escape(shown)}$"):
        make()


@pytest.mark.parametrize("content_class, message", [
    ("news", "content class must be a ContentClass, got str 'news'"),
    (None, "content class must be a ContentClass, got NoneType None"),
], ids=["name", "none"])
def test_trace_refuses_a_content_class_that_is_not_a_member(content_class, message):
    # a name built a trace that serialize_trace could not write
    with pytest.raises(ValueError, match=f"^{message}$"):
        VideoTrace(id="t", sizes=[1, 2], fps=30.0, content_class=content_class)


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


@pytest.mark.parametrize("field, value", [
    ("start_offset", 1.0), ("start_offset", True), ("start_offset", np.True_),
    ("start_offset", np.float64(1.0)), ("start_offset", "1"), ("start_offset", None),
    ("flow_id", 2.5), ("flow_id", False), ("flow_id", "a"),
], ids=["float", "bool", "numpy-bool", "numpy-float", "string", "none",
        "float-id", "bool-id", "string-id"])
def test_flow_fields_must_be_integers(field, value):
    # a float offset used to construct and then fail inside rate_sample
    columns = {"start_offset": 1, "flow_id": 0, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        FlowInstance(trace=make_trace([1, 2, 3]), **columns)


def test_flow_fields_store_python_ints():
    flow = FlowInstance(trace=make_trace([1, 2, 3]), start_offset=np.int64(2),
                        flow_id=np.uint8(7))
    assert (type(flow.start_offset), type(flow.flow_id)) == (int, int)
    assert (flow.start_offset, flow.flow_id) == (2, 7)
    assert flow == FlowInstance(trace=flow.trace, start_offset=2, flow_id=7)


@pytest.mark.parametrize("trace, offset", [
    ("abc", 0), (None, 0), (np.array([1, 2, 3]), 0), ([1, 2, 3], 1.5),
], ids=["string", "none", "array", "list-before-its-offset"])
def test_flow_trace_must_be_a_video_trace(trace, offset):
    # a string or an array built a flow that failed later in rate_sample, and
    # None raised TypeError from len()
    with pytest.raises(ValueError, match=f"^trace must be a VideoTrace, got {re.escape(repr(trace))}$"):
        FlowInstance(trace=trace, start_offset=offset)


# -- columnar traces ---------------------------------------------------------------

def test_columns_are_read_only():
    trace = VideoTrace(
        id="t", sizes=[7, 0, 9], fps=30.0, frame_types="IB?", indices=[2, 5, 6]
    )
    assert trace.sizes.dtype == np.int64 and trace.indices.dtype == np.int64
    with pytest.raises(ValueError):
        trace.sizes[0] = 1
    with pytest.raises(ValueError):
        trace.indices[0] = 1
    with pytest.raises(ValueError):
        trace._cum2[0] = 1
    assert (trace.indices.tolist(), trace.frame_types, trace.sizes.tolist()) == (
        [2, 5, 6], "IB?", [7, 0, 9],
    )
    plain = VideoTrace(id="t", sizes=[7, 0, 9], fps=30.0)
    assert plain.frame_types == "???"
    assert plain.indices.tolist() == [0, 1, 2]


def test_equality_and_hash_by_value():
    a = VideoTrace(id="t", sizes=[1, 2], fps=30.0, frame_types="IP")
    b = VideoTrace(id="t", sizes=np.array([1, 2]), fps=30.0, frame_types="IP")
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert (a == "t") is False
    assert a != VideoTrace(id="t", sizes=[1, 3], fps=30.0, frame_types="IP")
    assert a != VideoTrace(id="t", sizes=[1, 2], fps=30.0, frame_types="IB")
    assert a != VideoTrace(id="t", sizes=[1, 2], fps=30.0, frame_types="IP",
                           indices=[0, 2])


def test_pickle_and_deepcopy_round_trip():
    trace = VideoTrace(
        id="t", sizes=[7, 0, 9, 4], fps=25.0, content_class=ContentClass.NEWS,
        frame_types="IB?P", indices=[2, 5, 6, 10],
    )
    flows = [FlowInstance(trace=trace, start_offset=3),
             FlowInstance(trace=trace, start_offset=1)]
    window = MeasurementWindow(9, 6)
    for clone in (pickle.loads(pickle.dumps(trace)), copy.deepcopy(trace)):
        assert clone == trace and hash(clone) == hash(trace)
        # a shallow copy is rebuilt from the columns too
        assert hash(copy.copy(clone)) == hash(trace)
        assert not (clone.sizes.flags.writeable or clone.indices.flags.writeable)
        assert clone.window_bytes(3, 9) == trace.window_bytes(3, 9)
        # the stored peak, like the prefix sum, is rebuilt from the columns
        assert type(clone._peak) is int and clone._peak == trace._peak == 9
        clone_flows = [FlowInstance(trace=clone, start_offset=f.start_offset)
                       for f in flows]
        assert rate_sample(clone_flows, window) == rate_sample(flows, window)


def sampled_and_fresh_trace():
    """A trace that `rate_sample` has read at a 7-slot window, so it holds
    its window table for w = 7, and a fresh equal trace that does not."""
    columns = dict(
        id="t", sizes=[7, 0, 9, 300, 2 ** 40], fps=25.0,
        content_class=ContentClass.NEWS, frame_types="IB?PI",
        indices=[2, 5, 6, 10, 11],
    )
    read = VideoTrace(**columns)
    rate_sample([FlowInstance(trace=read, start_offset=3)], MeasurementWindow(9, 7))
    return read, VideoTrace(**columns)


def direct_window_table(trace, w):
    """The window table for `w` computed directly from `sizes`, without the
    prefix sum: for each start slot s up to 2n - 2, the window's bytes from
    s shifted left by K plus its last slot's bytes."""
    sizes = trace.sizes.tolist()
    n = len(sizes)
    packed = tuple((trace.window_bytes(s, w) << K) + sizes[(s + w - 1) % n]
                   for s in range(2 * n - 1))
    return ((w, n, trace.fps), packed)


NO_TABLE = ((0, 5, 25.0), ())  # `_window` of a 5-frame, 25 fps trace never sampled


def test_window_table_equals_direct_sums():
    read, fresh = sampled_and_fresh_trace()
    assert fresh._window == NO_TABLE
    table = read._window
    assert table == direct_window_table(fresh, 7)
    assert all(type(x) is int for x in table[1])
    # built once, then kept
    assert read.window_table(7) is table
    # another window length replaces it whole; windows longer than the
    # trace count its whole periods
    for w in (1, 3, 5, 6, 12, 7, 1):
        assert read.window_table(w) == direct_window_table(fresh, w)
        assert read._window is read.window_table(w)


def test_equal_shape_tables_share_one_key():
    # separately parsed traces of one length and fps hold one key object
    # after one call at w = 300; a trace of another length holds another
    paths = sorted((TRACES_DIR / "bursty").glob("*.txt"))[:2]
    traces = [parse_trace_file(p) for p in paths + paths]
    short = parse_trace_file(TRACES_DIR / "samples" / "sample-0.txt")
    flows = [FlowInstance(trace=t, start_offset=i) for i, t in enumerate(traces + [short])]
    rate_sample(flows, MeasurementWindow(10 ** 6, 300))
    keys = [t._window[0] for t in traces]
    assert keys[0] == (300, 3000, 30.0)
    assert all(key is keys[0] for key in keys)
    assert short._window[0] == (300, 900, 30.0)
    # a later build of that shape, at another w and back, takes the same key
    assert traces[0].window_table(5)[0] is not keys[0]
    assert traces[0].window_table(300)[0] is keys[0]


def test_window_table_is_invisible():
    read, fresh = sampled_and_fresh_trace()
    assert read == fresh and not read != fresh and fresh == read
    assert hash(read) == hash(fresh) and repr(read) == repr(fresh)
    assert pickle.dumps(read) == pickle.dumps(fresh)
    for clone in (pickle.loads(pickle.dumps(read)), copy.copy(read),
                  copy.deepcopy(read)):
        assert clone == fresh and hash(clone) == hash(fresh)
        assert repr(clone) == repr(fresh)
        assert pickle.dumps(clone) == pickle.dumps(fresh)
        # a copy is rebuilt from the columns, as a fresh trace's copy is
        assert clone._window == copy.copy(fresh)._window == NO_TABLE


def test_prefix_sums_are_not_dataclass_fields():
    read, fresh = sampled_and_fresh_trace()
    names = ("id", "sizes", "fps", "content_class", "frame_types", "indices")
    for trace in (fresh, read):
        assert tuple(f.name for f in dataclasses.fields(trace)) == names
        as_dict = dataclasses.asdict(trace)
        assert tuple(as_dict) == names
        assert (as_dict["id"], as_dict["fps"], as_dict["frame_types"]) == (
            "t", 25.0, "IB?PI")
        assert np.array_equal(as_dict["sizes"], trace.sizes)
        assert np.array_equal(as_dict["indices"], trace.indices)
    # the prefix sum and the window table are plain instance attributes
    assert vars(fresh)["_window"] == NO_TABLE
    assert vars(read)["_window"] is read.window_table(7)
    assert vars(read)["_cum2"] is read._cum2


def test_threads_sampling_one_fresh_trace_agree():
    # more threads than cores, switching often, race to build one trace's
    # window table; a racing build builds an equal table, so every sample
    # agrees
    window = MeasurementWindow(40, 25)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(4):
            trace = synth_bounded_trace(
                3000, FlowRateBounds(0.0, 2 * MBPS), fps=30.0, seed=seed
            )
            flows = [FlowInstance(trace=trace, start_offset=o)
                     for o in (0, 17, 2990)]
            start = threading.Barrier(4)
            samples = [None] * 4

            def sample(i):
                start.wait(timeout=10)
                samples[i] = rate_sample(flows, window)

            threads = [threading.Thread(target=sample, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert samples == [(
                instantaneous_aggregate_rate(flows, window.end_slot),
                average_aggregate_rate(flows, window),
                window,
            )] * 4
            assert trace._window == direct_window_table(trace, 25)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize(
    "columns",
    [
        dict(sizes=[1, -1]),
        dict(sizes=[[1, 2]]),
        dict(sizes=[1, 2], indices=[0, 0]),
        dict(sizes=[1, 2], indices=[1, 0]),
        dict(sizes=[1, 2], indices=[-1, 0]),
        dict(sizes=[1, 2], indices=[0]),
        dict(sizes=[1, 2], indices=[0, 2 ** 63]),
        dict(sizes=[1, 2], frame_types="I"),
        dict(sizes=[1, 2], frame_types="IX"),
        dict(sizes=5),
    ],
)
def test_invalid_columns_rejected(columns):
    with pytest.raises(ValueError):
        VideoTrace(id="t", fps=30.0, **columns)


@pytest.mark.parametrize("fps", [0, 0.0, -0.0, -30.0, math.inf, -math.inf, math.nan])
def test_fps_outside_the_positive_reals_refused(fps):
    with pytest.raises(ValueError, match=f"^fps must be a positive real, got {fps}$"):
        VideoTrace(id="t", sizes=[1, 2], fps=fps)


@pytest.mark.parametrize("fps", [True, np.True_, "30", None, 30j])
def test_fps_that_is_not_a_real_refused(fps):
    # True built a 1-fps trace; "30" and None raised TypeError
    with pytest.raises(ValueError, match="^fps must be a positive real, got "):
        VideoTrace(id="t", sizes=[1, 2], fps=fps)


@pytest.mark.parametrize("fps", [30, 29.97, np.float64(25.0), np.int64(50)])
def test_fps_of_any_real_type_is_kept_as_given(fps):
    trace = VideoTrace(id="t", sizes=[1, 2], fps=fps)
    assert trace.fps == fps and type(trace.fps) is type(fps)


@pytest.mark.parametrize("columns", [
    dict(sizes=[1.5, 2.7]),
    dict(sizes=[-0.5, 3]),
    dict(sizes=[4, 2.0]),
    dict(sizes=np.array([1.0, 2.0])),
    dict(sizes=[True, False]),
    dict(sizes=np.array([1, 0], dtype=bool)),
    dict(sizes=["1", "2"]),
    dict(sizes=[1, 2], indices=[0.5, 1.5]),
    dict(sizes=[1, 2], indices=[False, True]),
    dict(sizes=[1, 2], indices=["0", "1"]),
    dict(sizes=[True, 2]),
    dict(sizes=(3, np.False_, 5)),
    dict(sizes=[1, 2], indices=[False, 1]),
], ids=["floats", "negative-float", "int-and-float", "float-array", "bools",
        "bool-array", "strings", "float-indices", "bool-indices", "string-indices",
        "bool-among-ints", "numpy-bool-among-ints", "bool-among-int-indices"])
def test_non_integer_columns_refused(columns):
    # numpy would truncate each of these to int64 without a word
    with pytest.raises(ValueError,
                       match=r"^trace clip-7: frame (sizes|indices) must be integers, got "):
        VideoTrace(id="clip-7", fps=30.0, **columns)


def test_bool_among_ints_named_in_the_error():
    # numpy reads [True, 2] as the int64 column [1, 2]
    with pytest.raises(ValueError, match="^trace t: frame sizes must be integers, got bool True$"):
        VideoTrace(id="t", sizes=[4, True, 2], fps=30.0)
    with pytest.raises(ValueError, match="^trace t: frame indices must be integers, got bool False$"):
        VideoTrace(id="t", sizes=[4, 2], indices=[False, 1], fps=30.0)


@pytest.mark.parametrize("column", [
    [0, 9, 2 ** 40], (0, 9, 2 ** 40), np.array([0, 9, 2 ** 40]),
    np.array([0, 9, 2 ** 40], dtype=np.uint64), np.array([0, 9, 2 ** 40], dtype=object),
    [np.uint8(0), np.int32(9), 2 ** 40],
], ids=["list", "tuple", "int64", "uint64", "object", "numpy-scalars"])
def test_integer_columns_of_any_type_accepted(column):
    trace = VideoTrace(id="t", sizes=column, fps=30.0, indices=column)
    assert trace.sizes.dtype == trace.indices.dtype == np.int64
    assert trace.sizes.tolist() == trace.indices.tolist() == [0, 9, 2 ** 40]
    int64 = np.array([0, 9, 2 ** 40], dtype=np.int64)
    reference = VideoTrace(id="t", sizes=int64, fps=30.0, indices=int64)
    assert trace == reference and hash(trace) == hash(reference)
    if isinstance(column, np.ndarray):
        # the trace holds its own read-only copies; the input stays writable
        assert column.flags.writeable
        assert not np.shares_memory(column, trace.sizes)
        assert not np.shares_memory(column, trace.indices)


@pytest.mark.parametrize("big", [
    [2 ** 63], [-1, 2 ** 63], [1, 2 ** 70], np.array([2 ** 63], dtype=np.uint64),
], ids=["list", "with-negative", "object", "uint64-array"])
def test_integers_past_int64_rejected(big):
    with pytest.raises(ByteOverflow, match="^trace t: a frame size exceeds int64$"):
        VideoTrace(id="t", sizes=big, fps=30.0)
    n = len(big)
    with pytest.raises(ValueError, match="^trace t: a frame index exceeds int64$"):
        VideoTrace(id="t", sizes=[0] * n, indices=big, fps=30.0)


@pytest.mark.parametrize("sizes, message", [
    ([[1, 2], 3], "frame sizes must be integers, got list [1, 2]"),
    ([[1, True], [2, 3]], "frame sizes must be integers, got bool True"),
    ([[1, 2], [3, 4]], "sizes must be one-dimensional"),
], ids=["ragged", "nested-bool", "two-dimensional"])
def test_nested_columns_refused_by_name(sizes, message):
    # the ragged list raised numpy's inhomogeneous-shape error, and the
    # nested bool read as 1 before the two-dimensional column was refused
    with pytest.raises(ValueError, match=f"^trace t: {re.escape(message)}$"):
        VideoTrace(id="t", sizes=sizes, fps=30.0)


# -- parser fuzz -----------------------------------------------------------------------

INT_FORMS = (
    str,
    lambda v: "+" + str(v),
    lambda v: "00" + str(v),
    lambda v: str(v).translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
    lambda v: str(v).translate(str.maketrans("0123456789", "０１２３４５６７８９")),
    lambda v: f"{v:_}",
)
SEPARATORS = st.sampled_from([" ", "  ", "\t", " ", "   "])
BAD_TOKENS = st.sampled_from(["abc", "1.5", "--1", "1e3", "0x10", "²", "1__0"])
EXTRA_LINES = st.one_of(
    st.sampled_from(["", "   ", "\t", "#", "  # note", "# class=news",
                     "#class=Sports", "# class=unknown-thing"]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
            max_size=12).map(
        lambda t: "# note " + t
    ),
)
CORRUPTIONS = (
    "garbage", "negative-size", "negative-index", "repeat-index", "bad-fps",
    "two-columns", "four-columns", "huge-size", "huge-index", "no-fps",
)


@st.composite
def trace_texts(draw):
    """(text, fps override, expected (indices, types, sizes) or None when
    the text is invalid by construction)."""
    n = draw(st.integers(1, 25))
    layout = draw(st.sampled_from(["one", "three", "mixed"]))
    sizes = draw(st.lists(st.integers(0, 2 ** 40), min_size=n, max_size=n))
    widths = [{"one": 1, "three": 3}.get(layout) or draw(st.sampled_from([1, 3]))
              for _ in range(n)]
    indices, prev = [], -1
    for k, width in enumerate(widths):
        gap = draw(st.integers(1, 1000)) if layout == "three" else 0
        indices.append(prev + gap if layout == "three" else k)
        prev = indices[-1]
    types = [draw(st.sampled_from(["I", "P", "B", "?", "X", "IP", "7"]))
             if w == 3 else "?" for w in widths]
    corruption = draw(st.sampled_from((None,) * len(CORRUPTIONS) + CORRUPTIONS))
    victim = draw(st.integers(0, n - 1))

    def number(v):
        return draw(st.sampled_from(INT_FORMS))(v)

    rows = []
    for k in range(n):
        cols = [number(sizes[k])]
        if widths[k] == 3:
            cols = [number(indices[k]), types[k], cols[0]]
        if k == victim:
            if corruption == "garbage":
                cols[-1] = draw(BAD_TOKENS)
            elif corruption == "negative-size":
                cols[-1] = str(-1 - sizes[k])
            elif corruption == "negative-index":
                cols = ["-1", "I", cols[-1]]
            elif corruption == "repeat-index":
                rows.append(f"{indices[k]} I {sizes[k]}")
                cols = [str(indices[k]), "P", cols[-1]]
            elif corruption == "two-columns":
                cols = cols[-2:] if len(cols) == 3 else ["0", cols[0]]
            elif corruption == "four-columns":
                cols = cols + ["9"]
            elif corruption == "huge-size":
                cols[-1] = str(draw(st.integers(2 ** 63, 10 ** 30)))
            elif corruption == "huge-index":
                cols = [str(2 ** 63 + indices[k]), "I", cols[-1]]
        sep = draw(SEPARATORS)
        rows.append(draw(st.sampled_from(["", " ", "\t"])) + sep.join(cols))
    lines = [draw(st.lists(EXTRA_LINES, max_size=2)) + [row] for row in rows]
    lines = [line for group in lines for line in group]
    fps_line = "# fps=" + draw(st.sampled_from(["30", "29.97", " 25", "1e2"]))
    if corruption == "bad-fps":
        fps_line = "# fps=" + draw(st.sampled_from(["inf", "nan", "0", "-3", "x", ""]))
    override = None
    if corruption == "no-fps":
        fps_line = None
    elif corruption != "bad-fps" and draw(st.booleans()):
        override, fps_line = 25.0, None
    if fps_line is not None:
        lines.insert(draw(st.integers(0, len(lines))), fps_line)
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))
    expected = None
    if corruption is None:
        expected = (indices, "".join(t if t in "IPB?" and len(t) == 1 else "?"
                                     for t in types), sizes)
    return text, override, expected


@settings(max_examples=300, deadline=None)
@given(case=trace_texts())
def test_parser_fuzz(case):
    text, override, expected = case
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "fuzz.txt"
        path.write_text(text, encoding="utf-8")
        try:
            trace = parse_trace_file(path, override)
        except (TraceError, ByteOverflow):
            assert expected is None
        else:
            assert expected is not None
            assert (trace.indices.tolist(), trace.frame_types,
                    trace.sizes.tolist()) == expected
        argv = ["ingest", str(path)] + (["--fps", "25"] if override else [])
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            status = cli.main(argv)
        assert status == (cli.EXIT_OK if expected is not None else cli.EXIT_DATA)


@settings(max_examples=100, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 2 ** 40), min_size=1, max_size=40),
    data=st.data(),
)
def test_serialize_parse_round_trip_columns(sizes, data):
    n = len(sizes)
    gaps = data.draw(st.lists(st.integers(1, 2 ** 20), min_size=n, max_size=n))
    trace = VideoTrace(
        id=data.draw(st.sampled_from(["a", "trace-1", "x_y"])),
        sizes=sizes,
        fps=data.draw(st.sampled_from([1.0, 24.0, 25.0, 29.97, 30.0, 59.94, 120.0])),
        content_class=data.draw(st.sampled_from(list(ContentClass))),
        frame_types=data.draw(st.text("IPB?", min_size=n, max_size=n)),
        indices=np.cumsum(gaps) - 1,
    )
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / f"{trace.id}.txt"
        serialize_trace(trace, path)
        assert parse_trace_file(path) == trace
