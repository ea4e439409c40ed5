"""Concentration bound evaluation and its empirical verification."""

import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vmac import bounds
from vmac.bounds import (
    BoundResult,
    HoeffdingQuery,
    empirical_exceedance,
    hoeffding_delta,
)
from vmac.errors import DegenerateRanges, InsufficientHistory
from vmac.rate_engine import (
    MeasurementWindow,
    average_aggregate_rate,
    instantaneous_aggregate_rate,
)
from vmac.trace_model import (
    MBPS,
    FlowInstance,
    FlowRateBounds,
    synth_bounded_trace,
)

from .conftest import make_trace


def uniform_query(n, epsilon_mbps, width_mbps):
    ranges = tuple(FlowRateBounds(0.0, width_mbps * MBPS) for _ in range(n))
    return HoeffdingQuery(n=n, epsilon=epsilon_mbps * MBPS, ranges=ranges)


# -- closed-form evaluations ---------------------------------------------------

def test_delta_closed_form_exp_minus_one():
    # n=2, eps=1, two ranges of width 2: exp(-2*4*1/8) = exp(-1)
    result = hoeffding_delta(uniform_query(2, 1.0, 2.0))
    assert result.delta == pytest.approx(math.exp(-1), abs=1e-12)
    assert result.exponent == pytest.approx(-1.0, abs=1e-12)


def test_delta_closed_form_half_width():
    # n=1, eps = w/2: exp(-2 * (w/2)^2 / w^2) = exp(-0.5)
    result = hoeffding_delta(uniform_query(1, 1.0, 2.0))
    assert result.delta == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_delta_tends_to_one_for_tiny_epsilon():
    result = hoeffding_delta(uniform_query(3, 1e-12, 2.0))
    assert result.delta == pytest.approx(1.0)


def test_degenerate_ranges_rejected():
    ranges = (FlowRateBounds(1.0, 1.0), FlowRateBounds(2.0, 2.0))
    with pytest.raises(DegenerateRanges):
        hoeffding_delta(HoeffdingQuery(n=2, epsilon=1.0, ranges=ranges))


def test_query_validation():
    with pytest.raises(ValueError):
        HoeffdingQuery(n=2, epsilon=1.0, ranges=(FlowRateBounds(0.0, 1.0),))
    with pytest.raises(ValueError):
        HoeffdingQuery(n=1, epsilon=0.0, ranges=(FlowRateBounds(0.0, 1.0),))
    with pytest.raises(ValueError):
        HoeffdingQuery(n=0, epsilon=1.0, ranges=())


@pytest.mark.parametrize("bad", [0, 0.0, -1.0, math.inf, math.nan])
def test_query_refuses_an_epsilon_outside_the_positive_reals(bad):
    with pytest.raises(ValueError, match="^epsilon must be "):
        HoeffdingQuery(n=1, epsilon=bad, ranges=(FlowRateBounds(0.0, 1.0),))


@pytest.mark.parametrize("bad", [0, -1])
def test_query_refuses_a_flow_count_below_one(bad):
    with pytest.raises(ValueError, match=f"^flow count must be >= 1, got {bad}$"):
        HoeffdingQuery(n=bad, epsilon=1.0, ranges=())


@pytest.mark.parametrize("epsilon", [True, "1", None, 1j])
def test_query_refuses_an_epsilon_that_is_not_a_real(epsilon):
    # True built a query with epsilon 1
    with pytest.raises(ValueError, match=f"^epsilon must be a positive real, got "):
        HoeffdingQuery(n=1, epsilon=epsilon, ranges=(FlowRateBounds(0.0, 1.0),))


@pytest.mark.parametrize("n, message", [
    (True, "flow count must be an integer, got bool True"),
    (2.0, "flow count must be an integer, got float 2.0"),
], ids=["bool", "float"])
def test_query_refuses_a_flow_count_that_is_not_an_integer(n, message):
    ranges = (FlowRateBounds(0.0, 1.0),) * 2
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        HoeffdingQuery(n=n, epsilon=1.0, ranges=ranges[:int(n)])


def test_query_stores_its_flow_count_as_a_python_int():
    query = HoeffdingQuery(n=np.int64(2), epsilon=1.0,
                           ranges=(FlowRateBounds(0.0, 1.0),) * 2)
    assert type(query.n) is int and query == uniform_query(2, 1.0 / MBPS, 1.0 / MBPS)


def test_underflow_keeps_delta_positive():
    result = hoeffding_delta(uniform_query(1000, 100.0, 0.001))
    assert result.underflow
    assert 0.0 < result.delta <= 1.0


@st.composite
def scaled_queries(draw):
    """Epsilon and 1 to 8 widths, some of them 0, each within 2^60 of a
    common scale from 2^-600 to 2^600: their squares are subnormal, normal
    or beyond the double range, while their ratio stays moderate."""
    scale = draw(st.integers(-600, 600))
    near = st.builds(lambda m, e: math.ldexp(m, scale + e),
                     st.floats(0.5, 1.0, exclude_max=True), st.integers(-60, 60))
    widths = draw(st.lists(st.one_of(st.just(0.0), near), min_size=1, max_size=8))
    return draw(near), widths


@settings(max_examples=400, deadline=None)
@given(query=scaled_queries())
# the CLI's three cases in bits/s: subnormal squares, a subnormal epsilon
# square, and a product that overflows without raising
@example(query=(1e-160, [1e-161]))
@example(query=(3e-159, [1e-159]))
@example(query=(1e154, [1e150, 1e150]))
# -2 n^2 eps^2 overflows in the scaled path too, while the exponent is finite
@example(query=(1e152, [1.0] * 1000))
def test_exponent_is_the_formula_where_squares_are_normal(query):
    eps, widths = query
    assume(any(widths))
    n = len(widths)
    ranges = tuple(FlowRateBounds(0.0, w) for w in widths)
    got = hoeffding_delta(HoeffdingQuery(n=n, epsilon=eps, ranges=ranges)).exponent
    try:
        squares = [x ** 2 for x in (eps, *widths) if x]
        formula = -2.0 * n ** 2 * eps ** 2 / sum(w ** 2 for w in widths)
    except (OverflowError, ZeroDivisionError):
        formula = math.nan
    if math.isfinite(formula) and min(squares) >= sys.float_info.min:
        # bit for bit, signed zero included
        assert got.hex() == formula.hex()
    else:
        # elsewhere the scaled path is exact to rounding, wherever the exact
        # exponent is a double well away from 0 and from the largest double
        exact = -2 * n ** 2 * Fraction(eps) ** 2 / sum(Fraction(w) ** 2 for w in widths)
        if 1e-200 <= -exact < 1e308:
            assert math.isclose(got, float(exact), rel_tol=1e-12)


# -- monotonicity properties ---------------------------------------------------

@given(
    n=st.integers(1, 50),
    eps=st.floats(0.01, 10.0),
    width=st.floats(0.1, 20.0),
)
def test_delta_in_unit_interval(n, eps, width):
    result = hoeffding_delta(uniform_query(n, eps, width))
    assert 0.0 < result.delta <= 1.0
    assert result.exponent <= 0.0


@given(n=st.integers(1, 30), width=st.floats(0.1, 10.0))
def test_delta_decreasing_in_epsilon(n, width):
    deltas = [
        hoeffding_delta(uniform_query(n, eps, width)).delta
        for eps in (0.1, 0.5, 1.0, 2.0)
    ]
    assert all(a >= b for a, b in zip(deltas, deltas[1:]))


@given(eps=st.floats(0.05, 2.0), width=st.floats(0.5, 10.0))
def test_delta_decreasing_in_flow_count(eps, width):
    deltas = [
        hoeffding_delta(uniform_query(n, eps, width)).delta
        for n in (1, 2, 5, 10)
    ]
    assert all(a >= b for a, b in zip(deltas, deltas[1:]))


@given(n=st.integers(1, 30), eps=st.floats(0.05, 2.0))
def test_delta_increasing_in_range_width(n, eps):
    deltas = [
        hoeffding_delta(uniform_query(n, eps, w)).delta
        for w in (0.5, 1.0, 2.0, 5.0)
    ]
    assert all(a <= b for a, b in zip(deltas, deltas[1:]))


# -- empirical exceedance -------------------------------------------------------

def bounded_flows(n, width_mbps, seed, length=500):
    bounds = FlowRateBounds(0.0, width_mbps * MBPS)
    return [
        FlowInstance(
            trace=synth_bounded_trace(
                length, bounds, fps=30.0, seed=seed * 1000 + i,
                trace_id=f"u{i}",
            ),
            start_offset=0,
            flow_id=i,
        )
        for i in range(n)
    ]


def test_cbr_exceedance_zero_for_positive_epsilon():
    trace = make_trace([1000] * 50)
    flows = [FlowInstance(trace=trace, start_offset=0)]
    window = MeasurementWindow(4, 5)
    assert empirical_exceedance(flows, window, epsilon=1.0, samples=200, seed=0) == 0.0


def test_cbr_exceedance_one_for_zero_epsilon():
    # with epsilon 0 the comparison is inst >= avg, and CBR ties everywhere
    trace = make_trace([1000] * 50)
    flows = [FlowInstance(trace=trace, start_offset=0)]
    window = MeasurementWindow(4, 5)
    assert empirical_exceedance(flows, window, epsilon=0.0, samples=200, seed=0) == 1.0


def test_exceedance_deterministic_per_seed():
    flows = bounded_flows(5, 2.0, seed=3)
    window = MeasurementWindow(4, 5)
    a = empirical_exceedance(flows, window, 0.1 * MBPS, 1000, seed=11)
    b = empirical_exceedance(flows, window, 0.1 * MBPS, 1000, seed=11)
    assert a == b


def test_exceedance_below_bound_spot_check():
    # n=10 uniform flows of width 2 Mbps, eps 0.5 Mbps: the measured
    # exceedance must respect the closed-form bound
    flows = bounded_flows(10, 2.0, seed=1)
    window = MeasurementWindow(4, 5)
    measured = empirical_exceedance(flows, window, 0.5 * MBPS, 10_000, seed=2)
    bound = hoeffding_delta(uniform_query(10, 0.5, 2.0)).delta
    assert measured <= bound


def test_exceedance_requires_history():
    trace = make_trace([1000, 2000])
    flows = [FlowInstance(trace=trace, start_offset=0)]
    with pytest.raises(InsufficientHistory):
        empirical_exceedance(flows, MeasurementWindow(4, 5), 1.0, 10, seed=0)


def test_exceedance_history_message():
    flows = [FlowInstance(trace=make_trace([1000, 2000]), start_offset=0)]
    with pytest.raises(InsufficientHistory,
                       match="^shortest trace has 2 slots, window needs 5$"):
        empirical_exceedance(flows, MeasurementWindow(4, 5), 1.0, 10, seed=0)


def test_exceedance_refuses_no_flows():
    with pytest.raises(ValueError, match="needs at least one flow"):
        empirical_exceedance([], MeasurementWindow(4, 5), 1.0, 10, seed=0)
    flows = [FlowInstance(trace=make_trace([1000] * 5), start_offset=0)]
    with pytest.raises(ValueError, match="samples must be >= 1"):
        empirical_exceedance(flows, MeasurementWindow(4, 5), 1.0, 0, seed=0)


@pytest.mark.parametrize("samples", [100.0, True, np.float64(100.0)])
def test_exceedance_refuses_samples_that_are_not_an_integer(samples):
    flows = [FlowInstance(trace=make_trace([1000] * 5), start_offset=0)]
    with pytest.raises(ValueError, match="^samples must be an integer, got "):
        empirical_exceedance(flows, MeasurementWindow(4, 5), 1.0, samples, seed=0)


@pytest.mark.parametrize("seed, message", [
    (True, "seed must be an integer, got bool True"),
    (1.0, "seed must be an integer, got float 1.0"),
    (-1, "seed must be >= 0, got -1"),
], ids=["bool", "float", "negative"])
def test_exceedance_refuses_a_bad_seed_before_any_draw(monkeypatch, seed, message):
    # True ran the stream of seed 1; 1.0 and -1 failed inside numpy
    flows = [FlowInstance(trace=make_trace([1000] * 5), start_offset=0)]
    monkeypatch.setattr(bounds, "aggregate_rate_series", None)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        empirical_exceedance(flows, MeasurementWindow(4, 5), 1.0, 10, seed=seed)


def test_exceedance_refuses_nan_epsilon_and_keeps_infinities():
    flows = bounded_flows(3, 2.0, seed=4, length=50)
    window = MeasurementWindow(4, 5)
    for nan in (math.nan, np.float64("nan")):
        with pytest.raises(ValueError, match="epsilon must not be NaN"):
            empirical_exceedance(flows, window, nan, 10, seed=0)
    # no margin is ever reached, and any rate clears a margin of -inf
    assert empirical_exceedance(flows, window, math.inf, 1000, seed=0) == 0.0
    assert empirical_exceedance(flows, window, -math.inf, 1000, seed=0) == 1.0


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 10_000),
    eps=st.sampled_from([0.2, 0.5, 1.0]),
)
def test_exceedance_never_beats_bound(n, seed, eps):
    flows = bounded_flows(n, 2.0, seed=seed, length=300)
    window = MeasurementWindow(4, 5)
    measured = empirical_exceedance(flows, window, eps * MBPS, 2000, seed=seed)
    bound = hoeffding_delta(uniform_query(n, eps, 2.0)).delta
    assert measured <= bound


def brute_force_exceedance(flows, w, epsilon, samples, seed):
    """The exceedance fraction counted one pick at a time, from the
    per-quantity rates at each picked end slot."""
    horizon = max(len(f.trace) for f in flows)
    rng = np.random.Generator(np.random.PCG64(seed))
    hits = 0
    for pick in rng.integers(0, horizon, size=samples).tolist():
        end = w - 1 + pick
        inst = instantaneous_aggregate_rate(flows, end)
        avg = average_aggregate_rate(flows, MeasurementWindow(end, w))
        hits += inst >= avg + len(flows) * epsilon
    return hits / samples


@settings(max_examples=100, deadline=None)
@given(
    traces=st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=12),
                    min_size=1, max_size=3),
    picks=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 11)),
                   min_size=1, max_size=5),
    fps=st.sampled_from([1.0, 30.0]),
    w_frac=st.floats(0.0, 1.0),
    epsilon=st.sampled_from([0.0, 0.1, 2.0, 8.0, 240.0]),
    samples=st.integers(1, 60),
    seed=st.integers(0, 2 ** 32),
)
def test_exceedance_equals_count_per_pick(traces, picks, fps, w_frac, epsilon,
                                          samples, seed):
    # bytes of 0-3 per slot, so inst == avg + n * epsilon is frequent: ties count
    library = [make_trace(s, fps=fps, trace_id=f"t{i}") for i, s in enumerate(traces)]
    flows = []
    for t, o in picks:
        trace = library[t % len(library)]
        flows.append(FlowInstance(trace=trace, start_offset=o % len(trace)))
    w = 1 + int(w_frac * (min(len(f.trace) for f in flows) - 1))
    window = MeasurementWindow(w - 1, w)
    assert empirical_exceedance(flows, window, epsilon, samples, seed) == \
        brute_force_exceedance(flows, w, epsilon, samples, seed)
