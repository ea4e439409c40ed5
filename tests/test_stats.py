"""Burstiness metrics and confidence intervals."""

import math
import os
import re
import subprocess
import sys
import zlib

import numpy as np
import pytest
# imported up front so that no hypothesis example pays the one-off import
# of scipy.special, which an untabulated interval triggers, in its deadline
import scipy.special  # noqa: F401
from hypothesis import given, settings
from hypothesis import strategies as st

from vmac.errors import SeriesOverflow, TooShort, VmacError, ZeroMean
from vmac.rate_engine import aggregate_rate_series
from vmac.stats import (
    _FSUM_CUTOFF,
    _FSUM_PASSES,
    _T_QUANTILE_95,
    SeriesSummary,
    _fsum,
    coefficient_of_variation,
    mean_and_ci,
    peak_to_mean,
    peak_to_mean_and_cov,
    summarize,
)

from vmac.trace_model import FlowInstance

from .conftest import REPO_ROOT, TRACES_DIR

# -- peak-to-mean ---------------------------------------------------------------

def test_pmr_constant_series():
    assert peak_to_mean([3.0, 3.0, 3.0]) == 1.0


def test_pmr_simple():
    assert peak_to_mean([1.0, 1.0, 2.0]) == pytest.approx(1.5)


def test_pmr_burst():
    assert peak_to_mean([1, 1, 1, 1, 5]) == pytest.approx(5 / 1.8)


def test_pmr_zero_mean_rejected():
    with pytest.raises(ZeroMean):
        peak_to_mean([0.0, 0.0])
    with pytest.raises(TooShort):
        peak_to_mean([])


# the filters keep series whose mean is positive: [0.0, 5e-324] sums above
# 0, but its mean rounds to 0.0, for which both calls raise ZeroMean
@given(st.lists(st.floats(0.0, 1e6), min_size=1)
       .filter(lambda s: math.fsum(s) / len(s) > 0))
def test_pmr_at_least_one(series):
    assert peak_to_mean(series) >= 1.0 - 1e-12


@given(st.lists(st.floats(0.0, 1e9), min_size=1)
       .filter(lambda s: math.fsum(s) / len(s) > 0))
def test_pmr_is_peak_over_mean_of_summary(series):
    s = summarize(series)
    assert peak_to_mean(series) == s.peak / s.mean


def squares_by_pow(xs):
    """``v ** 2`` of each double, inf where Python raises OverflowError."""
    def square(v):
        try:
            return v ** 2
        except OverflowError:
            return math.inf
    return np.array([square(v) for v in xs.tolist()])


def test_float_power_squares_as_python_pow():
    # summarize squares its deviations with np.float_power, which must
    # round every square as Python's ** 2 does: both call libm pow(x, 2.0)
    rng = np.random.Generator(np.random.PCG64(20))
    n = 10 ** 6
    magnitudes = 10.0 ** rng.uniform(-160.0, 160.0, n)
    tiny = np.finfo(np.float64).smallest_subnormal
    edge = math.sqrt(np.finfo(np.float64).max)  # about 1.34e154
    special = [0.0, -0.0, tiny, -tiny, 3 * tiny, 2.0 ** -1050, -(2.0 ** -1060),
               math.inf, -math.inf, math.nan, -math.nan,
               edge, -edge, np.nextafter(edge, 0.0), np.nextafter(edge, math.inf),
               -np.nextafter(edge, math.inf), 1.34e154, -1.35e154]
    x = np.concatenate([magnitudes * rng.choice([-1.0, 1.0], n), special])
    with np.errstate(over="ignore"):
        got = np.float_power(x, 2.0)
    want = squares_by_pow(x)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))
    # the draw reaches past the edge, where the squares overflow
    assert np.count_nonzero(np.isinf(want[:n])) > 0


def reference_summary(xs):
    """`summarize` in pure Python, squaring each deviation with ``** 2``.
    Raises OverflowError where the sum, a deviation or a square overflows."""
    n = len(xs)
    m = math.fsum(xs) / n
    std = 0.0
    if n > 1:
        squares = [(v - m) ** 2 for v in xs]
        if math.inf in squares:  # the inputs are finite: a deviation overflowed
            raise OverflowError("deviation")
        std = math.sqrt(math.fsum(squares) / (n - 1))
    return SeriesSummary(mean=m, sample_std=std, peak=max(xs), count=n)


EDGE_FLOATS = st.sampled_from([
    5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.34e154, -1.35e154,
    1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
])


@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(-1e6, 1e6), EDGE_FLOATS), min_size=1))
def test_summarize_equals_the_python_reference(xs):
    try:
        want = reference_summary(xs)
    except OverflowError:
        with pytest.raises(SeriesOverflow):
            summarize(xs)
        return
    got = summarize(xs)
    assert got.count == want.count
    for name in ("mean", "sample_std", "peak"):
        assert getattr(got, name).hex() == getattr(want, name).hex(), name


def test_summarize_squares_deviations_with_pow():
    # with glibc, (x - mean) ** 2 rounds this x one ulp away from
    # (x - mean) * (x - mean); summarize keeps ** 2, so every CoV and
    # interval stays bit-identical
    x = 311289.41342597175
    assert summarize([-x, x]).sample_std == math.sqrt(2 * x ** 2)


def list_summary(series):
    """`summarize` as it was written over Python-float lists: `tolist()` of
    the float64 values for both `math.fsum` passes and Python `max` for the
    peak.  Kept to pin every result, error and message to it."""
    n = len(series)
    if not n:
        raise TooShort("cannot summarize an empty series")
    try:
        values = np.asarray(series, dtype=np.float64)
        xs = values.tolist()
        mean = math.fsum(xs) / n
        if n > 1:
            with np.errstate(all="ignore", over="raise"):
                squares = np.float_power(values - mean, 2.0)
            std = math.sqrt(math.fsum(squares.tolist()) / (n - 1))
        else:
            std = 0.0
    except (OverflowError, FloatingPointError) as exc:
        raise SeriesOverflow(n) from exc
    return SeriesSummary(mean=mean, sample_std=std, peak=max(xs), count=n)


def list_peak_to_mean(series):
    """`peak_to_mean` as it was written, iterating the series itself."""
    if not len(series):
        raise TooShort("cannot summarize an empty series")
    try:
        mean = math.fsum(series) / len(series)
    except OverflowError as exc:
        raise SeriesOverflow(len(series)) from exc
    if mean <= 0:
        raise ZeroMean(f"peak-to-mean needs a positive mean, got {mean}")
    return max(series) / mean


def list_cov(series):
    """`coefficient_of_variation` as it was written, from `list_summary`."""
    if len(series) < 2:
        raise TooShort("coefficient of variation needs at least 2 values")
    s = list_summary(series)
    if s.mean <= 0:
        raise ZeroMean(f"coefficient of variation needs a positive mean, got {s.mean}")
    return s.sample_std / s.mean


def outcome_repr(fn, series):
    """The repr of `fn(series)`, or the type and message of its error."""
    try:
        return repr(fn(series))
    except Exception as exc:  # noqa: BLE001 - every error is part of the pin
        return type(exc), str(exc)


# zeros of both signs, NaN and the infinities, often enough to meet each
# other in one series in either order, beside edge and ordinary floats
SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
PIN_FLOATS = st.one_of(SPECIAL_FLOATS, EDGE_FLOATS, st.floats(),
                       st.floats(-1e6, 1e6))


@st.composite
def series_forms(draw):
    """A series of floats or ints in one of the forms the statistics take: a
    list, a tuple, a float64 array, or a strided or reversed float64 view;
    NaN may be placed at any position."""
    if draw(st.booleans()):
        values = draw(st.lists(PIN_FLOATS, min_size=1, max_size=12))
        if draw(st.booleans()):
            values.insert(draw(st.integers(0, len(values))), math.nan)
    else:
        values = draw(st.lists(st.integers(-2 ** 1030, 2 ** 1030)
                               | st.integers(-10 ** 6, 10 ** 6),
                               min_size=1, max_size=12))
    form = draw(st.sampled_from(["list", "tuple", "array", "strided", "reversed"]))
    if form in ("list", "tuple"):
        return values if form == "list" else tuple(values)
    try:
        array = np.array(values, dtype=np.float64)
    except OverflowError:  # an int past the double range stays a list
        return values
    if form == "strided":  # every other value of an array twice as long
        spread = np.full(2 * len(array), 7.25)
        spread[::2] = array
        return spread[::2]
    return array[::-1].copy()[::-1] if form == "reversed" else array


@settings(max_examples=300, deadline=None)
@given(series_forms())
def test_summarize_equals_the_list_based_code(series):
    assert outcome_repr(summarize, series) == outcome_repr(list_summary, series)
    assert (outcome_repr(coefficient_of_variation, series)
            == outcome_repr(list_cov, series))


@settings(max_examples=200, deadline=None)
@given(series_forms().filter(lambda series: isinstance(series, np.ndarray)))
def test_peak_to_mean_of_an_array_is_that_of_its_list(series):
    # an array is read as Python floats: the result is a float, not a
    # numpy scalar, and equals the result for the list of its values
    assert (outcome_repr(peak_to_mean, series)
            == outcome_repr(list_peak_to_mean, series.tolist()))
    if not isinstance(outcome_repr(peak_to_mean, series), tuple):
        assert type(peak_to_mean(series)) is float


@pytest.mark.parametrize("series", [
    [0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0, 0.0], [0.0, -0.0, -1.0],
    [math.nan, 1.0], [1.0, math.nan], [0.0, math.nan, -0.0],
    [math.inf, 1.0], [-math.inf, -1.0], [math.inf, -math.inf],
    [-1.0, -2.0], [2.5], [-0.0], [math.nan], [7], [2 ** 1030],
])
@pytest.mark.parametrize("form", [list, tuple, np.array])
def test_summarize_keeps_each_peak_and_error(series, form):
    try:
        values = form(series)
    except OverflowError:  # numpy refuses an int past the double range
        values = series
    assert outcome_repr(summarize, values) == outcome_repr(list_summary, values)


@pytest.mark.parametrize("series", [
    np.ones((3, 2)), np.ones((3, 1)), [[1.0, 2.0], [3.0, 4.0]], [[5.0]],
])
def test_summarize_refuses_2d_input_with_type_error(series):
    with pytest.raises(TypeError):
        summarize(series)
    assert outcome_repr(summarize, series) == outcome_repr(list_summary, series)


@settings(max_examples=200, deadline=None)
@given(st.lists(PIN_FLOATS | st.integers(-2 ** 1030, 2 ** 1030),
                min_size=1, max_size=12).flatmap(
    lambda values: st.sampled_from([values, tuple(values)])))
def test_peak_to_mean_equals_the_code_over_the_series(series):
    assert outcome_repr(peak_to_mean, series) == outcome_repr(list_peak_to_mean, series)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6) | EDGE_FLOATS | SPECIAL_FLOATS,
                min_size=2, max_size=12),
       st.sampled_from([0.8, 0.95]))
def test_mean_and_ci_takes_the_list_based_mean_and_std(values, confidence):
    try:
        s = list_summary(values)
    except Exception as exc:  # noqa: BLE001 - the same error, same message
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            mean_and_ci(values, confidence)
        return
    n = len(values)
    quantile = float(scipy.special.stdtrit(n - 1, (1.0 + confidence) / 2.0))
    got = mean_and_ci(values, confidence)
    assert repr((got.mean, got.ci_half_width)) == repr(
        (s.mean, quantile * s.sample_std / math.sqrt(n)))


def list_pmr_and_cov(series):
    """`peak_to_mean_and_cov` from `list_summary`: the peak-to-mean error
    first, then the coefficient of variation's."""
    s = list_summary(series)
    if s.mean <= 0:
        raise ZeroMean(f"peak-to-mean needs a positive mean, got {s.mean}")
    if s.count < 2:
        raise TooShort("coefficient of variation needs at least 2 values")
    return s.peak / s.mean, s.sample_std / s.mean


# -- long series -------------------------------------------------------------------
# The pins above draw at most 12 values.  These run the statistics on series
# long enough to be summed by whole-array passes rather than value by value.

LONG_LENGTHS = {"cutoff-1": _FSUM_CUTOFF - 1, "cutoff": _FSUM_CUTOFF,
                "3000": 3000, "20000": 20000}


def guard(n):
    """2**(1020 - m) for the smallest m with 2**m >= n + 2: at or above it a
    largest magnitude is summed by `math.fsum` alone."""
    return 2.0 ** (1020 - (n + 1).bit_length())


def spread(rng, n, low, high):
    """n doubles of random sign, binary exponents uniform in [low, high)."""
    signs = rng.choice([-1.0, 1.0], n)
    return np.ldexp(signs * rng.uniform(0.5, 1.0, n), rng.integers(low, high, n))


def near_guard(rng, n, top):
    """Ordinary rates, with `top` and its negative among them."""
    values = rng.uniform(0.0, 5e6, n)
    values[rng.choice(n, 2, replace=False)] = (top, -top)
    return values


def with_specials(rng, n, specials):
    """Rates in bits/s with each of `specials` at a random position."""
    values = rng.uniform(0.0, 5e6, n)
    values[rng.choice(n, len(specials), replace=False)] = specials
    return values


def long_series(name, n, library):
    """The long series `name` of n values, seeded by its name and length."""
    rng = np.random.default_rng(zlib.crc32(f"{name}/{n}".encode()))
    if name in ("bundled-instantaneous", "bundled-average"):
        flows = [FlowInstance(trace=library[int(t)], start_offset=int(o), flow_id=i)
                 for i, (t, o) in enumerate(zip(rng.integers(len(library), size=40),
                                                rng.integers(3000, size=40)))]
        inst, avg = aggregate_rate_series(flows, 5, n + 4)
        return inst if name == "bundled-instantaneous" else avg
    if name == "integers":
        return [int(v) for v in rng.integers(-2 ** 62, 2 ** 62, n)]
    if name == "cancelling":  # ±x pairs, and a 0.0 when n is odd: sum 0
        half = rng.uniform(0.0, 1e9, n // 2)
        values = np.concatenate([half, -half, np.zeros(n % 2)])
        return rng.permutation(values)
    if name == "subnormal":
        return rng.integers(-2 ** 40, 2 ** 40, n) * 5e-324
    if name == "full-range":  # 2**-1074 to 2**1000: the squares overflow
        return spread(rng, n, -1073, 1001)
    if name == "wide":  # 2**-500 to 2**500: the squares stay finite
        return spread(rng, n, -500, 501)
    if name == "under-guard":
        return near_guard(rng, n, np.nextafter(guard(n), 0.0))
    if name == "at-guard":
        return near_guard(rng, n, guard(n))
    if name == "over-guard":
        return near_guard(rng, n, np.nextafter(guard(n), math.inf))
    if name == "top-of-range":  # fsum cancels them; the squares overflow
        return near_guard(rng, n, sys.float_info.max)
    if name == "same-sign-near-top":  # the pass sums come nearest their bound
        return np.ldexp(rng.uniform(1.0 - 2.0 ** -20, 1.0, n), 600)
    if name == "signed-zeros":
        return rng.choice([0.0, -0.0], n)
    if name == "negative-zeros":
        return np.full(n, -0.0)
    if name == "zeros-among-rates":
        return with_specials(rng, n, [0.0, -0.0, -0.0, 0.0])
    if name == "nan":
        return with_specials(rng, n, [math.nan])
    if name == "inf":
        return with_specials(rng, n, [math.inf, -0.0])
    if name == "both-infinities":
        return with_specials(rng, n, [-math.inf, math.inf])
    raise ValueError(name)


LONG_INPUTS = [
    "bundled-instantaneous", "bundled-average", "integers", "cancelling",
    "subnormal", "full-range", "wide", "under-guard", "at-guard", "over-guard",
    "top-of-range", "same-sign-near-top", "signed-zeros", "negative-zeros",
    "zeros-among-rates", "nan", "inf", "both-infinities",
]


def long_forms(values):
    """`values` as a list, a tuple, a float64 array, and strided and
    reversed float64 views."""
    values = list(values.tolist() if isinstance(values, np.ndarray) else values)
    array = np.array(values, dtype=np.float64)
    spaced = np.full(2 * len(array), 7.25)
    spaced[::2] = array
    return {"list": values, "tuple": tuple(values), "array": array,
            "strided": spaced[::2], "reversed": array[::-1].copy()[::-1]}


@pytest.mark.parametrize("length", LONG_LENGTHS.values(), ids=LONG_LENGTHS.keys())
@pytest.mark.parametrize("name", LONG_INPUTS)
def test_long_series_equal_the_list_based_code(name, length, bursty_lib):
    values = long_series(name, length, bursty_lib)
    assert len(values) == length
    for form, series in long_forms(values).items():
        for fn, reference in ((summarize, list_summary),
                              (coefficient_of_variation, list_cov),
                              (peak_to_mean_and_cov, list_pmr_and_cov)):
            assert outcome_repr(fn, series) == outcome_repr(reference, series), (
                form, fn.__name__)


@pytest.mark.parametrize("length", LONG_LENGTHS.values(), ids=LONG_LENGTHS.keys())
@pytest.mark.parametrize("name", LONG_INPUTS)
def test_long_series_peak_to_mean_equals_the_list_based_code(name, length, bursty_lib):
    # the reference iterates the series itself, so an array reaches it as
    # the list of its values
    values = long_series(name, length, bursty_lib)
    for form, series in long_forms(values).items():
        listed = series.tolist() if isinstance(series, np.ndarray) else series
        assert (outcome_repr(peak_to_mean, series)
                == outcome_repr(list_peak_to_mean, listed)), form


def test_long_series_reach_each_outcome(bursty_lib):
    # the inputs above reach a value, ZeroMean, SeriesOverflow and NaN
    outcomes = {name: outcome_repr(summarize, long_series(name, 3000, bursty_lib))
                for name in LONG_INPUTS}
    assert outcomes["cancelling"].startswith("SeriesSummary(mean=0.0,")
    assert outcomes["full-range"][0] is SeriesOverflow
    assert "nan" in outcomes["nan"] and "inf" in outcomes["inf"]
    assert outcomes["wide"].startswith("SeriesSummary(")
    assert outcomes["top-of-range"][0] is SeriesOverflow
    for name in ("cancelling", "signed-zeros", "negative-zeros"):
        assert outcome_repr(coefficient_of_variation,
                            long_series(name, 3000, bursty_lib))[0] is ZeroMean


# -- exact sums by extraction --------------------------------------------------------

@st.composite
def fsum_arrays(draw):
    """A float64 array of any length: ordinary, integer, cancelling,
    subnormal or same-sign values of nearly equal magnitude, or values whose
    binary exponents span a drawn range anywhere in the double range, with
    NaN, infinities and signed zeros at drawn positions."""
    n = draw(st.integers(0, 2 * _FSUM_CUTOFF) | st.integers(_FSUM_CUTOFF, 20000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    kind = draw(st.sampled_from(["uniform", "integers", "cancelling", "subnormal",
                                 "same-sign", "spread"]))
    if kind == "uniform":
        values = rng.uniform(-1.0, 1.0, n) * draw(st.sampled_from([1.0, 1e6, 1e300]))
    elif kind == "integers":
        values = rng.integers(-2 ** 62, 2 ** 62, n).astype(np.float64)
    elif kind == "cancelling":
        half = rng.uniform(0.0, 1e9, n // 2)
        values = rng.permutation(np.concatenate([half, -half, np.zeros(n % 2)]))
    elif kind == "subnormal":
        values = rng.integers(-2 ** 52, 2 ** 52, n) * 5e-324
    elif kind == "same-sign":  # the pass sums come nearest their bound
        values = np.ldexp(rng.uniform(1.0 - 2.0 ** -20, 1.0, n),
                          draw(st.integers(-1000, 1000)))
    else:
        low = draw(st.integers(-1073, 1023))
        values = spread(rng, n, low, draw(st.integers(low + 1, 1024)))
    for special in draw(st.lists(st.sampled_from(
            [math.nan, math.inf, -math.inf, 0.0, -0.0]), max_size=3 if n else 0)):
        values[draw(st.integers(0, n - 1))] = special
    return values


@settings(max_examples=300, deadline=None)
@given(fsum_arrays())
def test_fsum_equals_math_fsum(values):
    before = values.copy()
    assert outcome_repr(_fsum, values) == outcome_repr(math.fsum, values.tolist())
    assert np.array_equal(values, before, equal_nan=True)


def spy_on_fsum(monkeypatch):
    """Record what each `math.fsum` call is given, as a list."""
    calls, real = [], math.fsum

    def fsum(values):
        calls.append(list(values))
        return real(values)
    monkeypatch.setattr(math, "fsum", fsum)
    return calls


def test_fsum_sums_by_passes_from_the_cutoff(monkeypatch):
    rng = np.random.default_rng(5)
    calls = spy_on_fsum(monkeypatch)
    for n in (5, _FSUM_CUTOFF - 1, _FSUM_CUTOFF, 3000):
        values = rng.uniform(0.0, 1e6, n)
        calls.clear()
        _fsum(values)
        # below the cutoff math.fsum reads every value; from it, only the
        # exact sum of each pass and what is left after the last
        (given,) = calls
        if n < _FSUM_CUTOFF:
            assert len(given) == n
        else:
            assert len(given) <= _FSUM_PASSES


def test_fsum_hands_what_the_passes_leave_to_math_fsum(monkeypatch):
    # huge values that cancel exactly and tiny ones that do not: the passes
    # extract the huge ones, the tiny ones are left over, and they alone
    # make the sum
    rng = np.random.default_rng(6)
    huge = spread(rng, 1500, 990, 1000)
    tiny = spread(rng, 20, -1070, -1000)
    values = rng.permutation(np.concatenate([huge, -huge, tiny]))
    before = values.copy()
    want = math.fsum(values.tolist())
    assert want == math.fsum(tiny.tolist()) != 0.0
    calls = spy_on_fsum(monkeypatch)
    assert _fsum(values).hex() == want.hex()
    (parts,) = calls
    assert sum(parts[:_FSUM_PASSES]) == 0.0
    assert sorted(parts[_FSUM_PASSES:]) == sorted(tiny.tolist())
    assert np.array_equal(values, before)


@pytest.mark.parametrize("top", [
    sys.float_info.max, 2.0 ** 1023, 2.0 ** 1009, 2.0 ** 1008, 1e300,
])
@pytest.mark.parametrize("n", [_FSUM_CUTOFF, 3000, 20000])
def test_fsum_near_the_top_of_the_double_range(top, n):
    # one largest magnitude with ordinary values, all of one sign (whose sum
    # may overflow) or cancelling with its negative
    rng = np.random.default_rng(8)
    values = rng.uniform(0.0, top / n, n)
    values[n // 2] = top
    for array in (values, np.concatenate([values, [-top]])):
        assert outcome_repr(_fsum, array) == outcome_repr(math.fsum, array.tolist())


@pytest.mark.parametrize("form", ["contiguous", "strided", "reversed"])
def test_fsum_leaves_its_input_as_it_was(form):
    rng = np.random.default_rng(7)
    values = spread(rng, 6000, -600, 600)
    view = {"contiguous": values[:3000], "strided": values[::2],
            "reversed": values[::-1]}[form]
    before, before_view = values.copy(), view.copy()
    got = _fsum(view)
    assert got.hex() == math.fsum(before_view.tolist()).hex()
    assert np.array_equal(values, before)
    # with overwrite the passes may use the array itself: same sum
    assert _fsum(view.copy(), overwrite=True).hex() == got.hex()


# -- coefficient of variation -----------------------------------------------------

def test_cov_constant_series():
    assert coefficient_of_variation([4.0, 4.0, 4.0]) == 0.0


def test_cov_two_values():
    assert coefficient_of_variation([1.0, 3.0]) == pytest.approx(math.sqrt(2) / 2)


def test_cov_three_values():
    assert coefficient_of_variation([2.0, 4.0, 6.0]) == pytest.approx(0.5)


def test_cov_needs_two_values():
    with pytest.raises(TooShort):
        coefficient_of_variation([1.0])


@given(
    series=st.lists(st.floats(0.1, 1e4), min_size=2, max_size=30),
    k=st.floats(0.01, 100.0),
)
def test_cov_scale_invariant(series, k):
    assert coefficient_of_variation([k * x for x in series]) == pytest.approx(
        coefficient_of_variation(series), rel=1e-9
    )


# -- mean and confidence interval ---------------------------------------------------

def test_ci_collapses_for_equal_values():
    result = mean_and_ci([0.5] * 5, confidence=0.95)
    assert result.mean == 0.5
    assert result.ci_half_width == 0.0


def test_ci_five_values_hand_computed():
    # mean 3, sample std sqrt(2.5); t quantile at 97.5%, 4 dof is 2.776
    result = mean_and_ci([1, 2, 3, 4, 5], confidence=0.95)
    assert result.mean == pytest.approx(3.0)
    assert result.ci_half_width == pytest.approx(1.963, abs=5e-3)


def test_ci_two_values_hand_computed():
    # t quantile at 97.5%, 1 dof is 12.706
    result = mean_and_ci([0.0, 1.0], confidence=0.95)
    assert result.mean == pytest.approx(0.5)
    assert result.ci_half_width == pytest.approx(6.353, abs=5e-3)


def test_ci_validation():
    with pytest.raises(TooShort):
        mean_and_ci([1.0], confidence=0.95)
    with pytest.raises(ValueError):
        mean_and_ci([1.0, 2.0], confidence=1.5)


def test_series_beyond_the_double_range():
    # the sum of [1e308, 1e308] overflows; of [1e160, 0.0] only a squared
    # deviation does, which the peak-to-mean ratio does not take
    for statistic in (summarize, peak_to_mean, coefficient_of_variation,
                      peak_to_mean_and_cov):
        with pytest.raises(SeriesOverflow):
            statistic([1e308, 1e308])
    for statistic in (summarize, coefficient_of_variation, peak_to_mean_and_cov):
        with pytest.raises(SeriesOverflow):
            statistic([1e160, 0.0])
    assert peak_to_mean([1e160, 0.0]) == 2.0


@pytest.mark.parametrize("confidence", ["0.9", None, 1j, [0.9]],
                         ids=["string", "none", "complex", "list"])
def test_ci_refuses_a_confidence_that_is_not_a_real(confidence):
    # each raised TypeError from the comparison
    with pytest.raises(ValueError, match=r"^confidence must be in \(0, 1\)"):
        mean_and_ci([0.25, 0.5], confidence)


def test_ci_refuses_a_confidence_whose_quantile_is_infinite():
    # (1 + c) / 2 rounds to 1 for c = 1 - 2^-53, whose t quantile is
    # infinite; c = 1 - 2^-52 is the largest confidence with a finite one
    with pytest.raises(ValueError, match="below 1"):
        mean_and_ci([0.5] * 5, confidence=1 - 2 ** -53)
    assert math.isfinite(mean_and_ci([0.25, 0.5], 1 - 2 ** -52).ci_half_width)


@given(
    values=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=20),
    confidence=st.sampled_from([0.8, 0.9, 0.95, 0.99]),
)
def test_ci_half_width_nonnegative(values, confidence):
    assert mean_and_ci(values, confidence).ci_half_width >= 0.0


def test_summarize_basics():
    s = summarize([1.0, 2.0, 3.0])
    assert s.mean == pytest.approx(2.0)
    assert s.peak == 3.0
    assert s.count == 3
    assert s.sample_std == pytest.approx(1.0)


# -- t quantile and import cost ----------------------------------------------------

def test_quantile_matches_scipy_stats_bit_for_bit():
    from scipy.special import stdtrit
    from scipy.stats import t

    for confidence in (0.8, 0.9, 0.95, 0.99):
        q = (1.0 + confidence) / 2.0
        for df in range(1, 61):
            values = [0.25 * (k % 3) + 0.01 * k for k in range(df + 1)]
            s = summarize(values)
            expected = float(t.ppf(q, df)) * s.sample_std / math.sqrt(df + 1)
            got = mean_and_ci(values, confidence).ci_half_width
            assert got == expected, (confidence, df)
    assert float(stdtrit(4, 0.975)) == 2.7764451051977934


def test_tabulated_quantiles_equal_stdtrit_bit_for_bit():
    from scipy.special import stdtrit

    assert sorted(_T_QUANTILE_95) == list(range(1, 61))
    for df, quantile in _T_QUANTILE_95.items():
        assert quantile == float(stdtrit(df, (1.0 + 0.95) / 2.0)), df


def run_child(code, *args):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    child = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr


NO_SCIPY = "not [m for m in sys.modules if m.split('.')[0] == 'scipy']"


def test_import_and_parse_leave_scipy_unloaded():
    # a tabulated interval (df 2 at 0.95) loads no scipy; an untabulated one
    # (0.9) loads scipy.special for its quantile, never scipy.stats
    run_child(
        "import sys, pathlib, vmac\n"
        "for p in sorted(pathlib.Path(sys.argv[1]).glob('*.txt')):\n"
        "    vmac.parse_trace_file(p)\n"
        f"assert {NO_SCIPY}, 'scipy'\n"
        "vmac.mean_and_ci([0.25, 0.5, 0.75])\n"
        f"assert {NO_SCIPY}, 'scipy at 0.95'\n"
        "vmac.mean_and_ci([0.25, 0.5, 0.75], confidence=0.9)\n"
        "assert 'scipy.special' in sys.modules\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats'\n",
        TRACES_DIR / "bursty",
    )


def test_default_sweep_flows_loads_no_scipy(tmp_path):
    out = tmp_path / "fig1.csv"
    run_child(
        "import sys\n"
        "from vmac import cli\n"
        "status = cli.main(['sweep-flows', '--traces-dir', sys.argv[1],\n"
        "                   '--flows', '2,5,10,15,20,30,40', '--seed', '26',\n"
        "                   '--out', sys.argv[2]])\n"
        "assert status == 0, status\n"
        f"assert {NO_SCIPY}, sorted(m for m in sys.modules if 'scipy' in m)\n",
        TRACES_DIR / "bursty", out,
    )
    assert len(out.read_text().splitlines()) == 8


BURSTINESS_ERROR_CASES = [
    ([], "cannot summarize an empty series",
     "coefficient of variation needs at least 2 values"),
    ([0.0], "peak-to-mean needs a positive mean, got 0.0",
     "coefficient of variation needs at least 2 values"),
    ([1.0], None, "coefficient of variation needs at least 2 values"),
    ([0.0, 0.0], "peak-to-mean needs a positive mean, got 0.0",
     "coefficient of variation needs a positive mean, got 0.0"),
    ([2.0, -2.0], "peak-to-mean needs a positive mean, got 0.0",
     "coefficient of variation needs a positive mean, got 0.0"),
]


@pytest.mark.parametrize("series, pmr_error, cov_error", BURSTINESS_ERROR_CASES)
def test_burstiness_errors_and_their_messages(series, pmr_error, cov_error):
    """Each index's error, and `peak_to_mean_and_cov` raising the first of
    the two, with the same message."""
    def outcome(fn):
        try:
            return fn(series)
        except (TooShort, ZeroMean) as exc:
            return type(exc), str(exc)
    pmr, cov = outcome(peak_to_mean), outcome(coefficient_of_variation)
    for got, message in ((pmr, pmr_error), (cov, cov_error)):
        if message is not None:
            assert got[1] == message
    first_error = pmr if pmr_error is not None else cov
    assert outcome(peak_to_mean_and_cov) == first_error


@pytest.mark.parametrize("series", [case[0] for case in BURSTINESS_ERROR_CASES] + [
    [1.0, 3.0], [1.0, 1.0, 2.0], [4.0, 4.0, 4.0], [0.5, -0.0, 5e-324, 2.5],
    [1e308, 1e308], [1e160, 0.0],
])
@pytest.mark.parametrize("statistic", [summarize, peak_to_mean,
                                       coefficient_of_variation,
                                       peak_to_mean_and_cov, mean_and_ci])
def test_statistics_of_an_array_equal_those_of_its_tuple(statistic, series):
    """The same result, or the same error and message, for a float64 array
    as for the tuple of its values."""
    def outcome(values):
        try:
            return statistic(values)
        except VmacError as exc:
            return type(exc), str(exc)
    assert outcome(np.array(series, dtype=np.float64)) == outcome(tuple(series))
