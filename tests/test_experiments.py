"""Monte Carlo harness: seeding, determinism and degenerate baselines."""

import re

import numpy as np
import pytest

from vmac import experiments
from vmac.errors import (
    ClassMissing,
    EmptyLibrary,
    InsufficientHistory,
    MixedFps,
    TooShort,
    ZeroMean,
)
from vmac.experiments import (
    BurstinessRow,
    ExperimentConfig,
    derive_run_seed,
    run_burstiness_table,
    run_content_comparison,
    run_probability_sweep,
    run_rate_timeseries,
    run_window_sweep,
)
from vmac.stats import coefficient_of_variation, peak_to_mean
from vmac.trace_model import ContentClass

from .conftest import bundled_library, generate_traces, make_trace


# -- seed derivation -----------------------------------------------------------

def test_seed_deterministic():
    assert derive_run_seed(7, 3, 11) == derive_run_seed(7, 3, 11)


def test_seed_is_63_bit_nonnegative():
    for s in (0, 1, 2 ** 64, -5):
        value = derive_run_seed(s, 0, 0)
        assert 0 <= value < 2 ** 63


def test_seed_distinguishes_run_index():
    # exhaustive over 10^4 master seeds: changing the run index changes
    # the derived seed
    for s in range(10_000):
        assert derive_run_seed(s, 0, 0) != derive_run_seed(s, 0, 1)


def test_seed_distinguishes_rep_from_run():
    # indices are not interchangeable (not merely summed or multiplied)
    for s in range(10_000):
        assert derive_run_seed(s, 1, 0) != derive_run_seed(s, 0, 1)


def test_seed_rejects_negative_indices():
    with pytest.raises(ValueError):
        derive_run_seed(0, -1, 0)
    with pytest.raises(ValueError):
        derive_run_seed(0, 0, -1)


@pytest.mark.parametrize("args, message", [
    ((True, 0, 0), "master_seed must be an integer, got bool True"),
    ((1.0, 0, 0), "master_seed must be an integer, got float 1.0"),
    ((0, True, 0), "rep_index must be an integer, got bool True"),
    ((0, 0, 1.0), "run_index must be an integer, got float 1.0"),
], ids=["bool-seed", "float-seed", "bool-rep", "float-run"])
def test_seed_refuses_bools_and_non_integers(args, message):
    # True hashed as "True", another stream than 1's, and 1.0 as "1.0"
    with pytest.raises(ValueError, match=f"^{message}$"):
        derive_run_seed(*args)


def test_seed_of_numpy_integers_is_the_seed_of_their_values():
    assert derive_run_seed(np.int64(-5), np.int32(3), np.uint8(11)) == \
        derive_run_seed(-5, 3, 11)


# -- config validation -----------------------------------------------------------

def test_empty_library_rejected():
    with pytest.raises(EmptyLibrary):
        ExperimentConfig(trace_library=())


def test_mixed_fps_rejected():
    lib = (make_trace([10] * 20, fps=30.0), make_trace([10] * 20, fps=25.0))
    with pytest.raises(MixedFps):
        ExperimentConfig(trace_library=lib)


def test_window_longer_than_shortest_trace_rejected():
    lib = (make_trace([10] * 3),)
    with pytest.raises(InsufficientHistory):
        ExperimentConfig(trace_library=lib, window_slots=5)


def test_bad_scalar_config_rejected():
    lib = (make_trace([10] * 20),)
    with pytest.raises(ValueError):
        ExperimentConfig(trace_library=lib, flow_counts=(0,))
    with pytest.raises(ValueError):
        ExperimentConfig(trace_library=lib, confidence=1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(trace_library=lib, workers=0)


@pytest.mark.parametrize("field, value", [
    ("window_slots", True), ("window_slots", 5.0), ("runs_per_rep", 20.0),
    ("reps", 2.0), ("master_seed", 1.0), ("master_seed", True), ("workers", 1.0),
    ("flow_counts", (True,)), ("flow_counts", (5.0,)), ("flow_counts", (2, 5.0)),
])
def test_config_settings_must_be_integers(cbr_library, field, value):
    # the seed is hashed as text, so 1.0 and True used to run other streams
    # than 1; the floats failed inside numpy, mid-sweep
    name, bad = ("flow count", value[-1]) if field == "flow_counts" else (field, value)
    message = f"{name} must be an integer, got {type(bad).__name__} {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(trace_library=cbr_library, **{field: value})


def test_config_refuses_a_non_integer_setting_before_its_other_checks():
    with pytest.raises(ValueError, match="^window_slots must be an integer"):
        ExperimentConfig(trace_library=(), window_slots=5.0)


def test_config_stores_python_ints(cbr_library):
    cfg = ExperimentConfig(
        trace_library=cbr_library, flow_counts=(np.int64(2), 5),
        window_slots=np.int32(5), runs_per_rep=np.int64(10), reps=np.int16(2),
        master_seed=np.uint64(1), workers=np.int8(1))
    assert cfg == ExperimentConfig(trace_library=cbr_library, flow_counts=(2, 5),
                                   runs_per_rep=10, reps=2, master_seed=1)
    fields = (cfg.window_slots, cfg.runs_per_rep, cfg.reps, cfg.master_seed,
              cfg.workers, *cfg.flow_counts)
    assert {type(value) for value in fields} == {int}


def test_check_settings_refuses_flow_counts_that_are_not_integers():
    for counts in ((2, 5.0), (True,), (np.float64(3.0),)):
        with pytest.raises(ValueError, match="^flow count must be an integer, got "):
            experiments.check_settings(flow_counts=counts)


@pytest.mark.parametrize("seed, message", [
    (True, "seed must be an integer, got bool True"),
    (1.0, "seed must be an integer, got float 1.0"),
    (-1, "seed must be >= 0, got -1"),
], ids=["bool", "float", "negative"])
def test_time_series_refuses_a_bad_seed_before_any_draw(cbr_library, monkeypatch,
                                                        seed, message):
    # True ran the stream of seed 1; 1.0 and -1 failed inside numpy
    cfg = ExperimentConfig(trace_library=cbr_library)
    monkeypatch.setattr(experiments, "draw_flow_set", no_draw)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_rate_timeseries(cfg, 5, 20, seed)


@pytest.mark.parametrize("seed", [-1, -(2 ** 64)])
def test_config_refuses_a_negative_master_seed(cbr_library, seed):
    # the CLI refused --seed -1, while the config built and swept
    with pytest.raises(ValueError, match=f"^seed must be >= 0, got {seed}$"):
        ExperimentConfig(trace_library=cbr_library, master_seed=seed)
    with pytest.raises(ValueError, match=f"^seed must be >= 0, got {seed}$"):
        experiments.check_settings(master_seed=seed)


def test_single_rep_rejected_at_build_time():
    lib = (make_trace([10] * 20),)
    with pytest.raises(ValueError, match="reps"):
        ExperimentConfig(trace_library=lib, reps=1)


def test_check_settings_refuses_one_rep():
    with pytest.raises(ValueError, match="^reps must be >= 2"):
        experiments.check_settings(reps=1)


@pytest.mark.parametrize("reps, message", [
    (2.5, "reps must be an integer, got float 2.5"),
    (True, "reps must be an integer, got bool True"),
], ids=["float", "bool"])
def test_check_settings_refuses_reps_that_are_not_an_integer(reps, message):
    # 2.5 passed, and True was compared as 1
    with pytest.raises(ValueError, match=f"^{message}$"):
        experiments.check_settings(reps=reps)


def test_mixed_fps_message_names_both_frame_rates():
    lib = (make_trace([10] * 20, fps=30.0), make_trace([10] * 20, fps=25.0))
    with pytest.raises(MixedFps) as caught:
        ExperimentConfig(trace_library=lib)
    assert "30.0" in str(caught.value) and "25.0" in str(caught.value)


# -- degenerate CBR baseline -------------------------------------------------------

def test_cbr_probability_exactly_zero(cbr_library):
    cfg = ExperimentConfig(
        trace_library=cbr_library, flow_counts=(2, 5), runs_per_rep=50,
        reps=3, master_seed=1,
    )
    result = run_probability_sweep(cfg)
    for _, ci in result.rows:
        assert ci.mean == 0.0
        assert ci.ci_half_width == 0.0


def test_cbr_burstiness_degenerate(cbr_library):
    cfg = ExperimentConfig(trace_library=cbr_library, master_seed=1)
    for row in run_burstiness_table(cfg, (2, 5), duration_slots=100):
        assert row.peak_to_mean == 1.0
        assert row.cov == 0.0


@pytest.mark.parametrize("window", [1, 5])
def test_burstiness_rows_equal_peak_to_mean_and_cov(bursty_lib, window):
    cfg = ExperimentConfig(trace_library=bursty_lib, window_slots=window,
                           master_seed=7)
    counts = (1, 5, 40)
    want = []
    for idx, n in enumerate(counts):
        ts = run_rate_timeseries(cfg, n, 200, derive_run_seed(7, idx, 1))
        for kind, series in (("instantaneous", ts.instantaneous),
                             ("average", ts.average)):
            want.append(BurstinessRow(n, kind, peak_to_mean(series),
                                      coefficient_of_variation(series)))
    rows = run_burstiness_table(cfg, counts, duration_slots=200)
    assert repr(rows) == repr(tuple(want))  # bit for bit


@pytest.mark.parametrize("duration", [5, 10])
def test_burstiness_of_silent_library_is_zero_mean(duration):
    # at 5 slots each series has one value: the mean is checked first
    cfg = ExperimentConfig(trace_library=(make_trace([0] * 20),))
    with pytest.raises(ZeroMean) as err:
        run_burstiness_table(cfg, (3,), duration_slots=duration)
    assert str(err.value) == "peak-to-mean needs a positive mean, got 0.0"


def test_burstiness_of_one_end_slot_is_too_short(cbr_library):
    cfg = ExperimentConfig(trace_library=cbr_library)
    with pytest.raises(TooShort) as err:
        run_burstiness_table(cfg, (3,), duration_slots=cfg.window_slots)
    assert str(err.value) == "coefficient of variation needs at least 2 values"


def test_cbr_window_sweep_zero(cbr_library):
    cfg = ExperimentConfig(
        trace_library=cbr_library, runs_per_rep=50, reps=2, master_seed=1
    )
    for _, ci in run_window_sweep(cfg, 3, (2, 5, 10)):
        assert ci.mean == 0.0


def test_one_slot_window_probability_zero(bursty_lib):
    # with a single-slot window the average equals the instantaneous rate
    cfg = ExperimentConfig(
        trace_library=bursty_lib, runs_per_rep=50, reps=2, master_seed=2
    )
    rows = run_window_sweep(cfg, 5, (1,))
    assert rows[0][1].mean == 0.0


# -- determinism --------------------------------------------------------------------

def test_sweep_deterministic(bursty_lib):
    cfg = ExperimentConfig(
        trace_library=bursty_lib, flow_counts=(2, 5), runs_per_rep=40,
        reps=3, master_seed=9,
    )
    assert run_probability_sweep(cfg) == run_probability_sweep(cfg)


def test_sweep_identical_across_worker_counts(bursty_lib):
    base = dict(
        trace_library=bursty_lib, flow_counts=(2, 5), runs_per_rep=40,
        reps=4, master_seed=9,
    )
    serial = run_probability_sweep(ExperimentConfig(**base, workers=1))
    parallel = run_probability_sweep(ExperimentConfig(**base, workers=4))
    assert serial == parallel


def test_timeseries_deterministic(bursty_lib):
    cfg = ExperimentConfig(trace_library=bursty_lib, master_seed=3)
    a = run_rate_timeseries(cfg, 5, 100, seed=17)
    b = run_rate_timeseries(cfg, 5, 100, seed=17)
    assert a == b


# -- timeseries shape and invariants --------------------------------------------------

def test_timeseries_slots_and_length(bursty_lib):
    cfg = ExperimentConfig(trace_library=bursty_lib, window_slots=5, master_seed=3)
    ts = run_rate_timeseries(cfg, 5, 60, seed=1)
    assert ts.slots[0] == 4
    assert len(ts.slots) == len(ts.instantaneous) == len(ts.average) == 56


def test_timeseries_sandwich(bursty_lib):
    cfg = ExperimentConfig(trace_library=bursty_lib, window_slots=5, master_seed=3)
    ts = run_rate_timeseries(cfg, 5, 200, seed=1)
    inst = ts.instantaneous
    for i, avg in enumerate(ts.average):
        window = inst[max(0, i - 4): i + 1]
        # the first few windows reach slots before the reported series
        if i >= 4:
            assert min(window) - 1e-6 <= avg <= max(window) + 1e-6


def test_timeseries_duration_must_fit_window(bursty_lib):
    cfg = ExperimentConfig(trace_library=bursty_lib, window_slots=5, master_seed=3)
    with pytest.raises(InsufficientHistory):
        run_rate_timeseries(cfg, 5, 4, seed=1)


def test_average_series_smoother_at_five_flows(bursty_lib):
    cfg = ExperimentConfig(trace_library=bursty_lib, master_seed=4)
    ts = run_rate_timeseries(cfg, 5, 300, seed=derive_run_seed(4, 0, 1))
    assert coefficient_of_variation(ts.average) < coefficient_of_variation(
        ts.instantaneous
    )


# -- content comparison ----------------------------------------------------------------

def test_content_class_missing(bursty_lib):
    cfg = ExperimentConfig(trace_library=bursty_lib, master_seed=1)
    with pytest.raises(ClassMissing):
        run_content_comparison(cfg, (ContentClass.NEWS,), (5,))


@pytest.mark.parametrize(
    "content_class", [ContentClass.MOVIE, ContentClass.DEMO, ContentClass.UNKNOWN]
)
def test_content_library_rejects_class_without_recipe(content_class):
    with pytest.raises(ValueError, match="no synthetic recipe"):
        generate_traces().content_library(7, content_class)


def test_content_comparison_shape():
    lib = bundled_library("content")
    cfg = ExperimentConfig(
        trace_library=lib, runs_per_rep=30, reps=2, master_seed=1
    )
    rows = run_content_comparison(
        cfg, (ContentClass.NEWS, ContentClass.SPORTS), (2, 5)
    )
    assert [(c, n) for c, n, _ in rows] == [
        (ContentClass.NEWS, 2),
        (ContentClass.NEWS, 5),
        (ContentClass.SPORTS, 2),
        (ContentClass.SPORTS, 5),
    ]
    assert all(0.0 <= ci.mean <= 1.0 for _, _, ci in rows)


# -- window sweep validation -------------------------------------------------------------

def test_window_sweep_rejects_oversized_window(bursty_lib):
    cfg = ExperimentConfig(trace_library=bursty_lib, master_seed=1)
    with pytest.raises(InsufficientHistory):
        run_window_sweep(cfg, 5, (10_000,))


def test_probabilities_within_unit_interval(bursty_lib):
    cfg = ExperimentConfig(
        trace_library=bursty_lib, flow_counts=(2, 10), runs_per_rep=40,
        reps=3, master_seed=5,
    )
    for _, ci in run_probability_sweep(cfg).rows:
        assert 0.0 <= ci.mean <= 1.0
        assert ci.ci_half_width >= 0.0


# -- flow counts below 1 -------------------------------------------------------------

def no_draw(*args, **kwargs):
    raise AssertionError("drew a scenario before checking the flow counts")


@pytest.mark.parametrize("bad", [0, -1])
@pytest.mark.parametrize("call", [
    lambda cfg, n: run_window_sweep(cfg, n, (2, 5)),
    lambda cfg, n: run_content_comparison(cfg, (ContentClass.UNKNOWN,), (5, n)),
    lambda cfg, n: run_rate_timeseries(cfg, n, 50, seed=1),
    lambda cfg, n: run_burstiness_table(cfg, (5, n), duration_slots=50),
], ids=["window_sweep", "content_comparison", "rate_timeseries", "burstiness_table"])
def test_flow_counts_below_one_rejected_before_any_draw(cbr_library, monkeypatch,
                                                        call, bad):
    cfg = ExperimentConfig(trace_library=cbr_library, runs_per_rep=10, reps=2)
    monkeypatch.setattr(experiments, "draw_flow_set", no_draw)
    monkeypatch.setattr(experiments, "_probability_scenario", no_draw)
    with pytest.raises(ValueError, match="flow counts must be >= 1"):
        call(cfg, bad)


@pytest.mark.parametrize("call", [
    lambda cfg: ExperimentConfig(trace_library=cfg.trace_library, flow_counts=()),
    lambda cfg: run_content_comparison(cfg, (ContentClass.UNKNOWN,), ()),
    lambda cfg: run_burstiness_table(cfg, (), duration_slots=50),
], ids=["config", "content_comparison", "burstiness_table"])
def test_empty_flow_counts_rejected_before_any_draw(cbr_library, monkeypatch, call):
    cfg = ExperimentConfig(trace_library=cbr_library, runs_per_rep=10, reps=2)
    monkeypatch.setattr(experiments, "draw_flow_set", no_draw)
    monkeypatch.setattr(experiments, "_probability_scenario", no_draw)
    with pytest.raises(ValueError, match="flow counts must not be empty"):
        call(cfg)


@pytest.mark.parametrize("call, message", [
    (lambda cfg: run_rate_timeseries(cfg, True, 20, seed=1),
     "flow count must be an integer, got bool True"),
    (lambda cfg: run_rate_timeseries(cfg, 5.0, 20, seed=1),
     "flow count must be an integer, got float 5.0"),
    (lambda cfg: run_rate_timeseries(cfg, 5, 20.0, seed=1),
     "duration_slots must be an integer, got float 20.0"),
    (lambda cfg: run_burstiness_table(cfg, (5,), 300.0),
     "duration_slots must be an integer, got float 300.0"),
    (lambda cfg: run_burstiness_table(cfg, (5,), 5.0),
     "duration_slots must be an integer, got float 5.0"),
    (lambda cfg: run_burstiness_table(cfg, (5, True), 300),
     "flow count must be an integer, got bool True"),
], ids=["timeseries-bool-flows", "timeseries-float-flows", "timeseries-float-duration",
        "burstiness-float-duration", "burstiness-one-window-float-duration",
        "burstiness-bool-flows"])
def test_series_arguments_that_are_not_integers_refused_before_any_draw(
        cbr_library, monkeypatch, call, message):
    # a bool flow count used to draw one flow; a float failed inside numpy
    cfg = ExperimentConfig(trace_library=cbr_library, runs_per_rep=10, reps=2)
    monkeypatch.setattr(experiments, "draw_flow_set", no_draw)
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(cfg)


# -- empty window and class lists ----------------------------------------------------

def no_table(*args, **kwargs):
    raise AssertionError("built a table or drew before checking the lists")


@pytest.fixture
def no_table_or_draw(monkeypatch):
    for name in ("_gap_table", "_probability_scenario", "draw_flow_set"):
        monkeypatch.setattr(experiments, name, no_table)


def test_window_sweep_refuses_no_windows(cbr_library, no_table_or_draw):
    cfg = ExperimentConfig(trace_library=cbr_library, runs_per_rep=10, reps=2)
    with pytest.raises(ValueError, match="window lengths must not be empty"):
        run_window_sweep(cfg, 5, ())


def test_content_comparison_refuses_no_classes(cbr_library, no_table_or_draw):
    cfg = ExperimentConfig(trace_library=cbr_library, runs_per_rep=10, reps=2)
    with pytest.raises(ValueError, match="content classes must not be empty"):
        run_content_comparison(cfg, (), (2, 5))


@pytest.mark.parametrize("windows, error, message", [
    ((2, 0), ValueError, "window_slots must be >= 1, got 0"),
    ((2, 51), InsufficientHistory, "shortest trace has 50 slots, window needs 51"),
], ids=["below-one", "beyond-shortest-trace"])
def test_window_sweep_refuses_bad_window_before_any_table(
        cbr_library, no_table_or_draw, windows, error, message):
    cfg = ExperimentConfig(trace_library=cbr_library, runs_per_rep=10, reps=2)
    with pytest.raises(error, match=message):
        run_window_sweep(cfg, 5, windows)


def test_content_comparison_refuses_missing_class_before_any_scenario(
        no_table_or_draw):
    news = make_trace([1000, 3000] * 25, content_class=ContentClass.NEWS)
    cfg = ExperimentConfig(trace_library=(news,), runs_per_rep=10, reps=2)
    with pytest.raises(ClassMissing) as err:
        run_content_comparison(cfg, (ContentClass.NEWS, ContentClass.MOVIE), (2, 5))
    assert err.value.content_class is ContentClass.MOVIE


@pytest.mark.parametrize("classes", [("movie",), (ContentClass.NEWS, "news")],
                         ids=["name", "member-then-name"])
def test_content_comparison_refuses_a_class_that_is_not_a_member(
        no_table_or_draw, classes):
    # a name raised AttributeError inside ClassMissing, or ClassMissing
    # for a class the library holds
    news = make_trace([1000, 3000] * 25, content_class=ContentClass.NEWS)
    cfg = ExperimentConfig(trace_library=(news,), runs_per_rep=10, reps=2)
    with pytest.raises(ValueError, match="^content class must be a ContentClass, got str "):
        run_content_comparison(cfg, classes, (2, 5))


def test_burstiness_of_one_end_slot_refused_before_any_draw(cbr_library, monkeypatch):
    cfg = ExperimentConfig(trace_library=cbr_library)
    monkeypatch.setattr(experiments, "draw_flow_set", no_draw)
    monkeypatch.setattr(experiments, "aggregate_rate_series", no_draw)
    with pytest.raises(TooShort, match="coefficient of variation needs at least 2 values"):
        run_burstiness_table(cfg, (5, 40), duration_slots=cfg.window_slots)
