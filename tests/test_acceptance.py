"""Acceptance gate: the eight headline claims, one test each.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts the claim at its stated tolerance.  All randomness is
pinned: the libraries are the bundled files under ``traces/``, the
single-seed statistical checks use master seed 26, and the multi-seed
robustness checks sweep master seeds 1 through 10.
"""

import math
import os
import subprocess
import sys
import time

from vmac.admission import (
    AdmissionRequest,
    LinkConfig,
    QualityClass,
    decide_average,
    decide_instantaneous,
    quality_class_rate,
)
from vmac.bounds import HoeffdingQuery, empirical_exceedance, hoeffding_delta
from vmac.experiments import (
    ExperimentConfig,
    run_burstiness_table,
    run_probability_sweep,
    run_rate_timeseries,
    run_window_sweep,
    run_content_comparison,
)
from vmac.rate_engine import MeasurementWindow, average_aggregate_rate, rate_sample
from vmac.trace_model import (
    MBPS,
    ContentClass,
    FlowInstance,
    FlowRateBounds,
    VideoTrace,
    synth_bounded_trace,
)

from .conftest import REPO_ROOT, TRACES_DIR, bundled_library

PINNED_SEED = 26    # master seed for the single-seed statistical checks
ROBUSTNESS_SEEDS = range(1, 11)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_hoeffding_bound_holds_empirically():
    """Empirical exceedance never beats the closed-form bound."""
    width = 2.0 * MBPS
    flow_counts = (2, 5, 10, 20)
    epsilons = (0.25 * MBPS, 0.5 * MBPS, 1.0 * MBPS, 1.5 * MBPS, 2.0 * MBPS)
    samples = 10_000
    window = MeasurementWindow(end_slot=4, length_slots=5)
    bounds = FlowRateBounds(0.0, width)

    started = time.monotonic()
    worst_margin = math.inf
    violations = 0
    for master in range(20):
        for n in flow_counts:
            flows = [
                FlowInstance(
                    trace=synth_bounded_trace(
                        500, bounds, fps=30.0,
                        seed=master * 10_000 + n * 100 + i,
                        trace_id=f"u-{master}-{n}-{i}",
                    ),
                    start_offset=0,
                    flow_id=i,
                )
                for i in range(n)
            ]
            for eps in epsilons:
                measured = empirical_exceedance(
                    flows, window, eps, samples, seed=master * 7 + n
                )
                query = HoeffdingQuery(
                    n=n, epsilon=eps, ranges=tuple(bounds for _ in range(n))
                )
                delta = hoeffding_delta(query).delta
                worst_margin = min(worst_margin, delta - measured)
                if measured > delta:
                    violations += 1
    elapsed = time.monotonic() - started

    ok = violations == 0 and elapsed < 60.0
    report(
        "1",
        ok,
        f"0 of 400 (n, eps) pairs violated expected; got {violations}, "
        f"worst margin {worst_margin:.2e}, {elapsed:.1f}s of 60s budget",
    )
    assert violations == 0
    assert elapsed < 60.0


def test_criterion_2_decreasing_probability_trend(bursty_lib):
    """Probability falls from 5 to 40 flows and hovers near 0.5 for n >= 15."""
    started = time.monotonic()
    cfg = ExperimentConfig(
        trace_library=bursty_lib,
        flow_counts=(2, 5, 10, 15, 20, 30, 40),
        window_slots=5,
        runs_per_rep=100,
        reps=5,
        master_seed=PINNED_SEED,
    )
    result = run_probability_sweep(cfg)
    elapsed = time.monotonic() - started
    probs = {n: ci.mean for n, ci in result.rows}

    trend_ok = probs[5] > probs[40]
    band_ok = all(0.40 <= probs[n] <= 0.60 for n in (15, 20, 30, 40))
    ok = trend_ok and band_ok and elapsed < 120.0
    report(
        "2",
        ok,
        f"p(5)={probs[5]:.3f} > p(40)={probs[40]:.3f}; "
        f"p(15..40) in [0.40, 0.60]: {band_ok}; {elapsed:.1f}s of 120s budget",
    )
    assert trend_ok
    assert band_ok
    assert elapsed < 120.0


def test_criterion_3_burstiness_ordering(bursty_lib):
    """PMR and CoV orderings plus the smoothing-at-40-flows ratio."""
    flow_counts = (2, 5, 10, 15, 20, 30, 40)
    cfg = ExperimentConfig(
        trace_library=bursty_lib,
        flow_counts=flow_counts,
        master_seed=PINNED_SEED,
    )
    rows = run_burstiness_table(cfg, flow_counts)
    pmr = {(r.flow_count, r.rate_kind): r.peak_to_mean for r in rows}
    cov = {(r.flow_count, r.rate_kind): r.cov for r in rows}

    ordering_ok = all(
        pmr[(n, "average")] <= pmr[(n, "instantaneous")]
        and cov[(n, "average")] <= cov[(n, "instantaneous")]
        for n in flow_counts
    )
    ratio_inst = cov[(40, "instantaneous")] / cov[(5, "instantaneous")]
    ratio_avg = cov[(40, "average")] / cov[(5, "average")]
    ratio_ok = ratio_inst <= 0.15 and ratio_avg <= 0.15

    samples = bundled_library("samples")
    sample_cfg = ExperimentConfig(trace_library=samples, master_seed=PINNED_SEED)
    sample_rows = run_burstiness_table(sample_cfg, (5,))
    sample_pmr = {r.rate_kind: r.peak_to_mean for r in sample_rows}
    gap = sample_pmr["instantaneous"] - sample_pmr["average"]
    gap_ok = gap >= 0.03

    ok = ordering_ok and ratio_ok and gap_ok
    report(
        "3",
        ok,
        f"PMR/CoV ordering holds at every flow count: {ordering_ok}; "
        f"CoV(40)/CoV(5) = {ratio_inst:.3f} (inst), {ratio_avg:.3f} (avg), "
        f"both <= 0.15; sample-trace PMR gap {gap:.3f} >= 0.03",
    )
    assert ordering_ok
    assert ratio_ok
    assert gap_ok


def test_criterion_4_window_length_effect(bursty_lib):
    """Longer measurement window gives a probability at least as high,
    at 40 flows, in at least 8 of 10 master seeds."""
    wins = 0
    margins = []
    for master in ROBUSTNESS_SEEDS:
        cfg = ExperimentConfig(
            trace_library=bursty_lib,
            runs_per_rep=1000,
            reps=5,
            master_seed=master,
        )
        rows = run_window_sweep(cfg, 40, (5, 25))
        probs = {w: ci.mean for w, ci in rows}
        margins.append(probs[25] - probs[5])
        if probs[25] >= probs[5]:
            wins += 1
    ok = wins >= 8
    report(
        "4",
        ok,
        f"p(window 25) >= p(window 5) in {wins}/10 seeds (need >= 8); "
        f"median margin {sorted(margins)[5]:+.3f}",
    )
    assert wins >= 8


def test_criterion_5_content_effect():
    """Sports-like beats news-like at 5 flows and the gap shrinks at 40,
    in at least 8 of 10 master seeds."""
    library = bundled_library("content")
    wins = 0
    for master in ROBUSTNESS_SEEDS:
        cfg = ExperimentConfig(
            trace_library=library,
            runs_per_rep=1000,
            reps=5,
            master_seed=master,
        )
        rows = run_content_comparison(
            cfg, (ContentClass.SPORTS, ContentClass.NEWS), (5, 40)
        )
        probs = {(c, n): ci.mean for c, n, ci in rows}
        gap_5 = probs[(ContentClass.SPORTS, 5)] - probs[(ContentClass.NEWS, 5)]
        gap_40 = abs(
            probs[(ContentClass.SPORTS, 40)] - probs[(ContentClass.NEWS, 40)]
        )
        if gap_5 > 0 and gap_40 < gap_5:
            wins += 1
    ok = wins >= 8
    report(
        "5",
        ok,
        f"prob(sports) > prob(news) at n=5 and the gap shrinks at n=40 "
        f"in {wins}/10 seeds (need >= 8)",
    )
    assert wins >= 8


def test_criterion_6_degenerate_exactness():
    """CBR collapses everything: exact rate equality, zero probabilities,
    unit PMR, zero CoV, and agreeing policies."""
    library = tuple(
        VideoTrace(
            id=f"cbr-{size}",
            sizes=[size] * 60,
            fps=30.0,
        )
        for size in (1000, 2500, 4000)
    )
    cfg = ExperimentConfig(
        trace_library=library,
        flow_counts=(2, 5, 10),
        runs_per_rep=50,
        reps=3,
        master_seed=PINNED_SEED,
    )

    ts = run_rate_timeseries(cfg, 5, 60, seed=3)
    series_equal = all(
        a == i for a, i in zip(ts.average, ts.instantaneous)
    )

    sweep = run_probability_sweep(cfg)
    probs_zero = all(ci.mean == 0.0 for _, ci in sweep.rows)

    rows = run_burstiness_table(cfg, (2, 5), duration_slots=100)
    metrics_ok = all(r.peak_to_mean == 1.0 and r.cov == 0.0 for r in rows)

    flows = [
        FlowInstance(trace=library[i % 3], start_offset=0, flow_id=i)
        for i in range(5)
    ]
    sample = rate_sample(flows, MeasurementWindow(9, 5))
    policies_agree = True
    for quality in QualityClass:
        req = AdmissionRequest.for_class(quality)
        for capacity_mbps in (1, 3, 10, 11.2, 30):
            link = LinkConfig(link_id="l", capacity=capacity_mbps * MBPS)
            if (
                decide_average(sample, req, link).verdict
                is not decide_instantaneous(sample, req, link).verdict
            ):
                policies_agree = False

    ok = series_equal and probs_zero and metrics_ok and policies_agree
    report(
        "6",
        ok,
        f"avg == inst at every slot: {series_equal}; probabilities all 0: "
        f"{probs_zero}; PMR=1 and CoV=0: {metrics_ok}; policies agree on "
        f"every request: {policies_agree}",
    )
    assert series_equal
    assert probs_zero
    assert metrics_ok
    assert policies_agree


def test_criterion_7_closed_form_spot_checks():
    """Hand-computable values: the bound, a window average, class rates."""
    query = HoeffdingQuery(
        n=2, epsilon=1.0,
        ranges=(FlowRateBounds(0.0, 2.0), FlowRateBounds(0.0, 2.0)),
    )
    delta = hoeffding_delta(query).delta
    delta_ok = abs(delta - math.exp(-1)) <= 1e-12

    # at fps 25 one Mbps is exactly 5000 bytes/frame, so the five-slot
    # window average of {1,2,3,4,5} Mbps is exactly 3 Mbps
    trace = VideoTrace(
        id="ramp",
        sizes=[5000 * (k + 1) for k in range(5)],
        fps=25.0,
    )
    flow = FlowInstance(trace=trace, start_offset=0)
    avg = average_aggregate_rate([flow], MeasurementWindow(4, 5))
    avg_ok = avg == 3.0 * MBPS

    rates_ok = (
        quality_class_rate(QualityClass.FULL_HD) == 11e6
        and quality_class_rate(QualityClass.HD_READY) == 8e6
        and quality_class_rate(QualityClass.SD) == 2e6
        and quality_class_rate(QualityClass.HD_WEB) == 1.25e6
    )

    ok = delta_ok and avg_ok and rates_ok
    report(
        "7",
        ok,
        f"delta = e^-1 within 1e-12: {delta_ok}; ramp window average exactly "
        f"3 Mbps: {avg_ok}; class rates exact: {rates_ok}",
    )
    assert delta_ok
    assert avg_ok
    assert rates_ok


def test_criterion_8_cli_determinism(tmp_path):
    """Every CLI command run twice with identical flags writes byte-identical
    output.  Runs are serial: `--workers 4` has no effect, and its output
    must equal the default's."""
    bursty = str(TRACES_DIR / "bursty")
    content = str(TRACES_DIR / "content")
    commands = {
        "sweep": ["sweep-flows", "--traces-dir", bursty, "--flows", "2,5",
                  "--runs", "30", "--reps", "3", "--seed", "26"],
        "sweep-par": ["sweep-flows", "--traces-dir", bursty, "--flows", "2,5",
                      "--runs", "30", "--reps", "3", "--seed", "26",
                      "--workers", "4"],
        "ts": ["timeseries", "--traces-dir", bursty, "--flows", "5",
               "--duration", "80", "--seed", "26"],
        "burst": ["burstiness", "--traces-dir", bursty, "--flows", "5,40",
                  "--duration", "100", "--seed", "26"],
        "window": ["sweep-window", "--traces-dir", bursty, "--flows", "10",
                   "--windows", "5,25", "--runs", "30", "--reps", "3",
                   "--seed", "26"],
        "content": ["content", "--traces-dir", content, "--classes",
                    "news,sports", "--flows", "5", "--runs", "30",
                    "--reps", "3", "--seed", "26"],
    }

    all_identical = True
    serial_equals_parallel = None
    outputs = {}
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    for name, argv in commands.items():
        files = []
        for attempt in ("first", "second"):
            out = tmp_path / f"{name}-{attempt}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "vmac.cli", *argv, "--out", str(out)],
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            files.append(out.read_bytes())
        outputs[name] = files[0]
        if files[0] != files[1]:
            all_identical = False
    serial_equals_parallel = outputs["sweep"] == outputs["sweep-par"]

    ok = all_identical and serial_equals_parallel
    report(
        "8",
        ok,
        f"{len(commands)} commands rerun byte-identically: {all_identical}; "
        f"serial output equals 4-worker output: {serial_equals_parallel}",
    )
    assert all_identical
    assert serial_equals_parallel
