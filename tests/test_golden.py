"""Golden outputs pinned byte for byte.

Every CLI subcommand runs in-process at a fixed seed on the bundled trace
libraries; its exit status and the SHA-256 of its stdout and CSV are
compared with the values recorded before the Monte Carlo kernel, the
scenario drawer and the rate-series helper were rewritten.  A refactor that
moves one output byte fails here.  The runs are kept small so the suite
stays fast.
"""

import hashlib

import pytest

from vmac.bounds import empirical_exceedance
from vmac.cli import main
from vmac.experiments import ExperimentConfig, run_probability_sweep
from vmac.rate_engine import MeasurementWindow
from vmac.trace_model import (
    FlowInstance,
    FlowRateBounds,
    parse_trace_file,
    synth_bounded_trace,
)

from .conftest import TRACES_DIR

BURSTY = str(TRACES_DIR / "bursty")
CONTENT = str(TRACES_DIR / "content")
SAMPLES = str(TRACES_DIR / "samples")

# name -> (argv, writes a CSV, exit status, sha256 of stdout + NUL + CSV)
CASES = {
    "ingest-sample": (
        ["ingest", f"{SAMPLES}/sample-0.txt"], False, 0,
        "0ed0dba1791ea4d6bbec7229f67a18f5bd79408ea27b87664776c53f4c3a4386",
    ),
    "ingest-content": (
        ["ingest", f"{CONTENT}/sports-3.txt"], False, 0,
        "d5520b8e38533ec7ecb90ab22a1c1343b04e7839023fdf55a3006c22642eb416",
    ),
    "ingest-bursty": (
        ["ingest", f"{BURSTY}/smooth-8.txt"], False, 0,
        "67dc60aaefc9b6438a343dc384bc9eb48862de2e115c0a7fa1473b28e153c927",
    ),
    "hoeffding": (
        ["hoeffding", "--n", "4", "--epsilon", "0.3", "--widths", "1,2,0.5,3"],
        False, 0,
        "08de39ceb6ee7dac79e02e5bc0666afc25b5caeb0b49efe80bc00a5d3a100604",
    ),
    "sweep-flows-bursty": (
        ["sweep-flows", "--traces-dir", BURSTY, "--flows", "1,2,5,40",
         "--runs", "40", "--reps", "3", "--seed", "11"], True, 0,
        "10bf2845dfdeaea3613fefe0747927afb014fc9183a840cbb8de98ae7f13d483",
    ),
    "sweep-flows-bursty-workers": (
        ["sweep-flows", "--traces-dir", BURSTY, "--flows", "1,2,5,40",
         "--runs", "40", "--reps", "3", "--seed", "11", "--workers", "3"],
        True, 0,
        "10bf2845dfdeaea3613fefe0747927afb014fc9183a840cbb8de98ae7f13d483",
    ),
    "sweep-flows-content": (
        ["sweep-flows", "--traces-dir", CONTENT, "--flows", "2:10:4",
         "--window", "25", "--runs", "30", "--reps", "2", "--seed", "12",
         "--confidence", "0.9"], True, 0,
        "a58dcd484ee2f8933b2031c2a6aa3da89fbae9c845b0fae847f537afe79c80d4",
    ),
    "sweep-flows-samples": (
        ["sweep-flows", "--traces-dir", SAMPLES, "--flows", "3,20",
         "--window", "60", "--runs", "30", "--reps", "2", "--seed", "13"],
        True, 0,
        "28e7ad773b2d1510d628783fe45a99f333bad23ff10f008367746c466a490ac1",
    ),
    "timeseries-bursty": (
        ["timeseries", "--traces-dir", BURSTY, "--flows", "5",
         "--duration", "120", "--seed", "3"], True, 0,
        "26e42a8a3dc44e00ff02dff6922c88c576f103571922ae297e18951b2c27d643",
    ),
    "timeseries-samples": (
        ["timeseries", "--traces-dir", SAMPLES, "--flows", "40",
         "--window", "25", "--duration", "1000", "--seed", "8"], True, 0,
        "e6ff74a8cff493db802f66593f03dfd08918a98cca18dff5c181f48990280209",
    ),
    "burstiness-bursty": (
        ["burstiness", "--traces-dir", BURSTY, "--flows", "2,40",
         "--duration", "150", "--seed", "4"], True, 0,
        "c104ea49179eb8b372d3f37719503eac1ba981f7377fa78ec80e017aacc61cba",
    ),
    "burstiness-bursty-long": (
        ["burstiness", "--traces-dir", BURSTY, "--flows", "5,40",
         "--duration", "3000", "--seed", "4"], True, 0,
        "7851f1e78ba5e28fe2fb50902bf288bd49b40418ae5bcf94a7ebbdd7ff51d26f",
    ),
    "burstiness-content": (
        ["burstiness", "--traces-dir", CONTENT, "--flows", "5",
         "--window", "10", "--seed", "5"], True, 0,
        "ee407c3d1ffec07d36863f53951660c43a7f725eb8d4a3bfaf1468126d8efb13",
    ),
    "sweep-window-bursty": (
        ["sweep-window", "--traces-dir", BURSTY, "--flows", "5",
         "--windows", "1,2,25,60", "--runs", "30", "--reps", "2",
         "--seed", "6"], True, 0,
        "bad444bcc989c41d446cfeec3d9ee6c47dca72b40dd7be752f450f4e863c7921",
    ),
    "sweep-window-samples": (
        ["sweep-window", "--traces-dir", SAMPLES, "--flows", "10",
         "--windows", "5,900", "--runs", "20", "--reps", "2", "--seed", "9"],
        True, 0,
        "a74c5feb746b0dd809336bb752b28a1f2779229b7c54a66a19e3cf2c7e390045",
    ),
    "content": (
        ["content", "--traces-dir", CONTENT, "--classes", "news,sports",
         "--flows", "2,10", "--runs", "30", "--reps", "2", "--seed", "7"],
        True, 0,
        "6f478fa41c750c66427cd26294a315c1573622a4a1fb7cd553d8d3c52400cc1b",
    ),
    "content-missing-class": (
        ["content", "--traces-dir", BURSTY, "--classes", "news",
         "--flows", "2", "--seed", "7"], True, 3,
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    ),
    "admit-avg-bursty": (
        ["admit", "--policy", "avg", "--capacity", "20", "--quality", "sd",
         "--traces-dir", BURSTY, "--flows", "5", "--seed", "21"], False, 0,
        "8099583c897263dc09cd56d84d428a4730580b2f9701ec0940eda3a13a6a3066",
    ),
    "admit-inst-bursty": (
        ["admit", "--policy", "inst", "--capacity", "20", "--quality", "sd",
         "--traces-dir", BURSTY, "--flows", "5", "--seed", "21"], False, 0,
        "8ffcd6ce09d69efd9d0dd4a8646fa13245d5ea7ad5ea28623fa141e7a38f5110",
    ),
    "admit-inst-content": (
        ["admit", "--policy", "inst", "--capacity", "60", "--quality", "fullhd",
         "--traces-dir", CONTENT, "--flows", "20", "--window", "25",
         "--seed", "22"], False, 1,
        "3bd11a98d44026988ec0a285d42bee2b68eb0acb4d7910d71d5e673ae679619d",
    ),
    "admit-avg-samples": (
        ["admit", "--policy", "avg", "--capacity", "8", "--rate", "2.5",
         "--traces-dir", SAMPLES, "--flows", "10", "--window", "60",
         "--seed", "23"], False, 1,
        "696642691d05093fb154281179246667acb74e22ebc933c1a72b6064c4f649f9",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_golden(name, tmp_path, capsys, monkeypatch):
    argv, writes_csv, status, expected = CASES[name]
    monkeypatch.delenv("VMAC_SEED", raising=False)
    out = tmp_path / "out.csv"
    if writes_csv:
        argv = argv + ["--out", str(out)]
    got_status = main(argv)
    stdout = capsys.readouterr().out.encode()
    csv = out.read_bytes() if out.exists() else b""
    assert got_status == status
    assert hashlib.sha256(stdout + b"\0" + csv).hexdigest() == expected


def test_mixed_length_sweep_golden():
    # 3000-slot and 900-slot traces in one library
    library = tuple(
        parse_trace_file(TRACES_DIR / name)
        for name in ("bursty/bursty-0.txt", "bursty/smooth-9.txt",
                     "samples/sample-1.txt", "samples/sample-4.txt")
    )
    cfg = ExperimentConfig(
        trace_library=library, flow_counts=(1, 3, 40), window_slots=25,
        runs_per_rep=50, reps=2, master_seed=31,
    )
    rows = repr(run_probability_sweep(cfg).rows).encode()
    assert hashlib.sha256(rows).hexdigest() == (
        "a9edbeb55a45aad74ed605c86724167410fa23187ff1baea77007b8aaad1d5dc"
    )


def test_cbr_sweep_exactly_zero():
    library = tuple(
        synth_bounded_trace(
            length, FlowRateBounds(rate, rate), 30.0, seed=i, trace_id=f"cbr-{i}"
        )
        for i, (length, rate) in enumerate(
            ((300, 1.2e6), (120, 3.0e6), (61, 8.0e6))
        )
    )
    cfg = ExperimentConfig(
        trace_library=library, flow_counts=(1, 5, 40), window_slots=60,
        runs_per_rep=50, reps=2, master_seed=3,
    )
    for _, ci in run_probability_sweep(cfg).rows:
        assert ci.mean == 0.0
        assert ci.ci_half_width == 0.0


def test_exceedance_golden():
    library = [
        parse_trace_file(TRACES_DIR / "bursty" / f"bursty-{i}.txt")
        for i in range(4)
    ]
    flows = [
        FlowInstance(trace=library[i % 4], start_offset=(731 * i) % 3000, flow_id=i)
        for i in range(12)
    ]
    frac = empirical_exceedance(
        flows, MeasurementWindow(4, 5), epsilon=50_000.0, samples=4000, seed=17
    )
    assert frac == 0.01775
