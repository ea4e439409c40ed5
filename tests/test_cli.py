"""Command-line interface: CSV schemas, determinism and exit statuses."""

import argparse
import hashlib
import os
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmac import cli
from vmac.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_REJECT,
    EXIT_USAGE,
    OutputTable,
    build_parser,
    main,
    write_csv,
)


def read_csv(path) -> OutputTable:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    header = tuple(lines[0].split(","))
    rows = tuple(tuple(line.split(",")) for line in lines[1:])
    return OutputTable(header=header, rows=rows)


@pytest.fixture()
def cbr_dir(tmp_path):
    """Directory of three identical CBR trace files at 1.2 Mbps (fps 30)."""
    d = tmp_path / "cbr"
    d.mkdir()
    size = round(1.2e6 / (8 * 30))  # 5000 bytes/frame
    for i in range(3):
        (d / f"cbr-{i}.txt").write_text(
            "# fps=30\n" + "".join(f"{size}\n" for _ in range(60))
        )
    return d


@pytest.fixture()
def content_dir(tmp_path):
    d = tmp_path / "content"
    d.mkdir()
    for cls, size in (("news", 3000), ("sports", 4000)):
        for i in range(2):
            (d / f"{cls}-{i}.txt").write_text(
                f"# fps=30\n# class={cls}\n"
                + "".join(f"{size}\n" for _ in range(40))
            )
    return d


# -- output table ---------------------------------------------------------------

def test_output_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        OutputTable(header=("a", "b"), rows=((1,),))


def test_csv_round_trip(tmp_path):
    table = OutputTable(header=("x", "y"), rows=((1, 0.5), (2, 0.25)))
    path = tmp_path / "t.csv"
    write_csv(table, path)
    back = read_csv(path)
    assert back.header == ("x", "y")
    assert back.rows == (("1", "0.500000"), ("2", "0.250000"))


# -- ingest ------------------------------------------------------------------------

def test_ingest_summary(tmp_path, capsys):
    p = tmp_path / "t.txt"
    p.write_text("1000\n2000\n3000\n")
    assert main(["ingest", str(p), "--fps", "30"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "frames=3" in out and "fps=30" in out
    assert "mean=0.480000Mbps" in out and "peak=0.720000Mbps" in out


def test_ingest_reports_class(traces_dir, capsys):
    sample = sorted((traces_dir / "content").glob("news-*.txt"))[0]
    assert main(["ingest", str(sample)]) == EXIT_OK
    assert "class=news" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [[], ["--fps", "30"]])
def test_ingest_spaced_directives(tmp_path, capsys, argv):
    p = tmp_path / "t.txt"
    p.write_text("# fps = 25\n# class = sports\n1000\n2000\n")
    assert main(["ingest", str(p), *argv]) == EXIT_OK
    out = capsys.readouterr().out
    assert "fps=25" in out and "class=sports" in out


def test_ingest_missing_file(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    assert main(["ingest", str(missing)]) == EXIT_DATA
    assert "nope.txt" in capsys.readouterr().err


def test_ingest_malformed_line(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("# fps=30\n100\nabc\n")
    assert main(["ingest", str(p)]) == EXIT_DATA
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data, line_no",
    [
        (b"# fps=inf\n100\n", 1),
        (b"# fps=30\n0 I 100\n0 P 50\n", 3),
        (b"# fps=30\n-1 I 100\n", 2),
        (b"0 I 5\n3 P 7\n2 B 1\n", 3),
        (b"100\n# fps = inf\n", 2),
        (b"# fps=30\n100\n2\xe900\n", 3),
        (b"# fps=30\n# caf\xe9\n100\n", 2),
    ],
    ids=["fps-inf", "duplicate-index", "negative-index", "decreasing-index-no-fps",
         "spaced-fps-inf", "non-utf8-row", "non-utf8-comment"],
)
def test_ingest_bad_trace_data_is_data_error(tmp_path, capsys, data, line_no):
    p = tmp_path / "bad.txt"
    p.write_bytes(data)
    assert main(["ingest", str(p)]) == EXIT_DATA
    assert f"line {line_no}:" in capsys.readouterr().err


def test_non_utf8_trace_in_library_is_data_error(cbr_dir, tmp_path, capsys):
    (cbr_dir / "latin1.txt").write_bytes(b"# fps=30\n5000\n# \xe9t\xe9\n")
    code = main(["sweep-flows", "--traces-dir", str(cbr_dir), "--flows", "2",
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_DATA
    assert "line 3:" in capsys.readouterr().err


@pytest.mark.parametrize("fps", ["inf", "0", "nan"])
def test_ingest_bad_fps_flag_is_usage_error(tmp_path, fps):
    p = tmp_path / "t.txt"
    p.write_text("1000\n2000\n")
    assert main(["ingest", str(p), "--fps", fps]) == EXIT_USAGE


def no_parse(*args, **kwargs):
    raise AssertionError("read a trace before checking --fps")


@pytest.mark.parametrize("fps", ["-1", "0", "inf", "nan"])
@pytest.mark.parametrize("command", [
    ["ingest"], ["sweep-flows", "--flows", "2"],
    ["timeseries", "--flows", "2", "--duration", "50"],
    ["burstiness", "--flows", "2"],
    ["sweep-window", "--flows", "2", "--windows", "2,5"],
    ["content", "--flows", "2", "--classes", "news"],
    ["admit", "--flows", "2", "--policy", "avg", "--capacity", "100",
     "--quality", "sd"],
], ids=lambda command: command[0])
def test_bad_fps_flag_is_usage_error_before_any_trace_is_read(
        cbr_dir, tmp_path, capsys, monkeypatch, command, fps):
    # each file here has its own fps directive, which the flag does not
    # override: the flag used to be ignored, and the command exit 0
    out = tmp_path / "x.csv"
    if command[0] == "ingest":
        argv = [*command, str(cbr_dir / "cbr-0.txt")]
    else:
        argv = [*command, "--traces-dir", str(cbr_dir)]
        if command[0] != "admit":
            argv += ["--out", str(out)]
    monkeypatch.setattr(cli, "parse_trace_file", no_parse)
    assert main([*argv, "--fps", fps]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: --fps must be a positive real, got {float(fps)}\n"
    assert not out.exists()


def test_ingest_frame_size_beyond_int64_is_data_error(tmp_path, capsys):
    p = tmp_path / "huge.txt"
    p.write_text("# fps=30\n" + str(10 ** 20) + "\n")
    assert main(["ingest", str(p)]) == EXIT_DATA
    assert capsys.readouterr().err.startswith("error: ")


def test_os_errors_are_data_errors(cbr_dir, tmp_path, capsys):
    # a directory where a file is read or written is a data error, never a
    # traceback with the Reject status
    assert main(["ingest", str(cbr_dir)]) == EXIT_DATA
    assert capsys.readouterr().err.startswith("error: ")
    code = main(["timeseries", "--traces-dir", str(cbr_dir), "--flows", "2",
                 "--duration", "10", "--out", str(tmp_path)])
    assert code == EXIT_DATA
    assert capsys.readouterr().err.startswith("error: ")


# -- experiment commands --------------------------------------------------------------

def sweep_args(cbr_dir, out, extra=()):
    return [
        "sweep-flows", "--traces-dir", str(cbr_dir), "--flows", "5:40:5",
        "--runs", "20", "--reps", "2", "--seed", "1", "--out", str(out),
        *extra,
    ]


def test_sweep_flows_cbr_all_zero(cbr_dir, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(sweep_args(cbr_dir, out)) == EXIT_OK
    table = read_csv(out)
    assert table.header == ("flows", "prob_mean", "ci_half_width", "confidence")
    assert len(table.rows) == 8  # 5:40:5 inclusive
    for row in table.rows:
        assert row[1] == "0.000000"
        assert row[2] == "0.000000"


def test_sweep_flows_byte_identical_reruns(cbr_dir, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(sweep_args(cbr_dir, out1)) == EXIT_OK
    assert main(sweep_args(cbr_dir, out2)) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_single_rep_is_usage_error(cbr_dir, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = sweep_args(cbr_dir, out)
    argv[argv.index("--reps") + 1] = "1"
    assert main(argv) == EXIT_USAGE
    assert "reps" in capsys.readouterr().err
    assert not out.exists()


def test_seed_env_var_used_when_flag_absent(cbr_dir, tmp_path, monkeypatch):
    args = [
        "sweep-flows", "--traces-dir", str(cbr_dir), "--flows", "2,5",
        "--runs", "10", "--reps", "2", "--out", "",
    ]
    out_env, out_flag = tmp_path / "env.csv", tmp_path / "flag.csv"
    monkeypatch.setenv("VMAC_SEED", "77")
    args[-1] = str(out_env)
    assert main(args) == EXIT_OK
    monkeypatch.delenv("VMAC_SEED")
    args[-1] = str(out_flag)
    assert main(args + ["--seed", "77"]) == EXIT_OK
    assert out_env.read_bytes() == out_flag.read_bytes()


def test_sweep_flows_bad_range_is_usage_error(cbr_dir, tmp_path, capsys):
    out = tmp_path / "x.csv"
    for flows in ("40:5:5", "1:2"):
        code = main(
            ["sweep-flows", "--traces-dir", str(cbr_dir), "--flows", flows,
             "--out", str(out)]
        )
        assert code == EXIT_USAGE
        assert "error" in capsys.readouterr().err


# each subcommand that reads traces, with every required flag but --flows and
# --traces-dir; admit twice, with --quality and with --rate
TRACE_COMMANDS = {
    "sweep-flows": ["sweep-flows", "--out", "x.csv"],
    "timeseries": ["timeseries", "--duration", "10", "--out", "x.csv"],
    "burstiness": ["burstiness", "--out", "x.csv"],
    "sweep-window": ["sweep-window", "--windows", "2", "--out", "x.csv"],
    "content": ["content", "--classes", "news", "--out", "x.csv"],
    "admit": ["admit", "--policy", "avg", "--capacity", "10", "--quality", "sd"],
    "admit-rate": ["admit", "--policy", "avg", "--capacity", "10", "--rate", "1"],
}


@pytest.mark.parametrize("command", sorted(TRACE_COMMANDS))
@pytest.mark.parametrize(
    "extra, env_seed, status",
    [
        (["--flows", "0"], None, EXIT_USAGE),
        (["--flows", "-1"], None, EXIT_USAGE),
        (["--flows", "2,x"], None, EXIT_USAGE),
        (["--flows", ""], None, EXIT_USAGE),
        (["--flows", "2", "--seed", "-1"], None, EXIT_USAGE),
        (["--flows", "2"], "-1", EXIT_USAGE),
        (["--flows", "2", "--seed", "0"], "-1", EXIT_DATA),
    ],
    ids=["flows-0", "flows-negative", "flows-not-int", "flows-empty", "seed-negative",
         "env-seed-negative", "valid-flags"],
)
def test_flows_and_seed_checked_before_traces_load(
    command, extra, env_seed, status, tmp_path, capsys, monkeypatch
):
    # the traces directory does not exist, so a flag error reported as a
    # usage error was found before the traces were loaded
    monkeypatch.delenv("VMAC_SEED", raising=False)
    if env_seed is not None:
        monkeypatch.setenv("VMAC_SEED", env_seed)
    monkeypatch.chdir(tmp_path)
    argv = [*TRACE_COMMANDS[command], "--traces-dir", "void", *extra]
    assert main(argv) == status
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["timeseries", "sweep-window", "admit"])
def test_one_flow_count_below_one_names_the_flag(command, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = [*TRACE_COMMANDS[command], "--traces-dir", "void", "--flows", "0"]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == "error: --flows must be >= 1, got 0\n"


@pytest.mark.parametrize("argv", [
    ["sweep-window", "--flows", "2", "--windows", "0,5"],
    ["sweep-flows", "--flows", "0,5"],
], ids=["windows", "flows"])
def test_count_list_below_one_names_the_flag(argv, tmp_path, capsys, monkeypatch):
    # the traces directory does not exist: the list is refused before it loads
    monkeypatch.chdir(tmp_path)
    flag = argv[-2]
    assert main([*argv, "--traces-dir", "void", "--out", "x.csv"]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {flag} values must be >= 1, got 0\n"


@pytest.mark.parametrize("command", sorted(TRACE_COMMANDS))
@pytest.mark.parametrize("flag_seed, env_seed", [("-1", None), (None, "-1")],
                         ids=["flag", "env"])
def test_negative_seed_message(command, flag_seed, env_seed, tmp_path, capsys,
                               monkeypatch):
    monkeypatch.delenv("VMAC_SEED", raising=False)
    if env_seed is not None:
        monkeypatch.setenv("VMAC_SEED", env_seed)
    monkeypatch.chdir(tmp_path)
    argv = [*TRACE_COMMANDS[command], "--traces-dir", "void", "--flows", "2"]
    if flag_seed is not None:
        argv += ["--seed", flag_seed]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


# the last: (1 + 0.9999999999999999) / 2 rounds to 1, whose t quantile is
# infinite
SWEEP_FLAG_ERRORS = [["--runs", "0"], ["--reps", "1"], ["--confidence", "1.5"],
                     ["--confidence", "0"], ["--workers", "0"],
                     ["--confidence", "0.9999999999999999"]]


@pytest.mark.parametrize(
    "command, bad",
    [pytest.param(c, bad, id=f"{c}{bad[0]}={bad[1]}")
     for c in ("sweep-flows", "sweep-window", "content")
     for bad in SWEEP_FLAG_ERRORS]
    + [pytest.param(c, ["--window", "0"], id=f"{c}--window=0") for c in
       ("sweep-flows", "timeseries", "burstiness", "content", "admit")]
    + [pytest.param("admit", ["--capacity", "inf"], id="admit--capacity=inf"),
       pytest.param("admit-rate", ["--rate", "inf"], id="admit--rate=inf")],
)
def test_sweep_and_window_flags_checked_before_traces_load(
    command, bad, tmp_path, capsys, monkeypatch
):
    # as above: the traces directory does not exist
    monkeypatch.chdir(tmp_path)
    argv = [*TRACE_COMMANDS[command], "--traces-dir", "void", "--flows", "2", *bad]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, status",
    [
        (["timeseries", "--duration", "-1"], EXIT_USAGE),
        (["timeseries", "--duration", "4"], EXIT_USAGE),
        (["timeseries", "--duration", "5"], EXIT_DATA),
        (["timeseries", "--window", "2", "--duration", "1"], EXIT_USAGE),
        (["burstiness", "--duration", "4"], EXIT_USAGE),
        (["burstiness", "--duration", "5"], EXIT_USAGE),
        (["burstiness", "--duration", "6"], EXIT_DATA),
    ],
    ids=["timeseries-negative", "timeseries-below-window", "timeseries-window",
         "timeseries-below-window-2", "burstiness-below-window",
         "burstiness-window", "burstiness-window-plus-1"],
)
def test_duration_checked_before_traces_load(argv, status, tmp_path, capsys,
                                             monkeypatch):
    # as above: the traces directory does not exist; the series of a
    # timeseries needs one end slot, each of burstiness's series two
    monkeypatch.chdir(tmp_path)
    argv += ["--flows", "2", "--traces-dir", "void", "--out", "x.csv"]
    assert main(argv) == status
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [["timeseries", "--duration", "5"],
                                  ["burstiness", "--duration", "6"]])
def test_shortest_duration_runs(cbr_dir, tmp_path, argv):
    argv += ["--flows", "2", "--traces-dir", str(cbr_dir),
             "--out", str(tmp_path / "x.csv")]
    assert main(argv) == EXIT_OK


@pytest.mark.parametrize("command", ["timeseries", "burstiness"])
@pytest.mark.parametrize("duration", [10 ** 18, 10 ** 30])
def test_duration_too_large_to_hold_is_usage_error(cbr_dir, tmp_path, capsys,
                                                   command, duration):
    # 10**18 int64 slots are 6.9 EiB, more than any address space maps, so
    # the allocation is refused outright (MemoryError) and nothing is
    # allocated; 10**30 exceeds numpy's largest dimension (ValueError)
    out = tmp_path / "x.csv"
    argv = [command, "--flows", "2", "--traces-dir", str(cbr_dir),
            "--duration", str(duration), "--out", str(out)]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.fixture()
def wrapping_dir(tmp_path):
    """One trace of frames 2^61 and 1 bytes at 1 fps: its doubled total
    fits int64, but four flows of it hold 2^63 bytes in a slot."""
    d = tmp_path / "wrapping"
    d.mkdir()
    (d / "big.txt").write_text(f"# fps=1\n{2 ** 61}\n1\n")
    return d


@pytest.mark.parametrize("command", ["timeseries", "burstiness", "sweep-flows"])
def test_sums_beyond_int64_are_data_errors(wrapping_dir, tmp_path, capsys, command):
    out = tmp_path / "x.csv"
    argv = [command, "--traces-dir", str(wrapping_dir), "--flows", "4",
            "--window", "2", "--seed", "1", "--out", str(out)]
    if command != "sweep-flows":
        argv += ["--duration", "4"]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def fast_dir(tmp_path, fps):
    """One trace of frames 1000, 0, 500, 3, 7 and 900 bytes at `fps`."""
    d = tmp_path / "fast"
    d.mkdir()
    (d / "t.txt").write_text(f"# fps={fps}\n1000\n0\n500\n3\n7\n900\n")
    return d


@pytest.mark.parametrize("fps", ["1e160", "1e304"])
def test_burstiness_beyond_the_double_range_is_data_error(tmp_path, capsys, fps):
    # two flows of this trace reach 8e163 bit/s at fps 1e160, where a squared
    # deviation exceeds the largest double, and 1.6e308 at fps 1e304, where
    # the series' sum does
    d = fast_dir(tmp_path, fps)
    out = tmp_path / "x.csv"
    argv = ["burstiness", "--traces-dir", str(d), "--flows", "2", "--window", "2",
            "--duration", "6", "--out", str(out)]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["ingest", "timeseries", "burstiness", "admit"])
def test_rates_beyond_the_double_range_are_data_errors(tmp_path, capsys, command):
    # at fps 1e306 a 1000-byte frame is 8e309 bit/s, beyond the largest double
    d = fast_dir(tmp_path, "1e306")
    out = tmp_path / "x.csv"
    argv = {
        "ingest": ["ingest", str(d / "t.txt")],
        "timeseries": ["timeseries", "--duration", "6", "--out", str(out)],
        "burstiness": ["burstiness", "--duration", "6", "--out", str(out)],
        "admit": ["admit", "--policy", "avg", "--capacity", "100", "--rate", "1"],
    }[command]
    if command != "ingest":
        argv += ["--traces-dir", str(d), "--flows", "2", "--window", "2"]
    assert main(argv) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "exceeds the largest double" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("fps, argv, digest", [
    # three flows at fps 1e304 reach 1.52e308 bit/s, inside the double range
    ("1e304", ["timeseries", "--flows", "3", "--duration", "6"],
     "bfe9319f6f448f898d4b3a03a3106d0992cba2e4c0bdb5c21f6422b78ad8e7e9"),
    # the sweep compares bytes and forms no rate
    ("1e306", ["sweep-flows", "--flows", "2"],
     "c06e0a2c55be0946f27a48ca2156bf9ae7017d8d9a967f710952c432c2077b8a"),
])
def test_rates_near_the_double_range_keep_their_bytes(tmp_path, capsys, fps,
                                                       argv, digest):
    out = tmp_path / "x.csv"
    argv += ["--traces-dir", str(fast_dir(tmp_path, fps)), "--window", "2",
             "--seed", "0", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_admit_sums_past_int64_exactly(wrapping_dir, capsys):
    # each flow's 2-slot window holds both frames, so the four windows hold
    # 2^63 + 4 bytes: 2^65 + 16 bit/s, which rounds to the double 2^65
    argv = ["admit", "--policy", "avg", "--capacity", "1", "--rate", "1",
            "--traces-dir", str(wrapping_dir), "--flows", "4", "--window", "2",
            "--seed", "1"]
    assert main(argv) == EXIT_REJECT
    assert f"measured={2 ** 65 / 1e6:.6f}Mbps" in capsys.readouterr().out


def test_interval_without_scipy_is_usage_error(cbr_dir, tmp_path, capsys,
                                               monkeypatch):
    # a 0.9 interval is not tabulated, so it imports scipy.special; with
    # both names blocked that import fails as on a host without scipy
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.special", None)
    out = tmp_path / "x.csv"
    argv = ["sweep-flows", "--traces-dir", str(cbr_dir), "--flows", "2",
            "--confidence", "0.9", "--out", str(out)]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "pip install scipy" in err
    assert not out.exists()


def test_timeseries_row_count(cbr_dir, tmp_path):
    out = tmp_path / "ts.csv"
    code = main(
        ["timeseries", "--traces-dir", str(cbr_dir), "--flows", "3",
         "--duration", "50", "--window", "5", "--seed", "1", "--out", str(out)]
    )
    assert code == EXIT_OK
    table = read_csv(out)
    assert table.header == ("slot", "inst_bps", "avg_bps")
    assert len(table.rows) == 50 - 5 + 1
    for _, inst, avg in table.rows:
        assert inst == avg  # CBR: identical series


def test_burstiness_cbr(cbr_dir, tmp_path):
    out = tmp_path / "b.csv"
    code = main(
        ["burstiness", "--traces-dir", str(cbr_dir), "--flows", "2,5",
         "--duration", "50", "--seed", "1", "--out", str(out)]
    )
    assert code == EXIT_OK
    table = read_csv(out)
    assert table.header == ("flows", "rate_kind", "pmr", "cov")
    assert len(table.rows) == 4  # two flow counts x two rate kinds
    for row in table.rows:
        assert row[2] == "1.000000"
        assert row[3] == "0.000000"


def test_window_sweep_single_window(cbr_dir, tmp_path):
    out = tmp_path / "w.csv"
    code = main(
        ["sweep-window", "--traces-dir", str(cbr_dir), "--flows", "5",
         "--windows", "5", "--runs", "10", "--reps", "2", "--seed", "1",
         "--out", str(out)]
    )
    assert code == EXIT_OK
    table = read_csv(out)
    assert table.header == ("window_slots", "prob_mean", "ci_half_width")
    assert len(table.rows) == 1
    assert table.rows[0][1] == "0.000000"


def test_window_sweep_checks_only_listed_windows(tmp_path):
    # no --window default is checked against a library of 3-slot traces
    d = tmp_path / "short"
    d.mkdir()
    for i in range(2):
        (d / f"t-{i}.txt").write_text(f"# fps=30\n{100 + i}\n200\n300\n")
    argv = ["sweep-window", "--traces-dir", str(d), "--flows", "2", "--runs", "10",
            "--reps", "2", "--out", str(tmp_path / "w.csv"), "--windows"]
    assert main(argv + ["2,3"]) == EXIT_OK
    assert [row[0] for row in read_csv(tmp_path / "w.csv").rows] == ["2", "3"]
    assert main(argv + ["2,4"]) == EXIT_DATA


def test_content_command(content_dir, tmp_path):
    out = tmp_path / "c.csv"
    code = main(
        ["content", "--traces-dir", str(content_dir), "--classes",
         "news,sports", "--flows", "2,5", "--runs", "10", "--reps", "2",
         "--seed", "1", "--out", str(out)]
    )
    assert code == EXIT_OK
    table = read_csv(out)
    assert table.header == ("class", "flows", "prob_mean", "ci_half_width")
    assert [(r[0], r[1]) for r in table.rows] == [
        ("news", "2"), ("news", "5"), ("sports", "2"), ("sports", "5"),
    ]


def test_content_missing_class(cbr_dir, tmp_path):
    out = tmp_path / "c.csv"
    code = main(
        ["content", "--traces-dir", str(cbr_dir), "--classes", "news",
         "--flows", "2", "--out", str(out)]
    )
    assert code == EXIT_DATA


def test_content_missing_class_names_the_class_typed(content_dir, tmp_path, capsys):
    out = tmp_path / "c.csv"
    code = main(
        ["content", "--traces-dir", str(content_dir), "--classes", "news,movie",
         "--flows", "2", "--out", str(out)]
    )
    assert code == EXIT_DATA
    assert capsys.readouterr().err == "error: no trace of content class movie in library\n"
    assert not out.exists()


# -- hoeffding ---------------------------------------------------------------------------

def test_hoeffding_closed_form(capsys):
    assert main(["hoeffding", "--n", "2", "--epsilon", "1", "--widths", "2,2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "delta=0.367879" in out
    assert f"exponent={-1:.6f}" in out


def test_hoeffding_tiny_epsilon(capsys):
    assert main(["hoeffding", "--n", "2", "--epsilon", "1e-12", "--widths", "2,2"]) == EXIT_OK
    assert "delta=1.000000" in capsys.readouterr().out


def test_hoeffding_degenerate_widths(capsys):
    code = main(["hoeffding", "--n", "2", "--epsilon", "1", "--widths", "0,0"])
    assert code == EXIT_DATA
    assert "error" in capsys.readouterr().err


def test_hoeffding_nan_width_is_usage_error(capsys):
    code = main(["hoeffding", "--n", "2", "--epsilon", "1", "--widths", "nan,1"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


def test_hoeffding_infinite_width(capsys):
    assert main(["hoeffding", "--n", "1", "--epsilon", "1", "--widths", "inf"]) == EXIT_OK
    assert "delta=1.000000" in capsys.readouterr().out


@pytest.mark.parametrize(
    "n, epsilon, widths, status, out",
    [
        ("1", "1e200", "1", EXIT_OK, "delta=0.000000 exponent=-inf underflow=true\n"),
        ("1", "1e150", "1e150", EXIT_OK, "delta=0.135335 exponent=-2.000000\n"),
        ("2", "1e150", "1e150,1e150", EXIT_OK, "delta=0.018316 exponent=-4.000000\n"),
        ("1", "1e200", "inf", EXIT_OK, "delta=1.000000 exponent=-0.000000\n"),
        ("1", "1e-200", "1e-200", EXIT_OK, "delta=0.135335 exponent=-2.000000\n"),
        ("1", "1e-166", "1e-167", EXIT_OK, "delta=0.000000 exponent=-200.000000\n"),
        ("1", "3e-165", "1e-165", EXIT_OK, "delta=0.000000 exponent=-18.000000\n"),
        ("2", "1e148", "1e144,1e144", EXIT_OK,
         "delta=0.000000 exponent=-400000000.000000 underflow=true\n"),
        ("1", "inf", "inf", EXIT_USAGE, ""),
        ("1", "inf", "1", EXIT_USAGE, ""),
    ],
    ids=["epsilon-squared-overflows", "both-squares-overflow", "two-flows",
         "infinite-width", "squares-underflow", "squares-subnormal",
         "epsilon-square-subnormal", "product-overflows", "infinite-both",
         "infinite-epsilon"],
)
def test_hoeffding_squares_beyond_the_double_range(capsys, n, epsilon, widths,
                                                   status, out):
    # a square that is subnormal or leaves the double range, or a product
    # that overflows, gets its bound, and an infinite epsilon is refused, as
    # a NaN one is
    argv = ["hoeffding", "--n", n, "--epsilon", epsilon, "--widths", widths]
    assert main(argv) == status
    captured = capsys.readouterr()
    assert captured.out == out
    if status == EXIT_USAGE:
        assert captured.err.startswith("error: ")


# -- admit --------------------------------------------------------------------------------

def test_admit_cbr_admit_and_reject(cbr_dir, capsys):
    # 5 CBR flows at 1.2 Mbps = 6 Mbps aggregate; hdready requests 8 Mbps
    common = [
        "admit", "--capacity", "15", "--quality", "hdready",
        "--traces-dir", str(cbr_dir), "--flows", "5", "--seed", "1",
    ]
    for policy in ("avg", "inst"):
        assert main(common + ["--policy", policy]) == EXIT_OK
        assert "verdict=admit" in capsys.readouterr().out

    tight = list(common)
    tight[2] = "13.9"  # 6 + 8 > 13.9
    for policy in ("avg", "inst"):
        assert main(tight + ["--policy", policy]) == EXIT_REJECT
        assert "verdict=reject" in capsys.readouterr().out


def test_admit_explicit_rate(cbr_dir, capsys):
    code = main(
        ["admit", "--policy", "avg", "--capacity", "10", "--rate", "3.5",
         "--traces-dir", str(cbr_dir), "--flows", "5", "--seed", "1"]
    )
    assert code == EXIT_OK
    assert "requested=3.500000Mbps" in capsys.readouterr().out


def test_admit_missing_traces_dir(tmp_path):
    code = main(
        ["admit", "--policy", "avg", "--capacity", "10", "--quality", "sd",
         "--traces-dir", str(tmp_path / "void"), "--flows", "2"]
    )
    assert code == EXIT_DATA


def test_traces_dir_without_trace_files_is_data_error(tmp_path, capsys):
    (tmp_path / "notes.md").write_text("# fps=30\n5\n")
    code = main(["admit", "--policy", "avg", "--capacity", "10", "--quality", "sd",
                 "--traces-dir", str(tmp_path), "--flows", "2"])
    assert code == EXIT_DATA
    assert capsys.readouterr().err == f"error: no *.txt trace files in {tmp_path}\n"


# -- flag sets -----------------------------------------------------------------------------

LIBRARY = {"--traces-dir", "--fps", "--flows", "--seed"}
SWEEP = {"--runs", "--reps", "--confidence", "--workers"}
OPTIONS = {
    "ingest": {"--fps"},
    "sweep-flows": LIBRARY | SWEEP | {"--window", "--out"},
    "timeseries": LIBRARY | {"--window", "--out", "--duration"},
    "burstiness": LIBRARY | {"--window", "--out", "--duration"},
    "sweep-window": LIBRARY | SWEEP | {"--out", "--windows"},
    "content": LIBRARY | SWEEP | {"--window", "--out", "--classes"},
    "hoeffding": {"--n", "--epsilon", "--widths"},
    "admit": LIBRARY | {"--window", "--policy", "--capacity", "--quality", "--rate"},
}


def test_each_subcommand_has_exactly_the_flags_it_reads():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert options == OPTIONS


@pytest.mark.parametrize(
    "argv, flag",
    [(["timeseries", "--duration", "10"], f) for f in sorted(SWEEP)]
    + [(["burstiness"], f) for f in sorted(SWEEP)]
    + [(["sweep-window", "--windows", "5"], "--window")],
    ids=lambda v: v if isinstance(v, str) else v[0],
)
def test_flags_a_subcommand_does_not_read_are_usage_errors(cbr_dir, tmp_path, argv, flag):
    argv = [*argv, "--traces-dir", str(cbr_dir), "--flows", "2",
            "--out", str(tmp_path / "o.csv")]
    assert main(argv) == EXIT_OK
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, "5"])
    assert exc.value.code == EXIT_USAGE


# -- argv fuzz -----------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    """Tiny trace directories, good and bad, plus an existing directory and
    a plain file to be misused as paths."""
    root = tmp_path_factory.mktemp("fuzz")
    files = {
        "good/news-0.txt": "# fps=30\n# class=news\n300\n310\n290\n305\n",
        "good/sports-0.txt": "# fps=30\n# class=sports\n900\n20\n15\n",
        "good/plain.txt": "# fps=30\n0 I 700\n1 P 90\n2 B 40\n3 P 120\n4 B 30\n",
        "nofps/a.txt": "500\n100\n300\n",
        "mixed/a.txt": "# fps=30\n500\n100\n300\n",
        "mixed/b.txt": "# fps=25\n500\n100\n300\n",
        "bad/a.txt": "# fps=30\n500\nabc\n",
        "plain-file.txt": "# fps=30\n500\n",
    }
    for name, text in files.items():
        (root / name).parent.mkdir(exist_ok=True)
        (root / name).write_text(text)
    (root / "empty").mkdir()
    (root / "outdir").mkdir()
    return root


# flag -> (well-formed values, bad values); '@' marks a path under the fuzz
# root.  Each well-formed value is drawn four times as often as each bad one,
# so that many runs get past the flag checks.
FUZZ_VALUES = {
    "--traces-dir": (["@good"], ["@nofps", "@mixed", "@bad", "@empty", "@missing",
                                 "@plain-file.txt"]),
    "--fps": (["30", "25"], ["0", "nan", "-1", "x"]),
    "--flows": (["1", "2", "5", "2,3", "1:5:2"], ["0", "-1", "5:1:1", "x"]),
    "--window": (["1", "2", "3", "5"], ["0", "-2"]),
    "--seed": (["0", "7", "123456789"], ["-1", "x"]),
    "--out": (["@o.csv"], ["@outdir", "@missing/o.csv"]),
    "--runs": (["1", "5", "20"], ["0"]),
    "--reps": (["2", "3"], ["1"]),
    "--confidence": (["0.9", "0.95"], ["0", "1", "nan"]),
    "--workers": (["1", "4"], ["0"]),
    "--duration": (["1", "3", "20", "60"], ["0", "-1"]),
    "--windows": (["1", "2,3", "1:3:1", "5"], ["0", "x"]),
    "--classes": (["news", "news,sports", "sports", "unknown"], ["x"]),
    "--n": (["1", "2", "3"], ["0", "-1"]),
    "--epsilon": (["1", "0.5", "1e-12"], ["0", "nan"]),
    "--widths": (["1", "2,2", "1,2,3", "inf"], ["0,0", "nan,1", "-1", "x"]),
    "--policy": (["avg", "inst"], ["x"]),
    "--capacity": (["0.5", "5", "50"], ["0", "nan"]),
    "--quality": (["sd", "fullhd", "hdweb"], ["x"]),
    "--rate": (["0.01", "1.5", "40"], ["0", "-1"]),
}


@st.composite
def fuzz_argv(draw):
    """(argv, VMAC_SEED or None)."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    flags = sorted(OPTIONS[command] - {"--quality", "--rate"})
    if command == "admit":  # one of the two, which are mutually exclusive
        flags.append(draw(st.sampled_from(["--quality", "--rate"])))
    omitted = draw(st.sets(st.sampled_from(flags), max_size=1))
    flags = [f for f in flags if f not in omitted]
    flags += draw(st.lists(st.sampled_from(sorted(FUZZ_VALUES)), max_size=1))
    argv = [command]
    if command == "ingest":
        argv.append(draw(st.sampled_from(
            ["@good/news-0.txt", "@good/plain.txt", "@nofps/a.txt", "@bad/a.txt",
             "@missing.txt", "@good"])))
    for flag in flags:
        good, bad = FUZZ_VALUES[flag]
        argv += [flag, draw(st.sampled_from(good * 4 + bad))]
    env_seed = draw(st.sampled_from([None, None, "5", "-1", "x"]))
    return argv, env_seed


@settings(max_examples=150, deadline=None)
@given(case=fuzz_argv())
def test_any_argv_exits_with_a_contract_status(fuzz_root, case):
    argv, env_seed = case
    argv = [str(fuzz_root / a[1:]) if a.startswith("@") else a for a in argv]
    with mock.patch.dict(os.environ):
        os.environ.pop("VMAC_SEED", None)
        if env_seed is not None:
            os.environ["VMAC_SEED"] = env_seed
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            status = exc.code
    assert status in (EXIT_OK, EXIT_REJECT, EXIT_USAGE, EXIT_DATA)
    if status == EXIT_REJECT:
        assert argv[0] == "admit"
