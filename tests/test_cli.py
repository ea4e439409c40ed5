"""Command-line interface: CSV schemas, determinism and exit statuses."""

import math

import pytest

from vmac.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_REJECT,
    EXIT_USAGE,
    OutputTable,
    main,
    read_csv,
    write_csv,
)


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
    "text, line_no",
    [
        ("# fps=inf\n100\n", 1),
        ("# fps=30\n0 I 100\n0 P 50\n", 3),
        ("# fps=30\n-1 I 100\n", 2),
        ("0 I 5\n3 P 7\n2 B 1\n", 3),
        ("100\n# fps = inf\n", 2),
    ],
    ids=["fps-inf", "duplicate-index", "negative-index", "decreasing-index-no-fps",
         "spaced-fps-inf"],
)
def test_ingest_bad_trace_data_is_data_error(tmp_path, capsys, text, line_no):
    p = tmp_path / "bad.txt"
    p.write_text(text)
    assert main(["ingest", str(p)]) == EXIT_DATA
    assert f"line {line_no}:" in capsys.readouterr().err


@pytest.mark.parametrize("fps", ["inf", "0", "nan"])
def test_ingest_bad_fps_flag_is_usage_error(tmp_path, fps):
    p = tmp_path / "t.txt"
    p.write_text("1000\n2000\n")
    assert main(["ingest", str(p), "--fps", fps]) == EXIT_USAGE


def test_ingest_frame_size_beyond_int64_is_data_error(tmp_path, capsys):
    p = tmp_path / "huge.txt"
    p.write_text("# fps=30\n" + str(10 ** 20) + "\n")
    assert main(["ingest", str(p)]) == EXIT_DATA
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
    code = main(
        ["sweep-flows", "--traces-dir", str(cbr_dir), "--flows", "40:5:5",
         "--out", str(out)]
    )
    assert code == EXIT_USAGE
    assert "error" in capsys.readouterr().err


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
