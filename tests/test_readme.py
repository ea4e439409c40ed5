"""The README's `vmac` examples, run as written.

Every `vmac` line of README.md's ``sh`` blocks runs in process through
`cli.main`, with `traces/` read from this checkout and every output written
to a temporary directory; the `admit` line also runs under ``--policy inst``.
Each exit status and each CSV's header and row count is checked.  Then every
command runs again with scipy hidden, as on a host without it, and must give
the same statuses, stdout and CSV bytes.
"""

import re
import shlex
import sys

from vmac.cli import EXIT_OK, EXIT_REJECT, main

from .conftest import REPO_ROOT

# CSV named by --out -> (header, data rows)
CSVS = {
    "fig1.csv": ("flows,prob_mean,ci_half_width,confidence", 7),
    "fig2.csv": ("slot,inst_bps,avg_bps", 296),
    "fig3.csv": ("slot,inst_bps,avg_bps", 296),
    "table1.csv": ("flows,rate_kind,pmr,cov", 4),
    "fig4.csv": ("window_slots,prob_mean,ci_half_width", 5),
    "fig5.csv": ("class,flows,prob_mean,ci_half_width", 4),
}
SUBCOMMANDS = {"ingest", "sweep-flows", "timeseries", "burstiness", "sweep-window",
               "content", "hoeffding", "admit"}


def readme_commands() -> list[list[str]]:
    """The argv of each `vmac` line in README's sh blocks, with `traces/`
    paths made absolute, then the `admit` line again under --policy inst."""
    blocks = re.findall(r"^```sh\n(.*?)^```", (REPO_ROOT / "README.md").read_text(),
                        re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [
        [str(REPO_ROOT / a) if a.startswith("traces/") else a
         for a in shlex.split(line)[1:]]
        for line in lines if line.startswith("vmac ")
    ]
    admit = next(argv for argv in commands if argv[0] == "admit")
    inst = list(admit)
    inst[inst.index("--policy") + 1] = "inst"
    return commands + [inst]


def run_all(commands, directory, capsys, monkeypatch):
    """(status, stdout, stderr, CSV bytes or None) of each command, run with
    `directory` as the working directory, where every --out lands; a command
    writes its CSV only when it exits 0."""
    directory.mkdir()
    monkeypatch.chdir(directory)
    results = []
    for argv in commands:
        status = main(argv)
        out, err = capsys.readouterr()
        csv = None
        if "--out" in argv and status == EXIT_OK:
            csv = (directory / argv[argv.index("--out") + 1]).read_bytes()
        results.append((status, out, err, csv))
    return results


def test_readme_examples_run_as_written(tmp_path, capsys, monkeypatch):
    commands = readme_commands()
    assert {argv[0] for argv in commands} == SUBCOMMANDS
    results = run_all(commands, tmp_path / "with-scipy", capsys, monkeypatch)
    written = []
    for argv, (status, out, err, csv) in zip(commands, results):
        if argv[0] == "admit":
            # the README's decision is a reject under both policies
            assert status == EXIT_REJECT
            assert out.startswith(f"policy={argv[argv.index('--policy') + 1]} "
                                  f"verdict=reject ")
        else:
            assert status == EXIT_OK, argv
        assert err == "", argv
        if csv is not None:
            name = argv[argv.index("--out") + 1]
            header, rows = CSVS[name]
            lines = csv.decode().splitlines()
            assert (lines[0], len(lines) - 1) == (header, rows), name
            written.append(name)
    assert sorted(written) == sorted(CSVS)

    # scipy is optional: with it hidden, every command gives the same bytes
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.special", None)
    assert run_all(commands, tmp_path / "without-scipy", capsys, monkeypatch) == results
