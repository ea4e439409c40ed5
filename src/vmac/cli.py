"""Command-line front end.

Subcommands cover trace ingestion, the five simulation experiments, bound
evaluation and admission queries.  All rate flags are in Mbps (1 Mbps =
10^6 bits/s); outputs are plot-ready CSV files with a header row and fixed
6-decimal numeric cells, so identical flags and seed reproduce files byte
for byte.

Exit status: 0 success (or Admit), 1 Reject (admit command), 2 usage or
configuration error (including a confidence interval that needs scipy
when scipy cannot be imported), 3 data error.  The VMAC_SEED environment
variable supplies the master seed when --seed is absent.  Flags are checked
by the library's own rules, before any trace loads: `check_settings` for
the seed and sweep settings, and `trace_model`'s integer and positive-real
rules for --flows and --fps.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import admission, bounds, experiments
from .errors import VmacError
from .rate_engine import MeasurementWindow, rate_sample
from .trace_model import (MBPS, ContentClass, FlowRateBounds, _int_field,
                          _positive_real, parse_trace_file)

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_DATA = 3


@dataclass(frozen=True)
class OutputTable:
    header: tuple[str, ...]
    rows: tuple[tuple, ...]

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.header):
                raise ValueError("row length does not match header")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def write_csv(table: OutputTable, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(table.header) + "\n")
        for row in table.rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _load_library(traces_dir, fps_override=None):
    directory = Path(traces_dir)
    if not directory.is_dir():
        raise VmacError(f"traces directory not found: {directory}")
    paths = sorted(directory.glob("*.txt"))
    if not paths:
        raise VmacError(f"no *.txt trace files in {directory}")
    return tuple(parse_trace_file(p, fps_override) for p in paths)


def _flow_count(text: str) -> int:
    return _int_field(int(text), "--flows", least=1)


def _parse_counts(text: str, flag: str) -> tuple[int, ...]:
    """Counts as 'a:b:step' (inclusive) or a comma list, each >= 1."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:stop:step, got {text!r}")
        start, stop, step = (int(p) for p in parts)
        if step <= 0 or stop < start:
            raise ValueError(f"bad range {text!r}")
        counts = tuple(range(start, stop + 1, step))
    else:
        counts = tuple(int(p) for p in text.split(","))
    _int_field(min(counts), f"{flag} values", least=1)
    return counts


def _duration(args, least: int) -> int:
    """--duration, which must be at least the `least` slots the command needs."""
    if args.duration < least:
        raise ValueError(f"--duration must be >= {least} slots with --window "
                         f"{args.window}, got {args.duration}")
    return args.duration


def _fps(args):
    """--fps, which must be a positive real where given, even for trace
    files whose own directive it would not override."""
    return None if args.fps is None else _positive_real(args.fps, "--fps")


def _master_seed(args) -> int:
    """--seed, else $VMAC_SEED, else 0; `check_settings` refuses one below 0."""
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("VMAC_SEED") or 0)


# Flags that several subcommands read, each declared once here; a
# subcommand adds the ones it reads.
_FLAGS = {
    "--traces-dir": dict(required=True, help="directory of *.txt trace files"),
    "--fps": dict(type=float, help="fps > 0 for trace files without an fps directive"),
    "--flows": dict(required=True, help="flow count >= 1, or a list 'a,b' or "
                    "range 'a:b:step' where the command takes several"),
    "--window": dict(type=int, default=5, help="measurement window, slots"),
    "--seed": dict(type=int, help="master seed >= 0 (default: $VMAC_SEED, else 0)"),
    "--out": dict(required=True, help="CSV file to write"),
    "--runs": dict(type=int, default=100, help="runs per repetition"),
    "--reps": dict(type=int, default=5, help="repetitions, >= 2"),
    "--confidence": dict(type=float, default=0.95),
    "--workers": dict(type=int, default=1, help="accepted; has no effect"),
}
_LIBRARY = ("--traces-dir", "--fps", "--flows", "--seed")
_SWEEP = ("--runs", "--reps", "--confidence", "--workers")


def _config(args, **fields) -> experiments.ExperimentConfig:
    """Build the experiment config from `fields` and the subcommand's --seed,
    --window and sweep flags, checking every flag before the traces load."""
    seed = _master_seed(args)
    if "window" in args:
        fields["window_slots"] = args.window
    if "runs" in args:
        fields.update(runs_per_rep=args.runs, reps=args.reps,
                      confidence=args.confidence, workers=args.workers)
    experiments.check_settings(master_seed=seed, **fields)
    library = _load_library(args.traces_dir, _fps(args))
    return experiments.ExperimentConfig(
        trace_library=library, master_seed=seed, **fields
    )


def _write_rows(args, header, rows) -> int:
    write_csv(OutputTable(header=header, rows=tuple(rows)), args.out)
    return EXIT_OK


def _cmd_ingest(args) -> int:
    trace = parse_trace_file(args.path, _fps(args))
    lo, mean, peak = trace.summary_rates()
    line = (
        f"frames={len(trace)} fps={trace.fps:g} "
        f"min={lo / MBPS:.6f}Mbps mean={mean / MBPS:.6f}Mbps "
        f"peak={peak / MBPS:.6f}Mbps"
    )
    if trace.content_class is not ContentClass.UNKNOWN:
        line += f" class={trace.content_class.value}"
    print(line)
    return EXIT_OK


def _cmd_sweep_flows(args) -> int:
    counts = _parse_counts(args.flows, "--flows")
    result = experiments.run_probability_sweep(_config(args, flow_counts=counts))
    return _write_rows(
        args, ("flows", "prob_mean", "ci_half_width", "confidence"),
        ((n, ci.mean, ci.ci_half_width, ci.confidence) for n, ci in result.rows),
    )


def _cmd_timeseries(args) -> int:
    n = _flow_count(args.flows)
    duration = _duration(args, args.window)
    cfg = _config(args)
    ts = experiments.run_rate_timeseries(cfg, n, duration, cfg.master_seed)
    return _write_rows(
        args, ("slot", "inst_bps", "avg_bps"),
        zip(ts.slots, ts.instantaneous, ts.average),
    )


def _cmd_burstiness(args) -> int:
    counts = _parse_counts(args.flows, "--flows")
    # the coefficient of variation needs two end slots of each series
    duration = _duration(args, args.window + 1)
    rows = experiments.run_burstiness_table(_config(args), counts, duration)
    return _write_rows(
        args, ("flows", "rate_kind", "pmr", "cov"),
        ((r.flow_count, r.rate_kind, r.peak_to_mean, r.cov) for r in rows),
    )


def _cmd_sweep_window(args) -> int:
    n = _flow_count(args.flows)
    windows = _parse_counts(args.windows, "--windows")
    # the sweep reads no config window; the longest listed one is the one
    # the config checks against the shortest trace
    cfg = _config(args, window_slots=max(windows))
    rows = experiments.run_window_sweep(cfg, n, windows)
    return _write_rows(
        args, ("window_slots", "prob_mean", "ci_half_width"),
        ((w, ci.mean, ci.ci_half_width) for w, ci in rows),
    )


def _cmd_content(args) -> int:
    classes = tuple(ContentClass(c.strip().lower()) for c in args.classes.split(","))
    counts = _parse_counts(args.flows, "--flows")
    rows = experiments.run_content_comparison(_config(args), classes, counts)
    return _write_rows(
        args, ("class", "flows", "prob_mean", "ci_half_width"),
        ((cls.value, n, ci.mean, ci.ci_half_width) for cls, n, ci in rows),
    )


def _cmd_hoeffding(args) -> int:
    widths = [float(p) * MBPS for p in args.widths.split(",")]
    ranges = tuple(FlowRateBounds(0.0, w) for w in widths)
    query = bounds.HoeffdingQuery(
        n=args.n, epsilon=args.epsilon * MBPS, ranges=ranges
    )
    result = bounds.hoeffding_delta(query)
    line = f"delta={result.delta:.6f} exponent={result.exponent:.6f}"
    if result.underflow:
        line += " underflow=true"
    print(line)
    return EXIT_OK


def _cmd_admit(args) -> int:
    n = _flow_count(args.flows)
    if args.rate is not None:
        req = admission.AdmissionRequest(args.rate * MBPS)
    else:
        req = admission.AdmissionRequest.for_class(
            admission.QualityClass(args.quality)
        )
    link = admission.LinkConfig(link_id="l", capacity=args.capacity * MBPS)
    cfg = _config(args)
    flows, end_slot = experiments.draw_flow_set(cfg, n, cfg.master_seed)
    sample = rate_sample(flows, MeasurementWindow(end_slot, cfg.window_slots))
    policy = admission.Policy(args.policy)
    if policy is admission.Policy.AVERAGE:
        decision = admission.decide_average(sample, req, link)
    else:
        decision = admission.decide_instantaneous(sample, req, link)
    print(
        f"policy={policy.value} verdict={decision.verdict.value} "
        f"measured={decision.measured_rate / MBPS:.6f}Mbps "
        f"requested={req.requested_rate / MBPS:.6f}Mbps "
        f"capacity={link.capacity / MBPS:.6f}Mbps "
        f"headroom={decision.headroom / MBPS:.6f}Mbps"
    )
    return EXIT_OK if decision.verdict is admission.Verdict.ADMIT else EXIT_REJECT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vmac",
        description="Aggregate-rate admission control simulator for VBR video flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, summary, func, *flags):
        # no abbreviations: 'sweep-window --window' must not mean --windows
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    p = subcommand("ingest", "parse one trace file and print a summary",
                   _cmd_ingest, "--fps")
    p.add_argument("path")

    subcommand("sweep-flows", "probability vs number of flows (CSV)",
               _cmd_sweep_flows, *_LIBRARY, "--window", "--out", *_SWEEP)

    p = subcommand("timeseries", "rate series for one flow set (CSV)",
                   _cmd_timeseries, *_LIBRARY, "--window", "--out")
    p.add_argument("--duration", type=int, required=True, help="slots")

    p = subcommand("burstiness", "PMR and CoV per flow count (CSV)",
                   _cmd_burstiness, *_LIBRARY, "--window", "--out")
    p.add_argument("--duration", type=int, default=300, help="slots")

    p = subcommand("sweep-window", "probability vs window length (CSV)",
                   _cmd_sweep_window, *_LIBRARY, "--out", *_SWEEP)
    p.add_argument("--windows", required=True,
                   help="window lengths in slots, a comma list or a:b:step range")

    p = subcommand("content", "probability per content class (CSV)",
                   _cmd_content, *_LIBRARY, "--window", "--out", *_SWEEP)
    p.add_argument("--classes", required=True, help="e.g. 'news,sports'")

    p = subcommand("hoeffding", "evaluate the exceedance bound", _cmd_hoeffding)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True, help="Mbps")
    p.add_argument("--widths", required=True,
                   help="comma list of per-flow range widths in Mbps")

    p = subcommand("admit", "one seeded admission decision", _cmd_admit,
                   *_LIBRARY, "--window")
    p.add_argument("--policy", choices=["avg", "inst"], required=True)
    p.add_argument("--capacity", type=float, required=True, help="Mbps")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--quality", choices=[q.value for q in admission.QualityClass])
    group.add_argument("--rate", type=float, help="explicit requested rate, Mbps")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ImportError) as exc:
        # an ImportError is a missing scipy, which only an untabulated
        # confidence interval imports: the flags ask what it cannot give
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # a size no host can hold, such as --duration 10**18, is a usage
        # error; a traceback would exit 1, which reads as Reject
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (VmacError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
