"""Command-line front end.

Subcommands cover trace ingestion, the five simulation experiments, bound
evaluation and admission queries.  All rate flags are in Mbps (1 Mbps =
10^6 bits/s); outputs are plot-ready CSV files with a header row and fixed
6-decimal numeric cells, so identical flags and seed reproduce files byte
for byte.

Exit status: 0 success (or Admit), 1 Reject (admit command), 2 usage or
configuration error, 3 data error.  The VMAC_SEED environment variable
supplies the master seed when --seed is absent.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import admission, bounds, experiments
from .errors import VmacError
from .rate_engine import MeasurementWindow, rate_sample
from .trace_model import MBPS, ContentClass, FlowInstance, FlowRateBounds, parse_trace_file

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
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def write_csv(table: OutputTable, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(table.header) + "\n")
        for row in table.rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def read_csv(path) -> OutputTable:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    header = tuple(lines[0].split(","))
    rows = tuple(tuple(line.split(",")) for line in lines[1:])
    return OutputTable(header=header, rows=rows)


def _load_library(traces_dir, fps_override=None):
    directory = Path(traces_dir)
    if not directory.is_dir():
        raise VmacError(f"traces directory not found: {directory}")
    paths = sorted(directory.glob("*.txt"))
    if not paths:
        raise VmacError(f"no *.txt trace files in {directory}")
    return tuple(parse_trace_file(p, fps_override) for p in paths)


def _parse_counts(text: str) -> tuple[int, ...]:
    """Flow counts as 'a:b:step' (inclusive) or a comma list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:stop:step, got {text!r}")
        start, stop, step = (int(p) for p in parts)
        if step <= 0 or stop < start:
            raise ValueError(f"bad range {text!r}")
        return tuple(range(start, stop + 1, step))
    return tuple(int(p) for p in text.split(","))


def _master_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("VMAC_SEED")
    return int(env) if env else 0


def _config(args, library) -> experiments.ExperimentConfig:
    return experiments.ExperimentConfig(
        trace_library=library,
        window_slots=args.window,
        runs_per_rep=args.runs,
        reps=args.reps,
        master_seed=_master_seed(args),
        confidence=args.confidence,
        workers=args.workers,
    )


def _add_common_experiment_flags(p):
    p.add_argument("--traces-dir", required=True)
    p.add_argument("--fps", type=float, default=None,
                   help="fps override for trace files without a directive")
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    p.add_argument("--out", required=True)


def _cmd_ingest(args) -> int:
    trace = parse_trace_file(args.path, args.fps)
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
    library = _load_library(args.traces_dir, args.fps)
    cfg = dataclasses.replace(_config(args, library), flow_counts=_parse_counts(args.flows))
    result = experiments.run_probability_sweep(cfg)
    table = OutputTable(
        header=("flows", "prob_mean", "ci_half_width", "confidence"),
        rows=tuple(
            (n, ci.mean, ci.ci_half_width, ci.confidence) for n, ci in result.rows
        ),
    )
    write_csv(table, args.out)
    return EXIT_OK


def _cmd_timeseries(args) -> int:
    library = _load_library(args.traces_dir, args.fps)
    cfg = _config(args, library)
    ts = experiments.run_rate_timeseries(
        cfg, args.flows, args.duration, _master_seed(args)
    )
    table = OutputTable(
        header=("slot", "inst_bps", "avg_bps"),
        rows=tuple(zip(ts.slots, ts.instantaneous, ts.average)),
    )
    write_csv(table, args.out)
    return EXIT_OK


def _cmd_burstiness(args) -> int:
    library = _load_library(args.traces_dir, args.fps)
    cfg = _config(args, library)
    rows = experiments.run_burstiness_table(
        cfg, _parse_counts(args.flows), args.duration
    )
    table = OutputTable(
        header=("flows", "rate_kind", "pmr", "cov"),
        rows=tuple(
            (r.flow_count, r.rate_kind, r.peak_to_mean, r.cov) for r in rows
        ),
    )
    write_csv(table, args.out)
    return EXIT_OK


def _cmd_sweep_window(args) -> int:
    library = _load_library(args.traces_dir, args.fps)
    cfg = _config(args, library)
    rows = experiments.run_window_sweep(
        cfg, args.flows, _parse_counts(args.windows)
    )
    table = OutputTable(
        header=("window_slots", "prob_mean", "ci_half_width"),
        rows=tuple((w, ci.mean, ci.ci_half_width) for w, ci in rows),
    )
    write_csv(table, args.out)
    return EXIT_OK


def _cmd_content(args) -> int:
    library = _load_library(args.traces_dir, args.fps)
    cfg = _config(args, library)
    classes = tuple(ContentClass(c.strip().lower()) for c in args.classes.split(","))
    rows = experiments.run_content_comparison(cfg, classes, _parse_counts(args.flows))
    table = OutputTable(
        header=("class", "flows", "prob_mean", "ci_half_width"),
        rows=tuple(
            (cls.value, n, ci.mean, ci.ci_half_width) for cls, n, ci in rows
        ),
    )
    write_csv(table, args.out)
    return EXIT_OK


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
    library = _load_library(args.traces_dir, args.fps)
    cfg = experiments.ExperimentConfig(
        trace_library=library,
        window_slots=args.window,
        master_seed=_master_seed(args),
    )
    if args.rate is not None:
        req = admission.AdmissionRequest(args.rate * MBPS)
    else:
        req = admission.AdmissionRequest.for_class(
            admission.QualityClass(args.quality)
        )
    link = admission.LinkConfig(link_id="l", capacity=args.capacity * MBPS)

    # one seeded scenario, same composition rule as the experiment runs
    rng = np.random.Generator(np.random.PCG64(_master_seed(args)))
    tr, offs, ends = experiments.draw_scenarios(
        rng, library, args.flows, args.window, 1
    )
    flows = [
        FlowInstance(trace=library[t], start_offset=int(o), flow_id=i)
        for i, (t, o) in enumerate(zip(tr[0], offs[0]))
    ]
    sample = rate_sample(flows, MeasurementWindow(int(ends[0]), args.window))
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

    p = sub.add_parser("ingest", help="parse one trace file and print a summary")
    p.add_argument("path")
    p.add_argument("--fps", type=float, default=None)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("sweep-flows", help="probability vs number of flows (CSV)")
    _add_common_experiment_flags(p)
    p.add_argument("--flows", required=True,
                   help="flow counts, e.g. '5:40:5' or '2,5,10'")
    p.set_defaults(func=_cmd_sweep_flows)

    p = sub.add_parser("timeseries", help="rate series for one flow set (CSV)")
    _add_common_experiment_flags(p)
    p.add_argument("--flows", type=int, required=True)
    p.add_argument("--duration", type=int, required=True, help="slots")
    p.set_defaults(func=_cmd_timeseries)

    p = sub.add_parser("burstiness", help="PMR and CoV per flow count (CSV)")
    _add_common_experiment_flags(p)
    p.add_argument("--flows", required=True, help="comma list of flow counts")
    p.add_argument("--duration", type=int, default=300, help="slots")
    p.set_defaults(func=_cmd_burstiness)

    p = sub.add_parser("sweep-window", help="probability vs window length (CSV)")
    _add_common_experiment_flags(p)
    p.add_argument("--flows", type=int, required=True)
    p.add_argument("--windows", required=True, help="comma list of window lengths")
    p.set_defaults(func=_cmd_sweep_window)

    p = sub.add_parser("content", help="probability per content class (CSV)")
    _add_common_experiment_flags(p)
    p.add_argument("--classes", required=True, help="e.g. 'news,sports'")
    p.add_argument("--flows", required=True, help="comma list of flow counts")
    p.set_defaults(func=_cmd_content)

    p = sub.add_parser("hoeffding", help="evaluate the exceedance bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True, help="Mbps")
    p.add_argument("--widths", required=True,
                   help="comma list of per-flow range widths in Mbps")
    p.set_defaults(func=_cmd_hoeffding)

    p = sub.add_parser("admit", help="one seeded admission decision")
    p.add_argument("--policy", choices=["avg", "inst"], required=True)
    p.add_argument("--capacity", type=float, required=True, help="Mbps")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--quality", choices=[q.value for q in admission.QualityClass])
    group.add_argument("--rate", type=float, help="explicit requested rate, Mbps")
    p.add_argument("--traces-dir", required=True)
    p.add_argument("--fps", type=float, default=None)
    p.add_argument("--flows", type=int, required=True)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_admit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (VmacError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
