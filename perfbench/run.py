"""vmac benchmark: one workload per run, checked outputs, metrics as JSON.

    python3 perfbench/run.py --workload mc-sweep --seed 0 --seconds 45 --trace 0

Run it from the root of a checkout; it imports vmac from ``src`` and reads
the bundled ``traces``.  The timed loop repeats whole passes of the
workload until ``--seconds`` have elapsed (``cli-calls`` makes at least three
passes).  The last line of standard
output is the result; the line before it is a run stamp with the commit,
seed, versions, CPU count, load average and the output digests of the
first pass.

With ``--trace 0`` the result holds the end-to-end metrics, on every
workload.  Every pass makes the same sequence of calls; the timing metrics
use each call's best latency over the passes of the run (see `run_loop`):

- ``setup_s``: a fresh interpreter importing vmac and parsing the workload's
  trace libraries, launch to exit; median of five spread over the run.
- ``wall_s``: one pass, as the sum of its calls' best latencies.
- ``peak_rss_mb``: peak RSS of the process doing the work (this process for
  the in-process workloads, the largest `vmac` child on ``cli-calls``).
- ``work_per_s``: the work of one pass over ``wall_s``: Monte Carlo runs on
  ``mc-sweep``, CLI calls on ``cli-calls``, admission decisions (both
  policies counted) on ``slot-series``.
- ``call_p50_s`` and ``call_p75_s``: latency of one call into vmac: one
  scenario of the public experiment API on ``mc-sweep``, one subprocess
  from launch to exit on ``cli-calls``, one decision (rate sample and both
  policies) or one series call on ``slot-series``.

With ``--trace 1`` it runs the workload's loop alternating untraced passes
and passes with spans around each call into vmac, then one traced pass of
each other workload and the per-layer probes, and reports the per-layer
metrics.

Correctness: every output is digested per operation.  At the default seed
the digests of the first pass must equal ``golden.json``; at any seed, an
input evaluated twice must give the same digests.  Each workload also
checks its outputs independently (see ``workloads.py``).  A failed check
counts one failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (  # noqa: E402
    DEFAULT_SEED, GOLDEN, ROOT, SRC, TRACES, NullTracer, Tracer, child_env,
    digest, run_child,
)

WORKLOADS = ("mc-sweep", "cli-calls", "slot-series")
SETUP_REPEATS = 5
SETUP_CODE = (
    "import pathlib, sys, vmac\n"
    "for d in sys.argv[1:]:\n"
    "    for p in sorted(pathlib.Path(d).glob('*.txt')):\n"
    "        vmac.parse_trace_file(p)\n"
)

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s",
    "call_p50_s": "s", "call_p75_s": "s",
}
SCENARIO_SPANS = (
    "experiments.run_probability_sweep", "experiments.run_window_sweep",
    "experiments.run_content_comparison",
)
CLI_LABELS = ("admit", "ingest", "hoeffding", "sweep-flows", "timeseries", "burstiness")
KERNEL_POINTS = [f"n{n}_w{w}" for n in (5, 40) for w in (5, 25)]
PER_LAYER_UNITS = {
    "import.vmac_s": "s", "import.scipy_stats_s": "s", "import.numpy_s": "s",
    "trace_model.parse_s": "s", "trace_model.frames_parsed": "count",
    "trace_model.parse_ns_per_frame": "ns", "trace_model.parse_alloc_mb": "MB",
    **{f"experiments.us_per_run.{p}": "us" for p in KERNEL_POINTS},
    **{f"experiments.ns_per_flow_eval.{p}": "ns" for p in KERNEL_POINTS},
    "experiments.runs": "count", "experiments.scenario_s": "s",
    "experiments.workers2_speedup": "ratio",
    "experiments.timeseries_s": "s", "experiments.burstiness_s": "s",
    "stats.burstiness_metric_s": "s", "series.slots_per_s": "1/s",
    "rate_engine.rate_sample_us": "us", "rate_engine.calls": "count",
    "admission.decide_us": "us", "admission.admit_frac.avg": "ratio",
    "admission.admit_frac.inst": "ratio",
    "bounds.exceedance_s": "s", "bounds.samples_per_s": "1/s",
    "stats.mean_and_ci_us": "us", "stats.mean_and_ci_first_call_s": "s",
    **{f"cli.call_s.{label}": "s" for label in CLI_LABELS},
    "cli.write_csv_s": "s", "cli.rows_written": "count",
    "trace.overhead_frac": "ratio",
}


class Ledger:
    """Counts operations and failed checks, and compares output digests
    with the golden values and with earlier evaluations of the same input."""

    def __init__(self, seed: int):
        self.golden = json.loads(GOLDEN.read_text()) if seed == DEFAULT_SEED else None
        self.attempted = 0
        self.failed = 0
        self.first: dict = {}  # workload -> op key -> digest of the first input

    def record(self, workload, k: int, res) -> None:
        problems = list(res.problems)
        if workload.input_index(k) == 0:
            first = self.first.setdefault(workload.name, {})
            for key, value in res.outputs.items():
                d = digest(value)
                earlier = first.setdefault(key, d)
                if earlier != d:
                    problems.append(f"{key}: digest {d}, earlier {earlier}")
                if self.golden is not None and self.golden[workload.name].get(key) != d:
                    problems.append(f"{key}: digest {d}, golden {self.golden[workload.name].get(key)}")
        for p in problems:
            print(f"check failed: {workload.name} pass {k}: {p}", file=sys.stderr)
        self.attempted += len(res.call_s)
        self.failed += min(len(problems), len(res.call_s))


def run_loop(workload, seconds: float, min_passes: int, tracers, ledger: Ledger,
             setup: SetupSampler | None = None):
    """Whole passes until `seconds` have elapsed, taking the tracers in
    turn.  Returns, per tracer, each call's best latency over its passes,
    and the work of one pass.

    Every pass makes the same calls in the same order.  On a shared 2-vCPU
    virtual machine the CPU switches between fast and slow states every few
    seconds, so the best of many passes is far steadier than their median, and
    alternating tracers lets each see the same states.  Only the running
    minimum is kept, so memory does not grow with the pass count.  Set-up
    samples, if asked for, are taken between passes.
    """
    best = [None] * len(tracers)
    start = time.perf_counter()
    k = 0
    while k < min_passes or time.perf_counter() < start + seconds:
        while setup is not None and setup.due((time.perf_counter() - start) / seconds):
            setup.measure()
        turn = k % len(tracers)
        res = workload.run_pass(k // len(tracers), tracers[turn])
        ledger.record(workload, k // len(tracers), res)
        if best[turn] is None:
            best[turn], work = res.call_s, res.work
        elif len(res.call_s) != len(best[turn]):
            raise RuntimeError(f"{workload.name}: pass {k} made {len(res.call_s)} calls")
        else:
            best[turn] = [min(a, b) for a, b in zip(best[turn], res.call_s)]
        k += 1
    return best, work


class SetupSampler:
    """Times a fresh interpreter importing vmac and parsing the workload's
    trace libraries, launch to exit.  The samples are spread over the timed
    loop so that they see the same mix of fast and slow CPU phases."""

    def __init__(self, env: dict, trace_dirs, repeats: int):
        dirs = [str((TRACES / d).relative_to(ROOT)) for d in trace_dirs]
        self.args = ["-c", SETUP_CODE, *dirs]
        self.env = env
        self.repeats = repeats
        self.times: list[float] = []

    def due(self, fraction_elapsed: float) -> bool:
        return len(self.times) < min(self.repeats, 1 + fraction_elapsed * self.repeats)

    def measure(self) -> None:
        child = run_child(self.args, self.env)
        if child.exit_code != 0:
            raise RuntimeError(f"set-up child failed: {child.stderr.decode()[-500:]}")
        self.times.append(child.seconds)

    def median(self) -> float:
        while self.due(1.0):
            self.measure()
        return statistics.median(self.times)


def make_workload(name: str, seed: int, env: dict):
    import workloads

    if name == "cli-calls":
        return workloads.CliCalls(env, seed)
    import vmac

    cls = workloads.McSweep if name == "mc-sweep" else workloads.SlotSeries
    return cls(vmac, seed)


def end_to_end(workload, best, work: int, setup_s: float) -> dict:
    _, p50, p75 = statistics.quantiles(best, n=4)
    if workload.name == "cli-calls":
        peak_rss_mb = workload.peak_rss_mb
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": setup_s,
        "wall_s": sum(best),
        "peak_rss_mb": peak_rss_mb,
        "work_per_s": work / sum(best),
        "call_p50_s": p50,
        "call_p75_s": p75,
    }


def per_layer(workload, seed: int, env: dict, seconds: float, quick: bool, ledger: Ledger) -> dict:
    import probes
    import vmac
    import workloads

    tracer = Tracer()
    (untraced, traced), _ = run_loop(workload, seconds, 2, [NullTracer(), tracer], ledger)
    overhead = sum(traced) / sum(untraced) - 1.0

    # one traced pass of every other workload, for the layers it reaches
    others = [workloads.McSweep(vmac, seed), workloads.SlotSeries(vmac, seed), workloads.CliCalls(env, seed)]
    for other in others:
        if other.name != workload.name:
            ledger.record(other, 0, other.run_pass(0, tracer))

    def median_s(*names):
        values = tracer.seconds(*names)
        return statistics.median(values) if values else 0.0

    def share(count, total):
        return tracer.counts[count] / tracer.counts[total] if tracer.counts[total] else 0.0

    series_spans = ("experiments.run_rate_timeseries", "stats.burstiness_metric",
                    "experiments.run_burstiness_table", "bounds.empirical_exceedance")
    exceedance_s = sum(tracer.seconds("bounds.empirical_exceedance"))
    series_s = sum(tracer.seconds(*series_spans))
    metrics = {
        "experiments.runs": tracer.counts["experiments.runs"],
        "experiments.scenario_s": statistics.fmean(tracer.seconds(*SCENARIO_SPANS) or [0.0]),
        "experiments.timeseries_s": median_s("experiments.run_rate_timeseries"),
        "experiments.burstiness_s": median_s("experiments.run_burstiness_table"),
        "stats.burstiness_metric_s": median_s("stats.burstiness_metric"),
        "series.slots_per_s": tracer.counts["series.slots"] / series_s if series_s else 0.0,
        "rate_engine.rate_sample_us": median_s("rate_engine.rate_sample") * 1e6,
        "rate_engine.calls": len(tracer.seconds("rate_engine.rate_sample")),
        "admission.decide_us": median_s("admission.decide_average", "admission.decide_instantaneous") * 1e6,
        "admission.admit_frac.avg": share("admission.admit.avg", "admission.decisions"),
        "admission.admit_frac.inst": share("admission.admit.inst", "admission.decisions"),
        "bounds.exceedance_s": median_s("bounds.empirical_exceedance"),
        "bounds.samples_per_s": tracer.counts["bounds.samples"] / exceedance_s if exceedance_s else 0.0,
        **{f"cli.call_s.{label}": median_s(f"cli.call.{label}") for label in CLI_LABELS},
        "trace.overhead_frac": overhead,
    }

    repeats = 1 if quick else 3
    bursty = workloads.load_library(vmac, "bursty")
    metrics.update(probes.import_metrics(env, repeats))
    metrics.update(probes.parse_metrics(vmac, workload.trace_dirs, repeats))
    kernel, problems = probes.kernel_metrics(vmac, bursty, seed, 50 if quick else 250, repeats)
    metrics.update(kernel)
    metrics.update(probes.mean_and_ci_metrics(vmac, 200 if quick else 2000, repeats))
    metrics.update(probes.write_csv_metrics(vmac, bursty, seed, repeats))
    ledger.attempted += 1
    if problems:
        ledger.failed += 1
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
    return metrics


def read_loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git; the
    benchmark may also run in an export that has no .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="fewer repeats, for the self-test only")
    args = parser.parse_args(argv)

    if not (SRC / "vmac" / "__init__.py").is_file() or not TRACES.is_dir():
        print(f"error: no vmac sources or traces under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    loadavg_start = read_loadavg()
    env = child_env()
    warm = run_child(["-c", "import vmac.cli"], env)  # writes the bytecode cache
    if warm.exit_code != 0:
        print(f"error: vmac does not import: {warm.stderr.decode()[-500:]}", file=sys.stderr)
        return 3

    ledger = Ledger(args.seed)
    workload = make_workload(args.workload, args.seed, env)
    if args.trace:
        metrics = per_layer(workload, args.seed, env, args.seconds, args.quick, ledger)
        units = PER_LAYER_UNITS
    else:
        setup = SetupSampler(env, workload.trace_dirs, 1 if args.quick else SETUP_REPEATS)
        if workload.name != "cli-calls":  # a CLI cycle is too long to repeat
            # untimed warm-up; the loop's first pass evaluates the same input
            # again, which checks that it reproduces
            ledger.record(workload, 0, workload.run_pass(0, NullTracer()))
        min_passes = 1 if args.quick else workload.min_passes
        (best,), work = run_loop(workload, args.seconds, min_passes, [NullTracer()], ledger, setup)
        metrics = end_to_end(workload, best, work, setup.median())
        units = END_TO_END_UNITS

    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg_start, "loadavg_end": read_loadavg(),
        "digests": ledger.first,
    }
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
