"""Per-layer probes for the traced run: fixed, small measurements of one
layer each, made the same way on every workload.  Repeated in-process
timings report the best repeat, as the end-to-end metrics do."""

from __future__ import annotations

import statistics
import time
import tracemalloc
from dataclasses import replace

from harness import TRACES, WORK, derive_seed, run_child

# Imports vmac in a fresh interpreter, then times the first confidence
# interval, which is where a lazily imported scipy would be paid for.
FIRST_CALL_CODE = (
    "import time, vmac\n"
    "t = time.perf_counter()\n"
    "vmac.mean_and_ci([0.25, 0.5, 0.75])\n"
    "print(time.perf_counter() - t)\n"
)
IMPORTS = {"vmac": "import.vmac_s", "scipy.stats": "import.scipy_stats_s", "numpy": "import.numpy_s"}


def import_metrics(env: dict, repeats: int) -> dict:
    """Cumulative import times from ``python -X importtime``; a module the
    child never imports reads 0."""
    samples = {name: [] for name in (*IMPORTS.values(), "stats.mean_and_ci_first_call_s")}
    for _ in range(repeats):
        child = run_child(["-X", "importtime", "-c", FIRST_CALL_CODE], env)
        if child.exit_code != 0:
            raise RuntimeError(f"import probe failed: {child.stderr.decode()[-500:]}")
        cumulative = {}
        for line in child.stderr.decode().splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1]) * 1e-6
        for module, metric in IMPORTS.items():
            samples[metric].append(cumulative.get(module, 0.0))
        samples["stats.mean_and_ci_first_call_s"].append(float(child.stdout))
    return {name: statistics.median(v) for name, v in samples.items()}


def parse_metrics(vmac, trace_dirs, repeats: int) -> dict:
    paths = [p for d in trace_dirs for p in sorted((TRACES / d).glob("*.txt"))]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        library = [vmac.parse_trace_file(p) for p in paths]
        times.append(time.perf_counter() - t0)
    frames = sum(len(t) for t in library)
    tracemalloc.start()
    try:
        library = [vmac.parse_trace_file(p) for p in paths]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    parse_s = min(times)
    return {
        "trace_model.parse_s": parse_s,
        "trace_model.frames_parsed": frames,
        "trace_model.parse_ns_per_frame": parse_s / frames * 1e9,
        "trace_model.parse_alloc_mb": peak / 2**20,
    }


def kernel_metrics(vmac, library, seed: int, runs: int, repeats: int):
    """Kernel cost over n in {5, 40} x w in {5, 25} after a warm-up
    scenario, and the speed-up of two workers over one at n=40, w=5.
    Returns (metrics, problems)."""
    base = vmac.ExperimentConfig(
        trace_library=library, reps=2, runs_per_rep=runs,
        master_seed=derive_seed(seed, "kernel"),
    )
    vmac.run_probability_sweep(replace(base, flow_counts=(5,)))

    def timed(cfg):
        t0 = time.perf_counter()
        result = vmac.run_probability_sweep(cfg)
        return time.perf_counter() - t0, result

    metrics = {}
    for n in (5, 40):
        for w in (5, 25):
            cfg = replace(base, flow_counts=(n,), window_slots=w)
            seconds = min(timed(cfg)[0] for _ in range(repeats))
            total = cfg.reps * cfg.runs_per_rep
            metrics[f"experiments.us_per_run.n{n}_w{w}"] = seconds / total * 1e6
            metrics[f"experiments.ns_per_flow_eval.n{n}_w{w}"] = seconds / (total * n) * 1e9

    one = replace(base, flow_counts=(40,), reps=4)
    two = replace(one, workers=2)
    serial, threaded, problems = [], [], []
    for _ in range(repeats):
        t1, r1 = timed(one)
        t2, r2 = timed(two)
        serial.append(t1)
        threaded.append(t2)
        if r1 != r2:
            problems.append(f"workers=2 output differs from workers=1: {r1} != {r2}")
    metrics["experiments.workers2_speedup"] = min(serial) / min(threaded)
    return metrics, problems


def mean_and_ci_metrics(vmac, calls: int, repeats: int) -> dict:
    values = [0.21, 0.25, 0.19, 0.23, 0.22]
    vmac.mean_and_ci(values)
    per_call = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            vmac.mean_and_ci(values)
        per_call.append((time.perf_counter() - t0) / calls)
    return {"stats.mean_and_ci_us": min(per_call) * 1e6}


def write_csv_metrics(vmac, library, seed: int, repeats: int) -> dict:
    """Time `cli.write_csv` on a 3000-row rate series table."""
    from vmac import cli

    cfg = vmac.ExperimentConfig(trace_library=library)
    ts = vmac.run_rate_timeseries(cfg, 40, 3000, derive_seed(seed, "csv"))
    table = cli.OutputTable(
        header=("slot", "inst_bps", "avg_bps"),
        rows=tuple(zip(ts.slots, ts.instantaneous, ts.average)),
    )
    WORK.mkdir(exist_ok=True)
    path = WORK / "write_csv.csv"
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        cli.write_csv(table, path)
        times.append(time.perf_counter() - t0)
    return {"cli.write_csv_s": min(times), "cli.rows_written": len(table.rows)}
