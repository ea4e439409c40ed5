"""The three workloads.  Each builds its inputs from the workload seed and
runs one pass at a time; a pass returns per-call latencies, the work it
completed, its outputs (digested by the caller) and any failed checks.

Why these three:

- ``mc-sweep`` spends nearly all of its time in the per-run draw, gather and
  compare loop of ``experiments``; import and trace parsing happen before
  timing starts.  A Monte Carlo kernel change shows here most.
- ``cli-calls`` is a closed loop with one client making ``vmac`` subprocess
  calls.  Interpreter start, import and argument parsing are more than 90 %
  of each call, so start-up changes show here and kernel changes should not.
  BENCHMARK.json leaves it out: on a shared 2-vCPU virtual machine its
  run-to-run spread (20-24 % between quartiles over ten runs) came too close
  to 25 %, the widest regression bound a metric may have.  It still runs by
  hand, and every traced run makes one cycle of it for the ``cli.*`` layer
  metrics and the golden CLI outputs; ``setup_s`` gates start-up on the
  other workloads.
- ``slot-series`` decides admission at every consecutive slot of fixed flow
  sets and evaluates long rate series.  It shares the window-sum and trace
  lookup code with ``mc-sweep`` but reaches it through ``rate_engine``,
  ``admission``, ``bounds`` and ``stats``, so a kernel change that helps
  random batched gathers but slows per-decision work shows here.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field, replace

from harness import ROOT, TRACES, WORK, derive_seed, digest, run_child


@dataclass
class PassResult:
    call_s: list = field(default_factory=list)  # latency of each call, s
    work: int = 0  # work units completed, as `work_per_s` counts them
    outputs: dict = field(default_factory=dict)  # op key -> output value
    problems: list = field(default_factory=list)  # one entry per failed check


def load_library(vmac, name: str) -> tuple:
    return tuple(
        vmac.parse_trace_file(p) for p in sorted((TRACES / name).glob("*.txt"))
    )


class McSweep:
    """Probability sweeps through the public experiment API, one call per
    scenario: flows 2-40 at w=5 and windows 2-60 at n=40 on the bursty
    library, news and sports at n 5 and 40, and one constant-bitrate library
    scenario at n=40 whose probability must be exactly 0 because ties never
    count."""

    name = "mc-sweep"
    trace_dirs = ("bursty", "content")
    min_passes = 1

    def __init__(self, vmac, seed: int):
        self.vmac = vmac
        self.seed = seed
        self.cfg_bursty = vmac.ExperimentConfig(trace_library=load_library(vmac, "bursty"))
        self.cfg_content = vmac.ExperimentConfig(trace_library=load_library(vmac, "content"))
        cbr = tuple(
            vmac.synth_bounded_trace(
                3000, vmac.FlowRateBounds(rate, rate), 30.0, seed=i, trace_id=f"cbr-{i}"
            )
            for i, rate in enumerate((1.0e6, 2.5e6, 4.0e6))
        )
        self.cfg_cbr = vmac.ExperimentConfig(trace_library=cbr)
        news, sports = vmac.ContentClass.NEWS, vmac.ContentClass.SPORTS
        # nine of the fifteen scenarios have n=40, so the median and p75
        # call fall inside that cluster rather than on its edge
        self.scenarios = (
            [("flows", n, 5) for n in (2, 5, 10, 20, 40)]
            + [("window", 40, w) for w in (2, 5, 10, 25, 60)]
            + [(cls.value, n, 5) for cls in (news, sports) for n in (5, 40)]
            + [("cbr", 40, 5)]
        )
        self.runs_per_scenario = self.cfg_bursty.reps * self.cfg_bursty.runs_per_rep

    def input_index(self, k: int) -> int:
        return k

    def _call(self, kind, n, w, master_seed):
        v = self.vmac
        if kind == "flows":
            cfg = replace(self.cfg_bursty, flow_counts=(n,), master_seed=master_seed)
            return "experiments.run_probability_sweep", lambda: v.run_probability_sweep(cfg).rows[0][1]
        if kind == "window":
            cfg = replace(self.cfg_bursty, master_seed=master_seed)
            return "experiments.run_window_sweep", lambda: v.run_window_sweep(cfg, n, (w,))[0][1]
        if kind == "cbr":
            cfg = replace(self.cfg_cbr, flow_counts=(n,), master_seed=master_seed)
            return "experiments.run_probability_sweep", lambda: v.run_probability_sweep(cfg).rows[0][1]
        cfg = replace(self.cfg_content, master_seed=master_seed)
        cls = v.ContentClass(kind)
        return "experiments.run_content_comparison", lambda: v.run_content_comparison(cfg, (cls,), (n,))[0][2]

    def run_pass(self, k: int, tr) -> PassResult:
        res = PassResult()
        for i, (kind, n, w) in enumerate(self.scenarios):
            span, fn = self._call(kind, n, w, derive_seed(self.seed, k, i))
            t0 = time.perf_counter()
            ci = tr.call(span, fn)
            res.call_s.append(time.perf_counter() - t0)
            res.work += self.runs_per_scenario
            key = f"{i:02d}-{kind}-n{n}-w{w}"
            res.outputs[key] = (ci.mean, ci.ci_half_width, ci.confidence, ci.reps)
            if not (0.0 <= ci.mean <= 1.0 and 0.0 <= ci.ci_half_width < math.inf):
                res.problems.append(f"{key}: probability out of range: {ci}")
            if kind == "cbr" and (ci.mean != 0.0 or ci.ci_half_width != 0.0):
                res.problems.append(f"{key}: constant-bitrate probability is not 0: {ci}")
        tr.count("experiments.runs", res.work)
        return res


class SlotSeries:
    """Admission decisions at every consecutive slot of fixed n=5 and n=40
    flow sets, then long rate series, burstiness metrics and exceedance."""

    name = "slot-series"
    trace_dirs = ("bursty",)
    min_passes = 1

    WINDOW = 5
    # One n=5 decision for every three at n=40, so the median and p75 call
    # fall inside the n=40 cluster rather than on the edge between the two.
    DECISION_SLOTS = {5: 100, 40: 300}
    CHECK_EVERY = 10  # decisions recomputed independently with numpy
    DURATION = 3000  # slots per rate series
    SAMPLES = 20000  # decision instants per exceedance estimate
    EPSILON = 100_000.0  # bits/s per flow

    def __init__(self, vmac, seed: int):
        import numpy as np

        self.vmac, self.np, self.seed = vmac, np, seed
        library = load_library(vmac, "bursty")
        self.cfg = vmac.ExperimentConfig(trace_library=library, window_slots=self.WINDOW)
        self.request = vmac.AdmissionRequest.for_class(vmac.QualityClass.SD)
        rng = np.random.Generator(np.random.PCG64(seed))
        self.sets = {}
        for n in self.DECISION_SLOTS:
            picks = rng.integers(len(library), size=n)
            flows = tuple(
                vmac.FlowInstance(
                    trace=library[t],
                    start_offset=int(rng.integers(len(library[t]))),
                    flow_id=i,
                )
                for i, t in enumerate(picks)
            )
            # capacity at the mean aggregate rate plus the request, so both
            # verdicts occur
            mean_rate = sum(f.trace.summary_rates()[1] for f in flows)
            link = vmac.LinkConfig(f"n{n}", round(mean_rate + self.request.requested_rate))
            self.sets[n] = (flows, link)
        self.horizon = max(len(t) for t in library)

    def input_index(self, k: int) -> int:
        return k

    def _check_decision(self, flows, link, end, sample, d_avg, d_inst):
        """Instantaneous and window bytes recomputed with numpy from
        `trace.sizes`; the rates and verdicts must match exactly."""
        np, w = self.np, self.WINDOW
        inst_bytes = win_bytes = 0
        for f in flows:
            slots = f.start_offset + np.arange(end - w + 1, end + 1)
            window = np.take(f.trace.sizes, slots, mode="wrap")
            inst_bytes += int(window[-1])
            win_bytes += int(window.sum())
        fps = flows[0].trace.fps
        expect_inst = inst_bytes * 8 * fps
        expect_avg = win_bytes * 8 / w * fps
        problems = []
        if sample.instantaneous != expect_inst or sample.average != expect_avg:
            problems.append(
                f"slot {end}: rates ({sample.instantaneous}, {sample.average}) != "
                f"numpy ({expect_inst}, {expect_avg})"
            )
        budget = link.capacity - self.request.requested_rate
        for d, measured in ((d_avg, expect_avg), (d_inst, expect_inst)):
            admit = measured <= budget
            if (d.verdict is self.vmac.Verdict.ADMIT) != admit:
                problems.append(f"slot {end}: {d.policy.value} verdict {d.verdict.value}")
        return problems

    def _check_series(self, ts):
        np, w = self.np, self.WINDOW
        inst = np.array(ts.instantaneous)
        avg = np.array(ts.average)
        if len(ts.slots) != self.DURATION - w + 1 or len(inst) != len(avg):
            return [f"timeseries has {len(ts.slots)} slots"]
        # the trailing mean of the instantaneous series must give the reported
        # average wherever the whole window lies inside the series; the two
        # sum in different orders, hence the tolerance
        moving = np.convolve(inst, np.ones(w), mode="valid") / w
        if not np.allclose(moving, avg[w - 1:], rtol=1e-9, atol=0.0):
            return ["timeseries average is not the window mean of the instantaneous series"]
        return []

    def run_pass(self, k: int, tr) -> PassResult:
        v, np = self.vmac, self.np
        res = PassResult()
        start = self.WINDOW - 1 + derive_seed(self.seed, k, "start") % self.horizon
        for n, slots in self.DECISION_SLOTS.items():
            flows, link = self.sets[n]
            decisions = []
            for end in range(start, start + slots):
                window = v.MeasurementWindow(end, self.WINDOW)
                t0 = time.perf_counter()
                with tr.span("slot_series.decision"):
                    sample = tr.call("rate_engine.rate_sample", v.rate_sample, flows, window)
                    d_avg = tr.call("admission.decide_average", v.decide_average, sample, self.request, link)
                    d_inst = tr.call("admission.decide_instantaneous", v.decide_instantaneous, sample, self.request, link)
                res.call_s.append(time.perf_counter() - t0)
                decisions.append((sample, d_avg, d_inst))
            res.work += 2 * slots
            res.outputs[f"decisions-n{n}"] = [
                (s.instantaneous, s.average, a.verdict.value, a.headroom, i.verdict.value, i.headroom)
                for s, a, i in decisions
            ]
            admits = [sum(d[j].verdict is v.Verdict.ADMIT for d in decisions) for j in (1, 2)]
            tr.count("admission.admit.avg", admits[0])
            tr.count("admission.admit.inst", admits[1])
            tr.count("admission.decisions", slots)
            for j in range(0, slots, self.CHECK_EVERY):
                res.problems += self._check_decision(flows, link, start + j, *decisions[j])

        cfg = replace(self.cfg, master_seed=derive_seed(self.seed, k, "series"))
        series_slots = 0
        for n in self.DECISION_SLOTS:
            t0 = time.perf_counter()
            ts = tr.call("experiments.run_rate_timeseries", v.run_rate_timeseries,
                         cfg, n, self.DURATION, derive_seed(self.seed, k, "ts", n))
            res.call_s.append(time.perf_counter() - t0)
            series_slots += self.DURATION
            res.outputs[f"timeseries-n{n}"] = (ts.slots[0], ts.instantaneous, ts.average)
            res.problems += self._check_series(ts)

        # ts is the n=40 series from the loop above
        t0 = time.perf_counter()
        with tr.span("stats.burstiness_metric"):
            metrics = [
                (v.peak_to_mean(s), v.coefficient_of_variation(s))
                for s in (ts.instantaneous, ts.average)
            ]
        res.call_s.append(time.perf_counter() - t0)
        series_slots += 2 * len(ts.slots)
        res.outputs["burstiness-metrics-n40"] = metrics
        if not all(pmr >= 1.0 and cov >= 0.0 for pmr, cov in metrics):
            res.problems.append(f"burstiness metrics out of range: {metrics}")

        t0 = time.perf_counter()
        table = tr.call("experiments.run_burstiness_table", v.run_burstiness_table,
                        cfg, tuple(self.DECISION_SLOTS), self.DURATION)
        res.call_s.append(time.perf_counter() - t0)
        series_slots += self.DURATION * len(self.DECISION_SLOTS)
        res.outputs["burstiness-table"] = [
            (r.flow_count, r.rate_kind, r.peak_to_mean, r.cov) for r in table
        ]
        if len(table) != 2 * len(self.DECISION_SLOTS):
            res.problems.append(f"burstiness table has {len(table)} rows")

        for n in self.DECISION_SLOTS:
            flows, _ = self.sets[n]
            t0 = time.perf_counter()
            frac = tr.call("bounds.empirical_exceedance", v.empirical_exceedance,
                           flows, v.MeasurementWindow(self.WINDOW - 1, self.WINDOW),
                           self.EPSILON, self.SAMPLES, derive_seed(self.seed, k, "exc", n))
            res.call_s.append(time.perf_counter() - t0)
            series_slots += self.SAMPLES
            tr.count("bounds.samples", self.SAMPLES)
            res.outputs[f"exceedance-n{n}"] = frac
            if not 0.0 <= frac <= 1.0:
                res.problems.append(f"exceedance n={n} out of range: {frac}")
        tr.count("series.slots", series_slots)
        return res


@dataclass(frozen=True)
class CliCall:
    label: str  # subcommand, or the kind of error the call provokes
    argv: tuple
    exits: frozenset  # exit statuses a correct program may return
    writes_csv: bool


class CliCalls:
    """A fixed mix of `vmac` subprocess calls on the bundled traces, made in
    whole cycles, at least three, so each call has a best of three."""

    name = "cli-calls"
    trace_dirs = ("bursty", "samples")
    min_passes = 3

    def __init__(self, env: dict, seed: int):
        self.env = env
        rng = random.Random(seed)
        bursty = "traces/bursty"
        qualities = ["fullhd", "hdready", "sd", "hdweb"]
        rng.shuffle(qualities)

        def s():
            return str(rng.randrange(1_000_000))

        def out(i):
            return str((WORK / f"cli-{i}.csv").relative_to(ROOT))

        calls = []
        # both policies, with quality classes that vary with the seed
        for policy, quality in (("avg", qualities[0]), ("inst", qualities[1])):
            flows = rng.choice([5, 10, 20, 40])
            capacity = f"{rng.uniform(1.5, 4.0) * flows:.3f}"
            calls.append(("admit", ["admit", "--policy", policy, "--capacity", capacity,
                                    "--quality", quality, "--traces-dir", bursty,
                                    "--flows", str(flows), "--seed", s()], {0, 1}))
        calls.append(("ingest", ["ingest", f"traces/samples/sample-{rng.randrange(5)}.txt"], {0}))
        n = rng.randint(2, 8)
        widths = ",".join(f"{rng.uniform(0.5, 4.0):.3f}" for _ in range(n))
        calls.append(("hoeffding", ["hoeffding", "--n", str(n), "--epsilon",
                                    f"{rng.uniform(0.1, 1.0):.3f}", "--widths", widths], {0}))
        calls.append(("sweep-flows", ["sweep-flows", "--traces-dir", bursty, "--flows",
                                      "2,5,10,15,20,30,40", "--seed", s()], {0}))
        calls.append(("timeseries", ["timeseries", "--traces-dir", bursty, "--flows", "5",
                                     "--duration", "300", "--seed", s()], {0}))
        calls.append(("burstiness", ["burstiness", "--traces-dir", bursty, "--flows", "5,40",
                                     "--seed", s()], {0}))
        calls.append(("usage-error", ["sweep-flows", "--traces-dir", bursty, "--flows", "2,x",
                                      "--seed", s()], {2}))
        missing = str((WORK / "no-such-traces").relative_to(ROOT))
        calls.append(("data-error", ["sweep-flows", "--traces-dir", missing, "--flows", "2",
                                     "--seed", s()], {3}))
        self.calls = []
        for i, (label, argv, exits) in enumerate(calls):
            writes_csv = argv[0] in ("sweep-flows", "timeseries", "burstiness")
            if writes_csv:
                argv = argv + ["--out", out(i)]
            self.calls.append(CliCall(label, tuple(argv), frozenset(exits), writes_csv))
        self.peak_rss_mb = 0.0

    def input_index(self, k: int) -> int:
        return 0  # every cycle repeats the same calls

    def run_pass(self, k: int, tr) -> PassResult:
        res = PassResult()
        for i, call in enumerate(self.calls):
            csv_path = WORK / f"cli-{i}.csv"
            csv_path.unlink(missing_ok=True)
            child = tr.call(f"cli.call.{call.label}", run_child,
                            ["-m", "vmac.cli", *call.argv], self.env)
            res.call_s.append(child.seconds)
            self.peak_rss_mb = max(self.peak_rss_mb, child.maxrss_mb)
            res.work += 1
            key = f"{i:02d}-{call.label}"
            csv = csv_path.read_bytes() if csv_path.exists() else None
            res.outputs[key] = (child.exit_code, digest(child.stdout), csv and digest(csv))
            if child.exit_code not in call.exits:
                res.problems.append(
                    f"{key}: exit {child.exit_code}, expected {sorted(call.exits)}: "
                    f"{child.stderr.decode(errors='replace')[-300:]}"
                )
            elif call.writes_csv and child.exit_code == 0 and not csv:
                res.problems.append(f"{key}: no CSV written")
            elif child.exit_code >= 2 and not child.stderr.startswith(b"error: "):
                res.problems.append(f"{key}: exit {child.exit_code} without an error message")
        return res
