"""Shared pieces of the benchmark: paths, child processes, spans, digests.

Nothing here imports vmac, so the CLI workload can run without loading the
library into the benchmark process.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACES = ROOT / "traces"
WORK = Path(__file__).resolve().parent / ".work"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
DEFAULT_SEED = 0

# A child that has not ended by then is killed and reaped; every workload
# child takes a few seconds at most.
CHILD_TIMEOUT_S = 120


def child_env() -> dict:
    """Environment for vmac children: the checkout's `src` on the path, no
    inherited seed, and bytecode writing left on, as for an installed user."""
    env = {
        k: v for k, v in os.environ.items()
        if k not in ("PYTHONDONTWRITEBYTECODE", "VMAC_SEED", "PYTHONPATH")
    }
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass(frozen=True)
class ChildResult:
    exit_code: int
    seconds: float  # launch to exit, wall clock
    maxrss_mb: float
    stdout: bytes
    stderr: bytes


def run_child(args: list[str], env: dict) -> ChildResult:
    """Run ``python <args>`` from the checkout root and wait for it to end.

    Reaping with wait4 gives the child's own peak RSS, not the maximum over
    every child this process has had.
    """
    WORK.mkdir(exist_ok=True)
    out_path, err_path = WORK / "child.stdout", WORK / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=env, stdout=out, stderr=err
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        exit_code=proc.returncode,
        seconds=seconds,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


def digest(obj) -> str:
    """Short SHA-256 of a value's repr; floats repr exactly in Python."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def derive_seed(*parts) -> int:
    """Input seed for one pass or call, made from the workload seed; kept
    apart from vmac's own seed derivation so inputs do not move with it."""
    payload = ":".join(str(p) for p in ("perfbench", *parts)).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big") >> 1


class Tracer:
    """Spans kept in memory around the benchmark's calls into vmac.

    A span is (name, start_ns, end_ns, parent), where parent is the index of
    the enclosing span or -1.  Counts sit beside the spans.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._open = [-1]

    def call(self, name: str, fn, *args):
        t0 = time.perf_counter_ns()
        result = fn(*args)
        self.spans.append((name, t0, time.perf_counter_ns(), self._open[-1]))
        return result

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index] = (name, t0, time.perf_counter_ns(), self._open[-1])

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def seconds(self, *names: str) -> list[float]:
        wanted = set(names)
        return [(s[2] - s[1]) * 1e-9 for s in self.spans if s[0] in wanted]


class NullTracer:
    """Stand-in used on untraced runs: calls straight through."""

    def call(self, name, fn, *args):
        return fn(*args)

    def span(self, name):
        return nullcontext()

    def count(self, name, amount=1):
        pass
