"""Quick self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload, ``cli-calls`` included, untraced and traced in quick
mode at the default seed, checks each result line against BENCHMARK.json
(keys, metric names, units, finite values, no failed operation), and
checks that the benchmark exits non-zero without printing a result when
the checkout holds only BENCHMARK.json and the benchmark's own files.
Takes about three minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BARE = HERE / ".work" / "bare"


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_result(stdout: str, specs: list) -> list[str]:
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        return ["no stamp and result lines"]
    problems = []
    if "stamp" not in json.loads(lines[-2]):
        problems.append("the line before the result is not the run stamp")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    want = {s["name"]: s["unit"] for s in specs}
    if set(metrics) != set(want):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(want))}")
    for name, m in metrics.items():
        if m.get("unit") != want.get(name):
            problems.append(f"{name}: unit {m.get('unit')}, want {want.get(name)}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in WORKLOADS:
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = run_bench(ROOT, "--workload", workload, "--seed", "0",
                             "--seconds", "1", "--trace", str(trace), "--quick")
            problems = [f"exit {proc.returncode}: {proc.stderr[-500:]}"] if proc.returncode else []
            problems += check_result(proc.stdout, specs) if not problems else []
            failures += bool(problems)
            print(f"{workload} trace={trace}: {'ok' if not problems else problems}")

    shutil.rmtree(BARE, ignore_errors=True)
    BARE.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", BARE)
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, BARE / path,
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench(BARE, "--workload", bench["workloads"][0]["name"], "--seed", "0",
                     "--seconds", "1", "--trace", "0")
    refused = proc.returncode != 0 and not proc.stdout.strip()
    failures += not refused
    print(f"bare checkout: {'refused' if refused else f'NOT refused (exit {proc.returncode})'}")
    shutil.rmtree(BARE)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
