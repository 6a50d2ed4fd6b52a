"""Smoke check of the benchmark itself, at reduced scale.

    python3 bench/smoke.py

Runs every workload for one second, untraced and traced, and checks that
each run exits 0, ends with a result line naming exactly the metrics of
``BENCHMARK.json`` with their units, and fails exactly the recorded
baseline: nothing on the in-process workloads, and on ``cli-mix`` only the
known holes of ``expected.json``, once per pass each.  Exits 1 on the first
mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def check(workload: str, trace: int, spec: dict) -> str | None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    result = json.loads(proc.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    group = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in group}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        return f"metrics {got}, expected {want}"
    if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        return "a metric value is not a number"
    record = json.loads((HERE / "out" / f"{workload}-seed7-trace{trace}.json").read_text())
    known = set(workloads.EXPECTED["known_failures"]) if workload == "cli-mix" else set()
    if not result["correct"] or set(record["failures"]) != known:
        return f"failures {sorted(record['failures'])}, expected {sorted(known)}"
    per_pass = len(workloads.cli_mix(7, HERE / "out" / "work", ROOT).commands)
    if result["failed"] * per_pass != result["attempted"] * len(known):
        return f"error rate {result['failed']}/{result['attempted']}, baseline {len(known)}/{per_pass}"
    return None


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            problem = check(workload, trace, spec)
            print(f"{workload} trace={trace}: {problem or 'ok'}", flush=True)
            if problem:
                sys.exit(1)


if __name__ == "__main__":
    main()
