"""Fast self-test of the benchmark: every workload at toy size, traced and not.

Usage: python3 bench/selftest.py

Each workload runs for two epochs on a 48-node graph. The test checks that
the last stdout line is the result object, that every metric BENCHMARK.json
names is printed there with its unit, that no run failed, and that the
human-readable report names each metric with its unit and sample count.
Exits 0 when all checks hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(workload: str, trace: int, spec: dict) -> list:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, cwd=str(ROOT), timeout=300)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{where}: runs failed: {result}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        errors.append(f"{where}: metric names differ from BENCHMARK.json")
    report = "\n".join(lines[:-1])
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            errors.append(f"{where}: {m['name']} printed as {got}")
        if not any(line.split()[:1] == [m["name"]] and f" {m['unit']} " in line
                   and "n=" in line for line in report.splitlines()):
            errors.append(f"{where}: {m['name']} missing from the report")
    if "failed_share" not in report:
        errors.append(f"{where}: failed_share missing from the report")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            errors += check(workload["name"], trace, spec)
    for e in errors:
        print(e)
    print("selftest:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
