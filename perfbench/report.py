"""Print every end-to-end and per-layer metric of every workload.

    python3 perfbench/report.py

Run from a checkout root.  For each workload it makes one untraced run
(end-to-end metrics, measured for ``run_seconds`` of ``BENCHMARK.json``)
and one traced run (per-layer metrics) with ``run.py`` on seed ``SEED``,
prints each metric by name and unit, and prints the fail rate
with its base.  It exits 1 when any command failed the correctness gate.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 1


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(f"  | {line}")
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run.py failed on {workload} (exit {proc.returncode})")
    return json.loads(lines[-1])


def main():
    with open("BENCHMARK.json", "r", encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]
    attempted = failed = 0
    for workload in sorted(workloads.WHY):
        print(f"== {workload}: {workloads.WHY[workload]}")
        for trace in (0, 1):
            result = run_once(workload, SEED, seconds, trace)
            attempted += result["attempted"]
            failed += result["failed"]
            kind = "per-layer" if trace else "end-to-end"
            for name, metric in result["metrics"].items():
                print(f"{workload} {kind} {name} = {metric['value']:.6g} {metric['unit']}")
            print(f"{workload} {kind} fail_rate = {result['failed']}/{result['attempted']}")
    print(f"fail_rate = {failed}/{attempted} commands")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
