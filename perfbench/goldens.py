"""Record the sha256 of every report for a range of seeds.

    python3 perfbench/goldens.py --seeds 0-29

Run from a checkout root.  Each command runs once as a fresh process; a
report is recorded only if it passes every other check of the gate.  A
seed whose reports fail is printed as a defect and left unrecorded, never
skipped silently.  Recorded hashes are merged into ``goldens.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import gate
import run
import workloads


def record(workload, seed, src, goldens):
    workdir = os.path.join(run.HERE, ".work", f"goldens-{workload}-seed{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    plan = workloads.generate(workload, seed, workdir)
    env = run.child_env(src)
    deadline = time.perf_counter() + run.RUN_LIMIT_S
    hashes, defects = {}, []
    for argv in [plan["setup"]] + plan["commands"]:
        out_path = os.path.join(workdir, "out")
        result = run.launch(argv, workdir, env, out_path, deadline)
        with open(out_path, "rb") as handle:
            output = handle.read()
        problems = gate.check(plan, argv, result["returncode"], output, {})
        if problems:
            defects.append(f"{gate.command_key(argv)!r}: {'; '.join(problems)}")
        hashes[gate.command_key(argv)] = gate.sha256(output)
    shutil.rmtree(workdir, ignore_errors=True)
    if defects:
        for line in defects:
            print(f"DEFECT workload={workload} seed={seed} command={line}")
        return False
    goldens.setdefault(workload, {})[str(seed)] = hashes
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range such as 0-29")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    src = os.path.join(os.getcwd(), "src")
    goldens = gate.load_goldens() if os.path.exists(gate.GOLDENS_PATH) else {}
    ok = True
    for workload in sorted(workloads.WHY):
        for seed in seeds:
            ok = record(workload, seed, src, goldens) and ok
            print(f"{workload} seed {seed} done", flush=True)
    with open(gate.GOLDENS_PATH, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
