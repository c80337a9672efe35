"""Seeded end-to-end benchmark of the skewgin CLI.

Run from the root of a checkout (the directory holding ``src/skewgin``):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it drives ``python -m skewgin.cli`` as fresh child
processes, one at a time (a closed loop with one client), repeating the
workload's command list until ``--seconds`` are used, and reports medians
of the end-to-end metrics, with times scaled to reference speed (see
``reference.py``).  With ``--trace 1`` it runs the command list
once in-process untraced and once traced, each in a fresh interpreter, and
reports the per-layer metrics.  Every report of every command is checked
by the correctness gate.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

# Set-up launches per run; their median is setup_s.
SETUP_REPEATS = 9
# Seconds between reference readings while a command runs.
READING_PERIOD_S = 0.2
# Fewest readings a command's time is scaled by.
READING_WINDOW = 5
# Every run ends well inside the three minutes one run may take.
RUN_LIMIT_S = 170.0


class Failures:
    """Failed commands of one run, printed with workload, seed and command."""

    def __init__(self, plan):
        self.plan = plan
        self.attempted = 0
        self.failed = 0

    def record(self, argv, returncode, output_path, goldens, label=""):
        self.attempted += 1
        with open(output_path, "rb") as handle:
            output = handle.read()
        problems = gate.check(self.plan, argv, returncode, output, goldens)
        if problems:
            self.failed += 1
            print(f"FAIL workload={self.plan['workload']} seed={self.plan['seed']}"
                  f"{label} command={gate.command_key(argv)!r}: {'; '.join(problems)}")
        return output


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(argv, workdir, env, out_path, deadline):
    """Run one CLI command as a fresh process and take reference readings
    on its CPU every ``READING_PERIOD_S`` while it runs.

    The child runs at the lowest priority, so each reading preempts it for
    a few milliseconds and sees the CPU at the speed the child sees it.  The
    wall time returned leaves the readings out.  The child is killed at the
    deadline.
    """
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "skewgin.cli", *argv],
                                cwd=workdir, env=env, stdout=out, stderr=err)
        readings = []
        try:
            os.setpriority(os.PRIO_PROCESS, proc.pid, 19)
            pidfd = os.pidfd_open(proc.pid)
            try:
                while not select.select([pidfd], [], [], READING_PERIOD_S)[0]:
                    if time.perf_counter() > deadline:
                        proc.kill()
                    readings.append(reference.unit())
            finally:
                os.close(pidfd)
            wall = time.perf_counter() - start - sum(readings)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # never leave the child running
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "returncode": proc.returncode,
            "readings": readings}


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so that the readings
    are taken on the CPU the commands run on."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class ScaledLauncher:
    """Launches commands and scales their times to reference speed.

    One more reading is taken after each command exits.  A command's scale
    comes from the readings taken while it ran and just after, topped up
    with the latest earlier readings to at least ``READING_WINDOW`` of them
    for commands too short to take that many.
    """

    def __init__(self, workdir, env, deadline):
        self.workdir, self.env, self.deadline = workdir, env, deadline
        pin_to_one_cpu()
        self.readings = [reference.unit() for _ in range(READING_WINDOW)]

    def launch(self, argv, out_path):
        run = launch(argv, self.workdir, self.env, out_path, self.deadline)
        self.readings += run["readings"] + [reference.unit()]
        window = self.readings[-max(READING_WINDOW, len(run["readings"]) + 1):]
        scale = reference.scale(window)
        run["scaled_wall"] = run["wall"] * scale
        run["scaled_cpu"] = run["cpu"] * scale
        return run


def spread(values):
    """Median, quartiles and count of a sample, for the detail lines."""
    values = sorted(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return (f"median={statistics.median(values):.4f} q1={q1:.4f} q3={q3:.4f} "
            f"min={values[0]:.4f} max={values[-1]:.4f} n={len(values)}")


def timed_run(plan, workdir, env, seconds, goldens, failures, deadline):
    launcher = ScaledLauncher(workdir, env, deadline)
    setup, raw_setup = [], []
    for _ in range(SETUP_REPEATS):
        out_path = os.path.join(workdir, "setup.out")
        run = launcher.launch(plan["setup"], out_path)
        failures.record(plan["setup"], run["returncode"], out_path, goldens, " (set-up)")
        setup.append(run["scaled_wall"])
        raw_setup.append(run["wall"])

    walls, cpus, rsss, raw_walls, took = [], [], [], [], []
    per_command = [[] for _ in plan["commands"]]
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        runs = [launcher.launch(argv, os.path.join(workdir, f"cmd{i}.out"))
                for i, argv in enumerate(plan["commands"])]
        took.append(time.perf_counter() - began)
        walls.append(sum(r["scaled_wall"] for r in runs))
        cpus.append(sum(r["scaled_cpu"] for r in runs))
        rsss.append(max(r["rss_mb"] for r in runs))
        raw_walls.append(sum(r["wall"] for r in runs))
        for i, (argv, run) in enumerate(zip(plan["commands"], runs)):
            failures.record(argv, run["returncode"], os.path.join(workdir, f"cmd{i}.out"),
                            goldens)
            per_command[i].append(run["scaled_wall"])
        elapsed = time.perf_counter() - start
        if (elapsed + statistics.median(took) > seconds
                or time.perf_counter() + 2 * max(took) > deadline):
            break

    for name, values in (("wall_s", walls), ("cpu_s", cpus), ("setup_s", setup),
                         ("peak_rss_mb", rsss), ("unscaled wall_s", raw_walls),
                         ("unscaled setup_s", raw_setup)):
        print(f"{name}: {spread(values)}")
    for argv, values in zip(plan["commands"], per_command):
        print(f"command {gate.command_key(argv)!r} wall_s: {spread(values)}")
    return {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setup), "peak_rss_mb": statistics.median(rsss)}


def inproc_pass(commands, workdir, env, src, trace, deadline):
    tag = "traced" if trace else "plain"
    out = os.path.join(workdir, f"{tag}.json")
    argv = ([sys.executable, os.path.join(HERE, "inproc.py"), "--src", src, "--out", out]
            + (["--trace"] if trace else []) + [json.dumps(commands)])
    subprocess.run(argv, cwd=workdir, env=env, check=True,
                   timeout=max(deadline - time.perf_counter(), 1.0))
    with open(out, "r", encoding="utf-8") as handle:
        return json.load(handle)


def traced_run(plan, workdir, env, src, goldens, failures, deadline):
    commands = list(plan["commands"])
    if plan["setup"] not in commands:
        commands.insert(0, plan["setup"])
    plain = inproc_pass(commands, workdir, env, src, False, deadline)
    traced = inproc_pass(commands, workdir, env, src, True, deadline)
    outputs = {}
    for label, result in (("plain", plain), ("traced", traced)):
        for item in result["commands"]:
            path = os.path.join(workdir, item["output"])
            output = failures.record(item["argv"], item["returncode"], path, goldens,
                                     f" (in-process {label})")
            outputs.setdefault(gate.command_key(item["argv"]), set()).add(output)
    for key, seen in outputs.items():
        if len(seen) != 1:
            failures.failed += 1
            print(f"FAIL workload={plan['workload']} seed={plan['seed']} command={key!r}: "
                  "traced report differs from the untraced one")
    dump = traced["trace"]
    for hook in dump["missing_hooks"]:
        print(f"warning: trace hook {hook} not found; its metrics read 0")
    metrics = tracer.aggregate(dump, plain["wall_s"], traced["wall_s"])
    print(f"trace: {len(dump['spans'])} spans; untraced in-process pass "
          f"{plain['wall_s']:.4f} s, traced {traced['wall_s']:.4f} s, overhead "
          f"{metrics['trace.overhead_s']:.4f} s")
    for ratio, base in tracer.RATIO_BASES.items():
        print(f"{ratio} = {metrics[ratio]:.6f} over {base} = {metrics[base]}")
    return metrics


def run(workload, seed, seconds, trace, root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "skewgin", "cli.py")):
        print(f"error: no skewgin sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    workdir = os.path.join(HERE, ".work", f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    plan = workloads.generate(workload, seed, workdir)
    print(f"workload {workload} seed {seed}: {plan['why']}")
    goldens = gate.load_goldens()
    failures = Failures(plan)
    env = child_env(src)
    if trace:
        values = traced_run(plan, workdir, env, src, goldens, failures, deadline)
        names = tracer.PER_LAYER
    else:
        values = timed_run(plan, workdir, env, seconds, goldens, failures, deadline)
        names = END_TO_END
    print(f"fail_rate: {failures.failed}/{failures.attempted}")
    if failures.failed == 0:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": failures.failed == 0, "attempted": failures.attempted,
              "failed": failures.failed,
              "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names}}
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, args.trace, os.getcwd())


if __name__ == "__main__":
    raise SystemExit(main())
