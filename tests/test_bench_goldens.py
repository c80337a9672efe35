"""The bench's report-bytes contract, checked in tier-1.

Seed 1 of each bench workload is generated with ``perfbench/workloads.py``
into a temporary directory, each command runs in-process through
``skewgin.cli.main``, and every report must pass ``perfbench/gate.py``'s
``check`` against the recorded ``perfbench/goldens.json``.  Nothing under
``perfbench/`` is written.
"""

import os
import types

import pytest

from skewgin.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def bench_module(name):
    """A perfbench module run from its source, under a name of its own and
    with no bytecode cache written next to it."""
    path = os.path.join(PERFBENCH, f"{name}.py")
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = path
    with open(path, encoding="utf-8") as handle:
        exec(compile(handle.read(), path, "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("workload", ["s3-q-verify", "mckay-gfp-session", "weyl-n2-f5"])
def test_seed_1_reports_match_the_goldens(capsys, tmp_path, monkeypatch, workload):
    gate, workloads = bench_module("gate"), bench_module("workloads")
    goldens = gate.load_goldens()
    plan = workloads.generate(workload, 1, str(tmp_path))
    recorded = goldens[workload]["1"]
    monkeypatch.chdir(tmp_path)
    for argv in plan["commands"]:
        # gate.check passes a command with no recorded hash on the
        # invariants alone, so every command here must have one
        assert gate.command_key(argv) in recorded
        code = main(list(argv))
        output = capsys.readouterr().out.encode("utf-8")
        assert gate.check(plan, argv, code, output, goldens) == [], argv
