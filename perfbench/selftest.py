"""Self-tests of the benchmark (stdlib unittest; about a minute).

    python3 perfbench/selftest.py

Run from a checkout root.  They check that tracing leaves every report
byte-identical to a plain CLI run of the same seed, that two traced runs
give exactly the same counts, that every named metric is emitted and
reads non-zero exactly on the workloads whose layers it measures, that
the generator is deterministic, that the gate rejects what it should, that
a reference reading is near the speed it is scaled to, and that ``run.py``
fails without a result outside a checkout.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SEED = 0

_CLI = ["validate", "invariance", "ginzburg", "reduce", "transport", "verify", "weyl"]
_MORITA_ACTION_GINZBURG_CROSSED = [
    name for name, _ in tracer.PER_LAYER
    if name.split(".")[0] in ("document", "morita", "action", "ginzburg", "crossed")
    or name.startswith("quiver.") or name == "linalg.express.calls"]
_WEYL = [name for name, _ in tracer.PER_LAYER if name.startswith("weyl.")]

# Metrics that must read 0 on a workload because it never reaches that code.
NOT_REACHED = {
    "s3-q-verify": {f"cli.{c}.wall_s" for c in _CLI if c not in ("validate", "verify")}
    | {"ginzburg.check_d_squared_s"} | set(_WEYL),
    "mckay-gfp-session": {"cli.weyl.wall_s", "crossed.commutator_basis_s",
                          "crossed.commutators"} | set(_WEYL),
    "weyl-n2-f5": {f"cli.{c}.wall_s" for c in _CLI if c != "weyl"}
    | set(_MORITA_ACTION_GINZBURG_CROSSED),
}


def _plain_outputs(plan, workdir):
    env = run.child_env(SRC)
    outputs = {}
    for argv in [plan["setup"]] + plan["commands"]:
        path = os.path.join(workdir, "plain.out")
        run.launch(argv, workdir, env, path, time.perf_counter() + run.RUN_LIMIT_S)
        with open(path, "rb") as handle:
            outputs[gate.command_key(argv)] = handle.read()
    return outputs


def _traced(plan, workdir):
    commands = [plan["setup"]] + [c for c in plan["commands"] if c != plan["setup"]]
    result = run.inproc_pass(commands, workdir, run.child_env(SRC), SRC, True,
                             time.perf_counter() + run.RUN_LIMIT_S)
    outputs = {}
    for item in result["commands"]:
        with open(os.path.join(workdir, item["output"]), "rb") as handle:
            outputs[gate.command_key(item["argv"])] = handle.read()
    return result, outputs


def _counts(result):
    dump = result["trace"]
    spans = {}
    for nid, *_ in dump["spans"]:
        spans[dump["names"][nid]] = spans.get(dump["names"][nid], 0) + 1
    return dump["counters"], spans


class TracedRuns(unittest.TestCase):
    """One plain and two traced passes per workload, shared by the tests."""

    @classmethod
    def setUpClass(cls):
        cls.workdir = os.path.join(HERE, ".work", "selftest")
        shutil.rmtree(cls.workdir, ignore_errors=True)
        cls.runs = {}
        for workload in sorted(workloads.WHY):
            workdir = os.path.join(cls.workdir, workload)
            plan = workloads.generate(workload, SEED, workdir)
            plain = _plain_outputs(plan, workdir)
            first = _traced(plan, workdir)
            second = _traced(plan, workdir)
            cls.runs[workload] = (plan, plain, first, second)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def test_tracing_leaves_reports_byte_identical(self):
        for workload, (_, plain, (_, first), (_, second)) in self.runs.items():
            with self.subTest(workload=workload):
                self.assertEqual(plain, first)
                self.assertEqual(plain, second)

    def test_two_traced_runs_give_the_same_counts(self):
        for workload, (_, _, (first, _), (second, _)) in self.runs.items():
            with self.subTest(workload=workload):
                self.assertEqual(_counts(first), _counts(second))

    def test_every_hook_is_installed(self):
        for workload, (_, _, (first, _), _) in self.runs.items():
            with self.subTest(workload=workload):
                self.assertEqual(first["trace"]["missing_hooks"], [])

    def test_every_metric_is_emitted_where_it_applies(self):
        for workload, (_, _, (first, _), _) in self.runs.items():
            metrics = tracer.aggregate(first["trace"], 1.0, first["wall_s"])
            self.assertEqual(sorted(metrics), sorted(n for n, _ in tracer.PER_LAYER))
            for name, _ in tracer.PER_LAYER:
                if name == "trace.overhead_s":
                    continue
                with self.subTest(workload=workload, metric=name):
                    if name in NOT_REACHED[workload]:
                        self.assertEqual(metrics[name], 0)
                    else:
                        self.assertGreater(metrics[name], 0)

    def test_reports_pass_the_gate(self):
        for workload, (plan, plain, _, _) in self.runs.items():
            for argv in [plan["setup"]] + plan["commands"]:
                with self.subTest(workload=workload, command=argv):
                    output = plain[gate.command_key(argv)]
                    self.assertEqual(gate.check(plan, argv, 0, output, gate.load_goldens()), [])


class Gate(unittest.TestCase):

    def setUp(self):
        self.plan = {"workload": "mckay-gfp-session", "seed": "x",
                     "dimension_tables": {"verify": [3, 9]}, "weyl_cokernel": 126}

    def _verify(self, corner):
        table = [{"length": 0, "corner": 3, "reduced": 3},
                 {"length": 1, "corner": corner, "reduced": 9}]
        return json.dumps({"ok": True, "checks": [{"table": table}]}).encode()

    def test_accepts_the_expected_table(self):
        self.assertEqual(gate.check(self.plan, ["verify"], 0, self._verify(9), {}), [])

    def test_rejects_a_wrong_table_an_exit_code_and_a_hash(self):
        self.assertTrue(gate.check(self.plan, ["verify"], 0, self._verify(8), {}))
        self.assertTrue(gate.check(self.plan, ["verify"], 1, self._verify(9), {}))
        goldens = {"mckay-gfp-session": {"x": {"verify": "0" * 64}}}
        self.assertTrue(gate.check(self.plan, ["verify"], 0, self._verify(9), goldens))

    def test_checks_the_weyl_homology(self):
        plan = dict(self.plan, workload="weyl-n2-f5", dimension_tables={})

        def report(h1):
            return json.dumps({
                "ok": True, "n": 2,
                "resolution": {"homology": {"1": h1}, "augmentation_cokernel": 126},
                "dual": {"homology": {"3": 0, "4": 126}, "top_homology": 126}}).encode()

        self.assertEqual(gate.check(plan, ["weyl"], 0, report(0), {}), [])
        self.assertTrue(gate.check(plan, ["weyl"], 0, report(1), {}))

    def test_rejects_a_report_that_is_not_ok(self):
        report = json.dumps({"ok": False, "checks": []}).encode()
        self.assertTrue(gate.check(self.plan, ["validate", "doc.json"], 0, report, {}))


class Generator(unittest.TestCase):

    def test_same_seed_same_files(self):
        with tempfile.TemporaryDirectory(dir=os.path.join(HERE, ".work")) as tmp:
            for workload in workloads.WHY:
                a, b = os.path.join(tmp, workload, "a"), os.path.join(tmp, workload, "b")
                workloads.generate(workload, 7, a)
                workloads.generate(workload, 7, b)
                for name in os.listdir(a):
                    with open(os.path.join(a, name), "rb") as x, \
                            open(os.path.join(b, name), "rb") as y:
                        self.assertEqual(x.read(), y.read())

    def test_weyl_matrices_are_symplectic(self):
        import random
        form = workloads._form(workloads.WEYL_N)
        for seed in range(50):
            mat = workloads.symplectic_matrix(random.Random(seed), workloads.WEYL_N)
            self.assertTrue(workloads.is_symplectic(mat, form))
            self.assertEqual(sum(1 for row in mat for v in row if v), 6)


class Reference(unittest.TestCase):

    def test_a_reading_is_near_the_reference_speed(self):
        # Hosts may differ by a few times, not by orders of magnitude; a
        # reading far outside this range means UNIT_S or the unit is wrong.
        self.assertLess(reference.UNIT_S / 5, reference.reading(0.05))
        self.assertLess(reference.reading(0.05), reference.UNIT_S * 5)


class OutsideACheckout(unittest.TestCase):

    def test_run_fails_without_a_result(self):
        with tempfile.TemporaryDirectory(dir=os.path.join(HERE, ".work")) as tmp:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", "weyl-n2-f5",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn(b'"correct"', proc.stdout)


if __name__ == "__main__":
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    unittest.main()
