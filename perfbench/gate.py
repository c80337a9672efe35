"""Correctness gate: every report of every run is checked here.

A command passes when it exits 0, its report says ``ok``, the invariants
of its workload hold, and, for a seed with recorded goldens, the report's
sha256 equals the recorded one.  Reports are bytes: a speed-up must not
change a single one.
"""

from __future__ import annotations

import hashlib
import json
import os

GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")


def load_goldens(path=GOLDENS_PATH):
    """The recorded report hashes; a missing file is an error, never {}."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def command_key(argv):
    return " ".join(argv)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _table_failures(report, expected):
    checks = [c for c in report.get("checks", []) if "table" in c]
    if len(checks) != 1:
        return ["no dimension table in the verify report"]
    table = checks[0]["table"]
    got = [(row["length"], row["corner"], row["reduced"]) for row in table]
    want = [(l, d, d) for l, d in enumerate(expected)]
    if got != want:
        return [f"dimension table {got} != expected {want}"]
    return []


def _weyl_failures(report, cokernel):
    out = []
    homology = report["resolution"]["homology"]
    if any(v != 0 for v in homology.values()):
        out.append(f"resolution homology {homology} is not zero")
    if report["resolution"]["augmentation_cokernel"] != cokernel:
        out.append(f"augmentation cokernel {report['resolution']['augmentation_cokernel']}"
                   f" != C(f+2n, 2n) = {cokernel}")
    dual = report["dual"]
    off_top = {k: v for k, v in dual["homology"].items() if k != str(2 * report["n"])}
    if any(v != 0 for v in off_top.values()) or dual["top_homology"] != cokernel:
        out.append(f"dual homology {dual['homology']} is not {cokernel} at the top only")
    return out


def check(plan, argv, returncode, output: bytes, goldens):
    """Failure messages for one command's run; an empty list is a pass."""
    failures = []
    if returncode != 0:
        failures.append(f"exit code {returncode}")
    if argv[0] != "--version":
        try:
            report = json.loads(output)
        except ValueError:
            return failures + ["stdout is not one JSON report"]
        command = argv[0]
        try:
            if report.get("ok") is not True:
                failures.append("report is not ok")
            if command in plan["dimension_tables"]:
                failures += _table_failures(report, plan["dimension_tables"][command])
            if command == "weyl":
                failures += _weyl_failures(report, plan["weyl_cokernel"])
        except (KeyError, TypeError, AttributeError) as exc:
            failures.append(f"report lacks an expected field: {exc!r}")
    elif not output.strip():
        failures.append("--version printed nothing")
    recorded = goldens.get(plan["workload"], {}).get(str(plan["seed"]), {})
    want = recorded.get(command_key(argv))
    if want is not None and sha256(output) != want:
        failures.append(f"report sha256 {sha256(output)[:16]}... != golden {want[:16]}...")
    return failures
