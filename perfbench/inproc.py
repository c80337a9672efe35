"""Run a command list in one process through ``skewgin.cli.main``.

Used for the traced run: the same pass runs once plain and once with the
tracer installed, each in a fresh interpreter, and the difference of their
wall times is the tracing overhead.  Each command's stdout is written to
``plain-<i>.out`` or ``traced-<i>.out`` in the working directory, and one JSON result (wall
time, exit codes and, when traced, every span and counter) is written to
``--out`` when the pass ends.

    python inproc.py --src SRC --out RESULT [--trace] CMDS_JSON
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time
import traceback


def run_pass(commands, prefix, tracer=None):
    from skewgin import cli

    results = []
    wall = 0.0
    for i, argv in enumerate(commands):
        buffer = io.StringIO()

        def call(argv=argv):
            try:
                return cli.main(list(argv))
            except SystemExit as exc:  # argparse exits after --version
                return exc.code if isinstance(exc.code, int) else 0
            except Exception:  # the CLI as a process would exit 1 here
                traceback.print_exc()
                return 1

        with contextlib.redirect_stdout(buffer):
            start = time.perf_counter()
            code = call() if tracer is None else tracer.command(argv, call)
            wall += time.perf_counter() - start
        out_path = f"{prefix}{i}.out"
        with open(out_path, "wb") as handle:
            handle.write(buffer.getvalue().encode("utf-8"))
        results.append({"argv": argv, "returncode": code, "output": out_path})
    return wall, results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("commands", help="JSON list of argv lists")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import skewgin.cli  # noqa: F401  (import cost stays outside the pass)

    tracer = None
    if args.trace:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    wall, results = run_pass(json.loads(args.commands),
                            "traced-" if args.trace else "plain-", tracer)
    result = {"wall_s": wall, "commands": results,
              "trace": tracer.dump() if tracer is not None else None}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
