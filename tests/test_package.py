import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import skewgin

from docs import MCKAY, doc


def test_every_submodule_is_a_module_attribute():
    # a re-exported function must not shadow the submodule of the same name
    names = [info.name for info in pkgutil.iter_modules(skewgin.__path__)]
    assert "ginzburg" in names
    for name in names:
        module = importlib.import_module(f"skewgin.{name}")
        assert getattr(skewgin, name) is module, name


def fresh_interpreter(code, *args, dirs=("src",), flags=("-c",)):
    """Stdout of the code run with args in a new interpreter that finds
    skewgin in src/ (and modules in any other given directory of the
    checkout).  The interpreter must exit 0."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(os.path.join(root, d) for d in dirs))
    return subprocess.run([sys.executable, *flags, code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_cli_import_loads_no_dataclasses_or_inspect():
    # start-up cost is paid by every command: importing the CLI must not pull
    # in dataclasses or inspect beyond what a bare interpreter loads
    probe = ("import sys\n{}\n"
             "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    assert (fresh_interpreter(probe.format("import skewgin.cli"))
            == fresh_interpreter(probe.format("pass")))


def test_cli_import_loads_every_submodule():
    # perfbench/tracer.py looks each hooked module up in sys.modules and
    # records a hook into a module it does not find there as missing; every
    # submodule is found because the package registers each one, unexecuted
    # until first use, when it is imported
    names = sorted(info.name for info in pkgutil.iter_modules(skewgin.__path__))
    probe = ("import sys\nimport skewgin.cli\n"
             "print(*sorted(m[len('skewgin.'):] for m in sys.modules "
             "if m.startswith('skewgin.')))")
    assert fresh_interpreter(probe).split() == names


def test_every_bench_tracer_hook_is_found():
    # perfbench/tracer.py wraps skewgin functions and methods by name, some
    # of them (Field.add, sub, div, from_int) reached by no command; a hook
    # whose target was renamed or deleted is recorded as missing
    probe = "import tracer\nt = tracer.Tracer()\ntracer.install(t)\nprint(t.missing)"
    assert fresh_interpreter(probe, dirs=("src", "perfbench")) == "[]\n"


def test_cli_runs_as_a_module_without_warnings():
    # runpy warns, and then runs the module a second time, when the module
    # it is asked to run is in sys.modules already: the package must not
    # register skewgin.cli
    assert fresh_interpreter("skewgin.cli", "--version", flags=("-W", "error", "-m")) \
        == skewgin.__version__ + "\n"


# Runs one CLI command, then lists the submodules whose code has run (a
# registered module that nothing has read yet is not a plain module object)
# and, on a second line, the command-line parser modules it loaded.
COMMAND_PROBE = """import contextlib, io, sys, types
from skewgin import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted(name[len('skewgin.'):] for name, module in sys.modules.items()
                    if name.startswith('skewgin.') and name != 'skewgin.cli'
                    and type(module) is types.ModuleType))
print(*[name for name in ('argparse', 'gettext', 'locale') if name in sys.modules])
"""

REDUCTION_AND_WEYL = {"crossed", "morita", "weyl"}

# (argv, the modules it runs exactly or None, modules it never runs or None)
COMMAND_MODULES = [
    (["--version"], {"errors"}, None),
    (["validate", "DOC"], None, REDUCTION_AND_WEYL),
    (["invariance", "DOC"], None, REDUCTION_AND_WEYL),
    (["ginzburg", "--check", "DOC"], None, REDUCTION_AND_WEYL),
    (["reduce", "DOC"], None, {"weyl"}),
    (["transport", "DOC"], None, {"weyl"}),
    (["verify", "--max-len", "2", "DOC"], None, {"weyl"}),
    (["weyl", "--n", "1", "--filtration", "2"], {"errors", "fields", "linalg", "weyl"}, None),
]


@pytest.mark.parametrize("argv, exactly, never", COMMAND_MODULES,
                         ids=[argv[0] for argv, _, _ in COMMAND_MODULES])
def test_each_command_executes_only_the_modules_it_uses(tmp_path, argv, exactly, never):
    # a fresh process compiles only the modules its command runs, so the
    # McKay session's launches skip the Morita and Weyl layers they never use;
    # the command line is read without argparse and the gettext and locale
    # modules it imports
    path = tmp_path / "mckay.json"
    path.write_text(doc(MCKAY), encoding="utf-8")
    ran, parsers = fresh_interpreter(
        COMMAND_PROBE, *(str(path) if a == "DOC" else a for a in argv)).splitlines()
    code, *executed = ran.split()
    assert (code, parsers) == ("0", "")
    if exactly is not None:
        assert set(executed) == exactly
    else:
        assert not never & set(executed)


def test_every_public_name_is_read_from_its_module():
    # the package reads a public name off the module that defines it
    for name in skewgin.__all__[1:]:
        home = skewgin._HOME[name]
        assert getattr(skewgin, name) is getattr(importlib.import_module(f"skewgin.{home}"), name)
    with pytest.raises(AttributeError, match="^module 'skewgin' has no attribute 'nope'$"):
        skewgin.nope
