import importlib
import os
import pkgutil
import subprocess
import sys

import skewgin


def test_every_submodule_is_a_module_attribute():
    # a re-exported function must not shadow the submodule of the same name
    names = [info.name for info in pkgutil.iter_modules(skewgin.__path__)]
    assert "ginzburg" in names
    for name in names:
        module = importlib.import_module(f"skewgin.{name}")
        assert getattr(skewgin, name) is module, name


def fresh_interpreter(code, dirs=("src",)):
    """Stdout of the code run in a new interpreter that finds skewgin in src/
    (and modules in any other given directory of the checkout)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(os.path.join(root, d) for d in dirs))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_cli_import_loads_no_dataclasses_or_inspect():
    # start-up cost is paid by every command: importing the CLI must not pull
    # in dataclasses or inspect beyond what a bare interpreter loads
    probe = ("import sys\n{}\n"
             "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    assert (fresh_interpreter(probe.format("import skewgin.cli"))
            == fresh_interpreter(probe.format("pass")))


def test_cli_import_loads_every_submodule():
    # perfbench/tracer.py patches only modules that are already loaded and
    # records a hook into any other module as missing, so a submodule that
    # the CLI imported lazily would go untraced
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
