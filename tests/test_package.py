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


def test_cli_import_loads_no_dataclasses_or_inspect():
    # start-up cost is paid by every command: importing the CLI must not pull
    # in dataclasses or inspect beyond what a bare interpreter loads
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys\n{}\n"
             "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")

    def loaded(statement):
        return subprocess.run([sys.executable, "-c", probe.format(statement)], env=env,
                              capture_output=True, text=True, check=True).stdout

    assert loaded("import skewgin.cli") == loaded("pass")
