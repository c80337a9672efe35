import importlib
import pkgutil

import skewgin


def test_every_submodule_is_a_module_attribute():
    # a re-exported function must not shadow the submodule of the same name
    names = [info.name for info in pkgutil.iter_modules(skewgin.__path__)]
    assert "ginzburg" in names
    for name in names:
        module = importlib.import_module(f"skewgin.{name}")
        assert getattr(skewgin, name) is module, name
