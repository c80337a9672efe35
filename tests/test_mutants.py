"""The mutation catalogue of ``tests/mutants.py`` stays applicable.

Running the 75 entries took 108 s on a 2-vCPU VM with Python 3.11, under
the ``no-explain`` Hypothesis profile of ``tests/conftest.py``; with
Hypothesis's explain phase left on, 32 entries took 100-108 s.  It is not part of
tier-1; this only checks, in milliseconds, that every entry still changes something
real: its old text occurs exactly once in its source file, the new text
differs, and each test it names exists.
"""

import os
import re

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_old_text_occurs_once(mutant):
    with open(os.path.join(ROOT, "src", "skewgin", mutant.file), encoding="utf-8") as handle:
        source = handle.read()
    assert source.count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests
    for node in mutant.tests:
        path, name = node.split("::")
        with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
            assert re.search(rf"^def {re.escape(name)}\(", handle.read(), re.M), node
