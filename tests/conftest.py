"""Hypothesis profiles for the test suite.

``no-explain`` runs every phase but ``Phase.explain``, which after a
failure re-runs the shrunk example to comment on it and costs seconds per
failing test; ``tests/mutants.py`` selects it with
``--hypothesis-profile no-explain``, as there only pass or fail counts.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "no-explain", phases=[phase for phase in Phase if phase is not Phase.explain])
