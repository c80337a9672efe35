"""A fixed reference computation that measures how fast the host runs now.

On a shared host the speed of one CPU drifts by up to 2x over seconds to
minutes, and every command's wall time drifts with it.  ``run.py`` times
this computation on the command's CPU while the command runs, and
multiplies the command's times by ``scale(readings)``.  The scaled figure
is the time the command would take on a host where one unit takes
``UNIT_S``: it stays put when the host slows the reference and the command
alike, and it moves in full when only the command changes.

The computation is pure-Python exact elimination of a fixed 16x16 matrix
of Fractions, the same kind of work as the program's own linear algebra,
and it never touches the program.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

# Median time of one unit on a 2-vCPU Xeon VM with Python 3.11 in its fast
# phases: the speed that the scaled figures are expressed at.
UNIT_S = 0.004
# How program times follow the unit's time when the host slows down: they
# grow as unit time ** ELASTICITY.  Over ten runs of each workload on that
# VM, fitted to the log of the run medians, the exponent came out 0.76
# (mckay-gfp-session), 0.85 (s3-q-verify) and 0.90 (weyl-n2-f5), with
# correlations of 0.96-0.99; process start-up follows less, about 0.5.
ELASTICITY = 0.8


def scale(readings):
    """Factor that brings times measured alongside readings to reference speed."""
    return (UNIT_S / statistics.median(readings)) ** ELASTICITY

_ROWS = None


def _rows():
    global _ROWS
    if _ROWS is None:
        rng = random.Random(5)
        _ROWS = [{j: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                  for j in range(16) if rng.random() < 0.5} for _ in range(16)]
    return _ROWS


def unit():
    """Wall seconds of one elimination of the fixed matrix."""
    rows = _rows()
    start = time.perf_counter()
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            col = min(row)
            if col not in pivots:
                scale = 1 / row[col]
                pivots[col] = {j: v * scale for j, v in row.items()}
                break
            factor = row[col]
            for j, v in pivots[col].items():
                nv = row.get(j, 0) - factor * v
                if nv:
                    row[j] = nv
                else:
                    row.pop(j, None)
    return time.perf_counter() - start


def reading(budget_s):
    """Median unit time over repeated units that fill budget_s (at least one)."""
    times = [unit()]
    spent = times[0]
    while spent < budget_s:
        times.append(unit())
        spent += times[-1]
    return statistics.median(times)
