"""Exact incremental Gaussian elimination on sparse vectors.

Vectors are dicts mapping basis indices (any sortable keys) to nonzero
kernel ints of a fixed :class:`~skewgin.fields.Field`, residues in [1, p)
over GF(p); callers clear field scalars once with ``field.scaled(pairs)``,
a positive scaling that changes no row, pivot or rank.  The solver copies
its input and keeps plain echelon rows, each under its pivot (its least
key).  Over GF(p) rows are residues with pivot 1.  Over Q elimination is
fraction-free (cf. Bareiss 1968): rows are cross-multiplied rather than
divided, and each stored row has its content divided out and a positive
pivot, so no field scalar is built until a result is returned.
A labelled input that enlarges the span records the int multipliers of
the rows that reduced it, so ``express`` reduces its target once and
back-substitutes, with no second elimination; rank-only use records
nothing.  Insertion order is part of the contract: pivots are deterministic.
"""

from __future__ import annotations

from math import gcd


class LinSolver:
    """Echelon span of labelled sparse vectors over an exact field."""

    def __init__(self, field):
        self.field = field
        self.rows = {}     # pivot key -> echelon row in kernel scalars
        self._records = []  # (pivot, label, m, g, steps): g * row = m * input - sum(s * rows[k])

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _eliminate(self, vec, out=None, steps=None):
        """Reduce vec (kernel ints) against the rows, least key first.

        Works in place.  Returns the first key that has no row, or None
        once vec is empty.  With out given, such keys move into out as field
        scalars (``Field.ratio`` of the int and the cross-multiplications'
        scale) and the reduction runs to the end.  With steps given, each
        row used appends (pivot, multiplier, scale after it).
        """
        rows, f, p, scale = self.rows, self.field, self.field.p, 1
        while vec:
            k = min(vec)
            row = rows.get(k)
            if row is None:
                if out is None:
                    return k
                v = vec.pop(k)
                out[k] = f.ratio(v, scale)
                continue
            if p is not None:
                c = vec[k]
                if steps is not None:
                    steps.append((k, c, scale))
                for kk, v in row.items():
                    nv = (vec.get(kk, 0) - c * v) % p
                    if nv:
                        vec[kk] = nv
                    else:
                        del vec[kk]
                continue
            # vec <- a * vec - c * row, with a * vec[k] = c * row[k]
            r = row[k]
            g = gcd(r, vec[k])
            c = vec[k] // g
            if g != r:
                a = r // g
                scale *= a
                for kk in vec:
                    vec[kk] *= a
            if steps is not None:
                steps.append((k, c, scale))
            for kk, v in row.items():
                nv = vec.get(kk, 0) - c * v
                if nv:
                    vec[kk] = nv
                else:
                    del vec[kk]
        return None

    @staticmethod
    def _multipliers(steps):
        """(scale, [(pivot, m)]) with the reduced vector scale * vec - sum(m *
        rows[pivot]): each m rescaled by the cross-multiplications after it."""
        scale = steps[-1][2] if steps else 1
        return scale, [(k, c * (scale // s)) for k, c, s in steps]

    def add(self, vec: dict, label=None) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        work = dict(vec)
        steps = None if label is None else []
        pivot = self._eliminate(work, steps=steps)
        if pivot is None:
            return False
        p = self.field.p
        if p is not None:
            inv = self.field.inv(g := work[pivot])
            work = {k: v * inv % p for k, v in work.items()}
        else:
            g = gcd(*work.values())
            g = -g if work[pivot] < 0 else g
            work = {k: v // g for k, v in work.items()}
        self.rows[pivot] = work
        if label is not None:
            scale, mults = self._multipliers(steps)
            self._records.append((pivot, label, scale, g, mults))
        return True

    def contains(self, vec: dict) -> bool:
        return self._eliminate(dict(vec)) is None

    def span_test(self, vec: dict):
        """A function telling whether vec is in the span now.  It keeps vec
        reduced in place between calls, so each call meets only the rows
        added since: the least key left has no row until a row pivots on it."""
        work = dict(vec)
        return lambda: self._eliminate(work) is None

    def residual(self, vec: dict) -> dict:
        """The fully reduced form of vec; empty iff vec lies in the span."""
        out = {}
        self._eliminate(dict(vec), out=out)
        return out

    def express(self, vec: dict):
        """Write vec as a combination of previously added labelled vectors.

        Returns a dict label -> coefficient in insertion order, a repeated
        label getting the sum of its inputs' coefficients, or None if vec is
        outside the span of the labelled vectors.  The inputs that enlarged
        the span are independent, so the combination is unique: vec is
        reduced once over the rows, then each labelled row, newest first,
        passes its coefficient on to its input and the rows that reduced it.
        """
        f = self.field
        steps = []
        if self._eliminate(dict(vec), steps=steps) is not None:
            return None
        scale, mults = self._multipliers(steps)
        on_rows = f.accumulate({}, ((k, f.ratio(m, scale)) for k, m in mults))
        on_inputs = []
        for pivot, label, m, g, row_steps in reversed(self._records):
            c = on_rows.pop(pivot, None)
            if c is None:
                continue
            c = f.div(c, g)
            on_inputs.append((label, f.mul(c, m)))
            f.accumulate(on_rows, ((k, -c * s) for k, s in row_steps))
        return None if on_rows else f.accumulate({}, reversed(on_inputs))


def invert_matrix(field, mat):
    """Inverse of a square matrix given as a list of rows of field scalars;
    None if singular.  Each row is cleared once (``Field.scaled``); row j of
    the inverse, the combination of the rows that gives the j-th unit
    vector, is each row's den (1 over GF(p)) times its cleared row's
    coefficient."""
    solver, dens = LinSolver(field), []
    for i, row in enumerate(mat):
        den, items = field.scaled(list(enumerate(row)))
        dens.append(den)
        if not solver.add(dict(items), label=i):
            return None
    inverse = []
    for j in range(len(mat)):
        combo = solver.express({j: 1})
        inverse.append([combo.get(i, field.zero()) * den for i, den in enumerate(dens)])
    return inverse
