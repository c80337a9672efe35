"""Exact incremental Gaussian elimination on sparse vectors.

Vectors are dicts mapping basis indices (any sortable keys) to nonzero
scalars of a fixed :class:`~skewgin.fields.Field`.  The solver keeps plain
echelon rows, each under its pivot (its least key).  Over GF(p) rows are
residues with pivot 1.  Over Q elimination is fraction-free (cf. Bareiss
1968): vectors are cleared to integers, rows are cross-multiplied rather
than divided, and each stored row has its content divided out and a
positive pivot, so no Fraction is built until a residual is returned.
A labelled input that enlarges the span records the int multipliers of
the rows that reduced it, so ``express`` reduces its target once and
back-substitutes, with no second elimination; rank-only use records
nothing.  Insertion order is part of the contract: pivots are deterministic.
"""

from __future__ import annotations

from fractions import Fraction
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

    def _scaled(self, vec):
        """(kernel scalars, scale) with vec = kernel / scale, zeros dropped.

        Over Q the kernel vector is integral, cleared by the least common
        denominator; over GF(p) it is vec reduced and the scale is 1.  An
        int vector over Q, or one of reduced nonzero residues over GF(p),
        is taken as it is.
        """
        values, p = vec.values(), self.field.p
        if p is None:
            if set(map(type, values)) <= {int}:
                return {k: c for k, c in vec.items() if c}, 1
        elif not vec or 0 < min(values) and max(values) < p:
            return dict(vec), 1
        den, items = self.field.scaled(vec.items())
        return dict(items), den

    def _eliminate(self, vec, scale=1, out=None, steps=None):
        """Reduce vec (kernel scalars) against the rows, least key first.

        Works in place.  Returns the first key that has no row, or None
        once vec is empty.  With out given, such keys move into out as field
        scalars (vec / scale) and the reduction runs to the end.  With steps
        given, each row used appends (pivot, multiplier, scale after it).
        """
        rows, p = self.rows, self.field.p
        while vec:
            k = min(vec)
            row = rows.get(k)
            if row is None:
                if out is None:
                    return k
                v = vec.pop(k)
                out[k] = v if p is not None else Fraction(v, scale)
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
        work, den = self._scaled(vec)
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
            self._records.append((pivot, label, scale * den, g, mults))
        return True

    def contains(self, vec: dict) -> bool:
        return self._eliminate(self._scaled(vec)[0]) is None

    def span_test(self, vec: dict):
        """A function telling whether vec is in the span now.  It keeps vec
        reduced in place between calls, so each call meets only the rows
        added since: the least key left has no row until a row pivots on it."""
        work = self._scaled(vec)[0]
        return lambda: self._eliminate(work) is None

    def residual(self, vec: dict) -> dict:
        """The fully reduced form of vec; empty iff vec lies in the span."""
        out = {}
        self._eliminate(*self._scaled(vec), out=out)
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
        work, den = self._scaled(vec)
        steps = []
        if self._eliminate(work, steps=steps) is not None:
            return None
        scale, mults = self._multipliers(steps)
        on_rows = f.accumulate({}, ((k, f.ratio(m, scale * den)) for k, m in mults))
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
    """Inverse of a square matrix given as a list of rows; None if singular.

    Row j of the inverse is the combination of the rows of mat that gives
    the j-th unit vector.
    """
    solver = LinSolver(field)
    for i, row in enumerate(mat):
        if not solver.add(dict(enumerate(row)), label=i):
            return None
    inverse = []
    for j in range(len(mat)):
        combo = solver.express({j: field.one()})
        inverse.append([combo.get(i, field.zero()) for i in range(len(mat))])
    return inverse
