"""Graded quivers, paths, and exact path-algebra arithmetic.

Composition convention, fixed system-wide: ``p * q`` means "first traverse
p, then q", paths are written left to right.  ``e_i * a = a`` exactly when
a starts at i.  All linear algebra on path algebras happens on bounded-
length components, so every enumeration takes an explicit length bound.

A linear combination is one call, ``AlgElement(quiver, field, pairs)``
over (path, scalar) pairs, summed by ``Field.accumulate``.  The cached
path layers of ``paths_by_length`` are tuples, shared by every caller.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from .errors import SkewginError


class Arrow(NamedTuple):
    """A named arrow src -> tgt of degree deg."""

    name: str
    src: str
    tgt: str
    deg: int = 0


class Path(NamedTuple):
    """A composable arrow-name sequence; arrows == () is the trivial path.

    Length means len(p.arrows); the source vertex disambiguates trivial paths.
    """

    source: str
    arrows: tuple


class GradedQuiver:
    def __init__(self, vertices, arrows):
        self.vertices = tuple(vertices)
        self.arrows = tuple(a if isinstance(a, Arrow) else Arrow(*a) for a in arrows)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        self.arrow_by_name = {}
        for a in self.arrows:
            if a.name in self.arrow_by_name:
                raise ValueError(f"duplicate arrow name {a.name!r}")
            if a.src not in self.vertices or a.tgt not in self.vertices:
                raise ValueError(f"arrow {a.name!r} references unknown vertex")
            self.arrow_by_name[a.name] = a
        self.arrows_from = {v: [] for v in self.vertices}
        self.arrows_to = {v: [] for v in self.vertices}
        for a in self.arrows:
            self.arrows_from[a.src].append(a)
            self.arrows_to[a.tgt].append(a)
        self._path_layers = []  # paths by length, see paths_by_length

    def __eq__(self, other):
        return (isinstance(other, GradedQuiver)
                and self.vertices == other.vertices and self.arrows == other.arrows)

    def arrow(self, name: str) -> Arrow:
        try:
            return self.arrow_by_name[name]
        except KeyError:
            raise SkewginError(f"no arrow named {name!r}") from None

    def arrows_between(self, src: str, tgt: str) -> tuple:
        """The names of the arrows src -> tgt, sorted: the basis of that
        arrow block.  () when there are none or a vertex is unknown."""
        return tuple(sorted(a.name for a in self.arrows_from.get(src, ()) if a.tgt == tgt))

    # -- paths --

    def trivial_path(self, vertex: str) -> Path:
        if vertex not in self.vertices:
            raise ValueError(f"unknown vertex {vertex!r}")
        return Path(vertex, ())

    def path(self, arrow_names) -> Path:
        """Path from a nonempty composable arrow-name list."""
        names = tuple(arrow_names)
        if not names:
            raise ValueError("empty arrow list; use trivial_path")
        first = self.arrow(names[0])
        p = Path(first.src, names)
        if not self.is_composable(p):
            raise ValueError(f"arrows do not compose: {names}")
        return p

    def is_composable(self, p: Path) -> bool:
        at = p.source
        for name in p.arrows:
            a = self.arrow(name)
            if a.src != at:
                return False
            at = a.tgt
        return True

    def path_target(self, p: Path) -> str:
        return self.arrow(p.arrows[-1]).tgt if p.arrows else p.source

    def path_degree(self, p: Path) -> int:
        return sum(self.arrow(n).deg for n in p.arrows)

    def is_cycle(self, p: Path) -> bool:
        return self.path_target(p) == p.source

    def compose(self, p: Path, q: Path):
        """Concatenation p then q, or None when endpoints mismatch."""
        if self.path_target(p) != q.source:
            return None
        if not p.arrows:
            return q
        return Path(p.source, p.arrows + q.arrows)


def path_sort_key(p: Path):
    """Global term order: by length, then arrow names, then base vertex."""
    return (len(p.arrows), p.arrows, p.source)


def basis_up_to(quiver: GradedQuiver, bound: int):
    """All paths of length <= bound in the deterministic global order."""
    if bound < 0:
        raise ValueError("length bound must be >= 0")
    out = [quiver.trivial_path(v) for v in sorted(quiver.vertices)]
    layer = list(out)
    for _ in range(bound):
        nxt = []
        for p in layer:
            end = quiver.path_target(p)
            for a in quiver.arrows_from[end]:
                nxt.append(Path(p.source, p.arrows + (a.name,)))
        layer = nxt
        out.extend(layer)
    out.sort(key=path_sort_key)
    return out


def count_paths_up_to(quiver: GradedQuiver, bound: int, cap: int) -> int:
    """The number of paths of length <= bound, without listing them.

    Multiplies the all-ones vector by the adjacency matrix once per length,
    so ends[w] counts the paths of the current length that end at w.
    Stops when no path is left, or as soon as the total passes cap; the
    result is then only known to exceed cap.
    """
    ends = dict.fromkeys(quiver.vertices, 1)
    total = len(ends)
    for _ in range(bound):
        if total > cap or not any(ends.values()):
            break
        step = dict.fromkeys(quiver.vertices, 0)
        for a in quiver.arrows:
            step[a.tgt] += ends[a.src]
        ends = step
        total += sum(ends.values())
    return total


def paths_by_length(quiver: GradedQuiver, bound: int):
    """Paths of length <= bound grouped by length in basis order, in a new
    dict of the tuples cached on the quiver: only a larger bound enumerates
    again."""
    layers = quiver._path_layers
    if not 0 <= bound < len(layers):  # basis_up_to rejects a negative bound
        grouped = [[] for _ in range(bound + 1)]
        for p in basis_up_to(quiver, bound):
            grouped[len(p.arrows)].append(p)
        layers = quiver._path_layers = [tuple(layer) for layer in grouped]
    return {ell: layer for ell, layer in enumerate(layers[:bound + 1]) if layer}


class AlgElement:
    """Finite scalar combination of paths of one quiver over one field."""

    __slots__ = ("quiver", "field", "terms")

    def __init__(self, quiver, field, terms=None):
        self.quiver = quiver
        self.field = field
        self.terms = {}
        if terms:
            field.accumulate(self.terms, terms.items() if isinstance(terms, dict) else terms)

    # -- constructors --

    @classmethod
    def zero(cls, quiver, field):
        return cls(quiver, field)

    @classmethod
    def from_path(cls, quiver, field, path, coeff=None):
        return cls(quiver, field, {path: field.one() if coeff is None else coeff})

    @classmethod
    def from_arrow(cls, quiver, field, name, coeff=None):
        a = quiver.arrow(name)
        return cls.from_path(quiver, field, Path(a.src, (name,)), coeff)

    # -- structure --

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other):
        if self.quiver != other.quiver:
            raise SkewginError("elements live on different quivers")
        if self.field != other.field:
            raise SkewginError("elements live over different fields")

    def __eq__(self, other):
        if not isinstance(other, AlgElement):
            return NotImplemented
        return (self.quiver == other.quiver and self.field == other.field
                and self.terms == other.terms)

    def __add__(self, other):
        self._check(other)
        return AlgElement(self.quiver, self.field, chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other):
        self._check(other)
        return AlgElement(self.quiver, self.field,
                          chain(self.terms.items(), ((p, -c) for p, c in other.terms.items())))

    def __mul__(self, other):
        if not isinstance(other, AlgElement):
            return NotImplemented
        self._check(other)
        compose = self.quiver.compose
        res = AlgElement(self.quiver, self.field)
        res.terms = self.field.accumulate({}, (
            (pq, cp * cr)
            for p, cp in self.terms.items()
            for r, cr in other.terms.items()
            if (pq := compose(p, r)) is not None))
        return res

    def degree(self):
        """Common degree of all terms, or None if inhomogeneous/zero."""
        degs = {self.quiver.path_degree(p) for p in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: path_sort_key(kv[0]))
