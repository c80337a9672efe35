"""The dg algebra of a quiver with potential: doubled quiver, differential,
square-zero checking, and truncated Jacobian dimensions.

Construction, for CY dimension d >= 3 and a potential homogeneous of degree
3 - d: every arrow a: x -> y of degree n gets a dual generator a*: y -> x of
degree 2 - d - n, every vertex i a loop c_i of degree 1 - d.  The
differential vanishes on the base arrows, sends a* to the cyclic derivative
of the potential at a, and sends c_i to the signed sum of a a* minus a* a
over arrows incident to i.  In the graded case the incidence sums need the
sign weights below or the differential fails to square to zero; with all
arrow degrees 0 they reduce to plain +1.

Each term of d(gen) runs from the source to the target of gen, so d acts
on a path by splicing those terms in for each arrow, with no product.
"""

from __future__ import annotations

from itertools import chain

from .errors import SkewginError
from .linalg import LinSolver
from .potential import Potential, cyclic_derivative, cycle_length_of, degree_of
from .quiver import AlgElement, Arrow, GradedQuiver, Path, paths_by_length


def star_name(arrow_name: str) -> str:
    return arrow_name + "*"


def loop_name(vertex: str) -> str:
    return "c_" + vertex


def double_quiver(quiver: GradedQuiver, d: int):
    """The doubled quiver with dual arrows and vertex loops."""
    if d < 3:
        raise SkewginError("CY dimension must be >= 3")
    arrows = list(quiver.arrows)
    for a in quiver.arrows:
        arrows.append(Arrow(star_name(a.name), a.tgt, a.src, 2 - d - a.deg))
    for v in quiver.vertices:
        arrows.append(Arrow(loop_name(v), v, v, 1 - d))
    return GradedQuiver(quiver.vertices, arrows)


class GinzburgPresentation:
    """Doubled quiver plus the differential on its generators."""

    def __init__(self, quiver, potential, d, doubled, differential):
        self.quiver = quiver
        self.potential = potential
        self.d = d
        self.doubled = doubled
        self.differential = differential  # generator name -> AlgElement over doubled

    def generators(self):
        return [a.name for a in self.doubled.arrows]

    def diff_of(self, gen: str) -> AlgElement:
        return self.differential[gen]

    def apply_differential(self, x: AlgElement) -> AlgElement:
        """Extend d to paths as a derivation, d(uv) = d(u)v + (-1)^deg(u) u d(v):
        each arrow of a path is replaced in turn by the terms of its
        differential, signed by the degree of the prefix before it.  Every
        term of d(gen) runs from the source to the target of gen, so it
        splices into the path in the arrow's place."""
        arrow, differential = self.doubled.arrow, self.differential

        def terms():
            for path, coeff in x.terms.items():
                arrows, prefix_deg = path.arrows, 0
                for i, name in enumerate(arrows):
                    signed = coeff if prefix_deg % 2 == 0 else -coeff
                    head, tail = arrows[:i], arrows[i + 1:]
                    for r, c in differential[name].terms.items():
                        yield Path(path.source, head + r.arrows + tail), signed * c
                    prefix_deg += arrow(name).deg

        return AlgElement(self.doubled, x.field, terms())


def ginzburg(quiver: GradedQuiver, potential: Potential, d: int) -> GinzburgPresentation:
    """Assemble the presentation; the potential must have degree 3 - d.

    The zero potential is accepted at any d (it yields the undeformed
    construction).
    """
    if potential.quiver != quiver:
        raise SkewginError("potential lives on a different quiver")
    w_deg = degree_of(potential)
    if not potential.is_zero() and w_deg != 3 - d:
        raise SkewginError(f"potential degree {w_deg} != 3 - d = {3 - d}")
    doubled = double_quiver(quiver, d)
    field = potential.field
    one, neg = field.one(), field.from_int(-1)
    differential = {a.name: AlgElement.zero(doubled, field) for a in quiver.arrows}
    for a in quiver.arrows:
        differential[star_name(a.name)] = AlgElement(
            doubled, field, cyclic_derivative(potential, a.name).terms)
    for v in quiver.vertices:
        # weight (-1)^deg(a) on outgoing a a*, -(-1)^(d*deg(a)) on incoming a* a
        differential[loop_name(v)] = AlgElement(doubled, field, chain(
            ((Path(v, (a.name, star_name(a.name))), one if a.deg % 2 == 0 else neg)
             for a in quiver.arrows_from[v]),
            ((Path(v, (star_name(a.name), a.name)), neg if (d * a.deg) % 2 == 0 else one)
             for a in quiver.arrows_to[v])))
    return GinzburgPresentation(quiver, potential, d, doubled, differential)


def check_d_squared(presentation: GinzburgPresentation):
    """Evaluate d^2 on every generator; returns the nonzero offenders.

    Empty report means d^2 = 0 everywhere, since d is a derivation.
    """
    report = []
    for gen in presentation.generators():
        once = presentation.diff_of(gen)
        twice = presentation.apply_differential(once)
        if not twice.is_zero():
            report.append((gen, twice))
    return report


def degree_report(presentation: GinzburgPresentation):
    """Generators whose differential is not homogeneous of degree deg + 1."""
    bad = []
    for gen in presentation.generators():
        img = presentation.diff_of(gen)
        if img.is_zero():
            continue
        expected = presentation.doubled.arrow(gen).deg + 1
        if img.degree() != expected:
            bad.append((gen, expected, img.degree()))
    return bad


def derivative_relations(w: Potential):
    """The nonzero cyclic derivatives of w, one per arrow in quiver order."""
    relations = [cyclic_derivative(w, a.name) for a in w.quiver.arrows]
    return [r for r in relations if not r.is_zero()]


def relation_ideal(relations, by_len, bound: int, rel_len: int):
    """Rank solvers spanning the relation ideal I, one per length 0..bound.

    relations are nonzero elements of one length rel_len, and by_len groups
    the paths by length in basis order (``paths_by_length``).  The solver of
    length ell is keyed by path code (``quiver.codes``).  It spans

        I_ell = A_1 . I_(ell-1) + A_0 . R . A_(ell-rel_len),

    since p.r.q with |p| >= 1 is an arrow times an element of I_(ell-1).
    Each length takes e_v.r.q for every vertex v and path q of length
    ell - rel_len, and then the vectors that enlarged the previous length,
    each prefixed by every arrow into its source.  Both only concatenate
    codes of the relations' paths, each relation cleared once
    (``Field.scaled``), so no product is formed and no scalar is touched.
    (This order eliminated about twice as fast as the reverse one on the
    McKay documents at length 7.)
    """
    quiver, field = relations[0].quiver, relations[0].field
    encode, concat = quiver.codes.encode, quiver.codes.concat
    pieces = {}  # (i, v, w) -> the part e_v.r.e_w of relation i
    for i, rel in enumerate(relations):
        for p, c in field.scaled(rel.terms.items())[1]:
            pieces.setdefault((i, p.source, quiver.path_target(p)), {})[encode(p)] = c
    arrow_code = {a.name: encode(Path(a.src, (a.name,))) for a in quiver.arrows}
    grown = []  # (source vertex, vector) that enlarged the previous length
    for ell in range(bound + 1):
        solver = LinSolver(field)
        if ell >= rel_len:
            starting = {}
            for q in by_len.get(ell - rel_len, []):
                starting.setdefault(q.source, []).append(encode(q))
            vectors = chain(
                ((v, {concat(p, q): c for p, c in piece.items()})
                 for (_, v, w), piece in pieces.items() for q in starting.get(w, [])),
                ((a.src, {concat(arrow_code[a.name], k): c for k, c in vec.items()})
                 for v, vec in grown for a in quiver.arrows_to[v]))
            grown = []
            for v, vec in vectors:
                if solver.add(vec):
                    grown.append((v, vec))
        yield solver


def jacobian_truncation(quiver: GradedQuiver, potential: Potential, bound: int):
    """Dimensions of the length components of kQ modulo the derivative ideal.

    Valid for the trivially graded, d = 3 case: the potential must have all
    cycles of one length so the ideal is length-homogeneous and the
    truncation is exact.
    """
    if potential.quiver != quiver:
        raise SkewginError("potential lives on a different quiver")
    if any(a.deg != 0 for a in quiver.arrows):
        raise SkewginError("Jacobian truncation requires all arrow degrees 0")
    cyc_len = cycle_length_of(potential)
    if cyc_len is None:
        raise SkewginError("potential mixes cycle lengths")
    relations = derivative_relations(potential)
    by_len = paths_by_length(quiver, bound)
    sizes = [len(by_len.get(ell, [])) for ell in range(bound + 1)]
    if not relations:
        return sizes
    return [size - ideal.rank for size, ideal in
            zip(sizes, relation_ideal(relations, by_len, bound, cyc_len - 1))]
