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
"""

from __future__ import annotations

from .errors import DegreeMismatch, DimensionTooSmall, NotLengthHomogeneous, QuiverMismatch
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
        raise DimensionTooSmall("CY dimension must be >= 3")
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
        """Extend d to products: d(uv) = d(u)v + (-1)^deg(u) u d(v)."""
        q, f = self.doubled, x.field
        out = AlgElement.zero(q, f)
        for path, coeff in x.terms.items():
            prefix_deg = 0
            for i, name in enumerate(path.arrows):
                dgen = self.differential[name]
                if not dgen.is_zero():
                    pre = path.arrows[:i]
                    post = path.arrows[i + 1:]
                    left = (AlgElement.from_path(q, f, Path(path.source, pre))
                            if pre else AlgElement.from_path(q, f, q.trivial_path(path.source)))
                    piece = left * dgen
                    if post:
                        gen_tgt = q.arrow(name).tgt
                        piece = piece * AlgElement.from_path(q, f, Path(gen_tgt, post))
                    sign = f.one() if prefix_deg % 2 == 0 else f.neg(f.one())
                    out = out + piece.scale(f.mul(sign, coeff))
                prefix_deg += q.arrow(name).deg
        return out


def _lift(x: AlgElement, doubled) -> AlgElement:
    res = AlgElement(doubled, x.field)
    res.terms = dict(x.terms)
    return res


def ginzburg(quiver: GradedQuiver, potential: Potential, d: int) -> GinzburgPresentation:
    """Assemble the presentation; the potential must have degree 3 - d.

    The zero potential is accepted at any d (it yields the undeformed
    construction).
    """
    if potential.quiver != quiver:
        raise QuiverMismatch("potential lives on a different quiver")
    w_deg = degree_of(potential)
    if not potential.is_zero() and w_deg != 3 - d:
        raise DegreeMismatch(f"potential degree {w_deg} != 3 - d = {3 - d}")
    doubled = double_quiver(quiver, d)
    field = potential.field
    one = field.one()
    neg = field.neg(one)
    differential = {}
    for a in quiver.arrows:
        differential[a.name] = AlgElement.zero(doubled, field)
    for a in quiver.arrows:
        differential[star_name(a.name)] = _lift(cyclic_derivative(potential, a.name), doubled)
    for v in quiver.vertices:
        acc = AlgElement.zero(doubled, field)
        for a in quiver.arrows_from[v]:
            # weight (-1)^deg(a) on outgoing a a*
            c = one if a.deg % 2 == 0 else neg
            acc = acc + AlgElement.from_path(doubled, field, Path(v, (a.name, star_name(a.name))), c)
        for a in quiver.arrows_to[v]:
            # weight -(-1)^(d*deg(a)) on incoming a* a
            c = neg if (d * a.deg) % 2 == 0 else one
            acc = acc + AlgElement.from_path(doubled, field, Path(v, (star_name(a.name), a.name)), c)
        differential[loop_name(v)] = acc
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


def relation_ideal_span(relations, by_len, ell: int, rel_len: int):
    """The nonzero products p.r.q of length ell spanning the relation ideal.

    relations are elements of one length rel_len; by_len groups the paths
    by length, and p and q run over the groups whose lengths add up to
    ell - rel_len, in basis order.
    """
    quiver, field = relations[0].quiver, relations[0].field
    free = ell - rel_len
    for s in range(free + 1):
        for p in by_len.get(s, []):
            left = AlgElement.from_path(quiver, field, p)
            for rel in relations:
                lr = left * rel
                if lr.is_zero():
                    continue
                for q in by_len.get(free - s, []):
                    vec = lr * AlgElement.from_path(quiver, field, q)
                    if not vec.is_zero():
                        yield vec


def jacobian_truncation(quiver: GradedQuiver, potential: Potential, bound: int):
    """Dimensions of the length components of kQ modulo the derivative ideal.

    Valid for the trivially graded, d = 3 case: the potential must have all
    cycles of one length so the ideal is length-homogeneous and the
    truncation is exact.
    """
    if potential.quiver != quiver:
        raise QuiverMismatch("potential lives on a different quiver")
    if any(a.deg != 0 for a in quiver.arrows):
        raise DegreeMismatch("Jacobian truncation requires all arrow degrees 0")
    cyc_len = cycle_length_of(potential)
    if cyc_len is None:
        raise NotLengthHomogeneous("potential mixes cycle lengths")
    relations = derivative_relations(potential)
    rel_len = cyc_len - 1
    by_len = paths_by_length(quiver, bound)
    dims = []
    for ell in range(bound + 1):
        layer = by_len.get(ell, [])
        if not relations or ell < rel_len:
            dims.append(len(layer))
            continue
        solver = LinSolver(potential.field)
        for vec in relation_ideal_span(relations, by_len, ell, rel_len):
            solver.add(vec.terms)
        dims.append(len(layer) - solver.rank)
    return dims
