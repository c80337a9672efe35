"""The skew group algebra of a path algebra: arithmetic, length components,
commutator subspaces, and expression modulo commutators with certificates.

Elements are supported on (path, group element) pairs; the product rule is
(p.g)(q.h) = p.(g acting on q).(gh), so group elements slide right while
twisting what they pass.  A term's length is the length of its path part.
All class computations happen inside a single length component, which
commutators and length-zero idempotents preserve.

A product of two multi-term elements is regrouped by the paths q of its
right operand, so each (g, q) image is cleared once and each p.r built once
(see ``CrossedElement.__mul__``).
"""

from __future__ import annotations

from math import lcm

from .errors import FieldMismatch, NotLengthHomogeneous, QuiverMismatch
from .quiver import AlgElement, Path, path_sort_key, paths_by_length


class CrossedElement:
    """Finite scalar combination of (path, group element) pairs."""

    __slots__ = ("action", "terms")

    def __init__(self, action, terms=None):
        self.action = action
        self.terms = {}
        if terms:
            action.field.accumulate(
                self.terms, terms.items() if isinstance(terms, dict) else terms)

    # -- constructors --

    @classmethod
    def zero(cls, action):
        return cls(action)

    @classmethod
    def from_pair(cls, action, path, g: int, coeff=None):
        coeff = action.field.one() if coeff is None else coeff
        return cls(action, {(path, g): coeff})

    @classmethod
    def from_alg(cls, action, x: AlgElement, g: int | None = None):
        """Embed a path-algebra element, tensored with one group element."""
        if x.quiver != action.quiver:
            raise QuiverMismatch("element lives on a different quiver")
        if x.field != action.field:
            raise FieldMismatch("element lives over a different field")
        g = action.group.identity if g is None else g
        return cls(action, {(p, g): c for p, c in x.terms.items()})

    @classmethod
    def one(cls, action):
        ident = action.group.identity
        one = action.field.one()
        return cls(action, {(action.quiver.trivial_path(v), ident): one
                            for v in action.quiver.vertices})

    # -- structure --

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other):
        if self.action is not other.action:
            if (self.action.quiver != other.action.quiver
                    or self.action.field != other.action.field):
                raise QuiverMismatch("elements belong to different crossed products")

    def __eq__(self, other):
        if not isinstance(other, CrossedElement):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        self._check(other)
        res = CrossedElement(self.action)
        res.terms = self.action.field.accumulate(dict(self.terms), other.terms.items())
        return res

    def __neg__(self):
        f = self.action.field
        res = CrossedElement(self.action)
        res.terms = {k: f.neg(c) for k, c in self.terms.items()}
        return res

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff):
        f = self.action.field
        res = CrossedElement(self.action)
        if coeff != f.zero():
            res.terms = {k: f.mul(coeff, c) for k, c in self.terms.items()}
        return res

    def __mul__(self, other):
        """(p.g)(q.h) = sum of c * p.r.gh over the terms c * r of g acting on q.

        When one operand has at most one term there are few products, and
        they go straight into one ``Field.accumulate`` as field scalars.
        Otherwise the product runs on the field's scaled integers (see
        ``skewgin.fields``), regrouped by path:

        - both operands are cleared once, and the right one is grouped by
          its path q into the (h, c) pairs that share it;
        - the image of each distinct (g, q) is cleared once, brought to one
          common denominator, and keyed by the source vertex of its paths,
          so whether p composes with the image is one dict lookup on the
          target of p per (p, g, q), exact for any action, validated or not;
        - each path p.r is built once and serves every h of its q, and the
          plain int products are unscaled once per key at the end.
        """
        if not isinstance(other, CrossedElement):
            return NotImplemented
        self._check(other)
        action = self.action
        field, quiver = action.field, action.quiver
        gmul, act_path = action.group.mul, action.act_path
        if len(self.terms) <= 1 or len(other.terms) <= 1:
            compose = quiver.compose
            res = CrossedElement(action)
            res.terms = field.accumulate({}, (
                ((pr, gmul(g, h)), cp * cq * cr)
                for (p, g), cp in self.terms.items()
                for (q, h), cq in other.terms.items()
                for r, cr in act_path(g, q).terms.items()
                if (pr := compose(p, r)) is not None))
            return res
        den_left, left = field.scaled(self.terms.items())
        den_right, right = field.scaled(other.terms.items())
        by_path = {}
        for (q, h), cq in right:
            by_path.setdefault(q, []).append((h, cq))
        cleared = {(g, q): field.scaled(act_path(g, q).terms.items())
                   for g in {g for (_, g), _ in left} for q in by_path}
        den_image = lcm(*{den for den, _ in cleared.values()})
        # per g, one (image of q by source vertex, [(gh, c_q)]) per path q
        kernel = {}
        for (g, q), (den, ints) in cleared.items():
            scale = den_image // den
            by_source = {}
            for r, cr in ints:
                by_source.setdefault(r.source, []).append((r, cr * scale))
            kernel.setdefault(g, []).append(
                (by_source, [(gmul(g, h), cq) for h, cq in by_path[q]]))
        target = quiver.path_target
        acc = {}
        get = acc.get
        for (p, g), cp in left:
            end, head = target(p), p.arrows
            for by_source, twists in kernel[g]:
                composable = by_source.get(end)
                if composable is None:
                    continue
                for r, cr in composable:
                    pr = Path(p.source, head + r.arrows) if head else r
                    c = cp * cr
                    for gh, cq in twists:
                        key = (pr, gh)
                        acc[key] = get(key, 0) + c * cq
        res = CrossedElement(action)
        res.terms = field.unscale(acc, den_left * den_right * den_image)
        return res

    def pure_length(self):
        ls = {len(p.arrows) for (p, _) in self.terms}
        if len(ls) != 1:
            raise NotLengthHomogeneous(f"element mixes path lengths {sorted(ls)}")
        return ls.pop()

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda kv: (path_sort_key(kv[0][0]), kv[0][1]))

    def __repr__(self):
        if not self.terms:
            return "0"
        names = self.action.group.names
        f = self.action.field
        bits = []
        for (p, g), c in self.sorted_terms():
            word = "".join(p.arrows) if p.arrows else f"e_{p.source}"
            bits.append(f"{f.format(c)}*{word}.{names[g]}")
        return " + ".join(bits)


def crossed_basis(action, length: int):
    """Ordered (path, group element) pairs of one length component."""
    paths = paths_by_length(action.quiver, length).get(length, [])
    return [(p, g) for p in paths for g in action.group.elements()]


def basis_index(action, length: int):
    return {key: i for i, key in enumerate(crossed_basis(action, length))}


def vectorize(x: CrossedElement, index: dict) -> dict:
    return {index[key]: c for key, c in x.terms.items()}


class CommutatorTerm:
    """One spanning commutator [u, v] = uv - vu of a length component."""

    __slots__ = ("u", "v", "element")

    def __init__(self, u, v, element):
        self.u = u
        self.v = v
        self.element = element


def commutator_basis(action, length: int):
    """Spanning set of the commutator subspace of one length component.

    Iterates basis pairs u = (p, g), v = (q, h) with len(p) + len(q) equal
    to the requested length, keeping each unordered pair once and dropping
    zero commutators.
    """
    out = []
    accumulate = action.field.accumulate
    for s in range(length // 2 + 1):
        t = length - s
        left = crossed_basis(action, s)
        right = crossed_basis(action, t)
        for i, u in enumerate(left):
            start = i + 1 if s == t else 0
            for v in right[start:]:
                eu = CrossedElement.from_pair(action, *u)
                ev = CrossedElement.from_pair(action, *v)
                elem = eu * ev
                accumulate(elem.terms, ((k, -c) for k, c in (ev * eu).terms.items()))
                if not elem.is_zero():
                    out.append(CommutatorTerm(u, v, elem))
    return out


def expand_certificate(action, certificate) -> CrossedElement:
    """Re-expand a list of ((u, v), coeff) commutator entries exactly.

    Every coeff * uv and -coeff * vu goes straight into one accumulator.
    """
    total = CrossedElement(action)
    acc, accumulate = total.terms, action.field.accumulate
    for (u, v), coeff in certificate:
        eu = CrossedElement.from_pair(action, *u)
        ev = CrossedElement.from_pair(action, *v)
        accumulate(acc, ((k, coeff * c) for k, c in (eu * ev).terms.items()))
        accumulate(acc, ((k, -coeff * c) for k, c in (ev * eu).terms.items()))
    return total


def express_modulo_commutators(solver, target, action, length: int, index: dict):
    """Write target as the solver's labelled vectors plus commutators.

    The solver's own labelled vectors are tried first.  Only then is the
    commutator span of the length component built and fed in, the
    commutators touching the residual's support first, in basis order, and
    the target is expressed once more.  The labelled inputs are
    independent, so the combination is unique and does not depend on how
    much of the span is in.  Returns (combination of the caller's labels,
    certificate entries ((u, v), coeff)), or None.
    """
    combo = solver.express(target)
    if combo is None:
        support = set(solver.residual(target))
        terms = commutator_basis(action, length)
        vectors = [vectorize(term.element, index) for term in terms]
        order = sorted(range(len(terms)), key=lambda k: support.isdisjoint(vectors[k]))
        for k in order:
            solver.add(vectors[k], label=terms[k])
        combo = solver.express(target)
        if combo is None:
            return None
    own, certificate = {}, []
    for label, coeff in combo.items():
        if isinstance(label, CommutatorTerm):
            certificate.append(((label.u, label.v), coeff))
        else:
            own[label] = coeff
    return own, certificate
