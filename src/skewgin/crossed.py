"""The skew group algebra of a path algebra: arithmetic, length components,
commutator subspaces, and expression modulo commutators with certificates.

Elements are supported on (path, group element) pairs; the product rule is
(p.g)(q.h) = p.(g acting on q).(gh), so group elements slide right while
twisting what they pass.  A term's length is the length of its path part.
All class computations happen inside a single length component, which
commutators and length-zero idempotents preserve.

Every image g acting on q is cleared to (den, int terms) once per action
(``QuiverAction.cleared_image``).  A product of two multi-term elements is
regrouped by the paths q of its right operand, so each p.r is built once
(see ``CrossedElement.__mul__``), and the basis-pair products (p, g)(q, h)
of commutators and certificates are read straight off the cleared image,
with one unscale per commutator or certificate.  The commutator feed of
``express_modulo_commutators`` stops as soon as the target is in the span.
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
        - the cleared image of each distinct (g, q) comes from the action's
          cache and is filed under g and the common source vertex of its
          paths, so the images that compose with p are one dict lookup on
          (g, target of p), exact for any action, validated or not; the
          factor that brings an image to the common denominator goes into
          its (gh, c_q) pairs, never into the shared cached list;
        - each path p.r is built once and serves every h of its q, and the
          plain int products are unscaled once per key at the end.
        """
        if not isinstance(other, CrossedElement):
            return NotImplemented
        self._check(other)
        action = self.action
        field, quiver = action.field, action.quiver
        gmul = action.group.mul
        if len(self.terms) <= 1 or len(other.terms) <= 1:
            compose, act_path = quiver.compose, action.act_path
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
        cleared_image = action.cleared_image
        cleared = {(g, q): cleared_image(g, q)
                   for g in {g for (_, g), _ in left} for q in by_path}
        den_image = lcm(*{den for den, _ in cleared.values()})
        # per (g, source vertex), one (image of q, [(gh, c_q)]) per path q
        kernel = {}
        for (g, q), (den, image) in cleared.items():
            if image:
                scale = den_image // den
                kernel.setdefault((g, image[0][0].source), []).append(
                    (image, [(gmul(g, h), cq * scale) for h, cq in by_path[q]]))
        target = quiver.path_target
        acc = {}
        get = acc.get
        for (p, g), cp in left:
            head = p.arrows
            for image, twists in kernel.get((g, target(p)), ()):
                for r, cr in image:
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


def _pair_product(action, u, v):
    """(den, [(key, int)]) of the basis-pair product u v = (p, g)(q, h):
    the terms c * r of the cleared image den, [(r, c)] of g acting on q
    become c * p.r.gh, and the list is empty when p does not compose with
    the image.  The keys are distinct, and the cached image is only read."""
    (p, g), (q, h) = u, v
    den, image = action.cleared_image(g, q)
    if not image or action.quiver.path_target(p) != image[0][0].source:
        return den, []
    gh, head = action.group.mul(g, h), p.arrows
    return den, [((Path(p.source, head + r.arrows) if head else r, gh), c)
                 for r, c in image]


def _commutator_ints(action, u, v):
    """(den, [(key, int)]) with the commutator [u, v] = uv - vu the sum of
    the int / den; a key may occur twice, once from each product."""
    den_uv, uv = _pair_product(action, u, v)
    den_vu, vu = _pair_product(action, v, u)
    den = lcm(den_uv, den_vu)
    a, b = den // den_uv, -(den // den_vu)
    return den, [(key, a * c) for key, c in uv] + [(key, b * c) for key, c in vu]


def commutator_basis(action, length: int):
    """Spanning set of the commutator subspace of one length component.

    Iterates basis pairs u = (p, g), v = (q, h) with len(p) + len(q) equal
    to the requested length, keeping each unordered pair once and dropping
    zero commutators.  Each commutator is summed on ints from the cleared
    images of its two basis-pair products and unscaled once.
    """
    out = []
    accumulate, unscale = action.field.accumulate, action.field.unscale
    for s in range(length // 2 + 1):
        t = length - s
        left = crossed_basis(action, s)
        right = crossed_basis(action, t)
        for i, u in enumerate(left):
            start = i + 1 if s == t else 0
            for v in right[start:]:
                den, ints = _commutator_ints(action, u, v)
                if terms := unscale(accumulate({}, ints), den):
                    elem = CrossedElement(action)
                    elem.terms = terms
                    out.append(CommutatorTerm(u, v, elem))
    return out


def expand_certificate(action, certificate) -> CrossedElement:
    """Re-expand a list of ((u, v), coeff) commutator entries exactly.

    The coefficients are cleared once, every coeff * [u, v] goes on ints
    into one accumulator over the least common denominator of the
    commutators, and the sum is unscaled once.
    """
    field = action.field
    den_coeff, entries = field.scaled(certificate)
    commutators = [(coeff, *_commutator_ints(action, u, v)) for (u, v), coeff in entries]
    den = lcm(*{d for _, d, _ in commutators})
    acc = {}
    for coeff, d, ints in commutators:
        factor = coeff * (den // d)
        field.accumulate(acc, ((key, factor * c) for key, c in ints))
    total = CrossedElement(action)
    total.terms = field.unscale(acc, den_coeff * den)
    return total


def express_modulo_commutators(solver, target, action, length: int, index: dict):
    """Write target as the solver's labelled vectors plus commutators.

    Every input of the solver must carry a label.  The solver's own
    labelled vectors are tried first.  Only then is the commutator span of
    the length component built and fed in, the commutators touching the
    residual's support first, in basis order.  The feed stops as soon as
    the target is in the span, which is checked only after an insertion
    that enlarged it, and the target is expressed once more.  The labelled
    inputs are independent, so the combination is unique: a commutator fed
    after the stop would get coefficient 0, and the certificate is the one
    the whole feed gives.  Returns (combination of the caller's labels,
    certificate entries ((u, v), coeff)), or None.
    """
    combo = solver.express(target)
    if combo is None:
        support = set(solver.residual(target))
        terms = commutator_basis(action, length)
        vectors = [vectorize(term.element, index) for term in terms]
        order = sorted(range(len(terms)), key=lambda k: support.isdisjoint(vectors[k]))
        for k in order:
            if solver.add(vectors[k], label=terms[k]) and solver.contains(target):
                break
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
