"""The skew group algebra of a path algebra: arithmetic, length components,
commutator subspaces, and expression modulo commutators with certificates.

Elements are supported on (path, group element) pairs; the product rule is
(p.g)(q.h) = p.(g acting on q).(gh), so group elements slide right while
twisting what they pass.  A term's length is the length of its path part.
All class computations happen inside a single length component, which
commutators and length-zero idempotents preserve.

Elements hold their scalars as one positive int den and int terms (the
scaled-integer form of ``skewgin.fields``), and are built that way only:
a caller holding field scalars clears them with ``Field.scaled`` first.
Products, sums, commutators and certificate re-expansion run on ints;
field scalars are made only by ``CrossedElement.field_terms`` and
``sorted_terms``, which reports read.  Every image g acting on q is
cleared to (den, int terms) once per action
(``QuiverAction.cleared_image``).  A product of two elements is regrouped
by the paths q of its right operand, so each p.r is built once (see
``CrossedElement.__mul__``); elements are immutable, so the right operand
caches that regrouping.  The basis-pair products
(p, g)(q, h) of commutators and certificates are read straight off the
cleared image.  ``express_modulo_commutators`` takes a target and (label,
element) pairs and returns their combination with a ``Certificate`` for
the commutator part; its feed forms a commutator only when it reaches it,
finding the ones that touch the target's residual through an index of the
cleared images, and stops as soon as the target is in the span.  A
``Certificate`` is one den and int entries, and is read only on ints.
"""

from __future__ import annotations

from math import lcm

from .errors import SkewginError
from .linalg import LinSolver
from .quiver import AlgElement, Path, path_sort_key, paths_by_length


class CrossedElement:
    """Finite scalar combination of (path, group element) pairs.

    The scalars are kept in the scaled-integer form of ``skewgin.fields``:
    one positive int ``den`` and int ``terms``, the scalar of a key being
    its int / den.  Over GF(p) den is 1 and the ints are residues.  Field
    scalars are made only by ``field_terms`` and ``sorted_terms``.
    """

    __slots__ = ("action", "den", "terms", "_tables")

    def __init__(self, action, den: int, terms: dict):
        """The element terms / den; terms holds nonzero ints (residues over
        GF(p), where den is 1) and is taken as it is, not copied."""
        self.action, self.den, self.terms, self._tables = action, den, terms, None

    # -- constructors --

    @classmethod
    def zero(cls, action):
        return cls(action, 1, {})

    @classmethod
    def from_pair(cls, action, path, g: int):
        return cls(action, 1, {(path, g): 1})

    @classmethod
    def from_alg(cls, action, x: AlgElement, g: int | None = None):
        """Embed a path-algebra element, tensored with one group element."""
        if x.quiver != action.quiver:
            raise SkewginError("element lives on a different quiver")
        if x.field != action.field:
            raise SkewginError("element lives over a different field")
        g = action.group.identity if g is None else g
        den, items = action.field.scaled(x.terms.items())
        return cls(action, den, {(p, g): c for p, c in items})

    # -- structure --

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other):
        if self.action is not other.action:
            if self.action.quiver != other.action.quiver:
                raise SkewginError("elements belong to different crossed products")
            if self.action.field != other.action.field:
                raise SkewginError("elements belong to crossed products over different fields")

    def __eq__(self, other):
        """Equal values: the terms cross-multiplied by the other's den."""
        if not isinstance(other, CrossedElement):
            return NotImplemented
        a, b = self.den, other.den
        if a == b:
            return self.terms == other.terms
        theirs = other.terms
        return (self.terms.keys() == theirs.keys()
                and all(c * b == theirs[k] * a for k, c in self.terms.items()))

    def _plus(self, other, sign):
        self._check(other)
        return CrossedElement(self.action, *self.action.field.combine((
            (1, self.den, self.terms.items()), (sign, other.den, other.terms.items()))))

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __mul__(self, other):
        """(p.g)(q.h) = sum of c * p.r.gh over the terms c * r of g acting on q.

        One int kernel: in the right operand's cached ``_table`` for g, the
        images composing with p are one lookup on the target of p.  Each p.r
        serves every h of its q; int products are summed per image den.
        """
        if not isinstance(other, CrossedElement):
            return NotImplemented
        action = self.action
        if other.action is not action:
            self._check(other)
        arrow = action.quiver.arrow_by_name
        tables = other._tables
        if tables is None:
            tables = other._tables = {}
        sums = {}  # image den -> {key: int sum}
        for (p, g), cp in self.terms.items():
            by_source = tables.get(g)
            if by_source is None:
                by_source = tables[g] = other._table(g)
            head = p.arrows
            for den, image, twists in by_source.get(arrow[head[-1]].tgt if head else p.source, ()):
                acc = sums.setdefault(den, {})
                get = acc.get
                for r, cr in image:
                    pr = Path(p.source, head + r.arrows) if head else r
                    c = cp * cr
                    for gh, cq in twists:
                        key = (pr, gh)
                        acc[key] = get(key, 0) + c * cq
        return CrossedElement.from_sums(action, sums, self.den * other.den)

    def _table(self, g):
        """{source vertex: [(den, image, twists)]}: g's cleared image of each
        path q under its paths' source, with the twists (gh, c) of c * (q, h)."""
        cleared_image, gmul = self.action.cleared_image, self.action.group.mul
        by_source, twists_of = {}, {}
        for (q, h), cq in self.terms.items():
            twists = twists_of.get(q)
            if twists is None:
                twists = twists_of[q] = []
                den, image = cleared_image(g, q)
                if image:
                    by_source.setdefault(image[0][0].source, []).append((den, image, twists))
            twists.append((gmul(g, h), cq))
        return by_source

    @classmethod
    def from_sums(cls, action, sums: dict, outer: int):
        """The int sums {d: {key: int}}, each over outer * d, at the lcm of the
        ds (images are never rescaled), in canonical form (``Field.normalized``)."""
        if len(sums) == 1:
            [(den, acc)] = sums.items()
        else:
            den, acc = lcm(*sums), {}
            get = acc.get
            for d, part in sums.items():
                scale = den // d
                for key, s in part.items():
                    acc[key] = get(key, 0) + s * scale
        return cls(action, *action.field.normalized(acc, outer * den))

    def pure_length(self):
        ls = {len(p.arrows) for (p, _) in self.terms}
        if len(ls) != 1:
            raise SkewginError(f"element mixes path lengths {sorted(ls)}")
        return ls.pop()

    def field_terms(self) -> dict:
        """The sparse dict {key: field scalar}: one ``Field.ratio`` per term."""
        ratio, den = self.action.field.ratio, self.den
        return {k: ratio(c, den) for k, c in self.terms.items()}

    def sorted_terms(self):
        return sorted(self.field_terms().items(),
                      key=lambda kv: (path_sort_key(kv[0][0]), kv[0][1]))


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


def _basis_pairs(action, length: int):
    """The basis pairs u = (p, g), v = (q, h) of one length component in
    basis order: len(p) + len(q) = length, len(p) <= len(q), each unordered
    pair once."""
    for s in range(length // 2 + 1):
        left, right = crossed_basis(action, s), crossed_basis(action, length - s)
        for i, u in enumerate(left):
            for v in right[i + 1 if 2 * s == length else 0:]:
                yield u, v


def commutator_basis(action, length: int, pairs):
    """The nonzero commutators of the given basis pairs of one length
    component, in order, each summed on ints from the cleared images of its
    two basis-pair products and kept as den and int terms.  Over all of
    ``_basis_pairs`` they span the component's commutator subspace."""
    out = []
    accumulate = action.field.accumulate
    for u, v in pairs:
        den, ints = _commutator_ints(action, u, v)
        if terms := accumulate({}, ints):
            out.append(CommutatorTerm(u, v, CrossedElement(action, den, terms)))
    return out


class Certificate:
    """Commutator entries ((u, v), coeff), each coeff = terms[u, v] / den:
    one positive int den and int terms, as ``Field.combine`` leaves them."""

    __slots__ = ("den", "terms")

    def __init__(self, den: int, terms: dict):
        self.den, self.terms = den, terms

    def __len__(self):
        return len(self.terms)


def expand_certificate(action, certificate: Certificate) -> CrossedElement:
    """Re-expand a certificate exactly: the int of every entry (u, v) times
    the int terms of [u, v], summed per commutator den into one
    ``CrossedElement.from_sums`` over the certificate's den."""
    sums = {}
    for (u, v), s in certificate.terms.items():
        den, ints = _commutator_ints(action, u, v)
        acc = sums.setdefault(den, {})
        get = acc.get
        for key, c in ints:
            acc[key] = get(key, 0) + s * c
    return CrossedElement.from_sums(action, sums, certificate.den)


def _touching_candidates(action, length: int, keys):
    """The basis pairs, in basis order, whose commutator may have a term on
    one of keys: a product (a, g)(q, h) has a raw term on (s, k) only when
    a is a prefix of s, gh = k and the rest of s is a path of g's image of
    q, so each split of s is looked up in an index of the cleared images."""
    group, quiver = action.group, action.quiver
    sources = {}  # (g, r) -> the paths q whose image under g has the path r
    for layer in paths_by_length(quiver, length).values():
        for g in group.elements():
            for q in layer:
                for r, _ in action.cleared_image(g, q)[1]:
                    sources.setdefault((g, r), []).append(q)
    pairs = set()
    for s, k in keys:
        for i in range(length + 1):
            a = Path(s.source, s.arrows[:i])
            rest = Path(quiver.path_target(a), s.arrows[i:])
            for g in group.elements():
                u, h = (a, g), group.mul(group.inv(g), k)
                pairs.update(pair for q in sources.get((g, rest), ())
                             for pair in ((u, (q, h)), ((q, h), u)))
    return [pair for pair in _basis_pairs(action, length) if pair in pairs]


def _feed(action, length: int, index: dict, support):
    """(commutator, vector) in feed order: those whose vector meets the
    support first, then the rest, each part in basis order.  Only the
    touching candidates are formed up front, the rest when reached."""
    touching = set()
    keys = [key for key, i in index.items() if i in support]
    for term in commutator_basis(action, length, _touching_candidates(action, length, keys)):
        vector = vectorize(term.element, index)
        if not support.isdisjoint(vector):
            touching.add((term.u, term.v))
            yield term, vector
    for pair in _basis_pairs(action, length):
        if pair not in touching:
            for term in commutator_basis(action, length, (pair,)):
                yield term, vectorize(term.element, index)


def express_modulo_commutators(target: CrossedElement, labelled=()):
    """Write target as labelled elements plus commutators of its length.

    labelled holds (label, element) pairs of the target's length; each
    element's int terms go into a fresh ``LinSolver`` in the order given,
    and the target is tried on them first.  Only then are the commutators
    of the length component fed in (``_feed``), each as its int terms, the
    ones touching the residual's support first, in basis order, each
    formed only when the feed reaches it.  The feed stops as soon as the
    target is in the span: after an insertion that enlarged it, only the
    target's residual, cleared once by ``field.scaled``, is reduced further
    (``LinSolver.span_test``), which is exact as the residual holds no
    pivot key; then the target is expressed once more.
    The inputs that enlarged the span are independent, so the combination
    is unique: a commutator fed after the stop would get coefficient 0, and
    the certificate is the one the whole feed gives.  The solver combines
    int vectors, so each coefficient is rescaled by its input's den over
    the target's den; the commutators enter one ``Field.combine`` that way.
    Returns (combination of the labels, ``Certificate``), or None; the
    zero target is the empty combination.
    """
    action, field = target.action, target.action.field
    if target.is_zero():
        return {}, Certificate(1, {})
    length = target.pure_length()
    index = basis_index(action, length)
    solver = LinSolver(field)
    dens = {}
    for label, element in labelled:
        solver.add(vectorize(element, index), label=label)
        dens[label] = element.den
    vector = vectorize(target, index)
    combo = solver.express(vector)
    if combo is None:
        residual = solver.residual(vector)
        in_span = solver.span_test(dict(field.scaled(residual.items())[1]))
        for term, vec in _feed(action, length, index, set(residual)):
            if solver.add(vec, label=term) and in_span():
                break
        combo = solver.express(vector)
        if combo is None:
            return None
    den = target.den
    own, commutators = {}, []
    for label, coeff in combo.items():
        if isinstance(label, CommutatorTerm):
            commutators.append((coeff, den, (((label.u, label.v), label.element.den),)))
        else:
            own[label] = field.mul(coeff, field.ratio(dens[label], den))
    return own, Certificate(*field.combine(commutators))
