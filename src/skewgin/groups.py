"""Finite groups by multiplication table, group algebras, and primitive
idempotent sets.

Groups stay small (tables are validated exhaustively), elements are plain
indices into the name list.  Idempotent sets are built automatically for
abelian groups via characters; anything else must be supplied and is gated
by :func:`validate_idempotent_set`.
"""

from __future__ import annotations

from math import gcd

from .errors import SkewginError
from .fields import Field, primitive_root_of_unity
from .linalg import LinSolver


class FiniteGroup:
    """Element names plus a validated multiplication table of indices."""

    def __init__(self, names, table, identity, inverses):
        self.names = tuple(names)
        self.table = tuple(tuple(row) for row in table)
        self.identity = identity
        self.inverses = tuple(inverses)

    @property
    def size(self) -> int:
        return len(self.names)

    def elements(self):
        return range(self.size)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def order(self, a: int) -> int:
        n, x = 1, a
        while x != self.identity:
            x = self.mul(x, a)
            n += 1
        return n

    def exponent(self) -> int:
        e = 1
        for a in self.elements():
            o = self.order(a)
            e = e * o // gcd(e, o)
        return e

    def is_abelian(self) -> bool:
        return all(self.mul(a, b) == self.mul(b, a)
                   for a in self.elements() for b in self.elements())

    def index_of(self, name: str) -> int:
        return self.names.index(name)

    def subgroup(self, member_indices):
        """The subgroup on the given ambient indices, as its own group.

        Returns (group, ambient) where ambient[i] is the ambient index of
        the i-th subgroup element.  The member set must be closed.
        """
        ambient = sorted(member_indices)
        pos = {g: i for i, g in enumerate(ambient)}
        table = []
        for a in ambient:
            row = []
            for b in ambient:
                prod = self.mul(a, b)
                if prod not in pos:
                    raise ValueError("subset is not closed under multiplication")
                row.append(pos[prod])
            table.append(row)
        sub = make_group([self.names[g] for g in ambient], table)
        return sub, ambient


def make_group(names, table) -> FiniteGroup:
    """Validate a multiplication table and wrap it up."""
    n = len(names)
    if (not isinstance(table, list) or len(table) != n
            or any(not isinstance(row, list) or len(row) != n for row in table)):
        raise SkewginError(f"table must be {n}x{n}")
    for row in table:
        for v in row:
            if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < n:
                raise SkewginError(f"table entry {v!r} out of range")
    for i, row in enumerate(table):
        if len(set(row)) != n:
            raise SkewginError(f"row {i} repeats an entry")
    for j in range(n):
        if len({table[i][j] for i in range(n)}) != n:
            raise SkewginError(f"column {j} repeats an entry")
    identity = None
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise SkewginError("no two-sided identity element")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise SkewginError(
                        f"({names[a]}*{names[b]})*{names[c]} != {names[a]}*({names[b]}*{names[c]})")
    # the Latin row of a holds e once, at b with ab = e: two-sided, as G is a group
    inverses = [row.index(identity) for row in table]
    return FiniteGroup(names, table, identity, inverses)


def cyclic_group(n: int) -> FiniteGroup:
    names = ["e"] + [f"g{'' if k == 1 else k}" for k in range(1, n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return make_group(names, table)


class GroupAlgebra:
    """kG for a field k with char(k) not dividing |G|.

    Elements are dicts index -> nonzero scalar.
    """

    def __init__(self, group: FiniteGroup, field: Field):
        p = field.characteristic()
        if p and group.size % p == 0:
            raise SkewginError(
                f"char {p} divides |G| = {group.size}; the group order must be invertible")
        self.group = group
        self.field = field

    def one(self):
        return {self.group.identity: self.field.one()}

    def add(self, x: dict, y: dict) -> dict:
        return self.field.accumulate(dict(x), y.items())

    def mul(self, x: dict, y: dict) -> dict:
        gmul = self.group.mul
        return self.field.accumulate({}, (
            (gmul(g, h), cg * ch) for g, cg in x.items() for h, ch in y.items()))

    def right_module_dimension(self, e: dict) -> int:
        """dim of e * kG as a subspace of kG: the rank of the translates e.g
        of e, cleared once here (``field.scaled``), which scales them alike."""
        solver, e = LinSolver(self.field), dict(self.field.scaled(e.items())[1])
        for g in self.group.elements():
            solver.add(_right_translate(self.group, e, g))
        return solver.rank


def _right_translate(group: FiniteGroup, e: dict, g: int) -> dict:
    """e.g, a re-keying h -> hg of e's terms, with no product."""
    return {group.mul(h, g): c for h, c in e.items()}


class IdempotentSet:
    """Orthogonal idempotents with declared irreducible dimensions."""

    def __init__(self, algebra: GroupAlgebra, elements, dims):
        self.algebra = algebra
        self.elements = list(elements)
        self.dims = list(dims)


def characters(group: FiniteGroup, field: Field):
    """All homomorphisms G -> k^x for an abelian group, as value tuples.

    Requires a primitive root of unity of order exp(G); raises SkewginError
    otherwise.  The characters are extended one coset at a time: with H the
    elements reached so far, g the least element outside H and m least with
    g^m in H, each character chi of H extends to H<g> once for every
    exp(G)-th root of unity z with z^m = chi(g^m), by chi(h g^k) = chi(h) z^k.
    That gives m extensions of each, so |G| characters in the end.
    Characters are returned sorted by their value tuples.
    """
    if not group.is_abelian():
        raise SkewginError("character construction requires an abelian group")
    f = field
    exp = group.exponent()
    omega = primitive_root_of_unity(field, exp)
    roots = [f.pow(omega, k) for k in range(exp)]
    chars = [{group.identity: f.one()}]
    while len(chars[0]) < group.size:
        g = min(x for x in group.elements() if x not in chars[0])
        powers = [group.identity]  # g^k for k < m
        gm = g
        while gm not in chars[0]:
            powers.append(gm)
            gm = group.mul(gm, g)
        m = len(powers)
        extended = []
        for chi in chars:
            for z in roots:
                if f.pow(z, m) != chi[gm]:
                    continue
                ext, zk = {}, f.one()
                for gk in powers:
                    ext.update((group.mul(h, gk), f.mul(c, zk)) for h, c in chi.items())
                    zk = f.mul(zk, z)
                extended.append(ext)
        chars = extended
    return sorted(tuple(chi[g] for g in group.elements()) for chi in chars)


def abelian_idempotents(group: FiniteGroup, field: Field) -> IdempotentSet:
    """One primitive idempotent per character: e = (1/|G|) sum chi(g^-1) g."""
    algebra = GroupAlgebra(group, field)
    f = field
    inv_order = f.inv(f.from_int(group.size))
    elements = []
    for chi in characters(group, field):
        e = {}
        for g in group.elements():
            c = f.mul(inv_order, chi[group.inv(g)])
            if c != f.zero():
                e[g] = c
        elements.append(e)
    return IdempotentSet(algebra, elements, [1] * group.size)


def validate_idempotent_set(idem_set: IdempotentSet):
    """Exhaustive gate for a claimed complete set of primitive idempotents.

    Checks idempotency, pairwise orthogonality, the dimension count
    sum(dims^2) = |G|, the module dimension of each e_i kG against its
    declared dim, pairwise non-isomorphism (e_i kG e_j = 0 for i != j), and,
    when every dim is 1, completeness sum(e_i) = 1.  Returns a list of
    failure strings; empty means the set passed.
    """
    alg = idem_set.algebra
    G = alg.group
    report = []
    els = idem_set.elements
    dims = idem_set.dims
    if len(els) != len(dims):
        return [f"{len(els)} idempotents but {len(dims)} declared dimensions"]
    # each e_i cleared once to E_i / d_i, and every product below is on the
    # ints: scaling an element does not change whether a product vanishes
    cleared = [alg.field.scaled(e.items()) for e in els]
    ints = [dict(items) for _, items in cleared]
    for i, (d, items) in enumerate(cleared):
        if alg.mul(ints[i], ints[i]) != {g: d * c for g, c in items}:
            report.append(f"element {i} is not idempotent")
    for i in range(len(els)):
        for j in range(len(els)):
            if i != j and alg.mul(ints[i], ints[j]):
                report.append(f"elements {i} and {j} are not orthogonal")
    if sum(d * d for d in dims) != G.size:
        report.append(
            f"sum of squared dimensions {sum(d * d for d in dims)} != |G| = {G.size}")
    for i, (e, d) in enumerate(zip(ints, dims)):
        got = alg.right_module_dimension(e)
        if got != d:
            report.append(f"element {i} spans a module of dimension {got}, declared {d}")
    for i in range(len(els)):
        for j in range(len(els)):
            if i == j:
                continue
            if any(alg.mul(_right_translate(G, ints[i], g), ints[j]) for g in G.elements()):
                report.append(f"elements {i} and {j} select isomorphic summands")
    if all(d == 1 for d in dims):
        total = {}
        for e in els:
            total = alg.add(total, e)
        if total != alg.one():
            report.append("idempotents do not sum to 1")
    return report
