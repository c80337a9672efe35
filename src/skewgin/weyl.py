"""Weyl algebras in normal-ordered form, the Koszul bimodule resolution of
the diagonal, its dual, symplectic-equivariance checking, and exactness of
bounded filtration pieces.

Monomials are kept normal ordered (all positions left of all derivations);
elements of the algebra, of its enveloping algebra, and of the resolution
terms are sparse dicts over monomial keys.  The total-degree (Bernstein)
filtration bounds every computation: the chain differential does not raise
it, so each filtration piece is a finite complex with exact ranks.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, product as iproduct
from math import comb, factorial

from .errors import NotSymplectic, SizeGuard
from .fields import Field
from .linalg import LinSolver


def _compositions(total: int, parts: int):
    """All tuples of the given length of nonnegative ints summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


class WeylAlgebra:
    """Polynomial differential operators on n variables, exact coefficients.

    Elements are dicts (alpha, beta) -> scalar for multi-indices alpha
    (positions) and beta (derivations).
    """

    def __init__(self, n: int, field: Field):
        self.n = n
        self.field = field

    # -- elements --

    def zero(self):
        return {}

    def one(self):
        zero_idx = (0,) * self.n
        return {(zero_idx, zero_idx): self.field.one()}

    def x(self, i: int):
        alpha = tuple(1 if j == i else 0 for j in range(self.n))
        return {(alpha, (0,) * self.n): self.field.one()}

    def d(self, i: int):
        beta = tuple(1 if j == i else 0 for j in range(self.n))
        return {((0,) * self.n, beta): self.field.one()}

    def basis_vector(self, k: int):
        """V basis: x_1..x_n then d_1..d_n."""
        return self.x(k) if k < self.n else self.d(k - self.n)

    def add(self, u: dict, v: dict) -> dict:
        return self.field.accumulate(dict(u), v.items())

    def scale(self, coeff, u: dict) -> dict:
        f = self.field
        if coeff == f.zero():
            return {}
        return {m: f.mul(coeff, c) for m, c in u.items()}

    def sub(self, u: dict, v: dict) -> dict:
        return self.add(u, self.scale(self.field.neg(self.field.one()), v))

    def _mul_monomials(self, m1, m2):
        """Normal-ordered product of two monomials.

        Per variable, d^b x^c = sum_k C(b,k) C(c,k) k! x^(c-k) d^(b-k); the
        variables commute with each other, so the coefficient is a product.
        """
        (a1, b1), (a2, b2) = m1, m2
        f = self.field
        terms = []
        ranges = [range(min(b1[i], a2[i]) + 1) for i in range(self.n)]
        for k in iproduct(*ranges):
            coeff = 1
            for i in range(self.n):
                coeff *= comb(b1[i], k[i]) * comb(a2[i], k[i]) * factorial(k[i])
            alpha = tuple(a1[i] + a2[i] - k[i] for i in range(self.n))
            beta = tuple(b1[i] + b2[i] - k[i] for i in range(self.n))
            terms.append(((alpha, beta), f.from_int(coeff)))
        return f.accumulate({}, terms)

    def mul(self, u: dict, v: dict) -> dict:
        monomial_product = self._mul_monomials
        return self.field.accumulate({}, (
            (m, c1 * c2 * c)
            for m1, c1 in u.items()
            for m2, c2 in v.items()
            for m, c in monomial_product(m1, m2).items()))

    def commutator(self, u: dict, v: dict) -> dict:
        return self.sub(self.mul(u, v), self.mul(v, u))

    def monomials_up_to(self, filt: int):
        out = []
        for total in range(filt + 1):
            for asum in range(total + 1):
                for alpha in _compositions(asum, self.n):
                    for beta in _compositions(total - asum, self.n):
                        out.append((alpha, beta))
        return out

    @staticmethod
    def monomial_filtration(m) -> int:
        alpha, beta = m
        return sum(alpha) + sum(beta)


class WeylEnvelope:
    """The enveloping algebra A (x) A^op: pairs multiply as
    (s (x) t)(s' (x) t') = s s' (x) t' t."""

    def __init__(self, algebra: WeylAlgebra):
        self.algebra = algebra
        self.field = algebra.field

    def one(self):
        [(m, _)] = self.algebra.one().items()
        return {(m, m): self.field.one()}

    def left_difference(self, k: int, u: dict) -> dict:
        """(v (x) 1 - 1 (x) v).u for the k-th V basis vector v."""
        [v] = self.algebra.basis_vector(k)
        monomial_product = self.algebra._mul_monomials
        out = {}
        for (s, t), c in u.items():
            self.field.accumulate(out, (((m, t), c * cm)
                                        for m, cm in monomial_product(v, s).items()))
            self.field.accumulate(out, (((s, m), -c * cm)
                                        for m, cm in monomial_product(t, v).items()))
        return out

    def right_difference(self, k: int, u: dict) -> dict:
        """u.(v (x) 1 - 1 (x) v) for the k-th V basis vector v."""
        [v] = self.algebra.basis_vector(k)
        monomial_product = self.algebra._mul_monomials
        out = {}
        for (s, t), c in u.items():
            self.field.accumulate(out, (((m, t), c * cm)
                                        for m, cm in monomial_product(s, v).items()))
            self.field.accumulate(out, (((s, m), -c * cm)
                                        for m, cm in monomial_product(v, t).items()))
        return out


def apply_linear_automorphism(algebra: WeylAlgebra, images, u: dict) -> dict:
    """Extend a linear substitution on V multiplicatively to normal-ordered
    elements.  images[k] is the element replacing the k-th V basis vector."""
    out = algebra.zero()
    for (alpha, beta), c in u.items():
        acc = algebra.one()
        for i in range(algebra.n):
            for _ in range(alpha[i]):
                acc = algebra.mul(acc, images[i])
        for i in range(algebra.n):
            for _ in range(beta[i]):
                acc = algebra.mul(acc, images[algebra.n + i])
        out = algebra.add(out, algebra.scale(c, acc))
    return out


def matrix_images(algebra: WeylAlgebra, matrix):
    """Column k of the matrix gives the image of the k-th V basis vector."""
    f = algebra.field
    images = []
    for k in range(2 * algebra.n):
        el = algebra.zero()
        for i in range(2 * algebra.n):
            c = matrix[i][k]
            if c != f.zero():
                el = algebra.add(el, algebra.scale(c, algebra.basis_vector(i)))
        images.append(el)
    return images


def symplectic_form_matrix(algebra: WeylAlgebra):
    """Pairing of V basis vectors by their scalar commutators."""
    m = 2 * algebra.n
    f = algebra.field
    zero_mon = ((0,) * algebra.n, (0,) * algebra.n)
    form = [[f.zero()] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            comm = algebra.commutator(algebra.basis_vector(i), algebra.basis_vector(j))
            form[i][j] = comm.get(zero_mon, f.zero())
    return form


def is_symplectic(algebra: WeylAlgebra, matrix) -> bool:
    """Does the matrix preserve the commutator pairing on V?"""
    f = algebra.field
    images = matrix_images(algebra, matrix)
    zero_mon = ((0,) * algebra.n, (0,) * algebra.n)
    form = symplectic_form_matrix(algebra)
    m = 2 * algebra.n
    for i in range(m):
        for j in range(m):
            comm = algebra.commutator(images[i], images[j])
            if set(comm) - {zero_mon}:
                return False
            if comm.get(zero_mon, f.zero()) != form[i][j]:
                return False
    return True


# ---- the resolution ----
#
# Chain elements in homological position d are dicts
#   (wedge, (monomial, monomial)) -> scalar
# with wedge a strictly increasing tuple of V basis indices of length d.


def _remove_sign(wedge, position):
    """Sign for dropping the 1-based position i from a wedge of length m:
    (-1)^(m - i)."""
    m = len(wedge)
    return 1 if (m - (position + 1)) % 2 == 0 else -1


def koszul_differential(envelope: WeylEnvelope, element: dict) -> dict:
    """One step of the resolution differential.

    (v_1 ^ ... ^ v_m) (x) u goes to the alternating sum over i of
    (v_1 ^ ... v_i-hat ... ^ v_m) (x) (v_i (x) 1 - 1 (x) v_i) . u.
    """
    out = {}
    for (wedge, pair), coeff in element.items():
        u = {pair: coeff}
        for pos, k in enumerate(wedge):
            moved = envelope.left_difference(k, u)
            sign = _remove_sign(wedge, pos)
            rest = wedge[:pos] + wedge[pos + 1:]
            envelope.field.accumulate(out, (((rest, key), sign * c)
                                            for key, c in moved.items()))
    return out


def dual_differential(envelope: WeylEnvelope, element: dict) -> dict:
    """One step of the dual complex: u (x) w goes to the sum over j of
    u . (e_j (x) 1 - 1 (x) e_j) (x) (w ^ e_j*), with the sort sign."""
    n2 = 2 * envelope.algebra.n
    out = {}
    for (wedge, pair), coeff in element.items():
        u = {pair: coeff}
        for j in range(n2):
            if j in wedge:
                continue
            moved = envelope.right_difference(j, u)
            greater = sum(1 for w in wedge if w > j)
            sign = 1 if greater % 2 == 0 else -1
            new_wedge = tuple(sorted(wedge + (j,)))
            envelope.field.accumulate(out, (((new_wedge, key), sign * c)
                                            for key, c in moved.items()))
    return out


def wedge_action(algebra: WeylAlgebra, matrix, wedge):
    """Exterior power of the matrix on one wedge basis element."""
    f = algebra.field
    if not wedge:
        return {(): f.one()}
    terms = []
    choices = []
    for k in wedge:
        col = [(i, matrix[i][k]) for i in range(2 * algebra.n)
               if matrix[i][k] != f.zero()]
        choices.append(col)
    for combo in iproduct(*choices):
        idxs = [i for i, _ in combo]
        if len(set(idxs)) != len(idxs):
            continue
        coeff = f.one()
        for _, c in combo:
            coeff = f.mul(coeff, c)
        # sort with sign
        perm = list(idxs)
        sign = 1
        for a in range(len(perm)):
            for b in range(a + 1, len(perm)):
                if perm[a] > perm[b]:
                    perm[a], perm[b] = perm[b], perm[a]
                    sign = -sign
        terms.append((tuple(perm), sign * coeff))
    return f.accumulate({}, terms)


def chain_action(algebra: WeylAlgebra, matrix):
    """The diagonal action of the matrix on wedge (x) enveloping-algebra
    elements, as a function of the element.

    g . (w (x) s (x) t) = g(w) (x) g(s) (x) g(t), the product of three sparse
    images.  Each wedge and each monomial is mapped once, the first time the
    returned function meets it, and its image is reused after that.
    """
    one, accumulate = algebra.field.one(), algebra.field.accumulate
    images = matrix_images(algebra, matrix)
    monomial = cache(lambda m: apply_linear_automorphism(algebra, images, {m: one}))
    wedge = cache(lambda w: wedge_action(algebra, matrix, w))

    def act(element: dict) -> dict:
        out = {}
        for (w, (s, t)), c in element.items():
            gs, gt = monomial(s), monomial(t)
            accumulate(out, (((gw, (ms, mt)), c * cw * cs * ct)
                             for gw, cw in wedge(w).items()
                             for ms, cs in gs.items()
                             for mt, ct in gt.items()))
        return out

    return act


def _wedges(n2: int, size: int):
    return [tuple(c) for c in combinations(range(n2), size)]


def _position_basis(algebra: WeylAlgebra, d: int, env_filt: int):
    if env_filt < 0:
        return []
    mons = algebra.monomials_up_to(env_filt)
    pairs = [(s, t) for s in mons for t in mons
             if WeylAlgebra.monomial_filtration(s) + WeylAlgebra.monomial_filtration(t) <= env_filt]
    return [(w, p) for w in _wedges(2 * algebra.n, d) for p in pairs]


def check_sp_equivariance(n: int, matrices, field: Field, filt_bound: int = 2):
    """Symplectic membership plus differential equivariance.

    Raises NotSymplectic naming the first failing matrix; otherwise checks
    d(g . elem) = g . d(elem) over every chain basis element with
    enveloping filtration at most filt_bound and returns the failure list.
    Both sides are extended linearly from images computed once per basis
    key: per matrix for the action, per matrix and position for d.
    """
    algebra = WeylAlgebra(n, field)
    envelope = WeylEnvelope(algebra)
    for idx, matrix in enumerate(matrices):
        if not is_symplectic(algebra, matrix):
            raise NotSymplectic(
                f"matrix {idx} does not preserve the commutator pairing", matrix_index=idx)
    one, accumulate = field.one(), field.accumulate
    report = []
    for idx, matrix in enumerate(matrices):
        act = chain_action(algebra, matrix)
        for d in range(1, 2 * n + 1):
            differential = cache(lambda key: koszul_differential(envelope, {key: one}))
            for key in _position_basis(algebra, d, filt_bound):
                lhs = accumulate({}, ((image_key, c * ci)
                                      for moved, c in act({key: one}).items()
                                      for image_key, ci in differential(moved).items()))
                rhs = act(differential(key))
                if lhs != rhs:
                    w, pair = key
                    report.append(
                        f"matrix {idx}: differential not equivariant at position {d} "
                        f"on wedge {w} and pair {pair}")
    return report


def _guarded_envelope(n: int, field: Field) -> WeylEnvelope:
    if n > 2:
        raise SizeGuard("resolution checks are guarded to n <= 2")
    return WeylEnvelope(WeylAlgebra(n, field))


def _homology(field: Field, positions, differential, closing, cap: int):
    """Ranks and homology of a bounded complex, counted from its closing end.

    positions[i] is the basis at distance i from the closing end, and the
    differential maps position i into position i - 1.  closing(s, t) maps
    the monomial pair s (x) t off position 0 into the algebra; on the first
    200 images of position 1 it must vanish.  Returns (ranks, homology):
    ranks[i] is the rank of the map out of position i (0 at i = 0), and
    homology[0] is the cokernel of the map into position 0.
    """
    total = sum(len(b) for b in positions)
    if total > cap:
        raise SizeGuard(f"truncated complex has dimension {total} > cap {cap}")
    one, accumulate = field.one(), field.accumulate
    ranks = [0] * (len(positions) + 1)
    for i in range(1, len(positions)):
        target = {key: k for k, key in enumerate(positions[i - 1])}
        solver = LinSolver(field)
        for k, key in enumerate(positions[i]):
            image = differential({key: one})
            if i == 1 and k < 200 and accumulate({}, (
                    (m, c * cm) for (_, (s, t)), c in image.items()
                    for m, cm in closing(s, t).items())):
                raise AssertionError("the closing map does not annihilate the image")
            vec = {target[key]: c for key, c in image.items()}
            if vec:
                solver.add(vec)
        ranks[i] = solver.rank
    homology = [len(b) - ranks[i] - ranks[i + 1] for i, b in enumerate(positions)]
    return ranks[:-1], homology


def bounded_exactness(n: int, filt: int, field: Field, cap: int = 200000):
    """Homology dimensions of the filtration piece of the resolution.

    Position d keeps enveloping filtration at most filt - d, which the
    differential respects.  Expected: zero homology at every positive
    position and an augmentation cokernel matching the dimension of the
    filtered Weyl algebra, which is also reported.  The augmentation
    s (x) t -> t s closes the complex at position 0.
    """
    envelope = _guarded_envelope(n, field)
    product = envelope.algebra._mul_monomials
    positions = [_position_basis(envelope.algebra, d, filt - d) for d in range(2 * n + 1)]
    ranks, homology = _homology(field, positions, lambda e: koszul_differential(envelope, e),
                                lambda s, t: product(t, s), cap)
    return {
        "dimensions": [len(b) for b in positions],
        "ranks": ranks[1:],
        "homology": {d: homology[d] for d in range(1, 2 * n + 1)},
        "augmentation_cokernel": homology[0],
        "expected_cokernel": comb(filt + 2 * n, 2 * n),
    }


def dual_top_concentration(n: int, filt: int, field: Field, cap: int = 200000):
    """Homology of the filtered dual complex: expected concentrated at the
    top position, where the multiplication map induces the comparison.

    Dual position d keeps enveloping filtration at most filt - (2n - d), so
    listed from the top down it has the resolution's layout, and the dual
    differential, which raises d, lowers the distance from the top.
    """
    envelope = _guarded_envelope(n, field)
    top = 2 * n
    from_top = [_position_basis(envelope.algebra, top - i, filt - i) for i in range(top + 1)]
    _, homology = _homology(field, from_top, lambda e: dual_differential(envelope, e),
                            envelope.algebra._mul_monomials, cap)
    return {
        "dimensions": [len(b) for b in reversed(from_top)],
        "homology": {d: homology[top - d] for d in range(top + 1)},
        "top_homology": homology[0],
        "expected_top": comb(filt + 2 * n, 2 * n),
    }
