"""Weyl algebras in normal-ordered form, the Koszul bimodule resolution of
the diagonal, its dual, symplectic-equivariance checking, and exactness of
bounded filtration pieces.

Monomials are kept normal ordered (all positions left of all derivations);
elements of the algebra, of its enveloping algebra (keyed by monomial
pairs, with no class of its own: the differentials take the WeylAlgebra),
and of the resolution terms are sparse dicts.  The total-degree (Bernstein)
filtration bounds every computation: the chain differential does not raise
it, so each filtration piece is a finite complex with exact ranks.

The checks run on plain ints (the scaled-integer convention of
``fields.py``): monomial products are unreduced ints, the resolution and
its dual have integer coefficients, and each symplectic matrix is cleared
by its common denominator once.  ``Field.accumulate`` reduces every sum
over GF(p).  Each differential reads the memoized monomial products of its
terms and sums them in one accumulate.  The equivariance check runs on
the free generators w (x) 1 (x) 1 of the resolution only, whatever the
filtration, and builds each of their images under d once for every matrix.
Symplectic membership needs no product: linear elements commute to
scalars, so it is the closed form M^T J M = J.
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
        self._products = {}  # (m1, m2) -> normal-ordered product, int coefficients
        units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        self._basis = [(u, (0,) * n) for u in units] + [((0,) * n, u) for u in units]

    def basis_monomial(self, k: int):
        """The monomial of the k-th V basis vector: x_1..x_n then d_1..d_n."""
        return self._basis[k]

    def _mul_monomials(self, m1, m2):
        """Normal-ordered product of two monomials, with plain int
        coefficients that callers reduce through ``Field.accumulate``.

        Per variable, d^b x^c = sum_k C(b,k) C(c,k) k! x^(c-k) d^(b-k); the
        variables commute with each other, so the coefficient is a product.
        Each pair is multiplied once per algebra; the returned dict is shared.
        """
        product = self._products.get((m1, m2))
        if product is None:
            (a1, b1), (a2, b2) = m1, m2
            n = self.n
            product = {}
            for k in iproduct(*(range(min(b1[i], a2[i]) + 1) for i in range(n))):
                coeff = 1
                for i in range(n):
                    coeff *= comb(b1[i], k[i]) * comb(a2[i], k[i]) * factorial(k[i])
                alpha = tuple(a1[i] + a2[i] - k[i] for i in range(n))
                beta = tuple(b1[i] + b2[i] - k[i] for i in range(n))
                product[alpha, beta] = coeff
            self._products[m1, m2] = product
        return product

    def mul(self, u: dict, v: dict) -> dict:
        monomial_product = self._mul_monomials
        return self.field.accumulate({}, (
            (m, c1 * c2 * c)
            for m1, c1 in u.items()
            for m2, c2 in v.items()
            for m, c in monomial_product(m1, m2).items()))

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


def apply_linear_automorphism(algebra: WeylAlgebra, images, u: dict) -> dict:
    """Extend a linear substitution on V multiplicatively to normal-ordered
    elements.  images[k] is the element replacing the k-th V basis vector;
    coefficients are multiplied as given, field scalars or ints."""
    zero_mon = ((0,) * algebra.n, (0,) * algebra.n)
    out = {}
    for (alpha, beta), c in u.items():
        acc = {zero_mon: c}
        for k, power in enumerate(alpha + beta):
            for _ in range(power):
                acc = algebra.mul(acc, images[k])
        algebra.field.accumulate(out, acc.items())
    return out


def matrix_images(algebra: WeylAlgebra, matrix):
    """Column k of the matrix gives the image of the k-th V basis vector,
    with the entries as given."""
    size = 2 * algebra.n
    return [{algebra.basis_monomial(i): matrix[i][k] for i in range(size) if matrix[i][k]}
            for k in range(size)]


def is_symplectic(algebra: WeylAlgebra, matrix) -> bool:
    """Does the matrix preserve the commutator pairing on V, M^T J M = J?

    Linear elements u, v commute to the scalar
    [u, v] = sum_i u_(n+i) v_i - u_i v_(n+i), as [x_i, d_i] = -1, so
    columns i and j of the matrix must pair to J[i][j]: -1 at (i, n + i),
    1 at (n + i, i) and 0 elsewhere.
    """
    n, f = algebra.n, algebra.field
    for i in range(2 * n):
        for j in range(2 * n):
            pairing = sum(matrix[n + k][i] * matrix[k][j] - matrix[k][i] * matrix[n + k][j]
                          for k in range(n))
            if f.sub(pairing, (i == j + n) - (j == i + n)) != f.zero():
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


def koszul_differential(algebra: WeylAlgebra, element: dict) -> dict:
    """One step of the resolution differential.

    (v_1 ^ ... ^ v_m) (x) s (x) t goes to the alternating sum over i of
    (v_1 ^ ... v_i-hat ... ^ v_m) (x) (v_i s (x) t - s (x) t v_i), read off
    the memoized monomial products in one accumulate.
    """
    product = algebra._mul_monomials

    def terms():
        for (wedge, (s, t)), c in element.items():
            for pos, k in enumerate(wedge):
                sc = _remove_sign(wedge, pos) * c
                rest, v = wedge[:pos] + wedge[pos + 1:], algebra.basis_monomial(k)
                for m, cm in product(v, s).items():
                    yield (rest, (m, t)), sc * cm
                for m, cm in product(t, v).items():
                    yield (rest, (s, m)), -sc * cm

    return algebra.field.accumulate({}, terms())


def dual_differential(algebra: WeylAlgebra, element: dict) -> dict:
    """One step of the dual complex: s (x) t (x) w goes to the sum over j
    of (s e_j (x) t - s (x) e_j t) (x) (w ^ e_j*), with the sort sign, read
    off the memoized monomial products in one accumulate."""
    product, n2 = algebra._mul_monomials, 2 * algebra.n

    def terms():
        for (wedge, (s, t)), c in element.items():
            for j in range(n2):
                if j in wedge:
                    continue
                greater = sum(1 for w in wedge if w > j)
                sign = 1 if greater % 2 == 0 else -1
                new_wedge, v = tuple(sorted(wedge + (j,))), algebra.basis_monomial(j)
                for m, cm in product(s, v).items():
                    yield (new_wedge, (m, t)), sign * c * cm
                for m, cm in product(v, t).items():
                    yield (new_wedge, (s, m)), -sign * c * cm

    return algebra.field.accumulate({}, terms())


def wedge_action(algebra: WeylAlgebra, matrix, wedge):
    """Exterior power of the matrix on one wedge basis element, with the
    entries multiplied as given, field scalars or ints."""
    size = 2 * algebra.n
    columns = [[(i, matrix[i][k]) for i in range(size) if matrix[i][k]] for k in wedge]
    terms = []
    for combo in iproduct(*columns):
        idxs = [i for i, _ in combo]
        if len(set(idxs)) != len(idxs):
            continue
        coeff = -1 if sum(a > b for a, b in combinations(idxs, 2)) % 2 else 1
        for _, c in combo:
            coeff *= c
        terms.append((tuple(sorted(idxs)), coeff))
    return algebra.field.accumulate({}, terms)


def chain_action(algebra: WeylAlgebra, matrix):
    """The diagonal action of the matrix on wedge (x) enveloping-algebra
    elements, on ints: returns act.

    The matrix is cleared once by ``Field.scaled`` to an int matrix over its
    common denominator den (1 over GF(p)), and den is dropped.  act extends
    g . (w (x) s (x) t) = g(w) (x) g(s) (x) g(t) linearly through the images
    under the cleared matrix, so a key of weight |w| + |s| + |t| goes to
    den ** weight times its image under g.  Each wedge and each monomial is
    mapped once, the first time act meets it, and its image is reused.
    """
    size, accumulate = 2 * algebra.n, algebra.field.accumulate
    _, entries = algebra.field.scaled([((i, k), matrix[i][k])
                                       for i in range(size) for k in range(size)])
    cleared = [[0] * size for _ in range(size)]
    for (i, k), v in entries:
        cleared[i][k] = v
    images = matrix_images(algebra, cleared)
    monomial = cache(lambda m: apply_linear_automorphism(algebra, images, {m: 1}))
    wedge = cache(lambda w: wedge_action(algebra, cleared, w))

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
    # monomials_up_to lists by filtration, so the partners t of s with
    # |s| + |t| <= env_filt are the first C(env_filt - |s| + 2n, 2n)
    mons, n2 = algebra.monomials_up_to(env_filt), 2 * algebra.n
    pairs = [(s, t) for s in mons
             for t in mons[:comb(env_filt - WeylAlgebra.monomial_filtration(s) + n2, n2)]]
    return [(w, p) for w in _wedges(n2, d) for p in pairs]


def check_sp_equivariance(n: int, matrices, field: Field):
    """Symplectic membership plus differential equivariance.

    Raises NotSymplectic naming the first failing matrix; otherwise checks
    d(g . elem) = g . d(elem) on the generators w (x) 1 (x) 1 of every
    position and returns the failure list.  The images of d are built once
    for all matrices, since d does not depend on the matrix.  Positions run
    in the outer loop, so only one position's images of d are held at a
    time; the failures are still listed matrix by matrix.

    The generators suffice: d is right linear over the enveloping algebra
    and a symplectic g acts semilinearly.  Each term of d(w (x) 1 (x) 1)
    has weight |w|, so act scales both sides by den ** |w|.
    """
    algebra = WeylAlgebra(n, field)
    for idx, matrix in enumerate(matrices):
        if not is_symplectic(algebra, matrix):
            raise NotSymplectic(
                f"matrix {idx} does not preserve the commutator pairing", matrix_index=idx)
    accumulate = field.accumulate
    actions = [chain_action(algebra, matrix) for matrix in matrices]
    failures = [[] for _ in matrices]
    one = ((0,) * n, (0,) * n)
    for d in range(1, 2 * n + 1):
        # act keeps a key's wedge length and sends 1 (x) 1 to itself, so
        # every key met here is a generator at position d
        differential = cache(lambda key: koszul_differential(algebra, {key: 1}))
        generators = [(w, (one, one)) for w in _wedges(2 * n, d)]
        for idx, act in enumerate(actions):
            for key in generators:
                lhs = accumulate({}, ((image_key, c * ci)
                                      for moved, c in act({key: 1}).items()
                                      for image_key, ci in differential(moved).items()))
                if lhs != act(differential(key)):
                    w, pair = key
                    failures[idx].append(
                        f"matrix {idx}: differential not equivariant at position {d} "
                        f"on wedge {w} and pair {pair}")
    return [line for failed in failures for line in failed]


def _guarded_envelope(n: int, filt: int, field: Field, cap: int) -> WeylAlgebra:
    """The Weyl algebra for the filtration-filt piece of the resolution or
    its dual, once n <= 2 and the piece's size is within the cap.

    The size is counted before any basis is built: position d of the
    resolution has C(2n, d) wedges times the C(filt - d + 4n, 4n) monomial
    pairs of filtration at most filt - d, and the dual has the same sizes.
    """
    if n > 2:
        raise SizeGuard("resolution checks are guarded to n <= 2")
    total = sum(comb(2 * n, d) * comb(filt - d + 4 * n, 4 * n)
                for d in range(min(filt, 2 * n) + 1))
    if total > cap:
        raise SizeGuard(f"truncated complex has dimension {total} > cap {cap}")
    return WeylAlgebra(n, field)


def _homology(field: Field, positions, differential, closing):
    """Ranks and homology of a bounded complex, counted from its closing end.

    positions[i] is the basis at distance i from the closing end, and the
    differential maps position i into position i - 1.  closing(s, t) maps
    the monomial pair s (x) t off position 0 into the algebra; on the first
    200 images of position 1 it must vanish.  Returns (ranks, homology):
    ranks[i] is the rank of the map out of position i (0 at i = 0), and
    homology[0] is the cokernel of the map into position 0.  Each basis key
    goes in with coefficient 1, so every image is an int vector.  Target
    keys are numbered by minus their index, so rows pivot on their
    last-listed key (of highest filtration), which leaves less fill-in.
    """
    accumulate = field.accumulate
    ranks = [0] * (len(positions) + 1)
    for i in range(1, len(positions)):
        target = {key: -k for k, key in enumerate(positions[i - 1])}
        solver = LinSolver(field)
        for k, key in enumerate(positions[i]):
            image = differential({key: 1})
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
    algebra = _guarded_envelope(n, filt, field, cap)
    product = algebra._mul_monomials
    positions = [_position_basis(algebra, d, filt - d) for d in range(2 * n + 1)]
    ranks, homology = _homology(field, positions, lambda e: koszul_differential(algebra, e),
                                lambda s, t: product(t, s))
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
    algebra = _guarded_envelope(n, filt, field, cap)
    top = 2 * n
    from_top = [_position_basis(algebra, top - i, filt - i) for i in range(top + 1)]
    _, homology = _homology(field, from_top, lambda e: dual_differential(algebra, e),
                            algebra._mul_monomials)
    return {
        "dimensions": [len(b) for b in reversed(from_top)],
        "homology": {d: homology[top - d] for d in range(top + 1)},
        "top_homology": homology[0],
        "expected_top": comb(filt + 2 * n, 2 * n),
    }
