"""Weyl algebras in normal-ordered form, the Koszul bimodule resolution of
the diagonal, its dual, symplectic-equivariance checking, and exactness of
bounded filtration pieces.

Monomials are kept normal ordered (all positions left of all derivations);
elements of the algebra, of its enveloping algebra (keyed by monomial
pairs, with no class of its own: the differentials take the WeylAlgebra),
and of the resolution terms are sparse dicts.  The total-degree (Bernstein)
filtration bounds every computation: the chain differential does not raise
it, so each filtration piece is a finite complex with exact ranks.

Inside, a chain key w (x) s (x) t is one int code over numbered wedges
and monomials, and the closed-form products of the V basis vectors with
monomials and the drops of each wedge are tabulated once per algebra
(``_Chains``).  One image routine builds a code's image as an int vector
keyed by minus the code of each target: the homology feeds it to
``LinSolver``, and ``koszul_differential`` decodes it to keys.  Only the
resolution is eliminated, by ``bounded_exactness``: the dual is read off
it through the self-duality that makes A_n Calabi-Yau, checked on
generators straight from the drop rule, whose transpose is the dual's
differential.  No rule names n: each cost (the piece's dimension, the
wedge drops and their transposes, and the wedge action of a matrix
through ``wedge_action_terms``) is counted in closed form against one cap
by ``check_costs`` before any table is built.

The checks run on plain ints (the scaled-integer convention of
``fields.py``): monomial products are unreduced ints, the resolution and
its dual have integer coefficients, reduced mod p over GF(p), and each
symplectic matrix is cleared by its common denominator once.  The
equivariance check runs on the free generators w (x) 1 (x) 1 of the
resolution only, whatever the filtration, and builds each of their images
under d once for every matrix.  Symplectic membership needs no product:
linear elements commute to scalars, so it is the closed form M^T J M = J.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, product as iproduct
from math import comb, factorial, prod

from .errors import CheckFailed, SkewginError
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
        self._chains = None  # the _Chains of the largest filtration asked for so far
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
# Inside, each key is its int code (see _Chains).


def _remove_sign(wedge, position):
    """Sign for dropping the 1-based position i from a wedge of length m:
    (-1)^(m - i)."""
    m = len(wedge)
    return 1 if (m - (position + 1)) % 2 == 0 else -1


def _wedges(n2: int, size: int):
    return [tuple(c) for c in combinations(range(n2), size)]


def _count(filt: int, letters: int) -> int:
    """The number of monomials in the given number of letters of total
    degree at most filt."""
    return comb(filt + letters, letters) if filt >= 0 else 0


class _Chains:
    """Int codes and product tables for the chains whose monomials have
    filtration at most filt.

    A key (w, (s, t)) has the code (w * M + s) * M + t, with s and t the
    ids of the M monomials in ``monomials_up_to(filt)``, found by their
    exponents in ``flat``, and w the id of the wedge in ``wedges``.  Images
    are keyed by minus the code, wedge_at[w] + pair_at[s] - t.  The tables
    left[k](s) and right[k](s) list the products v_k s and s v_k of the
    k-th V basis vector as (monomial id, int) pairs, each formed in closed
    form when first read; they are read for monomials s below filt only,
    so every product is numbered.  drops[w] lists the moves of the
    resolution, v s (x) t - s (x) t v for each letter v dropped from w, as
    (target wedge id, sign, s table, sign, t table).  The dual keeps no
    table: ``dual_top_concentration`` transposes the drop rule itself.
    """

    def __init__(self, algebra: WeylAlgebra, filt: int):
        n, n2 = algebra.n, 2 * algebra.n
        self.filt, self.n2, self.field = filt, n2, algebra.field
        self.mons = mons = algebra.monomials_up_to(filt)
        self.size = size = len(mons)
        self.degree = [WeylAlgebra.monomial_filtration(m) for m in mons]
        self.wedges = [w for d in range(n2 + 1) for w in _wedges(n2, d)]
        self.wedge_index = wid = {w: i for i, w in enumerate(self.wedges)}
        self.flat = flat = {a + b: i for i, (a, b) in enumerate(mons)}  # by exponents of v_k

        def table(k, on_left):
            # v_k raises its exponent; d_i on the left or x_i on the right
            # passes its partner v_j: d_i x^a = x^a d_i + a_i x^(a - e_i)
            j, passes = (k + n) % n2, on_left == (k >= n)

            def products(s):
                e = mons[s][0] + mons[s][1]
                terms = [(flat[e[:k] + (e[k] + 1,) + e[k + 1:]], 1)]
                if passes and e[j]:
                    terms.append((flat[e[:j] + (e[j] - 1,) + e[j + 1:]], e[j]))
                return terms

            return cache(products)

        left = [table(k, on_left=True) for k in range(n2)]
        right = [table(k, on_left=False) for k in range(n2)]
        self.drops = [[] for _ in self.wedges]
        for i, w in enumerate(self.wedges):
            for pos, k in enumerate(w):
                sign, rest = _remove_sign(w, pos), wid[w[:pos] + w[pos + 1:]]
                self.drops[i].append((rest, sign, left[k], -sign, right[k]))
        self.wedge_at = [-w * size * size for w in range(len(self.wedges))]
        self.pair_at = [-s * size for s in range(size)]

    def split(self, code: int):
        """(wedge id, s id, t id) of a code."""
        w, pair = divmod(code, self.size * self.size)
        s, t = divmod(pair, self.size)
        return w, s, t

    def code(self, key) -> int:
        w, ((sa, sb), (ta, tb)) = key
        size, flat = self.size, self.flat
        return (self.wedge_index[w] * size + flat[sa + sb]) * size + flat[ta + tb]

    def key(self, code: int):
        w, s, t = self.split(code)
        return self.wedges[w], (self.mons[s], self.mons[t])

    def position(self, d: int, env: int):
        """The codes of position d at enveloping filtration at most env, in
        listing order: by wedge, then s, then t, so increasing.
        monomials_up_to lists by filtration, so the partners t of s with
        |s| + |t| <= env are the first C(env - |s| + 2n, 2n) monomials."""
        size, n2 = self.size, self.n2
        first = sum(comb(n2, e) for e in range(d))
        return [(w * size + s) * size + t for w in range(first, first + comb(n2, d))
                for s in range(_count(env, n2)) for t in range(_count(env - self.degree[s], n2))]

    def image(self, code: int) -> dict:
        """The image of one code under the resolution differential, an int
        vector keyed by minus the code of each target (reduced mod p over
        GF(p)).

        The s-terms put a monomial of filtration |s| +- 1 in the s slot and
        the t-terms keep s there, and each move reaches its own wedge, so
        no two terms share a key.
        """
        wedge_at, pair_at = self.wedge_at, self.pair_at
        w, s, t = self.split(code)
        vec = {}
        for target, s_sign, s_side, t_sign, t_side in self.drops[w]:
            at = wedge_at[target] - t
            for m, c in s_side(s):
                vec[at + pair_at[m]] = s_sign * c
            at = wedge_at[target] + pair_at[s]
            for m, c in t_side(t):
                vec[at - m] = t_sign * c
        p = self.field.p
        return vec if p is None else {k: r for k, v in vec.items() if (r := v % p)}


def _chains(algebra: WeylAlgebra, filt: int) -> _Chains:
    """The algebra's codes and tables for monomials up to filt, rebuilt
    only when a larger filtration is asked for."""
    chains = algebra._chains
    if chains is None or chains.filt < filt:
        chains = algebra._chains = _Chains(algebra, filt)
    return chains


def koszul_differential(algebra: WeylAlgebra, element: dict) -> dict:
    """One step of the resolution differential.

    (v_1 ^ ... ^ v_m) (x) s (x) t goes to the alternating sum over i of
    (v_1 ^ ... v_i-hat ... ^ v_m) (x) (v_i s (x) t - s (x) t v_i): the linear
    extension of ``_Chains.image``, each key encoded and the sum decoded.
    The tables are those one filtration above the element's, so every image
    is numbered.
    """
    filt = max((WeylAlgebra.monomial_filtration(m) for _, pair in element for m in pair),
               default=-1)
    chains = _chains(algebra, filt + 1)
    out = {}
    for key, c in element.items():
        image = chains.image(chains.code(key))
        algebra.field.accumulate(out, ((-at, c * v) for at, v in image.items()))
    return {chains.key(code): c for code, c in out.items()}


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


def wedge_action_terms(matrix) -> int:
    """The (wedge, entry) choices ``wedge_action`` enumerates over all the
    wedges together: each column is left out of the wedge or gives one of
    its nonzero entries, so the product over columns of 1 + nonzeros."""
    return prod(1 + sum(1 for entry in column if entry) for column in zip(*matrix))


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


def check_sp_equivariance(n: int, matrices, field: Field):
    """Symplectic membership plus differential equivariance.

    Raises CheckFailed naming the first failing matrix; otherwise checks
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
            raise CheckFailed(
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


# The default cap takes seconds; under MAX_CAP every count check_costs
# forms has at most 1,700 digits.
DEFAULT_CAP = 200000
MAX_CAP = 10 ** 12


def check_costs(n: int, filt: int, cap: int, matrices=()):
    """Refuse, before any table is built, a run whose counted costs pass
    the cap, in this order: the piece's dimension, C(2n, d) wedges times
    C(filt - d + 4n, 4n) monomial pairs at position d; the 2n 4^n wedge
    moves: the n 4^n drops that ``_Chains`` tabulates plus the n 4^n
    transposed (wedge, letter) pairs that the phi check of
    ``dual_top_concentration`` walks; and each matrix's
    ``wedge_action_terms``, at /matrices/k.  A cap past MAX_CAP is refused
    at /cap.  An n past the cap's bit length, or a filt past the cap, puts
    the wedge or the piece count past it, and is refused before any count
    is formed, so every count formed is short enough to print."""
    if cap > MAX_CAP:
        raise SkewginError(f"expected a cap of at most {MAX_CAP}", location="/cap")
    if filt > cap or n > cap.bit_length():
        raise SkewginError(f"n = {n} and filtration {filt} give counts past cap {cap}")
    n2 = 2 * n
    total = sum(comb(n2, d) * comb(filt - d + 2 * n2, 2 * n2) for d in range(min(filt, n2) + 1))
    if total > cap:
        raise SkewginError(f"truncated complex has dimension {total} > cap {cap}")
    moves = n2 * 4 ** n
    if moves > cap:
        raise SkewginError(f"wedge tables have {moves} moves > cap {cap}")
    for k, matrix in enumerate(matrices):
        if (terms := wedge_action_terms(matrix)) > cap:
            raise SkewginError(f"wedge action has {terms} terms > cap {cap}",
                               location=f"/matrices/{k}")


def bounded_exactness(n: int, filt: int, field: Field, cap: int = DEFAULT_CAP):
    """Homology dimensions of the filtration piece of the resolution.

    Position d keeps enveloping filtration at most filt - d, which the
    differential respects.  Expected: zero homology at every positive
    position and an augmentation cokernel matching the dimension of the
    filtered Weyl algebra, which is also reported.  ``check_costs``
    refuses a piece or wedge tables past the cap first.

    Each basis code goes in with coefficient 1, so every image is an int
    vector keyed by minus the target's code: rows pivot on their
    last-listed key (of highest filtration), which leaves less fill-in.
    The augmentation s (x) t -> t s closes the complex at position 0; on
    the first 200 images of position 1 it must vanish.  Homology as size
    minus ranks needs d^2 = 0, checked on the generators w (x) 1 (x) 1 at
    positions 2 to min(filt, 2n), which suffice as d is right linear.
    """
    check_costs(n, filt, cap)
    n2 = 2 * n
    algebra = WeylAlgebra(n, field)
    chains, product = _chains(algebra, filt), algebra._mul_monomials

    def augmentation(at):  # t s, for the key s (x) t of code -at
        s, t = chains.key(-at)[1]
        return product(t, s)

    for d in range(2, min(filt, n2) + 1):
        for code in chains.position(d, 0):  # the generators w (x) 1 (x) 1
            image = chains.image(code)
            if field.accumulate({}, ((at, c * v) for top, c in image.items()
                                     for at, v in chains.image(-top).items())):
                raise CheckFailed(f"d^2 is not zero at position {d} on wedge {chains.key(code)[0]}")
    ranks, dimensions = [0] * (n2 + 2), [len(chains.position(0, filt))]
    for d in range(1, n2 + 1):
        solver, codes = LinSolver(field), chains.position(d, filt - d)
        for k, code in enumerate(codes):
            vec = chains.image(code)
            if d == 1 and k < 200 and field.accumulate({}, (
                    (m, c * cm) for at, c in vec.items() for m, cm in augmentation(at).items())):
                raise CheckFailed("the augmentation does not annihilate the image")
            if vec:
                solver.add(vec)
        ranks[d] = solver.rank
        dimensions.append(len(codes))
    homology = [size - ranks[d] - ranks[d + 1] for d, size in enumerate(dimensions)]
    return {
        "dimensions": dimensions,
        "ranks": ranks[1:-1],
        "homology": {d: homology[d] for d in range(1, n2 + 1)},
        "augmentation_cokernel": homology[0],
        "expected_cokernel": comb(filt + n2, n2),
    }


def dual_top_concentration(n: int, resolution: dict):
    """Homology of the filtered dual complex, expected concentrated at the
    top position, read off the report of ``bounded_exactness`` through
    phi(w (x) s (x) t) = sign(w, c) c (x) t (x) s, c the complement of w and
    sign(w, c) the sign of listing w, then c.  phi maps dual position d
    bijectively onto resolution position 2n - d under the same filtration
    bound, and both are free on the w (x) 1 (x) 1 (swapping s and t turns
    outer linearity into inner), so phi d^v = (-1)^d d phi is checked on
    those generators only, on ints; a mismatch raises CheckFailed.  The
    dual's differential is the transpose of the resolution's, so both sides
    come from the drop rule: dropping k from W = w + k with sign e gives
    d^v(w (x) 1 (x) 1) the terms e (W (x) v_k (x) 1 - W (x) 1 (x) v_k), and
    d(c (x) 1 (x) 1) has the same one-letter form, keyed here by (wedge,
    left letter, right letter), None for 1."""
    n2 = 2 * n

    def phi_sign(w, c):
        return -1 if sum(a > b for a in w for b in c) % 2 else 1

    for d in range(n2):
        for w in _wedges(n2, d):
            c = tuple(j for j in range(n2) if j not in w)
            sign, lhs, rhs = (-1) ** d * phi_sign(w, c), {}, {}
            for pos, k in enumerate(c):
                rest, big = c[:pos] + c[pos + 1:], tuple(sorted(w + (k,)))
                e = _remove_sign(big, big.index(k)) * phi_sign(big, rest)
                lhs[rest, None, k], lhs[rest, k, None] = e, -e  # phi swaps the sides
                e = sign * _remove_sign(c, pos)
                rhs[rest, k, None], rhs[rest, None, k] = e, -e
            if lhs != rhs:
                raise CheckFailed(f"phi is not a chain map at dual position {d} on wedge {w}")
    homology = {0: resolution["augmentation_cokernel"], **resolution["homology"]}
    return {
        "dimensions": resolution["dimensions"][::-1],
        "homology": {d: homology[n2 - d] for d in range(n2 + 1)},
        "top_homology": homology[0],
        "expected_top": resolution["expected_cokernel"],
    }
