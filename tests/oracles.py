"""Independent brute-force oracles for cross-checking the library.

Everything here is written from scratch on purpose: its own path
enumeration, its own dense row reduction, its own cyclic derivative for the
ungraded case, the labelled sparse solver that ``skewgin.linalg``
replaced, the per-entry accumulate loop that ``Field.accumulate``
replaced, the symplectic equivariance check on field scalars that maps
every monomial, wedge and differential afresh on each use, with its own
monomial product, differential, chain action and symplectic test, which
the cached int kernels of ``skewgin.weyl.check_sp_equivariance`` replaced
(over every chain basis key up to a filtration bound, where the library
checks the free generators only),
the dual differential on field scalars, the two differentials built per
term and position from the one-sided differences (v (x) 1 - 1 (x) v) that
a single accumulate replaced, and that single accumulate itself, the
dict-keyed ``dict_koszul_differential`` that the int codes and product
tables of ``skewgin.weyl._Chains`` replaced, and ``dict_dual_differential``,
the dual's differential, which the library no longer builds, with the
dict-keyed listing ``position_keys``,
the crossed product on field scalars that the scaled-integer kernel of
``CrossedElement.__mul__`` replaced, the entry-by-entry certificate
re-expansion that ``skewgin.crossed.expand_certificate`` replaced, the
per-path left folds that ``QuiverAction.act_path`` and
``skewgin.morita.embed_paths`` replaced, the path layers enumerated
afresh on every call that the cache of ``skewgin.quiver.paths_by_length``
replaced, the corner e.b.e as two products that
``skewgin.morita.corner`` replaced, the span of every product
p.r.q that the recurrence of ``skewgin.ginzburg.relation_ideal`` replaced,
the characters by generator search that the coset extension of
``skewgin.groups.characters`` replaced, the bimodule generators as
five-fold products that ``skewgin.morita.build_bimodule`` replaced, over
the diagonal orbits found by search (``diagonal_orbit_reps``), the
commutators as products of two one-term elements that the int commutators
on cached cleared images of ``skewgin.crossed.commutator_basis`` replaced,
the differential of a path as products prefix * d(arrow) * suffix that the
splicing of ``GinzburgPresentation.apply_differential`` replaced, the
symplectic test M^T J M = J summed over every entry of J that the closed
form of ``skewgin.weyl.is_symplectic`` replaced (which had replaced
commutators of the images), and two commutator feeds that
``skewgin.crossed.express_modulo_commutators`` replaced: one retrying the
target every 24 insertions, and one feeding every commutator before it
expresses the target once, which the feed that stops at the target
replaced.  Also here: the trial division and the search through every
residue that Miller-Rabin and the powers of
``skewgin.fields.primitive_root_of_unity`` replaced, the dual's moves by
their own sign rule (``greater_sign_inserts``), with ``moves_image``, the
image under any such moves, which the drop rule transposed on generators
by ``skewgin.weyl.dual_top_concentration`` replaced, together with the
chain map ``phi_element`` that it checks, and the contragredient image with
its block inverted once per arrow that the one inverse per block of
``skewgin.action.extend_to_ginzburg`` replaced.  Four more run on
skewgin's ``LinSolver``: the marker-column solve ``marker_express`` that
the back-substitution of
``LinSolver.express`` replaced, ``whole_layer_ranks``, the one solver
per length layer that the Peirce-block ranks of
``skewgin.morita.block_rank`` replaced, ``all_pairs_dimension_check``,
the corner of every (path, group element) pair that the normal words of
``skewgin.morita.morita_dimension_check`` replaced, and
``dict_keyed_homology``, the Weyl homology on dict keys that the int
codes of ``skewgin.weyl.bounded_exactness`` replaced, whose rows pivot on
their last-listed key or, with ``first_listed``, on their first-listed
key, the order the last-listed pivots replaced.  ``coded_homology`` runs
on ``skewgin.weyl``'s codes and tables: the elimination of any bounded
complex laid out from its closing end, which ``bounded_exactness`` folded
in for the resolution alone, and on which ``eliminated_dual_report`` runs
the dual complex's own elimination, which the checked chain isomorphism
of ``skewgin.weyl.dual_top_concentration`` replaced.
``all_pairs_multiplicativity``, the product of every pair of reduced
paths of total length at most 2 that the products on vertices and arrows
of ``skewgin.morita.check_embedding`` replaced, runs on skewgin's crossed
product and ``embed_paths``.

The last section holds helpers that no command uses, kept for the tests:
``one``, ``scale`` and ``scalar_element``, the element of field scalars on
(path, group element) pairs (``CrossedElement`` is built from den and int
terms on int keys only), ``key_element``, the one-term element of a key,
``certificate_entries``, the field-scalar entries of a ``Certificate``,
``entries``, which lists the ``Certificate`` that
``express_modulo_commutators`` returns so it compares with the two feeds
above, ``certificate_of``, which builds a ``Certificate`` from entries
through ``Field.combine`` as ``src`` does, the Weyl
generators ``weyl_x`` and ``weyl_d``, ``weyl_commutator`` and the unit
``envelope_one`` (which ``WeylAlgebra`` and the removed ``WeylEnvelope``
no longer have), ``path_unit`` and ``scale_path_element`` (which
``AlgElement`` no longer has), ``group_scale``, ``group_sub`` and
``group_conjugate`` (which ``GroupAlgebra`` no longer has),
``span_rank``, ``rotations_of``, ``cyclic_derivative_along``,
``CyclicClass`` and ``hc0_reduce``.  They, unlike the oracles above, run on
skewgin's ``LinSolver``.
"""

from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial

from skewgin import weyl
from skewgin.crossed import (Certificate, CommutatorTerm, CrossedElement, _basis_pairs,
                             commutator_basis, crossed_basis, expand_certificate,
                             express_modulo_commutators)
from skewgin.errors import CheckFailed, SkewginError
from skewgin.fields import primitive_root_of_unity
from skewgin.ginzburg import derivative_relations, jacobian_truncation, relation_ideal
from skewgin.linalg import LinSolver, invert_matrix
from skewgin.morita import corner, embed_paths
from skewgin.potential import Potential, _rotations, cycle_length_of, cyclic_derivative
from skewgin.quiver import AlgElement, Path, basis_up_to, paths_by_length


def naive_accumulate(field, acc, terms):
    """Add (key, scalar) pairs into acc one ``Field.add`` at a time, dropping
    keys whose sum is zero; the loop ``Field.accumulate`` replaced."""
    z = field.zero()
    for key, c in terms:
        s = field.add(acc.get(key, z), c)
        if s == z:
            acc.pop(key, None)
        else:
            acc[key] = s
    return acc


def trial_division_is_prime(n):
    """Primality by trial division up to the square root, the test that
    Miller-Rabin in ``skewgin.fields`` replaced."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def linear_root_of_unity(p, n):
    """The least residue of exact multiplicative order n mod the prime p,
    or None, by trying every candidate below p: the search that the powers
    of ``skewgin.fields.primitive_root_of_unity`` replaced."""
    for candidate in range(1, p):
        if pow(candidate, n, p) == 1 and all(pow(candidate, m, p) != 1
                                             for m in range(1, n) if n % m == 0):
            return candidate
    return None


def dense_rank(rows, p=None):
    """Rank of a dense matrix by plain Gaussian elimination.

    Entries are Fractions/ints (p None) or ints reduced mod the prime p.
    """
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while col < ncols and rank < len(rows):
        pivot = None
        for r in range(rank, len(rows)):
            v = rows[r][col] if p is None else rows[r][col] % p
            if v != 0:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(len(rows)):
            if r == rank:
                continue
            v = rows[r][col]
            if p is None:
                if v != 0:
                    f = Fraction(v, pv)
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
            else:
                v %= p
                if v != 0:
                    f = (v * pow(pv, p - 2, p)) % p
                    rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def enumerate_paths(arrows, length, vertices):
    """All (src, arrow-name tuple, tgt) triples of exactly the given length.

    arrows: dict name -> (src, tgt).
    """
    result = []
    for v in sorted(vertices):
        stack = [(v, ())]
        for _ in range(length):
            nxt = []
            for at, word in stack:
                for name, (s, t) in sorted(arrows.items()):
                    if s == at:
                        nxt.append((t, word + (name,)))
            stack = nxt
        result.extend((v, word, at) for at, word in stack)
    return result


def naive_paths_by_length(quiver, bound):
    """Paths of length <= bound grouped by length into tuples, from a
    fresh ``basis_up_to`` on every call, with no cache."""
    by_len = {}
    for p in basis_up_to(quiver, bound):
        by_len.setdefault(len(p.arrows), []).append(p)
    return {ell: tuple(layer) for ell, layer in by_len.items()}


def naive_cyclic_derivative(cycle, arrow):
    """All cuts of an ungraded cycle word at the given arrow: p1.a.p2 -> p2.p1."""
    out = []
    for i, name in enumerate(cycle):
        if name == arrow:
            out.append(cycle[i + 1:] + cycle[:i])
    return out


def naive_apply_differential(presentation, x):
    """d on x as a derivation, d(uv) = d(u)v + (-1)^deg(u) u d(v), with each
    arrow's term formed as the product prefix * d(arrow) * suffix, which
    drops the terms of d(arrow) that do not compose."""
    q, f = presentation.doubled, x.field
    out = AlgElement.zero(q, f)
    for path, coeff in x.terms.items():
        prefix_deg = 0
        for i, name in enumerate(path.arrows):
            dgen = presentation.differential[name]
            if not dgen.is_zero():
                piece = AlgElement.from_path(q, f, Path(path.source, path.arrows[:i])) * dgen
                post = path.arrows[i + 1:]
                if post:
                    piece = piece * AlgElement.from_path(q, f, Path(q.arrow(name).tgt, post))
                sign = f.one() if prefix_deg % 2 == 0 else f.neg(f.one())
                out = out + scale_path_element(piece, f.mul(sign, coeff))
            prefix_deg += q.arrow(name).deg
    return out


def brute_jacobian_dims(vertices, arrows, potential_terms, bound, p=None):
    """Length-graded dimensions of the path algebra modulo derivative relations.

    arrows: dict name -> (src, tgt); potential_terms: list of (int coeff,
    arrow-name tuple); all arrows ungraded and the potential terms all of
    one length.  Dense row reduction over Q or GF(p).
    """
    relations = []  # (start vertex, end vertex, dict word -> coeff)
    for a in sorted(arrows):
        rel = {}
        for coeff, cycle in potential_terms:
            for cut in naive_cyclic_derivative(cycle, a):
                rel[cut] = rel.get(cut, 0) + coeff
        rel = {w: c for w, c in rel.items() if (c % p != 0 if p else c != 0)}
        if rel:
            relations.append((arrows[a][1], arrows[a][0], rel))

    rel_len = None
    for _, _, rel in relations:
        rel_len = len(next(iter(rel)))

    dims = []
    for ell in range(bound + 1):
        layer = enumerate_paths(arrows, ell, vertices)
        index = {(s, w): i for i, (s, w, _) in enumerate(layer)}
        if not relations or ell < rel_len:
            dims.append(len(layer))
            continue
        rows = []
        free = ell - rel_len
        for s in range(free + 1):
            lefts = enumerate_paths(arrows, s, vertices)
            rights = enumerate_paths(arrows, free - s, vertices)
            for psrc, pword, ptgt in lefts:
                for rstart, rend, rel in relations:
                    if ptgt != rstart:
                        continue
                    for qsrc, qword, _ in rights:
                        if qsrc != rend:
                            continue
                        row = [0] * len(layer)
                        for w, c in rel.items():
                            row[index[(psrc, pword + w + qword)]] += c
                        if any(row):
                            rows.append(row)
        dims.append(len(layer) - dense_rank(rows, p))
    return dims


class LabelledLinSolver:
    """Reference sparse solver: every echelon row carries its label combination.

    Rows are normalised to pivot 1 with ``Field`` arithmetic throughout, so
    membership tests double as certificate extraction.  Same interface and
    pivots as ``skewgin.linalg.LinSolver``, kept to cross-check it.
    """

    def __init__(self, field):
        self.field = field
        # pivot key -> (normalised row dict, combo dict label -> scalar)
        self.rows = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec, combo, sign):
        """Eliminate vec against stored rows; mutates and returns (vec, combo).

        Stored rows satisfy row = sum(row_combo[l] * original_l).  With
        sign=-1 the invariant vec = sum(combo * originals) is maintained
        (insertion); with sign=+1 it is residual = target - sum(combo *
        originals) (expression).
        """
        f = self.field
        while vec:
            pivot = min(vec)
            hit = self.rows.get(pivot)
            if hit is None:
                return vec, combo, pivot
            row, row_combo = hit
            factor = vec[pivot]
            signed = factor if sign > 0 else f.neg(factor)
            for k, v in row.items():
                nv = f.sub(vec.get(k, f.zero()), f.mul(factor, v))
                if nv == f.zero():
                    vec.pop(k, None)
                else:
                    vec[k] = nv
            for k, v in row_combo.items():
                nv = f.add(combo.get(k, f.zero()), f.mul(signed, v))
                if nv == f.zero():
                    combo.pop(k, None)
                else:
                    combo[k] = nv
        return vec, combo, None

    def add(self, vec, label=None):
        f = self.field
        vec = {k: v for k, v in vec.items() if v != f.zero()}
        combo = {} if label is None else {label: f.one()}
        vec, combo, pivot = self._reduce(vec, combo, sign=-1)
        if pivot is None:
            return False
        scale = f.inv(vec[pivot])
        vec = {k: f.mul(scale, v) for k, v in vec.items()}
        combo = {k: f.mul(scale, v) for k, v in combo.items()}
        self.rows[pivot] = (vec, combo)
        return True

    def contains(self, vec):
        _, _, pivot = self._reduce(dict(vec), {}, sign=1)
        return pivot is None

    def residual(self, vec):
        out = {}
        work = dict(vec)
        f = self.field
        while work:
            pivot = min(work)
            hit = self.rows.get(pivot)
            if hit is None:
                out[pivot] = work.pop(pivot)
                continue
            row, _ = hit
            factor = work[pivot]
            for k, v in row.items():
                nv = f.sub(work.get(k, f.zero()), f.mul(factor, v))
                if nv == f.zero():
                    work.pop(k, None)
                else:
                    work[k] = nv
        return out

    def express(self, vec):
        _, combo, pivot = self._reduce(dict(vec), {}, sign=1)
        if pivot is not None:
            return None
        return combo


def marker_express(field, inputs, vec):
    """The combination of the labelled inputs, a list of (label, vector)
    that each enlarged a solver's span, that gives vec, or None; the
    marker-column solve that back-substitution in
    ``skewgin.linalg.LinSolver.express`` replaced.

    Each input is extended by a marker column keyed (1, i) after every
    original key (0, k) and eliminated afresh: reducing vec there leaves
    minus the coefficients on the markers, and a key (0, k) left over means
    vec is outside the span of the inputs.  A repeated label gets the sum
    of its inputs' coefficients.  The vectors hold kernel ints, as
    ``LinSolver`` takes them.
    """
    solver = LinSolver(field)
    for i, (_, v) in enumerate(inputs):
        marked = {(0, k): c for k, c in v.items()}
        marked[(1, i)] = 1
        solver.add(marked)
    residual = solver.residual({(0, k): c for k, c in vec.items()})
    if any(part == 0 for part, _ in residual):
        return None
    return field.accumulate({}, ((inputs[i][0], field.neg(c)) for (_, i), c in residual.items()))


def naive_mul_monomials(field, m1, m2):
    """Normal-ordered product of two monomials on field scalars, computed
    afresh on each call; the product that ``WeylAlgebra._mul_monomials``
    memoizes on plain ints."""
    (a1, b1), (a2, b2) = m1, m2
    n = len(a1)
    terms = []
    for k in product(*(range(min(b1[i], a2[i]) + 1) for i in range(n))):
        coeff = 1
        for i in range(n):
            coeff *= comb(b1[i], k[i]) * comb(a2[i], k[i]) * factorial(k[i])
        alpha = tuple(a1[i] + a2[i] - k[i] for i in range(n))
        beta = tuple(b1[i] + b2[i] - k[i] for i in range(n))
        terms.append(((alpha, beta), field.from_int(coeff)))
    return field.accumulate({}, terms)


def naive_weyl_mul(field, u, v):
    return field.accumulate({}, (
        (m, field.mul(field.mul(c1, c2), c))
        for m1, c1 in u.items() for m2, c2 in v.items()
        for m, c in naive_mul_monomials(field, m1, m2).items()))


def _basis_monomial(n, k):
    unit = tuple(int(j == k % n) for j in range(n))
    return (unit, (0,) * n) if k < n else ((0,) * n, unit)


def naive_koszul_differential(field, n, element):
    """The resolution differential on field scalars:
    (v_1 ^ ... ^ v_m) (x) s (x) t goes to the sum over i of
    +-(... v_i-hat ...) (x) (v_i s (x) t - s (x) t v_i).  The sign is
    ``weyl._remove_sign``, looked up on each call, so a broken sign breaks
    the oracle and the library alike."""
    out = {}
    for (wedge, (s, t)), coeff in element.items():
        for pos, k in enumerate(wedge):
            v = _basis_monomial(n, k)
            sign = field.from_int(weyl._remove_sign(wedge, pos))
            rest = wedge[:pos] + wedge[pos + 1:]
            c = field.mul(sign, coeff)
            field.accumulate(out, (((rest, (m, t)), field.mul(c, cm))
                                   for m, cm in naive_mul_monomials(field, v, s).items()))
            field.accumulate(out, (((rest, (s, m)), field.neg(field.mul(c, cm)))
                                   for m, cm in naive_mul_monomials(field, t, v).items()))
    return out


def naive_dual_differential(field, n, element):
    """The dual complex's differential on field scalars:
    w (x) s (x) t goes to the sum over j not in w of
    eps (w ^ e_j*) (x) (s v_j (x) t - s (x) v_j t), with eps the sign of the
    permutation that sorts w + (j,), counted by its inversions."""
    out = {}
    for (wedge, (s, t)), coeff in element.items():
        for j in range(2 * n):
            if j in wedge:
                continue
            word = wedge + (j,)
            odd = sum(a > b for a, b in combinations(word, 2)) % 2
            c = field.neg(coeff) if odd else coeff
            v, new_wedge = _basis_monomial(n, j), tuple(sorted(word))
            field.accumulate(out, (((new_wedge, (m, t)), field.mul(c, cm))
                                   for m, cm in naive_mul_monomials(field, s, v).items()))
            field.accumulate(out, (((new_wedge, (s, m)), field.neg(field.mul(c, cm)))
                                   for m, cm in naive_mul_monomials(field, v, t).items()))
    return out


def greater_sign_inserts(chains):
    """The dual's moves of a ``skewgin.weyl._Chains``, built by their own
    rule: for each letter j not in w, the insert to w + j with the sign
    (-1)^(letters of w greater than j), on the product tables that the
    resolution's moves hold (drops of the full wedge, one per letter).
    The loop that the transpose of the drops replaced, and the dual's only
    table now that the library transposes the drop rule on generators."""
    n2, wid = chains.n2, chains.wedge_index
    tables = [(left, right) for _, _, left, _, right in chains.drops[wid[tuple(range(n2))]]]
    out = []
    for w in chains.wedges:
        inserts = []
        for j in range(n2):
            if j in w:
                continue
            greater = sum(1 for x in w if x > j)
            sign = 1 if greater % 2 == 0 else -1
            left, right = tables[j]
            inserts.append((wid[tuple(sorted(w + (j,)))], sign, right, -sign, left))
        out.append(inserts)
    return out


def left_difference(algebra, k, u):
    """(v (x) 1 - 1 (x) v).u for the k-th V basis vector v, on the
    library's memoized int products."""
    v = algebra.basis_monomial(k)
    monomial_product = algebra._mul_monomials
    out = {}
    for (s, t), c in u.items():
        algebra.field.accumulate(out, (((m, t), c * cm)
                                       for m, cm in monomial_product(v, s).items()))
        algebra.field.accumulate(out, (((s, m), -c * cm)
                                       for m, cm in monomial_product(t, v).items()))
    return out


def right_difference(algebra, k, u):
    """u.(v (x) 1 - 1 (x) v) for the k-th V basis vector v, on the
    library's memoized int products."""
    v = algebra.basis_monomial(k)
    monomial_product = algebra._mul_monomials
    out = {}
    for (s, t), c in u.items():
        algebra.field.accumulate(out, (((m, t), c * cm)
                                       for m, cm in monomial_product(s, v).items()))
        algebra.field.accumulate(out, (((s, m), -c * cm)
                                       for m, cm in monomial_product(v, t).items()))
    return out


def per_position_koszul_differential(algebra, element):
    """The resolution differential as one ``left_difference`` per term and
    wedge position, each summed into the result by its own accumulate."""
    out = {}
    for (wedge, pair), coeff in element.items():
        u = {pair: coeff}
        for pos, k in enumerate(wedge):
            moved = left_difference(algebra, k, u)
            sign = weyl._remove_sign(wedge, pos)
            rest = wedge[:pos] + wedge[pos + 1:]
            algebra.field.accumulate(out, (((rest, key), sign * c)
                                           for key, c in moved.items()))
    return out


def per_position_dual_differential(algebra, element):
    """The dual differential as one ``right_difference`` per term and added
    index j, each summed into the result by its own accumulate."""
    out = {}
    for (wedge, pair), coeff in element.items():
        u = {pair: coeff}
        for j in range(2 * algebra.n):
            if j in wedge:
                continue
            moved = right_difference(algebra, j, u)
            sign = 1 if sum(1 for w in wedge if w > j) % 2 == 0 else -1
            new_wedge = tuple(sorted(wedge + (j,)))
            algebra.field.accumulate(out, (((new_wedge, key), sign * c)
                                           for key, c in moved.items()))
    return out


def naive_monomial_image(field, n, images, monomial):
    """g(monomial): the product, in order, of the images of its variables."""
    alpha, beta = monomial
    acc = {((0,) * n, (0,) * n): field.one()}
    for k, power in enumerate(alpha + beta):
        for _ in range(power):
            acc = naive_weyl_mul(field, acc, images[k])
    return acc


def naive_wedge_image(field, matrix, wedge):
    """The exterior power of the matrix on one wedge basis element."""
    columns = [[i for i in range(len(matrix)) if matrix[i][k] != field.zero()] for k in wedge]
    terms = []
    for idxs in product(*columns):
        if len(set(idxs)) != len(idxs):
            continue
        coeff = field.one()
        for i, k in zip(idxs, wedge):
            coeff = field.mul(coeff, matrix[i][k])
        if sum(a > b for a, b in combinations(idxs, 2)) % 2:
            coeff = field.neg(coeff)
        terms.append((tuple(sorted(idxs)), coeff))
    return field.accumulate({}, terms)


def naive_chain_action(field, n, matrix, element):
    """Diagonal action on wedge (x) enveloping-algebra elements on field
    scalars, rebuilding the matrix images and mapping every wedge and
    monomial afresh on each call.  Column k of the matrix is the image of
    the k-th V basis vector."""
    images = [{_basis_monomial(n, i): matrix[i][k] for i in range(2 * n)
               if matrix[i][k] != field.zero()} for k in range(2 * n)]
    out = {}
    for (wedge, (s, t)), coeff in element.items():
        gs = naive_monomial_image(field, n, images, s)
        gt = naive_monomial_image(field, n, images, t)
        for new_wedge, wc in naive_wedge_image(field, matrix, wedge).items():
            field.accumulate(out, (
                ((new_wedge, (m1, m2)), field.mul(field.mul(coeff, wc), field.mul(c1, c2)))
                for m1, c1 in gs.items() for m2, c2 in gt.items()))
    return out


def naive_is_symplectic(field, n, matrix):
    """M^T J M = J for the commutator pairing J of V: [x_i, d_i] = -1."""
    size = 2 * n
    form = [[field.zero()] * size for _ in range(size)]
    for i in range(n):
        form[i][n + i], form[n + i][i] = field.from_int(-1), field.one()
    for i in range(size):
        for j in range(size):
            entry = field.zero()
            for a in range(size):
                for b in range(size):
                    entry = field.add(entry, field.mul(field.mul(matrix[a][i], form[a][b]),
                                                       matrix[b][j]))
            if entry != form[i][j]:
                return False
    return True


def naive_sp_equivariance(n, matrices, field, filt_bound):
    """``check_sp_equivariance`` on field scalars with nothing cached: both
    sides of d(g . elem) = g . d(elem) are computed from scratch for every
    chain basis element of enveloping filtration at most filt_bound, in the
    same order and with the same failure text.  Bound 0 leaves exactly the
    generators w (x) 1 (x) 1 that the library checks.  Only the monomial
    list and the differential's sign come from ``skewgin.weyl``."""
    for idx, matrix in enumerate(matrices):
        if not naive_is_symplectic(field, n, matrix):
            raise CheckFailed(
                f"matrix {idx} does not preserve the commutator pairing", matrix_index=idx)
    mons = weyl.WeylAlgebra(n, field).monomials_up_to(filt_bound)
    pairs = [(s, t) for s in mons for t in mons
             if sum(s[0]) + sum(s[1]) + sum(t[0]) + sum(t[1]) <= filt_bound]
    report = []
    for idx, matrix in enumerate(matrices):
        for d in range(1, 2 * n + 1):
            for w, pair in product(combinations(range(2 * n), d), pairs):
                elem = {(w, pair): field.one()}
                lhs = naive_koszul_differential(
                    field, n, naive_chain_action(field, n, matrix, elem))
                rhs = naive_chain_action(
                    field, n, matrix, naive_koszul_differential(field, n, elem))
                if lhs != rhs:
                    report.append(
                        f"matrix {idx}: differential not equivariant at position {d} "
                        f"on wedge {w} and pair {pair}")
    return report


def position_keys(algebra, d, env):
    """The dict keys (w, (s, t)) of position d at enveloping filtration at
    most env, in listing order: the ``skewgin.weyl._position_basis`` that
    the codes of ``_Chains.basis`` replaced."""
    if env < 0:
        return []
    mons, n2 = algebra.monomials_up_to(env), 2 * algebra.n
    pairs = [(s, t) for s in mons
             for t in mons[:comb(env - weyl.WeylAlgebra.monomial_filtration(s) + n2, n2)]]
    return [(w, p) for w in combinations(range(n2), d) for p in pairs]


def dict_koszul_differential(algebra, element):
    """The dict-keyed resolution differential that the codes and tables of
    ``skewgin.weyl._Chains`` replaced: the memoized monomial products of
    each term, summed in one accumulate."""
    product = algebra._mul_monomials

    def terms():
        for (wedge, (s, t)), c in element.items():
            for pos, k in enumerate(wedge):
                sc = weyl._remove_sign(wedge, pos) * c
                rest, v = wedge[:pos] + wedge[pos + 1:], algebra.basis_monomial(k)
                for m, cm in product(v, s).items():
                    yield (rest, (m, t)), sc * cm
                for m, cm in product(t, v).items():
                    yield (rest, (s, m)), -sc * cm

    return algebra.field.accumulate({}, terms())


def dict_dual_differential(algebra, element):
    """The dict-keyed dual differential that the codes and tables of
    ``skewgin.weyl._Chains`` replaced."""
    product, n2 = algebra._mul_monomials, 2 * algebra.n

    def terms():
        for (wedge, (s, t)), c in element.items():
            for j in range(n2):
                if j in wedge:
                    continue
                sign = 1 if sum(1 for w in wedge if w > j) % 2 == 0 else -1
                new_wedge, v = tuple(sorted(wedge + (j,))), algebra.basis_monomial(j)
                for m, cm in product(s, v).items():
                    yield (new_wedge, (m, t)), sign * c * cm
                for m, cm in product(v, t).items():
                    yield (new_wedge, (s, m)), -sign * c * cm

    return algebra.field.accumulate({}, terms())


def dict_keyed_homology(field, positions, differential, closing, first_listed=False):
    """The dict-keyed ``skewgin.weyl._homology`` that int codes replaced:
    positions hold the dict keys of each position, differential maps a
    dict to a dict, and each image is re-keyed by minus the index of its
    target key, so rows pivot on their last-listed key.  With first_listed
    the index itself is the key, so rows pivot on their first-listed key,
    the order that the last-listed pivots replaced.  Returns (ranks,
    homology)."""
    sign = 1 if first_listed else -1
    ranks = [0] * (len(positions) + 1)
    for i in range(1, len(positions)):
        target = {key: sign * k for k, key in enumerate(positions[i - 1])}
        solver = LinSolver(field)
        for k, key in enumerate(positions[i]):
            image = differential({key: 1})
            if i == 1 and k < 200 and field.accumulate({}, (
                    (m, c * cm) for (_, (s, t)), c in image.items()
                    for m, cm in closing(s, t).items())):
                raise AssertionError("the closing map does not annihilate the image")
            vec = {target[key]: c for key, c in image.items()}
            if vec:
                solver.add(vec)
        ranks[i] = solver.rank
    homology = [len(b) - ranks[i] - ranks[i + 1] for i, b in enumerate(positions)]
    return ranks[:-1], homology


def moves_image(chains, code, moves):
    """The image of one code of a ``skewgin.weyl._Chains`` under the
    differential of any moves listed per wedge as (target wedge id, sign,
    s table, sign, t table): chains.drops or ``greater_sign_inserts``.  The
    ``_Chains.image`` that read its moves from an argument, which the one
    read of chains.drops replaced; keyed by minus the code of each target,
    reduced mod p over GF(p)."""
    w, s, t = chains.split(code)
    vec = {}
    for target, s_sign, s_side, t_sign, t_side in moves[w]:
        for m, c in s_side(s):
            vec[chains.wedge_at[target] + chains.pair_at[m] - t] = s_sign * c
        for m, c in t_side(t):
            vec[chains.wedge_at[target] + chains.pair_at[s] - m] = t_sign * c
    p = chains.field.p
    return vec if p is None else {k: r for k, v in vec.items() if (r := v % p)}


def phi_element(field, n, element):
    """The chain isomorphism phi(w (x) s (x) t) = sign(w, c) c (x) t (x) s,
    c the complement of w and sign(w, c) the sign of listing w, then c, on
    a dict-keyed element: the map that
    ``skewgin.weyl.dual_top_concentration`` checks on generators only."""
    out = {}
    for (w, (s, t)), v in element.items():
        c = tuple(j for j in range(2 * n) if j not in w)
        sign = -1 if sum(a > b for a in w for b in c) % 2 else 1
        out[c, (t, s)] = sign * v
    return field.accumulate({}, out.items())


def coded_homology(chains, layout, moves, closing):
    """Dimensions, ranks and homology of a bounded complex on int codes,
    counted from its closing end: the general form that
    ``skewgin.weyl.bounded_exactness`` folded in for the resolution alone.

    layout[i] is the (wedge length, enveloping filtration bound) of the
    position at distance i from the closing end, and moves (chains.drops
    or ``greater_sign_inserts``) map position i into position i - 1 through
    ``moves_image``, each image keyed by minus the codes of its targets.
    closing(s, t) maps the monomial pair s (x) t off position 0 into the
    algebra; on the first 200 images of position 1
    it must vanish.  Returns (dimensions, ranks, homology): ranks[i] is the
    rank of the map out of position i (0 at i = 0), and homology[0] is the
    cokernel of the map into position 0.
    """
    field = chains.field
    positions = [chains.position(d, env) for d, env in layout]
    ranks = [0] * (len(positions) + 1)
    for i in range(1, len(positions)):
        solver = LinSolver(field)
        for k, code in enumerate(positions[i]):
            vec = moves_image(chains, code, moves)
            if i == 1 and k < 200 and field.accumulate({}, (
                    (m, c * cm) for at, c in vec.items()
                    for m, cm in closing(*chains.key(-at)[1]).items())):
                raise AssertionError("the closing map does not annihilate the image")
            if vec:
                solver.add(vec)
        ranks[i] = solver.rank
    dimensions = [len(codes) for codes in positions]
    homology = [size - ranks[i] - ranks[i + 1] for i, size in enumerate(dimensions)]
    return dimensions, ranks[:-1], homology


def eliminated_dual_report(n, filt, field):
    """The dual report by its own elimination, which the chain isomorphism
    of ``skewgin.weyl.dual_top_concentration`` replaced: the int-coded
    homology of the dual complex listed from the top down, by the
    insertion moves of ``greater_sign_inserts``, closed off the top by
    s (x) t -> s t."""
    algebra = weyl.WeylAlgebra(n, field)
    chains, top = weyl._chains(algebra, filt), 2 * n
    dimensions, _, homology = coded_homology(
        chains, [(top - i, filt - i) for i in range(top + 1)], greater_sign_inserts(chains),
        algebra._mul_monomials)
    return {
        "dimensions": dimensions[::-1],
        "homology": {d: homology[top - d] for d in range(top + 1)},
        "top_homology": homology[0],
        "expected_top": comb(filt + 2 * n, 2 * n),
    }


def naive_crossed_mul(x, y):
    """x * y one field scalar product per term: (p.g)(q.h) summed over the
    terms c * r of g acting on q as c_p * c_q * c * p.r.gh, read from the
    field-scalar views of x and y and of the action's images."""
    action = x.action
    gmul, compose = action.group.mul, action.quiver.compose
    return scalar_element(action, action.field.accumulate({}, (
        ((pr, gmul(g, h)), cp * cq * cr)
        for (p, g), cp in x.field_terms().items()
        for (q, h), cq in y.field_terms().items()
        for r, cr in action.act_path(g, q).terms.items()
        if (pr := compose(p, r)) is not None)))


def naive_act_path(action, g, path):
    """g acting on a path as its own left fold e_{g(source)} * g(a1) * ...
    * g(ak), sharing no prefix with any other path."""
    q, field = action.quiver, action.field
    out = AlgElement.from_path(q, field, q.trivial_path(action.act_vertex(g, path.source)))
    for name in path.arrows:
        out = out * action.arrow_images[g][name]
    return out


def naive_contragredient_image(action, g, arrow_name):
    """Image of an arrow under the inverse-transpose of its block matrix,
    the block inverted afresh for each arrow: the method that the one
    inverse per block of ``skewgin.action.extend_to_ginzburg`` replaced."""
    a = action.quiver.arrow(arrow_name)
    mat, cols, rows = action.block_matrix(g, a.src, a.tgt)
    inv = invert_matrix(action.field, mat)
    k, src = cols.index(arrow_name), action.act_vertex(g, a.src)  # (M^-1)^T at [t][k]
    return AlgElement(action.quiver, action.field, (
        (Path(src, (row_name,)), inv[k][t]) for t, row_name in enumerate(rows)))


def naive_expand_certificate(action, certificate):
    """Re-expand ((u, v), coeff) commutator entries one element sum at a
    time: total + coeff * (uv - vu), each through scale, negation and
    subtraction."""
    total = CrossedElement.zero(action)
    for (u, v), coeff in certificate:
        eu, ev = key_element(action, u), key_element(action, v)
        total = total + scale(eu * ev - ev * eu, coeff)
    return total


def naive_embed_path(md, path):
    """The embedding of one reduced path as its own left fold
    e_src * a1 * ... * ak, sharing no prefix with any other path."""
    acc = md.vertex_idems[path.source]
    for name in path.arrows:
        acc = naive_crossed_mul(acc, md.arrow_embed[name])
    return acc


def whole_layer_ranks(md, bound):
    """The rank of each length layer of the embedded reduced paths, up to
    bound, in one solver per layer on every (path, group element) key; the
    rank that the per-block solvers on pivot coordinates of
    ``skewgin.morita.block_rank`` replaced.  Each path is embedded as its
    own fold of full arrow embeddings, e_src * a1 * ... * ak."""
    solvers = [LinSolver(md.field) for _ in range(bound + 1)]
    for p in basis_up_to(md.qprime, bound):
        acc = md.vertex_idems[p.source]
        for name in p.arrows:
            acc = acc * md.arrow_embed[name]
        solvers[len(p.arrows)].add(acc.terms)
    return [solver.rank for solver in solvers]


def all_pairs_multiplicativity(md, bound):
    """The report lines of the pair check of
    ``skewgin.morita.check_embedding`` with ep * eq formed for every pair
    of reduced paths of total length at most min(bound, 2), composable or
    not, the loop that its products on the vertices and arrows replaced."""
    report = []
    qprime = md.qprime
    by_len = paths_by_length(qprime, bound)
    embedded = embed_paths(md, [p for layer in by_len.values() for p in layer])
    pair_bound = min(bound, 2)
    short = [p for ell in range(pair_bound + 1) for p in by_len.get(ell, [])]
    zero = CrossedElement.zero(md.action)
    for p in short:
        ep = embedded[p]
        for q in short:
            if len(p.arrows) + len(q.arrows) > pair_bound:
                continue
            pq = qprime.compose(p, q)
            if ep * embedded[q] != (zero if pq is None else embedded[pq]):
                report.append(f"embedding is not multiplicative on {p} * {q}")
    return report


def all_pairs_dimension_check(md, w, reduced_w, bound):
    """(rows, ok) of ``skewgin.morita.morita_dimension_check`` with the
    corner e.(p, g).e formed for every (path, group element) pair, the loop
    that its restriction to normal words replaced: the relation ideal I is
    eliminated once per length, its rows are copied onto each group slice,
    and the corner dimension is the rank all corners add to them."""
    action, field = md.action, md.field
    relations = derivative_relations(w)
    by_len = paths_by_length(action.quiver, bound)
    ideals = (relation_ideal(relations, by_len, bound, cycle_length_of(w) - 1) if relations
              else (LinSolver(field) for _ in range(bound + 1)))
    n = action.group.size
    e = md.total_idempotent()
    right = jacobian_truncation(md.qprime, reduced_w, bound)
    rows = []
    for ell, ideal in zip(range(bound + 1), ideals):
        solver = LinSolver(field)
        for g in action.group.elements():
            solver.rows.update((k * n + g, {kk * n + g: c for kk, c in row.items()})
                               for k, row in ideal.rows.items())
        rank_relations = solver.rank
        for key in crossed_basis(action, ell):
            if (cornered := corner(e, key)).terms:
                solver.add(cornered.terms)
        rows.append((ell, solver.rank - rank_relations, right[ell]))
    return rows, all(l == r for _, l, r in rows)


def naive_corner(e, key):
    """The corner e.(p, g).e as two general products."""
    return e * key_element(e.action, key) * e


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


def naive_characters(group, field):
    """All homomorphisms G -> k^x for an abelian group, as value tuples: root
    values assigned to a greedy generating set, each assignment checked by a
    walk over the whole group, then the count checked.

    Requires a primitive root of unity of order exp(G); raises SkewginError
    otherwise.  Characters are returned sorted by their value tuples.
    """
    if not group.is_abelian():
        raise SkewginError("character construction requires an abelian group")
    f = field
    exp = group.exponent()
    omega = primitive_root_of_unity(field, exp)
    # greedy generating sequence, largest order first
    generators = []
    generated = {group.identity}
    by_order = sorted(group.elements(), key=lambda g: (-group.order(g), g))
    for g in by_order:
        if g in generated:
            continue
        generators.append(g)
        frontier = set(generated) | {g}
        while True:
            new = {group.mul(a, b) for a in frontier for b in frontier}
            if new <= frontier:
                break
            frontier |= new
        generated = frontier
        if len(generated) == group.size:
            break

    def try_extend(gen_values):
        values = {group.identity: f.one()}
        queue = [group.identity]
        while queue:
            x = queue.pop()
            for g, val in gen_values:
                y = group.mul(x, g)
                v = f.mul(values[x], val)
                if y in values:
                    if values[y] != v:
                        return None
                else:
                    values[y] = v
                    queue.append(y)
        if len(values) != group.size:
            return None
        return tuple(values[g] for g in group.elements())

    found = set()
    def assign(idx, chosen):
        if idx == len(generators):
            vec = try_extend(chosen)
            if vec is not None:
                found.add(vec)
            return
        g = generators[idx]
        o = group.order(g)
        root = f.pow(omega, exp // o)
        for k in range(o):
            assign(idx + 1, chosen + [(g, f.pow(root, k))])

    assign(0, [])
    if len(found) != group.size:
        raise SkewginError(f"character count {len(found)} != |G| = {group.size}")
    return sorted(found)


def diagonal_orbit_reps(action, orbit_a, orbit_b):
    """Least-pair representatives of the diagonal orbits on orbit_a x
    orbit_b, by search over the pairs: the search that the least h(y) over
    the stabilizer of the representative in ``skewgin.morita.build_bimodule``
    replaced."""
    G = action.group
    pairs = {(x, y) for x in orbit_a for y in orbit_b}
    reps = []
    while pairs:
        seed = min(pairs)
        orbit = {(action.act_vertex(g, seed[0]), action.act_vertex(g, seed[1]))
                 for g in G.elements()}
        reps.append(min(orbit))
        pairs -= orbit
    return sorted(reps)


def naive_build_bimodule(action, reps, kappa, stabilizers):
    """The arrow bimodule basis {(i, j, degree): [element]}, each generator
    the left-to-right product g1 . kappa[i'] . a . kappa[j']^-1 . g2 of
    five crossed elements, the group elements as unit sums over every
    vertex, and the orbits recomputed from the action."""
    G, quiver, field = action.group, action.quiver, action.field

    def unit(g):
        return CrossedElement.from_alg(action, path_unit(quiver, field), g)

    orbit_rep = {v: min(action.act_vertex(g, v) for g in G.elements())
                 for v in quiver.vertices}
    slots = {}
    for i in reps:
        orbit_i = sorted(v for v in quiver.vertices if orbit_rep[v] == i)
        for j in reps:
            orbit_j = sorted(v for v in quiver.vertices if orbit_rep[v] == j)
            candidates = {}
            for (i2, j2) in diagonal_orbit_reps(action, orbit_i, orbit_j):
                left_twist, right_twist = unit(kappa[i2]), unit(G.inv(kappa[j2]))
                arrows = sorted(a.name for a in quiver.arrows
                                if a.src == i2 and a.tgt == j2)
                for g1 in stabilizers[i]:
                    for name in arrows:
                        mid = CrossedElement.from_alg(
                            action, AlgElement.from_arrow(quiver, field, name))
                        for g2 in stabilizers[j]:
                            z = unit(g1) * left_twist * mid * right_twist * unit(g2)
                            if not z.is_zero():
                                candidates.setdefault(quiver.arrow(name).deg, []).append(z)
            for deg in sorted(candidates):
                solver = LinSolver(field)
                for z in candidates[deg]:
                    if solver.add(z.terms):
                        slots.setdefault((i, j, deg), []).append(z)
    return slots


def naive_commutator_basis(action, length):
    """``commutator_basis`` with each commutator formed as uv - vu from
    two one-term elements and their two products."""
    out = []
    for s in range(length // 2 + 1):
        t = length - s
        left = crossed_basis(action, s)
        right = crossed_basis(action, t)
        for i, u in enumerate(left):
            start = i + 1 if s == t else 0
            for v in right[start:]:
                eu, ev = key_element(action, u), key_element(action, v)
                elem = eu * ev - ev * eu
                if not elem.is_zero():
                    out.append(CommutatorTerm(u, v, elem))
    return out


def _feed_solver(target, labelled):
    """(solver, length, dens): a fresh ``LinSolver`` holding the labelled
    elements' int terms in the order given, as
    ``express_modulo_commutators`` fills its own."""
    solver, dens = LinSolver(target.action.field), {}
    for label, element in labelled:
        solver.add(element.terms, label=label)
        dens[label] = element.den
    return solver, target.pure_length(), dens


def _split_combination(combo, target, dens):
    """(the caller's labels, certificate entries) of a combination of int
    vectors, each coefficient times its input's den over the target's."""
    f = target.action.field
    own, certificate = {}, []
    for label, coeff in combo.items():
        den = label.element.den if isinstance(label, CommutatorTerm) else dens[label]
        coeff = f.div(f.mul(coeff, f.from_int(den)), f.from_int(target.den))
        if isinstance(label, CommutatorTerm):
            certificate.append(((label.u, label.v), coeff))
        else:
            own[label] = coeff
    return own, certificate


def feed_all_express_modulo_commutators(element, labelled=()):
    """``express_modulo_commutators`` that feeds every commutator of
    ``naive_commutator_basis``, those touching the residual's support
    first, and only then expresses the target once more.  Returns
    (combination, certificate entries); the zero target is the empty
    combination."""
    if element.is_zero():
        return {}, []
    solver, length, dens = _feed_solver(element, labelled)
    target = element.terms
    combo = solver.express(target)
    if combo is None:
        support = set(solver.residual(target))
        terms = naive_commutator_basis(element.action, length)
        vectors = [term.element.terms for term in terms]
        order = sorted(range(len(terms)), key=lambda k: support.isdisjoint(vectors[k]))
        for k in order:
            solver.add(vectors[k], label=terms[k])
        combo = solver.express(target)
        if combo is None:
            return None
    return _split_combination(combo, element, dens)


def retrying_express_modulo_commutators(element, labelled=()):
    """``express_modulo_commutators`` that feeds the commutators touching the
    residual's support first and retries the target after every 24
    insertions that enlarge the span, stopping at the first success.
    Returns (combination, certificate entries)."""
    solver, length, dens = _feed_solver(element, labelled)
    target = element.terms
    combo = solver.express(target)
    if combo is None:
        support = set(solver.residual(target))
        terms = commutator_basis(element.action, length, _basis_pairs(element.action, length))
        vectors = [term.element.terms for term in terms]
        order = sorted(range(len(terms)), key=lambda k: support.isdisjoint(vectors[k]))
        since_check = 0
        for k in order:
            if solver.add(vectors[k], label=terms[k]):
                since_check += 1
                if since_check == 24:
                    since_check = 0
                    combo = solver.express(target)
                    if combo is not None:
                        break
        else:
            combo = solver.express(target)
        if combo is None:
            return None
    return _split_combination(combo, element, dens)


# ---------- helpers no command uses ----------

def one(action):
    """The unit of the crossed product: the sum of the vertex idempotents
    at the identity."""
    ident, unit = action.group.identity, action.field.one()
    return scalar_element(action, {(action.quiver.trivial_path(v), ident): unit
                                   for v in action.quiver.vertices})


def scale(x, coeff):
    """coeff * x on field scalars, cleared afresh by ``scalar_element``."""
    f = x.action.field
    return scalar_element(x.action, {k: f.mul(coeff, c) for k, c in x.field_terms().items()})


def scalar_element(action, terms):
    """The crossed element of ((path, g), field scalar) pairs or a dict,
    summed and cleared by ``Field.scaled`` to the den and int terms on keys
    code * |G| + g that ``CrossedElement`` takes; the inverse of
    ``CrossedElement.field_terms``."""
    field, encode, n = action.field, action.quiver.codes.encode, action.group.size
    acc = field.accumulate({}, terms.items() if isinstance(terms, dict) else terms)
    den, items = field.scaled(acc.items())
    return CrossedElement(action, den, {encode(p) * n + g: c for (p, g), c in items})


def key_element(action, key):
    """The one-term element 1 * (p, g) of an int key code * |G| + g."""
    return CrossedElement(action, 1, {key: 1})


def certificate_entries(field, certificate):
    """The entries ((u, v), field scalar) of a ``Certificate``, one
    ``Field.ratio`` each, in its order."""
    den = certificate.den
    return [(pair, field.ratio(s, den)) for pair, s in certificate.terms.items()]


def entries(field, found):
    """(combination, certificate entries) of what
    ``express_modulo_commutators`` returns, so it compares with the
    oracles above; None stays None."""
    return None if found is None else (found[0], certificate_entries(field, found[1]))


def certificate_of(field, entries):
    """The ``Certificate`` of ((u, v), field scalar) entries through one
    ``Field.combine``, a repeated pair getting the sum of its coefficients."""
    return Certificate(*field.combine((coeff, 1, ((pair, 1),)) for pair, coeff in entries))


def weyl_x(algebra, i):
    """The position x_i."""
    return {algebra.basis_monomial(i): algebra.field.one()}


def weyl_d(algebra, i):
    """The derivation d_i."""
    return {algebra.basis_monomial(algebra.n + i): algebra.field.one()}


def weyl_commutator(algebra, u, v):
    """uv - vu of two Weyl algebra elements."""
    f = algebra.field
    return f.accumulate(algebra.mul(u, v), ((m, f.neg(c)) for m, c in algebra.mul(v, u).items()))


def envelope_one(algebra):
    """The unit 1 (x) 1 of the enveloping algebra."""
    zero_idx = (0,) * algebra.n
    m = (zero_idx, zero_idx)
    return {(m, m): algebra.field.one()}


def path_unit(quiver, field):
    """The unit of the path algebra: the sum of the vertex idempotents."""
    return AlgElement(quiver, field, ((quiver.trivial_path(v), field.one())
                                      for v in quiver.vertices))


def scale_path_element(x, coeff):
    """coeff * x for a path-algebra element."""
    return AlgElement(x.quiver, x.field, ((p, x.field.mul(coeff, c)) for p, c in x.terms.items()))


def group_scale(algebra, coeff, x):
    """coeff * x in the group algebra."""
    return algebra.field.accumulate({}, ((g, algebra.field.mul(coeff, c)) for g, c in x.items()))


def group_sub(algebra, x, y):
    """x - y in the group algebra."""
    return algebra.add(x, group_scale(algebra, algebra.field.from_int(-1), y))


def group_conjugate(algebra, h, x):
    """h x h^-1 term by term."""
    group = algebra.group
    return {group.mul(group.mul(h, g), group.inv(h)): c for g, c in x.items()}


def span_rank(field, vectors) -> int:
    """The rank of vectors of field scalars, each cleared by ``Field.scaled``."""
    solver = LinSolver(field)
    for v in vectors:
        solver.add(dict(field.scaled(list(v.items()))[1]))
    return solver.rank


def rotations_of(quiver, cycle: Path):
    """The signed rotation orbit of a cycle: (word, sign exponent) pairs."""
    rots, _ = _rotations(quiver, cycle)
    return rots


def cyclic_derivative_along(potential: Potential, direction: AlgElement) -> AlgElement:
    """Linear extension of the derivative to a combination of arrows."""
    out = AlgElement.zero(potential.quiver, potential.field)
    for p, c in direction.terms.items():
        if len(p.arrows) != 1:
            raise SkewginError("derivative direction must be an arrow combination")
        out = out + scale_path_element(cyclic_derivative(potential, p.arrows[0]), c)
    return out


class CyclicClass:
    """A length component element up to commutators, with exact equality."""

    def __init__(self, representative: CrossedElement):
        self.representative = representative
        self.length = representative.pure_length() if not representative.is_zero() else 0
        self.action = representative.action
        self._solver = LinSolver(self.action.field)
        for term in commutator_basis(self.action, self.length,
                                     _basis_pairs(self.action, self.length)):
            self._solver.add(term.element.terms)

    def __eq__(self, other):
        if not isinstance(other, CyclicClass):
            return NotImplemented
        diff = self.representative - other.representative
        if diff.is_zero():
            return True
        if diff.pure_length() != self.length:
            return False
        return self._solver.contains(diff.terms)


def hc0_reduce(x: CrossedElement, e: CrossedElement):
    """Rewrite x as a corner element plus an exact combination of commutators.

    Returns (w, certificate) with w in e.L.e, x - w = sum of coeff * [u, v]
    over the certificate entries ((u, v), coeff), re-verified by expansion.
    Raises CheckFailed when the class has no corner representative.
    """
    action = x.action
    if (e * e) != e:
        raise ValueError("corner element is not idempotent")
    if x.is_zero():
        return CrossedElement.zero(action), []
    # corner span first so representatives prefer pure corner solutions
    corners = {}
    for key in crossed_basis(action, x.pure_length()):
        cornered = e * key_element(action, key) * e
        if not cornered.is_zero():
            corners[key] = cornered
    found = express_modulo_commutators(x, corners.items())
    if found is None:
        raise CheckFailed("no corner representative modulo commutators at this length")
    combo, certificate = found
    w = CrossedElement.zero(action)
    for key, coeff in combo.items():
        w = w + scale(corners[key], coeff)
    # self-verify: the certificate must re-expand exactly to x - w
    if expand_certificate(action, certificate) != x - w:
        raise CheckFailed("certificate failed re-expansion")
    return w, certificate_entries(action.field, certificate)
