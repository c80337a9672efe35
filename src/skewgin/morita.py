"""Morita reduction of a skew group algebra to a quiver presentation.

Pipeline: orbit data for the vertex action, one stabilizer idempotent set
per orbit representative, the arrow bimodule inside the crossed product,
its corner under the total idempotent, the reduced quiver spanned by a
deterministic corner basis, the multiplicative embedding of the reduced
path algebra, and (for the untwisted-grading case) transport of the
potential through the corner together with dimension comparisons.

Conventions: orbit representatives are the least vertex name per orbit;
kappa[v] is the least group element moving v onto its representative.  The
arrow bimodule for representatives (i, j) is spanned, over the least pairs
(i, j') of the diagonal orbits on orbit(i) x orbit(j), by the products

    g1 . (arrows i -> j') . kappa[j']^-1 . g2

with g1 in the stabilizer of i and g2 in the stabilizer of j.  Every
diagonal orbit meets {i} x orbit(j), as i is the least vertex of its orbit,
so its least pair is (i, j') with j' the least h(y) over h fixing i, and
no left twist is needed.  The right twist is forced: kappa[j']^-1 (not
kappa[j']) keeps right multiplication by the stabilizer algebra of j
inside the space.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain

from .action import QuiverAction, is_potential_invariant, validate_action
from .crossed import (Certificate, CrossedElement, basis_index, crossed_basis,
                      expand_certificate, express_modulo_commutators, vectorize)
from .errors import CheckFailed, SkewginError, ValidationError
from .ginzburg import derivative_relations, jacobian_truncation, relation_ideal
from .groups import GroupAlgebra, IdempotentSet, abelian_idempotents, validate_idempotent_set
from .linalg import LinSolver
from .potential import Potential, canonicalize, cycle_length_of, least_rotation
from .quiver import AlgElement, Arrow, GradedQuiver, Path, paths_by_length


def orbit_data(action: QuiverAction):
    """Representatives, the kappa map, and stabilizers of the vertex action.

    Returns (reps, kappa, stabilizers): reps sorted by name; kappa[v] the
    least group element with kappa[v].v a representative (identity on
    representatives); stabilizers[v] the sorted element list fixing v.
    """
    G = action.group
    vertices = sorted(action.quiver.vertices)
    orbit_of = {}
    for v in vertices:
        orbit = sorted({action.act_vertex(g, v) for g in G.elements()})
        orbit_of[v] = orbit[0]
    reps = sorted({orbit_of[v] for v in vertices})
    kappa = {}
    for v in vertices:
        if v in reps:
            kappa[v] = G.identity
        else:
            kappa[v] = min(g for g in G.elements()
                           if action.act_vertex(g, v) == orbit_of[v])
    stabilizers = {v: [g for g in G.elements() if action.act_vertex(g, v) == v]
                   for v in vertices}
    return reps, kappa, stabilizers


def build_bimodule(action: QuiverAction, reps, kappa, stabilizers):
    """Deterministic basis of the arrow bimodule inside the crossed product.

    Returns {(i, j, degree): [CrossedElement]} in representative and
    degree order, keyed by the representative pair and the common arrow
    degree of the terms.  Each generator g1.a.kappa[j']^-1.g2 is the one
    term (g1 acting on a), read off its cleared image, tensored with
    g1 kappa[j']^-1 g2, and each slot is the first linearly independent
    subset of its generators.
    """
    G, quiver = action.group, action.quiver
    rep_of = {v: action.act_vertex(kappa[v], v) for v in quiver.vertices}
    index1 = basis_index(action, 1)
    slots = {}
    for i in reps:
        for j in reps:
            slot_candidates = {}  # degree -> list of CrossedElement
            for j2 in sorted({min(action.act_vertex(h, y) for h in stabilizers[i])
                              for y in quiver.vertices if rep_of[y] == j}):
                arrows = quiver.arrows_between(i, j2)
                for g1 in stabilizers[i]:
                    twist = G.mul(g1, G.inv(kappa[j2]))
                    for name in arrows:
                        den, image = action.cleared_image(g1, quiver.path([name]))
                        deg = quiver.arrow(name).deg
                        for g2 in stabilizers[j]:
                            g = G.mul(twist, g2)
                            slot_candidates.setdefault(deg, []).append(CrossedElement(
                                action, den, {(r, g): c for r, c in image}))
            for deg in sorted(slot_candidates):
                solver = LinSolver(action.field)
                slots[(i, j, deg)] = [z for z in slot_candidates[deg]
                                      if solver.add(vectorize(z, index1))]
    return slots


class MoritaData:
    """Everything the reduction produces, ready for embedding and transport;
    an arrow i -> j from bimodule element b embeds as e_i b e_j, folds by b e_j."""

    def __init__(self, action, reps, kappa, stabilizers, idem_sets,
                 bimodule, qprime, vertex_info, vertex_idems, arrow_embed, fold_factors):
        self.action = action
        self.field = action.field
        self.reps = reps
        self.kappa = kappa
        self.stabilizers = stabilizers
        self.idem_sets = idem_sets          # rep -> IdempotentSet over the subgroup
        self.bimodule = bimodule            # (rep, rep, degree) -> basis elements
        self.qprime = qprime
        self.vertex_info = vertex_info      # qprime vertex -> (rep, idempotent idx)
        self.vertex_idems = vertex_idems    # qprime vertex -> CrossedElement
        self.arrow_embed = arrow_embed      # qprime arrow name -> e_src * b * e_tgt
        self.fold_factors = fold_factors    # qprime arrow name -> b * e_tgt, see embed_paths

    def total_idempotent(self) -> CrossedElement:
        return sum((self.vertex_idems[v] for v in self.qprime.vertices),
                   CrossedElement.zero(self.action))

    def choices(self):
        """Canonical record of every deterministic choice, for reports."""
        G = self.action.group
        return {
            "orbit_representatives": list(self.reps),
            "kappa": {v: G.names[g] for v, g in sorted(self.kappa.items())},
            "stabilizer_orders": {v: len(self.stabilizers[v]) for v in self.reps},
            "irreducible_dims": {v: list(self.idem_sets[v].dims) for v in self.reps},
        }


def build_morita(action: QuiverAction, idempotents=None) -> MoritaData:
    """Run the reduction pipeline up to the reduced quiver and embedding.

    idempotents optionally is a pair (vectors, dims): scalar coefficient
    rows over the group's elements with declared irreducible dimensions,
    used at every orbit representative whose stabilizer is the whole
    group.  Every other stabilizer must be abelian.
    """
    problems = validate_action(action)
    if problems:
        raise ValidationError([("/action", problem) for problem in problems])
    field = action.field
    group = action.group
    reps, kappa, stabilizers = orbit_data(action)

    # reduced quiver vertices: one per (representative, idempotent)
    idem_sets = {}
    vertex_info = {}
    vertex_idems = {}
    vertex_names = []
    for rep in reps:
        sub, ambient = group.subgroup(stabilizers[rep])
        if idempotents is not None and sub.size == group.size:
            vectors, dims = idempotents
            algebra = GroupAlgebra(sub, field)
            elements = []
            for vec in vectors:
                if len(vec) != sub.size:
                    raise SkewginError(
                        f"idempotent vector for {rep} has {len(vec)} entries, "
                        f"stabilizer has {sub.size}")
                elements.append({k: c for k, c in enumerate(vec) if c != field.zero()})
            idem_set = IdempotentSet(algebra, elements, list(dims))
        else:
            try:
                idem_set = abelian_idempotents(sub, field)
            except SkewginError as exc:
                raise SkewginError(
                    f"stabilizer of {rep} needs a supplied idempotent set: {exc}") from exc
        failures = validate_idempotent_set(idem_set)
        if failures:
            raise SkewginError(
                f"idempotent set for {rep} failed validation: " + "; ".join(failures))
        idem_sets[rep] = idem_set
        for j, coeffs in enumerate(idem_set.elements):
            name = f"{rep}:{j}"
            vertex_names.append(name)
            vertex_info[name] = (rep, j)
            den, items = field.scaled([((action.quiver.trivial_path(rep), ambient[k]), c)
                                       for k, c in coeffs.items()])
            vertex_idems[name] = CrossedElement(action, den, dict(items))

    # reduced quiver arrows: a deterministic basis of each corner slot of
    # the bimodule
    bimodule = build_bimodule(action, reps, kappa, stabilizers)
    index1 = basis_index(action, 1)
    arrows = []
    arrow_embed, fold_factors = {}, {}
    counter = 0
    for v1 in vertex_names:
        rep1 = vertex_info[v1][0]
        e1 = vertex_idems[v1]
        for v2 in vertex_names:
            rep2 = vertex_info[v2][0]
            e2 = vertex_idems[v2]
            for (i, j, deg), slot in bimodule.items():
                if (i, j) != (rep1, rep2):
                    continue
                solver = LinSolver(field)
                for element in slot:
                    right = element * e2
                    cornered = e1 * right
                    if cornered.is_zero():
                        continue
                    if solver.add(vectorize(cornered, index1)):
                        name = f"m{counter}"
                        counter += 1
                        arrows.append(Arrow(name, v1, v2, deg))
                        arrow_embed[name], fold_factors[name] = cornered, right
    qprime = GradedQuiver(vertex_names, arrows)
    return MoritaData(action, reps, kappa, stabilizers, idem_sets, bimodule,
                      qprime, vertex_info, vertex_idems, arrow_embed, fold_factors)


def embed_paths(md: MoritaData, paths) -> dict:
    """Embeddings of the given reduced paths and of all their prefixes.

    Each path walks back to its longest prefix embedded so far (else its
    source vertex idempotent) and folds forward one arrow at a time,
    keeping every prefix: the left fold e_src * a1 * ... * ak, with every
    shared prefix multiplied once.  The first arrow is its embedding; a
    later one i -> j is its fold factor b * e_j, as the prefix ends in e_i.
    Returns {path: CrossedElement}.
    """
    out = {}
    for p in paths:
        source, arrows, k, prefix = p.source, p.arrows, len(p.arrows), p
        while k and prefix not in out:
            k -= 1
            prefix = Path(source, arrows[:k])
        acc = out.setdefault(prefix, md.vertex_idems[source])
        for k in range(k + 1, len(arrows) + 1):
            acc = out[Path(source, arrows[:k])] = (acc * md.fold_factors[arrows[k - 1]] if k > 1
                                                   else md.arrow_embed[arrows[0]])
    return out


def embed(md: MoritaData, x: AlgElement) -> CrossedElement:
    """Multiplicative embedding of a reduced path-algebra element."""
    embedded = embed_paths(md, x.terms)
    return CrossedElement(md.action, *md.field.combine(
        (coeff, embedded[p].den, embedded[p].terms.items()) for p, coeff in x.terms.items()))


def pivot_elements(md: MoritaData) -> dict:
    """{reduced vertex j: P_j}, the pivot group elements of the echelon span
    of the (e_g(rep), g).e_j over g in G, rep the representative under j.

    As (p, g).e_j = 0 unless g(rep) is the target v of p, the group part of
    a path ending at v in an element of (A#G).e_j lies in the span of these
    rows at v.  Rows pivot on their least key, so restricting the element
    to the keys (p, g) with g in P_j is injective.  The trivial path is the
    one at g(rep): the one at rep would zero every g that moves rep.
    """
    action, pivots = md.action, {}
    trivial_path, act_vertex = action.quiver.trivial_path, action.act_vertex
    for j, e in md.vertex_idems.items():
        rep = md.vertex_info[j][0]
        solver = LinSolver(md.field)
        for g in action.group.elements():
            solver.add((CrossedElement.from_pair(
                action, trivial_path(act_vertex(g, rep)), g) * e).terms)
        pivots[j] = {g for _, g in solver.rows}
    return pivots


def block_rank(md: MoritaData, paths, embedded, index, pivots) -> int:
    """Rank of the embedded paths, one solver per Peirce block: a path i -> j
    lies in e_i (A#G) e_j, independent of the other blocks when the vertex
    idempotents are orthogonal.  It also lies in (A#G).e_j, so only its keys
    (p, g) with g in ``pivots[j]`` (``pivot_elements``) are vectorized, which
    changes no rank."""
    solvers = defaultdict(lambda: LinSolver(md.field))
    for p in paths:
        j = md.qprime.path_target(p)
        kept = pivots[j]
        solvers[p.source, j].add({index[key]: c for key, c in embedded[p].terms.items()
                                  if key[1] in kept})
    return sum(solver.rank for solver in solvers.values())


def check_embedding(md: MoritaData, bound: int):
    """Injectivity and multiplicativity of the embedding, length by length.

    Returns a report list; empty means every length component up to the
    bound embeds with full rank and products match.  Lengths are ranked by
    ``block_rank``, whose e_i e_j = delta_ij e_i the length-0 pairs check.

    An algebra map out of a path algebra is fixed on vertices and arrows,
    so products are formed on those generators only: vertex * vertex,
    vertex * arrow, arrow * vertex, and, from bound 2 on, arrow * arrow
    where the arrows compose.  Every other pair of total length at most 2
    follows by associativity: a * b with t(a) != s(b) is
    a.e_t(a).e_s(b).b = 0, and e_k.(ab) is (e_k.a).b.
    """
    report = []
    qprime = md.qprime
    by_len = paths_by_length(qprime, bound)
    paths_by_length(md.action.quiver, bound)  # every basis_index below reads these layers
    embedded = embed_paths(md, [p for layer in by_len.values() for p in layer])
    pivots = pivot_elements(md)
    for ell in range(bound + 1):
        layer = by_len.get(ell, [])
        rank = block_rank(md, layer, embedded, basis_index(md.action, ell), pivots)
        if rank != len(layer):
            report.append(
                f"length {ell}: embedded rank {rank} < {len(layer)} paths; "
                "the reduced path algebra does not inject")
    # ep * eq multiplies in q's source idempotent and q's first arrow in full,
    # the stored fold of pq does not, so comparing the two is not a tautology
    pair_bound = min(bound, 2)
    generators = [p for ell in range(min(bound, 1) + 1) for p in by_len.get(ell, [])]
    zero = CrossedElement.zero(md.action)
    for p in generators:
        ep = embedded[p]
        for q in generators:
            if len(p.arrows) + len(q.arrows) > pair_bound:
                continue
            pq = qprime.compose(p, q)
            if pq is None and p.arrows and q.arrows:
                continue
            if ep * embedded[q] != (zero if pq is None else embedded[pq]):
                report.append(f"embedding is not multiplicative on {p} * {q}")
    return report


def _fullness_gap(md: MoritaData, e: CrossedElement, ell: int):
    """The report line for length ell when the span of the products u.e.v
    of that length misses part of the component, else None."""
    action = md.action
    index = basis_index(action, ell)
    dim = len(index)
    if dim == 0:
        return None
    solver = LinSolver(md.field)
    for s in range(ell + 1):
        for u in crossed_basis(action, s):
            eu = CrossedElement.from_pair(action, *u) * e
            if eu.is_zero():
                continue
            for v in crossed_basis(action, ell - s):
                w = eu * CrossedElement.from_pair(action, *v)
                if not w.is_zero():
                    solver.add(vectorize(w, index))
                    if solver.rank == dim:
                        return None
    return (f"length {ell}: idempotent span has rank {solver.rank} < {dim}; "
            "the corner misses part of the algebra")


def check_fullness(md: MoritaData, bound: int):
    """Span test: the two-sided span of the total idempotent must exhaust
    every length component up to the bound.

    Lengths add and e has length 0, so when the length-0 products u.e.v
    span the whole length-0 component the ideal contains 1, and every
    length passes.  The longer lengths are checked only when length 0
    fails, and then each failing length is reported.
    """
    if bound < 0:
        return []
    e = md.total_idempotent()
    if _fullness_gap(md, e, 0) is None:
        return []
    gaps = (_fullness_gap(md, e, ell) for ell in range(bound + 1))
    return [gap for gap in gaps if gap is not None]


def transport_potential(w: Potential, md: MoritaData):
    """Move a potential through the corner onto the reduced quiver.

    Only for the untwisted grading (all arrow degrees 0).  The potential
    is expressed by ``express_modulo_commutators`` on the embedded reduced
    cycles of its length.  Returns (reduced potential, certificate); the
    ``Certificate`` adds the rotation commutators of the solved cycles to
    the solved certificate negated, in one ``Field.combine``, and
    re-expands exactly to the difference between the embedded result and
    the original element.
    """
    action, field = md.action, md.field
    quiver = action.quiver
    if any(a.deg != 0 for a in quiver.arrows):
        raise SkewginError("potential transport requires all arrow degrees 0")
    if not is_potential_invariant(w, action):
        raise CheckFailed("the potential is not fixed by the group action")
    if w.is_zero():
        return Potential(md.qprime, field), Certificate(1, {})
    ell = cycle_length_of(w)
    if ell is None:
        raise SkewginError("potential transport requires one cycle length")

    x = CrossedElement.from_alg(action, w.as_element())
    qprime = md.qprime
    cycles = [p for p in paths_by_length(qprime, ell).get(ell, []) if qprime.is_cycle(p)]
    embedded = embed_paths(md, cycles)
    found = express_modulo_commutators(x, [(p, embedded[p]) for p in cycles])
    if found is None:
        raise CheckFailed(
            "the potential class has no representative in the reduced cycle span")
    combo, solved = found

    # assemble the certificate for embed(reduced) - x directly: every
    # canonical rotation u.v -> v.u of a solved cycle contributes the
    # commutator [embed(v), embed(u)], expanded bilinearly over basis pairs
    # (degrees are all zero, no signs), and the solved commutator part
    # enters negated
    raw_terms = []
    splits = []
    for cycle, coeff in combo.items():
        raw_terms.append((coeff, cycle))
        best = least_rotation(cycle)
        if best != 0:
            head = Path(cycle.source, cycle.arrows[:best])
            tail = Path(qprime.path_target(head), cycle.arrows[best:])
            splits.append((coeff, head, tail))
    embedded = embed_paths(md, [p for _, head, tail in splits for p in (head, tail)])
    # every entry on ints over one denominator, merged as it is made and
    # never held as one list, and kept on ints
    def bilinear(tail, head):
        return (((u_key, v_key), a * b) for u_key, a in tail.terms.items()
                for v_key, b in head.terms.items())

    certificate = Certificate(*field.combine(chain(
        ((coeff, embedded[tail].den * embedded[head].den,
          bilinear(embedded[tail], embedded[head])) for coeff, head, tail in splits),
        [(-1, solved.den, solved.terms.items())])))
    del embedded
    reduced = canonicalize(qprime, field, raw_terms)
    # the certificate is never trusted: re-expand and compare exactly
    difference = embed(md, reduced.as_element()) - x
    if expand_certificate(action, certificate) != difference:
        raise CheckFailed("transport certificate failed re-expansion")
    return reduced, certificate


def certify_reduction(md: MoritaData, w: Potential, reduced: Potential):
    """Certify that a reduced potential represents the original class.

    Expresses embed(reduced) - (original tensor identity) by commutators
    alone (``express_modulo_commutators`` with nothing labelled, which
    gives the zero difference the empty certificate), re-expands the
    ``Certificate`` and returns it.
    Raises CheckFailed when the classes differ, which is how a
    perturbed reduced potential is caught.
    """
    action = md.action
    x = CrossedElement.from_alg(action, w.as_element())
    difference = embed(md, reduced.as_element()) - x
    found = express_modulo_commutators(difference)
    if found is None:
        raise CheckFailed(
            "embedded reduced potential differs from the original by more "
            "than commutators")
    certificate = found[1]
    if expand_certificate(action, certificate) != difference:
        raise CheckFailed("certificate failed re-expansion")
    return certificate


def _relation_span_stable(relations, action: QuiverAction) -> bool:
    """The derivative relations must be permuted (as a span) by the action."""
    if not relations:
        return True
    solver = LinSolver(action.field)
    cleared = lambda x: dict(action.field.scaled(x.terms.items())[1])
    for r in relations:
        solver.add(cleared(r))
    for g in action.group.elements():
        for r in relations:
            if not solver.contains(cleared(action.act(g, r))):
                return False
    return True


def corner(e: CrossedElement, key) -> CrossedElement:
    """The corner e.(p, g).e of a basis pair, for e on trivial paths: terms
    c * (e_v, h) and c' * (e_w, k) of e keep c * c' * h(p).hgk exactly when
    h(src p) = v and h(tgt p) = hg(w), as every path of h(p) runs from
    h(src p) to h(tgt p); summed per image den (``CrossedElement.from_sums``)."""
    (p, g), action = key, e.action
    src, tgt = p.source, action.quiver.path_target(p)
    perms, gmul = action.vertex_perms, action.group.mul
    sums = {}
    for (v, h), c in e.terms.items():
        if perms[h][src] == v.source:
            den, image = action.cleared_image(h, p)
            acc, hg = sums.setdefault(den, {}), gmul(h, g)
            for (w, k), c_right in e.terms.items():
                if perms[hg][w.source] == perms[h][tgt]:
                    hgk = gmul(hg, k)
                    for r, cr in image:
                        acc[r, hgk] = acc.get((r, hgk), 0) + c * c_right * cr
    return CrossedElement.from_sums(action, sums, e.den * e.den)


def morita_dimension_check(md: MoritaData, w: Potential, reduced_w: Potential, bound: int):
    """Compare corner dimensions of the quotient crossed product against the
    reduced Jacobian dimensions, length by length.

    Returns (rows, ok): rows of (length, corner dim, reduced dim).  The
    left side quotients the path algebra by the derivative relations first
    and then crosses with the group, which is valid because the action
    permutes the relation span; that fact is asserted at runtime.  Each
    corner e.b.e of a basis pair b is read off e (``corner``), with no product.
    Only pairs (p, g) with p a normal word, no pivot of I's echelon rows,
    are cornered: rows pivot on their least key, so modulo I#G any (p, g)
    is a combination of normal-word pairs, and e.(I#G).e lies in the
    two-sided ideal I#G, so every rank is unchanged.
    """
    action, field = md.action, md.field
    relations = derivative_relations(w)
    if not _relation_span_stable(relations, action):
        raise CheckFailed("derivative relations are not stable under the action")
    cyc_len = cycle_length_of(w)
    if cyc_len is None:
        raise SkewginError("dimension check requires one cycle length")
    by_len = paths_by_length(action.quiver, bound)
    ideals = (relation_ideal(relations, by_len, bound, cyc_len - 1) if relations
              else (LinSolver(field) for _ in range(bound + 1)))
    n = action.group.size
    e = md.total_idempotent()
    rows = []
    right = jacobian_truncation(md.qprime, reduced_w, bound)
    for ell, ideal in zip(range(bound + 1), ideals):
        # crossed_basis lists the group elements of each path together, so
        # (path i, g) has index i * n + g and I#G is one copy of the echelon
        # rows of I per g, on disjoint keys with the pivots kept
        index = basis_index(action, ell)
        solver = LinSolver(field)
        for g in action.group.elements():
            solver.rows.update((k * n + g, {kk * n + g: c for kk, c in row.items()})
                               for k, row in ideal.rows.items())
        rank_relations = solver.rank
        for key, i in index.items():
            if i // n not in ideal.rows and (cornered := corner(e, key)).terms:
                solver.add(vectorize(cornered, index))
        left_dim = solver.rank - rank_relations
        rows.append((ell, left_dim, right[ell]))
    ok = all(l == r for _, l, r in rows)
    return rows, ok
