import gc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skewgin import crossed
from skewgin.action import QuiverAction, validate_action
from skewgin.crossed import (Certificate, CommutatorTerm, CrossedElement, basis_index,
                             commutator_basis, expand_certificate, express_modulo_commutators,
                             vectorize)
from skewgin.document import parse
from skewgin.errors import IncompleteIdempotents
from skewgin.fields import make_field
from skewgin.groups import cyclic_group
from skewgin.linalg import LinSolver
from skewgin.morita import (block_rank, build_bimodule, build_morita, check_embedding,
                            check_fullness, corner, embed, embed_paths, morita_dimension_check,
                            orbit_data, transport_potential)
from skewgin.potential import Potential, canonicalize, cycle_length_of
from skewgin.quiver import AlgElement, GradedQuiver, basis_up_to, paths_by_length

from docs import MCKAY, SIGNED_S3, doc
from oracles import (LabelledLinSolver, feed_all_express_modulo_commutators, naive_build_bimodule,
                     naive_commutator_basis, naive_corner, naive_embed_path,
                     naive_expand_certificate,
                     group_sub, retrying_express_modulo_commutators, scale,
                     whole_layer_ranks)
from test_crossed import KERNEL_ACTIONS, scalars

Q = make_field("Q")
F7 = make_field(7)


def trivial_action(quiver, field=Q):
    return QuiverAction.trivial(cyclic_group(1), quiver, field)


def swap_action(field=Q):
    q = GradedQuiver(["1", "2"], [("a", "1", "2", 0), ("b", "2", "1", 0)])
    g2 = cyclic_group(2)
    perms = [{"1": "1", "2": "2"}, {"1": "2", "2": "1"}]
    images = [
        {"a": AlgElement.from_arrow(q, field, "a"), "b": AlgElement.from_arrow(q, field, "b")},
        {"a": AlgElement.from_arrow(q, field, "b"), "b": AlgElement.from_arrow(q, field, "a")},
    ]
    return QuiverAction(g2, q, field, perms, images)


def mckay_action():
    """Z/3 scaling three loops by omega = 2 over GF(7)."""
    q = GradedQuiver(["v"], [("x", "v", "v", 0), ("y", "v", "v", 0), ("z", "v", "v", 0)])
    g3 = cyclic_group(3)
    perms = [{"v": "v"}] * 3
    images = [{n: AlgElement.from_arrow(q, F7, n, F7.pow(2, k))
               for n in ("x", "y", "z")} for k in range(3)]
    return QuiverAction(g3, q, F7, perms, images)


def mckay_potential(action):
    q = action.quiver
    return canonicalize(q, F7, [(F7.one(), q.path(["x", "y", "z"])),
                                (F7.parse("-1"), q.path(["x", "z", "y"]))])


# ---------- orbit data ----------

def test_orbit_data_trivial_group():
    q = GradedQuiver(["1", "2"], [("a", "1", "2", 0)])
    action = trivial_action(q)
    reps, kappa, stab = orbit_data(action)
    assert reps == ["1", "2"]
    assert kappa == {"1": 0, "2": 0}
    assert stab == {"1": [0], "2": [0]}


def test_orbit_data_swap():
    action = swap_action()
    reps, kappa, stab = orbit_data(action)
    assert reps == ["1"]
    assert kappa["1"] == 0 and kappa["2"] == 1
    assert stab["1"] == [0] and stab["2"] == [0]


def test_orbit_data_fixed_vertex():
    action = mckay_action()
    reps, kappa, stab = orbit_data(action)
    assert reps == ["v"]
    assert kappa == {"v": 0}
    assert stab["v"] == [0, 1, 2]


# ---------- trivial group degeneracy ----------

def test_trivial_group_reduction_is_identity():
    q = GradedQuiver(["1", "2"], [("a", "1", "2", 0), ("b", "2", "1", 0), ("x", "1", "1", 0)])
    action = trivial_action(q)
    md = build_morita(action)
    assert len(md.qprime.vertices) == 2
    assert len(md.qprime.arrows) == 3
    # vertex map and arrow map reproduce the original quiver
    vmap = {v: md.vertex_info[v][0] for v in md.qprime.vertices}
    amap = {}
    for name, el in md.arrow_embed.items():
        assert len(el.terms) == 1
        (path, g), coeff = next(iter(el.field_terms().items()))
        assert g == action.group.identity
        assert coeff == Q.one()
        assert len(path.arrows) == 1
        amap[name] = path.arrows[0]
    assert sorted(amap.values()) == ["a", "b", "x"]
    for name, orig in amap.items():
        ar = md.qprime.arrow(name)
        assert vmap[ar.src] == q.arrow(orig).src
        assert vmap[ar.tgt] == q.arrow(orig).tgt
    assert check_embedding(md, 3) == []
    assert check_fullness(md, 3) == []


def test_trivial_group_potential_transport_identity():
    q = GradedQuiver(["1"], [("x", "1", "1", 0), ("y", "1", "1", 0), ("z", "1", "1", 0)])
    action = trivial_action(q)
    w = canonicalize(q, Q, [(Q.one(), q.path(["x", "y", "z"])),
                            (Q.parse("-1"), q.path(["x", "z", "y"]))])
    md = build_morita(action)
    reduced, cert = transport_potential(w, md)
    assert len(cert) == 0
    # map the reduced potential back through the arrow bijection
    back = {name: next(iter(el.terms))[0].arrows[0] for name, el in md.arrow_embed.items()}
    mapped = canonicalize(q, Q, [(c, q.path([back[n] for n in p.arrows]))
                                 for p, c in reduced.terms.items()])
    assert mapped == w
    rows, ok = morita_dimension_check(md, w, reduced, 3)
    assert ok
    assert [r[1] for r in rows] == [1, 3, 6, 10]


# ---------- Z/2 swapping two vertices ----------

def test_swap_reduction_single_vertex_loop():
    md = build_morita(swap_action())
    assert len(md.qprime.vertices) == 1
    assert len(md.qprime.arrows) == 1
    loop = md.qprime.arrows[0]
    assert loop.src == loop.tgt
    assert check_embedding(md, 4) == []
    assert check_fullness(md, 3) == []


def test_swap_cycle_potential_transport():
    md = build_morita(swap_action())
    action = md.action
    q = action.quiver
    w = canonicalize(q, Q, [(Q.one(), q.path(["a", "b"]))])
    reduced, _ = transport_potential(w, md)
    # the orbit cycle becomes the square of the single reduced loop
    [(path, coeff)] = reduced.terms.items()
    assert len(path.arrows) == 2 and len(set(path.arrows)) == 1
    assert coeff == Q.one()
    rows, ok = morita_dimension_check(md, w, reduced, 3)
    assert ok
    assert [r[1] for r in rows] == [1, 0, 0, 0]


def test_swap_zero_potential_dimension_check():
    md = build_morita(swap_action())
    action = md.action
    w = Potential(action.quiver, Q)
    reduced, cert = transport_potential(w, md)
    assert reduced.is_zero() and len(cert) == 0
    rows, ok = morita_dimension_check(md, w, reduced, 4)
    assert ok
    # corner of k(cycle quiver) x Z/2 is k[t]: one dimension per length
    assert [r[1] for r in rows] == [1, 1, 1, 1, 1]


# ---------- idempotent requirements ----------

def test_missing_root_of_unity_raises():
    q = GradedQuiver(["v"], [("x", "v", "v", 0)])
    action = QuiverAction.trivial(cyclic_group(3), q, Q)  # Q lacks cube roots
    with pytest.raises(IncompleteIdempotents):
        build_morita(action)


def test_bimodule_entries_live_in_their_slots():
    # every basis element of the arrow bimodule is fixed by the trivial-path
    # idempotents of its representative pair, on the correct sides
    for md in (build_morita(swap_action()), build_morita(mckay_action())):
        action = md.action
        q, f = action.quiver, md.field
        for (src_rep, tgt_rep, degree), slot in md.bimodule.items():
            left = CrossedElement.from_alg(
                action, AlgElement.from_path(q, f, q.trivial_path(src_rep)))
            right = CrossedElement.from_alg(
                action, AlgElement.from_path(q, f, q.trivial_path(tgt_rep)))
            for element in slot:
                assert left * element * right == element
                degs = {q.arrow(p.arrows[0]).deg for (p, _) in element.terms}
                assert degs == {degree}


def test_supplied_idempotents_failing_validation_rejected():
    from fractions import Fraction
    action, (vectors, _) = signed_permutation_s3()
    with pytest.raises(IncompleteIdempotents):
        # wrong declared dimensions: sum of squares misses the group order
        build_morita(action, (vectors, [1, 1, 1]))
    with pytest.raises(IncompleteIdempotents):
        # wrong vector length
        build_morita(action, ([vectors[0][:3]] + vectors[1:], [1, 1, 2]))


def test_vertex_idempotents_square():
    md = build_morita(mckay_action())
    for v in md.qprime.vertices:
        e = md.vertex_idems[v]
        assert e * e == e
    total = md.total_idempotent()
    assert total * total == total


# ---------- two orbits, mixed stabilizers, nontrivial kappa ----------

def mixed_orbit_action():
    """Z/2 swaps vertices 1, 2 and fixes 3; arrows to and from 3 follow."""
    q = GradedQuiver(["1", "2", "3"], [("a", "1", "3", 0), ("b", "2", "3", 0),
                                       ("c", "3", "1", 0), ("d", "3", "2", 0)])
    g2 = cyclic_group(2)
    perms = [{"1": "1", "2": "2", "3": "3"}, {"1": "2", "2": "1", "3": "3"}]
    ident = {n: AlgElement.from_arrow(q, Q, n) for n in ("a", "b", "c", "d")}
    swap = {"a": AlgElement.from_arrow(q, Q, "b"), "b": AlgElement.from_arrow(q, Q, "a"),
            "c": AlgElement.from_arrow(q, Q, "d"), "d": AlgElement.from_arrow(q, Q, "c")}
    return QuiverAction(g2, q, Q, perms, [ident, swap])


def test_mixed_orbit_reduction():
    action = mixed_orbit_action()
    reps, kappa, stab = orbit_data(action)
    assert reps == ["1", "3"]
    assert kappa["2"] == 1  # the swap carries 2 onto its representative
    assert len(stab["1"]) == 1 and len(stab["3"]) == 2
    md = build_morita(action)
    # one vertex for the free orbit, two for the fixed vertex's characters
    assert len(md.qprime.vertices) == 3
    assert len(md.qprime.arrows) == 4
    degrees_out = {}
    for arrow in md.qprime.arrows:
        degrees_out[(arrow.src, arrow.tgt)] = degrees_out.get((arrow.src, arrow.tgt), 0) + 1
    assert all(count == 1 for count in degrees_out.values())
    free_vertex = next(v for v in md.qprime.vertices if md.vertex_info[v][0] == "1")
    # the free-orbit vertex connects to both characters, in both directions
    assert {(s, t) for (s, t) in degrees_out if s == free_vertex} == \
        {(free_vertex, v) for v in md.qprime.vertices if v != free_vertex}
    assert check_embedding(md, 2) == []
    assert check_fullness(md, 2) == []

    q = action.quiver
    w = canonicalize(q, Q, [(Q.one(), q.path(["a", "c"])), (Q.one(), q.path(["b", "d"]))])
    from skewgin.action import is_potential_invariant
    assert is_potential_invariant(w, action)
    reduced, _ = transport_potential(w, md)
    rows, ok = morita_dimension_check(md, w, reduced, 2)
    assert ok
    # all four arrows die in the quotient, leaving the three vertices
    assert [r[1] for r in rows] == [3, 0, 0]


# ---------- nonabelian stabilizer with supplied idempotents ----------

def signed_permutation_s3():
    """S3 on three loops by signed permutations (determinant one)."""
    from fractions import Fraction
    from skewgin.groups import GroupAlgebra, make_group
    names = ["e", "s", "t", "u", "c", "c2"]
    perms = {"e": (0, 1, 2), "s": (1, 0, 2), "t": (2, 1, 0), "u": (0, 2, 1),
             "c": (1, 2, 0), "c2": (2, 0, 1)}
    sgn = {"e": 1, "s": -1, "t": -1, "u": -1, "c": 1, "c2": 1}

    def compose(a, b):  # apply b first, then a
        pa, pb = perms[a], perms[b]
        return tuple(pa[pb[i]] for i in range(3))

    table = [[names.index(next(n for n in names if perms[n] == compose(a, b)))
              for b in names] for a in names]
    group = make_group(names, table)
    q = GradedQuiver(["v"], [("x", "v", "v", 0), ("y", "v", "v", 0), ("z", "v", "v", 0)])
    loops = ["x", "y", "z"]
    images = []
    for n in names:
        images.append({nm: AlgElement.from_arrow(q, Q, loops[perms[n][i]], Q.from_int(sgn[n]))
                       for i, nm in enumerate(loops)})
    action = QuiverAction(group, q, Q, [{"v": "v"}] * 6, images)

    alg = GroupAlgebra(group, Q)
    sixth = Fraction(1, 6)
    e_triv = {i: sixth for i in group.elements()}
    e_sgn = {i: sixth * sgn[names[i]] for i in group.elements()}
    z_std = group_sub(alg, group_sub(alg, alg.one(), e_triv), e_sgn)
    f_s = {names.index("e"): Fraction(1, 2), names.index("s"): Fraction(1, 2)}
    e_std = alg.mul(z_std, f_s)
    vectors = [[el.get(i, Fraction(0)) for i in group.elements()]
               for el in (e_triv, e_sgn, e_std)]
    return action, (vectors, [1, 1, 2])


def test_signed_s3_pipeline():
    action, idem_spec = signed_permutation_s3()
    q = action.quiver
    w = canonicalize(q, Q, [(Q.one(), q.path(["x", "y", "z"])),
                            (Q.parse("-1"), q.path(["x", "z", "y"]))])
    from skewgin.action import is_potential_invariant
    assert is_potential_invariant(w, action)
    md = build_morita(action, idem_spec)
    assert len(md.qprime.vertices) == 3
    assert len(md.qprime.arrows) == 8
    # arrow multiplicities follow the signed-permutation pattern: the
    # two-dimensional vertex carries two loops, every other ordered pair of
    # distinct vertices one arrow except between the two one-dimensionals
    pairs = {}
    for a in md.qprime.arrows:
        pairs[(a.src, a.tgt)] = pairs.get((a.src, a.tgt), 0) + 1
    two_dim = next(v for v in md.qprime.vertices if md.idem_sets["v"].dims[md.vertex_info[v][1]] == 2)
    assert pairs.get((two_dim, two_dim)) == 2
    assert all(count == 1 for pair, count in pairs.items() if pair != (two_dim, two_dim))
    assert check_embedding(md, 2) == []
    assert check_fullness(md, 2) == []
    reduced, _ = transport_potential(w, md)
    rows, ok = morita_dimension_check(md, w, reduced, 3)
    assert ok
    assert [r[1] for r in rows] == [3, 8, 16, 27]


# ---------- the McKay pipeline ----------

@pytest.fixture(scope="module")
def mckay():
    action = mckay_action()
    md = build_morita(action)
    return action, md


def test_mckay_reduced_quiver_shape(mckay):
    _, md = mckay
    assert len(md.qprime.vertices) == 3
    assert len(md.qprime.arrows) == 9
    # 3 arrows between consecutive vertices in a 3-cycle pattern, no loops
    pair_counts = {}
    for a in md.qprime.arrows:
        assert a.src != a.tgt
        pair_counts[(a.src, a.tgt)] = pair_counts.get((a.src, a.tgt), 0) + 1
    assert sorted(pair_counts.values()) == [3, 3, 3]
    succ = {s: t for (s, t) in pair_counts}
    assert len(succ) == 3
    # following successors visits all three vertices
    start = md.qprime.vertices[0]
    seen = {start}
    at = start
    for _ in range(2):
        at = succ[at]
        assert at not in seen or len(seen) == 3
        seen.add(at)
    assert len(seen) == 3


def test_mckay_embedding_and_fullness(mckay):
    _, md = mckay
    assert check_embedding(md, 2) == []
    assert check_fullness(md, 3) == []


def test_mckay_transport_and_dimensions(mckay):
    action, md = mckay
    w = mckay_potential(action)
    reduced, cert = transport_potential(w, md)
    assert not reduced.is_zero()
    from skewgin.potential import cycle_length_of, degree_of
    assert degree_of(reduced) == 0
    assert cycle_length_of(reduced) == 3
    # certificate re-expansion is enforced inside transport_potential; also
    # check the class equation directly
    diff = embed(md, reduced.as_element()) - CrossedElement.from_alg(action, w.as_element())
    recombined = CrossedElement.zero(action)
    for (u, v), coeff in cert:
        eu = CrossedElement.from_pair(action, *u)
        ev = CrossedElement.from_pair(action, *v)
        recombined = recombined + scale(eu * ev - ev * eu, coeff)
    assert recombined == diff
    rows, ok = morita_dimension_check(md, w, reduced, 4)
    assert ok, rows
    assert [r[1] for r in rows] == [3, 9, 18, 30, 45]
    assert [r[2] for r in rows] == [3, 9, 18, 30, 45]


def test_mckay_perturbed_coefficient_fails_certification(mckay):
    from skewgin.errors import BasisExpressFailure
    from skewgin.morita import certify_reduction
    action, md = mckay
    w = mckay_potential(action)
    reduced, _ = transport_potential(w, md)
    items = sorted(reduced.terms.items(), key=lambda kv: kv[0])
    path0, coeff0 = items[0]
    bad_terms = dict(reduced.terms)
    bad_terms[path0] = F7.add(coeff0, F7.one())
    bad = canonicalize(md.qprime, F7, [(c, p) for p, c in bad_terms.items()])
    with pytest.raises(BasisExpressFailure):
        certify_reduction(md, w, bad)


def test_mckay_dimensions_invariant_under_basis_reordering(mckay):
    # another basis of each arrow slot presents the same corner: the
    # transported potential changes, the dimension table must not.  Each
    # arrow m goes to 2m + (the next arrow of its slot), an invertible
    # change of determinant 9 = 2 over GF(7) on the three arrows of a slot,
    # made on the arrow embeddings and on the fold factors alike.
    action, md = mckay
    w = mckay_potential(action)
    reduced, _ = transport_potential(w, md)
    rows, ok = morita_dimension_check(md, w, reduced, 3)
    assert ok
    changed = build_morita(action)
    slots = {}
    for a in changed.qprime.arrows:
        slots.setdefault((a.src, a.tgt), []).append(a.name)
    for names in slots.values():
        assert len(names) == 3
        for name, following in zip(names, names[1:] + names[:1]):
            for table, base in ((changed.arrow_embed, md.arrow_embed),
                                (changed.fold_factors, md.fold_factors)):
                table[name] = scale(base[name], F7.from_int(2)) + base[following]
    assert check_embedding(changed, 2) == []
    changed_reduced, _ = transport_potential(w, changed)
    assert changed_reduced.terms != reduced.terms
    assert morita_dimension_check(changed, w, changed_reduced, 3) == (rows, True)


def test_hc0_reduce_into_mckay_corner(mckay):
    from oracles import hc0_reduce
    action, md = mckay
    w = mckay_potential(action)
    x = CrossedElement.from_alg(action, w.as_element())
    e = md.total_idempotent()
    corner_rep, cert = hc0_reduce(x, e)
    assert not corner_rep.is_zero()
    assert corner_rep.pure_length() == 3
    # the representative really lives in the corner
    assert e * corner_rep * e == corner_rep
    # and the certificate recovers the difference exactly
    recombined = CrossedElement.zero(action)
    for (u, v), coeff in cert:
        eu = CrossedElement.from_pair(action, *u)
        ev = CrossedElement.from_pair(action, *v)
        recombined = recombined + scale(eu * ev - ev * eu, coeff)
    assert recombined == x - corner_rep


def test_mckay_dropped_term_breaks_dimensions(mckay):
    action, md = mckay
    w = mckay_potential(action)
    reduced, _ = transport_potential(w, md)
    items = sorted(reduced.terms.items(), key=lambda kv: kv[0])
    bad_terms = dict(reduced.terms)
    del bad_terms[items[0][0]]
    bad = canonicalize(md.qprime, F7, [(c, p) for p, c in bad_terms.items()])
    rows, ok = morita_dimension_check(md, w, bad, 4)
    assert not ok
    assert any(l != r for _, l, r in rows)


# ---------- embedding each reduced path once ----------

def reduction_of(document):
    parsed = parse(doc(document))
    return build_morita(parsed.action, parsed.idempotents)


@pytest.mark.parametrize("document", [MCKAY, SIGNED_S3], ids=["mckay", "signed_s3"])
def test_embed_paths_matches_per_path_fold(document):
    md = reduction_of(document)
    by_len = paths_by_length(md.qprime, 3)
    longest = by_len[3]
    embedded = embed_paths(md, longest)
    # every prefix is covered, and nothing else
    assert set(embedded) == {p for layer in by_len.values() for p in layer}
    for p, el in embedded.items():
        assert el == naive_embed_path(md, p)
    assert embed_paths(md, []) == {}


def assert_corners_match_oracle(e, max_len):
    action = e.action
    for p in basis_up_to(action.quiver, max_len):
        for g in action.group.elements():
            got, want = corner(e, (p, g)), naive_corner(e, (p, g))
            assert (got.den, got.terms) == (want.den, want.terms)


@pytest.mark.parametrize("name", sorted(KERNEL_ACTIONS) + ["mixed-orbit"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_corner_matches_two_product_oracle(name, data):
    # e is any element on trivial paths, idempotent or not; its terms at
    # vertices other than h(src p), and h(tgt p) against hg(w), exercise
    # both vertex conditions of the corner
    action = mixed_orbit_action() if name == "mixed-orbit" else KERNEL_ACTIONS[name]()
    trivial = [(action.quiver.trivial_path(v), g)
               for v in action.quiver.vertices for g in action.group.elements()]
    e = data.draw(st.lists(st.tuples(st.sampled_from(trivial), scalars(action.field)),
                           max_size=5).map(lambda terms: CrossedElement(action, terms)))
    assert_corners_match_oracle(e, 2)


@pytest.mark.parametrize("document", [MCKAY, SIGNED_S3], ids=["mckay", "signed_s3"])
def test_corner_of_the_total_idempotent_matches_oracle(document):
    assert_corners_match_oracle(reduction_of(document).total_idempotent(), 2)


def test_verify_stages_leave_no_reference_cycles():
    # a reference cycle keeps whatever it reaches (every embedding, say)
    # alive until the cyclic collector runs, which shows as peak RSS
    parsed = parse(doc(MCKAY))
    md = build_morita(parsed.action, parsed.idempotents)
    reduced, _ = transport_potential(parsed.potential, md)
    stages = {"check_embedding": lambda: check_embedding(md, 4),
              "transport_potential": lambda: transport_potential(parsed.potential, md),
              "morita_dimension_check":
                  lambda: morita_dimension_check(md, parsed.potential, reduced, 4)}
    found = {}
    gc.collect()
    gc.disable()
    try:
        for name, stage in stages.items():
            stage()
            found[name] = gc.collect()
    finally:
        gc.enable()
    assert found == dict.fromkeys(stages, 0)


def test_check_embedding_catches_an_uncornered_arrow():
    # an arrow embedding left outside its corner is no longer multiplicative:
    # the pair check multiplies in the target idempotent, the stored fold
    # does not.  (Over McKay's one-dimensional idempotents the source
    # idempotent alone corners an arrow, so there the swap goes unseen.)
    md = reduction_of(SIGNED_S3)
    assert check_embedding(md, 2) == []
    name = md.qprime.arrows[0].name
    src, tgt = md.qprime.arrow(name).src, md.qprime.arrow(name).tgt
    e_src, e_tgt = md.vertex_idems[src], md.vertex_idems[tgt]
    entry = next(element for slot in md.bimodule.values() for element in slot
                 if e_src * element * e_tgt == md.arrow_embed[name])
    assert entry != md.arrow_embed[name]
    md.arrow_embed[name] = entry
    # the composable pair (arrow, target vertex) must fail too: it compares
    # the product with the stored embedding of the arrow, so it guards the
    # check against comparing a product with itself
    arrow_path, target = md.qprime.path([name]), md.qprime.trivial_path(tgt)
    assert f"embedding is not multiplicative on {arrow_path} * {target}" in check_embedding(md, 2)


@pytest.mark.parametrize("document", [MCKAY, SIGNED_S3], ids=["mckay", "signed_s3"])
def test_block_ranks_match_whole_layer_oracle(document):
    # a path from i to j embeds into e_i (A#G) e_j, so with orthogonal
    # vertex idempotents the per-block ranks add up to the layer's rank
    md = reduction_of(document)
    by_len = paths_by_length(md.qprime, 4)
    embedded = embed_paths(md, by_len[4])
    ranks = [block_rank(md, by_len[ell], embedded, basis_index(md.action, ell))
             for ell in range(5)]
    assert ranks == whole_layer_ranks(md, 4) == [len(by_len[ell]) for ell in range(5)]
    assert len({(p.source, md.qprime.path_target(p)) for p in by_len[4]}) > 1


def test_check_embedding_names_non_orthogonal_vertex_idempotents():
    # the block ranks rest on e_i e_j = 0 for i != j; an idempotent e_0 + e_1
    # breaks that, and the length-0 pair check has to say so
    md = reduction_of(MCKAY)
    assert check_embedding(md, 2) == []
    v0, v1 = md.qprime.vertices[:2]
    md.vertex_idems[v0] = md.vertex_idems[v0] + md.vertex_idems[v1]
    t0, t1 = md.qprime.trivial_path(v0), md.qprime.trivial_path(v1)
    assert f"embedding is not multiplicative on {t0} * {t1}" in check_embedding(md, 2)


@pytest.mark.parametrize("dropped, failing", [(0, [0]), (2, [0, 1, 2, 3])])
def test_check_fullness_reports_every_failing_length(dropped, failing):
    # on signed S3, dropping a one-dimensional vertex idempotent leaves a
    # corner that misses only a length-0 element; dropping the
    # two-dimensional one misses part of every length component, and each
    # failing length must be reported, not only length 0
    action, idem_spec = signed_permutation_s3()
    md = build_morita(action, idem_spec)
    assert check_fullness(md, 3) == []
    vertex = md.qprime.vertices[dropped]
    assert md.idem_sets["v"].dims[md.vertex_info[vertex][1]] == (2 if dropped == 2 else 1)
    md.vertex_idems[vertex] = CrossedElement.zero(action)
    report = check_fullness(md, 3)
    assert [int(line.split(":")[0].split()[1]) for line in report] == failing
    assert report[0] == ("length 0: idempotent span has rank {} < 6; the corner misses "
                         "part of the algebra".format(5 if dropped == 0 else 2))


# ---------- the replaced routines against their oracles ----------

def rotation_action():
    """Z/3 rotating the triangle 1 -> 2 -> 3 -> 1: kappa[2] = g2, whose
    inverse g is not itself, so the right twist kappa[j']^-1 is seen."""
    q = GradedQuiver(["1", "2", "3"], [("a", "1", "2", 0), ("b", "2", "3", 0),
                                       ("c", "3", "1", 0)])
    turn = {"1": "2", "2": "3", "3": "1"}
    step = {"a": "b", "b": "c", "c": "a"}
    perms, images = [], []
    for k in range(3):
        perm, image = {v: v for v in "123"}, {n: n for n in "abc"}
        for _ in range(k):
            perm = {v: turn[perm[v]] for v in perm}
            image = {n: step[image[n]] for n in image}
        perms.append(perm)
        images.append({n: AlgElement.from_arrow(q, Q, m) for n, m in image.items()})
    return QuiverAction(cyclic_group(3), q, Q, perms, images)


def bimodule_actions():
    from test_crossed import KERNEL_ACTIONS
    actions = {"swap": swap_action(), "mixed-orbit": mixed_orbit_action(),
               "mckay": mckay_action(), "signed-s3": signed_permutation_s3()[0],
               "rotation": rotation_action()}
    actions.update((f"kernel-{name}", make()) for name, make in KERNEL_ACTIONS.items())
    return actions


@pytest.mark.parametrize("name", sorted(bimodule_actions()))
def test_bimodule_slots_match_five_fold_product_oracle(name):
    action = bimodule_actions()[name]
    reps, kappa, stabilizers = orbit_data(action)
    slots = build_bimodule(action, reps, kappa, stabilizers)
    want = naive_build_bimodule(action, reps, kappa, stabilizers)
    assert validate_action(action) == [] and want
    assert list(slots) == list(want)
    for key, elements in slots.items():
        assert [z.field_terms() for z in elements] == [z.field_terms() for z in want[key]]


class FeedCountingSolver(LinSolver):
    """A LinSolver that counts the commutators fed into it."""

    fed = 0

    def add(self, vec, label=None):
        self.fed += isinstance(label, CommutatorTerm)
        return super().add(vec, label)


def transport_feed(md, w, solver_class=LinSolver):
    """A fresh (solver, target, length, index, dens) as transport_potential
    hands them to express_modulo_commutators."""
    action, qprime = md.action, md.qprime
    ell = cycle_length_of(w)
    index = basis_index(action, ell)
    solver = solver_class(md.field)
    cycles = [p for p in paths_by_length(qprime, ell).get(ell, []) if qprime.is_cycle(p)]
    embedded = embed_paths(md, cycles)
    dens = {}
    for p in cycles:
        if not embedded[p].is_zero():
            solver.add(vectorize(embedded[p], index), label=p)
            dens[p] = embedded[p].den
    target = CrossedElement.from_alg(action, w.as_element())
    return solver, target, ell, index, dens


def certify_feed(md, w, reduced):
    """A fresh (solver, target, length, index, dens) as certify_reduction
    hands them to express_modulo_commutators."""
    action = md.action
    difference = (embed(md, reduced.as_element())
                  - CrossedElement.from_alg(action, w.as_element()))
    ell = difference.pure_length()
    index = basis_index(action, ell)
    return LinSolver(md.field), difference, ell, index, {}


def mixed_orbit_problem():
    action = mixed_orbit_action()
    q = action.quiver
    w = canonicalize(q, Q, [(Q.one(), q.path(["a", "c"])), (Q.one(), q.path(["b", "d"]))])
    return build_morita(action), w


def document_problem(document):
    parsed = parse(doc(document))
    return build_morita(parsed.action, parsed.idempotents), parsed.potential


FEED_PROBLEMS = {"mckay": lambda: document_problem(MCKAY),
                 "signed-s3": lambda: document_problem(SIGNED_S3),
                 "mixed-orbit": mixed_orbit_problem}


@pytest.mark.parametrize("name", sorted(FEED_PROBLEMS))
def test_one_commutator_feed_matches_retrying_oracle_on_transport(name):
    md, w = FEED_PROBLEMS[name]()
    got = express_modulo_commutators(*transport_feed(md, w))
    assert got is not None
    assert got == retrying_express_modulo_commutators(*transport_feed(md, w))
    assert got == feed_all_express_modulo_commutators(*transport_feed(md, w))
    # McKay's reduced cycles express its potential alone; the other two
    # need commutators, so only there is the feed itself compared
    assert bool(got[1]) == (name != "mckay")


def test_one_commutator_feed_matches_retrying_oracle_on_certification(mckay):
    action, md = mckay
    w = mckay_potential(action)
    reduced, _ = transport_potential(w, md)
    got = express_modulo_commutators(*certify_feed(md, w, reduced))
    assert got is not None and got[1]
    assert got == retrying_express_modulo_commutators(*certify_feed(md, w, reduced))
    assert got == feed_all_express_modulo_commutators(*certify_feed(md, w, reduced))
    path0, coeff0 = min(reduced.terms.items(), key=lambda kv: kv[0])
    bad_terms = dict(reduced.terms)
    bad_terms[path0] = F7.add(coeff0, F7.one())
    bad = canonicalize(md.qprime, F7, [(c, p) for p, c in bad_terms.items()])
    assert express_modulo_commutators(*certify_feed(md, w, bad)) is None
    assert retrying_express_modulo_commutators(*certify_feed(md, w, bad)) is None
    assert feed_all_express_modulo_commutators(*certify_feed(md, w, bad)) is None


def test_signed_s3_commutator_feed_stops_at_the_potential():
    # the target is in the span long before the last of the 1,764
    # commutators; the combination, and so the certificate, is the one the
    # whole feed gives
    md, w = document_problem(SIGNED_S3)
    feed = transport_feed(md, w, FeedCountingSolver)
    got = express_modulo_commutators(*feed)
    assert len(commutator_basis(md.action, feed[2],
                                crossed._basis_pairs(md.action, feed[2]))) == 1764
    assert 0 < feed[0].fed < 1764
    assert got == feed_all_express_modulo_commutators(*transport_feed(md, w))


def test_signed_s3_feed_builds_only_the_commutators_it_feeds(monkeypatch):
    # the touching commutators are found through the image index and the
    # rest are built as the feed reaches them, so on signed S3 every
    # commutator that commutator_basis builds is inserted: 442 of 1,764
    built = []

    def counting_basis(action, length, pairs):
        terms = commutator_basis(action, length, pairs)
        built.extend(terms)
        return terms

    monkeypatch.setattr(crossed, "commutator_basis", counting_basis)
    md, w = document_problem(SIGNED_S3)
    feed = transport_feed(md, w, FeedCountingSolver)
    got = express_modulo_commutators(*feed)
    assert len(built) == feed[0].fed == 442
    monkeypatch.undo()
    assert got == feed_all_express_modulo_commutators(*transport_feed(md, w))


@pytest.mark.parametrize("name", ["Q", "Q-swap", "GF(7)"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_lazy_feed_matches_feed_all_oracle_on_random_inputs(name, data):
    # random labelled inputs and a random target of one length component:
    # the feed returns what feeding every commutator returns, and the
    # touching candidates hold every pair whose commutator meets the
    # residual's support
    action = KERNEL_ACTIONS[name]()
    length = data.draw(st.integers(2, 3), label="length")
    index = basis_index(action, length)
    elements = st.lists(st.tuples(st.sampled_from(list(index)), scalars(action.field)),
                        min_size=1, max_size=4).map(lambda terms: CrossedElement(action, terms))
    inputs = data.draw(st.lists(elements, max_size=3), label="inputs")
    # the inputs and commutators, each times a scalar, and at times a
    # random element that is mostly outside their span
    pairs = st.sampled_from(list(crossed._basis_pairs(action, length)))
    terms = data.draw(st.lists(st.tuples(st.one_of(st.sampled_from(inputs or [None]), pairs),
                                         scalars(action.field)), max_size=5), label="terms")
    noise = data.draw(st.one_of(st.just(CrossedElement.zero(action)), elements), label="noise")
    target = noise
    for x, c in terms:
        if isinstance(x, tuple):
            u, v = (CrossedElement.from_pair(action, *key) for key in x)
            x = u * v - v * u
        if x is not None:
            target = target + scale(x, c)

    def feed():
        solver = LinSolver(action.field)
        for label, x in enumerate(inputs):
            solver.add(vectorize(x, index), label=label)
        return solver, target, length, index, {label: x.den for label, x in enumerate(inputs)}

    got = express_modulo_commutators(*feed())
    assert got == feed_all_express_modulo_commutators(*feed())
    assert got is not None or not noise.is_zero()
    support = set(feed()[0].residual(vectorize(target, index)))
    keys = [key for key, i in index.items() if i in support]
    candidates = crossed._touching_candidates(action, length, keys)
    touching = [(t.u, t.v)
                for t in commutator_basis(action, length, crossed._basis_pairs(action, length))
                if not support.isdisjoint(vectorize(t.element, index))]
    assert set(touching) <= set(candidates)


def test_signed_s3_certificate_is_one_den_and_ints():
    # transport keeps its merged certificate as one den and int entries;
    # len counts the entries and iteration gives the Fractions they stand for
    md, w = document_problem(SIGNED_S3)
    _, cert = transport_potential(w, md)
    entries = list(cert)
    assert len(cert) == len(entries) == len(dict(entries)) == 1730
    assert cert.den != 1 and all(type(s) is int for s in cert.terms.values())
    assert entries == [(pair, Fraction(s, cert.den)) for pair, s in cert.terms.items()]
    assert all(type(c) is Fraction for _, c in entries)
    # re-expansion on ints is the entry-by-entry sum of the Fraction list
    want = naive_expand_certificate(md.action, entries)
    assert expand_certificate(md.action, cert) == want
    again = Certificate.from_entries(md.field, entries)
    assert list(again) == entries and expand_certificate(md.action, again) == want


class RecordingSolver(LinSolver):
    """A LinSolver that records the labels of the inputs that enlarged it."""

    def __init__(self, field):
        super().__init__(field)
        self.enlarged = []

    def add(self, vec, label=None):
        if enlarged := super().add(vec, label):
            self.enlarged.append(label)
        return enlarged


def field_vector(element, index):
    return {index[key]: c for key, c in element.field_terms().items()}


@pytest.mark.parametrize("name, stage", [(name, stage) for name in sorted(FEED_PROBLEMS)
                                          for stage in ("transport", "certify")])
def test_rescaled_combination_matches_labelled_oracle_on_fraction_vectors(name, stage):
    # the solver combines int vectors, each its element's terms times the
    # element's den; rescaled by the dens, the combination must be the one
    # the field-scalar oracle solver finds on the Fraction vectors of the
    # same inputs, inserted in the same order.  Over Q the embedded cycles
    # of transport and the difference that certification expresses carry
    # denominators
    md, w = FEED_PROBLEMS[name]()
    if stage == "transport":
        solver, target, ell, index, dens = transport_feed(md, w, RecordingSolver)
        assert any(d != 1 for d in dens.values()) == (name != "mckay")
    else:
        reduced, _ = transport_potential(w, md)
        _, target, ell, index, dens = certify_feed(md, w, reduced)
        solver = RecordingSolver(md.field)
        assert (target.den != 1) == (name != "mckay")
    own, certificate = express_modulo_commutators(solver, target, ell, index, dens)
    # McKay's reduced cycles express its potential alone (see above)
    assert bool(certificate) == ((name, stage) != ("mckay", "transport"))
    embedded = embed_paths(md, list(dens))
    oracle = LabelledLinSolver(md.field)
    for label in solver.enlarged:
        element = label.element if isinstance(label, CommutatorTerm) else embedded[label]
        assert oracle.add(field_vector(element, index), label=label)
    combo = oracle.express(field_vector(target, index))
    assert own == {p: c for p, c in combo.items() if not isinstance(p, CommutatorTerm)}
    assert dict(certificate) == {(t.u, t.v): c for t, c in combo.items()
                                 if isinstance(t, CommutatorTerm)}
    assert len(dict(certificate)) == len(certificate)


def commutator_actions():
    from test_crossed import KERNEL_ACTIONS
    actions = {f"kernel-{name}": make for name, make in KERNEL_ACTIONS.items()}
    actions.update({"signed-s3": lambda: parse(doc(SIGNED_S3)).action,
                    "mckay": lambda: parse(doc(MCKAY)).action})
    return actions


@pytest.mark.parametrize("name, length", [
    *((name, length) for name in sorted(commutator_actions()) if name.startswith("kernel-")
      for length in range(4)),
    ("signed-s3", 3), ("mckay", 3)])
def test_commutator_basis_matches_product_oracle(name, length):
    action = commutator_actions()[name]()
    got = [(t.u, t.v, t.element.field_terms())
           for t in commutator_basis(action, length, crossed._basis_pairs(action, length))]
    want = [(t.u, t.v, t.element.field_terms())
            for t in naive_commutator_basis(action, length)]
    assert got == want
    assert got or length == 0
