import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from skewgin.errors import SkewginError
from skewgin.fields import make_field
from skewgin.ginzburg import (check_d_squared, degree_report, double_quiver,
                              ginzburg, jacobian_truncation, relation_ideal)
from skewgin.potential import canonicalize
from skewgin.quiver import AlgElement, GradedQuiver, basis_up_to, paths_by_length

from oracles import (brute_jacobian_dims, naive_apply_differential, relation_ideal_span,
                     span_rank)

Q = make_field("Q")
F7 = make_field(7)


def three_loops():
    return GradedQuiver(["1"], [("x", "1", "1", 0), ("y", "1", "1", 0), ("z", "1", "1", 0)])


def commutator_potential(q):
    return canonicalize(q, Q, [(Q.one(), q.path(["x", "y", "z"])),
                               (Q.parse("-1"), q.path(["x", "z", "y"]))])


def test_double_quiver_degrees_d3():
    q = GradedQuiver(["1"], [("x", "1", "1", 0)])
    dq = double_quiver(q, 3)
    degs = {a.name: a.deg for a in dq.arrows}
    assert degs == {"x": 0, "x*": -1, "c_1": -2}


def test_double_quiver_rejects_d_below_3():
    q = GradedQuiver(["1"], [("x", "1", "1", 0)])
    with pytest.raises(SkewginError, match="^CY dimension must be >= 3$"):
        double_quiver(q, 2)


def test_double_quiver_two_vertices():
    q = GradedQuiver(["1", "2"], [("a", "1", "2", 0)])
    dq = double_quiver(q, 3)
    star = dq.arrow("a*")
    assert (star.src, star.tgt, star.deg) == ("2", "1", -1)
    assert dq.arrow("c_1").deg == -2 and dq.arrow("c_2").deg == -2


def test_double_quiver_graded_star_degree():
    q = GradedQuiver(["1"], [("x", "1", "1", -1)])
    dq = double_quiver(q, 4)
    assert dq.arrow("x*").deg == 2 - 4 - (-1)


def test_ginzburg_zero_potential_loop():
    q = GradedQuiver(["1"], [("x", "1", "1", 0)])
    w = canonicalize(q, Q, [])
    pres = ginzburg(q, w, 3)
    assert pres.diff_of("x").is_zero()
    assert pres.diff_of("x*").is_zero()
    dc = pres.diff_of("c_1")
    expected = (AlgElement.from_path(pres.doubled, Q, pres.doubled.path(["x", "x*"]))
                - AlgElement.from_path(pres.doubled, Q, pres.doubled.path(["x*", "x"])))
    assert dc == expected


def test_ginzburg_commutator_derivatives():
    q = three_loops()
    pres = ginzburg(q, commutator_potential(q), 3)
    dq = pres.doubled

    def el(*names):
        return AlgElement.from_path(dq, Q, dq.path(list(names)))

    assert pres.diff_of("x*") == el("y", "z") - el("z", "y")
    assert pres.diff_of("y*") == el("z", "x") - el("x", "z")
    assert pres.diff_of("z*") == el("x", "y") - el("y", "x")


def test_ginzburg_of_a_potential_on_another_quiver_raises():
    one_loop = GradedQuiver(["1"], [("x", "1", "1", 0)])
    with pytest.raises(SkewginError, match="^potential lives on a different quiver$"):
        ginzburg(one_loop, commutator_potential(three_loops()), 3)


def test_ginzburg_degree_mismatch():
    q = GradedQuiver(["1"], [("x", "1", "1", -1)])
    w = canonicalize(q, Q, [(Q.one(), q.path(["x"]))])  # degree -1
    with pytest.raises(SkewginError, match="^potential degree -1 != 3 - d = 0$"):
        ginzburg(q, w, 3)


def test_d_squared_zero_on_commutator_potential():
    q = three_loops()
    pres = ginzburg(q, commutator_potential(q), 3)
    assert check_d_squared(pres) == []
    assert degree_report(pres) == []


def test_d_squared_zero_for_zero_potential():
    q = three_loops()
    pres = ginzburg(q, canonicalize(q, Q, []), 3)
    assert check_d_squared(pres) == []


def test_d_squared_detects_corruption():
    q = three_loops()
    pres = ginzburg(q, commutator_potential(q), 3)
    dq = pres.doubled
    # drop the -zy term from d(x*)
    pres.differential["x*"] = AlgElement.from_path(dq, Q, dq.path(["y", "z"]))
    offenders = [gen for gen, _ in check_d_squared(pres)]
    assert "c_1" in offenders


def test_d_squared_zero_graded_single_odd_loop():
    # one loop of degree -1 with d = 4; the incidence weights matter here
    q = GradedQuiver(["1"], [("z", "1", "1", -1)])
    w = canonicalize(q, Q, [(Q.one(), q.path(["z"]))])
    pres = ginzburg(q, w, 4)
    assert check_d_squared(pres) == []
    assert degree_report(pres) == []


def test_d_squared_zero_graded_mixed_loops():
    q = GradedQuiver(["1"], [("u", "1", "1", 0), ("z", "1", "1", -1)])
    w = canonicalize(q, Q, [(Q.one(), q.path(["u", "z"]))])
    pres = ginzburg(q, w, 4)
    assert check_d_squared(pres) == []
    assert degree_report(pres) == []


def differential_cases(field):
    """Presentations to apply d on: three loops at d = 3, a two-cycle with a
    loop, odd arrow degrees at d = 3 and mixed degrees at d = 4."""
    def build(vertices, arrows, terms, d):
        q = GradedQuiver(vertices, arrows)
        w = canonicalize(q, field, [(field.from_int(c), q.path(word)) for c, word in terms])
        return ginzburg(q, w, d)

    return [
        build(["1"], [("x", "1", "1", 0), ("y", "1", "1", 0), ("z", "1", "1", 0)],
              [(1, ["x", "y", "z"]), (-1, ["x", "z", "y"])], 3),
        build(["1", "2"], [("a", "1", "2", 0), ("b", "2", "1", 0), ("x", "1", "1", 0)],
              [(1, ["x", "x", "x"]), (2, ["a", "b", "x"])], 3),
        build(["1", "2"], [("a", "1", "2", 1), ("b", "2", "1", -1)], [(1, ["a", "b"])], 3),
        build(["1"], [("u", "1", "1", 0), ("y", "1", "1", 1), ("z", "1", "1", -1)],
              [(1, ["u", "z"]), (-1, ["y", "z", "z"])], 4),
    ]


@pytest.mark.parametrize("spec", ["Q", 7])
def test_splicing_differential_matches_product_oracle_on_short_paths(spec):
    # every doubled path of length <= 2, so an odd prefix (a star at d = 3,
    # an odd arrow) stands before each generator with a nonzero differential
    field = make_field(spec)
    for pres in differential_cases(field):
        assert check_d_squared(pres) == []
        for p in basis_up_to(pres.doubled, 2):
            x = AlgElement.from_path(pres.doubled, field, p)
            assert pres.apply_differential(x) == naive_apply_differential(pres, x), p


@pytest.mark.parametrize("spec", ["Q", 3, 7])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_splicing_differential_matches_product_oracle(spec, data):
    field = make_field(spec)
    pres = data.draw(st.sampled_from(differential_cases(field)))
    terms = data.draw(st.lists(st.tuples(st.sampled_from(basis_up_to(pres.doubled, 3)),
                                         st.integers(-3, 3)), min_size=1, max_size=5))
    x = AlgElement(pres.doubled, field, [(p, field.from_int(c)) for p, c in terms])
    assert pres.apply_differential(x) == naive_apply_differential(pres, x)


def test_jacobian_three_loops_commutator():
    q = three_loops()
    dims = jacobian_truncation(q, commutator_potential(q), 3)
    # relations are the commutators, so this is the polynomial ring on 3 variables
    assert dims == [1, 3, 6, 10]


def test_jacobian_free_loop():
    q = GradedQuiver(["1"], [("x", "1", "1", 0)])
    dims = jacobian_truncation(q, canonicalize(q, Q, []), 3)
    assert dims == [1, 1, 1, 1]


def test_jacobian_single_arrow():
    q = GradedQuiver(["1", "2"], [("a", "1", "2", 0)])
    dims = jacobian_truncation(q, canonicalize(q, Q, []), 2)
    assert dims == [2, 1, 0]


def test_jacobian_rejects_graded_arrows():
    q = GradedQuiver(["1"], [("x", "1", "1", -1)])
    with pytest.raises(SkewginError, match="^Jacobian truncation requires all arrow degrees 0$"):
        jacobian_truncation(q, canonicalize(q, Q, []), 2)


def test_jacobian_rejects_mixed_lengths():
    q = three_loops()
    w = canonicalize(q, Q, [(Q.one(), q.path(["x", "x"])), (Q.one(), q.path(["x", "y", "z"]))])
    with pytest.raises(SkewginError, match="^potential mixes cycle lengths$"):
        jacobian_truncation(q, w, 2)


def test_jacobian_rejects_potential_on_another_quiver():
    one_loop = GradedQuiver(["1"], [("x", "1", "1", 0)])
    with pytest.raises(SkewginError, match="^potential lives on a different quiver$"):
        jacobian_truncation(one_loop, commutator_potential(three_loops()), 3)


JACOBIAN_CASES = [
    # (vertices, arrows, potential terms) with <= 4 arrows, checked to L = 4
    (["1"], {"x": ("1", "1"), "y": ("1", "1"), "z": ("1", "1")},
     [(1, ("x", "y", "z")), (-1, ("x", "z", "y"))]),
    (["1"], {"x": ("1", "1")}, []),
    (["1", "2"], {"a": ("1", "2")}, []),
    (["1", "2"], {"a": ("1", "2"), "b": ("2", "1")}, [(1, ("a", "b"))]),
    (["1"], {"x": ("1", "1"), "y": ("1", "1")}, [(1, ("x", "x")), (1, ("y", "y"))]),
    (["1", "2"], {"a": ("1", "2"), "b": ("2", "1"), "x": ("1", "1")},
     [(1, ("x", "x", "x")), (1, ("a", "b", "x"))]),
]


@pytest.mark.parametrize("vertices,arrows,terms", JACOBIAN_CASES)
def test_jacobian_matches_brute_force_oracle(vertices, arrows, terms):
    q = GradedQuiver(vertices, [(n, s, t, 0) for n, (s, t) in sorted(arrows.items())])
    w = canonicalize(q, Q, [(Q.from_int(c), q.path(list(word))) for c, word in terms])
    dims = jacobian_truncation(q, w, 4)
    expected = brute_jacobian_dims(vertices, arrows, terms, 4)
    assert dims == expected


def test_jacobian_oracle_agreement_gf7():
    q = three_loops()
    f7 = make_field(7)
    w = canonicalize(q, f7, [(f7.one(), q.path(["x", "y", "z"])),
                             (f7.parse("-1"), q.path(["x", "z", "y"]))])
    dims = jacobian_truncation(q, w, 4)
    expected = brute_jacobian_dims(["1"], {"x": ("1", "1"), "y": ("1", "1"), "z": ("1", "1")},
                                   [(1, ("x", "y", "z")), (-1, ("x", "z", "y"))], 4, p=7)
    assert dims == expected == [1, 3, 6, 10, 15]


def random_quiver_and_potential(rng):
    nv = rng.randint(1, 4)
    vertices = [str(i + 1) for i in range(nv)]
    na = rng.randint(1, 6)
    arrows = []
    for i in range(na):
        arrows.append((f"a{i}", rng.choice(vertices), rng.choice(vertices), 0))
    q = GradedQuiver(vertices, arrows)
    # random cycles of length <= 4 found by closing random walks
    terms = []
    for _ in range(rng.randint(0, 3)):
        start = rng.choice(vertices)
        at, word = start, []
        for _ in range(4):
            options = q.arrows_from[at]
            if not options:
                break
            a = rng.choice(options)
            word.append(a.name)
            at = a.tgt
            if at == start:
                break
        if word and at == start:
            terms.append((Q.from_int(rng.choice([-2, -1, 1, 2, 3])), q.path(word)))
    return q, canonicalize(q, Q, terms)


def test_d_squared_zero_random_quivers():
    rng = random.Random(2024)
    for _ in range(60):
        q, w = random_quiver_and_potential(rng)
        pres = ginzburg(q, w, 3)
        assert check_d_squared(pres) == []
        assert degree_report(pres) == []


@st.composite
def relation_systems(draw):
    """Random length-homogeneous relations on a quiver with 2 or 3 vertices.

    A relation mixes paths with different end points, so the vertex
    idempotents around it cut it into several pieces.
    """
    field = draw(st.sampled_from([Q, F7]))
    vertices = [str(i) for i in range(draw(st.integers(2, 3)))]
    ends = draw(st.lists(st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)),
                         min_size=2, max_size=5))
    quiver = GradedQuiver(vertices, [(f"a{i}", s, t, 0) for i, (s, t) in enumerate(ends)])
    rel_len = draw(st.integers(0, 2))
    bound = draw(st.integers(rel_len, 4))
    by_len = paths_by_length(quiver, bound)
    layer = by_len.get(rel_len, [])
    assume(layer)
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(st.lists(st.tuples(st.sampled_from(layer), st.integers(-3, 3)),
                              min_size=1, max_size=4))
        rel = AlgElement(quiver, field, [(p, field.from_int(c)) for p, c in terms])
        if not rel.is_zero():
            relations.append(rel)
    assume(relations)
    return relations, by_len, bound, rel_len


@given(system=relation_systems())
@settings(max_examples=80, deadline=None)
def test_relation_ideal_matches_every_product_span(system):
    relations, by_len, bound, rel_len = system
    field = relations[0].field
    ideals = list(relation_ideal(relations, by_len, bound, rel_len))
    assert len(ideals) == bound + 1
    for ell, ideal in enumerate(ideals):
        want = 0 if ell < rel_len else span_rank(
            field, (vec.terms for vec in relation_ideal_span(relations, by_len, ell, rel_len)))
        assert ideal.rank == want, ell
