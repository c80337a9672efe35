import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skewgin.crossed import (Certificate, CrossedElement, _basis_pairs, commutator_basis,
                             expand_certificate)
from skewgin.errors import FieldMismatch, QuiverMismatch
from skewgin.fields import make_field
from skewgin.groups import cyclic_group
from skewgin.action import QuiverAction, validate_action
from skewgin.quiver import AlgElement, GradedQuiver, basis_up_to

from oracles import (CyclicClass, hc0_reduce, naive_crossed_mul, naive_expand_certificate, one,
                     path_unit, scale)

Q = make_field("Q")
F7 = make_field(7)
F2 = make_field(2)


def negation_action():
    """Z/2 negating both loops x, y at one vertex."""
    q = GradedQuiver(["1"], [("x", "1", "1", 0), ("y", "1", "1", 0)])
    g2 = cyclic_group(2)
    perms = [{"1": "1"}, {"1": "1"}]
    minus = Q.parse("-1")
    images = [
        {"x": AlgElement.from_arrow(q, Q, "x"), "y": AlgElement.from_arrow(q, Q, "y")},
        {"x": AlgElement.from_arrow(q, Q, "x", minus), "y": AlgElement.from_arrow(q, Q, "y", minus)},
    ]
    return QuiverAction(g2, q, Q, perms, images)


def trivial_two_loop_action():
    q = GradedQuiver(["1"], [("x", "1", "1", 0), ("y", "1", "1", 0)])
    return QuiverAction.trivial(cyclic_group(1), q, Q)


def scaling_action_gf7():
    q = GradedQuiver(["1"], [("x", "1", "1", 0), ("y", "1", "1", 0), ("z", "1", "1", 0)])
    g3 = cyclic_group(3)
    perms = [{"1": "1"}] * 3
    images = [{n: AlgElement.from_arrow(q, F7, n, F7.pow(2, k))
               for n in ("x", "y", "z")} for k in range(3)]
    return QuiverAction(g3, q, F7, perms, images)


def test_product_with_twist():
    action = negation_action()
    q = action.quiver
    xg = CrossedElement.from_pair(action, q.path(["x"]), 1)
    yg = CrossedElement.from_pair(action, q.path(["y"]), 1)
    prod = xg * yg
    # (x.g)(y.g) = x (gy) g^2 = -xy.e
    assert prod == CrossedElement.from_pair(action, q.path(["x", "y"]), 0, Q.parse("-1"))


def test_product_trivial_component():
    action = trivial_two_loop_action()
    q = action.quiver
    a = CrossedElement.from_pair(action, q.path(["x"]), 0)
    b = CrossedElement.from_pair(action, q.path(["y"]), 0)
    assert a * b == CrossedElement.from_pair(action, q.path(["x", "y"]), 0)


def test_identity_element():
    action = negation_action()
    unit = one(action)
    q = action.quiver
    el = CrossedElement.from_pair(action, q.path(["x", "y"]), 1, Q.parse("3"))
    assert unit * el == el
    assert el * unit == el


def test_group_slides_past_arrows():
    # g a = (ga) g for every arrow and group element
    for action in (negation_action(), scaling_action_gf7()):
        q, f = action.quiver, action.field
        for g in action.group.elements():
            eg = CrossedElement.from_alg(action, path_unit(q, f), g)
            for a in q.arrows:
                ae = CrossedElement.from_alg(action, AlgElement.from_arrow(q, f, a.name))
                lhs = eg * ae
                rhs = CrossedElement.from_alg(action, action.arrow_images[g][a.name], g)
                assert lhs == rhs


def test_vertex_idempotent_products():
    # (e_i.g)(e_j.h) = e_i e_{g.j} . gh: zero unless i = g.j
    action = swap_vertices_action()
    q = action.quiver
    e1, e2 = q.trivial_path("1"), q.trivial_path("2")
    a = CrossedElement.from_pair(action, e1, 1)  # (e_1, g) with g swapping 1,2
    b = CrossedElement.from_pair(action, e1, 0)
    c = CrossedElement.from_pair(action, e2, 0)
    assert (a * b).is_zero()  # g.1 = 2 != 1
    assert a * c == CrossedElement.from_pair(action, e1, 1)  # g.2 = 1


def swap_vertices_action():
    from skewgin.groups import cyclic_group as cg
    q = GradedQuiver(["1", "2"], [("a", "1", "2", 0), ("b", "2", "1", 0)])
    g2 = cg(2)
    perms = [{"1": "1", "2": "2"}, {"1": "2", "2": "1"}]
    images = [
        {"a": AlgElement.from_arrow(q, Q, "a"), "b": AlgElement.from_arrow(q, Q, "b")},
        {"a": AlgElement.from_arrow(q, Q, "b"), "b": AlgElement.from_arrow(q, Q, "a")},
    ]
    return QuiverAction(g2, q, Q, perms, images)


def test_associativity_random():
    action = negation_action()
    q = action.quiver
    rng = random.Random(99)
    paths = basis_up_to(q, 2)

    def rand_el():
        el = CrossedElement.zero(action)
        for _ in range(rng.randint(1, 3)):
            p = rng.choice(paths)
            g = rng.randrange(2)
            el = el + CrossedElement.from_pair(action, p, g, Q.from_int(rng.randint(-3, 3)))
        return el

    for _ in range(150):
        a, b, c = rand_el(), rand_el(), rand_el()
        assert (a * b) * c == a * (b * c)


def test_commutator_basis_one_loop():
    q = GradedQuiver(["1"], [("x", "1", "1", 0)])
    action = QuiverAction.trivial(cyclic_group(1), q, Q)
    terms = commutator_basis(action, 2, _basis_pairs(action, 2))
    # k[x] is commutative: every commutator of the length-2 component vanishes
    assert terms == []


def test_commutator_basis_two_loops():
    action = trivial_two_loop_action()
    from skewgin.linalg import LinSolver
    from skewgin.crossed import basis_index, vectorize
    index = basis_index(action, 2)
    solver = LinSolver(Q)
    for term in commutator_basis(action, 2, _basis_pairs(action, 2)):
        solver.add(vectorize(term.element, index))
    # span contains exactly xy - yx: quotient of the 4-dim component is 3
    assert solver.rank == 1
    assert len(index) - solver.rank == 3


def test_commutators_vanish_for_length_zero_trivial_action():
    q = GradedQuiver(["1"], [("x", "1", "1", 0)])
    g2 = cyclic_group(2)
    action = QuiverAction.trivial(g2, q, Q)
    assert commutator_basis(action, 0, _basis_pairs(action, 0)) == []


def test_hc0_reduce_full_corner_returns_input():
    action = trivial_two_loop_action()
    q = action.quiver
    x = CrossedElement.from_pair(action, q.path(["y", "x"]), 0)
    w, cert = hc0_reduce(x, one(action))
    assert w == x
    assert cert == []


def test_cyclic_class_trace_property():
    action = negation_action()
    q = action.quiver
    rng = random.Random(5)
    paths2 = [p for p in basis_up_to(q, 2) if len(p.arrows) == 1]

    def rand_el():
        el = CrossedElement.zero(action)
        for _ in range(rng.randint(1, 3)):
            el = el + CrossedElement.from_pair(action, rng.choice(paths2),
                                               rng.randrange(2), Q.from_int(rng.randint(-2, 2)))
        return el

    for _ in range(20):
        a, b = rand_el(), rand_el()
        ab, ba = a * b, b * a
        if ab.is_zero() and ba.is_zero():
            continue
        assert CyclicClass(ab) == CyclicClass(ba)


def test_class_separates_noncommutators():
    action = trivial_two_loop_action()
    q = action.quiver
    xx = CrossedElement.from_pair(action, q.path(["x", "x"]), 0)
    yy = CrossedElement.from_pair(action, q.path(["y", "y"]), 0)
    assert CyclicClass(xx) != CyclicClass(yy)
    xy = CrossedElement.from_pair(action, q.path(["x", "y"]), 0)
    yx = CrossedElement.from_pair(action, q.path(["y", "x"]), 0)
    assert CyclicClass(xy) == CyclicClass(yx)


def test_hc0_reduce_mod_commutators():
    action = trivial_two_loop_action()
    q = action.quiver
    xy = CrossedElement.from_pair(action, q.path(["x", "y"]), 0)
    yx = CrossedElement.from_pair(action, q.path(["y", "x"]), 0)
    # the class of xy - yx is zero, so the empty corner works
    w, cert = hc0_reduce(xy - yx, one(action))
    recombined = CrossedElement.zero(action)
    for (u, v), coeff in cert:
        eu = CrossedElement.from_pair(action, *u)
        ev = CrossedElement.from_pair(action, *v)
        recombined = recombined + scale(eu * ev - ev * eu, coeff)
    assert recombined == (xy - yx) - w


def test_hc0_reduce_no_solution_for_empty_corner():
    import pytest
    from skewgin.errors import NoSolution
    action = trivial_two_loop_action()
    q = action.quiver
    xx = CrossedElement.from_pair(action, q.path(["x", "x"]), 0)
    # the zero idempotent has an empty corner and xx has a nonzero class
    with pytest.raises(NoSolution):
        hc0_reduce(xx, CrossedElement.zero(action))


def test_hc0_reduce_certificate_on_scaling_setup():
    action = scaling_action_gf7()
    q = action.quiver
    w_el = (CrossedElement.from_pair(action, q.path(["x", "y", "z"]), 0)
            - CrossedElement.from_pair(action, q.path(["x", "z", "y"]), 0))
    # reduce against a single character idempotent times nothing: e = 1 works
    w, cert = hc0_reduce(w_el, one(action))
    assert (w - w_el).is_zero() or cert  # either already corner or certified


# ---------- the scaled-integer product against the field-scalar oracle ----------

def reflection_action_q():
    """Z/2 on two loops by [[3/5, 4/5], [4/5, -3/5]]: the image of a path of
    length k has denominator 5^k, so one product mixes denominators."""
    q = GradedQuiver(["1"], [("x", "1", "1", 0), ("y", "1", "1", 0)])
    c, s = Q.parse("3/5"), Q.parse("4/5")
    images = [
        {"x": AlgElement.from_arrow(q, Q, "x"), "y": AlgElement.from_arrow(q, Q, "y")},
        {"x": AlgElement(q, Q, {q.path(["x"]): c, q.path(["y"]): s}),
         "y": AlgElement(q, Q, {q.path(["x"]): s, q.path(["y"]): -c})},
    ]
    return QuiverAction(cyclic_group(2), q, Q, [{"1": "1"}] * 2, images)


def shear_action_gf2():
    """Z/2 over GF(2) on a two-vertex quiver: a -> a + b on the two arrows
    1 -> 2, the arrow 2 -> 1 fixed; paths that do not compose occur."""
    q = GradedQuiver(["1", "2"], [("a", "1", "2", 0), ("b", "1", "2", 0), ("c", "2", "1", 0)])
    arrows = {n: AlgElement.from_arrow(q, F2, n) for n in ("a", "b", "c")}
    images = [dict(arrows), {"a": arrows["a"] + arrows["b"], "b": arrows["b"], "c": arrows["c"]}]
    return QuiverAction(cyclic_group(2), q, F2, [{"1": "1", "2": "2"}] * 2, images)


def swap_action_q():
    """Z/2 over Q swapping the two vertices of a quiver with two arrows each
    way and a loop at each vertex, with scalars of denominators 2 and 3: g
    moves the source of every path, so a product meets images that start at
    the other vertex and p.r that does not compose."""
    q = GradedQuiver(["1", "2"], [("a", "1", "2", 0), ("b", "1", "2", 0),
                                  ("c", "2", "1", 0), ("d", "2", "1", 0),
                                  ("x", "1", "1", 0), ("y", "2", "2", 0)])

    def el(**coeffs):
        return AlgElement(q, Q, {q.path([n]): Q.parse(c) for n, c in coeffs.items()})

    # the (1,2) block [[1/2, 1/3], [0, 1]] and the (2,1) block its inverse,
    # so g^2 fixes every arrow
    images = [{n: el(**{n: "1"}) for n in "abcdxy"},
              {"a": el(c="1/2"), "b": el(c="1/3", d="1"),
               "c": el(a="2"), "d": el(a="-2/3", b="1"),
               "x": el(y="3/2"), "y": el(x="2/3")}]
    return QuiverAction(cyclic_group(2), q, Q, [{"1": "1", "2": "2"}, {"1": "2", "2": "1"}],
                        images)


KERNEL_ACTIONS = {"Q": reflection_action_q, "Q-swap": swap_action_q,
                  "GF(2)": shear_action_gf2, "GF(7)": scaling_action_gf7}


def assert_field_scalars(element, want):
    """element's field-scalar view is the dict want, with exact types, and
    its own terms are plain ints."""
    got = element.field_terms()
    assert got == want
    field = element.action.field
    for c in got.values():
        if field.is_rationals:
            assert type(c) is Fraction
        else:
            assert type(c) is int and 0 < c < field.p
    assert all(type(c) is int for c in element.terms.values())


def assert_matches_oracle(x, y):
    # the kernel divides out the content of its sums, so its den is the
    # least common denominator that the oracle's result is cleared to
    got, want = x * y, naive_crossed_mul(x, y)
    assert (got.den, got.terms) == (want.den, want.terms)
    assert_field_scalars(got, want.field_terms())


def scalars(field):
    if field.is_rationals:
        return st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 5]))
    return st.integers(1, field.p - 1)


def crossed_elements(action, max_len=2, min_size=0, max_size=6):
    """Sparse elements over a small support, so that terms collide: paths of
    length 0 to max_len mixed, coefficients of both signs."""
    keys = [(p, g) for p in basis_up_to(action.quiver, max_len) for g in action.group.elements()]
    return st.lists(st.tuples(st.sampled_from(keys), scalars(action.field)),
                    min_size=min_size, max_size=max_size).map(
        lambda terms: CrossedElement(action, terms))


@pytest.mark.parametrize("name", sorted(KERNEL_ACTIONS))
def test_kernel_actions_are_group_actions(name):
    assert validate_action(KERNEL_ACTIONS[name]()) == []


@pytest.mark.parametrize("name", sorted(KERNEL_ACTIONS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_product_matches_field_scalar_oracle(name, data):
    action = KERNEL_ACTIONS[name]()
    elements = crossed_elements(action)
    x, y = data.draw(elements), data.draw(elements)
    assert_matches_oracle(x, y)
    assert_matches_oracle(x + y, x - y)


@pytest.mark.parametrize("name", sorted(KERNEL_ACTIONS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_single_term_and_length_zero_products_match_oracle(name, data):
    # one single-term operand takes the direct product path; a length-0
    # operand (a group-algebra element at the vertices, as the idempotents
    # are) has several terms and stays on the kernel
    action = KERNEL_ACTIONS[name]()
    general = data.draw(crossed_elements(action))
    single = data.draw(crossed_elements(action, max_size=1))
    length_zero = data.draw(crossed_elements(action, max_len=0, min_size=1, max_size=4))
    for special in (single, length_zero):
        assert_matches_oracle(special, general)
        assert_matches_oracle(general, special)
    assert_matches_oracle(single, length_zero)
    assert_matches_oracle(length_zero, single)


@pytest.mark.parametrize("name", sorted(KERNEL_ACTIONS))
def test_product_cancellation_matches_oracle(name):
    # (e + g)(e - g) = e - g^2 when g fixes the vertex, which is zero for an
    # involution: every term of the product cancels (when g moves the
    # vertex, g.e_v = e_gv.g and the product is e - g)
    action = KERNEL_ACTIONS[name]()
    q = action.quiver
    g = action.group.elements()[-1]
    for v in q.vertices:
        unit = CrossedElement.from_pair(action, q.trivial_path(v), 0)
        twist = CrossedElement.from_pair(action, q.trivial_path(v), g)
        assert_matches_oracle(unit + twist, unit - twist)
        if action.group.size == 2 and action.act_vertex(g, v) == v:
            assert ((unit + twist) * (unit - twist)).is_zero()
        elif action.group.size == 2:
            assert (unit + twist) * (unit - twist) == unit - twist


def test_swap_action_moves_every_source():
    action = swap_action_q()
    g = action.group.elements()[-1]
    for p in basis_up_to(action.quiver, 2):
        image = action.act_path(g, p)
        assert {r.source for r in image.terms} == {action.act_vertex(g, p.source)}


@pytest.mark.parametrize("name", ["Q", "Q-swap", "GF(7)"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_expand_certificate_matches_entrywise_oracle(name, data):
    # random certificates, with repeated pairs and zero coefficients over Q,
    # re-expand to the sum the old entry-by-entry loop builds
    action = KERNEL_ACTIONS[name]()
    keys = [(p, g) for p in basis_up_to(action.quiver, 2) for g in action.group.elements()]
    field = action.field
    coeffs = scalars(field) if field.is_rationals else st.integers(0, 3 * field.p)
    pairs = st.tuples(st.sampled_from(keys), st.sampled_from(keys))
    certificate = data.draw(st.lists(st.tuples(pairs, coeffs), max_size=8))
    got = expand_certificate(action, Certificate.from_entries(field, certificate))
    want = naive_expand_certificate(action, certificate)
    assert got == want
    assert_field_scalars(got, want.field_terms())


@pytest.mark.parametrize("name", sorted(KERNEL_ACTIONS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_cleared_image_cache_is_never_rescaled(name, data):
    # products mix path lengths and so images of different denominators
    # (5^k on Q, 2 and 3 on Q-swap); each is brought to the common
    # denominator of its product, which must not touch the cached list:
    # the same products, repeated on the warm cache, still match the
    # oracle, and every cached image is still the image cleared afresh
    action = KERNEL_ACTIONS[name]()
    elements = crossed_elements(action)
    pairs = [(data.draw(elements), data.draw(elements)) for _ in range(3)]
    for _ in range(2):
        for x, y in pairs:
            assert_matches_oracle(x, y)
            assert_matches_oracle(y, x)
    field = action.field
    for g in action.group.elements():
        for q in basis_up_to(action.quiver, 2):
            assert action.cleared_image(g, q) == field.scaled(
                action.act_path(g, q).terms.items())


@pytest.mark.parametrize("name", sorted(KERNEL_ACTIONS))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_reused_right_factor_matches_oracle(name, data):
    # one right operand serves left operands on each single group element,
    # each single source vertex, zero and itself, in a drawn order, twice:
    # its cached table must hold one entry per group element, and a
    # product must leave both operands as they were
    action = KERNEL_ACTIONS[name]()
    keys = [(p, g) for p in basis_up_to(action.quiver, 2) for g in action.group.elements()]

    def supported_on(subset):
        return data.draw(st.lists(st.tuples(st.sampled_from(subset), scalars(action.field)),
                                  min_size=1, max_size=4).map(
            lambda terms: CrossedElement(action, terms)))

    right = data.draw(crossed_elements(action, min_size=1))
    lefts = ([supported_on([k for k in keys if k[1] == g]) for g in action.group.elements()]
             + [supported_on([k for k in keys if k[0].source == v])
                for v in action.quiver.vertices]
             + [CrossedElement.zero(action), right])
    order = data.draw(st.permutations(lefts))
    for left in order + order:
        before = [(x.den, dict(x.terms)) for x in (left, right)]
        assert_matches_oracle(left, right)
        assert [(x.den, x.terms) for x in (left, right)] == before


def test_field_mismatch_raises_field_mismatch():
    # the same quiver and group over Q and GF(7): int terms would combine
    # silently, so every binary operation must refuse them
    q = GradedQuiver(["1"], [("x", "1", "1", 0)])
    over_q = QuiverAction.trivial(cyclic_group(2), q, Q)
    over_7 = QuiverAction.trivial(cyclic_group(2), q, F7)
    a = CrossedElement.from_pair(over_q, q.path(["x"]), 1)
    b = CrossedElement.from_pair(over_7, q.path(["x"]), 1)
    for op in (lambda u, v: u * v, lambda u, v: u + v, lambda u, v: u - v):
        with pytest.raises(FieldMismatch):
            op(a, b)
        with pytest.raises(FieldMismatch):
            op(b, a)
    other = GradedQuiver(["1"], [("y", "1", "1", 0)])
    c = CrossedElement.from_pair(QuiverAction.trivial(cyclic_group(2), other, Q),
                                 other.path(["y"]), 1)
    with pytest.raises(QuiverMismatch):
        a * c


@pytest.mark.parametrize("name", ["Q", "Q-swap"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_equality_compares_values_across_dens(name, data):
    # the same value over a den k times larger is equal; the same int terms
    # over another den are not, unless both are zero
    action = KERNEL_ACTIONS[name]()
    x = data.draw(crossed_elements(action))
    k = data.draw(st.integers(2, 6))
    wider = CrossedElement.from_ints(action, x.den * k, {key: c * k for key, c in x.terms.items()})
    assert x == wider and wider == x
    assert wider.field_terms() == x.field_terms()
    assert (x - wider).is_zero()
    same_ints = CrossedElement.from_ints(action, x.den * k, dict(x.terms))
    assert (x == same_ints) == x.is_zero()
    assert (x != same_ints) == (not x.is_zero())
    y = data.draw(crossed_elements(action))
    assert (x == y) == (x.field_terms() == y.field_terms())
