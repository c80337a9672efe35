import pytest

from skewgin import action as action_module
from skewgin.action import (QuiverAction, extend_to_ginzburg,
                            is_potential_invariant, validate_action)
from skewgin.document import parse
from skewgin.errors import CheckFailed
from skewgin.fields import make_field
from skewgin.ginzburg import ginzburg, star_name
from skewgin.groups import cyclic_group
from skewgin.linalg import invert_matrix
from skewgin.potential import canonicalize, cyclic_derivative
from skewgin.quiver import AlgElement, GradedQuiver, Path, basis_up_to

from docs import MCKAY, SIGNED_S3, doc
from oracles import naive_act_path

Q = make_field("Q")
F7 = make_field(7)


def three_loops():
    return GradedQuiver(["1"], [("x", "1", "1", 0), ("y", "1", "1", 0), ("z", "1", "1", 0)])


def commutator_potential(q, field):
    return canonicalize(q, field, [(field.one(), q.path(["x", "y", "z"])),
                                   (field.parse("-1"), q.path(["x", "z", "y"]))])


def loop_permutation_action(field):
    """Z/3 cycling x -> y -> z -> x on the one-vertex quiver."""
    q = three_loops()
    g3 = cyclic_group(3)
    perm = {"x": "y", "y": "z", "z": "x"}
    perms, images = [], []
    mapping = {v: v for v in q.vertices}
    for k in range(3):
        send = {}
        for name in ("x", "y", "z"):
            image = name
            for _ in range(k):
                image = perm[image]
            send[name] = image
        perms.append(dict(mapping))
        images.append({n: AlgElement.from_arrow(q, field, send[n]) for n in send})
    return QuiverAction(g3, q, field, perms, images)


def loop_scaling_action(field, omega):
    """Z/3 scaling each loop by a cube root of unity."""
    q = three_loops()
    g3 = cyclic_group(3)
    perms, images = [], []
    for k in range(3):
        scale = field.pow(omega, k)
        perms.append({v: v for v in q.vertices})
        images.append({n: AlgElement.from_arrow(q, field, n, scale)
                       for n in ("x", "y", "z")})
    return QuiverAction(g3, q, field, perms, images)


def swap_action(field):
    """Z/2 swapping two vertices and the arrows between them."""
    q = GradedQuiver(["1", "2"], [("a", "1", "2", 0), ("b", "2", "1", 0)])
    g2 = cyclic_group(2)
    perms = [{"1": "1", "2": "2"}, {"1": "2", "2": "1"}]
    images = [
        {"a": AlgElement.from_arrow(q, field, "a"), "b": AlgElement.from_arrow(q, field, "b")},
        {"a": AlgElement.from_arrow(q, field, "b"), "b": AlgElement.from_arrow(q, field, "a")},
    ]
    return QuiverAction(g2, q, field, perms, images)


def test_validate_swap_action():
    assert validate_action(swap_action(Q)) == []


def test_validate_scaling_action():
    assert validate_action(loop_scaling_action(F7, 2)) == []


def test_validate_permutation_action():
    assert validate_action(loop_permutation_action(Q)) == []


def test_validate_catches_block_violation():
    # send the arrow 1->2 to an arrow 1->3 while g fixes vertex 2
    q = GradedQuiver(["1", "2", "3"], [("a", "1", "2", 0), ("b", "1", "3", 0)])
    g2 = cyclic_group(2)
    perms = [{v: v for v in q.vertices}] * 2
    images = [
        {"a": AlgElement.from_arrow(q, Q, "a"), "b": AlgElement.from_arrow(q, Q, "b")},
        {"a": AlgElement.from_arrow(q, Q, "b"), "b": AlgElement.from_arrow(q, Q, "a")},
    ]
    action = QuiverAction(g2, q, Q, perms, images)
    report = validate_action(action)
    assert any("image of a hits b" in line for line in report)



def _graded_loops(field):
    """Z/2 swapping a degree-0 loop and a degree-1 loop."""
    q = GradedQuiver(["1"], [("x", "1", "1", 0), ("y", "1", "1", 1)])
    ident = {n: AlgElement.from_arrow(q, field, n) for n in ("x", "y")}
    swap = {"x": AlgElement.from_arrow(q, field, "y"), "y": AlgElement.from_arrow(q, field, "x")}
    return QuiverAction(cyclic_group(2), q, field, [{"1": "1"}] * 2, [ident, swap])


def _vertex_swap_by_z3(field):
    """Z/3 with both g and g2 swapping the two vertices: g*g = g2 moves them,
    the composite does not."""
    q = GradedQuiver(["1", "2"], [("a", "1", "2", 0), ("b", "2", "1", 0)])
    ident = {n: AlgElement.from_arrow(q, field, n) for n in ("a", "b")}
    swap = {"a": AlgElement.from_arrow(q, field, "b"), "b": AlgElement.from_arrow(q, field, "a")}
    perms = [{"1": "1", "2": "2"}] + [{"1": "2", "2": "1"}] * 2
    return QuiverAction(cyclic_group(3), q, field, perms, [ident, swap, swap])


def _set_perm(g, perm):
    def change(action):
        action.vertex_perms[g] = perm
    return change


def _set_image(g, name, path=None, coeff=None):
    """Give arrow name the image coeff * path under g, or none when path is None."""
    def change(action):
        images = action.arrow_images[g] = dict(action.arrow_images[g])
        if path is None:
            del images[name]
        else:
            images[name] = AlgElement.from_path(action.quiver, action.field,
                                                action.quiver.path(path), coeff)
    return change


@pytest.mark.parametrize("make, change, line", [
    (swap_action, _set_perm(1, {"1": "1", "2": "1"}),
     "element g: vertex map is not a permutation"),
    (swap_action, _set_perm(0, {"1": "2", "2": "1"}), "identity element moves a vertex"),
    (lambda f: loop_scaling_action(f, 2), _set_image(0, "x", ["x"], 2),
     "identity element does not fix arrow x"),
    (lambda f: loop_scaling_action(f, 2), _set_image(1, "x"), "element g: no image for arrow x"),
    (lambda f: loop_scaling_action(f, 2), _set_image(1, "x", ["x", "y"]),
     "element g: image of x is not an arrow combination"),
    (_graded_loops, None, "element g: image of x changes degree 0 -> 1"),
    (loop_permutation_action, _set_image(1, "y", ["x"]),
     "element g: arrow-space map on block (1,1) is not invertible"),
    (_vertex_swap_by_z3, None, "vertex action of g*g differs from the composite"),
], ids=["not-a-permutation", "identity-moves-vertex", "identity-moves-arrow", "no-image",
        "not-arrows", "changes-degree", "not-invertible", "vertex-composite"])
def test_validate_action_reports_each_broken_input(make, change, line):
    action = make(F7)
    if change is not None:
        change(action)
    assert line in validate_action(action)


def test_extend_reports_a_changed_differential():
    # d(x*) = x instead of yz - zy: x scales by 2 and x* by 2^-1 = 4, so
    # neither g nor g2 commutes with the changed differential
    action = loop_scaling_action(F7, 2)
    pres = ginzburg(action.quiver, commutator_potential(action.quiver, F7), 3)
    pres.differential["x*"] = AlgElement.from_arrow(pres.doubled, F7, "x")
    _, report = extend_to_ginzburg(action, pres)
    assert [(gen, g) for gen, g, _ in report] == [("x*", "g"), ("x*", "g2")]


def test_act_on_paths():
    action = loop_permutation_action(Q)
    q = action.quiver
    xy = AlgElement.from_path(q, Q, q.path(["x", "y"]))
    moved = action.act(1, xy)
    assert moved == AlgElement.from_path(q, Q, q.path(["y", "z"]))
    assert action.act(0, xy) == xy


def test_act_scaling_cube_is_identity():
    action = loop_scaling_action(F7, 2)
    q = action.quiver
    xyz = AlgElement.from_path(q, F7, q.path(["x", "y", "z"]))
    assert action.act(1, xyz) == xyz  # omega^3 = 1


def test_act_multiplicative_random_pairs():
    action = loop_permutation_action(Q)
    q = action.quiver
    from skewgin.quiver import basis_up_to
    paths = basis_up_to(q, 2)
    for g in action.group.elements():
        for p in paths:
            for r in paths:
                x = AlgElement.from_path(q, Q, p)
                y = AlgElement.from_path(q, Q, r)
                assert action.act(g, x * y) == action.act(g, x) * action.act(g, y)


def broken_action():
    """Not an action: the identity doubles a, and g sends the arrow 1 -> 2
    to the arrow 1 -> 3 while fixing every vertex."""
    q = GradedQuiver(["1", "2", "3"], [("a", "1", "2", 0), ("b", "1", "3", 0),
                                       ("c", "2", "1", 0), ("d", "3", "1", 0)])
    arrows = {n: AlgElement.from_arrow(q, Q, n) for n in "abcd"}
    images = [dict(arrows, a=AlgElement.from_arrow(q, Q, "a", Q.from_int(2))),
              dict(arrows, a=arrows["b"], b=arrows["a"])]
    return QuiverAction(cyclic_group(2), q, Q, [{v: v for v in q.vertices}] * 2, images)


@pytest.mark.parametrize("make", [lambda: loop_scaling_action(F7, 2),
                                  lambda: swap_action(Q), broken_action],
                         ids=["scaling", "swap", "broken"])
@pytest.mark.parametrize("longest_first", [False, True])
def test_act_path_matches_fresh_fold(make, longest_first, monkeypatch):
    # a new image is a cached prefix times arrow images; it must equal the
    # fold from the trivial path, for actions that are not actions too, and
    # each (g, path) of positive length costs exactly one product
    action = make()
    paths = basis_up_to(action.quiver, 3)
    if longest_first:
        paths.reverse()
    products = []
    mul = AlgElement.__mul__
    monkeypatch.setattr(AlgElement, "__mul__", lambda x, y: products.append(1) or mul(x, y))
    got = {(g, p): action.act_path(g, p) for g in action.group.elements() for p in paths}
    assert len(products) == sum(1 for p in paths if p.arrows) * action.group.size
    monkeypatch.undo()
    for (g, p), image in got.items():
        assert image == naive_act_path(action, g, p)
        assert action.act_path(g, p) is image


def test_potential_invariance_scaling():
    action = loop_scaling_action(F7, 2)
    w = commutator_potential(action.quiver, F7)
    assert is_potential_invariant(w, action)


def test_potential_invariance_permutation():
    action = loop_permutation_action(Q)
    w = commutator_potential(action.quiver, Q)
    assert is_potential_invariant(w, action)


def test_potential_not_invariant_under_negation():
    # x -> -x on a single loop with W = x^3
    q = GradedQuiver(["1"], [("x", "1", "1", 0)])
    g2 = cyclic_group(2)
    perms = [{"1": "1"}, {"1": "1"}]
    images = [{"x": AlgElement.from_arrow(q, Q, "x")},
              {"x": AlgElement.from_arrow(q, Q, "x", Q.parse("-1"))}]
    action = QuiverAction(g2, q, Q, perms, images)
    assert validate_action(action) == []
    w = canonicalize(q, Q, [(Q.one(), q.path(["x", "x", "x"]))])
    assert not is_potential_invariant(w, action)


def test_derivative_transport_identity():
    # g(dW/da) equals the derivative along the contragredient image of a,
    # for invariant W; on permutation actions that image is just g(a)
    from oracles import cyclic_derivative_along, naive_contragredient_image
    for action, field in ((loop_permutation_action(Q), Q),
                          (loop_scaling_action(F7, 2), F7)):
        w = commutator_potential(action.quiver, field)
        for g in action.group.elements():
            for a in action.quiver.arrows:
                lhs = action.act(g, cyclic_derivative(w, a.name))
                rhs = cyclic_derivative_along(w, naive_contragredient_image(action, g, a.name))
                assert lhs == rhs


def test_derivative_transport_plain_form_on_permutations():
    # for permutation actions the naive form g(dW/da) = dW/d(ga) holds as is
    from oracles import cyclic_derivative_along
    action = loop_permutation_action(Q)
    w = commutator_potential(action.quiver, Q)
    for g in action.group.elements():
        for a in action.quiver.arrows:
            lhs = action.act(g, cyclic_derivative(w, a.name))
            rhs = cyclic_derivative_along(w, action.arrow_images[g][a.name])
            assert lhs == rhs


def test_extend_permutation_fully_equivariant():
    action = loop_permutation_action(Q)
    w = commutator_potential(action.quiver, Q)
    pres = ginzburg(action.quiver, w, 3)
    extended, report = extend_to_ginzburg(action, pres)
    assert report == []
    assert validate_action(extended) == []


def test_extend_scaling_fully_equivariant():
    action = loop_scaling_action(F7, 2)
    w = commutator_potential(action.quiver, F7)
    pres = ginzburg(action.quiver, w, 3)
    extended, report = extend_to_ginzburg(action, pres)
    assert report == []
    assert validate_action(extended) == []
    # stars scale by the inverse root
    xstar = extended.arrow_images[1]["x*"]
    assert xstar == AlgElement.from_arrow(pres.doubled, F7, "x*", F7.inv(2))


def test_extend_trivial_group():
    q = three_loops()
    action = QuiverAction.trivial(cyclic_group(1), q, Q)
    w = commutator_potential(q, Q)
    pres = ginzburg(q, w, 3)
    _, report = extend_to_ginzburg(action, pres)
    assert report == []


def shear_action():
    """Z/2 mixing two loops with a non-orthogonal matrix: u -> u, v -> u - v."""
    q = GradedQuiver(["1"], [("u", "1", "1", 0), ("v", "1", "1", 0)])
    images = [
        {"u": AlgElement.from_arrow(q, Q, "u"), "v": AlgElement.from_arrow(q, Q, "v")},
        {"u": AlgElement.from_arrow(q, Q, "u"),
         "v": AlgElement.from_arrow(q, Q, "u") - AlgElement.from_arrow(q, Q, "v")},
    ]
    return QuiverAction(cyclic_group(2), q, Q, [{"1": "1"}, {"1": "1"}], images)


def test_extend_shear_action_equivariant():
    # following the arrows on stars would break the loop differential of
    # the shear, the inverse-transpose keeps everything equivariant
    action = shear_action()
    q = action.quiver
    assert validate_action(action) == []
    for w_terms in ([], [(Q.one(), q.path(["u", "u"]))]):
        w = canonicalize(q, Q, [(c, p) for c, p in w_terms])
        assert is_potential_invariant(w, action)
        pres = ginzburg(q, w, 3)
        extended, report = extend_to_ginzburg(action, pres)
        assert report == []
        assert validate_action(extended) == []
    # the star of v picks up the off-diagonal inverse-transpose entry
    w = canonicalize(q, Q, [])
    pres = ginzburg(q, w, 3)
    extended, _ = extend_to_ginzburg(action, pres)
    ustar = extended.arrow_images[1]["u*"]
    assert ustar == (AlgElement.from_arrow(pres.doubled, Q, "u*")
                     + AlgElement.from_arrow(pres.doubled, Q, "v*"))


def test_extend_graded_negation_equivariant():
    # degree -1 loop z and degree 0 loop x, both negated by Z/2, d = 4 with
    # the invariant degree -1 potential xz; the weighted loop differential
    # must stay equivariant
    q = GradedQuiver(["1"], [("x", "1", "1", 0), ("z", "1", "1", -1)])
    g2 = cyclic_group(2)
    perms = [{"1": "1"}, {"1": "1"}]
    minus = Q.parse("-1")
    images = [
        {"x": AlgElement.from_arrow(q, Q, "x"), "z": AlgElement.from_arrow(q, Q, "z")},
        {"x": AlgElement.from_arrow(q, Q, "x", minus),
         "z": AlgElement.from_arrow(q, Q, "z", minus)},
    ]
    action = QuiverAction(g2, q, Q, perms, images)
    assert validate_action(action) == []
    w = canonicalize(q, Q, [(Q.one(), q.path(["x", "z"]))])
    assert is_potential_invariant(w, action)
    pres = ginzburg(q, w, 4)
    from skewgin.ginzburg import check_d_squared
    assert check_d_squared(pres) == []
    extended, report = extend_to_ginzburg(action, pres)
    assert report == []
    assert validate_action(extended) == []


def test_contragredient_of_a_singular_block_raises():
    q = GradedQuiver(["1"], [("x", "1", "1", 0)])
    action = QuiverAction(cyclic_group(2), q, Q, [{"1": "1"}] * 2,
                          [{"x": AlgElement.from_arrow(q, Q, "x")}, {"x": AlgElement(q, Q)}])
    pres = ginzburg(q, canonicalize(q, Q, []), 3)
    with pytest.raises(ValueError, match="^non-invertible arrow block; validate the action first$"):
        extend_to_ginzburg(action, pres)


@pytest.mark.parametrize("name", ["mckay", "signed-s3", "swap", "shear"])
def test_extend_inverts_each_block_once_and_moves_stars_by_its_transpose(name, monkeypatch):
    # each dual arrow a* goes to the starred inverse-transpose image of a,
    # the oracle inverting a's block afresh per arrow; extend_to_ginzburg
    # inverts each nonempty arrow block once per group element
    from oracles import naive_contragredient_image
    if name in ("mckay", "signed-s3"):
        problem = parse(doc(MCKAY if name == "mckay" else SIGNED_S3))
        action, w, d = problem.action, problem.potential, problem.d
    else:
        action = swap_action(Q) if name == "swap" else shear_action()
        w, d = canonicalize(action.quiver, Q, []), 3
    pres = ginzburg(action.quiver, w, d)
    calls = []

    def counting(field, mat):
        calls.append(mat)
        return invert_matrix(field, mat)

    monkeypatch.setattr(action_module, "invert_matrix", counting)
    extended, report = extend_to_ginzburg(action, pres)
    quiver = action.quiver
    blocks = {(a.src, a.tgt) for a in quiver.arrows}
    assert report == []
    assert len(calls) == action.group.size * len(blocks)
    for g in action.group.elements():
        for a in quiver.arrows:
            want = AlgElement(pres.doubled, action.field, (
                (Path(action.act_vertex(g, a.tgt), (star_name(p.arrows[0]),)), c)
                for p, c in naive_contragredient_image(action, g, a.name).terms.items()))
            assert extended.arrow_images[g][star_name(a.name)] == want


def test_extend_rejects_noninvariant():
    q = GradedQuiver(["1"], [("x", "1", "1", 0)])
    g2 = cyclic_group(2)
    perms = [{"1": "1"}, {"1": "1"}]
    images = [{"x": AlgElement.from_arrow(q, Q, "x")},
              {"x": AlgElement.from_arrow(q, Q, "x", Q.parse("-1"))}]
    action = QuiverAction(g2, q, Q, perms, images)
    w = canonicalize(q, Q, [(Q.one(), q.path(["x", "x", "x"]))])
    pres = ginzburg(q, w, 3)
    with pytest.raises(CheckFailed, match="^the potential is not fixed by the group action$"):
        extend_to_ginzburg(action, pres)


def test_extend_scaling_by_two_zero_potential():
    # x -> 2x over Q with W = 0: the star rule forces x* -> x*/2 and
    # d(c) = x x* - x* x stays fixed
    q = GradedQuiver(["1"], [("x", "1", "1", 0)])
    g2 = cyclic_group(2)
    perms = [{"1": "1"}, {"1": "1"}]
    images = [{"x": AlgElement.from_arrow(q, Q, "x")},
              {"x": AlgElement.from_arrow(q, Q, "x", Q.parse("2"))}]
    # order 2 requires the square to land back on x, which 2*2=4 breaks;
    # use Z/1 on the scaled copy instead: build a Z/2-like check manually
    action = QuiverAction(g2, q, Q, perms, images)
    report = validate_action(action)
    assert any("differs from the composite" in line for line in report)


def test_extend_scaling_representation_of_z2():
    # a genuine Z/2: x -> -x with W = 0; star transforms by -1 as well
    q = GradedQuiver(["1"], [("x", "1", "1", 0)])
    g2 = cyclic_group(2)
    perms = [{"1": "1"}, {"1": "1"}]
    images = [{"x": AlgElement.from_arrow(q, Q, "x")},
              {"x": AlgElement.from_arrow(q, Q, "x", Q.parse("-1"))}]
    action = QuiverAction(g2, q, Q, perms, images)
    assert validate_action(action) == []
    w = canonicalize(q, Q, [])
    pres = ginzburg(q, w, 3)
    extended, report = extend_to_ginzburg(action, pres)
    assert report == []
    assert extended.arrow_images[1]["x*"] == AlgElement.from_arrow(pres.doubled, Q, "x*", Q.parse("-1"))
    # d(c) = x x* - x* x is fixed by the extended action
    dc = pres.diff_of("c_1")
    assert extended.act(1, dc) == dc
