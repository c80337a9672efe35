import random

import pytest

from skewgin.errors import SkewginError
from skewgin.fields import make_field
from skewgin.potential import (canonicalize, cyclic_derivative, cycle_length_of, degree_of,
                               least_rotation)
from skewgin.quiver import AlgElement, GradedQuiver, path_sort_key

from oracles import rotations_of, scale_path_element

Q = make_field("Q")


def three_loop_quiver():
    return GradedQuiver(["1"], [("x", "1", "1", 0), ("y", "1", "1", 0), ("z", "1", "1", 0)])


def graded_two_loop(dx, dy):
    return GradedQuiver(["1"], [("a", "1", "1", dx), ("b", "1", "1", dy)])


def test_same_orbit_merges():
    q = three_loop_quiver()
    w = canonicalize(q, Q, [(Q.one(), q.path(["x", "y"])), (Q.one(), q.path(["y", "x"]))])
    assert w.terms == {q.path(["x", "y"]): Q.parse("2")}


def test_same_orbit_cancels():
    q = three_loop_quiver()
    w = canonicalize(q, Q, [(Q.one(), q.path(["x", "y"])), (Q.parse("-1"), q.path(["y", "x"]))])
    assert w.is_zero()


def test_odd_degree_rotation_sign():
    # deg a = deg b = 1: rotating ab to ba carries (-1)^(1*1) = -1
    q = graded_two_loop(1, 1)
    w1 = canonicalize(q, Q, [(Q.one(), q.path(["a", "b"]))])
    w2 = canonicalize(q, Q, [(Q.parse("-1"), q.path(["b", "a"]))])
    assert w1 == w2


def test_self_annihilating_orbit_is_zero():
    # deg a = 1: the 2-cycle aa returns to itself with sign -1, so it dies
    q = graded_two_loop(1, 0)
    w = canonicalize(q, Q, [(Q.one(), q.path(["a", "a"]))])
    assert w.is_zero()


def test_not_a_cycle_rejected():
    q = GradedQuiver(["1", "2"], [("a", "1", "2", 0)])
    with pytest.raises(SkewginError, match=r"^path .* is not a cycle$"):
        canonicalize(q, Q, [(Q.one(), q.path(["a"]))])
    with pytest.raises(SkewginError, match=r"^path .*\('a', 'a'\).* is not composable$"):
        canonicalize(q, Q, [(Q.one(), q.path(["a"])._replace(arrows=("a", "a")))])
    with pytest.raises(SkewginError, match="^trivial paths are not potential cycles$"):
        canonicalize(q, Q, [(Q.one(), q.trivial_path("1"))])


def test_rotation_invariance_random():
    q = three_loop_quiver()
    rng = random.Random(11)
    loops = ["x", "y", "z"]
    for _ in range(50):
        word = [rng.choice(loops) for _ in range(rng.randint(1, 5))]
        cycle = q.path(word)
        base = canonicalize(q, Q, [(Q.one(), cycle)])
        for rotated, exp in rotations_of(q, cycle):
            sign = Q.one() if exp == 0 else Q.parse("-1")
            again = canonicalize(q, Q, [(sign, rotated)])
            assert again == base


def test_least_rotation_is_the_first_least_by_path_sort_key():
    # on three loops and on a two-vertex cycle, where the rotations start at
    # different vertices; periodic words have several least rotations, and
    # the first is the one canonicalize keeps and transport splits at
    loops = three_loop_quiver()
    square = GradedQuiver(["1", "2"], [("a", "1", "2", 0), ("c", "1", "2", 0),
                                       ("b", "2", "1", 0), ("d", "2", "1", 0)])
    rng = random.Random(5)
    words = [(loops, ["x", "y", "x", "y"]), (square, ["b", "a", "b", "a"])]
    for _ in range(100):
        words.append((loops, [rng.choice("xyz") for _ in range(rng.randint(1, 6))]))
        words.append((square, [rng.choice(pair) for _ in range(rng.randint(1, 3))
                               for pair in ("ac", "bd")]))
    for q, word in words:
        cycle = q.path(word)
        rotations = [path for path, _ in rotations_of(q, cycle)]
        best = min(range(len(rotations)), key=lambda j: path_sort_key(rotations[j]))
        assert least_rotation(cycle) == best, word
        assert canonicalize(q, Q, [(Q.one(), cycle)]).terms == {rotations[best]: Q.one()}


def test_cyclic_derivative_commutator_potential():
    q = three_loop_quiver()
    w = canonicalize(q, Q, [(Q.one(), q.path(["x", "y", "z"])),
                            (Q.parse("-1"), q.path(["x", "z", "y"]))])
    dx = cyclic_derivative(w, "x")
    expected = (AlgElement.from_path(q, Q, q.path(["y", "z"]))
                - AlgElement.from_path(q, Q, q.path(["z", "y"])))
    assert dx == expected


def test_cyclic_derivative_absent_arrow_is_zero():
    q = three_loop_quiver()
    w = canonicalize(q, Q, [(Q.one(), q.path(["x", "y"]))])
    assert cyclic_derivative(w, "z").is_zero()


def test_cyclic_derivative_square():
    q = three_loop_quiver()
    w = canonicalize(q, Q, [(Q.one(), q.path(["x", "x"]))])
    assert cyclic_derivative(w, "x") == AlgElement.from_arrow(q, Q, "x", Q.parse("2"))


def test_cyclic_derivative_linear():
    q = three_loop_quiver()
    w1 = canonicalize(q, Q, [(Q.one(), q.path(["x", "y", "z"]))])
    w2 = canonicalize(q, Q, [(Q.one(), q.path(["x", "x"]))])
    combined = canonicalize(q, Q, [(Q.parse("3"), q.path(["x", "y", "z"])),
                                   (Q.parse("5"), q.path(["x", "x"]))])
    for arrow in ("x", "y", "z"):
        lhs = cyclic_derivative(combined, arrow)
        rhs = (scale_path_element(cyclic_derivative(w1, arrow), Q.parse("3"))
               + scale_path_element(cyclic_derivative(w2, arrow), Q.parse("5")))
        assert lhs == rhs


def test_leibniz_compatibility_sum():
    # sum_a (a * dW/da - dW/da * a) = 0 for degree-0 potentials
    q = three_loop_quiver()
    rng = random.Random(3)
    loops = ["x", "y", "z"]
    for _ in range(25):
        terms = []
        for _ in range(rng.randint(1, 3)):
            word = [rng.choice(loops) for _ in range(rng.randint(1, 4))]
            terms.append((Q.from_int(rng.randint(-3, 3)), q.path(word)))
        w = canonicalize(q, Q, terms)
        acc = AlgElement.zero(q, Q)
        for name in loops:
            a = AlgElement.from_arrow(q, Q, name)
            da = cyclic_derivative(w, name)
            acc = acc + (a * da) - (da * a)
        assert acc.is_zero()


def test_degree_of():
    q = three_loop_quiver()
    w = canonicalize(q, Q, [(Q.one(), q.path(["x", "y", "z"])),
                            (Q.parse("-1"), q.path(["x", "z", "y"]))])
    assert degree_of(w) == 0
    assert cycle_length_of(w) == 3
    empty = canonicalize(q, Q, [])
    assert degree_of(empty) == 0
    assert cycle_length_of(empty) == 0


def test_degree_of_inhomogeneous():
    q = graded_two_loop(0, -1)
    w = canonicalize(q, Q, [(Q.one(), q.path(["a", "a"])), (Q.one(), q.path(["b"]))])
    assert degree_of(w) is None


def test_equality_leaves_other_types_to_python():
    q = three_loop_quiver()
    w = canonicalize(q, Q, [(Q.one(), q.path(["x", "y"]))])
    assert w.__eq__(1) is NotImplemented
    assert w != 1 and w != w.as_element()
