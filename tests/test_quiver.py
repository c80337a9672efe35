import random

import pytest
from hypothesis import given, settings, strategies as st

from skewgin import quiver as quiver_module
from skewgin.document import parse
from skewgin.errors import SkewginError
from skewgin.fields import make_field
from skewgin.morita import build_morita
from skewgin.quiver import (AlgElement, GradedQuiver, basis_up_to, count_paths_up_to,
                            path_sort_key, paths_by_length)

from docs import MCKAY, doc
from oracles import naive_paths_by_length, path_unit

Q = make_field("Q")


def two_loop_quiver():
    return GradedQuiver(["1"], [("x", "1", "1", 0), ("y", "1", "1", 0)])


def line_quiver():
    return GradedQuiver(["1", "2", "3"],
                        [("a", "1", "2", 0), ("b", "2", "3", 0), ("c", "3", "1", 0)])


def test_compose_endpoint_match():
    q = line_quiver()
    ab = q.compose(q.path(["a"]), q.path(["b"]))
    assert ab == q.path(["a", "b"])
    assert q.path_target(ab) == "3"


def test_compose_endpoint_mismatch_is_none():
    q = line_quiver()
    assert q.compose(q.path(["a"]), q.path(["c"])) is None


def test_trivial_path_unit_law():
    q = line_quiver()
    e1 = q.trivial_path("1")
    a = q.path(["a"])
    assert q.compose(e1, a) == a
    assert q.compose(a, q.trivial_path("2")) == a


def test_multiply_bilinearity():
    q = line_quiver()
    a = AlgElement.from_arrow(q, Q, "a", Q.parse("2"))
    b = AlgElement.from_arrow(q, Q, "b", Q.parse("3"))
    prod = a * b
    assert prod == AlgElement.from_path(q, Q, q.path(["a", "b"]), Q.parse("6"))


def test_multiply_loop_square():
    q = two_loop_quiver()
    x = AlgElement.from_arrow(q, Q, "x")
    assert (x * x) == AlgElement.from_path(q, Q, q.path(["x", "x"]))


def test_multiply_expanded_by_hand():
    # (x+y)(x-y) = xx - xy + yx - yy on two loops at one vertex
    q = two_loop_quiver()
    x = AlgElement.from_arrow(q, Q, "x")
    y = AlgElement.from_arrow(q, Q, "y")
    lhs = (x + y) * (x - y)
    expected = AlgElement(q, Q, {
        q.path(["x", "x"]): Q.parse("1"),
        q.path(["x", "y"]): Q.parse("-1"),
        q.path(["y", "x"]): Q.parse("1"),
        q.path(["y", "y"]): Q.parse("-1"),
    })
    assert lhs == expected


def test_unit_element_acts_as_identity():
    q = line_quiver()
    one = path_unit(q, Q)
    el = AlgElement.from_arrow(q, Q, "a") + AlgElement.from_path(q, Q, q.path(["b", "c"]))
    assert one * el == el
    assert el * one == el


def test_quiver_mismatch_raises():
    qa, qb = two_loop_quiver(), line_quiver()
    with pytest.raises(SkewginError, match="^elements live on different quivers$"):
        AlgElement.from_arrow(qa, Q, "x") * AlgElement.from_arrow(qb, Q, "a")


def test_field_mismatch_raises():
    q = two_loop_quiver()
    with pytest.raises(SkewginError, match="^elements live over different fields$"):
        AlgElement.from_arrow(q, Q, "x") + AlgElement.from_arrow(q, make_field(7), "x")


@pytest.mark.parametrize("vertices, arrows, message", [
    (["1", "1"], [], "duplicate vertex names"),
    (["1"], [("x", "1", "1", 0), ("x", "1", "1", 0)], "duplicate arrow name 'x'"),
    (["1"], [("x", "1", "2", 0)], "arrow 'x' references unknown vertex"),
])
def test_quiver_constructor_guards(vertices, arrows, message):
    # documents refuse these first (document.parse); the library keeps its
    # own precondition
    with pytest.raises(ValueError, match=f"^{message}$"):
        GradedQuiver(vertices, arrows)


def test_path_guards():
    q = line_quiver()
    with pytest.raises(SkewginError, match="^no arrow named 'd'$"):
        q.arrow("d")
    with pytest.raises(ValueError, match="^unknown vertex '4'$"):
        q.trivial_path("4")
    with pytest.raises(ValueError, match="^empty arrow list; use trivial_path$"):
        q.path([])
    with pytest.raises(ValueError, match=r"^arrows do not compose: \('a', 'a'\)$"):
        q.path(["a", "a"])


def test_basis_up_to_two_loops():
    q = two_loop_quiver()
    words = [(p.arrows) for p in basis_up_to(q, 2)]
    assert words == [(), ("x",), ("y",),
                     ("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")]


def test_basis_up_to_no_arrows():
    q = GradedQuiver(["u", "v"], [])
    paths = basis_up_to(q, 5)
    assert [p.arrows for p in paths] == [(), ()]
    assert sorted(p.source for p in paths) == ["u", "v"]


def test_basis_count_closed_form():
    # single vertex with n loops: sum of n^l for l <= L
    for n in (1, 2, 3):
        q = GradedQuiver(["v"], [(f"a{i}", "v", "v", 0) for i in range(n)])
        for bound in range(4):
            expected = sum(n ** l for l in range(bound + 1))
            assert len(basis_up_to(q, bound)) == expected


def test_degree_additivity():
    q = GradedQuiver(["1"], [("x", "1", "1", 2), ("y", "1", "1", -1)])
    for p in basis_up_to(q, 3):
        for r in basis_up_to(q, 3):
            pr = q.compose(p, r)
            if pr is not None:
                assert q.path_degree(pr) == q.path_degree(p) + q.path_degree(r)


def test_multiply_associative_random():
    q = two_loop_quiver()
    rng = random.Random(7)
    paths = basis_up_to(q, 3)

    def rand_el():
        el = AlgElement.zero(q, Q)
        for _ in range(rng.randint(1, 4)):
            p = rng.choice(paths)
            el = el + AlgElement.from_path(q, Q, p, Q.from_int(rng.randint(-3, 3)))
        return el

    for _ in range(60):
        a, b, c = rand_el(), rand_el(), rand_el()
        assert (a * b) * c == a * (b * c)


def test_count_paths_matches_enumeration_and_stops_early():
    quivers = [two_loop_quiver(),
               GradedQuiver(["1", "2"], [("a", "1", "2", 0), ("b", "2", "1", 0),
                                         ("c", "2", "2", 0)]),
               GradedQuiver(["1", "2", "3"], [("a", "1", "2", 0), ("b", "2", "3", 0)])]
    for q in quivers:
        for bound in range(5):
            assert count_paths_up_to(q, bound, cap=10**6) == len(basis_up_to(q, bound))
    # an acyclic quiver runs out of paths, a cyclic one passes the cap: both
    # return at once for a huge bound
    assert count_paths_up_to(quivers[2], 10**9, cap=10**6) == 6
    assert 100 < count_paths_up_to(quivers[0], 10**9, cap=100) <= 2 * 100 + 1


# ---------- cached path layers ----------

def mckay_reduced_quiver():
    md = build_morita(parse(doc(MCKAY)).action)
    return md.qprime


LAYER_QUIVERS = {
    "one-vertex": two_loop_quiver,
    "mckay-reduced": mckay_reduced_quiver,
    # 3 is a sink and 4 has no arrows, so the layers run out at length 2
    "sinks": lambda: GradedQuiver(["1", "2", "3", "4"], [("a", "1", "2", 0), ("b", "1", "2", 0),
                                                         ("c", "2", "3", 0)]),
}


@pytest.mark.parametrize("name", sorted(LAYER_QUIVERS))
@pytest.mark.parametrize("bounds", [[0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [2, 2, 4, 1, 4, 0]],
                         ids=["rising", "falling", "repeated"])
def test_cached_path_layers_match_fresh_enumeration(name, bounds):
    q = LAYER_QUIVERS[name]()
    for bound in bounds:
        assert paths_by_length(q, bound) == naive_paths_by_length(q, bound)


def test_cached_path_layers_enumerate_once_per_larger_bound(monkeypatch):
    # basis_up_to stays the one enumeration routine, looked up by name, and
    # runs again only for a bound past the cached layers
    calls = []
    enumerate_paths = quiver_module.basis_up_to
    monkeypatch.setattr(quiver_module, "basis_up_to",
                        lambda q, bound: calls.append(bound) or enumerate_paths(q, bound))
    q = two_loop_quiver()
    for bound in (2, 0, 2, 1, 3, 3, 0):
        paths_by_length(q, bound)
    assert calls == [2, 3]


def test_cached_path_layers_reject_a_negative_bound():
    q = two_loop_quiver()
    with pytest.raises(ValueError):
        paths_by_length(q, -1)
    paths_by_length(q, 2)
    with pytest.raises(ValueError):
        paths_by_length(q, -1)


def test_mutating_returned_layers_leaves_the_cache_alone():
    # the layers are the cached tuples themselves, so they cannot change;
    # the dict around them is new on every call
    q = LAYER_QUIVERS["sinks"]()
    by_len = paths_by_length(q, 3)
    want = naive_paths_by_length(q, 3)
    assert all(type(layer) is tuple for layer in by_len.values())
    by_len[1] += (q.trivial_path("4"),)
    by_len[0] = ()
    del by_len[2]
    by_len[7] = ()
    assert paths_by_length(q, 3) == want
    assert paths_by_length(q, 1) == naive_paths_by_length(q, 1)


def test_operators_leave_other_types_to_python():
    q = GradedQuiver(["1"], [("x", "1", "1", 0)])
    x = AlgElement.from_arrow(q, Q, "x")
    assert x.__eq__(1) is NotImplemented and x.__mul__(1) is NotImplemented
    assert x != 1
    with pytest.raises(TypeError):
        x * 1


def test_degree_of_an_inhomogeneous_element_is_none():
    q = GradedQuiver(["1"], [("x", "1", "1", 0), ("y", "1", "1", -1)])
    x, y = AlgElement.from_arrow(q, Q, "x"), AlgElement.from_arrow(q, Q, "y")
    assert x.degree() == 0 and (x * y).degree() == -1
    assert (x + y).degree() is None and AlgElement(q, Q).degree() is None


@st.composite
def coded_quivers(draw):
    """Quivers on 1-3 vertices with 0-9 arrows, so the digit width and the
    arrow count vary, named against their sources: the arrow with the
    greatest source gets the least name."""
    vertices = draw(st.permutations(["1", "2", "3"]))[:draw(st.integers(1, 3))]
    ends = draw(st.lists(st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)),
                         max_size=9))
    ends.sort(key=lambda end: end[0], reverse=True)
    return GradedQuiver(vertices, [("abcdefghi"[k], src, tgt, 0)
                                   for k, (src, tgt) in enumerate(ends)])


@given(quiver=coded_quivers())
@settings(max_examples=40, deadline=None)
def test_path_codes_decode_sort_and_concatenate_like_paths(quiver):
    codes, bound = quiver.codes, 4
    paths = basis_up_to(quiver, bound)
    code_of = {p: codes.encode(p) for p in paths}
    assert sorted(paths, key=code_of.get) == sorted(paths, key=path_sort_key) == paths
    assert len(set(code_of.values())) == len(paths)
    layers = paths_by_length(quiver, bound)
    for p, code in code_of.items():
        assert codes.decode(code) == p
        assert (codes.source(code), codes.target(code), codes.length(code)) == (
            p.source, quiver.path_target(p), len(p.arrows))
        for ell in range(bound - len(p.arrows) + 1):
            for r in layers.get(ell, ()):
                pr = quiver.compose(p, r)
                if pr is not None:
                    assert codes.concat(code, code_of[r]) == code_of[pr]
