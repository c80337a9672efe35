from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from skewgin.errors import SkewginError
from skewgin.fields import make_field
from skewgin.groups import (GroupAlgebra, IdempotentSet, abelian_idempotents,
                            characters, cyclic_group, make_group,
                            validate_idempotent_set)

from oracles import group_conjugate, group_scale, group_sub, naive_characters

Q = make_field("Q")
F7 = make_field(7)


def s3_group():
    # elements: e, s=(12), t=(13), u=(23), c=(123), c2=(132)
    names = ["e", "s", "t", "u", "c", "c2"]
    perms = {
        "e": (0, 1, 2), "s": (1, 0, 2), "t": (2, 1, 0), "u": (0, 2, 1),
        "c": (1, 2, 0), "c2": (2, 0, 1),
    }

    def compose(a, b):
        # apply a first, then b
        pa, pb = perms[a], perms[b]
        return tuple(pb[pa[i]] for i in range(3))

    table = []
    for a in names:
        row = []
        for b in names:
            prod = compose(a, b)
            row.append(names.index(next(n for n in names if perms[n] == prod)))
        table.append(row)
    return make_group(names, table)


def test_cyclic_group_valid():
    g = cyclic_group(3)
    assert g.size == 3
    assert g.order(1) == 3
    assert g.is_abelian()


def test_not_latin_square():
    with pytest.raises(SkewginError, match="^row 0 repeats an entry$"):
        make_group(["e", "g"], [[0, 0], [1, 1]])


def test_no_identity():
    # a Latin square whose only identity-like row has no matching column
    with pytest.raises(SkewginError, match="^no two-sided identity element$"):
        make_group(["a", "b", "c"], [[1, 2, 0], [0, 1, 2], [2, 0, 1]])


def test_not_associative():
    # a Latin square with identity that fails associativity (order-5 loop)
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(SkewginError, match=r"^\(a\*a\)\*b != a\*\(a\*b\)$"):
        make_group(list("eabcd"), table)


def test_s3_valid_nonabelian():
    g = s3_group()
    assert g.size == 6
    assert not g.is_abelian()
    assert sorted(g.order(a) for a in g.elements()) == [1, 2, 2, 2, 3, 3]


def test_subgroup_of_a_subset_not_closed_raises():
    with pytest.raises(ValueError, match="^subset is not closed under multiplication$"):
        cyclic_group(4).subgroup([0, 1])


def test_idempotent_set_with_a_dimension_count_off_fails():
    algebra = GroupAlgebra(cyclic_group(2), Q)
    idem_set = IdempotentSet(algebra, [{0: Q.one()}], [1, 1])
    assert validate_idempotent_set(idem_set) == ["1 idempotents but 2 declared dimensions"]


def test_group_algebra_char_guard():
    g = cyclic_group(3)
    with pytest.raises(SkewginError, match=r"^char 3 divides \|G\| = 3; the group order must be "
                                           r"invertible$"):
        GroupAlgebra(g, make_field(3))
    GroupAlgebra(g, F7)  # fine


def test_characters_z3_gf7():
    g = cyclic_group(3)
    chars = characters(g, F7)
    assert len(chars) == 3
    for chi in chars:
        assert chi[0] == 1
        # multiplicative on the whole table
        for a in g.elements():
            for b in g.elements():
                assert F7.mul(chi[a], chi[b]) == chi[g.mul(a, b)]
    assert {chi[1] for chi in chars} == {1, 2, 4}


def test_characters_require_root():
    with pytest.raises(SkewginError,
                       match="^the rationals contain no primitive 3-th root of unity$"):
        characters(cyclic_group(3), Q)
    with pytest.raises(SkewginError,
                       match="^character construction requires an abelian group$"):
        characters(s3_group(), Q)


def cyclic_product(orders, placement):
    """Z/orders[0] x ... as a table whose element k sits at index
    placement[k], so that the order in which the coset extension meets the
    elements varies."""
    elements = list(product(*(range(n) for n in orders)))
    position = {x: placement[k] for k, x in enumerate(elements)}
    names, table = [None] * len(elements), [[None] * len(elements) for _ in elements]
    for x in elements:
        names[position[x]] = "".join(map(str, x))
        for y in elements:
            xy = tuple((a + b) % n for a, b, n in zip(x, y, orders))
            table[position[x]][position[y]] = position[xy]
    return make_group(names, table)


def outcome(function, *args):
    try:
        return function(*args)
    except SkewginError as exc:
        return type(exc), exc.args


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_characters_match_generator_search_oracle(data):
    # direct products of up to three cyclic groups, the elements shuffled:
    # the extension meets steps with m > 1 and chi(g^m) != 1 (Z/4 x Z/2 with
    # an element of order 4 before the order-2 factor), and fields without
    # the needed roots of unity must fail the same way in both
    orders = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    size = 1
    for n in orders:
        size *= n
    group = cyclic_product(orders, data.draw(st.permutations(range(size))))
    field = make_field(data.draw(st.sampled_from(["Q", 3, 5, 7, 13, 17, 37])))
    assert outcome(characters, group, field) == outcome(naive_characters, group, field)


def test_characters_extend_past_a_nontrivial_power():
    # Z/4 x Z/2 with (2,0) placed first: the extension reaches <(2,0)>, then
    # (0,1) with m = 2 and g^2 = e, then (1,0) with m = 2 and g^2 = (2,0),
    # where chi((2,0)) = -1 asks for the square roots 2 and 3 of -1 in GF(5)
    group = cyclic_product([4, 2], [0, 2, 3, 4, 1, 5, 6, 7])
    assert group.names[1:4] == ("20", "01", "10")
    field = make_field(5)
    chars = characters(group, field)
    assert chars == naive_characters(group, field)
    assert len(chars) == 8 == len(set(chars))
    assert {chi[3] for chi in chars if chi[1] == 4} == {2, 3}
    for chi in chars:
        for a in group.elements():
            for b in group.elements():
                assert chi[group.mul(a, b)] == chi[a] * chi[b] % 5


def test_abelian_idempotents_z2_rationals():
    g = cyclic_group(2)
    s = abelian_idempotents(g, Q)
    half = Fraction(1, 2)
    assert sorted(map(sorted, (e.items() for e in s.elements))) == sorted(map(sorted, [
        {0: half, 1: half}.items(), {0: half, 1: -half}.items()]))
    assert validate_idempotent_set(s) == []


def test_abelian_idempotents_z3_gf7():
    g = cyclic_group(3)
    s = abelian_idempotents(g, F7)
    alg = s.algebra
    # e_k = 5 * (1 + 2^{-k} g + 2^{-2k} g^2) for k = 0, 1, 2 (1/3 = 5 mod 7)
    expected = []
    for k in range(3):
        w = pow(4, k, 7)  # 2^{-1} = 4 mod 7
        expected.append({0: 5, 1: (5 * w) % 7, 2: (5 * w * w) % 7})
    assert sorted(map(sorted, (e.items() for e in s.elements))) == \
        sorted(map(sorted, (e.items() for e in expected)))
    total = {}
    for e in s.elements:
        total = alg.add(total, e)
    assert total == alg.one()
    assert validate_idempotent_set(s) == []


def test_abelian_idempotents_trivial_group():
    g = cyclic_group(1)
    s = abelian_idempotents(g, Q)
    assert s.elements == [{0: Fraction(1)}]
    assert validate_idempotent_set(s) == []


def test_eigenvector_property():
    g = cyclic_group(4)
    f = make_field(5)  # 4 | 5 - 1
    s = abelian_idempotents(g, f)
    chars = characters(g, f)
    for chi, e in zip(chars, s.elements):
        alg = s.algebra
        for h in g.elements():
            assert alg.mul(e, {h: f.one()}) == group_scale(alg, chi[h], e)


def test_validate_rejects_incomplete():
    g = cyclic_group(2)
    alg = GroupAlgebra(g, Q)
    bad = IdempotentSet(alg, [alg.one()], [1])
    report = validate_idempotent_set(bad)
    assert any("squared dimensions" in line for line in report)


def test_validate_s3_user_supplied_set():
    g = s3_group()
    alg = GroupAlgebra(g, Q)
    sixth = Fraction(1, 6)
    e_triv = {i: sixth for i in g.elements()}
    sgn = {"e": 1, "s": -1, "t": -1, "u": -1, "c": 1, "c2": 1}
    e_sgn = {i: sixth * sgn[g.names[i]] for i in g.elements()}
    # central idempotent of the 2-dimensional block, cut down by (1+s)/2
    z_std = group_sub(alg, group_sub(alg, alg.one(), e_triv), e_sgn)
    f_s = {g.index_of("e"): Fraction(1, 2), g.index_of("s"): Fraction(1, 2)}
    e_std = alg.mul(z_std, f_s)
    assert alg.mul(e_std, e_std) == e_std
    s = IdempotentSet(alg, [e_triv, e_sgn, e_std], [1, 1, 2])
    assert validate_idempotent_set(s) == []


def test_validate_catches_isomorphic_pair():
    # two primitive idempotents of the same 2-dim block plus padding dims
    g = s3_group()
    alg = GroupAlgebra(g, Q)
    sixth = Fraction(1, 6)
    e_triv = {i: sixth for i in g.elements()}
    sgn = {"e": 1, "s": -1, "t": -1, "u": -1, "c": 1, "c2": 1}
    e_sgn = {i: sixth * sgn[g.names[i]] for i in g.elements()}
    z_std = group_sub(alg, group_sub(alg, alg.one(), e_triv), e_sgn)
    f_s = {g.index_of("e"): Fraction(1, 2), g.index_of("s"): Fraction(1, 2)}
    e1 = alg.mul(z_std, f_s)
    e2 = group_sub(alg, z_std, e1)  # the complementary primitive in the same block
    s = IdempotentSet(alg, [e1, e2], [2, 2])
    report = validate_idempotent_set(s)
    assert any("isomorphic" in line for line in report)
    assert any("squared dimensions" in line for line in report)


def test_subgroup_extraction():
    g = s3_group()
    sub, ambient = g.subgroup([g.index_of("e"), g.index_of("c"), g.index_of("c2")])
    assert sub.size == 3
    assert sub.is_abelian()
    assert [g.names[i] for i in ambient] == ["e", "c", "c2"]


def test_conjugation_preserves_idempotency():
    g = s3_group()
    sub, ambient = g.subgroup([g.index_of("e"), g.index_of("c"), g.index_of("c2")])
    alg = GroupAlgebra(g, F7)
    idems = abelian_idempotents(sub, F7)
    for e in idems.elements:
        lifted = {ambient[i]: c for i, c in e.items()}
        for h in g.elements():
            conj = group_conjugate(alg, h, lifted)
            assert alg.mul(conj, conj) == conj
