import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (coded_homology, dict_dual_differential, dict_keyed_homology,
                     dict_koszul_differential, eliminated_dual_report, envelope_one,
                     greater_sign_inserts, moves_image, phi_element,
                     naive_dual_differential, naive_is_symplectic, naive_koszul_differential,
                     naive_mul_monomials, naive_sp_equivariance, per_position_dual_differential,
                     per_position_koszul_differential, position_keys, weyl_commutator, weyl_d,
                     weyl_x)
from skewgin import weyl
from skewgin.cli import main
from skewgin.errors import CheckFailed, SkewginError
from skewgin.fields import make_field
from skewgin.linalg import LinSolver
from skewgin.weyl import (WeylAlgebra, _Chains, bounded_exactness, check_sp_equivariance,
                          dual_top_concentration, is_symplectic, koszul_differential,
                          wedge_action_terms)

Q = make_field("Q")


def fr(n, d=1):
    return Fraction(n, d)


def test_commutation_relation_n1():
    A = WeylAlgebra(1, Q)
    # d x = x d + 1
    prod = A.mul(weyl_d(A, 0), weyl_x(A, 0))
    assert prod == {((1,), (1,)): fr(1), ((0,), (0,)): fr(1)}


def test_x_squared():
    A = WeylAlgebra(1, Q)
    assert A.mul(weyl_x(A, 0), weyl_x(A, 0)) == {((2,), (0,)): fr(1)}


def test_d_squared_times_x():
    A = WeylAlgebra(1, Q)
    dd = A.mul(weyl_d(A, 0), weyl_d(A, 0))
    prod = A.mul(dd, weyl_x(A, 0))
    # d^2 x = x d^2 + 2 d
    assert prod == {((1,), (2,)): fr(1), ((0,), (1,)): fr(2)}


def test_canonical_commutators_exhaustive():
    for n in (1, 2):
        A = WeylAlgebra(n, Q)
        zero_mon = ((0,) * n, (0,) * n)
        for i in range(n):
            for j in range(n):
                comm = weyl_commutator(A, weyl_d(A, i), weyl_x(A, j))
                expected = {zero_mon: fr(1)} if i == j else {}
                assert comm == expected
                assert weyl_commutator(A, weyl_x(A, i), weyl_x(A, j)) == {}
                assert weyl_commutator(A, weyl_d(A, i), weyl_d(A, j)) == {}


def test_weyl_associativity_random():
    A = WeylAlgebra(2, Q)
    rng = random.Random(17)
    mons = A.monomials_up_to(2)

    def rand_el():
        el = {}
        for _ in range(rng.randint(1, 3)):
            Q.accumulate(el, [(rng.choice(mons), fr(rng.randint(-3, 3)))])
        return el

    for _ in range(40):
        a, b, c = rand_el(), rand_el(), rand_el()
        assert A.mul(A.mul(a, b), c) == A.mul(a, A.mul(b, c))


def test_koszul_differential_degree_one():
    A = WeylAlgebra(1, Q)
    one = envelope_one(A)
    [(pair, _)] = one.items()
    elem = {((0,), pair): fr(1)}  # x (x) (1 (x) 1)
    out = koszul_differential(A, elem)
    zero_mon = ((0,), (0,))
    x_mon = ((1,), (0,))
    assert out == {((), (x_mon, zero_mon)): fr(1), ((), (zero_mon, x_mon)): fr(-1)}


def test_koszul_d_squared_zero_exhaustive():
    for n, filt in ((1, 3), (2, 1)):
        A = WeylAlgebra(n, Q)
        for d in range(2, 2 * n + 1):
            for w, pair in position_keys(A, d, filt):
                elem = {(w, pair): fr(1)}
                twice = koszul_differential(A, koszul_differential(A, elem))
                assert twice == {}


def test_dual_d_squared_zero_exhaustive():
    # the dual differential the phi check transposes from the drop rule,
    # here the oracle's, is a differential
    for n, filt in ((1, 2), (2, 1)):
        A = WeylAlgebra(n, Q)
        for d in range(0, 2 * n - 1):
            for w, pair in position_keys(A, d, filt):
                elem = {(w, pair): fr(1)}
                twice = dict_dual_differential(A, dict_dual_differential(A, elem))
                assert twice == {}


def chain_elements(field, n):
    """Chain elements of several terms across wedge lengths, with monomial
    exponents up to 3 so that normal ordering meets multiples of 2 and 3."""
    exponents = st.tuples(*[st.integers(0, 3)] * n)
    monomials = st.tuples(exponents, exponents)
    wedges = st.sets(st.integers(0, 2 * n - 1)).map(lambda w: tuple(sorted(w)))
    if field.is_rationals:
        coefficients = st.one_of(st.integers(-4, 4),
                                 st.fractions(min_value=-4, max_value=4, max_denominator=3))
    else:
        coefficients = st.integers(0, field.p - 1)
    return st.dictionaries(st.tuples(wedges, st.tuples(monomials, monomials)),
                           coefficients.filter(bool), min_size=1, max_size=4)


DIFFERENTIAL_FIELDS = ["Q", 2, 3, 7]


@pytest.mark.parametrize("spec", DIFFERENTIAL_FIELDS)
@pytest.mark.parametrize("n, filt", [(1, 3), (2, 2)])
def test_differentials_match_oracles_on_every_basis_key(n, filt, spec):
    # the differential as the equivariance check calls it, on one basis key
    # with coefficient 1, and the oracles' two dual differentials
    field = make_field(spec)
    algebra = WeylAlgebra(n, field)
    for d in range(2 * n + 1):
        for key in position_keys(algebra, d, filt):
            element = {key: 1}
            assert koszul_differential(algebra, element) == naive_koszul_differential(
                field, n, element), key
            assert dict_dual_differential(algebra, element) == naive_dual_differential(
                field, n, element), key


@pytest.mark.parametrize("spec", DIFFERENTIAL_FIELDS)
@pytest.mark.parametrize("n", [1, 2])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_koszul_differential_matches_oracles(n, spec, data):
    field = make_field(spec)
    algebra = WeylAlgebra(n, field)
    element = data.draw(chain_elements(field, n))
    image = koszul_differential(algebra, element)
    assert image == naive_koszul_differential(field, n, element)
    assert image == per_position_koszul_differential(algebra, element)
    assert image == dict_koszul_differential(WeylAlgebra(n, field), element)


@pytest.mark.parametrize("spec", DIFFERENTIAL_FIELDS)
@pytest.mark.parametrize("n", [1, 2])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_dual_differential_matches_oracles(n, spec, data):
    # the library builds no dual differential: its three oracles agree
    field = make_field(spec)
    algebra = WeylAlgebra(n, field)
    element = data.draw(chain_elements(field, n))
    image = dict_dual_differential(algebra, element)
    assert image == naive_dual_differential(field, n, element)
    assert image == per_position_dual_differential(WeylAlgebra(n, field), element)


def test_bounded_exactness_n1():
    for filt in range(4):
        report = bounded_exactness(1, filt, Q)
        assert all(v == 0 for v in report["homology"].values()), report
        assert report["augmentation_cokernel"] == report["expected_cokernel"] == comb(filt + 2, 2)


def test_bounded_exactness_n1_gf7():
    report = bounded_exactness(1, 2, make_field(7))
    assert all(v == 0 for v in report["homology"].values())
    assert report["augmentation_cokernel"] == 6


def test_bounded_exactness_n2():
    report = bounded_exactness(2, 1, Q)
    assert all(v == 0 for v in report["homology"].values())
    assert report["augmentation_cokernel"] == report["expected_cokernel"] == comb(1 + 4, 4)


def test_bounded_exactness_size_guard():
    # each count refuses on its own, the piece's dimension first; no rule
    # names n, so n = 3 and n = 6 run at the default cap and n = 7 does not
    with pytest.raises(SkewginError, match=r"^truncated complex has dimension 13 > cap 10$"):
        bounded_exactness(2, 1, Q, cap=10)
    with pytest.raises(SkewginError, match=r"^wedge tables have 64 moves > cap 63$"):
        bounded_exactness(2, 0, Q, cap=63)
    with pytest.raises(SkewginError, match=r"^wedge tables have 229376 moves > cap 200000$"):
        bounded_exactness(7, 0, Q)
    assert bounded_exactness(3, 0, Q)["dimensions"] == [1, 0, 0, 0, 0, 0, 0]
    assert bounded_exactness(6, 0, Q)["augmentation_cokernel"] == 1


def test_size_guard_refuses_past_the_cap_uncounted(monkeypatch):
    # an n past the cap's bit length has more than 4^n > cap moves, and a
    # filtration past the cap more than filt basis codes; neither count is
    # formed, though either would run to thousands of digits
    def no_count(*args):
        raise AssertionError("no count is formed past the cap's size")

    monkeypatch.setattr(weyl, "comb", no_count)
    for n, filt, cap in ((10 ** 9, 0, 200000), (2, 10 ** 600, 200000), (20, 0, 2 ** 18),
                         (1, 11, 10)):
        with pytest.raises(SkewginError, match=rf"^n = {n} and filtration {filt} give counts "
                                            rf"past cap {cap}$"):
            bounded_exactness(n, filt, Q, cap=cap)
    monkeypatch.undo()
    # at the bounds themselves the counts are formed and refuse
    with pytest.raises(SkewginError, match=r"^wedge tables have 10445360463872 moves > cap 262144$"):
        bounded_exactness(19, 0, Q, cap=2 ** 18)
    with pytest.raises(SkewginError, match=r"^truncated complex has dimension 2926 > cap 10$"):
        bounded_exactness(1, 10, Q, cap=10)


def test_size_guard_refuses_a_cap_past_the_largest_at_cap(monkeypatch):
    # under MAX_CAP every count prints; past it the cap itself is refused,
    # before anything is counted
    monkeypatch.setattr(weyl, "comb", lambda *args: pytest.fail("a count was formed"))
    for cap in (weyl.MAX_CAP + 1, 10 ** 24):
        with pytest.raises(SkewginError, match=r"^expected a cap of at most 1000000000000$") as info:
            bounded_exactness(80, cap, Q, cap=cap)
        assert info.value.issues == [("/cap", "expected a cap of at most 1000000000000")]
    with pytest.raises(SkewginError, match=r"^n = 41 and filtration 0 give counts past cap "):
        bounded_exactness(41, 0, Q, cap=weyl.MAX_CAP)


def dual_report(n, filt, field):
    return dual_top_concentration(n, bounded_exactness(n, filt, field))


def test_dual_concentrated_at_top():
    for filt in (0, 1, 2):
        report = dual_report(1, filt, Q)
        for d, h in report["homology"].items():
            if d == 2:
                assert h == report["expected_top"] == comb(filt + 2, 2)
            else:
                assert h == 0


def test_dual_concentrated_at_top_n2():
    report = dual_report(2, 1, Q)
    for d, h in report["homology"].items():
        if d == 4:
            assert h == report["expected_top"] == 5
        else:
            assert h == 0


def test_dual_concentrated_at_top_gf7():
    report = dual_report(1, 2, make_field(7))
    assert report["homology"] == {0: 0, 1: 0, 2: 6}
    assert report["top_homology"] == report["expected_top"] == 6


def test_size_guard_counts_the_bases_in_closed_form():
    # each count, taken before any table is built, is what the checks then
    # enumerate: the piece's basis codes, and the moves of all 4^n wedges,
    # the drops the tables hold and the (wedge, letter) pairs the phi check
    # transposes them to; each refuses one below its value (at filtration 0
    # the piece is the one code 1 (x) 1, and cap 0 is refused uncounted)
    for n in (1, 2, 3):
        A = WeylAlgebra(n, Q)
        moves = 2 * n * 4 ** n
        for filt in range(5):
            chains = _Chains(A, filt)
            total = sum(len(chains.position(d, filt - d)) for d in range(2 * n + 1))
            pairs = sum(2 * n - len(w) for w in chains.wedges)
            assert sum(map(len, chains.drops)) == pairs == moves // 2
            assert sum(bounded_exactness(n, filt, Q, cap=max(total, moves))["dimensions"]) == total
            if filt:
                with pytest.raises(SkewginError, match=f"^truncated complex has dimension {total} "
                                                    f"> cap {total - 1}$"):
                    bounded_exactness(n, filt, Q, cap=total - 1)
            if total < moves:
                with pytest.raises(SkewginError, match=f"^wedge tables have {moves} moves "
                                                    f"> cap {moves - 1}$"):
                    bounded_exactness(n, filt, Q, cap=moves - 1)


def test_dual_size_guard(capsys, monkeypatch):
    # the dual reads the resolution's report, so the resolution's guard
    # refuses a piece over the cap, or wedge tables over it, before the
    # dual runs
    def not_reached(*args):
        raise AssertionError("the dual runs only after the resolution's guard")

    monkeypatch.setattr(weyl, "dual_top_concentration", not_reached)
    for argv, message in ((["--n", "2", "--filtration", "1", "--cap", "10"],
                           "truncated complex has dimension 13 > cap 10"),
                          (["--n", "7", "--filtration", "0"],
                           "wedge tables have 229376 moves > cap 200000")):
        code = main(["weyl", *argv])
        report = json.loads(capsys.readouterr().out)
        assert code == 2
        assert report["errors"] == [{"location": "/", "message": message}]


def test_dual_dimensions_mirror_the_resolution():
    # dual position d has the wedges of length d and filtration filt - (2n - d),
    # the resolution's position 2n - d those of length 2n - d and the same
    # filtration; C(2n, d) = C(2n, 2n - d) makes the sizes agree
    for n, filt in ((1, 0), (1, 3), (2, 0), (2, 2), (2, 3)):
        resolution = bounded_exactness(n, filt, Q)["dimensions"]
        assert eliminated_dual_report(n, filt, Q)["dimensions"] == resolution[::-1]
        assert dual_report(n, filt, Q)["dimensions"] == resolution[::-1]


@pytest.mark.parametrize("field", [Q, make_field(7)], ids=["Q", "GF7"])
@pytest.mark.parametrize("n", [1, 2])
def test_phi_derived_dual_matches_the_eliminated_dual(n, field):
    # the report read off the resolution through the checked isomorphism
    # phi is the one the dual's own elimination gives
    for filt in range(7):
        assert dual_report(n, filt, field) == eliminated_dual_report(n, filt, field), filt


@pytest.mark.parametrize("field", [Q, make_field(7)], ids=["Q", "GF7"])
def test_phi_derived_dual_matches_the_eliminated_dual_n3(field):
    for filt in range(5):
        assert dual_report(3, filt, field) == eliminated_dual_report(3, filt, field), filt


def test_dual_runs_no_elimination(monkeypatch):
    # the dual is read off the resolution, and phi is checked on the drop
    # rule alone: no solver, algebra, tables or differential
    resolution, expected = bounded_exactness(2, 3, Q), eliminated_dual_report(2, 3, Q)

    def not_reached(*args):
        raise AssertionError("the dual is read off the resolution")

    for name in ("LinSolver", "WeylAlgebra", "_Chains", "_chains", "koszul_differential"):
        monkeypatch.setattr(weyl, name, not_reached)
    assert dual_top_concentration(2, resolution) == expected


def test_phi_mismatch_names_the_position_and_wedge(monkeypatch):
    # with every drop sign +1, phi fails to be a chain map on the first
    # generator checked, 1 (x) 1 (x) 1 at dual position 0
    resolution = bounded_exactness(1, 0, Q)
    monkeypatch.setattr(weyl, "_remove_sign", lambda wedge, position: 1)
    with pytest.raises(CheckFailed,
                       match=r"^phi is not a chain map at dual position 0 on wedge \(\)$"):
        dual_top_concentration(1, resolution)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dual_moves_are_the_transpose_of_the_resolutions(n):
    # the drop of k from W with sign e, transposed to the insert of k back
    # to W with the same sign and the two sides swapped, gives the moves of
    # the dual's own sign rule, element by element, in the same order, on
    # the same table objects; and the oracle's image under the drops is the
    # library's
    A = WeylAlgebra(n, Q)
    for filt in range(3):
        chains = _Chains(A, filt)
        transposed = [[] for _ in chains.wedges]
        for i, drops in enumerate(chains.drops):
            for rest, sign, left, minus, right in drops:
                assert minus == -sign
                transposed[rest].append((i, sign, right, -sign, left))
        assert transposed == greater_sign_inserts(chains)
        for d in range(2 * n + 1):
            for code in chains.position(d, filt - 1):  # images numbered below filt
                assert moves_image(chains, code, chains.drops) == chains.image(code)


@pytest.mark.parametrize("field", [Q, make_field(7)], ids=["Q", "GF7"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_phi_is_a_chain_map_on_every_key(n, field):
    # the library checks phi d^v = (-1)^d d phi on the generators
    # w (x) 1 (x) 1 only, from the drop rule; it holds on every key of every
    # dual position up to filtration 3, with the oracle's dual differential
    A = WeylAlgebra(n, field)
    for d in range(2 * n + 1):
        for key in position_keys(A, d, 3):
            lhs = phi_element(field, n, dict_dual_differential(A, {key: 1}))
            rhs = koszul_differential(A, phi_element(field, n, {key: (-1) ** d}))
            assert lhs == rhs, key


@pytest.mark.parametrize("n", [1, 2])
def test_closed_form_tables_match_the_monomial_product(n):
    # every table entry the chains read, each generator on each side of each
    # monomial below the filtration, is the general normal-ordered product
    A = WeylAlgebra(n, Q)
    for filt in range(7):
        chains = _Chains(A, filt)
        index = {m: i for i, m in enumerate(chains.mons)}
        for k in range(2 * n):
            # the single letter v_k drops by v_k s (x) t - s (x) t v_k
            [(_, _, left, _, right)] = chains.drops[chains.wedge_index[(k,)]]
            v = A.basis_monomial(k)
            for s, m in enumerate(chains.mons):
                if chains.degree[s] < filt:
                    assert dict(left(s)) == {index[p]: c
                                             for p, c in A._mul_monomials(v, m).items()}
                    assert dict(right(s)) == {index[p]: c
                                              for p, c in A._mul_monomials(m, v).items()}


def test_homology_checks_the_closing_map(monkeypatch):
    # the augmentation s (x) t -> t s kills the image of the first
    # differential of the resolution; with the product's arguments swapped
    # it becomes the dual's closing map s (x) t -> s t, which does not, and
    # bounded_exactness must say so
    report = bounded_exactness(1, 2, Q)
    assert (report["dimensions"], report["ranks"], report["augmentation_cokernel"]) == (
        [15, 10, 1], [9, 1], 6)
    product = WeylAlgebra._mul_monomials
    monkeypatch.setattr(WeylAlgebra, "_mul_monomials", lambda self, m1, m2: product(self, m2, m1))
    with pytest.raises(CheckFailed, match="^the augmentation does not annihilate the image$"):
        bounded_exactness(1, 2, Q)


def test_homology_checks_d_squared_on_the_generators(monkeypatch):
    # with every drop sign +1 the ranks still add up to zero homology and
    # a matching cokernel, but d^2 is not zero: the first generator at
    # position 2 must show it
    monkeypatch.setattr(weyl, "_remove_sign", lambda wedge, position: 1)
    with pytest.raises(CheckFailed, match=r"^d\^2 is not zero at position 2 on wedge \(0, 1\)$"):
        bounded_exactness(1, 4, Q)


@pytest.mark.parametrize("n", [1, 2])
def test_basis_codes_list_the_dict_keys_in_order(n):
    # each position's codes decode to the dict-keyed listing and strictly
    # increase along it, so minus the code orders the keys as minus the
    # listing index would: a solver pivoting on the least key pivots on
    # the last-listed one either way
    A = WeylAlgebra(n, Q)
    for filt in range(5):
        chains = _Chains(A, filt)
        for d in range(2 * n + 1):
            for env in range(-1, filt + 1):
                codes = chains.position(d, env)
                assert [chains.key(code) for code in codes] == position_keys(A, d, env)
                assert [chains.code(chains.key(code)) for code in codes] == codes
                assert all(a < b for a, b in zip(codes, codes[1:]))


@pytest.mark.parametrize("field", [Q, make_field(7)], ids=["Q", "GF7"])
@pytest.mark.parametrize("n", [1, 2])
def test_homology_keys_each_image_by_minus_the_codes_below(n, field, monkeypatch):
    # bounded_exactness builds one solver per position d = 1..2n, in order,
    # and every vector it adds at position d is keyed only by minus codes
    # of position d - 1
    solvers = []

    class Recording(LinSolver):
        def __init__(self, field):
            super().__init__(field)
            self.added = []
            solvers.append(self)

        def add(self, vec, label=None):
            self.added.append(vec)
            return super().add(vec, label)

    monkeypatch.setattr(weyl, "LinSolver", Recording)
    for filt in range(6):
        solvers.clear()
        report = bounded_exactness(n, filt, field)
        chains = _Chains(WeylAlgebra(n, field), filt)
        assert [solver.rank for solver in solvers] == report["ranks"]
        for d, solver in enumerate(solvers, 1):
            below = {-code for code in chains.position(d - 1, filt - d + 1)}
            assert bool(solver.added) == (d <= filt)
            assert all(set(vec) <= below for vec in solver.added), (filt, d)


@pytest.mark.parametrize("field", [Q, make_field(7)], ids=["Q", "GF7"])
@pytest.mark.parametrize("n", [1, 2])
def test_last_listed_pivots_give_the_listing_order_ranks(n, field):
    # the int-coded homology gives the ranks and homology of the dict-keyed
    # oracle, whose rows pivot on their last-listed keys as the library's
    # do, and those of first-listed pivots, at every filtration up to 5: on
    # the resolution by bounded_exactness, and on its dual by the oracle's
    # general form on the same codes
    A = WeylAlgebra(n, field)
    top = 2 * n
    for filt in range(6):
        report = bounded_exactness(n, filt, field)
        positions = [position_keys(A, d, filt - d) for d in range(top + 1)]
        assert report["dimensions"] == [len(keys) for keys in positions]
        for first_listed in (False, True):
            assert (([0, *report["ranks"]],
                     [report["augmentation_cokernel"], *report["homology"].values()])
                    == dict_keyed_homology(field, positions,
                                           lambda e: dict_koszul_differential(A, e),
                                           lambda s, t: A._mul_monomials(t, s), first_listed))
        chains = _Chains(A, filt)
        layout = [(top - i, filt - i) for i in range(top + 1)]
        dimensions, ranks, homology = coded_homology(
            chains, layout, greater_sign_inserts(chains), A._mul_monomials)
        positions = [position_keys(A, d, env) for d, env in layout]
        assert dimensions == [len(keys) for keys in positions]
        for first_listed in (False, True):
            assert (ranks, homology) == dict_keyed_homology(
                field, positions, lambda e: dict_dual_differential(A, e), A._mul_monomials,
                first_listed)


def test_symplectic_membership():
    A = WeylAlgebra(1, Q)
    minus_id = [[fr(-1), fr(0)], [fr(0), fr(-1)]]
    squeeze = [[fr(2), fr(0)], [fr(0), fr(1, 2)]]
    bad = [[fr(2), fr(0)], [fr(0), fr(1)]]
    assert is_symplectic(A, minus_id)
    assert is_symplectic(A, squeeze)
    assert not is_symplectic(A, bad)


SYMPLECTIC_FIELDS = ["Q", 2, 3, 7]


def standard_form(n):
    """The commutator pairing J on V: [x_i, d_i] = -1 = -[d_i, x_i]."""
    return [[int(i == j + n) - int(j == i + n) for j in range(2 * n)] for i in range(2 * n)]


@pytest.mark.parametrize("spec", SYMPLECTIC_FIELDS)
@pytest.mark.parametrize("n", [1, 2])
def test_basis_commutators_are_the_form_is_symplectic_checks(n, spec):
    # every pair of V basis vectors commutes to the scalar J[i][j] that the
    # closed form of is_symplectic compares against; J and 1 are symplectic
    field = make_field(spec)
    A = WeylAlgebra(n, field)
    basis = [weyl_x(A, i) for i in range(n)] + [weyl_d(A, i) for i in range(n)]
    zero_mon = ((0,) * n, (0,) * n)
    form = standard_form(n)
    for i in range(2 * n):
        for j in range(2 * n):
            want = field.accumulate({}, [(zero_mon, field.from_int(form[i][j]))])
            assert weyl_commutator(A, basis[i], basis[j]) == want, (i, j)
    assert is_symplectic(A, [[field.from_int(v) for v in row] for row in form])
    assert is_symplectic(A, [[field.from_int(int(i == j)) for j in range(2 * n)]
                             for i in range(2 * n)])


def symplectic_candidates(field, n):
    """Random small entries (now and then symplectic at n = 1), transvection
    products (always symplectic), and such products with one entry moved."""
    size = 2 * n
    entry = st.integers(-2, 2).map(field.from_int)
    rows = st.lists(st.lists(entry, min_size=size, max_size=size), min_size=size, max_size=size)
    products = factors(n, 3).map(lambda fs: transvection_product(field, n, fs))

    def moved(args):
        matrix, i, j, c = args
        matrix[i][j] = field.add(matrix[i][j], field.from_int(c))
        return matrix

    index = st.integers(0, size - 1)
    return st.one_of(rows, products,
                     st.tuples(products, index, index, st.integers(1, 2)).map(moved))


@pytest.mark.parametrize("spec", SYMPLECTIC_FIELDS)
@pytest.mark.parametrize("n", [1, 2])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_is_symplectic_matches_oracle(n, spec, data):
    field = make_field(spec)
    matrix = data.draw(symplectic_candidates(field, n))
    assert is_symplectic(WeylAlgebra(n, field), matrix) == naive_is_symplectic(field, n, matrix)


@pytest.mark.parametrize("spec", SYMPLECTIC_FIELDS)
@pytest.mark.parametrize("n", [1, 2])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_wedge_action_terms_count_the_choices_of_every_wedge(n, spec, data):
    # wedge_action on w runs through one nonzero entry of each column of w,
    # so over all wedges it meets sum over w of prod over k in w of the
    # column's nonzeros choices; the count is that sum in closed form
    field = make_field(spec)
    matrix = data.draw(symplectic_candidates(field, n))
    nonzeros = [sum(1 for row in matrix if row[k]) for k in range(2 * n)]
    choices = sum(prod(nonzeros[k] for k in w)
                  for d in range(2 * n + 1) for w in combinations(range(2 * n), d))
    assert wedge_action_terms(matrix) == choices


def test_equivariance_minus_identity_and_squeeze():
    minus_id = [[fr(-1), fr(0)], [fr(0), fr(-1)]]
    squeeze = [[fr(2), fr(0)], [fr(0), fr(1, 2)]]
    report = check_sp_equivariance(1, [minus_id, squeeze], Q)
    assert report == []


def test_equivariance_differentiates_each_key_once_across_matrices(monkeypatch):
    # d does not depend on the matrix: the second matrix reuses every image
    # of the first and differentiates only the keys the first never met
    rot = [[fr(0), fr(-1)], [fr(1), fr(0)]]
    squeeze = [[fr(2), fr(0)], [fr(0), fr(1, 2)]]
    differential = weyl.koszul_differential

    def keys_differentiated(matrices):
        calls = []
        monkeypatch.setattr(weyl, "koszul_differential",
                            lambda algebra, element: calls.extend(element)
                            or differential(algebra, element))
        assert check_sp_equivariance(1, matrices, Q) == []
        return calls

    both = keys_differentiated([rot, squeeze])
    assert len(both) == len(set(both))
    assert set(both) == set(keys_differentiated([rot])) | set(keys_differentiated([squeeze]))


def test_equivariance_rejects_nonsymplectic():
    bad = [[fr(2), fr(0)], [fr(0), fr(1)]]
    with pytest.raises(CheckFailed,
                       match="^matrix 0 does not preserve the commutator pairing$") as info:
        check_sp_equivariance(1, [bad], Q)
    assert info.value.matrix_index == 0


def test_group_closure_spot_check():
    # the product of two passing matrices passes as well
    minus_id = [[fr(-1), fr(0)], [fr(0), fr(-1)]]
    squeeze = [[fr(2), fr(0)], [fr(0), fr(1, 2)]]
    product = [[sum(minus_id[i][k] * squeeze[k][j] for k in range(2))
                for j in range(2)] for i in range(2)]
    assert check_sp_equivariance(1, [product], Q) == []


def test_equivariance_off_diagonal_symplectic():
    # the standard rotation by ninety degrees: x -> d, d -> -x
    rot = [[fr(0), fr(-1)], [fr(1), fr(0)]]
    A = WeylAlgebra(1, Q)
    assert is_symplectic(A, rot)
    assert check_sp_equivariance(1, [rot], Q) == []


def transvection_product(field, n, factors):
    """Product of transvections x -> x + c * form(e_k, x) * e_k, one per
    (k, c) factor with c an int or a Fraction, each of which preserves the
    standard symplectic form."""
    m = 2 * n
    form = [[0] * m for _ in range(m)]
    for i in range(n):
        form[i][n + i], form[n + i][i] = 1, -1
    mat = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    for k, c in factors:
        step = [[int(i == j) + (c * form[k][j] if i == k else 0) for j in range(m)]
                for i in range(m)]
        mat = [[sum(step[i][l] * mat[l][j] for l in range(m)) for j in range(m)]
               for i in range(m)]
    return [[field.div(field.from_int(v.numerator), field.from_int(v.denominator))
             for v in row] for row in mat]


def factors(n, max_size, coefficients=(-2, -1, 1, 2)):
    return st.lists(st.tuples(st.integers(0, 2 * n - 1), st.sampled_from(coefficients)),
                    min_size=1, max_size=max_size)


# transvection coefficients whose products need a common denominator > 1
FRACTIONAL = (fr(-1, 2), fr(1, 2), fr(-2, 3), fr(2, 3), -1, 1, -2, 2)


def has_denominator(matrix):
    return any(v.denominator > 1 for row in matrix for v in row)


def assert_generators_match_oracle(n, matrices, field):
    # the generator check is the oracle at bound 0, failure text included,
    # and on symplectic matrices the oracle finds nothing up to bound 2
    assert (check_sp_equivariance(n, matrices, field)
            == naive_sp_equivariance(n, matrices, field, 0))
    assert naive_sp_equivariance(n, matrices, field, 2) == []


@pytest.mark.parametrize("spec", ["Q", 7])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_cached_equivariance_matches_oracle_n1(spec, data):
    field = make_field(spec)
    matrices = [transvection_product(field, 1, data.draw(factors(1, 3)))
                for _ in range(data.draw(st.integers(1, 2)))]
    assert_generators_match_oracle(1, matrices, field)


@pytest.mark.parametrize("spec", ["Q", 7])
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_cached_equivariance_matches_oracle_n2(spec, data):
    # two factors keep at most 6 nonzero entries, as in the benchmark
    # matrices; the uncached oracle costs about a second per matrix there
    field = make_field(spec)
    matrices = [transvection_product(field, 2, data.draw(factors(2, 2)))]
    assert_generators_match_oracle(2, matrices, field)


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_cached_equivariance_matches_oracle_with_denominators_n1(data):
    matrices = [transvection_product(Q, 1, data.draw(factors(1, 3, FRACTIONAL)))
                for _ in range(data.draw(st.integers(1, 2)))]
    assume(any(has_denominator(mat) for mat in matrices))
    assert_generators_match_oracle(1, matrices, Q)


@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_cached_equivariance_matches_oracle_with_denominators_n2(data):
    matrices = [transvection_product(Q, 2, data.draw(factors(2, 2, FRACTIONAL)))]
    assume(has_denominator(matrices[0]))
    assert_generators_match_oracle(2, matrices, Q)


@pytest.mark.parametrize("spec", ["Q", 7])
@pytest.mark.parametrize("n", [1, 2])
def test_monomial_products_match_oracle(n, spec):
    # every ordered pair of monomials up to filtration 3, compared after
    # reduction: the library's products are unreduced ints
    field = make_field(spec)
    A = WeylAlgebra(n, field)
    mons = A.monomials_up_to(3)
    for m1 in mons:
        for m2 in mons:
            product = field.accumulate({}, A._mul_monomials(m1, m2).items())
            assert product == naive_mul_monomials(field, m1, m2), (m1, m2)


def test_monomial_products_are_memoized_per_algebra():
    A, B = WeylAlgebra(1, Q), WeylAlgebra(1, Q)
    d, x = ((0,), (1,)), ((1,), (0,))
    assert A._mul_monomials(d, x) is A._mul_monomials(d, x)
    assert A._mul_monomials(d, x) == B._mul_monomials(d, x) == {((1,), (1,)): 1, ((0,), (0,)): 1}
    assert A._mul_monomials(d, x) is not B._mul_monomials(d, x)


def test_broken_sign_fails_alike_in_cached_and_oracle(monkeypatch):
    monkeypatch.setattr(weyl, "_remove_sign", lambda wedge, position: 1)
    rot = [[fr(0), fr(-1)], [fr(1), fr(0)]]
    squeeze = [[fr(2), fr(0)], [fr(0), fr(1, 2)]]
    cached = check_sp_equivariance(1, [rot, squeeze], Q)
    assert cached == naive_sp_equivariance(1, [rot, squeeze], Q, 0)
    # only rot fails: it exchanges x and d up to sign, and with the sign
    # dropped d is symmetric in the two
    assert cached == ["matrix 0: differential not equivariant at position 2 on wedge (0, 1) "
                      "and pair (((0,), (0,)), ((0,), (0,)))"]
