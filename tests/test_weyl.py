import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (envelope_one, listing_order_homology, naive_dual_differential,
                     naive_is_symplectic, naive_koszul_differential, naive_mul_monomials,
                     naive_sp_equivariance, per_position_dual_differential,
                     per_position_koszul_differential, weyl_commutator, weyl_d, weyl_x)
from skewgin import weyl
from skewgin.errors import NotSymplectic, SizeGuard
from skewgin.fields import make_field
from skewgin.weyl import (WeylAlgebra, _guarded_envelope, _homology, _position_basis,
                          bounded_exactness, check_sp_equivariance, dual_differential,
                          dual_top_concentration, is_symplectic, koszul_differential)

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
        mons = A.monomials_up_to(filt)
        for d in range(2, 2 * n + 1):
            for w, pair in _position_basis(A, d, filt):
                elem = {(w, pair): fr(1)}
                twice = koszul_differential(A, koszul_differential(A, elem))
                assert twice == {}


def test_dual_d_squared_zero_exhaustive():
    for n, filt in ((1, 2), (2, 1)):
        A = WeylAlgebra(n, Q)
        for d in range(0, 2 * n - 1):
            for w, pair in _position_basis(A, d, filt):
                elem = {(w, pair): fr(1)}
                twice = dual_differential(A, dual_differential(A, elem))
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
    # the differentials as the homology and equivariance checks call them,
    # on one basis key with coefficient 1
    field = make_field(spec)
    algebra = WeylAlgebra(n, field)
    for d in range(2 * n + 1):
        for key in _position_basis(algebra, d, filt):
            element = {key: 1}
            assert koszul_differential(algebra, element) == naive_koszul_differential(
                field, n, element), key
            assert dual_differential(algebra, element) == naive_dual_differential(
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


@pytest.mark.parametrize("spec", DIFFERENTIAL_FIELDS)
@pytest.mark.parametrize("n", [1, 2])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_dual_differential_matches_oracles(n, spec, data):
    field = make_field(spec)
    algebra = WeylAlgebra(n, field)
    element = data.draw(chain_elements(field, n))
    image = dual_differential(algebra, element)
    assert image == naive_dual_differential(field, n, element)
    assert image == per_position_dual_differential(algebra, element)


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
    with pytest.raises(SizeGuard):
        bounded_exactness(2, 1, Q, cap=10)
    with pytest.raises(SizeGuard):
        bounded_exactness(3, 0, Q)


def test_dual_concentrated_at_top():
    for filt in (0, 1, 2):
        report = dual_top_concentration(1, filt, Q)
        for d, h in report["homology"].items():
            if d == 2:
                assert h == report["expected_top"] == comb(filt + 2, 2)
            else:
                assert h == 0


def test_dual_concentrated_at_top_n2():
    report = dual_top_concentration(2, 1, Q)
    for d, h in report["homology"].items():
        if d == 4:
            assert h == report["expected_top"] == 5
        else:
            assert h == 0


def test_dual_concentrated_at_top_gf7():
    report = dual_top_concentration(1, 2, make_field(7))
    assert report["homology"] == {0: 0, 1: 0, 2: 6}
    assert report["top_homology"] == report["expected_top"] == 6


def test_size_guard_counts_the_bases_in_closed_form():
    # the guard's count, taken before any basis is built, is the number of
    # basis elements the resolution then enumerates
    for n in (1, 2):
        A = WeylAlgebra(n, Q)
        for filt in range(5):
            total = sum(len(_position_basis(A, d, filt - d)) for d in range(2 * n + 1))
            _guarded_envelope(n, filt, Q, cap=total)
            with pytest.raises(SizeGuard, match=f"dimension {total} > cap {total - 1}"):
                _guarded_envelope(n, filt, Q, cap=total - 1)


def test_dual_size_guard():
    with pytest.raises(SizeGuard):
        dual_top_concentration(2, 1, Q, cap=10)
    with pytest.raises(SizeGuard):
        dual_top_concentration(3, 0, Q)


def test_dual_dimensions_mirror_the_resolution():
    # dual position d has the wedges of length d and filtration filt - (2n - d),
    # the resolution's position 2n - d those of length 2n - d and the same
    # filtration; C(2n, d) = C(2n, 2n - d) makes the sizes agree
    for n, filt in ((1, 0), (1, 3), (2, 0), (2, 2), (2, 3)):
        resolution = bounded_exactness(n, filt, Q)["dimensions"]
        assert dual_top_concentration(n, filt, Q)["dimensions"] == resolution[::-1]


def test_homology_checks_the_closing_map():
    # the augmentation s (x) t -> t s kills the image of the first
    # differential of the resolution; the dual's closing map s (x) t -> s t
    # does not, and the shared routine must say so
    A = WeylAlgebra(1, Q)
    positions = [_position_basis(A, d, 2 - d) for d in range(3)]

    def differential(e):
        return koszul_differential(A, e)

    def augmentation(s, t):
        return A._mul_monomials(t, s)

    _, homology = _homology(Q, positions, differential, augmentation)
    assert homology == [6, 0, 0]
    with pytest.raises(AssertionError):
        _homology(Q, positions, differential, A._mul_monomials)


@pytest.mark.parametrize("field", [Q, make_field(7)], ids=["Q", "GF7"])
@pytest.mark.parametrize("n", [1, 2])
def test_last_listed_pivots_give_the_listing_order_ranks(n, field):
    # _homology pivots each row on its last-listed target key; ranks and
    # homology must be those of first-listed pivots, on the resolution and
    # on its dual, at every filtration up to 5
    A = WeylAlgebra(n, field)
    top = 2 * n
    for filt in range(6):
        resolution = ([_position_basis(A, d, filt - d) for d in range(top + 1)],
                      lambda e: koszul_differential(A, e), lambda s, t: A._mul_monomials(t, s))
        dual = ([_position_basis(A, top - i, filt - i) for i in range(top + 1)],
                lambda e: dual_differential(A, e), A._mul_monomials)
        for positions, differential, closing in (resolution, dual):
            assert (_homology(field, positions, differential, closing)
                    == listing_order_homology(field, positions, differential, closing))


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
    with pytest.raises(NotSymplectic) as info:
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
