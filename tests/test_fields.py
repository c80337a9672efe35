import random

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from oracles import linear_root_of_unity, naive_accumulate, trial_division_is_prime
from skewgin import fields
from skewgin.errors import SkewginError
from skewgin.fields import make_field, primitive_root_of_unity


def test_make_field_rationals():
    f = make_field("Q")
    assert f.is_rationals
    assert f.parse("2/4") == Fraction(1, 2)


def test_make_field_prime():
    f = make_field(7)
    assert f.characteristic() == 7
    assert f.parse("10") == 3
    assert f.parse("1/2") == 4  # 2 * 4 = 8 = 1 mod 7


@pytest.mark.parametrize("text", ["1e5", "1e-100000", "0.5", "1_0", "3/-4", "+-1", "1/", ""])
@pytest.mark.parametrize("spec", ["Q", 7])
def test_parse_accepts_only_n_and_n_over_m(spec, text):
    with pytest.raises(ValueError, match="expected n or n/m"):
        make_field(spec).parse(text)


def test_parse_signed_fractions():
    assert make_field("Q").parse(" -3/4 ") == Fraction(-3, 4)
    assert make_field("Q").parse("+6/4") == Fraction(3, 2)
    assert make_field(7).parse("-3/4") == 1  # 4 * 1 = 4 = -3 mod 7
    # one reason for a zero denominator over every field
    with pytest.raises(ZeroDivisionError, match="^inverse of zero$"):
        make_field("Q").parse("1/0")
    with pytest.raises(ZeroDivisionError, match="^inverse of zero$"):
        make_field(7).parse("2/14")


def test_make_field_rejects_composite():
    with pytest.raises(SkewginError, match="^modulus 6 is not prime$"):
        make_field(6)
    with pytest.raises(SkewginError, match="^modulus 1 is not prime$"):
        make_field(1)
    for odd in (9, 15, 49):
        with pytest.raises(SkewginError, match=f"^modulus {odd} is not prime$"):
            make_field(odd)


@pytest.mark.parametrize("spec", [True, False])
def test_make_field_refuses_a_bool_as_unrecognised(spec):
    # a bool is an int to isinstance, but no modulus: refused as the
    # document reader refuses it for every other integer
    with pytest.raises(SkewginError, match=f"^unrecognised field spec {spec}$"):
        make_field(spec)


def test_primality_agrees_with_trial_division_below_100000():
    assert [n for n in range(10 ** 5) if fields._is_prime(n)] == [
        n for n in range(10 ** 5) if trial_division_is_prime(n)]


# the least strong pseudoprimes to the first 1, 2, ..., 11 prime bases
# (3825123056546413051 passes 2 to 31), each caught by a later base
STRONG_PSEUDOPRIMES = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                       341550071728321, 3825123056546413051]


@pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES)
def test_strong_pseudoprimes_are_not_prime(n):
    assert not fields._is_prime(n)
    with pytest.raises(SkewginError, match=f"^modulus {n} is not prime$"):
        make_field(n)


def test_moduli_up_to_the_bound_are_read_and_past_it_refused():
    # primes near 10^18 and 10^23 are tested at once; past the bound,
    # where bases 2 to 37 stop being exact, a modulus is refused
    assert make_field(10 ** 18 + 3).p == 10 ** 18 + 3
    assert fields.MAX_MODULUS == 10 ** 23
    assert make_field(10 ** 23 - 23).p == 10 ** 23 - 23
    for p in (10 ** 23 + 117, 318665857834031151167461):
        with pytest.raises(SkewginError, match="^expected a modulus of at most 10{23}$"):
            make_field(p)


@pytest.mark.parametrize("spec", ["Q", 7, 13])
def test_field_axioms_random_samples(spec):
    f = make_field(spec)
    rng = random.Random(42)

    def sample():
        if f.is_rationals:
            return Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        return rng.randrange(f.p)

    for _ in range(200):
        a, b, c = sample(), sample(), sample()
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        if a != f.zero():
            assert f.mul(a, f.inv(a)) == f.one()


def test_rational_inverse_of_an_int_is_exact():
    # accumulate keeps an int scalar over Q as given, so inv must not divide to a float
    inverse = make_field("Q").inv(2)
    assert isinstance(inverse, Fraction) and inverse == Fraction(1, 2)


def test_gf_canonical_residues():
    f = make_field(5)
    for a in range(5):
        for b in range(5):
            assert 0 <= f.add(a, b) < 5
            assert 0 <= f.mul(a, b) < 5
            assert 0 <= f.sub(a, b) < 5


def test_primitive_root_gf7_order3():
    # exhaustive search over GF(7) finds 2: 2^3 = 8 = 1, 2^2 = 4 != 1
    assert primitive_root_of_unity(make_field(7), 3) == 2


def test_primitive_root_rationals():
    q = make_field("Q")
    assert primitive_root_of_unity(q, 2) == Fraction(-1)
    assert primitive_root_of_unity(q, 1) == Fraction(1)
    with pytest.raises(SkewginError,
                       match="^the rationals contain no primitive 3-th root of unity$"):
        primitive_root_of_unity(q, 3)


def test_primitive_root_order_is_exact():
    f = make_field(13)
    for n in (1, 2, 3, 4, 6, 12):
        w = primitive_root_of_unity(f, n)
        assert f.pow(w, n) == 1
        for m in range(1, n):
            if n % m == 0:
                assert f.pow(w, m) != 1


def test_primitive_root_is_the_least_of_the_linear_search():
    # every prime p < 200 and every order n dividing p - 1
    for p in range(2, 200):
        if trial_division_is_prime(p):
            for n in range(1, p):
                if (p - 1) % n == 0:
                    assert primitive_root_of_unity(make_field(p), n) == linear_root_of_unity(p, n)


def test_primitive_root_mod_a_large_prime_is_found_at_once():
    p = 1_000_000_009
    w = primitive_root_of_unity(make_field(p), 3)
    assert w == 115_381_398 and pow(w, 3, p) == 1 and w != 1


def test_primitive_root_of_order_below_one_raises():
    for field in (make_field("Q"), make_field(7)):
        with pytest.raises(ValueError, match="^order must be positive$"):
            primitive_root_of_unity(field, 0)


def test_no_root_when_order_does_not_divide():
    with pytest.raises(SkewginError, match=r"^GF\(7\) has no primitive 5-th root of unity "
                                           r"\(5 does not divide 6\)$"):
        primitive_root_of_unity(make_field(7), 5)


ACCUMULATE_FIELDS = [make_field("Q"), make_field(2), make_field(7)]


def any_scalars(field):
    """Scalars with zeros; over GF(p) also unreduced and negative ints."""
    if field.is_rationals:
        return st.fractions(min_value=-4, max_value=4, max_denominator=3)
    return st.integers(min_value=-2 * field.p, max_value=2 * field.p)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_accumulate_agrees_with_naive_loop(data):
    field = data.draw(st.sampled_from(ACCUMULATE_FIELDS))
    keys = st.integers(min_value=0, max_value=4)
    start = data.draw(st.dictionaries(keys, any_scalars(field), max_size=4))
    if not field.is_rationals:
        start = {k: c % field.p for k, c in start.items()}
    start = {k: c for k, c in start.items() if c}
    terms = data.draw(st.lists(st.tuples(keys, any_scalars(field)), max_size=12))
    # exact cancellations: cancel some drawn terms and some starting entries
    cancel = data.draw(st.lists(st.sampled_from(terms), max_size=4)) if terms else []
    cancel += data.draw(st.lists(st.sampled_from(sorted(start.items())), max_size=2)) if start else []
    terms += [(k, field.neg(c)) for k, c in cancel]
    terms = data.draw(st.permutations(terms))

    acc = dict(start)
    got = field.accumulate(acc, iter(terms))
    expected = naive_accumulate(field, dict(start), terms)
    assert got is acc
    assert got == expected
    assert list(got) == list(expected)  # same keys, absent keys and order
    assert all(got.values())


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_combine_normalized_and_ratio_agree_with_field_scalars(data):
    # sum of coeff * x / d over parts, on field scalars one term at a time,
    # against one Field.combine on ints, read back through Field.ratio; and
    # the same int sums scaled by a common factor normalize to the same
    # canonical (den, terms)
    field = data.draw(st.sampled_from(ACCUMULATE_FIELDS))
    keys = st.integers(min_value=0, max_value=4)
    dens = st.sampled_from([1, 2, 3, 6, 10]) if field.is_rationals else st.just(1)
    parts = data.draw(st.lists(st.tuples(any_scalars(field), dens,
                                         st.lists(st.tuples(keys, st.integers(-6, 6)),
                                                  max_size=4)), max_size=5))
    expected = naive_accumulate(field, {}, [
        (k, field.mul(field.from_int(c) if not field.is_rationals else c,
                      field.ratio(x, d))) for c, d, items in parts for k, x in items])
    den, acc = field.combine(parts)
    assert {k: field.ratio(s, den) for k, s in acc.items()} == expected
    assert list(acc) == list(expected)
    assert all(type(s) is int for s in acc.values())

    factor = data.draw(st.integers(1, 12)) if field.is_rationals else 1
    canonical, terms = field.normalized({k: s * factor for k, s in acc.items()}, den * factor)
    assert {k: field.ratio(s, canonical) for k, s in terms.items()} == expected
    want_den, want_terms = field.scaled(list(expected.items()))
    assert (canonical, terms) == (want_den, dict(want_terms))
    for c in map(field.ratio, terms.values(), [canonical] * len(terms)):
        assert type(c) is (Fraction if field.is_rationals else int)
