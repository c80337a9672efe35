"""Property-based checks of the algebraic laws."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from skewgin.fields import make_field
from skewgin.potential import canonicalize
from skewgin.quiver import AlgElement, GradedQuiver, Path

from oracles import rotations_of

Q = make_field("Q")
F5 = make_field(5)

LOOPS = GradedQuiver(["1"], [("x", "1", "1", 0), ("y", "1", "1", 0)])

scalars = st.fractions(min_value=-9, max_value=9, max_denominator=6)
words = st.lists(st.sampled_from(["x", "y"]), min_size=0, max_size=4)


def element(pairs):
    el = AlgElement.zero(LOOPS, Q)
    for word, coeff in pairs:
        path = Path("1", tuple(word))
        el = el + AlgElement.from_path(LOOPS, Q, path, Fraction(coeff))
    return el


elements = st.lists(st.tuples(words, scalars), min_size=1, max_size=4).map(element)


@given(elements, elements, elements)
@settings(max_examples=120, deadline=None)
def test_path_algebra_associative_and_distributive(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@given(st.lists(st.sampled_from(["x", "y"]), min_size=1, max_size=5),
       st.integers(min_value=0, max_value=4))
@settings(max_examples=120, deadline=None)
def test_canonical_form_rotation_invariant(word, k):
    cycle = Path("1", tuple(word))
    base = canonicalize(LOOPS, Q, [(Q.one(), cycle)])
    rots = rotations_of(LOOPS, cycle)
    rotated, exp = rots[k % len(rots)]
    sign = Q.one() if exp == 0 else Q.parse("-1")
    assert canonicalize(LOOPS, Q, [(sign, rotated)]) == base


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=4))
@settings(max_examples=200, deadline=None)
def test_prime_field_axioms(a, b, c):
    assert F5.mul(F5.mul(a, b), c) == F5.mul(a, F5.mul(b, c))
    assert F5.mul(a, F5.add(b, c)) == F5.add(F5.mul(a, b), F5.mul(a, c))
    assert F5.add(a, F5.neg(a)) == 0
    if a:
        assert F5.mul(a, F5.inv(a)) == 1
