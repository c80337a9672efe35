from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from skewgin.fields import make_field
from skewgin.linalg import LinSolver, invert_matrix

from oracles import LabelledLinSolver, dense_rank, marker_express, span_rank


def cleared(field, vec):
    """vec's field scalars as kernel ints over their den (``Field.scaled``),
    the form the solver takes."""
    return dict(field.scaled(list(vec.items()))[1])


def test_rank_counts_independent_rows():
    f = make_field("Q")
    s = LinSolver(f)
    assert s.add({0: 1, 1: 2})
    assert s.add({1: 1})
    assert not s.add({0: 2, 1: 4})
    assert not s.add({0: 1})
    assert s.rank == 2


def test_residual_divides_out_a_cross_multiplication():
    # the row 2 e0 + e1 clears e0 from e0 + e2 only after doubling it, so
    # the residual (2 e2 - e1) / 2 has to divide that doubling back out
    s = LinSolver(make_field("Q"))
    s.add({0: 2, 1: 1})
    residual = s.residual({0: 1, 2: 1})
    assert residual == {1: Fraction(-1, 2), 2: Fraction(1)}
    assert all(type(c) is Fraction for c in residual.values())


def test_express_returns_exact_combination():
    f = make_field(7)
    s = LinSolver(f)
    s.add({0: 1, 1: 1}, label="u")
    s.add({1: 1, 2: 3}, label="v")
    combo = s.express({0: 2, 1: 5, 2: 2})
    assert combo is not None
    # rebuild and compare
    vecs = {"u": {0: 1, 1: 1}, "v": {1: 1, 2: 3}}
    acc = {}
    for lbl, c in combo.items():
        for k, v in vecs[lbl].items():
            acc[k] = (acc.get(k, 0) + c * v) % 7
    acc = {k: v for k, v in acc.items() if v}
    assert acc == {0: 2, 1: 5, 2: 2}


def test_express_after_internal_elimination():
    # the second vector shares a pivot with the first, so insertion has to
    # eliminate; the returned combination must still be exact
    f = make_field("Q")
    s = LinSolver(f)
    vecs = {"u": {0: 1, 1: 1}, "v": {0: 1, 2: 1}, "w": {0: 2, 1: 1, 2: 1, 3: 1}}
    for lbl, vec in vecs.items():
        assert s.add(dict(vec), label=lbl)
    target = {0: 4, 1: 3, 2: 1, 3: -2}
    combo = s.express(dict(target))
    assert combo is not None
    acc = {}
    for lbl, c in combo.items():
        for k, v in vecs[lbl].items():
            acc[k] = acc.get(k, Fraction(0)) + c * v
    assert {k: v for k, v in acc.items() if v} == target


def test_express_rescales_steps_after_a_cross_multiplication():
    # w meets the row of u (pivot 1) and then the row of v (pivot 2), which
    # doubles it: its row is 2 w - 2 u + v, not 2 w - u + v.  Expressing
    # w + u then meets u, v and w's row, with v again doubling.
    f = make_field("Q")
    s = LinSolver(f)
    vecs = {"u": {0: 1, 1: 1}, "v": {1: 2, 2: 1}, "w": {0: 1, 3: 1}}
    for lbl, vec in vecs.items():
        assert s.add(dict(vec), label=lbl)
    assert s.rows[2] == {2: 1, 3: 2}
    assert s.express({0: 2, 1: 1, 3: 1}) == {"u": 1, "w": 1}
    assert s.express({0: 2, 1: 3, 2: 1, 3: 1}) == {"u": 1, "v": 1, "w": 1}


def test_express_sums_the_coefficients_of_a_repeated_label():
    for f in (make_field("Q"), make_field(7)):
        s = LinSolver(f)
        assert s.add({0: 1}, label="a")
        assert s.add({1: 1}, label="b")
        assert s.add({2: 1}, label="a")
        assert s.express({0: 1, 1: 1, 2: 2}) == {"a": f.from_int(3), "b": f.one()}
        assert s.express(cleared(f, {0: f.one(), 2: f.neg(f.one())})) == {}


def test_invert_matrix_adds_each_row_once_and_express_adds_none(monkeypatch):
    calls = []
    add = LinSolver.add
    monkeypatch.setattr(LinSolver, "add", lambda self, vec, label=None: (
        calls.append(label), add(self, vec, label))[1])
    f = make_field("Q")
    mat = [[Fraction(2), Fraction(1), Fraction(0)],
           [Fraction(1), Fraction(1), Fraction(3)],
           [Fraction(0), Fraction(5), Fraction(1)]]
    assert invert_matrix(f, mat) is not None
    assert calls == [0, 1, 2]
    s = LinSolver(f)
    s.add({0: 1, 1: 2}, label="x")
    del calls[:]
    assert s.express({0: 3, 1: 6}) == {"x": 3}
    assert calls == []


def test_express_detects_outside_span():
    f = make_field("Q")
    s = LinSolver(f)
    s.add({0: 1}, label="a")
    assert s.express({1: 1}) is None
    assert not s.contains({1: 1})
    assert s.contains({0: 5})


def test_span_rank_over_gf():
    f = make_field(5)
    vectors = [{0: 1, 1: 2}, {0: 2, 1: 4}, {2: 1}]
    assert span_rank(f, vectors) == 2


def test_invert_matrix_roundtrip():
    f = make_field("Q")
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    inv = invert_matrix(f, m)
    prod = [[sum(m[i][k] * inv[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    assert prod == [[1, 0], [0, 1]]


def test_invert_matrix_rescales_by_each_row_den():
    # each row is cleared over its own den, 2 and 3 here, and the inverse's
    # entries are den times the coefficients of the cleared rows
    f = make_field("Q")
    m = [[Fraction(1, 2), Fraction(1, 2)], [Fraction(0), Fraction(1, 3)]]
    assert invert_matrix(f, m) == [[2, -3], [0, 3]]


def test_invert_matrix_singular():
    f = make_field(3)
    assert invert_matrix(f, [[1, 2], [0, 1]]) is not None
    # det = 1 - 4 = -3 = 0 mod 3
    assert invert_matrix(f, [[1, 2], [2, 1]]) is None


FIELDS = [make_field("Q"), make_field(2), make_field(7)]


def scalars(field):
    if field.is_rationals:
        return st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool)
    return st.integers(min_value=1, max_value=field.p - 1)


def sparse_vectors(field):
    return st.dictionaries(st.integers(min_value=0, max_value=7), scalars(field), max_size=5)


def combine(field, pairs):
    acc = {}
    for coeff, vec in pairs:
        for k, v in vec.items():
            acc[k] = field.add(acc.get(k, field.zero()), field.mul(coeff, v))
    return {k: v for k, v in acc.items() if v != field.zero()}


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_solver_agrees_with_labelled_oracle(data):
    field = data.draw(st.sampled_from(FIELDS))
    vecs = [cleared(field, vec) for vec in data.draw(st.lists(sparse_vectors(field), max_size=10))]
    solver, oracle = LinSolver(field), LabelledLinSolver(field)
    unlabelled_growth = False
    for vec in vecs:
        # a small label pool exercises unlabelled inputs and repeated labels
        label = data.draw(st.sampled_from([None, "a", "b", 0, 1, 2, 3, 4, 5]))
        grew = solver.add(dict(vec), label)
        assert grew == oracle.add(dict(vec), label)
        unlabelled_growth |= grew and label is None
        assert solver.rank == oracle.rank
        assert set(solver.rows) == set(oracle.rows)
    queries = data.draw(st.lists(sparse_vectors(field), max_size=3))
    coeffs = data.draw(st.lists(scalars(field), min_size=len(vecs), max_size=len(vecs)))
    queries.append(combine(field, zip(coeffs, vecs)))
    for query in map(partial(cleared, field), queries):
        assert solver.contains(dict(query)) == oracle.contains(dict(query))
        assert solver.residual(dict(query)) == oracle.residual(dict(query))
        combo, expected = solver.express(dict(query)), oracle.express(dict(query))
        if unlabelled_growth:
            # the oracle then drops the unlabelled part of the combination;
            # the solver answers None unless the labelled inputs suffice
            assert combo is None or combo == expected
        else:
            assert combo == expected


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_span_test_follows_the_span_as_rows_are_added(data):
    # the kept vector is reduced only past the rows added since the last
    # call, and must answer what a fresh contains answers; the last vector
    # is at times a combination of the others, so both answers occur
    field = data.draw(st.sampled_from(FIELDS))
    vecs = [cleared(field, vec) for vec in data.draw(st.lists(sparse_vectors(field), max_size=8))]
    coeffs = data.draw(st.lists(scalars(field), min_size=len(vecs), max_size=len(vecs)))
    target = cleared(field, data.draw(st.one_of(sparse_vectors(field),
                                                st.just(combine(field, zip(coeffs, vecs))))))
    solver = LinSolver(field)
    in_span = solver.span_test(dict(target))
    assert in_span() == solver.contains(dict(target))
    for vec in vecs:
        solver.add(dict(vec))
        assert in_span() == solver.contains(dict(target))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_express_agrees_with_marker_oracle(data):
    # back-substitution must give the marker-column solve's combination,
    # and the labelled oracle's when no unlabelled input enlarged the
    # span, with repeated labels summed and unlabelled rows refused
    field = data.draw(st.sampled_from(FIELDS))
    vecs = [cleared(field, vec) for vec in data.draw(st.lists(sparse_vectors(field), max_size=10))]
    solver, oracle = LinSolver(field), LabelledLinSolver(field)
    inputs, all_inputs = [], []
    for vec in vecs:
        label = data.draw(st.sampled_from([None, "a", "b", 0, 1, 2]))
        oracle.add(dict(vec), label)
        if solver.add(dict(vec), label):
            all_inputs.append(vec)
            if label is not None:
                inputs.append((label, vec))
    unlabelled_growth = len(inputs) < len(all_inputs)

    def combination(vectors):
        coeffs = data.draw(st.lists(scalars(field), min_size=len(vectors),
                                    max_size=len(vectors)))
        return cleared(field, combine(field, zip(coeffs, vectors)))

    labelled = combination([vec for _, vec in inputs])
    queries = [cleared(field, vec) for vec in data.draw(st.lists(sparse_vectors(field), max_size=2))]
    queries += [labelled, combination(all_inputs)]
    for query in queries:
        combo = solver.express(dict(query))
        assert combo == marker_express(field, inputs, query)
        if not unlabelled_growth:
            assert combo == oracle.express(dict(query))
    assert solver.express(labelled) is not None


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_invert_matrix_against_dense_rank(data):
    field = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(min_value=1, max_value=4))
    entries = st.one_of(st.just(field.zero()), scalars(field))
    mat = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    inv = invert_matrix(field, mat)
    assert (inv is not None) == (dense_rank(mat, field.p) == n)
    if inv is not None:
        for i in range(n):
            for j in range(n):
                entry = field.zero()
                for k in range(n):
                    entry = field.add(entry, field.mul(inv[i][k], mat[k][j]))
                assert entry == (field.one() if i == j else field.zero())


@pytest.mark.parametrize("spec", ["Q", 2, 7])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_vectors_taken_as_given_match_cleared_ones(spec, data):
    # kernel int vectors must land exactly where equal field-scalar vectors
    # do once Field.scaled clears them: over Q the ints over a positive m,
    # cleared to a positive multiple den / m of them, over GF(p) residues
    # shifted by multiples of p, cleared to the residues; Field.scaled
    # drops the zeros, and the solver leaves its inputs as given
    f = make_field(spec)
    top = 6 if f.is_rationals else f.p - 1
    vectors = st.dictionaries(st.integers(0, 7), st.integers(-top if f.is_rationals else 0, top),
                              max_size=5)
    draws = st.tuples(vectors, st.integers(1, 4), st.lists(st.integers(-2, 2), min_size=8, max_size=8))
    vecs = data.draw(st.lists(draws, max_size=10))
    queries = data.draw(st.lists(draws, max_size=4))

    def scalars(vec, m, shift):
        return {k: Fraction(c, m) if f.is_rationals else c + shift[k] * f.p for k, c in vec.items()}

    def as_given(vec):
        return {k: c for k, c in vec.items() if c}

    taken, cleared_solver = LinSolver(f), LinSolver(f)
    for vec, m, shift in vecs:
        given_vec = as_given(vec)
        assert taken.add(given_vec) == cleared_solver.add(cleared(f, scalars(vec, m, shift)))
        assert given_vec == as_given(vec)
    assert taken.rows == cleared_solver.rows
    assert all(type(c) is int for row in taken.rows.values() for c in row.values())
    for query, m, shift in queries:
        den, items = f.scaled(list(scalars(query, m, shift).items()))
        assert taken.contains(as_given(query)) == cleared_solver.contains(dict(items))
        residual = taken.residual(as_given(query))
        factor = Fraction(den, m) if f.is_rationals else 1
        assert cleared_solver.residual(dict(items)) == {k: f.mul(factor, c) for k, c in residual.items()}
        assert all(c for c in residual.values())
        if f.is_rationals:
            assert all(type(c) is Fraction for c in residual.values())
