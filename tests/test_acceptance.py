"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
check is exact (integer or field equality, no tolerances).
"""

import json
import random
from math import comb

from skewgin.action import QuiverAction, extend_to_ginzburg, validate_action
from skewgin.cli import main
from skewgin.crossed import CrossedElement
from skewgin.fields import make_field
from skewgin.ginzburg import check_d_squared, ginzburg, jacobian_truncation
from skewgin.groups import cyclic_group
from skewgin.morita import (build_morita, check_embedding,
                            morita_dimension_check, transport_potential)
from skewgin.potential import canonicalize
from skewgin.quiver import AlgElement, GradedQuiver, basis_up_to

from docs import MCKAY, NEGATION_NONINVARIANT, THREE_LOOPS_COMMUTATOR, doc
from oracles import brute_jacobian_dims, path_unit, scale
from test_ginzburg import JACOBIAN_CASES

Q = make_field("Q")
F7 = make_field(7)


def _report(number, ok, description):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, description


def three_loops(field):
    return GradedQuiver(["1"], [("x", "1", "1", 0), ("y", "1", "1", 0), ("z", "1", "1", 0)])


def commutator_potential(q, field):
    return canonicalize(q, field, [(field.one(), q.path(["x", "y", "z"])),
                                   (field.parse("-1"), q.path(["x", "z", "y"]))])


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_ginzburg_well_defined():
    rng = random.Random(20260808)
    runs = 0
    ok = True
    while runs < 200:
        nv = rng.randint(1, 4)
        vertices = [str(i + 1) for i in range(nv)]
        na = rng.randint(1, 6)
        arrows = [(f"a{i}", rng.choice(vertices), rng.choice(vertices), 0)
                  for i in range(na)]
        quiver = GradedQuiver(vertices, arrows)
        terms = []
        for _ in range(rng.randint(0, 3)):
            start = rng.choice(vertices)
            at, word = start, []
            for _ in range(4):
                options = quiver.arrows_from[at]
                if not options:
                    break
                arrow = rng.choice(options)
                word.append(arrow.name)
                at = arrow.tgt
                if at == start:
                    break
            if word and at == start:
                terms.append((Q.from_int(rng.choice([-2, -1, 1, 2, 3])),
                              quiver.path(word)))
        potential = canonicalize(quiver, Q, terms)
        presentation = ginzburg(quiver, potential, 3)
        if check_d_squared(presentation):
            ok = False
            break
        runs += 1
    _report(1, ok and runs == 200,
            "differential squares to zero on 200 random quivers with potentials")


# ---------------------------------------------------------------- criterion 2

def permutation_action(field):
    q = three_loops(field)
    g3 = cyclic_group(3)
    send1 = {"x": "y", "y": "z", "z": "x"}
    perms, images = [], []
    for k in range(3):
        send = {n: n for n in ("x", "y", "z")}
        for _ in range(k):
            send = {n: send1[send[n]] for n in send}
        perms.append({"1": "1"})
        images.append({n: AlgElement.from_arrow(q, field, send[n]) for n in send})
    return QuiverAction(g3, q, field, perms, images)


def scaling_action(field, omega):
    q = three_loops(field)
    g3 = cyclic_group(3)
    perms = [{"1": "1"}] * 3
    images = [{n: AlgElement.from_arrow(q, field, n, field.pow(omega, k))
               for n in ("x", "y", "z")} for k in range(3)]
    return QuiverAction(g3, q, field, perms, images)


def test_criterion_2_equivariance():
    results = []
    for action in (permutation_action(Q), scaling_action(F7, 2)):
        field = action.field
        assert validate_action(action) == []
        w = commutator_potential(action.quiver, field)
        presentation = ginzburg(action.quiver, w, 3)
        extended, failures = extend_to_ginzburg(action, presentation)
        covered = len(presentation.generators()) * action.group.size
        results.append(failures == [] and covered == 7 * 3)
    _report(2, all(results),
            "extended actions commute with the differential on all 7 generators "
            "x 3 elements for both order-3 actions")


# ---------------------------------------------------------------- criterion 3

def mckay_setup():
    action = scaling_action(F7, 2)
    md = build_morita(action)
    w = commutator_potential(action.quiver, F7)
    return action, md, w


def test_criterion_3_mckay_pipeline():
    action, md, w = mckay_setup()
    ok = len(md.qprime.vertices) == 3 and len(md.qprime.arrows) == 9
    # exactly 3 arrows between consecutive character vertices, cyclically
    pair_counts = {}
    for a in md.qprime.arrows:
        pair_counts[(a.src, a.tgt)] = pair_counts.get((a.src, a.tgt), 0) + 1
    ok = ok and sorted(pair_counts.values()) == [3, 3, 3]
    ok = ok and all(s != t for s, t in pair_counts)
    succ = dict(pair_counts.keys())
    at = md.qprime.vertices[0]
    visited = {at}
    for _ in range(2):
        at = succ[at]
        visited.add(at)
    ok = ok and len(visited) == 3

    reduced, certificate = transport_potential(w, md)
    ok = ok and not reduced.is_zero()
    # the certificate was re-verified inside transport; re-check here too
    x = CrossedElement.from_alg(action, w.as_element())
    from skewgin.morita import embed
    diff = embed(md, reduced.as_element()) - x
    recombined = CrossedElement.zero(action)
    for (u, v), coeff in certificate:
        eu = CrossedElement.from_pair(action, *u)
        ev = CrossedElement.from_pair(action, *v)
        recombined = recombined + scale(eu * ev - ev * eu, coeff)
    ok = ok and recombined == diff

    rows, table_ok = morita_dimension_check(md, w, reduced, 4)
    ok = ok and table_ok and all(left == right for _, left, right in rows)
    _report(3, ok, "order-3 scaling reduction: 3 vertices, 9 arrows in a "
                   "3-cycle pattern, certified transport, equal dimension "
                   "columns up to length 4")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_trivial_group_degeneracy():
    q = GradedQuiver(["1", "2"], [("a", "1", "2", 0), ("b", "2", "1", 0),
                                  ("x", "1", "1", 0)])
    action = QuiverAction.trivial(cyclic_group(1), q, Q)
    md = build_morita(action)
    ok = len(md.qprime.vertices) == len(q.vertices)
    ok = ok and len(md.qprime.arrows) == len(q.arrows)
    vmap = {v: md.vertex_info[v][0] for v in md.qprime.vertices}
    amap = {}
    for name, el in md.arrow_embed.items():
        [(key, coeff)] = el.field_terms().items()
        path, g = key
        ok = (ok and g == action.group.identity and coeff == Q.one()
              and len(path.arrows) == 1)
        amap[name] = path.arrows[0]
    ok = ok and sorted(amap.values()) == sorted(a.name for a in q.arrows)
    for name, orig in amap.items():
        arrow = md.qprime.arrow(name)
        ok = ok and vmap[arrow.src] == q.arrow(orig).src
        ok = ok and vmap[arrow.tgt] == q.arrow(orig).tgt
    ok = ok and check_embedding(md, 3) == []

    w = canonicalize(q, Q, [(Q.one(), q.path(["x", "x", "x"])),
                            (Q.one(), q.path(["a", "b", "x"]))])
    reduced, _ = transport_potential(w, md)
    # equality of potentials is equality of classes under the arrow bijection
    mapped = canonicalize(q, Q, [(c, q.path([amap[n] for n in p.arrows]))
                                 for p, c in reduced.terms.items()])
    ok = ok and mapped == w
    _report(4, ok, "trivial group returns the same quiver, the same potential, "
                   "and the identity embedding")


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_jacobian_oracle_equivalence():
    ok = True
    for vertices, arrows, terms in JACOBIAN_CASES:
        q = GradedQuiver(vertices, [(n, s, t, 0) for n, (s, t) in sorted(arrows.items())])
        w = canonicalize(q, Q, [(Q.from_int(c), q.path(list(word))) for c, word in terms])
        if jacobian_truncation(q, w, 4) != brute_jacobian_dims(vertices, arrows, terms, 4):
            ok = False
            break
    _report(5, ok, "quotient dimensions match the brute-force oracle on all "
                   "library examples up to length 4")


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_crossed_product_laws():
    action = scaling_action(F7, 2)
    q, field = action.quiver, action.field
    rng = random.Random(424242)
    paths = basis_up_to(q, 2)

    def rand_el():
        el = CrossedElement.zero(action)
        for _ in range(rng.randint(1, 3)):
            el = el + CrossedElement.from_pair(
                action, rng.choice(paths), rng.randrange(3),
                field.from_int(rng.randint(1, 6)))
        return el

    ok = True
    for _ in range(1000):
        a, b, c = rand_el(), rand_el(), rand_el()
        if (a * b) * c != a * (b * c):
            ok = False
            break
    for g in action.group.elements():
        unit_g = CrossedElement.from_alg(action, path_unit(q, field), g)
        for arrow in q.arrows:
            a_el = CrossedElement.from_alg(action, AlgElement.from_arrow(q, field, arrow.name))
            lhs = unit_g * a_el
            rhs = CrossedElement.from_alg(action, action.arrow_images[g][arrow.name], g)
            if lhs != rhs:
                ok = False
    _report(6, ok, "associativity on 1000 random triples and the twist rule "
                   "on every arrow/element pair")


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_weyl_koszul():
    from skewgin.errors import NotSymplectic
    from skewgin.weyl import (WeylAlgebra, _position_basis, bounded_exactness,
                              check_sp_equivariance, koszul_differential)
    ok = True
    for n, filt_max in ((1, 3), (2, 1)):
        algebra = WeylAlgebra(n, Q)
        for filt in range(filt_max + 1):
            for d in range(2, 2 * n + 1):
                for w, pair in _position_basis(algebra, d, filt):
                    if koszul_differential(algebra, koszul_differential(
                            algebra, {(w, pair): Q.one()})):
                        ok = False
            rep = bounded_exactness(n, filt, Q)
            if any(v != 0 for v in rep["homology"].values()):
                ok = False
            if rep["augmentation_cokernel"] != comb(filt + 2 * n, 2 * n):
                ok = False
    good = [[Q.parse("-1"), Q.parse("0")], [Q.parse("0"), Q.parse("-1")]]
    squeeze = [[Q.parse("2"), Q.parse("0")], [Q.parse("0"), Q.parse("1/2")]]
    if check_sp_equivariance(1, [good, squeeze], Q):
        ok = False
    try:
        check_sp_equivariance(1, [[[Q.parse("2"), Q.parse("0")],
                                   [Q.parse("0"), Q.parse("1")]]], Q)
        ok = False
    except NotSymplectic:
        pass
    _report(7, ok, "filtered resolution exact with the expected cokernel; "
                   "symplectic gate accepts -I and diag(2,1/2), rejects diag(2,1)")


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_negative_controls(tmp_path, capsys):
    results = {}

    def run(document_text, *argv, name):
        path = tmp_path / name
        path.write_text(document_text, encoding="utf-8")
        code = main([argv[0], str(path), *argv[1:]])
        return code, json.loads(capsys.readouterr().out)

    # (a) non-invariant potential
    code, report = run(doc(NEGATION_NONINVARIANT), "invariance", name="a.json")
    check = next(c for c in report["checks"] if "fixed" in c["check"])
    located = any(e["g"] == "g" and not e["invariant"] for e in check["elements"])
    results["a"] = code == 1 and located

    # (b) perturbed reduced potential
    code, report = run(doc(MCKAY), "transport", name="b0.json")
    terms = report["reduced_potential"]
    terms[0] = dict(terms[0], coeff="3" if terms[0]["coeff"] != "3" else "5")
    code, report = run(doc(MCKAY, reduced_potential=terms),
                       "verify", "--max-len", "2", name="b.json")
    check = next(c for c in report["checks"] if "represents the original" in c["check"])
    results["b"] = code == 1 and check["ok"] is False

    # (c) non-symplectic matrix
    mats = tmp_path / "mats.json"
    mats.write_text(json.dumps({"matrices": [[["2", "0"], ["0", "1"]]]}),
                    encoding="utf-8")
    code = main(["weyl", "--n", "1", "--filtration", "1", "--matrices", str(mats)])
    report = json.loads(capsys.readouterr().out)
    results["c"] = code == 1 and report["matrix_index"] == 0

    # (d) corrupted differential
    bad = doc(THREE_LOOPS_COMMUTATOR,
              differential_override={"x*": [{"coeff": "1", "path": ["y", "z"]}]})
    code, report = run(bad, "ginzburg", "--check", name="d.json")
    square = next(c for c in report["checks"] if c["check"].startswith("differential squares"))
    results["d"] = (code == 1 and square["ok"] is False
                    and any(v["generator"] == "c_1" for v in square["violations"]))

    _report(8, all(results.values()),
            f"negative controls all exit 1 with located diagnostics ({results})")
