import contextlib
import copy
import hashlib
import io
import json
import operator
import os
import random
import subprocess
import sys
import tempfile
from functools import reduce
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from skewgin.cli import main

from docs import (MCKAY, MCKAY_NON_MONOMIAL, MINIMAL, NEGATION_NONINVARIANT, SIGNED_S3,
                  SIGNED_S3_SHEARED, THREE_LOOPS_COMMUTATOR, TRIVIAL_GROUP_PIPELINE, doc)


def run_cli(capsys, tmp_path, document_text, *argv_tail, name="doc.json"):
    path = tmp_path / name
    path.write_text(document_text, encoding="utf-8")
    code = main([argv_tail[0], str(path), *argv_tail[1:]])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_validate_minimal(capsys, tmp_path):
    code, report = run_cli(capsys, tmp_path, doc(MINIMAL), "validate")
    assert code == 0
    assert report["ok"] is True
    assert report["version"]


def test_validate_bad_field_exit_2(capsys, tmp_path):
    code, report = run_cli(capsys, tmp_path, doc(MINIMAL, field={"p": 6}), "validate")
    assert code == 2
    assert report["ok"] is False
    assert report["errors"][0]["location"] == "/field"


def test_validate_unknown_arrow_exit_2(capsys, tmp_path):
    bad = doc(THREE_LOOPS_COMMUTATOR,
              potential=[{"coeff": "1", "cycle": ["q"]}])
    code, report = run_cli(capsys, tmp_path, bad, "validate")
    assert code == 2
    assert any(e["location"] == "/potential/0/cycle/0" for e in report["errors"])


@pytest.mark.parametrize("command", ["validate", "ginzburg"])
def test_arrow_names_of_the_doubled_quiver_exit_2(capsys, tmp_path, command):
    # "y*" and "c_v" are the names doubling gives the dual of y and the
    # loop at v; an arrow already called so would be a duplicate there
    arrows = copy.deepcopy(MCKAY["quiver"]["arrows"])
    arrows[0]["name"], arrows[2]["name"] = "c_v", "y*"
    potential = [{"coeff": "1", "cycle": ["c_v", "y", "y*"]}]
    bad = doc(MCKAY, quiver={"vertices": ["v"], "arrows": arrows}, potential=potential)
    code, report = run_cli(capsys, tmp_path, bad, command)
    assert code == 2
    assert report["errors"] == [
        {"location": "/quiver/arrows/0/name",
         "message": "'c_v' is the loop at vertex 'v' in the doubled quiver"},
        {"location": "/quiver/arrows/2/name",
         "message": "'y*' is the dual of arrow 'y' in the doubled quiver"}]


@pytest.mark.parametrize("changes, location", [
    ({"potential": [{"coeff": "1", "cycle": [["x"], "y", "z"]}]}, "/potential/0/cycle/0"),
    ({"group": {"elements": ["e", "g", "g2"], "table": None}}, "/group/table"),
    ({"group": {"elements": ["e", "g", "g2"], "table": [[0, 1, 2], 5, [2, 0, 1]]}},
     "/group/table"),
    ({"quiver": dict(MCKAY["quiver"], vertices=["v", "v"])}, "/quiver/vertices"),
    ({"group": dict(MCKAY["group"], elements=["e", "g", "g"])}, "/group/elements"),
    # true and false are JSON booleans, not the integers 1 and 0
    ({"options": {"max_len": True}}, "/options/max_len"),
    ({"quiver": dict(MCKAY["quiver"], arrows=[dict(MCKAY["quiver"]["arrows"][0], deg=False),
                                              *MCKAY["quiver"]["arrows"][1:]])},
     "/quiver/arrows/0/deg"),
    ({"group": dict(MCKAY["group"], table=[[0, True, 2], [1, 2, 0], [2, 0, 1]])},
     "/group/table"),
    ({"group": dict(MCKAY["group"], idempotents={"vectors": [["1", "0", "0"]] * 3,
                                                 "dims": [True, 1, 1]})},
     "/group/idempotents/dims"),
    # a string is not read as the list of its characters
    ({"reduced_potential": [{"coeff": "1", "cycle": "m0"}]}, "/reduced_potential/0/cycle"),
    ({"reduced_potential": [{"coeff": "1", "cycle": []}]}, "/reduced_potential/0/cycle"),
    ({"reduced_potential": [{"coeff": "1", "cycle": ["m0", 1]}]},
     "/reduced_potential/0/cycle/1"),
    ({"reduced_potential": [{"coeff": 1, "cycle": ["m0"]}]}, "/reduced_potential/0/coeff"),
    ({"reduced_potential": [{"coeff": "1/0", "cycle": ["m0"]}]}, "/reduced_potential/0/coeff"),
    ({"reduced_potential": [{"coeff": "x", "cycle": ["m0"]}]}, "/reduced_potential/0/coeff"),
    # a scalar of Q, but 7 is 0 in the document's field GF(7)
    ({"reduced_potential": [{"coeff": "1/7", "cycle": ["m0"]}]}, "/reduced_potential/0/coeff"),
    ({"reduced_potential": [3]}, "/reduced_potential/0"),
    ({"reduced_potential": {"cycle": ["m0"]}}, "/reduced_potential"),
    ({"differential_override": {"x*": [{"coeff": "1", "path": "yz"}]}},
     "/differential_override/x*/0/path"),
    ({"differential_override": {"x*": [{"coeff": "1", "path": [["y"], "z"]}]}},
     "/differential_override/x*/0/path/0"),
    ({"differential_override": {"x*": [{"coeff": 1, "path": ["y", "z"]}]}},
     "/differential_override/x*/0/coeff"),
    ({"differential_override": {"x*": [{"coeff": "1/0", "path": ["y", "z"]}]}},
     "/differential_override/x*/0/coeff"),
    ({"differential_override": {"x*": [{"coeff": "x", "path": ["y", "z"]}]}},
     "/differential_override/x*/0/coeff"),
    ({"differential_override": {"x*": [3]}}, "/differential_override/x*/0"),
    ({"differential_override": {"x*": "yz"}}, "/differential_override/x*"),
    # the potential has degree 0, and d = 4 asks for 3 - d = -1
    ({"d": 4}, "/d"),
], ids=["cycle-entry", "table", "table-row", "duplicate-vertex", "duplicate-element",
        "max-len-bool", "deg-bool", "table-bool", "dims-bool",
        "reduced-cycle-string", "reduced-cycle-empty", "reduced-cycle-entry",
        "reduced-coeff-int", "reduced-coeff-zero-den", "reduced-coeff-word", "reduced-coeff-mod-p",
        "reduced-term-int", "reduced-not-list",
        "override-path-string", "override-path-entry", "override-coeff-int",
        "override-coeff-zero-den", "override-coeff-word", "override-term-int",
        "override-not-list", "potential-degree-off-d"])
def test_document_values_of_the_wrong_type_exit_2(capsys, tmp_path, changes, location):
    code, report = run_cli(capsys, tmp_path, doc(MCKAY, **changes), "validate")
    assert code == 2
    assert location in [e["location"] for e in report["errors"]]


# two vertices with one arrow each way under Z/2
TWO_VERTICES = {"field": "Q", "quiver": {"vertices": ["1", "2"], "arrows": [
    {"name": "a", "src": "1", "tgt": "2"}, {"name": "b", "src": "2", "tgt": "1"}]},
    "group": {"elements": ["e", "g"], "table": [[0, 1], [1, 0]]}}


@pytest.mark.parametrize("text, errors", [
    ("[]", [("/", "the document must be a JSON object")]),
    (json.dumps({"quiver": MINIMAL["quiver"]}), [("/field", "missing")]),
    (json.dumps({"field": "Q"}), [("/quiver", "missing or not an object")]),
    (doc(MINIMAL, quiver={"vertices": ["1"], "arrows": {}}),
     [("/quiver/arrows", "expected a list")]),
    (doc(MINIMAL, quiver={"vertices": ["1"], "arrows": [5]}),
     [("/quiver/arrows/0", "expected an object")]),
    (doc(MINIMAL, quiver={"vertices": ["1"], "arrows": [{"name": "a", "src": "2", "tgt": "3"}]}),
     [("/quiver/arrows/0/src", "unknown vertex '2'"), ("/quiver/arrows/0/tgt", "unknown vertex '3'")]),
    (doc(MINIMAL, quiver={"vertices": ["1"], "arrows": [{"name": "", "src": "1", "tgt": "1"}]}),
     [("/quiver/arrows/0/name", "expected a nonempty string")]),
    (doc(MINIMAL, quiver={"vertices": ["1"], "arrows": [{"name": "x", "src": "1", "tgt": "1"},
                                                        {"name": "x", "src": "1", "tgt": "1"}]}),
     [("/quiver/arrows/1/name", "duplicate arrow name 'x'")]),
    (doc(MINIMAL, group=[]), [("/group", "expected an object")]),
    (doc(MINIMAL, field={"p": 3}, group=MCKAY["group"]),
     [("/group", "the field characteristic 3 divides the group order 3")]),
    (doc(MINIMAL, differential_override=[]),
     [("/differential_override", "expected an object keyed by generators")]),
    (doc(MCKAY, group=dict(MCKAY["group"], idempotents=[])),
     [("/group/idempotents", "expected an object with vectors and dims")]),
    (doc(MCKAY, action=[]), [("/action", "expected an object keyed by group elements")]),
    (doc(MINIMAL, options=[]), [("/options", "expected an object")]),
    (doc(MCKAY, action={"h": {}}), [("/action/h", "unknown group element 'h'")]),
    (doc(MCKAY, action={"g": 5}), [("/action/g", "expected an object")]),
    (doc(MCKAY, action={"g": {"vertex_perm": []}}), [("/action/g/vertex_perm", "expected an object")]),
    (doc(MCKAY, action={"g": {"arrow_matrices": []}}),
     [("/action/g/arrow_matrices", "expected an object")]),
    (doc(MCKAY, action={"g": {"vertex_perm": {"w": "v"}}}),
     [("/action/g/vertex_perm", "unknown vertex in 'w': 'v'")]),
    (doc(TWO_VERTICES, action={"g": {"vertex_perm": {"1": "2"}}}),
     [("/action/g/vertex_perm", "not a permutation")]),
    (doc(MCKAY, action={"g": {"arrow_matrices": {"v,v": [["1"]]}}}),
     [("/action/g/arrow_matrices/v,v", "expected a key of the form (src,tgt)")]),
    (doc(TWO_VERTICES, action={"g": {"arrow_matrices": {"(1,1)": [["1"]]}}}),
     [("/action/g/arrow_matrices/(1,1)", "no arrows 1 -> 1")]),
    (doc(TWO_VERTICES, action={"g": {"vertex_perm": {"1": "2", "2": "1"}}}),
     [("/action/g/arrow_matrices", "missing matrix for block (1,2)"),
      ("/action/g/arrow_matrices", "missing matrix for block (2,1)")]),
    (doc(MCKAY, action={}), [("/action", "elements not generated by the given maps: ['g', 'g2']")]),
    (doc(MINIMAL, group={"elements": ["e", "g", "h"], "table": [[0, 1, 2], [0, 1, 2], [1, 2, 0]]}),
     [("/group/table", "column 0 repeats an entry")]),
], ids=["not-an-object", "no-field", "no-quiver", "arrows-not-a-list", "arrow-not-an-object",
        "arrow-unknown-ends", "arrow-name-empty", "arrow-name-duplicate", "group-not-an-object",
        "char-divides-order",
        "override-not-an-object", "idempotents-not-an-object", "action-not-an-object",
        "options-not-an-object", "unknown-element",
        "entry-not-an-object", "perm-not-an-object", "matrices-not-an-object",
        "perm-unknown-vertex", "perm-not-a-permutation", "bad-block-key", "block-without-arrows",
        "moved-block-without-matrix", "not-generated", "column-repeats"])
def test_document_refusals_name_location_and_message(capsys, tmp_path, text, errors):
    code, report = run_cli(capsys, tmp_path, text, "validate")
    assert code == 2
    assert [(e["location"], e["message"]) for e in report["errors"]] == errors


def test_an_unlisted_fixed_block_gets_the_identity(capsys, tmp_path):
    # g lists the block of the loop x only; the loop y at the fixed vertex 2
    # keeps its arrow
    two_loops = {"vertices": ["1", "2"], "arrows": [{"name": "x", "src": "1", "tgt": "1"},
                                                    {"name": "y", "src": "2", "tgt": "2"}]}
    text = doc(TWO_VERTICES, quiver=two_loops,
               action={"g": {"arrow_matrices": {"(1,1)": [["-1"]]}}})
    code, report = run_cli(capsys, tmp_path, text, "validate")
    assert code == 0
    assert report["checks"] == [{"check": "action is a valid group action", "ok": True,
                                 "failures": []}]


DOCUMENT_COMMANDS = ["validate", "ginzburg", "invariance", "reduce", "transport", "verify"]


@pytest.mark.parametrize("command", DOCUMENT_COMMANDS)
def test_override_terms_of_the_wrong_shape_exit_2_in_every_command(capsys, tmp_path, command):
    # "yz" once read as the path y.z, and "m0" as the arrows m and 0
    bad = doc(MCKAY, differential_override={"x*": [{"coeff": "1", "path": "yz"}]},
              reduced_potential=[{"coeff": "1", "cycle": "m0"}, 3])
    code, report = run_cli(capsys, tmp_path, bad, command)
    assert code == 2
    assert [e["location"] for e in report["errors"]] == [
        "/differential_override/x*/0/path", "/reduced_potential/0/cycle",
        "/reduced_potential/1"]


@pytest.mark.parametrize("command", DOCUMENT_COMMANDS)
def test_term_coeffs_are_parsed_in_every_command(capsys, tmp_path, command):
    # the coeffs of override and reduced-potential terms are refused as a
    # potential coeff is, before any command runs
    bad = doc(MCKAY, potential=[{"coeff": "1/0", "cycle": ["x", "y", "z"]}],
              differential_override={"x*": [{"coeff": "1/0", "path": ["y", "z"]}]},
              reduced_potential=[{"coeff": "1", "cycle": ["m0"]}, {"coeff": "1/0", "cycle": ["m0"]}])
    code, report = run_cli(capsys, tmp_path, bad, command)
    assert code == 2
    assert report["errors"] == [
        {"location": where, "message": "'1/0' is not a scalar of GF(7) (inverse of zero)"}
        for where in ["/potential/0/coeff", "/differential_override/x*/0/coeff",
                      "/reduced_potential/1/coeff"]]


TWO_CYCLE = {
    "field": "Q",
    "quiver": {"vertices": ["1", "2"], "arrows": [
        {"name": "a", "src": "1", "tgt": "2", "deg": 0},
        {"name": "b", "src": "2", "tgt": "1", "deg": 0},
    ]},
    "potential": [{"coeff": "1", "cycle": ["a", "b"]}],
    "d": 3,
}


# a* runs 2 -> 1 and c_1 is a loop at 1, so a term of d(a*) must run 2 -> 1
# and one of d(c_1) 1 -> 1: the paths a (1 -> 2), b a b a (2 -> 2) and b
# (2 -> 1) in the wrong place are refused by parse, the doubled quiver being
# known from the quiver, and so by validate and by every command alike; so
# are an unknown generator, an unknown arrow and b b, whose ends are those of
# a* but whose arrows do not compose
@pytest.mark.parametrize("override, location", [
    ({"a*": [{"coeff": "1", "path": ["a"]}, {"coeff": "1", "path": ["b"]}]},
     "/differential_override/a*/0/path"),
    ({"a*": [{"coeff": "1", "path": ["b"]}, {"coeff": "2", "path": ["b", "a", "b", "a"]}]},
     "/differential_override/a*/1/path"),
    ({"c_1": [{"coeff": "1", "path": ["b"]}]}, "/differential_override/c_1/0/path"),
    ({"q*": [{"coeff": "1", "path": ["a"]}]}, "/differential_override/q*"),
    ({"a*": [{"coeff": "1", "path": ["b", "q"]}]}, "/differential_override/a*/0/path/1"),
    ({"a*": [{"coeff": "1", "path": ["b", "b"]}]}, "/differential_override/a*/0/path"),
], ids=["first-term", "second-term", "loop", "unknown-generator", "unknown-arrow",
        "not-composable"])
@pytest.mark.parametrize("argv", [["ginzburg"], ["ginzburg", "--check"], ["validate"],
                                  ["invariance"], ["reduce"], ["transport"], ["verify"]])
def test_override_term_off_its_generator_exit_2(capsys, tmp_path, override, location, argv):
    code, report = run_cli(capsys, tmp_path, doc(TWO_CYCLE, differential_override=override),
                           *argv)
    assert code == 2
    assert [e["location"] for e in report["errors"]] == [location]


def test_ginzburg_check_passes(capsys, tmp_path):
    code, report = run_cli(capsys, tmp_path, doc(THREE_LOOPS_COMMUTATOR),
                           "ginzburg", "--check")
    assert code == 0
    names = {g["name"] for g in report["generators"]}
    assert names == {"x", "y", "z", "x*", "y*", "z*", "c_1"}
    degs = {g["name"]: g["deg"] for g in report["generators"]}
    assert degs["x*"] == -1 and degs["c_1"] == -2


def test_ginzburg_corrupted_differential_exit_1(capsys, tmp_path):
    bad = doc(THREE_LOOPS_COMMUTATOR,
              differential_override={"x*": [{"coeff": "1", "path": ["y", "z"]}]})
    code, report = run_cli(capsys, tmp_path, bad, "ginzburg", "--check")
    assert code == 1
    square = next(c for c in report["checks"]
                  if c["check"].startswith("differential squares"))
    assert square["ok"] is False
    assert any(v["generator"] == "c_1" for v in square["violations"])


@pytest.mark.parametrize("paths, got", [([["x", "y"]], 0), ([["x", "y"], ["x", "x*"]], None)],
                         ids=["wrong-degree", "two-degrees"])
def test_ginzburg_override_off_its_degree_exit_1(capsys, tmp_path, paths, got):
    # d(c_1) must have degree -1: a term of degree 0 is reported with its
    # degree, terms of degrees 0 and -1 with none
    bad = doc(THREE_LOOPS_COMMUTATOR,
              differential_override={"c_1": [{"coeff": "1", "path": p} for p in paths]})
    code, report = run_cli(capsys, tmp_path, bad, "ginzburg", "--check")
    assert code == 1
    degree = next(c for c in report["checks"] if c["check"] == "differential raises degree by one")
    assert degree["ok"] is False
    assert degree["violations"] == [{"generator": "c_1", "expected": -1, "got": got}]


def test_ginzburg_determinism(capsys, tmp_path):
    text = doc(MCKAY)
    code1, r1 = run_cli(capsys, tmp_path, text, "ginzburg", "--check", name="a.json")
    code2, r2 = run_cli(capsys, tmp_path, text, "ginzburg", "--check", name="b.json")
    assert code1 == code2 == 0
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_invariance_pass(capsys, tmp_path):
    code, report = run_cli(capsys, tmp_path, doc(MCKAY), "invariance")
    assert code == 0


def test_invariance_failure_exit_1(capsys, tmp_path):
    code, report = run_cli(capsys, tmp_path, doc(NEGATION_NONINVARIANT), "invariance")
    assert code == 1
    check = next(c for c in report["checks"] if "fixed" in c["check"])
    assert check["ok"] is False
    assert any(not e["invariant"] and e["g"] == "g" for e in check["elements"])


def test_transport_of_a_noninvariant_potential_exit_1(capsys, tmp_path):
    code, report = run_cli(capsys, tmp_path, doc(NEGATION_NONINVARIANT), "transport")
    assert code == 1
    assert report["failure"] == "the potential is not fixed by the group action"


def test_transport_refusals_exit_2_at_the_root(capsys, tmp_path):
    # transport moves one cycle length of untwisted (degree 0) arrows
    mixed = doc(TRIVIAL_GROUP_PIPELINE, potential=[
        *TRIVIAL_GROUP_PIPELINE["potential"],
        {"coeff": "1", "cycle": ["x", "y", "z", "x", "y", "z"]}])
    arrows = [dict(a, deg=-1) for a in TRIVIAL_GROUP_PIPELINE["quiver"]["arrows"]]
    graded = doc(TRIVIAL_GROUP_PIPELINE, d=6, quiver={"vertices": ["1"], "arrows": arrows})
    for text, message in ((mixed, "potential transport requires one cycle length"),
                          (graded, "potential transport requires all arrow degrees 0")):
        code, report = run_cli(capsys, tmp_path, text, "transport")
        assert code == 2
        assert report["errors"] == [{"location": "/", "message": message}]


def test_reduce_names_each_failed_idempotent_rule(capsys, tmp_path):
    vectors = SIGNED_S3["group"]["idempotents"]["vectors"]
    prefix = "idempotent set for v failed validation: "
    for changed, message in (
            ([["1/3"] * 6, *vectors[1:]], "element 0 is not idempotent"),
            ([vectors[0], vectors[0], vectors[2]],
             "elements 0 and 1 are not orthogonal; elements 1 and 0 are not orthogonal; "
             "elements 0 and 1 select isomorphic summands; "
             "elements 1 and 0 select isomorphic summands")):
        group = copy.deepcopy(SIGNED_S3["group"])
        group["idempotents"]["vectors"] = changed
        code, report = run_cli(capsys, tmp_path, doc(SIGNED_S3, group=group), "reduce")
        assert code == 2
        assert report["errors"] == [{"location": "/", "message": prefix + message}]


def test_ginzburg_check_without_a_potential(capsys, tmp_path):
    text = doc({k: v for k, v in MCKAY.items() if k != "potential"})
    code, report = run_cli(capsys, tmp_path, text, "ginzburg", "--check")
    assert code == 0
    assert report["ok"] is True


def test_validate_nonprime_modulus_exit_2_at_field(capsys, tmp_path):
    code, report = run_cli(capsys, tmp_path, doc(MINIMAL, field={"p": 4}), "validate")
    assert code == 2
    assert report["errors"] == [{"location": "/field", "message": "modulus 4 is not prime"}]


def test_a_modulus_near_10_18_is_read_by_both_readers(capsys, tmp_path):
    # a prime of 19 digits is tested by Miller-Rabin at once
    p = 10 ** 18 + 3
    code, report = run_cli(capsys, tmp_path, doc(MINIMAL, field={"p": p}), "validate")
    assert code == 0 and report["ok"] is True
    assert main(["weyl", "--n", "1", "--filtration", "0", "--field", str(p)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_a_modulus_past_the_bound_is_refused_at_field_by_both_readers(capsys, tmp_path):
    refusal = [{"location": "/field", "message": "expected a modulus of at most 10" + "0" * 22}]
    p = 10 ** 23 + 117
    code, report = run_cli(capsys, tmp_path, doc(MINIMAL, field={"p": p}), "validate")
    assert code == 2 and report["errors"] == refusal
    assert main(["weyl", "--n", "1", "--field", str(p)]) == 2
    assert json.loads(capsys.readouterr().out)["errors"] == refusal


@pytest.mark.parametrize("value", ["1_000_003", "\u0667", " 7 ", "+7"],
                         ids=["underscores", "arabic-indic-seven", "spaces", "plus-sign"])
def test_weyl_field_takes_ascii_decimal_digits_only(capsys, value):
    # int() reads each of these as a prime; the field is Q or ASCII digits
    assert main(["weyl", "--n", "1", "--filtration", "0", "--field", value]) == 2
    assert json.loads(capsys.readouterr().out)["errors"] == [
        {"location": "/field", "message": f"expected Q or a prime, got {value!r}"}]


@pytest.mark.parametrize("spec", [True, {"p": True}], ids=["bare", "p"])
def test_a_bool_field_is_refused_as_unrecognised(capsys, tmp_path, spec):
    code, report = run_cli(capsys, tmp_path, doc(MINIMAL, field=spec), "validate")
    assert code == 2
    assert report["errors"] == [{"location": "/field", "message": "unrecognised field spec True"}]


def test_mckay_over_a_ten_digit_prime_reduces(capsys, tmp_path):
    # the characters need a primitive cube root of unity mod p, found by
    # powers rather than a search through every residue
    p, w = 1_000_000_009, "115381398"
    scaling = {"g": {"arrow_matrices": {"(v,v)": [[w, "0", "0"], ["0", w, "0"], ["0", "0", w]]}}}
    code, report = run_cli(capsys, tmp_path, doc(MCKAY, field={"p": p}, action=scaling), "reduce")
    assert code == 0
    assert report["choices"]["irreducible_dims"] == {"v": [1, 1, 1]}


def test_reduce_trivial_group(capsys, tmp_path):
    code, report = run_cli(capsys, tmp_path, doc(TRIVIAL_GROUP_PIPELINE), "reduce")
    assert code == 0
    rq = report["reduced_quiver"]
    assert len(rq["vertices"]) == 1
    assert len(rq["arrows"]) == 3
    assert report["choices"]["orbit_representatives"] == ["1"]


def test_reduce_mckay(capsys, tmp_path):
    code, report = run_cli(capsys, tmp_path, doc(MCKAY), "reduce")
    assert code == 0
    rq = report["reduced_quiver"]
    assert len(rq["vertices"]) == 3
    assert len(rq["arrows"]) == 9


def test_transport_mckay(capsys, tmp_path):
    code, report = run_cli(capsys, tmp_path, doc(MCKAY), "transport")
    assert code == 0
    assert len(report["reduced_potential"]) == 6


def test_verify_mckay(capsys, tmp_path):
    code, report = run_cli(capsys, tmp_path, doc(MCKAY), "verify", "--max-len", "3")
    assert code == 0
    table = next(c for c in report["checks"] if "corner dimensions" in c["check"])
    assert [row["corner"] for row in table["table"]] == [3, 9, 18, 30]


def test_verify_enumerates_the_paths_of_each_quiver_once(capsys, tmp_path, monkeypatch):
    # every stage reads the path layers cached on the original and the
    # reduced quiver, so each is enumerated once up to the bound; only the
    # arrow bimodule, built before the bound is known, asks for length 1
    import skewgin.quiver as quiver_module
    calls = []
    enumerate_paths = quiver_module.basis_up_to
    monkeypatch.setattr(quiver_module, "basis_up_to",
                        lambda q, bound: calls.append((q, bound)) or enumerate_paths(q, bound))
    code, _ = run_cli(capsys, tmp_path, doc(MCKAY), "verify", "--max-len", "6")
    assert code == 0
    (original, one), (reduced, six), (again, six_again) = calls
    assert again is original and reduced is not original
    assert (one, six, six_again) == (1, 6, 6)


def test_verify_perturbed_reduced_potential_exit_1(capsys, tmp_path):
    base_code, base_report = run_cli(capsys, tmp_path, doc(MCKAY), "transport")
    assert base_code == 0
    terms = base_report["reduced_potential"]
    # corrupt one coefficient
    terms[0] = dict(terms[0])
    terms[0]["coeff"] = "3" if terms[0]["coeff"] != "3" else "5"
    bad = doc(MCKAY, reduced_potential=terms)
    code, report = run_cli(capsys, tmp_path, bad, "verify", "--max-len", "2")
    assert code == 1
    check = next(c for c in report["checks"] if "represents the original" in c["check"])
    assert check["ok"] is False


# verify --max-len 3 with transport's reduced potential supplied back as the
# document's reduced_potential: certify_reduction finds a certificate of
# this many commutators (none on the trivial group, where the difference
# is zero) and writes these report bytes, as the certificate built from
# ((u, v), coefficient) entries wrote them
@pytest.mark.parametrize("document, used, digest", [
    (MCKAY, 12, "32b1d6d1acbe3f33713a35ee683ca168f4157ed60081f262454c828ad9b1c9e3"),
    (MCKAY_NON_MONOMIAL, 16, "bf3bbb56783cb0052a3c91924975b33bec81ff85c92560c8f7696c1495b7ce94"),
    (SIGNED_S3, 125, "b0974a918bf3226f19920016af6bac99fc53789389e2cfcec8edad9ea92bf666"),
    (SIGNED_S3_SHEARED, 136, "2e977481d2f19076e15a0b26ca2358d65bc320db5932f1515b4ee5fe5629d8c4"),
    (TRIVIAL_GROUP_PIPELINE, 0, "b4291fd13caaf49aecc75fde7c9b10f7602263d42bb0b6b8ad9678ebe2953add"),
], ids=["mckay", "non-monomial-mckay", "signed-s3", "sheared-signed-s3", "trivial-group"])
def test_verify_certifies_a_supplied_reduced_potential(capsys, tmp_path, document, used,
                                                       digest):
    code, report = run_cli(capsys, tmp_path, doc(document), "transport")
    assert code == 0
    path = tmp_path / "supplied.json"
    path.write_text(doc(document, reduced_potential=report["reduced_potential"]),
                    encoding="utf-8")
    assert main(["verify", str(path), "--max-len", "3"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["reduced_potential"]["source"] == "document override"
    check = next(c for c in report["checks"] if "represents the original" in c["check"])
    assert check["commutators_used"] == used
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# McKay reduces to m0-m2: v:0 -> v:2, m3-m5: v:1 -> v:0, m6-m8: v:2 -> v:1;
# those names exist only once the reduction is built, so validate accepts them
@pytest.mark.parametrize("cycle, location, message", [
    (["m0", "q"], "/reduced_potential/1/cycle/1", "unknown arrow 'q'"),
    (["m0", "m0"], "/reduced_potential/1/cycle", "arrows do not compose"),
    (["m0", "m6"], "/reduced_potential/1/cycle", "path is not closed"),
], ids=["unknown-arrow", "not-composable", "not-closed"])
def test_reduced_potential_names_are_resolved_by_verify(capsys, tmp_path, cycle, location,
                                                        message):
    bad = doc(MCKAY, reduced_potential=[{"cycle": ["m0", "m6", "m3"]}, {"cycle": cycle}])
    code, _ = run_cli(capsys, tmp_path, bad, "validate")
    assert code == 0
    code, report = run_cli(capsys, tmp_path, bad, "verify")
    assert code == 2
    assert report["errors"] == [{"location": location, "message": message}]


def test_verify_noninvariant_exit_1(capsys, tmp_path):
    code, report = run_cli(capsys, tmp_path, doc(NEGATION_NONINVARIANT), "verify")
    assert code == 1
    assert "failure" in report


def test_verify_signed_s3_with_supplied_idempotents(capsys, tmp_path):
    code, report = run_cli(capsys, tmp_path, doc(SIGNED_S3), "verify", "--max-len", "3")
    assert code == 0
    rq_code, rq_report = run_cli(capsys, tmp_path, doc(SIGNED_S3), "reduce",
                                 name="s3r.json")
    assert rq_code == 0
    assert len(rq_report["reduced_quiver"]["vertices"]) == 3
    assert len(rq_report["reduced_quiver"]["arrows"]) == 8
    assert rq_report["choices"]["irreducible_dims"]["v"] == [1, 1, 2]
    table = next(c for c in report["checks"] if "corner dimensions" in c["check"])
    assert [row["corner"] for row in table["table"]] == [3, 8, 16, 27]


# sha256 of the signed-S3 verify report at length 4, as the full
# (path, group element) corner loop of the dimension check wrote it; the
# bench goldens pin length 3 only
SIGNED_S3_VERIFY_4_SHA256 = "1f66ed537c54f2d372efb6348c6b98c4622c453ea12a17932e53a2dfcdcb0fb3"


def test_signed_s3_verify_length_4_report_bytes_are_pinned(capsys, tmp_path):
    path = tmp_path / "s3.json"
    path.write_text(doc(SIGNED_S3), encoding="utf-8")
    assert main(["verify", str(path), "--max-len", "4"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == SIGNED_S3_VERIFY_4_SHA256


# sha256 of the verify reports at length 4 whose pivot sets and embedded
# rows differ most from the bench documents, as the embedding check wrote
# them with every pair of total length at most 2 multiplied out and every
# (path, group element) key ranked
@pytest.mark.parametrize("document, digest", [
    (SIGNED_S3_SHEARED, "3939656d387eef460569ee4a9d6fce23ea57d5c5a52e52b944fa96177bb8536d"),
    (MCKAY_NON_MONOMIAL, "7cb446a58175ac2c4dde26e2fb235a52db1f9c07c03d1e05986dc336af0f537e"),
], ids=["sheared-signed-s3", "non-monomial-mckay"])
def test_verify_length_4_report_bytes_are_pinned(capsys, tmp_path, document, digest):
    path = tmp_path / "doc.json"
    path.write_text(doc(document), encoding="utf-8")
    assert main(["verify", str(path), "--max-len", "4"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == digest


def test_the_commands_hand_the_solver_kernel_ints_only(capsys, tmp_path, monkeypatch):
    # every caller clears its field scalars once (Field.scaled), so each
    # vector the solver is handed holds nonzero ints over Q and residues
    # in [1, p) over GF(p), on every path these commands take
    from skewgin.linalg import LinSolver
    seen = set()

    def checked(name, method):
        def wrapper(self, vec, *args, **kwargs):
            p = self.field.p
            assert all(type(c) is int and (0 < c < p if p else c) for c in vec.values()), (name, vec)
            seen.add(name)
            return method(self, vec, *args, **kwargs)
        return wrapper

    names = ("add", "contains", "span_test", "residual", "express")
    for name in names:
        monkeypatch.setattr(LinSolver, name, checked(name, getattr(LinSolver, name)))
    path = tmp_path / "doc.json"
    for document in (MCKAY, SIGNED_S3, SIGNED_S3_SHEARED):
        path.write_text(doc(document), encoding="utf-8")
        assert main(["validate", str(path)]) == 0
        assert main(["verify", str(path), "--max-len", "3"]) == 0
    matrices = tmp_path / "mats.json"
    matrices.write_text(json.dumps(WEYL_MATRICES[2, "symplectic"]), encoding="utf-8")
    assert main(["weyl", "--n", "2", "--filtration", "3", "--matrices", str(matrices)]) == 0
    capsys.readouterr()
    assert seen == set(names)


def test_weyl_command(capsys, tmp_path):
    matrices = tmp_path / "mats.json"
    matrices.write_text(json.dumps({"matrices": [
        [["-1", "0"], ["0", "-1"]],
        [["2", "0"], ["0", "1/2"]],
    ]}), encoding="utf-8")
    code = main(["weyl", "--n", "1", "--filtration", "2",
                 "--matrices", str(matrices)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["resolution"]["augmentation_cokernel"] == 6


def test_weyl_nonsymplectic_exit_1(capsys, tmp_path):
    matrices = tmp_path / "mats.json"
    matrices.write_text(json.dumps({"matrices": [[["2", "0"], ["0", "1"]]]}),
                        encoding="utf-8")
    code = main(["weyl", "--n", "1", "--filtration", "1",
                 "--matrices", str(matrices)])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["matrix_index"] == 0


def test_weyl_failed_closing_check_exits_1_with_one_report(capsys, monkeypatch):
    # with the product's arguments swapped the augmentation no longer
    # closes the resolution: a failed derived check, one report, exit 1
    from skewgin.weyl import WeylAlgebra
    product = WeylAlgebra._mul_monomials
    monkeypatch.setattr(WeylAlgebra, "_mul_monomials", lambda self, m1, m2: product(self, m2, m1))
    code = main(["weyl", "--n", "1", "--filtration", "2"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report == {"version": report["version"], "command": "weyl", "ok": False,
                      "failure": "the augmentation does not annihilate the image",
                      "matrix_index": None}


# matrix files for the pinned weyl reports: two symplectic matrices (a
# fraction among the entries, read as 4 over GF(7)), and a symplectic one
# followed by one that is not
WEYL_MATRICES = {
    (1, "symplectic"): [[["2", "1"], ["0", "1/2"]], [["0", "-1"], ["1", "0"]]],
    (1, "not-symplectic"): [[["0", "-1"], ["1", "0"]], [["2", "0"], ["0", "1"]]],
    (2, "symplectic"): [
        [["2", "0", "0", "0"], ["1", "1", "0", "0"], ["0", "0", "1/2", "-1/2"],
         ["0", "0", "0", "1"]],
        [["1", "0", "1", "0"], ["0", "1", "0", "-2"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]],
    (2, "not-symplectic"): [
        [["1", "0", "1", "0"], ["0", "1", "0", "-2"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "2"]]],
}

# sha256 of the weyl reports at filtrations 0-6, as the dict-keyed
# differentials and homology wrote them.  The report names no field, so Q
# and GF(7) print the same bytes; a matrix that is not symplectic gives the
# same short report at every n, field and filtration.
WEYL_SHA256 = {
    (1, None): [
        "234c0228472320e0b7cedb80da06fd68fb29b187fbc2f6fbc8dbface16fffdec",
        "ede0ecbe3a35d6c177c5fad172531f47ddef80970d5a8b13e8d998ddc61f02df",
        "67e3df661791f4fd8a350c43e0bb3ed705fb66fefa2f7b6cdf418c9ca213b419",
        "ae508732700c8184c0a131701c2cd2542eee251fd2f0ded4c60eb96340f14928",
        "4a84b186dcf36206b4eed316f879620ed6554774b97500a9d7a677291fff4bbb",
        "95a5a10431b36070a56757bf31f9e8e9da67c7cde596516a17ac83106648075e",
        "eaf8b8cee72dc92a25fe51b5120f7ab6447b8988f8c6efe2d201c7ce7b803d88",
    ],
    (1, "symplectic"): [
        "baa2b534fb1da5c94260945daa2f33c928532633f005a0718f5425d63a822003",
        "ac7693cf9c988f80174918e7f8d1c6004916ffa43632f6966dc7f3c4bd431b77",
        "55fc81c1df65433e6b57f0c467ea6a8b2f2c0eecf13862cc71cb10e440231242",
        "534346a9dab1387e9c40706b186ffe5567af05fd4078915b8be52088276a5e9d",
        "3dbe430b1013c19e99860da3bafb3ac45b1d0320fe5729099ab8dc8c105d8a89",
        "787169310fb3ecc0ba50bb5e721299eb8875a52a2fe348b1190a8d85e97f361a",
        "2b5c6259eee3e12c3d0d60284957667457bccdd1073b1adfa749271add3e048a",
    ],
    (2, None): [
        "ee07ade3f905550d2c1c009f7ec2a02f0ffbd16e6bf3553fd3411b8de536a85b",
        "faa8b1da7fcb6ed6efe062fa2e93bbe3b7eaae0e34c7811c8b31b64c66a2565e",
        "c672bcb9511aed7b740ec79018f9fa8b9c7334161d6179e467012bc4d9d71ae5",
        "26880577ba78c34721b2ce9a5b3a91eec8453c39290af4bb0f5060423d979ce6",
        "c52029924d4ad08dd0edb2162cebcc85c504380909a283ecc66e5c8a2fba2ec7",
        "081fc5afe571a2429a86f2270357b2edf2466fa0e806193eb32ec4d9e6f507f3",
        "040f1153e65cd16585cbf9ffa5bb3a80ffae6033b6c4ea9dbca9f8ec10f203bf",
    ],
    (2, "symplectic"): [
        "2f3161551ce8bba83b7903109f11adac07f4b8f83761bf03ef6034a68f053571",
        "30c4a9447e271e8e7e02702282ce7b46c1321a28d06fcc842082563aa96375b1",
        "3ed73f642299c2b11ae35cf69bb4ecf4b8d02928a009414653087f315d38c5e5",
        "559c04ae3faad42a7779a4077eebf80e83c050b5cd19191f641850fdb4ca8737",
        "1c2fb1fb223b1200a2985d02349c72419e8b6e33728686658283df4d4451c621",
        "e1526efc6282235137672add413d36966b5b56663b2928622186b8c2a964383e",
        "1591d5d4e6f2c638ca5b0da1acb3cde4d6caa89e82c8198d41ff78f6aa9776a2",
    ],
}
WEYL_NOT_SYMPLECTIC_SHA256 = "f03ebdf622e386271f26f5890671c90308028ebc11179cc3ceefa98c33f80bc5"


@pytest.mark.parametrize("matrices", [None, "symplectic", "not-symplectic"])
@pytest.mark.parametrize("field", ["Q", "7"])
@pytest.mark.parametrize("n", [1, 2])
def test_weyl_report_bytes_are_pinned(capsys, tmp_path, n, field, matrices):
    argv = ["weyl", "--n", str(n), "--field", field]
    if matrices is not None:
        path = tmp_path / "mats.json"
        path.write_text(json.dumps(WEYL_MATRICES[n, matrices]), encoding="utf-8")
        argv += ["--matrices", str(path)]
    for filtration in range(7):
        code = main([*argv, "--filtration", str(filtration)])
        out = capsys.readouterr().out.encode("utf-8")
        if matrices == "not-symplectic":
            assert (code, hashlib.sha256(out).hexdigest()) == (1, WEYL_NOT_SYMPLECTIC_SHA256)
        else:
            assert (code, hashlib.sha256(out).hexdigest()) == (
                0, WEYL_SHA256[n, matrices][filtration]), filtration


# sha256 of the weyl --n 3 reports at filtrations 0-4, the same bytes over
# Q and GF(7)
WEYL_N3_SHA256 = [
    "ee50cd93cd1b3fee60d65cb1d01f61abdadb80ec2768bd79e766d1c528bdf99b",
    "6f5d8022bcd325f16853f499822bb178b3ab07bd19e71ecd9c0427891b037a7b",
    "159f4aa6cb35a18c60b475829f290e12dab33f6d9b79811564ab9ebc5b30403d",
    "17e78a80eeb8a9134a4a07d2893d02edb58326b94333367a4060874a5f967280",
    "4ab2d506ac7db4549c1dc5559c19c312200f43860f7a3eef5638f3126657104f",
]


@pytest.mark.parametrize("field", ["Q", "7"])
def test_weyl_n3_report_bytes_are_pinned(capsys, field):
    # no rule names n: each n = 3 piece is exact, with cokernel C(F + 6, 6),
    # and its dual concentrates at the top
    for filtration, digest in enumerate(WEYL_N3_SHA256):
        code = main(["weyl", "--n", "3", "--field", field, "--filtration", str(filtration)])
        out = capsys.readouterr().out
        assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (0, digest), filtration
        report = json.loads(out)
        resolution = report["resolution"]
        assert set(resolution["homology"].values()) == {0}
        assert resolution["augmentation_cokernel"] == comb(filtration + 6, 6)
        assert all(check["ok"] for check in report["checks"])


def transvection(n, seed):
    """The symplectic transvection x -> x + c omega(v, x) v along a seeded
    vector v, with omega(u, w) = sum_i u_(n+i) w_i - u_i w_(n+i) the pairing
    the weyl check preserves, as scalar strings."""
    rng = random.Random(seed)
    v = [rng.randint(-2, 2) for _ in range(2 * n)]
    c = rng.choice([1, -1, 2])
    omega = [v[n + k] for k in range(n)] + [-v[k] for k in range(n)]  # omega(v, e_k)
    return [[str(int(i == k) + c * v[i] * omega[k]) for k in range(2 * n)]
            for i in range(2 * n)]


@pytest.mark.parametrize("field", ["Q", "7"])
def test_weyl_n3_transvection_is_equivariant(capsys, tmp_path, field):
    path = tmp_path / "mats.json"
    path.write_text(json.dumps([transvection(3, seed=1)]), encoding="utf-8")
    code = main(["weyl", "--n", "3", "--field", field, "--filtration", "2",
                 "--matrices", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["checks"][-1] == {
        "check": "matrices are symplectic and the differential is equivariant",
        "ok": True, "failures": []}


def test_ginzburg_degree_mismatch_exit_2(capsys, tmp_path):
    # a length-one degree-zero potential cannot be homogeneous of degree -1
    bad = doc(THREE_LOOPS_COMMUTATOR,
              potential=[{"coeff": "1", "cycle": ["x"]}], d=4)
    code, report = run_cli(capsys, tmp_path, bad, "ginzburg", "--check")
    assert code == 2
    assert report["ok"] is False


def test_ginzburg_d_below_3_exit_2(capsys, tmp_path):
    code, report = run_cli(capsys, tmp_path, doc(MINIMAL), "ginzburg", "--d", "2")
    assert code == 2
    assert report["ok"] is False
    assert report["errors"] == [{"location": "/d", "message": "expected an integer >= 3"}]


@pytest.mark.parametrize("d, code, errors", [
    ("4", 2, [{"location": "/d", "message": "potential degree 0 != 3 - d = -1"}]),
    ("3", 0, None),
])
def test_ginzburg_d_is_checked_against_the_potential(capsys, tmp_path, d, code, errors):
    # the McKay potential has degree 0, which fits --d 3 only
    got, report = run_cli(capsys, tmp_path, doc(MCKAY), "ginzburg", "--d", d)
    assert got == code
    assert report.get("errors") == errors


@pytest.mark.parametrize("command", ["ginzburg", "verify"])
def test_document_d_is_honoured(capsys, tmp_path, command):
    # the McKay potential has degree 0, which only fits d = 3; the document
    # is refused at its d before any command computes
    code, report = run_cli(capsys, tmp_path, doc(MCKAY, d=4), command)
    assert code == 2
    assert report["ok"] is False
    assert report["errors"] == [{"location": "/d",
                                 "message": "potential degree 0 != 3 - d = -1"}]


def test_weyl_input_errors_exit_2(capsys, tmp_path):
    assert main(["weyl", "--n", "1", "--field", "banana"]) == 2
    capsys.readouterr()
    assert main(["weyl", "--n", "1", "--field", "4"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["errors"] == [{"location": "/field",
                                 "message": "expected Q or a prime, got '4'"}]
    assert main(["weyl", "--n", "0"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    assert main(["weyl", "--n", "1", "--matrices", str(bad)]) == 2
    capsys.readouterr()
    shape = tmp_path / "shape.json"
    shape.write_text(json.dumps({"matrices": [[["1", "0"]]]}), encoding="utf-8")
    assert main(["weyl", "--n", "1", "--matrices", str(shape)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("content", [{"foo": 1}, {"matrices": 5}, "I"])
def test_weyl_malformed_matrix_file_exit_2_before_rank_work(capsys, tmp_path,
                                                            monkeypatch, content):
    def no_rank_work(*args, **kwargs):
        raise AssertionError("the matrix file is read before any rank work")

    monkeypatch.setattr("skewgin.weyl.bounded_exactness", no_rank_work)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content), encoding="utf-8")
    code = main(["weyl", "--n", "1", "--matrices", str(bad)])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert [e["location"] for e in report["errors"]] == ["/matrices"]


@pytest.mark.parametrize("name", ["missing.json", "."])
def test_weyl_unreadable_matrix_file_exit_2_at_matrices(capsys, tmp_path, name):
    code = main(["weyl", "--n", "1", "--matrices", str(tmp_path / name)])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert [e["location"] for e in report["errors"]] == ["/matrices"]


def test_weyl_bare_matrix_list(capsys, tmp_path):
    squeeze = [["2", "0"], ["0", "1/2"]]
    reports = []
    for name, content in (("bare.json", [squeeze]), ("keyed.json", {"matrices": [squeeze]})):
        path = tmp_path / name
        path.write_text(json.dumps(content), encoding="utf-8")
        assert main(["weyl", "--n", "1", "--filtration", "1", "--matrices", str(path)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("field, entry, reason", [
    ("7", "1/7", "'1/7' is not a scalar of GF(7) (inverse of zero)"),
    ("Q", "1/0", "'1/0' is not a scalar of Q"),
    ("Q", "one", "'one' is not a scalar of Q"),
    ("Q", 1, "expected a scalar string"),
    ("Q", ["1"], "expected a scalar string"),
    ("Q", "1e5", "'1e5' is not a scalar of Q (expected n or n/m)"),
    ("Q", "1e-100000", "'1e-100000' is not a scalar of Q (expected n or n/m)"),
    ("Q", "0.5", "'0.5' is not a scalar of Q (expected n or n/m)"),
    ("7", "1e5", "'1e5' is not a scalar of GF(7) (expected n or n/m)"),
])
def test_weyl_bad_matrix_entry_named_by_location(capsys, tmp_path, field, entry, reason):
    path = tmp_path / "mats.json"
    good = [["1", "0"], ["0", "1"]]
    path.write_text(json.dumps([good, [["1", "0"], ["0", entry]]]), encoding="utf-8")
    code = main(["weyl", "--n", "1", "--field", field, "--matrices", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    [error] = report["errors"]
    assert error["location"] == "/matrices/1/1/1"
    assert error["message"].startswith(reason)


def test_weyl_signed_fraction_entries(capsys, tmp_path):
    path = tmp_path / "mats.json"
    path.write_text(json.dumps([[["-3/4", "0"], ["0", "-4/3"]]]), encoding="utf-8")
    code = main(["weyl", "--n", "1", "--filtration", "1", "--matrices", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["checks"][-1]["ok"] is True


@pytest.mark.parametrize("text", ["1e5", "1e-100000", "0.5"])
@pytest.mark.parametrize("base, change, location", [
    (THREE_LOOPS_COMMUTATOR, lambda d, t: d["potential"][1].update(coeff=t),
     "/potential/1/coeff"),
    (MCKAY, lambda d, t: d["action"]["g"]["arrow_matrices"]["(v,v)"][0].__setitem__(0, t),
     "/action/g/arrow_matrices/(v,v)/0/0"),
    (SIGNED_S3, lambda d, t: d["group"]["idempotents"]["vectors"][2].__setitem__(1, t),
     "/group/idempotents/vectors/2/1"),
], ids=["potential", "action", "idempotents"])
def test_document_scalar_outside_grammar_exit_2(capsys, tmp_path, text, base, change, location):
    document = copy.deepcopy(base)
    change(document, text)
    code, report = run_cli(capsys, tmp_path, json.dumps(document), "validate")
    assert code == 2
    assert [e["location"] for e in report["errors"]] == [location]


S3_GF7 = dict(SIGNED_S3, field={"p": 7})
IDENTITY_2 = [["1", "0"], ["0", "1"]]

# every site of a scalar in an input, over GF(7): the input, the keys down to
# an entry, and the location of the input's root.  A document is run by
# every document command, a matrix list by weyl --n 1 --matrices.
SCALAR_SITES = {
    "action": (MCKAY, ("action", "g", "arrow_matrices", "(v,v)", 1, 2), ""),
    "idempotents": (S3_GF7, ("group", "idempotents", "vectors", 2, 1), ""),
    "coeff": (MCKAY, ("potential", 1, "coeff"), ""),
    "matrices": ([IDENTITY_2, IDENTITY_2], (1, 1, 1), "/matrices"),
}
# the same sites over Q
Q_SCALAR_SITES = {
    "action": (SIGNED_S3, ("action", "c", "arrow_matrices", "(v,v)", 1, 2), ""),
    "idempotents": (SIGNED_S3, ("group", "idempotents", "vectors", 2, 1), ""),
    "coeff": (SIGNED_S3, ("potential", 1, "coeff"), ""),
    "matrices": ([IDENTITY_2, IDENTITY_2], (1, 1, 1), "/matrices"),
}


def refusals(capsys, tmp_path, site, keys, value, field="7"):
    """The location of keys in the input of site over field ("7" or "Q"),
    and the (exit code, errors) of every run on that input with value put
    at keys."""
    base, _, root = (SCALAR_SITES if field == "7" else Q_SCALAR_SITES)[site]
    data = json.loads(json.dumps(base))  # a copy that shares no list
    *path, last = keys
    reduce(operator.getitem, path, data)[last] = value
    file = tmp_path / "input.json"
    file.write_text(json.dumps(data), encoding="utf-8")
    runs = ([["weyl", "--n", "1", "--field", field, "--matrices", str(file)]] if root
            else [[command, str(file)] for command in DOCUMENT_COMMANDS])
    out = []
    for argv in runs:
        code = main(argv)
        out.append((code, json.loads(capsys.readouterr().out).get("errors")))
    return root + "".join(f"/{key}" for key in keys), out


@pytest.mark.parametrize("value, message", [
    (1, "expected a scalar string, got 1"),
    ("1/0", "'1/0' is not a scalar of GF(7) (inverse of zero)"),
    ("1e5", "'1e5' is not a scalar of GF(7) (expected n or n/m)"),
    ("x", "'x' is not a scalar of GF(7) (expected n or n/m)"),
    ("1/7", "'1/7' is not a scalar of GF(7) (inverse of zero)"),
], ids=["int", "zero-den", "exponent", "word", "mod-p"])
@pytest.mark.parametrize("site", SCALAR_SITES)
def test_a_bad_scalar_is_refused_at_its_entry_by_every_run(capsys, tmp_path, site, value,
                                                           message):
    location, runs = refusals(capsys, tmp_path, site, SCALAR_SITES[site][1], value)
    assert runs == [(2, [{"location": location, "message": message}])] * len(runs)


@pytest.mark.parametrize("value, message", [
    (1, "expected a scalar string, got 1"),
    ("1/0", "'1/0' is not a scalar of Q (inverse of zero)"),
    ("1e5", "'1e5' is not a scalar of Q (expected n or n/m)"),
    ("x", "'x' is not a scalar of Q (expected n or n/m)"),
], ids=["int", "zero-den", "exponent", "word"])
@pytest.mark.parametrize("site", Q_SCALAR_SITES)
def test_a_bad_scalar_over_q_is_refused_at_its_entry_by_every_run(capsys, tmp_path, site, value,
                                                                  message):
    location, runs = refusals(capsys, tmp_path, site, Q_SCALAR_SITES[site][1], value, "Q")
    assert runs == [(2, [{"location": location, "message": message}])] * len(runs)


@pytest.mark.parametrize("row", [["1"], ["1"] * 7, "1"], ids=["short", "long", "string"])
@pytest.mark.parametrize("site", ["action", "idempotents", "matrices"])
def test_a_row_of_the_wrong_length_is_refused_at_its_index(capsys, tmp_path, site, row):
    base, keys, _ = SCALAR_SITES[site]
    entries = len(reduce(operator.getitem, keys[:-1], base))
    location, runs = refusals(capsys, tmp_path, site, keys[:-1], row)
    assert runs == [(2, [{"location": location,
                          "message": f"expected {entries} entries"}])] * len(runs)


@pytest.mark.parametrize("site, rows, location, message", [
    ("action", 2, "/action/g/arrow_matrices/(v,v)", "expected a 3x3 matrix"),
    ("idempotents", 0, "/group/idempotents/vectors", "expected a nonempty list of rows"),
    # the dims are checked against the rows read
    ("idempotents", 2, "/group/idempotents/dims", "expected one positive integer per vector"),
    ("matrices", 1, "/matrices/1", "expected a 2x2 matrix"),
], ids=["action", "idempotents-none", "idempotents-dims", "matrices"])
def test_a_matrix_of_the_wrong_row_count_is_refused_at_the_matrix(capsys, tmp_path, site, rows,
                                                                  location, message):
    base, keys, _ = SCALAR_SITES[site]
    matrix = reduce(operator.getitem, keys[:-2], base)
    _, runs = refusals(capsys, tmp_path, site, keys[:-2], matrix[:rows])
    assert runs == [(2, [{"location": location, "message": message}])] * len(runs)


def test_weyl_matrix_of_wrong_shape_named_by_index(capsys, tmp_path):
    path = tmp_path / "mats.json"
    path.write_text(json.dumps({"matrices": [[["1", "0"], ["0", "1"]], [["1", "0"]], "I"]}),
                    encoding="utf-8")
    code = main(["weyl", "--n", "1", "--matrices", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["errors"] == [
        {"location": "/matrices/1", "message": "expected a 2x2 matrix"},
        {"location": "/matrices/2", "message": "expected a 2x2 matrix"}]


def test_weyl_size_guard_before_any_basis(capsys, monkeypatch):
    # the filtration-20 piece has 26,423,826 basis elements; the closed-form
    # count refuses it without building one of them, or any code table
    def no_basis(*args, **kwargs):
        raise AssertionError("the cap is checked before any basis is built")

    monkeypatch.setattr("skewgin.weyl._Chains", no_basis)
    code = main(["weyl", "--n", "2", "--filtration", "20"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["errors"] == [{"location": "/", "message":
                                 "truncated complex has dimension 26423826 > cap 200000"}]


def test_weyl_wedge_tables_over_the_cap_refused_before_any_table(capsys, monkeypatch):
    # n = 7 at filtration 0 has a one-code complex, but 4^7 wedges with 14
    # moves each: 229,376 > 200,000, refused before _Chains tabulates them
    def no_table(*args, **kwargs):
        raise AssertionError("the cap is checked before any table is built")

    monkeypatch.setattr("skewgin.weyl._Chains", no_table)
    code = main(["weyl", "--n", "7", "--filtration", "0"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["errors"] == [{"location": "/", "message":
                                 "wedge tables have 229376 moves > cap 200000"}]


def test_weyl_matrix_over_the_cap_refused_at_its_index_before_rank_work(capsys, tmp_path,
                                                                       monkeypatch):
    # the wedge action enumerates, over all wedges, the product over columns
    # of 1 + nonzeros: 11^10 for a dense 10 x 10 matrix, refused at its
    # index before the resolution is eliminated; at n = 1 the dense 2 x 2
    # matrix counts 9, so cap 8 refuses it and cap 9 lets it on to the
    # symplectic check it fails
    def no_rank_work(*args, **kwargs):
        raise AssertionError("the matrices are counted before any rank work")

    monkeypatch.setattr("skewgin.weyl.bounded_exactness", no_rank_work)
    path = tmp_path / "mats.json"
    identity = [[str(int(i == k)) for k in range(10)] for i in range(10)]
    path.write_text(json.dumps([identity, [["1"] * 10] * 10]), encoding="utf-8")
    code = main(["weyl", "--n", "5", "--filtration", "0", "--matrices", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["errors"] == [{"location": "/matrices/1", "message":
                                 "wedge action has 25937424601 terms > cap 200000"}]
    monkeypatch.undo()
    path.write_text(json.dumps([[["1", "0"], ["0", "1"]], [["1", "1"], ["1", "1"]]]),
                    encoding="utf-8")
    argv = ["weyl", "--n", "1", "--filtration", "0", "--matrices", str(path), "--cap"]
    assert main([*argv, "8"]) == 2
    assert json.loads(capsys.readouterr().out)["errors"] == [
        {"location": "/matrices/1", "message": "wedge action has 9 terms > cap 8"}]
    assert main([*argv, "9"]) == 1
    assert json.loads(capsys.readouterr().out)["matrix_index"] == 1


def test_weyl_matrix_is_not_counted_past_the_caps_bit_length(capsys, tmp_path, monkeypatch):
    # a 2n x 2n matrix counts up to (2n + 1)^(2n) terms, past 4,300 digits
    # from n = 700 on; an n past the cap's bit length is refused before
    # any count, the matrices' included
    def no_count(matrix):
        raise AssertionError("no matrix is counted past the cap's size")

    monkeypatch.setattr("skewgin.weyl.wedge_action_terms", no_count)
    path = tmp_path / "mats.json"
    path.write_text(json.dumps([[[str(int(i == k)) for k in range(38)] for i in range(38)]]),
                    encoding="utf-8")
    code = main(["weyl", "--n", "19", "--filtration", "0", "--matrices", str(path)])
    assert (code, json.loads(capsys.readouterr().out)["errors"]) == (2, [{
        "location": "/", "message": "n = 19 and filtration 0 give counts past cap 200000"}])


def test_weyl_negative_filtration_exit_2(capsys):
    code = main(["weyl", "--n", "1", "--filtration", "-1"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["ok"] is False
    assert [e["location"] for e in report["errors"]] == ["/filtration"]


def test_nonabelian_stabilizer_without_a_supplied_set_exit_2(capsys, tmp_path):
    group = {k: v for k, v in SIGNED_S3["group"].items() if k != "idempotents"}
    code, report = run_cli(capsys, tmp_path, doc(SIGNED_S3, group=group), "reduce")
    assert code == 2
    [error] = report["errors"]
    assert error["location"] == "/"
    assert error["message"].startswith("stabilizer of v needs a supplied idempotent set")


def test_a_programming_error_in_the_idempotents_propagates(capsys, tmp_path, monkeypatch):
    # only a refusal of the group or the field is a missing idempotent set
    def broken(group, field):
        raise RuntimeError("broken")

    monkeypatch.setattr("skewgin.morita.abelian_idempotents", broken)
    with pytest.raises(RuntimeError, match="broken"):
        run_cli(capsys, tmp_path, doc(MCKAY), "reduce")


@pytest.mark.parametrize("command", ["reduce", "verify"])
def test_action_not_a_homomorphism_exit_2(capsys, tmp_path, command):
    # g acts by 3I over GF(7), but g has order 3 and 3^3 = 6 != 1
    triple = [["3", "0", "0"], ["0", "3", "0"], ["0", "0", "3"]]
    bad = doc(MCKAY, action={"g": {"arrow_matrices": {"(v,v)": triple}}})
    code, report = run_cli(capsys, tmp_path, bad, command)
    assert code == 2
    assert report["ok"] is False
    assert report["errors"]
    assert all(e["location"] == "/action" for e in report["errors"])


@pytest.mark.parametrize("argv, matrices", [
    (["weyl", "--n", "1", "--filtration", "1"], None),
    (["weyl", "--n", "1", "--filtration", "1", "--matrices"], WEYL_MATRICES[1, "not-symplectic"]),
    (["weyl", "--n", "0"], None),
], ids=["passing", "failed-check", "refused-input"])
def test_a_closed_stdout_exits_2_without_a_traceback(tmp_path, argv, matrices):
    # the read end is closed before the spawn, so every write to stdout
    # fails: the report cannot be written and no second one is tried
    if matrices is not None:
        path = tmp_path / "mats.json"
        path.write_text(json.dumps(matrices), encoding="utf-8")
        argv = [*argv, str(path)]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    read, write = os.pipe()
    os.close(read)
    try:
        child = subprocess.run([sys.executable, "-m", "skewgin.cli", *argv], stdout=write,
                               stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
                               timeout=120)
    finally:
        os.close(write)
    assert (child.returncode, child.stderr) == (2, b"")


def test_missing_file_exit_2(capsys):
    code = main(["validate", "/nonexistent/file.json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["ok"] is False


UNREADABLE = {
    "not-utf8": b"\xff\xfe",
    "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
    "long-integer": b"1" * 5000,
}


@pytest.mark.parametrize("reader", ["document", "matrices"])
@pytest.mark.parametrize("name", list(UNREADABLE))
def test_unreadable_json_is_refused_at_the_root(capsys, tmp_path, name, reader):
    # bytes that are not UTF-8, nesting past the recursion limit and an
    # integer past the int-to-str limit are each refused as not valid JSON
    path = tmp_path / "input.json"
    path.write_bytes(UNREADABLE[name])
    argv, refusal = (["validate", str(path)], "not valid JSON: ") if reader == "document" else (
        ["weyl", "--n", "1", "--matrices", str(path)], "matrix file is not valid JSON: ")
    code = main(argv)
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    [error] = report["errors"]
    assert error["location"] == "/"
    assert error["message"].startswith(refusal)


def test_a_document_on_stdin_is_read_as_utf8_bytes(capsys, tmp_path, monkeypatch):
    path = tmp_path / "doc.json"
    path.write_text(doc(MCKAY), encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    from_file = capsys.readouterr().out
    for data, code in ((path.read_bytes(), 0), (b"\xff\xfe", 2)):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        assert main(["validate", "-"]) == code
        out = capsys.readouterr().out
        if code == 0:
            assert out == from_file
        else:
            assert json.loads(out)["errors"] == [{"location": "/", "message": (
                "not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0: "
                "invalid start byte")}]


@st.composite
def document_bytes(draw):
    """Any bytes, or a shipped document's UTF-8 with one byte replaced."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=200))
    data = bytearray(doc(draw(st.sampled_from([MINIMAL, MCKAY]))).encode("utf-8"))
    data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


@given(data=document_bytes())
@settings(max_examples=100, deadline=None)
def test_validate_fuzz_on_bytes_exit_codes_json_and_determinism(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "wb") as handle:
            handle.write(data)
        assert_one_report_twice(["validate", path])


def integer_places(value):
    """(document, location, refusal) for value at each integer a document holds."""
    loop = {"vertices": ["1"], "arrows": [{"name": "x", "src": "1", "tgt": "1", "deg": value}]}
    group = copy.deepcopy(SIGNED_S3["group"])
    group["idempotents"]["dims"][0] = value
    return [(doc(MINIMAL, quiver=loop), "/quiver/arrows/0/deg", "expected an integer"),
            (doc(MINIMAL, d=value), "/d", "expected an integer >= 3"),
            (doc(MINIMAL, options={"max_len": value}), "/options/max_len",
             "expected a nonnegative integer"),
            (doc(SIGNED_S3, group=group), "/group/idempotents/dims",
             "expected one positive integer per vector")]


@pytest.mark.parametrize("value", [10 ** 18, 10 ** 4298, -10 ** 18])
def test_document_integers_past_18_digits_are_refused_at_their_place(capsys, tmp_path, value):
    # so every degree sum and message formed from them stays short: an
    # 11-arrow cycle of a loop of degree 10^4298 has a degree of 4,300 digits
    for text, location, refusal in integer_places(value):
        code, report = run_cli(capsys, tmp_path, text, "validate")
        assert (code, report["errors"]) == (2, [{"location": location, "message": refusal}])
    loop = {"vertices": ["1"], "arrows": [{"name": "x", "src": "1", "tgt": "1", "deg": value}]}
    cycle = doc(MINIMAL, quiver=loop, potential=[{"coeff": "1", "cycle": ["x"] * 11}])
    code, report = run_cli(capsys, tmp_path, cycle, "validate")
    assert (code, report["errors"]) == (2, [{"location": "/quiver/arrows/0/deg",
                                             "message": "expected an integer"}])
    code, report = run_cli(capsys, tmp_path, doc(MINIMAL), "ginzburg", "--d", str(value))
    assert (code, report["errors"]) == (2, [{"location": "/d",
                                             "message": "expected an integer >= 3"}])


def test_document_integers_of_18_digits_are_read(capsys, tmp_path):
    for text, _, _ in integer_places(10 ** 18 - 1):
        assert run_cli(capsys, tmp_path, text, "validate")[0] == 0


def test_weyl_cap_past_the_largest_is_refused_at_cap(capsys, monkeypatch):
    # at --cap 10^24 the complex's count has 7,064 digits, past the
    # int-to-str limit; under the largest cap, 10^12, every count has at
    # most 1,700 and is refused by name
    def no_table(*args, **kwargs):
        raise AssertionError("the cap is checked before any table is built")

    monkeypatch.setattr("skewgin.weyl._Chains", no_table)
    big = str(10 ** 24)
    assert main(["weyl", "--n", "80", "--filtration", big, "--cap", big]) == 2
    assert json.loads(capsys.readouterr().out)["errors"] == [
        {"location": "/cap", "message": "expected a cap of at most 1000000000000"}]
    largest = str(10 ** 12)
    assert main(["weyl", "--n", "40", "--filtration", largest, "--cap", largest]) == 2
    [error] = json.loads(capsys.readouterr().out)["errors"]
    assert error["location"] == "/"
    count, cap = error["message"].removeprefix("truncated complex has dimension ").split(" > ")
    assert (count.isdigit(), 1600 < len(count) < 1700, cap) == (True, True, "cap " + largest)


@pytest.mark.parametrize("max_len", ["-1", "1000000000"])
def test_verify_bad_max_len_exit_2_before_any_product(capsys, tmp_path, monkeypatch, max_len):
    def no_products(*args, **kwargs):
        raise AssertionError("the length bound is checked before the reduction")

    monkeypatch.setattr("skewgin.morita.build_morita", no_products)
    code, report = run_cli(capsys, tmp_path, doc(MCKAY), "verify", "--max-len", max_len)
    assert code == 2
    assert report["ok"] is False
    assert [e["location"] for e in report["errors"]] == ["/max_len"]


def test_verify_size_guard_on_document_max_len(capsys, tmp_path):
    # three loops and three group elements: 3 * (3^9 - 1) / 2 = 29,523 keys
    # up to length 8, over the cap
    code, report = run_cli(capsys, tmp_path, doc(MCKAY, options={"max_len": 8}), "verify")
    assert code == 2
    assert [e["location"] for e in report["errors"]] == ["/options/max_len"]
    assert "more than 6000" in report["errors"][0]["message"]


SCALARS = ["0", "1", "-1", "2", "1/2"]
ENTRIES = st.one_of(st.sampled_from(SCALARS + ["1/0", "1/7", "x", ""]), st.integers(-3, 3),
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.lists(st.sampled_from(["0", "1"]), max_size=2))


def matrix_files(size):
    """Lists of matrices, some square of scalar strings and some of any
    shape and entries, bare or under the key "matrices"."""
    square = st.lists(st.lists(st.sampled_from(SCALARS), min_size=size, max_size=size),
                      min_size=size, max_size=size)
    ragged = st.lists(st.lists(ENTRIES, max_size=5), max_size=5)
    mats = st.lists(square | ragged, max_size=3)
    return mats | st.builds(lambda m: {"matrices": m}, mats)


def assert_one_report_twice(argv):
    """Run the CLI on argv twice: both runs print the same bytes, namely one
    JSON report whose ok matches an exit code of 0, 1 or 2."""
    runs = []
    for _ in range(2):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        runs.append((code, out.getvalue()))
    assert runs[0] == runs[1], argv
    code, text = runs[0]
    assert code in (0, 1, 2), argv
    assert "Traceback" not in text
    report = json.loads(text)
    assert report["ok"] is (code == 0), argv
    return code, report


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_weyl_fuzz_exit_codes_json_and_determinism(data):
    # every input ends in one JSON report with exit code 0, 1 or 2, and a
    # rerun prints the same bytes; half the draws of n and the filtration
    # come from the small ranges whose complexes fit the cap
    n = data.draw(st.integers(1, 2) | st.integers(-1, 3), label="n")
    filtration = data.draw(st.integers(0, 3) | st.integers(-1, 25), label="filtration")
    field = data.draw(st.sampled_from(["Q", "7"]) | st.sampled_from(["0", "1", "4", "x"]),
                      label="field")
    cap = data.draw(st.integers(0, 100), label="cap")
    argv = ["weyl", "--n", str(n), "--filtration", str(filtration), "--field", field,
            "--cap", str(cap)]
    matrices = data.draw(st.none() | matrix_files(max(2 * n, 0)), label="matrices")
    with tempfile.TemporaryDirectory() as tmp:
        if matrices is not None:
            path = os.path.join(tmp, "mats.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(matrices, handle)
            argv += ["--matrices", path]
        assert_one_report_twice(argv)


DOC_SCALARS = st.sampled_from(["0", "1", "-1", "2", "3", "4", "1/2", "-3/4", "1/0", "1/7",
                               "1e5", "0.5", "x", ""]) | st.integers(-2, 9) | st.none()
ARROW_NAMES = st.sampled_from(["x", "y", "z", "w", "x*", "c_v", "", "v"])
TABLE_ENTRIES = st.integers(-1, 3) | st.sampled_from(["0", None])


@st.composite
def mckay_documents(draw):
    """The McKay document with a few scalars, group-table entries and arrow
    names replaced, and a length bound of at most 2."""
    document = copy.deepcopy(MCKAY)
    matrix = document["action"]["g"]["arrow_matrices"]["(v,v)"]
    places = ([(term, "coeff") for term in document["potential"]]
              + [(row, j) for row in matrix for j in range(3)])
    for k in draw(st.lists(st.integers(0, len(places) - 1), max_size=3, unique=True)):
        holder, key = places[k]
        holder[key] = draw(DOC_SCALARS)
    table = document["group"]["table"]
    for i, j in draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=2)):
        table[i][j] = draw(TABLE_ENTRIES)
    arrows = document["quiver"]["arrows"]
    for k in draw(st.lists(st.integers(0, 2), max_size=2, unique=True)):
        old, new = arrows[k]["name"], draw(ARROW_NAMES)
        arrows[k]["name"] = new
        if draw(st.booleans()):  # rename in the potential too, or leave it dangling
            for term in document["potential"]:
                term["cycle"] = [new if name == old else name for name in term["cycle"]]
    document["options"] = {"max_len": draw(st.integers(0, 2))}
    return document


def refused_after_parse(location, message):
    """The refusals a command may make that validate does not."""
    return (message.startswith("the command needs a")  # validate needs no part
            or location == "/"  # errors of the computation, with no input location
            # the /action refusal of build_morita: validate reports it as a failed check
            or location == "/action"
            or message.startswith("length bound ")  # size guards set by the length bound
            # arrow names of the reduced quiver, known only once it is built
            or location.startswith("/reduced_potential/") and "/cycle" in location)


def assert_document_commands_report(document):
    # every document ends, under every document command, in one JSON report
    # with exit code 0, 1 or 2, and a rerun prints the same bytes; and
    # validate refuses every location a command refuses, bar the exceptions
    # of refused_after_parse
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        reports = [assert_one_report_twice(argv) for argv in (
            ["validate", path], ["invariance", path], ["ginzburg", path, "--check"],
            ["reduce", path], ["transport", path], ["verify", path])]
    refused = [{(e["location"], e["message"]) for e in report["errors"]} if code == 2 else set()
               for code, report in reports]
    validated = {location for location, _ in refused[0]}
    for errors in refused[1:]:
        assert all(location in validated or refused_after_parse(location, message)
                   for location, message in errors), (errors, refused[0])


@given(document=mckay_documents())
@settings(max_examples=40, deadline=None)
def test_document_commands_fuzz_exit_codes_json_and_determinism(document):
    assert_document_commands_report(document)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2)
    | st.sampled_from(["", "1", "1/2", "v", "x", "e", "(v,v)"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["name", "src", "tgt", "coeff", "cycle", "p", "(v,v)", "arrow_matrices",
                         "vectors", "dims"]), inner, max_size=3),
    max_leaves=6)


def json_places(node):
    """(container, key) of every value inside a JSON tree, outermost first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    out = []
    for key, value in items:
        out.append((node, key))
        out.extend(json_places(value))
    return out


@st.composite
def restructured_documents(draw):
    """A shipped document with a length bound of at most 2, then one to three
    of its values deleted or replaced by small JSON values of any type."""
    document = copy.deepcopy(draw(st.sampled_from([MCKAY, SIGNED_S3, TRIVIAL_GROUP_PIPELINE])))
    document["options"] = {"max_len": draw(st.integers(0, 2))}
    for _ in range(draw(st.integers(1, 3))):
        holder, key = draw(st.sampled_from(json_places(document)))
        if isinstance(holder, dict) and draw(st.booleans()):
            del holder[key]
        else:
            holder[key] = draw(JSON_VALUES)
    return document


@given(document=restructured_documents())
@settings(max_examples=40, deadline=None)
def test_document_structure_fuzz_exit_codes_json_and_determinism(document):
    assert_document_commands_report(document)


REDUCED_ARROWS = ["m0", "m1", "m3", "m6", "m7", "m9", "x", 1]


@st.composite
def term_documents(draw):
    """McKay, signed S3 or the two-cycle with a length bound of at most 2,
    and with differential_override and reduced_potential terms drawn from
    the generators of the doubled quiver, the reduced arrows of McKay and
    signed S3, and names, scalars and shapes that are wrong."""
    document = copy.deepcopy(draw(st.sampled_from([MCKAY, SIGNED_S3, TWO_CYCLE])))
    document["options"] = {"max_len": draw(st.integers(0, 2))}
    quiver = document["quiver"]
    generators = ([a["name"] for a in quiver["arrows"]]
                  + [a["name"] + "*" for a in quiver["arrows"]]
                  + ["c_" + v for v in quiver["vertices"]])

    def terms(key, names):
        # mostly well-shaped, so that most documents reach the commands
        term = st.fixed_dictionaries({key: st.lists(names, min_size=1, max_size=3)},
                                     optional={"coeff": DOC_SCALARS})
        return st.lists(term, max_size=3) | st.lists(term | JSON_VALUES, max_size=2)

    keys = st.sampled_from(generators + ["q*", "c_w"])
    document["differential_override"] = draw(st.dictionaries(
        keys, terms("path", st.sampled_from(generators + ["q", 0])), min_size=1, max_size=2))
    if draw(st.booleans()):
        document["reduced_potential"] = draw(terms("cycle", st.sampled_from(REDUCED_ARROWS)))
    return document


@given(document=term_documents())
@settings(max_examples=25, deadline=None)
def test_term_fuzz_validate_refuses_what_a_command_refuses(document):
    assert_document_commands_report(document)
