import contextlib
import copy
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from skewgin.cli import main

from docs import (MCKAY, MINIMAL, NEGATION_NONINVARIANT, SIGNED_S3,
                  THREE_LOOPS_COMMUTATOR, TRIVIAL_GROUP_PIPELINE, doc)


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
     "/reduced_potential/0/cycle"),
    ({"reduced_potential": [{"coeff": 1, "cycle": ["m0"]}]}, "/reduced_potential/0/coeff"),
    ({"reduced_potential": [3]}, "/reduced_potential/0"),
    ({"reduced_potential": {"cycle": ["m0"]}}, "/reduced_potential"),
    ({"differential_override": {"x*": [{"coeff": "1", "path": "yz"}]}},
     "/differential_override/x*/0/path"),
    ({"differential_override": {"x*": [{"coeff": "1", "path": [["y"], "z"]}]}},
     "/differential_override/x*/0/path"),
    ({"differential_override": {"x*": [{"coeff": 1, "path": ["y", "z"]}]}},
     "/differential_override/x*/0/coeff"),
    ({"differential_override": {"x*": [3]}}, "/differential_override/x*/0"),
    ({"differential_override": {"x*": "yz"}}, "/differential_override/x*"),
], ids=["cycle-entry", "table", "table-row", "duplicate-vertex", "duplicate-element",
        "max-len-bool", "deg-bool", "table-bool", "dims-bool",
        "reduced-cycle-string", "reduced-cycle-empty", "reduced-cycle-entry",
        "reduced-coeff-int", "reduced-term-int", "reduced-not-list",
        "override-path-string", "override-path-entry", "override-coeff-int",
        "override-term-int", "override-not-list"])
def test_document_values_of_the_wrong_type_exit_2(capsys, tmp_path, changes, location):
    code, report = run_cli(capsys, tmp_path, doc(MCKAY, **changes), "validate")
    assert code == 2
    assert location in [e["location"] for e in report["errors"]]


@pytest.mark.parametrize("command", ["validate", "ginzburg", "reduce", "transport", "verify"])
def test_override_terms_of_the_wrong_shape_exit_2_in_every_command(capsys, tmp_path, command):
    # "yz" once read as the path y.z, and "m0" as the arrows m and 0
    bad = doc(MCKAY, differential_override={"x*": [{"coeff": "1", "path": "yz"}]},
              reduced_potential=[{"coeff": "1", "cycle": "m0"}, 3])
    code, report = run_cli(capsys, tmp_path, bad, command)
    assert code == 2
    assert [e["location"] for e in report["errors"]] == [
        "/differential_override/x*/0/path", "/reduced_potential/0/cycle",
        "/reduced_potential/1"]


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


@pytest.mark.parametrize("command", ["ginzburg", "verify"])
def test_document_d_is_honoured(capsys, tmp_path, command):
    # the McKay potential has degree 0, which only fits d = 3
    code, report = run_cli(capsys, tmp_path, doc(MCKAY, d=4), command)
    assert code == 2
    assert report["ok"] is False
    assert report["errors"] == [{"location": "/",
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

    monkeypatch.setattr("skewgin.cli.bounded_exactness", no_rank_work)
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
     "/action/g/arrow_matrices/(v,v)"),
    (SIGNED_S3, lambda d, t: d["group"]["idempotents"]["vectors"][2].__setitem__(1, t),
     "/group/idempotents/vectors/2"),
], ids=["potential", "action", "idempotents"])
def test_document_scalar_outside_grammar_exit_2(capsys, tmp_path, text, base, change, location):
    document = copy.deepcopy(base)
    change(document, text)
    code, report = run_cli(capsys, tmp_path, json.dumps(document), "validate")
    assert code == 2
    assert [e["location"] for e in report["errors"]] == [location]


def test_weyl_matrix_of_wrong_shape_named_by_index(capsys, tmp_path):
    path = tmp_path / "mats.json"
    path.write_text(json.dumps({"matrices": [[["1", "0"], ["0", "1"]], [["1", "0"]], "I"]}),
                    encoding="utf-8")
    code = main(["weyl", "--n", "1", "--matrices", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["errors"] == [
        {"location": "/matrices/1", "message": "matrices must be 2x2"},
        {"location": "/matrices/2", "message": "matrices must be 2x2"}]


def test_weyl_size_guard_before_any_basis(capsys, monkeypatch):
    # the filtration-20 piece has 26,423,826 basis elements; the closed-form
    # count refuses it without building one of them
    def no_basis(*args, **kwargs):
        raise AssertionError("the cap is checked before any basis is built")

    monkeypatch.setattr("skewgin.weyl._position_basis", no_basis)
    code = main(["weyl", "--n", "2", "--filtration", "20"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["errors"] == [{"location": "/", "message":
                                 "truncated complex has dimension 26423826 > cap 200000"}]


def test_weyl_negative_filtration_exit_2(capsys):
    code = main(["weyl", "--n", "1", "--filtration", "-1"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["ok"] is False
    assert [e["location"] for e in report["errors"]] == ["/filtration"]


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


def test_missing_file_exit_2(capsys):
    code = main(["validate", "/nonexistent/file.json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["ok"] is False


@pytest.mark.parametrize("max_len", ["-1", "1000000000"])
def test_verify_bad_max_len_exit_2_before_any_product(capsys, tmp_path, monkeypatch, max_len):
    def no_products(*args, **kwargs):
        raise AssertionError("the length bound is checked before the reduction")

    monkeypatch.setattr("skewgin.cli.build_morita", no_products)
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
    assert json.loads(text)["ok"] is (code == 0), argv


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


def assert_document_commands_report(document):
    # every document ends, under every document command, in one JSON report
    # with exit code 0, 1 or 2, and a rerun prints the same bytes
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        for argv in (["validate", path], ["invariance", path], ["ginzburg", path, "--check"],
                     ["reduce", path], ["verify", path]):
            assert_one_report_twice(argv)


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
