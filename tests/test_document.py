import json

import pytest

from skewgin.action import validate_action
from skewgin.document import parse
from skewgin.errors import SkewginError, ValidationError
from skewgin.quiver import AlgElement

from docs import (MCKAY, MINIMAL, NEGATION_NONINVARIANT, SIGNED_S3,
                  THREE_LOOPS_COMMUTATOR, TRIVIAL_GROUP_PIPELINE, doc)


def test_minimal_document_valid():
    d = parse(doc(MINIMAL))
    assert d.field.is_rationals
    assert d.quiver.vertices == ("1",)
    assert d.potential is None
    assert d.max_len == 4


def test_bad_json_is_parse_error():
    with pytest.raises(SkewginError, match="^not valid JSON: "):
        parse("{not json")


def test_unknown_arrow_location():
    bad = doc(THREE_LOOPS_COMMUTATOR,
              potential=[{"coeff": "1", "cycle": ["q", "y", "z"]}])
    with pytest.raises(ValidationError) as info:
        parse(bad)
    assert any(ptr == "/potential/0/cycle/0" for ptr, _ in info.value.issues)


def test_nonprime_field_location():
    with pytest.raises(ValidationError) as info:
        parse(doc(MINIMAL, field={"p": 6}))
    assert any(ptr == "/field" and "not prime" in msg for ptr, msg in info.value.issues)


def test_open_cycle_rejected():
    bad = doc(MINIMAL, quiver={"vertices": ["1", "2"],
                               "arrows": [{"name": "a", "src": "1", "tgt": "2", "deg": 0}]},
              potential=[{"coeff": "1", "cycle": ["a"]}])
    with pytest.raises(ValidationError) as info:
        parse(bad)
    assert any("not closed" in msg for _, msg in info.value.issues)


def test_group_and_action_completion_from_generator():
    d = parse(doc(MCKAY))
    assert d.group.size == 3
    assert d.action is not None
    # the action map for g2 was generated by composing g with itself
    img = d.action.arrow_images[2]["x"]
    [(path, coeff)] = img.terms.items()
    assert path.arrows == ("x",)
    assert coeff == 4  # 2 * 2 mod 7


def test_completion_composes_vertex_maps_right_factor_first():
    # S3 (the signed-S3 table, which composes right factor first) permuting
    # three vertices, given by s = (01) and c = (012) only; the completed
    # maps must form an action, and gh must move a vertex by h, then g
    one = [["1"]]
    blocks = {f"({v},{v})": one for v in "012"}
    document = {
        "field": "Q",
        "quiver": {"vertices": ["0", "1", "2"],
                   "arrows": [{"name": "l" + v, "src": v, "tgt": v, "deg": 0} for v in "012"]},
        "group": {key: SIGNED_S3["group"][key] for key in ("elements", "table")},
        "action": {"s": {"vertex_perm": {"0": "1", "1": "0", "2": "2"}, "arrow_matrices": blocks},
                   "c": {"vertex_perm": {"0": "1", "1": "2", "2": "0"}, "arrow_matrices": blocks}},
    }
    action = parse(json.dumps(document)).action
    assert validate_action(action) == []
    group, perms = action.group, action.vertex_perms
    for g in group.elements():
        for h in group.elements():
            assert perms[group.mul(g, h)] == {v: perms[g][perms[h][v]] for v in "012"}
        assert action.arrow_images[g]["l0"] == AlgElement.from_arrow(
            action.quiver, action.field, "l" + perms[g]["0"])


def test_action_identity_default():
    d = parse(doc(TRIVIAL_GROUP_PIPELINE))
    assert d.action is not None
    assert d.action.arrow_images[0]["x"].terms


def test_bad_matrix_shape_located():
    bad = doc(MCKAY, action={"g": {"arrow_matrices": {"(v,v)": [["2", "0"], ["0", "2"]]}}})
    with pytest.raises(ValidationError) as info:
        parse(bad)
    assert any(ptr == "/action/g/arrow_matrices/(v,v)" for ptr, _ in info.value.issues)


def test_negation_document_parses():
    d = parse(doc(NEGATION_NONINVARIANT))
    assert d.action is not None
    assert not d.potential.is_zero()


def test_a_refused_block_is_not_also_reported_missing():
    # the (1,2) block of an element that swaps the two vertices is listed
    # but refused: its entry issue is the only one, with no second
    # "missing matrix for block (1,2)"
    bad = doc(MINIMAL,
              quiver={"vertices": ["1", "2"], "arrows": [
                  {"name": "a", "src": "1", "tgt": "2", "deg": 0},
                  {"name": "b", "src": "2", "tgt": "1", "deg": 0}]},
              group={"elements": ["e", "s"], "table": [[0, 1], [1, 0]]},
              action={"s": {"vertex_perm": {"1": "2", "2": "1"},
                            "arrow_matrices": {"(1,2)": [["1/0"]], "(2,1)": [["1"]]}}})
    with pytest.raises(ValidationError) as info:
        parse(bad)
    assert info.value.issues == [("/action/s/arrow_matrices/(1,2)/0/0",
                                  "'1/0' is not a scalar of Q (inverse of zero)")]
