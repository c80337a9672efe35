"""Shared JSON documents for the document/CLI tests."""

import copy
import json


MINIMAL = {
    "field": "Q",
    "quiver": {"vertices": ["1"], "arrows": []},
}

THREE_LOOPS_COMMUTATOR = {
    "field": "Q",
    "quiver": {"vertices": ["1"], "arrows": [
        {"name": "x", "src": "1", "tgt": "1", "deg": 0},
        {"name": "y", "src": "1", "tgt": "1", "deg": 0},
        {"name": "z", "src": "1", "tgt": "1", "deg": 0},
    ]},
    "potential": [
        {"coeff": "1", "cycle": ["x", "y", "z"]},
        {"coeff": "-1", "cycle": ["x", "z", "y"]},
    ],
    "d": 3,
}

MCKAY = {
    "field": {"p": 7},
    "quiver": {"vertices": ["v"], "arrows": [
        {"name": "x", "src": "v", "tgt": "v", "deg": 0},
        {"name": "y", "src": "v", "tgt": "v", "deg": 0},
        {"name": "z", "src": "v", "tgt": "v", "deg": 0},
    ]},
    "potential": [
        {"coeff": "1", "cycle": ["x", "y", "z"]},
        {"coeff": "-1", "cycle": ["x", "z", "y"]},
    ],
    "d": 3,
    "group": {"elements": ["e", "g", "g2"],
              "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
    "action": {
        "g": {"arrow_matrices": {"(v,v)": [["2", "0", "0"],
                                           ["0", "2", "0"],
                                           ["0", "0", "2"]]}},
    },
    "options": {"max_len": 4},
}

# MCKAY with g acting by a matrix that is not monomial: of order 3 and
# determinant 1, so x y z - x z y stays invariant, while g sends a path to
# a combination of several paths
MCKAY_NON_MONOMIAL = dict(MCKAY, action={
    "g": {"arrow_matrices": {"(v,v)": [["0", "-1", "0"],
                                       ["1", "-1", "0"],
                                       ["0", "0", "1"]]}},
})

TRIVIAL_GROUP_PIPELINE = {
    "field": "Q",
    "quiver": THREE_LOOPS_COMMUTATOR["quiver"],
    "potential": THREE_LOOPS_COMMUTATOR["potential"],
    "d": 3,
    "group": {"elements": ["e"], "table": [[0]]},
    "action": {},
}

NEGATION_NONINVARIANT = {
    "field": "Q",
    "quiver": {"vertices": ["1"], "arrows": [
        {"name": "x", "src": "1", "tgt": "1", "deg": 0},
    ]},
    "potential": [{"coeff": "1", "cycle": ["x", "x", "x"]}],
    "d": 3,
    "group": {"elements": ["e", "g"], "table": [[0, 1], [1, 0]]},
    "action": {"g": {"arrow_matrices": {"(1,1)": [["-1"]]}}},
}


# S3 acting on three loops by signed permutations; generators s = (01) and
# c = (012), the rest completed by composition.  The multiplication table
# composes right factor first.  Idempotents: trivial, sign, and a primitive
# of the two-dimensional block.
SIGNED_S3 = {
    "field": "Q",
    "quiver": {"vertices": ["v"], "arrows": [
        {"name": "x", "src": "v", "tgt": "v", "deg": 0},
        {"name": "y", "src": "v", "tgt": "v", "deg": 0},
        {"name": "z", "src": "v", "tgt": "v", "deg": 0},
    ]},
    "potential": [
        {"coeff": "1", "cycle": ["x", "y", "z"]},
        {"coeff": "-1", "cycle": ["x", "z", "y"]},
    ],
    "d": 3,
    "group": {
        "elements": ["e", "s", "t", "u", "c", "c2"],
        "table": [
            [0, 1, 2, 3, 4, 5],
            [1, 0, 5, 4, 3, 2],
            [2, 4, 0, 5, 1, 3],
            [3, 5, 4, 0, 2, 1],
            [4, 2, 3, 1, 5, 0],
            [5, 3, 1, 2, 0, 4],
        ],
        "idempotents": {
            "vectors": [
                ["1/6", "1/6", "1/6", "1/6", "1/6", "1/6"],
                ["1/6", "-1/6", "-1/6", "-1/6", "1/6", "1/6"],
                ["1/3", "1/3", "-1/6", "-1/6", "-1/6", "-1/6"],
            ],
            "dims": [1, 1, 2],
        },
    },
    "action": {
        "s": {"arrow_matrices": {"(v,v)": [["0", "-1", "0"],
                                           ["-1", "0", "0"],
                                           ["0", "0", "-1"]]}},
        "c": {"arrow_matrices": {"(v,v)": [["0", "0", "1"],
                                           ["1", "0", "0"],
                                           ["0", "1", "0"]]}},
    },
    "options": {"max_len": 3},
}


# SIGNED_S3 conjugated by the shear P = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]:
# s and c become P s P^-1 and P c P^-1, which are not monomial and still
# have determinant 1, so x y z - x z y stays invariant
SIGNED_S3_SHEARED = dict(SIGNED_S3, action={
    "s": {"arrow_matrices": {"(v,v)": [["-1", "0", "0"],
                                       ["-1", "1", "0"],
                                       ["0", "0", "-1"]]}},
    "c": {"arrow_matrices": {"(v,v)": [["1", "-1", "1"],
                                       ["1", "-1", "0"],
                                       ["0", "1", "0"]]}},
})


# Z/2 swapping the vertices 1 and 2 of a two-cycle with a loop at each end.
# The arrow names sort against their sources (a and y start at 2, b and x
# at 1), so ordering paths by arrows and then source differs from ordering
# them by source and then arrows, which no one-vertex document shows.
VERTEX_SWAP = {
    "field": "Q",
    "quiver": {"vertices": ["1", "2"], "arrows": [
        {"name": "a", "src": "2", "tgt": "1", "deg": 0},
        {"name": "b", "src": "1", "tgt": "2", "deg": 0},
        {"name": "x", "src": "1", "tgt": "1", "deg": 0},
        {"name": "y", "src": "2", "tgt": "2", "deg": 0},
    ]},
    "potential": [
        {"coeff": "1", "cycle": ["b", "a", "x"]},
        {"coeff": "1", "cycle": ["a", "b", "y"]},
    ],
    "d": 3,
    "group": {"elements": ["e", "s"], "table": [[0, 1], [1, 0]]},
    "action": {
        "s": {"vertex_perm": {"1": "2", "2": "1"},
              "arrow_matrices": {"(1,2)": [["1"]], "(2,1)": [["1"]],
                                 "(1,1)": [["1"]], "(2,2)": [["1"]]}},
    },
    "options": {"max_len": 3},
}


def doc(base, **changes):
    out = copy.deepcopy(base)
    out.update(changes)
    return json.dumps(out)
