"""Seeded inputs for the benchmark workloads.

Each workload is built from its seed alone, so the same seed always gives
the same documents and matrix files, and the program under test only ever
sees those files.  A seed changes names, orderings and field choices, never
the mathematics: every generated input has the same invariants, which the
correctness gate checks on every run.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from math import comb

# Arrow names the seeds draw from.  None of them clash with the doubled
# quiver's generated names ("<arrow>*" and "c_<vertex>").
ARROW_POOL = ["a", "b", "e", "f", "h", "k", "m", "p", "q", "r", "s", "t",
              "u", "w", "x", "y", "z"]

# Small primes p with p = 1 (mod 3), so GF(p) holds a primitive cube root.
MCKAY_PRIMES = [7, 13, 19, 31, 37, 43]

S3_MAX_LEN = 3
MCKAY_MAX_LEN = 6
WEYL_N = 2
WEYL_FILTRATION = 5

# Signed S3 on three loops x < y < z: generators s = (xy) with signs and
# c = (xyz).  Columns are source arrows in sorted name order.
S3_GROUP = {
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
}
S3_GENERATORS = {
    "s": [["0", "-1", "0"], ["-1", "0", "0"], ["0", "0", "-1"]],
    "c": [["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]],
}

WHY = {
    "s3-q-verify": (
        "signed S3 on three loops over Q, verify --max-len 3: Fraction "
        "linalg and crossed commutator enumeration (1,764 commutators, a "
        "1,730-entry certificate)"),
    "mckay-gfp-session": (
        "McKay Z/3 scaling over GF(p), the six-command session to verify "
        "--max-len 6: crossed products in the embedding check, Jacobian "
        "truncation, process start-up; no Fractions, small certificates"),
    "weyl-n2-f5": (
        "weyl --n 2 --filtration 5 with two symplectic matrices over Q: "
        "rank-only linalg and Weyl products, no crossed or morita code"),
}


def _names(rng):
    """Three distinct arrow names, in sorted order.

    They take the places of x < y < z, so the path basis, the commutator
    feed order and the action matrices are those of the reference
    document.  A relabelling that reorders the arrows permutes the block
    matrices and leaves the mathematics alone, but it changes how soon the
    incremental solver finds the transported potential: on a 2-vCPU Xeon VM
    with Python 3.11, one order of the six verifies in 3.5 s and the other
    five in 7.6-9.4 s.  Seeds that drew orders would spread the timings far
    beyond any usable bound.
    """
    return sorted(rng.sample(ARROW_POOL, 3))


def _potential(names):
    x, y, z = names
    return [{"coeff": "1", "cycle": [x, y, z]},
            {"coeff": "-1", "cycle": [x, z, y]}]


def _loops(names):
    return [{"name": n, "src": "v", "tgt": "v", "deg": 0} for n in names]


def s3_document(rng):
    names = _names(rng)
    return {
        "field": "Q",
        "quiver": {"vertices": ["v"], "arrows": _loops(names)},
        "potential": _potential(names),
        "d": 3,
        "group": S3_GROUP,
        "action": {g: {"arrow_matrices": {"(v,v)": m}} for g, m in S3_GENERATORS.items()},
        "options": {"max_len": S3_MAX_LEN},
    }


def mckay_document(rng):
    p = rng.choice(MCKAY_PRIMES)
    roots = [w for w in range(2, p) if pow(w, 3, p) == 1]
    omega = rng.choice(roots)
    names = _names(rng)
    scalar = [[str(omega) if r == k else "0" for k in range(3)] for r in range(3)]
    return {
        "field": {"p": p},
        "quiver": {"vertices": ["v"], "arrows": _loops(names)},
        "potential": _potential(names),
        "d": 3,
        "group": {"elements": ["e", "g", "g2"],
                  "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
        "action": {"g": {"arrow_matrices": {"(v,v)": scalar}}},
        "options": {"max_len": 4},
    }


def _form(n):
    """The standard symplectic form on 2n coordinates."""
    m = 2 * n
    j = [[0] * m for _ in range(m)]
    for i in range(n):
        j[i][n + i] = 1
        j[n + i][i] = -1
    return j


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _transpose(a):
    return [list(row) for row in zip(*a)]


def _transvection(v, c, form):
    """x -> x + c * form(v, x) * v, which preserves the form for any v, c."""
    m = len(v)
    vj = [sum(v[k] * form[k][j] for k in range(m)) for j in range(m)]
    return [[(1 if i == j else 0) + c * v[i] * vj[j] for j in range(m)]
            for i in range(m)]


def is_symplectic(mat, form):
    return _matmul(_matmul(_transpose(mat), form), mat) == form


def symplectic_matrix(rng, n):
    """A product of elementary transvections, one along a basis vector in
    each symplectic pair (e_i, e_{n+i}).

    Each factor adds one off-diagonal entry inside its own pair's 2x2
    block, so every matrix has 2n + n nonzero entries and the equivariance
    check costs about the same for every seed.
    """
    m = 2 * n
    form = _form(n)
    mat = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    for pair in range(n):
        v = [0] * m
        v[pair + n * rng.randrange(2)] = 1
        c = Fraction(rng.choice([-2, -1, 1, 2]))
        mat = _matmul(_transvection(v, c, form), mat)
    if not is_symplectic(mat, form):
        raise AssertionError("transvection product is not symplectic")
    return mat


def weyl_matrices(rng):
    mats = [symplectic_matrix(rng, WEYL_N) for _ in range(2)]
    return {"matrices": [[[str(v) for v in row] for row in mat] for mat in mats]}


def _dump(path, obj):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=1, sort_keys=True)
        handle.write("\n")


def generate(workload, seed, outdir):
    """Write the inputs of one workload into outdir and return its plan.

    The plan holds the session commands (argv lists, relative to outdir),
    the set-up command that loads the input without computing, and the
    invariants the correctness gate checks.
    """
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(outdir, exist_ok=True)
    if workload == "s3-q-verify":
        _dump(os.path.join(outdir, "doc.json"), s3_document(rng))
        commands = [["verify", "doc.json", "--max-len", str(S3_MAX_LEN)]]
        setup = ["validate", "doc.json"]
        tables = {"verify": [3, 8, 16, 27]}
    elif workload == "mckay-gfp-session":
        _dump(os.path.join(outdir, "doc.json"), mckay_document(rng))
        commands = [["validate", "doc.json"], ["invariance", "doc.json"],
                    ["ginzburg", "doc.json", "--check"], ["reduce", "doc.json"],
                    ["transport", "doc.json"],
                    ["verify", "doc.json", "--max-len", str(MCKAY_MAX_LEN)]]
        setup = ["validate", "doc.json"]
        tables = {"verify": [3 * comb(l + 2, 2) for l in range(MCKAY_MAX_LEN + 1)]}
    elif workload == "weyl-n2-f5":
        _dump(os.path.join(outdir, "mats.json"), weyl_matrices(rng))
        commands = [["weyl", "--n", str(WEYL_N), "--filtration", str(WEYL_FILTRATION),
                     "--matrices", "mats.json"]]
        setup = ["--version"]
        tables = {}
    else:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WHY)}")
    return {
        "workload": workload,
        "seed": seed,
        "why": WHY[workload],
        "commands": commands,
        "setup": setup,
        "dimension_tables": tables,
        "weyl_cokernel": comb(WEYL_FILTRATION + 2 * WEYL_N, 2 * WEYL_N),
    }
