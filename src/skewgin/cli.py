"""Command line front end: deterministic JSON reports and a CI-friendly
exit-code contract (0 all checks pass, 1 a check failed, 2 bad input)."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import (__version__, action, document, fields, ginzburg, morita, potential,
               quiver, weyl)
from .errors import CheckFailed, SkewginError, ValidationError

# verify refuses a length bound whose crossed basis, the (path, group
# element) pairs of length <= bound, has more keys than this.  Signed S3
# (tests/docs.py) at length 5 has 2,184 keys and at length 6 has 6,558,
# where it ran out of 1.5 GB; McKay Z/3 at length 6 has 3,279.
MAX_CROSSED_KEYS = 6_000


def _element_json(field, el):
    return [{"coeff": field.format(coeff), "source": path.source, "arrows": list(path.arrows)}
            for path, coeff in el.sorted_terms()]


def _crossed_json(md, el):
    names, field = md.action.group.names, md.field
    return [{"coeff": field.format(coeff), "source": path.source,
             "arrows": list(path.arrows), "g": names[g]}
            for (path, g), coeff in el.sorted_terms()]


def _potential_json(field, w):
    return [{"coeff": field.format(c), "cycle": list(p.arrows)}
            for p, c in w.sorted_terms()]


def _read_document(args):
    try:
        if args.document == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(args.document, "rb") as handle:
                data = handle.read()
    except OSError as exc:
        raise SkewginError(str(exc)) from exc
    return document.parse(data)


def _emit(report) -> None:
    # flushed here, so a stdout whose reader has gone fails inside main
    print(json.dumps(report, indent=2, sort_keys=True), flush=True)


def _base_report(command):
    return {"version": __version__, "command": command, "checks": []}


def _finish(report) -> int:
    report["ok"] = all(c.get("ok", True) for c in report["checks"])
    _emit(report)
    return 0 if report["ok"] else 1


def _need(doc, what, attr):
    if getattr(doc, attr) is None:
        raise SkewginError(f"the command needs a {what}", location=f"/{attr}")


def cmd_validate(args) -> int:
    doc = _read_document(args)
    report = _base_report("validate")
    report["summary"] = {
        "field": repr(doc.field),
        "vertices": len(doc.quiver.vertices),
        "arrows": len(doc.quiver.arrows),
        "has_potential": doc.potential is not None,
        "has_group": doc.group is not None,
        "has_action": doc.action is not None,
    }
    if doc.action is not None:
        failures = action.validate_action(doc.action)
        report["checks"].append({"check": "action is a valid group action",
                                 "ok": not failures, "failures": failures})
    return _finish(report)


def cmd_ginzburg(args) -> int:
    doc = _read_document(args)
    d, issues = (args.d if args.d is not None else doc.d), []
    document.check_d(d, doc.potential, issues)
    if issues:
        raise ValidationError(issues)
    w = doc.potential
    if w is None:
        w = potential.Potential(doc.quiver, doc.field)
    presentation = ginzburg.ginzburg(doc.quiver, w, d)
    for gen, pairs in (doc.differential_override or {}).items():
        presentation.differential[gen] = quiver.AlgElement(presentation.doubled, doc.field, pairs)
    report = _base_report("ginzburg")
    report["cy_dimension"] = d
    report["generators"] = [
        {"name": a.name, "src": a.src, "tgt": a.tgt, "deg": a.deg,
         "differential": _element_json(doc.field, presentation.diff_of(a.name))}
        for a in presentation.doubled.arrows
    ]
    if args.check:
        square = ginzburg.check_d_squared(presentation)
        report["checks"].append({
            "check": "differential squares to zero on every generator",
            "rule": "d(a) = 0, d(a*) = dW/da, d(c_i) = sum out a a* - sum in a* a, "
                    "extended as a degree +1 derivation",
            "ok": not square,
            "violations": [{"generator": gen,
                            "value": _element_json(doc.field, val)}
                           for gen, val in square],
        })
        degrees = ginzburg.degree_report(presentation)
        report["checks"].append({
            "check": "differential raises degree by one",
            "ok": not degrees,
            "violations": [{"generator": g, "expected": e, "got": got}
                           for g, e, got in degrees],
        })
    return _finish(report)


def cmd_invariance(args) -> int:
    doc = _read_document(args)
    _need(doc, "group action", "action")
    _need(doc, "potential", "potential")
    report = _base_report("invariance")
    failures = action.validate_action(doc.action)
    report["checks"].append({"check": "action is a valid group action",
                             "ok": not failures, "failures": failures})
    if not failures:
        per_element = []
        names = doc.action.group.names
        for g in doc.action.group.elements():
            moved = doc.action.act_potential(g, doc.potential)
            per_element.append({"g": names[g], "invariant": moved == doc.potential})
        report["checks"].append({
            "check": "potential is fixed by every group element",
            "rule": "the class of the potential, up to rotation with signs, "
                    "must be preserved",
            "ok": all(e["invariant"] for e in per_element),
            "elements": per_element,
        })
    return _finish(report)


def _build_reduction(doc):
    _need(doc, "group action", "action")
    return morita.build_morita(doc.action, doc.idempotents)


def _reduced_quiver_json(md):
    return {
        "vertices": [{"name": v, "orbit_representative": md.vertex_info[v][0],
                      "idempotent_index": md.vertex_info[v][1]}
                     for v in md.qprime.vertices],
        "arrows": [{"name": a.name, "src": a.src, "tgt": a.tgt, "deg": a.deg,
                    "embedding": _crossed_json(md, md.arrow_embed[a.name])}
                   for a in md.qprime.arrows],
    }


def cmd_reduce(args) -> int:
    doc = _read_document(args)
    md = _build_reduction(doc)
    report = _base_report("reduce")
    report["choices"] = md.choices()
    report["reduced_quiver"] = _reduced_quiver_json(md)
    report["bimodule_dimension"] = sum(map(len, md.bimodule.values()))
    if doc.potential is not None and not doc.potential.is_zero():
        reduced, _ = morita.transport_potential(doc.potential, md)
        report["reduced_potential"] = _potential_json(md.field, reduced)
    return _finish(report)


def cmd_transport(args) -> int:
    doc = _read_document(args)
    _need(doc, "potential", "potential")
    md = _build_reduction(doc)
    report = _base_report("transport")
    report["choices"] = md.choices()
    reduced, certificate = morita.transport_potential(doc.potential, md)
    report["reduced_potential"] = _potential_json(md.field, reduced)
    report["checks"].append({
        "check": "certificate re-expands to the class difference",
        "ok": True,
        "commutators_used": len(certificate),
    })
    return _finish(report)


def _verify_bound(args, doc):
    """The length bound of verify, checked before any product is formed."""
    if args.max_len is not None:
        bound, where = args.max_len, "/max_len"
    else:
        bound, where = doc.max_len, "/options/max_len"
    if bound < 0:
        raise SkewginError("expected a nonnegative integer", location=where)
    paths = quiver.count_paths_up_to(doc.quiver, bound, MAX_CROSSED_KEYS // doc.group.size)
    keys = paths * doc.group.size
    if keys > MAX_CROSSED_KEYS:
        raise SkewginError(f"length bound {bound} gives more than {MAX_CROSSED_KEYS} "
                           "(path, group element) pairs", location=where)
    return bound


def cmd_verify(args) -> int:
    doc = _read_document(args)
    _need(doc, "potential", "potential")
    _need(doc, "group action", "action")
    bound = _verify_bound(args, doc)
    md = _build_reduction(doc)
    report = _base_report("verify")
    report["choices"] = md.choices()

    pres = ginzburg.ginzburg(doc.quiver, doc.potential, doc.d)
    _, equivariance = action.extend_to_ginzburg(doc.action, pres)
    report["checks"].append({
        "check": "extended action commutes with the differential",
        "ok": not equivariance,
        "failures": [{"generator": gen, "g": g} for gen, g, _ in equivariance],
    })

    embedding = morita.check_embedding(md, bound)
    report["checks"].append({
        "check": f"reduced path algebra embeds injectively up to length {bound}",
        "ok": not embedding, "failures": embedding,
    })
    fullness = morita.check_fullness(md, min(bound, 3))
    report["checks"].append({
        "check": "total idempotent is full at every checked length",
        "ok": not fullness, "failures": fullness,
    })

    if doc.reduced_potential is not None:
        issues = []
        pairs = document.resolve_terms(doc.reduced_potential, md.qprime, issues)
        if issues:
            raise ValidationError(issues)
        reduced = potential.canonicalize(md.qprime, md.field, ((c, p) for p, c in pairs))
        source = "document override"
        certificate = None
    else:
        reduced, certificate = morita.transport_potential(doc.potential, md)
        source = "transport"
    report["reduced_potential"] = {
        "source": source,
        "terms": _potential_json(md.field, reduced),
    }
    try:
        if certificate is None:
            certificate = morita.certify_reduction(md, doc.potential, reduced)
        report["checks"].append({
            "check": "reduced potential represents the original class",
            "ok": True, "commutators_used": len(certificate),
        })
    except SkewginError as exc:
        report["checks"].append({
            "check": "reduced potential represents the original class",
            "rule": "embedded reduced potential must differ from the original "
                    "by an exact combination of commutators",
            "ok": False, "failure": str(exc),
        })
        return _finish(report)

    rows, ok = morita.morita_dimension_check(md, doc.potential, reduced, bound)
    report["checks"].append({
        "check": "corner dimensions match reduced Jacobian dimensions",
        "rule": "dim of the idempotent corner of the quotient crossed product "
                "equals the reduced quotient dimension, length by length",
        "ok": ok,
        "table": [{"length": l, "corner": a, "reduced": b} for l, a, b in rows],
    })
    return _finish(report)


def _read_matrices(path, n, field):
    """The matrices of a --matrices file: {"matrices": [...]} or a bare list
    of 2n x 2n matrices of scalar strings, each read by read_matrix at
    /matrices/k."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise SkewginError(f"cannot read the matrix file: {exc}", location="/matrices") from exc
    raw = fields.read_json(data, "matrix file is not valid JSON")
    mats = raw.get("matrices") if isinstance(raw, dict) else raw
    if not isinstance(mats, list):
        raise SkewginError('expected a list of matrices, bare or under the key "matrices"',
                           location="/matrices")
    issues = []
    matrices = [fields.read_matrix(mat, f"/matrices/{k}", 2 * n, 2 * n, field, issues)
                for k, mat in enumerate(mats)]
    if issues:
        raise ValidationError(issues)
    return matrices


def cmd_weyl(args) -> int:
    digits = args.field.isascii() and args.field.isdigit()  # no sign, space, _ or other script
    try:
        spec = "Q" if args.field == "Q" else int(args.field) if digits else None
        field = fields.make_field(spec)
    except (ValueError, SkewginError) as exc:
        past = digits and isinstance(exc, SkewginError) and spec > fields.MAX_MODULUS
        raise SkewginError(str(exc) if past else f"expected Q or a prime, got {args.field!r}",
                           location="/field") from exc
    if args.n < 1:
        raise SkewginError("the number of variables must be positive", location="/n")
    if args.filtration < 0:
        raise SkewginError("the filtration bound must be non-negative", location="/filtration")
    matrices = _read_matrices(args.matrices, args.n, field) if args.matrices else None
    cap = weyl.DEFAULT_CAP if args.cap is None else args.cap
    weyl.check_costs(args.n, args.filtration, cap, matrices or ())
    report = _base_report("weyl")
    report["n"] = args.n
    report["filtration"] = args.filtration
    resolution = weyl.bounded_exactness(args.n, args.filtration, field, cap=cap)
    report["resolution"] = resolution
    report["checks"].append({
        "check": "resolution homology vanishes away from the augmentation",
        "ok": all(v == 0 for v in resolution["homology"].values()),
        "homology": {str(k): v for k, v in resolution["homology"].items()},
    })
    report["checks"].append({
        "check": "augmentation cokernel matches the filtered algebra dimension",
        "ok": resolution["augmentation_cokernel"] == resolution["expected_cokernel"],
    })
    dual = weyl.dual_top_concentration(args.n, resolution)
    report["dual"] = dual
    report["checks"].append({
        "check": "dual complex homology concentrates at the top position",
        "ok": (all(v == 0 for k, v in dual["homology"].items() if k != 2 * args.n)
               and dual["top_homology"] == dual["expected_top"]),
    })
    if matrices is not None:
        failures = weyl.check_sp_equivariance(args.n, matrices, field)
        report["checks"].append({
            "check": "matrices are symplectic and the differential is equivariant",
            "ok": not failures, "failures": failures,
        })
    return _finish(report)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="skewgin",
        description="exact checks for quivers with potentials, their dg algebras, "
                    "and skew group algebra reductions")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_doc(p):
        p.add_argument("document", help="input JSON document path, or - for stdin")

    p = sub.add_parser("validate", help="parse and validate a document")
    add_doc(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("ginzburg", help="emit the dg presentation of the quiver with potential")
    add_doc(p)
    p.add_argument("--d", type=int, default=None, help="CY dimension (default from document)")
    p.add_argument("--check", action="store_true", help="verify the differential squares to zero")
    p.set_defaults(func=cmd_ginzburg)

    p = sub.add_parser("invariance", help="check the potential is fixed by the action")
    add_doc(p)
    p.set_defaults(func=cmd_invariance)

    p = sub.add_parser("reduce", help="emit the reduced quiver and its embedding")
    add_doc(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("transport", help="move the potential onto the reduced quiver")
    add_doc(p)
    p.set_defaults(func=cmd_transport)

    p = sub.add_parser("verify", help="run the embedding, class, and dimension checks")
    add_doc(p)
    p.add_argument("--max-len", type=int, default=None, help="length bound for the checks")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("weyl", help="filtered resolution and symplectic equivariance checks")
    p.add_argument("--n", type=int, required=True, help="number of variables")
    p.add_argument("--filtration", type=int, default=2, help="total degree bound")
    p.add_argument("--matrices", default=None, help="JSON file with matrices to check")
    p.add_argument("--field", default="Q", help='"Q" or a prime modulus')
    p.add_argument("--cap", type=int, default=None,
                   help="cap on each counted cost: complex dimension, wedge-table moves "
                        "and wedge-action terms")
    p.set_defaults(func=cmd_weyl)
    return parser


def _run(args) -> int:
    """The command's exit code.  A CheckFailed ends in a report naming the
    failure (exit 1), any other SkewginError in one listing its issues
    (exit 2)."""
    try:
        return args.func(args)
    except CheckFailed as exc:
        _emit({"version": __version__, "command": args.command, "ok": False,
               "failure": str(exc), "matrix_index": exc.matrix_index})
        return 1
    except SkewginError as exc:
        _emit({"version": __version__, "command": args.command, "ok": False,
               "errors": [{"location": ptr, "message": msg} for ptr, msg in exc.issues]})
        return 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except BrokenPipeError:
        # stdout's reader has gone, so no report can reach it; stdout points
        # at the null device from here, so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
