"""Command line front end: deterministic JSON reports and a CI-friendly
exit-code contract (0 all checks pass, 1 a check failed, 2 bad input)."""

from __future__ import annotations

import json
import os
import sys
import types

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


def _check(report, check, ok, **detail):
    report["checks"].append({"check": check, "ok": ok, **detail})


def _finish(report) -> int:
    report["ok"] = all(c.get("ok", True) for c in report["checks"])
    _emit(report)
    return 0 if report["ok"] else 1


def _flag_int(text, location, refusal, least=0):
    """The int that a flag's ASCII decimal digits name.  A sign, a space,
    an underscore, another script's digits, text past int()'s digit limit
    and a value below least are refused at location."""
    try:
        value = int(text) if text.isascii() and text.isdigit() else None
    except ValueError:  # past the int-to-str digit limit
        value = None
    if value is None or value < least:
        raise SkewginError(refusal, location=location)
    return value


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
        _check(report, "action is a valid group action", not failures, failures=failures)
    return _finish(report)


def cmd_ginzburg(args) -> int:
    doc = _read_document(args)
    d = doc.d if args.d is None else _flag_int(args.d, "/d", "expected an integer >= 3")
    issues = []
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
        _check(report, "differential squares to zero on every generator", not square,
               rule="d(a) = 0, d(a*) = dW/da, d(c_i) = sum out a a* - sum in a* a, "
                    "extended as a degree +1 derivation",
               violations=[{"generator": gen, "value": _element_json(doc.field, val)}
                           for gen, val in square])
        degrees = ginzburg.degree_report(presentation)
        _check(report, "differential raises degree by one", not degrees,
               violations=[{"generator": g, "expected": e, "got": got} for g, e, got in degrees])
    return _finish(report)


def cmd_invariance(args) -> int:
    doc = _read_document(args)
    _need(doc, "group action", "action")
    _need(doc, "potential", "potential")
    report = _base_report("invariance")
    failures = action.validate_action(doc.action)
    _check(report, "action is a valid group action", not failures, failures=failures)
    if not failures:
        names, w = doc.action.group.names, doc.potential
        per_element = [{"g": names[g], "invariant": doc.action.act_potential(g, w) == w}
                       for g in doc.action.group.elements()]
        _check(report, "potential is fixed by every group element",
               all(e["invariant"] for e in per_element), elements=per_element,
               rule="the class of the potential, up to rotation with signs, must be preserved")
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
    _check(report, "certificate re-expands to the class difference", True,
           commutators_used=len(certificate))
    return _finish(report)


def _verify_bound(args, doc):
    """The length bound of verify, checked before any product is formed."""
    where = "/options/max_len" if args.max_len is None else "/max_len"
    bound = (doc.max_len if args.max_len is None else
             _flag_int(args.max_len, where, "expected a nonnegative integer"))
    paths = quiver.count_paths_up_to(doc.quiver, bound, MAX_CROSSED_KEYS // doc.group.size)
    if paths * doc.group.size > MAX_CROSSED_KEYS:
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
    _check(report, "extended action commutes with the differential", not equivariance,
           failures=[{"generator": gen, "g": g} for gen, g, _ in equivariance])

    embedding = morita.check_embedding(md, bound)
    _check(report, f"reduced path algebra embeds injectively up to length {bound}",
           not embedding, failures=embedding)
    fullness = morita.check_fullness(md, min(bound, 3))
    _check(report, "total idempotent is full at every checked length", not fullness,
           failures=fullness)

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
    report["reduced_potential"] = {"source": source,
                                   "terms": _potential_json(md.field, reduced)}
    try:
        if certificate is None:
            certificate = morita.certify_reduction(md, doc.potential, reduced)
        _check(report, "reduced potential represents the original class", True,
               commutators_used=len(certificate))
    except SkewginError as exc:
        _check(report, "reduced potential represents the original class", False,
               rule="embedded reduced potential must differ from the original "
                    "by an exact combination of commutators", failure=str(exc))
        return _finish(report)

    rows, ok = morita.morita_dimension_check(md, doc.potential, reduced, bound)
    _check(report, "corner dimensions match reduced Jacobian dimensions", ok,
           rule="dim of the idempotent corner of the quotient crossed product "
                "equals the reduced quotient dimension, length by length",
           table=[{"length": l, "corner": a, "reduced": b} for l, a, b in rows])
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
    refusal = f"expected Q or a prime, got {args.field!r}"
    spec = "Q" if args.field == "Q" else _flag_int(args.field, "/field", refusal)
    try:
        field = fields.make_field(spec)
    except SkewginError as exc:  # a modulus past the bound: the document reader's refusal
        raise SkewginError(str(exc) if spec > fields.MAX_MODULUS else refusal,
                           location="/field") from exc
    n = _flag_int(args.n, "/n", "the number of variables must be positive", least=1)
    filt = _flag_int(args.filtration, "/filtration", "the filtration bound must be non-negative")
    cap = (weyl.DEFAULT_CAP if args.cap is None else
           _flag_int(args.cap, "/cap", f"expected a cap of at most {weyl.MAX_CAP}"))
    matrices = _read_matrices(args.matrices, n, field) if args.matrices else None
    weyl.check_costs(n, filt, cap, matrices or ())
    report = _base_report("weyl")
    report["n"] = n
    report["filtration"] = filt
    resolution = weyl.bounded_exactness(n, filt, field, cap=cap)
    report["resolution"] = resolution
    homology = resolution["homology"]
    _check(report, "resolution homology vanishes away from the augmentation",
           all(v == 0 for v in homology.values()),
           homology={str(k): v for k, v in homology.items()})
    _check(report, "augmentation cokernel matches the filtered algebra dimension",
           resolution["augmentation_cokernel"] == resolution["expected_cokernel"])
    dual = weyl.dual_top_concentration(n, resolution)
    report["dual"] = dual
    _check(report, "dual complex homology concentrates at the top position",
           all(v == 0 for k, v in dual["homology"].items() if k != 2 * n)
           and dual["top_homology"] == dual["expected_top"])
    if matrices is not None:
        failures = weyl.check_sp_equivariance(n, matrices, field)
        _check(report, "matrices are symplectic and the differential is equivariant",
               not failures, failures=failures)
    return _finish(report)


# command: (handler, help line, what it needs, {flag: default}); a flag
# whose default is False is a switch, and every other flag takes a value
COMMANDS = {
    "validate": (cmd_validate, "parse and validate a document", "document", {}),
    "ginzburg": (cmd_ginzburg, "emit the dg presentation of the quiver with potential",
                 "document", {"--d": None, "--check": False}),
    "invariance": (cmd_invariance, "check the potential is fixed by the action", "document", {}),
    "reduce": (cmd_reduce, "emit the reduced quiver and its embedding", "document", {}),
    "transport": (cmd_transport, "move the potential onto the reduced quiver", "document", {}),
    "verify": (cmd_verify, "run the embedding, class, and dimension checks", "document",
               {"--max-len": None}),
    "weyl": (cmd_weyl, "filtered resolution and symplectic equivariance checks", "--n",
             {"--n": None, "--filtration": "2", "--matrices": None, "--field": "Q",
              "--cap": None}),
}


def _attr(flag):
    return flag.lstrip("-").replace("-", "_")


def _usage():
    """Each command's usage and help line, read off the table."""
    lines = ["usage: skewgin [--version] COMMAND ... (- reads the document from stdin)"]
    for command, (_, summary, need, flags) in COMMANDS.items():
        words = [flag if default is False else f"{flag} {default or _attr(flag).upper()}"
                 for flag, default in flags.items()]
        words = [word if word.split()[0] == need else f"[{word}]" for word in words]
        lines.append(" ".join(["  skewgin", command, *[need] * (need == "document"), *words]))
        lines.append(f"      {summary}")
    return "\n".join(lines)


def _parse(argv):
    """The namespace a handler reads, or None once help or the version is
    printed.  Flags go before or after the document, as --flag value or
    --flag=value; a malformed command line is refused at a location."""
    head = argv[0] if argv else None
    if head == "--version" or {"-h", "--help"} & set(argv):
        print(__version__ if head == "--version" else _usage(), flush=True)
        return None
    if head not in COMMANDS:
        got = "" if head is None else f", got {head!r}"
        raise SkewginError(f"expected a command: {', '.join(COMMANDS)}{got}", location="/command")
    func, _, need, flags = COMMANDS[head]
    args = types.SimpleNamespace(command=head, func=func, document=None,
                                 **{_attr(flag): default for flag, default in flags.items()})
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "-" or not token.startswith("-"):
            if need != "document" or args.document is not None:
                raise SkewginError(f"unexpected argument {token!r}", location="/")
            args.document = token
            continue
        flag, eq, value = token.partition("=")
        where = "/" + _attr(flag)
        if flag not in flags:
            raise SkewginError(f"unknown flag {flag}", location=where)
        if flags[flag] is False:  # a switch
            if eq:
                raise SkewginError(f"{flag} takes no value", location=where)
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None:
                raise SkewginError(f"expected a value after {flag}", location=where)
        setattr(args, _attr(flag), value)
    if getattr(args, _attr(need)) is None:
        raise SkewginError(f"missing {need}", location="/" + _attr(need))
    return args


def _run(argv) -> int:
    """The exit code of the command line argv.  A CheckFailed ends in a
    report naming the failure (exit 1), any other SkewginError in one
    listing its issues (exit 2)."""
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = _parse(argv)
        return 0 if args is None else args.func(args)
    except CheckFailed as exc:
        _emit({"version": __version__, "command": command, "ok": False,
               "failure": str(exc), "matrix_index": exc.matrix_index})
        return 1
    except SkewginError as exc:
        _emit({"version": __version__, "command": command, "ok": False,
               "errors": [{"location": ptr, "message": msg} for ptr, msg in exc.issues]})
        return 2


def main(argv=None) -> int:
    try:
        return _run(sys.argv[1:] if argv is None else list(argv))
    except BrokenPipeError:
        # stdout's reader has gone, so no report can reach it; stdout points
        # at the null device from here, so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
