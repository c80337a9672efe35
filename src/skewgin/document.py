"""Declarative JSON problem documents: parsing, validation with positioned
errors, and construction of the working objects.

All scalar values in a document are strings ("2", "-1/3", residues for a
prime field) so no number-precision ambiguity can creep in.  Validation
reports JSON-pointer style locations.
"""

from __future__ import annotations

import json
import re

from .action import QuiverAction
from .errors import (NonPrimeModulus, NotACycle, ParseError, SkewginError,
                     ValidationError)
from .fields import make_field
from .ginzburg import loop_name, star_name
from .groups import make_group
from .potential import canonicalize
from .quiver import AlgElement, GradedQuiver


DEFAULT_OPTIONS = {"max_len": 4}


class ProblemDocument:
    def __init__(self, field, quiver, potential, d, group, action,
                 idempotents, options, differential_override, reduced_potential):
        self.field = field
        self.quiver = quiver
        self.potential = potential          # Potential or None
        self.d = d
        self.group = group                  # FiniteGroup or None
        self.action = action                # QuiverAction or None
        self.idempotents = idempotents      # (vectors, dims) or None
        self.options = options
        self.differential_override = differential_override  # raw or None
        self.reduced_potential = reduced_potential          # raw or None


def _is_int(value) -> bool:
    """A JSON integer: true and false are bools, not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_str_list(value, pointer, issues):
    """A nonempty list of distinct strings: vertex or group element names."""
    if not isinstance(value, list) or not value or not all(isinstance(v, str) for v in value):
        issues.append((pointer, "expected a nonempty list of strings"))
        return False
    duplicates = sorted({v for v in value if value.count(v) > 1})
    if duplicates:
        issues.append((pointer, f"duplicate names {duplicates}"))
        return False
    return True


def parse(text: str) -> ProblemDocument:
    """Parse and fully validate a problem document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("the document must be a JSON object")
    issues = []

    field = None
    if "field" not in raw:
        issues.append(("/field", "missing"))
    else:
        spec = raw["field"]
        if isinstance(spec, dict):
            spec = spec.get("p")
        try:
            field = make_field(spec)
        except NonPrimeModulus as exc:
            issues.append(("/field", str(exc)))
    if field is None:
        raise ValidationError(issues)

    quiver = None
    qraw = raw.get("quiver")
    if not isinstance(qraw, dict):
        issues.append(("/quiver", "missing or not an object"))
    else:
        vertices = qraw.get("vertices", [])
        arrows_raw = qraw.get("arrows", [])
        ok = _check_str_list(vertices, "/quiver/vertices", issues)
        arrows = []
        if not isinstance(arrows_raw, list):
            issues.append(("/quiver/arrows", "expected a list"))
            ok = False
        elif ok:
            names = set()
            for i, a in enumerate(arrows_raw):
                where = f"/quiver/arrows/{i}"
                if not isinstance(a, dict):
                    issues.append((where, "expected an object"))
                    ok = False
                    continue
                name, src, tgt = a.get("name"), a.get("src"), a.get("tgt")
                deg = a.get("deg", 0)
                if not isinstance(name, str) or not name:
                    issues.append((where + "/name", "expected a nonempty string"))
                    ok = False
                    continue
                if name in names:
                    issues.append((where + "/name", f"duplicate arrow name {name!r}"))
                    ok = False
                names.add(name)
                if src not in vertices:
                    issues.append((where + "/src", f"unknown vertex {src!r}"))
                    ok = False
                if tgt not in vertices:
                    issues.append((where + "/tgt", f"unknown vertex {tgt!r}"))
                    ok = False
                if not _is_int(deg):
                    issues.append((where + "/deg", "expected an integer"))
                    ok = False
                if ok:
                    arrows.append((name, src, tgt, deg))
        if ok:
            # the doubled quiver adds a dual per arrow and a loop per vertex
            generated = {star_name(name): f"the dual of arrow {name!r}" for name in names}
            generated.update((loop_name(v), f"the loop at vertex {v!r}") for v in vertices)
            for i, (name, *_) in enumerate(arrows):
                if name in generated:
                    issues.append((f"/quiver/arrows/{i}/name",
                                   f"{name!r} is {generated[name]} in the doubled quiver"))
                    ok = False
        if ok:
            quiver = GradedQuiver(vertices, arrows)
    if quiver is None:
        raise ValidationError(issues)

    potential = _parse_potential(raw.get("potential"), "/potential", quiver, field, issues)

    d = raw.get("d", 3)
    if not isinstance(d, int) or d < 3:
        issues.append(("/d", "expected an integer >= 3"))
        d = 3

    group = None
    idempotents = None
    graw = raw.get("group")
    if graw is not None:
        if not isinstance(graw, dict):
            issues.append(("/group", "expected an object"))
        else:
            elements = graw.get("elements", [])
            table = graw.get("table", [])
            if _check_str_list(elements, "/group/elements", issues):
                try:
                    group = make_group(elements, table)
                except SkewginError as exc:
                    issues.append(("/group/table", str(exc)))
            p = field.characteristic()
            if group is not None and p and group.size % p == 0:
                issues.append(("/group", f"the field characteristic {p} divides "
                                         f"the group order {group.size}"))
                group = None
            iraw = graw.get("idempotents")
            if iraw is not None and group is not None:
                idempotents = _parse_idempotents(iraw, "/group/idempotents",
                                                 group, field, issues)

    action = None
    araw = raw.get("action")
    if araw is not None:
        if group is None:
            issues.append(("/action", "an action needs a group"))
        elif not isinstance(araw, dict):
            issues.append(("/action", "expected an object keyed by group elements"))
        else:
            action = _parse_action(araw, quiver, field, group, issues)

    options = dict(DEFAULT_OPTIONS)
    oraw = raw.get("options", {})
    if not isinstance(oraw, dict):
        issues.append(("/options", "expected an object"))
    else:
        for key in DEFAULT_OPTIONS:
            if key in oraw:
                if not _is_int(oraw[key]) or oraw[key] < 0:
                    issues.append((f"/options/{key}", "expected a nonnegative integer"))
                else:
                    options[key] = oraw[key]

    differential_override = raw.get("differential_override")
    if differential_override is not None:
        if not isinstance(differential_override, dict):
            issues.append(("/differential_override", "expected an object keyed by generators"))
        else:
            for gen, terms in differential_override.items():
                _check_terms(terms, f"/differential_override/{gen}", "path", issues)

    reduced_potential = raw.get("reduced_potential")
    if reduced_potential is not None:
        _check_terms(reduced_potential, "/reduced_potential", "cycle", issues)

    if issues:
        raise ValidationError(issues)
    return ProblemDocument(field, quiver, potential, d, group, action,
                           idempotents, options, differential_override, reduced_potential)


def _check_terms(terms, where, arrows_key, issues):
    """The shape of override terms: a list of objects, each with a nonempty
    list of arrow names under arrows_key and, if given, a string coeff.
    The names are resolved where the quiver they live on is built."""
    if not isinstance(terms, list):
        issues.append((where, "expected a list of terms"))
        return
    for i, term in enumerate(terms):
        here = f"{where}/{i}"
        if not isinstance(term, dict):
            issues.append((here, "expected an object"))
            continue
        names = term.get(arrows_key)
        if not isinstance(names, list) or not names or not all(isinstance(n, str) for n in names):
            issues.append((f"{here}/{arrows_key}", "expected a nonempty list of arrow names"))
        if not isinstance(term.get("coeff", "1"), str):
            issues.append((f"{here}/coeff", "expected a scalar string"))


def _parse_potential(praw, where, quiver, field, issues):
    if praw is None:
        return None
    if not isinstance(praw, list):
        issues.append((where, "expected a list of terms"))
        return None
    terms = []
    ok = True
    for i, term in enumerate(praw):
        here = f"{where}/{i}"
        if not isinstance(term, dict):
            issues.append((here, "expected an object"))
            ok = False
            continue
        coeff_raw = term.get("coeff", "1")
        cycle = term.get("cycle")
        try:
            coeff = field.parse(coeff_raw)
        except Exception:
            issues.append((here + "/coeff", f"cannot parse scalar {coeff_raw!r}"))
            ok = False
            continue
        if not isinstance(cycle, list) or not cycle:
            issues.append((here + "/cycle", "expected a nonempty list of arrow names"))
            ok = False
            continue
        bad = False
        for j, name in enumerate(cycle):
            if not isinstance(name, str) or name not in quiver.arrow_by_name:
                issues.append((f"{here}/cycle/{j}", f"unknown arrow {name!r}"))
                bad = True
        if bad:
            ok = False
            continue
        try:
            path = quiver.path(cycle)
        except ValueError:
            issues.append((here + "/cycle", "arrows do not compose"))
            ok = False
            continue
        if not quiver.is_cycle(path):
            issues.append((here + "/cycle", "path is not closed"))
            ok = False
            continue
        terms.append((coeff, path))
    if not ok:
        return None
    try:
        return canonicalize(quiver, field, terms)
    except NotACycle as exc:  # pragma: no cover - guarded above
        issues.append((where, str(exc)))
        return None


def _parse_idempotents(iraw, where, group, field, issues):
    if not isinstance(iraw, dict):
        issues.append((where, "expected an object with vectors and dims"))
        return None
    vectors_raw = iraw.get("vectors")
    dims = iraw.get("dims")
    if not isinstance(vectors_raw, list) or not vectors_raw:
        issues.append((where + "/vectors", "expected a nonempty list of rows"))
        return None
    if not isinstance(dims, list) or len(dims) != len(vectors_raw) \
            or not all(_is_int(v) and v >= 1 for v in dims):
        issues.append((where + "/dims", "expected one positive integer per vector"))
        return None
    vectors = []
    for i, row in enumerate(vectors_raw):
        if not isinstance(row, list) or len(row) != group.size:
            issues.append((f"{where}/vectors/{i}", f"expected {group.size} entries"))
            return None
        try:
            vectors.append([field.parse(v) for v in row])
        except Exception:
            issues.append((f"{where}/vectors/{i}", "cannot parse a scalar entry"))
            return None
    return vectors, dims


_BLOCK_KEY = re.compile(r"^\((.+),(.+)\)$")


def _parse_action(araw, quiver, field, group, issues):
    """Per-element (or generator) maps, completed by composition."""
    given = {}
    ok = True
    for key, spec in araw.items():
        where = f"/action/{key}"
        try:
            g = group.index_of(key)
        except ValueError:
            issues.append((where, f"unknown group element {key!r}"))
            ok = False
            continue
        if not isinstance(spec, dict):
            issues.append((where, "expected an object"))
            ok = False
            continue
        perm_raw = spec.get("vertex_perm", {})
        perm = {v: v for v in quiver.vertices}
        if not isinstance(perm_raw, dict):
            issues.append((where + "/vertex_perm", "expected an object"))
            ok = False
            continue
        for src, tgt in perm_raw.items():
            if src not in quiver.vertices or tgt not in quiver.vertices:
                issues.append((where + "/vertex_perm", f"unknown vertex in {src!r}: {tgt!r}"))
                ok = False
            else:
                perm[src] = tgt
        if sorted(perm.values()) != sorted(quiver.vertices):
            issues.append((where + "/vertex_perm", "not a permutation"))
            ok = False
            continue
        matrices_raw = spec.get("arrow_matrices", {})
        if not isinstance(matrices_raw, dict):
            issues.append((where + "/arrow_matrices", "expected an object"))
            ok = False
            continue
        images = {}
        for block_key, mat in matrices_raw.items():
            m = _BLOCK_KEY.match(block_key)
            if not m:
                issues.append((where + f"/arrow_matrices/{block_key}",
                               "expected a key of the form (src,tgt)"))
                ok = False
                continue
            src, tgt = m.group(1).strip(), m.group(2).strip()
            cols = sorted(a.name for a in quiver.arrows if a.src == src and a.tgt == tgt)
            rows = sorted(a.name for a in quiver.arrows
                          if a.src == perm.get(src) and a.tgt == perm.get(tgt))
            if not cols:
                issues.append((where + f"/arrow_matrices/{block_key}",
                               f"no arrows {src} -> {tgt}"))
                ok = False
                continue
            if (not isinstance(mat, list) or len(mat) != len(rows)
                    or any(not isinstance(r, list) or len(r) != len(cols) for r in mat)):
                issues.append((where + f"/arrow_matrices/{block_key}",
                               f"expected a {len(rows)}x{len(cols)} matrix"))
                ok = False
                continue
            try:
                entries = [[field.parse(v) for v in r] for r in mat]
            except Exception:
                issues.append((where + f"/arrow_matrices/{block_key}",
                               "cannot parse a matrix entry"))
                ok = False
                continue
            for k, col_name in enumerate(cols):
                el = AlgElement.zero(quiver, field)
                for t, row_name in enumerate(rows):
                    if entries[t][k] != field.zero():
                        el = el + AlgElement.from_arrow(quiver, field, row_name, entries[t][k])
                images[col_name] = el
        # blocks that stay in place and were not listed default to identity
        for a in quiver.arrows:
            if a.name in images:
                continue
            if perm[a.src] == a.src and perm[a.tgt] == a.tgt:
                images[a.name] = AlgElement.from_arrow(quiver, field, a.name)
            else:
                issues.append((where + "/arrow_matrices",
                               f"missing matrix for block ({a.src},{a.tgt})"))
                ok = False
        if ok:
            given[g] = (perm, images)
    if not ok:
        return None

    ident = group.identity
    if ident not in given:
        given[ident] = ({v: v for v in quiver.vertices},
                        {a.name: AlgElement.from_arrow(quiver, field, a.name)
                         for a in quiver.arrows})

    # complete by composition so generators suffice
    changed = True
    while changed:
        changed = False
        for g in list(given):
            for h in list(given):
                gh = group.mul(g, h)
                if gh in given:
                    continue
                perm_g, img_g = given[g]
                perm_h, img_h = given[h]
                perm = {v: perm_g[perm_h[v]] for v in quiver.vertices}
                images = {}
                for a in quiver.arrows:
                    acc = AlgElement.zero(quiver, field)
                    for p, c in img_h[a.name].terms.items():
                        acc = acc + img_g[p.arrows[0]].scale(c)
                    images[a.name] = acc
                given[gh] = (perm, images)
                changed = True
    missing = [group.names[g] for g in group.elements() if g not in given]
    if missing:
        issues.append(("/action", f"elements not generated by the given maps: {missing}"))
        return None
    perms = [given[g][0] for g in group.elements()]
    images = [given[g][1] for g in group.elements()]
    return QuiverAction(group, quiver, field, perms, images)
