"""Declarative JSON problem documents: parsing, validation with positioned
errors, and construction of the working objects.

All scalar values in a document are strings ("2", "-1/3", residues for a
prime field) so no number-precision ambiguity can creep in.  Validation
reports JSON-pointer style locations.

Every reader here appends (location, message) pairs to a shared issues
list, and its result counts only if it appended none.  Every scalar is read
by fields.read_scalar and every matrix of scalars by fields.read_matrix, so
each bad entry is refused at its own location with one of two messages.
"""

from __future__ import annotations

import re

from .action import QuiverAction
from .errors import SkewginError, ValidationError
from .fields import make_field, read_json, read_matrix, read_scalar
from .ginzburg import double_quiver, loop_name, star_name
from .groups import make_group
from .potential import canonicalize, degree_of
from .quiver import AlgElement, GradedQuiver, Path


class ProblemDocument:
    def __init__(self, field, quiver, potential, d, group, action,
                 idempotents, max_len, differential_override, reduced_potential):
        self.field = field
        self.quiver = quiver
        self.potential = potential          # Potential or None
        self.d = d
        self.group = group                  # FiniteGroup or None
        self.action = action                # QuiverAction or None
        self.idempotents = idempotents      # (vectors, dims) or None
        self.max_len = max_len              # verify's default length bound
        # generator -> (path, coeff) pairs on the doubled quiver, or None
        self.differential_override = differential_override
        # (location, arrow names, coeff) triples read but not yet resolved:
        # the names are arrows of the reduced quiver (resolve_terms), or None
        self.reduced_potential = reduced_potential


def _is_int(value) -> bool:
    """A JSON integer of at most 18 digits: true and false are bools, not
    integers, and a longer integer is refused where it stands, so every
    sum and message formed from document integers stays short."""
    return isinstance(value, int) and not isinstance(value, bool) and -10 ** 18 < value < 10 ** 18


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


def parse(text) -> ProblemDocument:
    """Parse and fully validate a problem document, a str or UTF-8 bytes."""
    raw = read_json(text, "not valid JSON")
    if not isinstance(raw, dict):
        raise SkewginError("the document must be a JSON object")
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
        except SkewginError as exc:
            issues.append(("/field", str(exc)))
    if field is None:
        raise ValidationError(issues)

    quiver = None
    qraw = raw.get("quiver")
    if not isinstance(qraw, dict):
        issues.append(("/quiver", "missing or not an object"))
    else:
        # no issue is recorded before this section: a bad field raises
        vertices = qraw.get("vertices", [])
        arrows_raw = qraw.get("arrows", [])
        _check_str_list(vertices, "/quiver/vertices", issues)
        arrows = []
        if not isinstance(arrows_raw, list):
            issues.append(("/quiver/arrows", "expected a list"))
        elif not issues:
            names = set()
            for i, a in enumerate(arrows_raw):
                where = f"/quiver/arrows/{i}"
                if not isinstance(a, dict):
                    issues.append((where, "expected an object"))
                    continue
                name, src, tgt = a.get("name"), a.get("src"), a.get("tgt")
                deg = a.get("deg", 0)
                if not isinstance(name, str) or not name:
                    issues.append((where + "/name", "expected a nonempty string"))
                    continue
                if name in names:
                    issues.append((where + "/name", f"duplicate arrow name {name!r}"))
                names.add(name)
                if src not in vertices:
                    issues.append((where + "/src", f"unknown vertex {src!r}"))
                if tgt not in vertices:
                    issues.append((where + "/tgt", f"unknown vertex {tgt!r}"))
                if not _is_int(deg):
                    issues.append((where + "/deg", "expected an integer"))
                arrows.append((name, src, tgt, deg))
        if not issues:
            # the doubled quiver adds a dual per arrow and a loop per vertex
            generated = {star_name(name): f"the dual of arrow {name!r}" for name in names}
            generated.update((loop_name(v), f"the loop at vertex {v!r}") for v in vertices)
            for i, (name, *_) in enumerate(arrows):
                if name in generated:
                    issues.append((f"/quiver/arrows/{i}/name",
                                   f"{name!r} is {generated[name]} in the doubled quiver"))
        if not issues:
            quiver = GradedQuiver(vertices, arrows)
    if quiver is None:
        raise ValidationError(issues)

    praw = raw.get("potential")
    pairs = None if praw is None else resolve_terms(
        _read_terms(praw, "/potential", "cycle", field, issues), quiver, issues)
    potential = None if pairs is None else canonicalize(
        quiver, field, ((coeff, path) for path, coeff in pairs))

    d = raw.get("d", 3)
    check_d(d, potential, issues)

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

    oraw = raw.get("options", {})
    if not isinstance(oraw, dict):
        issues.append(("/options", "expected an object"))
        oraw = {}
    max_len = oraw.get("max_len", 4)
    if not _is_int(max_len) or max_len < 0:
        issues.append(("/options/max_len", "expected a nonnegative integer"))

    differential_override = None
    override_raw = raw.get("differential_override")
    if override_raw is not None and not isinstance(override_raw, dict):
        issues.append(("/differential_override", "expected an object keyed by generators"))
    elif override_raw is not None:
        # a* reverses a and c_v is a loop at v whatever d is, and paths
        # carry no degree, so the paths of the d = 3 double serve every d
        doubled, differential_override = double_quiver(quiver, 3), {}
        for gen, terms in override_raw.items():
            where = f"/differential_override/{gen}"
            read = _read_terms(terms, where, "path", field, issues)
            arrow = doubled.arrow_by_name.get(gen)
            if arrow is None:
                issues.append((where, "unknown generator"))
            else:
                differential_override[gen] = resolve_terms(read, doubled, issues, along=arrow)

    # named on the reduced quiver, so resolved only once verify has built it
    rraw = raw.get("reduced_potential")
    reduced_potential = None if rraw is None else _read_terms(
        rraw, "/reduced_potential", "cycle", field, issues)

    if issues:
        raise ValidationError(issues)
    return ProblemDocument(field, quiver, potential, d, group, action,
                           idempotents, max_len, differential_override, reduced_potential)


def check_d(d, potential, issues):
    """Refuse at /d a CY dimension d that is not an integer >= 3, or that
    a nonzero potential, homogeneous of degree 3 - d, does not fit."""
    if not _is_int(d) or d < 3:
        issues.append(("/d", "expected an integer >= 3"))
    elif (potential is not None and not potential.is_zero()
          and (w_deg := degree_of(potential)) != 3 - d):
        issues.append(("/d", f"potential degree {w_deg} != 3 - d = {3 - d}"))


def _read_terms(raw, where, key, field, issues):
    """Terms {"coeff": scalar string, key: [arrow names]} as (location of
    the names, names, coeff) triples.  The names are resolved by
    resolve_terms on the quiver they live on."""
    if not isinstance(raw, list):
        issues.append((where, "expected a list of terms"))
        return None
    start, terms = len(issues), []
    for i, term in enumerate(raw):
        here = f"{where}/{i}"
        if not isinstance(term, dict):
            issues.append((here, "expected an object"))
            continue
        coeff = read_scalar(term.get("coeff", "1"), here + "/coeff", field, issues)
        names = term.get(key)
        if not isinstance(names, list) or not names:
            issues.append((f"{here}/{key}", "expected a nonempty list of arrow names"))
            continue
        for j, name in enumerate(names):
            if not isinstance(name, str):
                issues.append((f"{here}/{key}/{j}", f"expected an arrow name, got {name!r}"))
        terms.append((f"{here}/{key}", tuple(names), coeff))
    return terms if len(issues) == start else None


def resolve_terms(terms, quiver, issues, along=None):
    """(path, coeff) pairs of read terms on quiver, or None when terms is
    None: every name must be an arrow of quiver, the arrows must compose,
    and the path must be a cycle, or run from the source to the target of
    the arrow along when one is given."""
    if terms is None:
        return None
    start, pairs = len(issues), []
    for where, names, coeff in terms:
        unknown = [j for j, name in enumerate(names) if name not in quiver.arrow_by_name]
        for j in unknown:
            issues.append((f"{where}/{j}", f"unknown arrow {names[j]!r}"))
        if unknown:
            continue
        path = Path(quiver.arrow_by_name[names[0]].src, names)
        ends = (path.source, quiver.path_target(path))
        if not quiver.is_composable(path):
            problem = "arrows do not compose"
        elif along is None:
            problem = None if ends[0] == ends[1] else "path is not closed"
        else:
            problem = None if ends == (along.src, along.tgt) else (
                f"the path runs {ends[0]} -> {ends[1]}, "
                f"but {along.name} runs {along.src} -> {along.tgt}")
        if problem:
            issues.append((where, problem))
        pairs.append((path, coeff))
    return pairs if len(issues) == start else None


def _parse_idempotents(iraw, where, group, field, issues):
    if not isinstance(iraw, dict):
        issues.append((where, "expected an object with vectors and dims"))
        return None
    start = len(issues)
    vectors = read_matrix(iraw.get("vectors"), where + "/vectors", None, group.size,
                          field, issues)
    dims = iraw.get("dims")
    if (not isinstance(dims, list) or vectors is not None and len(dims) != len(vectors)
            or not all(_is_int(v) and v >= 1 for v in dims)):
        issues.append((where + "/dims", "expected one positive integer per vector"))
    return (vectors, dims) if len(issues) == start else None


_BLOCK_KEY = re.compile(r"^\((.+),(.+)\)$")


def _parse_action(araw, quiver, field, group, issues):
    """Per-element (or generator) maps, completed by composition."""
    given = {}
    start = len(issues)
    for key, spec in araw.items():
        where = f"/action/{key}"
        try:
            g = group.index_of(key)
        except ValueError:
            issues.append((where, f"unknown group element {key!r}"))
            continue
        if not isinstance(spec, dict):
            issues.append((where, "expected an object"))
            continue
        perm_raw = spec.get("vertex_perm", {})
        perm = {v: v for v in quiver.vertices}
        if not isinstance(perm_raw, dict):
            issues.append((where + "/vertex_perm", "expected an object"))
            continue
        for src, tgt in perm_raw.items():
            if src not in quiver.vertices or tgt not in quiver.vertices:
                issues.append((where + "/vertex_perm", f"unknown vertex in {src!r}: {tgt!r}"))
            else:
                perm[src] = tgt
        if sorted(perm.values()) != sorted(quiver.vertices):
            issues.append((where + "/vertex_perm", "not a permutation"))
            continue
        matrices_raw = spec.get("arrow_matrices", {})
        if not isinstance(matrices_raw, dict):
            issues.append((where + "/arrow_matrices", "expected an object"))
            continue
        images, listed = {}, set()
        for block_key, mat in matrices_raw.items():
            block = where + f"/arrow_matrices/{block_key}"
            m = _BLOCK_KEY.match(block_key)
            if not m:
                issues.append((block, "expected a key of the form (src,tgt)"))
                continue
            src, tgt = m.group(1).strip(), m.group(2).strip()
            cols = quiver.arrows_between(src, tgt)
            rows = quiver.arrows_between(perm.get(src), perm.get(tgt))
            if not cols:
                issues.append((block, f"no arrows {src} -> {tgt}"))
                continue
            listed.update(cols)
            entries = read_matrix(mat, block, len(rows), len(cols), field, issues)
            if entries is None:
                continue
            for k, col_name in enumerate(cols):
                images[col_name] = AlgElement(quiver, field, (
                    (Path(perm[src], (row_name,)), entries[t][k])
                    for t, row_name in enumerate(rows)))
        # blocks that stay in place and were not listed default to identity;
        # a listed block that was refused has its issue already
        for a in quiver.arrows:
            if a.name in listed:
                continue
            if perm[a.src] == a.src and perm[a.tgt] == a.tgt:
                images[a.name] = AlgElement.from_arrow(quiver, field, a.name)
            else:
                issues.append((where + "/arrow_matrices",
                               f"missing matrix for block ({a.src},{a.tgt})"))
        given[g] = (perm, images)
    if len(issues) != start:
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
                images = {a.name: AlgElement(quiver, field, (
                    (r, c * cr) for p, c in img_h[a.name].terms.items()
                    for r, cr in img_g[p.arrows[0]].terms.items()))
                    for a in quiver.arrows}
                given[gh] = (perm, images)
                changed = True
    missing = [group.names[g] for g in group.elements() if g not in given]
    if missing:
        issues.append(("/action", f"elements not generated by the given maps: {missing}"))
        return None
    perms = [given[g][0] for g in group.elements()]
    images = [given[g][1] for g in group.elements()]
    return QuiverAction(group, quiver, field, perms, images)
