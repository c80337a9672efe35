"""Finite group actions on graded quivers and their extension to the
doubled presentation.

An action stores, per group element, a vertex permutation and the image of
every arrow as a combination of arrows between the permuted endpoints.
Dual generators transform by the inverse-transpose of the arrow-space
matrices, each block inverted once per group element by
``extend_to_ginzburg``: for permutation-type actions this agrees with
transporting stars along the arrow rule, and it keeps the loop
differentials equivariant for arbitrary invertible actions because
sum_a a (x) a* is preserved.  The equivariance report surfaces any
residual failure rather than hiding it.
"""

from __future__ import annotations

from .errors import CheckFailed
from .ginzburg import GinzburgPresentation, loop_name, star_name
from .linalg import invert_matrix
from .potential import Potential, canonicalize
from .quiver import AlgElement, GradedQuiver, Path


class QuiverAction:
    """Per-element vertex permutations plus arrow-space images."""

    def __init__(self, group, quiver: GradedQuiver, field, vertex_perms, arrow_images):
        self.group = group
        self.quiver = quiver
        self.field = field
        # vertex_perms[g] : dict vertex -> vertex
        self.vertex_perms = vertex_perms
        # arrow_images[g] : dict arrow name -> AlgElement (combination of arrows)
        self.arrow_images = arrow_images
        self._path_cache = {}
        self._cleared_cache = {}

    @classmethod
    def trivial(cls, group, quiver, field):
        perms = [ {v: v for v in quiver.vertices} for _ in group.elements() ]
        images = [ {a.name: AlgElement.from_arrow(quiver, field, a.name)
                    for a in quiver.arrows} for _ in group.elements() ]
        return cls(group, quiver, field, perms, images)

    def act_vertex(self, g: int, vertex: str) -> str:
        return self.vertex_perms[g][vertex]

    def act_path(self, g: int, path: Path) -> AlgElement:
        """The left fold e_{g(source)} * g(a1) * ... * g(ak), cached.

        A new image is the cached image of its longest cached proper
        prefix times one arrow image per remaining arrow, and every prefix
        it passes is cached too, so each (g, prefix) is folded once.
        """
        cache = self._path_cache
        cached = cache.get((g, path))
        if cached is not None:
            return cached
        source, arrows = path.source, path.arrows
        done = len(arrows) - 1
        while done >= 0 and (out := cache.get((g, Path(source, arrows[:done])))) is None:
            done -= 1
        if done < 0:
            done = 0
            out = AlgElement.from_path(self.quiver, self.field,
                                       self.quiver.trivial_path(self.act_vertex(g, source)))
            cache[(g, Path(source, ()))] = out
        images = self.arrow_images[g]
        for k in range(done, len(arrows)):
            out = out * images[arrows[k]]
            cache[(g, Path(source, arrows[:k + 1]))] = out
        return out

    def cleared_image(self, g: int, path: Path):
        """``Field.scaled`` of act_path(g, path), cleared once and cached.

        Returns (den, [(r, int)]): every path r of the image starts at the
        vertex g(source), so one look at the first r tells whether a path
        composes with the image.  The list is shared by every caller and is
        never rescaled in place; a caller that needs another denominator
        scales its own sums or factors instead.
        """
        key = (g, path)
        cleared = self._cleared_cache.get(key)
        if cleared is None:
            cleared = self._cleared_cache[key] = self.field.scaled(
                self.act_path(g, path).terms.items())
        return cleared

    def act(self, g: int, x: AlgElement) -> AlgElement:
        return AlgElement(self.quiver, self.field, (
            (r, coeff * c) for path, coeff in x.terms.items()
            for r, c in self.act_path(g, path).terms.items()))

    def act_potential(self, g: int, w: Potential) -> Potential:
        moved = self.act(g, w.as_element())
        return canonicalize(self.quiver, self.field,
                            [(c, p) for p, c in moved.terms.items()])

    # -- block matrices --

    def block_matrix(self, g: int, src: str, tgt: str):
        """Matrix of the g-action from the (src, tgt) arrow space.

        Column k holds the coordinates of the image of the k-th source
        arrow in the target block's arrow basis.
        """
        cols = self.quiver.arrows_between(src, tgt)
        rows = self.quiver.arrows_between(self.act_vertex(g, src), self.act_vertex(g, tgt))
        f = self.field
        mat = [[f.zero()] * len(cols) for _ in rows]
        row_pos = {name: i for i, name in enumerate(rows)}
        for k, name in enumerate(cols):
            image = self.arrow_images[g][name]
            for p, c in image.terms.items():
                mat[row_pos[p.arrows[0]]][k] = c
        return mat, cols, rows


def validate_action(action: QuiverAction):
    """Exhaustive structural checks; returns a list of failure strings."""
    report = []
    G, quiver, field = action.group, action.quiver, action.field
    vertices = set(quiver.vertices)
    for g in G.elements():
        perm = action.vertex_perms[g]
        if set(perm) != vertices or set(perm.values()) != vertices:
            report.append(f"element {G.names[g]}: vertex map is not a permutation")
            return report
    ident = G.identity
    if any(action.vertex_perms[ident][v] != v for v in vertices):
        report.append("identity element moves a vertex")
    for a in quiver.arrows:
        img = action.arrow_images[ident].get(a.name)
        if img != AlgElement.from_arrow(quiver, field, a.name):
            report.append(f"identity element does not fix arrow {a.name}")
    # block compatibility and degree preservation
    for g in G.elements():
        for a in quiver.arrows:
            img = action.arrow_images[g].get(a.name)
            if img is None or img.is_zero():
                report.append(f"element {G.names[g]}: no image for arrow {a.name}")
                continue
            want_src = action.act_vertex(g, a.src)
            want_tgt = action.act_vertex(g, a.tgt)
            for p, _ in img.terms.items():
                if len(p.arrows) != 1:
                    report.append(f"element {G.names[g]}: image of {a.name} is not an arrow combination")
                    continue
                b = quiver.arrow(p.arrows[0])
                if (b.src, b.tgt) != (want_src, want_tgt):
                    report.append(
                        f"element {G.names[g]}: image of {a.name} hits {b.name}: "
                        f"{b.src}->{b.tgt}, expected {want_src}->{want_tgt}")
                if b.deg != a.deg:
                    report.append(
                        f"element {G.names[g]}: image of {a.name} changes degree "
                        f"{a.deg} -> {b.deg}")
    if report:
        return report
    # invertibility of every block
    for g in G.elements():
        for src in quiver.vertices:
            for tgt in quiver.vertices:
                cols = quiver.arrows_between(src, tgt)
                if not cols:
                    continue
                mat, _, rows = action.block_matrix(g, src, tgt)
                if len(rows) != len(cols) or invert_matrix(field, mat) is None:
                    report.append(
                        f"element {G.names[g]}: arrow-space map on block "
                        f"({src},{tgt}) is not invertible")
    # homomorphism on vertices and arrows
    for g in G.elements():
        for h in G.elements():
            gh = G.mul(g, h)
            for v in quiver.vertices:
                if action.act_vertex(gh, v) != action.act_vertex(g, action.act_vertex(h, v)):
                    report.append(
                        f"vertex action of {G.names[g]}*{G.names[h]} differs from the composite")
            for a in quiver.arrows:
                lhs = action.arrow_images[gh][a.name]
                rhs = action.act(g, action.arrow_images[h][a.name])
                if lhs != rhs:
                    report.append(
                        f"arrow action of {G.names[g]}*{G.names[h]} differs from the "
                        f"composite on {a.name}")
    return report


def is_potential_invariant(w: Potential, action: QuiverAction) -> bool:
    return all(action.act_potential(g, w) == w for g in action.group.elements())


def extend_to_ginzburg(action: QuiverAction, presentation: GinzburgPresentation):
    """Extend the action to the doubled quiver and check d-equivariance.

    Returns (extended action, report).  Raises CheckFailed when the
    potential is not fixed by the action, and ValueError on an arrow block
    that is not invertible.
    """
    if not is_potential_invariant(presentation.potential, action):
        raise CheckFailed("the potential is not fixed by the group action")
    G, field = action.group, action.field
    quiver, doubled = action.quiver, presentation.doubled

    vertex_perms = [dict(action.vertex_perms[g]) for g in G.elements()]
    arrow_images = []
    for g in G.elements():
        images = {a.name: AlgElement(doubled, field, action.arrow_images[g][a.name].terms)
                  for a in quiver.arrows}
        # the dual of the k-th arrow of a block moves by the inverse-transpose
        # of the block matrix: row k of the block's one inverse
        for src, tgt in dict.fromkeys((a.src, a.tgt) for a in quiver.arrows):
            mat, cols, rows = action.block_matrix(g, src, tgt)
            inv = invert_matrix(field, mat)
            if inv is None:
                raise ValueError("non-invertible arrow block; validate the action first")
            start = action.act_vertex(g, tgt)
            for k, name in enumerate(cols):
                images[star_name(name)] = AlgElement(doubled, field, (
                    (Path(start, (star_name(row),)), inv[k][t]) for t, row in enumerate(rows)))
        for v in quiver.vertices:
            images[loop_name(v)] = AlgElement.from_arrow(
                doubled, field, loop_name(action.act_vertex(g, v)))
        arrow_images.append(images)

    extended = QuiverAction(G, doubled, field, vertex_perms, arrow_images)
    report = []
    for g in G.elements():
        for gen in presentation.generators():
            lhs = extended.act(g, presentation.diff_of(gen))
            gen_image = extended.arrow_images[g][gen]
            rhs = presentation.apply_differential(gen_image)
            if lhs != rhs:
                report.append((gen, G.names[g], rhs - lhs))
    return extended, report
