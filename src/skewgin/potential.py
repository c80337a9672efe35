"""Potentials: cyclic-equivalence classes of cycles, and cyclic derivatives.

Rotating a cycle a.v (one arrow a followed by the rest v) to v.a carries
the Koszul sign (-1)^(deg a * deg v).  The canonical representative of an
orbit is the rotation with the least path word; a cycle whose orbit meets
itself with opposite signs is 2-torsion and canonicalises to zero.
"""

from __future__ import annotations

from .errors import SkewginError
from .quiver import AlgElement, Path, path_sort_key


def _rotations(quiver, cycle: Path):
    """All rotations of a cycle with the accumulated sign exponent (mod 2).

    Yields (word, sign_exponent) for each basepoint, starting with the
    cycle itself at exponent 0.  The final wrap-around exponent is also
    returned so callers can detect self-annihilating orbits.
    """
    names = cycle.arrows
    n = len(names)
    total_deg = quiver.path_degree(cycle)
    out = []
    exp = 0
    word = names
    src = cycle.source
    for _ in range(n):
        out.append((Path(src, word), exp))
        lead = quiver.arrow(word[0])
        exp = (exp + lead.deg * (total_deg - lead.deg)) % 2
        src = lead.tgt
        word = word[1:] + (word[0],)
    return out, exp


def least_rotation(cycle: Path) -> int:
    """The basepoint j of a cycle's canonical rotation, the first whose word
    arrows[j:] + arrows[:j] is least: rotations share their length, and
    equal words their source, so it is the first least by ``path_sort_key``."""
    arrows = cycle.arrows
    return min(range(len(arrows)), key=lambda j: arrows[j:] + arrows[:j])


class Potential:
    """Canonical form of a linear combination of cycles up to rotation."""

    __slots__ = ("quiver", "field", "terms")

    def __init__(self, quiver, field, canonical_terms=None):
        self.quiver = quiver
        self.field = field
        self.terms = dict(canonical_terms or {})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Potential):
            return NotImplemented
        return (self.quiver == other.quiver and self.field == other.field
                and self.terms == other.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: path_sort_key(kv[0]))

    def as_element(self) -> AlgElement:
        return AlgElement(self.quiver, self.field, self.terms)


def canonicalize(quiver, field, raw_terms) -> Potential:
    """Fold (coeff, cycle) pairs into the canonical potential.

    raw_terms iterates pairs (scalar, Path); every path must be a cycle.
    """
    pairs = []
    z = field.zero()
    for coeff, cycle in raw_terms:
        if not quiver.is_composable(cycle):
            raise SkewginError(f"path {cycle} is not composable")
        if not quiver.is_cycle(cycle):
            raise SkewginError(f"path {cycle} is not a cycle")
        if coeff == z:
            continue
        if not cycle.arrows:
            raise SkewginError("trivial paths are not potential cycles")
        rots, wrap_exp = _rotations(quiver, cycle)
        # a word revisited with opposite sign kills the whole orbit
        seen = {}
        dead = wrap_exp == 1
        for word, exp in rots:
            if word in seen and seen[word] != exp:
                dead = True
            seen[word] = exp
        if dead and field.characteristic() != 2:
            continue
        best, best_exp = rots[least_rotation(cycle)]
        signed = coeff if best_exp == 0 else field.neg(coeff)
        pairs.append((best, signed))
    return Potential(quiver, field, field.accumulate({}, pairs))


def cyclic_derivative(potential: Potential, arrow_name: str) -> AlgElement:
    """Derivative with respect to one arrow.

    Each rotation of each cycle that starts with the arrow contributes the
    rotation's sign times the remaining word.  With all arrow degrees zero
    this is exactly "sum over decompositions p = p1.a.p2 of p2.p1".
    """
    quiver = potential.quiver
    tgt = quiver.arrow(arrow_name).tgt
    return AlgElement(quiver, potential.field, (
        (Path(tgt, word.arrows[1:]), coeff if exp == 0 else -coeff)
        for cycle, coeff in potential.terms.items()
        for word, exp in _rotations(quiver, cycle)[0] if word.arrows[0] == arrow_name))


def degree_of(potential: Potential):
    """Common degree of all cycles; 0 for the empty potential; None if mixed."""
    if potential.is_zero():
        return 0
    degs = {potential.quiver.path_degree(p) for p in potential.terms}
    return degs.pop() if len(degs) == 1 else None


def cycle_length_of(potential: Potential):
    """Common arrow count of all cycles, or None if mixed; 0 when empty."""
    if potential.is_zero():
        return 0
    lens = {len(p.arrows) for p in potential.terms}
    return lens.pop() if len(lens) == 1 else None
