"""Exact field arithmetic over the rationals and prime fields GF(p).

Scalars are plain Python values: ``fractions.Fraction`` for the rationals
and canonical residues ``int`` in ``[0, p)`` for GF(p).  A ``Field`` object
supplies the arithmetic, so equality of scalars is bit-exact comparison of
canonical forms.  Everything here is immutable and pure.

Hot loops run on plain ints instead (the scaled-integer convention):
``Field.scaled`` writes scalars as integers over one common denominator
(the least common denominator over Q, 1 over GF(p)), the loop adds and
multiplies those integers with no reduction, and ``Field.unscale`` turns
the integer sums back into canonical scalars, one per key.  The crossed
product, the commutators and certificate re-expansion of ``crossed.py``
(each action image cleared once, by ``QuiverAction.cleared_image``),
``LinSolver`` and the Weyl checks of ``weyl.py`` follow this convention;
the Weyl resolution has integer coefficients to begin with, so only its
symplectic matrices need clearing.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from .errors import NonPrimeModulus, NoRootOfUnity

_SCALAR = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """The rationals (``p is None``) or GF(p) for a prime p."""

    def __init__(self, p: int | None = None):
        if p is not None and not _is_prime(p):
            raise NonPrimeModulus(f"modulus {p} is not prime")
        self.p = p

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    def characteristic(self) -> int:
        return 0 if self.p is None else self.p

    # -- canonical constants --

    def zero(self):
        return Fraction(0) if self.p is None else 0

    def one(self):
        return Fraction(1) if self.p is None else 1

    def from_int(self, n: int):
        return Fraction(n) if self.p is None else n % self.p

    # -- arithmetic --

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.p is None:
            return Fraction(1) / a  # exact for an int a too
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n: int):
        if n < 0:
            return self.pow(self.inv(a), -n)
        if self.p is not None:
            return pow(a, n, self.p)
        return a ** n

    def accumulate(self, acc: dict, terms) -> dict:
        """Add (key, scalar) pairs into the sparse dict acc, in place.

        A key whose sum cancels is removed, so acc never holds a zero.
        This is the one accumulate loop of the library: plain + over Q (a
        new key takes the scalar as given) and one % p over GF(p), with no
        Field call per entry.  Over GF(p) the scalars may be unreduced ints,
        so callers can pass plain products.  Returns acc.
        """
        get, pop, p = acc.get, acc.pop, self.p
        if p is None:
            for key, c in terms:
                s = get(key)
                if s is None:
                    if c:
                        acc[key] = c
                    continue
                s += c
                if s:
                    acc[key] = s
                else:
                    del acc[key]
        else:
            for key, c in terms:
                s = (get(key, 0) + c) % p
                if s:
                    acc[key] = s
                else:
                    pop(key, None)
        return acc

    def scaled(self, items):
        """(den, [(key, int)]) with each nonzero scalar of the (key, scalar)
        pairs items equal to its int / den, in the order given.  items is
        iterated twice over Q, so pass a view or a list, not a generator.

        Over Q den is the least common denominator of the scalars; over
        GF(p) den is 1 and the ints are the residues.
        """
        p = self.p
        if p is not None:
            return 1, [(k, r) for k, c in items if (r := c % p)]
        den = lcm(*{c.denominator for _, c in items})
        return den, [(k, c.numerator * (den // c.denominator)) for k, c in items if c]

    def unscale(self, acc: dict, den: int) -> dict:
        """The sparse dict {key: s / den} of an int accumulator acc, zero sums
        dropped: one Fraction per key over Q, one % p per key over GF(p),
        where den is 1."""
        p = self.p
        if p is not None:
            return {k: r for k, s in acc.items() if (r := s % p)}
        return {k: Fraction(s, den) for k, s in acc.items() if s}

    # -- conversions --

    def parse(self, text: str):
        """Parse "n" or "n/m" into a canonical scalar.

        n is an optionally signed decimal integer and m an unsigned one;
        surrounding white space is ignored.  Anything else (exponents,
        decimal points, underscores) raises ValueError, and m = 0 (or
        m = 0 mod p) raises ZeroDivisionError.
        """
        match = _SCALAR.fullmatch(text.strip())
        if match is None:
            raise ValueError("expected n or n/m")
        num, den = match.groups()
        if self.p is None:
            return Fraction(int(num), 1 if den is None else int(den))
        if den is None:
            return int(num) % self.p
        return self.div(int(num) % self.p, int(den) % self.p)

    def format(self, a) -> str:
        return str(a)

    # -- identity --

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "Q" if self.p is None else f"GF({self.p})"


def make_field(spec) -> Field:
    """Build a field from "Q" or a prime modulus."""
    if spec == "Q":
        return Field(None)
    if isinstance(spec, int):
        return Field(spec)
    raise NonPrimeModulus(f"unrecognised field spec {spec!r}")


def _proper_divisors(n: int):
    return [m for m in range(1, n) if n % m == 0]


def primitive_root_of_unity(field: Field, n: int):
    """Return a scalar of exact multiplicative order n, if the field has one.

    Over the rationals only n = 1, 2 are possible.  Over GF(p) a root exists
    iff n divides p - 1; the search is exhaustive, which is fine at the
    intended scale.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if field.is_rationals:
        if n == 1:
            return Fraction(1)
        if n == 2:
            return Fraction(-1)
        raise NoRootOfUnity(f"the rationals contain no primitive {n}-th root of unity")
    p = field.p
    if (p - 1) % n != 0:
        raise NoRootOfUnity(f"GF({p}) has no primitive {n}-th root of unity ({n} does not divide {p - 1})")
    for candidate in range(1, p):
        if pow(candidate, n, p) != 1:
            continue
        if all(pow(candidate, m, p) != 1 for m in _proper_divisors(n)):
            return candidate
    raise NoRootOfUnity(f"no primitive {n}-th root of unity in GF({p})")
