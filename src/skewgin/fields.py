"""Exact field arithmetic over the rationals and prime fields GF(p).

Scalars are plain Python values: ``fractions.Fraction`` for the rationals
and canonical residues ``int`` in ``[0, p)`` for GF(p).  A ``Field`` object
supplies the arithmetic, so equality of scalars is bit-exact comparison of
canonical forms.  Everything here is immutable and pure.

Hot loops run on plain ints instead (the scaled-integer convention):
``Field.scaled`` writes scalars as integers over one common denominator
(the least common denominator over Q, 1 over GF(p)), the loop adds and
multiplies those integers with no reduction, and ``Field.normalized``
brings the sums to canonical form (``Field.combine`` does all three for a
linear combination).  ``CrossedElement`` keeps its scalars in this form,
one positive int ``den`` plus int terms, so the Morita layer runs on ints;
``Field.ratio`` makes a field scalar only where a report reads one.
``LinSolver`` takes kernel ints only (residues in [1, p) over GF(p)), so
callers clear field scalars with ``field.scaled(pairs)``, as Weyl does.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import count
from math import gcd, lcm

from .errors import SkewginError

_SCALAR = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


# Miller-Rabin on the prime bases 2 to 37 is exact below
# 318665857834031151167461, the least strong pseudoprime to all of them; a
# modulus is refused past this bound, so every test made is exact.
MAX_MODULUS = 10 ** 23
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n <= MAX_MODULUS: with
    n - 1 = d * 2^s and d odd, every base b has b^d = 1 or some
    b^(d * 2^r) = -1 for r < s."""
    if n < 2 or any(n % b == 0 for b in _BASES):
        return n in _BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # the lowest set bit of n - 1
    d = (n - 1) >> s
    return all(pow(b, d, n) == 1 or n - 1 in (pow(b, d << r, n) for r in range(s))
               for b in _BASES)


class Field:
    """The rationals (``p is None``) or GF(p) for a prime p."""

    def __init__(self, p: int | None = None):
        if p is not None and p > MAX_MODULUS:
            raise SkewginError(f"expected a modulus of at most {MAX_MODULUS}")
        if p is not None and not _is_prime(p):
            raise SkewginError(f"modulus {p} is not prime")
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

    def normalized(self, acc: dict, den: int):
        """(den, terms) of the int sums acc over den in canonical form: the
        nonzero residues over 1 over GF(p); over Q the nonzero sums with
        their common content with den divided out, so den is the lcm of the
        scalars' denominators."""
        p = self.p
        if p is not None:
            return 1, {k: r for k, s in acc.items() if (r := s % p)}
        terms = {k: s for k, s in acc.items() if s}
        g = gcd(den, *terms.values()) if den != 1 else 1
        if g == 1:
            return den, terms
        return den // g, {k: s // g for k, s in terms.items()}

    def combine(self, parts):
        """(den, acc) of the sum of coeff * x / d over parts (coeff, d, items)
        with coeff a scalar, d a positive int and items (key, int x) pairs:
        one accumulate on ints over the lcm den of the coeff denominators
        times d (a GF(p) residue is an int, over 1)."""
        parts = [(c.numerator, c.denominator * d, items) for c, d, items in parts if c]
        den = lcm(*{m for _, m, _ in parts})
        return den, self.accumulate({}, ((k, f * x) for f, items in (
            (n * (den // m), items) for n, m, items in parts) for k, x in items))

    def ratio(self, num: int, den: int):
        """The canonical scalar num / den of an int and a positive int."""
        if self.p is None:
            return Fraction(num, den)
        return num * pow(den, -1, self.p) % self.p

    # -- conversions --

    def parse(self, text: str):
        """Parse "n" or "n/m" into a canonical scalar.

        n is an optionally signed decimal integer and m an unsigned one;
        surrounding white space is ignored.  Anything else (exponents,
        decimal points, underscores) raises ValueError, and m = 0 (or
        m = 0 mod p) raises ZeroDivisionError("inverse of zero").
        """
        match = _SCALAR.fullmatch(text.strip())
        if match is None:
            raise ValueError("expected n or n/m")
        num, den = match.groups()
        if self.p is None:
            if den is not None and int(den) == 0:
                raise ZeroDivisionError("inverse of zero")
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
    """Build a field from "Q" or a prime modulus, an int that is not a bool."""
    if spec == "Q":
        return Field(None)
    if isinstance(spec, int) and not isinstance(spec, bool):
        return Field(spec)
    raise SkewginError(f"unrecognised field spec {spec!r}")


def primitive_root_of_unity(field: Field, n: int):
    """Return a scalar of exact multiplicative order n, if the field has one.

    Over the rationals only n = 1, 2 are possible.  Over GF(p) a root exists
    iff n divides p - 1: r = g^((p - 1)/n) for the first g = 1, 2, ... that
    makes r primitive (no r^(n/q) is 1 for a prime q dividing n), and the
    least power r^k with k prime to n is returned, the least root there is.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if field.is_rationals:
        if n == 1:
            return Fraction(1)
        if n == 2:
            return Fraction(-1)
        raise SkewginError(f"the rationals contain no primitive {n}-th root of unity")
    p = field.p
    if (p - 1) % n != 0:
        raise SkewginError(f"GF({p}) has no primitive {n}-th root of unity ({n} does not divide {p - 1})")
    primes = [q for q in range(2, n + 1) if n % q == 0 and _is_prime(q)]
    roots = (pow(g, (p - 1) // n, p) for g in count(1))
    r = next(r for r in roots if all(pow(r, n // q, p) != 1 for q in primes))
    return min(pow(r, k, p) for k in range(1, n + 1) if gcd(k, n) == 1)


def read_json(data, refusal):
    """The JSON value of data, a str or UTF-8 bytes.  Bytes that are not
    UTF-8, text that is not JSON, nesting past the recursion limit and an
    integer past the int-to-str limit are refused at / as "refusal: why"."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:
        raise SkewginError(f"{refusal}: {exc}") from exc


def read_scalar(raw, where, field, issues):
    """The scalar of field that the scalar string raw names."""
    if not isinstance(raw, str):
        issues.append((where, f"expected a scalar string, got {raw!r}"))
        return None
    try:
        return field.parse(raw)
    except (ValueError, ZeroDivisionError) as exc:
        issues.append((where, f"{raw!r} is not a scalar of {field!r} ({exc})"))
        return None


def read_matrix(raw, where, rows, cols, field, issues):
    """A list of rows of cols scalar strings as rows of scalars of field:
    exactly rows of them, or any positive number when rows is None.  A wrong
    row count is refused at where, a bad row at where/i and a bad entry at
    where/i/j."""
    if not isinstance(raw, list) or (not raw if rows is None else len(raw) != rows):
        issues.append((where, "expected a nonempty list of rows" if rows is None
                       else f"expected a {rows}x{cols} matrix"))
        return None
    start, matrix = len(issues), []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != cols:
            issues.append((f"{where}/{i}", f"expected {cols} entries"))
            continue
        matrix.append([read_scalar(v, f"{where}/{i}/{j}", field, issues)
                       for j, v in enumerate(row)])
    return matrix if len(issues) == start else None
