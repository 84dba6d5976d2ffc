"""Coefficient fields for the polynomial engine: exact rationals and prime
fields F_p.  Symbolic parameters are not coefficients; they are ordinary
polynomial variables over one of these fields.
"""

import math
from fractions import Fraction

from .errors import InputError
from .rationals import format_rational


class RationalField:
    """The field of exact rationals; elements are fractions.Fraction."""

    name = "Q"

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def from_fraction(self, q):
        return Fraction(q)

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def neg(self, x):
        return -x

    def mul(self, x, y):
        return x * y

    def invert(self, x):
        if x == 0:
            raise ZeroDivisionError("inverting 0 in Q")
        return 1 / x

    def is_zero(self, x):
        return x == 0

    def fmt(self, x):
        return format_rational(x)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


# Every prime field has p below this: the primality test trial-divides up to
# sqrt(p), under 50 000 divisions.
PRIME_LIMIT = 2 ** 31


class PrimeField:
    """F_p with elements stored as ints in 0..p-1, for primes p < PRIME_LIMIT."""

    def __init__(self, p):
        if p >= PRIME_LIMIT:
            raise InputError(f"field F{p} is too large: p must be below 2^31")
        if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            raise InputError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1 % p

    def from_int(self, n):
        return n % self.p

    def from_fraction(self, q):
        q = Fraction(q)
        den = q.denominator % self.p
        if den == 0:
            raise InputError(f"denominator of {q} vanishes mod {self.p}")
        return (q.numerator * pow(den, self.p - 2, self.p)) % self.p

    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def neg(self, x):
        return (-x) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def invert(self, x):
        if x % self.p == 0:
            raise ZeroDivisionError(f"inverting 0 in F_{self.p}")
        return pow(x, self.p - 2, self.p)

    def is_zero(self, x):
        return x % self.p == 0

    def fmt(self, x):
        return str(x % self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()


def field_from_name(name: str):
    """Resolve "Q" or "F<p>" CLI field names."""
    name = name.strip()
    if name in ("Q", "QQ"):
        return QQ
    if name.startswith("F"):
        try:
            return PrimeField(int(name[1:]))
        except ValueError:
            pass
    raise InputError(f"unknown field {name!r} (expected Q or Fp)")
