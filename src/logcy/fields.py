"""Coefficient rings for the polynomial engine.

Three rings are supported: exact rationals, prime fields F_p, and rationals
with formal Laurent parameters (multivariate, integer exponents of either
sign).  The Laurent ring carries only ring operations, which is all the
symbolic-parameter workflows need; Groebner bases require a genuine field.
"""

import math
from fractions import Fraction

from .errors import InputError
from .rationals import format_rational


class RationalField:
    """The field of exact rationals; elements are fractions.Fraction."""

    is_field = True
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

    is_field = True

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


class LaurentParameterRing:
    """Q[a_1^{+-1}, ..., a_m^{+-1}]: rational coefficients with formal parameters.

    Elements are dicts mapping integer exponent tuples (negative entries
    allowed) to nonzero Fractions, wrapped in frozenset-free plain dicts and
    always normalized.  Division is only defined for monomial units.
    """

    is_field = False

    def __init__(self, params):
        self.params = tuple(params)
        if len(set(self.params)) != len(self.params):
            raise InputError("duplicate parameter names")
        self.name = "Q[" + ",".join(f"{p}^+-" for p in self.params) + "]"
        self.zero = {}
        self.one = {(0,) * len(self.params): Fraction(1)}

    def from_int(self, n):
        if n == 0:
            return {}
        return {(0,) * len(self.params): Fraction(n)}

    def from_fraction(self, q):
        q = Fraction(q)
        if q == 0:
            return {}
        return {(0,) * len(self.params): q}

    def parameter(self, name):
        idx = self.params.index(name)
        exps = tuple(1 if i == idx else 0 for i in range(len(self.params)))
        return {exps: Fraction(1)}

    def add(self, x, y):
        out = dict(x)
        for exps, c in y.items():
            s = out.get(exps, Fraction(0)) + c
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return out

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def neg(self, x):
        return {exps: -c for exps, c in x.items()}

    def mul(self, x, y):
        out = {}
        for e1, c1 in x.items():
            for e2, c2 in y.items():
                exps = tuple(i + j for i, j in zip(e1, e2))
                s = out.get(exps, Fraction(0)) + c1 * c2
                if s:
                    out[exps] = s
                else:
                    out.pop(exps, None)
        return out

    def invert(self, x):
        if len(x) != 1:
            raise InputError("only monomial units are invertible in a Laurent parameter ring")
        (exps, c), = x.items()
        return {tuple(-e for e in exps): 1 / c}

    def is_zero(self, x):
        return not x

    def fmt(self, x):
        if not x:
            return "0"
        parts = []
        for exps in sorted(x):
            c = x[exps]
            factors = [format_rational(c)]
            for name, e in zip(self.params, exps):
                if e == 1:
                    factors.append(name)
                elif e != 0:
                    factors.append(f"{name}^{e}")
            if len(factors) > 1 and factors[0] == "1":
                factors = factors[1:]
            parts.append("*".join(factors))
        return "(" + " + ".join(parts) + ")"

    def __repr__(self):
        return f"LaurentParameterRing({self.params})"

    def __eq__(self, other):
        return isinstance(other, LaurentParameterRing) and other.params == self.params

    def __hash__(self):
        return hash(("laurent", self.params))


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
