"""Coefficient fields of homology ranks: the rationals Q and prime fields F_p.

These are tags, read by exactlin.pivot_columns (which reduces mod p for F_p)
and printed by name in homology reports; they do no arithmetic.  Polynomials
and theta elements are always over Q, with fractions.Fraction coefficients.
"""

import math

from .errors import InputError


class RationalField:
    """The tag of Q."""

    name = "Q"

    def __repr__(self):
        return "QQ"


QQ = RationalField()

# Every prime field has p below this: the primality test trial-divides up to
# sqrt(p), under 50 000 divisions.
PRIME_LIMIT = 2 ** 31


class PrimeField:
    """The tag of F_p, for primes p < PRIME_LIMIT."""

    def __init__(self, p):
        if p >= PRIME_LIMIT:
            raise InputError(f"field F{p} is too large: p must be below 2^31")
        if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            raise InputError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"

    def __repr__(self):
        return f"GF({self.p})"


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
