"""Helpers for exact rational I/O.

All JSON interfaces serialize rationals as strings "p/q" (or "p" for
integers); floats are never produced or accepted.
"""

from fractions import Fraction

from .errors import InputError

# The JSON Schema of a rational: a string or an integer; parse_rational checks the syntax.
RATIONAL = {"type": ["string", "integer"]}


def parse_rational(value) -> Fraction:
    """Parse an int, or a string "p", "-p/q" or "1.5", into an exact Fraction;
    a JSON value has passed the RATIONAL schema, an argv value is a string."""
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed rational {value!r}: {exc}") from None


def format_rational(q: Fraction) -> str:
    """Canonical string form: "p" for integers, "p/q" otherwise."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational_vector(values) -> tuple:
    return tuple(parse_rational(v) for v in values)
