"""Helpers for exact rational I/O.

All JSON interfaces serialize rationals as strings "p/q" (or "p" for
integers); floats are never produced or accepted.
"""

import sys
from fractions import Fraction

from .errors import InputError, UnsupportedStructureError

# The JSON Schema of a rational: a string or an integer; parse_rational checks the syntax.
RATIONAL = {"type": ["string", "integer"]}


def parse_rational(value) -> Fraction:
    """Parse an int, or a string "p", "-p/q", "1.5" or "2e-3", into an exact
    Fraction; a JSON value has passed the RATIONAL schema, an argv value is a
    string.  An exponent e is refused when 10^|e| has more digits than int()
    converts (sys.get_int_max_str_digits()), before that power is built."""
    limit = sys.get_int_max_str_digits()
    if isinstance(value, str) and limit:
        _, e, exponent = value.lower().rpartition("e")
        try:
            too_large = e and abs(int(exponent)) >= limit
        except ValueError:  # no exponent: Fraction reports the syntax
            too_large = False
        if too_large:
            raise InputError(f"rational {value!r} is too large: 10 to the power of its "
                             f"exponent has more than {limit} digits")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed rational {value!r}: {exc}") from None


def format_rational(q: Fraction) -> str:
    """Canonical string form: "p" for integers, "p/q" otherwise.  A numerator
    or denominator of more digits than int() converts to text
    (sys.get_int_max_str_digits()) raises UnsupportedStructureError."""
    q = Fraction(q)
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        raise _too_many_digits("a rational") from None


def checked_integer(n: int) -> int:
    """n, when a report can print it; past int()'s digit limit it raises
    UnsupportedStructureError, as format_rational does.  Below 8^limit only
    its bit length is read."""
    limit = sys.get_int_max_str_digits()
    if limit and n.bit_length() > 3 * limit and abs(n) >= 10 ** limit:
        raise _too_many_digits("an integer")
    return n


def _too_many_digits(what: str) -> UnsupportedStructureError:
    return UnsupportedStructureError(
        f"{what} in the result has more than {sys.get_int_max_str_digits()} digits, "
        f"the most a report prints")


def parse_rational_vector(values) -> tuple:
    return tuple(parse_rational(v) for v in values)
