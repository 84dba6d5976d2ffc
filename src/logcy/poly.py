"""Sparse multivariate polynomials over the rationals.

A polynomial is a dict from exponent tuples to nonzero Fraction
coefficients, tied to a fixed tuple of variable names.
Monomial comparisons go through WeightedOrder: positive rational weights
ordered by weighted degree with a graded-lexicographic tiebreak, so every
order used here is a total order refining the weight filtration.  The one
map between rings is Polynomial.evaluate; there is no composition.
"""

import sys
from fractions import Fraction
from math import floor, lcm
from operator import mul

from .errors import COUNT_LIMIT, InputError
from .rationals import checked_integer, format_rational


def require_countable(size):
    """Refuse a count up to --bound that would take more than COUNT_LIMIT steps."""
    if size > COUNT_LIMIT:
        raise InputError(f"--bound is too large: counting up to it takes more than "
                         f"{COUNT_LIMIT} table cells or monomials")


class WeightedOrder:
    """Monomial order: weighted degree first, then total degree, then lex.

    The weights are scaled once to integers by the lcm of their denominators,
    so comparison keys are integer tuples.  The scale is positive, so the
    order is the same as under the rational weights.
    """

    __slots__ = ("weights", "int_weights", "scale")

    def __init__(self, weights):
        self.weights = tuple(Fraction(w) for w in weights)
        if any(w <= 0 for w in self.weights):
            raise InputError("weights must be positive (the filtration starts at k*1)")
        self.scale = lcm(*(w.denominator for w in self.weights))
        self.int_weights = tuple(int(w * self.scale) for w in self.weights)

    def int_degree(self, exps) -> int:
        """Weighted degree times scale, an integer."""
        return sum(map(mul, self.int_weights, exps))

    def key(self, exps):
        return (self.int_degree(exps), sum(exps), exps)

    def level_counts(self, bound) -> list:
        """Entry w counts the exponent vectors of int_degree w, for w from 0
        to floor(bound * scale).

        A knapsack table, one variable at a time.  It refuses, before
        allocating, a negative bound and more than COUNT_LIMIT levels.
        """
        bound = Fraction(bound)
        if bound < 0:
            raise InputError("the weight bound must be nonnegative")
        top = floor(bound * self.scale)
        require_countable(top + 1)
        table = [1] + [0] * top
        for step in self.int_weights:
            for w in range(step, top + 1):
                table[w] += table[w - step]
        return table

    def __repr__(self):
        return f"WeightedOrder({[format_rational(w) for w in self.weights]})"


def unit_order(nvars: int) -> WeightedOrder:
    return WeightedOrder((Fraction(1),) * nvars)


class Polynomial:
    """Immutable sparse polynomial over Q in a fixed variable tuple.

    terms maps exponent tuples to nonzero Fraction coefficients; the
    constructor checks each exponent tuple, makes each given coefficient a
    Fraction and drops zeros.  Arithmetic results, whose terms are checked
    already, go through _unchecked instead.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms=None):
        self.vars = tuple(variables)
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != len(self.vars):
                    raise InputError("exponent tuple length does not match variable count")
                if any(e < 0 for e in exps):
                    raise InputError("polynomial exponents must be nonnegative")
                if coeff:
                    clean[exps] = Fraction(coeff)
        self.terms = clean

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _unchecked(cls, variables, terms):
        # internal fast path: variables is a tuple and terms maps checked
        # exponent tuples to Fractions; only zero terms are dropped
        obj = object.__new__(cls)
        obj.vars = variables
        obj.terms = {e: c for e, c in terms.items() if c}
        return obj

    @classmethod
    def zero(cls, variables):
        return cls(variables, {})

    @classmethod
    def constant(cls, variables, value):
        return cls(variables, {(0,) * len(tuple(variables)): value})

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        if name not in variables:
            raise InputError(f"unknown variable {name!r}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exps: 1})

    @classmethod
    def monomial(cls, variables, exps, coeff):
        return cls(variables, {tuple(exps): coeff})

    # -- ring operations --------------------------------------------------------

    def _check_same_ring(self, other):
        if self.vars != other.vars:
            raise InputError("polynomials live in different rings")

    def __add__(self, other):
        self._check_same_ring(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out[exps] + c if exps in out else c
        return Polynomial._unchecked(self.vars, out)

    def __neg__(self):
        return Polynomial._unchecked(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_same_ring(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                out[exps] = out[exps] + c if exps in out else c
        return Polynomial._unchecked(self.vars, out)

    def __pow__(self, n):
        """Square-and-multiply; it raises InputError before a product that
        would take the term pairs multiplied past COUNT_LIMIT."""
        if n < 0:
            raise InputError("negative polynomial powers are not defined")
        out = Polynomial.constant(self.vars, 1)
        base = self
        pairs = 0

        def product(a, b):
            nonlocal pairs
            pairs += len(a.terms) * len(b.terms)
            if pairs > COUNT_LIMIT:
                raise InputError(f"polynomial power is too large: expanding it multiplies "
                                 f"more than {COUNT_LIMIT} term pairs")
            return a * b

        while n:
            if n & 1:
                out = product(out, base)
            base = product(base, base) if n > 1 else base
            n >>= 1
        return out

    def scale(self, coeff):
        coeff = Fraction(coeff)
        return Polynomial._unchecked(self.vars, {e: c * coeff for e, c in self.terms.items()})

    def mul_term(self, exps, coeff):
        """Multiply by a single term coeff * x^exps."""
        exps = tuple(exps)
        if len(exps) != len(self.vars) or any(e < 0 for e in exps):
            raise InputError("a term's exponents must be nonnegative, one per variable")
        coeff = Fraction(coeff)
        return Polynomial._unchecked(self.vars, {tuple(a + b for a, b in zip(e, exps)): c * coeff
                                                 for e, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and other.vars == self.vars
                and other.terms == self.terms)

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.terms.keys()))))

    def __bool__(self):
        return bool(self.terms)

    # -- structure --------------------------------------------------------------

    def leading(self, order: WeightedOrder):
        """(exponent tuple, coefficient) of the order-largest term."""
        if not self.terms:
            raise InputError("the zero polynomial has no leading term")
        exps = max(self.terms, key=order.key)
        return exps, self.terms[exps]

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def top_weight_form(self, order: WeightedOrder) -> "Polynomial":
        """Sum of the terms of maximal weighted degree."""
        if not self.terms:
            raise InputError("the zero polynomial has no top-weight form")
        top = max(map(order.int_degree, self.terms))
        return Polynomial._unchecked(self.vars, {e: c for e, c in self.terms.items()
                                                 if order.int_degree(e) == top})

    def derivative(self, name) -> "Polynomial":
        if name not in self.vars:
            raise InputError(f"unknown variable {name!r}")
        idx = self.vars.index(name)
        out = {}
        for exps, c in self.terms.items():
            e = exps[idx]
            if e == 0:
                continue
            new = list(exps)
            new[idx] = e - 1
            out[tuple(new)] = c * e
        return Polynomial._unchecked(self.vars, out)

    def evaluate(self, values: dict) -> "Polynomial":
        """Set the named variables to the given rationals.

        The result lives in the remaining variables, in their order.
        """
        for name in values:
            if name not in self.vars:
                raise InputError(f"unknown variable {name!r}")
        fixed = [(i, Fraction(values[name])) for i, name in enumerate(self.vars)
                 if name in values]
        kept = [i for i, name in enumerate(self.vars) if name not in values]
        out = {}
        for exps, c in self.terms.items():
            for i, value in fixed:
                if exps[i]:
                    c *= value ** exps[i]
            rest = tuple(exps[i] for i in kept)
            out[rest] = out[rest] + c if rest in out else c
        return Polynomial._unchecked(tuple(self.vars[i] for i in kept), out)

    # -- printing ----------------------------------------------------------------

    def to_string(self, order: WeightedOrder | None = None) -> str:
        if not self.terms:
            return "0"
        order = order or unit_order(len(self.vars))
        pieces = []
        for exps in sorted(self.terms, key=order.key, reverse=True):
            coeff = self.terms[exps]
            factors = []
            for name, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{checked_integer(e)}")
            cstr = format_rational(coeff)
            if factors and cstr == "1":
                pieces.append("*".join(factors))
            elif factors and cstr == "-1":
                pieces.append("-" + "*".join(factors))
            elif factors:
                pieces.append(cstr + "*" + "*".join(factors))
            else:
                pieces.append(cstr)
        text = " + ".join(pieces)
        return text.replace("+ -", "- ")

    def __repr__(self):
        return f"Polynomial({self.to_string()!r})"


# -- parsing ---------------------------------------------------------------------


class _Parser:
    """Recursive descent for:  expr := term (+|- term)*, term := factor (* factor)*,
    factor := atom (^ INT)*, atom := rational | name | ( expr ) | - factor."""

    def __init__(self, text, variables):
        self.text = text
        self.vars = tuple(variables)
        self.tokens = self._lex(text)
        self.pos = 0

    @staticmethod
    def _lex(text):
        tokens = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch.isdecimal():  # exactly the digits int() reads
                j = i
                while j < len(text) and text[j].isdecimal():
                    j += 1
                try:
                    tokens.append(("num", int(text[i:j])))
                except ValueError:  # int()'s digit limit
                    raise InputError(f"the number at position {i} in polynomial has more "
                                     f"than {sys.get_int_max_str_digits()} digits") from None
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                tokens.append(("name", text[i:j]))
                i = j
            elif ch in "+-*^()/":
                tokens.append((ch, ch))
                i += 1
            else:
                raise InputError(f"unexpected character {ch!r} in polynomial at position {i}")
        tokens.append(("end", None))
        return tokens

    def _peek(self):
        return self.tokens[self.pos][0]

    def _next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        poly = self._expr()
        if self._peek() != "end":
            raise InputError(f"trailing input in polynomial: {self.tokens[self.pos]}")
        return poly

    def _expr(self):
        if self._peek() == "-":
            self._next()
            poly = -self._term()
        else:
            poly = self._term()
        while self._peek() in ("+", "-"):
            op, _ = self._next()
            rhs = self._term()
            poly = poly + rhs if op == "+" else poly - rhs
        return poly

    def _term(self):
        poly = self._factor()
        while self._peek() == "*":
            self._next()
            poly = poly * self._factor()
        return poly

    def _factor(self):
        if self._peek() == "-":
            self._next()
            return -self._factor()
        base = self._atom()
        while self._peek() == "^":
            self._next()
            kind, value = self._next()
            if kind != "num":
                raise InputError("exponent must be a nonnegative integer")
            base = base ** value
        return base

    def _atom(self):
        kind, value = self._next()
        if kind == "num":
            numer = value
            if self._peek() == "/":
                self._next()
                kind2, denom = self._next()
                if kind2 != "num" or denom == 0:
                    raise InputError("malformed rational literal")
                return Polynomial.constant(self.vars, Fraction(numer, denom))
            return Polynomial.constant(self.vars, numer)
        if kind == "name":
            return Polynomial.variable(self.vars, value)
        if kind == "(":
            poly = self._expr()
            kind2, _ = self._next()
            if kind2 != ")":
                raise InputError("unbalanced parentheses")
            return poly
        raise InputError(f"unexpected token {value!r} in polynomial")


def is_variable_name(text: str) -> bool:
    """Whether text lexes as exactly one name token of the polynomial grammar."""
    try:
        return _Parser._lex(text) == [("name", text), ("end", None)]
    except InputError:
        return False


def parse_polynomial(text: str, variables) -> Polynomial:
    """Parse the documented grammar: rationals, names, + - * ^ and parentheses."""
    return _Parser(text, variables).parse()
