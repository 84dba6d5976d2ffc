"""Positively filtered presentations, associated graded rings, and Rees families.

A WeightedPresentation is a finitely presented algebra with positive weights
on its generators; the weights induce an ascending filtration with F_0 = k.
The associated graded ring is computed from top-weight forms of a reduced
Groebner basis (top forms of raw generators can generate a strictly smaller
ideal, so the basis comes first).  The Rees algebra gives the one-parameter
family interpolating between the ring and its graded degeneration.
"""

from fractions import Fraction
from math import lcm

from .errors import InputError
from .fields import QQ
from .groebner import Ideal, hilbert_function_up_to, ideals_equal
from .poly import Polynomial, WeightedOrder, is_variable_name, parse_polynomial
from .rationals import RATIONAL, format_rational, parse_rational
from .schema import validate


class WeightedPresentation:
    """Variables with positive rational weights and a list of relations."""

    def __init__(self, variables, weights, relations, field=QQ):
        self.vars = tuple(variables)
        if len(set(self.vars)) != len(self.vars):
            raise InputError("duplicate variable names")
        for name in self.vars:
            if not is_variable_name(name):
                raise InputError(f"variable name {name!r} is not a name the polynomial "
                                 f"grammar reads: a letter or _, then letters, digits or _")
        self.weights = tuple(Fraction(w) for w in weights)
        if len(self.weights) != len(self.vars):
            raise InputError("one weight per variable is required")
        if any(w <= 0 for w in self.weights):
            raise InputError("weights must be positive (the filtration starts at k*1)")
        self.field = field
        rels = []
        for rel in relations:
            if isinstance(rel, str):
                rel = parse_polynomial(rel, self.vars, field)
            if rel.vars != self.vars or rel.field != field:
                raise InputError("relation lives in a different ring")
            if rel.is_zero():
                raise InputError("zero relations are not allowed")
            rels.append(rel)
        self.relations = tuple(rels)
        self._ideal = None

    def order(self) -> WeightedOrder:
        return WeightedOrder(self.weights)

    def ideal(self) -> Ideal:
        """The relation ideal; one object per presentation, so its Groebner
        basis cache is shared by every caller."""
        if self._ideal is None:
            self._ideal = Ideal(self.relations, self.vars, self.field)
        return self._ideal

    def hilbert_up_to(self, bound) -> dict:
        return hilbert_function_up_to(self.ideal(), self.order(), bound)

    def to_json(self) -> dict:
        return {
            "vars": list(self.vars),
            "weights": [format_rational(w) for w in self.weights],
            "relations": [rel.to_string(self.order()) for rel in self.relations],
        }

    def __repr__(self):
        rels = [rel.to_string(self.order()) for rel in self.relations]
        return f"WeightedPresentation(vars={self.vars}, weights={self.weights}, relations={rels})"


class ReesPresentation:
    """A weight-homogeneous presentation over {t} + the original variables.

    rescale is the factor by which the original weights were multiplied to
    make them integral; reported filtration levels divide it back out.
    """

    __slots__ = ("presentation", "rescale")

    def __init__(self, presentation: WeightedPresentation, rescale: int):
        self.presentation = presentation
        self.rescale = rescale


def presentation_from_json(data) -> WeightedPresentation:
    validate(data, PRESENTATION_SCHEMA)
    weights = [parse_rational(w) for w in data["weights"]]
    return WeightedPresentation(data["vars"], weights, data["relations"])


PRESENTATION_SCHEMA = {
    "title": "presentation JSON",
    "type": "object",
    "required": ["vars", "weights", "relations"],
    "properties": {
        "vars": {"type": "array", "items": {"type": "string"}},
        "weights": {"type": "array", "items": RATIONAL},
        "relations": {"type": "array", "items": {"type": "string"}},
    },
}


def _reduced_basis(pres: WeightedPresentation):
    order = pres.order()
    basis = pres.ideal().groebner(order)
    if len(basis) == 1 and basis[0].total_degree() == 0:
        raise InputError("the relations generate the unit ideal; "
                         "the filtration is not positive on this quotient")
    return basis, order


def associated_graded(pres: WeightedPresentation) -> WeightedPresentation:
    """Presentation of the associated graded ring.

    Top-weight forms of a reduced Groebner basis generate the initial ideal
    for the weight filtration, which is the standard guarantee; top forms of
    an arbitrary generating set need not.
    """
    basis, order = _reduced_basis(pres)
    tops = [g.top_weight_form(order) for g in basis]
    return WeightedPresentation(pres.vars, pres.weights, tops, pres.field)


def rees_algebra(pres: WeightedPresentation) -> ReesPresentation:
    """Homogenize a weighted Groebner basis by a degree-one parameter t.

    Rational weights are first cleared to integers by a global rescaling
    (recorded in the result); each basis element then gains t powers filling
    every term up to the relation's top weight.
    """
    if "t" in pres.vars:
        raise InputError("variable name 't' collides with the presentation")
    rescale = lcm(*(w.denominator for w in pres.weights))
    int_weights = [w * rescale for w in pres.weights]
    basis, _ = _reduced_basis(pres)
    scaled_order = WeightedOrder(int_weights)
    new_vars = ("t",) + pres.vars
    homogenized = []
    for g in basis:
        top = g.weighted_degree(scaled_order)
        terms = {}
        for exps, coeff in g.terms.items():
            gap = top - scaled_order.weighted_degree(exps)
            if gap.denominator != 1 or gap < 0:
                raise InputError("internal error: non-integral homogenization gap")
            terms[(int(gap),) + exps] = coeff
        homogenized.append(Polynomial(new_vars, pres.field, terms))
    rees_pres = WeightedPresentation(new_vars, [Fraction(1)] + int_weights,
                                     homogenized, pres.field)
    return ReesPresentation(rees_pres, rescale)


def fiber_at(rees: ReesPresentation, value) -> WeightedPresentation:
    """Substitute the family parameter and restate over the original variables.

    value 0 gives the associated-graded candidate; any nonzero value gives a
    presentation isomorphic to the original ring (witnessed by rescaling each
    variable by value^weight).  Weights are reported in original units.
    """
    value = Fraction(value)
    pres = rees.presentation
    t = pres.vars[0]
    original_vars = pres.vars[1:]
    original_weights = [w / rees.rescale for w in pres.weights[1:]]
    const = Polynomial.constant(pres.vars, value, pres.field)
    substituted = []
    for rel in pres.relations:
        image = rel.substitute({t: const})
        if image.is_zero():
            continue
        substituted.append(image.change_variables(original_vars))
    return WeightedPresentation(original_vars, original_weights, substituted, pres.field)


def presentations_ideal_equal(first: WeightedPresentation,
                              second: WeightedPresentation) -> bool:
    """Mutual membership of relation ideals (same ambient ring required)."""
    if first.vars != second.vars or first.field != second.field:
        raise InputError("presentations live in different ambient rings")
    order = first.order()
    return ideals_equal(first.ideal(), second.ideal(), order)
