"""Positively filtered presentations, associated graded rings, and Rees families.

A WeightedPresentation is a finitely presented algebra over Q (its relations
have rational coefficients) with positive weights on its generators; the
weights induce an ascending filtration with F_0 = Q.  The associated graded
ring is computed from top-weight forms of a reduced Groebner basis (top
forms of raw generators can generate a strictly smaller ideal, so the basis
comes first).  The Rees algebra gives the one-parameter family interpolating
between the ring and its graded degeneration.

A presentation builds its WeightedOrder once and owns its reduced Groebner
basis in that order, computed on first use and kept; an associated graded
presentation is handed its basis when it is made.  The Rees family is a
plain presentation over t and the original variables, homogenized in the
order's integer degrees; a fiber is taken from the presentation it deforms,
by evaluating t in its family.
"""

from . import groebner
from .errors import InputError
from .poly import Polynomial, WeightedOrder, is_variable_name, parse_polynomial
from .rationals import RATIONAL, format_rational, parse_rational
from .schema import validate


class WeightedPresentation:
    """Variables with positive rational weights and a list of relations."""

    def __init__(self, variables, weights, relations):
        self.vars = tuple(variables)
        if len(set(self.vars)) != len(self.vars):
            raise InputError("duplicate variable names")
        for name in self.vars:
            if not is_variable_name(name):
                raise InputError(f"variable name {name!r} is not a name the polynomial "
                                 f"grammar reads: a letter or _, then letters, digits or _")
        weights = tuple(weights)
        if len(weights) != len(self.vars):
            raise InputError("one weight per variable is required")
        self.order = WeightedOrder(weights)
        self.weights = self.order.weights
        rels = []
        for rel in relations:
            if isinstance(rel, str):
                rel = parse_polynomial(rel, self.vars)
            if rel.vars != self.vars:
                raise InputError("relation lives in a different ring")
            if rel.is_zero():
                raise InputError("zero relations are not allowed")
            rels.append(rel)
        self.relations = tuple(rels)
        self._basis = None

    def basis(self) -> list:
        """Reduced Groebner basis of the relations in self.order, computed
        on first use and kept for every later caller."""
        if self._basis is None:
            self._basis = groebner.groebner_basis(self.relations, self.order)
        return self._basis

    def hilbert_up_to(self, bound) -> dict:
        return groebner.hilbert_function_up_to(self.basis(), self.order, bound)

    def to_json(self) -> dict:
        return {
            "vars": list(self.vars),
            "weights": [format_rational(w) for w in self.weights],
            "relations": [rel.to_string(self.order) for rel in self.relations],
        }

    def __repr__(self):
        rels = [rel.to_string(self.order) for rel in self.relations]
        return f"WeightedPresentation(vars={self.vars}, weights={self.weights}, relations={rels})"


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


def _reduced_basis(pres: WeightedPresentation) -> list:
    basis = pres.basis()
    if len(basis) == 1 and basis[0].total_degree() == 0:
        raise InputError("the relations generate the unit ideal; "
                         "the filtration is not positive on this quotient")
    return basis


def associated_graded(pres: WeightedPresentation) -> WeightedPresentation:
    """Presentation of the associated graded ring.

    Top-weight forms of a reduced Groebner basis generate the initial ideal
    for the weight filtration, which is the standard guarantee; top forms of
    an arbitrary generating set need not.  Since the order refines the
    weights, those forms are moreover the reduced Groebner basis of the
    initial ideal in the same order (Sturmfels, Groebner Bases and Convex
    Polytopes, ch. 1), so the graded presentation keeps them as its basis.
    """
    tops = [g.top_weight_form(pres.order) for g in _reduced_basis(pres)]
    graded = WeightedPresentation(pres.vars, pres.weights, tops)
    graded._basis = tops
    return graded


def rees_algebra(pres: WeightedPresentation) -> WeightedPresentation:
    """The Rees family: a weighted Groebner basis homogenized by a degree-one
    parameter t, over ("t",) + pres.vars.

    The homogenization works in the integer degrees of the presentation's
    order, whose weights are the original ones times order.scale; each basis
    element gains t powers filling every term up to the relation's top degree.
    """
    if "t" in pres.vars:
        raise InputError("variable name 't' collides with the presentation")
    order = pres.order
    new_vars = ("t",) + pres.vars
    homogenized = []
    for g in _reduced_basis(pres):
        degrees = {exps: order.int_degree(exps) for exps in g.terms}
        top = max(degrees.values())
        homogenized.append(Polynomial(new_vars, {(top - degree,) + exps: g.terms[exps]
                                                 for exps, degree in degrees.items()}))
    return WeightedPresentation(new_vars, (1,) + order.int_weights, homogenized)


def fiber_at(pres: WeightedPresentation, value) -> WeightedPresentation:
    """The fiber at t = value of the Rees family of pres, in pres's variables
    and weights.

    value 0 gives the associated-graded candidate; any nonzero value gives a
    presentation isomorphic to pres (witnessed by rescaling each variable by
    value^weight).  No image is zero: each term keeps its own monomial, and
    the top-degree ones carry no t.
    """
    return WeightedPresentation(pres.vars, pres.weights,
                                [rel.evaluate({"t": value})
                                 for rel in rees_algebra(pres).relations])


def presentations_ideal_equal(first: WeightedPresentation,
                              second: WeightedPresentation) -> bool:
    """Mutual membership of relation ideals (same ambient ring required).

    Each side's relations are reduced by the other side's basis, in that
    side's order; a remainder modulo a Groebner basis decides membership
    whatever the order.
    """
    if first.vars != second.vars:
        raise InputError("presentations live in different ambient rings")
    return all(groebner.reduce_modulo(rel, other.basis(), other.order).is_zero()
               for one, other in ((first, second), (second, first))
               for rel in one.relations)
