"""The theta-basis ring of a divisor configuration.

Basis symbols are pairs (v, c): a multiplicity vector indexing a nonempty
stratum (and satisfying the exact pole-order constraint) together with a
connected component of that stratum.  The product of two basis symbols sums
the multiplicity vectors and collects the components of the deeper stratum
whose restrictions match both factors; products leaving the basis set
truncate to zero.  A ThetaElement is a combination of basis symbols with
rational (Fraction) coefficients.  Both directions of the Stanley-Reisner
correspondence live here too: sr_presentation and its inverse
stanley_reisner_complex.
"""

import re
import sys
from fractions import Fraction
from math import ceil, floor

from . import complexes, poly, rees, stratum
from .errors import FACE_LIMIT, InputError
from .rationals import checked_integer, format_rational


class ThetaBasisElement:
    """One basis symbol: multiplicity vector plus stratum component."""

    __slots__ = ("v", "component")

    def __init__(self, config: "stratum.DivisorConfiguration", v, component):
        v = config.check_vector(v)
        if not config.in_basis(v):
            raise InputError(f"vector {v} does not index a basis element")
        comps = config.components(stratum.DivisorConfiguration.support(v))
        if component not in comps:
            raise InputError(f"{component} is not a component of stratum "
                             f"{sorted(stratum.DivisorConfiguration.support(v))}")
        self.v = v
        self.component = component

    @classmethod
    def _unchecked(cls, v, component):
        # internal fast path for symbols produced by validated arithmetic
        obj = object.__new__(cls)
        obj.v = v
        obj.component = component
        return obj

    def key(self, config: "stratum.DivisorConfiguration"):
        return (config.weight(self.v), self.v, self.component)

    def __eq__(self, other):
        return (isinstance(other, ThetaBasisElement)
                and other.v == self.v and other.component == self.component)

    def __hash__(self):
        return hash((self.v, self.component))

    def __repr__(self):
        return f"theta[{','.join(map(str, self.v))};{self.component}]"


class ThetaElement:
    """Finite linear combination of basis symbols with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {elem: c for elem, c in coeffs.items() if c} if coeffs else {}

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def basis(cls, elem: ThetaBasisElement):
        return cls({elem: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for elem, c in other.coeffs.items():
            out[elem] = out[elem] + c if elem in out else c
        return ThetaElement(out)

    def scale(self, coeff):
        return ThetaElement({e: c * coeff for e, c in self.coeffs.items()})

    def __eq__(self, other):
        return isinstance(other, ThetaElement) and other.coeffs == self.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def sorted_terms(self, config: "stratum.DivisorConfiguration"):
        return sorted(self.coeffs.items(), key=lambda item: item[0].key(config))

    def to_json(self, config: "stratum.DivisorConfiguration") -> list:
        return [
            {"v": [checked_integer(m) for m in elem.v], "component": elem.component,
             "coeff": format_rational(c)}
            for elem, c in self.sorted_terms(config)
        ]

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = [f"{format_rational(c)}*{elem!r}" for elem, c in
                 sorted(self.coeffs.items(), key=lambda kv: (kv[0].v, kv[0].component))]
        return " + ".join(parts)


def multiply_basis(config: "stratum.DivisorConfiguration", x: ThetaBasisElement,
                   y: ThetaBasisElement) -> ThetaElement:
    """Product of two basis symbols.

    The result is supported on the components of the summed-multiplicity
    stratum restricting to both factors' components; it is zero when the sum
    leaves the basis set.
    """
    total = tuple(a + b for a, b in zip(x.v, y.v))
    if not config.in_basis(total):
        return ThetaElement.zero()
    support = stratum.DivisorConfiguration.support(total)
    to_x = config.component_map(support, stratum.DivisorConfiguration.support(x.v))
    to_y = config.component_map(support, stratum.DivisorConfiguration.support(y.v))
    out = {}
    for comp in config.components(support):
        if to_x[comp] == x.component and to_y[comp] == y.component:
            out[ThetaBasisElement._unchecked(total, comp)] = Fraction(1)
    return ThetaElement(out)


def multiply(config: "stratum.DivisorConfiguration", f: ThetaElement,
             g: ThetaElement) -> ThetaElement:
    """Bilinear extension of the basis product."""
    result = ThetaElement.zero()
    for ex, cx in f.coeffs.items():
        for ey, cy in g.coeffs.items():
            result = result + multiply_basis(config, ex, ey).scale(cx * cy)
    return result


def unit_element(config: "stratum.DivisorConfiguration") -> ThetaElement:
    zero_vec = (0,) * config.k
    comp = config.components(frozenset())[0]
    return ThetaElement.basis(ThetaBasisElement(config, zero_vec, comp))


def graded_dimension(config: "stratum.DivisorConfiguration", weight_bound) -> dict:
    """Count of basis symbols per weight level up to the bound.

    Keys are every weight value realized by a nonnegative multiplicity vector
    within the bound, so levels with no basis symbols report zero.

    It counts without enumerating.  Weights scale to integer steps s_i
    (kappa_i times the lcm of their denominators); the pole orders are the
    integers b_i of config.poles.  The keys are the levels of
    WeightedOrder(kappa).level_counts.  For each index set I with a nonempty
    stratum, a table f_I(w, p) counts the vectors of support exactly I by
    scaled weight w and pole-order sum p.  I grows one index i at a time, by
        f_I(w, p) = f_{I - i}(w - s_i, p - b_i) + f_I(w - s_i, p - b_i),
    and an empty stratum ends its branch: nonempty strata are downward
    closed.  Level w gains f_I(w, 0) times the component count of D_I.

    A table has one cell per (level, pole-order sum possible within the
    bound).  When that is more than logcy.errors.COUNT_LIMIT cells, it raises
    InputError before allocating a table; level_counts refuses a negative
    bound before that.
    """
    order = poly.WeightedOrder(config.kappa)
    levels = order.level_counts(weight_bound)
    steps = order.int_weights
    top = len(levels) - 1
    poles = config.poles
    # p / w is a mean of the rates b_i / s_i, so p stays between these
    rates = [Fraction(b, s) for b, s in zip(poles, steps)]
    low, high = ceil(top * min(0, *rates)), floor(top * max(0, *rates))
    span = high - low + 1
    poly.require_countable((top + 1) * span)
    totals = [0] * (top + 1)
    # cell w * span + p - low of a table holds f_support(w, p).  A stack entry
    # (support, table, i) stands for support + {i + 1}, whose table is made
    # from f_support's when it is popped: only one branch's tables are alive
    support, table, start = frozenset(), [0] * ((top + 1) * span), 0
    table[-low] = 1
    stack = []
    while True:
        components = len(config.components(support))
        for w, n in enumerate(table[-low::span]):
            totals[w] += n * components
        stack += [(support, table, i) for i in range(config.k - 1, start - 1, -1)
                  if config.components(support | {i + 1})]
        if not stack:
            break
        support, table, i = stack.pop()
        support, table, start = (support | {i + 1},
                                 _add_index(table, steps[i], poles[i], span), i + 1)
    return {Fraction(w, order.scale): totals[w]
            for w, n in enumerate(levels) if n}


def _add_index(table, step, pole, span):
    """f(w, p) = table(w - step, p - pole) + f(w - step, p - pole), cell by
    cell in level order; a source cell outside its level counts 0."""
    out = [0] * len(table)
    shift = step * span + pole
    first, stop = max(0, pole), span + min(0, pole)
    for level in range(step * span, len(table), span):
        for cell in range(level + first, level + stop):
            out[cell] = table[cell - shift] + out[cell - shift]
    return out


def sr_presentation(cx: "complexes.SimplicialComplex", weights=None):
    """Stanley-Reisner presentation: one variable per vertex, the squarefree
    monomials on minimal non-faces as relations.

    Weights default to 1 on every vertex and may be overridden (e.g. by ample
    weights).  The full simplex yields the zero ideal.
    """
    if cx.is_void:
        raise InputError("the void complex has no Stanley-Reisner presentation")
    verts = cx.vertices
    names = tuple(f"x{v}" for v in verts)
    if weights is None:
        weights = [Fraction(1)] * len(verts)
    weights = [Fraction(w) for w in weights]
    if len(weights) != len(verts):
        raise InputError("one weight per vertex is required")
    relations = []
    for nonface in cx.minimal_nonfaces():
        exps = tuple(1 if v in nonface else 0 for v in verts)
        relations.append(poly.Polynomial.monomial(names, exps, 1))
    return rees.WeightedPresentation(names, weights, relations)


def stanley_reisner_complex(pres):
    """Inverse of sr_presentation on vertices 1..n, vertex i being the i-th
    variable; None unless every relation is one squarefree monomial.  It
    raises InputError at the first face past logcy.errors.FACE_LIMIT, the
    most the Gorenstein test takes, so a complex of at most that many faces
    is always built."""
    supports = []  # the variable indices of each relation
    for rel in pres.relations:
        exps = next(iter(rel.terms))  # relations are nonzero
        if len(rel.terms) != 1 or max(exps, default=0) > 1:
            return None
        supports.append({i for i, e in enumerate(exps) if e})
    # x_i is a vertex unless a relation divides it (a constant relation divides
    # every x_i and leaves the void complex); bit j of a face is the j-th vertex
    vertices = [i for i in range(len(pres.vars)) if not any(s <= {i} for s in supports)]
    bit = {i: 1 << j for j, i in enumerate(vertices)}
    nonfaces = [sum(map(bit.__getitem__, s)) for s in supports if s <= bit.keys()]
    faces, n = [], len(vertices)
    # grow the faces one bit at a time, above their highest bit; each
    # candidate is tested as it is made, so no layer of candidates is stored
    candidates = [0]
    while True:
        layer = []
        for face in candidates:
            if any(nf & face == nf for nf in nonfaces):
                continue
            if len(faces) == FACE_LIMIT:
                raise InputError(f"the Stanley-Reisner complex of the relations is too large: "
                                 f"more than {FACE_LIMIT} faces are refused")
            faces.append(face)
            layer.append(face)
        if not layer:
            break
        candidates = (f | (1 << i) for f in layer for i in range(f.bit_length(), n))
    return complexes.SimplicialComplex(tuple(i + 1 for i in vertices), frozenset(faces))


_THETA_TERM = re.compile(
    r"^\s*(?:(?P<coeff>[+-]?\d+)\s*\*\s*)?"
    r"theta\[(?P<vec>\s*(?:-?\d+\s*(?:,\s*-?\d+\s*)*)?)(?:;(?P<comp>\d+))?\]\s*$")


def parse_theta_expression(text: str, config: "stratum.DivisorConfiguration") -> ThetaElement:
    """Parse expressions like "theta[1,0,0;0] + 2*theta[0,1,0]".

    The component may be omitted when the indexed stratum is connected.
    Terms are joined by "+"; coefficients are integers.
    """
    result = ThetaElement.zero()
    text = text.strip()
    if not text:
        raise InputError("empty theta expression")
    if text == "0":
        return result
    for term, raw in enumerate(text.split("+"), 1):
        match = _THETA_TERM.match(raw)
        if not match:
            raise InputError(f"malformed theta term {raw.strip()!r}")
        vec_text = match.group("vec").strip()
        comp_text = match.group("comp")
        try:  # \d matches only digits that int() reads, so only its digit limit fails
            coeff = int(match.group("coeff") or 1)
            vec = tuple(int(x) for x in vec_text.split(",")) if vec_text else ()
            component = None if comp_text is None else int(comp_text)
        except ValueError:
            raise InputError(f"theta term {term} has an integer of more than "
                             f"{sys.get_int_max_str_digits()} digits") from None
        if len(vec) != config.k:
            raise InputError(f"theta vector {vec} has length {len(vec)}, expected {config.k}")
        if comp_text is None:
            comps = config.components(stratum.DivisorConfiguration.support(vec))
            if len(comps) > 1:
                raise InputError(
                    f"stratum {sorted(stratum.DivisorConfiguration.support(vec))} has "
                    f"{len(comps)} components; specify one as theta[...;c]")
            component = comps[0] if comps else None  # empty: ThetaBasisElement refuses vec
        elem = ThetaBasisElement(config, vec, component)
        result = result + ThetaElement({elem: Fraction(coeff)})
    return result
