"""Buchberger's algorithm, normal forms, weighted Hilbert functions, and the
Jacobian smoothness certificate, for polynomials over Q.

Every function works on generator lists, or on a Groebner basis its caller
has already computed; nothing here caches a basis.  A caller that needs one
basis more than once keeps it (rees.WeightedPresentation.basis).

Pair selection is the normal strategy: critical pairs sit in a heap keyed
once, when the pair is made, by (order key of the lcm, i, j), so the
smallest lcm in the active order comes first and ties go to the smaller
pair index.  Both the coprime-leading-term and the chain criterion are
applied; the chain criterion looks up the set of pairs still pending.  Each
basis element's leading monomial and leading coefficient are computed once,
when it joins the basis.

Division is fraction-free (primitive reduction, Geddes, Czapor and Labahn,
Algorithms for Computer Algebra, ch. 10).  Inputs are cleared of
denominators once; a basis element is a primitive integer term dict with a
positive leading coefficient.  A step cancels the dividend's leading term c
by f := (lc(g)/d) f - (c/d) x^s g, d = gcd(c, lc(g)), scaling the remainder
collected so far alike; the content is divided out when the division ends.
Pair selection and both criteria read only leading monomials, so every
S-pair and basis element is the one Fraction division gives, up to a
nonzero rational factor; Fractions appear only when the basis is made monic.

Division works in place on term dicts.  The dividend's monomials sit in a
heap, each keyed once when it appears, so every step takes the largest one
without rescanning the dividend; a divisor's multiple is added to the dict
term by term.  Polynomial objects are built only for results.  The same
division and S-polynomial routines optionally carry cofactor traces
(Fraction term dicts scaled in step with the dividend), so that a unit found
in an ideal comes with an explicit combination over the input generators,
replayable exactly.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import gcd, lcm
from operator import add, le, neg, sub

from .errors import InputError, UnsupportedStructureError
from .poly import Polynomial, WeightedOrder, require_countable, unit_order


class _Element:
    """A divisor in term-dict form: its primitive integer terms, leading
    monomial, leading coefficient (positive), the terms below the leading
    one, and its cofactors over the generator list (Fraction term dicts, or
    None when untraced)."""

    __slots__ = ("terms", "lead", "lc", "tail", "cofactors")

    def __init__(self, terms, lead, cofactors=None):
        self.terms = terms
        self.lead = lead
        self.lc = terms[lead]
        self.tail = [(e, c) for e, c in terms.items() if e != lead]
        self.cofactors = cofactors


def _integer_terms(poly):
    """(integer term dict, m): poly's terms times m, the lcm of their denominators."""
    m = lcm(*(c.denominator for c in poly.terms.values()))
    return {e: c.numerator * (m // c.denominator) for e, c in poly.terms.items()}, m


def _make_primitive(terms, lead, cofactors=None):
    """Divide terms, and the cofactors alongside, in place by their content,
    signed so that the leading coefficient becomes positive; return it."""
    content = gcd(*terms.values())
    if terms[lead] < 0:
        content = -content
    if content != 1:
        for e in terms:
            terms[e] //= content
        for cof in cofactors or ():
            for e in cof:
                cof[e] /= content
    return content


def _element(poly, order, cofactors=None):
    terms, m = _integer_terms(poly)
    lead = max(terms, key=order.key)
    if cofactors is not None:
        cofactors = [{e: c * m for e, c in cof.items()} for cof in cofactors]
    _make_primitive(terms, lead, cofactors)
    return _Element(terms, lead, cofactors)


def _heap_entry(key, exps):
    """Heap entry of a monomial; order-larger monomials pop first."""
    weight, degree, _ = key(exps)
    return (-weight, -degree, tuple(map(neg, exps)), exps)


def _add_shifted(target, terms, shift, coeff, fresh=None):
    """target += coeff * x^shift * terms, in place; terms is an iterable of
    (exponents, coefficient) pairs and coeff is nonzero.  Monomials new to
    target are appended to the list fresh, when one is given."""
    for exps, c in terms:
        m = tuple(map(add, exps, shift))
        value = c * coeff
        old = target.get(m)
        if old is None:
            if fresh is not None:
                fresh.append(m)
        else:
            value += old
            if not value:
                del target[m]
                continue
        target[m] = value


def _reduce(terms, cofactors, divisors, order):
    """Full fraction-free division of the integer term dict `terms`, which
    is consumed.

    Returns (remainder, scale): the remainder is a primitive integer term
    dict in descending order, so its first key is its leading monomial, and
    it equals scale times the remainder of Fraction division; no remainder
    term is divisible by a divisor's leading monomial.  Each step divides by
    the first divisor whose leading monomial divides the current leading
    term.  cofactors (a list of term dicts, or None) is updated in place
    alongside, by the same multipliers and the same content division.
    """
    key = order.key
    heap = [_heap_entry(key, e) for e in terms]
    heapify(heap)
    rem = {}
    scale = 1
    while heap:
        exps = heappop(heap)[3]
        coeff = terms.pop(exps, None)
        if coeff is None:
            continue  # cancelled earlier, or a second entry of a stripped term
        for g in divisors:
            if all(map(le, g.lead, exps)):
                break
        else:
            rem[exps] = coeff
            continue
        shift = tuple(map(sub, exps, g.lead))
        d = gcd(coeff, g.lc)
        multiplier = g.lc // d
        if multiplier != 1:
            scale *= multiplier
            for target in (terms, rem, *(cofactors or ())):
                for e in target:
                    target[e] *= multiplier
        factor = -(coeff // d)
        # every new term is below exps, so a stripped monomial never returns
        fresh = []
        _add_shifted(terms, g.tail, shift, factor, fresh)
        for m in fresh:
            heappush(heap, _heap_entry(key, m))
        if cofactors is not None:
            for cof, g_cof in zip(cofactors, g.cofactors):
                _add_shifted(cof, g_cof.items(), shift, factor)
    if rem:
        scale = Fraction(scale, _make_primitive(rem, next(iter(rem)), cofactors))
    return rem, scale


def _s_polynomial(f, g):
    """Cross-multiplied S-polynomial of two elements, (lc(g)/d) x^a f -
    (lc(f)/d) x^b g with d = gcd(lc(f), lc(g)): (integer term dict,
    cofactor dicts or None)."""
    top = tuple(map(max, f.lead, g.lead))
    f_shift = tuple(map(sub, top, f.lead))
    g_shift = tuple(map(sub, top, g.lead))
    d = gcd(f.lc, g.lc)
    f_coeff, g_coeff = g.lc // d, -(f.lc // d)
    terms = {}
    _add_shifted(terms, f.tail, f_shift, f_coeff)
    _add_shifted(terms, g.tail, g_shift, g_coeff)
    cofactors = None
    if f.cofactors is not None:
        cofactors = []
        for f_cof, g_cof in zip(f.cofactors, g.cofactors):
            cof = {}
            _add_shifted(cof, f_cof.items(), f_shift, f_coeff)
            _add_shifted(cof, g_cof.items(), g_shift, g_coeff)
            cofactors.append(cof)
    return terms, cofactors


def _buchberger(gens, order, with_trace):
    """Reduced basis as (term dict, cofactor dicts or None) pairs, largest
    leading monomial first."""
    one = {(0,) * len(gens[0].vars): Fraction(1)}
    basis = []
    for idx, g in enumerate(gens):
        if g.is_zero():
            continue
        cof = None
        if with_trace:
            cof = [one if j == idx else {} for j in range(len(gens))]
        basis.append(_element(g, order, cof))
    if not basis:
        return []

    key = order.key
    leads = [g.lead for g in basis]
    heap = []      # (order key of the lcm, i, j); the key's last entry is the lcm
    pending = set()

    def add_pairs(j):
        for i in range(j):
            heappush(heap, (key(tuple(map(max, leads[i], leads[j]))), i, j))
            pending.add((i, j))

    for j in range(1, len(basis)):
        add_pairs(j)

    while heap:
        lcm_key, i, j = heappop(heap)
        pending.discard((i, j))
        top = lcm_key[2]
        # coprime leading terms: S-polynomial reduces to zero
        if not any(map(min, leads[i], leads[j])):
            continue
        # chain criterion: an already-processed third element divides the lcm
        if any(k != i and k != j and all(map(le, lead_k, top))
               and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending
               for k, lead_k in enumerate(leads)):
            continue
        terms, cofactors = _s_polynomial(basis[i], basis[j])
        rem, _ = _reduce(terms, cofactors, basis, order)
        if not rem:
            continue
        basis.append(_Element(rem, next(iter(rem)), cofactors))
        leads.append(basis[-1].lead)
        add_pairs(len(basis) - 1)

    return _minimal_reduced(basis, order)


def _minimal_reduced(basis, order):
    # drop elements whose leading term another element divides
    leads = [g.lead for g in basis]
    kept = []
    for i, lt in enumerate(leads):
        if not any(j != i and all(map(le, other, lt)) and (other != lt or j < i)
                   for j, other in enumerate(leads)):
            kept.append(basis[i])
    # interreduce against the other kept elements and make leading
    # coefficients 1; kept leading terms divide no other, so each survives
    reduced = []
    for idx, g in enumerate(kept):
        others = kept[:idx] + kept[idx + 1:]
        cofactors = None if g.cofactors is None else [dict(c) for c in g.cofactors]
        terms, _ = _reduce(dict(g.terms), cofactors, others, order)
        lc = terms[g.lead]
        reduced.append((g.lead, {e: Fraction(c, lc) for e, c in terms.items()},
                        None if cofactors is None else
                        [{e: c / lc for e, c in cof.items()} for cof in cofactors]))
    reduced.sort(key=lambda item: order.key(item[0]), reverse=True)
    return [(terms, cofactors) for _, terms, cofactors in reduced]


def groebner_basis(gens, order: WeightedOrder, with_trace=False):
    """Reduced Groebner basis of the ideal generated by gens.

    With with_trace=True also returns, per basis element, the cofactor list
    expressing it as a combination of the input generators.
    """
    gens = list(gens)
    if not gens:
        return ([], []) if with_trace else []
    variables = gens[0].vars
    if any(g.vars != variables for g in gens):
        raise InputError("generators live in different rings")
    reduced = _buchberger(gens, order, with_trace)
    basis = [Polynomial._unchecked(variables, terms) for terms, _ in reduced]
    if with_trace:
        return basis, [[Polynomial._unchecked(variables, c) for c in cofactors]
                       for _, cofactors in reduced]
    return basis


def reduce_modulo(f: Polynomial, basis, order: WeightedOrder) -> Polynomial:
    """Remainder of f under full division by an arbitrary polynomial list."""
    live = [_element(g, order) for g in basis if not g.is_zero()]
    if not live:
        return f
    terms, m = _integer_terms(f)
    rem, scale = _reduce(terms, None, live, order)
    scale *= m
    return Polynomial._unchecked(f.vars, {e: c / scale for e, c in rem.items()})


def hilbert_function_up_to(basis, order: WeightedOrder, bound) -> dict:
    """Counts of standard monomials per weight level up to the bound, for
    the ideal whose Groebner basis in this order is `basis`.

    Keys are all weight values realized by ambient monomials of weight at
    most the bound, so empty graded pieces report 0 rather than vanishing
    from the map.  For inhomogeneous ideals this is filtration-level
    counting: the w entry is dim F_w / F_{w-1} of the quotient.

    It walks every monomial within the bound; when they number more than
    logcy.errors.COUNT_LIMIT it raises InputError first.
    """
    weights = order.int_weights
    if basis and len(weights) != len(basis[0].vars):
        raise InputError("order weight count does not match the variable count")
    levels = order.level_counts(bound)
    require_countable(sum(levels))  # the monomials the walk visits
    top = len(levels) - 1  # the walk is in scaled weights
    leads = [g.leading(order)[0] for g in basis]
    counts = {}
    nvars = len(weights)
    stack = [((), 0)]  # exponents of the first variables and their weight
    while stack:
        exps, weight = stack.pop()
        idx = len(exps)
        if idx == nvars:
            counts.setdefault(weight, 0)
            if not any(all(map(le, lead, exps)) for lead in leads):
                counts[weight] += 1
            continue
        step = weights[idx]
        # pushed from the largest exponent down, so the smallest is walked first
        for e in range((top - weight) // step, -1, -1):
            stack.append((exps + (e,), weight + step * e))
    return {Fraction(weight, order.scale): n for weight, n in counts.items()}


class SmoothnessCertificate:
    """An explicit combination sum(cofactor_i * generator_i) = 1."""

    __slots__ = ("generators", "cofactors")

    def __init__(self, generators, cofactors):
        self.generators = generators
        self.cofactors = cofactors

    def replay(self) -> Polynomial:
        total = Polynomial.zero(self.generators[0].vars)
        for g, c in zip(self.generators, self.cofactors):
            total = total + g * c
        return total


def _determinant(matrix):
    """Exact determinant of a square matrix of polynomials (Laplace expansion)."""
    n = len(matrix)
    if n == 0:
        raise InputError("determinant of an empty matrix")
    if n == 1:
        return matrix[0][0]
    total = Polynomial.zero(matrix[0][0].vars)
    for col in range(n):
        entry = matrix[0][col]
        if entry.is_zero():
            continue
        minor = [[row[c] for c in range(n) if c != col] for row in matrix[1:]]
        term = entry * _determinant(minor)
        total = total + term if col % 2 == 0 else total - term
    return total


def jacobian_smooth(relations, expected_codim: int):
    """Jacobian criterion for a complete-intersection presentation.

    Returns (True, certificate) when 1 lies in the ideal generated by the
    relations together with all c x c minors of their Jacobian matrix, i.e.
    the singular locus is empty over the algebraic closure.  (False, None)
    means "not verified smooth"; no claim of an actual singularity is made.
    """
    relations = list(relations)
    if len(relations) != expected_codim:
        raise UnsupportedStructureError(
            f"expected {expected_codim} generators for a codimension-{expected_codim} "
            f"complete intersection, got {len(relations)}")
    if not relations:
        raise InputError("the Jacobian criterion needs at least one relation")
    variables = relations[0].vars
    jac = [[g.derivative(v) for v in variables] for g in relations]
    minors = []
    for cols in combinations(range(len(variables)), expected_codim):
        sub = [[row[c] for c in cols] for row in jac]
        det = _determinant(sub)
        if not det.is_zero():
            minors.append(det)
    augmented = relations + minors
    basis, traces = groebner_basis(augmented, unit_order(len(variables)), with_trace=True)
    if len(basis) == 1 and basis[0].total_degree() == 0:
        # basis[0] is monic, hence exactly 1
        cert = SmoothnessCertificate(tuple(augmented), tuple(traces[0]))
        if not (cert.replay() - Polynomial.constant(variables, 1)).is_zero():
            raise AssertionError("smoothness certificate failed to replay")
        return True, cert
    return False, None
