"""Buchberger's algorithm, normal forms, weighted Hilbert functions, and the
Jacobian smoothness certificate.

Pair selection is the normal strategy: critical pairs sit in a heap keyed
once, when the pair is made, by (order key of the lcm, i, j), so the
smallest lcm in the active order comes first and ties go to the smaller
pair index.  Both the coprime-leading-term and the chain criterion are
applied; the chain criterion looks up the set of pairs still pending.  Each
basis element's leading monomial and inverse leading coefficient are
computed once, when it joins the basis.

Division works in place on term dicts.  The dividend's monomials sit in a
heap, each keyed once when it appears, so every step takes the largest one
without rescanning the dividend; a divisor's multiple is added to the dict
term by term.  Polynomial objects are built only for results.  The same
division and S-polynomial routines optionally carry cofactor traces (term
dicts updated in step with the dividend), so that a unit found in an ideal
comes with an explicit combination over the input generators, replayable
exactly.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations
from operator import add, le, neg, sub

from .errors import InputError, UnsupportedStructureError
from .poly import Polynomial, WeightedOrder, require_countable, unit_order


class _Element:
    """A divisor in term-dict form: its terms, leading monomial, inverse
    leading coefficient, the terms below the leading one, and its cofactors
    over the generator list (term dicts, or None when untraced)."""

    __slots__ = ("terms", "lead", "inv_lc", "tail", "cofactors")

    def __init__(self, terms, lead, field, cofactors=None):
        self.terms = terms
        self.lead = lead
        self.inv_lc = field.invert(terms[lead])
        self.tail = [(e, c) for e, c in terms.items() if e != lead]
        self.cofactors = cofactors


def _element(poly, order, cofactors=None):
    return _Element(poly.terms, poly.leading(order)[0], poly.field, cofactors)


def _heap_entry(key, exps):
    """Heap entry of a monomial; order-larger monomials pop first."""
    weight, degree, _ = key(exps)
    return (-weight, -degree, tuple(map(neg, exps)), exps)


def _add_shifted(target, terms, shift, coeff, field, fresh=None):
    """target += coeff * x^shift * terms, in place; terms is an iterable of
    (exponents, coefficient) pairs and coeff is nonzero.  Monomials new to
    target are appended to the list fresh, when one is given."""
    fadd, fmul, is_zero = field.add, field.mul, field.is_zero
    for exps, c in terms:
        m = tuple(map(add, exps, shift))
        value = fmul(c, coeff)
        old = target.get(m)
        if old is None:
            if fresh is not None:
                fresh.append(m)
        else:
            value = fadd(old, value)
            if is_zero(value):
                del target[m]
                continue
        target[m] = value


def _reduce(terms, cofactors, divisors, order, field):
    """Full division of the term dict `terms`, which is consumed.

    Returns the remainder as a term dict in descending order, so its first
    key is its leading monomial; no remainder term is divisible by a
    divisor's leading monomial.  Each step divides by the first divisor
    whose leading monomial divides the current leading term.  cofactors (a
    list of term dicts, or None) is updated in place alongside.
    """
    key = order.key
    heap = [_heap_entry(key, e) for e in terms]
    heapify(heap)
    rem = {}
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
        factor = field.neg(field.mul(coeff, g.inv_lc))
        # every new term is below exps, so a stripped monomial never returns
        fresh = []
        _add_shifted(terms, g.tail, shift, factor, field, fresh)
        for m in fresh:
            heappush(heap, _heap_entry(key, m))
        if cofactors is not None:
            for cof, g_cof in zip(cofactors, g.cofactors):
                _add_shifted(cof, g_cof.items(), shift, factor, field)
    return rem


def _s_polynomial(f, g, field):
    """S-polynomial of two elements: (term dict, cofactor dicts or None)."""
    lcm = tuple(map(max, f.lead, g.lead))
    f_shift = tuple(map(sub, lcm, f.lead))
    g_shift = tuple(map(sub, lcm, g.lead))
    g_coeff = field.neg(g.inv_lc)
    terms = {}
    _add_shifted(terms, f.tail, f_shift, f.inv_lc, field)
    _add_shifted(terms, g.tail, g_shift, g_coeff, field)
    cofactors = None
    if f.cofactors is not None:
        cofactors = []
        for f_cof, g_cof in zip(f.cofactors, g.cofactors):
            cof = {}
            _add_shifted(cof, f_cof.items(), f_shift, f.inv_lc, field)
            _add_shifted(cof, g_cof.items(), g_shift, g_coeff, field)
            cofactors.append(cof)
    return terms, cofactors


def _buchberger(gens, order, with_trace):
    """Reduced basis as (term dict, cofactor dicts or None) pairs, largest
    leading monomial first."""
    field = gens[0].field
    one = {(0,) * len(gens[0].vars): field.one}
    basis = []
    for idx, g in enumerate(gens):
        if g.is_zero():
            continue
        cof = None
        if with_trace:
            cof = [dict(one) if j == idx else {} for j in range(len(gens))]
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
        lcm = lcm_key[2]
        # coprime leading terms: S-polynomial reduces to zero
        if not any(map(min, leads[i], leads[j])):
            continue
        # chain criterion: an already-processed third element divides the lcm
        if any(k != i and k != j and all(map(le, lead_k, lcm))
               and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending
               for k, lead_k in enumerate(leads)):
            continue
        terms, cofactors = _s_polynomial(basis[i], basis[j], field)
        rem = _reduce(terms, cofactors, basis, order, field)
        if not rem:
            continue
        basis.append(_Element(rem, next(iter(rem)), field, cofactors))
        leads.append(basis[-1].lead)
        add_pairs(len(basis) - 1)

    return _minimal_reduced(basis, order, field)


def _minimal_reduced(basis, order, field):
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
    fmul = field.mul
    for idx, g in enumerate(kept):
        others = kept[:idx] + kept[idx + 1:]
        cofactors = None if g.cofactors is None else [dict(c) for c in g.cofactors]
        terms = _reduce(dict(g.terms), cofactors, others, order, field)
        inv = field.invert(terms[g.lead])
        reduced.append((g.lead, {e: fmul(c, inv) for e, c in terms.items()},
                        None if cofactors is None else
                        [{e: fmul(c, inv) for e, c in cof.items()} for cof in cofactors]))
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
    field = gens[0].field
    for g in gens[1:]:
        if g.vars != gens[0].vars or g.field != field:
            raise InputError("generators live in different rings")
    variables = gens[0].vars
    reduced = _buchberger(gens, order, with_trace)
    basis = [Polynomial(variables, field, terms) for terms, _ in reduced]
    if with_trace:
        return basis, [[Polynomial(variables, field, c) for c in cofactors]
                       for _, cofactors in reduced]
    return basis


def reduce_modulo(f: Polynomial, basis, order: WeightedOrder) -> Polynomial:
    """Remainder of f under full division by an arbitrary polynomial list."""
    live = [_element(g, order) for g in basis if not g.is_zero()]
    if not live:
        return f
    return Polynomial(f.vars, f.field, _reduce(dict(f.terms), None, live, order, f.field))


def is_groebner(basis, order: WeightedOrder) -> bool:
    """Check that every S-polynomial of the basis reduces to zero."""
    basis = [g for g in basis if not g.is_zero()]
    live = [_element(g, order) for g in basis]
    for f, g in combinations(live, 2):
        terms, _ = _s_polynomial(f, g, basis[0].field)
        if _reduce(terms, None, live, order, basis[0].field):
            return False
    return True


class Ideal:
    """A generator list with a cached reduced Groebner basis per order."""

    def __init__(self, gens, variables=None, field=None):
        gens = tuple(gens)
        if gens:
            variables = gens[0].vars
            field = gens[0].field
            for g in gens:
                if g.vars != variables or g.field != field:
                    raise InputError("generators live in different rings")
        elif variables is None or field is None:
            raise InputError("the zero ideal needs explicit variables and field")
        self.gens = gens
        self.vars = tuple(variables)
        self.field = field
        self._cache = {}

    def groebner(self, order: WeightedOrder):
        cached = self._cache.get(order)
        if cached is None:
            cached = groebner_basis(self.gens, order)
            self._cache[order] = cached
        return cached

    def normal_form(self, f: Polynomial, order: WeightedOrder) -> Polynomial:
        if f.vars != self.vars or f.field != self.field:
            raise InputError("polynomial lives in a different ring than the ideal")
        return reduce_modulo(f, self.groebner(order), order)

    def contains(self, f: Polynomial, order: WeightedOrder) -> bool:
        return self.normal_form(f, order).is_zero()

    def __repr__(self):
        return f"Ideal({[g.to_string() for g in self.gens]})"


def normal_form(f: Polynomial, ideal: Ideal, order: WeightedOrder) -> Polynomial:
    return ideal.normal_form(f, order)


def ideal_membership(f: Polynomial, ideal: Ideal, order: WeightedOrder) -> bool:
    return ideal.contains(f, order)


def ideals_equal(first: Ideal, second: Ideal, order: WeightedOrder) -> bool:
    """Mutual membership of generators."""
    return (all(second.contains(g, order) for g in first.gens)
            and all(first.contains(g, order) for g in second.gens))


def hilbert_function_up_to(ideal: Ideal, order: WeightedOrder, bound) -> dict:
    """Counts of standard monomials per weight level up to the bound.

    Keys are all weight values realized by ambient monomials of weight at
    most the bound, so empty graded pieces report 0 rather than vanishing
    from the map.  For inhomogeneous ideals this is filtration-level
    counting: the w entry is dim F_w / F_{w-1} of the quotient.

    It walks every monomial within the bound; when they number more than
    logcy.poly.COUNT_LIMIT it raises InputError first.
    """
    weights = order.int_weights
    if len(weights) != len(ideal.vars):
        raise InputError("order weight count does not match the variable count")
    levels = order.level_counts(bound)
    require_countable(sum(levels))  # the monomials the walk visits
    top = len(levels) - 1  # the walk is in scaled weights
    basis = ideal.groebner(order)
    leads = [g.leading(order)[0] for g in basis]
    counts = {}
    nvars = len(weights)

    def walk(idx, exps, weight):
        if idx == nvars:
            counts.setdefault(weight, 0)
            if not any(all(map(le, lead, exps)) for lead in leads):
                counts[weight] += 1
            return
        e = 0
        while weight + weights[idx] * e <= top:
            walk(idx + 1, exps + (e,), weight + weights[idx] * e)
            e += 1

    walk(0, (), 0)
    return {Fraction(weight, order.scale): n for weight, n in counts.items()}


class SmoothnessCertificate:
    """An explicit combination sum(cofactor_i * generator_i) = 1."""

    __slots__ = ("generators", "cofactors")

    def __init__(self, generators, cofactors):
        self.generators = generators
        self.cofactors = cofactors

    def replay(self) -> Polynomial:
        variables = self.generators[0].vars
        field = self.generators[0].field
        total = Polynomial.zero(variables, field)
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
    variables = matrix[0][0].vars
    field = matrix[0][0].field
    total = Polynomial.zero(variables, field)
    for col in range(n):
        entry = matrix[0][col]
        if entry.is_zero():
            continue
        minor = [[row[c] for c in range(n) if c != col] for row in matrix[1:]]
        term = entry * _determinant(minor)
        total = total + term if col % 2 == 0 else total - term
    return total


def jacobian_smooth(ideal: Ideal, expected_codim: int, order: WeightedOrder | None = None):
    """Jacobian criterion for a complete-intersection presentation.

    Returns (True, certificate) when 1 lies in the ideal generated by the
    relations together with all c x c minors of their Jacobian matrix, i.e.
    the singular locus is empty over the algebraic closure.  (False, None)
    means "not verified smooth"; no claim of an actual singularity is made.
    """
    if len(ideal.gens) != expected_codim:
        raise UnsupportedStructureError(
            f"expected {expected_codim} generators for a codimension-{expected_codim} "
            f"complete intersection, got {len(ideal.gens)}")
    order = order or unit_order(len(ideal.vars))
    jac = [[g.derivative(v) for v in ideal.vars] for g in ideal.gens]
    minors = []
    for cols in combinations(range(len(ideal.vars)), expected_codim):
        sub = [[row[c] for c in cols] for row in jac]
        det = _determinant(sub)
        if not det.is_zero():
            minors.append(det)
    augmented = list(ideal.gens) + minors
    basis, traces = groebner_basis(augmented, order, with_trace=True)
    if len(basis) == 1 and basis[0].total_degree() == 0:
        # basis[0] is monic, hence exactly 1
        cert = SmoothnessCertificate(tuple(augmented), tuple(traces[0]))
        if not (cert.replay() - Polynomial.constant(ideal.vars, 1, ideal.field)).is_zero():
            raise InputError("internal error: smoothness certificate failed to replay")
        return True, cert
    return False, None
