"""Shared test utilities: random model generators and independent oracles.

Random divisor configurations come from a token model: divisors are subsets
of a finite connected graph and stratum components are genuine connected
components of induced subgraphs, so the component maps are containment maps
and compose consistently by construction.
"""

import json
import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations, product
from operator import add, le, neg, sub

from hypothesis import strategies as st

from logcy import linprog
from logcy.complexes import SimplicialComplex
from logcy.energy import ChordLabel
from logcy.errors import InputError
from logcy.exactlin import rank
from logcy.groebner import reduce_modulo
from logcy.homology import BettiTable
from logcy.mirror import ADMISSIBLE_MONOMIALS, APPENDIX_C_VARS
from logcy.poly import Polynomial
from logcy.stratum import DivisorConfiguration
from logcy.trees import LogPssTree, TreeEdge


def _connected_components(tokens, edges):
    tokens = set(tokens)
    comps = []
    remaining = set(tokens)
    while remaining:
        start = min(remaining)
        seen = {start}
        frontier = [start]
        while frontier:
            t = frontier.pop()
            for e in edges:
                if t in e:
                    other = next(iter(e - {t}))
                    if other in tokens and other not in seen:
                        seen.add(other)
                        frontier.append(other)
        comps.append(frozenset(seen))
        remaining -= seen
    return sorted(comps, key=min)


def substitute(f, images, ring):
    """Oracle: compose f with variable -> Polynomial images, expanded over ring.

    The images live in ring; a variable of f without an image must be a
    variable of ring too, and stands for itself.
    """
    result = Polynomial.zero(ring)
    for exps, coeff in f.terms.items():
        term = Polynomial.constant(ring, coeff)
        for name, e in zip(f.vars, exps):
            image = images[name] if name in images else Polynomial.variable(ring, name)
            term = term * image ** e
        result = result + term
    return result


def numeric_hypersurface_family(coefficients):
    """Appendix C's f_a = u(x1*x2*x3 - u) - g_a for seven rationals a_i, built
    in Q[x1, x2, x3, u] from constant coefficients: an oracle for evaluating
    the symbolic family at them."""
    f = Polynomial(APPENDIX_C_VARS, {(1, 1, 1, 1): 1, (0, 0, 0, 2): -1})
    for exps, a in zip(ADMISSIBLE_MONOMIALS, coefficients, strict=True):
        f = f - Polynomial.constant(APPENDIX_C_VARS, a) * Polynomial.monomial(
            APPENDIX_C_VARS, exps, 1)
    return f


def is_groebner(basis, order):
    """Oracle: Buchberger's criterion, every S-polynomial of the basis
    reduces to zero modulo the basis."""
    basis = [g for g in basis if not g.is_zero()]
    for f, g in combinations(basis, 2):
        (ef, cf), (eg, cg) = f.leading(order), g.leading(order)
        lcm = tuple(map(max, ef, eg))
        spoly = (f.mul_term([a - b for a, b in zip(lcm, ef)], 1 / cf)
                 - g.mul_term([a - b for a, b in zip(lcm, eg)], 1 / cg))
        if not reduce_modulo(spoly, basis, order).is_zero():
            return False
    return True


class _OracleElement:
    """A divisor of the Fraction oracle: terms, leading monomial, inverse
    leading coefficient, tail terms and cofactors (or None)."""

    __slots__ = ("terms", "lead", "inv_lc", "tail", "cofactors")

    def __init__(self, terms, lead, cofactors=None):
        self.terms = terms
        self.lead = lead
        self.inv_lc = 1 / terms[lead]
        self.tail = [(e, c) for e, c in terms.items() if e != lead]
        self.cofactors = cofactors


def _oracle_element(poly, order, cofactors=None):
    return _OracleElement(poly.terms, poly.leading(order)[0], cofactors)


def _oracle_heap_entry(key, exps):
    weight, degree, _ = key(exps)
    return (-weight, -degree, tuple(map(neg, exps)), exps)


def _oracle_add_shifted(target, terms, shift, coeff, fresh=None):
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


def _oracle_reduce(terms, cofactors, divisors, order):
    """Fraction division by the first divisor whose leading monomial divides
    the current leading term; the remainder dict is in descending order."""
    key = order.key
    heap = [_oracle_heap_entry(key, e) for e in terms]
    heapify(heap)
    rem = {}
    while heap:
        exps = heappop(heap)[3]
        coeff = terms.pop(exps, None)
        if coeff is None:
            continue
        for g in divisors:
            if all(map(le, g.lead, exps)):
                break
        else:
            rem[exps] = coeff
            continue
        shift = tuple(map(sub, exps, g.lead))
        factor = -coeff * g.inv_lc
        fresh = []
        _oracle_add_shifted(terms, g.tail, shift, factor, fresh)
        for m in fresh:
            heappush(heap, _oracle_heap_entry(key, m))
        if cofactors is not None:
            for cof, g_cof in zip(cofactors, g.cofactors):
                _oracle_add_shifted(cof, g_cof.items(), shift, factor)
    return rem


def _oracle_s_polynomial(f, g):
    lcm = tuple(map(max, f.lead, g.lead))
    f_shift = tuple(map(sub, lcm, f.lead))
    g_shift = tuple(map(sub, lcm, g.lead))
    g_coeff = -g.inv_lc
    terms = {}
    _oracle_add_shifted(terms, f.tail, f_shift, f.inv_lc)
    _oracle_add_shifted(terms, g.tail, g_shift, g_coeff)
    cofactors = None
    if f.cofactors is not None:
        cofactors = []
        for f_cof, g_cof in zip(f.cofactors, g.cofactors):
            cof = {}
            _oracle_add_shifted(cof, f_cof.items(), f_shift, f.inv_lc)
            _oracle_add_shifted(cof, g_cof.items(), g_shift, g_coeff)
            cofactors.append(cof)
    return terms, cofactors


def _oracle_buchberger(gens, order, with_trace):
    one = {(0,) * len(gens[0].vars): Fraction(1)}
    basis = []
    for idx, g in enumerate(gens):
        if g.is_zero():
            continue
        cof = None
        if with_trace:
            cof = [dict(one) if j == idx else {} for j in range(len(gens))]
        basis.append(_oracle_element(g, order, cof))
    if not basis:
        return []
    key = order.key
    leads = [g.lead for g in basis]
    heap = []
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
        if not any(map(min, leads[i], leads[j])):
            continue
        if any(k != i and k != j and all(map(le, lead_k, lcm))
               and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending
               for k, lead_k in enumerate(leads)):
            continue
        terms, cofactors = _oracle_s_polynomial(basis[i], basis[j])
        rem = _oracle_reduce(terms, cofactors, basis, order)
        if not rem:
            continue
        basis.append(_OracleElement(rem, next(iter(rem)), cofactors))
        leads.append(basis[-1].lead)
        add_pairs(len(basis) - 1)

    leads = [g.lead for g in basis]
    kept = [basis[i] for i, lt in enumerate(leads)
            if not any(j != i and all(map(le, other, lt)) and (other != lt or j < i)
                       for j, other in enumerate(leads))]
    reduced = []
    for idx, g in enumerate(kept):
        others = kept[:idx] + kept[idx + 1:]
        cofactors = None if g.cofactors is None else [dict(c) for c in g.cofactors]
        terms = _oracle_reduce(dict(g.terms), cofactors, others, order)
        inv = 1 / terms[g.lead]
        reduced.append((g.lead, {e: c * inv for e, c in terms.items()},
                        None if cofactors is None else
                        [{e: c * inv for e, c in cof.items()} for cof in cofactors]))
    reduced.sort(key=lambda item: order.key(item[0]), reverse=True)
    return [(terms, cofactors) for _, terms, cofactors in reduced]


def buchberger_oracle(gens, order, with_trace=False):
    """Oracle: the Fraction Buchberger run that groebner_basis replaced, with
    the same pair selection, criteria and divisor choice, dividing by the
    inverse leading coefficient at every step.  Same return shape as
    groebner_basis."""
    gens = list(gens)
    if not gens:
        return ([], []) if with_trace else []
    variables = gens[0].vars
    reduced = _oracle_buchberger(gens, order, with_trace)
    basis = [Polynomial(variables, terms) for terms, _ in reduced]
    if with_trace:
        return basis, [[Polynomial(variables, c) for c in cofactors]
                       for _, cofactors in reduced]
    return basis


def reduce_modulo_oracle(f, basis, order):
    """Oracle: reduce_modulo by Fraction division."""
    live = [_oracle_element(g, order) for g in basis if not g.is_zero()]
    if not live:
        return f
    return Polynomial(f.vars, _oracle_reduce(dict(f.terms), None, live, order))


def random_configuration(rng: random.Random, k_max=4, comp_max=2, cy_prob=0.5,
                         basis_cap=None, mult_bound=2):
    """Random configuration with consistent component maps.

    basis_cap, when given, redraws until the basis with entries <= mult_bound
    has at most that many elements.
    """
    while True:
        k = rng.randint(1, k_max)
        n_tokens = rng.randint(3, 8)
        tokens = list(range(n_tokens))
        edges = set()
        order = tokens[:]
        rng.shuffle(order)
        for i in range(1, n_tokens):
            edges.add(frozenset((order[i], rng.choice(order[:i]))))
        for _ in range(rng.randint(0, n_tokens)):
            a, b = rng.sample(tokens, 2)
            edges.add(frozenset((a, b)))
        divisors = {i: frozenset(t for t in tokens if rng.random() < 0.55)
                    for i in range(1, k + 1)}

        comp_sets = {}
        ok = True
        for size in range(k + 1):
            for index in combinations(range(1, k + 1), size):
                index = frozenset(index)
                cell = set(tokens)
                for i in index:
                    cell &= divisors[i]
                comps = _connected_components(cell, edges)
                if len(comps) > comp_max:
                    ok = False
                    break
                comp_sets[index] = comps
            if not ok:
                break
        if not ok:
            continue

        if rng.random() < cy_prob:
            a = [Fraction(1)] * k
        else:
            choices = [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(0), Fraction(2)]
            a = [rng.choice(choices) for _ in range(k)]
        kappa = [rng.choice([Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3)])
                 for _ in range(k)]

        strata = {index: tuple(range(len(comps))) for index, comps in comp_sets.items()}
        maps = {}
        for index, comps in comp_sets.items():
            if not comps:
                continue
            for i in index:
                sub = index - {i}
                assign = {}
                for cid, cset in enumerate(comps):
                    target = next(tid for tid, tset in enumerate(comp_sets[sub])
                                  if cset <= tset)
                    assign[cid] = target
                maps[(index, sub)] = assign
        config = DivisorConfiguration(k, kappa, a, strata, maps)
        if basis_cap is not None:
            size = _basis_size(config, mult_bound)
            if size > basis_cap:
                continue
        return config


def _basis_size(config, mult_bound):
    from itertools import product
    total = 0
    for vec in product(range(mult_bound + 1), repeat=config.k):
        if config.in_basis(vec):
            total += len(config.components(DivisorConfiguration.support(vec)))
    return total


def basis_elements(config, mult_bound=2):
    """All theta basis symbols with entries bounded by mult_bound."""
    from itertools import product

    from logcy.sr_algebra import ThetaBasisElement
    out = []
    for vec in product(range(mult_bound + 1), repeat=config.k):
        if config.in_basis(vec):
            for comp in config.components(DivisorConfiguration.support(vec)):
                out.append(ThetaBasisElement(config, vec, comp))
    return out


def _weight_box(config, weight_bound):
    """Every multiplicity vector of weight at most the bound, with its weight."""
    bound = Fraction(weight_bound)

    def walk(idx, vec, weight):
        if idx == config.k:
            yield vec, weight
            return
        m = 0
        while weight + config.kappa[idx] * m <= bound:
            yield from walk(idx + 1, vec + (m,), weight + config.kappa[idx] * m)
            m += 1

    return walk(0, (), Fraction(0))


def graded_dimension_oracle(config, weight_bound):
    """graded_dimension by visiting every vector in the weight box."""
    counts = {}
    for vec, weight in _weight_box(config, weight_bound):
        counts.setdefault(weight, 0)
        if config.in_basis(vec):
            counts[weight] += len(config.components(DivisorConfiguration.support(vec)))
    return counts


def random_downward_closed(rng: random.Random, k: int):
    """Random downward-closed family of subsets of {1..k} containing the empty set."""
    faces = {frozenset()}
    candidates = [frozenset(c) for size in range(1, k + 1)
                  for c in combinations(range(1, k + 1), size)]
    rng.shuffle(candidates)
    for cand in candidates:
        if all(cand - {v} in faces for v in cand) and rng.random() < 0.6:
            faces.add(cand)
    return faces


def empty_face_only():
    """The complex whose only face is the empty set: the (-1)-sphere."""
    return SimplicialComplex.from_facets([frozenset()])


def sphere_boundary(d):
    """Boundary of the simplex on d+2 vertices: a triangulated d-sphere."""
    return SimplicialComplex.from_facets(combinations(range(1, d + 3), d + 1))


def full_simplex(n_vertices):
    """The simplex on vertices 1..n_vertices, with every face."""
    return SimplicialComplex.from_facets([range(1, n_vertices + 1)])


def cross_polytope_boundary(n):
    """Boundary of the n-dimensional cross-polytope: a triangulated (n-1)-sphere.

    Vertices are 1..2n with antipodal pairs (2i-1, 2i); faces are the subsets
    avoiding every antipodal pair.  n = 3 is the octahedron.
    """
    return SimplicialComplex.from_facets(product(*((2 * i - 1, 2 * i) for i in range(1, n + 1))))


def star(cx, face):
    """Subcomplex generated by all faces containing the given face."""
    face = frozenset(face)
    return SimplicialComplex.from_facets(g for g in cx.faces if face <= g)


def euler_characteristic(cx):
    """Alternating count of nonempty faces."""
    return sum((-1) ** (len(f) - 1) for f in cx.faces if f)


def facets_oracle(cx):
    """Inclusion-maximal faces by comparing every pair of faces."""
    faces = cx.faces
    maximal = [f for f in faces if not any(f < g for g in faces)]
    return sorted(maximal, key=lambda f: (len(f), sorted(f)))


def core_oracle(cx):
    """Induced subcomplex on the vertices whose star is a proper subcomplex."""
    faces = cx.faces
    kept = {v for v in cx.vertices if star(cx, [v]).faces != faces}
    return SimplicialComplex.from_facets(f for f in faces if f <= kept)


def link_oracle(cx, face):
    """link(F) = { G : G disjoint from F and G union F a face }."""
    face, faces = frozenset(face), cx.faces
    return SimplicialComplex.from_facets(g for g in faces if not g & face and g | face in faces)


def minimal_nonfaces_oracle(cx):
    """Minimal non-faces by testing every vertex subset."""
    verts, faces = cx.vertices, cx.faces
    minimal = []
    for size in range(1, len(verts) + 1):
        for subset in combinations(verts, size):
            fs = frozenset(subset)
            if fs in faces:
                continue
            if all(fs - {v} in faces for v in fs):
                minimal.append(fs)
    return sorted(minimal, key=lambda f: (len(f), sorted(f)))


@st.composite
def complex_shapes(draw):
    """Nonvoid complexes: a piece on vertices 1..6, sometimes coned from vertex 0,
    sometimes beside a disjoint piece on 11..14; a piece may be the empty face alone."""
    def piece(pool):
        return draw(st.lists(st.sets(st.sampled_from(pool)), min_size=1, max_size=5))
    facets = piece(range(1, 7))
    if draw(st.booleans()):
        facets = [f | {0} for f in facets]
    if draw(st.booleans()):
        facets += piece(range(11, 15))
    return SimplicialComplex.from_facets(facets)


def reduced_homology_oracle(cx, coeff_field):
    """Reduced Betti numbers from the rank of every boundary map over all of its faces."""
    d = cx.dim()
    faces = [sorted(tuple(sorted(f)) for f in cx.faces if len(f) == n) for n in range(d + 2)]

    def boundary_rank(n):
        index = {face: i for i, face in enumerate(faces[n - 1])}
        return rank(({index[face[:k] + face[k + 1:]]: (-1) ** k for k in range(n)}
                     for face in faces[n]), coeff_field)

    boundary = [0] + [boundary_rank(n) for n in range(1, d + 2)] + [0]
    betti = tuple(len(faces[n]) - boundary[n] - boundary[n + 1] for n in range(d + 2))
    return BettiTable(coeff_field.name, -1, betti)


@st.composite
def relabelled_shapes(draw):
    """complex_shapes with its vertices renamed to distinct arbitrary integers
    (-7, 0, 2**40 and +-2**45 among the candidates): a face's bits index the
    sorted labels, so the renaming moves vertices to other bits and reorders them."""
    cx = draw(complex_shapes())
    n = len(cx.vertices)
    labels = draw(st.lists(st.sampled_from([-7, 0, 2 ** 40, -2 ** 45, 2 ** 45])
                           | st.integers(-2 ** 45, 2 ** 45),
                           min_size=n, max_size=n, unique=True))
    rename = dict(zip(cx.vertices, labels))
    return SimplicialComplex.from_facets([rename[v] for v in f] for f in cx.facets())


def gorenstein_oracle(cx, coeff_field):
    """gorenstein_verdict(cx, coeff_field).to_json() from the subset oracles: the
    sphere test on the complex, then on link_oracle of every nonempty face in
    (size, sorted labels) order, and core_oracle against the whole complex."""
    d = cx.dim()

    def failures_at(face, sub, dim):
        table = reduced_homology_oracle(sub, coeff_field)
        return [{"face": sorted(face), "expected": f"b~_{deg} = {int(deg == dim)}",
                 "found": f"b~_{deg} = {table.rank(deg)}"}
                for deg in sorted(set(table.degrees()) | {dim})
                if table.rank(deg) != int(deg == dim)]

    failures = failures_at((), cx, d)
    for face in sorted((f for f in cx.faces if f), key=lambda f: (len(f), sorted(f))):
        failures += failures_at(face, link_oracle(cx, face), d - len(face))
    core_ok = core_oracle(cx) == cx
    return {"verdict": not failures and core_ok, "dimension": d, "coreEqualsWhole": core_ok,
            "failures": failures}


def winding(chord, v):
    """The chord with its winding vector replaced by v."""
    return ChordLabel(chord.indices, chord.alpha0, chord.alpha1, tuple(v), chord.f0, chord.f1)


def random_tree(rng: random.Random, k_max=3, max_vertices=6):
    """Random valid contact tree (vertex 0 is the root)."""
    k = rng.randint(1, k_max)
    n = rng.randint(1, max_vertices)
    depths = {0: frozenset()}
    parent = {}
    if n >= 2:
        parent[1] = 0
        for v in range(2, n):
            parent[v] = rng.randint(1, v - 1)
    for v in range(1, n):
        depths[v] = frozenset(i for i in range(1, k + 1) if rng.random() < 0.6)
    edges = []
    for v in range(1, n):
        p = parent[v]
        depth_e = depths[v] | depths[p]
        contact = [0] * k
        for i in depth_e:
            contact[i - 1] = rng.randint(-2, 2)
        edges.append(TreeEdge(v, p, depth_e, tuple(contact)))
    leg_vertex = rng.randrange(n)
    tree = LogPssTree(k, depths, edges, root=0, legs=[(leg_vertex, None)],
                      deg_x0=rng.randint(-2, 6))
    assert tree.validate() == []
    return tree


def boundary_matrix(cx, dim):
    """Dense matrix of the boundary map from dim-faces to (dim-1)-faces.

    Rows are indexed by (dim-1)-faces, columns by dim-faces, both in
    `faces_of_dim` order; the empty face sits in degree -1, so the degree-0
    boundary is the augmentation.
    """
    top = cx.faces_of_dim(dim)
    bottom = cx.faces_of_dim(dim - 1)
    index = {f: i for i, f in enumerate(bottom)}
    matrix = [[0] * len(top) for _ in bottom]
    for col, face in enumerate(top):
        verts = sorted(face)
        for drop, v in enumerate(verts):
            matrix[index[frozenset(verts) - {v}]][col] = (-1) ** drop
    return matrix


def smith_diagonal(matrix):
    """Diagonal of the Smith normal form of an integer matrix (nonzero part)."""
    if not matrix or not matrix[0]:
        return []
    a = [list(row) for row in matrix]
    rows, cols = len(a), len(a[0])
    diag = []
    top = 0
    left = 0
    while top < rows and left < cols:
        # find a nonzero pivot
        pivot = None
        for i in range(top, rows):
            for j in range(left, cols):
                if a[i][j] != 0:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        i, j = pivot
        a[top], a[i] = a[i], a[top]
        for row in a:
            row[left], row[j] = row[j], row[left]
        while True:
            # reduce column
            changed = False
            for i in range(top + 1, rows):
                if a[i][left]:
                    q = a[i][left] // a[top][left]
                    a[i] = [x - q * y for x, y in zip(a[i], a[top])]
                    if a[i][left]:
                        a[top], a[i] = a[i], a[top]
                        changed = True
            for j in range(left + 1, cols):
                if a[top][j]:
                    q = a[top][j] // a[top][left]
                    for row in a:
                        row[j] -= q * row[left]
                    if a[top][j]:
                        for row in a:
                            row[left], row[j] = row[j], row[left]
                        changed = True
            if not changed:
                break
        diag.append(abs(a[top][left]))
        top += 1
        left += 1
    return [d for d in diag if d != 0]

def _fraction_scale_row(row, col):
    """Scale the sparse row in place so that its entry at col is 1."""
    scale = row[col]
    if scale == -1:
        for c, v in row.items():
            row[c] = -v
    elif scale != 1:
        inv = Fraction(1, scale)
        for c, v in row.items():
            row[c] = v * inv


def _fraction_subtract_row(row, factor, pivot):
    """row -= factor * pivot in place; entries that vanish are dropped."""
    for c, v in pivot.items():
        x = row.get(c, 0) - factor * v
        if x:
            row[c] = x
        else:
            del row[c]


def simplex_oracle(objective, a_matrix, b_vector):
    """`linprog.solve_max` on Fraction rows: each pivot row is scaled to lead 1.

    The same two phases and Bland's rule, with Fraction reduced costs and
    ratios compared directly, so it must take the same pivots as the
    integer tableau and return the same (status, solution, value).
    """
    c = [Fraction(x) for x in objective]
    a = [[Fraction(x) for x in row] for row in a_matrix]
    b = [Fraction(x) for x in b_vector]
    m, n = len(a), len(c)
    if len(b) != m or any(len(row) != n for row in a):
        raise InputError("inconsistent LP dimensions")
    rhs = n + m  # the right-hand side's column, after the m artificials

    # phase 1: minimize the sum of artificials
    tableau = []
    for i, row in enumerate(a):
        sign = -1 if b[i] < 0 else 1
        entries = {j: sign * x for j, x in enumerate(row) if x}
        entries[n + i] = Fraction(1)
        if b[i]:
            entries[rhs] = sign * b[i]
        tableau.append(entries)
    basis = [n + i for i in range(m)]
    cost = {n + i: Fraction(1) for i in range(m)}
    for row in tableau:
        _fraction_subtract_row(cost, 1, row)
    if not _oracle_simplex_iterate(tableau, basis, cost, rhs):
        raise InputError("phase-1 LP unbounded (impossible)")
    if cost.get(rhs, 0) != 0:
        return linprog.INFEASIBLE, None, None
    for i, row in enumerate(tableau):
        if basis[i] >= n:
            # drive the artificial out through any original column of its row
            col = min((j for j in row if j < n), default=None)
            if col is not None:
                _oracle_pivot(tableau, i, col)
                basis[i] = col

    # phase 2 on the original columns; a redundant row that kept an
    # artificial in the basis at level zero is dropped
    keep = [i for i, col in enumerate(basis) if col < n]
    tableau = [{j: x for j, x in tableau[i].items() if j < n or j == rhs} for i in keep]
    basis = [basis[i] for i in keep]
    cost = {j: -x for j, x in enumerate(c) if x}
    for row, col in zip(tableau, basis):
        if col in cost:
            _fraction_subtract_row(cost, cost[col], row)
    if not _oracle_simplex_iterate(tableau, basis, cost, rhs):
        return linprog.UNBOUNDED, None, None
    solution = [Fraction(0)] * n
    for row, col in zip(tableau, basis):
        solution[col] = row.get(rhs, Fraction(0))
    return linprog.OPTIMAL, solution, cost.get(rhs, Fraction(0))


def _oracle_simplex_iterate(tableau, basis, cost, rhs):
    """Minimize the cost row in place; False when the LP is unbounded."""
    while True:
        # Bland: the smallest column with negative reduced cost enters
        entering = min((j for j, x in cost.items() if x < 0 and j != rhs), default=None)
        if entering is None:
            return True
        leaving = None
        best = None
        for i, row in enumerate(tableau):
            x = row.get(entering, 0)
            if x > 0:
                ratio = row.get(rhs, 0) / x
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving is None:
            return False
        _oracle_pivot(tableau + [cost], leaving, entering)
        basis[leaving] = entering


def _oracle_pivot(rows, r, col):
    """Make col a unit column of rows, with its 1 in rows[r]."""
    pivot = rows[r]
    _fraction_scale_row(pivot, col)
    for i, row in enumerate(rows):
        if i != r and col in row:
            _fraction_subtract_row(row, row[col], pivot)


# -- the JSON shape check, walked with its path ----------------------------------------

_ORACLE_KINDS = {dict: "object", list: "array", str: "string", int: "integer",
                 bool: "boolean", type(None): "null", float: "number"}
_ORACLE_NAMES = {"object": "an object", "array": "a list", "string": "a string",
                 "integer": "an integer", "boolean": "a boolean", "null": "null"}


def validate_oracle(data, schema):
    """schema.validate as a walk that carries its title and JSON path into
    every call: the same InputError, message included, for every input."""
    _oracle_check(data, schema, schema["title"], ())


def _oracle_where(title, path):
    text = ""
    for key in path:
        if isinstance(key, int) or not key.isidentifier():
            text += f"[{key!r}]"
        else:
            text += f".{key}" if text else key
    return f"{title} {text}" if text else title


def _oracle_check(value, schema, title, path):
    if "title" in schema:
        title, path = schema["title"], ()
    kind = _ORACLE_KINDS.get(type(value))
    types = schema.get("type")
    if types is not None and kind != types and (isinstance(types, str) or kind not in types):
        names = [types] if isinstance(types, str) else types
        raise InputError(f"{_oracle_where(title, path)} must be "
                         + " or ".join(_ORACLE_NAMES[t] for t in names))
    if kind == "object":
        for key in schema.get("required", ()):
            if key not in value:
                raise InputError(f"{_oracle_where(title, path)} missing key {key!r}")
        properties = schema.get("properties", {})
        extra = schema.get("additionalProperties")
        for key, item in value.items():
            sub = properties.get(key, extra)
            if sub is not None:
                _oracle_check(item, sub, title, path + (key,))
    elif kind == "array":
        items = schema.get("items")
        if items is not None:
            for idx, item in enumerate(value):
                _oracle_check(item, items, title, path + (idx,))
    elif kind in ("integer", "number") and "minimum" in schema and value < schema["minimum"]:
        raise InputError(f"{_oracle_where(title, path)} must be at least {schema['minimum']}")


# -- the files and jobs of paper criterion 11 -------------------------------------------

def criterion_11_jobs(directory):
    """Write criterion 11's input files into directory (a pathlib.Path) and
    return its batch jobs, one {"args": argv} per job, in manifest order."""
    cycle = directory / "cycle.json"
    cycle.write_text(json.dumps({"facets": [[1, 2], [2, 3], [1, 3]]}))
    octa = directory / "octa.json"
    octa.write_text(json.dumps(
        {"facets": [sorted(f) for f in cross_polytope_boundary(3).facets()]}))
    config = directory / "appc.json"
    config.write_text(json.dumps({  # Appendix C: the triple stratum has two points
        "k": 3, "kappa": ["1", "1", "1"], "a": ["1", "1", "1"],
        "strata": [{"I": I, "components": [0]}
                   for I in ([1], [2], [3], [1, 2], [1, 3], [2, 3])]
        + [{"I": [1, 2, 3], "components": [1, 2]}]}))
    pres = directory / "pres.json"
    pres.write_text(json.dumps({"vars": ["x", "y"], "weights": ["1", "2"],
                                "relations": ["x^2 - y", "y^2 - x"]}))
    tree = directory / "tree.json"
    tree.write_text(json.dumps({
        "k": 2, "root": 0, "deg_x0": 2,
        "vertices": [{"id": 0, "depth": []}, {"id": 1, "depth": [1]},
                     {"id": 2, "depth": [1, 2]}],
        "edges": [{"a": 1, "b": 0, "depthE": [1], "contact": {"1->0": [1, 0]}},
                  {"a": 2, "b": 1, "depthE": [1, 2], "contact": {"2->1": [1, 1]}}],
        "legs": [{"vertex": 2, "label": None}],
    }))
    params = directory / "params.json"
    params.write_text(json.dumps({"kappa": ["1", "1"], "eps1": "1/10",
                                  "epsPert": ["0", "0"]}))
    chord = directory / "chord.json"
    chord.write_text(json.dumps({"chord": {"y": 1, "I": [1], "alpha0": ["1/5"],
                                           "alpha1": ["7/10"], "v": [2, 0],
                                           "f0": "1/3", "f1": "-1/2"}}))
    return [
        {"args": ["complex", "gorenstein", "--faces", str(cycle)]},
        {"args": ["complex", "homology", "--faces", str(octa), "--field", "F5"]},
        {"args": ["sr", "hilbert", "--config", str(config), "--bound", "3"]},
        {"args": ["sr", "multiply", "--config", str(config),
                  "--lhs", "theta[1,0,0]", "--rhs", "theta[0,1,1]"]},
        {"args": ["ring", "gr", "--pres", str(pres), "--bound", "6"]},
        {"args": ["ring", "fiber", "--pres", str(pres), "--t", "2"]},
        {"args": ["tree", "vdim", "--tree", str(tree)]},
        {"args": ["tree", "feasible", "--tree", str(tree)]},
        {"args": ["energy", "chord-weight", "--params", str(params),
                  "--input", str(chord)]},
        {"args": ["example", "appc", "--check", "sr", "--bound", "4"]},
    ]
