"""Exact rational linear programming by the two-phase simplex method.

Standard form only: maximize c.x subject to A x = b, x >= 0, with all data
Fractions.  Bland's rule guarantees termination; everything is exact, so a
reported optimum is an exact rational certificate.
"""

from fractions import Fraction

from .errors import InputError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def solve_max(objective, a_matrix, b_vector):
    """Maximize objective.x subject to a_matrix x = b_vector, x >= 0.

    Returns (status, solution, value); solution and value are None unless
    status is "optimal".
    """
    c = [Fraction(x) for x in objective]
    a = [[Fraction(x) for x in row] for row in a_matrix]
    b = [Fraction(x) for x in b_vector]
    m, n = len(a), len(c)
    if len(b) != m or any(len(row) != n for row in a):
        raise InputError("inconsistent LP dimensions")
    for i in range(m):
        if b[i] < 0:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]

    # phase 1: minimize the sum of artificials
    tableau = [row[:] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [b[i]]
               for i, row in enumerate(a)]
    basis = [n + i for i in range(m)]
    cost = [Fraction(0)] * n + [Fraction(1)] * m + [Fraction(0)]
    _price_out(tableau, basis, cost)
    if not _simplex_iterate(tableau, basis, cost):
        raise InputError("phase-1 LP unbounded (impossible)")
    phase1_value = -cost[-1]
    if phase1_value != 0:
        return INFEASIBLE, None, None
    _drive_out_artificials(tableau, basis, n, m)

    # phase 2 on the original columns
    tableau = [row[:n] + [row[-1]] for row in tableau]
    if any(idx >= n for idx in basis):
        # a redundant row kept an artificial in the basis at level zero
        keep = [i for i, idx in enumerate(basis) if idx < n]
        tableau = [tableau[i] for i in keep]
        basis = [basis[i] for i in keep]
    cost = [-x for x in c] + [Fraction(0)]
    _price_out(tableau, basis, cost)
    if not _simplex_iterate(tableau, basis, cost):
        return UNBOUNDED, None, None
    solution = [Fraction(0)] * n
    for row_idx, col in enumerate(basis):
        solution[col] = tableau[row_idx][-1]
    return OPTIMAL, solution, cost[-1]


def _price_out(tableau, basis, cost):
    for row_idx, col in enumerate(basis):
        factor = cost[col]
        if factor != 0:
            row = tableau[row_idx]
            for j in range(len(cost)):
                cost[j] -= factor * (row[j] if j < len(row) - 1 else 0)
            cost[-1] -= factor * row[-1]


def _simplex_iterate(tableau, basis, cost):
    """Minimize the cost row in place; False when the LP is unbounded."""
    ncols = len(tableau[0]) - 1 if tableau else len(cost) - 1
    while True:
        entering = None
        for j in range(ncols):
            if cost[j] < 0:
                entering = j  # Bland: first eligible index
                break
        if entering is None:
            return True
        leaving = None
        best = None
        for i, row in enumerate(tableau):
            if row[entering] > 0:
                ratio = row[-1] / row[entering]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving is None:
            return False
        _pivot(tableau, basis, cost, leaving, entering)


def _pivot(tableau, basis, cost, row_idx, col):
    pivot_row = tableau[row_idx]
    inv = 1 / pivot_row[col]
    tableau[row_idx] = [x * inv for x in pivot_row]
    pivot_row = tableau[row_idx]
    for i, row in enumerate(tableau):
        if i != row_idx and row[col] != 0:
            factor = row[col]
            tableau[i] = [x - factor * y for x, y in zip(row, pivot_row)]
    factor = cost[col]
    if factor != 0:
        for j in range(len(cost)):
            point = pivot_row[j] if j < len(pivot_row) else 0
            cost[j] -= factor * point
    basis[row_idx] = col


def _drive_out_artificials(tableau, basis, n, m):
    for row_idx in range(len(basis)):
        if basis[row_idx] < n:
            continue
        row = tableau[row_idx]
        pivot_col = next((j for j in range(n) if row[j] != 0), None)
        if pivot_col is not None:
            dummy_cost = [Fraction(0)] * len(row)
            _pivot(tableau, basis, dummy_cost, row_idx, pivot_col)
