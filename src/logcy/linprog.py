"""Exact rational linear programming by the two-phase simplex method.

Standard form only: maximize c.x subject to A x = b, x >= 0, with all data
Fractions.  Bland's rule guarantees termination; everything is exact, so a
reported optimum is an exact rational certificate.  Tableau and cost rows are
sparse `{column: value}` dicts with the right-hand side as one more column, and
every row change is one of the two row operations that `exactlin.rank` uses.
"""

from fractions import Fraction

from .errors import InputError
from .exactlin import scale_row, subtract_row

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
        subtract_row(cost, 1, row)
    if not _simplex_iterate(tableau, basis, cost, rhs):
        raise InputError("phase-1 LP unbounded (impossible)")
    if cost.get(rhs, 0) != 0:
        return INFEASIBLE, None, None
    for i, row in enumerate(tableau):
        if basis[i] >= n:
            # drive the artificial out through any original column of its row
            col = min((j for j in row if j < n), default=None)
            if col is not None:
                _pivot(tableau, i, col)
                basis[i] = col

    # phase 2 on the original columns; a redundant row that kept an
    # artificial in the basis at level zero is dropped
    keep = [i for i, col in enumerate(basis) if col < n]
    tableau = [{j: x for j, x in tableau[i].items() if j < n or j == rhs} for i in keep]
    basis = [basis[i] for i in keep]
    cost = {j: -x for j, x in enumerate(c) if x}
    for row, col in zip(tableau, basis):
        if col in cost:
            subtract_row(cost, cost[col], row)
    if not _simplex_iterate(tableau, basis, cost, rhs):
        return UNBOUNDED, None, None
    solution = [Fraction(0)] * n
    for row, col in zip(tableau, basis):
        solution[col] = row.get(rhs, Fraction(0))
    return OPTIMAL, solution, cost.get(rhs, Fraction(0))


def _simplex_iterate(tableau, basis, cost, rhs):
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
        _pivot(tableau + [cost], leaving, entering)
        basis[leaving] = entering


def _pivot(rows, r, col):
    """Make col a unit column of rows, with its 1 in rows[r]."""
    pivot = rows[r]
    scale_row(pivot, col)
    for i, row in enumerate(rows):
        if i != r and col in row:
            subtract_row(row, row[col], pivot)
