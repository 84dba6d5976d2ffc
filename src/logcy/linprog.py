"""Exact rational linear programming by the two-phase simplex method.

Standard form only: maximize c.x subject to A x = b, x >= 0, with all data
rationals (ints or Fractions).  Bland's rule guarantees termination;
everything is exact, so a reported optimum is an exact rational certificate.
Tableau and cost rows are sparse `{column: value}` dicts with the right-hand
side as one more column, and every row change is one of the two row
operations that `exactlin.rank` uses.  Over Q those keep a row an integer
vector that stands for itself times any positive rational: each input row
has its denominators cleared once, and no Fraction is made until the
solution is read off.  The cost row carries one more column, z, the
coefficient of the objective: it reads z * (reduced costs | value), with
z > 0.  So a column enters when its cost entry is negative, ratios are
compared by cross-multiplying, and the optimum is cost[rhs] / cost[z]; a
basic variable is row[rhs] / row[its column].
"""

from fractions import Fraction
from math import lcm

from .errors import InputError
from .exactlin import scale_row, subtract_row

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _integer_row(values):
    """The rationals `values` times the lcm of their denominators, as ints."""
    scale = lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values]


def solve_max(objective, a_matrix, b_vector):
    """Maximize objective.x subject to a_matrix x = b_vector, x >= 0.

    Returns (status, solution, value); solution and value are None unless
    status is "optimal", and are Fractions otherwise.
    """
    m, n = len(a_matrix), len(objective)
    if len(b_vector) != m or any(len(row) != n for row in a_matrix):
        raise InputError("inconsistent LP dimensions")
    rhs = n + m  # the right-hand side's column, after the m artificials
    z = rhs + 1  # the objective's coefficient, in the cost row only

    # phase 1: minimize the sum of artificials; row i is scaled by its
    # denominators' lcm, its artificial's coefficient included
    tableau = []
    for i, (row, b) in enumerate(zip(a_matrix, b_vector)):
        *row, b, artificial = _integer_row([*row, b, 1])
        sign = -1 if b < 0 else 1
        entries = {j: sign * x for j, x in enumerate(row) if x}
        entries[n + i] = artificial
        if b:
            entries[rhs] = sign * b
        tableau.append(entries)
    basis = [n + i for i in range(m)]
    cost = {n + i: 1 for i in range(m)}
    cost[z] = 1
    for row, col in zip(tableau, basis):
        subtract_row(cost, row, col)
    if not _simplex_iterate(tableau, basis, cost, rhs):
        raise AssertionError("phase-1 LP unbounded (impossible)")
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
    *c, scale = _integer_row([*objective, 1])
    cost = {j: -x for j, x in enumerate(c) if x}
    cost[z] = scale
    for row, col in zip(tableau, basis):
        if col in cost:
            subtract_row(cost, row, col)
    if not _simplex_iterate(tableau, basis, cost, rhs):
        return UNBOUNDED, None, None
    solution = [Fraction(0)] * n
    for row, col in zip(tableau, basis):
        solution[col] = Fraction(row.get(rhs, 0), row[col])
    return OPTIMAL, solution, Fraction(cost.get(rhs, 0), cost[z])


def _simplex_iterate(tableau, basis, cost, rhs):
    """Minimize the cost row in place; False when the LP is unbounded."""
    while True:
        # Bland: the smallest column with negative reduced cost enters
        entering = min((j for j, x in cost.items() if x < 0 and j != rhs), default=None)
        if entering is None:
            return True
        # the smallest ratio row[rhs] / row[entering] leaves, ties to the
        # smaller basic column; best_r / best_x is the best ratio so far
        leaving = None
        best_r = best_x = None
        for i, row in enumerate(tableau):
            x = row.get(entering, 0)
            if x > 0:
                r = row.get(rhs, 0)
                if leaving is None:
                    better = True
                else:
                    left, right = r * best_x, best_r * x
                    better = left < right or (left == right and basis[i] < basis[leaving])
                if better:
                    best_r, best_x = r, x
                    leaving = i
        if leaving is None:
            return False
        _pivot(tableau + [cost], leaving, entering)
        basis[leaving] = entering


def _pivot(rows, r, col):
    """Make col a unit column of rows up to scale: nonzero in rows[r] only."""
    pivot = rows[r]
    scale_row(pivot, col)
    for i, row in enumerate(rows):
        if i != r and col in row:
            subtract_row(row, pivot, col)
