"""Exact simplex: optima, infeasibility, unboundedness, degeneracy."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog as highs_linprog

from logcy import linprog
from logcy.errors import InputError

F = Fraction


def test_simple_maximum():
    # max x subject to x + s = 1
    status, x, value = linprog.solve_max([F(1), F(0)], [[F(1), F(1)]], [F(1)])
    assert status == linprog.OPTIMAL
    assert value == 1
    assert x == [F(1), F(0)]


def test_two_variable_optimum_exact():
    # max 3x + 2y s.t. x + y + s1 = 4, x + 3y + s2 = 6
    status, x, value = linprog.solve_max(
        [F(3), F(2), F(0), F(0)],
        [[F(1), F(1), F(1), F(0)], [F(1), F(3), F(0), F(1)]],
        [F(4), F(6)])
    assert status == linprog.OPTIMAL
    assert value == 12  # vertex (4, 0) beats (3, 1) which gives 11
    assert x[0] == 4 and x[1] == 0


def test_fractional_optimum():
    # max y s.t. 2y + s = 1  ->  y = 1/2
    status, x, value = linprog.solve_max([F(1), F(0)], [[F(2), F(1)]], [F(1)])
    assert status == linprog.OPTIMAL
    assert value == F(1, 2)


def test_infeasible():
    # x + y = -1 with x, y >= 0 (rows with negative rhs get flipped first)
    status, _, _ = linprog.solve_max([F(1), F(1)], [[F(1), F(1)]], [F(-1)])
    assert status == linprog.INFEASIBLE


def test_infeasible_contradictory_rows():
    status, _, _ = linprog.solve_max(
        [F(0), F(0)],
        [[F(1), F(1)], [F(1), F(1)]],
        [F(1), F(2)])
    assert status == linprog.INFEASIBLE


def test_unbounded():
    # max x with x - y = 0: x can grow with y
    status, _, _ = linprog.solve_max([F(1), F(0)], [[F(1), F(-1)]], [F(0)])
    assert status == linprog.UNBOUNDED


def test_degenerate_cycling_guard():
    # classic degenerate instance; Bland's rule must terminate
    a = [
        [F(1, 4), F(-8), F(-1), F(9), F(1), F(0), F(0)],
        [F(1, 2), F(-12), F(-1, 2), F(3), F(0), F(1), F(0)],
        [F(0), F(0), F(1), F(0), F(0), F(0), F(1)],
    ]
    c = [F(3, 4), F(-20), F(1, 2), F(-6), F(0), F(0), F(0)]
    status, x, value = linprog.solve_max(c, a, [F(0), F(0), F(1)])
    assert status == linprog.OPTIMAL
    assert value == F(5, 4)


def test_dimension_mismatch():
    with pytest.raises(InputError):
        linprog.solve_max([F(1)], [[F(1), F(2)]], [F(1)])


def test_no_constraints():
    status, x, value = linprog.solve_max([F(-1), F(-2)], [], [])
    assert status == linprog.OPTIMAL
    assert value == 0
    status, _, _ = linprog.solve_max([F(1)], [], [])
    assert status == linprog.UNBOUNDED


# zero-heavy small rationals: one draw in two is 0
_ENTRY = st.one_of(st.just(F(0)), st.builds(F, st.integers(-4, 4), st.integers(1, 3)))


@st.composite
def small_lps(draw):
    """(c, A, b) with m <= 6 equality rows and n <= 8 columns; b has either sign."""
    m = draw(st.integers(0, 6))
    n = draw(st.integers(1, 8))
    row = st.lists(_ENTRY, min_size=n, max_size=n)
    c = draw(row)
    return c, [draw(row) for _ in range(m)], draw(st.lists(_ENTRY, min_size=m, max_size=m))


def _highs(c, a, b):
    """(status, optimum) of max c.x, A x = b, x >= 0 by scipy's HiGHS.

    Feasibility is decided first, with a zero objective, because HiGHS may
    report "unbounded or infeasible" for the maximization alone.
    """
    constraints = {"A_eq": [[float(x) for x in row] for row in a] if a else None,
                   "b_eq": [float(x) for x in b] if a else None, "bounds": (0, None)}
    feasible = highs_linprog([0.0] * len(c), method="highs", **constraints)
    if feasible.status == 2:
        return linprog.INFEASIBLE, None
    assert feasible.status == 0, feasible.message
    res = highs_linprog([-float(x) for x in c], method="highs", **constraints)
    if res.status == 0:
        return linprog.OPTIMAL, -res.fun
    assert res.status in (3, 4), res.message
    return linprog.UNBOUNDED, None


@settings(max_examples=200, deadline=None)
@given(small_lps())
def test_status_and_optimum_match_highs(lp):
    c, a, b = lp
    status, x, value = linprog.solve_max(c, a, b)
    expected, optimum = _highs(c, a, b)
    assert status == expected
    if status == linprog.OPTIMAL:
        assert all(xj >= 0 for xj in x)
        assert [sum(aij * xj for aij, xj in zip(row, x)) for row in a] == b
        assert sum(cj * xj for cj, xj in zip(c, x)) == value
        assert math.isclose(value, optimum, rel_tol=1e-9, abs_tol=1e-9)
