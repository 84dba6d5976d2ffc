"""Exact simplex: optima, infeasibility, unboundedness, degeneracy, the Fraction oracle."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog as highs_linprog

from helpers import random_tree, simplex_oracle
from logcy import linprog, trees
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


@st.composite
def tricky_lps(draw):
    """small_lps plus copies of rows: scaled (redundant) or shifted (contradictory).

    One draw in two also zeroes some right-hand sides, which makes the
    vertices degenerate.
    """
    c, a, b = draw(small_lps())
    for _ in range(draw(st.integers(0, 2)) if a else 0):
        i = draw(st.integers(0, len(a) - 1))
        scale = draw(st.sampled_from([F(1), F(-2), F(1, 3)]))
        shift = draw(st.sampled_from([F(0), F(0), F(1)]))
        a.append([scale * x for x in a[i]])
        b.append(scale * b[i] + shift)
    if draw(st.booleans()):
        b = [x if draw(st.booleans()) else F(0) for x in b]
    return c, a, b


def _assert_same_as_oracle(c, a, b):
    result = linprog.solve_max(c, a, b)
    # repr: the same statuses and the same Fractions, so the same report bytes
    assert repr(result) == repr(simplex_oracle(c, a, b))


_CYCLING = ([F(3, 4), F(-20), F(1, 2), F(-6), F(0), F(0), F(0)],
            [[F(1, 4), F(-8), F(-1), F(9), F(1), F(0), F(0)],
             [F(1, 2), F(-12), F(-1, 2), F(3), F(0), F(1), F(0)],
             [F(0), F(0), F(1), F(0), F(0), F(0), F(1)]],
            [F(0), F(0), F(1)])


# a zero objective returns the vertex where phase 1 stops, and a tie in the ratio test picks it
_RATIO_TIE = ([F(0)] * 7,
              [[F(4, 3), F(0), F(-2), F(1), F(-1), F(1), F(2)],
               [F(-2), F(0), F(0), F(1, 3), F(0), F(0), F(-2)],
               [F(3), F(-1), F(-3), F(1), F(0), F(0), F(2)],
               [F(1), F(0), F(0), F(0), F(0), F(1), F(0)]],
              [F(0), F(1), F(0), F(0)])


@settings(max_examples=300, deadline=None)
@given(tricky_lps())
@example(_CYCLING)
@example(_RATIO_TIE)
@example(([F(1), F(1)], [[F(1), F(1)], [F(2), F(2)]], [F(1), F(2)]))
@example(([F(1), F(1)], [[F(1), F(1)], [F(1), F(1)]], [F(1), F(2)]))
@example(([F(1), F(0)], [[F(1), F(-1)]], [F(0)]))
def test_solution_matches_the_fraction_oracle(lp):
    _assert_same_as_oracle(*lp)


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_balancing_lps_match_the_fraction_oracle(rng):
    lps = []
    solve_max = linprog.solve_max

    def recording_solve_max(objective, a_matrix, b_vector):
        lps.append((objective, a_matrix, b_vector))
        return solve_max(objective, a_matrix, b_vector)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trees.linprog, "solve_max", recording_solve_max)
        trees.balancing_feasible(random_tree(rng, k_max=4, max_vertices=7))
    assert len(lps) <= 1
    for lp in lps:
        _assert_same_as_oracle(*lp)
