"""The sparse rank kernel against sympy, dense Bareiss and nullity; its stored rows."""

from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import GF, Matrix
from sympy.polys.matrices import DomainMatrix

from logcy.exactlin import (nullspace_dimension, pivot_columns, rank, rank_int_bareiss,
                            rank_mod_p)
from logcy.fields import PrimeField, QQ


@st.composite
def integer_matrices(draw):
    """(rows, ncols): up to 8x8, entries -3..5 so that pivots need not be units."""
    nrows = draw(st.integers(0, 8))
    ncols = draw(st.integers(0, 8))
    row = st.lists(st.integers(-3, 5), min_size=ncols, max_size=ncols)
    return [draw(row) for _ in range(nrows)], ncols


def _sparse(matrix):
    return [{c: v for c, v in enumerate(row) if v} for row in matrix]


@settings(max_examples=200, deadline=None)
@given(integer_matrices())
@example(([], 0))
@example(([], 5))
@example(([[], [], []], 0))
@example(([[0, 0, 0, 0]] * 3, 4))
@example(([[2, 4], [3, 6]], 2))
def test_kernel_rank_matches_sympy(case):
    matrix, ncols = case
    q_rank = Matrix(len(matrix), ncols, [x for row in matrix for x in row]).rank()
    assert rank(_sparse(matrix), QQ) == q_rank
    assert rank_int_bareiss(matrix) == q_rank
    assert nullspace_dimension(matrix, ncols) == ncols - q_rank
    domain_matrix = DomainMatrix.from_list_sympy(len(matrix), ncols, matrix)
    for p in (2, 3, 32003):
        p_rank = domain_matrix.convert_to(GF(p)).rank()
        assert rank(_sparse(matrix), PrimeField(p)) == p_rank
        assert rank_mod_p(matrix, p) == p_rank


def _dense(rows, ncols):
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


@settings(max_examples=200, deadline=None)
@given(integer_matrices())
@example(([[2, 4], [3, 6]], 2))
@example(([[-2, 4, 6], [3, -1, 0], [0, 5, -3]], 3))
def test_stored_rows_are_primitive_over_q_and_monic_mod_p(case):
    matrix, ncols = case
    pivots = pivot_columns(_sparse(matrix), QQ)
    for key, row in pivots.items():
        assert key == min(row) and row[key] > 0
        assert all(type(v) is int and v for v in row.values())
        assert gcd(*row.values()) == 1
    # the stored rows span the row space of the input: the same reduced echelon form
    stored = Matrix(len(pivots), ncols, [x for row in _dense(pivots.values(), ncols) for x in row])
    given_rows = Matrix(len(matrix), ncols, [x for row in matrix for x in row])
    rank_q = len(pivots)
    assert stored.rref()[0][:rank_q, :] == given_rows.rref()[0][:rank_q, :]
    assert given_rows.rank() == rank_q
    for p in (2, 3, 32003):
        pivots = pivot_columns(_sparse(matrix), PrimeField(p))
        for key, row in pivots.items():
            assert key == min(row) and row[key] == 1
            assert all(type(v) is int and 0 < v < p for v in row.values())
        # the input, and the input with the stored rows, have rank len(pivots) mod p
        for stacked in (matrix, matrix + _dense(pivots.values(), ncols)):
            domain_matrix = DomainMatrix.from_list_sympy(len(stacked), ncols, stacked)
            assert domain_matrix.convert_to(GF(p)).rank() == len(pivots)
