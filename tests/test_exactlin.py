"""The sparse rank kernel against sympy, dense Bareiss and nullity."""

from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import GF, Matrix
from sympy.polys.matrices import DomainMatrix

from logcy.exactlin import nullspace_dimension, rank, rank_int_bareiss, rank_mod_p
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

