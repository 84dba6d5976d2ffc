"""Exact linear algebra over the rationals and prime fields.

One sparse kernel, `rank`, computes every rank and nullity: rows are
`{column: value}` dicts, reduced one at a time against stored pivot rows
(the incremental row echelon form of `sdm_irref` in sympy's sparse domain
matrices).  Values are plain ints, kept reduced mod p over F_p; over Q a
Fraction appears only when a pivot is not +-1.  `rank_mod_p` and
`nullspace_dimension` feed dense matrices to it.  `rank_int_bareiss` stays
dense fraction-free elimination on purpose: it is the independent second
route of the rank-nullity cross-check in `trees.obstruction_dim`.
Everything here is deterministic and side-effect free.
"""

from fractions import Fraction

from .fields import PrimeField, QQ


def rank(rows, field) -> int:
    """Rank of the span of sparse rows (`{column: value}` dicts) over QQ or F_p.

    Each incoming row is reduced by the stored pivot row at its smallest
    column until it vanishes or leads at a column with no pivot; it is then
    stored there, scaled to leading value 1.
    """
    p = field.p if isinstance(field, PrimeField) else None
    pivots = {}
    for row in rows:
        if p is None:
            row = {c: v for c, v in row.items() if v}
        else:
            row = {c: v % p for c, v in row.items() if v % p}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                scale = row[lead]
                if p is not None:
                    inv = pow(scale, -1, p)
                    row = {c: v * inv % p for c, v in row.items()}
                elif scale == -1:
                    row = {c: -v for c, v in row.items()}
                elif scale != 1:
                    inv = Fraction(1, scale)
                    row = {c: v * inv for c, v in row.items()}
                pivots[lead] = row
                break
            factor = row[lead]
            if p is None:
                for c, v in pivot.items():
                    x = row.get(c, 0) - factor * v
                    if x:
                        row[c] = x
                    else:
                        del row[c]
            else:
                for c, v in pivot.items():
                    x = (row.get(c, 0) - factor * v) % p
                    if x:
                        row[c] = x
                    else:
                        del row[c]
    return len(pivots)


def _sparse_rows(matrix):
    return ({c: v for c, v in enumerate(row) if v} for row in matrix)


def rank_int_bareiss(matrix) -> int:
    """Rank of an integer matrix by fraction-free Bareiss elimination."""
    if not matrix or not matrix[0]:
        return 0
    a = [list(row) for row in matrix]
    rows, cols = len(a), len(a[0])
    rank = 0
    prev = 1
    for col in range(cols):
        pivot_row = None
        for r in range(rank, rows):
            if a[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        pivot = a[rank][col]
        for r in range(rank + 1, rows):
            for c in range(col + 1, cols):
                a[r][c] = (pivot * a[r][c] - a[r][col] * a[rank][c]) // prev
            a[r][col] = 0
        prev = pivot
        rank += 1
        if rank == rows:
            break
    return rank


def rank_mod_p(matrix, p: int) -> int:
    """Rank of an integer matrix over the prime field F_p."""
    return rank(_sparse_rows(matrix), PrimeField(p))


def nullspace_dimension(matrix, ncols: int) -> int:
    """Dimension of the rational kernel of a matrix with ncols columns."""
    return ncols - rank(_sparse_rows(matrix), QQ)
