"""Exact linear algebra over the rationals and prime fields.

Rows are sparse `{column: value}` dicts, and two row operations, `scale_row`
and `subtract_row` (mod p when p is given), make every elimination: `rank`
reduces rows one at a time against stored pivot rows with them (the
incremental row echelon form of `sdm_irref` in sympy's sparse domain
matrices), and so does the simplex of `linprog`.  Values are plain ints, kept
reduced mod p over F_p; over Q a Fraction appears only when a pivot is not
+-1.  `rank_int_bareiss` stays dense fraction-free elimination on purpose: it
is the independent second route of the rank-nullity cross-check in
`trees.obstruction_dim`.
"""

from fractions import Fraction

from .fields import PrimeField, QQ


def scale_row(row, col, p=None):
    """Scale the sparse row in place so that its entry at col is 1 (mod p if given)."""
    scale = row[col]
    if p is not None:
        inv = pow(scale, -1, p)
        for c, v in row.items():
            row[c] = v * inv % p
    elif scale == -1:
        for c, v in row.items():
            row[c] = -v
    elif scale != 1:
        inv = Fraction(1, scale)
        for c, v in row.items():
            row[c] = v * inv


def subtract_row(row, factor, pivot, p=None):
    """row -= factor * pivot in place (mod p if given); entries that vanish are dropped."""
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
                scale_row(row, lead, p)
                pivots[lead] = row
                break
            subtract_row(row, row[lead], pivot, p)
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
