"""Exact linear algebra over the rationals and prime fields.

Rows are sparse `{column: value}` dicts of plain ints, and two row
operations, `scale_row` and `subtract_row` (mod p when p is given), make
every elimination.  Over F_p values are kept reduced mod p and a scaled row
leads with 1.  Over Q a row stands for itself times any positive rational, so
it stays an integer vector: a scaled row is primitive (content 1) with a
positive lead, and elimination cross-multiplies instead of dividing
(fraction-free, as in Edmonds 1967 and Bareiss 1968), then divides out the
content again.  A lead of +-1, which every boundary row of homology has,
needs neither a multiply nor a gcd.  No Fraction is made.
`pivot_columns` reduces rows one at a time against stored pivot rows with
them (the incremental row echelon form of `sdm_irref` in sympy's sparse
domain matrices) and returns those rows keyed by leading column; `rank` is
their number, and `homology` reads the keys to skip rows it knows are
dependent.  The simplex of `linprog` uses the same two operations.
`rank_int_bareiss` stays dense fraction-free elimination on purpose: it is
the independent second route of the rank-nullity cross-check in
`trees.obstruction_dim`.
"""

from math import gcd

from .fields import PrimeField, QQ


def scale_row(row, col, p=None):
    """Scale the sparse row in place so that its entry at col leads it.

    Mod p the entry becomes 1.  Over Q the row becomes a primitive integer
    vector whose entry at col is positive.
    """
    lead = row[col]
    if p is not None:
        inv = pow(lead, -1, p)
        for c, v in row.items():
            row[c] = v * inv % p
    elif lead == -1:
        for c, v in row.items():
            row[c] = -v
    elif lead != 1:
        content = gcd(*row.values())
        if lead < 0:
            content = -content
        if content != 1:
            for c, v in row.items():
                row[c] = v // content


def subtract_row(row, pivot, col, p=None):
    """Clear the entry of row at col with the pivot row, in place.

    Mod p the pivot leads with 1 at col and row -= row[col] * pivot.  Over Q
    the pivot's entry at col is positive and row := pivot[col] * row -
    row[col] * pivot, divided by its content unless pivot[col] is 1; so the
    row keeps its sign and changes by a positive factor only.  Entries that
    vanish are dropped.
    """
    factor = row[col]
    if p is not None:
        for c, v in pivot.items():
            x = (row.get(c, 0) - factor * v) % p
            if x:
                row[c] = x
            else:
                del row[c]
        return
    lead = pivot[col]
    if lead != 1:
        for c, v in row.items():
            row[c] = v * lead
    for c, v in pivot.items():
        x = row.get(c, 0) - factor * v
        if x:
            row[c] = x
        else:
            del row[c]
    if lead != 1:
        content = gcd(*row.values())
        if content > 1:
            for c, v in row.items():
                row[c] = v // content


def pivot_columns(rows, field) -> dict:
    """Pivot rows of a row echelon form of sparse rows over QQ or F_p, keyed by lead column.

    Each incoming row is reduced by the stored pivot row at its smallest
    column until it vanishes or leads at a column with no pivot; it is then
    stored there, scaled by `scale_row`: to leading value 1 over F_p, to a
    primitive integer vector with a positive lead over Q.  Over Q the values
    must be ints.  A stored row is a combination of the input rows whose
    smallest column is its key.
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
            subtract_row(row, pivot, lead, p)
    return pivots


def rank(rows, field) -> int:
    """Rank of the span of sparse rows (`{column: value}` dicts) over QQ or F_p."""
    return len(pivot_columns(rows, field))


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
