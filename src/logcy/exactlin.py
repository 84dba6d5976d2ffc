"""Exact dense linear algebra over the rationals and prime fields.

Matrices are lists of row lists.  Integer matrices are handled by
fraction-free (Bareiss) elimination; rational matrices fall back to
Fraction Gaussian elimination.  Everything here is deterministic and
side-effect free.
"""

from fractions import Fraction


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
    if not matrix or not matrix[0]:
        return 0
    a = [[x % p for x in row] for row in matrix]
    rows, cols = len(a), len(a[0])
    rank = 0
    for col in range(cols):
        pivot_row = None
        for r in range(rank, rows):
            if a[r][col] % p != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        inv = pow(a[rank][col], p - 2, p)
        a[rank] = [(x * inv) % p for x in a[rank]]
        for r in range(rows):
            if r != rank and a[r][col] % p != 0:
                factor = a[r][col]
                a[r] = [(x - factor * y) % p for x, y in zip(a[r], a[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def nullspace_dimension(matrix, ncols: int) -> int:
    """Dimension of the rational kernel, computed from a free-column count.

    Runs a full reduced row echelon pass and counts the columns that never
    acquire a pivot, so it is an independent route to nullity (used to
    cross-check rank-nullity identities rather than derive them).
    """
    if ncols == 0:
        return 0
    if not matrix:
        return ncols
    a = [[Fraction(x) for x in row] for row in matrix]
    rows = len(a)
    pivot_cols = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, rows):
            if a[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for r in range(rows):
            if r != rank and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[rank])]
        pivot_cols.append(col)
        rank += 1
        if rank == rows:
            break
    return ncols - len(pivot_cols)
