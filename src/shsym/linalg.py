"""Exact linear algebra over rationals: elimination, solving, rank, inverse.

Matrices are lists of row lists of ints or Fractions, and every result is
in Fractions.  Sizes here stay at desk scale, so plain Gaussian
elimination is both fast enough and exact.  No production path solves
through this module; `verify` and the tests use it as the independent
oracle of the integer eliminations.
"""

from __future__ import annotations

from fractions import Fraction

# re-exported: the production paths raise the same class
from .ssym import LinearSolveError  # noqa: F401


def _echelon(rows: list[list[Fraction]]) -> list[int]:
    """In-place forward elimination; returns the pivot column indices."""
    if not rows:
        return []
    n_cols = len(rows[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / Fraction(rows[r][c])  # exact on an int pivot too
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def matrix_rank(matrix: list[list[Fraction]]) -> int:
    rows = [list(row) for row in matrix]
    return len(_echelon(rows))


def solve(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Unique solution of matrix @ x = rhs.

    The system may be overdetermined; raises LinearSolveError if it is
    inconsistent or does not pin down every unknown.
    """
    if len(matrix) != len(rhs):
        raise ValueError("matrix and right-hand side sizes differ")
    n_unknowns = len(matrix[0]) if matrix else 0
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    if not rows:
        return []
    pivots = _echelon(rows)
    if n_unknowns in pivots:
        raise LinearSolveError("inconsistent")
    if len(pivots) < n_unknowns:
        raise LinearSolveError("underdetermined")
    solution = [Fraction(0)] * n_unknowns
    for r, c in enumerate(pivots):
        solution[c] = rows[r][-1]
    return solution


def invert(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Inverse of a square matrix; raises LinearSolveError if singular."""
    n = len(matrix)
    rows = [
        list(row) + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    pivots = _echelon(rows)
    if pivots != list(range(n)):
        raise LinearSolveError("singular")
    return [row[n:] for row in rows]


def mat_vec(matrix: list[list[Fraction]], vec: list[Fraction]) -> list[Fraction]:
    return [sum((a * b for a, b in zip(row, vec)), Fraction(0)) for row in matrix]
