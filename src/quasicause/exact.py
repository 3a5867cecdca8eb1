"""Exact rational linear algebra on small dense matrices.

Everything here operates on numpy object arrays holding ints/Fractions and
never leaves exact arithmetic. Sizes stay small (frame matrices, a few dozen
rows), so plain Gaussian elimination is enough.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

import numpy as np


def _to_rows(matrix: np.ndarray) -> List[List[Fraction]]:
    return [[Fraction(x) for x in row] for row in matrix]


def rref(matrix: np.ndarray) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    rows = _to_rows(matrix)
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    out = np.empty((n_rows, n_cols), dtype=object)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            out[i, j] = x
    return out, tuple(pivots)


def rank(matrix: np.ndarray) -> int:
    return len(rref(matrix)[1])


def independent_columns(matrix: np.ndarray) -> Tuple[int, ...]:
    """Leftmost-first maximal independent column subset."""
    return rref(matrix)[1]


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b exactly for square invertible ``a``; b may be a matrix."""
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("solve needs a square matrix")
    b = b.reshape(n, -1)
    augmented = np.concatenate([a, b], axis=1)
    reduced, pivots = rref(augmented)
    if pivots[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    return reduced[:, n:]

