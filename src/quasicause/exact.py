"""Exact linear algebra on integer matrices.

Everything here takes numpy arrays of integers (int64, or object arrays of
Python ints): a rational matrix enters as its numerators over one positive
denominator, which changes neither the pivot columns nor the rank. One
fraction-free (Bareiss) Gauss-Jordan elimination runs on Python ints, where
every division is exact, and ``solve`` reads its solution off as canonical
``Ints`` (numerators over one denominator), so no ``Fraction`` is built.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .check import Ints, _canonical


def _eliminate(matrix: np.ndarray) -> Tuple[np.ndarray, Tuple[int, ...], int]:
    """Fraction-free Gauss-Jordan elimination: (M, pivots, d) where M is d
    times the reduced row echelon form of the integer ``matrix``, d > 0 the
    last pivot's minor (1 when there is no pivot), and ``pivots`` the
    leftmost-first pivot columns. Each step replaces every other row i by
    (p * row_i - a_ic * row_r) // q, p the new pivot and q the previous one;
    Sylvester's identity makes every such division exact."""
    work = matrix.astype(object)
    n_rows, n_cols = work.shape
    pivots = []
    prev = 1
    for c in range(n_cols):
        r = len(pivots)
        if r == n_rows:
            break
        nonzero = np.flatnonzero(work[r:, c] != 0)
        if not nonzero.size:
            continue
        p = r + int(nonzero[0])
        if p != r:
            work[[r, p]] = work[[p, r]]
        pv = work[r, c]
        others = np.arange(n_rows) != r
        rest = work[others]
        work[others] = (pv * rest - np.multiply.outer(rest[:, c], work[r])) // prev
        prev = pv
        pivots.append(c)
    if prev < 0:
        work, prev = -work, -prev
    return work, tuple(pivots), prev


def rank(matrix: np.ndarray) -> int:
    return len(_eliminate(matrix)[1])


def independent_columns(matrix: np.ndarray) -> Tuple[int, ...]:
    """Leftmost-first maximal independent column subset."""
    return _eliminate(matrix)[1]


def solve(a: np.ndarray, b: np.ndarray) -> Ints:
    """Solve a @ x = b exactly for square invertible integer ``a``; b may be
    a matrix. The solution is canonical ``(num, den)``, x = num / den."""
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("solve needs a square matrix")
    b = b.reshape(n, -1)
    reduced, pivots, d = _eliminate(np.concatenate([a, b], axis=1))
    if pivots[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    return _canonical(reduced[:, n:], d)
