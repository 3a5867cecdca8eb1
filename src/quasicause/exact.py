"""Exact rational linear algebra on small dense matrices.

Everything here takes numpy arrays of ints and ``Fraction`` (object arrays,
or integer numerator arrays) and never leaves exact arithmetic. Each row is
first scaled by the lcm of its denominators, which changes neither the pivot
columns nor the solutions, and one fraction-free (Bareiss) Gauss-Jordan
elimination then runs on Python ints: every division in it is exact, so no
``Fraction`` is built until a solution is read off.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Tuple

import numpy as np


def _integer_rows(matrix: np.ndarray) -> np.ndarray:
    """``matrix`` with each row scaled by the lcm of its entries'
    denominators, as an object array of Python ints."""
    if matrix.dtype != object:
        return matrix.astype(object)
    rows = []
    for row in matrix.tolist():
        row = [Fraction(x) for x in row]
        den = math.lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (den // x.denominator) for x in row])
    out = np.empty(matrix.shape, dtype=object)
    if out.size:
        out[...] = rows
    return out


def _eliminate(matrix: np.ndarray) -> Tuple[np.ndarray, Tuple[int, ...], int]:
    """Fraction-free Gauss-Jordan elimination: (M, pivots, d) where M is d
    times the reduced row echelon form of ``matrix`` (row-scaled to ints),
    d > 0 the last pivot's minor (1 when there is no pivot), and ``pivots``
    the leftmost-first pivot columns. Each step replaces every other row i by
    (p * row_i - a_ic * row_r) // q, p the new pivot and q the previous one;
    Sylvester's identity makes every such division exact."""
    work = _integer_rows(matrix)
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


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b exactly for square invertible ``a``; b may be a matrix.
    The solution is an object array of ``Fraction``."""
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("solve needs a square matrix")
    b = b.reshape(n, -1)
    reduced, pivots, d = _eliminate(np.concatenate([a, b], axis=1))
    if pivots[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    out = np.empty((n, b.shape[1]), dtype=object)
    if out.size:
        out[...] = [[Fraction(x, d) for x in row] for row in reduced[:, n:].tolist()]
    return out
