"""Exact rational linear algebra: echelon form, rank and solve."""

from fractions import Fraction

import numpy as np

from quasicause.exact import (
    independent_columns,
    rank,
    rref,
    solve,
)

F = Fraction


def to_obj(rows):
    return np.array([[F(x) for x in row] for row in rows], dtype=object)


def test_rref_identity():
    a = to_obj([[2, 0], [0, 3]])
    reduced, pivots = rref(a)
    assert pivots == (0, 1)
    assert reduced[0, 0] == 1 and reduced[1, 1] == 1


def test_rank_and_columns():
    a = to_obj([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    assert rank(a) == 2
    assert independent_columns(a) == (0, 1)


def test_solve_exact():
    a = to_obj([[2, 1], [1, 3]])
    b = to_obj([[1], [2]])
    x = solve(a, b)
    assert list((a @ x)[:, 0]) == [F(1), F(2)]

