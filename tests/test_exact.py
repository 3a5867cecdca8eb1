"""Exact rational linear algebra: echelon form, solve, pseudo-inverse."""

from fractions import Fraction

import numpy as np

from quasicause.exact import (
    independent_columns,
    pinv,
    rank,
    rref,
    solve,
)

F = Fraction


def to_obj(rows):
    return np.array([[F(x) for x in row] for row in rows], dtype=object)


def rand_rational(rng, shape, den=12):
    return np.array(
        [[F(int(rng.integers(-6, 7)), den) for _ in range(shape[1])] for _ in range(shape[0])],
        dtype=object,
    )


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


def test_pinv_moore_penrose_conditions():
    rng = np.random.default_rng(5)
    for shape in [(4, 6), (6, 4), (5, 5)]:
        a = rand_rational(rng, shape)
        # force rank deficiency sometimes
        if shape == (5, 5):
            a[4, :] = a[0, :] + a[1, :]
        ap = pinv(a)
        assert (a @ ap @ a == a).all()
        assert (ap @ a @ ap == ap).all()
        assert ((a @ ap).T == a @ ap).all()
        assert ((ap @ a).T == ap @ a).all()


def test_pinv_matches_float_pinv():
    rng = np.random.default_rng(9)
    a = rand_rational(rng, (4, 7))
    exact_pinv = pinv(a).astype(float)
    float_pinv = np.linalg.pinv(a.astype(float))
    assert np.abs(exact_pinv - float_pinv).max() < 1e-10

