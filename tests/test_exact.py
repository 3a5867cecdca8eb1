"""Exact linear algebra on integer numerators: echelon form, rank and solve."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasicause.exact import (
    independent_columns,
    rank,
    solve,
)
from tests.helpers import rref_oracle as rref, solve_oracle

F = Fraction


def to_obj(rows):
    return np.array([[F(x) for x in row] for row in rows], dtype=object)


def numerators(*matrices):
    """Rational matrices times one common denominator, as object arrays of
    Python ints: they pivot alike, and a @ x = b has the same solutions."""
    den = math.lcm(*(F(x).denominator for m in matrices for x in m.flat))
    return [np.array([int(F(x) * den) for x in m.flat], dtype=object).reshape(m.shape) for m in matrices]


def as_fractions(x):
    """A canonical (num, den) pair as an object array of ``Fraction``."""
    num, den = x
    assert den > 0 and math.gcd(den, *map(int, num.flat)) == 1
    return np.array([F(int(n), den) for n in num.flat], dtype=object).reshape(num.shape)


def test_rref_identity():
    a = to_obj([[2, 0], [0, 3]])
    reduced, pivots = rref(a)
    assert pivots == (0, 1)
    assert reduced[0, 0] == 1 and reduced[1, 1] == 1
    assert independent_columns(*numerators(a)) == pivots


def test_rank_and_columns():
    a, = numerators(to_obj([[1, 2, 3], [2, 4, 6], [1, 1, 1]]))
    assert rank(a) == 2
    assert independent_columns(a) == (0, 1)


def test_solve_exact():
    a = to_obj([[2, 1], [1, 3]])
    b = to_obj([[1], [2]])
    x = as_fractions(solve(*numerators(a, b)))
    assert list((a @ x)[:, 0]) == [F(1), F(2)]


fractions = st.builds(F, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def rational_matrices(draw):
    """Random rational matrices, often of deficient rank (a product through
    a narrower middle) and sometimes all zero."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    shape = st.sampled_from(["full", "product", "zero"])
    kind = draw(shape)
    if kind == "zero" or not rows or not cols:
        return np.zeros((rows, cols), dtype=int).astype(object)
    if kind == "product":
        mid = draw(st.integers(1, 3))
        a = np.array(draw(st.lists(fractions, min_size=rows * mid, max_size=rows * mid)), dtype=object)
        b = np.array(draw(st.lists(fractions, min_size=mid * cols, max_size=mid * cols)), dtype=object)
        return a.reshape(rows, mid) @ b.reshape(mid, cols)
    entries = draw(st.lists(fractions, min_size=rows * cols, max_size=rows * cols))
    return np.array(entries, dtype=object).reshape(rows, cols)


@settings(max_examples=300, deadline=None)
@given(rational_matrices())
def test_pivots_agree_with_the_fraction_rref(matrix):
    _, pivots = rref(matrix)
    ints, = numerators(matrix)
    assert independent_columns(ints) == pivots
    assert rank(ints) == len(pivots)
    # int64 numerators pivot alike
    assert independent_columns(ints.astype(np.int64)) == pivots


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 5), st.integers(1, 3))
def test_solutions_agree_with_the_fraction_rref(data, n, k):
    a = np.array(data.draw(st.lists(fractions, min_size=n * n, max_size=n * n)), dtype=object)
    b = np.array(data.draw(st.lists(fractions, min_size=n * k, max_size=n * k)), dtype=object)
    a, b = a.reshape(n, n), b.reshape(n, k)
    if data.draw(st.booleans()):  # make a singular: its last row the sum of the others
        a[-1] = a[:-1].sum(axis=0) if n > 1 else 0
    try:
        want = solve_oracle(a, b)
    except ValueError:
        with pytest.raises(ValueError):
            solve(*numerators(a, b))
        return
    got = as_fractions(solve(*numerators(a, b)))
    assert got.shape == want.shape
    assert all(x == y for x, y in zip(got.flat, want.flat))
