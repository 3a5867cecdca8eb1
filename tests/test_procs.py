"""Core process algebra: composition laws, permutations, index convention."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasicause import (
    EMPTY,
    Signature,
    classical,
    compose_par,
    compose_seq,
    convex_mix,
    identity,
    max_abs_diff,
    number,
    permutation,
    process,
    processes_equal,
    quantum,
    sig,
    state,
    swap,
)
from quasicause.errors import InvalidPermutation, InvalidProbability, TypeMismatch
from quasicause.wires import extension, ravel_index, unravel_index

F = Fraction
BIT = classical(2)
TRIT = classical(3)


def rand_stochastic(rng, n_out, n_in, exact=False):
    m = rng.random((n_out, n_in))
    m /= m.sum(axis=0)
    if exact:
        m = np.array(
            [[F(int(round(x * 840)), 840) for x in col] for col in m.T], dtype=object
        ).T
        m = m + 0  # copy
        for j in range(n_in):
            m[0, j] += 1 - m[:, j].sum()
    return m


def stoch_proc(matrix, n_in, n_out):
    return process(matrix, sig(classical(n_in)), sig(classical(n_out)))


def test_compose_seq_identity():
    f = stoch_proc([[F(1, 2), F(1, 3)], [F(1, 2), F(2, 3)]], 2, 2)
    assert processes_equal(compose_seq(identity(sig(BIT)), f), f)
    assert processes_equal(compose_seq(f, identity(sig(BIT))), f)


def test_compose_seq_matrix_product():
    f = state([F(1, 2), F(1, 2)], BIT)
    g = stoch_proc([[F(1, 2), F(1, 3)], [F(1, 2), F(2, 3)]], 2, 2)
    got = compose_seq(f, g)
    assert list(got.matrix[:, 0]) == [F(5, 12), F(7, 12)]


def test_compose_seq_type_mismatch():
    f = stoch_proc([[1, 0], [0, 1]], 2, 2)
    g = process([[1, 0, 0], [0, 1, 1]], sig(TRIT), sig(BIT))
    with pytest.raises(TypeMismatch):
        compose_seq(f, g)


def test_par_kronecker():
    a = state([F(1, 2), F(2, 3)], BIT)
    b = state([F(1, 2), F(1, 2)], BIT)
    got = compose_par(a, b)
    assert list(got.matrix[:, 0]) == [F(1, 4), F(1, 4), F(1, 3), F(1, 3)]


def test_par_with_number_one_is_unit():
    f = stoch_proc([[F(1, 2), F(1, 3)], [F(1, 2), F(2, 3)]], 2, 2)
    assert processes_equal(compose_par(f, number(1)), f)
    assert processes_equal(compose_par(number(1), f), f)


def test_interchange_law():
    rng = np.random.default_rng(7)
    for _ in range(25):
        f = stoch_proc(rand_stochastic(rng, 2, 2), 2, 2)
        g = stoch_proc(rand_stochastic(rng, 2, 2), 2, 2)
        fp = stoch_proc(rand_stochastic(rng, 2, 2), 2, 2)
        gp = stoch_proc(rand_stochastic(rng, 2, 2), 2, 2)
        lhs = compose_par(compose_seq(f, g), compose_seq(fp, gp))
        rhs = compose_seq(compose_par(f, fp), compose_par(g, gp))
        assert max_abs_diff(lhs, rhs) <= 1e-12


def test_interchange_law_exact():
    rng = np.random.default_rng(11)
    for _ in range(10):
        mats = [rand_stochastic(rng, 2, 2, exact=True) for _ in range(4)]
        f, g, fp, gp = (stoch_proc(m, 2, 2) for m in mats)
        lhs = compose_par(compose_seq(f, g), compose_seq(fp, gp))
        rhs = compose_seq(compose_par(f, fp), compose_par(g, gp))
        assert max_abs_diff(lhs, rhs) == 0


def test_associativity_exact():
    rng = np.random.default_rng(13)
    mats = [rand_stochastic(rng, 2, 2, exact=True) for _ in range(3)]
    f, g, h = (stoch_proc(m, 2, 2) for m in mats)
    assert processes_equal(
        compose_seq(compose_seq(f, g), h), compose_seq(f, compose_seq(g, h))
    )
    assert processes_equal(
        compose_par(compose_par(f, g), h), compose_par(f, compose_par(g, h))
    )


def test_convex_mix():
    d0 = state([1, 0], BIT)
    d1 = state([0, 1], BIT)
    assert processes_equal(convex_mix(1, d0, d1), d0)
    uniform = convex_mix(F(1, 2), d0, d1)
    assert list(uniform.matrix[:, 0]) == [F(1, 2), F(1, 2)]
    with pytest.raises(InvalidProbability):
        convex_mix(F(3, 2), d0, d1)
    with pytest.raises(TypeMismatch):
        convex_mix(F(1, 2), d0, state([1, 0, 0], TRIT))


def test_mix_distributes_over_composition():
    rng = np.random.default_rng(17)
    for _ in range(10):
        f = stoch_proc(rand_stochastic(rng, 2, 2), 2, 2)
        g = stoch_proc(rand_stochastic(rng, 2, 2), 2, 2)
        h = stoch_proc(rand_stochastic(rng, 2, 2), 2, 2)
        p = rng.random()
        lhs = compose_seq(convex_mix(p, f, g), h)
        rhs = convex_mix(p, compose_seq(f, h), compose_seq(g, h))
        assert max_abs_diff(lhs, rhs) <= 1e-12


def test_permutation_identity_and_inverse():
    s = sig(BIT, TRIT, BIT)
    ident = permutation(s, (0, 1, 2))
    assert processes_equal(ident, identity(s))
    order = (2, 0, 1)
    p = permutation(s, order)
    inverse_order = tuple(order.index(i) for i in range(3))
    back = permutation(p.outputs, inverse_order)
    assert processes_equal(compose_seq(p, back), identity(s))
    with pytest.raises(InvalidPermutation):
        permutation(s, (0, 0, 1))


def test_swap_2_3_moves_indices():
    # Oracle: enumerate all 6 basis points of the (2,3) pair.
    p = permutation(sig(BIT, TRIT), (1, 0))
    for i in range(2):
        for j in range(3):
            col = ravel_index((i, j), (2, 3))
            row = ravel_index((j, i), (3, 2))
            assert p.matrix[row, col] == 1
    assert p.matrix.sum() == 6


def test_swap_involution():
    a, b = classical(2), classical(3)
    there = swap(a, b)
    back = swap(b, a)
    assert processes_equal(compose_seq(there, back), identity(sig(a, b)))


def test_symmetry_naturality():
    rng = np.random.default_rng(23)
    f = stoch_proc(rand_stochastic(rng, 3, 2), 2, 3)
    g = stoch_proc(rand_stochastic(rng, 2, 2), 2, 2)
    lhs = compose_seq(compose_par(f, g), swap(classical(3), classical(2)))
    rhs = compose_seq(swap(classical(2), classical(2)), compose_par(g, f))
    assert max_abs_diff(lhs, rhs) <= 1e-12


def test_index_roundtrip_total_dim_64():
    for dims in [(2, 2, 2, 2, 2, 2), (4, 16), (2, 3, 2), (8, 8), (64,)]:
        total = int(np.prod(dims))
        assert total <= 64
        for idx in range(total):
            assert ravel_index(unravel_index(idx, dims), dims) == idx


def test_scalar_one_is_1x1():
    one = number(1)
    assert one.matrix.shape == (1, 1)
    assert one.as_scalar() == 1
    assert one.inputs == EMPTY and one.outputs == EMPTY


def test_promotion_rational_float():
    f = stoch_proc([[F(1, 2), F(1, 3)], [F(1, 2), F(2, 3)]], 2, 2)
    g = stoch_proc(np.array([[0.5, 0.5], [0.5, 0.5]]), 2, 2)
    assert f.arithmetic == "rational"
    assert compose_seq(f, g).arithmetic == "float64"


def test_empty_signature_equality():
    assert Signature(()) == EMPTY
    assert EMPTY.dim == 1


# -- wire shuffles and identities against the dense matrix product ----------

SHUFFLE_WIRES = [BIT, TRIT, quantum(2), extension("c", 1, 2)]


def dense_permutation(signature, order):
    """The per-column loop over mixed-radix digits."""
    out_dims = [signature.dims[p] for p in order]
    matrix = np.zeros((signature.dim, signature.dim), dtype=object)
    for col in range(signature.dim):
        digits = unravel_index(col, signature.dims)
        matrix[ravel_index([digits[p] for p in order], out_dims), col] = 1
    return matrix


def promoted(f, g):
    """Both matrices, in binary64 unless both are rational."""
    if f.matrix.dtype == g.matrix.dtype:
        return f.matrix, g.matrix
    return f.matrix.astype(float), g.matrix.astype(float)


def dense_seq(f, g):
    fm, gm = promoted(f, g)
    return gm @ fm


def dense_par(f, g):
    return np.kron(*promoted(f, g))


def assert_same(got, want):
    """Same arithmetic and equal entries (``==``, so rationals compare exactly)."""
    assert got.matrix.dtype == want.dtype
    assert np.array_equal(got.matrix, want)


def random_operand(rng, shape, exact):
    if exact:
        entries = [F(int(rng.integers(-6, 7)), int(rng.integers(1, 8)))
                   for _ in range(shape[0] * shape[1])]
        return np.array(entries, dtype=object).reshape(shape)
    return rng.normal(size=shape)


def shuffles(signature, data):
    """An identity or a drawn permutation on ``signature``, with its dense oracle."""
    order = data.draw(st.one_of(st.none(), st.permutations(range(len(signature)))))
    if order is None:
        return identity(signature), np.eye(signature.dim, dtype=int).astype(object)
    return permutation(signature, order), dense_permutation(signature, order)


@settings(max_examples=60, deadline=None)
@given(
    wires=st.lists(st.sampled_from(SHUFFLE_WIRES), min_size=1, max_size=4)
    .filter(lambda ws: sig(*ws).dim <= 64),
    data=st.data(),
    exact_f=st.booleans(),
    exact_g=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_shuffles_compose_like_the_dense_product(wires, data, exact_f, exact_g, seed):
    rng = np.random.default_rng(seed)
    s = sig(*wires)
    p, p_dense = shuffles(s, data)
    q, q_dense = shuffles(p.outputs, data)
    cut = data.draw(st.integers(0, len(wires)))
    left, left_dense = shuffles(sig(*wires[:cut]), data)
    right, right_dense = shuffles(sig(*wires[cut:]), data)
    for got, want in [(p, p_dense), (q, q_dense), (left, left_dense), (right, right_dense)]:
        assert_same(got, want)

    side = sig(classical(int(rng.integers(1, 4))))
    f = process(random_operand(rng, (s.dim, side.dim), exact_f), side, s)
    assert_same(compose_seq(f, p), dense_seq(f, p))
    pq = compose_seq(p, q)
    assert_same(pq, dense_seq(p, q))
    par = compose_par(left, right)
    assert_same(par, dense_par(left, right))
    # the composites carry the structure on: composing with them still agrees
    for shuffle in (q, pq, par):
        g = process(random_operand(rng, (side.dim, s.dim), exact_g), shuffle.outputs, side)
        assert_same(compose_seq(shuffle, g), dense_seq(shuffle, g))
    assert_same(compose_seq(f, pq), dense_seq(f, pq))
    assert_same(compose_seq(f, par), dense_seq(f, par))
