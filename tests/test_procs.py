"""Core process algebra: composition laws, permutations, index convention."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasicause import (
    EMPTY,
    Leaf,
    LinearProcess,
    Mix,
    Signature,
    classical,
    compose_par,
    compose_seq,
    convex_mix,
    eval_diagram,
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
from quasicause.errors import (
    InvalidPermutation,
    InvalidProbability,
    QuasicauseError,
    TooLarge,
    TypeMismatch,
)
from quasicause.procs import DENSE_CAP, add, copy, numerators, scale
from quasicause.wires import extension, ravel_index, unravel_index

from tests.helpers import (
    fraction_add,
    fraction_compose_par,
    fraction_compose_seq,
    fraction_convex_mix,
    fraction_max_abs_diff,
    fraction_scale,
)

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


def test_public_constructor_rejects_float_in_rational_matrix():
    matrix = np.array([[F(1, 2)], [0.5]], dtype=object)
    with pytest.raises(TypeError, match="non-rational"):
        LinearProcess(EMPTY, sig(BIT), matrix)


def copy_map(k, m):
    return copy(k, [extension("c", i + 1, k) for i in range(m)])


def dense_copy(k, m):
    """The k -> k^m copy map, one column at a time."""
    matrix = np.zeros((k ** m, k), dtype=object)
    for c in range(k):
        matrix[ravel_index([c] * m, [k] * m), c] = 1
    return matrix


def test_copy_map_needs_wires_of_its_carrier():
    with pytest.raises(TypeMismatch):
        copy(2, [extension("c", 1, 2), extension("c", 2, 3)])
    with pytest.raises(TypeMismatch):
        copy(2, [])


def test_dense_views_above_the_cap_raise_too_large():
    # the binary four-wing common cause (81^4 entries) is admitted
    assert 81 ** 4 <= DENSE_CAP < 243 ** 5
    big = copy_map(243, 5)
    assert big.arithmetic == "rational" and big.shape == (243 ** 5, 243)
    with pytest.raises(TooLarge):
        big.matrix
    point = state([F(1, 2), F(1, 4), F(1, 4)] + [0] * 240, classical(243))
    with pytest.raises(TooLarge) as raised:
        compose_seq(point, big).matrix
    assert isinstance(raised.value, QuasicauseError)
    # past the int64 range (2187^7 points) the copy map's rows are Python
    # ints: it composes without a build, and dense results stay refused
    huge = copy_map(2187, 7)
    assert huge.shape == (2187 ** 7, 2187)
    assert compose_par(huge, identity(BIT)).shape == (2 * 2187 ** 7, 2 * 2187)
    with pytest.raises(TooLarge):
        compose_par(number(1), huge)
    with pytest.raises(TooLarge):
        compose_seq(state([1] + [0] * 2186, classical(2187)), huge).matrix


def assert_same_entries(got, want):
    """np.kron's matrix exactly: dtype, value, and each entry's ``str``
    (so a Fraction stays a Fraction and -0.0 stays -0.0)."""
    assert got.matrix.dtype == want.dtype
    assert np.array_equal(got.matrix, want)
    assert [str(x) for x in got.matrix.flat] == [str(x) for x in want.flat]


def promoted_to(indexed_dense, other):
    """The index map's dense matrix and ``other``'s, promoted as np.kron sees them."""
    if other.matrix.dtype == object:
        return indexed_dense, other.matrix
    return indexed_dense.astype(float), other.matrix


@settings(max_examples=60, deadline=None)
@given(
    wires=st.lists(st.sampled_from(SHUFFLE_WIRES), min_size=1, max_size=2),
    data=st.data(),
    k=st.integers(1, 3),
    m=st.integers(1, 3),
    exact=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_one_indexed_operand_places_blocks_like_np_kron(wires, data, k, m, exact, seed):
    """compose_par with exactly one shuffle, identity or copy map, in either
    order, equals np.kron; copy maps also compose sequentially like the
    dense product."""
    rng = np.random.default_rng(seed)
    shuffle, shuffle_dense = shuffles(sig(*wires), data)
    cp = copy_map(k, m)
    assert_same(cp, dense_copy(k, m))
    ins = sig(*(classical(int(d)) for d in rng.integers(1, 4, size=2)))
    outs = sig(*(classical(int(d)) for d in rng.integers(1, 4, size=2)))
    other = process(random_operand(rng, (outs.dim, ins.dim), exact), ins, outs)
    for indexed, dense in ((shuffle, shuffle_dense), (cp, dense_copy(k, m))):
        assert_same_entries(compose_par(indexed, other), np.kron(*promoted_to(dense, other)))
        assert_same_entries(compose_par(other, indexed), np.kron(*promoted_to(dense, other)[::-1]))

    f = process(random_operand(rng, (k, ins.dim), exact), ins, sig(classical(k)))
    assert_same(compose_seq(f, cp), dense_seq(f, cp))
    g = process(random_operand(rng, (outs.dim, k ** m), exact), cp.outputs, outs)
    assert_same(compose_seq(cp, g), dense_seq(cp, g))


# -- integer-numerator kernels against the dense Fraction algebra -----------

# numerator magnitudes: small, just past 2^31 (a sum of two products passes
# the int64 limit) and just past 2^62 (a sum of two passes it, and no value
# is exact in binary64); one denominator for every operand of an example, so
# the integer forms' numerators keep these magnitudes and sums need no
# rescaling
NUMERATORS = {
    "small": lambda rng: int(rng.integers(-6, 7)),
    "mid": lambda rng: int(rng.choice([-1, 1])) * (2 ** 31 + int(rng.integers(0, 2 ** 20))),
    "big": lambda rng: int(rng.choice([-1, 1])) * (2 ** 62 + int(rng.integers(0, 2 ** 40))),
}
DENOMINATORS = {
    "one": lambda rng: 1,
    "small": lambda rng: int(rng.integers(2, 13)),
    "big": lambda rng: 2 ** 31 + int(rng.integers(0, 2 ** 20)),
}
KERNEL_WIRES = [classical(1), BIT, TRIT]


def kernel_operand(rng, magnitude, den, inputs, outputs, exact):
    """A public-constructor process: binary64, or rationals of one magnitude
    over ``den``."""
    shape = (outputs.dim, inputs.dim)
    if not exact:
        return process(rng.normal(size=shape) * 10.0 ** int(rng.integers(-3, 4)), inputs, outputs)
    entries = [F(NUMERATORS[magnitude](rng), den) for _ in range(shape[0] * shape[1])]
    return process(np.array(entries, dtype=object).reshape(shape), inputs, outputs)


def assert_oracle(got, want):
    """The library's matrix is the oracle's: dtype, each entry's str and,
    in binary64, every bit."""
    assert got.matrix.dtype == want.dtype
    assert got.matrix.shape == want.shape
    if want.dtype == object:
        assert [str(x) for x in got.matrix.flat] == [str(x) for x in want.flat]
        num, den = numerators(got)  # canonical: nothing left to divide out
        assert den > 0 and math.gcd(den, *(int(n) for n in num.flat)) == 1
    else:
        assert got.matrix.tobytes() == want.tobytes()


def assert_same_number(got, want):
    """Rationals by str, binary64 bit for bit."""
    assert isinstance(got, float) == isinstance(want, float)
    assert str(got) == str(want)
    if isinstance(want, float):
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    wires=st.lists(st.sampled_from(KERNEL_WIRES), min_size=1, max_size=2)
    .filter(lambda ws: sig(*ws).dim <= 4),
    side=st.tuples(st.integers(1, 2), st.integers(1, 2)),
    exact=st.one_of(st.just((True,) * 3), st.tuples(st.booleans(), st.booleans(), st.booleans())),
    magnitude=st.sampled_from(sorted(NUMERATORS)),
    denominator=st.sampled_from(sorted(DENOMINATORS)),
    data=st.data(),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_integer_kernels_match_the_fraction_oracle(
    wires, side, exact, magnitude, denominator, data, seed
):
    """compose_seq, compose_par (dense, and beside a shuffle on either side),
    add, scale, convex_mix, max_abs_diff and as_scalar on numerators equal
    the dense Fraction algebra, with each operand at most 64 entries."""
    rng = np.random.default_rng(seed)
    s = sig(*wires)
    side_in, side_out = sig(classical(side[0])), sig(classical(side[1]))

    den = DENOMINATORS[denominator](rng)

    def operand(inputs, outputs, exact):
        return kernel_operand(rng, magnitude, den, inputs, outputs, exact)

    f = operand(side_in, s, exact[0])
    h = operand(side_in, s, exact[1])
    g = operand(s, side_out, exact[2])
    e = operand(side_in, side_out, exact[1])
    u = operand(EMPTY, s, exact[0])
    v = operand(s, EMPTY, exact[2])
    shuffle, shuffle_dense = shuffles(s, data)

    fg = compose_seq(f, g)
    assert_oracle(fg, fraction_compose_seq(f.matrix, g.matrix))
    assert_oracle(compose_seq(h, g), fraction_compose_seq(h.matrix, g.matrix))
    assert_oracle(compose_par(f, g), fraction_compose_par(f.matrix, g.matrix))
    assert_oracle(compose_seq(f, shuffle), fraction_compose_seq(f.matrix, shuffle_dense))
    g_shuffled = process(g.matrix, shuffle.outputs, side_out)
    assert_oracle(compose_seq(shuffle, g_shuffled), fraction_compose_seq(shuffle_dense, g.matrix))
    assert_oracle(compose_par(shuffle, e), fraction_compose_par(shuffle_dense, e.matrix))
    assert_oracle(compose_par(e, shuffle), fraction_compose_par(e.matrix, shuffle_dense))
    # composition results are operands too
    assert_oracle(compose_par(fg, e), fraction_compose_par(fg.matrix, e.matrix))

    assert_oracle(add(f, h), fraction_add(f.matrix, h.matrix))
    rational = f.arithmetic == h.arithmetic == "rational"
    c = data.draw(st.one_of(st.integers(-5, 5), st.floats(-3, 3), st.fractions(-3, 3, max_denominator=7))
                  if f.arithmetic == "rational" else st.one_of(st.integers(-5, 5), st.floats(-3, 3)))
    assert_oracle(scale(c, f), fraction_scale(c, f.matrix))
    p = data.draw(st.one_of(st.sampled_from([0, 1]), st.floats(0, 1), st.fractions(0, 1, max_denominator=12))
                  if rational else st.one_of(st.sampled_from([0, 1]), st.floats(0, 1)))
    assert_oracle(convex_mix(p, f, h), fraction_convex_mix(p, f.matrix, h.matrix))
    assert_same_number(max_abs_diff(f, h), fraction_max_abs_diff(f.matrix, h.matrix))
    assert_same_number(max_abs_diff(fg, fg), fraction_max_abs_diff(fg.matrix, fg.matrix))
    uv = compose_seq(u, v)
    assert_same_number(uv.as_scalar(), fraction_compose_seq(u.matrix, v.matrix)[0, 0])


def test_processes_compare_by_identity_and_hash_without_a_view():
    """``==`` is identity and processes hash; neither builds a deferred view."""
    builds = []
    unbuilt = LinearProcess.__getattr__

    def counted(self, name):
        builds.append(name)
        return unbuilt(self, name)

    a = stoch_proc([[F(1, 2), F(1, 3)], [F(1, 2), F(2, 3)]], 2, 2)
    b = stoch_proc([[F(1, 2), F(1, 3)], [F(1, 2), F(2, 3)]], 2, 2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LinearProcess, "__getattr__", counted)
        p, q = compose_seq(a, b), compose_seq(a, b)
        assert (a == b) is False and a == a
        assert (p == q) is False and p == p and p != q
        assert hash(p) == hash(p) and len({a, b, p, q, p}) == 4
        assert builds == []
    assert processes_equal(p, q) and processes_equal(a, b)


def test_rational_weights_on_binary64_processes_match_float_weights():
    """A Fraction weight or factor on binary64 operands acts as its float."""
    third = F(1, 3)
    s = state([0.5, 0.5], BIT)
    f = process([[0.25, -0.0], [0.75, 1.0]], sig(BIT), sig(BIT))
    g = process([[F(1, 2), 0], [F(1, 2), 1]], sig(BIT), sig(BIT))  # rational beside binary64
    for got, want in [
        (convex_mix(third, s, s), convex_mix(float(third), s, s)),
        (convex_mix(third, f, g), convex_mix(float(third), f, g)),
        (scale(third, s), scale(float(third), s)),
        (eval_diagram(Mix(third, Leaf("f"), Leaf("g")), {"f": f, "g": g}),
         eval_diagram(Mix(float(third), Leaf("f"), Leaf("g")), {"f": f, "g": g})),
    ]:
        assert got.matrix.dtype == want.matrix.dtype == np.float64
        assert got.matrix.tobytes() == want.matrix.tobytes()
