"""Quasi-mixture decomposition, realization packaging, and verification."""

import json
import math
import tracemalloc
from unittest import mock
from dataclasses import replace
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as highs_core

from perfbench import gen
from quasicause import (
    EMPTY,
    QUANT,
    STOCH,
    check,
    classical,
    compose_par,
    decompose,
    extension,
    identity,
    permutation,
    process,
    procs,
    quantum,
    sig,
    state,
)
from quasicause.assemblages import assemblage_to_channel, bb84_assemblage
from quasicause.boxes import pr_box, product_channel, swap_channel
from quasicause.decompose import (
    MIN_NEGATIVITY,
    MIN_NORM,
    CommonCauseRealization,
    QuasiMixture,
    WingFrame,
    build_realization,
    decompose_quasimixture,
    default_frames,
    deterministic_frame,
    local_channel_frame,
    negativity,
    reconstruction_residual,
    verify_realization,
)
from quasicause.errors import NotNonSignalling, ResidualTooLarge, SignatureMismatch
from quasicause.nonsignalling import (
    MultipartiteChannel,
    check_nonsignalling,
)
from quasicause.procs import FLOAT64, LinearProcess, compose_seq, effective_tol, max_abs_diff
from quasicause.serialize import (
    certificate_to_json,
    channel_digest,
    channel_to_json,
    verify_certificate,
)
from quasicause.theories import discard_effect, hybrid_valid
from tests.helpers import (
    _greedy_columns,
    assemble_common_cause,
    dense_lp_oracle,
    diagonal_realization,
    fraction_compose_seq,
    fresh_frame_data,
    milp_lp_oracle,
    min_negativity_oracle,
    pruned_oracle,
    pruned_terms_oracle,
    random_cptp_transfer,
    random_density_coords,
    random_stochastic_float,
    random_stochastic_rational,
    verify_diagonal,
)

F = Fraction
BIT = classical(2)
QUBIT = quantum(2)


def local_polytope_contains(channel, tol=1e-9):
    """Independent LP oracle: is the bipartite binary channel a convex
    mixture of products of deterministic single-wing channels?"""
    frames = [deterministic_frame(w_in, w_out) for w_in, w_out in channel.wings]
    cols = []
    for m1 in frames[0]:
        for m2 in frames[1]:
            cols.append(np.kron(
                m1.matrix.astype(float), m2.matrix.astype(float)
            ).reshape(-1))
    a_eq = np.stack(cols, axis=1)
    b_eq = channel.body.matrix.astype(float).reshape(-1)
    n = a_eq.shape[1]
    a_eq = np.vstack([a_eq, np.ones((1, n))])
    b_eq = np.concatenate([b_eq, [1.0]])
    res = linprog(np.zeros(n), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs")
    return res.success


def test_local_frame_classical_bits_is_deterministic():
    frame = local_channel_frame(STOCH, BIT, BIT)
    assert len(frame) == 4
    trit = classical(3)
    frame33 = local_channel_frame(STOCH, trit, trit)
    assert len(frame33) == 1 + 9  # measure-prepare wins over 27 functions


def test_local_frame_qubit_size_and_validity():
    frame = local_channel_frame(QUANT, QUBIT, QUBIT)
    assert len(frame) == 13
    u_in = discard_effect(sig(QUBIT))
    u_out = discard_effect(sig(QUBIT))
    for member in frame.members:
        assert QUANT.valid(member)
        gap = max_abs_diff(compose_seq(member, u_out), u_in)
        assert gap <= 1e-9


def test_frame_members_are_channels_classical():
    frame = local_channel_frame(STOCH, classical(3), BIT)
    for member in frame.members:
        assert STOCH.valid(member)


FRAME_WINGS = [
    (STOCH, BIT, BIT),
    (STOCH, classical(3), classical(3)),
    (QUANT, BIT, BIT),
    (QUANT, BIT, QUBIT),
    (QUANT, QUBIT, QUBIT),
]


@pytest.mark.parametrize("theory, w_in, w_out", FRAME_WINGS)
def test_shared_frame_matches_a_fresh_build(theory, w_in, w_out):
    """The memoized frame and everything it derives equal a fresh build's
    members, computed from scratch: bit for bit when rational, equal arrays
    in binary64; every kept array is read-only."""
    frame = local_channel_frame(theory, w_in, w_out)
    assert local_channel_frame(theory, w_in, w_out) is frame
    fresh = local_channel_frame.__wrapped__(theory, w_in, w_out)
    assert fresh is not frame
    want = fresh_frame_data(fresh)
    assert frame.exact == (want["exact_dual"] is not None)
    columns, dual = frame.operands()
    floats, float_dual = frame.operands(binary64=True)
    assert isinstance(columns, tuple) == isinstance(dual, tuple) == frame.exact
    assert np.array_equal(procs._fractions(*columns) if frame.exact else columns, want["matrix"])
    assert np.array_equal(floats, want["float_matrix"])
    assert frame.retained == want["retained"]
    assert frame.lp_rows == want["lp_rows"]
    assert np.array_equal(float_dual, want["float_dual"])
    a, a_eq = decompose._lp_matrices((frame, frame))
    rows = want["float_matrix"][list(want["lp_rows"])]
    assert np.array_equal(a.toarray(), np.kron(rows, rows))
    assert np.array_equal(a_eq.toarray(), np.hstack([a.toarray(), -a.toarray()]))
    kept = [floats, float_dual]
    kept += [getattr(lp, part) for lp in (a, a_eq) for part in ("data", "indices", "indptr")]
    if frame.exact:
        assert np.array_equal(procs._fractions(*dual), want["exact_dual"])
        kept += [columns[0], dual[0]]
    assert not any(arr.flags.writeable for arr in kept)
    assert frame.eta_problem() is None and frame.eta_problem(binary64=True) is None


def test_identical_wings_share_one_frame():
    ch = product_channel(STOCH, [deterministic_frame(BIT, BIT)[1]] * 4)
    frames = default_frames(ch)
    assert len(frames) == 4 and all(f is frames[0] for f in frames)
    assert default_frames(ch)[0] is frames[0]


@pytest.mark.parametrize("mode", [MIN_NORM, MIN_NEGATIVITY])
def test_caller_built_frame_derives_its_own_data(mode):
    """A frame built by hand from fresh copies of the shared frame's members
    decomposes like the shared one, from data computed on that instance."""
    shared = local_channel_frame(STOCH, BIT, BIT)
    own = WingFrame(BIT, BIT, deterministic_frame(BIT, BIT))
    got = decompose_quasimixture(pr_box(), mode=mode, frames=(own, own))
    want = decompose_quasimixture(pr_box(), mode=mode, frames=(shared, shared))
    assert got.terms == want.terms
    build_realization(pr_box(), got, (own, own))
    kept = {
        MIN_NORM: {"retained", "_exact_operands", "_eta_problem"},
        MIN_NEGATIVITY: {"lp_rows", "_float_eta_problem"},
    }[mode]
    assert kept <= set(vars(own))
    (own_num, own_den), (shared_num, shared_den) = vars(own)["_columns"], vars(shared)["_columns"]
    assert own_num is not shared_num
    assert np.array_equal(own_num, shared_num) and own_den == shared_den


def test_frame_with_an_invalid_member_fails_build_realization():
    """A member with an entry of -1e-12 makes the controlled frame invalid in
    rational mode, even where the mixture gives that member zero weight, and
    stays within binary64's tolerance; each arithmetic keeps its own check."""
    det = deterministic_frame(BIT, BIT)
    bad = LinearProcess(sig(BIT), sig(BIT), np.array([[F(-1, 10**12), 0],
                                                      [1 + F(1, 10**12), 1]], dtype=object))
    frame = WingFrame(BIT, BIT, det + (bad,))
    shared = local_channel_frame(STOCH, BIT, BIT)
    qm = decompose_quasimixture(pr_box())
    qm = replace(qm, tensor=np.pad(qm.coefficients, ((0, 0), (0, 1))))
    floats = replace(qm, tensor=qm.coefficients.astype(float))
    build_realization(pr_box(), floats, (shared, frame))
    with pytest.raises(ResidualTooLarge, match="eta for wing 2 is not completely positive"):
        build_realization(pr_box(), qm, (shared, frame))


@settings(max_examples=80, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    exact=st.booleans(),
    data=st.data(),
)
def test_pruning_matches_the_loop_oracle(sizes, exact, data):
    """Vectorized pruning against the per-index loop: the same terms, in the
    same order, with the same types and bits (the pruned mass included)."""
    n = math.prod(sizes)
    if exact:
        entry = st.one_of(st.just(0), st.fractions(max_denominator=9))
    else:
        entry = st.one_of(
            st.just(0.0),
            st.floats(-1e-12, 1e-12),
            st.floats(-3, 3, allow_nan=False),
        )
    values = data.draw(st.lists(entry, min_size=n, max_size=n))
    coeffs = np.array(values, dtype=object if exact else float)
    tensor = coeffs.reshape(sizes)
    got = QuasiMixture(tensor if exact else decompose._pruned(tensor), None, MIN_NORM).terms
    want = pruned_terms_oracle(coeffs, tuple(sizes), exact)
    if exact and all(F(c).denominator == 1 for c in values):  # the mixture's denominator is 1
        want = tuple((int(c), idx) for c, idx in want)
    assert repr(got) == repr(want)


def test_object_coefficients_become_numerators_or_are_rejected():
    """A mixture made from an object array of ints and Fractions holds it as
    canonical numerators, read back as the same values; an object array with
    a float in it is refused, not taken as binary64."""
    qm = QuasiMixture(np.array([[F(1, 2), 0], [F(3, 4), F(-1, 4)]], dtype=object), None, MIN_NORM)
    num, den = qm.tensor
    assert den == 4 and num.tolist() == [[2, 0], [3, -1]] and not num.flags.writeable
    assert qm.coefficients.tolist() == [[F(1, 2), 0], [F(3, 4), F(-1, 4)]]
    assert qm.coefficient_sum == 1 and qm.min_coefficient() == F(-1, 4)
    with pytest.raises(TypeError, match="non-rational entry"):
        QuasiMixture(np.array([F(1, 2), 0.5], dtype=object), None, MIN_NORM)


@settings(max_examples=200, deadline=None)
@given(
    shape=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    data=st.data(),
)
def test_pruned_mass_has_the_loop_sums_bits(shape, data):
    """One-pass pruning against the per-entry loop: the same bits, signed
    zeros included, with tiny entries that cancel or that are all -0.0, and
    kept entries small enough that the pruned mass's last bits show."""
    big = data.draw(st.sampled_from([2e-12, 1e-11, 3.0]))
    entry = st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, decompose.PRUNE, -decompose.PRUNE]),
        st.floats(-decompose.PRUNE, decompose.PRUNE),
        st.floats(-big, big),
    )
    n = math.prod(shape)
    coeffs = np.array(data.draw(st.lists(entry, min_size=n, max_size=n)), dtype=float).reshape(shape)
    got, want = decompose._pruned(coeffs), pruned_oracle(coeffs)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_pruned_mass_is_summed_in_order_not_pairwise():
    # nine pruned entries whose pairwise sum differs from the loop's in the
    # last bit, which shows beside a kept entry this small
    small = [-4.01e-13, -1.55e-13, -9.43e-13, -7.51e-13, 3.41e-13, 2.94e-13, 2.31e-13, -2.33e-13, 9.94e-13]
    coeffs = np.array(small + [2e-12])
    assert decompose._pruned(coeffs).tobytes() == pruned_oracle(coeffs).tobytes()


def test_product_channel_single_term():
    lam1 = deterministic_frame(BIT, BIT)[1]  # identity function
    lam2 = deterministic_frame(BIT, BIT)[2]  # negation
    chan = product_channel(STOCH, [lam1, lam2])
    qm = decompose_quasimixture(chan)
    assert qm.coefficient_sum == 1
    assert qm.residual == 0
    nonzero = [t for t in qm.terms if t[0] != 0]
    assert len(nonzero) == 1
    assert nonzero[0][0] == 1
    assert nonzero[0][1] == (1, 2)


def test_pr_box_minnorm_is_exact_and_negative():
    qm = decompose_quasimixture(pr_box())
    assert qm.mode == MIN_NORM
    assert qm.residual == 0
    assert qm.coefficient_sum == 1
    assert qm.min_coefficient() < 0
    assert all(isinstance(c, (int, F)) for c, _ in qm.terms)


def test_pr_box_outside_local_polytope():
    assert not local_polytope_contains(pr_box())
    # a classical common-cause channel is inside
    rng = np.random.default_rng(3)
    anc = classical(2)
    shared = state(list(random_stochastic_rational(rng, 4, 1)[:, 0]), sig(anc, anc))
    locals_ = [
        process(random_stochastic_rational(rng, 2, 4), sig(BIT, anc), sig(BIT))
        for _ in range(2)
    ]
    chan = assemble_common_cause(shared, locals_, STOCH)
    assert local_polytope_contains(chan)


def test_min_negativity_zero_inside_polytope():
    rng = np.random.default_rng(5)
    anc = classical(2)
    shared = state(list(random_stochastic_rational(rng, 4, 1)[:, 0]), sig(anc, anc))
    locals_ = [
        process(random_stochastic_rational(rng, 2, 4), sig(BIT, anc), sig(BIT))
        for _ in range(2)
    ]
    chan = assemble_common_cause(shared, locals_, STOCH)
    qm = decompose_quasimixture(chan, mode=MIN_NEGATIVITY)
    assert negativity(qm) <= 1e-7
    assert local_polytope_contains(chan)


def test_min_negativity_positive_for_pr():
    qm = decompose_quasimixture(pr_box(), mode=MIN_NEGATIVITY)
    assert abs(negativity(qm) - 0.5) <= 1e-9
    assert abs(qm.coefficient_sum - 1) <= 1e-9
    # invariant under term reordering
    reordered = sorted(qm.terms, key=lambda t: t[1])
    assert sum(max(-c, 0) for c, _ in reordered) == negativity(qm)


def _local_box(rng, m, k=3):
    """A random convex mixture of k products of 2x2 stochastic maps."""
    weights = rng.random(k)
    parts = [
        reduce(np.kron, [random_stochastic_float(rng, 2, 2) for _ in range(m)])
        for _ in range(k)
    ]
    return sum(w * p for w, p in zip(weights / weights.sum(), parts))


def _binary_channel(matrix):
    wires = sig(*[BIT] * round(math.log2(len(matrix))))
    body = LinearProcess(wires, wires, matrix)
    return MultipartiteChannel(((BIT, BIT),) * len(wires), body, STOCH)


def _assert_min_negativity_matches_oracle(chan):
    qm = decompose_quasimixture(chan, mode=MIN_NEGATIVITY)
    oracle = min_negativity_oracle(chan, default_frames(chan))
    assert abs(negativity(qm) - np.maximum(-oracle, 0).sum()) <= 1e-9
    assert qm.residual <= effective_tol("float64")
    assert abs(qm.coefficient_sum - 1) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(2, 3),
    pr_weight=st.floats(0, 1),
    push=st.floats(0, 1),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(m=3, pr_weight=0.75, push=0.99999, seed=0)  # a degenerate LP vertex
@example(m=3, pr_weight=0.99999, push=0.0, seed=2)  # needs the oracle's tight tolerances
def test_min_negativity_matches_full_row_oracle(m, pr_weight, push, seed):
    """The LP on each wing's independent rows against the LP on every row
    of the product frame plus a sum-to-one row: equal negativity."""
    _assert_min_negativity_matches_oracle(_pushed_pr_channel(m, pr_weight, push, seed))


def _pushed_pr_channel(m, pr_weight, push, seed):
    """The PR box (tensored with m - 2 local maps) mixed with a local box,
    then pushed away from a second local box with a negative weight as far
    as the entries stay non-negative times ``push``."""
    rng = np.random.default_rng(seed)
    pr = pr_box().body.matrix.astype(float)
    for _ in range(m - 2):
        pr = np.kron(pr, random_stochastic_float(rng, 2, 2))
    inner = pr_weight * pr + (1 - pr_weight) * _local_box(rng, m)
    away = _local_box(rng, m)
    rising = away > inner
    t = push * (inner[rising] / (away - inner)[rising]).min(initial=1.0)
    # (1 + t) inner - t away, with a negative weight on the second local box
    body = np.clip((1 + t) * inner - t * away, 0, None)
    return _binary_channel(body / body.sum(axis=0))


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(2, 4),
    pr_weight=st.floats(0, 1),
    push=st.floats(0, 1),
    seed=st.integers(0, 2 ** 32 - 1),
    common_cause=st.booleans(),
)
@example(m=3, pr_weight=0.75, push=0.99999, seed=0, common_cause=False)  # a degenerate LP vertex
def test_sparse_lp_matches_the_dense_linprog_oracle(m, pr_weight, push, seed, common_cause):
    """HiGHS on the prebuilt sparse system, polished by LU on a square
    support, against ``linprog`` on the dense one, polished by least squares:
    the same support, coefficients and negativity within 1e-12. Inputs are
    pushed PR-box mixtures (negativity > 0) or the benchmark's generated
    common causes (negativity 0)."""
    if common_cause:
        chan = _binary_channel(gen.common_cause(np.random.default_rng(seed), m, exact=False).matrix)
    else:
        chan = _pushed_pr_channel(m, pr_weight, push, seed)
    frames = default_frames(chan)
    got = decompose._min_negativity_coefficients(chan, frames)
    want = dense_lp_oracle(chan, frames)
    assert np.array_equal(np.abs(got) > 1e-10, np.abs(want) > 1e-10)
    assert np.abs(got - want).max() <= 1e-12
    assert abs(np.maximum(-got, 0).sum() - np.maximum(-want, 0).sum()) <= 1e-12
    qm = decompose_quasimixture(chan, mode=MIN_NEGATIVITY)
    assert qm.residual <= effective_tol(FLOAT64)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(2, 4),
    pr_weight=st.floats(0, 1),
    push=st.floats(0, 1),
    seed=st.integers(0, 2 ** 32 - 1),
    common_cause=st.booleans(),
)
@example(m=3, pr_weight=0.75, push=0.99999, seed=0, common_cause=False)  # a degenerate LP vertex
def test_lp_on_the_bindings_matches_the_milp_route_bit_for_bit(m, pr_weight, push, seed, common_cause):
    """HiGHS called through its bindings gets the model and options that
    ``milp`` would pass, so the polished coefficients are the ``milp``
    route's bit for bit, on pushed PR-box mixtures and generated common
    causes."""
    if common_cause:
        chan = _binary_channel(gen.common_cause(np.random.default_rng(seed), m, exact=False).matrix)
    else:
        chan = _pushed_pr_channel(m, pr_weight, push, seed)
    frames = default_frames(chan)
    assert np.array_equal(decompose._min_negativity_coefficients(chan, frames),
                          milp_lp_oracle(chan, frames))


def test_a_negativity_lp_stopped_early_is_rejected(monkeypatch):
    """A solver stopped before optimality raises, naming HiGHS's model
    status. The subclass also pins the binding names the library calls."""
    class Stopped(highs_core._Highs):
        def run(self):
            self.setOptionValue("simplex_iteration_limit", 0)
            return super().run()

    monkeypatch.setattr(highs_core, "_Highs", Stopped)
    with pytest.raises(ResidualTooLarge, match="negativity LP failed: Iteration limit reached"):
        decompose_quasimixture(pr_box(), mode=MIN_NEGATIVITY)


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(1, 5),
    extra=st.integers(1, 8),
    rank=st.integers(1, 5),
    planted=st.integers(0, 4),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_independent_columns_match_the_greedy_oracle_on_wide_matrices(rows, extra, rank, planted, seed):
    """The binary64 column selection keeps the columns of one rank test per
    column on wide matrices of any rank with planted dependencies (zero
    columns and copies or sums of earlier columns). It makes one batched rank
    call per block of 2 x rows columns, and once it holds as many columns as
    there are rows it makes no more."""
    rng = np.random.default_rng(seed)
    cols = rows + extra
    matrix = rng.standard_normal((rows, min(rank, rows))) @ rng.standard_normal((min(rank, rows), cols))
    for j in rng.choice(cols, size=min(planted, cols), replace=False):
        matrix[:, j] = matrix[:, rng.integers(0, j, size=2)].sum(axis=1) if j else 0
    want = _greedy_columns(matrix, False)
    with mock.patch.object(np.linalg, "matrix_rank", wraps=np.linalg.matrix_rank) as rank_test:
        got = decompose._independent_columns(matrix)
    assert got == want
    scanned = got[-1] + 1 if len(got) == rows else cols
    assert rank_test.call_count == math.ceil(scanned / (2 * rows))



def test_independent_columns_hold_one_block_at_a_time():
    """A rank-deficient binary64 matrix never reaches full row rank, so every
    column is scanned; the scan's peak memory is a block's, a small fraction
    of the matrix, and its picks are the greedy oracle's."""
    rng = np.random.default_rng(5)
    matrix = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 8000))
    tracemalloc.start()
    got = decompose._independent_columns(matrix)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert got == (0, 1) == _greedy_columns(matrix[:, :50], False)
    assert peak < matrix.nbytes // 10


def test_exact_pipeline_does_no_fraction_arithmetic(monkeypatch):
    """On exact m = 3 and m = 4 channels the channel's construction, the NS
    check, the min-norm decomposition, its coefficient sum, negativity and
    least coefficient, build_realization, verify_realization, the
    certificate's encoding and verify_certificate work on integer
    numerators: with Fraction's multiplication, addition and truth test
    patched to record each call, none is made (the frames' data are built
    before patching); the truth test is what a nonzero scan of a Fraction
    array calls. Past the construction, which derives the body's integer
    form, no Fraction matrix is converted to integers either, the decoding
    of both files by verify_certificate included. Fraction constructions
    are counted too: besides the NS report's one residual per wing, as many
    are built at m = 4 as at m = 3, so none is built per entry of the body,
    the mixture, xi or a file."""
    def spy(owner, name):
        original = getattr(owner, name)
        return lambda *args: calls.append(name) or original(*args)

    built = {}
    for m in (3, 4):
        rng = np.random.default_rng(5)
        body = sum(
            w * reduce(np.kron, [random_stochastic_rational(rng, 2, 2, grain=12) for _ in range(m)])
            for w in (F(1, 3), F(2, 3))
        )
        warm = _binary_channel(body)
        build_realization(warm, decompose_quasimixture(warm))  # builds the frames' data
        calls, new = [], []
        construct = Fraction.__new__
        with monkeypatch.context() as patched:
            for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__bool__"):
                patched.setattr(Fraction, name, spy(Fraction, name))
            patched.setattr(Fraction, "__new__", staticmethod(
                lambda cls, *args, **kwargs: new.append(cls) or construct(cls, *args, **kwargs)))
            assert F(1, 2) * F(1, 3) + 1 == F(7, 6) and calls == ["__mul__", "__add__"]
            calls.clear()
            new.clear()
            chan = _binary_channel(body)
            for module in (procs, decompose, check):
                patched.setattr(module, "_to_ints", spy(module, "_to_ints"))
            report = check_nonsignalling(chan)
            qm = decompose_quasimixture(chan, ns_report=report)
            total = qm.coefficient_sum
            least, negative = qm.min_coefficient(), negativity(qm)
            real = build_realization(chan, qm)
            residual = verify_realization(chan, real)
            obj = channel_to_json(chan)
            cert = certificate_to_json(chan, channel_digest(obj), report, qm, real, residual, 0)
            verified = verify_certificate(json.loads(json.dumps(cert)), obj)
        assert calls == []
        built[m] = len(new) - len(report.checks)
        assert report.max_residual == qm.residual == residual == 0
        assert total == 1
        assert verified[0] and verified[1] == 0
        assert least == min(c for c, _ in qm.terms)
        assert negative == sum(max(-c, 0) for c, _ in qm.terms)
    assert built[3] == built[4]


def test_min_negativity_matches_full_row_oracle_on_bb84():
    """The hybrid classical/qubit channel, whose least negativity is 1; its
    coefficients are the ``milp`` route's bit for bit."""
    chan = assemblage_to_channel(bb84_assemblage())
    _assert_min_negativity_matches_oracle(chan)
    assert abs(negativity(decompose_quasimixture(chan, mode=MIN_NEGATIVITY)) - 1) <= 1e-9
    frames = default_frames(chan)
    assert np.array_equal(decompose._min_negativity_coefficients(chan, frames),
                          milp_lp_oracle(chan, frames))


@pytest.mark.parametrize("build", [
    lambda: _binary_channel(_local_box(np.random.default_rng(19), 4)),
    lambda: assemblage_to_channel(bb84_assemblage()),
], ids=["binary-m4", "bb84"])
def test_min_negativity_lp_has_one_row_per_unit_of_rank(build, monkeypatch):
    """The equality rows are the products of each wing's independent frame
    rows: 3^4 = 81 at binary m = 4, where the full product frame has 4^4."""
    chan = build()
    shapes = []

    class Spy(highs_core._Highs):
        def passModel(self, *model):
            shapes.append((model[1], model[0]))  # (rows, columns)
            return super().passModel(*model)

    # decompose reaches the solver class through the module when it solves
    monkeypatch.setattr(highs_core, "_Highs", Spy)
    decompose_quasimixture(chan, mode=MIN_NEGATIVITY)
    frames = default_frames(chan)
    ranks = [np.linalg.matrix_rank(f.operands(binary64=True)[0]) for f in frames]
    assert shapes == [(math.prod(ranks), 2 * math.prod(map(len, frames)))]
    if chan.m == 4:
        assert shapes == [(81, 512)]


def test_min_negativity_builds_no_dense_lp_system():
    """One binary m = 5 min-negativity decomposition, its LP system built
    afresh, peaks under 4 MiB of traced allocations; the dense 3^5 x 2 * 4^5
    equality matrix alone would take 3.8 MiB."""
    chan = _binary_channel(gen.common_cause(np.random.default_rng(7), 5, exact=False).matrix)
    decompose._lp_matrices.cache_clear()
    tracemalloc.start()
    try:
        decompose_quasimixture(chan, mode=MIN_NEGATIVITY)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("mode", [MIN_NORM, MIN_NEGATIVITY])
def test_frames_missing_the_body_are_rejected(mode):
    """Frames of the two constant maps span only input-blind channels, which
    miss the PR box; the full-body residual check rejects the result."""
    det = deterministic_frame(BIT, BIT)
    constant = WingFrame(BIT, BIT, (det[0], det[3]))
    with pytest.raises(ResidualTooLarge, match="reconstruction residual"):
        decompose_quasimixture(pr_box(), mode=mode, frames=(constant, constant))


def test_decompose_rejects_signalling():
    with pytest.raises(NotNonSignalling, match="single-wing residual 1/2 exceeds tolerance 0"):
        decompose_quasimixture(swap_channel())


def test_pr_realization_exact_roundtrip():
    chan = pr_box()
    qm = decompose_quasimixture(chan)
    real = build_realization(chan, qm)
    frames = default_frames(chan)
    assert [a.vdim for a in real.ancilla_types] == [len(f) for f in frames]
    residual = verify_realization(chan, real)
    assert residual == 0
    # xi is the coefficient tensor, a quasi-distribution: one nonzero entry
    # per term, some of them negative
    xi_entries = list(real.xi.matrix[:, 0])
    assert len(xi_entries) == len(frames[0]) * len(frames[1])
    assert sum(x != 0 for x in xi_entries) == len(qm.terms)
    assert min(xi_entries) < 0
    assert sum(xi_entries) == 1
    # every eta is a valid instrument and discard preserving by construction
    for eta in real.etas:
        assert hybrid_valid(eta)


@pytest.mark.parametrize("mode", [MIN_NORM, MIN_NEGATIVITY])  # exact, then float
def test_coefficients_off_one_are_rejected(mode):
    chan = pr_box()
    qm = decompose_quasimixture(chan, mode=mode)
    doubled = replace(qm, tensor=2 * qm.coefficients)
    with pytest.raises(ResidualTooLarge, match="coefficients sum to"):
        build_realization(chan, doubled)


def two_member_frames():
    half = WingFrame(BIT, BIT, deterministic_frame(BIT, BIT)[:2])
    return half, half


def test_frames_smaller_than_the_coefficients_fail_build_realization():
    qm = decompose_quasimixture(pr_box())
    with pytest.raises(SignatureMismatch, match=r"shape \(4, 4\) on frames of sizes \(2, 2\)"):
        build_realization(pr_box(), qm, two_member_frames())


def test_a_term_outside_its_frame_fails_reconstruction_residual():
    qm = decompose_quasimixture(pr_box())
    with pytest.raises(SignatureMismatch, match="outside frames of sizes"):
        reconstruction_residual(pr_box(), two_member_frames(), qm.terms)
    with pytest.raises(SignatureMismatch, match="outside frames of sizes"):
        reconstruction_residual(pr_box(), default_frames(pr_box()), [(1, (0, -1))])


def test_realization_ancillas_are_branded():
    chan = pr_box()
    real = build_realization(chan, decompose_quasimixture(chan))
    for i, (anc, frame) in enumerate(zip(real.ancilla_types, default_frames(chan)), start=1):
        assert anc.kind == "extension"
        assert anc.brand == (real.channel_id, i)
        assert anc.vdim == len(frame)
    # brands never collide with base ids
    assert all(a.id not in ("I", "C2", "Q2") for a in real.ancilla_types)


def test_tampered_xi_fails_verification():
    chan = pr_box()
    real = build_realization(chan, decompose_quasimixture(chan))
    entries = real.xi.matrix.copy()
    entries[0, 0] = entries[0, 0] + F(1, 1000)
    tampered = replace(real, xi=LinearProcess(real.xi.inputs, real.xi.outputs, entries))
    residual = verify_realization(chan, tampered)
    assert residual >= F(1, 10000)


def test_verify_signature_mismatch():
    chan = pr_box()
    real = build_realization(chan, decompose_quasimixture(chan))
    trit = classical(3)
    ident = process(np.eye(3, dtype=int), sig(trit), sig(trit))
    other = product_channel(STOCH, [ident, ident])
    with pytest.raises(SignatureMismatch):
        verify_realization(other, real)


def test_verify_rejects_etas_on_the_wrong_ancillas():
    """The ancillas are xi's output wires, so eta i must read xi's ancilla i:
    swapped etas, or an xi on another channel's brands, do not verify."""
    chan = pr_box()
    real = build_realization(chan, decompose_quasimixture(chan))
    swapped = replace(real, etas=real.etas[::-1])
    assert swapped.etas[0].inputs[1] == real.ancilla_types[1]
    foreign = tuple(extension("other", i, a.vdim) for i, a in enumerate(real.ancilla_types, 1))
    rebranded = replace(real, xi=LinearProcess(EMPTY, sig(*foreign), real.xi.matrix))
    assert rebranded.channel_id == "other"
    for wrong in (swapped, rebranded):
        with pytest.raises(SignatureMismatch, match="eta 1"):
            verify_realization(chan, wrong)


def test_verify_rejects_coefficients_off_the_carrier():
    """xi must be a state on the ancillas the etas read."""
    chan = pr_box()
    real = build_realization(chan, decompose_quasimixture(chan))
    k = real.xi.shape[0]
    short = LinearProcess(EMPTY, sig(classical(k - 1)), real.xi.matrix[:-1])
    for xi in (short, process(real.xi.matrix.T, sig(*real.ancilla_types), EMPTY)):
        with pytest.raises(SignatureMismatch, match="xi"):
            verify_realization(chan, replace(real, xi=xi))


def test_classical_cc_roundtrip_exact():
    rng = np.random.default_rng(11)
    for dims in [(2, 2), (3, 2), (3, 3)]:
        anc = classical(2)
        shared = state(list(random_stochastic_rational(rng, 4, 1)[:, 0]),
                       sig(anc, anc))
        locals_ = [
            process(
                random_stochastic_rational(rng, d, d * 2),
                sig(classical(d), anc), sig(classical(d)),
            )
            for d in dims
        ]
        chan = assemble_common_cause(shared, locals_, STOCH)
        qm = decompose_quasimixture(chan)
        assert qm.residual == 0 and qm.coefficient_sum == 1
        real = build_realization(chan, qm)
        assert verify_realization(chan, real) == 0


def test_qubit_cc_roundtrip_float():
    rng = np.random.default_rng(13)
    for _ in range(3):
        shared = state(random_density_coords(rng, (2, 2)), sig(QUBIT, QUBIT),
                       exact=False)
        locals_ = [
            process(random_cptp_transfer(rng, (2, 2), (2,)),
                    sig(QUBIT, QUBIT), sig(QUBIT))
            for _ in range(2)
        ]
        chan = assemble_common_cause(shared, locals_, QUANT)
        qm = decompose_quasimixture(chan)
        assert abs(qm.coefficient_sum - 1) <= 1e-9
        assert qm.residual <= 1e-9
        real = build_realization(chan, qm)
        assert verify_realization(chan, real) <= 1e-9
        rebuilt = check_nonsignalling(chan)
        assert rebuilt.verdict


def test_tripartite_binary_roundtrip_exact():
    rng = np.random.default_rng(17)
    anc = classical(2)
    shared = state(list(random_stochastic_rational(rng, 8, 1)[:, 0]),
                   sig(anc, anc, anc))
    locals_ = [
        process(random_stochastic_rational(rng, 2, 4), sig(BIT, anc), sig(BIT))
        for _ in range(3)
    ]
    chan = assemble_common_cause(shared, locals_, STOCH)
    qm = decompose_quasimixture(chan)
    real = build_realization(chan, qm)
    assert verify_realization(chan, real) == 0


def random_channel(rng, w_in, w_out, exact):
    """A random valid channel matrix w_in -> w_out: column-stochastic on
    classical wires, a random Stinespring transfer between qubits."""
    if w_in.kind == "quantum":
        return random_cptp_transfer(rng, (w_in.hilbert_dim,), (w_out.hilbert_dim,))
    stochastic = random_stochastic_rational if exact else random_stochastic_float
    return stochastic(rng, w_out.vdim, w_in.vdim)


def draw_wings(m, dims, qubits, exact):
    """Classical wings of the drawn dims, or (qubit, qubit) where drawn in
    binary64 mode; the theory that holds them."""
    wings = [
        (QUBIT, QUBIT) if qubit and not exact else (classical(a), classical(b))
        for (a, b), qubit in zip(dims[:m], qubits)
    ]
    return wings, QUANT if (QUBIT, QUBIT) in wings else STOCH


WING_DIMS = st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=3, max_size=3)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 3),
    carriers=st.lists(st.integers(1, 3), min_size=3, max_size=3),
    dims=WING_DIMS,
    qubits=st.lists(st.booleans(), min_size=3, max_size=3),
    exact=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_recontraction_matches_dense_oracle(m, carriers, dims, qubits, exact, seed):
    """The Tucker recontraction against the dense common-cause wiring of a
    random, non-diagonal xi with carrier k_i on ancilla i, over random
    controlled channels on classical or qubit wings: exactly 0 in rational
    mode, within 1e-12 in binary64."""
    wings, theory = draw_wings(m, dims, qubits, exact)
    carriers = carriers[:m]
    d_in, d_out = (math.prod(w.vdim for w in side) for side in zip(*wings))
    assume(math.prod(carriers) * d_in * d_out <= 2 ** 12)
    rng = np.random.default_rng(seed)

    ancillas = tuple(extension("rand", i + 1, k) for i, k in enumerate(carriers))
    etas = tuple(
        LinearProcess(
            sig(w_in, anc), sig(w_out),
            np.stack([random_channel(rng, w_in, w_out, exact) for _ in range(anc.vdim)], -1)
            .reshape(w_out.vdim, -1),
        )
        for (w_in, w_out), anc in zip(wings, ancillas)
    )
    weights = (random_stochastic_rational if exact else random_stochastic_float)(
        rng, math.prod(carriers), 1
    )
    xi = LinearProcess(EMPTY, sig(*ancillas), weights)
    real = CommonCauseRealization(xi, etas)
    oracle = assemble_common_cause(xi, etas, theory)
    residual = verify_realization(oracle, real)
    if exact:
        assert oracle.body.arithmetic == "rational"
        assert residual == 0
    else:
        assert residual <= 1e-12


SLICES = ("duplicate", "permuted", "distinct")


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 3),
    k=st.integers(1, 4),
    dims=WING_DIMS,
    qubits=st.lists(st.booleans(), min_size=3, max_size=3),
    slices=st.lists(st.sampled_from(SLICES), min_size=3, max_size=3),
    exact=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_product_form_recontraction_matches_the_shared_k_oracle(
    m, k, dims, qubits, slices, exact, seed
):
    """One k-term mixture over random frames, against a random valid body,
    in product form and in the diagonal form of the shared-k oracle: equal
    residuals on rational bodies, within 1e-12 in binary64. Wing i's slices
    of the oracle's eta_i (term j's member) repeat members ("duplicate"),
    take each member once in a shuffled order ("permuted"), or once in
    order ("distinct")."""
    wings, theory = draw_wings(m, dims, qubits, exact)
    d_in, d_out = (math.prod(w.vdim for w in side) for side in zip(*wings))
    assume(k ** m * d_in * d_out <= 2 ** 12)
    rng = np.random.default_rng(seed)

    frames, columns = [], []
    for (w_in, w_out), pattern in zip(wings, slices):
        n = int(rng.integers(1, k + 1)) if pattern == "duplicate" else k
        frames.append(WingFrame(w_in, w_out, tuple(
            LinearProcess(sig(w_in), sig(w_out), random_channel(rng, w_in, w_out, exact))
            for _ in range(n)
        )))
        columns.append({
            "duplicate": rng.integers(0, n, size=k),
            "permuted": rng.permutation(k),
            "distinct": np.arange(k),
        }[pattern])
    weights = [F(int(rng.integers(-6, 7)), int(rng.integers(1, 8))) for _ in range(k)]
    weights[0] += 1 - sum(weights)
    terms = tuple(
        (c if exact else float(c), tuple(int(col[j]) for col in columns))
        for j, c in enumerate(weights)
    )
    if exact:
        body = random_stochastic_rational(rng, d_out, d_in)
    else:
        body = reduce(np.kron, [random_channel(rng, *w, exact) for w in wings])
    in_sig, out_sig = (sig(*side) for side in zip(*wings))
    chan = MultipartiteChannel(tuple(wings), LinearProcess(in_sig, out_sig, body), theory)
    core = np.zeros(tuple(len(f) for f in frames), dtype=object if exact else float)
    for c, idx in terms:
        core[idx] += c
    qm = QuasiMixture(core, None, MIN_NORM)

    want = verify_diagonal(chan, diagonal_realization(chan, qm, frames))
    got = (
        reconstruction_residual(chan, frames, terms),
        verify_realization(chan, build_realization(chan, qm, frames)),
    )
    if exact:
        assert got == (want, want)
    else:
        assert max(abs(g - want) for g in got) <= 1e-12


@pytest.mark.parametrize("source", ["pr"] + [f"gen-m{m}-s{s}" for m in (2, 3) for s in range(6)])
def test_product_form_and_diagonal_realizations_rebuild_the_body(source):
    """Rational PR box and generated common causes: the product-form
    realization recontracts with residual exactly 0, and wiring its xi into
    its etas gives the body entry for entry, as does the diagonal oracle's."""
    if source == "pr":
        chan = pr_box()
    else:
        m, s = (int(part[1:]) for part in source.split("-")[1:])
        g = gen.common_cause(np.random.default_rng(s), m, exact=True)
        wires = sig(*[BIT] * m)
        chan = MultipartiteChannel(((BIT, BIT),) * m, LinearProcess(wires, wires, g.matrix), STOCH)
    qm = decompose_quasimixture(chan)
    real = build_realization(chan, qm)
    assert verify_realization(chan, real) == 0
    oracle = diagonal_realization(chan, qm)
    for shared, etas in ((real.xi, real.etas), (oracle.xi, oracle.etas)):
        rebuilt = assemble_common_cause(shared, etas, STOCH).body.matrix
        assert rebuilt.dtype == object
        assert np.array_equal(rebuilt, chan.body.matrix)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 3),
    carriers=st.lists(st.integers(1, 4), min_size=3, max_size=3),
    exact=st.booleans(),
    data=st.data(),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_deferred_xi_matches_dense_oracle(m, carriers, exact, data, seed):
    """xi beside an input and routed through a wire shuffle, as in the
    recomposition diagram: its arithmetic and signatures come without a
    dense build, and the one build its matrix takes equals the dense product
    in value and dtype, and in rational mode in each entry's str."""
    rng = np.random.default_rng(seed)
    builds = []
    unbuilt = LinearProcess.__getattr__

    def counted(self, name):
        builds.append(name)
        return unbuilt(self, name)

    ancillas = tuple(extension("rand", i + 1, k) for i, k in enumerate(carriers[:m]))
    weights = [F(int(rng.integers(-6, 7)), int(rng.integers(1, 8)))
               for _ in range(math.prod(carriers[:m]))]
    weights[0] += 1 - sum(weights)  # a quasi-distribution
    entries = np.array(weights if exact else [float(w) for w in weights],
                       dtype=object if exact else float)
    xi = LinearProcess(EMPTY, sig(*ancillas), entries.reshape(-1, 1))
    beside = compose_par(identity(BIT), xi)
    order = data.draw(st.permutations(range(m + 1)))
    route = permutation(beside.outputs, order)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LinearProcess, "__getattr__", counted)
        routed = compose_seq(beside, route)
        assert routed.arithmetic == xi.arithmetic
        assert routed.inputs.wires == (BIT,) and routed.outputs == route.outputs
        assert builds == []
        dense = routed.matrix
        assert routed.matrix is dense  # built once, then a plain attribute
        assert builds == ["matrix"]
    oracle = fraction_compose_seq(beside.matrix, route.matrix)
    assert dense.dtype == oracle.dtype
    assert np.array_equal(dense, oracle)
    if exact:
        assert [str(x) for x in dense.flat] == [str(x) for x in oracle.flat]
