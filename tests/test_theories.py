"""Base theories: basis convention, validity predicates, discard, frames."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasicause import (
    QUANT,
    QUANTUM,
    STOCH,
    classical,
    compose_par,
    compose_seq,
    convex_mix,
    process,
    quantum,
    sig,
    state,
)
from quasicause import check, theories
from quasicause.check import choi_of_transfer, vec_basis_matrix
from quasicause.errors import UnknownType, WrongKind
from quasicause.theories import (
    discard_effect,
    embed_stochastic,
    hermitian_basis,
    hybrid_valid,
    instrument_problem,
    quant_valid,
    stoch_valid,
    transfer_from_kraus,
)

F = Fraction
BIT = classical(2)
QUBIT = quantum(2)


from tests.helpers import (
    hybrid_valid_oracle,
    instrument_problem_oracle,
    random_cptp_transfer,
    random_stochastic_float,
    random_stochastic_rational,
)


def test_hermitian_basis_orthonormal():
    for d in (2, 3, 4):
        basis = hermitian_basis(d)
        assert len(basis) == d * d
        assert np.abs(basis[0] - np.eye(d) / math.sqrt(d)).max() < 1e-12
        for a, ba in enumerate(basis):
            assert np.abs(ba - ba.conj().T).max() < 1e-12
            if a > 0:
                assert abs(np.trace(ba)) < 1e-12
            for b, bb in enumerate(basis):
                want = 1.0 if a == b else 0.0
                assert abs(np.trace(ba.conj().T @ bb) - want) < 1e-12


def test_qubit_basis_ordering_is_pauli():
    basis = hermitian_basis(2)
    s = math.sqrt(2)
    assert np.abs(basis[1] * s - np.array([[0, 1], [1, 0]])).max() < 1e-12
    assert np.abs(basis[2] * s - np.array([[0, -1j], [1j, 0]])).max() < 1e-12
    assert np.abs(basis[3] * s - np.array([[1, 0], [0, -1]])).max() < 1e-12


def test_stoch_valid():
    ok = process([[F(1, 2), F(1, 3)], [F(1, 2), F(2, 3)]], sig(BIT), sig(BIT))
    assert stoch_valid(ok)
    deterministic = process([[1, 1], [0, 0]], sig(BIT), sig(BIT))
    assert stoch_valid(deterministic)
    bad = process([[2, -1], [-1, 2]], sig(BIT), sig(BIT))
    assert not stoch_valid(bad)
    with pytest.raises(WrongKind):
        stoch_valid(process(np.eye(4), sig(QUBIT), sig(QUBIT)))


def test_quant_valid_identity_and_depolarizing():
    ident = process(np.eye(4), sig(QUBIT), sig(QUBIT))
    assert quant_valid(ident)
    depol = np.zeros((4, 4))
    depol[0, 0] = 1.0
    assert quant_valid(process(depol, sig(QUBIT), sig(QUBIT)))


def test_transpose_map_not_cp():
    transpose = process(np.diag([1.0, 1.0, -1.0, 1.0]), sig(QUBIT), sig(QUBIT))
    assert not quant_valid(transpose)
    # Oracle: its Choi matrix is the swap operator, eigenvalues +-1.
    choi = choi_of_transfer(np.diag([1.0, 1.0, -1.0, 1.0]), (2,), (2,))
    eig = np.linalg.eigvalsh(choi)
    assert eig.min() < -0.9


def test_quant_valid_stinespring_samples():
    rng = np.random.default_rng(21)
    for _ in range(10):
        t = random_cptp_transfer(rng, (2,), (2,))
        assert quant_valid(process(t, sig(QUBIT), sig(QUBIT)))


def test_stinespring_default_environment_fits_more_inputs_than_outputs():
    # two qubits in, nothing out: d_in = 4 > 2 * d_out, the case env = 2 missed
    t = random_cptp_transfer(np.random.default_rng(22), (2, 2), ())
    assert quant_valid(process(t, sig(QUBIT, QUBIT), sig()))
    discard = discard_effect(sig(QUBIT, QUBIT)).matrix.astype(float)
    assert np.abs(t - discard).max() < 1e-10


def test_stochastic_embedding_is_cptp():
    rng = np.random.default_rng(31)
    m = rng.random((2, 2))
    m /= m.sum(axis=0)
    t = embed_stochastic(m, 2, 2)
    assert quant_valid(process(t, sig(QUBIT), sig(QUBIT)))


def test_discard_rows():
    assert list(STOCH.discard(classical(3)).matrix[0]) == [1, 1, 1]
    qdis = QUANT.discard(QUBIT)
    assert np.abs(qdis.matrix[0] - np.array([math.sqrt(2), 0, 0, 0])).max() < 1e-12
    composite = discard_effect(sig(BIT, BIT))
    both = compose_par(STOCH.discard(BIT), STOCH.discard(BIT))
    assert (composite.matrix == both.matrix).all()


def test_measurement_channel_hybrid_valid():
    # measure a qubit in the computational basis -> classical bit
    k0 = np.array([[1, 0], [0, 0]], dtype=complex)
    k1 = np.array([[0, 0], [0, 1]], dtype=complex)
    rows = []
    basis = hermitian_basis(2)
    for a, proj in enumerate((k0, k1)):
        rows.append([np.trace(proj @ b).real for b in basis])
    m = np.array(rows)
    p = process(m, sig(QUBIT), sig(BIT))
    assert hybrid_valid(p)
    assert QUANT.valid(p)


def test_controlled_cptp_hybrid_valid():
    rng = np.random.default_rng(41)
    t0 = random_cptp_transfer(rng, (2,), (2,))
    t1 = random_cptp_transfer(rng, (2,), (2,))
    # control bit picks which channel acts; control is re-emitted
    blocks = np.zeros((8, 8))
    blocks[0:4, 0:4] = t0
    blocks[4:8, 4:8] = t1
    p = process(blocks, sig(BIT, QUBIT), sig(BIT, QUBIT))
    assert hybrid_valid(p)
    # one branch replaced by the transpose map must fail
    blocks_bad = blocks.copy()
    blocks_bad[4:8, 4:8] = np.diag([1.0, 1.0, -1.0, 1.0])
    assert not hybrid_valid(process(blocks_bad, sig(BIT, QUBIT), sig(BIT, QUBIT)))


def test_frames_span_and_pairing():
    for theory, t in ((STOCH, classical(2)), (STOCH, classical(3)), (QUANT, QUBIT)):
        states = theory.state_frame(t)
        effects = theory.effect_frame(t)
        smat = np.array([s.matrix[:, 0].astype(float) for s in states])
        emat = np.array([e.matrix[0].astype(float) for e in effects])
        assert np.linalg.matrix_rank(smat) == t.vdim
        assert np.linalg.matrix_rank(emat) == t.vdim
        pairing = emat @ smat.T
        assert abs(np.linalg.det(pairing)) > 1e-12
        dis = theory.discard(t).to_float()
        for s in states:
            val = compose_seq(s, dis).as_scalar()
            assert abs(val - 1) < 1e-12
            for e in effects:
                prob = compose_seq(s, e.to_float()).as_scalar()
                assert -1e-12 <= prob <= 1 + 1e-12


def _entries(frame):
    return [(p.inputs, p.outputs, p.matrix.dtype, p.matrix.tolist()) for p in frame]


@pytest.mark.parametrize(
    "theory, t",
    [(STOCH, BIT), (QUANT, BIT), (QUANT, QUBIT)],
    ids=["stoch-bit", "quant-bit", "quant-qubit"],
)
@pytest.mark.parametrize("kind", ["state", "effect"])
def test_frames_are_built_once_and_match_a_fresh_build(theory, t, kind):
    frame = getattr(theory, f"{kind}_frame")
    fresh = getattr(theories, f"_{kind}_frame").__wrapped__(theory, t)
    first = frame(t)
    assert isinstance(first, tuple)
    assert _entries(first) == _entries(fresh)
    assert frame(t) is first


@pytest.mark.parametrize("kind", ["state", "effect"])
def test_frames_of_a_refused_type_raise_on_every_call(kind):
    for _ in range(2):
        with pytest.raises(UnknownType):
            getattr(STOCH, f"{kind}_frame")(QUBIT)


@pytest.mark.parametrize(
    "theory, t",
    [(STOCH, BIT), (QUANT, BIT), (QUANT, QUBIT)],
    ids=["stoch-bit", "quant-bit", "quant-qubit"],
)
def test_reference_states_and_discards_are_built_once(theory, t):
    for kind, fresh in (
        ("reference_state", type(theory).reference_state.__wrapped__(theory, t)),
        ("discard", type(theory).discard.__wrapped__(theory, t)),
    ):
        first = getattr(theory, kind)(t)
        assert _entries([first]) == _entries([fresh])
        assert getattr(theory, kind)(t) is first


def test_instrument_problem_builds_each_discard_once():
    """The discard rows that instrument_problem reads, one per quantum wire
    group, are built once per group, equal the library's discard effect in
    binary64 bit for bit and are read-only. A classical process needs none."""
    check._discard_row.cache_clear()
    qubit_channel = process(np.eye(4), sig(QUBIT), sig(QUBIT), exact=False)
    bits = process(random_stochastic_float(np.random.default_rng(3), 2, 2), sig(BIT), sig(BIT))
    for _ in range(3):
        assert instrument_problem(qubit_channel) is None
        assert instrument_problem(bits) is None
    assert check._discard_row.cache_info().misses == 1
    for s in (sig(), sig(QUBIT), sig(QUBIT, quantum(3))):
        wires = tuple((w.vdim, w.hilbert_dim) for w in s)
        row = check._discard_row(wires)
        assert row is check._discard_row(wires)
        assert not row.flags.writeable
        assert row.dtype == np.float64
        assert np.array_equal(row, discard_effect(s).matrix[0].astype(float))


@pytest.mark.parametrize("kind", ["reference_state", "discard"])
def test_reference_states_and_discards_of_a_refused_type_raise_on_every_call(kind):
    for _ in range(2):
        with pytest.raises(UnknownType):
            getattr(STOCH, kind)(QUBIT)


def test_frame_states_are_valid():
    for theory, t in ((STOCH, classical(3)), (QUANT, QUBIT)):
        for s in theory.state_frame(t):
            assert theory.valid(s)


def test_validity_closed_under_composition():
    rng = np.random.default_rng(51)
    for _ in range(10):
        t1 = random_cptp_transfer(rng, (2,), (2,))
        t2 = random_cptp_transfer(rng, (2,), (2,))
        p1 = process(t1, sig(QUBIT), sig(QUBIT))
        p2 = process(t2, sig(QUBIT), sig(QUBIT))
        assert QUANT.valid(compose_seq(p1, p2))
        assert QUANT.valid(compose_par(p1, p2))
        assert QUANT.valid(convex_mix(rng.random(), p1, p2))


def test_choi_vec_basis_roundtrip():
    # independent oracle: apply the transfer to coordinates of |0><0| and
    # compare against direct Kraus action
    rng = np.random.default_rng(61)
    t = random_cptp_transfer(rng, (2,), (2,))
    basis = hermitian_basis(2)
    rho = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]])
    coords = np.array([np.trace(b.conj().T @ rho).real for b in basis])
    out_coords = t @ coords
    rho_out = sum(c * b for c, b in zip(out_coords, basis))
    u = vec_basis_matrix((2,))
    s = u @ t.astype(complex) @ u.conj().T
    rho_out2 = (s @ rho.reshape(4)).reshape(2, 2)
    assert np.abs(rho_out - rho_out2).max() < 1e-10


TRIT = classical(3)
QUBIT_TRANSPOSE = np.diag([1.0, 1.0, -1.0, 1.0])


def _dims(wires):
    return tuple(w.vdim for w in wires)


def _from_blocks(blocks, ins, outs):
    """Process whose (classical out a, classical in x) block is blocks[a, x],
    a transfer matrix from the quantum inputs to the quantum outputs."""
    wires = tuple(outs) + tuple(ins)
    n_out = len(outs)
    groups = [
        [i for i, w in enumerate(wires) if (w.kind == QUANTUM) == q and (i >= n_out) == side]
        for q in (False, True) for side in (False, True)
    ]
    order = [i for group in groups for i in group]
    tensor = blocks.reshape(tuple(wires[i].vdim for i in order))
    matrix = tensor.transpose(np.argsort(order)).reshape(sig(*outs).dim, sig(*ins).dim)
    return process(matrix, sig(*ins), sig(*outs))


def _random_instrument(rng, ins, outs):
    """blocks[a, x] = p(a|x) T_ax with p column-stochastic and every T_ax a
    random channel from the quantum inputs to the quantum outputs."""
    cout = [w for w in outs if w.kind != QUANTUM]
    cin = [w for w in ins if w.kind != QUANTUM]
    qout = tuple(w.hilbert_dim for w in outs if w.kind == QUANTUM)
    qin = tuple(w.hilbert_dim for w in ins if w.kind == QUANTUM)
    n_a, n_x = sig(*cout).dim, sig(*cin).dim
    p = random_stochastic_float(rng, n_a, n_x)
    return np.array([
        [p[a, x] * random_cptp_transfer(rng, qin, qout) for x in range(n_x)]
        for a in range(n_a)
    ]), qin, qout


WIRE_LISTS = st.lists(st.sampled_from([BIT, TRIT, QUBIT]), max_size=2)


@settings(max_examples=150, deadline=None)
@given(
    ins=WIRE_LISTS,
    outs=WIRE_LISTS,
    perturbation=st.sampled_from([None, "transpose", "sum", "entry"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_instrument_kernel_matches_block_oracle(ins, outs, perturbation, seed):
    rng = np.random.default_rng(seed)
    blocks, qin, qout = _random_instrument(rng, ins, outs)
    n_a, n_x = blocks.shape[:2]
    a, x = int(rng.integers(n_a)), int(rng.integers(n_x))
    if perturbation == "transpose" and not (qin and qout):
        perturbation = "sum"  # a positive map that is not CP needs quantum wires on both sides
    if perturbation == "transpose":
        # transpose the first input qubit onto the first output qubit, trace
        # out the other inputs and prepare the other outputs maximally mixed
        mixed = np.zeros(blocks.shape[2] // 4)
        mixed[0] = 1 / math.prod(qout[1:]) ** 0.5
        trace = np.zeros(blocks.shape[3] // 4)
        trace[0] = math.prod(qin[1:]) ** 0.5
        # T_ax[0, 0] = 1 for a channel, so blocks[a, x, 0, 0] is p(a|x)
        blocks[a, x] = blocks[a, x, 0, 0] * np.kron(QUBIT_TRANSPOSE, np.outer(mixed, trace))
    elif perturbation == "sum":
        # feed 1e-6 tr(rho) of the maximally mixed state into block (a, x):
        # still completely positive, no longer trace preserving
        mixed = np.zeros(blocks.shape[2])
        mixed[0] = 1 / math.prod(qout) ** 0.5
        trace = np.zeros(blocks.shape[3])
        trace[0] = math.prod(qin) ** 0.5
        blocks[a, x] += 1e-6 * np.outer(mixed, trace)
    elif perturbation == "entry":
        j = int(rng.integers(blocks[a, x].size))
        if not qin and not qout and n_a > 1:
            blocks[(a + 1) % n_a, x] += blocks[a, x] + 1e-6  # keep the column sum
        blocks[a, x].flat[j] = -1e-6
    p = _from_blocks(blocks, ins, outs)
    verdict = instrument_problem(p) is None
    assert verdict == hybrid_valid_oracle(p)
    assert verdict == QUANT.valid(p)
    if perturbation is None:
        assert verdict
    elif perturbation != "entry" or not (qin or qout):
        assert not verdict


@settings(max_examples=60, deadline=None)
@given(
    ins=st.lists(st.sampled_from([BIT, TRIT]), max_size=2),
    outs=st.lists(st.sampled_from([BIT, TRIT]), max_size=2),
    forgery=st.sampled_from([None, "negative", "sum"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_instrument_kernel_is_exact_on_rational_classical(ins, outs, forgery, seed):
    rng = np.random.default_rng(seed)
    n_out, n_in = sig(*outs).dim, sig(*ins).dim
    m = random_stochastic_rational(rng, n_out, n_in)
    i, j = int(rng.integers(n_out)), int(rng.integers(n_in))
    tiny = F(1, 10**12)
    if forgery == "negative":
        # move entry (i, j) and 1e-12 more to the next row, leaving -1e-12:
        # the column sum is unchanged
        m[(i + 1) % n_out, j] += m[i, j] + tiny
        m[i, j] = -tiny
    elif forgery == "sum":
        m[i, j] += tiny
    p = process(m, sig(*ins), sig(*outs))
    stochastic = all(x >= 0 for x in m.flat) and all(sum(col) == 1 for col in m.T)
    assert (instrument_problem(p) is None) == stochastic
    assert stoch_valid(p) == STOCH.valid(p) == stochastic
    assert stochastic == (forgery is None)


@settings(max_examples=100, deadline=None)
@given(
    ins=st.lists(st.sampled_from([BIT, TRIT]), max_size=2),
    outs=st.lists(st.sampled_from([BIT, TRIT]), max_size=2),
    grain=st.sampled_from([60, 2 ** 40, 2 ** 62]),
    negatives=st.integers(0, 2),
    off=st.integers(-2, 2),
    tol=st.sampled_from([None, F(1, 100), 1e-3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_rational_instrument_test_matches_the_entry_oracle(ins, outs, grain, negatives, off, tol, seed):
    """On rational classical processes, with negative entries and a column
    off by off/n, the test on numerators gives the entry oracle's verdict
    and its message, character for character."""
    rng = np.random.default_rng(seed)
    n_out, n_in = sig(*outs).dim, sig(*ins).dim
    m = random_stochastic_rational(rng, n_out, n_in, grain)
    for _ in range(negatives):
        m[int(rng.integers(n_out)), int(rng.integers(n_in))] = -F(int(rng.integers(1, 5)), int(rng.integers(1, 5)))
    m[int(rng.integers(n_out)), int(rng.integers(n_in))] += F(off, n_out)
    p = process(m, sig(*ins), sig(*outs))
    assert instrument_problem(p, tol) == instrument_problem_oracle(p, tol)


@pytest.mark.parametrize("ins, outs", [
    ((BIT,), (BIT,)),
    ((QUBIT,), (QUBIT,)),
    ((BIT, QUBIT), (QUBIT,)),
    ((QUBIT,), (BIT,)),
])
def test_nan_entry_is_never_valid(ins, outs):
    rng = np.random.default_rng(3)
    blocks, _, _ = _random_instrument(rng, ins, outs)
    p = _from_blocks(blocks, ins, outs)
    assert instrument_problem(p) is None
    matrix = p.matrix.copy()
    matrix[-1, -1] = np.nan
    bad = process(matrix, p.inputs, p.outputs)
    assert instrument_problem(bad) is not None
    assert not hybrid_valid(bad)
