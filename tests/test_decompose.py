"""Quasi-mixture decomposition, realization packaging, and verification."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from quasicause import QUANT, STOCH, classical, extension, process, quantum, sig, state
from quasicause.boxes import pr_box, product_channel, swap_channel
from quasicause.decompose import (
    MIN_NEGATIVITY,
    MIN_NORM,
    CommonCauseRealization,
    WingFrame,
    _arithmetic,
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
from quasicause.procs import LinearProcess, compose_seq, max_abs_diff
from quasicause.theories import discard_effect, hybrid_valid
from tests.helpers import (
    assemble_common_cause,
    dense_xi_oracle,
    random_cptp_transfer,
    random_density_coords,
    random_stochastic_float,
    random_stochastic_rational,
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
    u_in = discard_effect(sig(QUBIT), exact=False)
    u_out = discard_effect(sig(QUBIT), exact=False)
    for member in frame.members:
        assert QUANT.valid(member)
        gap = max_abs_diff(compose_seq(member, u_out), u_in)
        assert gap <= 1e-9


def test_frame_members_are_channels_classical():
    frame = local_channel_frame(STOCH, classical(3), BIT)
    for member in frame.members:
        assert STOCH.valid(member)


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
    assert negativity(qm) > 0.1
    assert abs(qm.coefficient_sum - 1) <= 1e-9
    # invariant under term reordering
    reordered = sorted(qm.terms, key=lambda t: t[1])
    assert sum(max(-c, 0) for c, _ in reordered) == negativity(qm)


def test_decompose_rejects_signalling():
    with pytest.raises(NotNonSignalling):
        decompose_quasimixture(swap_channel())


def test_pr_realization_exact_roundtrip():
    chan = pr_box()
    qm = decompose_quasimixture(chan)
    real = build_realization(chan, qm)
    assert real.carrier_dim == len(qm.terms)
    residual = verify_realization(chan, real)
    assert residual == 0
    # xi is a quasi-distribution: some diagonal weight is negative
    xi_entries = list(real.xi.matrix[:, 0])
    assert min(xi_entries) < 0
    assert sum(xi_entries) == 1
    # every eta is a valid instrument and discard preserving by construction
    for eta in real.etas:
        assert hybrid_valid(eta)


@pytest.mark.parametrize("mode", [MIN_NORM, MIN_NEGATIVITY])  # exact, then float
def test_coefficients_off_one_are_rejected(mode):
    chan = pr_box()
    qm = decompose_quasimixture(chan, mode=mode)
    doubled = replace(qm, terms=tuple((2 * c, idx) for c, idx in qm.terms))
    with pytest.raises(ResidualTooLarge, match="coefficients sum to"):
        build_realization(chan, doubled)


def test_realization_ancillas_are_branded():
    chan = pr_box()
    real = build_realization(chan, decompose_quasimixture(chan))
    for i, anc in enumerate(real.ancilla_types, start=1):
        assert anc.kind == "extension"
        assert anc.brand == (real.channel_id, i)
        assert anc.vdim == real.carrier_dim
    # brands never collide with base ids
    assert all(b.ext_type.id not in ("I", "C2", "Q2") for b in real.brands)


def test_tampered_xi_fails_verification():
    chan = pr_box()
    real = build_realization(chan, decompose_quasimixture(chan))
    coefficients = list(real.coefficients)
    coefficients[0] = coefficients[0] + F(1, 1000)
    tampered = real.__class__(
        channel_id=real.channel_id,
        ancilla_types=real.ancilla_types,
        etas=real.etas,
        brands=real.brands,
        frame=real.frame,
        coefficients=tuple(coefficients),
        term_indices=real.term_indices,
    )
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


def test_verify_rejects_coefficients_off_the_carrier():
    chan = pr_box()
    real = build_realization(chan, decompose_quasimixture(chan))
    short = replace(real, coefficients=real.coefficients[:-1])
    with pytest.raises(SignatureMismatch):
        verify_realization(chan, short)


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


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 3),
    k=st.integers(1, 3),
    dims=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                  min_size=3, max_size=3),
    exact=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_recontraction_matches_dense_oracle(m, k, dims, exact, seed):
    """The shared-index recontraction against the dense common-cause wiring
    of the k^m xi, on random classical common-cause channels: bit-equal in
    rational mode, within 1e-12 in binary64."""
    wings = [(classical(a), classical(b)) for a, b in dims[:m]]
    assume(k ** m * math.prod(w.vdim for w, _ in wings) <= 256)
    rng = np.random.default_rng(seed)
    stochastic = random_stochastic_rational if exact else random_stochastic_float

    ancillas = tuple(extension("rand", i + 1, k) for i in range(m))
    etas = tuple(
        LinearProcess(sig(w_in, anc), sig(w_out),
                      stochastic(rng, w_out.vdim, w_in.vdim * k))
        for (w_in, w_out), anc in zip(wings, ancillas)
    )
    real = CommonCauseRealization(
        channel_id="rand", ancilla_types=ancillas, etas=etas, brands=(),
        frame=(), coefficients=tuple(stochastic(rng, k, 1)[:, 0]),
        term_indices=(),
    )
    oracle = assemble_common_cause(real.xi, etas, STOCH)
    # the same mixture as frames of eta slices, term j on slice j of every wing
    frames = []
    for (w_in, w_out), eta in zip(wings, etas):
        slices = eta.matrix.reshape(w_out.vdim, w_in.vdim, k)
        frames.append(WingFrame(w_in, w_out, tuple(
            LinearProcess(sig(w_in), sig(w_out), slices[:, :, j]) for j in range(k)
        )))
    terms = tuple((c, (j,) * m) for j, c in enumerate(real.coefficients))
    residuals = (verify_realization(oracle, real),
                 reconstruction_residual(oracle, frames, terms))
    if exact:
        assert oracle.body.arithmetic == "rational"
        assert residuals == (0, 0)
    else:
        assert max(residuals) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 3),
    k=st.integers(1, 4),
    exact_coefficients=st.booleans(),
    exact_etas=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_deferred_xi_matches_dense_oracle(m, k, exact_coefficients, exact_etas, seed):
    """xi as the coefficients followed by the copy map: its arithmetic and
    signatures come without a dense build, and the one build its matrix
    takes equals the direct diagonal k^m vector in value, dtype and str."""
    rng = np.random.default_rng(seed)
    builds = []
    unbuilt = LinearProcess.__getattr__

    def counted(self, name):
        builds.append(name)
        return unbuilt(self, name)

    bit = classical(2)
    ancillas = tuple(extension("rand", i + 1, k) for i in range(m))
    stochastic = random_stochastic_rational if exact_etas else random_stochastic_float
    etas = tuple(LinearProcess(sig(bit, a), sig(bit), stochastic(rng, 2, 2 * k)) for a in ancillas)
    weights = [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 8))) for _ in range(k)]
    weights[0] += 1 - sum(weights)  # a quasi-distribution
    coefficients = tuple(weights if exact_coefficients else map(float, weights))
    real = CommonCauseRealization(
        channel_id="rand", ancilla_types=ancillas, etas=etas, brands=(),
        frame=(), coefficients=coefficients, term_indices=(),
    )

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LinearProcess, "__getattr__", counted)
        xi = real.xi
        assert xi.arithmetic == _arithmetic(real)
        assert xi.inputs.wires == () and xi.outputs.wires == ancillas
        assert xi.shape == (k ** m, 1)
        assert builds == []
        dense = xi.matrix
        assert xi.matrix is dense  # built once, then a plain attribute
        assert builds == ["matrix"]
    oracle = dense_xi_oracle(real).matrix
    assert dense.dtype == oracle.dtype
    assert np.array_equal(dense, oracle)
    assert [str(x) for x in dense.flat] == [str(x) for x in oracle.flat]
