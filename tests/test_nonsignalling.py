"""Non-signalling decision procedure against enumeration oracles."""

import math
from fractions import Fraction
from itertools import groupby, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasicause import QUANT, QUANTUM, STOCH, classical, process, quantum, sig, state
from quasicause.boxes import feedforward_channel, pr_box, product_channel, swap_channel
from quasicause.errors import OutOfRange
from quasicause.nonsignalling import (
    MultipartiteChannel,
    assemble_common_cause,
    bipartition_perm,
    check_nonsignalling,
    discard_outputs,
    proper_subsets,
)
from quasicause.procs import compose_par, identity, max_abs_diff
from tests.helpers import (
    ns_report_oracle,
    random_cptp_transfer,
    random_density_coords,
    random_stochastic_float,
    random_stochastic_rational,
)

F = Fraction
BIT = classical(2)


def brute_force_ns(channel, tol=0):
    """Oracle: enumerate classical input points; for each subset K check the
    marginal over complement outputs is independent of the K inputs."""
    in_dims = tuple(w.vdim for w, _ in channel.wings)
    out_dims = tuple(w.vdim for _, w in channel.wings)
    m = channel.m
    matrix = channel.body.matrix
    for subset in proper_subsets(m):
        keep = [i for i in range(m) if (i + 1) not in subset]
        seen = {}
        for x in product(*[range(d) for d in in_dims]):
            col = 0
            for d, digit in zip(in_dims, x):
                col = col * d + digit
            marg = {}
            for a in product(*[range(d) for d in out_dims]):
                row = 0
                for d, digit in zip(out_dims, a):
                    row = row * d + digit
                key = tuple(a[i] for i in keep)
                marg[key] = marg.get(key, 0) + matrix[row, col]
            ctx = tuple(x[i] for i in keep)
            if ctx in seen:
                ref = seen[ctx]
                for key in marg:
                    if abs(marg[key] - ref[key]) > tol:
                        return False
            else:
                seen[ctx] = marg
    return True


def rational_channel(rng, in_dims, out_dims):
    matrix = random_stochastic_rational(
        rng, int(np.prod(out_dims)), int(np.prod(in_dims))
    )
    wings = tuple(
        (classical(i), classical(o)) for i, o in zip(in_dims, out_dims)
    )
    body = process(
        matrix,
        sig(*[w for w, _ in wings]),
        sig(*[w for _, w in wings]),
    )
    return MultipartiteChannel(wings, body, STOCH)


def test_bipartition_perm_examples():
    assert bipartition_perm(3, (2, 3)) == (2, 3, 1)
    assert bipartition_perm(4, (1, 4)) == (1, 4, 2, 3)
    assert bipartition_perm(3, (1, 2, 3)) == (1, 2, 3)
    with pytest.raises(OutOfRange):
        bipartition_perm(3, (0,))
    with pytest.raises(OutOfRange):
        bipartition_perm(3, (2, 2))


def test_discard_outputs_factorizes_on_products():
    lam1 = process([[F(1, 2), F(1, 3)], [F(1, 2), F(2, 3)]], sig(BIT), sig(BIT))
    lam2 = process([[F(1, 4), F(3, 4)], [F(3, 4), F(1, 4)]], sig(BIT), sig(BIT))
    chan = product_channel(STOCH, [lam1, lam2])
    got = discard_outputs(chan, (1,))
    want = compose_par(STOCH.discard(BIT), identity(sig(BIT)))
    want = process((lam2.matrix @ np.eye(2, dtype=object)), sig(BIT), sig(BIT))
    # discard in wing 1, lam2 on wing 2
    expect = compose_par(STOCH.discard(BIT), lam2)
    assert (got.matrix == expect.matrix).all()


def test_discard_all_outputs_gives_input_discard():
    chan = pr_box()
    got = discard_outputs(chan, (1, 2))
    assert got.outputs.dims == ()
    assert all(x == 1 for x in got.matrix[0])


def test_pr_box_is_nonsignalling():
    report = check_nonsignalling(pr_box())
    assert report.verdict
    assert report.max_residual == 0
    assert len(report.checks) == 2
    # marginal outputs are uniform regardless of the kept input
    for check in report.checks:
        marg = check.marginal.matrix
        assert all(x == F(1, 2) for x in marg.flatten())


def test_swap_and_feedforward_signal():
    for chan in (swap_channel(), feedforward_channel()):
        report = check_nonsignalling(chan)
        assert not report.verdict
        assert report.max_residual >= F(1, 2)
        assert not brute_force_ns(chan)


def test_product_channels_have_zero_residuals():
    rng = np.random.default_rng(5)
    for _ in range(5):
        lam1 = process(random_stochastic_rational(rng, 2, 2), sig(BIT), sig(BIT))
        lam2 = process(random_stochastic_rational(rng, 3, 3),
                       sig(classical(3)), sig(classical(3)))
        chan = product_channel(STOCH, [lam1, lam2])
        report = check_nonsignalling(chan)
        assert report.verdict and report.max_residual == 0


def test_common_cause_channels_are_ns_classical():
    rng = np.random.default_rng(11)
    for _ in range(10):
        anc = classical(3)
        shared_cols = random_stochastic_rational(rng, 9, 1)
        shared = state(list(shared_cols[:, 0]), sig(anc, anc))
        locals_ = [
            process(random_stochastic_rational(rng, 2, 6),
                    sig(BIT, anc), sig(BIT)),
            process(random_stochastic_rational(rng, 2, 6),
                    sig(BIT, anc), sig(BIT)),
        ]
        chan = assemble_common_cause(shared, locals_, STOCH)
        report = check_nonsignalling(chan)
        assert report.verdict and report.max_residual == 0
        assert brute_force_ns(chan)


def test_common_cause_channels_are_ns_quantum():
    rng = np.random.default_rng(13)
    qb = quantum(2)
    for _ in range(5):
        shared = state(random_density_coords(rng, (2, 2)), sig(qb, qb), exact=False)
        locals_ = [
            process(random_cptp_transfer(rng, (2, 2), (2,)), sig(qb, qb), sig(qb)),
            process(random_cptp_transfer(rng, (2, 2), (2,)), sig(qb, qb), sig(qb)),
        ]
        chan = assemble_common_cause(shared, locals_, QUANT)
        report = check_nonsignalling(chan)
        assert report.verdict
        assert report.max_residual <= 1e-9


def test_ns_agrees_with_brute_force_small():
    rng = np.random.default_rng(17)
    agree = 0
    for _ in range(20):
        chan = rational_channel(rng, (2, 2), (2, 2))
        ours = check_nonsignalling(chan).verdict
        oracle = brute_force_ns(chan)
        assert ours == oracle
        agree += 1
    assert agree == 20


def test_marginal_independent_of_plugged_state_when_ns():
    chan = pr_box()
    report = check_nonsignalling(chan)
    assert report.verdict
    # feeding two different normalized states into the discarded wing's input
    # leaves the marginal unchanged
    from quasicause.procs import compose_seq, number

    for subset in ((1,), (2,)):
        discarded = discard_outputs(chan, subset)
        marginals = []
        for probe in (state([1, 0], BIT), state([0, 1], BIT),
                      state([F(1, 3), F(2, 3)], BIT)):
            feed = number(1)
            for label in (1, 2):
                w_in = chan.wings[label - 1][0]
                if label in subset:
                    feed = compose_par(feed, probe)
                else:
                    feed = compose_par(feed, identity(sig(w_in)))
            marginals.append(compose_seq(feed, discarded).matrix)
        assert (marginals[0] == marginals[1]).all()
        assert (marginals[0] == marginals[2]).all()


def test_tripartite_subset_count():
    assert len(proper_subsets(3)) == 6
    rng = np.random.default_rng(23)
    anc = classical(2)
    shared = state(list(random_stochastic_rational(rng, 8, 1)[:, 0]),
                   sig(anc, anc, anc))
    locals_ = [
        process(random_stochastic_rational(rng, 2, 4), sig(BIT, anc), sig(BIT))
        for _ in range(3)
    ]
    chan = assemble_common_cause(shared, locals_, STOCH)
    report = check_nonsignalling(chan)
    assert len(report.checks) == 6
    assert report.verdict and report.max_residual == 0


def random_run_body(rng, wings, exact, joint):
    """Body on a run of wings of one kind: one joint channel (signalling in
    general) or a product of single-wing channels (non-signalling)."""
    if not joint:
        body = np.ones((1, 1), dtype=object if exact else float)
        for wing in wings:
            body = np.kron(body, random_run_body(rng, [wing], exact, True))
        return body
    ins, outs = [w for w, _ in wings], [w for _, w in wings]
    if ins[0].kind == QUANTUM:
        return random_cptp_transfer(
            rng, [w.hilbert_dim for w in ins], [w.hilbert_dim for w in outs]
        )
    stochastic = random_stochastic_rational if exact else random_stochastic_float
    return stochastic(rng, math.prod(w.vdim for w in outs), math.prod(w.vdim for w in ins))


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["classical", "quantum", "hybrid"]),
    quantum_wings=st.lists(st.booleans(), min_size=2, max_size=3),
    dims=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                  min_size=3, max_size=3),
    joints=st.lists(st.booleans(), min_size=3, max_size=3),
    exact=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_ns_contraction_matches_dense_oracle(kind, quantum_wings, dims, joints, exact, seed):
    """The per-wing contraction against the whole-space operator fold, on
    classical (rational or binary64), quantum and hybrid channels, each run
    of same-kind wings either one joint channel or a product: same subsets
    and verdict, and residuals and marginals bit-equal in rational mode,
    within 1e-12 in binary64."""
    rng = np.random.default_rng(seed)
    if kind != "hybrid":
        quantum_wings = [kind == "quantum"] * len(quantum_wings)
    wings = [
        (quantum(2), quantum(2)) if q else (classical(a), classical(b))
        for q, (a, b) in zip(quantum_wings, dims)
    ]
    exact = exact and not any(quantum_wings)
    body = np.ones((1, 1), dtype=object if exact else float)
    start = 0
    for run, (_, kinds) in enumerate(groupby(quantum_wings)):
        n = len(list(kinds))
        run_body = random_run_body(rng, wings[start:start + n], exact, joints[run])
        body, start = np.kron(body, run_body), start + n
    theory = QUANT if any(quantum_wings) else STOCH
    chan = MultipartiteChannel(
        tuple(wings),
        process(body, sig(*[w for w, _ in wings]), sig(*[w for _, w in wings])),
        theory,
    )
    ours, oracle = check_nonsignalling(chan), ns_report_oracle(chan)
    assert [c.subset for c in ours.checks] == [c.subset for c in oracle.checks]
    assert ours.verdict == oracle.verdict
    for got, want in zip(ours.checks, oracle.checks):
        assert got.marginal.inputs == want.marginal.inputs
        assert got.marginal.outputs == want.marginal.outputs
        if exact:
            assert got.marginal.arithmetic == "rational"
            assert got.residual == want.residual
            assert (got.marginal.matrix == want.marginal.matrix).all()
        else:
            assert abs(got.residual - want.residual) <= 1e-12
            assert max_abs_diff(got.marginal, want.marginal) <= 1e-12
