"""Assemblage encoding, validation, and realization round trips."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasicause import QUANT
from quasicause.assemblages import (
    Assemblage,
    assemblage_to_channel,
    bb84_assemblage,
    extract_assemblage,
    pr_correlated_assemblage,
    realize_assemblage,
    unsteerable_assemblage,
)
from quasicause.completion import new_theory
from quasicause.decompose import (
    MIN_NEGATIVITY,
    decompose_quasimixture,
    negativity,
    verify_realization,
)
from quasicause.errors import InvalidAssemblage, TypeMismatch
from quasicause.nonsignalling import check_nonsignalling
from quasicause.theories import coords_to_density, density_to_coords

from tests.helpers import (
    oracle_assemblage_channel,
    pr_correlated_table_oracle,
    random_density_coords,
    random_stochastic_float,
    random_stochastic_rational,
    unsteerable_table_oracle,
    validate_assemblage,
)


def test_bb84_is_valid_and_ns():
    asm = bb84_assemblage()
    chan = assemblage_to_channel(asm)
    report = check_nonsignalling(chan)
    assert report.verdict
    assert report.max_residual <= 1e-12


def test_unsteerable_factorizes():
    p = np.array([[0.7, 0.4], [0.3, 0.6]])
    rho = np.array([[1, 0], [0, 0]], dtype=complex)
    asm = unsteerable_assemblage(p, rho)
    chan = assemblage_to_channel(asm)
    assert check_nonsignalling(chan).verdict
    qm = decompose_quasimixture(chan, mode=MIN_NEGATIVITY)
    assert negativity(qm) <= 1e-7


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 3), n_out=st.integers(1, 4),
       n_in=st.integers(1, 4), exact=st.booleans())
def test_fixture_tables_match_the_loop_oracles(seed, d, n_out, n_in, exact):
    """The broadcast fixtures build the element loops' tables bit for bit,
    signed zeros included, from rational or signed binary64 weights."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    p = random_stochastic_rational(rng, n_out, n_in) if exact else rng.normal(size=(n_out, n_in))
    pairs = [(unsteerable_assemblage(p, rho), unsteerable_table_oracle(p, rho))]
    if d == 2:
        pairs.append((pr_correlated_assemblage(rho), pr_correlated_table_oracle(rho)))
    for asm, want in pairs:
        assert asm.table.dtype == want.dtype and asm.table.shape == want.shape
        assert asm.table.tobytes() == want.tobytes()


def test_normalization_violation_rejected():
    asm = bb84_assemblage()
    table = np.array(asm.table)
    table[0, 0] *= 2.0
    bad = Assemblage((2,), (2,), 2, table)
    with pytest.raises(InvalidAssemblage):
        assemblage_to_channel(bad)


def test_signalling_assemblage_rejected():
    # marginal of the trusted state depends on the setting
    z0 = density_to_coords(np.array([[1, 0], [0, 0]], dtype=complex))
    z1 = density_to_coords(np.array([[0, 0], [0, 1]], dtype=complex))
    table = np.zeros((2, 2, 4))
    table[0, 0] = z0
    table[1, 0] = 0 * z0
    table[0, 1] = 0.5 * z1
    table[1, 1] = 0.5 * z1
    bad = Assemblage((2,), (2,), 2, table)
    with pytest.raises(InvalidAssemblage) as err:
        assemblage_to_channel(bad)
    assert "signalling" in str(err.value)


def test_negative_element_rejected():
    coords = density_to_coords(np.diag([0.75, -0.25]).astype(complex))
    table = np.zeros((2, 2, 4))
    for x in range(2):
        table[0, x] = coords
        table[1, x] = density_to_coords(np.diag([0.25, 0.25]).astype(complex))
    with pytest.raises(InvalidAssemblage) as err:
        assemblage_to_channel(Assemblage((2,), (2,), 2, table))
    assert "eigenvalue" in str(err.value)


def test_channel_is_validated_at_the_callers_tolerance():
    # weight moved between the two outcomes of setting 0: the traces and the
    # no-signalling marginals are kept, and sigma_{0|0} has eigenvalue -1e-7
    rho = np.diag([1, 0]).astype(complex)
    base = unsteerable_assemblage(np.full((2, 2), 0.5), rho)
    shift = density_to_coords(np.diag([1e-7, -1e-7]).astype(complex))
    table = np.array(base.table)
    table[0, 0] += shift
    table[1, 0] -= shift
    asm = Assemblage((2,), (2,), 2, table)
    chan = assemblage_to_channel(asm, tol=1e-6)
    assert extract_assemblage(chan).table.tobytes() == table.tobytes()
    assert oracle_assemblage_channel(asm, 1e-6).body.matrix.tobytes() == chan.body.matrix.tobytes()
    with pytest.raises(InvalidAssemblage, match="eigenvalue"):
        assemblage_to_channel(asm)


def test_bb84_realization_roundtrip():
    gt = new_theory(QUANT)
    asm = bb84_assemblage()
    cid, real = realize_assemblage(gt, asm, channel_id="bb84")
    chan = gt.registered[cid].channel
    assert verify_realization(chan, real) <= 1e-9
    back = extract_assemblage(chan)
    assert np.abs(back.table - asm.table).max() <= 1e-9


def test_pr_correlated_realizes_with_negativity():
    rho = np.array([[0.5, 0], [0, 0.5]], dtype=complex)
    asm = pr_correlated_assemblage(rho)
    chan = assemblage_to_channel(asm)
    gt = new_theory(QUANT)
    cid, real = realize_assemblage(gt, asm, channel_id="prb")
    assert gt.registered[cid].residual <= 1e-9
    qm = decompose_quasimixture(chan, mode=MIN_NEGATIVITY)
    assert negativity(qm) > 0.1
    back = extract_assemblage(chan)
    assert np.abs(back.table - asm.table).max() <= 1e-9


def lhs_table(rng, settings, outcomes, d, hidden=3):
    """sigma_{a|x} = sum_l p(l) prod_i p_i(a_i|x_i, l) rho_l: valid and
    non-signalling for random weights, responses and states."""
    weights = rng.random(hidden)
    weights /= weights.sum()
    table = np.zeros(outcomes + settings + (d * d,))
    for w in weights:
        term = w * random_density_coords(rng, d)
        for i, (n_x, n_a) in enumerate(zip(settings, outcomes)):
            response = random_stochastic_float(rng, n_a, n_x)  # (a_i, x_i)
            shape = [1] * (2 * len(settings) + 1)
            shape[i], shape[len(settings) + i] = n_a, n_x
            term = term * response.reshape(shape)
        table += term
    return table


def break_table(table, rng, settings, outcomes, d, kind, size):
    """One defect of magnitude ``size`` that leaves the other checks alone."""
    m, table = len(settings), table.copy()
    if kind == "signalling":  # mix setting 0 toward another valid assemblage
        corner = (slice(None),) * m + (0,) * m
        other = lhs_table(rng, settings, outcomes, d)
        table[corner] = (1 - size) * table[corner] + size * other[corner]
    elif kind == "negative":  # checkerboard over a_i in {0, 1}: every marginal stays
        low, vecs = np.linalg.eigh(coords_to_density(table[(0,) * (2 * m)], d))
        push = density_to_coords(np.outer(vecs[:, 0], vecs[:, 0].conj()))
        for a in product((0, 1), repeat=m):
            table[a + (0,) * m] -= (-1) ** sum(a) * (low[0] + size) * push
    elif kind == "normalization":  # every setting alike: no signalling
        table *= 1 + size
    elif kind == "nan":
        table[(0,) * (2 * m) + (d * d - 1,)] = np.nan
    return table


@settings(max_examples=200, deadline=None)
@given(
    shape=st.lists(st.tuples(st.integers(2, 3), st.integers(2, 3)), min_size=1, max_size=2),
    d=st.sampled_from([2, 3]),
    kind=st.sampled_from([None, "signalling", "negative", "normalization", "nan"]),
    tol_size=st.sampled_from(
        [(1e-9, 1e-6), (1e-9, 1e-3), (1e-9, 0.2), (1e-6, 1e-3), (1e-6, 0.2)]
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_channel_checks_decide_like_the_assemblage_oracle(shape, d, kind, tol_size, seed):
    tol, size = tol_size
    rng = np.random.default_rng(seed)
    x_sizes, a_sizes = tuple(n for n, _ in shape), tuple(n for _, n in shape)
    table = lhs_table(rng, x_sizes, a_sizes, d)
    table = break_table(table, rng, x_sizes, a_sizes, d, kind, size)
    asm = Assemblage(x_sizes, a_sizes, d, table)
    try:
        expected = oracle_assemblage_channel(asm, tol)
    except (InvalidAssemblage, TypeMismatch, np.linalg.LinAlgError) as err:
        # the oracle reads NaN as a stray error: eigvalsh fails to converge
        # on a qutrit and returns NaN on a qubit, which is no channel
        assert kind is not None
        assert (not isinstance(err, InvalidAssemblage)) == (kind == "nan")
        with pytest.raises(InvalidAssemblage):
            assemblage_to_channel(asm, tol)
        return
    assert kind is None
    chan = assemblage_to_channel(asm, tol)
    body = chan.body.matrix
    assert body.dtype == expected.body.matrix.dtype == np.float64
    assert body.tobytes() == expected.body.matrix.tobytes()
    back = extract_assemblage(chan)
    assert back.table.dtype == table.dtype and back.table.shape == table.shape
    assert back.table.tobytes() == table.tobytes()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_raises_invalid_assemblage(value):
    table = np.array(bb84_assemblage().table)
    table[1, 0, 2] = value
    with pytest.raises(InvalidAssemblage) as err:
        assemblage_to_channel(Assemblage((2,), (2,), 2, table))
    assert "completely positive" in str(err.value)


def test_signalling_tolerance_is_the_channel_check():
    # two settings' trusted marginals 1.5e-9 apart, each 7.5e-10 from their
    # average: the pairwise oracle rejects, the channel check and register accept
    p = np.array([[0.7, 0.4], [0.3, 0.6]])
    base = unsteerable_assemblage(p, np.eye(2, dtype=complex) / 2)
    tau = density_to_coords(np.diag([1, -1]).astype(complex))
    table = np.array(base.table)
    table[0, 0] += 7.5e-10 * tau / np.abs(tau).max()
    table[0, 1] -= 7.5e-10 * tau / np.abs(tau).max()
    asm = Assemblage((2,), (2,), 2, table)
    with pytest.raises(InvalidAssemblage):
        validate_assemblage(asm)
    assert check_nonsignalling(assemblage_to_channel(asm)).max_residual <= 1e-9
    gt = new_theory(QUANT)
    cid, _ = realize_assemblage(gt, asm, channel_id="edge")
    assert gt.registered[cid].residual <= 1e-9
