"""Shared random generators and independent oracles used across the suite.

Everything here is deliberately simple and separate from the library code
paths it is used to check.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np

from quasicause import exact
from quasicause.theories import discard_effect, hermitian_basis, vec_basis_matrix
from quasicause.wires import QUANTUM, Signature

F = Fraction


def _dims(d):
    return (d,) if isinstance(d, int) else tuple(d)


def random_isometry(rng, d_from, d_to):
    g = rng.normal(size=(d_to, d_from)) + 1j * rng.normal(size=(d_to, d_from))
    q, _ = np.linalg.qr(g)
    return q[:, :d_from]


def kraus_to_transfer(kraus, in_dims, out_dims):
    """Transfer matrix in the composite tensor Hermitian bases.

    Uses the C-order vec identity vec(K rho K^dag) = (K (x) conj(K)) vec(rho)
    and the basis-change columns from vec_basis_matrix; this is a different
    code path from the library's single-wire transfer builder.
    """
    in_dims, out_dims = _dims(in_dims), _dims(out_dims)
    superop = sum(np.kron(k, k.conj()) for k in kraus)
    u_in = vec_basis_matrix(in_dims)
    u_out = vec_basis_matrix(out_dims)
    t = u_out.conj().T @ superop @ u_in
    assert np.abs(t.imag).max(initial=0.0) < 1e-10
    return t.real


def random_cptp_transfer(rng, in_dims, out_dims, env=2):
    """Transfer matrix of a random Stinespring channel between composites."""
    in_dims, out_dims = _dims(in_dims), _dims(out_dims)
    d_in = math.prod(in_dims)
    d_out = math.prod(out_dims)
    v = random_isometry(rng, d_in, d_out * env)
    kraus = []
    for e in range(env):
        k = np.zeros((d_out, d_in), dtype=complex)
        for o in range(d_out):
            k[o, :] = v[o * env + e, :]
        kraus.append(k)
    return kraus_to_transfer(kraus, in_dims, out_dims)


def random_density_coords(rng, dims):
    """Composite-basis Hermitian coordinates of a Ginibre-random state."""
    dims = _dims(dims)
    d = math.prod(dims)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    coords = vec_basis_matrix(dims).conj().T @ rho.reshape(d * d)
    assert np.abs(coords.imag).max() < 1e-10
    return coords.real


def random_stochastic_float(rng, n_out, n_in):
    m = rng.random((n_out, n_in))
    return m / m.sum(axis=0)


def random_stochastic_rational(rng, n_out, n_in, grain=60):
    """Column-stochastic matrix with small exact rational entries."""
    cols = []
    for _ in range(n_in):
        weights = [int(rng.integers(0, grain + 1)) for _ in range(n_out)]
        if sum(weights) == 0:
            weights[0] = 1
        total = sum(weights)
        cols.append([F(w, total) for w in weights])
    m = np.empty((n_out, n_in), dtype=object)
    for j, col in enumerate(cols):
        for i, x in enumerate(col):
            m[i, j] = x
    return m


def random_distribution_rational(rng, n, grain=60):
    return random_stochastic_rational(rng, n, 1, grain)[:, 0]


def classical_conditionals(matrix, out_dims, in_dims):
    """Channel matrix -> dict (outputs tuple, inputs tuple) -> probability."""
    table = {}
    for x in product(*[range(d) for d in in_dims]):
        col = 0
        for d, digit in zip(in_dims, x):
            col = col * d + digit
        for a in product(*[range(d) for d in out_dims]):
            row = 0
            for d, digit in zip(out_dims, a):
                row = row * d + digit
            table[(a, x)] = matrix[row, col]
    return table


def min_choi_eigenvalue(transfer, in_dims, out_dims):
    """Lowest eigenvalue of sum_kl E_kl (x) Phi(E_kl), assembled block by
    block from the images of the matrix units E_kl."""
    d_in, d_out = math.prod(in_dims), math.prod(out_dims)
    u_in, u_out = vec_basis_matrix(tuple(in_dims)), vec_basis_matrix(tuple(out_dims))
    choi = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
    for k, l in product(range(d_in), repeat=2):
        unit = np.zeros(d_in * d_in)
        unit[k * d_in + l] = 1
        image = u_out @ (transfer @ (u_in.conj().T @ unit))
        choi[k * d_out:(k + 1) * d_out, l * d_out:(l + 1) * d_out] = image.reshape(d_out, d_out)
    return float(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T)).min())


def hybrid_valid_oracle(p, tol=None):
    """Instrument test, one classical (input, output) point at a time: every
    block completely positive, and for each classical input the blocks
    summed over classical outputs trace preserving."""
    eps = tol if tol is not None else 1e-9
    in_wires, out_wires = tuple(p.inputs), tuple(p.outputs)
    m = p.matrix.astype(float)
    tensor = m.reshape(p.outputs.dims + p.inputs.dims)

    cin = [i for i, w in enumerate(in_wires) if w.kind != QUANTUM]
    qin = [i for i, w in enumerate(in_wires) if w.kind == QUANTUM]
    cout = [i for i, w in enumerate(out_wires) if w.kind != QUANTUM]
    qout = [i for i, w in enumerate(out_wires) if w.kind == QUANTUM]
    n_out = len(out_wires)

    qin_dims = tuple(in_wires[i].hilbert_dim for i in qin)
    qout_dims = tuple(out_wires[i].hilbert_dim for i in qout)
    qin_v = math.prod(w.vdim for w in (in_wires[i] for i in qin)) if qin else 1
    qout_v = math.prod(w.vdim for w in (out_wires[i] for i in qout)) if qout else 1
    u_qin = discard_effect(
        Signature(tuple(in_wires[i] for i in qin)), exact=False
    ).matrix[0]
    u_qout = discard_effect(
        Signature(tuple(out_wires[i] for i in qout)), exact=False
    ).matrix[0]

    for x in product(*[range(in_wires[i].vdim) for i in cin]):
        index = [slice(None)] * (n_out + len(in_wires))
        for axis, value in zip(cin, x):
            index[n_out + axis] = value
        sliced = tensor[tuple(index)]
        total = np.zeros((qout_v, qin_v))
        for a in product(*[range(out_wires[i].vdim) for i in cout]):
            sub = [slice(None)] * sliced.ndim
            for pos, value in zip(cout, a):
                sub[pos] = value
            block = sliced[tuple(sub)].reshape(qout_v, qin_v)
            if min_choi_eigenvalue(block, qin_dims, qout_dims) < -eps:
                return False
            total += block
        if np.abs(u_qout @ total - u_qin).max(initial=0.0) > eps:
            return False
    return True


def greedy_rank_subset(candidates, exact_mode):
    """Leftmost-first maximal-rank subset of (term, process) candidates, one
    rank computation per candidate."""
    kept = []
    vectors = []
    for term, proc in candidates:
        vec = proc.matrix.reshape(-1)
        trial = vectors + [vec if exact_mode else vec.astype(float)]
        stacked = np.stack(trial, axis=1)
        if exact_mode:
            r = exact.rank(stacked)
        else:
            r = int(np.linalg.matrix_rank(stacked, tol=1e-9))
        if r == len(trial):
            kept.append((term, proc))
            vectors.append(trial[-1])
    return kept
