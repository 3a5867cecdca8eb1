"""Shared random generators and independent oracles used across the suite.

Everything here is deliberately simple and separate from the library code
paths it is used to check.
"""

import hashlib
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Dict, Sequence, Tuple

import numpy as np
from scipy.linalg import qr as scipy_qr
from scipy.optimize import LinearConstraint, linprog, milp

from quasicause.assemblages import Assemblage
from quasicause.check import _amax, _apply, choi_of_transfer, vec_basis_matrix
from quasicause.completion import (
    EquivResult,
    QuotientReport,
    TesterWitness,
    _bind_shared_bit,
    _discard_term,
    _frame_candidates,
    _kernel_mixture_checks,
    _padded_variants,
    _planted_inequivalent,
    _select,
    _stack,
    op_equiv,
    recomposition_term,
)
from quasicause.decompose import (
    PRUNE,
    WingFrame,
    _lp_matrices,
    _wing_major_tensor,
    default_frames,
)
from quasicause.diagrams import Leaf, Mix, Par, Seq
from quasicause.errors import (
    InvalidAssemblage,
    ResidualTooLarge,
    SchemaError,
    SignatureMismatch,
    TypeMismatch,
)
from quasicause.nonsignalling import (
    MultipartiteChannel,
    NSReport,
    SubsetCheck,
    _prechecked,
)
from quasicause.procs import (
    FLOAT64,
    RATIONAL,
    LinearProcess,
    _as_rational,
    _float_of,
    _ints,
    _kron,
    _lincomb,
    _made,
    _operand,
    _operands,
    _widened,
    compose_par,
    compose_seq,
    effective_tol,
    identity,
    max_abs_diff,
    mode_product,
    number,
    permutation,
)
from quasicause.serialize import _expect, decode_number
from quasicause.theories import (
    QUANT,
    STOCH,
    Theory,
    coords_to_density,
    density_to_coords,
    discard_effect,
    hermitian_basis,
    instrument_problem,
)
from quasicause.wires import (
    EMPTY,
    EXTENSION,
    QUANTUM,
    UNIT,
    Signature,
    SystemType,
    classical,
    extension,
    interleave,
    quantum,
    ravel_index,
    sig,
)

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


def random_cptp_transfer(rng, in_dims, out_dims, env=None):
    """Transfer matrix of a random Stinespring channel between composites.

    ``env`` defaults to the smallest environment the isometry fits in
    (d_out * env >= d_in), and to at least 2.
    """
    in_dims, out_dims = _dims(in_dims), _dims(out_dims)
    d_in = math.prod(in_dims)
    d_out = math.prod(out_dims)
    if env is None:
        env = max(2, math.ceil(d_in / d_out))
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
    u_qin = discard_effect(Signature(tuple(in_wires[i] for i in qin))).matrix[0]
    u_qout = discard_effect(Signature(tuple(out_wires[i] for i in qout))).matrix[0]

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


def rref_oracle(matrix: np.ndarray):
    """Reduced row echelon form and the pivot column indices, by Gaussian
    elimination on ``Fraction`` entries."""
    rows = [[F(x) for x in row] for row in matrix]
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    out = np.empty((n_rows, n_cols), dtype=object)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            out[i, j] = x
    return out, tuple(pivots)


def rank_oracle(matrix: np.ndarray) -> int:
    return len(rref_oracle(matrix)[1])


def solve_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ x = b by ``Fraction`` elimination of [a | b]; ValueError when a is singular."""
    n = a.shape[0]
    reduced, pivots = rref_oracle(np.concatenate([a, b.reshape(n, -1)], axis=1))
    if pivots[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    return reduced[:, n:]


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
            r = rank_oracle(stacked)
        else:
            r = int(np.linalg.matrix_rank(stacked, tol=1e-9))
        if r == len(trial):
            kept.append((term, proc))
            vectors.append(trial[-1])
    return kept


def proper_subsets(m):
    """All nonempty proper subsets of {1..m}, ascending order inside each."""
    out = []
    for mask in range(1, 2 ** m - 1):
        out.append(tuple(i + 1 for i in range(m) if mask >> i & 1))
    return sorted(out, key=lambda s: (len(s), s))


def ns_report_oracle(channel, tol=None):
    """The non-signalling check folded from whole-space operators: for each
    subset, (discards (x) identities) after the body, reference states
    (x) identities before that, and (input discards (x) identities) before
    the candidate, each one a dense ``compose_par`` chain."""
    tolerance = effective_tol(channel.body.arithmetic, tol)
    checks = []
    for subset in proper_subsets(channel.m):
        discarded = _oracle_discard_outputs(channel, subset)
        candidate = _oracle_plug_reference_inputs(channel, discarded, subset)
        rebuilt = _oracle_discard_k_inputs_then(channel, candidate, subset)
        residual = max_abs_diff(discarded, rebuilt)
        checks.append(SubsetCheck(subset, residual, candidate))
    return NSReport(tuple(checks), tolerance)


def _oracle_discard_outputs(channel, subset):
    eat = number(1)
    for label, (_, w_out) in enumerate(channel.wings, start=1):
        if label in subset:
            piece = channel.theory.discard(w_out)
        else:
            piece = identity(Signature((w_out,)))
        eat = compose_par(eat, piece)
    return compose_seq(channel.body, eat)


def _oracle_plug_reference_inputs(channel, marginal, subset):
    feed = number(1)
    for label, (w_in, _) in enumerate(channel.wings, start=1):
        if label in subset:
            piece = channel.theory.reference_state(w_in)
        else:
            piece = identity(Signature((w_in,)))
        feed = compose_par(feed, piece)
    return compose_seq(feed, marginal)


def _oracle_discard_k_inputs_then(channel, candidate, subset):
    # (discards on K inputs) tensored with identities, then the candidate
    front = number(1)
    for label, (w_in, _) in enumerate(channel.wings, start=1):
        if label in subset:
            front = compose_par(front, channel.theory.discard(w_in))
        else:
            front = compose_par(front, identity(Signature((w_in,))))
    return compose_seq(front, candidate)


def assemble_common_cause(
    shared_state: LinearProcess,
    locals_: Sequence[LinearProcess],
    theory: Theory,
) -> MultipartiteChannel:
    """Wire local channels over a shared state (the common-cause shape).

    ``shared_state`` is a state on the ancilla wires (one per wing, in wing
    order); ``locals_[i]`` maps (wing input, ancilla_i) to the wing output.
    """
    m = len(locals_)
    if len(shared_state.outputs) != m:
        raise TypeMismatch("need one ancilla wire per wing")
    wings = []
    for i, t in enumerate(locals_):
        if len(t.inputs) != 2 or len(t.outputs) != 1:
            raise TypeMismatch("local channels must map (input, ancilla) -> output")
        if t.inputs[1] != shared_state.outputs[i]:
            raise TypeMismatch(f"ancilla type mismatch on wing {i + 1}")
        wings.append((t.inputs[0], t.outputs[0]))

    in_sig = Signature(tuple(w for w, _ in wings))
    body = compose_par(identity(in_sig), shared_state)
    body = compose_seq(body, permutation(body.outputs, interleave(m)))
    locals_stack = number(1)
    for t in locals_:
        locals_stack = compose_par(locals_stack, t)
    body = compose_seq(body, locals_stack)
    return MultipartiteChannel(tuple(wings), body, theory)


# -- the diagonal common cause --------------------------------------------------
# The realization in its earlier, diagonal form: coefficient c_k on the point
# (k, ..., k) of m ancillas of carrier k (the number of terms), eta_i reading
# term k's member off ancilla value k, and the shared-k recontraction that
# never builds the k^m state. It is the oracle of the product-form
# realization and of its Tucker recontraction.

@dataclass(frozen=True)
class DiagonalRealization:
    ancilla_types: Tuple[SystemType, ...]
    etas: Tuple[LinearProcess, ...]
    frame: Tuple[WingFrame, ...]
    coefficients: Tuple[object, ...]
    term_indices: Tuple[Tuple[int, ...], ...]

    @property
    def xi(self) -> LinearProcess:
        """The dense k^m state, zero off the diagonal."""
        k, m = len(self.coefficients), len(self.ancilla_types)
        exact_mode = not any(isinstance(c, float) for c in self.coefficients) and all(
            e.arithmetic == RATIONAL for e in self.etas
        )
        vec = np.zeros((k,) * m, dtype=object if exact_mode else float)
        vec[(np.arange(k),) * m] = self.coefficients
        return LinearProcess(EMPTY, Signature(self.ancilla_types), vec.reshape(-1, 1))


def _term_stack(frame: WingFrame, terms, wing: int) -> np.ndarray:
    """Each term's member for ``wing`` as an (out, in, term) array."""
    return np.stack([frame.members[idx[wing]].matrix for _, idx in terms], axis=-1)


def shared_k_residual(channel, coefficients, stacks, exact_mode) -> object:
    """Max-abs difference between sum_k c_k (x)_i stacks[i][:, :, k] and the
    body.

    Every wing reads the same index k, so each (out_i, in_i, k) stack is
    multiplied into the running product along a shared k axis, and the last
    wing's stack, weighted by the coefficients, contracts that axis away:
    O(k * D_in * D_out) work, never a k^m tensor.
    """
    dtype = object if exact_mode else float
    tensor = np.ones(len(coefficients), dtype=dtype)
    for stack in stacks[:-1]:
        # axes (o_1, x_1, ..., o_i, x_i, k) after wing i
        tensor = tensor[..., None, None, :] * stack.astype(dtype)
    weighted = stacks[-1].astype(dtype) * np.array(coefficients, dtype=dtype)
    tensor = np.tensordot(tensor, weighted, axes=([-1], [-1]))
    body = channel.body.matrix.astype(dtype)
    rebuilt = np.transpose(tensor, np.argsort(interleave(channel.m))).reshape(body.shape)
    return abs(rebuilt - body).max()


def diagonal_realization(channel, qm, frames=None, channel_id="diag") -> DiagonalRealization:
    """Package a quasi-mixture as (coefficients, eta_1..eta_m) on branded
    ancillas of carrier k; the coefficients are the diagonal shared state."""
    if frames is None:
        frames = default_frames(channel)
    frames = tuple(frames)
    k_terms = len(qm.terms)
    if k_terms == 0:
        raise ResidualTooLarge("empty quasi-mixture")
    exact_mode = all(not isinstance(c, float) for c, _ in qm.terms)

    ancillas = tuple(
        extension(channel_id, i + 1, k_terms) for i in range(channel.m)
    )

    etas = []
    for i, ((w_in, w_out), frame) in enumerate(zip(channel.wings, frames)):
        # column x * k_terms + k holds column x of term k's member
        mat = _term_stack(frame, qm.terms, i).reshape(w_out.vdim, w_in.vdim * k_terms)
        if not exact_mode:
            mat = mat.astype(float)
        eta = LinearProcess(sig(w_in, ancillas[i]), sig(w_out), mat)
        problem = instrument_problem(eta)
        if problem:
            raise ResidualTooLarge(f"eta for wing {i + 1} {problem}")
        etas.append(eta)

    total = sum(c for c, _ in qm.terms)
    if not (total == 1 if exact_mode else abs(total - 1) <= 1e-9):
        raise ResidualTooLarge(f"coefficients sum to {total}, not 1")
    return DiagonalRealization(
        ancilla_types=ancillas,
        etas=tuple(etas),
        frame=frames,
        coefficients=tuple(c for c, _ in qm.terms),
        term_indices=tuple(idx for _, idx in qm.terms),
    )


def verify_diagonal(channel, realization: DiagonalRealization) -> object:
    """The shared-k recontraction of a diagonal realization: each eta_i read
    as an (out_i, in_i, k) stack."""
    k = len(realization.coefficients)
    exact_mode = realization.xi.arithmetic == RATIONAL and channel.body.arithmetic == RATIONAL
    stacks = [eta.matrix.reshape(eta.outputs.dim, -1, k) for eta in realization.etas]
    return shared_k_residual(channel, realization.coefficients, stacks, exact_mode)


def min_negativity_oracle(channel, frames) -> np.ndarray:
    """The min-negativity LP on every row of the product frame (x)_i F_i plus
    an explicit sum-to-one row, polished against that whole system: full-frame
    coefficients minimizing sum |c_k|. HiGHS's primal and dual feasibility
    tolerances are 1e-10, not its default 1e-7: near a degenerate vertex the
    default stops up to 1e-7 short of the optimum on this larger system."""
    a = np.array([[1.0]])
    for frame in frames:
        a = np.kron(a, frame.operands(binary64=True)[0])
    b = _float_of(_wing_major_tensor(channel)).reshape(-1)
    n = a.shape[1]
    a_eq = np.block([[a, -a], [np.ones((1, n)), -np.ones((1, n))]])
    b_eq = np.concatenate([b, [1.0]])
    res = linprog(np.ones(2 * n), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.success, res.message
    coeffs = res.x[:n] - res.x[n:]
    support = np.abs(coeffs) > 1e-10
    if support.any():
        sol, *_ = np.linalg.lstsq(a[:, support], b, rcond=None)
        polished = np.zeros(n)
        polished[support] = sol
        if np.abs(a @ polished - b).max() <= np.abs(a @ coeffs - b).max() + 1e-12:
            coeffs = polished
    return coeffs


def milp_lp_oracle(channel, frames) -> np.ndarray:
    """The library's min-negativity LP solved through ``scipy.optimize.milp``:
    HiGHS with no integrality and presolve off on the cached sparse system of
    ``_lp_matrices``, then the library's polish on the support. ``milp``
    hands HiGHS the model and options the library passes to the bindings
    directly, so the coefficients agree bit for bit."""
    a, a_eq = _lp_matrices(tuple(frames))
    rows = [frame.lp_rows for frame in frames]
    b = _wing_major_tensor(channel, binary64=True)[np.ix_(*rows)].reshape(-1)
    n = a.shape[1]
    # milp passes the matrix's index arrays on to its HiGHS wrapper
    # uncopied; a writeable copy keeps any wrapper from refusing, or writing
    # to, the cached read-only system
    res = milp(np.ones(2 * n), constraints=LinearConstraint(a_eq.copy(), b, b),
               options={"presolve": False})
    if not res.success:
        raise ResidualTooLarge(f"negativity LP failed: {res.message}")
    coeffs = res.x[:n] - res.x[n:]
    tol = effective_tol(FLOAT64)

    def misfit(x):
        return np.abs(a @ x - b).max()

    # polish: a refit on the LP support tightens the equality constraints to
    # machine precision without changing the support. A square support is
    # re-solved by LU, kept if it meets the rows within tol; any other by
    # least squares, and at a degenerate vertex (support rank below the row
    # count) that can miss b; then the support is completed to a square
    # basis, by pivoted QRs of the support and of the other columns projected
    # off its span, and refit. Only the columns read are made dense
    def refit(cols):
        x, sub = np.zeros(n), a[:, cols].toarray()
        if len(cols) == len(b):
            try:
                x[cols] = np.linalg.solve(sub, b)
            except np.linalg.LinAlgError:
                pass
            else:
                if misfit(x) <= tol:
                    return x, len(b)
        x[cols], _, rank, _ = np.linalg.lstsq(sub, b, rcond=None)
        return x, rank

    support = np.flatnonzero(np.abs(coeffs) > 1e-10)
    if support.size:
        polished, rank = refit(support)
        if rank < len(b) and misfit(polished) > tol:
            q, _, kept = scipy_qr(a[:, support].toarray(), mode="economic", pivoting=True)
            q, rest = q[:, :rank], np.setdiff1d(np.arange(n), support)
            others = a[:, rest].toarray()
            _, added = scipy_qr(others - q @ (q.T @ others), mode="r", pivoting=True)
            basis = np.concatenate([support[kept[:rank]], rest[added[:len(b) - rank]]])
            polished = min(polished, refit(basis)[0], key=misfit)
        if misfit(polished) <= misfit(coeffs) + 1e-12:
            coeffs = polished
    return coeffs.reshape(tuple(len(f) for f in frames))


def dense_lp_oracle(channel, frames) -> np.ndarray:
    """The min-negativity LP on each wing's independent rows, solved the
    dense way: ``linprog`` on the dense [a, -a] with presolve, then a
    least-squares refit on the support, completed to a square basis by
    pivoted QRs when that refit misses the rows at a degenerate vertex."""
    a = np.array([[1.0]])
    for frame in frames:
        a = np.kron(a, frame.operands(binary64=True)[0][list(frame.lp_rows)])
    rows = [frame.lp_rows for frame in frames]
    b = _float_of(_wing_major_tensor(channel))[np.ix_(*rows)].reshape(-1)
    n = a.shape[1]
    res = linprog(np.ones(2 * n), A_eq=np.hstack([a, -a]), b_eq=b, bounds=(0, None),
                  method="highs")
    assert res.success, res.message
    coeffs = res.x[:n] - res.x[n:]

    def refit(cols):
        x = np.zeros(n)
        x[cols], _, rank, _ = np.linalg.lstsq(a[:, cols], b, rcond=None)
        return x, rank

    def misfit(x):
        return np.abs(a @ x - b).max()

    support = np.flatnonzero(np.abs(coeffs) > 1e-10)
    if support.size:
        polished, rank = refit(support)
        if rank < len(b) and misfit(polished) > effective_tol("float64"):
            q, _, kept = scipy_qr(a[:, support], mode="economic", pivoting=True)
            q, rest = q[:, :rank], np.setdiff1d(np.arange(n), support)
            _, added = scipy_qr(a[:, rest] - q @ (q.T @ a[:, rest]), mode="r", pivoting=True)
            basis = np.concatenate([support[kept[:rank]], rest[added[:len(b) - rank]]])
            polished = min(polished, refit(basis)[0], key=misfit)
        if misfit(polished) <= misfit(coeffs) + 1e-12:
            coeffs = polished
    return coeffs.reshape(tuple(len(f) for f in frames))


def fresh_frame_data(frame: WingFrame) -> Dict[str, object]:
    """What a frame derives from its members, computed from scratch: the
    member matrix in both arithmetics, the retained columns, the LP's
    independent rows and the min-norm duals (the exact one for exact frames
    only)."""
    exact_mode = all(m.arithmetic == RATIONAL for m in frame.members)
    own = np.stack([m.matrix.reshape(-1) for m in frame.members], axis=1)
    flt = own.astype(float)
    retained = _greedy_columns(own if exact_mode else flt, exact_mode)
    kept_own, kept_flt = own[:, list(retained)], flt[:, list(retained)]
    return {
        "matrix": own,
        "float_matrix": flt,
        "retained": retained,
        "lp_rows": _greedy_columns(flt.T, False),
        "float_dual": np.linalg.pinv(kept_flt),
        "exact_dual": solve_oracle(kept_own.T @ kept_own, kept_own.T) if exact_mode else None,
    }


def _greedy_columns(matrix, exact_mode) -> Tuple[int, ...]:
    """Leftmost-first maximal independent columns, one rank per column."""
    kept = []
    for j in range(matrix.shape[1]):
        trial = matrix[:, kept + [j]]
        r = rank_oracle(trial) if exact_mode else np.linalg.matrix_rank(trial, tol=1e-9)
        if r == len(kept) + 1:
            kept.append(j)
    return tuple(kept)


def pruned_oracle(coeffs):
    """``decompose._pruned`` with the pruned mass summed by a Python loop,
    one entry at a time in C order."""
    small = np.abs(coeffs) <= PRUNE
    dropped = 0
    for c in coeffs[small]:
        dropped += c
    pruned = np.where(small, 0.0, coeffs)
    if dropped and not small.all():
        pruned.flat[np.argmax(np.abs(pruned))] += dropped
    return pruned


def pruned_terms_oracle(coeffs, frame_sizes, exact_mode):
    """Pruning as one loop over every index tuple in C order: zeros dropped
    in rational mode; in binary64, entries of magnitude <= PRUNE dropped and
    their sum added to the largest kept coefficient."""
    terms = []
    dropped = 0
    for c, indices in zip(coeffs, product(*map(range, frame_sizes))):
        if exact_mode:
            if c == 0:
                continue
        elif abs(c) <= PRUNE:
            dropped += c
            continue
        terms.append((c if exact_mode else float(c), indices))
    if not exact_mode and terms and dropped:
        big = max(range(len(terms)), key=lambda i: abs(terms[i][0]))
        c, idx = terms[big]
        terms[big] = (float(c + dropped), idx)
    return tuple(terms)


def xi_core_oracle(real, carriers, exact):
    """The xi core of a certificate's realization block, one entry at a time:
    its indices checked and its coefficient decoded before the next entry."""
    core = np.zeros(carriers, dtype=object if exact else float)
    seen = set()
    for entry in _expect(real.get("xi", []), list, "xi"):
        idx = tuple(_expect(_expect(entry, dict, "xi entry").get("indices"), list, "xi indices"))
        in_range = all(type(j) is int and 0 <= j < k for j, k in zip(idx, carriers))
        if len(idx) != len(carriers) or not in_range or idx in seen:
            raise SchemaError(f"xi indices {list(idx)} outside the carriers or repeated")
        seen.add(idx)
        core[idx] = decode_number(entry.get("c"), exact)
    return core.reshape(-1, 1)


def decode_matrix_oracle(flat, shape, exact=False):
    """A matrix decoded entry by entry: binary64, or ``Fraction`` (an object
    array) if ``exact``."""
    return np.array([decode_number(x, exact) for x in flat], dtype=object if exact else float).reshape(shape)


# -- the verifier before the raw-array checker ------------------------------------
# Library processes rebuilt from per-entry decoding, the recontraction as a
# chain of ``procs.mode_product`` calls, the etas through the instrument
# oracle and xi summed entry by entry: the oracle of ``check.tucker`` and of
# ``serialize.verify_certificate`` on well-formed files.

def tucker_oracle(core, factors):
    """``factors[i]`` multiplied into axis i of ``core``, one ``procs.mode_product`` per axis."""
    for axis, factor in enumerate(factors):
        core = mode_product(core, factor, axis)
    return core


def _gap_oracle(a, b):
    """max |a - b| of two operands, a ``Fraction`` when both are rational."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        diff, den = _lincomb([(1, a), (-1, b)])
        return Fraction(_amax(diff), den)
    return abs(_float_of(a) - _float_of(b)).max()


def verify_certificate_oracle(cert, channel_obj, tol=None):
    """``(ok, residual, detail)`` as ``verify_certificate`` gave them before
    the checker decided on raw arrays."""
    if cert.get("version") != 2:
        return False, None, f"unsupported certificate version {cert.get('version')!r}"
    canonical = json.dumps(channel_obj, sort_keys=True, separators=(",", ":")).encode()
    if cert.get("channelDigest") != "sha256:" + hashlib.sha256(canonical).hexdigest():
        return False, None, "channel digest mismatch"
    wings = tuple(
        tuple((quantum if w[k]["kind"] == "quantum" else classical)(w[k]["dim"]) for k in ("in", "out"))
        for w in channel_obj["wings"]
    )
    ins, outs = (Signature(tuple(w[k] for w in wings)) for k in (0, 1))
    exact_body = channel_obj["arithmetic"] == RATIONAL
    body = decode_matrix_oracle(channel_obj["matrix"], (outs.dim, ins.dim), exact_body)
    theory = QUANT if any(t.kind == QUANTUM for pair in wings for t in pair) else STOCH
    channel = MultipartiteChannel(wings, LinearProcess(ins, outs, body), theory)
    exact = cert.get("arithmetic") == RATIONAL
    real = cert["realization"]
    carriers = tuple(b["carrier"] for b in real["brands"])
    ancillas = tuple(extension(real["channelId"], i, k) for i, k in enumerate(carriers, start=1))
    xi = LinearProcess(EMPTY, Signature(ancillas), xi_core_oracle(real, carriers, exact))
    etas = [
        LinearProcess(sig(w_in, a), sig(w_out),
                      decode_matrix_oracle(flat, (w_out.vdim, w_in.vdim * a.vdim), exact))
        for flat, (w_in, w_out), a in zip(real["etas"], wings, ancillas)
    ]
    order, shape = interleave(channel.m), tuple(o.vdim * i.vdim for i, o in wings)
    target = channel.wing_operand
    if isinstance(target, tuple):
        target = (np.transpose(target[0], order).reshape(shape), target[1])
    else:
        target = np.transpose(target, order).reshape(shape)
    core = _operand(xi, carriers)
    factors = [
        _operand(e, (w_out.vdim * w_in.vdim, a.vdim)) for e, (w_in, w_out), a in zip(etas, wings, ancillas)
    ]
    if not all(isinstance(x, tuple) for x in (core, target, *factors)):
        core, target, factors = _float_of(core), _float_of(target), [_float_of(f) for f in factors]
    residual = _gap_oracle(tucker_oracle(core, factors), target)
    if tol is None:
        tol = effective_tol(cert.get("arithmetic"))
    if cert.get("tolerance") is not None:
        tol = min(tol, decode_number(cert["tolerance"], exact))
    failed = [f"eta {i} {problem}" for i, problem in
              enumerate(map(instrument_problem_oracle, etas), start=1) if problem]
    total = sum(xi.matrix.flat) if exact else xi.matrix.sum()
    if not (total == 1 if exact else abs(total - 1) <= tol):
        failed.append(f"coefficients sum to {total}, not 1")
    if not residual <= tol:
        failed.append(f"recontraction residual {residual} exceeds tolerance {tol}")
    if failed:
        return False, residual, "; ".join(failed)
    return True, residual, f"recontraction residual {residual} within tolerance {tol}"


def masked_residual(detail: str) -> str:
    """``detail`` with the residual's digits replaced, for binary64 residuals
    that may differ in their last bits."""
    return re.sub(r"recontraction residual \S+", "recontraction residual R", detail)


# -- the dense Fraction process algebra ---------------------------------------
# Entry-by-entry object arithmetic on the matrices, with binary64 promotion by
# per-entry float(); the library's integer-numerator kernels must agree with
# it in dtype, value and each entry's str.

def _promote(a: np.ndarray, b: np.ndarray):
    """Two arrays in one backend: binary64 if either one is."""
    if (a.dtype == object) == (b.dtype == object):
        return a, b
    return a.astype(float), b.astype(float)


def fraction_compose_seq(fm, gm):
    fm, gm = _promote(fm, gm)
    return gm @ fm


def fraction_compose_par(fm, gm):
    fm, gm = _promote(fm, gm)
    return np.kron(fm, gm)


def fraction_convex_mix(p, fm, gm):
    fm, gm = _promote(fm, gm)
    if fm.dtype == object:
        p = _as_rational(p) if not isinstance(p, float) else p
        if isinstance(p, float):
            fm, gm = fm.astype(float), gm.astype(float)
    return p * fm + (1 - p) * gm


def fraction_max_abs_diff(fm, gm):
    fm, gm = _promote(fm, gm)
    if fm.size == 0:
        return 0
    return abs(fm - gm).max()


def fraction_scale(c, matrix):
    if matrix.dtype == object and isinstance(c, float):
        matrix = matrix.astype(float)
    return c * matrix


def fraction_add(fm, gm):
    fm, gm = _promote(fm, gm)
    return fm + gm


def fraction_mode_product(tensor, matrix, axis):
    """``matrix`` multiplied into one axis of ``tensor`` by ``np.tensordot``
    on the entries themselves: ``Fraction`` objects, or binary64 if either
    operand is."""
    tensor, matrix = _promote(tensor, matrix)
    moved = np.tensordot(matrix, tensor, axes=([1], [axis]))
    return np.moveaxis(moved, 0, axis)


# -- the uncached binary64 path -------------------------------------------------
# The mixed-arithmetic operations as they were before a rational process kept
# its binary64 form: every call promotes a rational operand's integer form
# afresh with ``check._float_of``, and a mode product is ``np.tensordot``
# then ``np.moveaxis``. The oracle of ``procs._binary64`` and of
# ``procs.mode_product``'s own steps, bit for bit.

def fresh_binary64(p: LinearProcess) -> np.ndarray:
    """``p``'s binary64 matrix, a rational one's promoted on this call."""
    return _float_of(_ints(p)) if p.arithmetic == RATIONAL else p.matrix


def uncached_compose_seq(f, g):
    return fresh_binary64(g) @ fresh_binary64(f)


def uncached_compose_par(f, g):
    return _kron(fresh_binary64(f), fresh_binary64(g))


def uncached_convex_mix(p, f, g):
    return float(p) * fresh_binary64(f) + (1 - float(p)) * fresh_binary64(g)


def uncached_scale(c, f):
    return float(c) * fresh_binary64(f)


def uncached_add(f, g):
    return fresh_binary64(f) + fresh_binary64(g)


def uncached_mode_product(tensor, matrix, axis):
    """``procs.mode_product`` through ``np.tensordot``."""
    if isinstance(tensor, tuple) and isinstance(matrix, tuple):
        (tn, td), (mn, md) = tensor, matrix
        tn, mn = _widened(tn, mn, mn.shape[1])
        return np.moveaxis(np.tensordot(mn, tn, axes=([1], [axis])), 0, axis), td * md
    moved = np.tensordot(_float_of(matrix), _float_of(tensor), axes=([1], [axis]))
    return np.moveaxis(moved, 0, axis)


# -- the instrument test on the matrix entries -----------------------------------
# Every block's Choi spectrum and discard gap from the entries themselves
# (``Fraction`` objects for a rational process with no quantum wire): the
# oracle of ``theories.instrument_problem``, which reads numerators there.

def instrument_problem_oracle(p, tol=None):
    """Why ``p`` is not a valid instrument, or None; same messages as the
    library's test."""
    n_out = len(p.outputs)
    wires = tuple(p.outputs) + tuple(p.inputs)

    def axes(quantum, inputs):
        return [
            i for i, w in enumerate(wires)
            if (w.kind == QUANTUM) == quantum and (i >= n_out) == inputs
        ]

    def dim(group):
        return math.prod(wires[i].vdim for i in group)

    cout, cin, qout, qin = axes(False, False), axes(False, True), axes(True, False), axes(True, True)
    quantum = bool(qout or qin)
    matrix = p.matrix.astype(float) if quantum else p.matrix
    eps = effective_tol("float64" if quantum else p.arithmetic, tol)
    blocks = (
        matrix.reshape(tuple(w.vdim for w in wires))
        .transpose(cout + cin + qout + qin)
        .reshape(dim(cout), dim(cin), dim(qout), dim(qin))
    )

    if not quantum:
        low = blocks.min()  # a 1x1 block is its own Choi eigenvalue
    elif np.isfinite(blocks).all():
        in_dims, out_dims = ([wires[i].hilbert_dim for i in group] for group in (qin, qout))
        low = np.linalg.eigvalsh(choi_of_transfer(blocks, in_dims, out_dims)).min()
    else:
        low = np.nan
    if not low >= -eps:
        return f"is not completely positive (lowest Choi eigenvalue {low})"

    u_out, u_in = (
        discard_effect(Signature(tuple(wires[i] for i in group))).matrix[0].astype(matrix.dtype)
        for group in (qout, qin)
    )
    gap = abs(np.tensordot(u_out, blocks.sum(axis=0), axes=(0, 1)) - u_in).max()
    if not gap <= eps:
        return f"is not discard-preserving (gap {gap})"
    return None


# -- the assemblage's own validator --------------------------------------------
# Dict-keyed loops over every element and every setting pair, separate from the
# channel checks that ``assemblage_to_channel`` now runs.

def validate_assemblage(asm: Assemblage, tol: float = 1e-9):
    """Positivity, normalization, and no-signalling across untrusted wings."""
    d = asm.trusted_dim
    for a in product(*[range(n) for n in asm.outcomes]):
        for x in product(*[range(n) for n in asm.settings]):
            rho = coords_to_density(asm.element(a, x), d)
            low = float(np.linalg.eigvalsh(rho).min())
            if low < -tol:
                raise InvalidAssemblage(
                    f"element a={a} x={x} has eigenvalue {low}"
                )
    for x in product(*[range(n) for n in asm.settings]):
        total = sum(
            np.trace(coords_to_density(asm.element(a, x), d)).real
            for a in product(*[range(n) for n in asm.outcomes])
        )
        if abs(total - 1) > tol:
            raise InvalidAssemblage(f"x={x}: total trace {total} != 1")
    # every nonempty wing set, the full one included: the trusted system
    # remains, so its marginal may not depend on any discarded setting
    m = asm.n_untrusted
    for mask in range(1, 2 ** m):
        wings = [i for i in range(m) if mask >> i & 1]
        seen: Dict[tuple, np.ndarray] = {}
        for x in product(*[range(n) for n in asm.settings]):
            marg = _marginal_over(asm, wings, x)
            context = tuple(v for i, v in enumerate(x) if i not in wings)
            key_settings = context
            for key_out, coords in marg.items():
                key = (key_settings, key_out)
                if key in seen:
                    if np.abs(seen[key] - coords).max() > tol:
                        raise InvalidAssemblage(
                            f"signalling across wings {set(w + 1 for w in wings)}"
                        )
                else:
                    seen[key] = coords


def _marginal_over(asm, wings, x):
    out: Dict[tuple, np.ndarray] = {}
    for a in product(*[range(n) for n in asm.outcomes]):
        key = tuple(v for i, v in enumerate(a) if i not in wings)
        coords = asm.element(a, x)
        if key in out:
            out[key] = out[key] + coords
        else:
            out[key] = coords.copy()
    return out


def oracle_assemblage_channel(asm, tol: float = 1e-9) -> MultipartiteChannel:
    """The encoding checked by ``validate_assemblage``, with the body placed
    element by element: column ravel(x), rows ravel(a) * d^2 onward hold
    sigma_{a|x}. No-signalling is decided by ``ns_report_oracle``, both at
    ``tol``. Raises InvalidAssemblage, or TypeMismatch on a non-finite table,
    which is no channel."""
    validate_assemblage(asm, tol)
    d = asm.trusted_dim
    wings = tuple(
        (classical(x), classical(a)) for x, a in zip(asm.settings, asm.outcomes)
    ) + ((UNIT, quantum(d)),)
    matrix = np.zeros((math.prod(asm.outcomes) * d * d, math.prod(asm.settings)))
    for x in product(*[range(n) for n in asm.settings]):
        col = ravel_index(x, asm.settings)
        for a in product(*[range(n) for n in asm.outcomes]):
            base = ravel_index(a, asm.outcomes) * d * d
            matrix[base:base + d * d, col] = asm.element(a, x)
    if not np.isfinite(matrix).all():
        raise TypeMismatch("the table holds a non-finite entry")
    body = LinearProcess(
        Signature(tuple(w for w, _ in wings)), Signature(tuple(w for _, w in wings)), matrix
    )
    channel = _prechecked(wings, body, QUANT)
    report = ns_report_oracle(channel, tol)
    if not report.verdict:
        raise InvalidAssemblage(f"encoded channel signals (residual {report.max_residual})")
    return channel


def unsteerable_table_oracle(p_table, rho) -> np.ndarray:
    """``assemblages.unsteerable_assemblage``'s table, one element at a time."""
    n_out, n_in = p_table.shape
    coords = density_to_coords(rho)
    table = np.zeros((n_out, n_in, coords.size))
    for a in range(n_out):
        for x in range(n_in):
            table[a, x] = float(p_table[a, x]) * coords
    return table


def pr_correlated_table_oracle(rho) -> np.ndarray:
    """``assemblages.pr_correlated_assemblage``'s table, one element at a time."""
    coords = density_to_coords(rho)
    table = np.zeros((2, 2, 2, 2, 4))
    for x, y, a, b in product(range(2), repeat=4):
        table[a, b, x, y] = (0.5 if (a ^ b) == (x & y) else 0.0) * coords
    return table


def op_equiv_oracle(gt, f, g, extra=None, depth=None, tol=None):
    """The tester search as a loop: every product span state against every
    product span effect, state-major, each pair composed and compared as a
    1x1 number; the first pair that differs is the witness. The spans are
    ``span_oracle``'s, built per theory without the shared caches."""
    depth = depth or gt.tester_depth
    f_in, f_out = gt.infer(f, extra)
    g_in, g_out = gt.infer(g, extra)
    if f_in.wires != g_in.wires or f_out.wires != g_out.wires:
        raise SignatureMismatch("operands have different signatures")
    fp = gt.eval(f, extra)
    gp = gt.eval(g, extra)

    state_sets = [span_oracle(gt, "state", w, depth)[0] for w in f_in]
    effect_sets = [span_oracle(gt, "effect", w, depth)[0] for w in f_out]
    # one tolerance for every pair: binary64 if any operand or tester is
    testers = [p for spans in (state_sets, effect_sets) for span in spans for _, p in span]
    exact_mode = all(p.arithmetic == RATIONAL for p in [fp, gp] + testers)
    tolerance = effective_tol(RATIONAL if exact_mode else "float64", tol)

    effects = [_par_fold(c) for c in product(*effect_sets)]
    for state_combo in product(*state_sets):
        s_term, s_proc = _par_fold(state_combo)
        fed_f = compose_seq(s_proc, fp) if s_proc is not None else fp
        fed_g = compose_seq(s_proc, gp) if s_proc is not None else gp
        for e_term, e_proc in effects:
            lhs = compose_seq(fed_f, e_proc) if e_proc is not None else fed_f
            rhs = compose_seq(fed_g, e_proc) if e_proc is not None else fed_g
            gap = max_abs_diff(lhs, rhs)
            if gap > tolerance:
                witness = TesterWitness(
                    s_term, e_term, lhs.as_scalar(), rhs.as_scalar()
                )
                return EquivResult(True, depth, witness)
    return EquivResult(False, depth)


def _par_fold(combo):
    if not combo:
        return None, None
    term, proc = combo[0]
    for t2, p2 in combo[1:]:
        term = Par(term, t2)
        proc = compose_par(proc, p2)
    return term, proc


# -- generated candidates by diagram evaluation -------------------------------
# One diagram per candidate, evaluated in full: the tester spans' contraction
# kernel in ``completion`` must give the same terms, in the same order, and the
# same values.

def _oracle_probes(gt, channel_id, leg, depth):
    """Binding names of the leg's probe states (the reference state, then at
    depth 2 the frame states of its input) and probe effects (the discard,
    then the frame effects of its output)."""
    w_in, w_out = gt.registered[channel_id].channel.wings[leg - 1]
    states = [f"ref:{w_in.id}"]
    effects = [f"dis:{w_out.id}"]
    if depth >= 2:
        states += [f"st:{w_in.id}:{l}" for l in range(len(gt.base.state_frame(w_in)))]
        effects += [f"ef:{w_out.id}:{j}" for j in range(len(gt.base.effect_frame(w_out)))]
    return states, effects


def leg_functionals_oracle(gt, channel_id, leg, depth):
    """Terms A_leg -> I from eta_leg with frame probes, states outer, every
    one built."""
    anc = gt.registered[channel_id].realization.ancilla_types[leg - 1]
    states, effects = _oracle_probes(gt, channel_id, leg, depth)
    eta = Leaf(f"eta{leg}:{channel_id}")
    return [
        Seq(Seq(Par(Leaf(s), Leaf(f"id:{anc.id}")), eta), Leaf(e))
        for s in states
        for e in effects
    ]


def leg_kernel_oracle(gt, channel_id, leg, depth):
    """The leg functionals as one process A_leg -> classical(n), built afresh
    for one theory from its bindings (its eta binding included): probe
    effects and then probe states mode-multiplied into the eta matrix."""
    entry = gt.registered[channel_id]
    anc = entry.realization.ancilla_types[leg - 1]
    w_in, w_out = entry.channel.wings[leg - 1]
    states, effects = _oracle_probes(gt, channel_id, leg, depth)
    s, e, eta = _operands(
        _stack(w_in, "state", [gt.bindings[n] for n in states]),
        _stack(w_out, "effect", [gt.bindings[n] for n in effects]),
        gt.bindings[f"eta{leg}:{channel_id}"],
    )
    probed = mode_product(_apply(eta, lambda a: a.reshape(w_out.vdim, w_in.vdim, -1)), e, 0)
    probed = mode_product(probed, _apply(s, np.transpose), 1)
    rows = _apply(probed, lambda a: a.transpose(1, 0, 2))
    return _made(sig(anc), sig(classical(len(states) * len(effects))), rows)


def kept_oracle(kind, stack, term):
    """The greedy leftmost-first maximal-rank candidates of a stack (its
    columns for "state", its rows otherwise), one rank test per candidate,
    as (term, process) pairs with every term and process built, and their
    own stack (None when there are none)."""
    values = _operand(stack)
    exact_mode = isinstance(values, tuple)
    matrix = values[0].astype(object) if exact_mode else values
    picks = list(_greedy_columns(matrix if kind == "state" else matrix.T, exact_mode))
    kept = tuple((term(j), _select(stack, kind, [j], EMPTY)) for j in picks)
    return kept, _select(stack, kind, picks, sig(classical(len(picks)))) if picks else None


def span_oracle(gt, kind, t, depth):
    """``kept_oracle`` of a wire's candidates, each stack built per theory:
    a base wire's frame; an ancilla's leg kernel, or xi mode-multiplied by
    every other leg's ``leg_kernel_oracle``, with terms in ``product``
    order."""
    if t.kind != EXTENSION:
        return kept_oracle(kind, *_frame_candidates(gt.base, kind, t))
    channel_id, wing = t.brand
    if kind == "effect":
        terms = leg_functionals_oracle(gt, channel_id, wing, depth)
        return kept_oracle(kind, leg_kernel_oracle(gt, channel_id, wing, depth), terms.__getitem__)
    m = gt.registered[channel_id].channel.m
    xi = gt.bindings[f"xi:{channel_id}"]
    legs = [leg for leg in range(1, m + 1) if leg != wing]
    kernels = [leg_kernel_oracle(gt, channel_id, leg, depth) for leg in legs]
    core, *ops = _operands(xi, *kernels)
    core = _apply(core, lambda a: a.reshape(xi.outputs.dims))
    for leg, op in zip(legs, ops):
        core = mode_product(core, op, leg - 1)
    rows = _apply(core, lambda a: np.moveaxis(a, wing - 1, -1).reshape(-1, t.vdim).T)
    stack = _made(sig(classical(math.prod(k.outputs.dim for k in kernels))), sig(t), rows)
    per_leg = [
        [Leaf(f"id:{t.id}")] if leg == wing else leg_functionals_oracle(gt, channel_id, leg, depth)
        for leg in range(1, m + 1)
    ]
    combos = list(product(*per_leg))
    return kept_oracle(kind, stack, lambda j: Seq(Leaf(f"xi:{channel_id}"), _oracle_par(combos[j])))


def _oracle_par(terms):
    out = terms[0]
    for t in terms[1:]:
        out = Par(out, t)
    return out


def state_candidates_oracle(gt, t, depth):
    """(term, value) of every generated state of a wire, each diagram
    evaluated on its own: frame states on a base wire; on an ancilla, xi with
    every other leg closed by one leg functional, in ``product`` order."""
    if t.kind != EXTENSION:
        names = [f"st:{t.id}:{l}" for l in range(len(gt.base.state_frame(t)))]
        return [(Leaf(n), gt.bindings[n]) for n in names]
    channel_id, wing = t.brand
    per_leg = [
        [Leaf(f"id:{t.id}")] if leg == wing else leg_functionals_oracle(gt, channel_id, leg, depth)
        for leg in range(1, gt.registered[channel_id].channel.m + 1)
    ]
    out = []
    for combo in product(*per_leg):
        term = Seq(Leaf(f"xi:{channel_id}"), _oracle_par(combo))
        out.append((term, gt.eval(term)))
    return out


def effect_candidates_oracle(gt, t, depth):
    """(term, value) of every generated effect of a wire, each evaluated."""
    if t.kind != EXTENSION:
        names = [f"ef:{t.id}:{j}" for j in range(len(gt.base.effect_frame(t)))]
        return [(Leaf(n), gt.bindings[n]) for n in names]
    channel_id, wing = t.brand
    return [(term, gt.eval(term)) for term in leg_functionals_oracle(gt, channel_id, wing, depth)]


def probe_discard_oracle(gt, ext_type):
    """Each base frame state of the wing's input beside the ancilla, into
    eta, then the output discard: the reference state's effect and the
    largest gap to it over the frame states."""
    channel_id, wing = ext_type.brand
    entry = gt.registered[channel_id]
    eta = entry.realization.etas[wing - 1]
    w_in, _ = entry.channel.wings[wing - 1]
    dis_out = discard_effect(eta.outputs)

    def probe(state_proc):
        front = compose_par(state_proc, identity(sig(ext_type)))
        return compose_seq(compose_seq(front, eta), dis_out)

    reference = probe(gt.base.reference_state(w_in))
    worst = 0
    for s in gt.base.state_frame(w_in):
        worst = max(worst, max_abs_diff(probe(s), reference))
    return reference, worst


def quotient_suite_oracle(gt, samples, rng, depth=None):
    """``quotient_suite`` with every closure run on the full sampled
    diagrams, each of a and b evaluated inside all three closures."""
    depth = depth or gt.tester_depth
    ids = sorted(gt.registered)
    extra = {}
    seq_failures = par_failures = mix_failures = 0
    base_terms = []
    for cid in ids:
        base_terms += [Leaf(f"eta{i}:{cid}") for i in range(1, gt.registered[cid].channel.m + 1)]
        base_terms.append(Leaf(f"xi:{cid}"))
        extra[f"recomp:{cid}"] = gt.eval(recomposition_term(gt, cid))
        base_terms.append(Leaf(f"recomp:{cid}"))
    for _ in range(samples):
        t = base_terms[int(rng.integers(0, len(base_terms)))]
        variants = _padded_variants(gt, t, extra)
        idx = rng.permutation(len(variants))[:2]
        a, b = variants[int(idx[0])], variants[int(idx[1])]
        _, outs = gt.infer(a, extra)
        ctx = _discard_term(gt, outs, extra)
        if ctx is not None:
            seq_failures += op_equiv(gt, Seq(a, ctx), Seq(b, ctx), extra, depth).distinguished
        pad = Leaf(_bind_shared_bit(gt))
        par_failures += op_equiv(gt, Par(a, pad), Par(b, pad), extra, depth).distinguished
        w = float(rng.random())
        mix = op_equiv(gt, Mix(w, a, variants[0]), Mix(w, b, variants[0]), extra, depth)
        mix_failures += mix.distinguished
    kernel_pairs, kernel_failures = _kernel_mixture_checks(gt, ids[0], rng, extra)
    return QuotientReport(
        pairs_checked=samples,
        seq_failures=seq_failures,
        par_failures=par_failures,
        mix_failures=mix_failures,
        kernel_pairs=kernel_pairs,
        kernel_failures=kernel_failures,
        negative_control=_planted_inequivalent(gt, ids[0], extra),
    )
