"""Shared random generators and independent oracles used across the suite.

Everything here is deliberately simple and separate from the library code
paths it is used to check.
"""

import math
from fractions import Fraction
from itertools import product
from typing import Dict, Sequence

import numpy as np

from quasicause import exact
from quasicause.assemblages import Assemblage
from quasicause.completion import (
    EquivResult,
    TesterWitness,
    effect_span,
    state_span,
)
from quasicause.decompose import _arithmetic
from quasicause.diagrams import Par
from quasicause.errors import InvalidAssemblage, SignatureMismatch, TypeMismatch
from quasicause.nonsignalling import (
    MultipartiteChannel,
    NSReport,
    SubsetCheck,
    check_nonsignalling,
    proper_subsets,
)
from quasicause.procs import (
    RATIONAL,
    LinearProcess,
    _as_rational,
    compose_par,
    compose_seq,
    effective_tol,
    identity,
    max_abs_diff,
    number,
    permutation,
)
from quasicause.theories import (
    QUANT,
    Theory,
    coords_to_density,
    discard_effect,
    hermitian_basis,
    vec_basis_matrix,
)
from quasicause.wires import (
    EMPTY,
    QUANTUM,
    UNIT,
    Signature,
    classical,
    interleave,
    quantum,
    ravel_index,
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


def dense_xi_oracle(realization):
    """The shared state built directly as a dense k^m vector on the ancilla
    product, zero off the diagonal (c_k at (k, ..., k))."""
    k, m = len(realization.coefficients), len(realization.ancilla_types)
    exact_mode = _arithmetic(realization) == RATIONAL
    vec = np.zeros((k,) * m, dtype=object if exact_mode else float)
    vec[(np.arange(k),) * m] = realization.coefficients
    return LinearProcess(EMPTY, Signature(realization.ancilla_types), vec.reshape(-1, 1))


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
    sigma_{a|x}. Raises InvalidAssemblage, or TypeMismatch from the channel."""
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
    body = LinearProcess(
        Signature(tuple(w for w, _ in wings)), Signature(tuple(w for _, w in wings)), matrix
    )
    channel = MultipartiteChannel(wings, body, QUANT)
    report = check_nonsignalling(channel, tol)
    if not report.verdict:
        raise InvalidAssemblage(f"encoded channel signals (residual {report.max_residual})")
    return channel


def op_equiv_oracle(gt, f, g, extra=None, depth=None, tol=None):
    """The tester search as a loop: every product span state against every
    product span effect, state-major, each pair composed and compared as a
    1x1 number; the first pair that differs is the witness."""
    depth = depth or gt.tester_depth
    f_in, f_out = gt.infer(f, extra)
    g_in, g_out = gt.infer(g, extra)
    if f_in.wires != g_in.wires or f_out.wires != g_out.wires:
        raise SignatureMismatch("operands have different signatures")
    fp = gt.eval(f, extra)
    gp = gt.eval(g, extra)
    tolerance = effective_tol(
        RATIONAL
        if fp.arithmetic == RATIONAL and gp.arithmetic == RATIONAL
        else "float64",
        tol,
    )

    state_sets = [state_span(gt, w, depth) for w in f_in]
    effect_sets = [effect_span(gt, w, depth) for w in f_out]

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
