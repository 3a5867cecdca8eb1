"""Affine decomposition of non-signalling channels over product local frames,
and the packaged common-cause realization built from it.

The decomposition works wing by wing. Each wing gets a *local channel frame*:
a finite family of valid discard-preserving channels whose affine hull is the
whole discard-preserving subspace for that (input, output) pair. Tensoring
the per-wing frame pseudo-inverses gives the minimum-norm solution of

    channel = sum_k c_k  (x)_i  Phi_i^{j_i(k)},        sum_k c_k = 1,

exactly (rational mode) or in binary64. The coefficient sum is automatic:
every frame member is discard-preserving, so applying the output discard and
any normalized probe state to both sides forces sum c = 1 for *any* solution.

The realization packages the mixture as a correlated quasi-state ``xi`` on
fresh branded ancilla wires plus one controlled channel ``eta_i`` per wing:
``xi`` places coefficient c_k on the k-th diagonal point of the ancilla
product, and ``eta_i`` applies the k-th frame member when its ancilla reads
k. Recomposing ``(x)_i eta_i`` over ``xi`` reproduces the channel. Since
``xi`` is diagonal, its k coefficients are the stored state, and ``xi`` is
those coefficients followed by the classical copy map k -> k^m
(``procs.copy``, the "spider" of Coecke and Kissinger, *Picturing Quantum
Processes*). Reading its arithmetic or signatures, or binding it as a
diagram generator, builds nothing; the dense k^m vector is a deferred view,
built only when a diagram reads its matrix, and reading it above
``procs.DENSE_CAP`` entries raises ``TooLarge``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, product
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog

from . import exact
from .errors import (
    FrameDeficient,
    NotNonSignalling,
    ResidualTooLarge,
    SignatureMismatch,
)
from .nonsignalling import MultipartiteChannel, NSReport, check_nonsignalling
from .procs import (
    FLOAT64,
    RATIONAL,
    LinearProcess,
    add,
    compose_seq,
    copy,
    effective_tol,
    max_abs_diff,
    mode_product,
    scale,
)
from .theories import Theory, instrument_problem
from .wires import CLASSICAL, EMPTY, SystemType, classical, extension, interleave, sig

PRUNE = 1e-12

MIN_NORM = "min-norm"
MIN_NEGATIVITY = "min-negativity"


@dataclass(frozen=True)
class WingFrame:
    """Spanning family of valid local channels for one wing.

    ``retained`` indexes a leftmost-first maximal linearly independent
    subfamily; the solver works over retained members only, which makes the
    affine solution unique, while coefficients keep full-family indexing.
    """

    in_type: SystemType
    out_type: SystemType
    members: Tuple[LinearProcess, ...]
    retained: Tuple[int, ...] = ()

    def __post_init__(self):
        if not self.retained:
            kept = _independent_columns(self.matrix(as_float=not self.exact), self.exact)
            object.__setattr__(self, "retained", kept)

    def __len__(self):
        return len(self.members)

    @property
    def exact(self) -> bool:
        return all(m.arithmetic == RATIONAL for m in self.members)

    def matrix(self, as_float: bool = False) -> np.ndarray:
        cols = [m.matrix.reshape(-1) for m in self.members]
        out = np.stack(cols, axis=1)
        return out.astype(float) if as_float else out

    def retained_matrix(self, as_float: bool = False) -> np.ndarray:
        return self.matrix(as_float)[:, list(self.retained)]


def _independent_columns(matrix: np.ndarray, exact_mode: bool) -> Tuple[int, ...]:
    """Leftmost-first maximal linearly independent column subset: the pivots
    of one exact ``rref`` in rational mode, a greedy rank test at 1e-9 in
    binary64."""
    if exact_mode:
        return exact.independent_columns(matrix)
    kept: List[int] = []
    for j in range(matrix.shape[1]):
        if np.linalg.matrix_rank(matrix[:, kept + [j]], tol=1e-9) == len(kept) + 1:
            kept.append(j)
    return tuple(kept)


@dataclass(frozen=True)
class QuasiMixture:
    """Affine coefficients over tuples of per-wing frame indices."""

    terms: Tuple[Tuple[object, Tuple[int, ...]], ...]
    residual: object
    mode: str

    @property
    def coefficient_sum(self):
        return sum(c for c, _ in self.terms)

    def min_coefficient(self):
        return min(c for c, _ in self.terms)


@dataclass(frozen=True)
class TypeBrand:
    """Bookkeeping for one fresh ancilla type: who owns it and its carrier."""

    ext_type: SystemType
    channel_id: str
    wing: int
    carrier: int


@dataclass(frozen=True)
class CommonCauseRealization:
    """The shared state is ``coefficients``: c_k sits on the diagonal point
    (k, ..., k) of the ancilla product, one ancilla per wing, each of carrier
    ``len(coefficients)``. ``eta_i`` reads the k-th frame member off ancilla
    value k."""

    channel_id: str
    ancilla_types: Tuple[SystemType, ...]
    etas: Tuple[LinearProcess, ...]
    brands: Tuple[TypeBrand, ...]
    frame: Tuple[WingFrame, ...]
    coefficients: Tuple[object, ...]
    term_indices: Tuple[Tuple[int, ...], ...]

    @property
    def carrier_dim(self) -> int:
        return len(self.coefficients)

    @property
    def xi(self) -> LinearProcess:
        """The shared state as a process: the coefficients, a state on one
        k-dimensional classical wire, followed by the copy map onto the m
        ancillas. Its arithmetic and signatures need no dense build; the k^m
        vector (zero off the diagonal) is a deferred view, built when
        ``.matrix`` is read and refused with ``TooLarge`` above
        ``procs.DENSE_CAP``."""
        k = len(self.coefficients)
        dtype = object if _arithmetic(self) == RATIONAL else float
        c = LinearProcess(
            EMPTY, sig(classical(k)), np.array(self.coefficients, dtype=dtype).reshape(k, 1)
        )
        return compose_seq(c, copy(k, self.ancilla_types))


def _arithmetic(realization: CommonCauseRealization) -> str:
    """RATIONAL when the coefficients and every eta are exact."""
    exact = not any(isinstance(c, float) for c in realization.coefficients) and all(
        e.arithmetic == RATIONAL for e in realization.etas
    )
    return RATIONAL if exact else FLOAT64


def deterministic_frame(in_type: SystemType, out_type: SystemType) -> Tuple[LinearProcess, ...]:
    """All functions input point -> output point, as 0/1 channels."""
    n, p = in_type.vdim, out_type.vdim
    members = []
    # leftmost input point most significant
    for digits in product(range(p), repeat=n):
        m = np.zeros((p, n), dtype=object)
        for x, o in enumerate(digits):
            m[o, x] = 1
        members.append(LinearProcess(sig(in_type), sig(out_type), m))
    return tuple(members)


def measure_prepare_frame(
    theory: Theory, in_type: SystemType, out_type: SystemType
) -> Tuple[LinearProcess, ...]:
    """Two-outcome measure-and-prepare family over the theory frames."""
    ref = theory.reference_state(out_type)
    u = theory.discard(in_type)
    # rho -> e(rho) s is the effect e followed by the state s
    members = [compose_seq(u, ref)]
    for e in theory.effect_frame(in_type):
        for s in theory.state_frame(out_type):
            if max_abs_diff(s, ref) <= effective_tol(s.arithmetic):
                continue
            miss = compose_seq(add(u, scale(-1, e)), ref)
            members.append(add(compose_seq(e, s), miss))
    return tuple(members)


def local_channel_frame(
    theory: Theory, in_type: SystemType, out_type: SystemType
) -> WingFrame:
    """Pick the smaller of the deterministic or measure-prepare families for
    classical pairs, the measure-prepare family otherwise; verify the affine
    hull has the full discard-preserving dimension."""
    if in_type.kind == CLASSICAL and out_type.kind == CLASSICAL:
        det_size = out_type.vdim ** in_type.vdim
        mp_size = 1 + in_type.vdim * out_type.vdim
        if det_size <= mp_size:
            members = deterministic_frame(in_type, out_type)
        else:
            members = measure_prepare_frame(theory, in_type, out_type)
    else:
        members = measure_prepare_frame(theory, in_type, out_type)
    frame = WingFrame(in_type, out_type, members)
    _validate_frame(frame)
    return frame


def _validate_frame(frame: WingFrame):
    want = frame.out_type.vdim * frame.in_type.vdim - frame.in_type.vdim
    f = frame.matrix(as_float=not frame.exact)
    diffs = f[:, 1:] - f[:, [0]]
    if frame.exact:
        got = exact.rank(diffs)
    else:
        got = int(np.linalg.matrix_rank(diffs, tol=1e-9))
    if got != want:
        raise FrameDeficient(
            f"frame for {frame.in_type.id}->{frame.out_type.id} spans affine "
            f"dimension {got}, need {want}"
        )


def default_frames(channel: MultipartiteChannel) -> Tuple[WingFrame, ...]:
    return tuple(
        local_channel_frame(channel.theory, w_in, w_out)
        for w_in, w_out in channel.wings
    )


def _wing_major_tensor(channel: MultipartiteChannel) -> np.ndarray:
    """Reshape the body so axis i runs over wing i's (out, in) pairs."""
    t = np.transpose(channel.wing_tensor, interleave(channel.m))
    return t.reshape(tuple(o.vdim * i.vdim for i, o in channel.wings))


def _term_stack(frame: WingFrame, terms, wing: int) -> np.ndarray:
    """Each term's member for ``wing`` as an (out, in, term) array."""
    return np.stack([frame.members[idx[wing]].matrix for _, idx in terms], axis=-1)


def _recontraction_residual(channel, coefficients, stacks, exact_mode) -> object:
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


def decompose_quasimixture(
    channel: MultipartiteChannel,
    mode: str = MIN_NORM,
    frames: Optional[Sequence[WingFrame]] = None,
    tol: Optional[object] = None,
    ns_report: Optional[NSReport] = None,
) -> QuasiMixture:
    """Solve for affine coefficients over the product local frame.

    min-norm: the minimum-norm least-squares solution (deterministic, exact
    in rational mode). min-negativity: linear program minimizing sum |c_k|
    subject to reconstruction, solved in binary64.
    """
    if ns_report is None:
        ns_report = check_nonsignalling(channel, tol)
    if not ns_report.verdict:
        raise NotNonSignalling(
            f"max subset residual {ns_report.max_residual} exceeds tolerance"
        )
    if frames is None:
        frames = default_frames(channel)
    frames = tuple(frames)
    exact_mode = channel.body.arithmetic == RATIONAL and all(
        f.exact for f in frames
    )

    if mode == MIN_NORM:
        coeffs = _min_norm_coefficients(channel, frames, exact_mode)
    elif mode == MIN_NEGATIVITY:
        coeffs = _min_negativity_coefficients(channel, frames)
        exact_mode = False
    else:
        raise ValueError(f"unknown mode {mode!r}")
    tolerance = effective_tol(RATIONAL if exact_mode else "float64", tol)

    terms = _pruned_terms(coeffs, tuple(len(f) for f in frames), exact_mode)
    residual = reconstruction_residual(channel, frames, terms)
    if residual > tolerance:
        raise ResidualTooLarge(
            f"reconstruction residual {residual} with a full-rank frame"
        )
    return QuasiMixture(terms, residual, mode)


def _min_norm_coefficients(channel, frames, exact_mode) -> np.ndarray:
    """Unique affine solution over the retained (independent) sub-frames,
    scattered back into full-frame indexing."""
    tensor = _wing_major_tensor(channel)
    if not exact_mode:
        tensor = tensor.astype(float)
    for axis, frame in enumerate(frames):
        f = frame.retained_matrix(as_float=not exact_mode)
        # retained columns are independent, so the pseudo-inverse is (F^T F)^-1 F^T
        dual = exact.solve(f.T @ f, f.T) if exact_mode else np.linalg.pinv(f)
        tensor = mode_product(tensor, dual, axis)
    full = np.zeros(tuple(len(f) for f in frames), dtype=object if exact_mode else float)
    full[np.ix_(*(f.retained for f in frames))] = tensor
    return full.reshape(-1)


def _min_negativity_coefficients(channel, frames) -> np.ndarray:
    a = np.array([[1.0]])
    for frame in frames:
        a = np.kron(a, frame.matrix(as_float=True))
    b = _wing_major_tensor(channel).astype(float).reshape(-1)
    n = a.shape[1]
    a_eq = np.block([[a, -a], [np.ones((1, n)), -np.ones((1, n))]])
    b_eq = np.concatenate([b, [1.0]])
    cost = np.ones(2 * n)
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise ResidualTooLarge(f"negativity LP failed: {res.message}")
    coeffs = res.x[:n] - res.x[n:]
    # polish: least-squares refit on the LP support tightens the equality
    # constraints to machine precision without changing the support
    support = np.abs(coeffs) > 1e-10
    if support.any():
        sol, *_ = np.linalg.lstsq(a[:, support], b, rcond=None)
        polished = np.zeros(n)
        polished[support] = sol
        if np.abs(a @ polished - b).max() <= np.abs(a @ coeffs - b).max() + 1e-12:
            coeffs = polished
    return coeffs


def _pruned_terms(coeffs, frame_sizes, exact_mode):
    terms: List[Tuple[object, Tuple[int, ...]]] = []
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
        # keep the affine sum at exactly one; the touched coefficient moves
        # by at most the pruned mass
        big = max(range(len(terms)), key=lambda i: abs(terms[i][0]))
        c, idx = terms[big]
        terms[big] = (c + dropped, idx)
    return tuple(terms)


def reconstruction_residual(
    channel: MultipartiteChannel,
    frames: Sequence[WingFrame],
    terms: Sequence[Tuple[object, Tuple[int, ...]]],
) -> object:
    """Max-abs difference between sum_k c_k (x)_i member and the body.

    Each wing's chosen members are stacked along a term axis, as for the
    etas, and summed by ``_recontraction_residual``, the shared-k
    recontraction that ``verify_realization`` uses.
    """
    coefficients = [c for c, _ in terms]
    exact_mode = (
        channel.body.arithmetic == RATIONAL
        and all(f.exact for f in frames)
        and not any(isinstance(c, float) for c in coefficients)
    )
    stacks = [_term_stack(frame, terms, i) for i, frame in enumerate(frames)]
    return _recontraction_residual(channel, coefficients, stacks, exact_mode)


def negativity(qm: QuasiMixture):
    """Total negative mass; zero iff the mixture is a proper convex mixture."""
    return sum(max(-c, 0) for c, _ in qm.terms)


_fresh = count(1)


def build_realization(
    channel: MultipartiteChannel,
    qm: QuasiMixture,
    frames: Optional[Sequence[WingFrame]] = None,
    channel_id: Optional[str] = None,
) -> CommonCauseRealization:
    """Package a quasi-mixture as (coefficients, eta_1..eta_m) on branded
    ancillas; the coefficients are the diagonal shared state ``xi``."""
    if frames is None:
        frames = default_frames(channel)
    frames = tuple(frames)
    if channel_id is None:
        channel_id = f"ch{next(_fresh)}"
    k_terms = len(qm.terms)
    if k_terms == 0:
        raise ResidualTooLarge("empty quasi-mixture")
    exact_mode = all(not isinstance(c, float) for c, _ in qm.terms)

    ancillas = tuple(
        extension(channel_id, i + 1, k_terms) for i in range(channel.m)
    )
    brands = tuple(
        TypeBrand(a, channel_id, i + 1, k_terms) for i, a in enumerate(ancillas)
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
    return CommonCauseRealization(
        channel_id=channel_id,
        ancilla_types=ancillas,
        etas=tuple(etas),
        brands=brands,
        frame=frames,
        coefficients=tuple(c for c, _ in qm.terms),
        term_indices=tuple(idx for _, idx in qm.terms),
    )


def verify_realization(
    channel: MultipartiteChannel,
    realization: CommonCauseRealization,
    tol: Optional[object] = None,
) -> object:
    """Recontract the realization network and return the max-abs residual.

    This contraction path is independent of build_realization: it works from
    the coefficients and eta matrices alone. Every wing's ancilla reads the
    same index k of the diagonal state, so each eta_i is read as an
    (out_i, in_i, k) stack and ``_recontraction_residual`` contracts that
    shared k, never building the k^m dense ``xi``.
    """
    m = channel.m
    k = len(realization.coefficients)
    if len(realization.etas) != m or len(realization.ancilla_types) != m:
        raise SignatureMismatch("realization wing count differs from channel")
    for i, eta in enumerate(realization.etas):
        w_in, w_out = channel.wings[i]
        if eta.inputs.wires != (w_in, realization.ancilla_types[i]):
            raise SignatureMismatch(f"eta {i + 1} input signature mismatch")
        if eta.outputs.wires != (w_out,):
            raise SignatureMismatch(f"eta {i + 1} output signature mismatch")
    if any(a.vdim != k for a in realization.ancilla_types):
        raise SignatureMismatch("an ancilla carrier differs from the coefficient count")

    exact_mode = (
        _arithmetic(realization) == RATIONAL and channel.body.arithmetic == RATIONAL
    )

    stacks = [eta.matrix.reshape(eta.outputs.dim, -1, k) for eta in realization.etas]
    return _recontraction_residual(channel, realization.coefficients, stacks, exact_mode)
