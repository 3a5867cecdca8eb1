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
``xi`` is diagonal, its k coefficients are the stored state; the dense k^m
vector is a derived view, built only when a diagram needs it as a generator.
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
    effective_tol,
    max_abs_diff,
    scale,
)
from .theories import Theory, instrument_problem
from .wires import CLASSICAL, EMPTY, Signature, SystemType, extension, sig

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
        """Dense view of the shared state, built on each access: a k^m
        vector on the ancilla product, zero off the diagonal."""
        k, m = len(self.coefficients), len(self.ancilla_types)
        exact = _arithmetic(self) == RATIONAL
        vec = np.zeros((k,) * m, dtype=object if exact else float)
        vec[(np.arange(k),) * m] = self.coefficients
        return LinearProcess(EMPTY, Signature(self.ancilla_types), vec.reshape(-1, 1))


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
    out_dims = tuple(w.vdim for _, w in channel.wings)
    in_dims = tuple(w.vdim for w, _ in channel.wings)
    m = channel.m
    t = channel.body.matrix.reshape(out_dims + in_dims)
    order = []
    for i in range(m):
        order.extend([i, m + i])
    t = np.transpose(t, order)
    return t.reshape(tuple(o * i for o, i in zip(out_dims, in_dims)))


def _mode_product(tensor: np.ndarray, matrix: np.ndarray, axis: int) -> np.ndarray:
    moved = np.tensordot(matrix, tensor, axes=([1], [axis]))
    return np.moveaxis(moved, 0, axis)


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
        dual = exact.pinv(f) if exact_mode else np.linalg.pinv(f)
        tensor = _mode_product(tensor, dual, axis)
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
    """Max-abs difference between sum_k c_k (x)_i member and the body."""
    exact_mode = channel.body.arithmetic == RATIONAL and all(
        f.exact for f in frames
    )
    shape = channel.body.matrix.shape
    if exact_mode:
        total = np.zeros(shape, dtype=object)
    else:
        total = np.zeros(shape)
    for c, indices in terms:
        prod = np.array([[1]], dtype=object) if exact_mode else np.array([[1.0]])
        for frame, j in zip(frames, indices):
            member = frame.members[j].matrix
            if not exact_mode:
                member = member.astype(float)
            prod = np.kron(prod, member)
        total = total + c * prod
    body = channel.body.matrix if exact_mode else channel.body.matrix.astype(float)
    return abs(total - body).max()


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
        # stack the chosen members along a trailing ancilla axis, so column
        # x * k_terms + k holds column x of term k's member
        chosen = [frame.members[indices[i]].matrix for _, indices in qm.terms]
        mat = np.stack(chosen, axis=-1).reshape(w_out.vdim, w_in.vdim * k_terms)
        if not exact_mode:
            mat = mat.astype(float)
        eta = LinearProcess(sig(w_in, ancillas[i]), sig(w_out), mat)
        problem = instrument_problem(eta)
        if problem:
            raise ResidualTooLarge(f"eta for wing {i + 1} {problem}")
        etas.append(eta)

    total = sum(c for c, _ in qm.terms)
    if exact_mode:
        assert total == 1
    else:
        assert abs(total - 1) <= 1e-9
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
    same index k of the diagonal state, so each eta_i, as an (out_i, in_i, k)
    tensor, is multiplied into the running product along a shared k axis
    that is summed once at the end: O(k * D_in * D_out) entries, never the
    k^m dense ``xi``.
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

    def cast(a):
        return a if exact_mode else a.astype(float)

    tensor = np.array(realization.coefficients, dtype=object if exact_mode else float)
    for eta, (w_in, w_out) in zip(realization.etas, channel.wings):
        eta_t = cast(eta.matrix).reshape(w_out.vdim, w_in.vdim, k)
        # axes (o_1, x_1, ..., o_i, x_i, k) after this wing
        tensor = tensor[..., None, None, :] * eta_t
    tensor = tensor.sum(axis=-1)
    order = list(range(0, 2 * m, 2)) + list(range(1, 2 * m, 2))
    rebuilt = np.transpose(tensor, order).reshape(channel.body.matrix.shape)
    body = cast(channel.body.matrix)
    return abs(rebuilt - body).max()
