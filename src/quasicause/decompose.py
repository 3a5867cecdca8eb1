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

The mixture is its coefficient tensor, one axis per wing: entry
(j_1, ..., j_m) is the coefficient of the product of member j_i of each
wing's frame. The realization is that tensor in product form: it is ``xi``,
a quasi-state on one fresh branded ancilla per wing, ancilla i the type
``wires.extension(channel id, i, |F_i|)``, whose brand (channel id, i) is
all the ownership there is, and one controlled frame ``eta_i`` per wing
applies member j when its ancilla reads j. A realization keeps only ``xi``
and the etas: its ancillas are xi's output wires. Recomposing ``(x)_i
eta_i`` over ``xi`` reproduces the channel; recontraction is the Tucker
product of ``xi`` with the member matrices, ``check.tucker`` (on numerators
when exact), the kernel that certificate verification trusts; the min-norm
solve is the same kernel on the frames' duals.

A wing's frame depends only on the theory and the wing's (input, output)
types, never on the channel: ``local_channel_frame`` builds it once per
(theory, in, out) and every later call, for any channel, shares that one
object. Frames are immutable. A frame keeps its member matrices in one
form, integer numerators when every member is rational and binary64
otherwise, and derives everything else from it once (``WingFrame``). A
rational mixture is likewise its integer numerators: ``Fraction`` values
appear only in the ``coefficients`` and ``.matrix`` views, built when read.

Only the min-negativity mode needs an LP solver: HiGHS, through the bindings
scipy bundles (``scipy.optimize._highspy._core``, scipy >= 1.15), called
directly rather than through ``scipy.optimize.milp``, whose per-column Python
loops (one variable type in, one basis status out per column) cost about as
much as the solve itself. scipy, ``scipy.sparse`` included, loads on the first
min-negativity solve, inside ``_min_negativity_coefficients`` and the sparse
LP system it builds, and nowhere else: importing this module, the min-norm
mode, realization and verification never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import exact
from .check import (
    Ints,
    Operand,
    _apply,
    _canonical,
    _float_of,
    _int_matmul,
    _sum,
    _to_ints,
    recontraction_residual,
    tucker,
    wing_major,
)
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
    _binary64,
    _fractions,
    _freeze,
    _made,
    _operand,
    add,
    compose_seq,
    effective_tol,
    max_abs_diff,
    scale,
)
from .theories import Theory, instrument_problem
from .wires import CLASSICAL, EMPTY, Signature, SystemType, classical, extension, sig

PRUNE = 1e-12

MIN_NORM = "min-norm"
MIN_NEGATIVITY = "min-negativity"


@dataclass(frozen=True)
class WingFrame:
    """Spanning family of valid local channels for one wing.

    ``retained`` indexes a leftmost-first maximal linearly independent
    subfamily; the solver works over retained members only, which makes the
    affine solution unique, while coefficients keep full-family indexing.

    A frame keeps one form of its members: their matrices as the columns of
    one operand, ``Ints`` when every member is rational and binary64
    otherwise. Everything else (``retained``, the LP's independent rows,
    the exact and binary64 min-norm duals and the check of the controlled
    frame in each arithmetic) is derived from it on first use and kept on the
    instance, as read-only arrays.
    """

    in_type: SystemType
    out_type: SystemType
    members: Tuple[LinearProcess, ...]

    def __len__(self):
        return len(self.members)

    @cached_property
    def exact(self) -> bool:
        return all(m.arithmetic == RATIONAL for m in self.members)

    @cached_property
    def _columns(self) -> Operand:
        """One column per member, the member's matrix in C order: numerators
        over the lcm of the members' denominators if exact, else binary64."""
        if not self.exact:
            return _freeze(np.stack([_binary64(m).reshape(-1) for m in self.members], axis=1))
        forms = [_operand(m) for m in self.members]
        den = math.lcm(*(d for _, d in forms))
        num = np.stack([n.reshape(-1).astype(object) * (den // d) for n, d in forms], axis=1)
        return _apply(_canonical(num, den), _freeze)

    @cached_property
    def retained(self) -> Tuple[int, ...]:
        return _independent_columns(self._columns)

    @cached_property
    def lp_rows(self) -> Tuple[int, ...]:
        """Leftmost-first independent rows of the binary64 member matrix."""
        return _independent_columns(self.operands(binary64=True)[0].T)

    @cached_property
    def _exact_operands(self) -> Tuple[Ints, Ints]:
        num, den = self._columns
        f = num[:, list(self.retained)]
        # retained columns are independent, so the pseudo-inverse of f / den
        # is den (f^T f)^-1 f^T
        dual, dual_den = exact.solve(_int_matmul(f.T, f), f.T)
        return self._columns, _apply(_canonical(dual.astype(object) * den, dual_den), _freeze)

    @cached_property
    def _binary64_operands(self) -> Tuple[np.ndarray, np.ndarray]:
        f = _freeze(_float_of(self._columns))
        return f, _freeze(np.linalg.pinv(f[:, list(self.retained)]))

    def operands(self, binary64: bool = False) -> Tuple[Operand, Operand]:
        """The member matrix (one column per member) and the minimum-norm
        left inverse of its retained columns, as ``mode_product`` operands:
        ``Ints`` and the exact dual for an exact frame, else (or if
        ``binary64``) binary64 and the pseudo-inverse."""
        return self._binary64_operands if binary64 or not self.exact else self._exact_operands

    @cached_property
    def _eta_problem(self) -> Optional[str]:
        return _controlled_frame_problem(self, binary64=False)

    @cached_property
    def _float_eta_problem(self) -> Optional[str]:
        return _controlled_frame_problem(self, binary64=True)

    def eta_problem(self, binary64: bool = False) -> Optional[str]:
        """Why the controlled frame (member j applied when the control reads
        j) is not a valid instrument in that arithmetic, or None."""
        return self._float_eta_problem if binary64 else self._eta_problem


def _controlled_frame_problem(frame: WingFrame, binary64: bool) -> Optional[str]:
    """``instrument_problem`` of the eta-shaped matrix, whose column
    x * |F| + j is column x of member j, on a classical control of |F|
    points: the test a branded ancilla of that carrier gets, since extension
    carriers count as classical there."""
    control = classical(len(frame))
    eta = _made(sig(frame.in_type, control), sig(frame.out_type), frame.operands(binary64)[0])
    return instrument_problem(eta)


def _independent_columns(x: Operand) -> Tuple[int, ...]:
    """Leftmost-first maximal linearly independent column subset: the pivots
    of one exact elimination (``exact._eliminate``) of a rational operand's
    numerators, which pivot like the matrix; in binary64, rank tests at 1e-9
    in blocks of at most twice as many columns as rows. Trial b of a block
    holds the columns kept so far and the block's columns 0..b, the rest
    zeroed, and one batched ``matrix_rank`` ranks every trial: where the rank
    steps up, the column is kept. The scan stops at full row rank, so a block
    holds at most rows x 3 rows x 2 rows entries however many columns come."""
    if isinstance(x, tuple):
        return exact.independent_columns(x[0])
    rows, cols = x.shape
    kept: List[int] = []
    start = 0
    while start < cols and len(kept) < rows:  # at full row rank no later column is independent
        block = x[:, start:start + 2 * rows]
        width = block.shape[1]
        trials = np.zeros((width, rows, len(kept) + width))
        trials[:, :, :len(kept)] = x[:, kept]
        trials[:, :, len(kept):] = np.where(np.tri(width, dtype=bool)[:, None, :], block, 0.0)
        ranks = np.linalg.matrix_rank(trials, tol=1e-9)
        kept += (start + np.flatnonzero(np.diff(ranks, prepend=len(kept)))).tolist()
        start += width
    return tuple(kept)


@dataclass(frozen=True, eq=False)
class QuasiMixture:
    """The affine mixture as its coefficient tensor: entry (j_1, ..., j_m),
    axis i of length |F_i|, weighs the product of member j_i of each wing's
    frame. ``tensor`` is an operand, read-only: canonical ``Ints`` in
    rational mode, binary64 otherwise. An object array of ints and
    ``Fraction``s is converted to ``Ints`` once, when the mixture is made.
    ``build_realization`` makes the tensor ``xi``.

    ``coefficients`` is the tensor as values, a read-only view built on first
    read (ints when the denominator is 1, ``Fraction``s otherwise, in
    rational mode); ``terms``, (coefficient, index tuple) pairs, are its
    nonzero entries in C order. ``terms``, ``coefficient_sum``,
    ``min_coefficient`` and ``negativity`` read the numerators, and build no
    ``Fraction`` but the values they return."""

    tensor: Operand
    residual: object
    mode: str

    def __post_init__(self):
        x = self.tensor
        if isinstance(x, tuple):
            x = _canonical(*x)
        elif x.dtype == object:
            try:
                x = _to_ints(x)
            except AttributeError as err:
                raise TypeError("rational coefficients hold a non-rational entry") from err
        else:
            x = np.asarray(x, dtype=float)
        object.__setattr__(self, "tensor", _apply(x, _freeze))

    @property
    def exact(self) -> bool:
        return isinstance(self.tensor, tuple)

    @cached_property
    def coefficients(self) -> np.ndarray:
        return _freeze(_fractions(*self.tensor)) if self.exact else self.tensor

    @cached_property
    def terms(self) -> Tuple[Tuple[object, Tuple[int, ...]], ...]:
        if not self.exact:
            return nonzero_entries(self.tensor)
        num, den = self.tensor
        return tuple((n if den == 1 else Fraction(n, den), idx) for n, idx in nonzero_entries(num))

    @property
    def coefficient_sum(self):
        if not self.exact:
            return sum(c for c, _ in self.terms)
        return _sum(self.tensor)

    def min_coefficient(self):
        if not self.exact:
            return min(c for c, _ in self.terms)
        num, den = self.tensor
        least = int(num[num != 0].min())
        return least if den == 1 else Fraction(least, den)


def nonzero_entries(tensor: np.ndarray) -> Tuple[Tuple[object, Tuple[int, ...]], ...]:
    """Each nonzero entry of ``tensor`` with its index tuple, in C order, as
    a Python scalar."""
    nonzero = np.nonzero(tensor)
    return tuple(zip(tensor[nonzero].tolist(), zip(*(axis.tolist() for axis in nonzero))))


@dataclass(frozen=True)
class CommonCauseRealization:
    """The shared quasi-state ``xi`` and the controlled frames ``eta_i``.

    ``xi`` is the mixture's coefficient tensor as a state on one ancilla per
    wing, of carrier |F_i|. ``eta_i`` maps (in_i, ancilla_i) to out_i; its
    column x * |F_i| + j is column x of member j. The ancillas are xi's
    output wires, and the channel id is the first part of their brand."""

    xi: LinearProcess
    etas: Tuple[LinearProcess, ...]

    @property
    def ancilla_types(self) -> Tuple[SystemType, ...]:
        return self.xi.outputs.wires

    @property
    def channel_id(self) -> str:
        return self.ancilla_types[0].brand[0]

    @property
    def arithmetic(self) -> str:
        """RATIONAL when xi and every eta are exact."""
        parts = (self.xi,) + tuple(self.etas)
        return RATIONAL if all(p.arithmetic == RATIONAL for p in parts) else FLOAT64


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


@lru_cache(maxsize=None)
def local_channel_frame(
    theory: Theory, in_type: SystemType, out_type: SystemType
) -> WingFrame:
    """Pick the smaller of the deterministic or measure-prepare families for
    classical pairs, the measure-prepare family otherwise; verify the affine
    hull has the full discard-preserving dimension. Built once per (theory,
    in, out) and shared; ``__wrapped__`` builds a fresh one."""
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
    f = frame.operands()[0]
    if frame.exact:  # the numerators, over one positive denominator
        num = f[0].astype(object)
        got = exact.rank(num[:, 1:] - num[:, [0]])
    else:
        got = int(np.linalg.matrix_rank(f[:, 1:] - f[:, [0]], tol=1e-9))
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


def _wing_major_tensor(channel: MultipartiteChannel, binary64: bool = False) -> Operand:
    """The body with axis i over wing i's (out, in) pairs (in binary64 if ``binary64``)."""
    body = channel.body
    return wing_major(_operand(body, binary64=binary64), body.outputs.dims, body.inputs.dims)


def _recontraction_residual(channel, core: Operand, factors: Sequence[Operand]) -> object:
    """Max-abs difference between the body and ``check.tucker`` of ``core``
    with ``factors``: the core has one axis per wing, and factors[i], of shape
    (out_i * in_i, core.shape[i]), holds wing i's member matrices as columns.
    Rational when every operand is, binary64 otherwise."""
    return recontraction_residual(core, factors, _wing_major_tensor(channel))


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
    subject to reconstruction, solved in binary64 on one row per unit of
    rank: the products of each wing's independent frame rows, with no
    explicit sum-to-one row, which is the same problem because those rows
    span every row of the product frame and the discard-preserving frames
    make sum c = 1 a consequence of them.

    Either way the result is accepted only if it rebuilds the whole body
    within the tolerance; otherwise ``ResidualTooLarge``. That check is what
    rejects frames whose affine hull misses the body, and float bodies that
    are only nearly consistent.
    """
    if ns_report is None:
        ns_report = check_nonsignalling(channel, tol)
    if not ns_report.verdict:
        raise NotNonSignalling(
            f"single-wing residual {ns_report.max_residual} exceeds tolerance "
            f"{ns_report.tolerance}"
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
    tolerance = effective_tol(RATIONAL if exact_mode else FLOAT64, tol)

    if not exact_mode:
        coeffs = _pruned(coeffs)
    factors = [f.operands(not exact_mode)[0] for f in frames]
    residual = _recontraction_residual(channel, coeffs, factors)
    if residual > tolerance:
        raise ResidualTooLarge(
            f"reconstruction residual {residual} exceeds tolerance {tolerance}"
        )
    return QuasiMixture(coeffs, residual, mode)


def _min_norm_coefficients(channel, frames, exact_mode) -> Operand:
    """Unique affine solution over the retained (independent) sub-frames,
    scattered back into the full frame-shaped tensor (an operand)."""
    tensor = tucker(_wing_major_tensor(channel), [f.operands(not exact_mode)[1] for f in frames])
    num = tensor[0] if exact_mode else tensor
    full = np.zeros(tuple(len(f) for f in frames), dtype=num.dtype)
    full[np.ix_(*(f.retained for f in frames))] = num
    return (full, tensor[1]) if exact_mode else full


def _min_negativity_coefficients(channel, frames) -> np.ndarray:
    """Minimize sum |c_k| subject to (x)_i F_i[r_i] c = body[r_1, ..., r_m].

    F_i is wing i's frame matrix, one row per (out, in) pair, and r_i its
    leftmost-first independent rows. The rows of the product of the r_i
    span the row space of (x)_i F_i, so on a consistent body this reduced
    system has the same feasible set as the full one, with one row per unit
    of rank; and because every frame member is discard-preserving, the
    all-ones row (sum c = 1) lies in that row space too and needs no row of
    its own. The system has full row rank, so every body is feasible here; a
    body that the frames cannot reach, or a float body that is only nearly
    consistent, is caught by the full-body residual check after it.

    HiGHS solves it by dual simplex with presolve off, the prebuilt sparse
    system of ``_lp_matrices`` passed as it is (unit costs, columns in
    [0, inf), rows fixed at the body) to a fresh solver per call, through
    scipy's bundled bindings. ``scipy.optimize.milp`` would hand HiGHS the
    same model and options, so the same vertex, but loops in Python once per
    column to build integrality types and to read basis statuses for
    marginals it discards. The solution is then polished on its support:
    re-solved by LU when the support is a square nonsingular basis (the
    usual vertex), by least squares otherwise.

    scipy (``scipy.sparse`` too, in ``_lp_matrices``) is imported here, on
    the first min-negativity solve, and nowhere else in the package: a
    process that solves no LP never loads it.
    """
    from scipy.linalg import qr
    from scipy.optimize._highspy import _core as highs

    a, a_eq = _lp_matrices(frames)
    rows = [frame.lp_rows for frame in frames]
    b = _wing_major_tensor(channel, binary64=True)[np.ix_(*rows)].reshape(-1)
    n = a.shape[1]
    # the array form of passModel reads numpy arrays without a per-entry
    # conversion (filling a HighsLp's fields instead, entry by entry, is
    # four times slower at m = 4) and copies them into HiGHS, so the cached
    # read-only system is passed as it is: costs, column bounds, row bounds,
    # the CSC matrix and all-continuous integrality
    width = 2 * n
    solver = highs._Highs()
    solver.setOptionValue("output_flag", False)
    solver.setOptionValue("presolve", "off")
    solver.passModel(width, len(b), a_eq.nnz, highs.MatrixFormat.kColwise, highs.ObjSense.kMinimize, 0.0,
                     np.ones(width), np.zeros(width), np.full(width, np.inf), b, b,
                     a_eq.indptr, a_eq.indices, a_eq.data, np.zeros(width, dtype=np.int32))
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        raise ResidualTooLarge(f"negativity LP failed: {solver.modelStatusToString(status)}")
    values = np.array(solver.getSolution().col_value)
    coeffs = values[:n] - values[n:]
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
            q, _, kept = qr(a[:, support].toarray(), mode="economic", pivoting=True)
            q, rest = q[:, :rank], np.setdiff1d(np.arange(n), support)
            others = a[:, rest].toarray()
            _, added = qr(others - q @ (q.T @ others), mode="r", pivoting=True)
            basis = np.concatenate([support[kept[:rank]], rest[added[:len(b) - rank]]])
            polished = min(polished, refit(basis)[0], key=misfit)
        if misfit(polished) <= misfit(coeffs) + 1e-12:
            coeffs = polished
    return coeffs.reshape(tuple(len(f) for f in frames))


@lru_cache(maxsize=4)
def _lp_matrices(frames: Tuple[WingFrame, ...]) -> tuple:
    """The LP's product of each frame's independent rows, ``a``, and its
    equality matrix [a, -a]: c = x[:n] - x[n:] with x >= 0, so sum(x) is
    sum |c| at the optimum. Both are CSC matrices built by
    ``scipy.sparse.kron`` of the frames' rows, so no dense product is ever
    made, with read-only ``data``, ``indices`` and ``indptr``. Kept for the
    last few frame tuples."""
    from scipy.sparse import csc_array, hstack, kron

    a = csc_array(np.ones((1, 1)))
    for frame in frames:
        a = kron(a, csc_array(frame.operands(binary64=True)[0][list(frame.lp_rows)]), format="csc")
    a_eq = hstack([a, -a], format="csc")
    for matrix in (a, a_eq):
        for arr in (matrix.data, matrix.indices, matrix.indptr):
            _freeze(arr)
    return a, a_eq


def _pruned(coeffs: np.ndarray) -> np.ndarray:
    """The binary64 coefficients with every entry of magnitude at most
    ``PRUNE`` set to zero, and the pruned mass, summed in C order, added to
    the first entry of largest magnitude."""
    small = np.abs(coeffs) <= PRUNE
    # cumsum adds in C order, one entry at a time
    dropped = np.cumsum(coeffs[small])[-1] if small.any() else 0
    pruned = np.where(small, 0.0, coeffs)
    if dropped and not small.all():
        # keep the affine sum at exactly one; the touched coefficient moves
        # by at most the pruned mass
        pruned.flat[np.argmax(np.abs(pruned))] += dropped
    return pruned


def reconstruction_residual(
    channel: MultipartiteChannel,
    frames: Sequence[WingFrame],
    terms: Sequence[Tuple[object, Tuple[int, ...]]],
) -> object:
    """Max-abs difference between sum_k c_k (x)_i member and the body: the
    terms added into a coefficient tensor, recontracted with each frame's
    member matrix. Rational when the frames and every coefficient are."""
    sizes = tuple(len(f) for f in frames)
    exact_mode = all(f.exact for f in frames) and not any(
        isinstance(c, float) for c, _ in terms
    )
    core = np.zeros(sizes, dtype=object if exact_mode else float)
    for c, idx in terms:
        if len(idx) != len(sizes) or not all(0 <= j < n for j, n in zip(idx, sizes)):
            raise SignatureMismatch(f"term index {idx} is outside frames of sizes {sizes}")
        core[idx] += c
    factors = [f.operands(not exact_mode)[0] for f in frames]
    return _recontraction_residual(channel, _to_ints(core) if exact_mode else core, factors)


def negativity(qm: QuasiMixture):
    """Total negative mass; zero iff the mixture is a proper convex mixture."""
    if qm.exact:
        num, den = qm.tensor
        return _sum((np.maximum(-num, 0), den))
    return sum(max(-c, 0) for c, _ in qm.terms)


def build_realization(
    channel: MultipartiteChannel,
    qm: QuasiMixture,
    frames: Optional[Sequence[WingFrame]] = None,
    channel_id: Optional[str] = None,
) -> CommonCauseRealization:
    """Package a quasi-mixture in product form: its coefficient tensor as
    ``xi`` on branded ancillas of carrier |F_i|, each wing's frame as its
    controlled channel ``eta_i``, in the tensor's arithmetic. Every frame
    member must be a valid channel, whether or not the mixture weights it.
    With no ``channel_id``, the brands name the channel by ``ch`` and the
    first 12 hex digits of its file's digest, so one channel gets one id."""
    if frames is None:
        frames = default_frames(channel)
    frames = tuple(frames)
    exact_mode, sizes = qm.exact, tuple(map(len, frames))
    shape = (qm.tensor[0] if exact_mode else qm.tensor).shape
    if shape != sizes:
        raise SignatureMismatch(f"coefficients of shape {shape} on frames of sizes {sizes}")
    if channel_id is None:
        from .serialize import channel_digest, channel_to_json  # serialize imports this module

        channel_id = "ch" + channel_digest(channel_to_json(channel)).partition(":")[2][:12]

    ancillas = tuple(extension(channel_id, i, len(f)) for i, f in enumerate(frames, start=1))

    etas = []
    for i, ((w_in, w_out), frame) in enumerate(zip(channel.wings, frames)):
        # column x * |F_i| + j holds column x of member j
        problem = frame.eta_problem(binary64=not exact_mode)
        if problem:
            raise ResidualTooLarge(f"eta for wing {i + 1} {problem}")
        etas.append(_made(sig(w_in, ancillas[i]), sig(w_out), frame.operands(not exact_mode)[0]))

    total = qm.coefficient_sum
    if not (total == 1 if exact_mode else abs(total - 1) <= effective_tol(FLOAT64)):
        raise ResidualTooLarge(f"coefficients sum to {total}, not 1")
    xi = _made(EMPTY, Signature(ancillas), qm.tensor)
    return CommonCauseRealization(xi, tuple(etas))


def verify_realization(
    channel: MultipartiteChannel,
    realization: CommonCauseRealization,
    tol: Optional[object] = None,
) -> object:
    """Recontract the realization network and return the max-abs residual.

    This contraction path is independent of build_realization: it works from
    ``xi`` and the eta matrices alone. ``xi`` must be a state with one
    ancilla per wing and eta_i must map (in_i, ancilla i) to out_i. Each
    eta_i, read as an (out_i * in_i, carrier_i) matrix, is wing i's factor,
    and ``xi``, reshaped to one axis per ancilla, is the core.
    """
    xi, etas = realization.xi, realization.etas
    ancillas = xi.outputs.wires
    if xi.inputs.wires or len(ancillas) != channel.m:
        raise SignatureMismatch("xi is not a state on one ancilla per wing")
    if len(etas) != channel.m:
        raise SignatureMismatch("realization wing count differs from channel")
    for i, (eta, (w_in, w_out), anc) in enumerate(zip(etas, channel.wings, ancillas), start=1):
        if eta.inputs.wires != (w_in, anc) or eta.outputs.wires != (w_out,):
            raise SignatureMismatch(f"eta {i} does not map (in {i}, ancilla {i}) to out {i}")

    factors = [
        _operand(eta, (eta.outputs.dim * w_in.vdim, anc.vdim))
        for eta, (w_in, _), anc in zip(etas, channel.wings, ancillas)
    ]
    return _recontraction_residual(channel, _operand(xi, xi.outputs.dims), factors)
