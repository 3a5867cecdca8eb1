"""Concrete base theories embedded in real linear maps.

``STOCH`` is classical probability: wires are outcome spaces, channels are
column-stochastic matrices. ``QUANT`` adds quantum wires in trace-orthonormal
Hermitian coordinates (transfer matrices are real), with instrument-style
validity for classical/quantum hybrids.

Every validity predicate here (``stoch_valid``, ``quant_valid``,
``hybrid_valid``, ``Theory.valid``) is one call to ``instrument_problem``.
Its tolerance follows ``procs.effective_tol``, the one home of the rule:
with no quantum wire the process's own arithmetic decides (0 for rationals,
so exact processes are checked exactly; 1e-9 for binary64), and with a
quantum wire the check runs in binary64 at 1e-9. An explicit ``tol``
overrides both.

Basis convention (``gellmann-v1``), fixed bit-exactly for certificates: for
Hilbert dimension d the ordered basis is

    B_0 = I/sqrt(d),
    then (E_jk + E_kj)/sqrt(2)              for j < k in lexicographic order,
    then i(E_kj - E_jk)/sqrt(2)             for j < k in lexicographic order,
    then diag(1,..,1,-l,0,..,0)/sqrt(l(l+1)) for l = 1..d-1 (l leading ones).

All elements are Hermitian with tr(B_a B_b) = delta_ab. Composite wires use
tensor-product elements ordered mixed-radix, leftmost wire most significant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import UnknownType, WrongKind
from .procs import (
    _INT64_LIMIT,
    FLOAT64,
    RATIONAL,
    LinearProcess,
    _amax,
    _freeze,
    effect,
    effective_tol,
    numerators,
    state,
)
from .wires import CLASSICAL, EXTENSION, QUANTUM, Signature, SystemType

BASIS_CONVENTION = "gellmann-v1"


@lru_cache(maxsize=None)
def hermitian_basis(d: int) -> Tuple[np.ndarray, ...]:
    """Ordered trace-orthonormal Hermitian basis for Hilbert dimension d."""
    if d < 1:
        raise ValueError("Hilbert dimension must be >= 1")
    mats: List[np.ndarray] = [np.eye(d, dtype=complex) / math.sqrt(d)]
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = m[k, j] = 1 / math.sqrt(2)
            mats.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j / math.sqrt(2)
            m[k, j] = 1j / math.sqrt(2)
            mats.append(m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        for i in range(l):
            m[i, i] = 1
        m[l, l] = -l
        mats.append(m / math.sqrt(l * (l + 1)))
    for mat in mats:
        mat.flags.writeable = False
    return tuple(mats)


@lru_cache(maxsize=None)
def vec_basis_matrix(dims: Tuple[int, ...]) -> np.ndarray:
    """Columns are C-order flattenings of the composite Hermitian basis.

    Column a (mixed-radix over per-wire basis indices, leftmost wire most
    significant) holds vec of the tensor product of per-wire elements.
    """
    total = math.prod(dims) if dims else 1
    n = total * total
    cols = []
    for combo in iproduct(*[range(d * d) for d in dims]):
        m = np.array([[1.0 + 0j]])
        for d, a in zip(dims, combo):
            m = np.kron(m, hermitian_basis(d)[a])
        cols.append(m.reshape(n))
    u = np.array(cols, dtype=complex).T if cols else np.eye(1, dtype=complex)
    u.flags.writeable = False
    return u


def coords_to_density(coords: np.ndarray, d: int) -> np.ndarray:
    """Hermitian-coordinate vector -> d x d matrix."""
    basis = hermitian_basis(d)
    return sum(float(c) * b for c, b in zip(coords, basis))


def density_to_coords(rho: np.ndarray) -> np.ndarray:
    """d x d Hermitian matrix -> real coordinate vector of length d^2."""
    d = rho.shape[0]
    coords = np.array(
        [np.trace(b.conj().T @ rho) for b in hermitian_basis(d)]
    )
    if np.abs(coords.imag).max(initial=0.0) > 1e-10:
        raise ValueError("matrix is not Hermitian enough for real coordinates")
    return coords.real


def transfer_from_kraus(
    kraus: Sequence[np.ndarray], d_in: int, d_out: int
) -> np.ndarray:
    """Real transfer matrix of sum_k K rho K^dagger in the fixed bases."""
    basis_in = hermitian_basis(d_in)
    basis_out = hermitian_basis(d_out)
    t = np.zeros((d_out * d_out, d_in * d_in))
    for b, bin_el in enumerate(basis_in):
        image = sum(k @ bin_el @ k.conj().T for k in kraus)
        for a, bout_el in enumerate(basis_out):
            val = np.trace(bout_el.conj().T @ image)
            t[a, b] = val.real
    return t


def choi_of_transfer(
    transfer: np.ndarray, in_dims: Tuple[int, ...], out_dims: Tuple[int, ...]
) -> np.ndarray:
    """Choi matrix sum_kl E_kl (x) Phi(E_kl) reconstructed from a transfer
    matrix; leading axes of ``transfer`` are batch axes."""
    d_in = math.prod(in_dims) if in_dims else 1
    d_out = math.prod(out_dims) if out_dims else 1
    u_in = vec_basis_matrix(tuple(in_dims))
    u_out = vec_basis_matrix(tuple(out_dims))
    superop = u_out @ transfer.astype(complex) @ u_in.conj().T
    batch = transfer.shape[:-2]
    n = len(batch)
    choi = (
        superop.reshape(batch + (d_out, d_out, d_in, d_in))
        .transpose(tuple(range(n)) + (n + 2, n, n + 3, n + 1))
        .reshape(batch + (d_in * d_out, d_in * d_out))
    )
    return 0.5 * (choi + choi.swapaxes(-1, -2).conj())


def _wire_kinds(p: LinearProcess) -> set:
    return {w.kind for w in tuple(p.inputs) + tuple(p.outputs)}


def discard_row(t: SystemType) -> LinearProcess:
    """The unique deterministic effect for one wire.

    Classical (and extension carriers): all-ones row. Quantum: the trace
    functional, sqrt(d) on the B_0 coordinate.
    """
    if t.kind == QUANTUM:
        row = np.zeros(t.vdim)
        row[0] = math.sqrt(t.hilbert_dim)
        return effect(row, t, exact=False)
    return effect([1] * t.vdim, t)


def discard_effect(signature: Signature) -> LinearProcess:
    """Discard of a composite: parallel composition of per-wire discards."""
    from .procs import compose_par, number

    out = number(1)
    for w in signature:
        out = compose_par(out, discard_row(w))
    return out


@lru_cache(maxsize=None)
def _discard_vector(signature: Signature) -> np.ndarray:
    """``discard_effect(signature)``'s row in binary64, read-only, built once
    per signature. ``instrument_problem`` asks only for its quantum wire
    groups (most often the empty one), so few signatures are kept."""
    return _freeze(discard_effect(signature).matrix[0].astype(float))


def instrument_problem(p: LinearProcess, tol: Optional[float] = None) -> Optional[str]:
    """Why ``p`` is not a valid instrument, or None when it is one.

    The matrix is regrouped once into blocks indexed by (classical output a,
    classical input x), each a transfer matrix from the quantum inputs to the
    quantum outputs; extension carriers count as classical. ``p`` is valid
    when every block is completely positive and, for every x, the blocks
    summed over a preserve the discard. With no quantum wire the blocks are
    1x1 and this is column-stochasticity: entries >= 0, columns summing to 1.

    The tolerance is ``procs.effective_tol`` of the process's arithmetic with
    no quantum wire (0 for rationals: the check is exact) and of binary64
    with one (the Choi spectrum is computed in floats). Every comparison
    fails closed, so a NaN entry is never valid.
    """
    n_out = len(p.outputs)
    wires = tuple(p.outputs) + tuple(p.inputs)

    def axes(quantum: bool, inputs: bool) -> List[int]:
        return [
            i for i, w in enumerate(wires)
            if (w.kind == QUANTUM) == quantum and (i >= n_out) == inputs
        ]

    def dim(group: List[int]) -> int:
        return math.prod(wires[i].vdim for i in group)

    cout, cin, qout, qin = axes(False, False), axes(False, True), axes(True, False), axes(True, True)
    quantum = bool(qout or qin)
    eps = effective_tol(FLOAT64 if quantum else p.arithmetic, tol)
    if not quantum and p.arithmetic == RATIONAL:  # 1x1 blocks, read on the numerators
        num, den = numerators(p)
        low = Fraction(int(num.min()), den)
        if not low >= -eps:
            return f"is not completely positive (lowest Choi eigenvalue {low})"
        safe = _amax(num) * len(num) + den < _INT64_LIMIT  # the column sums fit in int64
        gap = Fraction(_amax(num.sum(axis=0, dtype=None if safe else object) - den), den)
        if not gap <= eps:
            return f"is not discard-preserving (gap {gap})"
        return None
    matrix = p.matrix.astype(float) if quantum else p.matrix
    blocks = (
        matrix.reshape(tuple(w.vdim for w in wires))
        .transpose(cout + cin + qout + qin)
        .reshape(dim(cout), dim(cin), dim(qout), dim(qin))
    )

    if not quantum:
        low = blocks.min()  # a 1x1 block is its own Choi eigenvalue
    elif np.isfinite(blocks).all():  # eigvalsh may return garbage, not NaN, on NaN input
        in_dims, out_dims = ([wires[i].hilbert_dim for i in group] for group in (qin, qout))
        low = np.linalg.eigvalsh(choi_of_transfer(blocks, in_dims, out_dims)).min()
    else:
        low = np.nan
    if not low >= -eps:
        return f"is not completely positive (lowest Choi eigenvalue {low})"

    u_out, u_in = (
        _discard_vector(Signature(tuple(wires[i] for i in group))) for group in (qout, qin)
    )
    gap = abs(np.tensordot(u_out, blocks.sum(axis=0), axes=(0, 1)) - u_in).max()
    if not gap <= eps:
        return f"is not discard-preserving (gap {gap})"
    return None


def stoch_valid(p: LinearProcess, tol: Optional[float] = None) -> bool:
    """Column-stochastic test: entries >= 0, columns summing to one."""
    if _wire_kinds(p) - {CLASSICAL}:
        raise WrongKind("stochastic validity applies to all-classical wires")
    return instrument_problem(p, tol) is None


def quant_valid(p: LinearProcess, tol: Optional[float] = None) -> bool:
    """Channel test for all-quantum wires: trace preserving and completely
    positive (Choi minimum eigenvalue >= -tol)."""
    if _wire_kinds(p) - {QUANTUM}:
        raise WrongKind("quantum validity applies to all-quantum wires")
    return instrument_problem(p, tol) is None


def hybrid_valid(p: LinearProcess, tol: Optional[float] = None) -> bool:
    """Instrument test for mixed classical/quantum wires; see
    ``instrument_problem``."""
    return instrument_problem(p, tol) is None


@dataclass(frozen=True)
class Theory:
    """A base theory: validity, discard, reference states and frames.

    Frames span the full coordinate space of each wire (local tomography),
    so spanning-state and spanning-effect families both have rank vdim.
    """

    name: str
    quantum_allowed: bool

    def contains(self, t: SystemType) -> bool:
        if t.kind == CLASSICAL:
            return True
        return t.kind == QUANTUM and self.quantum_allowed

    def _require(self, t: SystemType):
        if not self.contains(t):
            raise UnknownType(f"{self.name} does not serve wire {t!r}")

    def valid(self, p: LinearProcess, tol: Optional[float] = None) -> bool:
        kinds = _wire_kinds(p)
        if EXTENSION in kinds:
            raise WrongKind("extension wires are outside the base theory")
        if QUANTUM in kinds and not self.quantum_allowed:
            raise WrongKind(f"{self.name} has no quantum wires")
        return instrument_problem(p, tol) is None

    @lru_cache(maxsize=None)
    def discard(self, t: SystemType) -> LinearProcess:
        """``discard_row``, once per (theory, type); a refused type raises on every call."""
        self._require(t)
        return discard_row(t)

    @lru_cache(maxsize=None)
    def reference_state(self, t: SystemType) -> LinearProcess:
        """Uniform distribution / maximally mixed state; cached like ``discard``."""
        self._require(t)
        if t.kind == CLASSICAL:
            return state([Fraction(1, t.vdim)] * t.vdim, t)
        coords = np.zeros(t.vdim)
        coords[0] = 1 / math.sqrt(t.hilbert_dim)
        return state(coords, t, exact=False)

    def state_frame(self, t: SystemType) -> Tuple[LinearProcess, ...]:
        """Spanning states of ``t``: the point masses for a classical wire,
        the maximally mixed state then one state per traceless basis element
        for a quantum wire. Built once per (theory, type) and shared."""
        self._require(t)
        return _state_frame(self, t)

    def effect_frame(self, t: SystemType) -> Tuple[LinearProcess, ...]:
        """Spanning effects of ``t``: the point indicators for a classical
        wire, the discard then one effect per traceless basis element for a
        quantum wire. Built once per (theory, type) and shared."""
        self._require(t)
        return _effect_frame(self, t)


@lru_cache(maxsize=None)
def _state_frame(theory: Theory, t: SystemType) -> Tuple[LinearProcess, ...]:
    if t.kind == CLASSICAL:
        return tuple(
            state([1 if i == j else 0 for i in range(t.vdim)], t)
            for j in range(t.vdim)
        )
    d = t.hilbert_dim
    basis = hermitian_basis(d)
    frame = [theory.reference_state(t)]
    for a, b in enumerate(basis[1:], start=1):
        opnorm = float(np.abs(np.linalg.eigvalsh(b)).max())
        coords = np.zeros(t.vdim)
        coords[0] = 1 / math.sqrt(d)
        coords[a] = 1 / (d * opnorm)
        frame.append(state(coords, t, exact=False))
    return tuple(frame)


@lru_cache(maxsize=None)
def _effect_frame(theory: Theory, t: SystemType) -> Tuple[LinearProcess, ...]:
    if t.kind == CLASSICAL:
        return tuple(
            effect([1 if i == j else 0 for i in range(t.vdim)], t)
            for j in range(t.vdim)
        )
    d = t.hilbert_dim
    basis = hermitian_basis(d)
    frame = [theory.discard(t)]
    for a, b in enumerate(basis[1:], start=1):
        opnorm = float(np.abs(np.linalg.eigvalsh(b)).max())
        row = np.zeros(t.vdim)
        row[0] = math.sqrt(d) / 2
        row[a] = 1 / (2 * opnorm)
        frame.append(effect(row, t, exact=False))
    return tuple(frame)


STOCH = Theory("Stoch", quantum_allowed=False)
QUANT = Theory("Quant", quantum_allowed=True)


def embed_stochastic(m: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """Transfer matrix of the decohere-measure-prepare embedding of a
    column-stochastic matrix into quantum wires."""
    kraus = []
    for o in range(d_out):
        for i in range(d_in):
            k = np.zeros((d_out, d_in), dtype=complex)
            k[o, i] = math.sqrt(float(m[o, i]))
            kraus.append(k)
    return transfer_from_kraus(kraus, d_in, d_out)
