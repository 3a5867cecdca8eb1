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

The basis convention (``gellmann-v1``, ``check.hermitian_basis``) is fixed
bit-exactly for certificates, and the instrument test itself is
``check.instrument_problem`` on the raw matrix: the trusted checker holds
both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from . import check
from .check import hermitian_basis
from .errors import UnknownType, WrongKind
from .procs import LinearProcess, _operand, effect, state
from .wires import CLASSICAL, EXTENSION, QUANTUM, Signature, SystemType


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


def instrument_problem(p: LinearProcess, tol: Optional[float] = None) -> Optional[str]:
    """Why ``p`` is not a valid instrument, or None when it is one:
    ``check.instrument_problem`` on its integer form or binary64 matrix.
    Extension carriers count as classical wires. The tolerance is
    ``procs.effective_tol`` of the process's arithmetic with no quantum wire
    (0 for rationals: the check is exact) and of binary64 with one (the Choi
    spectrum is computed in floats).
    """
    def wires(s: Signature):
        return [(w.vdim, w.hilbert_dim if w.kind == QUANTUM else None) for w in s]

    return check.instrument_problem(_operand(p), wires(p.outputs), wires(p.inputs), tol)


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
