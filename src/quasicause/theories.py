"""Concrete base theories embedded in real linear maps.

Wire kinds are data: ``_WIRES`` maps each kind to the builder of a wire's
discard row, reference state and frames. Classical wires are outcome spaces;
quantum wires carry trace-orthonormal Hermitian coordinates, so transfer
matrices are real. A ``Theory`` is the set of kinds it serves: ``STOCH`` is
{classical}, with column-stochastic channels, and ``QUANT`` is {classical,
quantum}, with instrument-style validity for classical/quantum hybrids.

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
from functools import lru_cache, reduce
from typing import Optional, Sequence, Tuple

import numpy as np

from . import check
from .check import hermitian_basis
from .errors import UnknownType, WrongKind
from .procs import LinearProcess, _operand, compose_par, effect, number, state
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


# A wire's discard row, reference state, state frame and effect frame.
WireKit = Tuple[LinearProcess, LinearProcess, Tuple[LinearProcess, ...], Tuple[LinearProcess, ...]]


def _classical_wire(t: SystemType) -> WireKit:
    """The all-ones row, the uniform distribution, the point masses and the
    point indicators."""
    points = [[1 if i == j else 0 for i in range(t.vdim)] for j in range(t.vdim)]
    return (
        effect([1] * t.vdim, t),
        state([Fraction(1, t.vdim)] * t.vdim, t),
        tuple(state(p, t) for p in points),
        tuple(effect(p, t) for p in points),
    )


def _quantum_wire(t: SystemType) -> WireKit:
    """The trace functional (sqrt(d) on B_0) and the maximally mixed state,
    each first in its frame, then per traceless basis element B_a the state
    I/d + B_a/(d |B_a|) and the effect (I + B_a/|B_a|)/2, with |B_a| the
    operator norm."""
    d = t.hilbert_dim
    trace = np.zeros(t.vdim)
    trace[0] = math.sqrt(d)
    mixed = np.zeros(t.vdim)
    mixed[0] = 1 / math.sqrt(d)
    states = [state(mixed, t, exact=False)]
    effects = [effect(trace, t, exact=False)]
    for a, b in enumerate(hermitian_basis(d)[1:], start=1):
        opnorm = float(np.abs(np.linalg.eigvalsh(b)).max())
        coords = mixed.copy()
        coords[a] = 1 / (d * opnorm)
        states.append(state(coords, t, exact=False))
        row = trace / 2
        row[a] = 1 / (2 * opnorm)
        effects.append(effect(row, t, exact=False))
    return effects[0], states[0], tuple(states), tuple(effects)


_WIRES = {CLASSICAL: _classical_wire, QUANTUM: _quantum_wire}


def discard_row(t: SystemType) -> LinearProcess:
    """The unique deterministic effect for one wire, from its kind's builder;
    extension carriers take the classical one (the all-ones row)."""
    return _WIRES.get(t.kind, _classical_wire)(t)[0]


def discard_effect(signature: Signature) -> LinearProcess:
    """Discard of a composite: parallel composition of per-wire discards."""
    return reduce(compose_par, map(discard_row, signature), number(1))


def instrument_problem(p: LinearProcess, tol: Optional[float] = None) -> Optional[str]:
    """Why ``p`` is not a valid instrument, or None when it is one:
    ``check.instrument_problem`` on its integer form or binary64 matrix.
    Extension carriers count as classical wires. The tolerance is
    ``procs.effective_tol`` of the process's arithmetic with no quantum wire
    (0 for rationals: the check is exact) and of binary64 with one (the Choi
    spectrum is computed in floats).
    """
    outs, ins = ([(w.vdim, w.hilbert_dim) for w in s] for s in (p.outputs, p.inputs))
    return check.instrument_problem(_operand(p), outs, ins, tol)


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
    """A base theory: the set of wire ``kinds`` it serves. ``valid`` is the
    instrument test on processes with wires of those kinds only. A served
    wire's discard, reference state and frames are its kit from ``_WIRES``,
    built once per (theory, type) and shared; other kinds raise UnknownType.

    Frames span the full coordinate space of each wire (local tomography),
    so spanning-state and spanning-effect families both have rank vdim.
    """

    name: str
    kinds: frozenset

    def contains(self, t: SystemType) -> bool:
        return t.kind in self.kinds

    def valid(self, p: LinearProcess, tol: Optional[float] = None) -> bool:
        kinds = _wire_kinds(p)
        if EXTENSION in kinds:
            raise WrongKind("extension wires are outside the base theory")
        if kinds - self.kinds:
            raise WrongKind(f"{self.name} has no {' or '.join(sorted(kinds - self.kinds))} wires")
        return instrument_problem(p, tol) is None

    @lru_cache(maxsize=None)
    def _wire(self, t: SystemType) -> WireKit:
        """``t``'s kit; a refused type raises on every call."""
        if not self.contains(t):
            raise UnknownType(f"{self.name} does not serve wire {t!r}")
        return _WIRES[t.kind](t)

    def discard(self, t: SystemType) -> LinearProcess:
        return self._wire(t)[0]

    def reference_state(self, t: SystemType) -> LinearProcess:
        return self._wire(t)[1]

    def state_frame(self, t: SystemType) -> Tuple[LinearProcess, ...]:
        return self._wire(t)[2]

    def effect_frame(self, t: SystemType) -> Tuple[LinearProcess, ...]:
        return self._wire(t)[3]


STOCH = Theory("Stoch", frozenset({CLASSICAL}))
QUANT = Theory("Quant", frozenset({CLASSICAL, QUANTUM}))

# column-stochastic test: entries >= 0, columns summing to one
stoch_valid = STOCH.valid


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
