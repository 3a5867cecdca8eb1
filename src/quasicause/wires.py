"""Typed wires: system types, ordered signatures, and mixed-radix indexing.

Composite indices are mixed-radix with the leftmost wire most significant,
matching numpy's C-order raveling and ``np.kron``. This convention is fixed
repo-wide; every Kronecker product and permutation respects it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Iterable, Optional, Sequence, Tuple

from .errors import InvalidPermutation

CLASSICAL = "classical"
QUANTUM = "quantum"
EXTENSION = "extension"

_KINDS = (CLASSICAL, QUANTUM, EXTENSION)


@dataclass(frozen=True)
class SystemType:
    """A named wire with a real vector-space dimension.

    ``vdim`` is the dimension of the real coordinate space carried by the
    wire: the number of outcomes for classical wires, d^2 for a quantum wire
    with Hilbert dimension d (trace-orthonormal Hermitian coordinates), and
    the ancilla carrier size for extension wires.
    """

    id: str
    kind: str
    vdim: int
    hilbert_dim: Optional[int] = None
    brand: Optional[Tuple[str, int]] = None  # (channel id, wing) for extensions

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown wire kind {self.kind!r}")
        if self.vdim < 1:
            raise ValueError("vdim must be >= 1")
        if self.kind == QUANTUM:
            d = self.hilbert_dim
            if d is None or d * d != self.vdim:
                raise ValueError("quantum wire needs vdim = hilbert_dim**2")
        if self.kind == EXTENSION and self.brand is None:
            raise ValueError("extension wire needs a brand")

    def __repr__(self):
        return f"SystemType({self.id!r}, {self.kind}, vdim={self.vdim})"


UNIT = SystemType("I", CLASSICAL, 1)


def classical(n: int, name: Optional[str] = None) -> SystemType:
    """Classical system with ``n`` point outcomes; n = 1 is the trivial system."""
    if n == 1:
        return UNIT
    return SystemType(name or f"C{n}", CLASSICAL, n)


def quantum(d: int, name: Optional[str] = None) -> SystemType:
    """Quantum system of Hilbert dimension ``d`` in Hermitian coordinates."""
    if d == 1:
        return UNIT
    return SystemType(name or f"Q{d}", QUANTUM, d * d, hilbert_dim=d)


def extension(channel_id: str, wing: int, carrier: int) -> SystemType:
    """Fresh branded ancilla type owned by one realized channel's wing."""
    return SystemType(
        f"A{wing}@{channel_id}", EXTENSION, carrier, brand=(channel_id, wing)
    )


@dataclass(frozen=True)
class Signature:
    """An ordered list of wires; the empty signature is the trivial system."""

    wires: Tuple[SystemType, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "wires", tuple(self.wires))

    @property
    def dim(self) -> int:
        return prod(w.vdim for w in self.wires)

    @property
    def dims(self) -> Tuple[int, ...]:
        return tuple(w.vdim for w in self.wires)

    def __len__(self):
        return len(self.wires)

    def __iter__(self):
        return iter(self.wires)

    def __getitem__(self, i):
        return self.wires[i]

    def __add__(self, other: "Signature") -> "Signature":
        return Signature(self.wires + other.wires)

    def __repr__(self):
        return "Signature(" + ", ".join(w.id for w in self.wires) + ")"


EMPTY = Signature(())


def sig(*wires: SystemType) -> Signature:
    return Signature(wires)


def ravel_index(digits: Sequence[int], dims: Sequence[int]) -> int:
    """Mixed-radix encode with the leftmost digit most significant."""
    index = 0
    for digit, dim in zip(digits, dims):
        if not 0 <= digit < dim:
            raise ValueError(f"digit {digit} out of range for radix {dim}")
        index = index * dim + digit
    return index


def unravel_index(index: int, dims: Sequence[int]) -> Tuple[int, ...]:
    """Inverse of :func:`ravel_index`."""
    digits = []
    for dim in reversed(dims):
        digits.append(index % dim)
        index //= dim
    if index:
        raise ValueError("index out of range for the given radices")
    return tuple(reversed(digits))


def check_permutation(order: Iterable[int], n: int) -> Tuple[int, ...]:
    """Validate a 0-based permutation of ``range(n)`` and return it as a tuple."""
    order = tuple(order)
    if sorted(order) != list(range(n)):
        raise InvalidPermutation(f"{order} is not a permutation of 0..{n - 1}")
    return order


def interleave(m: int) -> Tuple[int, ...]:
    """Wire order taking (a_1..a_m, b_1..b_m) to (a_1, b_1, ..., a_m, b_m)."""
    return tuple(j for i in range(m) for j in (i, m + i))
