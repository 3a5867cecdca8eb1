"""Steering assemblages as non-signalling classical-quantum channels.

An assemblage assigns to every joint setting of the untrusted wings a family
of subnormalized conditional states of the trusted quantum system. Encoded as
a channel, each untrusted wing carries (setting in, outcome out) classical
wires and the trusted wing carries a trivial input and the quantum output, so
the wing structure is uniform with every other multipartite channel here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Dict, Optional, Tuple

import numpy as np

from .completion import GeneratedTheory, register
from .decompose import CommonCauseRealization
from .errors import InvalidAssemblage
from .nonsignalling import MultipartiteChannel, check_nonsignalling
from .procs import LinearProcess
from .theories import QUANT, coords_to_density, density_to_coords
from .wires import UNIT, Signature, classical, quantum, ravel_index


@dataclass(frozen=True)
class Assemblage:
    """Subnormalized conditional states sigma_{a|x} of the trusted system.

    ``table`` has shape (outcomes..., settings..., d*d) holding Hermitian
    coordinates; axis order matches the wing order.
    """

    settings: Tuple[int, ...]
    outcomes: Tuple[int, ...]
    trusted_dim: int
    table: np.ndarray

    def __post_init__(self):
        want = self.outcomes + self.settings + (self.trusted_dim ** 2,)
        if self.table.shape != want:
            raise InvalidAssemblage(
                f"table shape {self.table.shape}, expected {want}"
            )
        self.table.flags.writeable = False

    @property
    def n_untrusted(self) -> int:
        return len(self.settings)

    def element(self, a: Tuple[int, ...], x: Tuple[int, ...]) -> np.ndarray:
        return self.table[tuple(a) + tuple(x)]


def validate_assemblage(asm: Assemblage, tol: float = 1e-9):
    """Positivity, normalization, and no-signalling across untrusted wings."""
    d = asm.trusted_dim
    for a in iproduct(*[range(n) for n in asm.outcomes]):
        for x in iproduct(*[range(n) for n in asm.settings]):
            rho = coords_to_density(asm.element(a, x), d)
            low = float(np.linalg.eigvalsh(rho).min())
            if low < -tol:
                raise InvalidAssemblage(
                    f"element a={a} x={x} has eigenvalue {low}"
                )
    for x in iproduct(*[range(n) for n in asm.settings]):
        total = sum(
            np.trace(coords_to_density(asm.element(a, x), d)).real
            for a in iproduct(*[range(n) for n in asm.outcomes])
        )
        if abs(total - 1) > tol:
            raise InvalidAssemblage(f"x={x}: total trace {total} != 1")
    # every nonempty wing set, the full one included: the trusted system
    # remains, so its marginal may not depend on any discarded setting
    m = asm.n_untrusted
    for mask in range(1, 2 ** m):
        wings = [i for i in range(m) if mask >> i & 1]
        seen: Dict[tuple, np.ndarray] = {}
        for x in iproduct(*[range(n) for n in asm.settings]):
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
    for a in iproduct(*[range(n) for n in asm.outcomes]):
        key = tuple(v for i, v in enumerate(a) if i not in wings)
        coords = asm.element(a, x)
        if key in out:
            out[key] = out[key] + coords
        else:
            out[key] = coords.copy()
    return out


def assemblage_to_channel(asm: Assemblage, tol: float = 1e-9) -> MultipartiteChannel:
    """Encode as an m-partite channel; the trusted wing has a trivial input."""
    validate_assemblage(asm, tol)
    d = asm.trusted_dim
    wings = tuple(
        (classical(x), classical(a)) for x, a in zip(asm.settings, asm.outcomes)
    ) + ((UNIT, quantum(d)),)
    n_in = math.prod(asm.settings)
    n_out = math.prod(asm.outcomes) * d * d
    matrix = np.zeros((n_out, n_in))
    for x in iproduct(*[range(n) for n in asm.settings]):
        col = ravel_index(x, asm.settings)
        for a in iproduct(*[range(n) for n in asm.outcomes]):
            base = ravel_index(a, asm.outcomes) * d * d
            matrix[base:base + d * d, col] = asm.element(a, x)
    body = LinearProcess(
        Signature(tuple(w for w, _ in wings)),
        Signature(tuple(w for _, w in wings)),
        matrix,
    )
    channel = MultipartiteChannel(wings, body, QUANT)
    report = check_nonsignalling(channel, tol)
    if not report.verdict:
        raise InvalidAssemblage(
            f"encoded channel signals (residual {report.max_residual})"
        )
    return channel


def extract_assemblage(channel: MultipartiteChannel, tol: float = 1e-9) -> Assemblage:
    """Read the conditional states back out of an encoded channel."""
    *untrusted, trusted = channel.wings
    d = trusted[1].hilbert_dim
    settings = tuple(w.vdim for w, _ in untrusted)
    outcomes = tuple(w.vdim for _, w in untrusted)
    table = np.zeros(outcomes + settings + (d * d,))
    matrix = channel.body.matrix.astype(float)
    for x in iproduct(*[range(n) for n in settings]):
        col = ravel_index(x, settings)
        for a in iproduct(*[range(n) for n in outcomes]):
            base = ravel_index(a, outcomes) * d * d
            table[a + x] = matrix[base:base + d * d, col]
    return Assemblage(settings, outcomes, d, table)


def realize_assemblage(
    gt: GeneratedTheory,
    asm: Assemblage,
    channel_id: Optional[str] = None,
    tol: Optional[float] = None,
) -> Tuple[str, CommonCauseRealization]:
    """Encode, register in the generated theory, return the verified result."""
    channel = assemblage_to_channel(asm, tol if tol is not None else 1e-9)
    cid = register(gt, channel, channel_id=channel_id, tol=tol)
    return cid, gt.registered[cid].realization


# -- canonical fixtures ------------------------------------------------------

def bb84_assemblage() -> Assemblage:
    """Conditional qubit states from measuring half a Bell pair in Z or X."""
    z0 = np.array([[1, 0], [0, 0]], dtype=complex)
    z1 = np.array([[0, 0], [0, 1]], dtype=complex)
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    table = np.zeros((2, 2, 4))
    table[0, 0] = density_to_coords(z0 / 2)
    table[1, 0] = density_to_coords(z1 / 2)
    table[0, 1] = density_to_coords(plus / 2)
    table[1, 1] = density_to_coords(minus / 2)
    return Assemblage((2,), (2,), 2, table)


def unsteerable_assemblage(p_table: np.ndarray, rho: np.ndarray) -> Assemblage:
    """sigma_{a|x} = p(a|x) rho with a fixed trusted state: a product channel."""
    n_out, n_in = p_table.shape
    coords = density_to_coords(rho)
    table = np.zeros((n_out, n_in, coords.size))
    for a in range(n_out):
        for x in range(n_in):
            table[a, x] = float(p_table[a, x]) * coords
    d = int(round(math.sqrt(coords.size)))
    return Assemblage((n_in,), (n_out,), d, table)


def pr_correlated_assemblage(rho: np.ndarray) -> Assemblage:
    """Tripartite fixture: two untrusted wings carrying the extremal binary
    box statistics, trusted states conditionally fixed."""
    coords = density_to_coords(rho)
    table = np.zeros((2, 2, 2, 2, 4))
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    p = 0.5 if (a ^ b) == (x & y) else 0.0
                    table[a, b, x, y] = p * coords
    return Assemblage((2, 2), (2, 2), 2, table)
