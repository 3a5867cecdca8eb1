"""Steering assemblages as non-signalling classical-quantum channels.

An assemblage assigns to every joint setting of the untrusted wings a family
of subnormalized conditional states of the trusted quantum system. Encoded as
a channel, each untrusted wing carries (setting in, outcome out) classical
wires and the trusted wing carries a trivial input and the quantum output, so
the wing structure is uniform with every other multipartite channel here.

An assemblage is valid exactly when its channel is: the channel's
``theories.instrument_problem`` decides positivity and normalization, and
``nonsignalling.check_nonsignalling`` decides no-signalling across wings. The
table and the channel body hold the same entries in two axis orders, so
encoding and extraction are one ``moveaxis`` and one ``reshape`` each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .completion import GeneratedTheory, register
from .decompose import CommonCauseRealization
from .errors import InvalidAssemblage
from .nonsignalling import MultipartiteChannel, _prechecked, check_nonsignalling
from .procs import LinearProcess
from .theories import QUANT, density_to_coords, instrument_problem
from .wires import UNIT, Signature, classical, quantum


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


def assemblage_to_channel(asm: Assemblage, tol: float = 1e-9) -> MultipartiteChannel:
    """Encode as an m-partite channel; the trusted wing has a trivial input.

    Column x of the body stacks sigma_{a|x} over the outcomes a, so the body
    is the table with its coordinate axis moved in front of the settings.
    The assemblage is valid exactly when that body is: ``instrument_problem``
    decides positivity and normalization, and ``check_nonsignalling`` decides
    no-signalling, each within ``tol`` and each raising ``InvalidAssemblage``.
    A table holding NaN or inf is never valid. No-signalling bounds each
    setting's marginal against the average over settings, so two settings'
    marginals may differ by up to 2 * ``tol``; ``register`` applies the same
    check to the channel.
    """
    d = asm.trusted_dim
    wings = tuple(
        (classical(x), classical(a)) for x, a in zip(asm.settings, asm.outcomes)
    ) + ((UNIT, quantum(d)),)
    n_in = math.prod(asm.settings)
    n_out = math.prod(asm.outcomes) * d * d
    stacked = np.moveaxis(asm.table, -1, asm.n_untrusted)  # outcomes, coords, settings
    matrix = stacked.reshape(n_out, n_in).astype(float, copy=False)
    body = LinearProcess(
        Signature(tuple(w for w, _ in wings)),
        Signature(tuple(w for _, w in wings)),
        matrix,
    )
    problem = instrument_problem(body, tol)
    if problem:
        raise InvalidAssemblage(f"encoded channel {problem}")
    channel = _prechecked(wings, body, QUANT)
    report = check_nonsignalling(channel, tol)
    if not report.verdict:
        raise InvalidAssemblage(
            f"encoded channel is signalling (residual {report.max_residual})"
        )
    return channel


def extract_assemblage(channel: MultipartiteChannel) -> Assemblage:
    """Read the conditional states back out of an encoded channel."""
    *untrusted, trusted = channel.wings
    d = trusted[1].hilbert_dim
    settings = tuple(w.vdim for w, _ in untrusted)
    outcomes = tuple(w.vdim for _, w in untrusted)
    stacked = channel.body.matrix.astype(float).reshape(outcomes + (d * d,) + settings)
    return Assemblage(settings, outcomes, d, np.moveaxis(stacked, len(outcomes), -1))


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
    table = np.asarray(p_table, dtype=float)[:, :, None] * coords
    d = int(round(math.sqrt(coords.size)))
    return Assemblage((n_in,), (n_out,), d, table)


def pr_correlated_assemblage(rho: np.ndarray) -> Assemblage:
    """Tripartite fixture: two untrusted wings carrying the extremal binary
    box statistics, trusted states conditionally fixed."""
    a, b, x, y = np.indices((2, 2, 2, 2))  # the table's axes
    p = np.where((a ^ b) == (x & y), 0.5, 0.0)
    return Assemblage((2, 2), (2, 2), 2, p[..., None] * density_to_coords(rho))
