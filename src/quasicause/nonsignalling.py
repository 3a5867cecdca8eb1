"""Multipartite channels and the non-signalling decision procedure.

A channel is split into wings, one (input, output) wire pair per party. For
every nonempty proper labelled subset K of wings we discard the K outputs and
compare against a candidate marginal channel obtained by feeding reference
states into the K inputs; the channel is non-signalling iff every subset's
residual is within tolerance. If an exact factorization exists the candidate
construction recovers it, because plugging any normalized state into a
discarded leg leaves the remaining factor unchanged.

Each subset is three rounds of mode products on the body's wing tensor (one
axis per wire) with single-wire discards and reference states; no operator on
the whole wire space is built.

Wing labels are 1-based throughout this module's public surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import OutOfRange, TypeMismatch
from .procs import LinearProcess, effective_tol, mode_product
from .theories import Theory
from .wires import Signature, SystemType


@dataclass(frozen=True)
class MultipartiteChannel:
    """A theory-valid, discard-preserving process with one wire per wing."""

    wings: Tuple[Tuple[SystemType, SystemType], ...]
    body: LinearProcess
    theory: Theory

    def __post_init__(self):
        in_sig = Signature(tuple(w_in for w_in, _ in self.wings))
        out_sig = Signature(tuple(w_out for _, w_out in self.wings))
        if (
            self.body.inputs.wires != in_sig.wires
            or self.body.outputs.wires != out_sig.wires
        ):
            raise TypeMismatch("body signature does not match the wing list")
        if not self.theory.valid(self.body):
            raise TypeMismatch("body is not a valid channel of the theory")

    @property
    def m(self) -> int:
        return len(self.wings)

    def input_types(self) -> Tuple[SystemType, ...]:
        return tuple(w for w, _ in self.wings)

    def output_types(self) -> Tuple[SystemType, ...]:
        return tuple(w for _, w in self.wings)

    @property
    def wing_tensor(self) -> np.ndarray:
        """The body with one axis per wire: (out_1..out_m, in_1..in_m)."""
        body = self.body
        return body.matrix.reshape(body.outputs.dims + body.inputs.dims)


@dataclass(frozen=True)
class SubsetCheck:
    subset: Tuple[int, ...]
    residual: object
    marginal: LinearProcess


@dataclass(frozen=True)
class NSReport:
    checks: Tuple[SubsetCheck, ...]
    tolerance: object
    verdict: bool = field(init=False)

    def __post_init__(self):
        worst = max((c.residual for c in self.checks), default=0)
        object.__setattr__(self, "verdict", bool(worst <= self.tolerance))

    @property
    def max_residual(self):
        return max((c.residual for c in self.checks), default=0)


def bipartition_perm(m: int, subset: Sequence[int]) -> Tuple[int, ...]:
    """Wire order taking (1..m) to (k_1..k_n, then the complement ascending).

    ``subset`` is an ordered collection of 1-based wing labels.
    """
    subset = tuple(subset)
    if len(set(subset)) != len(subset):
        raise OutOfRange("subset labels must be distinct")
    for k in subset:
        if not 1 <= k <= m:
            raise OutOfRange(f"wing label {k} outside 1..{m}")
    complement = tuple(i for i in range(1, m + 1) if i not in subset)
    return subset + complement


def discard_outputs(
    channel: MultipartiteChannel, subset: Sequence[int]
) -> LinearProcess:
    """Contract the output wires of the K wings with the theory discards.

    Remaining outputs keep their original relative order (the complement
    order of the bipartitioning convention).
    """
    subset = tuple(sorted(set(subset)))
    if not subset or not 1 <= subset[0] <= subset[-1] <= channel.m:
        raise OutOfRange(f"wings to discard {subset} must be nonempty in 1..{channel.m}")
    tensor, outs = channel.wing_tensor, channel.body.outputs
    for k in subset:
        tensor = mode_product(tensor, channel.theory.discard(outs[k - 1]).matrix, k - 1)
    kept = _rest(outs, subset)
    return LinearProcess(channel.body.inputs, kept, tensor.reshape(kept.dim, -1))


def check_nonsignalling(
    channel: MultipartiteChannel, tol: Optional[object] = None
) -> NSReport:
    """Decide the non-signalling property over all 2^m - 2 labelled subsets.

    For a subset K, ``discarded`` is the wing tensor with the K output axes
    contracted with the discard rows. The candidate marginal contracts its K
    input axes with the reference states, and ``rebuilt`` spreads those axes
    back out with the input discards. The residual is max|discarded - rebuilt|.
    """
    tolerance = effective_tol(channel.body.arithmetic, tol)
    m, ins, outs = channel.m, channel.body.inputs, channel.body.outputs
    refs = [channel.theory.reference_state(w).matrix.T for w in ins]
    units = [channel.theory.discard(w).matrix.T for w in ins]
    checks: List[SubsetCheck] = []
    for subset in proper_subsets(m):
        shape = tuple(1 if i in subset else w.vdim for i, w in enumerate(outs, 1))
        discarded = discard_outputs(channel, subset).matrix.reshape(shape + ins.dims)
        candidate = discarded
        for k in subset:
            candidate = mode_product(candidate, refs[k - 1], m + k - 1)
        rebuilt = candidate
        for k in subset:
            rebuilt = mode_product(rebuilt, units[k - 1], m + k - 1)
        kept = _rest(outs, subset)
        marginal = LinearProcess(_rest(ins, subset), kept, candidate.reshape(kept.dim, -1))
        checks.append(SubsetCheck(subset, abs(discarded - rebuilt).max(), marginal))
    return NSReport(tuple(checks), tolerance)


def _rest(wires: Sequence[SystemType], subset: Sequence[int]) -> Signature:
    return Signature(tuple(w for i, w in enumerate(wires, 1) if i not in subset))


def proper_subsets(m: int) -> List[Tuple[int, ...]]:
    """All nonempty proper subsets of {1..m}, ascending order inside each."""
    out = []
    for mask in range(1, 2 ** m - 1):
        out.append(tuple(i + 1 for i in range(m) if mask >> i & 1))
    return sorted(out, key=lambda s: (len(s), s))

