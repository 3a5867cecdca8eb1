"""Multipartite channels and the non-signalling decision procedure.

A channel is split into wings, one (input, output) wire pair per party. It is
non-signalling when, for every nonempty proper labelled subset K of wings,
the body with the K outputs discarded does not depend on the K inputs. The
check tests only the m single wings K = {i}: with the output of wing i
discarded, feeding the reference state r_i into input i and spreading the
result back out with the input discard u_i must give the body back.

The single wings decide every subset (Barrett, Linden, Massar, Pironio,
Popescu and Roberts, PRA 71, 022101, 2005). Let L_K be the body with the
outputs of K discarded, and E_i = r_i u_i on input i. Wing i's condition is
L_i = L_i E_i. For i in K, L_K is L_i followed by the discards of the other
outputs in K, so L_K = L_K E_i. The E_i act on different wires and commute,
so L_K = L_K prod_{i in K} E_i, which is subset K's condition. In binary64,
with r_i the residual of wing i, subset K's residual is at most
sum_{i in K} r_i prod_{j in K, j != i} |u_out_j|_1, where |u|_1 is n for a
classical wire with n outcomes and sqrt(d) for a qudit.

Each wing is three mode products on the body's wing tensor (one axis per
wire) with a single-wire discard and reference state; no operator on the
whole wire space is built. Those are the theory's cached processes, read in
the body's arithmetic from the forms they keep: a rational body is
contracted on integer numerators, so the check does no ``Fraction``
arithmetic, and a binary64 one converts nothing.

Wing labels are 1-based throughout this module's public surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import OutOfRange, TypeMismatch
from .procs import FLOAT64, LinearProcess, Operand, _made, _operand, effective_tol, max_gap, mode_product
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

    @property
    def wing_operand(self) -> Operand:
        """The body with one axis per wire, (out_1..out_m, in_1..in_m), as a
        ``procs.mode_product`` operand: cached numerators, or binary64."""
        return _operand(self.body, self.body.outputs.dims + self.body.inputs.dims)


def _prechecked(wings, body: LinearProcess, theory: Theory) -> MultipartiteChannel:
    """A channel on a body that its caller has already checked against the
    wing list and the theory, at the caller's own tolerance. Skips the public
    constructor's re-check at the default tolerance."""
    channel = object.__new__(MultipartiteChannel)
    vars(channel).update(wings=wings, body=body, theory=theory)
    return channel


@dataclass(frozen=True)
class SubsetCheck:
    subset: Tuple[int, ...]
    residual: object
    marginal: LinearProcess


@dataclass(frozen=True)
class NSReport:
    checks: Tuple[SubsetCheck, ...]
    tolerance: object

    @property
    def max_residual(self):
        return max((c.residual for c in self.checks), default=0)

    @property
    def verdict(self) -> bool:
        return bool(self.max_residual <= self.tolerance)


def discard_outputs(channel: MultipartiteChannel, subset: Sequence[int]) -> LinearProcess:
    """Contract the output wires of the K wings with the theory discards.

    Remaining outputs keep their original relative order.
    """
    subset = tuple(sorted(set(subset)))
    if not subset or not 1 <= subset[0] <= subset[-1] <= channel.m:
        raise OutOfRange(f"wings to discard {subset} must be nonempty in 1..{channel.m}")
    tensor, outs, as_float = channel.wing_operand, channel.body.outputs, channel.body.arithmetic == FLOAT64
    for k in subset:
        tensor = mode_product(tensor, _operand(channel.theory.discard(outs[k - 1]), None, as_float), k - 1)
    rest = Signature(tuple(w for i, w in enumerate(outs, 1) if i not in subset))
    return _made(channel.body.inputs, rest, tensor)


def check_nonsignalling(channel: MultipartiteChannel, tol: Optional[object] = None) -> NSReport:
    """Decide the non-signalling property from the m single-wing conditions.

    For wing k, ``discarded`` is the wing tensor with output axis k contracted
    with the discard row. The candidate marginal contracts input axis k with
    the reference state r_k, and ``rebuilt`` spreads that axis back out with
    the input discard u_k. The residual is max|discarded - rebuilt|. A
    one-wing channel has no proper subset of wings, so it gets no check.

    The report holds the checks of subsets (1,) .. (m,) only, because they
    decide every other subset (the module docstring gives the argument and
    the binary64 bound on the other subsets' residuals).
    """
    tolerance = effective_tol(channel.body.arithmetic, tol)
    m, ins, outs, theory = channel.m, channel.body.inputs, channel.body.outputs, channel.theory
    body, as_float = channel.wing_operand, channel.body.arithmetic == FLOAT64
    checks: List[SubsetCheck] = []
    for k in range(1, m + 1) if m > 1 else ():
        axis, w_in = m + k - 1, ins[k - 1]
        discarded = mode_product(body, _operand(theory.discard(outs[k - 1]), None, as_float), k - 1)
        # the state as a row and the discard as a column: their transposes
        candidate = mode_product(discarded, _operand(theory.reference_state(w_in), (1, -1), as_float), axis)
        rebuilt = mode_product(candidate, _operand(theory.discard(w_in), (-1, 1), as_float), axis)
        marginal = _made(*(Signature(s.wires[:k - 1] + s.wires[k:]) for s in (ins, outs)), candidate)
        checks.append(SubsetCheck((k,), max_gap(discarded, rebuilt), marginal))
    return NSReport(tuple(checks), tolerance)
