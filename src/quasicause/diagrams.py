"""Diagram terms: expression trees over named generator processes.

Leaves name bound processes; internal nodes are sequential composition
(first/then, so ``Seq(f, g)`` runs f before g), parallel composition, and
convex mixtures. Terms are plain immutable trees; typing and evaluation are
driven by a name -> LinearProcess binding map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple, Union

from .errors import InvalidProbability, TypeMismatch, UnboundGenerator
from .procs import LinearProcess, compose_par, compose_seq, convex_mix
from .wires import Signature


@dataclass(frozen=True)
class Leaf:
    name: str


@dataclass(frozen=True)
class Seq:
    first: "Term"
    then: "Term"


@dataclass(frozen=True)
class Par:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Mix:
    weight: object
    left: "Term"
    right: "Term"


Term = Union[Leaf, Seq, Par, Mix]

Bindings = Dict[str, LinearProcess]


def infer_signature(term: Term, bindings: Bindings) -> Tuple[Signature, Signature]:
    """Return (inputs, outputs) of a well-typed term, or raise."""
    if isinstance(term, Leaf):
        try:
            p = bindings[term.name]
        except KeyError:
            raise UnboundGenerator(f"no process bound to {term.name!r}") from None
        return p.inputs, p.outputs
    if isinstance(term, Seq):
        fin, fout = infer_signature(term.first, bindings)
        gin, gout = infer_signature(term.then, bindings)
        if fout.wires != gin.wires:
            raise TypeMismatch(
                f"sequential composition mismatch: {fout!r} vs {gin!r}"
            )
        return fin, gout
    if isinstance(term, Par):
        lin, lout = infer_signature(term.left, bindings)
        rin, rout = infer_signature(term.right, bindings)
        return lin + rin, lout + rout
    if isinstance(term, Mix):
        if not 0 <= term.weight <= 1:
            raise InvalidProbability(f"mix weight {term.weight} outside [0, 1]")
        lin, lout = infer_signature(term.left, bindings)
        rin, rout = infer_signature(term.right, bindings)
        if lin.wires != rin.wires or lout.wires != rout.wires:
            raise TypeMismatch("mixture branches have different signatures")
        return lin, lout
    raise TypeError(f"not a diagram term: {term!r}")


def eval_diagram(term: Term, bindings: Bindings) -> LinearProcess:
    """Recursive evaluation via the three composition operations."""
    if isinstance(term, Leaf):
        try:
            return bindings[term.name]
        except KeyError:
            raise UnboundGenerator(f"no process bound to {term.name!r}") from None
    if isinstance(term, Seq):
        return compose_seq(
            eval_diagram(term.first, bindings), eval_diagram(term.then, bindings)
        )
    if isinstance(term, Par):
        return compose_par(
            eval_diagram(term.left, bindings), eval_diagram(term.right, bindings)
        )
    if isinstance(term, Mix):
        return convex_mix(
            term.weight,
            eval_diagram(term.left, bindings),
            eval_diagram(term.right, bindings),
        )
    raise TypeError(f"not a diagram term: {term!r}")

