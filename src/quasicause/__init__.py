"""Typed real-linear process engine for non-signalling channel analysis,
quasiprobabilistic common-cause decompositions, and realization certificates."""

from .wires import (
    CLASSICAL,
    EXTENSION,
    QUANTUM,
    EMPTY,
    UNIT,
    Signature,
    SystemType,
    classical,
    extension,
    quantum,
    sig,
)
from .procs import (
    FLOAT64,
    RATIONAL,
    LinearProcess,
    compose_par,
    compose_seq,
    convex_mix,
    effect,
    identity,
    max_abs_diff,
    number,
    permutation,
    process,
    processes_equal,
    state,
    swap,
)
from .diagrams import Leaf, Mix, Par, Seq, Term, eval_diagram, infer_signature
from .check import BASIS_CONVENTION
from .theories import (
    QUANT,
    STOCH,
    Theory,
    discard_effect,
    hermitian_basis,
    hybrid_valid,
    quant_valid,
    stoch_valid,
)

__version__ = "0.1.0"
