"""Real linear processes between typed wires.

A :class:`LinearProcess` is a dense real matrix tagged with ordered input and
output signatures. States are processes with no inputs, effects have no
outputs, and numbers have neither. Two arithmetic backends share one code
path: exact rationals (object arrays holding ints and ``Fraction``) and
binary64. Composition promotes to binary64 whenever either operand uses it.

Wire shuffles and identities are 0/1 matrices with a single 1 per column.
Those built by :func:`permutation` and :func:`identity` (and their sequential
and parallel composites) also carry, privately, the row of each column's 1.
Composing with such an operand moves rows or columns of the other matrix
instead of multiplying it, so the result is the dense product entry for
entry, rational entries are copied rather than recomputed, and the other
operand's arithmetic is kept (a binary64 operand still gives binary64).
Every other operand takes the dense ``@`` / ``np.kron`` path.

All values are immutable after construction and all operations are pure, so
independent diagrams can be evaluated concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Sequence, Union

import numpy as np

from .errors import InvalidProbability, TypeMismatch
from .wires import (
    EMPTY,
    Signature,
    SystemType,
    check_permutation,
)

RATIONAL = "rational"
FLOAT64 = "float64"

Number = Union[int, Fraction, float]


def _freeze(matrix: np.ndarray) -> np.ndarray:
    matrix.flags.writeable = False
    return matrix


def as_matrix(rows, exact: bool) -> np.ndarray:
    """Build a 2-D matrix in the requested backend from nested sequences."""
    if exact:
        matrix = np.array(
            [[_as_rational(x) for x in row] for row in rows], dtype=object
        )
    else:
        matrix = np.array(rows, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    return matrix


def _as_rational(x) -> Union[int, Fraction]:
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Rational):
        return Fraction(x)
    raise TypeError(f"{x!r} is not exact-rational material")


@dataclass(frozen=True)
class LinearProcess:
    """A real matrix of shape (output dim) x (input dim) between signatures."""

    inputs: Signature
    outputs: Signature
    matrix: np.ndarray

    # Row of each column's single 1; set only by _indexed, never a field.
    _rows = None

    def __post_init__(self):
        matrix = self.matrix
        if not isinstance(matrix, np.ndarray) or matrix.ndim != 2:
            raise ValueError("matrix must be a 2-D numpy array")
        if matrix.shape != (self.outputs.dim, self.inputs.dim):
            raise TypeMismatch(
                f"matrix shape {matrix.shape} does not match signatures "
                f"{self.outputs.dim}x{self.inputs.dim}"
            )
        if matrix.dtype == object:
            for x in matrix.flat:
                if not isinstance(x, (int, Fraction)):
                    raise TypeError(
                        f"rational-mode matrix holds non-rational entry {x!r}"
                    )
        elif matrix.dtype != np.float64:
            object.__setattr__(self, "matrix", matrix.astype(float))
        _freeze(self.matrix)

    @property
    def arithmetic(self) -> str:
        return RATIONAL if self.matrix.dtype == object else FLOAT64

    @property
    def is_state(self) -> bool:
        return len(self.inputs) == 0

    @property
    def is_effect(self) -> bool:
        return len(self.outputs) == 0

    @property
    def is_number(self) -> bool:
        return self.is_state and self.is_effect

    def as_scalar(self) -> Number:
        if self.matrix.shape != (1, 1):
            raise TypeMismatch("not a number (open wires remain)")
        return self.matrix[0, 0]

    def to_float(self) -> "LinearProcess":
        if self.arithmetic == FLOAT64:
            return self
        return LinearProcess(self.inputs, self.outputs, self.matrix.astype(float))

    def __repr__(self):
        return (
            f"LinearProcess({self.inputs!r} -> {self.outputs!r}, "
            f"{self.arithmetic})"
        )


def _promote(a: np.ndarray, b: np.ndarray):
    """Two arrays in one backend: binary64 if either one is."""
    if (a.dtype == object) == (b.dtype == object):
        return a, b
    return a.astype(float), b.astype(float)


def mode_product(tensor: np.ndarray, matrix: np.ndarray, axis: int) -> np.ndarray:
    """Multiply ``matrix`` into one axis of ``tensor``: that axis's length
    becomes matrix.shape[0], and the result is binary64 if either operand is."""
    matrix, tensor = _promote(matrix, tensor)
    moved = np.tensordot(matrix, tensor, axes=([1], [axis]))
    return np.moveaxis(moved, 0, axis)


def process(matrix, inputs: Signature, outputs: Signature, exact=None) -> LinearProcess:
    """Convenience constructor accepting nested sequences or arrays."""
    if isinstance(matrix, np.ndarray) and exact is None:
        return LinearProcess(inputs, outputs, matrix)
    if exact is None:
        exact = _looks_exact(matrix)
    return LinearProcess(inputs, outputs, as_matrix(matrix, exact))


def _looks_exact(rows) -> bool:
    for row in rows:
        for x in row:
            if isinstance(x, float):
                return False
    return True


def state(vector: Sequence[Number], output: Union[Signature, SystemType], exact=None):
    outputs = output if isinstance(output, Signature) else Signature((output,))
    return process([[x] for x in vector], EMPTY, outputs, exact=exact)


def effect(row: Sequence[Number], input: Union[Signature, SystemType], exact=None):
    inputs = input if isinstance(input, Signature) else Signature((input,))
    return process([list(row)], inputs, EMPTY, exact=exact)


def number(x: Number) -> LinearProcess:
    return process([[x]], EMPTY, EMPTY)


def _indexed(inputs: Signature, outputs: Signature, rows: np.ndarray) -> LinearProcess:
    """The rational 0/1 bijection whose column c has its 1 in row rows[c]."""
    n = len(rows)
    matrix = np.zeros((n, n), dtype=object)
    matrix[rows, np.arange(n)] = 1
    p = LinearProcess(inputs, outputs, matrix)
    object.__setattr__(p, "_rows", _freeze(rows))
    return p


def identity(signature: Union[Signature, SystemType]) -> LinearProcess:
    if isinstance(signature, SystemType):
        signature = Signature((signature,))
    return _indexed(signature, signature, np.arange(signature.dim))


def compose_seq(f: LinearProcess, g: LinearProcess) -> LinearProcess:
    """Run ``f`` first and then ``g``; requires outputs(f) = inputs(g)."""
    if f.outputs.wires != g.inputs.wires:
        raise TypeMismatch(
            f"cannot wire {f.outputs!r} into {g.inputs!r}: ordered type lists differ"
        )
    if f._rows is not None and g._rows is not None:
        return _indexed(f.inputs, g.outputs, g._rows[f._rows])
    if g._rows is not None:
        matrix = np.empty_like(f.matrix)
        matrix[g._rows] = f.matrix
    elif f._rows is not None:
        matrix = g.matrix[:, f._rows]
    else:
        fm, gm = _promote(f.matrix, g.matrix)
        matrix = gm @ fm
    return LinearProcess(f.inputs, g.outputs, matrix)


def compose_par(f: LinearProcess, g: LinearProcess) -> LinearProcess:
    """Place ``f`` and ``g`` side by side (f's wires leftmost)."""
    inputs, outputs = f.inputs + g.inputs, f.outputs + g.outputs
    if f._rows is not None and g._rows is not None:
        rows = f._rows[:, None] * len(g._rows) + g._rows
        return _indexed(inputs, outputs, rows.reshape(-1))
    fm, gm = _promote(f.matrix, g.matrix)
    return LinearProcess(inputs, outputs, np.kron(fm, gm))


def convex_mix(p: Number, f: LinearProcess, g: LinearProcess) -> LinearProcess:
    """Entrywise p*f + (1-p)*g on equal signatures."""
    if f.inputs.wires != g.inputs.wires or f.outputs.wires != g.outputs.wires:
        raise TypeMismatch("convex mixture needs identical signatures")
    if not 0 <= p <= 1:
        raise InvalidProbability(f"weight {p} outside [0, 1]")
    fm, gm = _promote(f.matrix, g.matrix)
    if fm.dtype == object:
        p = _as_rational(p) if not isinstance(p, float) else p
        if isinstance(p, float):
            fm, gm = fm.astype(float), gm.astype(float)
    return LinearProcess(f.inputs, f.outputs, p * fm + (1 - p) * gm)


def permutation(signature: Signature, order: Sequence[int]) -> LinearProcess:
    """Wire shuffle: output slot s carries input wire order[s] (0-based).

    The matrix is the 0/1 reindexing of mixed-radix coordinates; it is
    doubly stochastic. The process also keeps the row of each column's 1,
    so composing it with another process reorders that process's rows or
    columns: no arithmetic, exact in rational mode, and the other operand's
    arithmetic decides the result's.
    """
    order = check_permutation(order, len(signature))
    out_sig = Signature(tuple(signature.wires[p] for p in order))
    # rows[c]: the output index whose digits are c's digits taken in `order`
    rows = np.arange(signature.dim).reshape(out_sig.dims).transpose(np.argsort(order))
    return _indexed(signature, out_sig, rows.reshape(-1))


def swap(a: SystemType, b: SystemType) -> LinearProcess:
    return permutation(Signature((a, b)), (1, 0))


def max_abs_diff(f: LinearProcess, g: LinearProcess) -> Number:
    """Entrywise max-abs difference; the repo-wide comparison metric."""
    if f.inputs.dims != g.inputs.dims or f.outputs.dims != g.outputs.dims:
        raise TypeMismatch("processes of different shape are not comparable")
    fm, gm = _promote(f.matrix, g.matrix)
    if fm.size == 0:
        return 0
    return abs(fm - gm).max()


def processes_equal(f: LinearProcess, g: LinearProcess, tol: Number = 0) -> bool:
    """Tolerance-aware equality; every comparison in the repo routes here."""
    return max_abs_diff(f, g) <= tol


def scale(c: Number, f: LinearProcess) -> LinearProcess:
    """Scalar multiple of a process (quasi-state and affine bookkeeping)."""
    matrix = f.matrix
    if matrix.dtype == object and isinstance(c, float):
        matrix = matrix.astype(float)
    return LinearProcess(f.inputs, f.outputs, c * matrix)


def add(f: LinearProcess, g: LinearProcess) -> LinearProcess:
    if f.inputs.wires != g.inputs.wires or f.outputs.wires != g.outputs.wires:
        raise TypeMismatch("sum needs identical signatures")
    fm, gm = _promote(f.matrix, g.matrix)
    return LinearProcess(f.inputs, f.outputs, fm + gm)


def effective_tol(arithmetic: str, tol=None) -> Number:
    """Default comparison tolerance: exact for rationals, 1e-9 for floats."""
    if tol is not None:
        return tol
    return 0 if arithmetic == RATIONAL else 1e-9
