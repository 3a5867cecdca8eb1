"""Real linear processes between typed wires.

A :class:`LinearProcess` is a real matrix tagged with ordered input and
output signatures. States are processes with no inputs, effects have no
outputs, and numbers have neither. Two arithmetic backends share one code
path: exact rationals and binary64. Composition promotes to binary64 whenever
either operand uses it. A process's arithmetic and shape are fixed when it is
made; they are never read off a matrix.

A rational process is computed on as an integer numerator array over one
positive common denominator, kept canonical (the gcd of every numerator and
the denominator is 1). Compositions and mode products multiply through
``check._int_matmul``, the exact product of ``check.tucker`` too: BLAS in
binary64 where every partial sum is an integer below 2^53. Kronecker
products, sums, scalings, mixtures and comparisons are numpy integer kernels
on the numerators: int64 where a bound on the operands' magnitudes proves
that nothing overflows, object arrays of Python ints otherwise, and never a
per-entry ``gcd``. ``Fraction`` entries exist only in the ``.matrix`` view
(an object array), which a composition result builds on its first read.
A rational process keeps two derived, read-only forms, each built once, on
first use: its integer form, and its binary64 matrix, which every operation
beside a binary64 operand reads instead of promoting again. Promotion
divides numerators by the denominator, which gives ``float(Fraction)`` bit
for bit: both values are exact in binary64 up to 2^53, so the division is
correctly rounded, and larger ones are divided as Python ints. The integer
kernels that a certificate's verdict rests on (the overflow bounds,
canonical forms, promotion and ``max_gap``) are the trusted checker's,
``check``, and this module imports them.

Wire shuffles and identities are bijections of the basis points: 0/1
matrices with exactly one 1 in each row and each column. Those built by
:func:`permutation` and :func:`identity` (and their sequential and parallel
composites) store only the row of each column's 1, as int64; that array has
one entry per point, so every stored index fits. Composing with such an
operand moves rows, columns or blocks of the other operand instead of
multiplying it, so the result is the dense product entry for entry, and the
other operand's arithmetic is kept (a binary64 operand still gives
binary64). Every other operand pair takes the dense product / Kronecker
path.

The dense matrix of an indexed map, of a process routed through one (a
state followed by a wire shuffle, say) and of a rational composition result
is a *deferred view*: it is built the first time ``.matrix`` is read, then
cached and frozen. A view of more than :data:`DENSE_CAP` entries is never
built; reading it raises :class:`~quasicause.errors.TooLarge`, and so does a
composition whose dense result would be that large, before it computes.
Processes made by the public constructor hold their matrix as a plain
attribute.

All values are immutable after construction (a deferred view, once built,
never changes) and all operations are pure, so independent diagrams can be
evaluated concurrently; two threads reading one unbuilt view may both build
it, and either copy is the same matrix. ``==`` on processes is identity;
:func:`processes_equal` compares values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from typing import Callable, Sequence, Tuple, Union

import numpy as np

from .check import (
    _INT64_LIMIT,
    DENSE_CAP,
    FLOAT64,
    FLOAT_TOL,
    RATIONAL,
    Ints,
    Operand,
    _amax,
    _apply,
    _canonical,
    _float_of,
    _int_matmul,
    _to_ints,
    _widened,
    max_gap,
)
from .errors import InvalidProbability, TooLarge, TypeMismatch, WrongKind
from .wires import (
    EMPTY,
    Signature,
    SystemType,
    check_permutation,
)

Number = Union[int, Fraction, float]


def _freeze(matrix: np.ndarray) -> np.ndarray:
    matrix.flags.writeable = False
    return matrix


def as_matrix(rows, exact: bool) -> np.ndarray:
    """Build a 2-D matrix in the requested backend from nested sequences."""
    if exact:
        matrix = np.array([[_as_rational(x) for x in row] for row in rows], dtype=object)
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


@dataclass(frozen=True, eq=False)
class LinearProcess:
    """A real matrix of shape (output dim) x (input dim) between signatures;
    a rational one also keeps its integer form and binary64 matrix, each
    built once, read-only."""

    inputs: Signature
    outputs: Signature
    matrix: np.ndarray

    # Set only by the private constructors below, never a field: the row of
    # each column's single 1 (indexed maps). Those constructors also set
    # ``_build``, which makes a deferred binary64 matrix or rational integer
    # form, and ``_ints``, the integer form of a rational process; ``_binary64``
    # sets ``_floats``, its binary64 matrix.
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
                    raise TypeError(f"rational-mode matrix holds non-rational entry {x!r}")
        elif matrix.dtype != np.float64:
            object.__setattr__(self, "matrix", matrix.astype(float))
        _freeze(self.matrix)
        arithmetic = RATIONAL if self.matrix.dtype == object else FLOAT64
        object.__setattr__(self, "_arithmetic", arithmetic)

    def __getattr__(self, name):
        # Reached only when normal lookup fails, so a built matrix is a plain
        # attribute read afterwards; this builds a deferred one on its first
        # read: a rational one from the integer form.
        d = vars(self)
        if name != "matrix" or not ("_build" in d or "_ints" in d):
            raise AttributeError(name)
        _check_cap(*self.shape, self)
        if d["_arithmetic"] == RATIONAL:
            matrix = _fractions(*_ints(self))
        else:
            matrix = d["_build"]()
        d["matrix"] = _freeze(matrix)
        return matrix

    @property
    def arithmetic(self) -> str:
        return self._arithmetic

    @property
    def shape(self) -> Tuple[int, int]:
        return self.outputs.dim, self.inputs.dim

    def as_scalar(self) -> Number:
        if self.shape != (1, 1):
            raise TypeMismatch("not a number (open wires remain)")
        return self.matrix[0, 0]

    def to_float(self) -> "LinearProcess":
        return self if self.arithmetic == FLOAT64 else _trusted(self.inputs, self.outputs, _binary64(self))

    def __repr__(self):
        return f"LinearProcess({self.inputs!r} -> {self.outputs!r}, {self.arithmetic})"


def _bare(inputs: Signature, outputs: Signature, arithmetic: str, **private) -> LinearProcess:
    p = object.__new__(LinearProcess)
    vars(p).update(inputs=inputs, outputs=outputs, _arithmetic=arithmetic, **private)
    return p


def _trusted(inputs: Signature, outputs: Signature, matrix: np.ndarray) -> LinearProcess:
    """A binary64 process on a matrix computed from already-checked operands,
    of the signatures' shape. Skips the public constructor's checks."""
    return _bare(inputs, outputs, FLOAT64, matrix=_freeze(matrix))


def _deferred(
    inputs: Signature, outputs: Signature, arithmetic: str, build: Callable
) -> LinearProcess:
    """A process built on its first read: ``build()`` returns the binary64
    matrix, or for a rational process its integer form (numerators of the
    signatures' shape, canonical over their denominator)."""
    return _bare(inputs, outputs, arithmetic, _build=build)


def _check_cap(rows: int, cols: int, what: object):
    """Refuse a dense matrix of more than DENSE_CAP entries before building
    it; ``what`` (a process, or the name of an operation) names it."""
    if rows * cols > DENSE_CAP:
        raise TooLarge(
            f"{what} would hold {rows}x{cols} entries, above the cap of {DENSE_CAP}"
        )


def _ints(p: LinearProcess) -> Ints:
    """The integer form of a rational process, built on first use and kept."""
    d = vars(p)
    if "_ints" not in d:
        build = d.get("_build")
        if build is None:  # made by the public constructor
            num, den = _to_ints(d["matrix"])
        else:
            _check_cap(*p.shape, p)
            num, den = build()
        d["_ints"] = (_freeze(num), den)
    return d["_ints"]


def _exact(inputs: Signature, outputs: Signature, num: np.ndarray, den: int) -> LinearProcess:
    """The rational process num / den; its ``Fraction`` matrix is a view."""
    num, den = _canonical(num, den)
    return _bare(inputs, outputs, RATIONAL, _ints=(_freeze(num), den))


def _made(inputs: Signature, outputs: Signature, x: Operand) -> LinearProcess:
    """The process of operand ``x`` reshaped (C order) to the signatures."""
    x = _apply(x, lambda a: a.reshape(outputs.dim, inputs.dim))
    return _exact(inputs, outputs, *x) if isinstance(x, tuple) else _trusted(inputs, outputs, x)


def _resigned(p: LinearProcess, inputs: Signature, outputs: Signature) -> LinearProcess:
    """``p`` between other signatures of the same dimensions, sharing the
    forms it has built."""
    d = vars(p)
    return _bare(inputs, outputs, p.arithmetic, **{k: d[k] for k in ("matrix", "_ints", "_floats") if k in d})


# -- integer numerators --------------------------------------------------------

def _fractions(num: np.ndarray, den: int) -> np.ndarray:
    """The object matrix num / den: ints when den is 1, ``Fraction``
    otherwise, every zero entry one shared ``Fraction(0)``."""
    if den == 1:
        return num.astype(object)
    flat = num.reshape(-1)
    nonzero = np.flatnonzero(flat)
    out = np.full(len(flat), Fraction(0), dtype=object)
    out[nonzero] = [Fraction(n, den) for n in flat[nonzero].tolist()]
    return out.reshape(num.shape)


def _binary64(p: LinearProcess) -> np.ndarray:
    """A process's binary64 matrix: a rational one's is promoted from its
    integer form on first use and kept, read-only, beside it."""
    if p.arithmetic == FLOAT64:
        return p.matrix
    d = vars(p)
    if "_floats" not in d:
        d["_floats"] = _freeze(_float_of(_ints(p)))
    return d["_floats"]


def _operand(p: LinearProcess, shape=None, binary64: bool = False) -> Operand:
    """A process's integer form, or its binary64 matrix when it is binary64
    or ``binary64`` is set; reshaped to ``shape`` if given."""
    x = _binary64(p) if binary64 or p.arithmetic == FLOAT64 else _ints(p)
    return x if shape is None else _apply(x, lambda a: a.reshape(shape))


def _operands(*ps: LinearProcess) -> list:
    """Processes as operands in one arithmetic: integer forms when every one
    is rational, binary64 matrices otherwise."""
    binary64 = any(p.arithmetic == FLOAT64 for p in ps)
    return [_operand(p, binary64=binary64) for p in ps]


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices, every entry one product a_ij * b_kl,
    without np.kron's per-call overhead (most operands here are tiny)."""
    (ar, ac), (br, bc) = a.shape, b.shape
    _check_cap(ar * br, ac * bc, "Kronecker product")
    return np.multiply.outer(a, b).transpose(0, 2, 1, 3).reshape(ar * br, ac * bc)


def _lincomb(terms) -> Ints:
    """sum c * num / den over (rational c, (num, den)) pairs of one shape, as
    numerators over the lcm of the c.denominator * den (not reduced)."""
    den = math.lcm(*(c.denominator * d for c, (_, d) in terms))
    factors = [c.numerator * (den // (c.denominator * d)) for c, (_, d) in terms]
    nums = [n for _, (n, _) in terms]
    small = all(n.dtype != object and abs(k) < _INT64_LIMIT for n, k in zip(nums, factors))
    if not (small and sum(abs(k) * _amax(n) for n, k in zip(nums, factors)) < _INT64_LIMIT):
        nums = [n.astype(object) for n in nums]
    total = nums[0] * factors[0]
    for n, k in zip(nums[1:], factors[1:]):
        total = total + n * k
    return total, den


def numerators(p: LinearProcess) -> Ints:
    """The integer form of a rational process: ``(num, den)`` with
    ``p.matrix == num / den``, den > 0 and gcd(num..., den) = 1. ``num`` is a
    read-only int64 array, or an object array of Python ints when some value
    needs more than 63 bits."""
    if p.arithmetic != RATIONAL:
        raise WrongKind(f"{p!r} is binary64 and has no integer form")
    return _ints(p)


def mode_product(tensor: Operand, matrix: Operand, axis: int) -> Operand:
    """Multiply ``matrix`` into one axis of ``tensor``: that axis's length
    becomes matrix.shape[0]. Two rational operands give ``(num, den_t * den_m)``,
    each product exact by ``check._int_matmul``, the exact product of
    ``check.tucker`` too; the result is binary64 if either operand is. These
    are ``np.tensordot``'s own steps, then ``np.moveaxis``'s, without their
    per-call wrappers (axis to the front, one 2-D product, axis back), so a
    binary64 result is theirs bit for bit."""
    if isinstance(tensor, tuple) and isinstance(matrix, tuple):
        (tn, td), (mn, md) = tensor, matrix
        return _mode(tn, mn, axis, _int_matmul), td * md
    return _mode(_float_of(tensor), _float_of(matrix), axis, np.dot)


def _mode(tensor: np.ndarray, matrix: np.ndarray, axis: int, product: Callable) -> np.ndarray:
    (front, back), shape = _axis_moves(tensor.ndim, axis), tensor.shape
    rest = shape[:axis] + shape[axis + 1:]
    out = product(matrix, tensor.transpose(front).reshape(shape[axis], math.prod(rest)))
    return out.reshape(len(matrix), *rest).transpose(back)


@lru_cache(maxsize=None)
def _axis_moves(ndim: int, axis: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The transposes that move ``axis`` to the front and back again."""
    return (axis, *range(axis), *range(axis + 1, ndim)), (*range(1, axis + 1), 0, *range(axis + 1, ndim))


def process(matrix, inputs: Signature, outputs: Signature, exact=None) -> LinearProcess:
    """Convenience constructor accepting nested sequences or arrays."""
    if isinstance(matrix, np.ndarray) and exact is None:
        return LinearProcess(inputs, outputs, matrix)
    if exact is None:
        exact = not any(isinstance(x, float) for row in matrix for x in row)
    return LinearProcess(inputs, outputs, as_matrix(matrix, exact))


def state(vector: Sequence[Number], output: Union[Signature, SystemType], exact=None):
    outputs = output if isinstance(output, Signature) else Signature((output,))
    return process([[x] for x in vector], EMPTY, outputs, exact=exact)


def effect(row: Sequence[Number], input: Union[Signature, SystemType], exact=None):
    inputs = input if isinstance(input, Signature) else Signature((input,))
    return process([list(row)], inputs, EMPTY, exact=exact)


def number(x: Number) -> LinearProcess:
    return process([[x]], EMPTY, EMPTY)


def _one_hot(rows: np.ndarray, n_rows: int) -> Ints:
    """Integer form of the 0/1 matrix whose column c has its 1 in row rows[c]."""
    matrix = np.zeros((n_rows, len(rows)), dtype=np.int64)
    matrix[rows, np.arange(len(rows))] = 1
    return matrix, 1


def _scatter(matrix: np.ndarray, rows: np.ndarray, n_rows: int) -> np.ndarray:
    """``matrix`` with row r moved to row rows[r] of ``n_rows`` zero rows."""
    out = np.zeros((n_rows, matrix.shape[1]), dtype=matrix.dtype)
    out[rows] = matrix
    return out


def _indexed(inputs: Signature, outputs: Signature, rows: np.ndarray) -> LinearProcess:
    """The rational 0/1 bijection whose column c has its 1 in row rows[c].
    Only ``rows`` is stored; the dense matrix is a deferred view."""
    n_rows = outputs.dim
    p = _deferred(inputs, outputs, RATIONAL, lambda: _one_hot(rows, n_rows))
    vars(p)["_rows"] = _freeze(rows)
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
        # deferred: a state followed by a shuffle builds nothing until read
        rows, n_rows = g._rows, g.outputs.dim
        if f.arithmetic == RATIONAL:
            num, den = _ints(f)
            return _deferred(
                f.inputs, g.outputs, RATIONAL, lambda: (_scatter(num, rows, n_rows), den)
            )
        return _deferred(f.inputs, g.outputs, FLOAT64, lambda: _scatter(f.matrix, rows, n_rows))
    if f._rows is not None:
        if g.arithmetic == RATIONAL:
            num, den = _ints(g)
            return _exact(f.inputs, g.outputs, num[:, f._rows], den)
        return _trusted(f.inputs, g.outputs, g.matrix[:, f._rows])
    _check_cap(g.outputs.dim, f.inputs.dim, "matrix product")
    if f.arithmetic == g.arithmetic == RATIONAL:
        (fn, fd), (gn, gd) = _ints(f), _ints(g)
        return _exact(f.inputs, g.outputs, _int_matmul(gn, fn), fd * gd)
    return _trusted(f.inputs, g.outputs, _binary64(g) @ _binary64(f))


def _kron_indexed(left: bool, index: LinearProcess, dense: np.ndarray) -> np.ndarray:
    """``np.kron`` of an indexed map (on the left if ``left``) and a dense
    matrix, made by placing the dense blocks. Every entry and its type are
    np.kron's (x on the index, 0*x off it), but only the dense matrix is
    multiplied, by 0, once."""
    rows, n_rows = index._rows, index.outputs.dim
    (dr, dc), pc = dense.shape, len(rows)
    _check_cap(n_rows * dr, pc * dc, "Kronecker product")
    if left:  # axes (index row, dense row, index column, dense column)
        out = np.empty((n_rows, dr, pc, dc), dtype=dense.dtype)
        out[...] = (dense * 0)[None, :, None, :]
        out[rows, :, np.arange(pc), :] = dense
    else:  # axes (dense row, index row, dense column, index column)
        out = np.empty((dr, n_rows, dc, pc), dtype=dense.dtype)
        out[...] = (dense * 0)[:, None, :, None]
        out[:, rows, :, np.arange(pc)] = dense
    return out.reshape(n_rows * dr, pc * dc)


def compose_par(f: LinearProcess, g: LinearProcess) -> LinearProcess:
    """Place ``f`` and ``g`` side by side (f's wires leftmost)."""
    inputs, outputs = f.inputs + g.inputs, f.outputs + g.outputs
    if f._rows is not None and g._rows is not None:
        rows = f._rows[:, None] * g.outputs.dim + g._rows
        return _indexed(inputs, outputs, rows.reshape(-1))
    if f._rows is not None or g._rows is not None:
        left = f._rows is not None
        index, other = (f, g) if left else (g, f)
        if other.arithmetic == RATIONAL:
            num, den = _ints(other)
            return _exact(inputs, outputs, _kron_indexed(left, index, num), den)
        return _trusted(inputs, outputs, _kron_indexed(left, index, other.matrix))
    if f.arithmetic == g.arithmetic == RATIONAL:
        (fn, fd), (gn, gd) = _ints(f), _ints(g)
        return _exact(inputs, outputs, _kron(*_widened(fn, gn)), fd * gd)
    return _trusted(inputs, outputs, _kron(_binary64(f), _binary64(g)))


def convex_mix(p: Number, f: LinearProcess, g: LinearProcess) -> LinearProcess:
    """Entrywise p*f + (1-p)*g on equal signatures."""
    if f.inputs.wires != g.inputs.wires or f.outputs.wires != g.outputs.wires:
        raise TypeMismatch("convex mixture needs identical signatures")
    if not 0 <= p <= 1:
        raise InvalidProbability(f"weight {p} outside [0, 1]")
    if f.arithmetic == g.arithmetic == RATIONAL and not isinstance(p, float):
        p = _as_rational(p)
        return _exact(f.inputs, f.outputs, *_lincomb([(p, _ints(f)), (1 - p, _ints(g))]))
    p = float(p)
    return LinearProcess(f.inputs, f.outputs, p * _binary64(f) + (1 - p) * _binary64(g))


def permutation(signature: Signature, order: Sequence[int]) -> LinearProcess:
    """Wire shuffle: output slot s carries input wire order[s] (0-based).

    The matrix is the 0/1 reindexing of mixed-radix coordinates; it is
    doubly stochastic. The process stores only the row of each column's 1
    (the matrix is a deferred view), so composing it with another process
    reorders that process's rows or columns: no arithmetic, exact in
    rational mode, and the other operand's arithmetic decides the result's.
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
    if f.shape[0] * f.shape[1] == 0:
        return 0
    return max_gap(*_operands(f, g))


def processes_equal(f: LinearProcess, g: LinearProcess, tol: Number = 0) -> bool:
    """Tolerance-aware equality; every comparison in the repo routes here."""
    return max_abs_diff(f, g) <= tol


def scale(c: Number, f: LinearProcess) -> LinearProcess:
    """Scalar multiple of a process (quasi-state and affine bookkeeping)."""
    if f.arithmetic == RATIONAL and not isinstance(c, float):
        return _exact(f.inputs, f.outputs, *_lincomb([(_as_rational(c), _ints(f))]))
    return LinearProcess(f.inputs, f.outputs, float(c) * _binary64(f))


def add(f: LinearProcess, g: LinearProcess) -> LinearProcess:
    if f.inputs.wires != g.inputs.wires or f.outputs.wires != g.outputs.wires:
        raise TypeMismatch("sum needs identical signatures")
    if f.arithmetic == g.arithmetic == RATIONAL:
        return _exact(f.inputs, f.outputs, *_lincomb([(1, _ints(f)), (1, _ints(g))]))
    return _trusted(f.inputs, f.outputs, _binary64(f) + _binary64(g))


def effective_tol(arithmetic: str, tol=None) -> Number:
    """The comparison tolerance, the one statement of the rule: ``tol`` when
    given, else 0 for rationals, so exact checks are exact, and
    ``check.FLOAT_TOL`` (1e-9) for binary64. A check with a quantum wire runs
    in binary64 at 1e-9 whatever the process's arithmetic, because its Choi
    spectrum is computed in floats; ``check.verify`` applies this rule to a
    certificate's arithmetic, which its declared tolerance can only tighten."""
    if tol is not None:
        return tol
    return 0 if arithmetic == RATIONAL else FLOAT_TOL
