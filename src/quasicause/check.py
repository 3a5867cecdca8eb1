"""The trusted checker: everything a certificate's verdict rests on, on raw arrays, importing
only the standard library and numpy. ``verify`` checks the channel digest (SHA-256 of canonical
JSON); that the channel body is a valid channel and every eta_i a valid, discard-preserving
local channel (``instrument_problem``, with the Gell-Mann basis for quantum wires); that xi sums
to one; and that xi's Tucker product with the etas (``tucker``) is within the tolerance of the
body. Files decode straight to arrays: binary64, or canonical integer numerators over one
denominator (``Ints``) with no ``Fraction`` per entry, on which rational checks are exact, in
int64 where a bound proves it safe. The library imports from here, never the reverse."""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, product
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

RATIONAL, FLOAT64, BASIS_CONVENTION = "rational", "float64", "gellmann-v1"
FLOAT_TOL = 1e-9  # binary64 comparisons; ``procs.effective_tol`` states the rule
FORMAT_VERSION, CERTIFICATE_VERSION = 1, 2  # channel and assemblage files; certificates
# Most entries a dense matrix may have: 2^26, 512 MB of binary64. xi holds prod |F_i| entries,
# 4^8 for eight binary wings; a recomposition diagram D_in^2 * prod |F_i|, 2^24 at six.
DENSE_CAP = 2 ** 26
_PLAIN = re.compile(r"-?[0-9]+/[0-9]+(?:/-?[0-9]+/[0-9]+)*")  # "p/q" entries joined by "/"
_INT64_LIMIT = 2 ** 63  # int64 kernels run only when every value they form is below this
_EXACT_FLOAT = 2 ** 53  # binary64 holds every integer up to this exactly

Ints = Tuple[np.ndarray, int]  # numerators (int64 or Python ints), denominator
Operand = Union[np.ndarray, Ints]  # a binary64 array, or a rational one's Ints
Wire = Tuple[int, Optional[int]]  # (vdim, Hilbert dimension if quantum, else None)


class QuasicauseError(Exception):
    """Base class for all library errors."""


class SchemaError(QuasicauseError):
    """A serialized file does not match its schema."""


def _amax(num: np.ndarray) -> int:
    """Largest magnitude in ``num`` (0 when empty), as a Python int."""
    return int(np.abs(num).max()) if num.size else 0

def _fit(num: np.ndarray) -> np.ndarray:
    """int64 when every value is below 2^63 in magnitude, Python ints otherwise."""
    return num.astype(np.int64) if num.dtype == object and _amax(num) < _INT64_LIMIT else num

def _canonical(num: np.ndarray, den: int) -> Ints:
    """Divide out the gcd of every numerator and the denominator."""
    g = math.gcd(den, int(np.gcd.reduce(num.reshape(-1)))) if den != 1 else 1
    return _fit(num // g if g != 1 else num), den // g

def _to_ints(matrix: np.ndarray) -> Ints:
    """The integer form of an object array of ints and ``Fraction``: over the lcm of the
    entries' reduced denominators it is already canonical."""
    flat = matrix.reshape(-1).tolist()
    den = math.lcm(*{x.denominator for x in flat})
    num = np.array([x.numerator * (den // x.denominator) for x in flat], dtype=object)
    return _fit(num.reshape(matrix.shape)), den

def _sum(x: Ints) -> Fraction:
    """The sum of num / den on the numerators, in int64 when no partial sum can overflow."""
    num, den = x
    return Fraction(int(num.sum(dtype=object if _amax(num) * num.size >= _INT64_LIMIT else None)), den)

def _float_of(x: Operand) -> np.ndarray:
    """The binary64 array of an operand, each rational entry ``float(Fraction)`` bit for bit: up
    to 2^53 both parts are exact, so one division rounds correctly."""
    if not isinstance(x, tuple):
        return x
    num, den = x
    if den <= _EXACT_FLOAT and _amax(num) <= _EXACT_FLOAT:
        return num.astype(float) / den
    return np.array([n / den for n in num.reshape(-1).tolist()], dtype=float).reshape(num.shape)

def _apply(x: Operand, f: Callable[[np.ndarray], np.ndarray]) -> Operand:
    """``f`` (a reshape or transpose) on an operand's array (a rational one's numerators)."""
    return (f(x[0]), x[1]) if isinstance(x, tuple) else f(x)

def _widened(a: np.ndarray, b: np.ndarray, terms: int = 1) -> Tuple[np.ndarray, np.ndarray]:
    """``a`` and ``b``, as Python ints unless sums of ``terms`` products a_i b_j fit in int64."""
    if object not in (a.dtype, b.dtype) and _amax(a) * _amax(b) * terms < _INT64_LIMIT:
        return a, b
    return a.astype(object), b.astype(object)

def max_gap(a: Operand, b: Operand):
    """Entrywise max |a - b|: a ``Fraction`` when both operands are rational."""
    if not (isinstance(a, tuple) and isinstance(b, tuple)):
        return abs(_float_of(a) - _float_of(b)).max()
    (an, ad), (bn, bd) = a, b
    den = math.lcm(ad, bd)
    ka, kb = den // ad, den // bd  # a - b = (an * ka - bn * kb) / den
    if max(_amax(an) * ka + _amax(bn) * kb, ka, kb) >= _INT64_LIMIT:
        an, bn = an.astype(object), bn.astype(object)
    return Fraction(_amax(an * ka - bn * kb), den)


def _int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b on integer numerators, exactly: on BLAS in binary64, cast back to int64, where every
    partial sum is an integer below 2^53 (max|a| max|b| k), so held exactly in any order; else in
    int64 below 2^63, else on Python ints."""
    bound = _amax(a) * _amax(b) * a.shape[1] if object not in (a.dtype, b.dtype) else _INT64_LIMIT
    if bound < _EXACT_FLOAT:
        return (a.astype(float) @ b.astype(float)).astype(np.int64)
    return a @ b if bound < _INT64_LIMIT else a.astype(object) @ b.astype(object)

def tucker(core: Operand, factors: Sequence[Operand]) -> Operand:
    """The Tucker product of ``core``, one axis per factor, with factors[i] of shape (p_i,
    core.shape[i]). Each step ``t = t.reshape(n_i, -1).T @ F_i.T`` contracts the leading axis and
    makes it the last, so after every factor the axes are back in order. Rational operands give
    ``(num, den_core * prod den_i)``, each step exact by ``_int_matmul``; if any operand is
    binary64, all are."""
    exact = isinstance(core, tuple) and all(isinstance(f, tuple) for f in factors)
    if not exact:
        core, factors = (_float_of(core), 1), [(_float_of(f), 1) for f in factors]
    t, den = core
    for f, d in factors:
        t = t.reshape(f.shape[1], -1).T
        t, den = (_int_matmul(t, f.T), den * d) if exact else (t @ f.T, den)
    t = t.reshape(tuple(f.shape[0] for f, _ in factors))
    return (t, den) if exact else t

def wing_major(body: Operand, out_dims: Sequence[int], in_dims: Sequence[int]) -> Operand:
    """A (prod out_dims, prod in_dims) body with axis i over wing i's (out, in) pairs."""
    m, dims, shape = len(out_dims), (*out_dims, *in_dims), [o * i for o, i in zip(out_dims, in_dims)]
    order = [j for i in range(m) for j in (i, m + i)]
    return _apply(body, lambda a: a.reshape(dims).transpose(order).reshape(shape))

def recontraction_residual(core: Operand, factors: Sequence[Operand], target: Operand):
    """max |tucker(core, factors) - target|: rational when every operand is."""
    if not all(isinstance(x, tuple) for x in (core, target, *factors)):
        core, target, factors = _float_of(core), _float_of(target), [_float_of(f) for f in factors]
    return max_gap(tucker(core, factors), target)


@lru_cache(maxsize=None)
def hermitian_basis(d: int) -> Tuple[np.ndarray, ...]:
    """The ``gellmann-v1`` basis of Hilbert dimension d, read-only: B_0 = I/sqrt(d), then
    (E_jk + E_kj)/sqrt(2) and then i(E_kj - E_jk)/sqrt(2) for j < k in lexicographic order, then
    diag(1,..,1,-l,0,..,0)/sqrt(l(l+1)) for l = 1..d-1; tr(B_a B_b) = delta_ab. Composite wires
    take tensor products, mixed-radix with the leftmost wire most significant."""
    if d < 1:
        raise ValueError("Hilbert dimension must be >= 1")
    mats = [np.eye(d, dtype=complex) / math.sqrt(d)]
    for jk, kj in ((1, 1), (-1j, 1j)):
        for j, k in ((j, k) for j in range(d) for k in range(j + 1, d)):
            mats.append(np.zeros((d, d), dtype=complex))
            mats[-1][j, k], mats[-1][k, j] = jk / math.sqrt(2), kj / math.sqrt(2)
    mats += [np.diag([1] * l + [-l] + [0] * (d - l - 1)).astype(complex) / math.sqrt(l * (l + 1))
             for l in range(1, d)]
    for mat in mats:
        mat.flags.writeable = False
    return tuple(mats)

@lru_cache(maxsize=None)
def vec_basis_matrix(dims: Tuple[int, ...]) -> np.ndarray:
    """Column a, mixed-radix over per-wire basis indices, is the C-order vec of the tensor
    product of those wires' basis elements; read-only."""
    u = np.array([reduce(np.kron, map(lambda d, a: hermitian_basis(d)[a], dims, combo),
                         np.ones((1, 1), dtype=complex)).reshape(-1)
                  for combo in product(*[range(d * d) for d in dims])]).T
    u.flags.writeable = False
    return u

def choi_of_transfer(transfer: np.ndarray, in_dims: Sequence[int], out_dims: Sequence[int]) -> np.ndarray:
    """Choi matrix sum_kl E_kl (x) Phi(E_kl) of a transfer matrix; leading axes are batch axes."""
    d_in, d_out, batch, n = math.prod(in_dims), math.prod(out_dims), transfer.shape[:-2], transfer.ndim - 2
    u_out, u_in = vec_basis_matrix(tuple(out_dims)), vec_basis_matrix(tuple(in_dims))
    superop = u_out @ transfer.astype(complex) @ u_in.conj().T
    choi = (superop.reshape(batch + (d_out, d_out, d_in, d_in))
            .transpose(tuple(range(n)) + (n + 2, n, n + 3, n + 1)).reshape(batch + (d_in * d_out,) * 2))
    return 0.5 * (choi + choi.swapaxes(-1, -2).conj())

@lru_cache(maxsize=None)
def _discard_row(wires: Tuple[Wire, ...]) -> np.ndarray:
    """The discard of quantum wires, read-only: each one's sqrt(d) on B_0, Kronecker left to right."""
    row = reduce(np.kron, (np.eye(1, vdim)[0] * math.sqrt(d) for vdim, d in wires), np.ones(1))
    row.flags.writeable = False
    return row

def instrument_problem(x: Operand, outs: Sequence[Wire], ins: Sequence[Wire], tol=None) -> Optional[str]:
    """Why the (prod outs, prod ins) matrix ``x`` is not a valid instrument, or None. Its blocks,
    indexed by (classical output a, classical input x), are transfer matrices from the quantum
    inputs to the quantum outputs; it is valid when each block is completely positive and, for
    every x, the blocks summed over a preserve the discard. With no quantum wire blocks are 1x1
    (entries >= 0, columns summing to 1), read on the numerators if ``x`` is rational, where the
    default tolerance is 0 and the test is exact; elsewhere it is ``FLOAT_TOL``. NaN is never
    valid."""
    wires = (*outs, *ins)
    quantum = any(d is not None for _, d in wires)
    exact = isinstance(x, tuple) and not quantum
    eps = tol if tol is not None else 0 if exact else FLOAT_TOL
    if exact:  # n / den against eps is n against eps * den, exactly
        num, den = x
        if isinstance(eps, float) and math.isfinite(eps):
            eps = Fraction(eps)
        low, eps = int(num.min()), eps * den
    elif not quantum:  # a 1x1 block is its own Choi eigenvalue
        low = x.min()
    else:
        groups = [[i for i, (_, d) in enumerate(wires) if (d is not None) == q and (i >= len(outs)) == side]
                  for q in (False, True) for side in (False, True)]  # cout, cin, qout, qin
        blocks = (_float_of(x).reshape([v for v, _ in wires]).transpose(list(chain(*groups)))
                  .reshape([math.prod(wires[i][0] for i in g) for g in groups]))
        low = np.nan  # eigvalsh may return garbage, not NaN, on NaN input
        if np.isfinite(blocks).all():
            dims = ([wires[i][1] for i in g] for g in groups[:1:-1])  # qin, qout
            low = np.linalg.eigvalsh(choi_of_transfer(blocks, *dims)).min()
    if not low >= -eps:
        low = Fraction(low, den) if exact else low
        return f"is not completely positive (lowest Choi eigenvalue {low})"
    if exact:
        safe = _amax(num) * len(num) + den < _INT64_LIMIT  # the column sums fit in int64
        gap = _amax(num.sum(axis=0, dtype=None if safe else object) - den)
    elif not quantum:
        gap = abs(x.sum(axis=0) - 1).max()
    else:
        u_out, u_in = (_discard_row(tuple(wires[i] for i in g)) for g in groups[2:])
        gap = abs(np.tensordot(u_out, blocks.sum(axis=0), axes=(0, 1)) - u_in).max()
    if gap <= eps:
        return None
    return f"is not discard-preserving (gap {Fraction(gap, den) if exact else gap})"


def canonical_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()

def channel_digest(obj) -> str:
    return "sha256:" + hashlib.sha256(canonical_bytes(obj)).hexdigest()

def _expect(value, kind: type, what: str):
    """``value`` when it is a ``kind``, else a SchemaError naming ``what``."""
    if not isinstance(value, kind):
        raise SchemaError(f"{what} must be a JSON {kind.__name__}, not {type(value).__name__}")
    return value

def decode_number(x, exact: bool):
    """A "p/q" string or an int in either mode, or a JSON float in binary64 mode; anything else,
    and anything non-finite, is a SchemaError."""
    if isinstance(x, bool) or not isinstance(x, (str, int) if exact else (str, int, float)):
        raise SchemaError(f"{'rational' if exact else 'float64'} file holds entry {x!r}")
    try:
        value = Fraction(x) if isinstance(x, str) else x
        value = Fraction(value) if exact else float(value)
    except (ValueError, ZeroDivisionError, OverflowError) as err:
        raise SchemaError(f"bad number {x!r}") from err
    if not exact and not math.isfinite(value):
        raise SchemaError(f"non-finite number {x!r}")
    return value

def _plain_rationals(flat: list) -> Optional[Ints]:
    """Plain "p" and "p/q" strings (a leading minus, ASCII digits, q > 0) as canonical Ints, with
    no ``Fraction``; None if some entry is not one."""
    if not flat or not set(map(type, flat)) <= {str}:
        return None
    text = "/".join(s if "/" in s else s + "/1" for s in flat)  # every entry "p/q"
    if text.count("/") != 2 * len(flat) - 1 or not _PLAIN.fullmatch(text):  # one slash an entry
        return None
    parts = text.split("/")
    narrow = max(map(len, parts)) <= 18  # then every part is below 10^18 and fits in int64
    try:
        ints = np.array(parts, dtype=np.int64) if narrow else np.array(list(map(int, parts)), dtype=object)
    except ValueError:  # a part past int's digit limit, which the per-entry decoder names
        return None
    num, q = ints[0::2], ints[1::2]
    if q.min() < 1:
        return None
    den = math.lcm(*np.unique(q).tolist())
    scale = den // (q.astype(object) if den >= _INT64_LIMIT else q)
    if den >= _INT64_LIMIT or _amax(num) * _amax(scale) >= _INT64_LIMIT:
        num, scale = num.astype(object), scale.astype(object)
    return _canonical(num * scale, den)

def decode_matrix(flat, shape: Tuple[int, int], exact: bool) -> Operand:
    """A file matrix as canonical Ints if ``exact``, else binary64, in one pass; a list that pass
    refuses goes entry by entry through ``decode_number``, which names the first bad entry."""
    if len(_expect(flat, list, "matrix")) != shape[0] * shape[1]:
        raise SchemaError(f"matrix length {len(flat)} does not match shape {shape}")
    if exact:
        x = _plain_rationals(flat) or _to_ints(np.array([decode_number(v, True) for v in flat], dtype=object))
        return x[0].reshape(shape), x[1]
    if all(issubclass(k, (int, float)) and k is not bool for k in set(map(type, flat))):
        try:  # numbers only, numpy's float64 included; an int past binary64's range falls through
            out = np.array(flat, dtype=float)
        except OverflowError:
            out = None
        if out is not None and np.isfinite(out).all():
            return out.reshape(shape)
    return np.array([decode_number(x, False) for x in flat], dtype=float).reshape(shape)

def read_channel(obj) -> Tuple[List[Tuple[Wire, Wire]], Operand]:
    """The (input, output) wire of each wing of a channel file, and its (prod outputs, prod
    inputs) body, which must be a valid channel."""
    def wire(w) -> Wire:
        kind, dim = _expect(w, dict, "wire").get("kind"), w.get("dim")
        if type(dim) is not int or dim < 1:
            raise SchemaError(f"bad wire dim {dim!r}")
        if kind not in ("classical", "quantum"):
            raise SchemaError(f"unknown wire kind {kind!r}")
        return (dim * dim, dim) if kind == "quantum" and dim > 1 else (dim, None)

    if _expect(obj, dict, "channel").get("version") != FORMAT_VERSION:
        raise SchemaError(f"unsupported version {obj.get('version')!r}")
    if obj.get("basisConvention") != BASIS_CONVENTION:
        raise SchemaError(f"unknown basis convention {obj.get('basisConvention')!r}")
    if obj.get("arithmetic") not in (RATIONAL, FLOAT64):
        raise SchemaError(f"unknown arithmetic {obj.get('arithmetic')!r}")
    wings = [(wire(w.get("in")), wire(w.get("out")))
             for w in (_expect(w, dict, "wing") for w in _expect(obj.get("wings", []), list, "wings"))]
    if not wings:
        raise SchemaError("channel needs at least one wing")
    ins, outs = zip(*wings)
    shape = (math.prod(v for v, _ in outs), math.prod(v for v, _ in ins))
    body = decode_matrix(obj.get("matrix", []), shape, obj["arithmetic"] == RATIONAL)
    problem = instrument_problem(body, outs, ins)
    if problem:
        raise SchemaError(f"channel body {problem}")
    return wings, body

def _xi_points(indices: List[list], carriers: Tuple[int, ...]) -> np.ndarray:
    """The C-order point of each xi entry's indices in a core of shape ``carriers``, checked in
    one pass; if one is not a list of ints inside the carriers, one per wing, or repeats an
    earlier one, a per-entry pass names the first such entry."""
    m = len(carriers)
    if set(map(len, indices)) <= {m} and set(map(type, chain.from_iterable(indices))) <= {int}:
        try:
            digits = np.array(indices, dtype=np.int64).reshape(len(indices), m)
        except OverflowError:
            digits = None
        if digits is not None and ((digits >= 0) & (digits < carriers)).all():
            points = np.ravel_multi_index(tuple(digits.T), carriers)
            if len(np.unique(points)) == len(points):
                return points
    seen = set()
    for idx in map(tuple, indices):
        in_range = all(type(j) is int and 0 <= j < k for j, k in zip(idx, carriers))
        if len(idx) != m or not in_range or idx in seen:
            raise SchemaError(f"xi indices {list(idx)} outside the carriers or repeated")
        seen.add(idx)
    raise AssertionError("the one-pass check refused valid xi indices")

def read_realization(cert, dims: Sequence[Tuple[int, int]]):
    """A certificate's (channel id, carriers, xi, etas) on wings of (input, output) vdims ``dims``,
    in its arithmetic: xi is the (prod carriers, 1) core holding the file's entries at their
    indices, eta i the (out_i, in_i * carrier_i) matrix."""
    exact = _expect(cert, dict, "certificate").get("arithmetic") == RATIONAL
    real = cert.get("realization")
    if not isinstance(real, dict):
        raise SchemaError("certificate lacks a realization block")
    channel_id = _expect(real.get("channelId", "cert"), str, "channelId")
    brands = _expect(real.get("brands", []), list, "brands")
    if len(brands) != len(dims):
        raise SchemaError("one brand per wing required")
    for wing, b in enumerate(brands, start=1):
        carrier = _expect(b, dict, "brand").get("carrier")
        if type(carrier) is not int or carrier < 1:
            raise SchemaError(f"bad carrier {carrier!r} on brand {wing}")
        if (b.get("wing"), b.get("channel", channel_id)) != (wing, channel_id):
            raise SchemaError(f"brand {wing} must name wing {wing} of {channel_id!r}")
    carriers = tuple(b["carrier"] for b in brands)
    if math.prod(carriers) > DENSE_CAP:
        raise SchemaError(f"xi on carriers {carriers} exceeds {DENSE_CAP} entries")
    terms = [t if isinstance(t, dict) else _expect(t, dict, "xi entry")
             for t in _expect(real.get("xi", []), list, "xi")]
    indices = [i if isinstance(i, list) else _expect(i, list, "xi indices")
               for i in (t.get("indices") for t in terms)]
    points = _xi_points(indices, carriers)
    values = decode_matrix([t.get("c") for t in terms], (len(terms), 1), exact)
    core = np.zeros((math.prod(carriers), 1), dtype=(values[0] if exact else values).dtype)
    core[points] = values[0] if exact else values
    etas = list(_expect(real.get("etas", []), list, "etas"))
    if len(etas) != len(dims):
        raise SchemaError("one eta per wing required")
    for i, (flat, (n_in, n_out), k) in enumerate(zip(etas, dims, carriers)):
        try:
            etas[i] = decode_matrix(flat, (n_out, n_in * k), exact)
        except SchemaError as err:
            raise SchemaError(f"eta {i + 1}: {err}") from err
    return channel_id, carriers, (core, values[1]) if exact else core, etas


def verify(cert, channel_obj, tol=None) -> Tuple[bool, object, str]:
    """Digest check, then the realization claim re-checked from the files alone, within ``tol``:
    by default 0 for a rational certificate and ``FLOAT_TOL`` otherwise, tightened (never
    loosened) by the certificate's declared ``"tolerance"``, which also bounds a binary64
    coefficient sum. Returns (ok, residual, detail), a failed ``detail`` naming every check that
    failed; a malformed file raises SchemaError."""
    if _expect(cert, dict, "certificate").get("version") != CERTIFICATE_VERSION:
        return False, None, f"unsupported certificate version {cert.get('version')!r}"
    if cert.get("channelDigest") != channel_digest(channel_obj):
        return False, None, "channel digest mismatch"
    wings, body = read_channel(channel_obj)
    (ins, outs), exact = zip(*wings), cert.get("arithmetic") == RATIONAL
    _, carriers, xi, etas = read_realization(cert, [(i[0], o[0]) for i, o in wings])
    factors = [_apply(e, lambda a, k=k: a.reshape(-1, k)) for e, k in zip(etas, carriers)]
    target = wing_major(body, [v for v, _ in outs], [v for v, _ in ins])
    residual = recontraction_residual(_apply(xi, lambda a: a.reshape(carriers)), factors, target)
    tol = (0 if exact else FLOAT_TOL) if tol is None else tol
    if cert.get("tolerance") is not None:
        tol = min(tol, decode_number(cert["tolerance"], exact))
    problems = (instrument_problem(e, [o], [i, (k, None)]) for e, (i, o), k in zip(etas, wings, carriers))
    failed = [f"eta {i} {problem}" for i, problem in enumerate(problems, start=1) if problem]
    total = _sum(xi) if exact else xi.sum()
    if not (total == 1 if exact else abs(total - 1) <= tol):
        failed.append(f"coefficients sum to {total}, not 1")
    if not residual <= tol:
        failed.append(f"recontraction residual {residual} exceeds tolerance {tol}")
    if failed:
        return False, residual, "; ".join(failed)
    return True, residual, f"recontraction residual {residual} within tolerance {tol}"
