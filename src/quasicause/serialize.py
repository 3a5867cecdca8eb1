"""Channel, assemblage and certificate files.

Channels serialize wing types plus a row-major matrix; rationals travel as
"p/q" strings so the rational pipeline round-trips bit-exactly. Certificates
inline everything third-party verification needs, and nothing it does not
check: the shared state ``xi`` as its nonzero entries, each with one index
per wing, and the controlled frames ``eta_i``, whose carriers the brands
give: brand i is written from xi's ancilla i (its id, brand and carrier) and
read back as that ancilla, ``wires.extension(channelId, i, carrier)``.
`verify` never re-runs a solver or frame construction: it rebuilds the
realization from the file and recontracts against the channel. Certificates
are format version 2; channel and assemblage files are version 1.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from itertools import chain
from typing import Dict, List, Tuple

import numpy as np

from .decompose import (
    CommonCauseRealization,
    QuasiMixture,
    nonzero_entries,
    verify_realization,
)
from .errors import SchemaError
from .nonsignalling import MultipartiteChannel, NSReport
from .procs import DENSE_CAP, RATIONAL, LinearProcess, _operand, _sum, effective_tol
from .theories import BASIS_CONVENTION, QUANT, STOCH, instrument_problem
from .wires import (
    CLASSICAL,
    EMPTY,
    QUANTUM,
    Signature,
    SystemType,
    classical,
    extension,
    quantum,
    sig,
)

FORMAT_VERSION = 1
CERTIFICATE_VERSION = 2


# -- number and matrix encoding ---------------------------------------------

def encode_number(x) -> object:
    if isinstance(x, float):
        return x
    return str(Fraction(x))


def decode_number(x, exact: bool):
    """A "p/q" string or an int in either mode, or a JSON float in binary64
    mode; anything else, and anything non-finite, is a SchemaError."""
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


def _expect(value, kind: type, what: str):
    """``value`` when it is a ``kind``, else a SchemaError naming ``what``."""
    if not isinstance(value, kind):
        raise SchemaError(f"{what} must be a JSON {kind.__name__}, not {type(value).__name__}")
    return value


def encode_matrix(matrix: np.ndarray) -> List[object]:
    return [encode_number(x) for x in matrix.reshape(-1)]

def decode_matrix(flat, shape: Tuple[int, int], exact: bool) -> np.ndarray:
    if len(_expect(flat, list, "matrix")) != shape[0] * shape[1]:
        raise SchemaError(
            f"matrix length {len(flat)} does not match shape {shape}"
        )
    if exact:
        out = np.empty(shape, dtype=object)
        for i, x in enumerate(flat):
            out[i // shape[1], i % shape[1]] = decode_number(x, True)
        return out
    if all(issubclass(k, (int, float)) and k is not bool for k in set(map(type, flat))):
        # numbers only (numpy's float64 included): one conversion and one
        # finiteness check; an int past binary64's range or a non-finite
        # entry falls through to the per-entry decoder, which names it
        try:
            out = np.array(flat, dtype=float)
        except OverflowError:
            out = None
        if out is not None and np.isfinite(out).all():
            return out.reshape(shape)
    return np.array(
        [decode_number(x, False) for x in flat], dtype=float
    ).reshape(shape)


def _wing_type_to_json(t: SystemType) -> Dict:
    if t.kind == QUANTUM:
        return {"kind": "quantum", "dim": t.hilbert_dim}
    if t.kind == CLASSICAL:
        return {"kind": "classical", "dim": t.vdim}
    raise SchemaError(f"cannot serialize wire kind {t.kind}")


def _wing_type_from_json(obj: Dict) -> SystemType:
    kind = _expect(obj, dict, "wire").get("kind")
    dim = obj.get("dim")
    if type(dim) is not int or dim < 1:
        raise SchemaError(f"bad wire dim {dim!r}")
    if kind == "classical":
        return classical(dim)
    if kind == "quantum":
        return quantum(dim)
    raise SchemaError(f"unknown wire kind {kind!r}")


# -- channel files -----------------------------------------------------------

def channel_to_json(channel: MultipartiteChannel) -> Dict:
    return {
        "version": FORMAT_VERSION,
        "arithmetic": channel.body.arithmetic,
        "basisConvention": BASIS_CONVENTION,
        "wings": [
            {
                "name": f"w{i}",
                "in": _wing_type_to_json(w_in),
                "out": _wing_type_to_json(w_out),
            }
            for i, (w_in, w_out) in enumerate(channel.wings, start=1)
        ],
        "matrix": encode_matrix(channel.body.matrix),
    }


def channel_from_json(obj: Dict) -> MultipartiteChannel:
    if _expect(obj, dict, "channel").get("version") != FORMAT_VERSION:
        raise SchemaError(f"unsupported version {obj.get('version')!r}")
    if obj.get("basisConvention") != BASIS_CONVENTION:
        raise SchemaError(
            f"unknown basis convention {obj.get('basisConvention')!r}"
        )
    arithmetic = obj.get("arithmetic")
    if arithmetic not in (RATIONAL, "float64"):
        raise SchemaError(f"unknown arithmetic {arithmetic!r}")
    wings = []
    for w in _expect(obj.get("wings", []), list, "wings"):
        w = _expect(w, dict, "wing")
        wings.append((_wing_type_from_json(w.get("in")), _wing_type_from_json(w.get("out"))))
    if not wings:
        raise SchemaError("channel needs at least one wing")
    in_sig = Signature(tuple(w for w, _ in wings))
    out_sig = Signature(tuple(w for _, w in wings))
    matrix = decode_matrix(
        obj.get("matrix", []), (out_sig.dim, in_sig.dim), arithmetic == RATIONAL
    )
    theory = QUANT if any(
        t.kind == QUANTUM for pair in wings for t in pair
    ) else STOCH
    body = LinearProcess(in_sig, out_sig, matrix)
    return MultipartiteChannel(tuple(wings), body, theory)


def canonical_bytes(obj: Dict) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def channel_digest(obj: Dict) -> str:
    return "sha256:" + hashlib.sha256(canonical_bytes(obj)).hexdigest()


# -- ns reports ---------------------------------------------------------------

def ns_report_to_json(report: NSReport) -> Dict:
    """The verdict, the tolerance and each checked subset's residual. A
    realization that verifies already proves non-signalling, so the report
    is a summary that ``verify_certificate`` does not read."""
    return {
        "verdict": report.verdict,
        "tolerance": encode_number(report.tolerance),
        "subsets": [
            {"K": list(check.subset), "residual": encode_number(check.residual)}
            for check in report.checks
        ],
    }


# -- certificates --------------------------------------------------------------

def certificate_to_json(
    channel: MultipartiteChannel,
    digest: str,
    report: NSReport,
    qm: QuasiMixture,
    realization: CommonCauseRealization,
    realization_residual,
    tolerance,
) -> Dict:
    xi = realization.xi
    return {
        "version": CERTIFICATE_VERSION,
        "channelDigest": digest,
        "arithmetic": realization.arithmetic,
        "basisConvention": BASIS_CONVENTION,
        "solverMode": qm.mode,
        "tolerance": encode_number(tolerance),
        "nsReport": ns_report_to_json(report),
        "realization": {
            "channelId": realization.channel_id,
            "xi": [
                {"indices": list(idx), "c": encode_number(c)}
                for c, idx in nonzero_entries(xi.matrix.reshape(xi.outputs.dims))
            ],
            "etas": [encode_matrix(e.matrix) for e in realization.etas],
            "brands": [
                {"type": a.id, "channel": a.brand[0], "wing": a.brand[1], "carrier": a.vdim}
                for a in realization.ancilla_types
            ],
        },
        "residuals": {
            "decomposition": encode_number(qm.residual),
            "realization": encode_number(realization_residual),
        },
    }


def _xi_points(indices: List[list], carriers: Tuple[int, ...]) -> np.ndarray:
    """The C-order point of each xi entry's indices in the core of shape
    ``carriers``. All entries are checked in one pass; when one is not a list
    of ints inside the carriers, one per wing, or repeats an earlier one, a
    second, per-entry pass names the first such entry."""
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


def realization_from_certificate(
    obj: Dict, channel: MultipartiteChannel
) -> CommonCauseRealization:
    """Rebuild xi and the etas from certificate data alone."""
    exact = _expect(obj, dict, "certificate").get("arithmetic") == RATIONAL
    real = obj.get("realization")
    if not isinstance(real, dict):
        raise SchemaError("certificate lacks a realization block")
    channel_id = _expect(real.get("channelId", "cert"), str, "channelId")
    m = channel.m
    brands_json = _expect(real.get("brands", []), list, "brands")
    if len(brands_json) != m:
        raise SchemaError("one brand per wing required")
    ancillas = []
    for wing, b in enumerate(brands_json, start=1):
        carrier = _expect(b, dict, "brand").get("carrier")
        if type(carrier) is not int or carrier < 1:
            raise SchemaError(f"bad carrier {carrier!r} on brand {wing}")
        if (b.get("wing"), b.get("channel", channel_id)) != (wing, channel_id):
            raise SchemaError(f"brand {wing} must name wing {wing} of {channel_id!r}")
        ancillas.append(extension(channel_id, wing, carrier))
    carriers = tuple(a.vdim for a in ancillas)
    if math.prod(carriers) > DENSE_CAP:
        raise SchemaError(f"xi on carriers {carriers} exceeds {DENSE_CAP} entries")

    entries = _expect(real.get("xi", []), list, "xi")
    terms = [_expect(entry, dict, "xi entry") for entry in entries]
    points = _xi_points([_expect(t.get("indices"), list, "xi indices") for t in terms], carriers)
    core = np.zeros((math.prod(carriers), 1), dtype=object if exact else float)
    core[points] = decode_matrix([t.get("c") for t in terms], (len(terms), 1), exact)
    xi = LinearProcess(EMPTY, Signature(tuple(ancillas)), core)

    etas_json = _expect(real.get("etas", []), list, "etas")
    if len(etas_json) != m:
        raise SchemaError("one eta per wing required")
    etas = []
    for i, flat in enumerate(etas_json):
        w_in, w_out = channel.wings[i]
        try:
            mat = decode_matrix(flat, (w_out.vdim, w_in.vdim * carriers[i]), exact)
        except SchemaError as err:
            raise SchemaError(f"eta {i + 1}: {err}") from err
        etas.append(LinearProcess(sig(w_in, ancillas[i]), sig(w_out), mat))
    return CommonCauseRealization(xi, tuple(etas))


def verify_certificate(
    cert: Dict, channel_obj: Dict, tol=None
) -> Tuple[bool, object, str]:
    """Digest check, then the realization claim re-checked from the file
    alone, with no solver involved:

    - every eta is a valid, discard-preserving local channel;
    - the entries of xi sum to one, exactly in rational mode;
    - the recontraction residual is within the tolerance.

    The tolerance is ``tol``, by default ``effective_tol`` of the
    certificate's arithmetic; the certificate's declared ``"tolerance"``
    can only tighten it, and also bounds the float coefficient sum.

    Returns (ok, residual, detail); on failure ``detail`` names every check
    that failed.
    """
    if _expect(cert, dict, "certificate").get("version") != CERTIFICATE_VERSION:
        return False, None, f"unsupported certificate version {cert.get('version')!r}"
    digest = channel_digest(channel_obj)
    if cert.get("channelDigest") != digest:
        return False, None, "channel digest mismatch"
    channel = channel_from_json(channel_obj)
    realization = realization_from_certificate(cert, channel)
    residual = verify_realization(channel, realization)
    exact = cert.get("arithmetic") == RATIONAL
    if tol is None:
        tol = effective_tol(cert.get("arithmetic"))
    declared = cert.get("tolerance")
    if declared is not None:
        tol = min(tol, decode_number(declared, exact))

    failed = []
    for i, eta in enumerate(realization.etas, start=1):
        problem = instrument_problem(eta)
        if problem:
            failed.append(f"eta {i} {problem}")
    xi = _operand(realization.xi)  # the numerators verify_realization cached, if rational
    total = _sum(xi) if exact else xi.sum()
    sums_to_one = total == 1 if exact else abs(total - 1) <= tol
    if not sums_to_one:
        failed.append(f"coefficients sum to {total}, not 1")
    if not residual <= tol:
        failed.append(f"recontraction residual {residual} exceeds tolerance {tol}")
    if failed:
        return False, residual, "; ".join(failed)
    return True, residual, f"recontraction residual {residual} within tolerance {tol}"


# -- assemblage files ----------------------------------------------------------

def assemblage_to_json(asm) -> Dict:
    elements = []
    from itertools import product as iproduct

    for a in iproduct(*[range(n) for n in asm.outcomes]):
        for x in iproduct(*[range(n) for n in asm.settings]):
            elements.append({
                "a": list(a),
                "x": list(x),
                "coords": [float(v) for v in asm.element(a, x)],
            })
    return {
        "version": FORMAT_VERSION,
        "basisConvention": BASIS_CONVENTION,
        "settings": list(asm.settings),
        "outcomes": list(asm.outcomes),
        "trustedDim": asm.trusted_dim,
        "elements": elements,
    }


def assemblage_from_json(obj: Dict):
    from .assemblages import Assemblage

    if _expect(obj, dict, "assemblage").get("version") != FORMAT_VERSION:
        raise SchemaError(f"unsupported version {obj.get('version')!r}")
    settings, outcomes = (
        tuple(_expect(obj.get(k, []), list, k)) for k in ("settings", "outcomes")
    )
    d = obj.get("trustedDim")
    if not settings or len(settings) != len(outcomes) or not all(
        type(n) is int and n > 0 for n in settings + outcomes + (d,)
    ):
        raise SchemaError("assemblage needs settings, outcomes, trustedDim")
    # sizes are checked before the table is allocated
    want = math.prod(outcomes) * math.prod(settings)
    if want * d * d > DENSE_CAP:
        raise SchemaError(
            f"assemblage of {want} elements on dimension {d} exceeds {DENSE_CAP} entries"
        )
    elements = _expect(obj.get("elements", []), list, "elements")
    if len(elements) != want:
        raise SchemaError(f"{len(elements)} elements given, {want} required")
    table = np.zeros(outcomes + settings + (d * d,))
    seen = set()
    for el in elements:
        el = _expect(el, dict, "element")
        a, x = (tuple(_expect(el.get(k, []), list, f"element {k}")) for k in ("a", "x"))
        if len(a) != len(outcomes) or len(x) != len(settings) or not all(
            type(v) is int and 0 <= v < n for v, n in zip(a + x, outcomes + settings)
        ):
            raise SchemaError(f"element with bad labels a={a} x={x}")
        if (a, x) in seen:
            raise SchemaError(f"element a={a} x={x} given twice")
        coords = _expect(el.get("coords", []), list, "element coords")
        if len(coords) != d * d:
            raise SchemaError(f"element a={a} x={x} has {len(coords)} coords")
        table[a + x] = [decode_number(c, False) for c in coords]
        seen.add((a, x))
    return Assemblage(settings, outcomes, d, table)
