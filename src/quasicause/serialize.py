"""Channel, assemblage and certificate files.

Channels serialize wing types plus a row-major matrix; rationals travel as
"p/q" strings so the rational pipeline round-trips bit-exactly. Certificates
inline everything third-party verification needs (frames, coefficients, eta
matrices), so `verify` never re-runs a solver or frame construction: it
rebuilds the realization from the file and recontracts against the channel.
The shared state travels as its k diagonal coefficients, which are also the
rebuilt realization's state; the dense k^m ``xi`` is never formed here.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np

from .decompose import (
    CommonCauseRealization,
    QuasiMixture,
    TypeBrand,
    WingFrame,
    _arithmetic,
    verify_realization,
)
from .errors import SchemaError
from .nonsignalling import MultipartiteChannel, NSReport
from .procs import RATIONAL, LinearProcess, effective_tol
from .theories import BASIS_CONVENTION, QUANT, STOCH, instrument_problem
from .wires import CLASSICAL, QUANTUM, Signature, SystemType, classical, extension, quantum, sig

FORMAT_VERSION = 1


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
    if not isinstance(dim, int) or dim < 1:
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
    if obj.get("version") != FORMAT_VERSION:
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


def load_channel(path: str) -> Tuple[MultipartiteChannel, str]:
    with open(path) as fh:
        obj = json.load(fh)
    return channel_from_json(obj), channel_digest(obj)


def save_channel(channel: MultipartiteChannel, path: str) -> str:
    obj = channel_to_json(channel)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")
    return channel_digest(obj)


# -- ns reports ---------------------------------------------------------------

def ns_report_to_json(report: NSReport) -> Dict:
    return {
        "verdict": report.verdict,
        "tolerance": encode_number(report.tolerance),
        "subsets": [
            {
                "K": list(check.subset),
                "residual": encode_number(check.residual),
                "marginal": encode_matrix(check.marginal.matrix),
            }
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
    return {
        "version": FORMAT_VERSION,
        "channelDigest": digest,
        "arithmetic": _arithmetic(realization),
        "basisConvention": BASIS_CONVENTION,
        "solverMode": qm.mode,
        "tolerance": encode_number(tolerance),
        "nsReport": ns_report_to_json(report),
        "quasiMixture": {
            "residual": encode_number(qm.residual),
            "terms": [
                {"c": encode_number(c), "indices": list(idx)}
                for c, idx in qm.terms
            ],
        },
        "frames": [
            {
                "wing": i,
                "retained": list(f.retained),
                "members": [encode_matrix(m.matrix) for m in f.members],
            }
            for i, f in enumerate(realization.frame, start=1)
        ],
        "realization": {
            "channelId": realization.channel_id,
            "carrier": realization.carrier_dim,
            "xi": [
                {"k": k, "c": encode_number(c)}
                for k, c in enumerate(realization.coefficients)
            ],
            "etas": [encode_matrix(e.matrix) for e in realization.etas],
            "brands": [
                {
                    "type": b.ext_type.id,
                    "channel": b.channel_id,
                    "wing": b.wing,
                    "carrier": b.carrier,
                }
                for b in realization.brands
            ],
        },
        "residuals": {
            "decomposition": encode_number(qm.residual),
            "realization": encode_number(realization_residual),
        },
    }


def realization_from_certificate(
    obj: Dict, channel: MultipartiteChannel
) -> CommonCauseRealization:
    """Rebuild the coefficients and the etas from certificate data alone."""
    exact = obj.get("arithmetic") == RATIONAL
    real = obj.get("realization")
    if not isinstance(real, dict):
        raise SchemaError("certificate lacks a realization block")
    carrier = real.get("carrier")
    if not isinstance(carrier, int) or carrier < 1:
        raise SchemaError(f"bad carrier {carrier!r}")
    channel_id = _expect(real.get("channelId", "cert"), str, "channelId")
    m = channel.m
    brands_json = _expect(real.get("brands", []), list, "brands")
    if len(brands_json) != m:
        raise SchemaError("one brand per wing required")
    ancillas = []
    brands = []
    for wing, b in enumerate(brands_json, start=1):
        if _expect(b, dict, "brand").get("carrier") != carrier:
            raise SchemaError("brand carrier disagrees with realization")
        if (b.get("wing"), b.get("channel", channel_id)) != (wing, channel_id):
            raise SchemaError(f"brand {wing} must name wing {wing} of {channel_id!r}")
        anc = extension(channel_id, wing, carrier)
        ancillas.append(anc)
        brands.append(TypeBrand(anc, channel_id, wing, carrier))

    coeffs = {}
    for entry in _expect(real.get("xi", []), list, "xi"):
        k = _expect(entry, dict, "xi entry").get("k")
        if not isinstance(k, int) or not 0 <= k < carrier or k in coeffs:
            raise SchemaError(f"xi index {k!r} outside carrier or repeated")
        coeffs[k] = decode_number(entry.get("c"), exact)

    etas_json = _expect(real.get("etas", []), list, "etas")
    if len(etas_json) != m:
        raise SchemaError("one eta per wing required")
    etas = []
    for i, flat in enumerate(etas_json):
        w_in, w_out = channel.wings[i]
        try:
            mat = decode_matrix(flat, (w_out.vdim, w_in.vdim * carrier), exact)
        except SchemaError as err:
            raise SchemaError(f"eta {i + 1}: {err}") from err
        etas.append(LinearProcess(sig(w_in, ancillas[i]), sig(w_out), mat))

    frames_json = _expect(obj.get("frames", []), list, "frames")
    if frames_json and len(frames_json) != m:
        raise SchemaError("one frame per wing required")
    frames = tuple(
        _frame_from_json(f, channel.wings[i]) for i, f in enumerate(frames_json)
    )
    mixture = _expect(obj.get("quasiMixture", {}), dict, "quasiMixture")
    terms = _expect(mixture.get("terms", []), list, "terms")
    return CommonCauseRealization(
        channel_id=channel_id,
        ancilla_types=tuple(ancillas),
        etas=tuple(etas),
        brands=tuple(brands),
        frame=frames,
        coefficients=tuple(
            coeffs.get(k, decode_number(0, exact)) for k in range(carrier)
        ),
        term_indices=tuple(
            tuple(_expect(_expect(t, dict, "term").get("indices", []), list, "term indices"))
            for t in terms
        ),
    )


def _frame_from_json(obj: Dict, wing) -> WingFrame:
    w_in, w_out = wing
    members_json = _expect(_expect(obj, dict, "frame").get("members"), list, "frame members")
    if not members_json:
        raise SchemaError("frame without members")
    flats = [_expect(flat, list, "frame member") for flat in members_json]
    exact = all(isinstance(x, (str, int)) for flat in flats for x in flat)
    members = tuple(
        LinearProcess(
            sig(w_in), sig(w_out),
            decode_matrix(flat, (w_out.vdim, w_in.vdim), exact),
        )
        for flat in flats
    )
    retained = tuple(_expect(obj.get("retained", []), list, "retained"))
    if not all(isinstance(j, int) and 0 <= j < len(members) for j in retained):
        raise SchemaError(f"retained indices {list(retained)} outside the frame")
    return WingFrame(w_in, w_out, members, retained)


def verify_certificate(
    cert: Dict, channel_obj: Dict, tol=None
) -> Tuple[bool, object, str]:
    """Digest check, then the realization claim re-checked from the file
    alone, with no solver involved:

    - every eta is a valid, discard-preserving local channel;
    - the coefficients sum to one, exactly in rational mode;
    - the recontraction residual is within the tolerance.

    The tolerance is ``tol``, by default ``effective_tol`` of the
    certificate's arithmetic; the certificate's declared ``"tolerance"``
    can only tighten it, and also bounds the float coefficient sum.

    Returns (ok, residual, detail); on failure ``detail`` names every check
    that failed.
    """
    if cert.get("version") != FORMAT_VERSION:
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
    total = sum(realization.coefficients)
    sums_to_one = total == 1 if exact else abs(total - 1) <= tol
    if not sums_to_one:
        failed.append(f"coefficients sum to {total}, not 1")
    if not residual <= tol:
        failed.append(f"recontraction residual {residual} exceeds tolerance {tol}")
    if failed:
        return False, residual, "; ".join(failed)
    return True, residual, f"recontraction residual {residual} within tolerance {tol}"


def save_certificate(obj: Dict, path: str):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def load_json(path: str) -> Dict:
    with open(path) as fh:
        return json.load(fh)


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

    if obj.get("version") != FORMAT_VERSION:
        raise SchemaError(f"unsupported version {obj.get('version')!r}")
    settings, outcomes = (
        tuple(_expect(obj.get(k, []), list, k)) for k in ("settings", "outcomes")
    )
    d = obj.get("trustedDim")
    if not settings or len(settings) != len(outcomes) or not all(
        type(n) is int and n > 0 for n in settings + outcomes + (d,)
    ):
        raise SchemaError("assemblage needs settings, outcomes, trustedDim")
    table = np.zeros(outcomes + settings + (d * d,))
    seen = set()
    for el in _expect(obj.get("elements", []), list, "elements"):
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
    want = math.prod(outcomes) * math.prod(settings)
    if len(seen) != want:
        raise SchemaError(f"{len(seen)} elements given, {want} required")
    return Assemblage(settings, outcomes, d, table)
