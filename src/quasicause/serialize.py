"""Channel, assemblage and certificate files.

Channels serialize wing types plus a row-major matrix; rationals travel as
"p/q" strings so the rational pipeline round-trips bit-exactly. Certificates
inline everything third-party verification needs, and nothing it does not
check: the shared state ``xi`` as its nonzero entries, each with one index
per wing, and the controlled frames ``eta_i``, whose carriers the brands
give: brand i is written from xi's ancilla i (its id, brand and carrier) and
read back as that ancilla, ``wires.extension(channelId, i, carrier)``.
Certificates are format version 2; channel and assemblage files are
version 1.

Reading and verifying are the trusted checker's (``check``), which imports
only the standard library and numpy: the digest, the decoding of both files
to raw arrays, the instrument test and the recontraction. This module wraps
what it reads in library objects, and ``verify_certificate`` is
``check.verify``; neither re-runs a solver or a frame construction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np

from . import check
from .check import (
    BASIS_CONVENTION,
    CERTIFICATE_VERSION,
    DENSE_CAP,
    FORMAT_VERSION,
    RATIONAL,
    Operand,
    SchemaError,
    _expect,
    decode_number,
)
from .decompose import CommonCauseRealization, QuasiMixture, nonzero_entries
from .nonsignalling import MultipartiteChannel, NSReport, _prechecked
from .procs import _made, _operand
from .theories import QUANT, STOCH
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


# -- number and matrix encoding ---------------------------------------------

def encode_number(x) -> object:
    """A scalar: a float as it is, a rational as "p/q" (or "p")."""
    if isinstance(x, float):
        return x
    return str(x if type(x) in (int, Fraction) else Fraction(x))


def _ratio(n: int, den: int) -> str:
    """``encode_number(Fraction(n, den))`` for den > 0, with no ``Fraction``."""
    g = math.gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def encode_matrix(x: Operand) -> List[object]:
    """A matrix's entries in C order: a rational one's (``Ints``) as "p/q"
    strings printed from its numerators, binary64 ones as floats."""
    if not isinstance(x, tuple):
        return x.reshape(-1).tolist()
    num, den = x
    return [_ratio(n, den) for n in num.reshape(-1).tolist()]


def _wing_type_to_json(t: SystemType) -> Dict:
    if t.kind == QUANTUM:
        return {"kind": "quantum", "dim": t.hilbert_dim}
    if t.kind == CLASSICAL:
        return {"kind": "classical", "dim": t.vdim}
    raise SchemaError(f"cannot serialize wire kind {t.kind}")


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
        "matrix": encode_matrix(_operand(channel.body)),
    }


def channel_from_json(obj: Dict) -> MultipartiteChannel:
    """The channel of a file that ``check.read_channel`` accepts: its body
    is already checked against the theory, at the default tolerance."""
    wings, body = check.read_channel(obj)
    wings = tuple(tuple(quantum(d) if d else classical(v) for v, d in wing) for wing in wings)
    in_sig, out_sig = (Signature(tuple(w[k] for w in wings)) for k in (0, 1))
    theory = QUANT if any(t.kind == QUANTUM for pair in wings for t in pair) else STOCH
    return _prechecked(wings, _made(in_sig, out_sig, body), theory)


# the checker's digest and matrix decoder, for writers and readers of files
canonical_bytes, channel_digest = check.canonical_bytes, check.channel_digest
decode_matrix = check.decode_matrix


# -- ns reports ---------------------------------------------------------------

def ns_report_to_json(report: NSReport) -> Dict:
    """The verdict, the tolerance and each checked subset's residual. A
    realization that verifies already proves non-signalling, so the report
    is a summary that ``verify_certificate`` does not read."""
    return {
        "verdict": report.verdict,
        "tolerance": encode_number(report.tolerance),
        "subsets": [
            {"K": list(c.subset), "residual": encode_number(c.residual)}
            for c in report.checks
        ],
    }


# -- certificates --------------------------------------------------------------

def certificate_to_json(channel: MultipartiteChannel, digest: str, report: NSReport, qm: QuasiMixture,
                        realization: CommonCauseRealization, realization_residual, tolerance) -> Dict:
    xi = realization.xi
    dims = xi.outputs.dims
    if xi.arithmetic == RATIONAL:  # printed from the numerators: no Fraction per entry
        num, den = _operand(xi, dims)
        entries = [(_ratio(n, den), idx) for n, idx in nonzero_entries(num)]
    else:
        entries = nonzero_entries(xi.matrix.reshape(dims))
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
            "xi": [{"indices": list(idx), "c": c} for c, idx in entries],
            "etas": [encode_matrix(_operand(e)) for e in realization.etas],
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


def realization_from_certificate(
    obj: Dict, channel: MultipartiteChannel
) -> CommonCauseRealization:
    """Rebuild xi and the etas from certificate data alone, as
    ``check.read_realization`` decodes them, each made from its operand as
    ``build_realization`` makes them: a rational xi's matrix is the same
    deferred view of its numerators as a freshly built one's."""
    dims = [(w_in.vdim, w_out.vdim) for w_in, w_out in channel.wings]
    channel_id, carriers, xi, etas = check.read_realization(obj, dims)
    ancillas = tuple(extension(channel_id, i, k) for i, k in enumerate(carriers, start=1))
    xi = _made(EMPTY, Signature(ancillas), xi)
    etas = (_made(sig(w_in, a), sig(w_out), e) for (w_in, w_out), a, e in zip(channel.wings, ancillas, etas))
    return CommonCauseRealization(xi, tuple(etas))


def verify_certificate(
    cert: Dict, channel_obj: Dict, tol=None
) -> Tuple[bool, object, str]:
    """``check.verify``, the trusted base: the digest check, then the
    realization claim re-checked from the files alone, with no solver:

    - the channel body is a valid channel;
    - every eta is a valid, discard-preserving local channel;
    - the entries of xi sum to one, exactly in rational mode;
    - the recontraction residual is within the tolerance.

    The tolerance is ``tol``, by default ``effective_tol`` of the
    certificate's arithmetic; the certificate's declared ``"tolerance"``
    can only tighten it, and also bounds the float coefficient sum.

    Returns (ok, residual, detail); on failure ``detail`` names every check
    that failed. Malformed files raise ``SchemaError``.
    """
    return check.verify(cert, channel_obj, tol)


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
