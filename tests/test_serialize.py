"""File round trips and certificate verification from files alone."""

import json
from fractions import Fraction

import numpy as np
import pytest

from quasicause import QUANT, STOCH, classical, process, quantum, sig, state
from quasicause.assemblages import bb84_assemblage
from quasicause.boxes import pr_box
from quasicause.decompose import (
    build_realization,
    decompose_quasimixture,
    verify_realization,
)
from quasicause.errors import SchemaError
from quasicause.nonsignalling import check_nonsignalling
from quasicause.serialize import (
    assemblage_from_json,
    assemblage_to_json,
    certificate_to_json,
    channel_digest,
    channel_from_json,
    channel_to_json,
    realization_from_certificate,
    verify_certificate,
)
from quasicause.theories import hybrid_valid
from tests.helpers import (
    assemble_common_cause,
    random_cptp_transfer,
    random_density_coords,
    random_stochastic_rational,
)

F = Fraction
BIT = classical(2)
QUBIT = quantum(2)


def make_certificate(chan, tol):
    report = check_nonsignalling(chan)
    qm = decompose_quasimixture(chan, ns_report=report)
    real = build_realization(chan, qm)
    residual = verify_realization(chan, real)
    obj = channel_to_json(chan)
    return certificate_to_json(
        chan, channel_digest(obj), report, qm, real, residual, tol
    ), obj


def test_channel_roundtrip_rational():
    chan = pr_box()
    obj = channel_to_json(chan)
    text = json.dumps(obj)
    back = channel_from_json(json.loads(text))
    assert (back.body.matrix == chan.body.matrix).all()
    assert back.wings == chan.wings
    assert channel_digest(channel_to_json(back)) == channel_digest(obj)


def test_channel_roundtrip_float():
    rng = np.random.default_rng(5)
    shared = state(random_density_coords(rng, (2, 2)), sig(QUBIT, QUBIT),
                   exact=False)
    locals_ = [
        process(random_cptp_transfer(rng, (2, 2), (2,)),
                sig(QUBIT, QUBIT), sig(QUBIT))
        for _ in range(2)
    ]
    chan = assemble_common_cause(shared, locals_, QUANT)
    back = channel_from_json(json.loads(json.dumps(channel_to_json(chan))))
    assert np.abs(back.body.matrix - chan.body.matrix).max() == 0


def test_schema_rejects_garbage():
    with pytest.raises(SchemaError):
        channel_from_json({"version": 99})
    obj = channel_to_json(pr_box())
    obj["matrix"] = obj["matrix"][:-1]
    with pytest.raises(SchemaError):
        channel_from_json(obj)


def test_certificate_verifies_rational():
    chan = pr_box()
    cert, obj = make_certificate(chan, 0)
    text = json.dumps(cert)
    ok, residual, detail = verify_certificate(json.loads(text), obj)
    assert ok and residual == 0


def test_certificate_verifies_float():
    rng = np.random.default_rng(7)
    shared = state(random_density_coords(rng, (2, 2)), sig(QUBIT, QUBIT),
                   exact=False)
    locals_ = [
        process(random_cptp_transfer(rng, (2, 2), (2,)),
                sig(QUBIT, QUBIT), sig(QUBIT))
        for _ in range(2)
    ]
    chan = assemble_common_cause(shared, locals_, QUANT)
    cert, obj = make_certificate(chan, 1e-8)
    ok, residual, _ = verify_certificate(json.loads(json.dumps(cert)), obj)
    assert ok and residual <= 1e-9


def test_tampered_certificate_fails():
    chan = pr_box()
    cert, obj = make_certificate(chan, 0)
    bad = json.loads(json.dumps(cert))
    entry = bad["realization"]["xi"][0]
    entry["c"] = str(Fraction(entry["c"]) + Fraction(1, 1000000))
    ok, residual, _ = verify_certificate(bad, obj)
    assert not ok
    assert residual > 0


def test_tampered_channel_digest_fails():
    chan = pr_box()
    cert, obj = make_certificate(chan, 0)
    obj2 = json.loads(json.dumps(obj))
    obj2["matrix"][0] = "1/3"
    ok, _, detail = verify_certificate(cert, obj2)
    assert not ok and "digest" in detail


def test_tampered_eta_fails():
    chan = pr_box()
    cert, obj = make_certificate(chan, 0)
    bad = json.loads(json.dumps(cert))
    bad["realization"]["etas"][0][0] = "9/10"
    ok, residual, _ = verify_certificate(bad, obj)
    assert not ok


def float_qubit_channel():
    rng = np.random.default_rng(7)
    shared = state(random_density_coords(rng, (2, 2)), sig(QUBIT, QUBIT),
                   exact=False)
    locals_ = [
        process(random_cptp_transfer(rng, (2, 2), (2,)),
                sig(QUBIT, QUBIT), sig(QUBIT))
        for _ in range(2)
    ]
    return assemble_common_cause(shared, locals_, QUANT)


def certificate_pair(exact):
    if exact:
        return make_certificate(pr_box(), 0)
    return make_certificate(float_qubit_channel(), 1e-9)


def scaled(c, factor, exact):
    return str(Fraction(c) * factor) if exact else c * float(factor)


def test_zero_weight_slot_with_a_negative_eta_entry_is_rejected():
    # one more carrier slot with coefficient 0 leaves the recontraction and
    # the coefficient sum exact; its eta columns read (-1e-12, 1 + 1e-12)
    cert, obj = make_certificate(pr_box(), 0)
    bad = json.loads(json.dumps(cert))
    real = bad["realization"]
    k = real["carrier"]
    real["carrier"] = k + 1
    for brand in real["brands"]:
        brand["carrier"] = k + 1
    tiny = Fraction(1, 10**12)
    forged = np.array([str(-tiny), str(1 + tiny)], dtype=object)[:, None, None]
    for i, flat in enumerate(real["etas"]):
        eta = np.array(flat, dtype=object).reshape(2, 2, k)  # (output, input, slot)
        grown = np.concatenate([eta, np.broadcast_to(forged, (2, 2, 1))], axis=2)
        real["etas"][i] = grown.reshape(-1).tolist()
    ok, residual, detail = verify_certificate(bad, obj)
    assert residual == 0
    assert not ok
    assert "eta 1" in detail and "eta 2" in detail


def test_nan_eta_entry_is_rejected():
    cert, obj = certificate_pair(exact=False)
    bad = json.loads(json.dumps(cert))
    bad["realization"]["etas"][0][0] = float("nan")
    with pytest.raises(SchemaError, match="eta 1"):
        verify_certificate(bad, obj)
    # the same eta reaching the validity check in memory fails it
    chan = channel_from_json(obj)
    eta = realization_from_certificate(cert, chan).etas[0]
    matrix = eta.matrix.copy()
    matrix[0, 0] = np.nan
    assert not hybrid_valid(process(matrix, eta.inputs, eta.outputs))


def _set(path, value):
    def mutate(obj):
        *keys, last = path
        for key in keys:
            obj = obj[key]
        obj[last] = value
    return mutate


# case -> (file, mutation, exact)
MALFORMED = {
    "wing missing in": ("channel", lambda o: o["wings"][0].pop("in"), True),
    "wings not a list": ("channel", _set(["wings"], 3), True),
    "matrix not a list": ("channel", _set(["matrix"], 7), True),
    "NaN entry": ("channel", _set(["matrix", 0], float("nan")), False),
    "Infinity entry": ("channel", _set(["matrix", 0], float("inf")), False),
    "-Infinity entry": ("channel", _set(["matrix", 0], float("-inf")), False),
    "xi entry not an object": ("certificate", _set(["realization", "xi", 0], 5), True),
    "brand wing not an int": ("certificate", _set(["realization", "brands", 0, "wing"], "x"), True),
    "eta not a list": ("certificate", _set(["realization", "etas", 0], 3), True),
    "declared tolerance not a number": ("certificate", _set(["tolerance"], "abc"), False),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_files_raise_schema_error(case):
    target, mutate, exact = MALFORMED[case]
    cert, obj = certificate_pair(exact)
    cert = json.loads(json.dumps(cert))
    mutate(obj if target == "channel" else cert)
    with pytest.raises(SchemaError):
        if target == "channel":
            channel_from_json(obj)
        else:
            verify_certificate(cert, obj)


# certificate blocks that only the rebuild reads: case -> (mutation, exact)
MALFORMED_BLOCKS = {
    "frames not a list": (_set(["frames"], 3), True),
    "frame not an object": (_set(["frames", 0], 3), True),
    "one frame too many": (lambda o: o["frames"].append(o["frames"][0]), True),
    "frame members not a list": (_set(["frames", 0, "members"], 3), True),
    "frame without members": (_set(["frames", 0, "members"], []), False),
    "frame member not a list": (_set(["frames", 0, "members", 0], 3), True),
    "retained not a list": (_set(["frames", 0, "retained"], 3), True),
    "retained index off the frame": (_set(["frames", 0, "retained"], [99]), False),
    "quasiMixture not an object": (_set(["quasiMixture"], 3), True),
    "terms not a list": (_set(["quasiMixture", "terms"], 3), False),
    "term not an object": (_set(["quasiMixture", "terms", 0], 3), True),
    "term indices not a list": (_set(["quasiMixture", "terms", 0, "indices"], 3), True),
    "both brands on wing 1": (_set(["realization", "brands", 1, "wing"], 1), True),
    "brand on wing 7": (_set(["realization", "brands", 0, "wing"], 7), True),
    "brand without a wing": (lambda o: o["realization"]["brands"][0].pop("wing"), True),
    "brand of another channel": (_set(["realization", "brands", 0, "channel"], "other"), True),
    "channelId not a string": (_set(["realization", "channelId"], 5), True),
    "xi index repeated": (
        lambda o: o["realization"]["xi"].append(dict(o["realization"]["xi"][0])), True
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_BLOCKS))
def test_malformed_certificate_blocks_raise_schema_error(case):
    mutate, exact = MALFORMED_BLOCKS[case]
    cert, obj = certificate_pair(exact)
    cert = json.loads(json.dumps(cert))
    mutate(cert)
    with pytest.raises(SchemaError):
        verify_certificate(cert, obj)


@pytest.mark.parametrize("exact", [True, False])
def test_doubled_eta_with_halved_xi_is_rejected(exact):
    # the recontraction is unchanged, but eta_1 is no channel and xi sums to 1/2
    cert, obj = certificate_pair(exact)
    bad = json.loads(json.dumps(cert))
    real = bad["realization"]
    real["etas"][0] = [scaled(x, 2, exact) for x in real["etas"][0]]
    for entry in real["xi"]:
        entry["c"] = scaled(entry["c"], Fraction(1, 2), exact)
    ok, _, detail = verify_certificate(bad, obj)
    assert not ok
    assert "eta 1" in detail and "coefficients sum" in detail


@pytest.mark.parametrize("exact", [True, False])
def test_declared_tolerance_cannot_loosen_the_check(exact):
    cert, obj = certificate_pair(exact)
    bad = json.loads(json.dumps(cert))
    entry = bad["realization"]["xi"][0]
    entry["c"] = (str(Fraction(entry["c"]) + Fraction(1, 1000)) if exact
                  else entry["c"] + 1e-3)
    bad["tolerance"] = "100"
    ok, residual, detail = verify_certificate(bad, obj)
    assert not ok
    assert residual > 0
    assert "recontraction residual" in detail


def test_assemblage_roundtrip():
    asm = bb84_assemblage()
    back = assemblage_from_json(json.loads(json.dumps(assemblage_to_json(asm))))
    assert np.abs(back.table - asm.table).max() <= 1e-15
    assert back.settings == asm.settings and back.outcomes == asm.outcomes


def _repeat_first_element(obj):
    obj["elements"][1] = dict(obj["elements"][0])


MALFORMED_ASSEMBLAGES = {
    "coordinate a non-number string": _set(["elements", 0, "coords", 0], "abc"),
    "NaN coordinate": _set(["elements", 0, "coords", 0], float("nan")),
    "setting count a string": _set(["settings", 0], "2"),
    "outcome label out of range": _set(["elements", 0, "a", 0], 5),
    "setting label negative": _set(["elements", 0, "x", 0], -1),
    "elements not a list": _set(["elements"], 5),
    "element not an object": _set(["elements", 0], 5),
    "element repeated in place of another": _repeat_first_element,
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ASSEMBLAGES))
def test_malformed_assemblage_files_raise_schema_error(case):
    obj = json.loads(json.dumps(assemblage_to_json(bb84_assemblage())))
    MALFORMED_ASSEMBLAGES[case](obj)
    with pytest.raises(SchemaError):
        assemblage_from_json(obj)
