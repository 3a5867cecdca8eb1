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
from quasicause.nonsignalling import assemble_common_cause, check_nonsignalling
from quasicause.serialize import (
    assemblage_from_json,
    assemblage_to_json,
    certificate_to_json,
    channel_digest,
    channel_from_json,
    channel_to_json,
    verify_certificate,
)
from tests.helpers import (
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
