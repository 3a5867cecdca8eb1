"""File round trips and certificate verification from files alone."""

import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasicause import QUANT, STOCH, classical, process, quantum, sig, state
from quasicause.assemblages import bb84_assemblage
from quasicause.boxes import pr_box
from quasicause.decompose import (
    build_realization,
    decompose_quasimixture,
    verify_realization,
)
from perfbench import gen
from quasicause.errors import SchemaError
from quasicause.procs import DENSE_CAP
from quasicause.nonsignalling import MultipartiteChannel, check_nonsignalling
from quasicause.serialize import (
    assemblage_from_json,
    assemblage_to_json,
    canonical_bytes,
    certificate_to_json,
    channel_digest,
    channel_from_json,
    channel_to_json,
    decode_matrix,
    realization_from_certificate,
    verify_certificate,
)
from quasicause.theories import hybrid_valid
from tests.helpers import (
    assemble_common_cause,
    decode_matrix_oracle,
    xi_core_oracle,
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
    # version 2 carries only what the verifier checks, and an NS summary
    assert cert["version"] == 2 and obj["version"] == 1
    assert not {"frames", "quasiMixture"} & set(cert)
    assert "carrier" not in cert["realization"]
    assert all(set(s) == {"K", "residual"} for s in cert["nsReport"]["subsets"])


def rational_common_cause(seed, dims):
    """Classical wings of the given dims over a shared rational state on one
    bit per wing, each local map a random rational channel."""
    rng = np.random.default_rng(seed)
    anc = classical(2)
    shared = state(list(random_stochastic_rational(rng, 2 ** len(dims), 1)[:, 0]),
                   sig(*[anc] * len(dims)))
    locals_ = [
        process(random_stochastic_rational(rng, d, d * 2), sig(classical(d), anc), sig(classical(d)))
        for d in dims
    ]
    return assemble_common_cause(shared, locals_, STOCH)


# channel id -> SHA-256 of canonical_bytes of its rational min-norm
# certificate; a changed digest is a changed certificate format or answer
CERTIFICATE_DIGESTS = {
    "pr": "f7d3966c78ecc682e744df234bfe86cd4391920951d9d8ceb202561b427edd83",
    "cc-m2": "d3c34702b81fd2bea646407e52659e27790d1304e2e110e47dc81985fd631c09",
    "cc-m2-trit": "47018a132718f7362a143a117287bce1eb8c7be7e713ce9a24bc48b1470f0a97",
    "cc-m3": "2dccc02f72786ba86ce3787d9c8f4aa9ef9f2672a309399d89a17de28578b762",
}
BYTE_STABLE_CHANNELS = {
    "pr": pr_box,
    "cc-m2": lambda: rational_common_cause(1, (2, 2)),
    "cc-m2-trit": lambda: rational_common_cause(2, (3, 2)),
    "cc-m3": lambda: rational_common_cause(3, (2, 2, 2)),
}


@pytest.mark.parametrize("channel_id", sorted(CERTIFICATE_DIGESTS))
def test_rational_certificates_are_byte_stable(channel_id):
    """Rational min-norm certificates keep their exact bytes."""
    chan = BYTE_STABLE_CHANNELS[channel_id]()
    report = check_nonsignalling(chan)
    qm = decompose_quasimixture(chan, ns_report=report)
    real = build_realization(chan, qm, channel_id=channel_id)
    obj = channel_to_json(chan)
    cert = certificate_to_json(
        chan, channel_digest(obj), report, qm, real, verify_realization(chan, real), 0
    )
    digest = hashlib.sha256(canonical_bytes(cert)).hexdigest()
    assert digest == CERTIFICATE_DIGESTS[channel_id]


def test_version_1_certificate_is_unsupported():
    cert, obj = make_certificate(pr_box(), 0)
    cert["version"] = 1
    assert verify_certificate(cert, obj) == (False, None, "unsupported certificate version 1")


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
    # one more carrier slot on wing 1, where xi has weight 0, leaves the
    # recontraction and the coefficient sum exact; its eta columns read
    # (-1e-12, 1 + 1e-12)
    cert, obj = make_certificate(pr_box(), 0)
    bad = json.loads(json.dumps(cert))
    real = bad["realization"]
    brand = real["brands"][0]
    k = brand["carrier"]
    brand["carrier"] = k + 1
    tiny = Fraction(1, 10**12)
    forged = np.array([str(-tiny), str(1 + tiny)], dtype=object)[:, None, None]
    eta = np.array(real["etas"][0], dtype=object).reshape(2, 2, k)  # (output, input, slot)
    grown = np.concatenate([eta, np.broadcast_to(forged, (2, 2, 1))], axis=2)
    real["etas"][0] = grown.reshape(-1).tolist()
    ok, residual, detail = verify_certificate(bad, obj)
    assert residual == 0
    assert not ok
    assert "eta 1" in detail and "eta 2" not in detail


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


def _quantum_dim_true(obj):
    # wing 1's input becomes {"kind": "quantum", "dim": true}, and the matrix
    # is cut to fit a one-dimensional input there, so only the dim check can
    # refuse the file
    obj["wings"][0]["in"] = {"kind": "quantum", "dim": True}
    obj["matrix"] = obj["matrix"][: len(obj["matrix"]) // 2]


# case -> (file, mutation or whole replacement file, exact)
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
    "wire dim a bool": ("channel", _quantum_dim_true, True),
    "channel not an object": ("channel", [], True),
    "certificate not an object": ("certificate", [], False),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_files_raise_schema_error(case):
    target, mutate, exact = MALFORMED[case]
    cert, obj = certificate_pair(exact)
    cert = json.loads(json.dumps(cert))
    doc = obj if target == "channel" else cert
    if callable(mutate):
        mutate(doc)
    else:
        doc = mutate
    with pytest.raises(SchemaError):
        if target == "channel":
            channel_from_json(doc)
        else:
            verify_certificate(doc, obj)


def test_realization_from_a_non_object_raises_schema_error():
    with pytest.raises(SchemaError):
        realization_from_certificate([], pr_box())


def _bump(path, by):
    def mutate(obj):
        *keys, last = path
        for key in keys:
            obj = obj[key]
        obj[last] += by
    return mutate


XI_INDICES = ["realization", "xi", 0, "indices"]

# certificate blocks that only the rebuild reads: case -> (mutation, exact)
MALFORMED_BLOCKS = {
    "realization not an object": (_set(["realization"], 3), True),
    "etas not a list": (_set(["realization", "etas"], 3), True),
    "one eta too many": (lambda o: o["realization"]["etas"].append(o["realization"]["etas"][0]), True),
    "eta without entries": (_set(["realization", "etas", 0], []), False),
    "eta entry not a number": (_set(["realization", "etas", 0, 0], [1]), True),
    "xi not a list": (_set(["realization", "xi"], 3), False),
    "term not an object": (_set(["realization", "xi", -1], [0, 1]), False),
    "xi indices not a list": (_set(XI_INDICES, 3), True),
    "xi indices one too many": (lambda o: o["realization"]["xi"][0]["indices"].append(0), True),
    "xi indices one too few": (lambda o: o["realization"]["xi"][0]["indices"].pop(), False),
    "xi index a bool": (_set(XI_INDICES + [0], False), True),
    "xi index not an int": (_set(XI_INDICES + [0], 0.0), False),
    "xi index a string": (_set(XI_INDICES + [0], "0"), True),
    "xi index negative": (_set(XI_INDICES + [0], -1), True),
    "xi index at the carrier": (
        lambda o: _set(XI_INDICES + [0], o["realization"]["brands"][0]["carrier"])(o), False
    ),
    "brand carrier past its eta": (_bump(["realization", "brands", 1, "carrier"], 1), True),
    "brand carrier short of its eta": (_bump(["realization", "brands", 0, "carrier"], -1), False),
    "brand carrier not an int": (_set(["realization", "brands", 0, "carrier"], "4"), True),
    "brand carrier zero": (_set(["realization", "brands", 0, "carrier"], 0), True),
    "xi carriers past the dense cap": (
        lambda o: [b.update(carrier=2 ** 14) for b in o["realization"]["brands"]], True
    ),
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


def _drop_last_element(obj):
    obj["elements"].pop()


MALFORMED_ASSEMBLAGES = {
    "coordinate a non-number string": _set(["elements", 0, "coords", 0], "abc"),
    "NaN coordinate": _set(["elements", 0, "coords", 0], float("nan")),
    "setting count a string": _set(["settings", 0], "2"),
    "outcome label out of range": _set(["elements", 0, "a", 0], 5),
    "setting label negative": _set(["elements", 0, "x", 0], -1),
    "elements not a list": _set(["elements"], 5),
    "element not an object": _set(["elements", 0], 5),
    "element repeated in place of another": _repeat_first_element,
    "element missing": _drop_last_element,
    "trusted dimension past numpy's limit": _set(["trustedDim"], 10 ** 30),
    "setting count past numpy's limit": _set(["settings", 0], 10 ** 30),
    "assemblage not an object": "x",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ASSEMBLAGES))
def test_malformed_assemblage_files_raise_schema_error(case):
    obj = json.loads(json.dumps(assemblage_to_json(bb84_assemblage())))
    mutate = MALFORMED_ASSEMBLAGES[case]
    if callable(mutate):
        mutate(obj)
    else:
        obj = mutate
    with pytest.raises(SchemaError):
        assemblage_from_json(obj)


# entries the fast path must hand to the per-entry decoder
ODD_ENTRIES = [10 ** 400, -(10 ** 400), True, False, None, [], "1/3", "-2", "x", "1/0"]


def decoded(flat, shape, decode):
    try:
        return decode(flat, shape).tobytes()
    except SchemaError as err:
        return f"SchemaError: {err}"


@settings(max_examples=200, deadline=None)
@given(
    numbers=st.lists(
        st.one_of(st.integers(-(2 ** 60), 2 ** 60), st.floats(), st.floats().map(np.float64)),
        max_size=12,
    ),
    odd=st.lists(st.tuples(st.integers(0, 11), st.sampled_from(ODD_ENTRIES)), max_size=2),
)
def test_float_matrix_decodes_like_the_per_entry_loop(numbers, odd):
    """Binary64 decoding agrees with the per-entry decoder: the same bits on
    accepted lists, a SchemaError with the same message on rejected ones."""
    flat = list(numbers)
    for i, x in odd:
        if flat:
            flat[i % len(flat)] = x
    shape = (1, len(flat))
    assert decoded(flat, shape, lambda f, s: decode_matrix(f, s, False)) == decoded(
        flat, shape, decode_matrix_oracle
    )


XI_CASES = ["xi entry not an object"] + sorted(
    case for case in MALFORMED_BLOCKS if case.startswith(("xi ", "term "))
)


def _xi_case(case):
    if case in MALFORMED:
        _, mutate, exact = MALFORMED[case]
    else:
        mutate, exact = MALFORMED_BLOCKS[case]
    return mutate, exact


def _carriers(cert):
    return tuple(b["carrier"] for b in cert["realization"]["brands"])


@pytest.mark.parametrize("case", XI_CASES)
def test_xi_faults_keep_the_per_entry_message(case):
    mutate, exact = _xi_case(case)
    cert, obj = certificate_pair(exact)
    cert = json.loads(json.dumps(cert))
    mutate(cert)
    if math.prod(_carriers(cert)) > DENSE_CAP:
        want = f"xi on carriers {_carriers(cert)} exceeds {DENSE_CAP} entries"
    else:
        with pytest.raises(SchemaError) as oracle:
            xi_core_oracle(cert["realization"], _carriers(cert), exact)
        want = str(oracle.value)
    with pytest.raises(SchemaError) as got:
        realization_from_certificate(cert, channel_from_json(obj))
    assert str(got.value) == want


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 3), exact=st.booleans(),
       shuffle=st.booleans())
def test_xi_core_matches_the_per_entry_decode(seed, m, exact, shuffle):
    """The rebuilt xi holds the per-entry decode's values, and equals the
    freshly built xi entry for entry, types included (a rational zero is the
    same ``Fraction(0)`` in both)."""
    g = gen.common_cause(np.random.default_rng(seed), m, exact=exact)
    bit = classical(2)
    wires = (bit,) * m
    chan = MultipartiteChannel(((bit, bit),) * m, process(g.matrix, sig(*wires), sig(*wires)), STOCH)
    cert, _ = make_certificate(chan, 0 if exact else 1e-9)
    cert = json.loads(json.dumps(cert))
    if shuffle:  # entry order is free
        np.random.default_rng(seed).shuffle(cert["realization"]["xi"])
    want = xi_core_oracle(cert["realization"], _carriers(cert), exact)
    fresh = build_realization(chan, decompose_quasimixture(chan)).xi.matrix
    got = realization_from_certificate(cert, chan).xi.matrix
    assert got.dtype == want.dtype == fresh.dtype
    assert [type(x) for x in got.flat] == [type(x) for x in fresh.flat]
    assert (got == want).all() and (got == fresh).all()
