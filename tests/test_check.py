"""The trusted checker: its Tucker kernel, its rational decoder and its
verdicts against the code they replaced, and its independence from the rest
of the package."""

import functools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perfbench import gen
from quasicause import check
from quasicause.assemblages import assemblage_to_channel, bb84_assemblage
from quasicause.boxes import pr_box
from quasicause.decompose import build_realization, decompose_quasimixture, verify_realization
from quasicause.errors import SchemaError
from quasicause.nonsignalling import MultipartiteChannel, check_nonsignalling
from quasicause.procs import LinearProcess
from quasicause.serialize import (
    certificate_to_json,
    channel_digest,
    channel_from_json,
    channel_to_json,
    verify_certificate,
)
from quasicause.theories import STOCH
from quasicause.wires import Signature, classical
from tests.helpers import decode_matrix_oracle, masked_residual, tucker_oracle, verify_certificate_oracle

ROOT = Path(__file__).resolve().parent.parent


# -- the Tucker kernel -------------------------------------------------------------------------

def _random_operand(rng, shape, kind):
    """A random operand: binary64, or rational with small numerators, or with
    numerators near 2^40 so that the chain leaves int64."""
    if kind == "float":
        return rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4)
    bound = 2 ** 40 if kind == "wide" else 50
    return rng.integers(-bound, bound + 1, size=shape, dtype=np.int64), int(rng.integers(1, 1000))


def _edge_operands(rng, carriers, rows, above):
    """A core of ones and a first factor of equal entries v whose first step's bound n v lies
    just below 2^53, or just above it with row 0 summing to an odd integer, which binary64
    cannot hold; the other factors are small."""
    n = carriers[0]
    v = (2 ** 53 // n + 1) if above else (2 ** 53 - 1) // n
    first = np.full((rows[0], n), v, dtype=np.int64)
    if above and n * v % 2 == 0:
        first[0, 0] -= 1  # row 0 sums to n v - 1
    core = np.ones(carriers, dtype=np.int64), int(rng.integers(1, 1000))
    rest = [_random_operand(rng, (p, k), "small") for p, k in zip(rows[1:], carriers[1:])]
    return core, [(first, int(rng.integers(1, 1000))), *rest]


@settings(max_examples=150, deadline=None)
@given(
    carriers=st.lists(st.integers(1, 5), min_size=1, max_size=6),
    rows=st.lists(st.integers(1, 5), min_size=6, max_size=6),
    kind=st.sampled_from(["small", "wide", "float", "below 2^53", "above 2^53"]),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_tucker_matches_the_mode_product_chain(carriers, rows, kind, seed):
    """``check.tucker`` against one ``procs.mode_product`` per axis: the same
    numerators and denominator for rationals, including chains that widen to
    Python ints past 2^63 and steps whose bound max|a| max|b| k lies just
    below 2^53 (contracted in binary64) or just above it (in int64), and
    binary64 within 4 ulps of the operands' scale (the largest sum of
    absolute products an entry can have)."""
    rng = np.random.default_rng(seed)
    if kind.endswith("2^53"):
        core, factors = _edge_operands(rng, carriers, rows, kind.startswith("above"))
    else:
        core = _random_operand(rng, tuple(carriers), kind)
        factors = [_random_operand(rng, (p, n), kind) for p, n in zip(rows, carriers)]
    got, want = check.tucker(core, factors), tucker_oracle(core, factors)
    if kind == "float":
        scale = np.abs(core).max() * math.prod(n * np.abs(f).max() for n, f in zip(carriers, factors))
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 4 * np.spacing(scale)
        return
    assert got[1] == want[1]
    assert got[0].shape == want[0].shape
    assert got[0].astype(object).tolist() == want[0].astype(object).tolist()
    if kind == "wide" and len(carriers) > 1:
        assert got[0].dtype == object  # past int64, computed on Python ints


# -- the rational decoder ----------------------------------------------------------------------

BIG = 10 ** 30
PLAIN = st.one_of(
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-BIG, BIG), st.integers(1, BIG)),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-99, 99), st.integers(1, 99)),
    st.integers(-BIG, BIG).map(str),
    st.integers(-BIG, BIG),
)
ODD = st.sampled_from(["6/4", "-5/10", "0.25", " 3/4 ", "-0", "007/010", "+3", "1_000", "1e3", "٣"])
REJECTED = st.sampled_from(["1/0", "nan", "", "1/2/3", True, False, 0.5, 1.0, None, "inf",
                            "1/-2", "--1", "3/ 4", "/2", "2/", "-", "x"])


def _decoded(flat, decode):
    try:
        return decode(flat)
    except SchemaError as err:
        return f"SchemaError: {err}"


def _canonical_oracle(flat):
    """The canonical (num, den) of the per-entry decode, or its SchemaError."""
    values = decode_matrix_oracle(flat, (1, len(flat)), exact=True).reshape(-1).tolist()
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _canonical_check(flat):
    num, den = check.decode_matrix(flat, (1, len(flat)), True)
    wide = max(map(abs, num.reshape(-1).tolist()), default=0) >= 2 ** 63
    assert num.dtype == (object if wide else np.int64)
    return num.reshape(-1).tolist(), den


@settings(max_examples=300, deadline=None)
@given(
    entries=st.lists(st.one_of(PLAIN, ODD), max_size=12),
    rejected=st.lists(st.tuples(st.integers(0, 11), REJECTED), max_size=2),
)
@example(entries=["0", "0"], rejected=[(0, "1/2/3"), (1, "1/2/3")])  # joined, they read as 3 entries
def test_rational_decoder_matches_the_per_entry_decoder(entries, rejected):
    """Accepted lists give the per-entry decoder's canonical (numerators,
    denominator), non-canonical and ``Fraction``-only forms included;
    rejected ones raise its SchemaError, with the same message."""
    flat = list(entries)
    for i, x in rejected:
        if flat:
            flat[i % len(flat)] = x
    assert _decoded(flat, _canonical_check) == _decoded(flat, _canonical_oracle)


# -- verdicts ------------------------------------------------------------------------------------

def _certificate(chan, tol):
    report = check_nonsignalling(chan)
    qm = decompose_quasimixture(chan, ns_report=report)
    real = build_realization(chan, qm, channel_id="c1")
    obj = channel_to_json(chan)
    cert = certificate_to_json(chan, channel_digest(obj), report, qm, real, verify_realization(chan, real), tol)
    return json.loads(json.dumps(cert)), json.loads(json.dumps(obj))


def _generated(m, exact, seed=7):
    bit = classical(2)
    wires = Signature((bit,) * m)
    g = gen.common_cause(np.random.default_rng(seed), m, exact=exact)
    return MultipartiteChannel(((bit, bit),) * m, LinearProcess(wires, wires, g.matrix), STOCH)


CHANNELS = {
    "pr": (pr_box, True),
    "bb84": (lambda: assemblage_to_channel(bb84_assemblage()), False),
    "gen-m2-exact": (lambda: _generated(2, True), True),
    "gen-m3-exact": (lambda: _generated(3, True), True),
    "gen-m3-float": (lambda: _generated(3, False), False),
}


@functools.cache
def _fresh(name):
    build, exact = CHANNELS[name]
    return _certificate(build(), 0 if exact else 1e-9), exact


def _nudged(c, delta, exact):
    return str(Fraction(c) + Fraction(delta).limit_denominator(10 ** 12)) if exact else c + delta


def _tampered(cert, exact, how, at, delta):
    cert = json.loads(json.dumps(cert))
    real = cert["realization"]
    if how == "xi":
        entry = real["xi"][at % len(real["xi"])]
        entry["c"] = _nudged(entry["c"], delta, exact)
    elif how == "eta":
        eta = real["etas"][at % len(real["etas"])]
        eta[at % len(eta)] = _nudged(eta[at % len(eta)], delta, exact)
    elif how == "halved":  # eta 1 doubled, every xi coefficient halved
        real["etas"][0] = [str(2 * Fraction(x)) if exact else 2 * x for x in real["etas"][0]]
        for entry in real["xi"]:
            entry["c"] = str(Fraction(entry["c"]) / 2) if exact else entry["c"] / 2
    elif how == "declared":
        cert["tolerance"] = "100"
        real["xi"][0]["c"] = _nudged(real["xi"][0]["c"], delta, exact)
    return cert


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(CHANNELS)),
    how=st.sampled_from(["fresh", "xi", "eta", "halved", "declared"]),
    at=st.integers(0, 1000),
    delta=st.sampled_from([1e-3, -1e-6, 1e-10, 3e-16, -1e-12]),
    tol=st.sampled_from([None, 0, 1e-12, 1e-6]),
)
def test_verdicts_match_the_parent_verifier(name, how, at, delta, tol):
    """On fresh and tampered certificates ``verify_certificate`` gives the
    old verifier's verdict and detail, with an exact residual for rationals
    and one within 4 ulps of the channel's scale for binary64."""
    (cert, obj), exact = _fresh(name)
    cert = cert if how == "fresh" else _tampered(cert, exact, how, at, delta)
    ok, residual, detail = verify_certificate(cert, obj, tol)
    want_ok, want_residual, want_detail = verify_certificate_oracle(cert, obj, tol)
    assert ok == want_ok
    if exact:
        assert (residual, detail) == (want_residual, want_detail)
    else:
        scale = max(1.0, max(map(abs, obj["matrix"])))
        assert abs(residual - want_residual) <= 4 * np.spacing(scale)
        assert masked_residual(detail) == masked_residual(want_detail)


# -- independence --------------------------------------------------------------------------------

# Run in a fresh interpreter with every other module of the package blocked.
STANDALONE = """
import json
import sys
import types
from pathlib import Path

package = Path(sys.argv[1])
sys.modules["quasicause"] = stub = types.ModuleType("quasicause")
stub.__path__ = [str(package)]
for path in package.glob("*.py"):
    if path.stem != "check":
        sys.modules[f"quasicause.{path.stem}"] = None

from quasicause import check

cases = json.load(sys.stdin)
for name, (cert, channel, want) in cases.items():
    ok, residual, detail = check.verify(cert, channel)
    assert ok == want, (name, detail)
blocked = sorted(name for name, module in sys.modules.items()
                 if name.startswith("quasicause.") and module is not None)
assert blocked == ["quasicause.check"], blocked
"""


def test_checker_verifies_with_the_rest_of_the_package_blocked(monkeypatch):
    """With every other ``quasicause`` module set to None in ``sys.modules``,
    ``check`` imports, verifies the PR-box, BB84 and generated m = 4
    certificates, and rejects the three forgeries perfbench builds."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    cases = {}
    for name, (chan, exact) in {
        "pr": (pr_box(), True),
        "bb84": (assemblage_to_channel(bb84_assemblage()), False),
        "gen-m4-float": (_generated(4, False), False),
        "gen-m4-exact": (_generated(4, True), True),
    }.items():
        cert, obj = _certificate(chan, 0 if exact else 1e-9)
        cases[name] = (cert, obj, True)
        for forgery, forged in workloads.forge(cert, exact).items():
            cases[f"{name} {forgery}"] = (forged, obj, False)
    done = subprocess.run(
        [sys.executable, "-c", STANDALONE, str(ROOT / "src" / "quasicause")],
        input=json.dumps(cases), env=dict(os.environ, PYTHONPATH=""), capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


def test_a_channel_file_whose_body_is_no_channel_is_a_schema_error():
    """The checker refuses a channel file whose body is not a valid channel
    of its theory, in ``channel_from_json`` and in ``verify_certificate``
    alike: a file that does not hold a channel does not match its schema."""
    (cert, obj), _ = _fresh("pr")
    bad = json.loads(json.dumps(obj))
    # column 0 keeps its sum, but its first entry goes negative
    bad["matrix"][0] = str(Fraction(bad["matrix"][0]) - 1)
    bad["matrix"][4] = str(Fraction(bad["matrix"][4]) + 1)
    cert = dict(cert, channelDigest=channel_digest(bad))
    want = "channel body is not completely positive (lowest Choi eigenvalue -1/2)"
    for read in (channel_from_json, lambda o: verify_certificate(cert, o)):
        with pytest.raises(SchemaError) as err:
            read(bad)
        assert str(err.value) == want


# -- numbers too long to build or to print -------------------------------------------------------

# Each prints; their sum's denominator has about 4400 digits, past CPython's int-to-string limit.
LONG = [f"1/{10 ** 2200 + 1}", f"1/{10 ** 2200 + 3}"]


def _pr_files():
    (cert, obj), _ = _fresh("pr")
    return json.loads(json.dumps(cert)), json.loads(json.dumps(obj))


@pytest.mark.parametrize("exact", [True, False], ids=["rational", "float64"])
def test_a_decimal_exponent_past_the_bound_is_refused_before_the_integer_is_built(exact):
    """``Fraction("1e10000000")`` alone takes seconds; the decoder refuses it first."""
    for x in ("1e10000000", "-1E-10000000", "1e1_001", " 1e+1001 "):
        with pytest.raises(SchemaError, match="exponent"):
            check.decode_number(x, exact)
    assert check.decode_number("1e1000", True) == 10 ** 1000


def test_channel_entries_too_long_for_a_message_are_schema_errors():
    _, obj = _pr_files()
    obj["matrix"][0] = "1e5000"
    with pytest.raises(SchemaError, match="exponent"):
        check.read_channel(obj)
    _, obj = _pr_files()
    obj["matrix"][0], obj["matrix"][4] = LONG  # both in column 0, which no longer sums to 1
    with pytest.raises(SchemaError, match=r"gap ~2\^-\d+ \(too long to print\)"):
        check.read_channel(obj)


@pytest.mark.parametrize("where", ["xi", "eta"])
def test_a_certificate_entry_with_a_huge_exponent_is_a_schema_error(where):
    cert, obj = _pr_files()
    real = cert["realization"]
    if where == "xi":
        real["xi"][0]["c"] = "1e5000"
    else:
        real["etas"][0][0] = "1e5000"
    with pytest.raises(SchemaError, match="exponent"):
        verify_certificate(cert, obj)


def test_coefficients_whose_sum_is_too_long_to_print_fail_the_verdict():
    cert, obj = _pr_files()
    xi = cert["realization"]["xi"]
    xi[0]["c"], xi[1]["c"] = LONG
    ok, _, detail = verify_certificate(cert, obj)
    assert not ok
    assert "coefficients sum to ~2^0 (too long to print), not 1" in detail
