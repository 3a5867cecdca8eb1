"""The benchmark's workloads: inputs, one op each, output checks, and the
counts and probes a traced run records.

Each workload exposes ``input(seed, i)`` (built outside the timed part),
``op(rec, inp, i)`` (the timed part; every library call goes through
``rec.call`` under its layer's name), ``check(inp, out)`` (a failure reason
or None), ``observe(rec, inp, out)`` (traced runs only: counts, then
probes that run after the op span has closed) and ``reference()``, a fixed
computation of the kind of work that dominates the op, timed between ops so
that op times can be given relative to the machine's speed at that moment.
Ops of index i and i + cycle differ only in their inputs, and a run always
ends on a whole cycle, so every run holds the same mix.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import time
from fractions import Fraction

import numpy as np

from quasicause.assemblages import bb84_assemblage, realize_assemblage
from quasicause.boxes import pr_box
from quasicause.completion import new_theory, quotient_suite, recomposition_term, register
from quasicause.decompose import (
    MIN_NEGATIVITY,
    MIN_NORM,
    build_realization,
    decompose_quasimixture,
    default_frames,
    reconstruction_residual,
    verify_realization,
)
from quasicause.errors import NotNonSignalling
from quasicause.nonsignalling import MultipartiteChannel, check_nonsignalling
from quasicause.procs import RATIONAL, LinearProcess, effective_tol
from quasicause.serialize import (
    certificate_to_json,
    channel_digest,
    channel_from_json,
    channel_to_json,
    realization_from_certificate,
    verify_certificate,
)
from quasicause.theories import QUANT, STOCH
from quasicause.wires import Signature, classical

import gen

SOLVE_SPAN = {MIN_NORM: "decompose.solve_minnorm", MIN_NEGATIVITY: "decompose.solve_lp"}
SIGNALLING_EVERY = 5  # decide workload: op i is a signalling control iff i % 5 == 4


def _rng(seed: int, i: int):
    return np.random.default_rng([seed, i])


@functools.cache
def _exact_operand():
    grains = np.random.default_rng(0).integers(0, 13, (14, 14))
    return np.array([[Fraction(int(x), 12) for x in row] for row in grains], dtype=object)


@functools.cache
def _float_operand():
    return np.random.default_rng(0).random((3, 1000, 1000))


def exact_reference():
    """Rational work like the exact ops': Fraction matmuls on an object array."""
    a = b = _exact_operand()
    for _ in range(3):
        b = b @ a


def float_reference():
    """Work like the float ops', which mix interpreter-bound steps with dense
    float64 passes: an integer loop, then array casts and a reduction over
    3M entries."""
    total = 0
    for i in range(200_000):
        total += i * i % 7
    x = _float_operand()
    for _ in range(2):
        y = x.astype(np.float32).astype(np.float64)
    float((y * x).sum())


def to_channel(g: gen.GenChannel) -> MultipartiteChannel:
    bit = classical(2)
    wires = Signature((bit,) * g.m)
    return MultipartiteChannel(((bit, bit),) * g.m, LinearProcess(wires, wires, g.matrix), STOCH)


def _mixture_problem(qm, exact: bool):
    if exact:
        if qm.residual != 0:
            return f"exact decomposition residual {qm.residual} is not 0"
        if qm.coefficient_sum != 1:
            return f"exact coefficients sum to {qm.coefficient_sum}, not 1"
        return None
    tol = effective_tol("float64")
    if not qm.residual <= tol:
        return f"decomposition residual {qm.residual} exceeds {tol}"
    if not abs(qm.coefficient_sum - 1) <= tol:
        return f"coefficients sum to {qm.coefficient_sum}, not 1"
    return None


def _observe_decomposition(rec, ch, frames, qm):
    rec.count("decompose.frame_members", sum(len(f) for f in frames))
    rec.count("decompose.retained", sum(len(f.retained) for f in frames))
    rec.count("decompose.terms", len(qm.terms))
    rec.count("decompose.term_ratio", len(qm.terms) / math.prod(len(f) for f in frames))
    rec.call("decompose.residual", reconstruction_residual, ch, frames, qm.terms)


class Decide:
    """check_nonsignalling, then an exact min-norm decomposition when the
    verdict is non-signalling; one input in five is a signalling control."""

    cycle = SIGNALLING_EVERY
    reference = staticmethod(exact_reference)

    def __init__(self, m: int):
        self.m = m

    def input(self, seed: int, i: int):
        rng = _rng(seed, i)
        if i % SIGNALLING_EVERY == SIGNALLING_EVERY - 1:
            g = gen.signalling_control(rng, self.m)
        else:
            g = gen.common_cause(rng, self.m, exact=True)
        return g, to_channel(g)

    def op(self, rec, inp, i):
        _, ch = inp
        out = {"report": rec.call("nonsignalling.check", check_nonsignalling, ch)}
        if out["report"].verdict:
            out["frames"] = rec.call("decompose.frames", default_frames, ch)
            out["qm"] = rec.call(
                SOLVE_SPAN[MIN_NORM], decompose_quasimixture, ch,
                mode=MIN_NORM, frames=out["frames"], ns_report=out["report"],
            )
        return out

    def check(self, inp, out):
        g, _ = inp
        if out["report"].verdict == g.signalling:
            return f"NS verdict {out['report'].verdict} but signalling={g.signalling} by construction"
        return None if g.signalling else _mixture_problem(out["qm"], exact=True)

    def observe(self, rec, inp, out):
        rec.count("nonsignalling.subsets", len(out["report"].checks))
        rec.count("nonsignalling.rejected_ratio", not out["report"].verdict)
        if "qm" in out:
            _observe_decomposition(rec, inp[1], out["frames"], out["qm"])


class Certify:
    """The steps ``register`` runs, then certificate encode, ``json.dumps``,
    and the third-party ``verify_certificate`` on the re-parsed text."""

    def __init__(self, m: int, exact: bool, modes):
        self.m, self.exact, self.modes = m, exact, tuple(modes)
        self.cycle = len(self.modes)
        self.reference = exact_reference if exact else float_reference

    def input(self, seed: int, i: int):
        g = gen.common_cause(_rng(seed, i), self.m, exact=self.exact)
        ch = to_channel(g)
        obj = channel_to_json(ch)
        return g, ch, obj, channel_digest(obj)

    def op(self, rec, inp, i):
        _, ch, obj, digest = inp
        mode = self.modes[i % self.cycle]
        report = rec.call("nonsignalling.check", check_nonsignalling, ch)
        if not report.verdict:
            raise NotNonSignalling(f"signalling residual {report.max_residual}")
        frames = rec.call("decompose.frames", default_frames, ch)
        qm = rec.call(
            SOLVE_SPAN[mode], decompose_quasimixture, ch,
            mode=mode, frames=frames, ns_report=report,
        )
        real = rec.call("decompose.realize", build_realization, ch, qm, frames, channel_id="c1")
        residual = rec.call("decompose.verify", verify_realization, ch, real)
        tol = effective_tol(real.xi.arithmetic)
        cert = rec.call(
            "serialize.cert_encode", certificate_to_json,
            ch, digest, report, qm, real, residual, tol,
        )
        text = json.dumps(cert)
        decoded = json.loads(text)
        start = time.perf_counter()
        ok, _, detail = rec.call("serialize.verify_certificate", verify_certificate, decoded, obj)
        verify_s = time.perf_counter() - start
        return {
            "report": report, "frames": frames, "qm": qm, "realization": real,
            "residual": residual, "tol": tol, "cert": decoded,
            "cert_bytes": len(text.encode()), "verify_s": verify_s,
            "verified": ok, "detail": detail,
        }

    def check(self, inp, out):
        exact = out["realization"].xi.arithmetic == RATIONAL
        if exact != self.exact:
            return f"realization arithmetic {out['realization'].xi.arithmetic} is not the input's"
        problem = _mixture_problem(out["qm"], exact)
        if problem:
            return problem
        if not out["residual"] <= out["tol"]:
            return f"realization residual {out['residual']} exceeds {out['tol']}"
        if not out["verified"]:
            return f"fresh certificate rejected: {out['detail']}"
        return None

    def observe(self, rec, inp, out):
        _, ch, obj, _ = inp
        real = out["realization"]
        rec.count("nonsignalling.subsets", len(out["report"].checks))
        rec.count("decompose.xi_entries", real.xi.matrix.size)
        rec.count("decompose.xi_bytes", real.xi.matrix.nbytes)
        tol = out["tol"]
        rec.count("decompose.residual_over_tol", float(out["residual"] / tol) if tol else 0.0)
        rec.count("serialize.nsreport_bytes", len(json.dumps(out["cert"]["nsReport"]).encode()))
        _observe_decomposition(rec, ch, out["frames"], out["qm"])
        decoded_channel = channel_from_json(obj)
        rec.call("serialize.rebuild", realization_from_certificate, out["cert"], decoded_channel)

    def forgeries(self, inp, out):
        """Try three tampered copies of a fresh certificate; name -> accepted."""
        obj = inp[2]
        return {name: _accepted(cert, obj) for name, cert in forge(out["cert"], self.exact).items()}


def forge(cert: dict, exact: bool) -> dict:
    """Tampered certificates: a moved xi coefficient, which recontraction
    alone catches, and two forgeries that recontraction alone lets through:
    eta_1 doubled with every xi coefficient halved, and a moved coefficient
    under a declared tolerance of "100"."""

    def scaled(c, factor):
        return str(Fraction(c) * factor) if exact else c * float(factor)

    def moved(c):
        return str(Fraction(c) + Fraction(1, 1000)) if exact else c + 1e-3

    shifted = copy.deepcopy(cert)
    first = shifted["realization"]["xi"][0]
    first["c"] = moved(first["c"])

    halved = copy.deepcopy(cert)
    real = halved["realization"]
    real["etas"][0] = [scaled(x, 2) for x in real["etas"][0]]
    for entry in real["xi"]:
        entry["c"] = scaled(entry["c"], Fraction(1, 2))

    declared = copy.deepcopy(shifted)
    declared["tolerance"] = "100"
    return {"xi-moved": shifted, "eta-doubled-xi-halved": halved, "declared-tolerance": declared}


def _accepted(cert, channel_obj) -> bool:
    try:
        return bool(verify_certificate(cert, channel_obj)[0])
    except Exception:  # a verifier that raises has not accepted the forgery
        return False


class Audit:
    """Fresh QUANT generated theory: register the PR box, realize the BB84
    assemblage, run the quotient suite."""

    cycle = 1
    reference = staticmethod(exact_reference)  # Fraction compositions dominate

    def __init__(self, samples: int):
        self.samples = samples

    def input(self, seed: int, i: int):
        return pr_box(), bb84_assemblage(), int(_rng(seed, i).integers(2 ** 32))

    def op(self, rec, inp, i):
        box, asm, suite_seed = inp
        gt = new_theory(QUANT)
        rec.call("completion.register", register, gt, box, "pr")
        rec.call("assemblages.realize", realize_assemblage, gt, asm, "bb84")
        report = rec.call(
            "completion.quotient_suite", quotient_suite,
            gt, self.samples, np.random.default_rng(suite_seed),
        )
        return {"theory": gt, "report": report}

    def check(self, inp, out):
        report = out["report"]
        if not report.negative_control.distinguished:
            return "negative control (planted inequivalent xi) was not distinguished"
        if not report.passed:
            return f"quotient suite failed: {report}"
        if report.pairs_checked != self.samples:
            return f"{report.pairs_checked} pairs checked, {self.samples} asked"
        return None

    def observe(self, rec, inp, out):
        gt, report = out["theory"], out["report"]
        rec.count("completion.pairs_checked", report.pairs_checked)
        rec.count("completion.kernel_pairs", report.kernel_pairs)
        sides = []
        for cid in sorted(gt.registered):
            route = gt.bindings.get(f"route:{cid}")
            if route is not None:
                sides.append(route.matrix.shape[0])
                rec.call("diagrams.recomposition_eval", gt.eval, recomposition_term(gt, cid))
        rec.count("diagrams.route_dim", max(sides, default=0))


# name -> (constructor, full-size arguments, tiny arguments for warm-up and smoke tests).
# BENCHMARK.json gates certify-float-m4 and audit-hybrid, which between them
# reach every layer; decide-exact-m5 and certify-exact-m3 run on demand, for
# the exact-arithmetic paths. A full gate pass makes 4 + 22 runs per gated
# workload, about 55 s each at 50-s runs, and must end within 3420 s, so only
# two workloads fit at that length.
SPECS = {
    "decide-exact-m5": (Decide, {"m": 5}, {"m": 3}),
    "certify-float-m4": (
        Certify,
        {"m": 4, "exact": False, "modes": (MIN_NORM, MIN_NEGATIVITY)},
        {"m": 2, "exact": False, "modes": (MIN_NORM, MIN_NEGATIVITY)},
    ),
    "certify-exact-m3": (
        Certify,
        {"m": 3, "exact": True, "modes": (MIN_NORM,)},
        {"m": 2, "exact": True, "modes": (MIN_NORM,)},
    ),
    "audit-hybrid": (Audit, {"samples": 8}, {"samples": 1}),
}


def get(name: str, tiny: bool = False):
    cls, full, small = SPECS[name]
    return cls(**(small if tiny else full))
