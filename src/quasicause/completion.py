"""A finitely-registered fragment of the common-cause closure of a base theory.

Registering a non-signalling channel runs the decomposition pipeline and
installs two kinds of generator: the shared quasi-state ``xi`` on fresh
branded ancilla wires and the controlled local channels ``eta_i``. Diagrams
over these generators plus arbitrary base-theory processes form the fragment;
extension wires appear only as outputs of a ``xi`` and inputs of the matching
``eta_i``, and type matching (brands are distinct types) is what stops any
other process from touching them.

Operational equivalence is decided by a bounded tester search. Each wire's
depth-limited generated states and effects are reduced to a basis (its span)
and stacked: S holds the product span states of the input wires as columns,
E the product span effects of the output wires as rows. Since the spans are
bases, f and g agree on every product tester exactly when E·f·S = E·g·S, and
each operand is composed with S and E once. The witness is the first
differing entry in state-major order (product state, then product effect). A
Distinguished verdict is conclusive (the witness re-evaluates to different
classical numbers); an equivalence verdict is only up to the reported depth.

The theory object is single-writer during register calls and read-shared
afterwards; span, equivalence and suite queries are pure reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product as iproduct
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .decompose import (
    CommonCauseRealization,
    _arithmetic,
    _independent_columns,
    build_realization,
    decompose_quasimixture,
    default_frames,
    verify_realization,
)
from .diagrams import Leaf, Mix, Par, Seq, Term, eval_diagram, infer_signature
from .errors import (
    NotNonSignalling,
    ResidualTooLarge,
    SignatureMismatch,
    TooLarge,
    UnknownType,
    WrongKind,
)
from .nonsignalling import MultipartiteChannel, check_nonsignalling
from .procs import (
    FLOAT64,
    RATIONAL,
    LinearProcess,
    add,
    compose_par,
    compose_seq,
    effect,
    effective_tol,
    identity,
    max_abs_diff,
    number,
    numerators,
    permutation,
    scale,
    state,
)
from .theories import Theory, discard_effect
from .wires import EXTENSION, Signature, SystemType, classical, interleave, sig, unravel_index


@dataclass(frozen=True)
class RegisteredChannel:
    channel: MultipartiteChannel
    realization: CommonCauseRealization
    residual: object


@dataclass(frozen=True)
class TesterWitness:
    """A distinguishing circuit fragment: plug states, read effects."""

    state_term: Optional[Term]
    effect_term: Optional[Term]
    lhs_value: object
    rhs_value: object


@dataclass(frozen=True)
class EquivResult:
    distinguished: bool
    depth: int
    witness: Optional[TesterWitness] = None

    @property
    def status(self) -> str:
        return "Distinguished" if self.distinguished else "EquivalentUpToDepth"


class GeneratedTheory:
    """Base theory plus registered-realization generators."""

    def __init__(self, base: Theory, tester_depth: int = 2):
        if tester_depth < 1:
            raise ValueError("tester depth must be positive")
        self.base = base
        self.tester_depth = tester_depth
        self.registered: Dict[str, RegisteredChannel] = {}
        self.bindings: Dict[str, LinearProcess] = {}
        self.extension_types: Dict[str, SystemType] = {}
        self._ext_owner: Dict[str, Tuple[str, int]] = {}
        self._span_cache: Dict[Tuple[str, str, int], tuple] = {}

    # -- binding helpers ---------------------------------------------------
    def bind(self, name: str, proc: LinearProcess) -> str:
        self.bindings[name] = proc
        return name

    def _bind_base_type(self, t: SystemType):
        if t.kind == EXTENSION:
            return
        if f"dis:{t.id}" in self.bindings:
            return
        self.bind(f"dis:{t.id}", self.base.discard(t))
        self.bind(f"ref:{t.id}", self.base.reference_state(t))
        self.bind(f"id:{t.id}", identity(sig(t)))
        for l, s in enumerate(self.base.state_frame(t)):
            self.bind(f"st:{t.id}:{l}", s)
        for j, e in enumerate(self.base.effect_frame(t)):
            self.bind(f"ef:{t.id}:{j}", e)

    def eval(self, term: Term, extra: Optional[Dict[str, LinearProcess]] = None):
        bindings = self.bindings if not extra else {**self.bindings, **extra}
        return eval_diagram(term, bindings)

    def infer(self, term: Term, extra: Optional[Dict[str, LinearProcess]] = None):
        bindings = self.bindings if not extra else {**self.bindings, **extra}
        return infer_signature(term, bindings)


def new_theory(base: Theory, tester_depth: int = 2) -> GeneratedTheory:
    return GeneratedTheory(base, tester_depth)


def register(
    gt: GeneratedTheory,
    channel: MultipartiteChannel,
    channel_id: Optional[str] = None,
    tol: Optional[object] = None,
) -> str:
    """Decompose, realize, verify and install generators; returns the id."""
    if channel_id is None:
        channel_id = f"c{len(gt.registered) + 1}"
    if channel_id in gt.registered:
        raise ValueError(f"channel id {channel_id!r} already registered")
    report = check_nonsignalling(channel, tol)
    if not report.verdict:
        raise NotNonSignalling(
            f"channel {channel_id} has signalling residual {report.max_residual}"
        )
    frames = default_frames(channel)
    qm = decompose_quasimixture(channel, frames=frames, tol=tol, ns_report=report)
    realization = build_realization(channel, qm, frames, channel_id=channel_id)
    residual = verify_realization(channel, realization, tol)
    tolerance = effective_tol(_arithmetic(realization), tol)
    if residual > tolerance:
        raise ResidualTooLarge(
            f"realization of {channel_id} misses by {residual}"
        )

    gt.registered[channel_id] = RegisteredChannel(channel, realization, residual)
    gt._span_cache.clear()
    # xi is bound as the coefficients followed by the copy map; its dense
    # k^m view is built only if a diagram reads its matrix
    gt.bind(f"xi:{channel_id}", realization.xi)
    for i, eta in enumerate(realization.etas, start=1):
        gt.bind(f"eta{i}:{channel_id}", eta)
    for i, anc in enumerate(realization.ancilla_types, start=1):
        gt.extension_types[anc.id] = anc
        gt._ext_owner[anc.id] = (channel_id, i)
        gt.bind(f"id:{anc.id}", identity(sig(anc)))
    for w_in, w_out in channel.wings:
        gt._bind_base_type(w_in)
        gt._bind_base_type(w_out)

    real = gt.registered[channel_id].realization
    route = _interleave_route(channel, real)
    if route is not None:
        gt.bind(f"route:{channel_id}", route)
    return channel_id


# Diagram-level recomposition needs a wire-routing permutation whose index
# has (input dim) * carrier^m entries; past this cap the realization still
# registers and verifies (staged contraction), but recomposition_term raises
# TooLarge for it.
ROUTE_CAP = 4000


def _interleave_route(channel, realization) -> Optional[LinearProcess]:
    """(inputs..., ancillas...) -> (in_1, anc_1, in_2, anc_2, ...)."""
    wires = tuple(w for w, _ in channel.wings) + realization.ancilla_types
    if math.prod(w.vdim for w in wires) > ROUTE_CAP:
        return None
    return permutation(Signature(wires), interleave(channel.m))


def recomposition_term(gt: GeneratedTheory, channel_id: str) -> Term:
    """The realization diagram: inputs beside xi, routed into the etas."""
    entry = gt.registered[channel_id]
    if f"route:{channel_id}" not in gt.bindings:
        raise TooLarge(
            f"carrier of {channel_id} is too large for diagram-level "
            f"recomposition (cap {ROUTE_CAP})"
        )
    m = entry.channel.m
    in_ids = [w.id for w, _ in entry.channel.wings]
    ins = _par([Leaf(f"id:{wid}") for wid in in_ids])
    side = Par(ins, Leaf(f"xi:{channel_id}"))
    routed = Seq(side, Leaf(f"route:{channel_id}"))
    return Seq(routed, _par([Leaf(f"eta{i}:{channel_id}") for i in range(1, m + 1)]))


def _par(terms: Sequence[Term]) -> Optional[Term]:
    """The left-nested parallel composite of ``terms``; None when empty."""
    if not terms:
        return None
    out = terms[0]
    for t in terms[1:]:
        out = Par(out, t)
    return out


def is_in_base(
    gt: GeneratedTheory,
    term: Term,
    extra: Optional[Dict[str, LinearProcess]] = None,
    tol: Optional[float] = None,
) -> bool:
    """Evaluate a diagram whose boundary is all base wires and test base
    validity. Well-typed generator diagrams must always pass."""
    ins, outs = gt.infer(term, extra)
    for w in tuple(ins) + tuple(outs):
        if w.kind == EXTENSION:
            raise WrongKind(f"boundary wire {w.id} is an extension type")
    return gt.base.valid(gt.eval(term, extra), tol)


def _probe_discard(gt: GeneratedTheory, ext_type: SystemType):
    """Feed each base frame state of the wing's input beside the ancilla into
    its eta and discard the output. Returns the effect that the reference
    state gives, and the largest gap to it over the frame states."""
    owner = gt._ext_owner.get(ext_type.id)
    if owner is None:
        raise UnknownType(f"{ext_type.id} is not a registered extension type")
    channel_id, wing = owner
    entry = gt.registered[channel_id]
    eta = entry.realization.etas[wing - 1]
    w_in, _ = entry.channel.wings[wing - 1]
    dis_out = discard_effect(eta.outputs, exact=eta.arithmetic == RATIONAL)

    def probe(state_proc):
        front = compose_par(state_proc, identity(sig(ext_type)))
        return compose_seq(compose_seq(front, eta), dis_out)

    reference = probe(gt.base.reference_state(w_in))
    worst = 0
    for s in gt.base.state_frame(w_in):
        worst = max(worst, max_abs_diff(probe(s), reference))
    return reference, worst


def discard_ext(
    gt: GeneratedTheory, ext_type: SystemType, tol: Optional[object] = None
) -> LinearProcess:
    """The unique effect on a branded ancilla: feed the wing's reference
    state into its eta and discard the output. Independence from the chosen
    probe state over the whole base frame is asserted."""
    reference, worst = _probe_discard(gt, ext_type)
    if worst > effective_tol(reference.arithmetic, tol):
        raise ResidualTooLarge(
            f"extension discard depends on the probe state (gap {worst})"
        )
    return reference


def discard_ext_deviation(
    gt: GeneratedTheory, ext_type: SystemType
) -> object:
    """Max gap of the probe-state independence check (0 when exact)."""
    return _probe_discard(gt, ext_type)[1]


# -- generated spans -------------------------------------------------------

def _leg_functionals(
    gt: GeneratedTheory, channel_id: str, leg: int, depth: int
) -> List[Term]:
    """Terms of shape A_leg -> I built from eta_leg with frame probes."""
    entry = gt.registered[channel_id]
    w_in, w_out = entry.channel.wings[leg - 1]
    anc = entry.realization.ancilla_types[leg - 1]
    gt._bind_base_type(w_in)
    gt._bind_base_type(w_out)
    states = [Leaf(f"ref:{w_in.id}")]
    effects = [Leaf(f"dis:{w_out.id}")]
    if depth >= 2:
        states += [
            Leaf(f"st:{w_in.id}:{l}")
            for l in range(len(gt.base.state_frame(w_in)))
        ]
        effects += [
            Leaf(f"ef:{w_out.id}:{j}")
            for j in range(len(gt.base.effect_frame(w_out)))
        ]
    out = []
    for s in states:
        for e in effects:
            front = Par(s, Leaf(f"id:{anc.id}"))
            out.append(Seq(Seq(front, Leaf(f"eta{leg}:{channel_id}")), e))
    return out


def state_candidates(
    gt: GeneratedTheory, t: SystemType, depth: Optional[int] = None
) -> List[Tuple[Term, LinearProcess]]:
    """All depth-bounded generated states of a wire, with their terms."""
    depth = depth or gt.tester_depth
    if t.kind != EXTENSION:
        gt._bind_base_type(t)
        names = [
            f"st:{t.id}:{l}" for l in range(len(gt.base.state_frame(t)))
        ]
        return [(Leaf(n), gt.bindings[n]) for n in names]
    owner = gt._ext_owner.get(t.id)
    if owner is None:
        raise UnknownType(f"{t.id} is not a registered extension type")
    channel_id, wing = owner
    entry = gt.registered[channel_id]
    m = entry.channel.m
    per_leg: List[List[Term]] = []
    for leg in range(1, m + 1):
        if leg == wing:
            per_leg.append([Leaf(f"id:{t.id}")])
        else:
            per_leg.append(_leg_functionals(gt, channel_id, leg, depth))
    out = []
    for combo in iproduct(*per_leg):
        term = Seq(Leaf(f"xi:{channel_id}"), _par(combo))
        out.append((term, gt.eval(term)))
    return out


def effect_candidates(
    gt: GeneratedTheory, t: SystemType, depth: Optional[int] = None
) -> List[Tuple[Term, LinearProcess]]:
    """All depth-bounded generated effects of a wire, with their terms."""
    depth = depth or gt.tester_depth
    if t.kind != EXTENSION:
        gt._bind_base_type(t)
        names = [
            f"ef:{t.id}:{j}" for j in range(len(gt.base.effect_frame(t)))
        ]
        return [(Leaf(n), gt.bindings[n]) for n in names]
    owner = gt._ext_owner.get(t.id)
    if owner is None:
        raise UnknownType(f"{t.id} is not a registered extension type")
    channel_id, wing = owner
    return [
        (term, gt.eval(term))
        for term in _leg_functionals(gt, channel_id, wing, depth)
    ]


def _span(gt: GeneratedTheory, kind: str, t: SystemType, depth: int):
    """Cached leftmost-first maximal-rank subset of the generated states
    (``kind`` "state") or effects of a wire, with its stack: for n members,
    the process classical(n) -> t whose column j is state j, or t ->
    classical(n) whose row j is effect j (None when the span is empty)."""
    key = (kind, t.id, depth)
    if key not in gt._span_cache:
        candidates = state_candidates if kind == "state" else effect_candidates
        cands = candidates(gt, t, depth)
        exact_mode = all(p.arithmetic == RATIONAL for _, p in cands)
        if exact_mode:
            # column j is candidate j times its positive denominator, which
            # keeps the leftmost independent columns and builds no Fraction
            cols = [numerators(p)[0].reshape(-1) for _, p in cands]
            stacked = np.stack(cols, axis=1).astype(object)
        else:
            stacked = np.stack([p.to_float().matrix.reshape(-1) for _, p in cands], axis=1)
        kept = [cands[j] for j in _independent_columns(stacked, exact_mode)]
        n = len(kept)
        pieces = [
            compose_seq(effect(point, classical(n)), p) if kind == "state"
            else compose_seq(p, state(point, classical(n)))
            for point, (_, p) in zip(np.eye(n, dtype=int).tolist(), kept)
        ]
        gt._span_cache[key] = kept, reduce(add, pieces) if pieces else None
    return gt._span_cache[key]


def state_span(gt: GeneratedTheory, t: SystemType, depth: Optional[int] = None):
    """A maximal-rank subset of the generated states of a wire."""
    return _span(gt, "state", t, depth or gt.tester_depth)[0]


def effect_span(gt: GeneratedTheory, t: SystemType, depth: Optional[int] = None):
    """A maximal-rank subset of the generated effects of a wire."""
    return _span(gt, "effect", t, depth or gt.tester_depth)[0]


# -- operational equivalence ----------------------------------------------

def op_equiv(
    gt: GeneratedTheory,
    f: Term,
    g: Term,
    extra: Optional[Dict[str, LinearProcess]] = None,
    depth: Optional[int] = None,
    tol: Optional[object] = None,
) -> EquivResult:
    """Bounded tester search: f ~ g up to ``depth`` exactly when
    E·f·S = E·g·S, S and E the Kronecker-stacked span states and effects
    (leftmost wire most significant). The witness is the first differing
    pair in state-major order: product state i, then product effect j."""
    depth = depth or gt.tester_depth
    f_in, f_out = gt.infer(f, extra)
    g_in, g_out = gt.infer(g, extra)
    if f_in.wires != g_in.wires or f_out.wires != g_out.wires:
        raise SignatureMismatch("operands have different signatures")
    fp = gt.eval(f, extra)
    gp = gt.eval(g, extra)
    exact_mode = fp.arithmetic == gp.arithmetic == RATIONAL
    tolerance = effective_tol(RATIONAL if exact_mode else FLOAT64, tol)

    state_spans = [_span(gt, "state", w, depth) for w in f_in]
    effect_spans = [_span(gt, "effect", w, depth) for w in f_out]
    if any(stack is None for _, stack in state_spans + effect_spans):
        return EquivResult(False, depth)  # an empty span gives no testers
    states = reduce(compose_par, [stack for _, stack in state_spans], number(1))
    effects = reduce(compose_par, [stack for _, stack in effect_spans], number(1))
    lhs = compose_seq(compose_seq(states, fp), effects)
    rhs = compose_seq(compose_seq(states, gp), effects)
    if max_abs_diff(lhs, rhs) <= tolerance:
        return EquivResult(False, depth)

    gaps = abs(add(lhs, scale(-1, rhs)).matrix.T) > tolerance
    i, j = (int(k[0]) for k in np.nonzero(gaps.astype(bool)))
    s_digits = unravel_index(i, [len(kept) for kept, _ in state_spans])
    e_digits = unravel_index(j, [len(kept) for kept, _ in effect_spans])
    witness = TesterWitness(
        _par([kept[d][0] for (kept, _), d in zip(state_spans, s_digits)]),
        _par([kept[d][0] for (kept, _), d in zip(effect_spans, e_digits)]),
        lhs.matrix[j, i],
        rhs.matrix[j, i],
    )
    return EquivResult(True, depth, witness)


# -- representative independence suite --------------------------------------

@dataclass(frozen=True)
class QuotientReport:
    pairs_checked: int
    seq_failures: int
    par_failures: int
    mix_failures: int
    kernel_pairs: int
    kernel_failures: int
    negative_control: EquivResult

    @property
    def passed(self) -> bool:
        return (
            self.seq_failures == 0
            and self.par_failures == 0
            and self.mix_failures == 0
            and self.kernel_failures == 0
            and self.negative_control.distinguished
        )


def _padded_variants(gt, term, extra):
    ins, outs = gt.infer(term, extra)
    variants = [term]
    out_id = _sig_identity(gt, outs, extra)
    in_id = _sig_identity(gt, ins, extra)
    if out_id is not None:
        variants.append(Seq(term, out_id))
    if in_id is not None:
        variants.append(Seq(in_id, term))
    variants.append(Mix(1, term, term))
    if len(ins) == 2:
        order = (1, 0)
        name = f"flip:{ins[0].id}:{ins[1].id}"
        if name not in extra:
            extra[name] = permutation(ins, order)
            extra[name + ":back"] = permutation(
                Signature((ins[1], ins[0])), order
            )
        variants.append(Seq(Seq(Leaf(name), Leaf(name + ":back")), term))
    return variants


def _sig_identity(gt, signature, extra):
    pieces = []
    for w in signature:
        name = f"id:{w.id}"
        if name not in gt.bindings and name not in extra:
            extra[name] = identity(sig(w))
        pieces.append(Leaf(name))
    return _par(pieces)


def quotient_suite(
    gt: GeneratedTheory, samples: int, rng, depth: Optional[int] = None
) -> QuotientReport:
    """Sample equivalent-by-construction representative pairs and check that
    sequential, parallel and convex composition respect equivalence; run the
    depth-1 kernel-perturbation mixtures; plant one inequivalent pair."""
    if not gt.registered:
        raise UnknownType("register at least one channel first")
    depth = depth or gt.tester_depth
    ids = sorted(gt.registered)
    extra: Dict[str, LinearProcess] = {}

    seq_failures = par_failures = mix_failures = 0
    pairs = 0
    base_terms = []
    for cid in ids:
        m = gt.registered[cid].channel.m
        for i in range(1, m + 1):
            base_terms.append(Leaf(f"eta{i}:{cid}"))
        base_terms.append(Leaf(f"xi:{cid}"))
        if f"route:{cid}" in gt.bindings:
            # evaluate the recomposition once; padding and closure checks
            # then work with the bound result (evaluation is compositional)
            name = f"recomp:{cid}"
            extra[name] = gt.eval(recomposition_term(gt, cid))
            base_terms.append(Leaf(name))

    while pairs < samples:
        t = base_terms[int(rng.integers(0, len(base_terms)))]
        variants = _padded_variants(gt, t, extra)
        idx = rng.permutation(len(variants))[:2]
        a, b = variants[int(idx[0])], variants[int(idx[1])]
        pairs += 1
        # sequential closure: wire both into the output discard
        _, outs = gt.infer(a, extra)
        ctx = _discard_term(gt, outs, extra)
        if ctx is not None:
            res = op_equiv(gt, Seq(a, ctx), Seq(b, ctx), extra, depth)
            seq_failures += res.distinguished
        # parallel closure with a shared pad
        pad = Leaf(_bind_shared_bit(gt))
        res = op_equiv(gt, Par(a, pad), Par(b, pad), extra, depth)
        par_failures += res.distinguished
        # convex closure against a common third representative
        w = float(rng.random())
        res = op_equiv(gt, Mix(w, a, variants[0]), Mix(w, b, variants[0]),
                       extra, depth)
        mix_failures += res.distinguished

    kernel_pairs, kernel_failures = _kernel_mixture_checks(gt, ids[0], rng, extra)
    negative = _planted_inequivalent(gt, ids[0], extra)
    return QuotientReport(
        pairs_checked=pairs,
        seq_failures=seq_failures,
        par_failures=par_failures,
        mix_failures=mix_failures,
        kernel_pairs=kernel_pairs,
        kernel_failures=kernel_failures,
        negative_control=negative,
    )


def _bind_shared_bit(gt) -> str:
    bit = classical(2)
    gt._bind_base_type(bit)
    return f"id:{bit.id}"


def _discard_term(gt, signature, extra):
    pieces = []
    for w in signature:
        if w.kind == EXTENSION:
            name = f"disx:{w.id}"
            if name not in gt.bindings and name not in extra:
                extra[name] = discard_ext(gt, w)
            pieces.append(Leaf(name))
        else:
            gt._bind_base_type(w)
            pieces.append(Leaf(f"dis:{w.id}"))
    return _par(pieces)


def kernel_perturbation(
    gt: GeneratedTheory, channel_id: str, magnitude=Fraction(1, 7)
) -> LinearProcess:
    """A perturbed xi that no depth-1 tester can tell from the original:
    move weight between two ancilla points without changing any product of
    extension discards (each is an all-ones row, so any zero-sum vector is
    invisible at depth 1)."""
    xi = gt.bindings[f"xi:{channel_id}"]
    vec = np.array(xi.matrix, dtype=xi.matrix.dtype)
    if vec.shape[0] < 2:
        raise ValueError("carrier too small to perturb")
    eps = magnitude if xi.arithmetic == RATIONAL else float(magnitude)
    vec[0, 0] = vec[0, 0] + eps
    vec[1, 0] = vec[1, 0] - eps
    return LinearProcess(xi.inputs, xi.outputs, vec)


def _kernel_mixture_checks(gt, channel_id, rng, extra):
    xi_name = f"xi:{channel_id}"
    pert = kernel_perturbation(gt, channel_id)
    extra["xi-pert"] = pert
    checks = 0
    failures = 0
    for _ in range(10):
        w = float(rng.random())
        res = op_equiv(
            gt,
            Mix(w, Leaf(xi_name), Leaf(xi_name)),
            Mix(w, Leaf("xi-pert"), Leaf(xi_name)),
            extra,
            depth=1,
        )
        checks += 1
        failures += res.distinguished
    return checks, failures


def _planted_inequivalent(gt, channel_id, extra) -> EquivResult:
    """Shift xi's total weight; the product of extension discards sees it."""
    xi = gt.bindings[f"xi:{channel_id}"]
    vec = np.array(xi.matrix, dtype=xi.matrix.dtype)
    bump = Fraction(3, 10) if xi.arithmetic == RATIONAL else 0.3
    vec[0, 0] = vec[0, 0] + bump
    extra["xi-shifted"] = LinearProcess(xi.inputs, xi.outputs, vec)
    return op_equiv(gt, Leaf(f"xi:{channel_id}"), Leaf("xi-shifted"),
                    extra, depth=1)
