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

The generated candidates come from one kernel per leg of a registered
channel: the leg functionals e · eta_leg · (s ⊗ ·), over the leg's probe
states s and effects e, as the rows of one matrix on the ancilla. An
ancilla's effect candidates are its own leg's rows; its state candidates are
xi's coefficient tensor mode-multiplied by every other leg's matrix. No
candidate diagram is evaluated, and a span builds the terms of its kept
candidates alone; ``state_span`` and ``effect_span`` cut the kept processes
from the span's stack when called.

The theory object is single-writer during register calls and read-shared
afterwards. Queries are not pure reads. Work that reads no channel is cached
per base theory and shared by its generated theories: base-wire spans and S
and E products over base wires, and per (base theory, wing frame, depth,
arithmetic) a leg's kernel, its effect span's picks and stack, and its
extension discard with the probe gap (``register`` realizes every wing over
the one shared ``local_channel_frame``, so the eta is the frame's). What
names or reads a channel fills a per-theory cache, which each register call
clears: the terms, the xi-dependent state spans and the products over
extension wires. The first ``recomposition_term`` call for a channel binds
its wire route.
Two concurrent queries may both compute one entry; either result is the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import count
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .decompose import (
    CommonCauseRealization,
    WingFrame,
    _independent_columns,
    build_realization,
    decompose_quasimixture,
    default_frames,
    local_channel_frame,
    verify_realization,
)
from .diagrams import Leaf, Mix, Par, Seq, Term, eval_diagram, infer_signature
from .errors import (
    NotNonSignalling,
    ResidualTooLarge,
    SignatureMismatch,
    UnknownType,
    WrongKind,
)
from .nonsignalling import MultipartiteChannel, check_nonsignalling
from .procs import (
    FLOAT64,
    RATIONAL,
    LinearProcess,
    _apply,
    _binary64,
    _made,
    _operand,
    _operands,
    _resigned,
    add,
    compose_par,
    compose_seq,
    effective_tol,
    identity,
    max_abs_diff,
    mode_product,
    number,
    permutation,
    scale,
)
from .theories import Theory
from .wires import EMPTY, EXTENSION, Signature, SystemType, classical, interleave, sig, unravel_index


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
    """Base theory plus registered-realization generators, and a cache of tester work reading them."""

    def __init__(self, base: Theory, tester_depth: int = 2):
        if tester_depth < 1:
            raise ValueError("tester depth must be positive")
        self.base = base
        self.tester_depth = tester_depth
        self.registered: Dict[str, RegisteredChannel] = {}
        self.bindings: Dict[str, LinearProcess] = {}
        self._span_cache: Dict[tuple, object] = {}

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

    def _merged(self, extra: Optional[Dict[str, LinearProcess]]) -> Dict[str, LinearProcess]:
        """The bindings with ``extra`` over them; the bindings themselves if none."""
        return self.bindings if not extra else {**self.bindings, **extra}

    def eval(self, term: Term, extra: Optional[Dict[str, LinearProcess]] = None):
        return eval_diagram(term, self._merged(extra))

    def infer(self, term: Term, extra: Optional[Dict[str, LinearProcess]] = None):
        return infer_signature(term, self._merged(extra))


def new_theory(base: Theory, tester_depth: int = 2) -> GeneratedTheory:
    return GeneratedTheory(base, tester_depth)


def register(
    gt: GeneratedTheory,
    channel: MultipartiteChannel,
    channel_id: Optional[str] = None,
    tol: Optional[object] = None,
) -> str:
    """Decompose, realize, verify and install generators; returns the id.
    The default id is the first free ``c{k}`` from k = (channels registered) + 1."""
    if channel_id is None:
        channel_id = next(f"c{k}" for k in count(len(gt.registered) + 1) if f"c{k}" not in gt.registered)
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
    tolerance = effective_tol(realization.arithmetic, tol)
    if residual > tolerance:
        raise ResidualTooLarge(
            f"realization of {channel_id} misses by {residual}"
        )

    gt.registered[channel_id] = RegisteredChannel(channel, realization, residual)
    gt._span_cache.clear()  # the per-theory entries; the shared per-base ones stay valid
    # xi is the dense coefficient tensor, prod |F_i| entries on the ancillas
    gt.bind(f"xi:{channel_id}", realization.xi)
    for i, eta in enumerate(realization.etas, start=1):
        gt.bind(f"eta{i}:{channel_id}", eta)
    for anc in realization.ancilla_types:
        gt.bind(f"id:{anc.id}", identity(sig(anc)))
    for w_in, w_out in channel.wings:
        gt._bind_base_type(w_in)
        gt._bind_base_type(w_out)
    return channel_id


def _interleave_route(channel, realization) -> LinearProcess:
    """(inputs..., ancillas...) -> (in_1, anc_1, in_2, anc_2, ...)."""
    wires = tuple(w for w, _ in channel.wings) + realization.ancilla_types
    return permutation(Signature(wires), interleave(channel.m))


def recomposition_term(gt: GeneratedTheory, channel_id: str) -> Term:
    """The realization diagram: inputs beside xi, routed into the etas. The
    route is bound on the first call, since only this diagram reads it."""
    entry = gt.registered[channel_id]
    m = entry.channel.m
    route = f"route:{channel_id}"
    if route not in gt.bindings:
        gt.bind(route, _interleave_route(entry.channel, entry.realization))
    in_ids = [w.id for w, _ in entry.channel.wings]
    ins = _par([Leaf(f"id:{wid}") for wid in in_ids])
    side = Par(ins, Leaf(f"xi:{channel_id}"))
    routed = Seq(side, Leaf(route))
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
    bindings = gt._merged(extra)
    ins, outs = infer_signature(term, bindings)
    for w in tuple(ins) + tuple(outs):
        if w.kind == EXTENSION:
            raise WrongKind(f"boundary wire {w.id} is an extension type")
    return gt.base.valid(eval_diagram(term, bindings), tol)


def _probe_discard(gt: GeneratedTheory, ext_type: SystemType):
    """Feed the reference state and each base frame state of the wing's input
    beside the ancilla into its eta and discard the output: the (s, dis) rows
    of the wing's leg kernel. Returns the effect that the reference state
    gives, and the largest gap to it over the frame states."""
    channel_id, wing = _owner(gt, ext_type)
    reference, gap = _leg(gt, channel_id, wing, 2).discard
    return _resigned(reference, sig(ext_type), EMPTY), gap


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

def _owner(gt: GeneratedTheory, t: SystemType) -> Tuple[str, int]:
    """The brand (channel id, wing) of ``t``, checked to be a registered ancilla."""
    entry = gt.registered.get(t.brand[0]) if t.brand else None
    if entry is None or t not in entry.realization.ancilla_types:
        raise UnknownType(f"{t.id} is not a registered extension type")
    return t.brand


def _stack(t: SystemType, kind: str, procs: Sequence[LinearProcess]) -> LinearProcess:
    """States (``kind`` "state") as the columns of classical(n) -> t, or
    effects as the rows of t -> classical(n); binary64 unless all are
    rational."""
    exact_mode = all(p.arithmetic == RATIONAL for p in procs)
    mats = [p.matrix if exact_mode else _binary64(p) for p in procs]
    label = sig(classical(len(procs)))
    if kind == "state":
        return LinearProcess(label, sig(t), np.concatenate(mats, axis=1))
    return LinearProcess(sig(t), label, np.concatenate(mats, axis=0))


def _block(p: LinearProcess, inputs: Signature, outputs: Signature, rows=slice(None), cols=slice(None)):
    """Rows ``rows`` and columns ``cols`` of ``p``, between the given signatures."""
    return _made(inputs, outputs, _apply(_operand(p), lambda a: a[rows][:, cols]))


def _select(stack: LinearProcess, kind: str, picks: Sequence[int], label: Signature) -> LinearProcess:
    """Candidates ``picks`` of a stack (its columns when ``kind`` is
    "state", its rows otherwise), on ``label`` in place of classical(n)."""
    if kind == "state":
        return _block(stack, label, stack.outputs, cols=list(picks))
    return _block(stack, stack.inputs, label, rows=list(picks))


@dataclass(frozen=True, eq=False)
class _Leg:
    """The tester work of a leg that reads only its frame. ``kernel`` holds
    the leg functionals e · eta · (s ⊗ ·) as the rows of classical(|F|) ->
    classical(n), the probe states s outer and the probe effects e inner,
    ``effects`` of them per state. The effect span, its rows named by their
    indices, and the extension discard with its probe gap are derived on
    first use."""

    kernel: LinearProcess
    effects: int

    @cached_property
    def span(self):
        return _kept("effect", self.kernel, int)

    @cached_property
    def discard(self):
        """The reference state's (s, dis) row, and its largest gap to the
        (s, dis) row of a frame state."""
        k = self.kernel
        rows = list(range(0, k.outputs.dim, self.effects))
        label = sig(classical(len(rows)))
        probed = _block(k, k.inputs, label, rows=rows)
        reference = _block(k, k.inputs, label, rows=[0] * len(rows))
        return _block(k, k.inputs, EMPTY, rows=[0]), max_abs_diff(probed, reference)


@lru_cache(maxsize=None)
def _frame_leg(theory: Theory, frame: WingFrame, depth: int, binary64: bool) -> _Leg:
    """The leg work of an eta on ``frame``'s members (binary64 if
    ``binary64``) probed by ``theory``'s states and effects: the reference
    state, then at depth 2 the frame states of the input, and the discard,
    then at depth 2 the frame effects of the output. The probe effects and
    then the probe states are mode-multiplied into the eta matrix (out, in,
    |F|), on integer numerators when every piece is rational, else in
    binary64. Built once per key and shared by every generated theory over
    ``theory``; ``depth`` is at most 2."""
    w_in, w_out = frame.in_type, frame.out_type
    states, effects = [theory.reference_state(w_in)], [theory.discard(w_out)]
    if depth >= 2:
        states += theory.state_frame(w_in)
        effects += theory.effect_frame(w_out)
    control = classical(len(frame))
    s, e, eta = _operands(
        _stack(w_in, "state", states),
        _stack(w_out, "effect", effects),
        _made(sig(w_in, control), sig(w_out), frame.operands(binary64)[0]),
    )
    probed = mode_product(_apply(eta, lambda a: a.reshape(w_out.vdim, w_in.vdim, -1)), e, 0)
    probed = mode_product(probed, _apply(s, np.transpose), 1)  # (effects, states, |F|)
    rows = _apply(probed, lambda a: a.transpose(1, 0, 2))  # the states outer
    return _Leg(_made(sig(control), sig(classical(len(states) * len(effects))), rows), len(effects))


def _leg(gt: GeneratedTheory, channel_id: str, leg: int, depth: int) -> _Leg:
    """The shared leg work of a registered channel's leg: its eta is the
    controlled frame ``register`` realized the wing over."""
    entry = gt.registered[channel_id]
    frame = local_channel_frame(entry.channel.theory, *entry.channel.wings[leg - 1])
    return _frame_leg(gt.base, frame, min(depth, 2), entry.realization.arithmetic == FLOAT64)


def _leg_term(gt: GeneratedTheory, channel_id: str, leg: int, effects: int, j: int) -> Term:
    """The term of row j of the leg's kernel, of shape A_leg -> I: probe
    state j // effects beside the ancilla, into eta_leg, then probe effect
    j % effects."""
    entry = gt.registered[channel_id]
    w_in, w_out = entry.channel.wings[leg - 1]
    anc = entry.realization.ancilla_types[leg - 1]
    s, e = divmod(j, effects)
    state = Leaf(f"st:{w_in.id}:{s - 1}" if s else f"ref:{w_in.id}")
    effect = Leaf(f"ef:{w_out.id}:{e - 1}" if e else f"dis:{w_out.id}")
    return Seq(Seq(Par(state, Leaf(f"id:{anc.id}")), Leaf(f"eta{leg}:{channel_id}")), effect)


def _candidates(
    gt: GeneratedTheory, kind: str, t: SystemType, depth: int
) -> Tuple[LinearProcess, Callable[[int], Term]]:
    """Every depth-bounded generated state (``kind`` "state") or effect of a
    wire as one stack, classical(n) -> t with candidate j as column j or t ->
    classical(n) with candidate j as row j, and the term of candidate j.

    A base wire's candidates are its frame states or effects. An extension
    wire's effects are the rows of its leg kernel; its states are the xi core
    mode-multiplied by the leg kernel of every other leg, own axis last, so
    candidate j is the one whose per-leg functionals are j's mixed-radix
    digits (leftmost leg most significant)."""
    if t.kind != EXTENSION:
        gt._bind_base_type(t)
        return _frame_candidates(gt.base, kind, t)
    channel_id, wing = _owner(gt, t)
    if kind == "effect":
        leg = _leg(gt, channel_id, wing, depth)
        kernel = _resigned(leg.kernel, sig(t), leg.kernel.outputs)
        return kernel, lambda j: _leg_term(gt, channel_id, wing, leg.effects, j)
    m = gt.registered[channel_id].channel.m
    xi = gt.bindings[f"xi:{channel_id}"]
    others = {i: _leg(gt, channel_id, i, depth) for i in range(1, m + 1) if i != wing}
    core, *ops = _operands(xi, *(leg.kernel for leg in others.values()))
    core = _apply(core, lambda a: a.reshape(xi.outputs.dims))
    for i, op in zip(others, ops):
        core = mode_product(core, op, i - 1)
    rows = _apply(core, lambda a: np.moveaxis(a, wing - 1, -1).reshape(-1, t.vdim).T)
    radices = [leg.kernel.outputs.dim for leg in others.values()]
    stack = _made(sig(classical(math.prod(radices))), sig(t), rows)

    def term(j: int) -> Term:
        digits = dict(zip(others, unravel_index(j, radices)))
        return Seq(Leaf(f"xi:{channel_id}"), _par([
            _leg_term(gt, channel_id, i, others[i].effects, digits[i]) if i in others else Leaf(f"id:{t.id}")
            for i in range(1, m + 1)
        ]))

    return stack, term


def _listed(gt: GeneratedTheory, kind: str, t: SystemType, depth: int):
    stack, term = _candidates(gt, kind, t, depth)
    n = (stack.inputs if kind == "state" else stack.outputs).dim
    return [(term(j), _select(stack, kind, [j], EMPTY)) for j in range(n)]


def state_candidates(
    gt: GeneratedTheory, t: SystemType, depth: Optional[int] = None
) -> List[Tuple[Term, LinearProcess]]:
    """All depth-bounded generated states of a wire, with their terms."""
    return _listed(gt, "state", t, depth or gt.tester_depth)


def effect_candidates(
    gt: GeneratedTheory, t: SystemType, depth: Optional[int] = None
) -> List[Tuple[Term, LinearProcess]]:
    """All depth-bounded generated effects of a wire, with their terms."""
    return _listed(gt, "effect", t, depth or gt.tester_depth)


def _frame_candidates(theory: Theory, kind: str, t: SystemType):
    """A base wire's candidates at every depth: its frame, named as bound."""
    prefix, frame = ("st", theory.state_frame(t)) if kind == "state" else ("ef", theory.effect_frame(t))
    return _stack(t, kind, frame), lambda j: Leaf(f"{prefix}:{t.id}:{j}")


def _kept(kind: str, stack: LinearProcess, term: Callable[[int], Term]):
    """A span: the terms of the leftmost-first maximal-rank subset of a
    ``_candidates`` stack, and their own stack (None when there are none)."""
    values = _operand(stack)
    picks = _independent_columns(values if kind == "state" else _apply(values, np.transpose))
    return tuple(map(term, picks)), _select(stack, kind, picks, sig(classical(len(picks)))) if picks else None


@lru_cache(maxsize=None)
def _base_span(theory: Theory, kind: str, t: SystemType):
    """A base wire's span, shared by every generated theory over ``theory``."""
    return _kept(kind, *_frame_candidates(theory, kind, t))


def _span(gt: GeneratedTheory, kind: str, t: SystemType, depth: int):
    """A wire's span: the terms of a maximal-rank subset of its generated
    states or effects, and their stack. An ancilla's effect span is its leg's
    shared picks, named and put on the ancilla; its state span is cached per
    theory, as xi is the theory's."""
    if t.kind != EXTENSION:
        gt._bind_base_type(t)
        return _base_span(gt.base, kind, t)
    key = (kind, t.id, depth)
    if key not in gt._span_cache:
        if kind == "state":
            gt._span_cache[key] = _kept(kind, *_candidates(gt, kind, t, depth))
        else:
            channel_id, wing = _owner(gt, t)
            leg = _leg(gt, channel_id, wing, depth)
            picks, stack = leg.span
            terms = tuple(_leg_term(gt, channel_id, wing, leg.effects, j) for j in picks)
            gt._span_cache[key] = terms, stack and _resigned(stack, sig(t), stack.outputs)
    return gt._span_cache[key]


def _members(kind: str, span) -> List[Tuple[Term, LinearProcess]]:
    """A span's (term, process) pairs, each process cut from the span's stack."""
    terms, stack = span
    return [(term, _select(stack, kind, [i], EMPTY)) for i, term in enumerate(terms)]


def state_span(gt: GeneratedTheory, t: SystemType, depth: Optional[int] = None):
    """A maximal-rank subset of the generated states of a wire."""
    return _members("state", _span(gt, "state", t, depth or gt.tester_depth))


def effect_span(gt: GeneratedTheory, t: SystemType, depth: Optional[int] = None):
    """A maximal-rank subset of the generated effects of a wire."""
    return _members("effect", _span(gt, "effect", t, depth or gt.tester_depth))


def _product(spans):
    """Each span's terms, and the Kronecker product of the stacks (None when one is empty)."""
    stacks = [stack for _, stack in spans]
    product = None if any(s is None for s in stacks) else reduce(compose_par, stacks, number(1))
    return tuple(terms for terms, _ in spans), product


@lru_cache(maxsize=256)
def _base_testers(theory: Theory, kind: str, wires: Tuple[SystemType, ...]):
    """``_product`` of base wires' spans, shared like ``_base_span``; bounded, as wire tuples are not."""
    return _product([_base_span(theory, kind, w) for w in wires])


def _testers(gt: GeneratedTheory, kind: str, wires: Signature, depth: int):
    """``_product`` of the wires' spans; per (kind, wires, depth) in ``gt`` if one is an extension."""
    if all(w.kind != EXTENSION for w in wires):
        for w in wires:
            gt._bind_base_type(w)
        return _base_testers(gt.base, kind, wires.wires)
    key = (kind + "s", tuple(w.id for w in wires), depth)
    if key not in gt._span_cache:
        gt._span_cache[key] = _product([_span(gt, kind, w, depth) for w in wires])
    return gt._span_cache[key]


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
    bindings = gt._merged(extra)
    f_in, f_out = infer_signature(f, bindings)
    g_in, g_out = infer_signature(g, bindings)
    if f_in.wires != g_in.wires or f_out.wires != g_out.wires:
        raise SignatureMismatch("operands have different signatures")
    fp = eval_diagram(f, bindings)
    gp = eval_diagram(g, bindings)

    state_sets, states = _testers(gt, "state", f_in, depth)
    effect_sets, effects = _testers(gt, "effect", f_out, depth)
    if states is None or effects is None:
        return EquivResult(False, depth)  # an empty span gives no testers
    lhs = compose_seq(compose_seq(states, fp), effects)
    rhs = compose_seq(compose_seq(states, gp), effects)
    # a binary64 tester makes the comparison binary64 even for exact operands
    exact_mode = lhs.arithmetic == rhs.arithmetic == RATIONAL
    tolerance = effective_tol(RATIONAL if exact_mode else FLOAT64, tol)
    if max_abs_diff(lhs, rhs) <= tolerance:
        return EquivResult(False, depth)

    gaps = abs(add(lhs, scale(-1, rhs)).matrix.T) > tolerance
    i, j = (int(k[0]) for k in np.nonzero(gaps.astype(bool)))
    s_digits = unravel_index(i, [len(terms) for terms in state_sets])
    e_digits = unravel_index(j, [len(terms) for terms in effect_sets])
    witness = TesterWitness(
        _par([terms[d] for terms, d in zip(state_sets, s_digits)]),
        _par([terms[d] for terms, d in zip(effect_sets, e_digits)]),
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
    depth-1 kernel-perturbation mixtures; plant one inequivalent pair. Each
    sampled pair is evaluated once and bound, like each recomposition; the
    three closures compose those values (evaluation is compositional)."""
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
        # evaluate the recomposition once; padding and closure checks then
        # work with the bound result (evaluation is compositional)
        name = f"recomp:{cid}"
        extra[name] = gt.eval(recomposition_term(gt, cid))
        base_terms.append(Leaf(name))

    while pairs < samples:
        t = base_terms[int(rng.integers(0, len(base_terms)))]
        variants = _padded_variants(gt, t, extra)
        idx = rng.permutation(len(variants))[:2]
        pairs += 1
        # evaluate the pair once; the closures below compose the bound values
        extra["pair:a"], extra["pair:b"] = (gt.eval(variants[int(k)], extra) for k in idx)
        a, b = Leaf("pair:a"), Leaf("pair:b")
        # sequential closure: wire both into the output discard
        ctx = _discard_term(gt, extra["pair:a"].outputs, extra)
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
    if xi.shape[0] < 2:
        raise ValueError("carrier too small to perturb")
    return _shifted(xi, magnitude, -magnitude)


def _shifted(xi: LinearProcess, *shifts) -> LinearProcess:
    """``xi`` with shifts[p] added to its entry p, in xi's arithmetic."""
    vec = np.array(xi.matrix, dtype=xi.matrix.dtype)
    for p, shift in enumerate(shifts):
        vec[p, 0] = vec[p, 0] + (shift if xi.arithmetic == RATIONAL else float(shift))
    return LinearProcess(xi.inputs, xi.outputs, vec)


def _kernel_mixture_checks(gt, channel_id, rng, extra):
    """Ten mixtures of xi with itself against the same mixtures with the
    kernel perturbation in place of one xi: (pairs checked, distinguished)."""
    xi = Leaf(f"xi:{channel_id}")
    extra["xi-pert"] = kernel_perturbation(gt, channel_id)
    failures = 0
    for w in (float(rng.random()) for _ in range(10)):
        res = op_equiv(gt, Mix(w, xi, xi), Mix(w, Leaf("xi-pert"), xi), extra, depth=1)
        failures += res.distinguished
    return 10, failures


def _planted_inequivalent(gt, channel_id, extra) -> EquivResult:
    """Shift xi's total weight; the product of extension discards sees it."""
    extra["xi-shifted"] = _shifted(gt.bindings[f"xi:{channel_id}"], Fraction(3, 10))
    return op_equiv(gt, Leaf(f"xi:{channel_id}"), Leaf("xi-shifted"), extra, depth=1)
