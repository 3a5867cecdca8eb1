"""Generated-theory fragment: registration, spans, equivalence, suites."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench import gen
from quasicause import QUANT, RATIONAL, STOCH, classical, process, quantum, sig, state
from quasicause.assemblages import bb84_assemblage, realize_assemblage
from quasicause.boxes import pr_box, swap_channel
from quasicause.completion import (
    GeneratedTheory,
    discard_ext,
    discard_ext_deviation,
    effect_candidates,
    effect_span,
    is_in_base,
    kernel_perturbation,
    new_theory,
    op_equiv,
    quotient_suite,
    recomposition_term,
    register,
    state_candidates,
    state_span,
)
from quasicause.diagrams import Leaf, Mix, Par, Seq, eval_diagram
from quasicause.errors import (
    NotNonSignalling,
    SignatureMismatch,
    TooLarge,
    UnknownType,
    WrongKind,
)
from quasicause.nonsignalling import MultipartiteChannel
from quasicause.procs import LinearProcess, compose_seq, max_abs_diff
from quasicause.wires import Signature
from tests.helpers import (
    greedy_rank_subset,
    op_equiv_oracle,
    random_cptp_transfer,
    random_density_coords,
    random_stochastic_rational,
)

F = Fraction
BIT = classical(2)
QUBIT = quantum(2)


@pytest.fixture(scope="module")
def stoch_theory():
    gt = new_theory(STOCH, tester_depth=2)
    register(gt, pr_box(), channel_id="pr")
    return gt


def test_register_pr_box(stoch_theory):
    gt = stoch_theory
    entry = gt.registered["pr"]
    assert entry.residual == 0
    term = recomposition_term(gt, "pr")
    rebuilt = gt.eval(term)
    assert max_abs_diff(rebuilt, entry.channel.body) == 0


@pytest.mark.parametrize("m", [5, 6, 7])
def test_register_binary_float_past_the_dense_cap(m):
    """The benchmark's generated common cause at m = 5, 6, 7 (243^5, 729^6
    and 2187^7 diagonal points; the last are past the int64 range, so the
    copy map's rows are Python ints) registers: xi is bound without its dense
    view, whose read raises the library's TooLarge, as does diagram
    recomposition."""
    g = gen.common_cause(np.random.default_rng(7), m, exact=False)
    wires = Signature((BIT,) * m)
    chan = MultipartiteChannel(((BIT, BIT),) * m, LinearProcess(wires, wires, g.matrix), STOCH)
    gt = new_theory(STOCH)
    cid = register(gt, chan)
    real = gt.registered[cid].realization
    xi = gt.bindings[f"xi:{cid}"]
    assert xi.arithmetic == "float64"
    assert xi.outputs.wires == real.ancilla_types
    with pytest.raises(TooLarge):
        xi.matrix
    with pytest.raises(TooLarge):
        recomposition_term(gt, cid)


def test_register_rejects_signalling():
    gt = new_theory(STOCH)
    with pytest.raises(NotNonSignalling):
        register(gt, swap_channel())


def test_reregistration_gets_fresh_brands(stoch_theory):
    gt = new_theory(STOCH)
    a = register(gt, pr_box(), channel_id="first")
    b = register(gt, pr_box(), channel_id="second")
    anc_a = gt.registered[a].realization.ancilla_types[0]
    anc_b = gt.registered[b].realization.ancilla_types[0]
    assert anc_a != anc_b
    assert gt.registered[a].residual == 0
    assert gt.registered[b].residual == 0


def test_brand_discipline_type_checker(stoch_theory):
    gt = stoch_theory
    anc = gt.registered["pr"].realization.ancilla_types[0]
    # a base-classical process of the same carrier size cannot be wired in
    rogue = state([F(1, anc.vdim)] * anc.vdim, classical(anc.vdim))
    with pytest.raises(Exception) as err:
        compose_seq(rogue, gt.bindings["eta1:pr"])
    assert "ordered type lists differ" in str(err.value) or "wire" in str(err.value)


def test_recomposition_is_in_base(stoch_theory):
    gt = stoch_theory
    term = recomposition_term(gt, "pr")
    assert is_in_base(gt, term)


def test_extension_boundary_rejected(stoch_theory):
    gt = stoch_theory
    with pytest.raises(WrongKind):
        is_in_base(gt, Leaf("xi:pr"))


def test_discard_ext_all_ones(stoch_theory):
    gt = stoch_theory
    anc = gt.registered["pr"].realization.ancilla_types[0]
    eff = discard_ext(gt, anc)
    assert all(x == 1 for x in eff.matrix[0])
    assert discard_ext_deviation(gt, anc) == 0


def test_discard_of_unregistered_type_raises(stoch_theory):
    other = new_theory(STOCH)
    register(other, pr_box(), channel_id="elsewhere")
    anc = other.registered["elsewhere"].realization.ancilla_types[0]
    with pytest.raises(UnknownType):
        discard_ext(stoch_theory, anc)
    with pytest.raises(UnknownType):
        discard_ext_deviation(stoch_theory, anc)


def test_state_span_ranks(stoch_theory):
    gt = stoch_theory
    span_bit = state_span(gt, BIT)
    assert len(span_bit) == 2
    anc = gt.registered["pr"].realization.ancilla_types[0]
    span_anc = state_span(gt, anc)
    assert 1 <= len(span_anc) <= anc.vdim
    # depth growth is monotone
    d1 = state_span(gt, anc, depth=1)
    d2 = state_span(gt, anc, depth=2)
    assert len(d1) <= len(d2)


def test_effect_span_contains_discard(stoch_theory):
    gt = stoch_theory
    anc = gt.registered["pr"].realization.ancilla_types[0]
    span = effect_span(gt, anc, depth=1)
    assert len(span) == 1
    dis = discard_ext(gt, anc)
    assert max_abs_diff(span[0][1], dis) == 0
    # pairing rank is bounded by the carrier
    states = state_span(gt, anc)
    effects = effect_span(gt, anc)
    pairing = np.array(
        [[float(compose_seq(s, e).as_scalar()) for _, s in states]
         for _, e in effects]
    )
    assert np.linalg.matrix_rank(pairing, tol=1e-9) <= anc.vdim


def test_normalized_generated_states(stoch_theory):
    gt = stoch_theory
    anc = gt.registered["pr"].realization.ancilla_types[0]
    dis = discard_ext(gt, anc)
    for term, proc in state_span(gt, anc):
        total = compose_seq(proc, dis).as_scalar()
        # generated states arising from channel legs are subnormalized
        assert 0 <= total <= 1 + 1e-12


def test_op_equiv_self(stoch_theory):
    gt = stoch_theory
    res = op_equiv(gt, Leaf("xi:pr"), Leaf("xi:pr"))
    assert not res.distinguished
    assert res.status == "EquivalentUpToDepth"


def test_op_equiv_distinguishes_base(stoch_theory):
    gt = stoch_theory
    extra = {
        "p1": process([[1, 1], [0, 0]], sig(BIT), sig(BIT)),
        "p2": process([[0, 0], [1, 1]], sig(BIT), sig(BIT)),
    }
    res = op_equiv(gt, Leaf("p1"), Leaf("p2"), extra)
    assert res.distinguished
    w = res.witness
    # re-evaluate the witness independently
    lhs = eval_diagram(Seq(Seq(w.state_term, Leaf("p1")), w.effect_term),
                       {**gt.bindings, **extra})
    rhs = eval_diagram(Seq(Seq(w.state_term, Leaf("p2")), w.effect_term),
                       {**gt.bindings, **extra})
    assert abs(lhs.as_scalar() - rhs.as_scalar()) > F(1, 2)


@pytest.fixture(scope="module")
def hybrid_theory():
    gt = new_theory(QUANT)
    register(gt, pr_box(), channel_id="pr")
    realize_assemblage(gt, bb84_assemblage(), "bb84")
    return gt


def probe_wires(gt):
    """Base wires (a bit and a qubit) and the PR-box and BB84 ancillas."""
    return [BIT, QUBIT] + [
        anc for cid in ("pr", "bb84") for anc in gt.registered[cid].realization.ancilla_types
    ]


def random_matrix(rng, shape, exact):
    if exact:
        entries = [F(int(rng.integers(-6, 7)), int(rng.integers(1, 8)))
                   for _ in range(shape[0] * shape[1])]
        return np.array(entries, dtype=object).reshape(shape)
    return rng.normal(size=shape)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    exact_f=st.booleans(),
    exact_g=st.booleans(),
    shift=st.sampled_from([0, F(1, 10**6), F(1, 1000), F(1, 5)]),
    one_entry=st.booleans(),
    depth=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_op_equiv_agrees_with_the_pairwise_oracle(
    hybrid_theory, data, exact_f, exact_g, shift, one_entry, depth, seed
):
    gt = hybrid_theory
    rng = np.random.default_rng(seed)
    wires = st.lists(st.sampled_from(probe_wires(gt)), max_size=2)
    ins, outs = sig(*data.draw(wires)), sig(*data.draw(wires))
    shape = (outs.dim, ins.dim)
    f = random_matrix(rng, shape, exact_f)
    direction = random_matrix(rng, shape, exact_f)
    if one_entry:  # a sparse gap, so the first differing tester is not always the first
        mask = np.zeros(shape, dtype=int)
        mask[rng.integers(shape[0]), rng.integers(shape[1])] = 1
        direction = direction * mask
    g = f + (shift if exact_f else float(shift)) * direction
    if exact_g != exact_f:  # the same values in the other arithmetic
        g = np.vectorize(F, otypes=[object])(g) if exact_g else g.astype(float)
    extra = {"f": process(f, ins, outs), "g": process(g, ins, outs)}

    got = op_equiv(gt, Leaf("f"), Leaf("g"), extra, depth)
    want = op_equiv_oracle(gt, Leaf("f"), Leaf("g"), extra, depth)
    assert (got.distinguished, got.depth) == (want.distinguished, want.depth)
    if want.distinguished:
        assert got.witness.state_term == want.witness.state_term
        assert got.witness.effect_term == want.witness.effect_term
        for value, expected in [(got.witness.lhs_value, want.witness.lhs_value),
                                (got.witness.rhs_value, want.witness.rhs_value)]:
            if isinstance(expected, float):
                assert abs(value - expected) <= 1e-12
            else:
                assert not isinstance(value, float) and value == expected


def test_op_equiv_signature_mismatch(stoch_theory):
    gt = stoch_theory
    with pytest.raises(SignatureMismatch):
        op_equiv(gt, Leaf("xi:pr"), Leaf("eta1:pr"))


def test_kernel_perturbation_invisible_at_depth_1(stoch_theory):
    gt = stoch_theory
    extra = {"xi-pert": kernel_perturbation(gt, "pr")}
    res = op_equiv(gt, Leaf("xi:pr"), Leaf("xi-pert"), extra, depth=1)
    assert not res.distinguished
    assert res.depth == 1


def test_quotient_suite_passes(stoch_theory):
    gt = stoch_theory
    rng = np.random.default_rng(77)
    report = quotient_suite(gt, samples=30, rng=rng)
    assert report.passed
    assert report.pairs_checked == 30
    assert report.kernel_pairs == 10
    assert report.negative_control.distinguished
    assert report.negative_control.witness is not None


def random_base_wrap(gt, rng, term, in_wires, out_wires, extra):
    """Wrap a base-boundary term with random base pre/post-processing."""
    pre_names = []
    for w in in_wires:
        name = f"pre{len(extra)}"
        if w.kind == "classical":
            extra[name] = process(
                random_stochastic_rational(rng, w.vdim, w.vdim), sig(w), sig(w)
            )
        else:
            extra[name] = process(
                random_cptp_transfer(rng, (w.hilbert_dim,), (w.hilbert_dim,)),
                sig(w), sig(w),
            )
        pre_names.append(name)
    post_names = []
    for w in out_wires:
        name = f"post{len(extra)}"
        if w.kind == "classical":
            extra[name] = process(
                random_stochastic_rational(rng, w.vdim, w.vdim), sig(w), sig(w)
            )
        else:
            extra[name] = process(
                random_cptp_transfer(rng, (w.hilbert_dim,), (w.hilbert_dim,)),
                sig(w), sig(w),
            )
        post_names.append(name)
    pre = Leaf(pre_names[0])
    for n in pre_names[1:]:
        pre = Par(pre, Leaf(n))
    post = Leaf(post_names[0])
    for n in post_names[1:]:
        post = Par(post, Leaf(n))
    return Seq(Seq(pre, term), post)


def test_base_boundary_diagrams_stay_valid_stoch(stoch_theory):
    gt = stoch_theory
    rng = np.random.default_rng(101)
    chan = gt.registered["pr"].channel
    in_wires = [w for w, _ in chan.wings]
    out_wires = [w for _, w in chan.wings]
    for _ in range(40):
        extra = {}
        term = random_base_wrap(
            gt, rng, recomposition_term(gt, "pr"), in_wires, out_wires, extra
        )
        if rng.random() < 0.3:
            other = random_base_wrap(
                gt, rng, recomposition_term(gt, "pr"), in_wires, out_wires, extra
            )
            term = Mix(F(1, 3), term, other)
        assert is_in_base(gt, term, extra)


def test_base_boundary_diagrams_stay_valid_quant():
    rng = np.random.default_rng(103)
    gt = new_theory(QUANT)
    from quasicause.decompose import local_channel_frame
    from quasicause.nonsignalling import MultipartiteChannel
    from quasicause.procs import LinearProcess

    frame = local_channel_frame(QUANT, QUBIT, QUBIT)
    weights = rng.random(3)
    weights /= weights.sum()
    body = np.zeros((16, 16))
    for w in weights:
        j1 = frame.retained[int(rng.integers(0, len(frame.retained)))]
        j2 = frame.retained[int(rng.integers(0, len(frame.retained)))]
        body += w * np.kron(
            frame.members[j1].matrix.astype(float),
            frame.members[j2].matrix.astype(float),
        )
    chan = MultipartiteChannel(
        ((QUBIT, QUBIT), (QUBIT, QUBIT)),
        LinearProcess(sig(QUBIT, QUBIT), sig(QUBIT, QUBIT), body),
        QUANT,
    )
    cid = register(gt, chan)
    assert gt.registered[cid].realization.carrier_dim <= 3
    in_wires = [w for w, _ in chan.wings]
    out_wires = [w for _, w in chan.wings]
    for _ in range(15):
        extra = {}
        term = random_base_wrap(
            gt, rng, recomposition_term(gt, cid), in_wires, out_wires, extra
        )
        assert is_in_base(gt, term, extra)


def test_spans_keep_the_greedy_leftmost_subset():
    gt = new_theory(QUANT)
    register(gt, pr_box(), channel_id="pr")
    realize_assemblage(gt, bb84_assemblage(), "bb84")
    wires = {
        w
        for entry in gt.registered.values()
        for w in entry.realization.ancilla_types
        + tuple(t for pair in entry.channel.wings for t in pair)
    }
    for w in sorted(wires, key=lambda w: w.id):
        for depth in (1, 2):
            for span, candidates in (
                (state_span, state_candidates),
                (effect_span, effect_candidates),
            ):
                cands = candidates(gt, w, depth)
                exact_mode = all(p.arithmetic == RATIONAL for _, p in cands)
                want = [term for term, _ in greedy_rank_subset(cands, exact_mode)]
                assert [term for term, _ in span(gt, w, depth)] == want
