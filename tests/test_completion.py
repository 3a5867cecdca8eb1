"""Generated-theory fragment: registration, spans, equivalence, suites."""

import gc
import sys
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench import gen
from quasicause import QUANT, RATIONAL, STOCH, check, classical, process, quantum, sig, state
from quasicause.assemblages import bb84_assemblage, realize_assemblage
from quasicause.boxes import pr_box, swap_channel
from quasicause import completion
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
from quasicause.procs import (
    LinearProcess,
    compose_par,
    compose_seq,
    effective_tol,
    identity,
    max_abs_diff,
    numerators,
    permutation,
)
from quasicause.wires import Signature, interleave
from tests import helpers
from tests.helpers import (
    effect_candidates_oracle,
    greedy_rank_subset,
    leg_kernel_oracle,
    op_equiv_oracle,
    probe_discard_oracle,
    quotient_suite_oracle,
    random_cptp_transfer,
    random_density_coords,
    random_stochastic_rational,
    span_oracle,
    state_candidates_oracle,
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


def test_register_binary_exact_m8_end_to_end():
    """The benchmark's exact generated common cause at m = 8, 4^8 body
    entries over one denominator, registers on integer numerators: its NS
    check, min-norm solve and both recontractions are exact, the residual is
    0 and xi sums to exactly 1."""
    gt = generated_theory(STOCH, 8, exact=True)
    (entry,) = gt.registered.values()
    xi = entry.realization.xi
    assert entry.residual == 0
    assert xi.arithmetic == RATIONAL and xi.matrix.shape == (4 ** 8, 1)
    assert sum(xi.matrix.flat) == 1


@pytest.mark.parametrize("m", [5, 6, 7])
def test_register_binary_float_past_the_dense_cap(m):
    """The benchmark's generated common cause at m = 5, 6, 7, whose diagonal
    common causes had 243^5 to 2187^7 points, registers with a dense xi of
    4^m entries. At m = 5 the recomposition diagram evaluates to the body;
    at m = 7 its widest composite, 2^14 inputs beside 4^7 ancilla points,
    passes the dense cap and evaluation raises the library's TooLarge."""
    g = gen.common_cause(np.random.default_rng(7), m, exact=False)
    wires = Signature((BIT,) * m)
    chan = MultipartiteChannel(((BIT, BIT),) * m, LinearProcess(wires, wires, g.matrix), STOCH)
    gt = new_theory(STOCH)
    cid = register(gt, chan)
    real = gt.registered[cid].realization
    xi = gt.bindings[f"xi:{cid}"]
    assert xi.arithmetic == "float64"
    assert xi.outputs.wires == real.ancilla_types
    assert xi.matrix.shape == (4 ** m, 1)
    term = recomposition_term(gt, cid)
    if m == 5:
        assert max_abs_diff(gt.eval(term), chan.body) <= 1e-9
    if m == 7:
        with pytest.raises(TooLarge):
            gt.eval(term)


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
    wires = st.lists(st.sampled_from(probe_wires(hybrid_theory)), max_size=2)
    ins, outs = sig(*data.draw(wires)), sig(*data.draw(wires))
    check_op_equiv_against_oracle(
        hybrid_theory, ins, outs, exact_f, exact_g, shift, one_entry, depth, seed
    )


@pytest.mark.parametrize("outs, seed", [(("Q2",), 0), (("A1@pr",), 10452634)])
def test_op_equiv_compares_at_binary64_tolerance_behind_float_testers(
    hybrid_theory, outs, seed
):
    # exact operands fed binary64 span testers (the BB84 ancilla's) are
    # compared in binary64: at tolerance 0, rounding alone of about 1e-17
    # told f and g apart at the wrong tester
    by_id = {w.id: w for w in probe_wires(hybrid_theory)}
    ins = sig(by_id["A1@pr"], by_id["A2@bb84"])
    outs = sig(*(by_id[w] for w in outs))
    check_op_equiv_against_oracle(
        hybrid_theory, ins, outs, True, True, F(1, 5), True, 2, seed
    )


def check_op_equiv_against_oracle(gt, ins, outs, exact_f, exact_g, shift, one_entry, depth, seed):
    """f at random, g = f shifted along a random (or one-entry) direction,
    each in its own arithmetic; op_equiv must match the pairwise oracle."""
    rng = np.random.default_rng(seed)
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


def test_quant_suite_promotes_each_rational_process_once(monkeypatch):
    """Over one QUANT quotient-suite run (PR box registered, BB84 realized, 8
    samples), no rational process's numerators go through ``check._float_of``
    twice: every mixed operation reads the binary64 form the process keeps.
    Numerators are told apart by their buffer and denominator; the spy keeps
    each array alive, so no buffer is freed and reused within the run."""
    promoted, held = Counter(), []
    unspied = check._float_of

    def spy(x):
        if isinstance(x, tuple):
            held.append(x[0])
            promoted[x[0].__array_interface__["data"][0], x[1]] += 1
        return unspied(x)

    for name, module in list(sys.modules.items()):
        if name.startswith("quasicause") and getattr(module, "_float_of", None) is unspied:
            monkeypatch.setattr(module, "_float_of", spy)
    gt = new_theory(QUANT)
    register(gt, pr_box(), "pr")
    realize_assemblage(gt, bb84_assemblage(), "bb84")
    assert quotient_suite(gt, 8, np.random.default_rng(0)).passed
    assert promoted, "the suite promoted no rational process"
    twice = {key: n for key, n in promoted.items() if n > 1}
    assert twice == {}, f"{len(twice)} numerator arrays promoted more than once"


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
    assert np.count_nonzero(gt.registered[cid].realization.xi.matrix) <= 3
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


def generated_theory(base, m, exact, seed=7):
    """A theory holding one generated binary common-cause channel."""
    g = gen.common_cause(np.random.default_rng(seed), m, exact=exact)
    wires = Signature((BIT,) * m)
    gt = new_theory(base)
    register(gt, MultipartiteChannel(((BIT, BIT),) * m, LinearProcess(wires, wires, g.matrix), base))
    return gt


def pr_theory(base):
    gt = new_theory(base)
    register(gt, pr_box(), channel_id="pr")
    return gt


def bb84_theory():
    gt = new_theory(QUANT)
    realize_assemblage(gt, bb84_assemblage(), "bb84")
    return gt


CANDIDATE_THEORIES = {
    "pr-stoch": lambda: pr_theory(STOCH),
    "pr-quant": lambda: pr_theory(QUANT),
    "bb84": bb84_theory,
    "gen-m2-exact": lambda: generated_theory(STOCH, 2, True),
    "gen-m2-float": lambda: generated_theory(STOCH, 2, False),
    "gen-m3-exact": lambda: generated_theory(STOCH, 3, True),
    "gen-m3-float": lambda: generated_theory(STOCH, 3, False),
}


def theory_wires(gt):
    """Every ancilla of the theory and every base wire of its channels."""
    wires = {
        w
        for entry in gt.registered.values()
        for w in entry.realization.ancilla_types
        + tuple(t for pair in entry.channel.wings for t in pair)
    }
    return sorted(wires, key=lambda w: w.id)


def assert_same_value(got, want):
    """Bit for bit when both are rational, within the binary64 tolerance
    otherwise."""
    assert (got.inputs, got.outputs) == (want.inputs, want.outputs)
    if got.arithmetic == want.arithmetic == RATIONAL:
        assert max_abs_diff(got, want) == 0
    else:
        assert max_abs_diff(got, want) <= effective_tol("float64")


@pytest.mark.parametrize("name", sorted(CANDIDATE_THEORIES))
def test_contracted_candidates_match_the_diagram_oracle(name):
    gt = CANDIDATE_THEORIES[name]()
    for w in theory_wires(gt):
        for depth in (1, 2):
            for candidates, oracle in (
                (state_candidates, state_candidates_oracle),
                (effect_candidates, effect_candidates_oracle),
            ):
                got, want = candidates(gt, w, depth), oracle(gt, w, depth)
                assert [term for term, _ in got] == [term for term, _ in want]
                exact_mode = all(p.arithmetic == RATIONAL for _, p in want)
                assert all((p.arithmetic == RATIONAL) == exact_mode for _, p in got)
                for (_, p), (_, q) in zip(got, want):
                    assert_same_value(p, q)


@pytest.mark.parametrize("name", sorted(CANDIDATE_THEORIES))
def test_extension_discard_matches_the_probe_oracle(name):
    gt = CANDIDATE_THEORIES[name]()
    for entry in gt.registered.values():
        for anc in entry.realization.ancilla_types:
            want, gap = probe_discard_oracle(gt, anc)
            assert_same_value(discard_ext(gt, anc), want)
            got_gap = discard_ext_deviation(gt, anc)
            if want.arithmetic == RATIONAL:
                assert got_gap == gap == 0
            else:
                assert abs(got_gap - gap) <= effective_tol("float64")


def test_registering_again_refreshes_the_cached_testers():
    """A query fills the theory's span and tester caches; a later
    registration clears them, so the answers equal a fresh theory's."""
    gt = pr_theory(QUANT)
    pr_ancs = gt.registered["pr"].realization.ancilla_types
    bit_pair = sig(BIT, pr_ancs[0])
    ones, zeros = [1] * bit_pair.dim, [0] * bit_pair.dim
    extra = {
        "f": process([ones, zeros], bit_pair, sig(BIT)),
        "g": process([zeros, ones], bit_pair, sig(BIT)),
    }
    first = op_equiv(gt, Leaf("f"), Leaf("g"), extra)
    assert first.distinguished
    assert any(key[0] == "states" for key in gt._span_cache)
    realize_assemblage(gt, bb84_assemblage(), "bb84")
    assert not gt._span_cache

    fresh = pr_theory(QUANT)
    realize_assemblage(fresh, bb84_assemblage(), "bb84")
    cases = [(Leaf("f"), Leaf("g")), (Leaf("xi:pr"), Leaf("xi:pr")),
             (Leaf("xi:bb84"), Leaf("xi:bb84")), (Leaf("eta2:bb84"), Leaf("eta2:bb84"))]
    for f, g in cases:
        got, want = op_equiv(gt, f, g, extra), op_equiv(fresh, f, g, extra)
        assert (got.distinguished, got.depth) == (want.distinguished, want.depth)
        assert got.witness == want.witness
    for w in theory_wires(fresh):
        for span in (state_span, effect_span):
            assert [t for t, _ in span(gt, w)] == [t for t, _ in span(fresh, w)]


@pytest.mark.parametrize("exact", [True, False])
def test_route_is_bound_by_the_first_recomposition(exact):
    gt = pr_theory(STOCH) if exact else generated_theory(STOCH, 3, False)
    cid = sorted(gt.registered)[0]
    assert not any(name.startswith("route:") for name in gt.bindings)
    real = gt.registered[cid].realization
    chan = gt.registered[cid].channel
    rebuilt = gt.eval(recomposition_term(gt, cid))
    assert f"route:{cid}" in gt.bindings
    # the realization diagram composed by hand: inputs beside xi, shuffled
    # into (in_1, anc_1, in_2, anc_2, ...), into the etas side by side
    ins = identity(Signature(tuple(w for w, _ in chan.wings)))
    side = compose_par(ins, real.xi)
    routed = compose_seq(side, permutation(side.outputs, interleave(chan.m)))
    etas = real.etas[0]
    for eta in real.etas[1:]:
        etas = compose_par(etas, eta)
    want = compose_seq(routed, etas)
    assert rebuilt.arithmetic == want.arithmetic
    assert max_abs_diff(rebuilt, want) == 0
    assert max_abs_diff(rebuilt, chan.body) <= effective_tol(rebuilt.arithmetic)


@pytest.mark.parametrize("scale", [2 ** 61, 2 ** 70])
def test_contracted_candidates_stay_exact_past_int64(scale):
    """A xi whose numerators fit int64 but whose contractions do not, and one
    whose numerators do not fit at all: the candidates stay exact."""
    gt = pr_theory(STOCH)
    xi = gt.bindings["xi:pr"]
    den = 2 ** 61 - 1
    entries = [F(scale + 7 * j, den) for j in range(xi.outputs.dim)]
    gt.bind("xi:pr", LinearProcess(xi.inputs, xi.outputs, np.array(entries, dtype=object).reshape(-1, 1)))
    anc = gt.registered["pr"].realization.ancilla_types[0]
    got, want = state_candidates(gt, anc, 2), state_candidates_oracle(gt, anc, 2)
    assert [term for term, _ in got] == [term for term, _ in want]
    for (_, p), (_, q) in zip(got, want):
        assert p.arithmetic == q.arithmetic == RATIONAL
        assert max_abs_diff(p, q) == 0


def base_tester_cache_size():
    return completion._base_span.cache_info().currsize + completion._base_testers.cache_info().currsize


def test_generated_theories_share_the_base_wire_spans():
    """Two theories over one base read the same span and tester objects for
    base wires, and a later registration leaves them in place."""
    gt, other = pr_theory(QUANT), bb84_theory()
    for kind in ("state", "effect"):
        for w in (BIT, QUBIT):
            assert completion._span(gt, kind, w, 2) is completion._span(other, kind, w, 1)
        pair = sig(BIT, QUBIT)
        assert completion._testers(gt, kind, pair, 2) is completion._testers(other, kind, pair, 1)
    before = completion._span(gt, "state", BIT, 2), completion._testers(gt, "effect", sig(BIT, QUBIT), 2)
    realize_assemblage(gt, bb84_assemblage(), "bb84")
    assert not gt._span_cache
    after = completion._span(gt, "state", BIT, 2), completion._testers(gt, "effect", sig(BIT, QUBIT), 2)
    assert all(a is b for a, b in zip(after, before))
    # the shared spans name frame members; op_equiv binds those names
    fresh = pr_theory(QUANT)
    q = sig(QUBIT)
    extra = {"f": identity(q), "g": process(np.eye(4)[[0, 1, 3, 2]], q, q)}
    w = op_equiv(fresh, Leaf("f"), Leaf("g"), extra).witness
    lhs, rhs = (fresh.eval(Seq(Seq(w.state_term, Leaf(p)), w.effect_term), extra) for p in "fg")
    assert abs(lhs.as_scalar() - w.lhs_value) <= 1e-12 and abs(rhs.as_scalar() - w.rhs_value) <= 1e-12
    # the public spans are copies: editing one leaves the shared tuple alone
    listed = state_span(gt, BIT)
    listed.clear()
    assert len(state_span(gt, BIT)) == BIT.vdim


def hybrid_pr_bb84():
    gt = pr_theory(QUANT)
    realize_assemblage(gt, bb84_assemblage(), "bb84")
    return gt


SHARED_SPAN_CASES = {
    "quant-pr-bb84": hybrid_pr_bb84,
    "stoch-pr": lambda: pr_theory(STOCH),
    "quant-bb84": bb84_theory,
    "gen-m2-exact": lambda: generated_theory(STOCH, 2, True),
    "gen-m3-float": lambda: generated_theory(STOCH, 3, False),
}


def assert_identical(got, want):
    """Same signatures, arithmetic and entries, bit for bit."""
    assert (got.inputs, got.outputs, got.arithmetic) == (want.inputs, want.outputs, want.arithmetic)
    if got.arithmetic == RATIONAL:
        (got_num, got_den), (want_num, want_den) = numerators(got), numerators(want)
        assert got_den == want_den and np.array_equal(got_num, want_num)
    else:
        assert np.array_equal(got.matrix, want.matrix)


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("name", sorted(SHARED_SPAN_CASES))
def test_shared_spans_agree_with_the_oracles_cold_and_warm(name, depth):
    """With the shared caches emptied, then again on a second theory over the
    filled ones: every leg kernel and extension discard is the per-theory
    oracle's bit for bit; spans equal the greedy subset of their candidates
    and, terms and processes, the per-theory ``span_oracle``; and op_equiv
    equals the pairwise oracle on base, ancilla and mixed wires."""
    completion._base_span.cache_clear()
    completion._base_testers.cache_clear()
    completion._frame_leg.cache_clear()
    for gt in (SHARED_SPAN_CASES[name](), SHARED_SPAN_CASES[name]()):
        wires = theory_wires(gt)
        for w in wires:
            for span, candidates in ((state_span, state_candidates), (effect_span, effect_candidates)):
                cands = candidates(gt, w, depth)
                exact_mode = all(p.arithmetic == RATIONAL for _, p in cands)
                want = [term for term, _ in greedy_rank_subset(cands, exact_mode)]
                assert [term for term, _ in span(gt, w, depth)] == want
            for kind, span in (("state", state_span), ("effect", effect_span)):
                kept, stack = span_oracle(gt, kind, w, depth)
                got = span(gt, w, depth)
                assert [term for term, _ in got] == [term for term, _ in kept]
                for (_, p), (_, q) in zip(got, kept):
                    assert_identical(p, q)
                assert_identical(completion._span(gt, kind, w, depth)[1], stack)
        for cid, entry in gt.registered.items():
            for wing, anc in enumerate(entry.realization.ancilla_types, start=1):
                kernel = leg_kernel_oracle(gt, cid, wing, depth)
                assert_identical(completion._candidates(gt, "effect", anc, depth)[0], kernel)
                reference = leg_kernel_oracle(gt, cid, wing, 2)
                assert_identical(discard_ext(gt, anc), completion._block(reference, sig(anc), sig(), rows=[0]))
        base = [w for w in wires if w.kind != "extension"]
        ancs = [w for w in wires if w.kind == "extension"]
        for seed, (ins, outs) in enumerate([
            ((), (base[-1],)), ((base[0],), (base[-1],)), (tuple(base[:2]), ()),
            ((ancs[0], base[0]), (base[-1],)), ((), tuple(ancs[:2])),
        ]):
            for shift in (0, F(1, 5)):
                check_op_equiv_against_oracle(
                    gt, sig(*ins), sig(*outs), True, seed % 2 == 0, shift, True, depth, seed
                )


def test_theories_over_one_base_share_the_leg_work():
    """Two theories registering different channels over the same wing types
    read one kernel object per leg, and their effect spans and discards share
    its numerators; a later registration leaves the shared work in place."""
    gt, other = pr_theory(STOCH), generated_theory(STOCH, 2, True)
    (cid,) = other.registered
    for wing in (1, 2):
        leg = completion._leg(gt, "pr", wing, 2)
        assert leg is completion._leg(other, cid, wing, 2) is completion._leg(gt, "pr", 3 - wing, 3)
        anc, other_anc = (t.registered[c].realization.ancilla_types[wing - 1] for t, c in ((gt, "pr"), (other, cid)))
        spans = [completion._span(t, "effect", a, 2)[1] for t, a in ((gt, anc), (other, other_anc))]
        assert [s.inputs for s in spans] == [sig(anc), sig(other_anc)]
        assert spans[0]._ints[0] is spans[1]._ints[0] is leg.span[1]._ints[0]
        assert discard_ext(gt, anc)._ints[0] is discard_ext(other, other_anc)._ints[0]
    assert completion._leg(gt, "pr", 1, 1) is not completion._leg(gt, "pr", 1, 2)
    register(gt, pr_box(), "pr-again")
    assert not gt._span_cache
    assert completion._leg(gt, "pr", 1, 2) is completion._leg(gt, "pr-again", 1, 2) is leg


def test_default_channel_ids_skip_taken_ones():
    gt = new_theory(STOCH)
    assert register(gt, pr_box(), "c2") == "c2"
    assert register(gt, pr_box()) == "c3"
    assert register(gt, pr_box()) == "c4"
    fresh = new_theory(STOCH)
    assert [register(fresh, pr_box()) for _ in range(2)] == ["c1", "c2"]


@pytest.mark.parametrize("name", ["quant-pr-bb84", "stoch-pr"])
def test_quotient_suite_reports_as_with_the_full_diagrams(name, monkeypatch):
    """For seeds 0..19 the suite, which evaluates each sampled pair once,
    reports field for field (negative-control witness included) what the
    three closures give on the full diagrams, and each of its op_equiv calls
    compares the very processes the full diagrams evaluate to."""
    gt = SHARED_SPAN_CASES[name]()

    def run(suite, seed):
        calls = []

        def spy(gt, f, g, extra=None, depth=None, tol=None):
            calls.append([gt.eval(t, extra) for t in (f, g)])
            return op_equiv(gt, f, g, extra, depth, tol)

        for module in (completion, helpers):
            monkeypatch.setattr(module, "op_equiv", spy)
        return suite(gt, 8, np.random.default_rng(seed)), calls

    for seed in range(20):
        (got, got_calls), (want, want_calls) = run(quotient_suite, seed), run(quotient_suite_oracle, seed)
        assert got == want
        assert got.negative_control.witness == want.negative_control.witness is not None
        assert len(got_calls) == len(want_calls)
        for pair, want_pair in zip(got_calls, want_calls):
            for p, q in zip(pair, want_pair):
                assert_identical(p, q)


def test_dropped_theories_leave_the_shared_caches_as_the_first_left_them():
    """Fifty audit-style theories, each with its own channel ids, fill the
    shared caches no further than the first one did, and none outlives its
    last reference."""
    def audit(n):
        gt = new_theory(QUANT)
        register(gt, pr_box(), f"pr{n}")
        realize_assemblage(gt, bb84_assemblage(), f"bb84{n}")
        assert quotient_suite(gt, 8, np.random.default_rng(3)).passed
        return weakref.ref(gt)

    audit(0)
    size = base_tester_cache_size()
    refs = [audit(n) for n in range(1, 50)]
    gc.collect()
    assert base_tester_cache_size() == size
    assert all(ref() is None for ref in refs)
