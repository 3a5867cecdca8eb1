"""Generator ground truth, confirmed by brute-force marginals rather than
the library's non-signalling check."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import gen
import workloads


def _tensor(g):
    return g.matrix.reshape((2,) * (2 * g.m))  # axes a_1..a_m, x_1..x_m


def signalling_pairs(g):
    """All (K, x-wing) such that the marginal on the outputs outside K moves
    with the input of wing x in K, by direct summation."""
    t = _tensor(g)
    found = []
    for size in range(1, g.m):
        for subset in combinations(range(g.m), size):
            marginal = t.sum(axis=subset)  # axes: kept a's, then x_1..x_m
            kept = g.m - size
            for k in subset:
                axis = kept + k
                lo = np.take(marginal, 0, axis=axis)
                hi = np.take(marginal, 1, axis=axis)
                if g.exact:
                    moved = np.any(hi != lo)
                else:
                    moved = np.abs(hi - lo).max() > 1e-12
                if moved:
                    found.append((subset, k))
    return found


def _stochastic(g):
    sums = g.matrix.sum(axis=0)
    if g.exact:
        return all(s == 1 for s in sums) and all(x >= 0 for x in g.matrix.flat)
    return np.allclose(sums, 1, atol=1e-12) and g.matrix.min() >= 0


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("exact", [True, False])
def test_common_cause_channels_do_not_signal(m, exact):
    for seed in range(5):
        g = gen.common_cause(np.random.default_rng(seed), m, exact)
        assert not g.signalling
        assert _stochastic(g)
        assert signalling_pairs(g) == []


def test_exact_entries_have_grain_denominators():
    g = gen.common_cause(np.random.default_rng(0), 3, True)
    weight_denominators = range(3, 13)  # sums of three weights in 1..4
    for x in g.matrix.flat:
        assert isinstance(x, Fraction)
        assert any((x * d * gen.GRAIN ** 3).denominator == 1 for d in weight_denominators)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_signalling_controls_signal_along_their_wiring(m):
    for seed in range(5):
        g = gen.signalling_control(np.random.default_rng(seed), m)
        assert g.signalling and g.exact
        assert _stochastic(g)
        src, dst = g.wiring
        others = tuple(i for i in range(m) if i != dst - 1)
        # discarding every output but dst's leaves a marginal that moves with x_src
        assert (others, src - 1) in signalling_pairs(g)


def test_same_seed_gives_same_inputs():
    wl = workloads.get("decide-exact-m5", tiny=True)
    for i in range(wl.cycle):
        a, b = wl.input(7, i)[0], wl.input(7, i)[0]
        assert (a.matrix == b.matrix).all() and a.signalling == b.signalling
    assert not (wl.input(7, 0)[0].matrix == wl.input(8, 0)[0].matrix).all()
    assert [wl.input(7, i)[0].signalling for i in range(10)] == [False] * 4 + [True] + [False] * 4 + [True]
