"""Seeded benchmark inputs that carry their own ground truth.

Every generator takes a numpy ``Generator`` and returns a :class:`GenChannel`:
a binary m-wing channel as a plain matrix plus what the construction
guarantees about it. Nothing here calls the library; the benchmark converts
the matrix into a library channel after generation, so the library sees only
the inputs.

Matrix layout: rows are output tuples (a_1..a_m), columns input tuples
(x_1..x_m), wing 1 most significant, which is ``np.kron`` order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

GRAIN = 12  # exact local-map entries are multiples of 1/GRAIN
HIDDEN = 3  # hidden values in each common-cause mixture
WEIGHT = Fraction(1, 2)  # share of the copy wiring in a signalling control


@dataclass(frozen=True)
class GenChannel:
    """A generated binary channel and its construction facts."""

    matrix: np.ndarray
    m: int
    exact: bool
    signalling: bool
    # (from wing, to wing), 1-based, for signalling controls
    wiring: Optional[Tuple[int, int]] = None


def _local_map(rng, exact: bool) -> np.ndarray:
    """A 2x2 column-stochastic matrix with no 0 or 1 entry, so that no input
    degenerates into a cheaper one with vanishing terms."""
    if exact:
        top = [Fraction(int(k), GRAIN) for k in rng.integers(1, GRAIN, size=2)]
        return np.array([top, [1 - top[0], 1 - top[1]]], dtype=object)
    top = rng.uniform(0.05, 0.95, size=2)
    return np.array([top, 1 - top])


def _weights(rng, exact: bool):
    if exact:
        w = [int(k) for k in rng.integers(1, 5, size=HIDDEN)]
        return [Fraction(k, sum(w)) for k in w]
    w = rng.random(HIDDEN) + 0.1
    return list(w / w.sum())


def _product(maps, exact: bool) -> np.ndarray:
    out = np.array([[1]], dtype=object) if exact else np.array([[1.0]])
    for mat in maps:
        out = np.kron(out, mat)
    return out


def common_cause(rng, m: int, exact: bool) -> GenChannel:
    """sum_h w_h (x)_i M_i^h: non-signalling by construction."""
    body = None
    for w in _weights(rng, exact):
        term = w * _product([_local_map(rng, exact) for _ in range(m)], exact)
        body = term if body is None else body + term
    return GenChannel(body, m, exact, signalling=False)


def copy_wiring(rng, m: int, src: int, dst: int) -> np.ndarray:
    """Wing ``dst`` outputs wing ``src``'s input; other wings apply local maps."""
    maps = [_local_map(rng, True) for _ in range(m)]
    n = 2 ** m
    body = np.empty((n, n), dtype=object)
    for row in range(n):
        a = [(row >> (m - 1 - i)) & 1 for i in range(m)]
        for col in range(n):
            x = [(col >> (m - 1 - i)) & 1 for i in range(m)]
            p = Fraction(int(a[dst - 1] == x[src - 1]))
            for i in range(m):
                if i != dst - 1:
                    p *= maps[i][a[i], x[i]]
            body[row, col] = p
    return body


def signalling_control(rng, m: int) -> GenChannel:
    """Exact mixture of a common-cause channel with a copy wiring.

    The copy part moves wing ``dst``'s output marginal with wing ``src``'s
    input by ``WEIGHT``, and the common-cause part cannot cancel that, so
    the channel signals from ``src`` to ``dst``.
    """
    src, dst = (int(v) + 1 for v in rng.choice(m, size=2, replace=False))
    base = common_cause(rng, m, True).matrix
    body = (1 - WEIGHT) * base + WEIGHT * copy_wiring(rng, m, src, dst)
    return GenChannel(body, m, True, signalling=True, wiring=(src, dst))
