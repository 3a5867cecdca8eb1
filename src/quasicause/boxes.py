"""Canonical small channels used throughout the tests and benchmarks."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .nonsignalling import MultipartiteChannel
from .procs import LinearProcess, compose_par, number
from .theories import STOCH, Theory
from .wires import classical, sig

F = Fraction


def pr_box() -> MultipartiteChannel:
    """The extremal bipartite binary box: P(ab|xy) = 1/2 iff a xor b = x and y."""
    bit = classical(2)
    matrix = np.zeros((4, 4), dtype=object)
    for x in range(2):
        for y in range(2):
            col = x * 2 + y
            for a in range(2):
                for b in range(2):
                    if a ^ b == x & y:
                        matrix[a * 2 + b, col] = F(1, 2)
                    else:
                        matrix[a * 2 + b, col] = 0
    body = LinearProcess(sig(bit, bit), sig(bit, bit), matrix)
    return MultipartiteChannel(((bit, bit), (bit, bit)), body, STOCH)


def swap_channel() -> MultipartiteChannel:
    """Bipartite channel routing wing 1's input to wing 2's output; signalling."""
    bit = classical(2)
    matrix = np.zeros((4, 4), dtype=object)
    for x1 in range(2):
        for x2 in range(2):
            matrix[x2 * 2 + x1, x1 * 2 + x2] = 1
    body = LinearProcess(sig(bit, bit), sig(bit, bit), matrix)
    return MultipartiteChannel(((bit, bit), (bit, bit)), body, STOCH)


def feedforward_channel() -> MultipartiteChannel:
    """Wing 2 outputs wing 1's input; wing 1 outputs a constant. Signalling."""
    bit = classical(2)
    matrix = np.zeros((4, 4), dtype=object)
    for x1 in range(2):
        for x2 in range(2):
            matrix[0 * 2 + x1, x1 * 2 + x2] = 1
    body = LinearProcess(sig(bit, bit), sig(bit, bit), matrix)
    return MultipartiteChannel(((bit, bit), (bit, bit)), body, STOCH)


def product_channel(theory: Theory, parts) -> MultipartiteChannel:
    """Tensor of independent single-wing channels."""
    wings = tuple((p.inputs[0], p.outputs[0]) for p in parts)
    body = number(1)
    for p in parts:
        body = compose_par(body, p)
    return MultipartiteChannel(wings, body, theory)
