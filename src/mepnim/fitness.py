"""Rule-violation fitness of a formula over a game graph.

A formula labels a state P when it evaluates to 0, N otherwise.  Its fitness
is the number of states/edges contradicting the three winning-strategy
rules: (i) no move may lead from a P-labeled state to another P-labeled
state, (ii) every non-terminal N-labeled state must have at least one
P-labeled child, (iii) the terminal state must be labeled P.  Zero
violations means the labeling is the true P/N partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .expr import Chromosome, EvalError, evaluate_broadcast, evaluate_many
from .game import GameGraph, StateSpaceMode

#: Fitness of a formula that divides by zero somewhere on the graph.
#: Compares strictly worse than every violation count.
INVALID = math.inf

class Label(Enum):
    P = "P"
    N = "N"


@dataclass(frozen=True)
class FitnessBreakdown:
    """Per-rule violation counts; `total` is the fitness value."""

    rule_i: int
    rule_ii: int
    rule_iii: int

    @property
    def total(self) -> int:
        return self.rule_i + self.rule_ii + self.rule_iii


def graph_fitness(chrom: Chromosome, graph: GameGraph) -> tuple[int | float, FitnessBreakdown | None]:
    """Total violation count and its per-rule breakdown over the graph.

    Returns (INVALID, None) when the formula raises EvalError on any node;
    partial credit for partially evaluable formulas is deliberately not
    given.
    """
    try:
        if graph.mode is StateSpaceMode.TUPLE:
            p = evaluate_broadcast(chrom, graph.box_axes) == 0
            rule_i, rule_ii, rule_iii = _box_violations(p, graph.box_shape)
        else:
            p = evaluate_many(chrom, graph.heap_matrix, graph.n_heaps) == 0
            rule_i, rule_ii, rule_iii = _edge_violations(p, graph)
    except EvalError:
        return INVALID, None
    breakdown = FitnessBreakdown(rule_i, rule_ii, rule_iii)
    return breakdown.total, breakdown


def _edge_violations(p: np.ndarray, graph: GameGraph) -> tuple[int, int, int]:
    """The three rule counts from per-source sums over the edge arrays.

    ``np.add.reduceat`` over the edge offsets sums the P-mask of each
    node's children, c[u], so rule i is c . p and rule ii counts the nodes
    where c + p is 0.  The terminal, node 0 and the only one with no
    edges, is left out of both: reduceat cannot give an empty range a sum
    of 0."""
    rule_iii = int(not p[0])
    sources = len(p) - 1
    if not sources:  # the terminal alone, with no edges
        return 0, 0, rule_iii
    edge_dst = graph.edge_dst
    count_type = np.int32 if len(edge_dst) < 2**31 else np.int64  # holds the edge count
    c = np.add.reduceat(p[edge_dst], graph.edge_offsets[1:-1], dtype=count_type)
    p = p[1:]
    rule_i = int(c @ p)
    c += p
    rule_ii = sources - int(np.count_nonzero(c))
    return rule_i, rule_ii, rule_iii


def _box_violations(p: np.ndarray, box_shape: tuple[int, ...]) -> tuple[int, int, int]:
    """The three rule counts of a tuple graph, from its P-mask `p` on the
    sub-box of the heaps the formula reads, with no edges.

    `p` has the shape `evaluate_broadcast` gives, h_i + 1 along a heap the
    formula reads and 1 along every other, and broadcasts to the box of
    shape `box_shape`.  Along heap i, the inclusive prefix sum of the
    box's P-mask counts the P states among v - t e_i for t = 0..v_i, so its
    sum over the heaps, s[v], is the number of P children of v plus n p[v].
    Then rule i is the sum of s over the P states minus n |P|; with n >= 1,
    s[v] is 0 exactly when v is N and has no P child, which is rule ii, or
    rule iii when v is the terminal (box code 0).

    Along an axis where `p` has length 1 the mask is constant, so that
    prefix sum is (v_i + 1) p, and s = s' + p * (the sum of v_i over those
    axes), where s' is the sum taken on `p` itself, each such axis adding p
    once.  Over the box, each element of `p` stands for M states, M the
    product of h_i + 1 over those axes, and v_i averages h_i / 2 over them.
    With Q the P count of `p`, rule i is M (sum of s' p - n Q) + Q M (sum of
    h_i / 2 over those axes), and s has M zeros per zero of s'.  An empty
    heap (h_i = 0) adds only p once; a formula that reads no heap has every
    axis of length 1, one that reads every heap none.

    The prefix sums add whole slabs, one vectorised call per step along
    the axis: ``np.add.accumulate`` would instead pay a fixed cost per
    line, and most lines of a many-heap box are short."""
    n, shape = p.ndim, p.shape
    rule_iii = int(not p.flat[0])
    if not n:  # the terminal alone
        return 0, 0, rule_iii
    flat = [dim - 1 for dim, length in zip(box_shape, shape) if length == 1]  # h_i along p's length-1 axes
    many = math.prod(h + 1 for h in flat)  # an int, exact at any box size
    count_type = np.min_scalar_type(sum(shape))  # s'[v] <= sum(v) + n on p
    p01 = p.view(np.uint8)
    s = np.multiply(p01, len(flat), dtype=count_type)
    part = np.empty_like(s)
    for axis, dim in enumerate(shape):
        if dim == 1:
            continue
        part[...] = p01
        steps = part.reshape(-1, dim, math.prod(shape[axis + 1 :])).swapaxes(0, 1)
        for below, slab in zip(steps, steps[1:]):
            slab += below
        s += part
    rule_ii = many * (s.size - int(np.count_nonzero(s))) - rule_iii
    q = int(np.count_nonzero(p))
    s *= p01
    rule_i = many * (int(s.sum()) - n * q) + q * sum(many * h // 2 for h in flat)
    return rule_i, rule_ii, rule_iii
