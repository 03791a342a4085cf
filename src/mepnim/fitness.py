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

from .expr import Chromosome, EvalError, evaluate_many
from .game import GameGraph

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
        values = evaluate_many(chrom, graph.heap_matrix, graph.n_heaps)
    except EvalError:
        return INVALID, None

    p = values == 0
    p_dst = p[graph.edge_dst]
    rule_i = int(np.count_nonzero(p[graph.edge_src] & p_dst))

    has_p_child = np.zeros(graph.num_nodes, dtype=bool)
    has_p_child[graph.edge_src[p_dst]] = True
    rule_ii = int(np.count_nonzero(~p & ~graph.terminal_mask & ~has_p_child))
    rule_iii = int(np.count_nonzero(~p & graph.terminal_mask))

    breakdown = FitnessBreakdown(rule_i, rule_ii, rule_iii)
    return breakdown.total, breakdown
