"""Ground-truth P/N labeling, independent of any evolved formula.

Two routes: retrograde analysis (backward induction over the game graph,
anchored at the terminal P-position) and the closed-form xor-sum rule.
They must agree on every Nim graph; the brute-force route is what evolved
formulas are verified against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import xor

import numpy as np

# `evaluate` is no longer called here, but perfbench/tracer.py wraps
# `oracle.evaluate` by name, so the name stays importable from this module.
from .expr import Chromosome, EvalError, evaluate, evaluate_many
from .fitness import Label
from .game import GameGraph, GameState


def retrograde_p_mask(graph: GameGraph) -> np.ndarray:
    """Boolean P-mask over node ids by backward induction: the terminal is
    P, a node with a P child is N, a node whose children are all N is P.

    A node is P exactly when it has no P child, so only `has_p_child` is
    kept.  Edges are taken in groups by their source's total object count,
    from 0 upward; every edge decreases the total, so each child's entry is
    final before a parent reads it.
    """
    levels = graph.heap_matrix.sum(axis=1)
    # the narrowest unsigned type lets the stable argsort run as a radix sort
    edge_levels = levels.astype(np.min_scalar_type(levels.max()))[graph.edge_src]
    by_level = np.argsort(edge_levels, kind="stable")
    has_p_child = np.zeros(graph.num_nodes, dtype=bool)
    for edges in np.split(by_level, np.cumsum(np.bincount(edge_levels))[:-1]):
        has_p_child[graph.edge_src[edges[~has_p_child[graph.edge_dst[edges]]]]] = True
    return ~has_p_child


def retrograde_labels(graph: GameGraph) -> dict[GameState, Label]:
    """The `retrograde_p_mask` labeling as a state -> Label table."""
    return {
        state: Label.P if is_p else Label.N
        for state, is_p in zip(graph.nodes, retrograde_p_mask(graph).tolist())
    }


def bouton_label(state: GameState) -> Label:
    """P exactly when the xor of all heap sizes is zero."""
    return Label.P if reduce(xor, state, 0) == 0 else Label.N


@dataclass(frozen=True)
class VerifyResult:
    agrees: bool
    disagreements: tuple[GameState, ...]
    invalid: bool = False

    def __bool__(self) -> bool:
        return self.agrees


def verify_formula(chrom: Chromosome, graph: GameGraph) -> VerifyResult:
    """Compare the formula's labeling with retrograde analysis on every node.

    Reports all disagreeing states in node order, not just the first; a
    formula that raises EvalError anywhere comes back as invalid with no
    agreement.
    """
    try:
        p = evaluate_many(chrom, graph.heap_matrix, graph.n_heaps) == 0
    except EvalError:
        return VerifyResult(agrees=False, disagreements=(), invalid=True)
    wrong = np.flatnonzero(p != retrograde_p_mask(graph)).tolist()
    return VerifyResult(agrees=not wrong, disagreements=tuple(graph.nodes[i] for i in wrong))
