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


#: Largest edge-id buffer, in bytes, for which `retrograde_p_mask` sorts all
#: the edges by level at once.  Below glibc's default mmap threshold
#: (128 KiB) such buffers are recycled from the heap; a larger one may be
#: mapped and paged in afresh on every call (two 4.6 MB buffers, about 40%
#: of the labeling time, at 32,768 states), so larger graphs take one
#: level's edges at a time instead.
SORT_ALL_BYTES = 128 * 1024


def retrograde_p_mask(graph: GameGraph) -> np.ndarray:
    """Boolean P-mask over node ids by backward induction: the terminal is
    P, a node with a P child is N, a node whose children are all N is P.

    A node is P exactly when it has no P child, so only `has_p_child` is
    kept.  Edges are taken in groups by their source's total object count,
    from 0 upward; every edge decreases the total, so each child's entry is
    final before a parent reads it.
    """
    levels = graph.heap_matrix.sum(axis=1)
    # the narrowest unsigned type lets the stable argsorts run as radix sorts
    levels = levels.astype(np.min_scalar_type(levels.max()))
    has_p_child = np.zeros(graph.num_nodes, dtype=bool)
    for edges in _edges_by_level(graph, levels):
        has_p_child[graph.edge_src[edges[~has_p_child[graph.edge_dst[edges]]]]] = True
    return ~has_p_child


def _edges_by_level(graph: GameGraph, levels: np.ndarray):
    """Edge ids grouped by their source's level, one array per level from 0
    up, each in edge order."""
    if graph.num_edges * np.dtype(np.intp).itemsize <= SORT_ALL_BYTES:
        edge_levels = levels[graph.edge_src]
        by_level = np.argsort(edge_levels, kind="stable")
        lo = 0
        for hi in np.cumsum(np.bincount(edge_levels)).tolist():
            yield by_level[lo:hi]
            lo = hi
        return
    # Edges are grouped by source in node order, so node u's edges are the
    # ids first[u]:first[u + 1]; each level's ids are built from those
    # ranges when it comes up, and no temporary outgrows one level.
    by_level = np.argsort(levels, kind="stable")
    first = np.searchsorted(graph.edge_src, np.arange(graph.num_nodes + 1))
    count = np.diff(first)[by_level]
    ends = np.cumsum(count)  # edge positions in level order
    shift = first[by_level] - ends + count  # a node's edge ids minus their positions
    lo = lo_edge = 0
    for hi in np.cumsum(np.bincount(levels)).tolist():
        hi_edge = int(ends[hi - 1])  # level 0 holds the terminal, so hi > 0
        yield np.arange(lo_edge, hi_edge) + np.repeat(shift[lo:hi], count[lo:hi])
        lo, lo_edge = hi, hi_edge


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
