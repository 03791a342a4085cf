"""Ground-truth P/N labeling, independent of any evolved formula.

Two routes: retrograde analysis (backward induction over the game graph,
anchored at the terminal P-position) and the closed-form xor-sum rule.
They must agree on every Nim graph; the brute-force route is what evolved
formulas are verified against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import xor

import numpy as np

# `evaluate` is no longer called here, but perfbench/tracer.py wraps
# `oracle.evaluate` by name, so the name stays importable from this module.
from .expr import Chromosome, EvalError, evaluate, evaluate_broadcast, evaluate_many
from .fitness import Label
from .game import GameGraph, GameState, StateSpaceMode

#: Tuple graphs of this many states or more are verified on the box.  There
#: each full-size int64 temporary of `evaluate_many` reaches glibc's 128 KiB
#: mmap threshold and may pay fresh page faults, and `evaluate_broadcast`
#: makes fewer; below it `evaluate_many` over the heap matrix is faster.
BOX_VERIFY_STATES = 2**14


def retrograde_p_mask(graph: GameGraph) -> np.ndarray:
    """Read-only boolean P-mask over node ids by backward induction: the
    terminal is P, a node with a P child is N, a node whose children are
    all N is P.  A multiset graph's states go in groups by their total
    object count, from 0 upward, and a tuple graph's box by whole lines
    (`_line_walk`); either way each child is labeled before its parents.

    The first call labels the graph and keeps the mask on it, so later
    calls on the same graph return that same array.
    """
    mask = getattr(graph, "_p_mask", None)
    if mask is not None:
        return mask
    mask = _line_walk(graph) if graph.mode is StateSpaceMode.TUPLE else _edge_walk(graph)
    mask.flags.writeable = False
    graph._p_mask = mask
    return mask


def _edge_walk(graph: GameGraph) -> np.ndarray:
    """The level walk over a multiset graph's edges.  A node is P exactly
    when it has no P child, so only `has_p_child` is kept.  Node u's edges
    are the ids first[u]:first[u + 1]; each level's edge ids and their
    sources are built from those ranges when it comes up, and no temporary
    outgrows one level."""
    levels = graph.heap_matrix.sum(axis=1)
    # the narrowest unsigned type lets the stable argsort run as a radix sort
    levels = levels.astype(np.min_scalar_type(levels.max()))
    by_level = np.argsort(levels, kind="stable")
    first = graph.edge_offsets
    count = np.diff(first)[by_level]
    ends = np.cumsum(count)  # edge positions in level order
    shift = first[by_level] - ends + count  # a node's edge ids minus their positions
    has_p_child = np.zeros(graph.num_nodes, dtype=bool)
    lo = lo_edge = 0
    for hi in np.cumsum(np.bincount(levels)).tolist():
        hi_edge = int(ends[hi - 1])  # level 0 holds the terminal, so hi > 0
        edges = np.arange(lo_edge, hi_edge) + np.repeat(shift[lo:hi], count[lo:hi])
        sources = np.repeat(by_level[lo:hi], count[lo:hi])
        has_p_child[sources[~has_p_child[graph.edge_dst[edges]]]] = True
        lo, lo_edge = hi, hi_edge
    return ~has_p_child


def _line_walk(graph: GameGraph) -> np.ndarray:
    """The walk over a tuple graph's box by whole lines, no edges.  A line
    holds the states that differ only in heap a, the longest (the first on
    ties).  At most one of them is P, as each later one moves to it: the
    first position that no P state on a lower line along another heap j
    holds (Grundy's mex).  ``below[j, l]`` flags the P positions of the
    lines l - t e_j (t >= 1): those of l - e_j and its own, one wave down,
    as lines go in waves by the sum of their other heaps.  Where heap j of
    l is 0 the read goes to a sentinel line that stays clear, and a line
    with no P state flags the sentinel column ``length``."""
    shape = graph.box_shape
    if not shape:
        return np.ones(1, dtype=bool)  # the empty state alone
    a = shape.index(max(shape))
    length, rest = shape[a], shape[:a] + shape[a + 1 :]
    lines, m = graph.num_nodes // length, len(rest)
    coords = np.indices(rest, dtype=np.min_scalar_type(max(shape))).reshape(m, lines)
    level = coords.sum(axis=0, dtype=np.intp)
    by_level = np.argsort(level, kind="stable")
    ends = np.cumsum(np.bincount(level)).tolist()
    coords = coords[:, by_level]
    strides = np.array([math.prod(rest[j + 1 :]) for j in range(m)], dtype=np.intp).reshape(m, 1)
    below = np.zeros((m, lines + 1, length + 1), dtype=bool)
    p = np.full(lines + 1, length)  # each line's P position
    heap = np.arange(m).reshape(m, 1)
    for lo, hi in zip([0, *ends], ends):
        ids = by_level[lo:hi]
        low = np.where(coords[:, lo:hi] > 0, ids - strides, lines)  # l - e_j, or the sentinel
        rows = below[heap, low]
        rows[heap, np.arange(hi - lo), p[low]] = True
        below[heap, ids] = rows
        seen = rows.any(axis=0)
        seen[:, length] = False
        p[ids] = seen.argmin(axis=1)
    mask = np.arange(length) == p[:lines].reshape(lines, 1)
    return np.moveaxis(mask.reshape(*rest, length), -1, a).reshape(-1)


def retrograde_labels(graph: GameGraph) -> dict[GameState, Label]:
    """The `retrograde_p_mask` labeling as a state -> Label table, in node order."""
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

    Reports all disagreeing states in node order, by state code (see
    `GameGraph`), not just the first; a formula that raises EvalError
    anywhere comes back as invalid with no agreement.
    """
    on_box = graph.mode is StateSpaceMode.TUPLE and graph.num_nodes >= BOX_VERIFY_STATES
    try:
        if on_box:
            p = evaluate_broadcast(chrom, graph.box_axes) == 0
        else:
            p = evaluate_many(chrom, graph.heap_matrix, graph.n_heaps) == 0
    except EvalError:
        return VerifyResult(agrees=False, disagreements=(), invalid=True)
    # the box's flat indices are its codes, so both shapes flatten to node ids
    wrong = p != retrograde_p_mask(graph).reshape(graph.box_shape if on_box else -1)
    if not wrong.any():
        return VerifyResult(agrees=True, disagreements=())
    return VerifyResult(agrees=False, disagreements=tuple(map(tuple, graph.heap_rows(np.flatnonzero(wrong)).tolist())))
