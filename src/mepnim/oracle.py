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
    all N is P.  States are taken in groups by their total object count,
    from 0 upward; every move decreases the total, so each child is
    labeled before its parents.

    The first call labels the graph and keeps the mask on it, so later
    calls on the same graph return that same array.
    """
    mask = getattr(graph, "_p_mask", None)
    if mask is not None:
        return mask
    mask = _box_walk(graph) if graph.mode is StateSpaceMode.TUPLE else _edge_walk(graph)
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


def _box_walk(graph: GameGraph) -> np.ndarray:
    """The level walk over a tuple graph's box codes (node ids), no edges.

    Per heap i, ``below[i, v]`` says whether some state v - t e_i (t >= 1)
    is P: it is ``below[i, v - e_i] or P(v - e_i)``, read one level down,
    and v is P exactly when no heap has it set.  The state v - e_i has box
    code ``v - box_strides[i]``; where heap i of v is 0 that code belongs
    to another state, so the read goes to a sentinel slot that stays
    False."""
    shape, size, n = graph.box_shape, graph.num_nodes, graph.n_heaps
    narrow = np.int32 if n * (size + 1) < 2**31 else np.int64  # holds every index into below
    stride = np.array(graph.box_strides, dtype=narrow).reshape(n, 1)
    period = stride * np.array(shape, dtype=narrow).reshape(n, 1)  # heap i is 0 iff code % period < stride
    level_type = np.min_scalar_type(sum(graph.root))
    level = np.zeros(shape, dtype=level_type)  # total object count by box code
    for i, dim in enumerate(shape):
        level += np.arange(dim, dtype=level_type).reshape((dim,) + (1,) * (n - 1 - i))
    level = level.ravel()
    by_level = np.argsort(level, kind="stable").astype(narrow)
    ends = np.cumsum(np.bincount(level)).tolist()
    del level
    # row i of below starts at i * (size + 1); the last slot of p and of
    # each row is the sentinel
    below = np.zeros(n * (size + 1), dtype=bool)
    row = (np.arange(n, dtype=narrow) * (size + 1)).reshape(n, 1)
    p = np.zeros(size + 1, dtype=bool)
    p[0] = True  # level 0 is the terminal, box code 0
    for lo, hi in zip(ends, ends[1:]):
        codes = by_level[lo:hi]
        lower = codes - stride
        lower[codes % period < stride] = size
        seen = below[lower + row]
        seen |= p[lower]
        below[codes + row] = seen
        p[codes] = ~seen.any(axis=0)
    return p[:size]


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
    if on_box:
        # the box's flat indices are the box codes; only the disagreeing
        # states' heaps are read, off their codes
        wrong = graph.heap_rows(np.flatnonzero(p != retrograde_p_mask(graph).reshape(graph.box_shape)))
    else:
        wrong = graph.heap_matrix[p != retrograde_p_mask(graph)]
    return VerifyResult(agrees=not len(wrong), disagreements=tuple(map(tuple, wrong.tolist())))
