"""Nim states, legal-move generation, and the reachable-state graph.

States are tuples of non-negative heap sizes.  Two state spaces are
supported: ``MULTISET`` treats permutations of the same heap sizes as one
state (stored sorted non-increasing), ``TUPLE`` keeps heap order positional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

GameState = tuple[int, ...]


class StateSpaceMode(Enum):
    MULTISET = "multiset"
    TUPLE = "tuple"


def canonicalize(heaps, mode: StateSpaceMode) -> GameState:
    """Canonical form of a raw heap list: sorted non-increasing in multiset
    mode, unchanged in tuple mode."""
    state = tuple(int(h) for h in heaps)
    if any(h < 0 for h in state):
        raise ValueError("heap sizes must be non-negative")
    if mode is StateSpaceMode.MULTISET:
        return tuple(sorted(state, reverse=True))
    return state


def is_terminal(state: GameState) -> bool:
    return not any(state)


def children(state: GameState, mode: StateSpaceMode) -> list[GameState]:
    """Unique successor states of a canonical state, in deterministic order:
    tuple mode by (heap index, objects removed), multiset mode sorted
    lexicographically descending.  Empty for the terminal state."""
    if mode is StateSpaceMode.TUPLE:
        out = []
        for i, c in enumerate(state):
            if c:
                pre, post = state[:i], state[i + 1 :]
                for rem in range(c - 1, -1, -1):
                    out.append(pre + (rem,) + post)
        return out
    unique = set()
    for i, c in enumerate(state):
        if c and c not in state[:i]:  # equal heaps give equal children
            rest = state[:i] + state[i + 1 :]
            unique.update(tuple(sorted(rest + (rem,), reverse=True)) for rem in range(c))
    return sorted(unique, reverse=True)


@dataclass(frozen=True)
class Move:
    """A legal move: remove ``take`` objects from 1-based heap ``heap``,
    reaching the canonical state ``child``."""

    heap: int
    take: int
    child: GameState


def heap_take(state: GameState, child, mode: StateSpaceMode) -> tuple[int, int]:
    """The first (heap, take) pair, in (heap, take) order, that moves from
    `state` to `child`: in tuple mode the one heap that differs, in
    multiset mode the first heap holding the size that shrank, which is the
    size at the first position where the two sorted tuples differ.  Raises
    ValueError when no single move reaches `child`."""
    k = next((i for i, (a, b) in enumerate(zip(state, child)) if a != b), None)
    if k is not None:
        if mode is StateSpaceMode.MULTISET:
            k = state.index(state[k])
        take = sum(state) - sum(child)
        if 1 <= take <= state[k] and canonicalize(state[:k] + (state[k] - take,) + state[k + 1 :], mode) == child:
            return k + 1, take
    raise ValueError(f"{child} is not one move from {state}")


def moves(state: GameState, mode: StateSpaceMode) -> tuple[Move, ...]:
    """Legal moves with their resulting states, one per child of `children`
    and in its order, each with its `heap_take` pair."""
    return tuple(Move(*heap_take(state, child, mode), child) for child in children(state, mode))


def state_count(root, mode: StateSpaceMode) -> int:
    """Number of states reachable from the root, from a closed form, without
    building anything.  Tuple mode: the box of all states componentwise <=
    the root, prod(h + 1).  Multiset mode: the non-increasing sequences
    bounded componentwise by the sorted root.  With the root sorted
    ascending as a_1..a_k, that count is the determinant of the
    upper-Hessenberg matrix [C(a_i + 1, j - i + 1)] (its subdiagonal is all
    1s), expanded without division: D_0 = 1, D_m = sum over r = 1..m of
    (-1)^(m - r) * C(a_r + 1, m - r + 1) * D_(r - 1), and the count is D_k.
    Walking r down from m, the binomials stay 0 from the first 0 on, so the
    cost is at most k * min(k, max(a) + 2) binomials, however large the
    heaps."""
    start = canonicalize(root, mode)
    if mode is StateSpaceMode.TUPLE:
        return math.prod(h + 1 for h in start)
    a = start[::-1]
    d = [1]
    for m in range(1, len(a) + 1):
        total, sign = 0, 1
        for r in range(m, 0, -1):
            c = math.comb(a[r - 1] + 1, m - r + 1)
            if not c:
                break
            total += sign * c * d[r - 1]
            sign = -sign
        d.append(total)
    return d[-1]


class GameGraph:
    """Deduplicated DAG of every state reachable from a root.

    Built once by `build_graph`, then immutable; safe to share across
    threads.  Nodes are listed in breadth-first discovery order from the
    root and are referred to by their index in that order; row k of
    ``heap_matrix`` (int64) is node k.  Edge k leads from node
    ``edge_src[k]`` to node ``edge_dst[k]``, grouped by source in node order
    and, per source, in `children` order.  Edges always strictly decrease
    the total object count.

    In tuple mode that order has a closed form, which `build_graph` computes
    without a search: a state's breadth-first level is the number of heaps
    that differ from the root, and within a level states come in
    lexicographic order of their per-heap scores, ``root[i] - state[i]`` for
    a heap that differs and +infinity for one that does not.

    The constructor keeps the arrays it is given, without copying: an int64
    ``(states, heaps)`` heap matrix and int64 edge arrays.
    """

    def __init__(self, root: GameState, mode: StateSpaceMode, heap_matrix: np.ndarray, edge_src: np.ndarray, edge_dst: np.ndarray):
        self.root = root
        self.mode = mode
        self.n_heaps = len(root)
        self.heap_matrix = heap_matrix
        # zipping the columns makes the row tuples without a list per row,
        # which would fragment the small-object heap; no heaps means no columns
        self.nodes: tuple[GameState, ...] = (
            tuple(zip(*heap_matrix.T.tolist())) if self.n_heaps else ((),) * len(heap_matrix)
        )
        self.edge_src = edge_src
        self.edge_dst = edge_dst
        self.terminal_mask = ~heap_matrix.any(axis=1)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edge_src)


def build_graph(root, mode: StateSpaceMode) -> GameGraph:
    """Every state reachable from the canonicalized root, with its edges, in
    the order `GameGraph` describes: from numpy index arithmetic in tuple
    mode, by a breadth-first closure of `children` in multiset mode."""
    start = canonicalize(root, mode)
    if mode is StateSpaceMode.TUPLE:
        return _tuple_graph(start)
    return _multiset_graph(start)


def _tuple_graph(start: GameState) -> GameGraph:
    """The box prod(h + 1) of tuple states in breadth-first order, with no
    search.  A state's box code is its mixed-radix index (last heap
    fastest); its edges go heap ascending, then take ascending, which is
    `children` order, and the child of taking t from heap i has code
    ``code - t * stride[i]``."""
    n = len(start)
    dims = tuple(h + 1 for h in start)
    size = math.prod(dims)
    box = np.indices(dims, dtype=np.int64).reshape(n, size)  # box[i, code]: heap i of that state
    root = np.array(start, dtype=np.int64).reshape(n, 1)
    differs = box != root
    unchanged = max(start, default=0) + 1  # above every root[i] - state[i]
    scores = np.where(differs, root - box, unchanged).astype(np.min_scalar_type(unchanged))
    # lexsort's last key is the primary one: level, then heap 0, 1, ...
    order = np.lexsort((*scores[::-1], differs.sum(axis=0)))  # node id -> box code
    del differs, scores
    heap_matrix = np.ascontiguousarray(box.T[order])
    del box
    id_of = np.empty(size, dtype=np.int64)  # box code -> node id
    id_of[order] = np.arange(size)

    counts = heap_matrix.ravel()  # per (node, heap): its edges on that heap
    out_degree = heap_matrix.sum(axis=1)
    edge_src = np.repeat(np.arange(size), out_degree)
    # every box code is below the node count, at most one more than the
    # edge count, so the per-edge temporaries fit the type of the latter
    narrow = np.int32 if len(edge_src) < 2**31 else np.int64
    take = np.arange(1, len(edge_src) + 1, dtype=narrow)
    take -= np.repeat((np.cumsum(counts) - counts).astype(narrow), counts)  # 1..count per (node, heap)
    strides = np.array([math.prod(dims[i + 1 :]) for i in range(n)], dtype=narrow)
    take *= np.repeat(np.tile(strides, size), counts)
    code = np.repeat(order.astype(narrow), out_degree)
    del order
    code -= take
    del take
    edge_dst = id_of[code]
    del code, id_of
    return GameGraph(start, StateSpaceMode.TUPLE, heap_matrix, edge_src, edge_dst)


def _multiset_graph(start: GameState) -> GameGraph:
    """Breadth-first closure of `children`, with states merged by canonical
    identity."""
    mode = StateSpaceMode.MULTISET
    nodes: list[GameState] = [start]
    index: dict[GameState, int] = {start: 0}
    edge_src: list[int] = []
    edge_dst: list[int] = []

    cursor = 0
    while cursor < len(nodes):
        for child in children(nodes[cursor], mode):
            j = index.get(child)
            if j is None:
                j = len(nodes)
                index[child] = j
                nodes.append(child)
            edge_src.append(cursor)
            edge_dst.append(j)
        cursor += 1
    heap_matrix = np.array(nodes, dtype=np.int64).reshape(len(nodes), len(start))
    return GameGraph(start, mode, heap_matrix, np.array(edge_src, dtype=np.int64), np.array(edge_dst, dtype=np.int64))
