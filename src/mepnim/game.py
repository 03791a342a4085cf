"""Nim states, legal-move generation, and the reachable-state graph.

States are tuples of non-negative heap sizes.  Two state spaces are
supported: ``MULTISET`` treats permutations of the same heap sizes as one
state (stored sorted non-increasing), ``TUPLE`` keeps heap order positional.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

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
    ``heap_matrix`` (int64) is node k, and ``nodes[k]`` is that row as a
    state.  Moves always strictly decrease the total object count.

    In both modes that order has a closed rule, which `build_graph`
    computes without a search.  In tuple mode a state's breadth-first level
    is the number of heaps that differ from the root, and within a level
    states come in lexicographic order of their per-heap scores,
    ``root[i] - state[i]`` for a heap that differs and +infinity for one
    that does not.  In multiset mode a state's level is the number of heaps
    minus the size of its multiset intersection with the root, and within
    level L + 1 states come in order of the smallest rank among their
    parents at level L, ties going to the lexicographically larger state.

    A tuple graph is only its box, with no edges: ``edge_offsets`` and
    ``edge_dst`` are None.  Its states are the whole box of shape
    ``box_shape`` (h + 1 per heap); a state's box code is its mixed-radix
    index, the sum of ``state[i] * box_strides[i]`` (last heap fastest),
    and ``box_id`` maps each box code to its node id.  ``box_axes[i]`` is
    ``np.arange(h_i + 1)`` shaped to axis i of the box, so the axes
    broadcast together to every state's heaps in box order.  The children
    of a state are the states ``t * box_strides[i]`` codes below it, so
    fitness and labeling work on the box.  A multiset graph has None for
    the four box attributes and keeps its edges: node u's children are
    ``edge_dst[edge_offsets[u]:edge_offsets[u + 1]]``, in `children`
    order.  ``nodes`` is built on first access.

    In both modes the terminal, the empty state, is the last node, and
    multiset fitness relies on it.  It is on the last level in both modes.
    Within that level it has the lexicographically largest tuple scores,
    and in multiset mode `tests/test_game.py` checks it for every root of
    up to six heaps of up to 6.

    The constructor keeps the arrays it is given, without copying: an int64
    ``(states, heaps)`` heap matrix and int64 edge arrays.  It marks them
    read-only, as it does every array it builds, so a view handed out
    of the graph (such as a heap column that `evaluate_many` returns)
    cannot change it, and `oracle.retrograde_p_mask` can keep its labeling
    on the graph.
    """

    def __init__(self, root: GameState, mode: StateSpaceMode, heap_matrix: np.ndarray, edge_offsets: np.ndarray | None = None, edge_dst: np.ndarray | None = None, box_id: np.ndarray | None = None):
        self.root = root
        self.mode = mode
        self.n_heaps = len(root)
        self.heap_matrix = _read_only(heap_matrix)
        self.box_shape = self.box_strides = self.box_id = self.box_axes = None
        self.edge_offsets = self.edge_dst = None
        if mode is StateSpaceMode.TUPLE:
            self.box_shape = tuple(h + 1 for h in root)
            self.box_strides = tuple(math.prod(self.box_shape[i + 1 :]) for i in range(self.n_heaps))
            self.box_id = _read_only(box_id)
            self.box_axes = tuple(map(_read_only, np.ix_(*(np.arange(dim, dtype=np.int64) for dim in self.box_shape))))
        else:
            self.edge_offsets = _read_only(edge_offsets)
            self.edge_dst = _read_only(edge_dst)

    @cached_property
    def nodes(self) -> tuple[GameState, ...]:
        # zipping the columns makes the row tuples without a list per row,
        # which would fragment the small-object heap; no heaps means no columns
        if not self.n_heaps:
            return ((),) * len(self.heap_matrix)
        return tuple(zip(*self.heap_matrix.T.tolist()))

    @property
    def num_nodes(self) -> int:
        return len(self.heap_matrix)

    @property
    def num_edges(self) -> int:
        if self.mode is StateSpaceMode.TUPLE:
            # heap i holds each value v <= h_i in prod(h + 1) / (h_i + 1)
            # states, so the box has prod(h + 1) * h_i / 2 moves on heap i
            return len(self.heap_matrix) * sum(self.root) // 2
        return len(self.edge_dst)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def build_graph(root, mode: StateSpaceMode) -> GameGraph:
    """Every state reachable from the canonicalized root, in the
    breadth-first order `GameGraph` describes, computed with numpy and no
    search: by sorting the box in tuple mode, and by ranking each level
    from the ranks of the level before in multiset mode, where the edges
    are built too."""
    start = canonicalize(root, mode)
    if mode is StateSpaceMode.TUPLE:
        return _tuple_graph(start)
    return _multiset_graph(start)


def _tuple_graph(start: GameState) -> GameGraph:
    """The box prod(h + 1) of tuple states in breadth-first order, with no
    search and no edges: the heap matrix and the node id of each box code
    (a state's mixed-radix index, last heap fastest)."""
    n = len(start)
    dims = tuple(h + 1 for h in start)
    size = math.prod(dims)
    unchanged = max(start, default=0) + 1  # above every root[i] - state[i]
    # wide enough for `unchanged` too: np.where keeps the arrays' type and
    # would wrap it (a largest heap of 255 in uint8 would score 0)
    value_type = np.min_scalar_type(unchanged)
    box = np.indices(dims, dtype=value_type).reshape(n, size)  # box[i, code]: heap i of that state
    root = np.array(start, dtype=value_type).reshape(n, 1)
    differs = box != root
    scores = np.where(differs, root - box, value_type.type(unchanged))
    # lexsort's last key is the primary one: level, then heap 0, 1, ...
    order = np.lexsort((*scores[::-1], differs.sum(axis=0)))  # node id -> box code
    del differs, scores
    heap_matrix = box.T[order].astype(np.int64)
    del box
    narrow = np.int32 if size < 2**31 else np.int64
    box_id = np.empty(size, dtype=narrow)  # box code -> node id
    box_id[order] = np.arange(size, dtype=narrow)
    return GameGraph(start, StateSpaceMode.TUPLE, heap_matrix, box_id=box_id)


def _multiset_graph(start: GameState) -> GameGraph:
    """The non-increasing states bounded by the sorted root, in breadth-first
    order, with no search.

    A state's code is its lexicographic rank, the sum over columns t of
    ``offset[t][state[t]]``: the number of valid states that agree with it
    before column t and hold less in column t.  A state's edges come from
    lowering one of its distinct positive heaps, smallest heap first and
    the remainder descending, which is `children` order; one row sort puts
    each child back in canonical order.  Level by level, each new state is
    ranked by the smallest rank among its parents on the level before, then
    by code descending; the edges then follow their sources' new order."""
    k = len(start)
    value_type = np.min_scalar_type(max(start, default=0))
    # offset[t][v] = sum of ways[u] for u < v, where ways[u] counts the
    # valid tails from column t on that hold u in column t
    offset = [None] * k
    ways, below = np.ones(1, dtype=np.int64), 0
    for t in reversed(range(k)):
        ways = np.cumsum(ways)[np.minimum(np.arange(start[t] + 1), below)]
        offset[t], below = np.cumsum(ways) - ways, start[t]
    size = int(ways.sum())

    # the valid prefixes of each length in lexicographic order, each with
    # the index of its prefix one shorter; the full ones are the states, in
    # code order
    values, prefix = [np.arange(start[0] + 1)] if k else [], []
    for bound in start[1:]:
        counts = np.minimum(values[-1], bound) + 1
        ends = np.cumsum(counts)
        prefix.append(np.repeat(np.arange(len(counts)), counts))
        values.append(np.arange(ends[-1]) - np.repeat(ends - counts, counts))
    ascending = np.empty((size, k), dtype=value_type)  # each state's heaps smallest first
    index = np.arange(size)
    for t in reversed(range(k)):
        ascending[:, k - 1 - t] = values[t][index]
        if t:
            index = prefix[t - 1][index]
    del values, prefix, index

    # one edge group per (state, first column of a positive value), ascending
    first = np.ones(ascending.shape, dtype=bool)
    first[:, 1:] = ascending[:, 1:] != ascending[:, :-1]
    group_size = np.where(first, ascending, 0).ravel()
    del first
    n_edges = int(group_size.sum(dtype=np.int64))
    # every code is below the node count, at most one more than the edge
    # count, so the per-edge temporaries fit the type of the latter
    narrow = np.int32 if n_edges < 2**31 else np.int64
    group_size = group_size.astype(narrow)
    out_degree = group_size.reshape(size, k).sum(axis=1, dtype=narrow)
    rows = np.repeat(ascending, out_degree, axis=0)
    column = np.repeat(np.tile(np.arange(k, dtype=np.min_scalar_type(k)), size), group_size)
    remainder = np.repeat(np.cumsum(group_size, dtype=narrow), group_size)  # remainders descend to 0
    del group_size
    remainder -= np.arange(1, n_edges + 1, dtype=narrow)
    rows[np.arange(n_edges, dtype=narrow), column] = remainder
    del column, remainder
    rows.sort(axis=1)
    child = np.zeros(n_edges, dtype=narrow)
    for t in range(k):
        child += offset[t].astype(narrow)[rows[:, k - 1 - t]]
    del rows

    states = ascending[:, ::-1]
    # a state's level is k minus its multiset intersection with the root
    level = np.full(size, k, dtype=np.min_scalar_type(k + 1))
    for h, m in Counter(start).items():
        level -= np.minimum(np.count_nonzero(states == h, axis=1), m).astype(level.dtype)
    source = np.repeat(np.arange(size, dtype=narrow), out_degree)
    forward = level[child] > np.repeat(level, out_degree)  # to the next level
    parent, child_forward = source[forward], child[forward]
    del source, forward
    parent_level = level[parent]
    rank = np.empty(size, dtype=np.int64)  # code -> node id
    rank[-1] = 0  # the root is the largest state
    best = np.full(size, size, dtype=np.int64)  # smallest rank among the parents
    order = [np.array([size - 1])]  # node id -> code, level by level
    ranked = 1
    for lv in range(k):
        edges = parent_level == lv
        np.minimum.at(best, child_forward[edges], rank[parent[edges]])
        codes = np.flatnonzero(level == lv + 1)[::-1]
        codes = codes[np.argsort(best[codes], kind="stable")]
        rank[codes] = np.arange(ranked, ranked + len(codes))
        ranked += len(codes)
        order.append(codes)
    del parent, child_forward, parent_level, best, level
    order = np.concatenate(order)

    heap_matrix = states[order].astype(np.int64)
    del states, ascending
    first_edge = np.cumsum(out_degree, dtype=narrow) - out_degree
    out_degree = out_degree[order]
    edge_offsets = np.concatenate(([0], np.cumsum(out_degree, dtype=np.int64)))
    moved = (first_edge[order] - edge_offsets[:-1]).astype(narrow)
    del first_edge
    position = np.arange(n_edges, dtype=narrow)
    position += np.repeat(moved, out_degree)
    del moved
    edge_dst = rank[child[position]]
    del child, position
    return GameGraph(start, StateSpaceMode.MULTISET, heap_matrix, edge_offsets, edge_dst)
