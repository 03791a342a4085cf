"""Nim states, legal-move generation, and the reachable-state graph.

States are tuples of non-negative heap sizes.  Two state spaces are
supported: ``MULTISET`` treats permutations of the same heap sizes as one
state (stored sorted non-increasing), ``TUPLE`` keeps heap order positional.
"""

from __future__ import annotations

import math
import operator
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


def state_text(state: GameState) -> str:
    """The state as its messages and listings show it: "(4, 1, 3)", and
    "(7)" for one heap."""
    return f"({', '.join(map(str, state))})"


def is_terminal(state: GameState) -> bool:
    return not any(state)


def children(state: GameState, mode: StateSpaceMode) -> list[GameState]:
    """Unique successor states of a canonical state, in deterministic order:
    tuple mode by (heap index, objects removed), multiset mode sorted
    lexicographically descending.  Empty for the terminal state."""
    return [child for _, _, child in _moves(state, mode)]


def _moves(state: GameState, mode: StateSpaceMode):
    """Iterate the moves of `children`, one ``(heap, take, child)`` at a
    time, with the 1-based heap and the objects taken.

    In multiset mode a child lowers one distinct positive size v, at its
    last position j, to a remainder r < v, and its heap is the first one
    holding v.  The child agrees with the state before j and holds less at
    j, so children of a smaller v (a later j) are lexicographically
    larger, and two sizes never give the same child.  So the sizes are
    walked from the smallest, each with its remainders descending; r goes
    into the tail after j at an index that only moves right as r falls,
    and no set or sort is needed."""
    if mode is StateSpaceMode.TUPLE:
        for i, c in enumerate(state):
            if c:
                pre, post = state[:i], state[i + 1 :]
                for rem in range(c - 1, -1, -1):
                    yield i + 1, c - rem, pre + (rem,) + post
        return
    j = len(state) - 1
    while j >= 0 and not state[j]:
        j -= 1
    while j >= 0:
        v, head, tail = state[j], state[:j], state[j + 1 :]
        heap, p = state.index(v) + 1, 0
        for r in range(v - 1, -1, -1):
            while p < len(tail) and tail[p] > r:
                p += 1
            yield heap, v - r, head + tail[:p] + (r,) + tail[p:]
        while j >= 0 and state[j] == v:
            j -= 1


def nth_move(state: GameState, index: int, mode: StateSpaceMode) -> tuple[int, int]:
    """The ``(heap, take)`` of ``children(state, mode)[index]``, found
    without making any child.  A state has ``sum(state)`` children in
    tuple mode and ``sum(set(state))`` in multiset mode, one per remainder
    of each (distinct) positive size; an index outside them raises
    IndexError.  Tuple mode walks the heaps in order, multiset mode the
    distinct sizes smallest first, each with its takes ascending, as
    `_moves` does."""
    if index < 0:
        raise IndexError("move index out of range")
    if mode is StateSpaceMode.TUPLE:
        for i, c in enumerate(state):
            if index < c:
                return i + 1, index + 1
            index -= c
        raise IndexError("move index out of range")
    j = len(state) - 1
    while j >= 0:
        v = state[j]  # at its last position j; a size of 0 has no moves
        if index < v:
            return state.index(v) + 1, index + 1
        index -= v
        while j >= 0 and state[j] == v:
            j -= 1
    raise IndexError("move index out of range")


def apply_move(state: GameState, heap: int, take: int, mode: StateSpaceMode) -> GameState:
    """The canonical state after taking `take` objects from the 1-based
    heap `heap` of a canonical state.  Raises ValueError, with the text the
    human player is shown, for a heap outside ``1..len(state)`` or a take
    outside ``1..state[heap - 1]``."""
    if not 1 <= heap <= len(state):
        raise ValueError(f"heap must be 1..{len(state)}")
    if not 1 <= take <= state[heap - 1]:
        raise ValueError(f"can take 1..{state[heap - 1]} from heap {heap}")
    rem = state[heap - 1] - take
    if mode is StateSpaceMode.TUPLE:
        return state[: heap - 1] + (rem,) + state[heap:]
    # the heap out, and its remainder in after the sizes above it
    p = heap
    while p < len(state) and state[p] > rem:
        p += 1
    return state[: heap - 1] + state[heap:p] + (rem,) + state[p:]


@dataclass(frozen=True)
class Move:
    """A legal move: remove ``take`` objects from 1-based heap ``heap``,
    reaching the canonical state ``child``."""

    heap: int
    take: int
    child: GameState


def moves(state: GameState, mode: StateSpaceMode) -> tuple[Move, ...]:
    """Legal moves with their resulting states, one per child of `children`
    and in its order; in multiset mode a move takes from the first heap
    holding the size it lowers."""
    return tuple(Move(*move) for move in _moves(state, mode))


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


def edge_count(root, mode: StateSpaceMode) -> int:
    """Number of moves between the states reachable from the root, without
    building anything: each state has one move per remainder of each of
    its distinct positive sizes (`nth_move`'s count).  Tuple mode: heap i
    holds each value v <= h_i in prod(h + 1) / (h_i + 1) states, so the
    box has prod(h + 1) * h_i / 2 moves on heap i.  Multiset mode: the
    column DP of `_rank_offsets`.  Its cost grows with the sum of the
    heaps; the counts are int64."""
    start = canonicalize(root, mode)
    if mode is StateSpaceMode.TUPLE:
        return math.prod(h + 1 for h in start) * sum(start) // 2
    return _rank_offsets(start)[2]


class GameGraph:
    """Deduplicated DAG of every state reachable from a root.

    Built once by `build_graph`, and its states and edges never change
    after; safe to share across threads.  The graph also keeps data derived
    from them on first use: `code` keeps its per-heap terms,
    `oracle.retrograde_p_mask` keeps its labeling, and
    `fitness.graph_fitness` keeps, within a byte budget, the quotients
    of a multiset graph by the heaps that formulas read.  Filling any of
    them from several threads at once stays safe.  A node's id is its state's
    code, the state's rank among the graph's states in lexicographic
    order: the box code in tuple mode, the rank `build_graph` computes in
    multiset mode.  So node 0 is the terminal (the empty state) and node
    ``num_nodes - 1`` is the root.  Row k of ``heap_matrix`` (int64) is
    node k, and ``nodes[k]`` is that row as a state.  `code` turns a state
    into its node id in both modes, with no table of the states, and
    `heap_rows` turns node ids back into heaps.  Moves always strictly
    decrease the total object count.
    `bfs_order` gives the node ids in breadth-first discovery order from
    the root, the order the CLI prints states in.

    A tuple graph is only its box, with no edges: ``edge_offsets`` and
    ``edge_dst`` are None.  Its states are the whole box of shape
    ``box_shape`` (h + 1 per heap); a state's box code is its mixed-radix
    index, the sum of ``state[i] * box_strides[i]`` (last heap fastest).
    ``box_axes[i]`` is ``np.arange(h_i + 1)`` shaped to axis i of the box,
    so the axes broadcast together to every state's heaps in box order.
    The children of a state are the states ``t * box_strides[i]`` codes
    below it, so fitness, labeling, play against the oracle and the
    verification of a graph of at least `oracle.BOX_VERIFY_STATES` states
    work on the box.  ``heap_matrix`` is built from `np.indices` only when
    it is first read, as verifying a smaller graph does.

    A multiset graph has None for the three box attributes and keeps its
    edges: node u's children are ``edge_dst[edge_offsets[u]:edge_offsets[u
    + 1]]``, in `children` order.  ``nodes`` is built on first access in
    both modes.

    The constructor keeps the arrays it is given, without copying: an int64
    ``(states, heaps)`` heap matrix and int64 edge arrays.  It marks them
    read-only, as it does every array it builds, so a view handed out
    of the graph (such as a heap column that `evaluate_many` returns)
    cannot change it, and `oracle.retrograde_p_mask` can keep its labeling
    on the graph.
    """

    def __init__(self, root: GameState, mode: StateSpaceMode, heap_matrix: np.ndarray | None = None, edge_offsets: np.ndarray | None = None, edge_dst: np.ndarray | None = None):
        self.root = root
        self.mode = mode
        self.n_heaps = len(root)
        self.box_shape = self.box_strides = self.box_axes = None
        self.edge_offsets = self.edge_dst = None
        if mode is StateSpaceMode.TUPLE:
            self.box_shape = tuple(h + 1 for h in root)
            self.box_strides = tuple(math.prod(self.box_shape[i + 1 :]) for i in range(self.n_heaps))
            self.box_axes = tuple(map(_read_only, np.ix_(*(np.arange(dim, dtype=np.int64) for dim in self.box_shape))))
            self.num_nodes = math.prod(self.box_shape)
        else:
            self.heap_matrix = _read_only(heap_matrix)
            self.num_nodes = len(heap_matrix)
            self.edge_offsets = _read_only(edge_offsets)
            self.edge_dst = _read_only(edge_dst)

    @cached_property
    def heap_matrix(self) -> np.ndarray:
        # a tuple graph's, in box order; the constructor sets a multiset one's
        box = np.indices(self.box_shape, dtype=np.int64).reshape(self.n_heaps, self.num_nodes)
        return _read_only(box).T

    @cached_property
    def nodes(self) -> tuple[GameState, ...]:
        # zipping the columns makes the row tuples without a list per row,
        # which would fragment the small-object heap; no heaps means no columns
        if not self.n_heaps:
            return ((),) * self.num_nodes
        return tuple(zip(*self.heap_matrix.T.tolist()))

    def heap_rows(self, ids: np.ndarray) -> np.ndarray:
        """The ``heap_matrix`` rows of the node ids `ids`, as a new int64
        array; a tuple graph decodes them from the box codes and does not
        build its heap matrix."""
        if self.mode is StateSpaceMode.TUPLE:
            codes = np.asarray(ids, dtype=np.int64).reshape(-1, 1)
            return codes // np.array(self.box_strides, dtype=np.int64) % np.array(self.box_shape, dtype=np.int64)
        return self.heap_matrix[ids]

    def code(self, state) -> int:
        """The node id of `state`, the inverse of `heap_rows`: the sum over
        heaps t of a term for ``state[t]``, ``state[t] * box_strides[t]``
        in tuple mode and the `_rank_offsets` entry in multiset mode.
        Raises ValueError for a state outside the graph: one of the wrong
        length, with a heap below 0 or above the root's (past the end of
        that heap's terms), or, in multiset mode, not non-increasing."""
        heaps = tuple(state)
        sized = len(heaps) == self.n_heaps and min(heaps, default=0) >= 0
        if sized and (self.mode is StateSpaceMode.TUPLE or all(map(operator.ge, heaps, heaps[1:]))):
            try:
                return sum(map(operator.getitem, self._code_terms, heaps))
            except IndexError:
                pass
        raise ValueError(f"{heaps} is not a state of this graph")

    @cached_property
    def _code_terms(self) -> tuple:
        # per heap t, the term of each value 0..root[t], indexed by the value
        if self.mode is StateSpaceMode.TUPLE:
            return tuple(range(0, dim * stride, stride) for dim, stride in zip(self.box_shape, self.box_strides))
        return tuple(offset.tolist() for offset in _rank_offsets(self.root)[0])

    @property
    def num_edges(self) -> int:
        if self.mode is StateSpaceMode.TUPLE:
            return edge_count(self.root, self.mode)
        return len(self.edge_dst)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def build_graph(root, mode: StateSpaceMode) -> GameGraph:
    """Every state reachable from the canonicalized root, with node ids as
    `GameGraph` describes: in tuple mode the box, with nothing to compute,
    and in multiset mode the states and edges in rank order, computed with
    numpy and no search."""
    start = canonicalize(root, mode)
    if mode is StateSpaceMode.TUPLE:
        return GameGraph(start, mode)
    return _multiset_graph(start)


def bfs_order(graph: GameGraph) -> np.ndarray:
    """The node ids in breadth-first discovery order from the root, with
    each state's children met in `children` order, computed with numpy and
    no search.

    In tuple mode a state's breadth-first level is the number of heaps
    that differ from the root, and within a level states come in
    lexicographic order of their per-heap scores, ``root[i] - state[i]``
    for a heap that differs and +infinity for one that does not.  In
    multiset mode a state's level is the number of heaps minus the size of
    its multiset intersection with the root, and within level L + 1 states
    come in order of the smallest breadth-first position among their
    parents at level L, ties going to the larger rank."""
    if graph.mode is StateSpaceMode.TUPLE:
        unchanged = max(graph.root, default=0) + 1  # above every root[i] - state[i]
        # wide enough for `unchanged` too: np.where keeps the arrays' type and
        # would wrap it (a largest heap of 255 in uint8 would score 0)
        value_type = np.min_scalar_type(unchanged)
        # box[i, id]: heap i of that state
        box = np.indices(graph.box_shape, dtype=value_type).reshape(graph.n_heaps, graph.num_nodes)
        root = np.array(graph.root, dtype=value_type).reshape(-1, 1)
        differs = box != root
        scores = np.where(differs, root - box, value_type.type(unchanged))
        # lexsort's last key is the primary one: level, then heap 0, 1, ...
        return np.lexsort((*scores[::-1], differs.sum(axis=0)))
    size, k = graph.num_nodes, graph.n_heaps
    # a state's level is k minus its multiset intersection with the root
    level = np.full(size, k, dtype=np.min_scalar_type(k))
    for h, m in Counter(graph.root).items():
        level -= np.minimum(np.count_nonzero(graph.heap_matrix == h, axis=1), m).astype(level.dtype)
    # the edges to the next level, and their sources
    forward = np.flatnonzero(level[graph.edge_dst] > np.repeat(level, np.diff(graph.edge_offsets)))
    parent = np.searchsorted(graph.edge_offsets, forward, side="right") - 1
    child, parent_level = graph.edge_dst[forward], level[parent]
    position = np.zeros(size, dtype=np.int64)  # node id -> breadth-first position; the root's is 0
    best = np.full(size, size)  # smallest position among the parents
    order = [np.array([size - 1])]  # breadth-first position -> node id
    for lv in range(k):
        edges = parent_level == lv
        np.minimum.at(best, child[edges], position[parent[edges]])
        ids = np.flatnonzero(level == lv + 1)[::-1]
        ids = ids[np.argsort(best[ids], kind="stable")]
        position[ids] = np.arange(len(ids)) + sum(map(len, order))
        order.append(ids)
    return np.concatenate(order)


def _rank_offsets(start: GameState) -> tuple[list[np.ndarray], int, int]:
    """The rank table of a sorted multiset root, its state count and its
    edge count.

    ``offset[t][v]``, for v up to ``start[t]``, is the number of valid
    states that agree with a state holding v in column t before that column
    and hold less in it, so a state's rank, the number of valid states
    lexicographically below it, is the sum over t of
    ``offset[t][state[t]]``.  Every ``offset[t]`` starts at 0 and strictly
    increases, since each value has at least one valid tail (all zeros),
    so the one table also unranks: column t of the state of rank r is the
    last v with ``offset[t][v]`` at most what is left of r once the
    entries of the columns before t are taken off.  A state has one edge
    per remainder of each distinct positive size, each size counted at
    its last column: v is last when the next column holds less."""
    # offset[t][v] = sum of ways[u] for u < v, where ways[u] counts the
    # valid tails from column t on that hold u in column t, and sizes[u]
    # the sum of their counted sizes; past the last column only the empty
    # tail, as if it held 0
    offset = [None] * len(start)
    ways, sizes, below = np.ones(1, dtype=np.int64), np.zeros(1, dtype=np.int64), 0
    for t in reversed(range(len(start))):
        value = np.arange(start[t] + 1)
        at_most = np.minimum(value, below)  # the most the next column may hold
        tails = np.cumsum(ways)
        # the tails whose next column holds less than v, which count v
        lower = np.concatenate(([0], tails))[np.minimum(value, below + 1)]
        ways, sizes = tails[at_most], np.cumsum(sizes)[at_most] + value * lower
        offset[t], below = np.cumsum(ways) - ways, start[t]
    return offset, int(ways.sum()), int(sizes.sum())


def _multiset_graph(start: GameState) -> GameGraph:
    """The non-increasing states bounded by the sorted root and their
    edges, in rank order, with no search.

    A state's rank is its sum of `_rank_offsets` entries, and the states
    come from unranking 0 .. size - 1 through the same table.  A state's
    edges come from lowering one of its distinct positive heaps, smallest
    heap first and the remainder descending, which is `children` order;
    one row sort puts each child back in canonical order, and its rank is
    the edge's target."""
    k = len(start)
    value_type = np.min_scalar_type(max(start, default=0))
    offset, size, n_edges = _rank_offsets(start)

    # the states in rank order: each rank unranked one column at a time
    ascending = np.empty((size, k), dtype=value_type)  # each state's heaps smallest first
    rest = np.arange(size)  # each rank less the entries of the columns before
    for t in range(k):
        heap = np.searchsorted(offset[t], rest, side="right") - 1
        rest -= offset[t][heap]
        ascending[:, k - 1 - t] = heap
    del rest

    # one edge group per (state, first column of a positive value), ascending
    first = np.ones(ascending.shape, dtype=bool)
    first[:, 1:] = ascending[:, 1:] != ascending[:, :-1]
    group_size = np.where(first, ascending, 0).ravel()
    del first
    # every rank is below the node count, at most one more than the edge
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

    heap_matrix = ascending[:, ::-1].astype(np.int64)
    edge_offsets = np.concatenate(([0], np.cumsum(out_degree, dtype=np.int64)))
    return GameGraph(start, StateSpaceMode.MULTISET, heap_matrix, edge_offsets, child.astype(np.int64))
