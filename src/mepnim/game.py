"""Nim states, legal-move generation, and the reachable-state graph.

States are tuples of non-negative heap sizes.  Two state spaces are
supported: ``MULTISET`` treats permutations of the same heap sizes as one
state (stored sorted non-increasing), ``TUPLE`` keeps heap order positional.
"""

from __future__ import annotations

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


def moves(state: GameState, mode: StateSpaceMode) -> tuple[Move, ...]:
    """Legal moves with their resulting states, one per child of `children`
    and in its order.  Each carries the first (heap, take) pair, in
    (heap, take) order, that reaches its child: in tuple mode the one heap
    that differs, in multiset mode the first heap holding the size that
    shrank, which is the size at the first position where the two sorted
    tuples differ."""
    out = []
    for child in children(state, mode):
        k = next(i for i, (a, b) in enumerate(zip(state, child)) if a != b)
        if mode is StateSpaceMode.MULTISET:
            k = state.index(state[k])
        out.append(Move(k + 1, sum(state) - sum(child), child))
    return tuple(out)


class GameGraph:
    """Deduplicated DAG of every state reachable from a root.

    Built once by `build_graph`, then immutable; safe to share across
    threads.  Nodes are listed in breadth-first discovery order from the
    root and are referred to by their index in that order; edge k leads
    from node ``edge_src[k]`` to node ``edge_dst[k]``, grouped by source in
    node order and, per source, in `children` order.  Edges always strictly
    decrease the total object count.
    """

    def __init__(self, root: GameState, mode: StateSpaceMode, nodes: list[GameState], edge_src: list[int], edge_dst: list[int]):
        self.root = root
        self.mode = mode
        self.nodes: tuple[GameState, ...] = tuple(nodes)
        self.n_heaps = len(root)
        self.heap_matrix = np.array(self.nodes, dtype=np.int64).reshape(len(self.nodes), self.n_heaps)
        self.edge_src = np.array(edge_src, dtype=np.int64)
        self.edge_dst = np.array(edge_dst, dtype=np.int64)
        self.terminal_mask = ~self.heap_matrix.any(axis=1)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edge_src)


def build_graph(root, mode: StateSpaceMode) -> GameGraph:
    """Breadth-first closure of `children` from the canonicalized root, with
    states merged by canonical identity."""
    start = canonicalize(root, mode)
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
    return GameGraph(start, mode, nodes, edge_src, edge_dst)
