import math
import random
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mepnim.game import (
    StateSpaceMode,
    build_graph,
    canonicalize,
    children,
    heap_take,
    is_terminal,
    moves,
    state_count,
)

MULTISET = StateSpaceMode.MULTISET
TUPLE = StateSpaceMode.TUPLE


def brute_children(state, mode):
    """Independent re-derivation: enumerate every removal, canonicalize,
    dedupe."""
    out = set()
    for i, c in enumerate(state):
        for take in range(1, c + 1):
            out.add(canonicalize(state[:i] + (c - take,) + state[i + 1 :], mode))
    return out


def random_state(rng, mode, max_heaps=4, max_size=5):
    raw = [rng.randint(0, max_size) for _ in range(rng.randint(1, max_heaps))]
    return canonicalize(raw, mode)


def test_canonicalize_multiset_sorts_non_increasing():
    assert canonicalize((1, 4, 2, 4), MULTISET) == (4, 4, 2, 1)


def test_canonicalize_tuple_preserves_order():
    assert canonicalize((1, 4, 2, 4), TUPLE) == (1, 4, 2, 4)


def test_canonicalize_zeros():
    assert canonicalize((0, 0), MULTISET) == (0, 0)


def test_canonicalize_rejects_negative():
    with pytest.raises(ValueError):
        canonicalize((1, -1), TUPLE)


def test_is_terminal():
    assert is_terminal((0, 0, 0, 0))
    assert not is_terminal((0, 1))
    assert not is_terminal((4, 4, 4, 4))


def test_children_tuple_ordered_by_heap_then_take():
    assert children((2, 1), TUPLE) == [(1, 1), (0, 1), (2, 0)]


def test_children_multiset_sorted_descending():
    assert children((2, 1), MULTISET) == [(2, 0), (1, 1), (1, 0)]


def test_children_of_terminal_is_empty():
    assert children((0, 0, 0, 0), TUPLE) == []
    assert children((0, 0, 0, 0), MULTISET) == []


def test_children_match_brute_enumeration():
    rng = random.Random(11)
    for _ in range(300):
        for mode in (MULTISET, TUPLE):
            state = random_state(rng, mode)
            got = children(state, mode)
            assert set(got) == brute_children(state, mode)
            assert len(got) == len(set(got))


def test_children_permutation_invariant_in_multiset_mode():
    rng = random.Random(12)
    for _ in range(50):
        raw = [rng.randint(0, 4) for _ in range(3)]
        base = children(canonicalize(raw, MULTISET), MULTISET)
        for perm in permutations(raw):
            assert children(canonicalize(perm, MULTISET), MULTISET) == base


def test_moves_agree_with_children_order():
    rng = random.Random(13)
    for _ in range(200):
        for mode in (MULTISET, TUPLE):
            state = random_state(rng, mode)
            assert [m.child for m in moves(state, mode)] == children(state, mode)


def test_move_is_first_heap_take_pair_reaching_its_child():
    # the (heap, take) that `mepnim play` prints for each move
    rng = random.Random(16)
    for _ in range(300):
        for mode in (MULTISET, TUPLE):
            state = random_state(rng, mode)
            first = {}
            for i, c in enumerate(state):
                for take in range(1, c + 1):
                    child = canonicalize(state[:i] + (c - take,) + state[i + 1 :], mode)
                    first.setdefault(child, (i + 1, take))
            for m in moves(state, mode):
                assert (m.heap, m.take) == first[m.child], (mode, state, m)


@pytest.mark.parametrize("state,child,mode", [
    ((2, 1), (2, 1), TUPLE),  # no move
    ((2, 1), (0, 0), TUPLE),  # two heaps changed
    ((2, 1), (1, 2), TUPLE),  # a heap grew
    ((2, 1), (2,), TUPLE),  # a heap vanished
    ((3, 1), (2, 2), MULTISET),  # total unchanged
    ((3, 3), (3, 2, 0), MULTISET),
])
def test_heap_take_rejects_a_state_no_single_move_reaches(state, child, mode):
    with pytest.raises(ValueError):
        heap_take(state, child, mode)


def test_moves_are_legal():
    state = (3, 1)
    for m in moves(state, TUPLE):
        assert 1 <= m.heap <= 2
        assert 1 <= m.take <= state[m.heap - 1]
        assert m.child == state[: m.heap - 1] + (state[m.heap - 1] - m.take,) + state[m.heap :]


class TestBuildGraph:
    def test_multiset_4444_has_70_nodes(self):
        graph = build_graph((4, 4, 4, 4), MULTISET)
        assert graph.num_nodes == 70

    def test_tuple_21_nodes_and_edges(self):
        graph = build_graph((2, 1), TUPLE)
        assert set(graph.nodes) == {(2, 1), (1, 1), (0, 1), (2, 0), (1, 0), (0, 0)}
        assert graph.num_edges == 9

    def test_terminal_root(self):
        graph = build_graph((0, 0), MULTISET)
        assert graph.num_nodes == 1
        assert graph.num_edges == 0

    def test_root_is_canonicalized(self):
        graph = build_graph((1, 4, 2, 4), MULTISET)
        assert graph.root == (4, 4, 2, 1)

    @pytest.mark.parametrize("n,c", [(1, 3), (2, 4), (3, 3), (4, 4), (4, 5)])
    def test_multiset_node_count_is_multiset_coefficient(self, n, c):
        # multisets of size n over {0..c}: C(n + c, c)
        graph = build_graph((c,) * n, MULTISET)
        assert graph.num_nodes == math.comb(n + c, c)

    def test_edges_strictly_decrease_total(self):
        rng = random.Random(14)
        for _ in range(20):
            for mode in (MULTISET, TUPLE):
                graph = build_graph(random_state(rng, mode), mode)
                sources = set(graph.edge_src.tolist())
                for i, state in enumerate(graph.nodes):
                    if not is_terminal(state):
                        assert i in sources, "non-terminal node must have children"
                for i, j in zip(graph.edge_src.tolist(), graph.edge_dst.tolist()):
                    assert sum(graph.nodes[j]) < sum(graph.nodes[i])

    def test_exactly_one_terminal_reachable(self):
        rng = random.Random(15)
        for _ in range(20):
            for mode in (MULTISET, TUPLE):
                graph = build_graph(random_state(rng, mode), mode)
                terminals = [s for s in graph.nodes if is_terminal(s)]
                assert len(terminals) == 1

    def test_determinism(self):
        a = build_graph((3, 2, 1), MULTISET)
        b = build_graph((3, 2, 1), MULTISET)
        assert a.nodes == b.nodes
        assert a.edge_src.tolist() == b.edge_src.tolist()
        assert a.edge_dst.tolist() == b.edge_dst.tolist()


def reference_bfs(root, mode):
    """Breadth-first closure of `children` from the root: nodes in discovery
    order, edges grouped by source in node order and per source in
    `children` order.  The slow reference for `build_graph`."""
    start = canonicalize(root, mode)
    nodes, index, src, dst = [start], {start: 0}, [], []
    for i, state in enumerate(nodes):  # grows while iterated
        for child in children(state, mode):
            if child not in index:
                index[child] = len(nodes)
                nodes.append(child)
            src.append(i)
            dst.append(index[child])
    return nodes, src, dst


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=0, max_size=6))
@example([]).via("no heaps")
@example([0, 0, 0]).via("all-zero root")
@example([4, 0, 3, 0, 1, 4]).via("zero heaps between")
def test_tuple_graph_equals_reference_bfs(root):
    graph = build_graph(root, TUPLE)
    nodes, src, dst = reference_bfs(root, TUPLE)
    assert graph.nodes == tuple(nodes)
    assert graph.heap_matrix.dtype == np.int64
    assert graph.heap_matrix.shape == (len(nodes), len(root))
    assert graph.heap_matrix.tolist() == [list(s) for s in nodes]
    assert graph.edge_src.tolist() == src
    assert graph.edge_dst.tolist() == dst


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=0, max_size=6), st.sampled_from([MULTISET, TUPLE]))
def test_state_count_equals_built_node_count(root, mode):
    assert state_count(root, mode) == build_graph(root, mode).num_nodes


def test_state_count_of_games_too_large_to_build():
    assert state_count((30,) * 5, TUPLE) == 31**5
    # multisets of size 5 over {0..30}
    assert state_count((30,) * 5, MULTISET) == math.comb(35, 5)
