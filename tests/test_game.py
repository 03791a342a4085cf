import math
import random
import tracemalloc
from itertools import accumulate, combinations_with_replacement, permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_bfs
from mepnim.expr import Chromosome, Gene, evaluate_many
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
        # a tuple graph stores no edges; its box children are held to
        # `reference_bfs` by the fitness and labeling tests
        rng = random.Random(14)
        for _ in range(20):
            graph = build_graph(random_state(rng, MULTISET), MULTISET)
            offsets = graph.edge_offsets.tolist()
            for i, state in enumerate(graph.nodes):
                kids = graph.edge_dst[offsets[i] : offsets[i + 1]].tolist()
                assert bool(kids) == (not is_terminal(state)), "non-terminal node must have children"
                for j in kids:
                    assert sum(graph.nodes[j]) < sum(state)

    def test_exactly_one_terminal_reachable(self):
        rng = random.Random(15)
        for _ in range(20):
            for mode in (MULTISET, TUPLE):
                graph = build_graph(random_state(rng, mode), mode)
                terminals = [s for s in graph.nodes if is_terminal(s)]
                assert terminals == [graph.nodes[-1]]  # the last node

    def test_multiset_terminal_is_the_last_node(self):
        # multiset fitness takes the last node as the terminal
        for k in range(7):
            for root in combinations_with_replacement(range(7), k):
                mask = ~build_graph(root, MULTISET).heap_matrix.any(axis=1)
                assert np.flatnonzero(mask).tolist() == [len(mask) - 1], root

    @pytest.mark.parametrize("mode", [MULTISET, TUPLE])
    def test_graph_arrays_are_read_only(self, mode):
        graph = build_graph((3, 2, 1), mode)
        arrays = (graph.edge_offsets, graph.edge_dst) if mode is MULTISET else (graph.box_id, *graph.box_axes)
        for array in (graph.heap_matrix, *arrays):
            with pytest.raises(ValueError):
                array[0] = 1
        # a formula that is one heap returns a view of that heap's column
        column = evaluate_many(Chromosome((Gene("a1"),)), graph.heap_matrix)
        assert np.shares_memory(column, graph.heap_matrix)
        with pytest.raises(ValueError):
            column[0] = 1
        assert graph.heap_matrix[0].tolist() == list(graph.root)

    def test_determinism(self):
        a = build_graph((3, 2, 1), MULTISET)
        b = build_graph((3, 2, 1), MULTISET)
        assert a.nodes == b.nodes
        assert a.edge_offsets.tolist() == b.edge_offsets.tolist()
        assert a.edge_dst.tolist() == b.edge_dst.tolist()


def assert_equals_reference_bfs(root, mode):
    graph = build_graph(root, mode)
    nodes, src, dst = reference_bfs(root, mode)
    assert graph.nodes == tuple(nodes)
    assert graph.heap_matrix.dtype == np.int64
    assert graph.heap_matrix.shape == (len(nodes), len(root))
    assert graph.heap_matrix.tolist() == [list(s) for s in nodes]
    if mode is TUPLE:
        assert graph.edge_offsets is None and graph.edge_dst is None
        return
    assert graph.edge_offsets.dtype == graph.edge_dst.dtype == np.int64
    assert graph.edge_offsets.tolist() == [0, *accumulate(np.bincount(src, minlength=len(nodes)).tolist())]
    assert graph.edge_dst.tolist() == dst


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=0, max_size=6))
@example([]).via("no heaps")
@example([0, 0, 0]).via("all-zero root")
@example([4, 0, 3, 0, 1, 4]).via("zero heaps between")
def test_tuple_graph_equals_reference_bfs(root):
    assert_equals_reference_bfs(root, TUPLE)


@pytest.mark.parametrize("root", [(255, 1), (255, 3), (3, 255)])
def test_tuple_graph_with_a_heap_at_a_type_limit_equals_reference_bfs(root):
    # a largest heap of 255 is the most a uint8 holds: the build must not
    # wrap the score of a heap that still equals the root
    assert_equals_reference_bfs(root, TUPLE)


def test_tuple_graph_with_a_heap_of_65535_keeps_breadth_first_order():
    # the uint16 limit; the reference search would walk 4e9 edges, but the
    # first level is the root's children in `children` order
    root = (65535, 1)
    graph = build_graph(root, TUPLE)
    level_one = [list(s) for s in children(root, TUPLE)]
    assert graph.heap_matrix[1 : 1 + len(level_one)].tolist() == level_one
    assert graph.heap_matrix[-1].tolist() == [0, 0]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=0, max_size=6))
@example([]).via("no heaps")
@example([0, 0, 0]).via("all-zero root")
@example([5]).via("one heap")
@example([3, 3, 3, 3]).via("equal heaps")
@example([4, 0, 3, 0, 1, 4]).via("zero heaps between")
def test_multiset_graph_equals_reference_bfs(root):
    assert_equals_reference_bfs(root, MULTISET)


@pytest.mark.parametrize("root", [(9,) * 6, (12, 10, 7, 7, 3, 1)])
def test_large_multiset_graph_equals_reference_bfs(root):
    assert_equals_reference_bfs(root, MULTISET)


def test_multiset_build_peak_memory():
    # 5,005 states and 90,090 edges; the breadth-first search this builder
    # replaced peaked at 4.7 MB, and the kept arrays and node tuples take
    # about 2.2 MB
    build_graph((2, 2), MULTISET)  # first-call allocations are not the builder's
    tracemalloc.start()
    try:
        build_graph((9,) * 6, MULTISET)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 10**6


def test_tuple_build_and_score_peak_memory():
    # 32,768 states; the edge arrays alone would take 9.2 MB (573,440 edges),
    # and building them peaked at 15 MB; the kept heap matrix takes 1.3 MB
    from conftest import xor_chain
    from mepnim.fitness import graph_fitness
    from mepnim.oracle import retrograde_p_mask

    warm = build_graph((2, 2), TUPLE)  # first-call allocations are not the pipeline's
    retrograde_p_mask(warm)
    graph_fitness(xor_chain(2), warm)
    tracemalloc.start()
    try:
        graph = build_graph((7,) * 5, TUPLE)
        retrograde_p_mask(graph)
        assert graph_fitness(xor_chain(5), graph)[0] == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 10**6


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=0, max_size=6), st.sampled_from([MULTISET, TUPLE]))
@example([], TUPLE).via("no heaps")
@example([0], TUPLE).via("one empty heap")
@example([0, 3, 0, 2], TUPLE).via("empty heaps between")
def test_edge_count_equals_edge_arrays(root, mode):
    graph = build_graph(root, mode)
    assert graph.num_edges == len(reference_bfs(root, mode)[2])
    if mode is MULTISET:
        assert graph.num_edges == len(graph.edge_dst) == graph.edge_offsets[-1]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=0, max_size=6), st.sampled_from([MULTISET, TUPLE]))
def test_state_count_equals_built_node_count(root, mode):
    assert state_count(root, mode) == build_graph(root, mode).num_nodes


def multiset_count_by_dp(root):
    """Non-increasing sequences bounded componentwise by the sorted root,
    counted position by position; the cost grows with sum(root).  The slow
    reference for `state_count` in multiset mode."""
    start = canonicalize(root, MULTISET)
    # ways[v]: the valid prefixes so far that end in value v
    ways = [0] * start[0] + [1] if start else [1]
    for bound in start:
        ways = list(accumulate(reversed(ways)))[::-1][: bound + 1]
    return sum(ways)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 12), min_size=0, max_size=8))
@example([]).via("no heaps")
@example([0, 0]).via("all-zero root")
def test_multiset_state_count_equals_dp(root):
    assert state_count(root, MULTISET) == multiset_count_by_dp(root)


def test_state_count_of_huge_heaps_is_cheap():
    assert state_count((10**9,), MULTISET) == 10**9 + 1
    assert state_count((10**9, 3), MULTISET) == 3_999_999_998
    assert state_count((10**9, 3), TUPLE) == (10**9 + 1) * 4


def test_state_count_of_games_too_large_to_build():
    assert state_count((30,) * 5, TUPLE) == 31**5
    # multisets of size 5 over {0..30}
    assert state_count((30,) * 5, MULTISET) == math.comb(35, 5)
