import math
import random
import tracemalloc
from itertools import accumulate, combinations_with_replacement, permutations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_bfs, reference_graph
from mepnim.expr import Chromosome, Gene, evaluate_many
from mepnim.game import (
    StateSpaceMode,
    apply_move,
    bfs_order,
    build_graph,
    canonicalize,
    children,
    edge_count,
    is_terminal,
    moves,
    nth_move,
    state_count,
)
from mepnim.play import play_game, random_strategy

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


def reference_children(state, mode):
    """`children` as it was before its ordered walk, kept as the slow
    reference: tuple mode by (heap index, objects removed); multiset mode
    lowers every distinct size to every smaller one, sorts each child,
    deduplicates them in a set and sorts the set descending."""
    if mode is TUPLE:
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


def first_pairs(state, mode):
    """Each child of `state` -> the first (heap, take) pair, in (heap,
    take) order, that reaches it."""
    first = {}
    for i, c in enumerate(state):
        for take in range(1, c + 1):
            first.setdefault(canonicalize(state[:i] + (c - take,) + state[i + 1 :], mode), (i + 1, take))
    return first


def all_states(max_heaps, max_size):
    """Every heap tuple of at most `max_heaps` heaps of at most `max_size`."""
    return [raw for k in range(max_heaps + 1) for raw in product(range(max_size + 1), repeat=k)]


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


@pytest.mark.parametrize("mode", [MULTISET, TUPLE])
def test_children_equal_the_set_and_sort_reference(mode):
    # every canonical state of up to 5 heaps of at most 5, in order
    for raw in all_states(5, 5):
        state = canonicalize(raw, mode)
        assert children(state, mode) == reference_children(state, mode), state


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
            first = first_pairs(state, mode)
            for m in moves(state, mode):
                assert (m.heap, m.take) == first[m.child], (mode, state, m)


@pytest.mark.parametrize("mode", [MULTISET, TUPLE])
def test_apply_move_equals_canonicalize_of_the_lowered_state(mode):
    """Over every state of up to 4 heaps of at most 5: every in-range
    (heap, take) gives the canonicalized state with that heap lowered, and
    heap 0, heap len + 1, take 0 and take v + 1 raise ValueError with the
    text the human session prints."""
    for raw in all_states(4, 5):
        state = canonicalize(raw, mode)
        for heap in (0, len(state) + 1):
            with pytest.raises(ValueError, match=rf"^heap must be 1\.\.{len(state)}$"):
                apply_move(state, heap, 1, mode)
        for i, v in enumerate(state):
            for take in range(1, v + 1):
                lowered = canonicalize(state[:i] + (v - take,) + state[i + 1 :], mode)
                assert apply_move(state, i + 1, take, mode) == lowered, (state, i + 1, take)
            for take in (0, v + 1):
                with pytest.raises(ValueError, match=rf"^can take 1\.\.{v} from heap {i + 1}$"):
                    apply_move(state, i + 1, take, mode)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=0, max_size=5), st.sampled_from([MULTISET, TUPLE]))
@example([], TUPLE).via("no heaps")
@example([0, 0, 0], MULTISET).via("all-zero root")
@example([3, 3, 3, 3], MULTISET).via("equal heaps")
@example([4, 0, 3, 0, 1, 4], MULTISET).via("zero heaps between")
@example([4, 0, 3, 0, 1, 4], TUPLE).via("zero heaps between")
def test_nth_child_and_child_count_equal_the_reference(root, mode):
    # every state of the game and every index of its children: `nth_move`
    # gives the first pair reaching the child at that index, and applying
    # it makes that child; the count is the one `random_strategy` draws the
    # index below
    for state in reference_bfs(root, mode)[0]:
        expected = reference_children(state, mode)
        count = sum(state) if mode is TUPLE else sum(set(state))
        assert count == len(expected), state
        pairs = [nth_move(state, i, mode) for i in range(count)]
        first = first_pairs(state, mode)
        assert pairs == [first[child] for child in expected], state
        assert [apply_move(state, heap, take, mode) for heap, take in pairs] == expected, state
        for outside in (-1, count):
            with pytest.raises(IndexError):
                nth_move(state, outside, mode)


@pytest.mark.parametrize("mode", [MULTISET, TUPLE])
def test_random_strategy_draws_what_choice_of_the_reference_draws(mode):
    states = [canonicalize(raw, mode) for raw in all_states(4, 4)]
    for seed in range(5):
        drawn, expected = random_strategy(random.Random(seed), mode), random.Random(seed)
        for state in states:
            if not is_terminal(state):
                child = expected.choice(reference_children(state, mode))
                assert drawn(state) == first_pairs(state, mode)[child], (seed, state)


@pytest.mark.parametrize("mode", [MULTISET, TUPLE])
@pytest.mark.parametrize("root", [(4, 4, 4, 4), (9, 7, 7, 3, 0, 1)])
def test_seeded_random_game_equals_a_game_over_reference_children(root, mode):
    def reference_player(rng):
        return lambda state: first_pairs(state, mode)[rng.choice(reference_children(state, mode))]

    for seed in range(3):
        game = play_game(random_strategy(random.Random(seed), mode), random_strategy(random.Random(seed + 100), mode),
                         root, mode)
        assert game == play_game(reference_player(random.Random(seed)), reference_player(random.Random(seed + 100)),
                                 root, mode)


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
                assert terminals == [graph.nodes[0]]  # node 0

    def test_terminal_is_node_zero(self):
        # fitness and labeling take node 0 as the terminal, and the
        # root, the largest state, is the last node
        roots = [(root, MULTISET) for k in range(7) for root in combinations_with_replacement(range(7), k)]
        roots += [(root, TUPLE) for k in range(5) for root in product(range(4), repeat=k)]
        for root, mode in roots:
            graph = build_graph(root, mode)
            mask = ~graph.heap_matrix.any(axis=1)
            assert np.flatnonzero(mask).tolist() == [0], (root, mode)
            assert graph.nodes[-1] == graph.root, (root, mode)

    @pytest.mark.parametrize("mode", [MULTISET, TUPLE])
    def test_graph_arrays_are_read_only(self, mode):
        graph = build_graph((3, 2, 1), mode)
        arrays = (graph.edge_offsets, graph.edge_dst) if mode is MULTISET else graph.box_axes
        for array in (graph.heap_matrix, *arrays):
            with pytest.raises(ValueError):
                array[0] = 1
        # a formula that is one heap returns a view of that heap's column
        column = evaluate_many(Chromosome((Gene("a1"),)), graph.heap_matrix)
        assert np.shares_memory(column, graph.heap_matrix)
        with pytest.raises(ValueError):
            column[0] = 1
        assert graph.heap_matrix[-1].tolist() == list(graph.root)

    @pytest.mark.parametrize("mode", [MULTISET, TUPLE])
    @pytest.mark.parametrize("root", [(3, 2, 1), (0, 4, 0, 2), (5,), ()])
    def test_heap_rows_are_heap_matrix_rows(self, mode, root):
        graph = build_graph(root, mode)
        ids = np.arange(graph.num_nodes)[::-1]
        rows = graph.heap_rows(ids)  # a tuple graph's from its box codes, before heap_matrix exists
        assert rows.dtype == np.int64 and rows.shape == (graph.num_nodes, len(root))
        assert rows.tolist() == graph.heap_matrix[ids].tolist()

    def test_determinism(self):
        a = build_graph((3, 2, 1), MULTISET)
        b = build_graph((3, 2, 1), MULTISET)
        assert a.nodes == b.nodes
        assert a.edge_offsets.tolist() == b.edge_offsets.tolist()
        assert a.edge_dst.tolist() == b.edge_dst.tolist()


def assert_equals_reference_bfs(root, mode):
    graph = build_graph(root, mode)
    states, bfs, src, dst = reference_graph(root, mode)
    assert graph.nodes == tuple(states)
    assert graph.heap_matrix.dtype == np.int64
    assert graph.heap_matrix.shape == (len(states), len(root))
    assert graph.heap_matrix.tolist() == [list(s) for s in states]
    assert [graph.code(s) for s in graph.nodes] == list(range(graph.num_nodes))
    order = bfs_order(graph)
    assert order.dtype == np.int64
    assert order.tolist() == bfs  # the node ids in breadth-first order
    if mode is TUPLE:
        assert graph.edge_offsets is None and graph.edge_dst is None
        return
    assert graph.edge_offsets.dtype == graph.edge_dst.dtype == np.int64
    assert graph.edge_offsets.tolist() == [0, *accumulate(np.bincount(src, minlength=len(states)).tolist())]
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
    order = bfs_order(graph)
    level_one = [list(s) for s in children(root, TUPLE)]
    assert graph.heap_matrix[order[: 1 + len(level_one)]].tolist() == [list(root), *level_one]
    assert graph.heap_matrix[order[-1]].tolist() == [0, 0]


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


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 8), min_size=0, max_size=6), st.sampled_from([MULTISET, TUPLE]))
@example([], MULTISET).via("no heaps")
@example([0, 0, 0], MULTISET).via("all-zero root")
@example([5, 5, 5], MULTISET).via("equal heaps")
@example([4, 0, 3, 0, 1, 4], MULTISET).via("zero heaps between")
def test_edge_count_equals_num_edges(root, mode):
    assert edge_count(root, mode) == build_graph(root, mode).num_edges


def test_edge_count_of_games_too_large_to_build():
    assert edge_count((65536,), MULTISET) == 65536 * 65537 // 2
    assert edge_count((1000, 1000), MULTISET) == 501_000_500
    assert edge_count((20,) * 6, MULTISET) == 11_157_300


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
