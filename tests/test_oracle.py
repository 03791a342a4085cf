import random
from itertools import product
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import chrom, reference_edges, worked_example, xor3_minus_a4, xor_chain
from mepnim import oracle
from mepnim.expr import evaluate
from mepnim.fitness import Label, graph_fitness
from mepnim.game import StateSpaceMode, build_graph, is_terminal
from mepnim.genetics import random_chromosome
from mepnim.oracle import bouton_label, retrograde_labels, retrograde_p_mask, verify_formula
from mepnim.play import oracle_classifier

MULTISET = StateSpaceMode.MULTISET
TUPLE = StateSpaceMode.TUPLE

# hand backward induction over the (2,1) positional tree
EXPECTED_21 = {
    (0, 0): Label.P,
    (1, 0): Label.N,
    (0, 1): Label.N,
    (2, 0): Label.N,
    (1, 1): Label.P,
    (2, 1): Label.N,
}


def test_retrograde_on_21_tuple_matches_hand_table():
    labels = retrograde_labels(build_graph((2, 1), TUPLE))
    assert labels == EXPECTED_21


def test_terminal_graph_is_p():
    labels = retrograde_labels(build_graph((0, 0), TUPLE))
    assert labels == {(0, 0): Label.P}


def test_root_4444_is_p():
    graph = build_graph((4, 4, 4, 4), MULTISET)
    assert retrograde_labels(graph)[(4, 4, 4, 4)] is Label.P


@pytest.mark.parametrize(
    "state,label",
    [((2, 1), Label.N), ((1, 1), Label.P), ((4, 4, 4, 4), Label.P)],
)
def test_bouton_examples(state, label):
    assert bouton_label(state) is label


def test_retrograde_equals_bouton_on_small_games():
    # the exhaustive sweep (4 heaps, 5 objects) lives in the acceptance suite
    for mode in (MULTISET, TUPLE):
        for n in range(1, 4):
            for root in product(range(5), repeat=n):
                graph = build_graph(root, mode)
                labels = retrograde_labels(graph)
                for state, label in labels.items():
                    assert label is bouton_label(state), (mode, root, state)


def test_rule_satisfying_labeling_is_unique():
    # brute force over all 2^6 labelings of the (2,1) tuple graph: exactly
    # one satisfies the three rules, and it is the retrograde labeling
    graph = build_graph((2, 1), TUPLE)
    nodes = graph.nodes
    src, dst = (ids.tolist() for ids in reference_edges(graph))

    def violates(assignment):
        for i, state in enumerate(nodes):
            kids = [v for u, v in zip(src, dst) if u == i]
            if is_terminal(state):
                if not assignment[i]:
                    return True  # terminal labeled N
            elif assignment[i]:
                if any(assignment[j] for j in kids):
                    return True  # move from P into P
            elif not any(assignment[j] for j in kids):
                return True  # N with no P child
        return False

    valid = [a for a in product([True, False], repeat=len(nodes)) if not violates(a)]
    assert len(valid) == 1
    expected = retrograde_labels(graph)
    assert valid[0] == tuple(expected[s] is Label.P for s in nodes)


class TestVerifyFormula:
    def test_correct_formula_on_4444(self):
        graph = build_graph((4, 4, 4, 4), MULTISET)
        result = verify_formula(xor3_minus_a4(), graph)
        assert result.agrees
        assert result.disagreements == ()
        assert bool(result)

    def test_worked_example_disagreements(self):
        # formula labels: (2,1),(1,1),(0,1),(0,0) -> P and (2,0),(1,0) -> N;
        # compared against EXPECTED_21 the mismatches are (2,1) and (0,1)
        result = verify_formula(worked_example(), build_graph((2, 1), TUPLE))
        assert not result.agrees
        assert result.disagreements == ((0, 1), (2, 1))  # node order: by box code

    def test_two_heap_xor_everywhere(self):
        rng = random.Random(3)
        for _ in range(10):
            root = (rng.randint(0, 6), rng.randint(0, 6))
            for mode in (MULTISET, TUPLE):
                assert verify_formula(xor_chain(2), build_graph(root, mode)).agrees

    @pytest.mark.parametrize("box_states", [oracle.BOX_VERIFY_STATES, 0])
    def test_no_heaps(self, box_states):
        # the one state, (), is P: n is 0 there and not n is -1
        with patch.object(oracle, "BOX_VERIFY_STATES", box_states):
            for mode in (MULTISET, TUPLE):
                graph = build_graph((), mode)
                assert verify_formula(chrom("n"), graph).agrees
                assert verify_formula(chrom("n", ("not", 1)), graph).disagreements == ((),)

    @pytest.mark.parametrize("mode", [MULTISET, TUPLE])
    @pytest.mark.parametrize("box_states", [oracle.BOX_VERIFY_STATES, 0])
    def test_agreeing_verify_decodes_no_states(self, mode, box_states, monkeypatch):
        def decode(self, ids):
            raise AssertionError("an agreeing verify decoded node ids")

        graph = build_graph((4, 3, 2), mode)
        monkeypatch.setattr(type(graph), "heap_rows", decode)
        monkeypatch.setattr(oracle, "BOX_VERIFY_STATES", box_states)
        assert verify_formula(xor_chain(3), graph) == oracle.VerifyResult(disagreements=())

    def test_invalid_formula_reported(self):
        result = verify_formula(chrom("a1", "a2", ("div", 1, 2)), build_graph((2, 1), TUPLE))
        assert result.invalid
        assert not result.agrees

    def test_agreement_iff_zero_fitness(self):
        graph = build_graph((3, 3), MULTISET)
        rng = random.Random(8)
        for _ in range(100):
            c = random_chromosome(10, 2, rng)
            assert verify_formula(c, graph).agrees == (graph_fitness(c, graph)[0] == 0)


@st.composite
def small_roots(draw):
    mode = draw(st.sampled_from([MULTISET, TUPLE]))
    root = draw(st.lists(st.integers(0, 3), min_size=1, max_size=6))
    return mode, tuple(root)


@settings(max_examples=60, deadline=None)
@given(small_roots())
def test_retrograde_mask_equals_xor_rule(case):
    # Bouton (1901): a Nim position is P exactly when its heaps xor to 0.
    mode, root = case
    graph = build_graph(root, mode)
    mask = retrograde_p_mask(graph)
    assert mask.dtype == bool
    assert np.array_equal(mask, np.bitwise_xor.reduce(graph.heap_matrix, axis=1) == 0)


def wrong_formulas(n):
    """Formulas over n >= 1 heaps that disagree with Bouton's rule on some
    states, and the right one."""
    formulas = [
        chrom("a1"),  # P iff a1 is 0
        chrom("n", ("-", 1, 1)),  # P everywhere
        chrom("a1", ("not", 1)),  # P nowhere
        chrom("a1", "n", ("mod", 1, 2)),  # P iff n divides a1
        chrom(f"a{n}", "n", ("-", 1, 2)),  # P iff the last heap holds n
        xor_chain(n),
    ]
    if n > 1:
        formulas += [xor_chain(n - 1), chrom("a1", "a2", ("-", 1, 2))]
    return formulas


@settings(max_examples=60, deadline=None)
@given(small_roots())
@example((TUPLE, (2, 1))).via("the worked example's game")
@example((TUPLE, (0, 0))).via("the terminal alone")
@example((MULTISET, (3, 3, 1))).via("equal heaps")
def test_disagreements_are_the_brute_force_list_in_node_order(case):
    mode, root = case
    n = len(root)
    # a small tuple graph is verified over its heap matrix unless the
    # box threshold is lowered
    for box_states in [oracle.BOX_VERIFY_STATES, 0]:
        graph = build_graph(root, mode)
        with patch.object(oracle, "BOX_VERIFY_STATES", box_states):
            for c in wrong_formulas(n) + ([worked_example()] if n > 1 else []):
                expected = tuple(s for s in graph.nodes if (evaluate(c, s, n) == 0) != (bouton_label(s) is Label.P))
                result = verify_formula(c, graph)
                assert not result.invalid
                assert result.disagreements == expected, (c, mode, root, box_states)
                assert result.agrees == (not expected)
            # n div a1 divides by zero at the terminal, n div (n - n) everywhere
            for c in [chrom("n", "a1", ("div", 1, 2)), chrom("n", ("-", 1, 1), ("div", 1, 2))]:
                result = verify_formula(c, graph)
                assert result.invalid and not result.agrees and result.disagreements == ()


def edge_walk_p_mask(graph):
    """P-mask by backward induction over the `reference_edges`, in plain
    Python: the reference for the box walk of tuple graphs."""
    kids = [[] for _ in range(graph.num_nodes)]
    for u, v in zip(*(ids.tolist() for ids in reference_edges(graph))):
        kids[u].append(v)
    totals = graph.heap_matrix.sum(axis=1).tolist()
    is_p = [False] * graph.num_nodes
    for u in sorted(range(graph.num_nodes), key=totals.__getitem__):
        is_p[u] = not any(is_p[v] for v in kids[u])
    return np.array(is_p, dtype=bool)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=0, max_size=6))
@example([]).via("no heaps")
@example([0]).via("one empty heap")
@example([0, 3, 0, 2]).via("empty heaps between")
@example([255, 3]).via("a heap at the uint8 limit")
@example([0, 5]).via("one line along the last heap, the other heap empty")
@example([5, 0, 3]).via("the longest heap first, beside an empty heap")
@example([3, 9, 2]).via("the longest heap in the middle")
def test_box_mask_equals_edge_walk_and_xor_rule(root):
    graph = build_graph(root, TUPLE)
    mask = retrograde_p_mask(graph)
    assert mask.dtype == bool and mask.shape == (graph.num_nodes,)
    assert np.array_equal(mask, edge_walk_p_mask(graph))
    assert np.array_equal(mask, np.array([bouton_label(s) is Label.P for s in graph.nodes], dtype=bool))


@pytest.mark.parametrize("root", [(1000,), (5, 100), (200, 200), (2,) * 8, (1,) * 12])
def test_box_mask_on_long_lines_and_many_heaps_equals_xor_rule(root):
    # one long line, many short lines, a square, and many heaps on short lines
    graph = build_graph(root, TUPLE)
    assert np.array_equal(retrograde_p_mask(graph), np.bitwise_xor.reduce(graph.heap_matrix, axis=1) == 0)


@pytest.mark.parametrize("root,mode", [((7, 7, 7, 7, 7), TUPLE), ((9, 9, 9, 9, 9, 9), MULTISET)])
def test_retrograde_mask_on_graphs_above_the_sort_limit(root, mode):
    # the two graphs of the benchmark's large-games workload
    graph = build_graph(root, mode)
    assert np.array_equal(retrograde_p_mask(graph), np.bitwise_xor.reduce(graph.heap_matrix, axis=1) == 0)


def test_graph_is_labeled_once():
    graph = build_graph((4, 4, 4, 4), MULTISET)
    # one np.bincount call per level walk, and nothing else here calls it
    with patch.object(oracle.np, "bincount", wraps=np.bincount) as level_walk:
        mask = retrograde_p_mask(graph)
        for _ in range(3):
            assert verify_formula(xor3_minus_a4(), graph).agrees
            assert not verify_formula(xor_chain(3), graph).agrees
        labels = retrograde_labels(graph)
        classify = oracle_classifier(graph)
        assert retrograde_p_mask(graph) is mask
    assert level_walk.call_count == 1
    assert all(classify(state) is (labels[state] is Label.P) for state in graph.nodes)
    assert [labels[state] is Label.P for state in graph.nodes] == mask.tolist()
    with pytest.raises(ValueError):
        mask[0] = not mask[0]


@pytest.mark.parametrize("mode,root,outside", [
    (TUPLE, (3, 0, 2), [(4, 0, 0), (0, 1, 0), (0, 0, 3), (-1, 0, 0), (1, 1), (1, 1, 1, 1), ()]),
    # (1, 2) is not sorted, (2, 2) holds more than the sorted root's second heap
    (MULTISET, (2, 2), [(3, 0), (1, 2), (0, -1), (2,), (2, 2, 0)]),
    (MULTISET, (3, 1), [(2, 2), (4, 0), (1, 3), (1,)]),
    (MULTISET, (), [(0,), (1,)]),
], ids=["tuple", "multiset", "multiset-second-heap", "multiset-no-heaps"])
def test_oracle_classifier_reads_the_mask_at_the_state_code(mode, root, outside):
    graph = build_graph(root, mode)
    classify = oracle_classifier(graph)
    labels = retrograde_labels(graph)
    assert all(classify(state) is (labels[state] is Label.P) for state in graph.nodes)
    for state in outside:
        with pytest.raises(ValueError):
            graph.code(state)
        with pytest.raises(ValueError):
            classify(state)
