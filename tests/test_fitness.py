import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import chrom, reference_bfs, worked_example, xor3_minus_a4, xor_chain
from mepnim.expr import Chromosome, EvalError, Gene, evaluate, evaluate_many
from mepnim.fitness import INVALID, FitnessBreakdown, Label, graph_fitness
from mepnim.game import StateSpaceMode, build_graph
from mepnim.genetics import random_chromosome
from mepnim.oracle import verify_formula
from mepnim.play import formula_classifier

MULTISET = StateSpaceMode.MULTISET
TUPLE = StateSpaceMode.TUPLE


@pytest.fixture(scope="module")
def graph_21_tuple():
    return build_graph((2, 1), TUPLE)


@pytest.fixture(scope="module")
def graph_4444():
    return build_graph((4, 4, 4, 4), MULTISET)


class TestFormulaClassifier:
    def test_worked_example_labels(self):
        classify = formula_classifier(worked_example(), 2)
        assert classify((2, 1)) is Label.P
        assert classify((2, 0)) is Label.N

    def test_constant_heap_count_is_n_everywhere(self):
        assert formula_classifier(chrom("n"), 4)((0, 0, 0, 0)) is Label.N


class TestGraphFitness:
    def test_worked_example_scores_four(self, graph_21_tuple):
        total, breakdown = graph_fitness(worked_example(), graph_21_tuple)
        assert total == 4
        # all four violations are moves between states the formula labels P
        assert (breakdown.rule_i, breakdown.rule_ii, breakdown.rule_iii) == (4, 0, 0)

    def test_xor_sum_is_perfect(self, graph_4444):
        total, breakdown = graph_fitness(xor_chain(4), graph_4444)
        assert total == 0
        assert breakdown.total == 0

    def test_xor_chain_minus_last_heap_is_perfect(self, graph_4444):
        # equivalent to the xor-sum: x - y == 0 iff x == y
        for state in graph_4444.nodes:
            xors = state[0] ^ state[1] ^ state[2]
            assert (xors - state[3] == 0) == (xors ^ state[3] == 0)
        assert graph_fitness(xor3_minus_a4(), graph_4444)[0] == 0

    def test_constant_nonzero_charges_every_node(self, graph_4444):
        # everything labeled N: each non-terminal lacks a P child, the
        # terminal is N as well
        total, breakdown = graph_fitness(chrom("n"), graph_4444)
        assert total == graph_4444.num_nodes == 70
        assert breakdown.rule_ii == graph_4444.num_nodes - 1 == 69
        assert breakdown.rule_iii == 1

    def test_constant_zero_charges_every_edge(self, graph_21_tuple):
        total, breakdown = graph_fitness(chrom("a1", ("-", 1, 1)), graph_21_tuple)
        assert total == graph_21_tuple.num_edges == 9
        assert (breakdown.rule_i, breakdown.rule_ii, breakdown.rule_iii) == (9, 0, 0)

    def test_division_by_zero_anywhere_is_invalid(self, graph_21_tuple):
        total, breakdown = graph_fitness(chrom("a1", "a2", ("div", 1, 2)), graph_21_tuple)
        assert total == INVALID
        assert breakdown is None

    def test_invalid_is_worse_than_any_count(self):
        assert INVALID > 10**9
        assert not INVALID == 0
        assert sorted([INVALID, 3, 0]) == [0, 3, INVALID]

    def test_dead_genes_do_not_affect_fitness(self, graph_21_tuple):
        base = worked_example()
        # append unreferenced junk, including a division by zero
        padded = Chromosome(
            base.genes + (Gene("a2"), Gene("div", (0, 4)), Gene("a1"), Gene("-", (0, 3)))
        )
        assert graph_fitness(padded, graph_21_tuple) == graph_fitness(base, graph_21_tuple)

    def test_breakdown_sums_and_bound(self, graph_4444):
        rng = random.Random(99)
        for _ in range(100):
            c = random_chromosome(15, 4, rng)
            total, breakdown = graph_fitness(c, graph_4444)
            if breakdown is None:
                assert total == INVALID
                continue
            assert breakdown.rule_i >= 0 and breakdown.rule_ii >= 0 and breakdown.rule_iii >= 0
            assert total == breakdown.rule_i + breakdown.rule_ii + breakdown.rule_iii
            assert total <= graph_4444.num_edges + graph_4444.num_nodes

    def test_zero_fitness_iff_oracle_agreement(self, graph_4444):
        rng = random.Random(4242)
        seen_zero = False
        for _ in range(150):
            c = random_chromosome(15, 4, rng)
            total, _ = graph_fitness(c, graph_4444)
            result = verify_formula(c, graph_4444)
            assert (total == 0) == result.agrees
            seen_zero = seen_zero or total == 0
        # the equivalence also holds for a known-perfect formula
        assert graph_fitness(xor_chain(4), graph_4444)[0] == 0
        assert verify_formula(xor_chain(4), graph_4444).agrees


def reference_edges(graph):
    """The graph's edges from `reference_bfs`, as int64 source and target
    arrays over its node ids."""
    _, src, dst = reference_bfs(graph.root, graph.mode)
    return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)


def edge_list_fitness(c, graph, edges):
    """`graph_fitness` by scanning the `reference_edges` of the graph: the
    reference for the box computation of tuple graphs and the per-source
    sums of multiset graphs."""
    try:
        p = evaluate_many(c, graph.heap_matrix, graph.n_heaps) == 0
    except EvalError:
        return INVALID, None
    src, dst = edges
    terminal = ~graph.heap_matrix.any(axis=1)
    rule_i = int(np.count_nonzero(p[src] & p[dst]))
    has_p_child = np.zeros(graph.num_nodes, dtype=bool)
    has_p_child[src[p[dst]]] = True
    rule_ii = int(np.count_nonzero(~p & ~terminal & ~has_p_child))
    rule_iii = int(np.count_nonzero(~p & terminal))
    return rule_i + rule_ii + rule_iii, FitnessBreakdown(rule_i, rule_ii, rule_iii)


def int64_min_over_minus_one(op: str = "div") -> Chromosome:
    """((2^63 wrapped to INT64_MIN) + a1) `op` (not 0), minus INT64_MIN: at
    a1 = 0 the division is INT64_MIN div -1, the one overflowing integer
    division, and the formula is 0 exactly there.  With `op` "mod" every
    remainder is 0, and the formula is INT64_MIN everywhere."""
    return chrom(
        "n", ("-", 1, 1), ("not", 2), ("-", 2, 3), ("+", 4, 4),  # 0, -1, 1, 2
        ("*", 5, 5), ("*", 6, 6), ("*", 7, 7), ("*", 8, 8), ("*", 9, 9),  # 4, 16, 2^8, 2^16, 2^32
        ("*", 10, 9), ("*", 11, 8), ("*", 12, 7), ("*", 13, 6), ("*", 14, 5),  # 2^48 ... 2^63
        "a1", ("+", 15, 16), (op, 17, 3), ("-", 18, 15),
    )


def special_formulas(n: int) -> list[Chromosome]:
    """Formulas that reach the edge cases of both fitness paths: constant,
    n alone and negated, dividing by zero everywhere and at some states
    only, a divisor of -1 at INT64_MIN, the xor rule and always-P."""
    formulas = [chrom("n"), chrom("n", ("not", 1)), chrom("n", ("-", 1, 1), ("div", 1, 2))]
    if n:
        formulas += [
            xor_chain(n),
            chrom("a1", ("-", 1, 1)),
            chrom("a1", "n", ("mod", 2, 1)),  # divides by zero where a1 is 0
            int64_min_over_minus_one(),
        ]
    return formulas


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=0, max_size=6), st.lists(st.integers(0, 2**32), min_size=1, max_size=6))
@example([], [0, 1, 2, 3]).via("no heaps")
@example([0], [0, 1, 2, 3]).via("one empty heap")
@example([0, 3, 0, 2], [0, 1, 2, 3]).via("empty heaps between")
@example([255, 3], [0, 1, 2, 3]).via("a heap at the uint8 limit")
def test_box_fitness_equals_edge_list_fitness(root, seeds):
    graph = build_graph(root, TUPLE)
    n = len(root)
    formulas = [random_chromosome(1 + seed % 15, n, random.Random(seed)) for seed in seeds]
    edges = reference_edges(graph)
    for c in formulas + special_formulas(n):
        assert graph_fitness(c, graph) == edge_list_fitness(c, graph, edges), (root, c)


def test_int64_min_over_minus_one_formula():
    # the helper above is what it says: P exactly where a1 is 0
    graph = build_graph((3, 1), TUPLE)
    values = evaluate_many(int64_min_over_minus_one(), graph.heap_matrix)
    assert ((values == 0) == (graph.heap_matrix[:, 0] == 0)).all()


@pytest.mark.parametrize("op", ["div", "mod"])
def test_int64_min_over_minus_one_equals_scalar_evaluate_without_warnings(op):
    # numpy's floor_divide also gives INT64_MIN for INT64_MIN // -1, but
    # warns of the overflow; the vectorised operators must not reach it
    graph = build_graph((3, 1), TUPLE)
    formula = int64_min_over_minus_one(op)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = evaluate_many(formula, graph.heap_matrix)
    assert values.tolist() == [evaluate(formula, state) for state in graph.heap_matrix.tolist()]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=0, max_size=5), st.lists(st.integers(0, 2**32), min_size=1, max_size=6))
@example([], [0, 1, 2, 3]).via("no heaps")
@example([0, 0], [0, 1, 2, 3]).via("empty heaps only")
@example([5], [0, 1, 2, 3]).via("one heap")
@example([3, 0], [0, 1, 2, 3]).via("an empty heap")
def test_multiset_fitness_equals_edge_list_fitness(root, seeds):
    graph = build_graph(root, MULTISET)
    n = len(root)
    formulas = [random_chromosome(1 + seed % 15, n, random.Random(seed)) for seed in seeds]
    edges = reference_edges(graph)
    for c in formulas + special_formulas(n):
        assert graph_fitness(c, graph) == edge_list_fitness(c, graph, edges), (root, c)
