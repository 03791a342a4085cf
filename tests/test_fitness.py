import random

import pytest

from conftest import chrom, worked_example, xor3_minus_a4, xor_chain
from mepnim.expr import Chromosome, Gene
from mepnim.fitness import INVALID, Label, graph_fitness
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
