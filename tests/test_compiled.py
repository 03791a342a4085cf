"""Differential tests of the compiled chromosome form and the fitness cache.

The interpreter `reference_evaluate` is the reference for the generated
scalar `evaluate` and the vectorized `evaluate_many`; the validating
public constructor is the reference for the trusted path the variation
operators use; and chromosomes that compile to the same program code must
be indistinguishable to every evaluator.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_evaluators_agree, chrom
from mepnim import evolution
from mepnim.evolution import EvolutionConfig, evolve
from mepnim.expr import Chromosome, EvalError, Gene, evaluate_many, terminal_symbols
from mepnim.fitness import graph_fitness
from mepnim.game import StateSpaceMode, build_graph
from mepnim.genetics import OperatorConfig, crossover_one_point, mutate, random_chromosome

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1
EXTREMES = [0, 1, -1, 2, 3, 1 << 32, 1 << 62, INT64_MAX, INT64_MIN, INT64_MIN + 1]

heap_values = st.one_of(st.sampled_from(EXTREMES), st.integers(INT64_MIN, INT64_MAX))


@st.composite
def operator_lineages(draw, n_heaps=None):
    """Every chromosome along a random chain of operator applications:
    a random chromosome, then crossovers with fresh partners and mutations."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 5)) if n_heaps is None else n_heaps
    length = draw(st.integers(1, 20))
    func_prob = draw(st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.0]))
    config = OperatorConfig(function_gene_probability=func_prob,
                            mutations_per_offspring=draw(st.integers(0, 4)))
    lineage = [random_chromosome(length, n, rng, func_prob)]
    for _ in range(draw(st.integers(0, 6))):
        c = lineage[-1]
        if length >= 2 and rng.random() < 0.5:
            partner = random_chromosome(length, n, rng, func_prob)
            lineage.extend(crossover_one_point(c, partner, rng))
        lineage.append(mutate(lineage[-1], config, n, rng))
    return n, lineage


def with_introns(c: Chromosome, n_heaps: int, rng: random.Random) -> Chromosome:
    """The same active program, moved to other positions between random
    dead genes."""
    terminals = terminal_symbols(n_heaps)
    genes: list[Gene] = []
    moved: dict[int, int] = {}
    for pos in c.program.active:
        for _ in range(rng.randrange(3)):
            if genes and rng.random() < 0.5:
                op = rng.choice(["div", "mod", "*", "xor"])
                genes.append(Gene(op, (rng.randrange(len(genes)), rng.randrange(len(genes)))))
            else:
                genes.append(Gene(rng.choice(terminals)))
        gene = c.genes[pos]
        moved[pos] = len(genes)
        genes.append(Gene(gene.symbol, tuple(moved[a] for a in gene.args)))
    return Chromosome(tuple(genes))


@pytest.fixture(scope="module")
def graphs_4():
    return (build_graph((4, 4, 4, 4), StateSpaceMode.MULTISET),
            build_graph((2, 3, 1, 2), StateSpaceMode.TUPLE))


@settings(deadline=None)
@given(operator_lineages(), st.data())
def test_evaluate_many_matches_scalar_on_operator_outputs(lineage, data):
    n, chromosomes = lineage
    states = data.draw(st.lists(st.tuples(*[heap_values] * n), min_size=1, max_size=6))
    for c in chromosomes:
        assert_evaluators_agree(c, states, n)


@pytest.mark.parametrize("c,state", [
    # INT64_MIN div -1 and mod -1, the one overflowing division
    (chrom("a1", "a2", ("div", 1, 2)), (INT64_MIN, -1)),
    (chrom("a1", "a2", ("mod", 1, 2)), (INT64_MIN, -1)),
    # divisor -1 built from not 0
    (chrom("a1", "a2", ("not", 2), ("div", 1, 3)), (INT64_MIN, 0)),
    # overflowing products and sums
    (chrom("a1", ("*", 1, 1), ("*", 2, 2)), (INT64_MAX,)),
    (chrom("a1", "a2", ("*", 1, 2), ("+", 3, 3)), (1 << 40, 1 << 40)),
    # div by zero in dead code, live code on a terminal
    (chrom("a1", "a2", ("div", 1, 2), ("mod", 1, 2), "a1"), (7, 0)),
    (chrom("a1", "a2", ("div", 1, 2), ("-", 1, 1)), (INT64_MIN, 0)),
    # sums and differences wrapping at +-2^63
    (chrom("a1", "a2", ("+", 1, 2)), (INT64_MAX, 1)),
    (chrom("a1", "a2", ("-", 1, 2)), (INT64_MIN, 1)),
    (chrom("a1", "a2", ("-", 1, 2), ("*", 3, 3)), (INT64_MAX, INT64_MIN)),
    # div and mod by 0 on the active path
    (chrom("a1", "a2", ("div", 1, 2)), (7, 0)),
    (chrom("a1", "a2", ("mod", 1, 2), ("+", 3, 1)), (INT64_MIN, 0)),
    # heaps of 2^63 and more, read wrapped
    (chrom("a1", "a2", ("xor", 1, 2)), (1 << 63, (1 << 64) + 5)),
    (chrom("a1", "a2", ("div", 1, 2), ("mod", 1, 3)), ((1 << 63) + 3, (1 << 70) - 1)),
    # the heap count terminal
    (chrom("n", "a1", ("*", 1, 2), ("-", 3, 1)), (INT64_MAX, 0, 2)),
    (chrom("a1", "n", ("mod", 1, 2)), (INT64_MIN, 0, 0)),
])
def test_evaluate_many_matches_scalar_at_int64_extremes(c, state):
    assert_evaluators_agree(c, [state, (1,) * len(state), (0,) * len(state)], len(state))


@settings(deadline=None)
@given(operator_lineages())
def test_operator_outputs_pass_the_public_validator(lineage):
    _, chromosomes = lineage
    for c in chromosomes:
        assert Chromosome(c.genes) == c


@settings(deadline=None)
@given(operator_lineages(n_heaps=4), st.integers(0, 2**32 - 1))
def test_equal_keys_evaluate_and_score_identically(graphs_4, lineage, seed):
    _, chromosomes = lineage
    rng = random.Random(seed)
    for c in chromosomes:
        twin = with_introns(c, 4, rng)
        assert twin.program.code == c.program.code
        for graph in graphs_4:
            try:
                expected = evaluate_many(c, graph.heap_matrix, 4).tolist()
            except EvalError:
                with pytest.raises(EvalError):
                    evaluate_many(twin, graph.heap_matrix, 4)
            else:
                assert evaluate_many(twin, graph.heap_matrix, 4).tolist() == expected
            assert graph_fitness(twin, graph) == graph_fitness(c, graph)


def test_key_ignores_position_but_not_program():
    base = chrom("a1", "a2", ("xor", 1, 2))
    spread = chrom("a3", "a1", ("div", 1, 1), "a2", ("xor", 2, 4))
    assert base.program.code == spread.program.code
    assert chrom("a2", "a1", ("xor", 1, 2)).program.code != base.program.code
    assert chrom("a1", "a2", ("xor", 2, 1)).program.code != base.program.code
    assert chrom("a1", "a2", ("or", 1, 2)).program.code != base.program.code


@settings(deadline=None)
@given(operator_lineages())
def test_memoized_program_is_invisible_to_eq_hash_repr(lineage):
    _, chromosomes = lineage
    for c in chromosomes:
        fresh = Chromosome(c.genes)
        before = (repr(c), hash(c))
        c.program  # compile and memoize
        assert c == fresh and fresh == c
        assert (repr(c), hash(c)) == before == (repr(fresh), hash(fresh))
        assert c.program is c.program


def test_evolve_scores_each_distinct_program_once(monkeypatch):
    scored = []

    def recording_fitness(c, graph):
        scored.append(c.program.code)
        return graph_fitness(c, graph)

    monkeypatch.setattr(evolution, "graph_fitness", recording_fitness)
    config = EvolutionConfig(heaps=(3, 3, 3), population_size=20, chromosome_length=10,
                             generations=15, seed=4)
    result = evolve(config)
    assert len(scored) == len(set(scored))
    evaluations = config.population_size * len(result.best_fitness_history)
    assert 0 < len(scored) < evaluations
