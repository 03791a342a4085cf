import itertools
import random
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import chrom, reference_edges, worked_example, xor3_minus_a4, xor_chain
from mepnim import fitness
from mepnim.expr import _HEAP, Chromosome, EvalError, Gene, evaluate, evaluate_many
from mepnim.fitness import INVALID, FitnessBreakdown, graph_fitness
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
        assert classify((2, 1)) is True
        assert classify((2, 0)) is False

    def test_constant_heap_count_is_n_everywhere(self):
        assert formula_classifier(chrom("n"), 4)((0, 0, 0, 0)) is False


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
    only, a divisor of -1 at INT64_MIN, the xor rule, and formulas that
    read only some heaps: the last one, the first and the last, and one
    heap while being constant (always-P `a1 - a1` and always-N)."""
    formulas = [chrom("n"), chrom("n", ("not", 1)), chrom("n", ("-", 1, 1), ("div", 1, 2))]
    if n:
        formulas += [
            xor_chain(n),
            chrom("a1", ("-", 1, 1)),
            chrom("a1", ("-", 1, 1), ("not", 2)),
            chrom("a1", "n", ("mod", 2, 1)),  # divides by zero where a1 is 0
            int64_min_over_minus_one(),
            chrom(f"a{n}", "n", ("-", 1, 2)),  # P where the last heap holds n
            chrom("a1", f"a{n}", ("xor", 1, 2)),  # P where the first and last heaps are equal
        ]
    return formulas


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=0, max_size=6), st.lists(st.integers(0, 2**32), min_size=1, max_size=6))
@example([], [0, 1, 2, 3]).via("no heaps")
@example([0], [0, 1, 2, 3]).via("one empty heap")
@example([0, 3, 0, 2], [0, 1, 2, 3]).via("empty heaps between")
@example([3, 0, 2, 0], [0, 1, 2, 3]).via("the last heap, read by some formulas, empty")
@example([0, 4, 0, 0, 3], [0, 1, 2, 3]).via("the first heap empty, the last read, empty ones between")
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
    # warns of the overflow, so `div` must not reach it; `mod` passes
    # INT64_MIN mod -1 to np.fmod and relies on it returning 0 without a
    # warning, which this test pins
    graph = build_graph((3, 1), TUPLE)
    formula = int64_min_over_minus_one(op)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = evaluate_many(formula, graph.heap_matrix)
    assert values.tolist() == [evaluate(formula, state) for state in graph.heap_matrix.tolist()]


def with_budget(graph, left: int):
    """`graph` with its quotients' byte budget set to `left`: 0 for one
    whose budget is spent, far more than the graph for one where every
    read set but that of all the heaps gets a quotient on its second use."""
    cache = graph._quotients = fitness._Quotients(graph)
    cache.left, cache.closed = left, False
    return graph


def reads_of(c: Chromosome) -> int:
    return sum(1 << x for op, x, _ in set(c.program.code) if op == _HEAP)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=0, max_size=5), st.lists(st.integers(0, 2**32), min_size=1, max_size=6))
@example([], [0, 1, 2, 3]).via("no heaps")
@example([0, 0], [0, 1, 2, 3]).via("empty heaps only")
@example([5], [0, 1, 2, 3]).via("one heap")
@example([3, 0], [0, 1, 2, 3]).via("an empty heap")
@example([0, 4, 0, 2], [0, 1, 2, 3]).via("empty heaps among others")
@example([1], [0, 1, 2, 3]).via("a single heap of one")
@example([3, 3, 2], [0, 1, 2, 3]).via("class 0 holds non-terminal nodes when the last heap alone is read")
def test_multiset_fitness_equals_edge_list_fitness(root, seeds):
    # every formula is scored on its first use (per edge), on its second
    # (on the quotient, where it fits), on a graph with room for every
    # quotient, and on one whose budget is spent
    graph = build_graph(root, MULTISET)
    roomy = with_budget(build_graph(root, MULTISET), 2**40)
    spent = with_budget(build_graph(root, MULTISET), 0)
    n = len(root)
    formulas = [random_chromosome(1 + seed % 15, n, random.Random(seed)) for seed in seeds]
    edges = reference_edges(graph)
    everything = (1 << n) - 1
    for c in formulas + special_formulas(n):
        expected = edge_list_fitness(c, graph, edges)
        for g in (graph, graph, roomy, roomy, spent):
            assert graph_fitness(c, g) == expected, (root, c, g is graph, g is roomy)
        if graph.num_edges and reads_of(c) != everything:
            assert roomy._quotients.kept[reads_of(c)] is not None, (root, c)
    assert not spent._quotients.kept


def xor_of_heaps(heaps) -> Chromosome:
    """The xor of the 1-based heaps `heaps`, a formula that reads exactly them."""
    specs: list = [f"a{heaps[0]}"]
    for h in heaps[1:]:
        specs += [f"a{h}", ("xor", len(specs), len(specs) + 1)]
    return chrom(*specs)


@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_quotient_built_in_small_chunks_scores_the_same(chunk, monkeypatch):
    monkeypatch.setattr(fitness, "QUOTIENT_CHUNK_EDGES", chunk)
    root = (6, 5, 4, 3, 2)
    graph = with_budget(build_graph(root, MULTISET), 2**40)
    edges = reference_edges(graph)
    for heaps in [(1,), (5,), (2, 4), (1, 3, 5), (1, 2, 3, 4)]:
        c = xor_of_heaps(heaps)
        expected = edge_list_fitness(c, graph, edges)
        assert graph_fitness(c, graph) == graph_fitness(c, graph) == expected, heaps
        assert graph._quotients.kept[reads_of(c)] is not None


@pytest.mark.parametrize("root,reads", [((1,) * 64, range(63)), ((3,) * 40, range(1, 40)), ((4, 3, 3, 0), [1, 3])])
def test_classes_are_the_distinct_rows_of_the_heaps_read(root, reads):
    # (1,)*64 and (3,)*40 carry their mixed-radix code past int64
    graph = build_graph(root, MULTISET)
    first, classes = fitness._classes(graph, list(reads))
    rows = graph.heap_matrix[:, list(reads)]
    _, expected = np.unique(rows, axis=0, return_inverse=True)
    assert len(first) == expected.max() + 1
    assert classes[0] == 0  # the terminal's
    assert (rows[first][classes] == rows).all()  # each node's class holds its row
    assert (np.unique(np.stack([classes, expected.ravel()]), axis=1).shape[1]) == len(first)  # one class per row


def test_formula_reading_all_but_one_of_64_heaps_on_its_quotient():
    graph = with_budget(build_graph((1,) * 64, MULTISET), 2**40)
    c = xor_of_heaps(range(1, 64))
    expected = edge_list_fitness(c, graph, reference_edges(graph))
    assert graph_fitness(c, graph) == graph_fitness(c, graph) == expected
    assert graph._quotients.kept[reads_of(c)] is not None


def test_kept_quotients_stay_within_the_edge_bytes():
    graph = build_graph((6, 5, 4, 3, 2), MULTISET)
    subsets = [heaps for r in range(1, 6) for heaps in itertools.combinations(range(1, 6), r)]
    for heaps in subsets + [()]:
        c = xor_of_heaps(heaps) if heaps else chrom("n")
        graph_fitness(c, graph)
        graph_fitness(c, graph)
    cache = graph._quotients
    kept = [q for q in cache.kept.values() if q is not None]
    assert kept and len(kept) < len(subsets)  # the budget runs out before the read sets do
    assert sum(q.nbytes for q in kept) == graph.edge_dst.nbytes - cache.left <= graph.edge_dst.nbytes


@pytest.mark.parametrize("heaps", [(1,), (2, 4), (1, 3, 5)])
def test_quotient_build_peaks_under_1_mb(heaps):
    # a fresh graph each time, so that the whole budget is left
    graph = build_graph((9,) * 6, MULTISET)
    c = xor_of_heaps(heaps)
    graph_fitness(c, graph)
    tracemalloc.start()
    try:
        graph_fitness(c, graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph._quotients.kept[reads_of(c)] is not None
    assert peak < 2**20


def test_formula_reading_a_heap_the_game_lacks_is_refused_on_every_use():
    graph = build_graph((9,) * 6, MULTISET)
    c = chrom("a7", "a1", ("+", 1, 2))
    for _ in range(3):
        with pytest.raises(ValueError, match="references heap a7"):
            graph_fitness(c, graph)
    assert not graph._quotients.kept  # and no quotient spent budget on it


def test_small_graph_keeps_no_quotients(graph_4444):
    # 350 edges, below QUOTIENT_MIN_EDGES: every formula is scored per edge
    assert graph_4444.num_edges < fitness.QUOTIENT_MIN_EDGES
    for _ in range(2):
        graph_fitness(chrom("a1", "n", ("-", 1, 2)), graph_4444)
    assert graph_4444._quotients.closed and not graph_4444._quotients.kept


def test_single_call_on_a_fresh_graph_builds_nothing(monkeypatch):
    builds = []
    build = fitness._build_quotient
    monkeypatch.setattr(fitness, "_build_quotient", lambda *args: builds.append(args) or build(*args))
    c = xor_of_heaps((2, 3))
    fresh = build_graph((9,) * 6, MULTISET)
    graph_fitness(c, fresh)
    assert not builds and not fresh._quotients.kept
    graph_fitness(c, fresh)
    assert len(builds) == 1


def test_threads_sharing_a_graph_keep_its_quotients_consistent():
    # more threads than cores, switching often, released together onto the
    # same read sets of one graph: a build done twice, or a lost update to
    # the budget, breaks the byte count, and a half-kept quotient a score
    root = (6, 5, 4, 3, 2)
    reference = build_graph(root, MULTISET)
    edges = reference_edges(reference)
    formulas = [xor_of_heaps(heaps) for r in (1, 2) for heaps in itertools.combinations(range(1, 6), r)]
    expected = [edge_list_fitness(c, reference, edges) for c in formulas]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            graph = build_graph(root, MULTISET)
            start = threading.Barrier(6)
            results, errors = [], []

            def score():
                try:
                    start.wait(timeout=60)
                    for _ in range(2):
                        results.append([graph_fitness(c, graph) for c in formulas])
                except Exception as error:
                    errors.append(error)

            threads = [threading.Thread(target=score) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads) and not errors
            assert results == [expected] * 12
            cache = graph._quotients
            kept = [q for q in cache.kept.values() if q is not None]
            assert kept and sum(q.nbytes for q in kept) == graph.edge_dst.nbytes - cache.left
    finally:
        sys.setswitchinterval(interval)
