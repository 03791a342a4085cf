"""A tuple game is built, labeled, verified, scored and played against the
oracle without edge arrays, which a tuple graph does not have, or its node
tuples; from `BOX_VERIFY_STATES` states on, also without its heap
matrix."""

import tracemalloc

import numpy as np
import pytest

from conftest import chrom, xor_chain
from mepnim.cli import main
from mepnim.fitness import FitnessBreakdown, Label, graph_fitness
from mepnim.game import GameGraph, StateSpaceMode, build_graph
from mepnim.oracle import BOX_VERIFY_STATES, bouton_label, retrograde_p_mask, verify_formula
from mepnim.play import classifier_strategy, formula_classifier, oracle_classifier, play_game

TUPLE = StateSpaceMode.TUPLE


@pytest.fixture
def no_edges_or_nodes(monkeypatch):
    def refuse(*args):
        pytest.fail("a tuple graph built its heap matrix or node tuples")

    monkeypatch.setattr(GameGraph, "heap_matrix", property(refuse))
    monkeypatch.setattr(GameGraph, "nodes", property(refuse))
    graph = build_graph((2, 1), TUPLE)
    assert graph.edge_offsets is None and graph.edge_dst is None


def test_tuple_pipeline_builds_no_edges(no_edges_or_nodes):
    root = (7, 15, 0, 7, 15)  # the smallest box verified on the box, with an empty heap
    graph = build_graph(root, TUPLE)
    assert graph.num_nodes == BOX_VERIFY_STATES == 16384 and graph.num_edges == 360448
    rows = list(np.ndindex(graph.box_shape))  # in box code order, the node order
    assert retrograde_p_mask(graph).tolist() == [bouton_label(s) is Label.P for s in rows]
    assert verify_formula(xor_chain(5), graph).agrees
    wrong = verify_formula(chrom("a1", "a2", ("-", 1, 2)), graph)  # P iff a1 == a2
    assert wrong.disagreements == tuple(s for s in rows if (s[0] == s[1]) != (bouton_label(s) is Label.P))
    assert verify_formula(chrom("a1", "a3", ("div", 1, 2)), graph).invalid
    assert graph_fitness(xor_chain(5), graph) == (0, FitnessBreakdown(0, 0, 0))
    assert graph_fitness(chrom("a1", "a2", ("-", 1, 2)), graph)[0] > 0
    oracle = classifier_strategy(oracle_classifier(graph), TUPLE)
    formula = classifier_strategy(formula_classifier(xor_chain(5), 5), TUPLE)
    assert play_game(oracle, formula, root, TUPLE).winner == 2  # the root is P


def test_play_against_the_oracle_builds_no_edges(no_edges_or_nodes, tmp_path, capsys):
    formula = tmp_path / "xor.mep"
    formula.write_text("1: a1\n2: a2\n3: xor 1 2\n4: a3\n5: xor 3 4\n")
    args = ["play", "--formula-file", str(formula), "--heaps", "3,5,7", "--state-space", "tuple", "--vs", "oracle"]
    assert main(args + ["--games", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("move: heap 1 take 1 -> (2, 5, 7)\n")
    assert out.endswith("formula (moving first) won 1/1 games vs oracle\n")


def test_oracle_listing_builds_no_edges(no_edges_or_nodes, capsys):
    # more states than the listing decodes at a time
    assert main(["oracle", "--heaps", "7,15,0,7,15", "--state-space", "tuple"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 16384
    assert lines[0] == "(7, 15, 0, 7, 15): P" and lines[-1] == "(0, 0, 0, 0, 0): P"


def test_tuple_fitness_reads_only_the_box_axes():
    graph = build_graph((3, 5, 6), TUPLE)
    formulas = [xor_chain(3), chrom("a1", "a2", ("-", 1, 2)), chrom("n"), chrom("a2", "a3", ("div", 1, 2))]
    expected = [graph_fitness(c, graph) for c in formulas]
    graph.heap_matrix = None
    assert [graph_fitness(c, graph) for c in formulas] == expected
    assert expected[0] == (0, FitnessBreakdown(0, 0, 0)) and expected[3][1] is None


def test_huge_tuple_box_is_scored_on_the_heaps_read():
    # 16.8M states: a box-sized mask would take 16 MB, its counts more
    k, h = 4, 63
    graph = build_graph((h,) * k, TUPLE)
    size = graph.num_nodes
    assert size == (h + 1) ** k == 16777216

    def traced_fitness(formula):
        tracemalloc.start()
        try:
            scored = graph_fitness(formula, graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        return scored

    # a1 == 0 is P: each of the other k - 1 heaps moves between two P
    # states (h + 1)^(k - 2) h (h + 1) / 2 times, and every N state has
    # its P child a1 = 0
    rule_i = (k - 1) * (h + 1) ** (k - 2) * h * (h + 1) // 2
    assert rule_i == 24772608
    assert traced_fitness(chrom("a1")) == (rule_i, FitnessBreakdown(rule_i, 0, 0))
    assert traced_fitness(chrom("n")) == (size, FitnessBreakdown(0, size - 1, 1))  # all N
    edges = graph.num_edges
    assert traced_fitness(chrom("n", ("-", 1, 1))) == (edges, FitnessBreakdown(edges, 0, 0))  # all P
