"""A tuple game is built, labeled, verified, scored and played against the
oracle without edge arrays, which a tuple graph does not have, or its node
tuples."""

import pytest

from conftest import chrom, xor_chain
from mepnim.cli import main
from mepnim.fitness import FitnessBreakdown, Label, graph_fitness
from mepnim.game import GameGraph, StateSpaceMode, build_graph
from mepnim.oracle import bouton_label, retrograde_p_mask, verify_formula
from mepnim.play import classifier_strategy, formula_classifier, oracle_classifier, play_game

TUPLE = StateSpaceMode.TUPLE


@pytest.fixture
def no_edges_or_nodes(monkeypatch):
    def refuse(*args):
        pytest.fail("a tuple graph built its node tuples")

    monkeypatch.setattr(GameGraph, "nodes", property(refuse))
    graph = build_graph((2, 1), TUPLE)
    assert graph.edge_offsets is None and graph.edge_dst is None


def test_tuple_pipeline_builds_no_edges(no_edges_or_nodes):
    graph = build_graph((3, 5, 6), TUPLE)
    assert graph.num_nodes == 168 and graph.num_edges == 1176
    rows = [tuple(row) for row in graph.heap_matrix.tolist()]
    assert retrograde_p_mask(graph).tolist() == [bouton_label(s) is Label.P for s in rows]
    assert verify_formula(xor_chain(3), graph).agrees
    wrong = verify_formula(chrom("a1", "a2", ("-", 1, 2)), graph)  # P iff a1 == a2
    assert wrong.disagreements == tuple(s for s in rows if (s[0] == s[1]) != (bouton_label(s) is Label.P))
    assert graph_fitness(xor_chain(3), graph) == (0, FitnessBreakdown(0, 0, 0))
    assert graph_fitness(chrom("a1", "a2", ("-", 1, 2)), graph)[0] > 0
    oracle = classifier_strategy(oracle_classifier(graph), TUPLE)
    formula = classifier_strategy(formula_classifier(xor_chain(3), 3), TUPLE)
    assert play_game(oracle, formula, (3, 5, 6), TUPLE).winner == 2  # the root is P


def test_play_against_the_oracle_builds_no_edges(no_edges_or_nodes, tmp_path, capsys):
    formula = tmp_path / "xor.mep"
    formula.write_text("1: a1\n2: a2\n3: xor 1 2\n4: a3\n5: xor 3 4\n")
    args = ["play", "--formula-file", str(formula), "--heaps", "3,5,7", "--state-space", "tuple", "--vs", "oracle"]
    assert main(args + ["--games", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("move: heap 1 take 1 -> (2, 5, 7)\n")
    assert out.endswith("formula (moving first) won 1/1 games vs oracle\n")


def test_tuple_fitness_reads_only_the_box_axes():
    graph = build_graph((3, 5, 6), TUPLE)
    formulas = [xor_chain(3), chrom("a1", "a2", ("-", 1, 2)), chrom("n"), chrom("a2", "a3", ("div", 1, 2))]
    expected = [graph_fitness(c, graph) for c in formulas]
    graph.heap_matrix = graph.box_id = None
    assert [graph_fitness(c, graph) for c in formulas] == expected
    assert expected[0] == (0, FitnessBreakdown(0, 0, 0)) and expected[3][1] is None
