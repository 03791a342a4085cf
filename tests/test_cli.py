import contextlib
import io
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mepnim
from conftest import worked_example, xor_chain
from mepnim.cli import COMMANDS, SETTINGS, main
from mepnim.expr import format_chromosome, parse_chromosome
from mepnim.fitness import graph_fitness
from mepnim.game import StateSpaceMode, bfs_order, build_graph
from mepnim.oracle import retrograde_p_mask


@pytest.fixture
def xor_file(tmp_path):
    path = tmp_path / "xor.mep"
    path.write_text(format_chromosome(xor_chain(4), heaps=4) + "\n")
    return str(path)


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "worked.mep"
    path.write_text(format_chromosome(worked_example()) + "\n")
    return str(path)


TABLE_322_TUPLE = """\
(3, 2, 2): N
(2, 2, 2): N
(1, 2, 2): N
(0, 2, 2): P
(3, 1, 2): P
(3, 0, 2): N
(3, 2, 1): P
(3, 2, 0): N
(2, 1, 2): N
(2, 0, 2): P
(2, 2, 1): N
(2, 2, 0): P
(1, 1, 2): N
(1, 0, 2): N
(1, 2, 1): N
(1, 2, 0): N
(0, 1, 2): N
(0, 0, 2): N
(0, 2, 1): N
(0, 2, 0): N
(3, 1, 1): N
(3, 1, 0): N
(3, 0, 1): N
(3, 0, 0): N
(2, 1, 1): N
(2, 1, 0): N
(2, 0, 1): N
(2, 0, 0): N
(1, 1, 1): N
(1, 1, 0): P
(1, 0, 1): P
(1, 0, 0): N
(0, 1, 1): P
(0, 1, 0): N
(0, 0, 1): N
(0, 0, 0): P
"""


class TestOracle:
    def test_table_for_21_tuple(self, capsys):
        assert main(["oracle", "--heaps", "2,1", "--state-space", "tuple"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        assert "(2, 1): N" in lines
        assert "(0, 0): P" in lines

    def test_full_table_for_322_tuple_in_bfs_order(self, capsys):
        # the rows come in breadth-first discovery order from the root
        assert main(["oracle", "--heaps", "3,2,2", "--state-space", "tuple"]) == 0
        assert capsys.readouterr().out == TABLE_322_TUPLE

    @pytest.mark.parametrize("heaps,mode", [((5, 5, 5, 5, 5), "tuple"), ((9, 9, 9, 9, 9, 9), "multiset")])
    def test_table_of_several_chunks_lists_each_state_in_bfs_order(self, heaps, mode, capsys):
        graph = build_graph(heaps, StateSpaceMode(mode))
        is_p = retrograde_p_mask(graph)
        expected = "".join(
            f"({', '.join(map(str, graph.nodes[k]))}): {'P' if is_p[k] else 'N'}\n" for k in bfs_order(graph)
        )
        assert main(["oracle", "--heaps", ",".join(map(str, heaps)), "--state-space", mode]) == 0
        assert capsys.readouterr().out == expected

    def test_multiset_table_merges_permutations(self, capsys):
        assert main(["oracle", "--heaps", "2,1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5  # (2,1) (2,0) (1,1) (1,0) (0,0)

    def test_requires_heaps(self, capsys):
        assert main(["oracle"]) == 2
        assert "requires --heaps" in capsys.readouterr().err

    def test_state_space_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "mode.cfg"
        cfg.write_text("state-space = tuple\nheaps = 2,1\n")
        assert main(["oracle", "--config", str(cfg)]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 6


class TestFitness:
    def test_worked_example_breakdown(self, worked_file, capsys):
        assert main(["fitness", "--formula-file", worked_file,
                     "--heaps", "2,1", "--state-space", "tuple"]) == 0
        out = capsys.readouterr().out
        assert "fitness: 4" in out
        assert "rule i" in out and ": 4" in out
        assert "rule iii" in out

    def test_parse_error_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.mep"
        bad.write_text("1: a1\n2: xor 3 1\n")
        assert main(["fitness", "--formula-file", str(bad), "--heaps", "2,1"]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_invalid_formula_reported(self, tmp_path, capsys):
        div = tmp_path / "div.mep"
        div.write_text("1: a1\n2: a2\n3: div 1 2\n")
        assert main(["fitness", "--formula-file", str(div), "--heaps", "2,1"]) == 0
        assert "invalid" in capsys.readouterr().out


class TestVerify:
    def test_correct_formula_agrees(self, xor_file, capsys):
        assert main(["verify", "--formula-file", xor_file, "--heaps", "4,4,4,4"]) == 0
        assert "all 70 states" in capsys.readouterr().out

    def test_wrong_formula_fails_with_disagreements(self, worked_file, capsys):
        assert main(["verify", "--formula-file", worked_file,
                     "--heaps", "2,1", "--state-space", "tuple"]) == 4
        out = capsys.readouterr().out
        assert "disagrees" in out
        assert "(2, 1)" in out


SUCCESS_REPORT = """\
heaps = 2,2
state-space = tuple
pop = 30
len = 8
gens = 40
crossover-prob = 1
mutations = 3
func-prob = 0.6
seed = 1
success = true
generation-of-success = 18
generations-run = 18
best-fitness = 0
formula = (a1 - a2)
"""

EXHAUSTED_REPORT = """\
heaps = 2,2
state-space = multiset
pop = 6
len = 1
gens = 2
crossover-prob = 0.9
mutations = 2
func-prob = 0.5
seed = 0
success = false
generations-run = 2
best-fitness = 3
formula = a1
"""

SWEEP_CONFIG = """\
name = exp2
runs = 1
master-seed = 7
heaps = 2,2
state-space = multiset
"""


class TestEchoedSettings:
    """The resolved settings are echoed byte for byte into the output files."""

    def test_report_of_a_successful_run(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("crossover-prob = 1\nfunc-prob = 0.6\nstate-space = tuple\n")
        code = main(["evolve", "--config", str(cfg), "--heaps", "2,2", "--pop", "30", "--gens", "40",
                     "--len", "8", "--seed", "1", "--mutations", "3", "--out", str(tmp_path / "ok.mep")])
        assert code == 0
        assert (tmp_path / "ok.report.txt").read_text() == SUCCESS_REPORT

    def test_report_of_an_exhausted_run(self, tmp_path):
        code = main(["evolve", "--heaps", "2,2", "--pop", "6", "--gens", "2",
                     "--len", "1", "--seed", "0", "--out", str(tmp_path / "never.mep")])
        assert code == 3
        assert (tmp_path / "never.report.txt").read_text() == EXHAUSTED_REPORT

    def test_sidecar_of_a_sweep(self, tmp_path, capsys):
        code = main(["experiment", "--name", "exp2", "--runs", "1", "--heaps", "2,2",
                     "--master-seed", "7", "--out", str(tmp_path / "r.csv")])
        assert code == 0
        assert (tmp_path / "r.config.txt").read_text() == SWEEP_CONFIG


class TestEvolve:
    def test_small_run_writes_parseable_formula(self, tmp_path, capsys):
        out = tmp_path / "best.mep"
        code = main(["evolve", "--heaps", "2,2", "--pop", "30", "--gens", "40",
                     "--len", "8", "--seed", "1", "--out", str(out)])
        assert code == 0
        chrom = parse_chromosome(out.read_text())
        graph = build_graph((2, 2), StateSpaceMode.MULTISET)
        assert graph_fitness(chrom, graph)[0] == 0
        report = (tmp_path / "best.report.txt").read_text()
        assert "pop = 30" in report and "seed = 1" in report and "success = true" in report
        assert "formula = " in report

    def test_budget_exhaustion_exit_code(self, tmp_path):
        # a single-gene chromosome cannot classify (2,2) perfectly, so any
        # budget runs out
        out = tmp_path / "never.mep"
        code = main(["evolve", "--heaps", "2,2", "--pop", "6", "--gens", "2",
                     "--len", "1", "--seed", "0", "--out", str(out)])
        assert code == 3
        assert not out.exists()
        assert (tmp_path / "never.report.txt").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        assert main(["evolve", "--heaps", "2,2", "--pop", "3",
                     "--out", str(tmp_path / "x.mep")]) == 2
        assert "population_size" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        args = ["evolve", "--heaps", "2,2", "--pop", "30", "--gens", "40",
                "--len", "8", "--seed", "5"]
        out1, out2 = tmp_path / "a.mep", tmp_path / "b.mep"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.report.txt").read_bytes() == (tmp_path / "b.report.txt").read_bytes()

    def test_config_file_merging_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("heaps = 2,2\npop = 8\ngens = 5\nseed = 3\n# comment\n")
        out = tmp_path / "cfg.mep"
        main(["evolve", "--config", str(cfg), "--gens", "2", "--out", str(out)])
        report = (tmp_path / "cfg.report.txt").read_text()
        assert "pop = 8" in report      # from the config file
        assert "gens = 2" in report     # flag overrides
        assert "heaps = 2,2" in report


class TestExperiment:
    def test_small_sweep_writes_csv_and_config(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        code = main(["experiment", "--name", "exp2", "--runs", "1", "--heaps", "2,2",
                     "--master-seed", "7", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "param,value,runs,successes,success_rate,mean_gens_to_success,mean_best_fitness"
        assert len(lines) == 11  # header + ten swept values
        assert all(line.startswith("generations,") for line in lines[1:])
        sidecar = (tmp_path / "results.config.txt").read_text()
        assert "master-seed = 7" in sidecar and "name = exp2" in sidecar

    def test_byte_identical_reruns(self, tmp_path):
        args = ["experiment", "--name", "exp3", "--runs", "1", "--heaps", "2,2",
                "--master-seed", "0"]
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_unknown_name_rejected_by_parser(self, capsys):
        assert main(["experiment", "--name", "exp9"]) == 2
        err = capsys.readouterr().err
        assert err == "error: bad value for --name 'exp9': expected one of exp1, exp2, exp3\n"


class TestPlay:
    def test_formula_beats_random_opponents(self, xor_file, capsys):
        assert main(["play", "--formula-file", xor_file, "--heaps", "4,4,4,3",
                     "--vs", "random", "--games", "20", "--seed", "1"]) == 0
        assert "won 20/20" in capsys.readouterr().out

    def test_single_game_prints_transcript(self, xor_file, capsys):
        assert main(["play", "--formula-file", xor_file, "--heaps", "4,4,4,3",
                     "--vs", "oracle", "--games", "1"]) == 0
        out = capsys.readouterr().out
        assert "move: heap" in out
        assert "won 1/1" in out

    def test_human_session(self, tmp_path, capsys, monkeypatch):
        two_heap = tmp_path / "xor2.mep"
        two_heap.write_text(format_chromosome(xor_chain(2), heaps=2) + "\n")
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2\n1 2\n"))
        assert main(["play", "--formula-file", str(two_heap), "--heaps", "2,2", "--human"]) == 0
        out = capsys.readouterr().out
        assert "machine takes the last object - machine wins" in out

    @pytest.mark.parametrize("mode,opponent,human_moves,state", [
        ("multiset", ["--vs", "random"], "", "(0, 0, 0, 0)"),
        ("multiset", ["--vs", "oracle"], "", "(1, 0, 0, 0)"),
        ("tuple", ["--vs", "random"], "", "(0, 0, 0, 1)"),
        ("tuple", ["--vs", "oracle"], "", "(0, 0, 1, 2)"),
        ("multiset", ["--human"], "2 4\n1 3\n1 2\n", "(1, 0, 0, 0)"),
        ("tuple", ["--human"], "2 4\n", "(4, 0, 3, 2)"),
    ], ids=["multiset-random", "multiset-oracle", "tuple-random", "tuple-oracle", "multiset-human", "tuple-human"])
    def test_dividing_formula_is_one_error_line(self, mode, opponent, human_moves, state, tmp_path, capsys, monkeypatch):
        # (a1 mod a2) * not a3 divides by zero on every state with a2 = 0
        formula = tmp_path / "div.mep"
        formula.write_text("1: a1\n2: a2\n3: mod 1 2\n4: a3\n5: not 4\n6: * 3 5\n")
        monkeypatch.setattr("sys.stdin", io.StringIO(human_moves))
        code = main(["play", "--formula-file", str(formula), "--heaps", "5,4,3,2", "--state-space", mode, *opponent])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: formula is invalid: modulo by zero on state {state}\n"

    def test_human_session_from_the_terminal(self, tmp_path, capsys):
        two_heap = tmp_path / "xor2.mep"
        two_heap.write_text(format_chromosome(xor_chain(2), heaps=2) + "\n")
        assert main(["play", "--formula-file", str(two_heap), "--heaps", "0,0", "--human"]) == 0
        assert capsys.readouterr().out == "heaps: (0, 0)\nnothing to play: the game is already over\n"

    def test_bad_heaps_value(self, xor_file, capsys):
        assert main(["play", "--formula-file", xor_file, "--heaps", "4,x"]) == 2
        assert "bad value for --heaps '4,x'" in capsys.readouterr().err

    def test_formula_heap_mismatch(self, xor_file, capsys):
        assert main(["play", "--formula-file", xor_file, "--heaps", "2,2"]) == 2
        assert "references heap a4" in capsys.readouterr().err


class TestBadSettings:
    """Each bad setting exits 2 with one `error:` line, never a traceback."""

    @staticmethod
    def assert_usage_error(code, capsys, *words):
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(word in err for word in words)
        return err

    @pytest.mark.parametrize("command,extra", [
        ("evolve", []),
        ("fitness", ["--formula-file"]),
        ("oracle", []),
        ("verify", ["--formula-file"]),
        ("experiment", ["--name", "exp1"]),
        ("play", ["--formula-file"]),
    ])
    def test_unknown_state_space_in_config(self, command, extra, xor_file, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("heaps = 2,2\nstate-space = foo\n")
        args = [command, "--config", str(cfg), *extra]
        if extra and extra[-1] == "--formula-file":
            args.append(xor_file)
        self.assert_usage_error(main(args), capsys, "state-space", "foo")

    @pytest.mark.parametrize("flag,value,field", [
        ("--crossover-prob", "2", "crossover_probability"),
        ("--mutations", "-1", "mutations_per_offspring"),
        ("--func-prob", "1.5", "function_gene_probability"),
    ])
    def test_out_of_range_operator_setting(self, flag, value, field, tmp_path, capsys):
        code = main(["evolve", "--heaps", "2,2", flag, value, "--out", str(tmp_path / "x.mep")])
        self.assert_usage_error(code, capsys, field)

    def test_config_line_without_equals(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("heaps 2,2\n")
        code = main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "x.mep")])
        self.assert_usage_error(code, capsys, "config line 1", "key = value")

    def test_experiment_with_no_runs(self, tmp_path, capsys):
        code = main(["experiment", "--name", "exp1", "--runs", "0", "--out", str(tmp_path / "x.csv")])
        self.assert_usage_error(code, capsys, "runs_per_value")
        assert not (tmp_path / "x.csv").exists()

    def test_out_in_a_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.mep"
        code = main(["evolve", "--heaps", "2,2", "--pop", "6", "--gens", "2", "--out", str(out)])
        self.assert_usage_error(code, capsys, "cannot write", "No such file or directory")
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("command,extra", [
        ("evolve", []),
        ("fitness", ["--formula-file"]),
        ("oracle", []),
        ("verify", ["--formula-file"]),
        ("experiment", ["--name", "exp1"]),
        ("play", ["--vs", "oracle", "--formula-file"]),
    ])
    def test_game_above_max_states_refused_before_build(self, command, extra, xor_file, tmp_path, capsys):
        # 31**5 = 28,629,151 states, far above the default limit of 10**6
        args = [command, "--heaps", "30,30,30,30,30", "--state-space", "tuple", *extra]
        if extra and extra[-1] == "--formula-file":
            args.append(xor_file)
        if command in ("evolve", "experiment"):
            args += ["--out", str(tmp_path / "out")]
        t0 = time.perf_counter()
        code = main(args)
        assert time.perf_counter() - t0 < 0.5
        self.assert_usage_error(code, capsys, "28629151 tuple states", "--max-states 1000000")
        assert list(tmp_path.iterdir()) == [tmp_path / "xor.mep"]

    @pytest.mark.parametrize("command,extra", [
        ("evolve", []),
        ("fitness", ["--formula-file"]),
        ("oracle", []),
        ("verify", ["--formula-file"]),
        ("experiment", ["--name", "exp1"]),
        ("play", ["--vs", "oracle", "--formula-file"]),
    ])
    def test_multiset_game_above_max_edges_refused_before_build(self, command, extra, tmp_path, capsys):
        # (65536,) has 65,537 states, under the default limit of 10**6, but
        # 2,147,516,416 edges: building it runs out of memory
        formula = tmp_path / "a1.mep"
        formula.write_text("1: a1\n")
        args = [command, "--heaps", "65536", *extra]
        if extra and extra[-1] == "--formula-file":
            args.append(str(formula))
        if command in ("evolve", "experiment"):
            args += ["--out", str(tmp_path / "out")]
        t0 = time.perf_counter()
        code = main(args)
        assert time.perf_counter() - t0 < 0.5
        self.assert_usage_error(code, capsys, "2147516416 multiset edges", "more than 64000000 edges",
                                "--max-states 1000000")
        assert list(tmp_path.iterdir()) == [formula]

    def test_edge_bound_is_the_largest_multiset_game_allowed(self, capsys):
        # (200,) multiset has 201 states and 20,100 edges: 64 * 315 = 20,160
        assert main(["oracle", "--heaps", "200", "--max-states", "315"]) == 0
        capsys.readouterr()
        code = main(["oracle", "--heaps", "200", "--max-states", "314"])
        self.assert_usage_error(code, capsys, "20100 multiset edges", "more than 20096 edges", "--max-states 314")

    def test_tuple_game_is_not_refused_by_its_edges(self, capsys):
        # (1000,) tuple has 1,001 states and 500,500 moves, but a tuple graph
        # stores no edges
        assert main(["oracle", "--heaps", "1000", "--state-space", "tuple", "--max-states", "1001"]) == 0

    @pytest.mark.parametrize("opponent", [["--vs", "random"], ["--vs", "oracle"], ["--human"]])
    def test_play_refuses_a_large_game_against_every_opponent(self, opponent, tmp_path, capsys):
        # (2000000, 2000000) has about 2e12 multiset states, refused on its
        # 1 + sum(heaps) alone; playing it would list up to 4e6 children per
        # move, whoever the opponent
        formula = tmp_path / "a1.mep"
        formula.write_text("1: a1\n")
        t0 = time.perf_counter()
        code = main(["play", "--heaps", "2000000,2000000", "--formula-file", str(formula), *opponent])
        assert time.perf_counter() - t0 < 0.5
        self.assert_usage_error(code, capsys, "at least 4000001 multiset states", "--max-states 1000000")

    @pytest.mark.parametrize("command", ["fitness", "verify", "play"])
    @pytest.mark.parametrize("heaps,extra", [
        ("2,2,2,2,2,2", []),
        ("20,20,20,20,20,20", []),  # 230,230 multiset states and 11.2M edges
        ("20,20,20,20,20,20", ["--max-states", "1"]),
    ])
    def test_formula_reading_a_missing_heap_refused_before_the_game_is_counted(
        self, command, heaps, extra, tmp_path, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the game was counted or built")

        monkeypatch.setattr("mepnim.cli.state_count", refuse)
        monkeypatch.setattr("mepnim.cli.build_graph", refuse)
        formula = tmp_path / "a7.mep"
        formula.write_text("1: a7\n")
        code = main([command, "--formula-file", str(formula), "--heaps", heaps, *extra])
        err = self.assert_usage_error(code, capsys)
        assert err == "error: formula references heap a7 but the game has 6 heaps\n"

    def test_max_states_is_the_largest_game_allowed(self, tmp_path, capsys):
        # (2,1) tuple has 6 states
        assert main(["oracle", "--heaps", "2,1", "--state-space", "tuple", "--max-states", "6"]) == 0
        capsys.readouterr()
        code = main(["oracle", "--heaps", "2,1", "--state-space", "tuple", "--max-states", "5"])
        self.assert_usage_error(code, capsys, "6 tuple states", "--max-states 5")

    def test_max_states_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("heaps = 4,4,4,4\nmax-states = 69\n")
        self.assert_usage_error(main(["oracle", "--config", str(cfg)]), capsys, "70 multiset states")

    def test_huge_multiset_heap_refused_without_counting(self, capsys):
        t0 = time.perf_counter()
        code = main(["oracle", "--heaps", "1000000000,3"])
        assert time.perf_counter() - t0 < 0.5
        self.assert_usage_error(code, capsys, "at least 1000000004 multiset states")

    def test_many_small_heaps_refused_by_their_cells(self, tmp_path, capsys):
        # 100,001 multiset states pass the state bound, but their heap matrix
        # would hold 100,001 x 100,000 int64 cells
        out = tmp_path / "out.mep"
        t0 = time.perf_counter()
        code = main(["evolve", "--heaps", ",".join(["1"] * 100_000), "--out", str(out)])
        assert time.perf_counter() - t0 < 0.5
        self.assert_usage_error(code, capsys, "at least 100001 multiset states of 100000 heaps",
                                "16000000 heap cells", "--max-states 1000000")
        assert list(tmp_path.iterdir()) == []

    def test_max_states_below_one(self, capsys):
        self.assert_usage_error(main(["oracle", "--heaps", "2,1", "--max-states", "0"]), capsys, "--max-states")

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("heaps = 2,2\npopp = 7\n")
        code = main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "x.mep")])
        self.assert_usage_error(code, capsys, "line 2", "popp")

    @pytest.mark.parametrize("key,value", [("human", "true"), ("config", "other.cfg"), ("help", "yes")])
    def test_key_that_is_no_setting(self, key, value, xor_file, tmp_path, capsys):
        # flags that are not settings are not config keys either
        cfg = tmp_path / "extra.cfg"
        cfg.write_text(f"heaps = 4,4,4,4\n{key} = {value}\n")
        code = main(["play", "--config", str(cfg), "--formula-file", xor_file])
        self.assert_usage_error(code, capsys, f"config line 2: unknown key '{key}'")

    @pytest.mark.parametrize("argv,words", [
        (["oracle", "--heaps", "2,1", "--pop", "abc"], ["unrecognized arguments: --pop abc"]),
        (["evolve", "--heaps", "2,2", "--pop", "abc"], ["--pop 'abc'", "expected an integer"]),
        (["evolve", "--heaps", "2,2", "--popp", "3"], ["unrecognized arguments: --popp 3"]),
        (["evolve", "--heaps"], ["--heaps", "expected one argument"]),
        (["experiment", "--name", "exp9"], ["--name 'exp9'", "exp1, exp2, exp3"]),
        (["play", "--vs", "human"], ["--vs 'human'", "random, oracle"]),
        (["oracle", "--heaps", "2,1", "--state-space", "foo"], ["--state-space 'foo'", "multiset or tuple"]),
        (["evolve", "--heaps", "2,2", "--out", ""], ["--out ''", "a file path"]),
        ([], ["required: command"]),
        (["solve"], ["invalid choice: 'solve'"]),
    ])
    def test_bad_command_line_is_one_error_line(self, argv, words, tmp_path, capsys):
        self.assert_usage_error(main(argv), capsys, *words)

    @pytest.mark.parametrize("key,value", [
        ("pop", "abc"), ("heaps", "2,-1"), ("crossover-prob", "x"), ("max-states", "0"), ("state-space", "foo"),
    ])
    def test_flag_and_config_value_read_the_same(self, key, value, tmp_path, capsys):
        out = ["--out", str(tmp_path / "x.mep")]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"heaps = 2,2\n{key} = {value}\n")
        from_config = self.assert_usage_error(main(["evolve", "--config", str(cfg), *out]), capsys)
        from_flag = self.assert_usage_error(main(["evolve", "--heaps", "2,2", f"--{key}", value, *out]), capsys)
        assert from_flag == from_config
        assert f"--{key} {value!r}" in from_flag

    def test_unreadable_formula_file(self, tmp_path, capsys):
        binary = tmp_path / "binary.mep"
        binary.write_bytes(b"\xff\xfe\x00")
        for path in (str(binary), str(tmp_path / "missing.mep"), str(tmp_path)):
            code = main(["verify", "--formula-file", path, "--heaps", "2,1"])
            self.assert_usage_error(code, capsys, f"--formula-file {path!r}")

    def test_help_shows_each_default(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit):
            main(["evolve", "--help"])
        text = capsys.readouterr().out
        for line in ("(required)", "population size (default 100)", "crossover probability (default 0.9)",
                     "(default multiset)", "(default best.mep)", "(default 1000000)"):
            assert line in text

    def test_key_of_another_subcommand_is_accepted(self, xor_file, tmp_path, capsys):
        # one file can serve both evolve and verify
        cfg = tmp_path / "shared.cfg"
        cfg.write_text(f"heaps = 4,4,4,4\npop = 7\nformula-file = {xor_file}\n")
        assert main(["verify", "--config", str(cfg)]) == 0
        assert "agrees" in capsys.readouterr().out


class TestRunAsModule:
    """``python -m mepnim`` runs the same command line as `main`."""

    @staticmethod
    def run(*args):
        env = dict(os.environ, PYTHONPATH=str(Path(mepnim.__file__).parent.parent))
        return subprocess.run([sys.executable, "-m", "mepnim", *args], capture_output=True, text=True, env=env)

    def test_help_exits_0(self):
        done = self.run("--help")
        assert done.returncode == 0
        assert done.stdout.startswith("usage: mepnim")

    def test_bad_flag_is_one_error_line(self):
        done = self.run("oracle", "--heaps", "2,1", "--no-such-flag")
        assert done.returncode == 2
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "--no-such-flag" in done.stderr

    def test_closed_output_exits_1_without_a_traceback(self):
        # 100,000 lines, far more than a pipe holds, as `mepnim oracle ... | head -1` reads them
        env = dict(os.environ, PYTHONPATH=str(Path(mepnim.__file__).parent.parent))
        argv = [sys.executable, "-m", "mepnim", "oracle", "--heaps", "9,9,9,9,9", "--state-space", "tuple"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as done:
            assert done.stdout.readline() == b"(9, 9, 9, 9, 9): N\n"
            done.stdout.close()
            err = done.stderr.read()
        assert (done.returncode, err) == (1, b"")

    def test_subcommand_output_equals_main(self, capsys):
        assert main(["oracle", "--heaps", "2,1", "--state-space", "tuple"]) == 0
        done = self.run("oracle", "--heaps", "2,1", "--state-space", "tuple")
        assert (done.returncode, done.stdout) == (0, capsys.readouterr().out)


# Good and bad values for every setting; the good ones keep each run small.
FUZZ_VALUES = {
    "formula-file": (["xor2.mep", "a1.mep", "div.mep"], ["bad.mep", "binary.mep", "missing.mep", ""]),
    "name": (["exp1", "exp2", "exp3"], ["exp9", ""]),
    "runs": (["1"], ["0", "-1", "x"]),
    "master-seed": (["0", "5", "-2"], ["1e3"]),
    "heaps": (["2,1", "1,1,1", "3", "0", "2,2"], ["", "4,x", "-1", "2,,1", "1000000000,3", "9,9,9"]),
    "state-space": (["multiset", "tuple"], ["foo"]),
    "pop": (["4", "6"], ["3", "abc"]),
    "len": (["1", "5"], ["0", "x"]),
    "gens": (["1", "2"], ["0", "1.5"]),
    "crossover-prob": (["0", "0.5", "1"], ["2", "nan", "x"]),
    "mutations": (["0", "2"], ["-1", "x"]),
    "func-prob": (["0.5", "1"], ["-0.1", "x"]),
    "seed": (["0", "7", "-3"], ["x"]),
    "vs": (["random", "oracle"], ["human"]),
    "games": (["1", "3"], ["0", "x"]),
    "out": (["o.mep", "o.csv"], ["", "/", ".", "no/such/dir/o.mep"]),
    "max-states": (["5", "40"], ["0", "x"]),
}
FUZZ_ANY_VALUE = sorted({value for pools in FUZZ_VALUES.values() for pool in pools for value in pool})

# Flags put before the drawn ones: a run that is not refused stays small
# even where a drawn flag overrides one of them.
FUZZ_BUDGET = {
    "evolve": ["--pop", "6", "--gens", "2"],
    "experiment": ["--runs", "1"],
}
FUZZ_REQUIRED = {"heaps": "2,1", "formula-file": "xor2.mep", "name": "exp2"}


@st.composite
def fuzz_setting(draw, command):
    """Mostly a setting of `command` with a good value, now and then a bad
    value, a value of another setting or a name that is no setting."""
    own = [s.name for s in SETTINGS if command in s.defaults]
    name = draw(st.sampled_from(own if own and draw(st.integers(0, 9)) else [*FUZZ_VALUES, "popp", "human"]))
    good, bad = FUZZ_VALUES.get(name, ([], FUZZ_ANY_VALUE))
    pool = good if good and draw(st.integers(0, 5)) else bad if draw(st.booleans()) else FUZZ_ANY_VALUE
    return name, draw(st.sampled_from(pool))


@st.composite
def fuzz_argv(draw):
    """An argv for `main` and the text of the config file `fuzz.cfg`."""
    command = draw(st.sampled_from(COMMANDS)) if draw(st.integers(0, 19)) else "solve"
    argv = []
    if command in COMMANDS and draw(st.integers(0, 19)):
        argv += [command, "--max-states", "40", *FUZZ_BUDGET.get(command, [])]
        for s in SETTINGS:
            if s.name in FUZZ_REQUIRED and command in s.defaults and draw(st.integers(0, 4)):
                argv += [f"--{s.name}", FUZZ_REQUIRED[s.name]]
    elif draw(st.booleans()):
        argv.append(command)
    for name, value in draw(st.lists(fuzz_setting(command), max_size=4)):
        argv += [f"--{name}", value]
    if draw(st.booleans()):
        bad_config = st.sampled_from(["no.cfg", "binary.mep"])
        argv += ["--config", "fuzz.cfg" if draw(st.integers(0, 5)) else draw(bad_config)]
    if command == "play" and draw(st.integers(0, 4)) == 0:
        argv.append("--human")
    config = "".join(f"{name} = {value}\n" for name, value in draw(st.lists(fuzz_setting(command), max_size=4)))
    return argv, config


def test_names_in_fuzz_are_the_settings():
    assert list(FUZZ_VALUES) == [s.name for s in SETTINGS]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=fuzz_argv())
def test_fuzz_main_exits_with_a_documented_code(case, tmp_path, monkeypatch):
    # one working directory serves every example
    argv, config = case
    monkeypatch.chdir(tmp_path)
    if not Path("xor2.mep").exists():
        Path("xor2.mep").write_text(format_chromosome(xor_chain(2), heaps=2) + "\n")
        Path("a1.mep").write_text("1: a1\n")
        Path("div.mep").write_text("1: a1\n2: a2\n3: mod 1 2\n")  # a1 mod a2
        Path("bad.mep").write_text("1: a1\n2: xor 3 1\n")
        Path("binary.mep").write_bytes(b"\xff\xfe\x00")
    Path("fuzz.cfg").write_text(config)
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
