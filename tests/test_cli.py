import io
import time

import pytest

from conftest import worked_example, xor_chain
from mepnim.cli import main
from mepnim.expr import format_chromosome, parse_chromosome
from mepnim.fitness import graph_fitness
from mepnim.game import StateSpaceMode, build_graph


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

    def test_unknown_name_rejected_by_parser(self):
        with pytest.raises(SystemExit) as err:
            main(["experiment", "--name", "exp9"])
        assert err.value.code == 2


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

    def test_bad_heaps_value(self, xor_file, capsys):
        assert main(["play", "--formula-file", xor_file, "--heaps", "4,x"]) == 2
        assert "bad heap list" in capsys.readouterr().err

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

    def test_max_states_below_one(self, capsys):
        self.assert_usage_error(main(["oracle", "--heaps", "2,1", "--max-states", "0"]), capsys, "--max-states")

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("heaps = 2,2\npopp = 7\n")
        code = main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "x.mep")])
        self.assert_usage_error(code, capsys, "line 2", "popp")

    def test_key_of_another_subcommand_is_accepted(self, xor_file, tmp_path, capsys):
        # one file can serve both evolve and verify
        cfg = tmp_path / "shared.cfg"
        cfg.write_text(f"heaps = 4,4,4,4\npop = 7\nformula-file = {xor_file}\n")
        assert main(["verify", "--config", str(cfg)]) == 0
        assert "agrees" in capsys.readouterr().out
