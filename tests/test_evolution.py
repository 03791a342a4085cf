import random
from dataclasses import replace

import pytest

from conftest import xor_chain
from mepnim.evolution import EvolutionConfig, RunResult, evolve, tournament_select
from mepnim.experiments import SweepRow
from mepnim.fitness import INVALID, graph_fitness
from mepnim.game import StateSpaceMode, build_graph
from mepnim.genetics import OperatorConfig
from mepnim.oracle import VerifyResult, verify_formula
from mepnim.play import MoveRecord, PlayedGame


class TestTournament:
    def test_better_always_wins(self):
        for seed in range(50):
            assert tournament_select([0, 5], random.Random(seed)) == 0

    def test_invalid_loses_to_any_count(self):
        for seed in range(50):
            assert tournament_select([INVALID, 10**6], random.Random(seed)) == 1

    def test_ties_split_between_candidates(self):
        winners = {tournament_select([3, 3, 3], random.Random(seed)) for seed in range(100)}
        assert len(winners) > 1


class TestValidateConfig:
    """EvolutionConfig refuses an impossible configuration when it is made."""

    def test_population_floor(self):
        with pytest.raises(ValueError):
            EvolutionConfig(heaps=(2, 2), population_size=3)

    def test_empty_heaps(self):
        with pytest.raises(ValueError):
            EvolutionConfig(heaps=())

    def test_bad_budget_and_length(self):
        with pytest.raises(ValueError):
            EvolutionConfig(heaps=(2, 2), generations=0)
        with pytest.raises(ValueError):
            EvolutionConfig(heaps=(2, 2), chromosome_length=0)

    @pytest.mark.parametrize("field,value,message", [
        ("population_size", 3, "population_size must be >= 4"),
        ("chromosome_length", 0, "chromosome_length must be >= 1"),
        ("generations", 0, "generations must be >= 1"),
        ("heaps", (), "heaps must not be empty"),
        ("heaps", (2, -1), "heap sizes must be non-negative"),
    ])
    def test_each_bad_field_refused_when_made_or_replaced(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            EvolutionConfig(**{"heaps": (2, 2), field: value})
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(EvolutionConfig(heaps=(2, 2)), **{field: value})

    def test_smallest_valid_config_is_made(self):
        EvolutionConfig(heaps=(0,), population_size=4, chromosome_length=1, generations=1)


class TestEvolve:
    def test_single_heap_game_is_easy(self):
        # "a1" alone is a perfect classifier for (1,): nonzero on (1,), zero
        # on the terminal
        config = EvolutionConfig(heaps=(1,), population_size=10, chromosome_length=5,
                                 generations=20, seed=0)
        result = evolve(config)
        assert result.success
        assert result.best_fitness == 0
        graph = build_graph((1,), StateSpaceMode.MULTISET)
        assert verify_formula(result.best_chromosome, graph).agrees

    def test_same_seed_identical_results(self):
        config = EvolutionConfig(heaps=(2, 2), population_size=12, chromosome_length=8,
                                 generations=10, seed=123)
        assert evolve(config) == evolve(config)

    def test_different_seeds_differ(self):
        base = EvolutionConfig(heaps=(3, 3), population_size=12, chromosome_length=8,
                               generations=5, seed=0)
        results = {evolve(replace(base, seed=s)).best_chromosome for s in range(5)}
        assert len(results) > 1

    def test_history_is_non_increasing(self):
        config = EvolutionConfig(heaps=(3, 3, 3), population_size=16, chromosome_length=10,
                                 generations=15, seed=7)
        history = evolve(config).best_fitness_history
        assert all(a >= b for a, b in zip(history, history[1:]))

    def test_history_and_generation_accounting(self):
        config = EvolutionConfig(heaps=(2, 2), population_size=20, chromosome_length=8,
                                 generations=30, seed=5)
        result = evolve(config)
        # one history entry for initialization plus one per executed generation
        if result.success and result.generation_of_success > 0:
            assert len(result.best_fitness_history) == result.generation_of_success + 1
            assert result.best_fitness_history[-1] == 0
        assert len(result.best_fitness_history) <= config.generations + 1

    def test_success_iff_zero_fitness(self):
        for seed in range(5):
            config = EvolutionConfig(heaps=(2, 2), population_size=10, chromosome_length=6,
                                     generations=8, seed=seed)
            result = evolve(config)
            assert result.success == (result.best_fitness == 0)
            if not result.success:
                assert result.generation_of_success is None

    def test_hand_made_results_report_derived_values(self):
        c = xor_chain(2)
        won = RunResult(c, 0, (3, 1, 0))
        assert (won.success, won.generation_of_success) == (True, 2)
        assert RunResult(c, 0, (0,)).generation_of_success == 0
        lost = RunResult(c, 4, (5, 4))
        assert (lost.success, lost.generation_of_success) == (False, None)
        assert PlayedGame(()).winner == 2
        assert PlayedGame((MoveRecord(1, 1, 2, (0, 1)), MoveRecord(2, 2, 1, (0, 0)))).winner == 2
        assert PlayedGame((MoveRecord(1, 1, 2, (0, 0)),)).winner == 1
        assert VerifyResult(()).agrees is True
        assert VerifyResult((), invalid=True).agrees is False
        assert VerifyResult(((1, 0),)).agrees is False
        assert SweepRow("generations", 20, 4, 1, 7.0, 2.5).success_rate == 0.25
        assert SweepRow("generations", 2, 0, 0, None, None, error="bad").success_rate is None

    def test_best_chromosome_has_reported_fitness(self):
        config = EvolutionConfig(heaps=(3, 2), population_size=10, chromosome_length=8,
                                 generations=10, seed=11)
        result = evolve(config)
        graph = build_graph((3, 2), StateSpaceMode.MULTISET)
        assert graph_fitness(result.best_chromosome, graph)[0] == result.best_fitness

    def test_tuple_mode_runs(self):
        config = EvolutionConfig(heaps=(2, 1), population_size=12, chromosome_length=8,
                                 generations=20, seed=4, mode=StateSpaceMode.TUPLE)
        result = evolve(config)
        if result.success:
            graph = build_graph((2, 1), StateSpaceMode.TUPLE)
            assert verify_formula(result.best_chromosome, graph).agrees

    def test_length_one_chromosomes_supported(self):
        # no crossover possible at length 1; the loop must still run
        config = EvolutionConfig(heaps=(1,), population_size=6, chromosome_length=1,
                                 generations=3, seed=2,
                                 operators=OperatorConfig(mutations_per_offspring=1))
        result = evolve(config)
        assert result.best_fitness >= 0 or result.best_fitness == INVALID
