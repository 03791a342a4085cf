import pytest

from mepnim.evolution import EvolutionConfig, evolve
from mepnim.experiments import (
    CSV_HEADER,
    SweepRow,
    SweepSpec,
    derive_seed,
    emit_csv,
    experiment_spec,
    run_cell,
    run_sweep,
)

SMALL_BASE = EvolutionConfig(heaps=(2, 2), population_size=10, chromosome_length=8, generations=10)


def test_derived_seeds_are_stable_and_distinct():
    s = derive_seed(0, "population_size", 20, 0)
    assert s == derive_seed(0, "population_size", 20, 0)
    cells = {
        derive_seed(0, "population_size", 20, 1),
        derive_seed(0, "population_size", 40, 0),
        derive_seed(1, "population_size", 20, 0),
        derive_seed(0, "generations", 20, 0),
        s,
    }
    assert len(cells) == 5


def test_single_run_cell_with_a_succeeding_seed():
    # find a master seed whose lone derived run succeeds, then check the
    # cell reports exactly rate 1.0
    spec = SweepSpec("generations", (10,), SMALL_BASE, runs_per_value=1)
    for master in range(20):
        seed = derive_seed(master, "generations", 10, 0)
        if evolve(EvolutionConfig(heaps=(2, 2), population_size=10, chromosome_length=8,
                                  generations=10, seed=seed)).success:
            row = run_cell(spec, 10, master)
            assert (row.runs, row.successes, row.success_rate) == (1, 1, 1.0)
            assert row.mean_generations_to_success is not None
            return
    pytest.fail("no succeeding master seed among the first 20")


def test_sweep_is_deterministic_and_cells_are_isolated():
    spec = SweepSpec("generations", (5, 10), SMALL_BASE, runs_per_value=3)
    table = run_sweep(spec, master_seed=9)
    assert table == run_sweep(spec, master_seed=9)
    # re-running one cell in isolation reproduces its row
    assert run_cell(spec, 10, 9) == table[1]


def test_sweep_rates_are_consistent():
    spec = SweepSpec("population_size", (8, 12), SMALL_BASE, runs_per_value=4)
    for row in run_sweep(spec, master_seed=1):
        assert 0 <= row.successes <= row.runs
        assert row.success_rate == row.successes / row.runs
        assert row.error is None


def test_bad_cell_does_not_abort_sweep():
    spec = SweepSpec("population_size", (2, 8), SMALL_BASE, runs_per_value=2)
    bad, good = run_sweep(spec, master_seed=0)
    assert bad.error is not None and bad.runs == 0
    assert good.error is None and good.runs == 2


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec("seed", (1, 2), SMALL_BASE)
    with pytest.raises(ValueError):
        SweepSpec("generations", (5,), SMALL_BASE, runs_per_value=0)


class TestCsv:
    def test_header_only_for_empty_table(self):
        assert emit_csv(()) == CSV_HEADER + "\n"

    def test_row_rendering(self):
        row = SweepRow("population_size", 20, 50, 6, 41.5, 2.04)
        text = emit_csv((row,))
        assert text.splitlines()[0] == CSV_HEADER
        assert text.splitlines()[1] == "population_size,20,50,6,0.12,41.5,2.04"

    def test_blank_mean_when_no_successes(self):
        row = SweepRow("generations", 20, 50, 0, None, 3.5)
        assert emit_csv((row,)).splitlines()[1] == "generations,20,50,0,0,,3.5"

    def test_error_row_renders_blanks(self):
        row = SweepRow("population_size", 2, 0, 0, None, None, error="population_size must be >= 4")
        assert emit_csv((row,)).splitlines()[1] == "population_size,2,0,0,,,"

    def test_non_terminating_rate_rendering(self):
        row = SweepRow("chromosome_length", 35, 3, 1, 12.0, 0.5)
        assert emit_csv((row,)).splitlines()[1] == "chromosome_length,35,3,1,0.333333,12,0.5"


class TestStockExperiments:
    def test_exp1_sweeps_population(self):
        spec = experiment_spec("exp1")
        assert spec.parameter == "population_size"
        assert spec.values == tuple(range(20, 201, 20))
        assert spec.base.generations == 100
        assert spec.base.chromosome_length == 15
        assert spec.runs_per_value == 50

    def test_exp2_sweeps_generations(self):
        spec = experiment_spec("exp2")
        assert spec.parameter == "generations"
        assert spec.values == tuple(range(20, 201, 20))
        assert spec.base.population_size == 100
        assert spec.base.chromosome_length == 15

    def test_exp3_sweeps_length(self):
        spec = experiment_spec("exp3")
        assert spec.parameter == "chromosome_length"
        assert spec.values == tuple(range(5, 51, 5))
        assert spec.base.population_size == 100
        assert spec.base.generations == 50

    def test_default_game_is_4444_multiset(self):
        spec = experiment_spec("exp2")
        assert spec.base.heaps == (4, 4, 4, 4)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            experiment_spec("exp4")
