"""Parameter sweeps over repeated evolution runs, with CSV output.

Each (parameter value, run index) cell gets its own seed derived from the
master seed by a stable hash, so any cell can be re-run in isolation and
sweeps are reproducible byte for byte.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

from .evolution import EvolutionConfig, evolve
from .fitness import INVALID

SWEEPABLE_PARAMETERS = ("population_size", "generations", "chromosome_length")

CSV_HEADER = "param,value,runs,successes,success_rate,mean_gens_to_success,mean_best_fitness"


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: tuple[int, ...]
    base: EvolutionConfig
    runs_per_value: int = 50

    def __post_init__(self):
        if self.parameter not in SWEEPABLE_PARAMETERS:
            raise ValueError(f"cannot sweep {self.parameter!r}; one of {SWEEPABLE_PARAMETERS}")
        if self.runs_per_value < 1:
            raise ValueError("runs_per_value must be >= 1")


@dataclass(frozen=True)
class SweepRow:
    parameter: str
    value: int
    runs: int
    successes: int
    mean_generations_to_success: float | None
    mean_best_fitness: float | None
    error: str | None = None

    @property
    def success_rate(self) -> float | None:
        return self.successes / self.runs if self.runs else None


def derive_seed(master_seed: int, parameter: str, value: int, run_index: int) -> int:
    """Stable per-cell seed; independent of execution order and platform."""
    key = f"{master_seed}/{parameter}/{value}/{run_index}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def run_cell(spec: SweepSpec, value: int, master_seed: int) -> SweepRow:
    """All runs for one parameter value, aggregated."""
    generations: list[int] = []
    best_fits: list[float] = []
    try:
        config = replace(spec.base, **{spec.parameter: value})
        for run_index in range(spec.runs_per_value):
            seed = derive_seed(master_seed, spec.parameter, value, run_index)
            result = evolve(replace(config, seed=seed))
            if result.success:
                generations.append(result.generation_of_success)
            if result.best_fitness != INVALID:
                best_fits.append(result.best_fitness)
    except ValueError as exc:
        return SweepRow(spec.parameter, value, 0, 0, None, None, error=str(exc))

    return SweepRow(
        parameter=spec.parameter,
        value=value,
        runs=spec.runs_per_value,
        successes=len(generations),
        mean_generations_to_success=(sum(generations) / len(generations)) if generations else None,
        mean_best_fitness=(sum(best_fits) / len(best_fits)) if best_fits else None,
    )


def run_sweep(spec: SweepSpec, master_seed: int) -> tuple[SweepRow, ...]:
    """One row per swept value; a bad cell reports its error without
    aborting the others."""
    return tuple(run_cell(spec, value, master_seed) for value in spec.values)


def _cell_text(x: float | None) -> str:
    return "" if x is None else format(x, "g")


def emit_csv(table: tuple[SweepRow, ...]) -> str:
    """Render the sweep table; blank cells for undefined means."""
    lines = [CSV_HEADER]
    for row in table:
        lines.append(
            f"{row.parameter},{row.value},{row.runs},{row.successes},"
            f"{_cell_text(row.success_rate)},"
            f"{_cell_text(row.mean_generations_to_success)},"
            f"{_cell_text(row.mean_best_fitness)}"
        )
    return "\n".join(lines) + "\n"


#: The stock sweeps by name: the swept parameter, its values and the
#: settings each holds fixed.
EXPERIMENTS = {
    "exp1": ("population_size", tuple(range(20, 201, 20)), {"generations": 100, "chromosome_length": 15}),
    "exp2": ("generations", tuple(range(20, 201, 20)), {"population_size": 100, "chromosome_length": 15}),
    "exp3": ("chromosome_length", tuple(range(5, 51, 5)), {"population_size": 100, "generations": 50}),
}


def experiment_spec(name: str, base: EvolutionConfig | None = None, runs_per_value: int = 50) -> SweepSpec:
    """The stock sweep `name` of `EXPERIMENTS`, on the (4,4,4,4) multiset
    game unless another base config is supplied."""
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; expected exp1, exp2, or exp3")
    parameter, values, fixed = EXPERIMENTS[name]
    if base is None:
        base = EvolutionConfig(heaps=(4, 4, 4, 4))
    return SweepSpec(parameter, values, replace(base, **fixed), runs_per_value)
