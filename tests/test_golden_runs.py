"""Seeded evolution runs must reproduce a recorded golden file exactly.

Each line of ``data/golden_runs.txt`` is one seeded ``evolve`` run: the
config name, the seed, the best chromosome's ``format_chromosome`` listing,
the best-fitness history, the generation of success and the best fitness.
A refactor that changes the sequence of random draws, or any fitness value,
changes some line.

Regenerate (only when a change to seeded outputs is intended and recorded):

    PYTHONPATH=src python tests/test_golden_runs.py
"""

from pathlib import Path

from mepnim.evolution import EvolutionConfig, evolve
from mepnim.expr import format_chromosome
from mepnim.game import StateSpaceMode

GOLDEN = Path(__file__).parent / "data" / "golden_runs.txt"
SEEDS = range(30)
CONFIGS = {
    "4444-multiset-defaults": dict(heaps=(4, 4, 4, 4)),
    "356-tuple-pop40-gens30": dict(heaps=(3, 5, 6), mode=StateSpaceMode.TUPLE,
                                   population_size=40, generations=30),
    "4444-multiset-pop20-len5-gens50": dict(heaps=(4, 4, 4, 4), population_size=20,
                                            chromosome_length=5, generations=50),
}


def run_line(name: str, seed: int) -> str:
    result = evolve(EvolutionConfig(seed=seed, **CONFIGS[name]))
    listing = "; ".join(format_chromosome(result.best_chromosome).splitlines())
    history = ",".join(str(f) for f in result.best_fitness_history)
    return (f"{name} seed={seed} | {listing} | history={history} | "
            f"success_gen={result.generation_of_success} | best={result.best_fitness}")


def golden_lines() -> list[str]:
    return [run_line(name, seed) for name in CONFIGS for seed in SEEDS]


def test_seeded_runs_match_golden_file():
    expected = GOLDEN.read_text().splitlines()
    assert len(expected) == len(CONFIGS) * len(SEEDS)
    for want, got in zip(expected, golden_lines()):
        name, seed = want.split(" | ", 1)[0].split(" seed=")
        assert got == want, f"first differing run: {name} seed {seed}\nwant: {want}\ngot:  {got}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(golden_lines()) + "\n")
