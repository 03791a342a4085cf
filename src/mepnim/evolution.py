"""Steady-state evolutionary search for a zero-violation formula.

One generation is population_size // 2 steady-state iterations; each
iteration selects two parents by independent binary tournaments, recombines
them with the configured probability, mutates both offspring, and lets the
better offspring replace the worst population member when strictly better.
The run stops as soon as any individual reaches fitness 0.

Each run keeps a fitness cache keyed on the chromosome's compiled program
(`Program.code`): chromosomes that differ only in inactive genes, or that
recur after selection and mutation, are scored once per run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .expr import Chromosome
from .fitness import graph_fitness
from .game import StateSpaceMode, build_graph, canonicalize
from .genetics import OperatorConfig, crossover_one_point, mutate, random_chromosome


@dataclass(frozen=True)
class EvolutionConfig:
    heaps: tuple[int, ...]
    population_size: int = 100
    chromosome_length: int = 15
    generations: int = 100
    operators: OperatorConfig = field(default_factory=OperatorConfig)
    seed: int = 0
    mode: StateSpaceMode = StateSpaceMode.MULTISET

    def __post_init__(self):
        if self.population_size < 4:
            raise ValueError("population_size must be >= 4")
        if self.chromosome_length < 1:
            raise ValueError("chromosome_length must be >= 1")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if not self.heaps:
            raise ValueError("heaps must not be empty")
        if any(h < 0 for h in self.heaps):
            raise ValueError("heap sizes must be non-negative")


@dataclass(frozen=True)
class RunResult:
    """Outcome of one evolution run.

    ``best_fitness_history`` holds the population's best fitness after
    initialization and after each executed generation.
    """

    best_chromosome: Chromosome
    best_fitness: int | float
    best_fitness_history: tuple[int | float, ...]

    @property
    def success(self) -> bool:
        return self.best_fitness == 0

    @property
    def generation_of_success(self) -> int | None:
        """The 1-based generation in which a fitness-0 individual first
        appeared (0 when the random initial population already held one),
        None on failure."""
        return len(self.best_fitness_history) - 1 if self.success else None


def tournament_select(fitnesses, rng: random.Random) -> int:
    """Binary tournament: draw two distinct indices uniformly, return the
    one with lower fitness, ties broken uniformly at random."""
    i, j = rng.sample(range(len(fitnesses)), 2)
    if fitnesses[i] < fitnesses[j]:
        return i
    if fitnesses[j] < fitnesses[i]:
        return j
    return rng.choice((i, j))


def evolve(config: EvolutionConfig) -> RunResult:
    """Run one seeded steady-state search; deterministic given the config."""
    root = canonicalize(config.heaps, config.mode)
    graph = build_graph(root, config.mode)
    n_heaps = len(root)
    ops = config.operators
    rng = random.Random(config.seed)
    pop_size = config.population_size
    length = config.chromosome_length

    scores: dict[tuple, int | float] = {}

    def score(chrom: Chromosome) -> int | float:
        key = chrom.program.code
        fit = scores.get(key)
        if fit is None:
            fit = scores[key] = graph_fitness(chrom, graph)[0]
        return fit

    population = [
        random_chromosome(length, n_heaps, rng, ops.function_gene_probability)
        for _ in range(pop_size)
    ]
    fitnesses = [score(c) for c in population]

    best_idx = fitnesses.index(min(fitnesses))
    best_chrom, best_fit = population[best_idx], fitnesses[best_idx]
    history = [best_fit]

    worst_idx = fitnesses.index(max(fitnesses))
    iterations = max(1, pop_size // 2)

    generation = 0
    while best_fit != 0 and generation < config.generations:
        generation += 1
        for _ in range(iterations):
            p1 = population[tournament_select(fitnesses, rng)]
            p2 = population[tournament_select(fitnesses, rng)]
            if rng.random() < ops.crossover_probability and length >= 2:
                o1, o2 = crossover_one_point(p1, p2, rng)
            else:
                o1, o2 = p1, p2
            o1 = mutate(o1, ops, n_heaps, rng)
            o2 = mutate(o2, ops, n_heaps, rng)
            f1 = score(o1)
            f2 = score(o2)
            best_offspring, offspring_fit = (o1, f1) if f1 <= f2 else (o2, f2)

            if offspring_fit < fitnesses[worst_idx]:
                population[worst_idx] = best_offspring
                fitnesses[worst_idx] = offspring_fit
                worst_idx = fitnesses.index(max(fitnesses))
                if offspring_fit < best_fit:
                    best_chrom, best_fit = best_offspring, offspring_fit
                    if best_fit == 0:
                        break
        history.append(best_fit)

    return RunResult(best_chrom, best_fit, tuple(history))
