"""Random initialization, one-point crossover, and mutation of chromosomes.

All operators are pure functions of their inputs plus a caller-owned
``random.Random`` stream, and always return chromosomes satisfying the
representation invariants by construction, with no repair step: fresh genes
draw their arguments from earlier positions only, and crossover keeps genes
at their absolute positions, so backward argument references stay backward.
Offspring are therefore built through the trusted ``Chromosome._trusted``
path, which skips re-validation; acceptance criterion 06 checks the
invariants over 100,000 operator applications.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .expr import FUNCTIONS, Chromosome, Gene, terminal_symbols


@dataclass(frozen=True)
class OperatorConfig:
    """Variation-operator knobs.

    ``mutations_per_offspring`` is an exact count of distinct gene positions
    regenerated per offspring (clamped to the chromosome length), not a
    per-gene probability.
    """

    crossover_probability: float = 0.9
    mutations_per_offspring: int = 2
    function_gene_probability: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.crossover_probability <= 1.0:
            raise ValueError("crossover_probability must be in [0, 1]")
        if not 0.0 <= self.function_gene_probability <= 1.0:
            raise ValueError("function_gene_probability must be in [0, 1]")
        if self.mutations_per_offspring < 0:
            raise ValueError("mutations_per_offspring must be non-negative")


@lru_cache(maxsize=64)
def _terminal_genes(n_heaps: int) -> tuple[Gene, ...]:
    return tuple(Gene(symbol) for symbol in terminal_symbols(n_heaps))


def _random_gene(pos: int, n_heaps: int, function_prob: float, rng: random.Random) -> Gene:
    """Fresh gene for a given position: the first position is always a
    terminal; later positions draw a function with probability
    ``function_prob``, arguments uniform over earlier positions."""
    if pos > 0 and rng.random() < function_prob:
        symbol = rng.choice(FUNCTIONS)
        if symbol == "not":
            return Gene(symbol, (rng.randrange(pos),))
        return Gene(symbol, (rng.randrange(pos), rng.randrange(pos)))
    return rng.choice(_terminal_genes(n_heaps))


def random_chromosome(
    length: int, n_heaps: int, rng: random.Random, function_gene_probability: float = 0.5
) -> Chromosome:
    if length < 1:
        raise ValueError("chromosome length must be >= 1")
    return Chromosome._trusted(
        tuple(_random_gene(pos, n_heaps, function_gene_probability, rng) for pos in range(length))
    )


def crossover_one_point(
    p1: Chromosome, p2: Chromosome, rng: random.Random
) -> tuple[Chromosome, Chromosome]:
    """Swap the gene tails after a uniformly chosen cut point in 1..L-1
    (genes kept from the first parent)."""
    length = len(p1)
    if len(p2) != length:
        raise ValueError("parents must have equal length")
    if length < 2:
        raise ValueError("crossover needs length >= 2")
    cut = rng.randint(1, length - 1)
    return (
        Chromosome._trusted(p1.genes[:cut] + p2.genes[cut:]),
        Chromosome._trusted(p2.genes[:cut] + p1.genes[cut:]),
    )


def mutate(
    chrom: Chromosome, config: OperatorConfig, n_heaps: int, rng: random.Random
) -> Chromosome:
    """Regenerate ``mutations_per_offspring`` distinct gene positions.

    A mutated function gene gets a newly drawn operator and newly drawn
    backward arguments even if the operator happens to repeat.
    """
    count = min(config.mutations_per_offspring, len(chrom))
    if count == 0:
        return chrom
    genes = list(chrom.genes)
    for pos in rng.sample(range(len(genes)), count):
        genes[pos] = _random_gene(pos, n_heaps, config.function_gene_probability, rng)
    return Chromosome._trusted(tuple(genes))
