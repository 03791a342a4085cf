"""The benchmark's three workloads, run against the public mepnim library.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  Inputs come only from the workload
seed.  Library entry points are looked up on their modules at call time
(``evolution.evolve(...)``, not a name imported once), so that the tracer in
``tracer.py`` can wrap the benchmark's own calls into each layer too.

Workloads (the reasons are recorded in BENCHMARK.json as well):

* ``evolve-4444``: seeded ``evolve`` runs on the (4,4,4,4) multiset game at
  the default settings, the paper's headline task.
* ``sweep-exp1``: ``run_sweep`` of the population-size sweep plus
  ``emit_csv``, the only path through ``experiments``.
* ``large-games``: scoring, verifying and playing on a 32,768-state tuple
  graph and a 5,005-state multiset graph; no evolution.

Every workload interleaves the same check pass with its own work: verify
the xor chain, and play it from the root against seeded random players, on
each of its graphs.  So verification and play are measured on every
workload: on the 70- and 625-state (4,4,4,4) graphs for the first two, on
the large graphs for the third.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field

import numpy as np

import mepnim
from mepnim import evolution, experiments, expr, fitness, game, genetics, oracle, play
from tracer import Tracer

MULTISET = game.StateSpaceMode.MULTISET
TUPLE = game.StateSpaceMode.TUPLE
MAIN_SHARE = 0.95  # of --seconds; the rest is the closing checks
MIN_PASSES = 3  # repetitions of each workload's seeded work
SWEEP_RUNS_PER_VALUE = 1


@dataclass(frozen=True)
class Sizes:
    """How much work one run does.  ``DEFAULT`` is the benchmark; the smoke
    test shrinks it."""

    small_heaps: tuple[int, ...] = (4, 4, 4, 4)
    large_games: tuple = (((7, 7, 7, 7, 7), TUPLE), ((9, 9, 9, 9, 9, 9), MULTISET))
    evolve_block: int = 8  # evolve seeds, repeated until the time is up
    check_passes: int = 4  # verify/play passes after each sweep pass
    games_per_graph: int = 100
    batch_per_graph: int = 120  # random chromosomes scored per large graph
    trace_evolve_runs: int = 6


DEFAULT = Sizes()


# -- inputs ----------------------------------------------------------------


def derive(seed: int, *labels) -> int:
    """A 64-bit seed derived from the workload seed and labels."""
    key = "/".join(str(x) for x in (seed, *labels)).encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def xor_chain(n_heaps: int) -> expr.Chromosome:
    """a1 xor a2 xor ... xor an, the known correct formula."""
    genes = [expr.Gene("a1")]
    for i in range(2, n_heaps + 1):
        genes.append(expr.Gene(f"a{i}"))
        genes.append(expr.Gene("xor", (len(genes) - 2, len(genes) - 1)))
    return expr.Chromosome(tuple(genes))


def wrong_formula() -> expr.Chromosome:
    """a1 - a2: P exactly when the first two heaps are equal; wrong on Nim."""
    return expr.Chromosome((expr.Gene("a1"), expr.Gene("a2"), expr.Gene("-", (0, 1))))


@dataclass
class Game:
    heaps: tuple[int, ...]
    mode: game.StateSpaceMode
    graph: game.GameGraph
    labels: dict

    @property
    def name(self) -> str:
        return f"{self.heaps} {self.mode.value}"


def game_specs(workload: str, sizes: Sizes) -> tuple:
    if workload == "large-games":
        return sizes.large_games
    return ((sizes.small_heaps, MULTISET), (sizes.small_heaps, TUPLE))


def setup(workload: str, sizes: Sizes = DEFAULT) -> list[Game]:
    """Build and label every graph the workload plays, verifies or scores on."""
    games = []
    for heaps, mode in game_specs(workload, sizes):
        graph = game.build_graph(heaps, mode)
        games.append(Game(heaps, mode, graph, oracle.retrograde_labels(graph)))
    return games


# -- output checks ---------------------------------------------------------


@dataclass
class Checks:
    """Counts output checks; ``failed / attempted`` is the fail ratio."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


def bouton_p_mask(graph: game.GameGraph) -> np.ndarray:
    return np.bitwise_xor.reduce(graph.heap_matrix, axis=1) == 0


def check_labels(games: list[Game], checks: Checks) -> None:
    """Retrograde labels equal Bouton's xor rule on every node."""
    for g in games:
        ok = all(g.labels[s] is oracle.bouton_label(s) for s in g.graph.nodes)
        checks.expect(ok, f"retrograde labels differ from Bouton's rule on {g.name}")


def check_formula(chrom: expr.Chromosome, g: Game, checks: Checks) -> None:
    """The formula scores 0, verifies, and its P-set is Bouton's on every node."""
    try:
        p_set = expr.evaluate_many(chrom, g.graph.heap_matrix, g.graph.n_heaps) == 0
    except expr.EvalError:
        p_set = None
    checks.expect(
        p_set is not None and bool(np.array_equal(p_set, bouton_p_mask(g.graph))),
        f"P-set of {expr.decode_infix(chrom)} differs from Bouton's rule on {g.name}",
    )
    checks.expect(fitness.graph_fitness(chrom, g.graph)[0] == 0, f"{expr.decode_infix(chrom)} scores above 0 on {g.name}")
    checks.expect(bool(oracle.verify_formula(chrom, g.graph)), f"{expr.decode_infix(chrom)} fails verification on {g.name}")


def check_wrong_formula_caught(games: list[Game], checks: Checks) -> None:
    """The checks above must reject a formula known to be wrong."""
    for g in games:
        probe = Checks()
        check_formula(wrong_formula(), g, probe)
        checks.expect(probe.failed == probe.attempted, f"wrong formula a1 - a2 passed a check on {g.name}")


def run_digest(result: evolution.RunResult) -> str:
    text = "\n".join(
        (
            expr.format_chromosome(result.best_chromosome),
            repr(result.best_fitness_history),
            repr(result.generation_of_success),
        )
    )
    return hashlib.sha256(text.encode()).hexdigest()


# -- the check pass shared by all workloads ---------------------------------


@dataclass
class CheckPlan:
    """Formula under test per game, games per graph, and the seed of the
    random opponents."""

    formulas: list
    games_per_graph: int
    seed: int


def plan_checks(games: list[Game], seed: int, sizes: Sizes, formula=None) -> CheckPlan:
    formulas = [formula if formula is not None else xor_chain(len(g.heaps)) for g in games]
    return CheckPlan(formulas, sizes.games_per_graph, seed)


def check_pass(games: list[Game], plan: CheckPlan, checks: Checks) -> tuple[list, list]:
    """Verify the formula on every graph, then play it from the graph's root
    against seeded random players.  The formula player takes the winning
    side (it moves first from an N root, second from a P root), so it must
    win every game.  Returns the seconds of each verification and of each
    game."""
    clock = time.perf_counter
    verify_times = []
    for g, chrom in zip(games, plan.formulas):
        t0 = clock()
        result = oracle.verify_formula(chrom, g.graph)
        verify_times.append(clock() - t0)
        checks.expect(bool(result), f"{expr.decode_infix(chrom)} fails verification on {g.name}")

    game_times = []
    for k, (g, chrom) in enumerate(zip(games, plan.formulas)):
        formula_player = play.classifier_strategy(play.formula_classifier(chrom, len(g.heaps)), g.mode)
        formula_first = g.labels[g.graph.root] is fitness.Label.N
        for i in range(plan.games_per_graph):
            opponent = play.random_strategy(random.Random(derive(plan.seed, "play", k, i)), g.mode)
            players = (formula_player, opponent) if formula_first else (opponent, formula_player)
            t0 = clock()
            result = play.play_game(*players, g.graph.root, g.mode)
            game_times.append(clock() - t0)
            checks.expect(result.winner == (1 if formula_first else 2), f"formula player lost game {i} on {g.name}")
    return verify_times, game_times


def check_metrics(samples: list[tuple[list, list]]) -> dict:
    """Whole-run figures of the check passes: the mean time to verify the
    formula on all graphs once, and games played per second of play."""
    return {
        "verify_s": sum(sum(v) for v, _ in samples) / len(samples),
        "games_per_s": sum(len(g) for _, g in samples) / sum(sum(g) for _, g in samples),
    }


# -- workload passes -------------------------------------------------------


def evolve_config(run_seed: int, sizes: Sizes) -> evolution.EvolutionConfig:
    return evolution.EvolutionConfig(heaps=sizes.small_heaps, seed=run_seed)


def evolve_block(seed: int, count: int) -> list[int]:
    return [derive(seed, "evolve", i) for i in range(count)]


def implied_evaluations(population: int, result: evolution.RunResult) -> int:
    """Fitness evaluations of a run, counting the generation of success in
    full: the initial population plus one population's worth per generation.
    Exact for failed runs; depends only on the run's seeded outcome."""
    return population * len(result.best_fitness_history)


def sweep_spec(sizes: Sizes) -> experiments.SweepSpec:
    base = evolution.EvolutionConfig(heaps=sizes.small_heaps)
    return experiments.experiment_spec("exp1", base=base, runs_per_value=SWEEP_RUNS_PER_VALUE)


def sweep_evaluations(spec: experiments.SweepSpec, rows) -> int:
    """Implied fitness evaluations of a sweep, as in `implied_evaluations`."""
    total = 0
    for row in rows:
        generations_run = round((row.mean_generations_to_success or 0) * row.successes)
        generations_run += (row.runs - row.successes) * spec.base.generations
        total += row.value * (generations_run + row.runs)
    return total


def check_sweep_rows(spec, rows, checks: Checks) -> None:
    checks.expect(len(rows) == len(spec.values), "sweep returned the wrong number of rows")
    for row in rows:
        checks.expect(row.error is None and row.runs == spec.runs_per_value, f"sweep row {row.value} is incomplete: {row.error}")


def make_batches(games: list[Game], seed: int, sizes: Sizes) -> list[list]:
    length = evolution.EvolutionConfig(heaps=sizes.small_heaps).chromosome_length  # the default, 15
    batches = []
    for k, g in enumerate(games):
        rng = random.Random(derive(seed, "batch", k))
        batches.append(
            [genetics.random_chromosome(length, len(g.heaps), rng) for _ in range(sizes.batch_per_graph)]
        )
    return batches


def score_batches(games: list[Game], batches: list[list]) -> tuple[float, str]:
    """Score every batch on its graph.  Returns the seconds it took and a
    checksum of the fitness values."""
    t0 = time.perf_counter()
    values = [fitness.graph_fitness(chrom, g.graph)[0] for g, batch in zip(games, batches) for chrom in batch]
    seconds = time.perf_counter() - t0
    return seconds, hashlib.sha256(repr(values).encode()).hexdigest()


# -- timed runs ------------------------------------------------------------
#
# Every timed loop repeats the same seeded work, at least ``MIN_PASSES``
# times and until the time is up, and reports whole-run figures: all the
# work of the run divided by the time it took.  The shared 2-vCPU host
# these were tuned on switches between a fast mode and one about 1.7 times
# slower, in phases of seconds to minutes.  A whole-run mean moves smoothly
# with the share of slow time in a run.  The fastest repetition of each item
# does not: it reads fast if the run caught a fast phase and slow if not,
# so runs of the same code differ by more than the bounds.


class Budget:
    """The loop's share of --seconds."""

    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> bool:
        return time.perf_counter() < self.end


def timed_evolve(games, plan, seed, budget, sizes, checks) -> dict:
    population = evolve_config(0, sizes).population_size
    block = evolve_block(seed, sizes.evolve_block)
    digests = {s: set() for s in block}
    results, samples = {}, []
    done = evaluations = evolve_s = 0
    while done < MIN_PASSES * len(block) or budget.left():
        run_seed = block[done % len(block)]
        t0 = time.perf_counter()
        result = evolution.evolve(evolve_config(run_seed, sizes))
        evolve_s += time.perf_counter() - t0
        evaluations += implied_evaluations(population, result)
        digests[run_seed].add(run_digest(result))
        results[run_seed] = result
        samples.append(check_pass(games, plan, checks))
        done += 1

    for run_seed, result in results.items():
        checks.expect(len(digests[run_seed]) == 1, f"evolve seed {run_seed} is not reproducible")
        if result.success:
            check_formula(result.best_chromosome, games[0], checks)
    return {
        "evals_per_s": evaluations / evolve_s,
        **check_metrics(samples),
        "_runs": done,
        "_successes": sum(r.success for r in results.values()),
    }


def timed_sweep(games, plan, seed, budget, sizes, checks) -> dict:
    spec = sweep_spec(sizes)
    master = derive(seed, "sweep")
    sweep_s, digests, samples = [], set(), []
    while len(sweep_s) < MIN_PASSES or budget.left():
        t0 = time.perf_counter()
        rows = experiments.run_sweep(spec, master)
        csv = experiments.emit_csv(rows)
        sweep_s.append(time.perf_counter() - t0)
        digests.add(hashlib.sha256(csv.encode()).hexdigest())
        check_sweep_rows(spec, rows, checks)
        samples.extend(check_pass(games, plan, checks) for _ in range(sizes.check_passes))
    checks.expect(len(digests) == 1, "sweep CSV differs between repetitions")
    return {
        "evals_per_s": sweep_evaluations(spec, rows) * len(sweep_s) / sum(sweep_s),
        **check_metrics(samples),
        "_passes": len(sweep_s),
    }


def timed_large(games, plan, seed, budget, sizes, checks) -> dict:
    batches = make_batches(games, seed, sizes)
    score_s, samples, checksums = [], [], set()
    while len(score_s) < MIN_PASSES or budget.left():
        seconds, checksum = score_batches(games, batches)
        score_s.append(seconds)
        checksums.add(checksum)
        samples.append(check_pass(games, plan, checks))
    checks.expect(len(checksums) == 1, "batch fitness checksum differs between repetitions")
    for g, chrom in zip(games, plan.formulas):
        checks.expect(fitness.graph_fitness(chrom, g.graph)[0] == 0, f"{expr.decode_infix(chrom)} scores above 0 on {g.name}")
    evaluations = sum(map(len, batches)) * len(score_s)
    return {"evals_per_s": evaluations / sum(score_s), **check_metrics(samples), "_passes": len(score_s)}


TIMED = {"evolve-4444": timed_evolve, "sweep-exp1": timed_sweep, "large-games": timed_large}


def run_timed(workload, games, seed, seconds, sizes=DEFAULT, formula=None) -> tuple[dict, Checks]:
    """The measured run: the workload's loop, then its output checks."""
    checks = Checks()
    check_labels(games, checks)
    check_wrong_formula_caught(games, checks)
    plan = plan_checks(games, seed, sizes, formula)
    budget = Budget(seconds * MAIN_SHARE)
    return TIMED[workload](games, plan, seed, budget, sizes, checks), checks


# -- traced runs -----------------------------------------------------------


def fixed_pass(workload: str, seed: int, sizes: Sizes, checks: Checks) -> list[str]:
    """A fixed amount of the workload's work, set-up included, for the
    traced run.  Returns digests of its outputs."""
    games = setup(workload, sizes)
    plan = plan_checks(games, seed, sizes)
    digests = []
    if workload == "evolve-4444":
        for run_seed in evolve_block(seed, sizes.trace_evolve_runs):
            digests.append(run_digest(evolution.evolve(evolve_config(run_seed, sizes))))
    elif workload == "sweep-exp1":
        csv = experiments.emit_csv(experiments.run_sweep(sweep_spec(sizes), derive(seed, "sweep")))
        digests.append(hashlib.sha256(csv.encode()).hexdigest())
    else:
        digests.append(score_batches(games, make_batches(games, seed, sizes))[1])
    check_pass(games, plan, checks)
    return digests


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers from one traced pass."""
    self_s, calls = tracer.self_times()
    invalid_share, repeat_share = tracer.fitness_shares(expr.active_positions, fitness.INVALID)
    runs = tracer.run_results

    def t(name):
        return self_s.get(name, 0.0)

    def c(name):
        return calls.get(name, 0)

    return {
        "genetics.mutate_s": t("genetics.mutate"),
        "genetics.mutate_calls": c("genetics.mutate"),
        "genetics.crossover_s": t("genetics.crossover"),
        "genetics.crossover_calls": c("genetics.crossover"),
        "genetics.random_s": t("genetics.random"),
        "genetics.random_calls": c("genetics.random"),
        "evolution.self_s": t("evolution.evolve"),
        "evolution.select_s": t("evolution.select"),
        "evolution.select_calls": c("evolution.select"),
        "evolution.runs": len(runs),
        "evolution.generations": sum(len(r.best_fitness_history) - 1 for r in runs),
        "evolution.successes": sum(r.success for r in runs),
        "fitness.self_s": t("fitness.graph_fitness"),
        "fitness.calls": c("fitness.graph_fitness"),
        "fitness.invalid_share": invalid_share,
        "fitness.repeat_share": repeat_share,
        "expr.evaluate_many_s": t("expr.evaluate_many"),
        "expr.evaluate_many_calls": c("expr.evaluate_many"),
        "expr.evaluate_s": t("expr.evaluate"),
        "expr.evaluate_calls": c("expr.evaluate"),
        "game.build_multiset_s": t("game.build_multiset"),
        "game.build_tuple_s": t("game.build_tuple"),
        "game.nodes": sum(n for n, _ in tracer.graph_sizes),
        "game.edges": sum(e for _, e in tracer.graph_sizes),
        "game.moves_s": t("game.moves"),
        "game.moves_calls": c("game.moves"),
        "oracle.retrograde_s": t("oracle.retrograde"),
        "oracle.verify_s": t("oracle.verify"),
        "oracle.verify_calls": c("oracle.verify"),
        "play.self_s": t("play.game"),
        "play.games": c("play.game"),
        "experiments.self_s": t("experiments.sweep") + t("experiments.emit_csv"),
        "experiments.cells": tracer.parent_counts("evolution.evolve", "experiments.sweep"),
        "_accounted_s": sum(self_s.values()),
    }


EXACT = (
    "genetics.mutate_calls", "genetics.crossover_calls", "genetics.random_calls",
    "evolution.select_calls", "evolution.runs", "evolution.generations", "evolution.successes",
    "fitness.calls", "fitness.invalid_share", "fitness.repeat_share",
    "expr.evaluate_many_calls", "expr.evaluate_calls", "game.nodes", "game.edges",
    "game.moves_calls", "oracle.verify_calls", "play.games", "experiments.cells",
)


def run_traced(workload: str, seed: int, sizes: Sizes = DEFAULT, spans_path=None) -> tuple[dict, Checks]:
    """Two untraced and two traced copies of the same fixed pass, alternating.

    The untraced copies give the overhead; the two traced copies must agree
    on every exact counter and all four on every output digest.  Times are
    the better of the two traced copies, as in the timed runs.
    """
    checks = Checks()
    reference = None
    sets, traced_walls, plain_walls = [], [], []
    for k in range(2):
        t0 = time.perf_counter()
        digests = fixed_pass(workload, seed, sizes, checks)
        plain_walls.append(time.perf_counter() - t0)
        reference = reference or digests
        checks.expect(digests == reference, "outputs differ between untraced copies")

        with Tracer(mepnim) as tracer:
            t0 = time.perf_counter()
            digests = fixed_pass(workload, seed, sizes, checks)
            traced_walls.append(time.perf_counter() - t0)
        checks.expect(digests == reference, "traced outputs differ from untraced outputs")
        metrics = layer_metrics(tracer)
        metrics["trace.accounted_share"] = metrics.pop("_accounted_s") / traced_walls[-1]
        sets.append(metrics)
        if k == 0 and spans_path is not None:
            tracer.write(spans_path)
    for name in EXACT:
        checks.expect(sets[0][name] == sets[1][name], f"counter {name} differs between traced sets")

    metrics = {name: (min(s[name] for s in sets) if name.endswith("_s") else sets[0][name]) for name in sets[0]}
    metrics["trace.wall_s"] = min(traced_walls)
    metrics["trace.overhead_s"] = min(traced_walls) - min(plain_walls)
    return metrics, checks
