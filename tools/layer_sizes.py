"""Time each library layer of one game, at several game sizes.

Run from the root of a checkout:

    python3 tools/layer_sizes.py                 # every size
    python3 tools/layer_sizes.py --states 70,625 # some of them

For each size, a fresh child process builds the game graph, labels it with
`retrograde_p_mask`, verifies the xor formula against that labeling and
scores it once with `graph_fitness`, timing each step, and reports its peak
resident set size.  Then it plays the xor formula from the root against a
seeded random player, on the winning side, then the oracle's classifier
(`play.oracle_classifier`) against the same seeded player, and scores a
seeded batch of random formulas three times.  A multiset graph builds the
quotient of a formula's read set (the heaps it reads) the second time it
sees that set, so the first pass builds those the batch holds more than
once and the second those it holds once; the third scores as evolution
does once the graph is warm, for a steady-state fitness time.  A fresh
process per size keeps one game's memory out of the next one's peak.  The
output is one JSON object on standard output: per size, the game, its
state and edge counts, the seconds of each step, their sum, the mean
seconds per game played by the formula (``play_game_s``) and by the oracle
(``oracle_play_game_s``, which includes making its classifier once), both
kept out of that sum, the mean seconds per `graph_fitness` call over the
batch's first pass (``fitness_first_batch_s``) and over its third
(``fitness_batch_s``), and the child's peak RSS in MB (which includes the
interpreter and numpy, about 30 MB).

Verify is timed on its second call.  A first call right after labeling
runs in whatever memory the labeling has just freed, and its time moves
with that (308 against 182 µs at 32,768 states, with the same code), so
verify figures from versions of this tool that timed the first call do not
compare with these.  The untimed first call also builds what verify reads
on first use, such as a small tuple graph's heap matrix.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# the batch behind fitness_batch_s: random formulas of BATCH_GENES genes
BATCH_SIZE, BATCH_GENES, BATCH_SEED = 120, 15, 9
# the games behind play_game_s, and the seed of the random player
PLAY_GAMES, PLAY_SEED = 100, 9

# states -> (heaps, state space)
GAMES = {
    70: ((4, 4, 4, 4), "multiset"),
    168: ((3, 5, 6), "tuple"),
    625: ((4, 4, 4, 4), "tuple"),
    1001: ((1000,), "tuple"),
    5005: ((9, 9, 9, 9, 9, 9), "multiset"),
    32768: ((7, 7, 7, 7, 7), "tuple"),
    40401: ((200, 200), "tuple"),
    230230: ((20, 20, 20, 20, 20, 20), "multiset"),
    1000000: ((9, 9, 9, 9, 9, 9), "tuple"),
}


def measure(heaps: tuple[int, ...], mode_name: str) -> dict:
    """The layers of one game, timed in this process."""
    import random
    import resource
    import time

    from mepnim import expr, fitness, game, genetics, oracle, play

    mode = game.StateSpaceMode(mode_name)
    genes = [expr.Gene("a1")]
    for i in range(2, len(heaps) + 1):
        genes += [expr.Gene(f"a{i}"), expr.Gene("xor", (len(genes) - 1, len(genes)))]
    formula = expr.Chromosome(tuple(genes))
    seconds = {}
    t0 = time.perf_counter()
    graph = game.build_graph(heaps, mode)
    seconds["build"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    oracle.retrograde_p_mask(graph)
    seconds["label"] = time.perf_counter() - t0
    oracle.verify_formula(formula, graph)  # untimed: see the module docstring
    t0 = time.perf_counter()
    agrees = oracle.verify_formula(formula, graph).agrees
    seconds["verify"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    total = fitness.graph_fitness(formula, graph)[0]
    seconds["fitness"] = time.perf_counter() - t0
    if not agrees or total != 0:
        raise SystemExit(f"the xor formula failed on {heaps} {mode_name}")
    # a correct player moves first from an N root (the root is the last node)
    correct_first = not oracle.retrograde_p_mask(graph)[graph.num_nodes - 1]

    def mean_game_s(name, make_classifier):
        # making the classifier is timed once, with the games
        t0 = time.perf_counter()
        player = play.classifier_strategy(make_classifier(), mode)
        opponent = play.random_strategy(random.Random(PLAY_SEED), mode)
        players, winner = ((player, opponent), 1) if correct_first else ((opponent, player), 2)
        for _ in range(PLAY_GAMES):
            if play.play_game(*players, graph.root, mode).winner != winner:
                raise SystemExit(f"the {name} lost a game on {heaps} {mode_name}")
        return (time.perf_counter() - t0) / PLAY_GAMES

    play_game_s = mean_game_s("xor formula", lambda: play.formula_classifier(formula, len(heaps)))
    oracle_play_game_s = mean_game_s("oracle", lambda: play.oracle_classifier(graph))
    rng = random.Random(BATCH_SEED)
    batch = [genetics.random_chromosome(BATCH_GENES, len(heaps), rng) for _ in range(BATCH_SIZE)]
    passes = []
    for _ in range(3):
        t0 = time.perf_counter()
        for chrom in batch:
            fitness.graph_fitness(chrom, graph)
        passes.append((time.perf_counter() - t0) / BATCH_SIZE)
    return {
        "heaps": list(heaps),
        "mode": mode_name,
        "states": graph.num_nodes,
        "edges": graph.num_edges,
        "seconds": seconds,
        "total_s": sum(seconds.values()),
        "play_game_s": play_game_s,
        "oracle_play_game_s": oracle_play_game_s,
        "fitness_first_batch_s": passes[0],
        "fitness_batch_s": passes[2],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_child(states: int) -> dict:
    """`measure` of one size, in a fresh interpreter."""
    heaps, mode = GAMES[states]
    code = (
        f"import sys, json; sys.path.insert(0, {str(SRC)!r}); sys.path.insert(0, {str(Path(__file__).parent)!r});"
        f" import layer_sizes; print(json.dumps(layer_sizes.measure({heaps!r}, {mode!r})))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"the {states}-state run exited with status {done.returncode}:\n{done.stderr.strip()}")
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="per-layer timings at several game sizes")
    parser.add_argument("--states", default=",".join(map(str, GAMES)), help="comma-separated sizes, from " + ", ".join(map(str, GAMES)))
    args = parser.parse_args(argv)
    try:
        sizes = [int(s) for s in args.states.split(",")]
    except ValueError:
        parser.error(f"--states must be comma-separated integers, got {args.states!r}")
    unknown = [s for s in sizes if s not in GAMES]
    if unknown:
        parser.error(f"no game of {unknown[0]} states; the sizes are " + ", ".join(map(str, GAMES)))
    print(json.dumps({str(s): run_child(s) for s in sizes}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
