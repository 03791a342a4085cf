"""Time each library layer of one game, at several game sizes.

Run from the root of a checkout:

    python3 tools/layer_sizes.py                 # every size
    python3 tools/layer_sizes.py --states 70,625 # some of them

For each size, a fresh child process builds the game graph, labels it with
`retrograde_p_mask`, verifies the xor formula against that labeling and
scores it once with `graph_fitness`, timing each step, and reports its peak
resident set size.  Then it scores a seeded batch of random formulas, as
evolution does, for a steady-state fitness time.  A fresh process per size
keeps one game's memory out of the next one's peak.  The output is one JSON
object on standard output: per size, the game, its state and edge counts,
the seconds of each step, their sum, the mean seconds per `graph_fitness`
call over the batch (``fitness_batch_s``), and the child's peak RSS in MB
(which includes the interpreter and numpy, about 30 MB).
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

# states -> (heaps, state space)
GAMES = {
    70: ((4, 4, 4, 4), "multiset"),
    625: ((4, 4, 4, 4), "tuple"),
    5005: ((9, 9, 9, 9, 9, 9), "multiset"),
    32768: ((7, 7, 7, 7, 7), "tuple"),
    230230: ((20, 20, 20, 20, 20, 20), "multiset"),
    1000000: ((9, 9, 9, 9, 9, 9), "tuple"),
}


def measure(heaps: tuple[int, ...], mode_name: str) -> dict:
    """The layers of one game, timed in this process."""
    import random
    import resource
    import time

    from mepnim import expr, fitness, game, genetics, oracle

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
    t0 = time.perf_counter()
    agrees = oracle.verify_formula(formula, graph).agrees
    seconds["verify"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    total = fitness.graph_fitness(formula, graph)[0]
    seconds["fitness"] = time.perf_counter() - t0
    if not agrees or total != 0:
        raise SystemExit(f"the xor formula failed on {heaps} {mode_name}")
    rng = random.Random(BATCH_SEED)
    batch = [genetics.random_chromosome(BATCH_GENES, len(heaps), rng) for _ in range(BATCH_SIZE)]
    t0 = time.perf_counter()
    for chrom in batch:
        fitness.graph_fitness(chrom, graph)
    batch_s = (time.perf_counter() - t0) / BATCH_SIZE
    return {
        "heaps": list(heaps),
        "mode": mode_name,
        "states": graph.num_nodes,
        "edges": graph.num_edges,
        "seconds": seconds,
        "total_s": sum(seconds.values()),
        "fitness_batch_s": batch_s,
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
