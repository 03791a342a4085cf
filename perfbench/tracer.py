"""Outside-in span tracer for the mepnim library.

The tracer replaces module attributes with timing wrappers and puts the
originals back afterwards.  A module that did ``from .x import y`` looks
``y`` up in its own namespace at call time, so the wrapper has to go on the
caller's module (``mepnim.evolution.graph_fitness``), not on the defining
one.  The library itself is never edited.

Spans (name, start, end, parent) are kept in flat arrays while the traced
code runs and are only turned into per-layer numbers, or written out, when
the traced pass is over.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

# (module, attribute, span name) for every call site inside the library that
# the per-layer metrics need.  ``build_graph`` spans are named per state-space
# mode, so their name is completed at call time.
LIBRARY_CALL_SITES = (
    ("evolution", "graph_fitness", "fitness.graph_fitness"),
    ("evolution", "mutate", "genetics.mutate"),
    ("evolution", "crossover_one_point", "genetics.crossover"),
    ("evolution", "random_chromosome", "genetics.random"),
    ("evolution", "tournament_select", "evolution.select"),
    ("evolution", "build_graph", "game.build"),
    ("fitness", "evaluate_many", "expr.evaluate_many"),
    ("experiments", "evolve", "evolution.evolve"),
    ("oracle", "evaluate", "expr.evaluate"),
    ("oracle", "retrograde_labels", "oracle.retrograde"),
    ("play", "evaluate", "expr.evaluate"),
    ("play", "moves", "game.moves"),
)

# Entry points the benchmark itself calls, looked up on these modules at call
# time, so that the benchmark's own calls into each layer are spans as well.
BENCHMARK_CALL_SITES = (
    ("game", "build_graph", "game.build"),
    ("fitness", "graph_fitness", "fitness.graph_fitness"),
    ("genetics", "random_chromosome", "genetics.random"),
    ("evolution", "evolve", "evolution.evolve"),
    ("oracle", "verify_formula", "oracle.verify"),
    ("experiments", "run_sweep", "experiments.sweep"),
    ("experiments", "emit_csv", "experiments.emit_csv"),
    ("play", "play_game", "play.game"),
)


class Tracer:
    """Records spans and a few exact counters for one traced pass.

    Use as a context manager: entering wraps every call site, leaving
    restores the original attributes even when the traced code raised.
    """

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        # (evolve run number, graph id, chromosome, fitness) per graph_fitness call
        self.fitness_calls: list[tuple[int, int, object, float]] = []
        self.run_results: list = []
        self.graph_sizes: list[tuple[int, int]] = []
        self._run = 0

    # -- span recording -------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn):
        """Wrap ``fn`` so each call records one span named ``name``."""
        nid = self._name_id(name)
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self._stack
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return traced

    def _wrapper(self, name: str, original):
        if name == "game.build":
            by_mode = {}

            def build(root, mode):
                if mode not in by_mode:
                    by_mode[mode] = self.span(f"game.build_{mode.value}", original)
                graph = by_mode[mode](root, mode)
                self.graph_sizes.append((graph.num_nodes, graph.num_edges))
                return graph

            return build
        if name == "fitness.graph_fitness":
            def scored(chrom, graph):
                result = original(chrom, graph)
                self.fitness_calls.append((self._run, id(graph), chrom, result[0]))
                return result

            return self.span(name, scored)
        if name == "evolution.evolve":
            traced = self.span(name, original)

            def evolve(config):
                self._run += 1
                result = traced(config)
                self.run_results.append(result)
                return result

            return evolve
        return self.span(name, original)

    # -- installation ---------------------------------------------------

    def __enter__(self):
        for module_name, attr, name in LIBRARY_CALL_SITES + BENCHMARK_CALL_SITES:
            module = getattr(self.package, module_name)
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrapper(name, original))
        return self

    def __exit__(self, *exc):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)
        return False

    # -- results --------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time (duration minus direct children's durations) and call
        count per span name."""
        if not self.starts:
            return {}, {}
        ids = np.frombuffer(self.name_ids, dtype=np.uint16).astype(np.int64)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        duration = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        child_time = np.zeros_like(duration)
        has_parent = parents >= 0
        np.add.at(child_time, parents[has_parent], duration[has_parent])
        self_time = np.bincount(ids, weights=duration - child_time, minlength=len(self.names))
        calls = np.bincount(ids, minlength=len(self.names))
        return (
            {n: float(self_time[i]) for i, n in enumerate(self.names)},
            {n: int(calls[i]) for i, n in enumerate(self.names)},
        )

    def parent_counts(self, child: str, parent: str) -> int:
        """Number of ``child`` spans whose direct parent is a ``parent`` span."""
        if child not in self._name_ids or parent not in self._name_ids:
            return 0
        ids = np.frombuffer(self.name_ids, dtype=np.uint16)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        mine = parents[(ids == self._name_ids[child]) & (parents >= 0)]
        return int(np.count_nonzero(ids[mine] == self._name_ids[parent]))

    def fitness_shares(self, active_positions, invalid) -> tuple[float, float]:
        """(invalid share, repeat share) over the recorded graph_fitness calls.

        A call repeats when the canonical active program of its chromosome
        was already scored on the same graph earlier in the same evolve run
        (calls outside any run form one group).
        """
        if not self.fitness_calls:
            return 0.0, 0.0
        seen: set = set()
        repeats = invalid_count = 0
        for run, graph_id, chrom, value in self.fitness_calls:
            if value == invalid:
                invalid_count += 1
            key = (run, graph_id, canonical_program(chrom, active_positions))
            if key in seen:
                repeats += 1
            else:
                seen.add(key)
        calls = len(self.fitness_calls)
        return invalid_count / calls, repeats / calls

    def write(self, path) -> None:
        """Write the spans as arrays plus the span-name table."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_ids=np.frombuffer(self.name_ids, dtype=np.uint16),
            parents=np.frombuffer(self.parents, dtype=np.int64),
            starts=np.frombuffer(self.starts),
            ends=np.frombuffer(self.ends),
        )


def canonical_program(chrom, active_positions) -> tuple:
    """The genes feeding the output, renumbered densely: two chromosomes
    with the same key compute the same function on every input."""
    active = active_positions(chrom)
    renumber = {pos: i for i, pos in enumerate(active)}
    return tuple(
        (chrom.genes[pos].symbol, tuple(renumber[a] for a in chrom.genes[pos].args))
        for pos in active
    )
