"""Shared chromosome builders, the reference evaluator and the reference
game search for the test suite."""

import numpy as np
import pytest

from mepnim.expr import _HEAP, _N, _NOT, Chromosome, EvalError, Gene, _trunc_div, _trunc_mod, evaluate, evaluate_many
from mepnim.game import canonicalize, children


def chrom(*specs) -> Chromosome:
    """Build a chromosome from terse gene specs.

    A spec is either a terminal symbol string ("a1", "n") or a tuple
    ("xor", 1, 2) with 1-based argument labels matching the text format.
    """
    genes = []
    for spec in specs:
        if isinstance(spec, str):
            genes.append(Gene(spec))
        else:
            genes.append(Gene(spec[0], tuple(label - 1 for label in spec[1:])))
    return Chromosome(tuple(genes))


def xor_chain(n_heaps: int) -> Chromosome:
    """a1 xor a2 xor ... xor an; the classical correct formula."""
    specs: list = ["a1"]
    for i in range(2, n_heaps + 1):
        specs.append(f"a{i}")
        specs.append(("xor", len(specs) - 1, len(specs)))
    return chrom(*specs)


def xor3_minus_a4() -> Chromosome:
    """((a1 xor a2) xor a3) - a4; correct by xor cancellation."""
    return chrom("a1", "a2", ("xor", 1, 2), "a3", ("xor", 3, 4), "a4", ("-", 5, 6))


def worked_example() -> Chromosome:
    """a1 - a1*a2, the hand-scored example with fitness 4 on (2,1)."""
    return chrom("a1", "a2", ("*", 1, 2), ("-", 1, 3))


def wrap64(x: int) -> int:
    """x as a signed 64-bit two's-complement value."""
    return ((x + (1 << 63)) & ((1 << 64) - 1)) - (1 << 63)


# the interpreter's binary operators, indexed by opcode (the order of FUNCTIONS)
_REFERENCE_BINARY = (
    lambda a, b: wrap64(a + b),
    lambda a, b: wrap64(a - b),
    lambda a, b: wrap64(a * b),
    _trunc_div,
    _trunc_mod,
    lambda a, b: a & b,
    lambda a, b: a | b,
    lambda a, b: a ^ b,
)


def reference_evaluate(c: Chromosome, state, n: int | None = None) -> int:
    """The chromosome's value on one state by interpreting its program one
    instruction at a time: the slow reference for `evaluate` and
    `evaluate_many`.  Raises EvalError as they do; checks nothing else."""
    heaps = tuple(state)
    if n is None:
        n = len(heaps)
    values: list[int] = []
    for op, x, y in c.program.code:
        if op == _HEAP:
            values.append(wrap64(heaps[x]))
        elif op == _N:
            values.append(n)
        elif op == _NOT:
            values.append(~values[x])
        else:
            values.append(_REFERENCE_BINARY[op](values[x], values[y]))
    return values[-1]


def _outcome(evaluator, c, state, n):
    try:
        return evaluator(c, state, n)
    except EvalError as error:
        return f"EvalError: {error}"


def assert_evaluators_agree(c: Chromosome, states, n: int) -> None:
    """`evaluate` on each state equals `reference_evaluate`, EvalError and
    its message included, and `evaluate_many` on the states' matrix (heaps
    wrapped to int64) equals it too, or raises EvalError when some state
    does."""
    expected = [_outcome(reference_evaluate, c, s, n) for s in states]
    assert [_outcome(evaluate, c, s, n) for s in states] == expected
    matrix = np.array([[wrap64(h) for h in s] for s in states], dtype=np.int64).reshape(len(states), n)
    if any(isinstance(value, str) for value in expected):
        with pytest.raises(EvalError):
            evaluate_many(c, matrix, n)
    else:
        assert evaluate_many(c, matrix, n).tolist() == expected


def reference_bfs(root, mode):
    """Breadth-first closure of `children` from the root: states in
    discovery order, and edges as discovery positions, grouped by source in
    that order and per source in `children` order.  The slow reference for
    `build_graph` and `bfs_order`, and the edges of a tuple graph, which
    stores none."""
    start = canonicalize(root, mode)
    nodes, index, src, dst = [start], {start: 0}, [], []
    for i, state in enumerate(nodes):  # grows while iterated
        for child in children(state, mode):
            if child not in index:
                index[child] = len(nodes)
                nodes.append(child)
            src.append(i)
            dst.append(index[child])
    return nodes, src, dst


def reference_graph(root, mode):
    """`reference_bfs` in the node ids `GameGraph` documents: a state's id
    is its rank among all the graph's states in lexicographic order, which
    is the box code in tuple mode.  Returns the states in id order, the ids
    in breadth-first order, and the edges grouped by source in id order and
    per source in `children` order."""
    nodes, src, dst = reference_bfs(root, mode)
    states = sorted(nodes)
    node_id = {state: i for i, state in enumerate(states)}
    ids = [node_id[state] for state in nodes]
    edges = sorted(((ids[u], ids[v]) for u, v in zip(src, dst)), key=lambda edge: edge[0])  # stable
    return states, ids, [u for u, _ in edges], [v for _, v in edges]


def reference_edges(graph):
    """The graph's edges from `reference_graph`, as int64 source and target
    arrays over its node ids."""
    _, _, src, dst = reference_graph(graph.root, graph.mode)
    return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)
