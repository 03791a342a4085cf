"""Shared chromosome builders and the reference game search for the test
suite."""

from mepnim.expr import Chromosome, Gene
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


def reference_bfs(root, mode):
    """Breadth-first closure of `children` from the root: nodes in discovery
    order, edges grouped by source in node order and per source in
    `children` order.  The slow reference for `build_graph`, and the edges
    of a tuple graph, which stores none."""
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
