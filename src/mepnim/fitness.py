"""Rule-violation fitness of a formula over a game graph.

A formula labels a state P when it evaluates to 0, N otherwise.  Its fitness
is the number of states/edges contradicting the three winning-strategy
rules: (i) no move may lead from a P-labeled state to another P-labeled
state, (ii) every non-terminal N-labeled state must have at least one
P-labeled child, (iii) the terminal state must be labeled P.  Zero
violations means the labeling is the true P/N partition.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .expr import _HEAP, Chromosome, EvalError, evaluate_broadcast, evaluate_many
from .game import GameGraph, StateSpaceMode

#: Fitness of a formula that divides by zero somewhere on the graph.
#: Compares strictly worse than every violation count.
INVALID = math.inf

class Label(Enum):
    P = "P"
    N = "N"


@dataclass(frozen=True)
class FitnessBreakdown:
    """Per-rule violation counts; `total` is the fitness value."""

    rule_i: int
    rule_ii: int
    rule_iii: int

    @property
    def total(self) -> int:
        return self.rule_i + self.rule_ii + self.rule_iii


def graph_fitness(chrom: Chromosome, graph: GameGraph) -> tuple[int | float, FitnessBreakdown | None]:
    """Total violation count and its per-rule breakdown over the graph.

    Returns (INVALID, None) when the formula raises EvalError on any node;
    partial credit for partially evaluable formulas is deliberately not
    given.

    A multiset formula is scored on the graph's `_Quotient` by the heaps
    it reads when one is kept, and per edge otherwise (see `_quotient`).
    """
    try:
        if graph.mode is StateSpaceMode.TUPLE:
            p = evaluate_broadcast(chrom, graph.box_axes) == 0
            rule_i, rule_ii, rule_iii = _box_violations(p, graph.box_shape)
        elif (quotient := _quotient(chrom, graph)) is not None:
            p = evaluate_many(chrom, quotient.rows, graph.n_heaps) == 0
            rule_i, rule_ii, rule_iii = quotient.violations(p)
        else:
            p = evaluate_many(chrom, graph.heap_matrix, graph.n_heaps) == 0
            rule_i, rule_ii, rule_iii = _edge_violations(p, graph)
    except EvalError:
        return INVALID, None
    breakdown = FitnessBreakdown(rule_i, rule_ii, rule_iii)
    return breakdown.total, breakdown


def _edge_violations(p: np.ndarray, graph: GameGraph) -> tuple[int, int, int]:
    """The three rule counts from per-source sums over the edge arrays.

    ``np.add.reduceat`` over the edge offsets sums the P-mask of each
    node's children, c[u], so rule i is c . p and rule ii counts the nodes
    where c + p is 0.  The terminal, node 0 and the only one with no
    edges, is left out of both: reduceat cannot give an empty range a sum
    of 0."""
    rule_iii = int(not p[0])
    sources = len(p) - 1
    if not sources:  # the terminal alone, with no edges
        return 0, 0, rule_iii
    edge_dst = graph.edge_dst
    count_type = np.int32 if len(edge_dst) < 2**31 else np.int64  # holds the edge count
    c = np.add.reduceat(p[edge_dst], graph.edge_offsets[1:-1], dtype=count_type)
    p = p[1:]
    rule_i = int(c @ p)
    c += p
    rule_ii = sources - int(np.count_nonzero(c))
    return rule_i, rule_ii, rule_iii


#: Edges per chunk of a quotient build: its temporaries are a few arrays of
#: this length, whatever the size of the graph.
QUOTIENT_CHUNK_EDGES = 2**14

#: Multiset graphs with fewer edges keep no quotients.  There both ways of
#: scoring are bound by numpy's fixed cost per call, and a quotient's extra
#: calls and lookup cost more than the per-edge sums it saves.  Per call
#: over 200 random 15-gene formulas on a 2-CPU Xeon, scoring with quotients
#: took 19% longer than per edge at 350 edges and 6% longer at 840, and
#: 8-22% less time at 1,764-3,360 edges and 49% less at 9,900.
QUOTIENT_MIN_EDGES = 2**10

# held while a graph's quotient bookkeeping changes and while one is built
_QUOTIENT_LOCK = threading.Lock()


class _Quotient:
    """A multiset graph divided by the heaps R that a formula reads.

    A node's class is its row of ``heap_matrix[:, R]``, and a formula that
    reads only R takes one value on each class: ``rows`` holds one heap
    matrix row per class, K rows in all, and the formula is evaluated on
    them.  Every one of a class's nodes has that row's values, so EvalError
    is raised on the rows exactly when it is over ``heap_matrix``.

    ``pairs[a, b]`` counts the edges from class a to class b.  Each node
    falls in the group of its class set: its own class and its children's,
    held as uint64 bit words over K (class c is bit c % 64 of word c //
    64); ``masks`` has one such set per group and ``sizes`` its node
    count.  Class 0 is the terminal's (see `_classes`)."""

    __slots__ = ("rows", "pairs", "masks", "sizes", "num_nodes", "nbytes")

    def __init__(self, rows, pairs, masks, sizes):
        self.rows, self.pairs, self.masks, self.sizes = rows, pairs, masks, sizes
        self.num_nodes = int(sizes.sum())
        self.nbytes = rows.nbytes + pairs.nbytes + masks.nbytes + sizes.nbytes

    def violations(self, p: np.ndarray) -> tuple[int, int, int]:
        """The three rule counts from the P-mask `p` over the classes.

        Rule i sums pairs[a, b] over the P classes a and b.  A node is N
        with no P child exactly when its class set holds no P class, so
        rule ii is the summed size of the groups whose set misses
        ``packbits(p)``, less the terminal when it is N (rule iii): the
        terminal's set is its own class alone."""
        rule_iii = int(not p[0])
        q = p.astype(self.pairs.dtype)
        rule_i = int(self.pairs.dot(q).dot(q))
        words = np.packbits(p, bitorder="little").tobytes().ljust(self.masks.shape[1] * 8, b"\0")
        hit = (self.masks & np.frombuffer(words, dtype="<u8")).any(axis=1)
        rule_ii = self.num_nodes - int(self.sizes.dot(hit)) - rule_iii
        return rule_i, rule_ii, rule_iii


def _build_bytes(classes: int, graph: GameGraph, pair_type) -> int:
    """The most bytes that building a quotient of that many classes holds
    at once, beyond its chunk-sized temporaries: its arrays, as if every
    node were a group of its own, and the build's class set of every
    node."""
    words = -(-classes // 64)
    return classes * graph.n_heaps * 8 + classes * classes * np.dtype(pair_type).itemsize + graph.num_nodes * (16 * words + 8)


class _Quotients:
    """The quotients one multiset graph keeps, keyed by read set: an int
    with bit i set when the formula reads heap i.

    ``kept`` maps a read set to its quotient, or to None when it is scored
    per edge for good; ``seen`` holds the read sets scored once so far.
    ``left`` is what remains of the byte budget, the bytes of the graph's
    ``edge_dst`` (none below `QUOTIENT_MIN_EDGES` edges), and ``smallest``
    the `_build_bytes` of a one-class quotient; ``closed`` says that even
    the whole budget is below it, so nothing is ever kept.  Pair counts are
    float32 while the edge count is below 2^24 and float64 otherwise, so
    that ``pairs.dot(q)`` runs as a BLAS product and stays exact: every
    partial sum is an integer no larger than the edge count."""

    def __init__(self, graph: GameGraph):
        self.kept: dict[int, _Quotient | None] = {}
        self.seen: set[int] = set()
        self.left = graph.edge_dst.nbytes if graph.num_edges >= QUOTIENT_MIN_EDGES else 0
        self.pair_type = np.float32 if graph.num_edges < 2**24 else np.float64
        self.smallest = _build_bytes(1, graph, self.pair_type)
        self.closed = self.left < self.smallest

    def decide(self, reads: int, graph: GameGraph) -> _Quotient | None:
        """The quotient of a read set not in ``kept``, built now if this is
        its second use and it fits, or None.  A read set naming a heap the
        game lacks gets None, and its evaluation raises ValueError."""
        if self.left < self.smallest or reads >> graph.n_heaps:
            return None
        with _QUOTIENT_LOCK:
            if reads in self.kept:
                return self.kept[reads]
            every = reads == (1 << graph.n_heaps) - 1
            if not every and reads not in self.seen:
                self.seen.add(reads)
                return None
            self.seen.discard(reads)
            quotient = None
            if not every:
                first, classes = _classes(graph, [i for i in range(graph.n_heaps) if reads >> i & 1])
                if _build_bytes(len(first), graph, self.pair_type) <= self.left:
                    quotient = _build_quotient(graph, first, classes, self.pair_type)
                    self.left -= quotient.nbytes
            self.kept[reads] = quotient
            return quotient


def _quotient(chrom: Chromosome, graph: GameGraph) -> _Quotient | None:
    """The quotient of a multiset graph to score `chrom` on, or None to
    score it per edge.

    Quotients are derived data kept on the graph, like its labeling, by
    three rules.  A read set gets one the second time it is seen, so a
    single call on a fresh graph builds nothing.  The kept quotients take
    no more bytes in all than the graph's ``edge_dst``, and whether one
    fits is decided from its class count, before any work over the edges:
    a read set that does not fit, or that reads every heap, is scored per
    edge, as is every formula on a graph of fewer than `QUOTIENT_MIN_EDGES`
    edges.  The build goes over the edges in chunks of
    `QUOTIENT_CHUNK_EDGES`.  Once no quotient fits in what is left, an
    undecided read set is scored per edge with no bookkeeping, and on a
    graph whose budget holds none at all the read set is not even
    computed."""
    try:
        cache = graph._quotients
    except AttributeError:
        cache = graph.__dict__.setdefault("_quotients", _Quotients(graph))
    if cache.closed:
        return None
    reads = 0
    for op, x, _ in chrom.program.code:
        if op == _HEAP:
            reads |= 1 << x
    quotient = cache.kept.get(reads, cache)  # the cache itself when undecided
    return cache.decide(reads, graph) if quotient is cache else quotient


def _classes(graph: GameGraph, reads: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The classes of a multiset graph's nodes by the heaps `reads`: a
    node of each class, and each node's class.

    A node's class code is its row of ``heap_matrix[:, reads]`` read as a
    mixed-radix number, heap i's digit running up to ``root[i]``; before a
    digit would carry it past int64, the codes so far are replaced by their
    ranks, which are below the node count.  Classes are numbered in code
    order, so the terminal, node 0, whose code is 0, is in class 0."""
    code, span = np.zeros(graph.num_nodes, dtype=np.int64), 1
    for i in reads:
        radix = graph.root[i] + 1
        if span * radix >= 2**63:
            code = np.unique(code, return_inverse=True)[1]
            span = graph.num_nodes
        code *= radix
        code += graph.heap_matrix[:, i]
        span *= radix
    _, first, classes = np.unique(code, return_index=True, return_inverse=True)
    return first, classes


def _build_quotient(graph: GameGraph, first: np.ndarray, classes: np.ndarray, pair_type) -> _Quotient:
    """The `_Quotient` of a multiset graph whose node u is in class
    ``classes[u]``, with ``first[c]`` a node of class c.

    The edges are taken a run of sources at a time, about
    `QUOTIENT_CHUNK_EDGES` edges, so every temporary over edges is
    chunk-sized: each run adds its edges to ``pairs`` and its nodes' class
    sets to ``sets``, one row of bit words per node.  The rows are then
    sorted, one word at a time as `np.lexsort` keys, and each run of equal
    rows is a group; only one word of a temporary is ever held per node."""
    k, offsets, size = len(first), graph.edge_offsets, graph.num_nodes
    words = -(-k // 64)
    index_type = np.uint32 if max(k * k, size * words) < 2**32 else np.uint64
    classes = classes.astype(index_type)
    one = pair_type(1)
    pairs = np.zeros(k * k, dtype=pair_type)
    sets = np.zeros(size * words, dtype=np.uint64)
    sets[np.arange(size, dtype=index_type) * index_type(words) + (classes >> 6)] = np.left_shift(1, classes & 63, dtype=np.uint64)
    lo = 0
    while lo < size:
        hi = max(lo + 1, int(np.searchsorted(offsets, offsets[lo] + QUOTIENT_CHUNK_EDGES, side="right")) - 1)
        child = classes[graph.edge_dst[offsets[lo] : offsets[hi]]]
        source = np.repeat(np.arange(lo, hi, dtype=index_type), np.diff(offsets[lo : hi + 1]))
        key = classes[source]
        key *= index_type(k)
        key += child
        np.add.at(pairs, key, one)
        del key
        source *= index_type(words)  # now the word of ``sets`` that gets each child's bit
        source += child >> 6
        np.bitwise_or.at(sets, source, np.left_shift(1, child & 63, dtype=np.uint64))
        del child, source
        lo = hi
    sets = sets.reshape(size, words)
    order = np.lexsort(sets.T)
    starts = np.zeros(size, dtype=bool)
    starts[0] = True
    for word in sets.T:
        column = word[order]
        starts[1:] |= column[1:] != column[:-1]
    starts = np.flatnonzero(starts)
    sizes = np.diff(starts, append=size)
    return _Quotient(graph.heap_matrix[first], pairs.reshape(k, k), sets[order[starts]], sizes)


def _box_violations(p: np.ndarray, box_shape: tuple[int, ...]) -> tuple[int, int, int]:
    """The three rule counts of a tuple graph, from its P-mask `p` on the
    sub-box of the heaps the formula reads, with no edges.

    `p` has the shape `evaluate_broadcast` gives, h_i + 1 along a heap the
    formula reads and 1 along every other, and broadcasts to the box of
    shape `box_shape`.  Along heap i, the inclusive prefix sum of the
    box's P-mask counts the P states among v - t e_i for t = 0..v_i, so its
    sum over the heaps, s[v], is the number of P children of v plus n p[v].
    Then rule i is the sum of s over the P states minus n |P|; with n >= 1,
    s[v] is 0 exactly when v is N and has no P child, which is rule ii, or
    rule iii when v is the terminal (box code 0).

    Along an axis where `p` has length 1 the mask is constant, so that
    prefix sum is (v_i + 1) p, and s = s' + p * (the sum of v_i over those
    axes), where s' is the sum taken on `p` itself, each such axis adding p
    once.  Over the box, each element of `p` stands for M states, M the
    product of h_i + 1 over those axes, and v_i averages h_i / 2 over them.
    With Q the P count of `p`, rule i is M (sum of s' p - n Q) + Q M (sum of
    h_i / 2 over those axes), and s has M zeros per zero of s'.  An empty
    heap (h_i = 0) adds only p once; a formula that reads no heap has every
    axis of length 1, one that reads every heap none.

    The prefix sums add whole slabs, one vectorised call per step along
    the axis: ``np.add.accumulate`` would instead pay a fixed cost per
    line, and most lines of a many-heap box are short."""
    n, shape = p.ndim, p.shape
    rule_iii = int(not p.flat[0])
    if not n:  # the terminal alone
        return 0, 0, rule_iii
    flat = [dim - 1 for dim, length in zip(box_shape, shape) if length == 1]  # h_i along p's length-1 axes
    many = math.prod(h + 1 for h in flat)  # an int, exact at any box size
    count_type = np.min_scalar_type(sum(shape))  # s'[v] <= sum(v) + n on p
    p01 = p.view(np.uint8)
    s = np.multiply(p01, len(flat), dtype=count_type)
    part = np.empty_like(s)
    for axis, dim in enumerate(shape):
        if dim == 1:
            continue
        part[...] = p01
        steps = part.reshape(-1, dim, math.prod(shape[axis + 1 :])).swapaxes(0, 1)
        for below, slab in zip(steps, steps[1:]):
            slab += below
        s += part
    rule_ii = many * (s.size - int(np.count_nonzero(s))) - rule_iii
    q = int(np.count_nonzero(p))
    s *= p01
    rule_i = many * (int(s.sum()) - n * q) + q * sum(many * h // 2 for h in flat)
    return rule_i, rule_ii, rule_iii
