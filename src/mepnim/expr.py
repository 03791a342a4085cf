"""Linear chromosomes of terminal/operator genes and their evaluation.

A chromosome is a fixed-length sequence of genes, read top to bottom like
intermediate compiler code: each gene either binds a terminal (a heap size
``a1``..``aN`` or the heap count ``n``) or applies an operator to the values
of strictly earlier genes.  The chromosome's value is the value of its last
gene.  All arithmetic is signed 64-bit two's complement with wrapping
``+ - *``; ``div``/``mod`` are truncated (round toward zero); the bitwise
operators act on the 64-bit bit pattern.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

FUNCTIONS = ("+", "-", "*", "div", "mod", "and", "or", "xor", "not")
ARITY = {sym: (1 if sym == "not" else 2) for sym in FUNCTIONS}

_MASK = (1 << 64) - 1
_SIGN = 1 << 63


class EvalError(Exception):
    """Division or modulo by zero inside the evaluated expression."""


class ParseError(Exception):
    """Malformed chromosome text; carries the offending line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def terminal_symbols(n_heaps: int) -> tuple[str, ...]:
    """All terminal symbols for a game with ``n_heaps`` heaps."""
    return ("n",) + tuple(f"a{i}" for i in range(1, n_heaps + 1))


def heap_ref(symbol: str) -> int | None:
    """0-based heap index for symbols ``a1``, ``a2``, ... else None."""
    if len(symbol) >= 2 and symbol[0] == "a" and symbol[1] != "0" and symbol[1:].isdigit():
        return int(symbol[1:]) - 1
    return None


def is_terminal_symbol(symbol: str) -> bool:
    return symbol == "n" or heap_ref(symbol) is not None


@dataclass(frozen=True)
class Gene:
    """One chromosome entry: a terminal (no args) or an operator with
    argument positions pointing at earlier genes."""

    symbol: str
    args: tuple[int, ...] = ()


class Program(NamedTuple):
    """A chromosome compiled for execution.

    ``code`` holds one ``(opcode, x, y)`` instruction per active gene, in
    gene order: a heap terminal carries its 0-based heap index in ``x``; an
    operator carries the slots (indices into ``code``) of its arguments in
    ``x`` and ``y``.  Positions of inactive genes leave no trace in it, so
    two chromosomes with equal ``code`` compute the same function on every
    input.
    """

    max_heap_ref: int
    active: tuple[int, ...]
    code: tuple[tuple[int, int, int], ...]


_FUNCTION_OPS = {sym: i for i, sym in enumerate(FUNCTIONS)}
_NOT = _FUNCTION_OPS["not"]
_N = len(FUNCTIONS)
_HEAP = _N + 1
# terminal symbol -> its instruction; heap terminals are added on first use
_TERMINALS: dict[str, tuple[int, int, int]] = {"n": (_N, -1, 0)}
# one shared copy of each operator instruction compiled so far, so that the
# programs a fitness cache keeps hold no copies of their own; there are at
# most len(FUNCTIONS) * L * L of them for chromosomes of length L
_OPERATORS: dict[tuple[int, int, int], tuple[int, int, int]] = {}


def _add_terminal(symbol: str) -> tuple[int, int, int]:
    """Enter a valid heap terminal in `_TERMINALS` and return its
    instruction."""
    instruction = _TERMINALS[symbol] = (_HEAP, heap_ref(symbol), 0)
    return instruction


def _gene_fault(gene: Gene, pos: int) -> str | None:
    """What breaks the chromosome invariants in `gene` at 0-based position
    `pos`, or None: an unknown symbol, a terminal with arguments, an
    operator first or with the wrong number of arguments, or an argument
    that does not point at an earlier gene."""
    if is_terminal_symbol(gene.symbol):
        return f"terminal {gene.symbol!r} takes no arguments" if gene.args else None
    if gene.symbol not in ARITY:
        return f"unknown symbol {gene.symbol!r}"
    if pos == 0:
        return "first gene must be a terminal symbol"
    if len(gene.args) != ARITY[gene.symbol]:
        return f"{gene.symbol!r} expects {ARITY[gene.symbol]} argument(s), got {len(gene.args)}"
    for a in gene.args:
        if not 0 <= a < pos:
            return f"argument {a + 1} must reference an earlier gene (1..{pos})"
    return None


@dataclass(frozen=True)
class Chromosome:
    """Immutable, validated gene sequence.  Raises ValueError on any
    structural violation (empty, non-terminal first gene, bad arity,
    forward/self argument reference, unknown symbol).

    Validation happens here and in `parse_chromosome`, where genes come
    from outside; both apply `_gene_fault` to every gene.  The variation
    operators build their offspring through `_trusted`, which skips it.
    """

    genes: tuple[Gene, ...]

    def __post_init__(self):
        object.__setattr__(self, "genes", tuple(self.genes))
        if not self.genes:
            raise ValueError("chromosome must contain at least one gene")
        for pos, gene in enumerate(self.genes):
            fault = _gene_fault(gene, pos)
            if fault:
                raise ValueError(f"gene {pos + 1}: {fault}")

    @classmethod
    def _trusted(cls, genes: tuple[Gene, ...]) -> Chromosome:
        """Build without validation, for callers whose genes already keep
        every invariant the public constructor checks."""
        chrom = object.__new__(cls)
        object.__setattr__(chrom, "genes", genes)
        return chrom

    @property
    def program(self) -> Program:
        """The compiled form, computed on first use and kept on the
        instance outside the dataclass fields, so ``==``, ``hash`` and
        ``repr`` do not see it."""
        program = self.__dict__.get("_program")
        if program is None:
            program = _compile(self.genes)
            object.__setattr__(self, "_program", program)
        return program

    def __getstate__(self) -> dict:
        # only the genes: the kept program is remade on first use, and the
        # generated scalar function of `evaluate` could not be pickled
        return {"genes": self.genes}

    def __len__(self) -> int:
        return len(self.genes)


def _compile(genes: tuple[Gene, ...]) -> Program:
    # one backward sweep marks the active genes (arguments always point
    # backward) and finds the largest heap reference over all genes
    last = len(genes) - 1
    needed = [False] * last + [True]
    max_ref = -1
    for pos in range(last, -1, -1):
        gene = genes[pos]
        if gene.args:
            if needed[pos]:
                for a in gene.args:
                    needed[a] = True
        else:
            ref = (_TERMINALS.get(gene.symbol) or _add_terminal(gene.symbol))[1]
            if ref > max_ref:
                max_ref = ref

    slot = [0] * (last + 1)
    active = []
    code = []
    for pos in range(last + 1):
        if not needed[pos]:
            continue
        slot[pos] = len(code)
        active.append(pos)
        gene = genes[pos]
        args = gene.args
        if not args:
            code.append(_TERMINALS[gene.symbol])
            continue
        x = slot[args[0]]
        instruction = (_NOT, x, 0) if len(args) == 1 else (_FUNCTION_OPS[gene.symbol], x, slot[args[1]])
        code.append(_OPERATORS.setdefault(instruction, instruction))
    return Program(max_ref, tuple(active), tuple(code))


def max_heap_ref(chrom: Chromosome) -> int:
    """Largest 0-based heap index referenced, or -1 if none."""
    return chrom.program.max_heap_ref


def active_positions(chrom: Chromosome) -> list[int]:
    """Positions that feed the last gene's expression, ascending."""
    return list(chrom.program.active)


def _wrap(x: int) -> int:
    return ((x + _SIGN) & _MASK) - _SIGN


def _trunc_div(a: int, b: int) -> int:
    if b == 0:
        raise EvalError("division by zero")
    q = abs(a) // abs(b)
    return _wrap(-q if (a < 0) != (b < 0) else q)


def _trunc_mod(a: int, b: int) -> int:
    if b == 0:
        raise EvalError("modulo by zero")
    r = abs(a) % abs(b)  # below |b|, so it needs no wrap
    return -r if a < 0 else r


# `_wrap` inlined, adding -2^63 where `_wrap` adds 2^63 (the same modulo
# 2^64): no numpy integer type holds both -2^63 and 2^64 - 1, so a heap read
# of a numpy integer fails here, with OverflowError (older numpy may raise
# TypeError), before any value comes of it
_WRAPPED = f"((%s + -{_SIGN}) & {_MASK}) - {_SIGN}"
_HEAP_READ = _WRAPPED % "h[%d]"
# the generated scalar form of each binary opcode (the order of FUNCTIONS),
# to be filled with its two argument slots: + - * wrap to int64 inline, and
# div and mod call the helpers that raise EvalError
_SCALAR_BINARY = (
    _WRAPPED % "v%d + v%d",
    _WRAPPED % "v%d - v%d",
    _WRAPPED % "v%d * v%d",
    "_trunc_div(v%d, v%d)",
    "_trunc_mod(v%d, v%d)",
    "v%d & v%d",
    "v%d | v%d",
    "v%d ^ v%d",
)


def _scalar_function(program: Program):
    """`program` as a Python function of a heap tuple and the heap count.

    Its source is one assignment per instruction, built from the integer
    opcodes and slots of ``program.code`` alone (``%d`` refuses anything
    else), so no gene text reaches `exec`."""
    lines = ["def run(h, n):"]
    for slot, (op, x, y) in enumerate(program.code):
        if op == _HEAP:
            value = _HEAP_READ % x
        elif op == _N:
            value = "n"
        elif op == _NOT:
            value = "~v%d" % x
        else:
            value = _SCALAR_BINARY[op] % (x, y)
        lines.append("    v%d = %s" % (slot, value))
    lines.append("    return v%d" % (len(program.code) - 1))
    namespace = {"_trunc_div": _trunc_div, "_trunc_mod": _trunc_mod}
    exec("\n".join(lines), namespace)
    return namespace["run"]


def _check_heap_refs(program: Program, n: int) -> None:
    if program.max_heap_ref >= n:
        raise ValueError(f"chromosome references heap a{program.max_heap_ref + 1} but game has {n} heaps")


def evaluate(chrom: Chromosome, state, n: int | None = None) -> int:
    """Value of the chromosome on one heap state.

    Only genes contributing to the last gene's expression are computed, so
    a division by zero in dead code does not raise.  Raises EvalError for
    div/mod by zero on the active path, ValueError on a state/heap-count
    mismatch.  The first call on a chromosome generates a Python function
    from its program (`_scalar_function`) and keeps it on the instance
    beside the program, outside the dataclass fields; every call runs it.
    """
    heaps = tuple(state)
    if n is not None and n != len(heaps):
        raise ValueError(f"state has {len(heaps)} heaps, expected {n}")
    n = len(heaps)
    program = chrom.program
    _check_heap_refs(program, n)
    run = chrom.__dict__.get("_scalar")
    if run is None:
        run = _scalar_function(program)
        object.__setattr__(chrom, "_scalar", run)
    try:
        return run(heaps, n)
    except (OverflowError, TypeError):
        # numpy integer heaps, such as a heap-matrix row, fail at their
        # first read (see _HEAP_READ); their int values do not
        return run(tuple(map(operator.index, heaps)), n)


def _div_many(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a / b rounded toward zero and wrapped."""
    if np.any(b == 0):
        raise EvalError("division by zero")
    neg_one = b == -1
    if neg_one.any():
        # guard INT64_MIN // -1, the one overflowing integer division
        return np.where(neg_one, -a, _div_many(a, np.where(neg_one, np.int64(1), b)))
    q = a // b
    r = a - q * b
    return q + ((r != 0) & ((a < 0) != (b < 0)))


def _mod_many(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The remainder of `_div_many`, with a's sign: numpy's fmod, which
    gives 0 for INT64_MIN mod -1."""
    if np.any(b == 0):
        raise EvalError("modulo by zero")
    return np.fmod(a, b)


# vectorized operators, indexed by opcode (the order of FUNCTIONS)
_BINARY_MANY = (
    np.add,
    np.subtract,
    np.multiply,
    _div_many,
    _mod_many,
    np.bitwise_and,
    np.bitwise_or,
    np.bitwise_xor,
)


def _run(program: Program, columns, n: int, n_shape: tuple[int, ...]) -> np.ndarray:
    """The vectorized evaluator: `program` over per-heap int64 arrays
    ``columns[i]`` that broadcast together, with the heap count ``n`` as an
    array of shape `n_shape`.  Every value has the broadcast shape of the
    arrays it was computed from.  Raises EvalError if an operand divided by
    holds a 0 anywhere."""
    values: list[np.ndarray] = []
    for op, x, y in program.code:
        if op == _HEAP:
            values.append(columns[x])
        elif op == _N:
            values.append(np.full(n_shape, n, dtype=np.int64))
        elif op == _NOT:
            values.append(~values[x])
        else:
            values.append(_BINARY_MANY[op](values[x], values[y]))
    return values[-1]


def evaluate_many(chrom: Chromosome, heap_matrix: np.ndarray, n: int | None = None) -> np.ndarray:
    """Vectorized `evaluate` over a (states, heaps) int64 matrix.

    Returns one value per row; agrees elementwise with the scalar path.
    Raises EvalError if any row hits div/mod by zero on the active path.
    """
    if n is None:
        n = heap_matrix.shape[1]
    program = chrom.program
    _check_heap_refs(program, n)
    return _run(program, heap_matrix.T, n, heap_matrix.shape[:1])


def evaluate_broadcast(chrom: Chromosome, axes: tuple[np.ndarray, ...]) -> np.ndarray:
    """Vectorized `evaluate` over a grid of states given by its axes, such
    as a tuple graph's ``box_axes``: ``axes[i]`` is an int64 array of
    ``n = len(axes)`` dimensions that holds heap i's values along axis i
    and has length 1 on every other axis, so the axes broadcast together to
    the grid.

    Each value is computed on the broadcast shape of only the axes it
    reads, so the result has the length of ``axes[i]`` along every axis i
    whose heap the active program reads and 1 along every other axis, and
    broadcasts to the grid.  Every element of an operand is the value of
    some grid point, so EvalError is raised exactly when `evaluate_many`
    over the grid's rows would raise it.
    """
    n = len(axes)
    program = chrom.program
    _check_heap_refs(program, n)
    return _run(program, axes, n, (1,) * n)


def decode_infix(chrom: Chromosome) -> str:
    """Fully parenthesized infix rendering of the last gene's expression."""
    text: dict[int, str] = {}
    for pos in active_positions(chrom):
        gene = chrom.genes[pos]
        if not gene.args:
            text[pos] = gene.symbol
        elif gene.symbol == "not":
            text[pos] = f"(not {text[gene.args[0]]})"
        else:
            text[pos] = f"({text[gene.args[0]]} {gene.symbol} {text[gene.args[1]]})"
    return text[len(chrom.genes) - 1]


def format_chromosome(chrom: Chromosome, heaps: int | None = None) -> str:
    """Numbered gene listing, one gene per line, 1-based labels and argument
    references.  With ``heaps`` set, a ``heaps=<N> genes=<L>`` header is
    prepended."""
    lines = []
    if heaps is not None:
        lines.append(f"heaps={heaps} genes={len(chrom.genes)}")
    for pos, gene in enumerate(chrom.genes):
        parts = [f"{pos + 1}: {gene.symbol}"] + [str(a + 1) for a in gene.args]
        lines.append(" ".join(parts))
    return "\n".join(lines)


def parse_chromosome(text: str) -> Chromosome:
    """Parse the numbered gene listing produced by `format_chromosome`.

    Raises ParseError (with line number) on unknown symbols, wrong arity,
    forward or self references, a non-terminal first gene, out-of-order
    labels, or a gene count disagreeing with the optional header.
    """
    declared_heaps: int | None = None
    declared_genes: int | None = None
    header_line = 0
    genes: list[Gene] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not genes and declared_genes is None and line.startswith("heaps="):
            declared_heaps, declared_genes = _parse_header(line, line_no)
            header_line = line_no
            continue

        label_part, sep, rest = line.partition(":")
        if not sep:
            raise ParseError("expected '<label>: <symbol> [args]'", line_no)
        try:
            label = int(label_part)
        except ValueError:
            raise ParseError(f"bad gene label {label_part.strip()!r}", line_no) from None
        if label != len(genes) + 1:
            raise ParseError(f"gene label {label} out of order (expected {len(genes) + 1})", line_no)

        tokens = rest.split()
        if not tokens:
            raise ParseError("missing symbol", line_no)
        symbol, args = tokens[0], []
        for tok in tokens[1:]:
            try:
                args.append(int(tok) - 1)
            except ValueError:
                raise ParseError(f"bad argument reference {tok!r}", line_no) from None
        gene = Gene(symbol, tuple(args))
        fault = _gene_fault(gene, len(genes))
        if fault:
            raise ParseError(fault, line_no)
        ref = heap_ref(symbol)
        if ref is not None and declared_heaps is not None and ref >= declared_heaps:
            raise ParseError(f"{symbol!r} exceeds declared heap count {declared_heaps}", line_no)
        genes.append(gene)

    if not genes:
        raise ParseError("no genes", 1)
    if declared_genes is not None and declared_genes != len(genes):
        raise ParseError(f"header declares {declared_genes} genes but {len(genes)} listed", header_line)
    return Chromosome._trusted(tuple(genes))


def _parse_header(line: str, line_no: int) -> tuple[int, int]:
    fields = dict(part.split("=", 1) for part in line.split() if "=" in part)
    try:
        heaps = int(fields["heaps"])
        length = int(fields["genes"])
    except (KeyError, ValueError):
        raise ParseError("header must be 'heaps=<N> genes=<L>'", line_no) from None
    if heaps < 1 or length < 1:
        raise ParseError("header counts must be positive", line_no)
    return heaps, length
