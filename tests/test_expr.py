import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_evaluators_agree, chrom, reference_evaluate, worked_example, xor3_minus_a4, xor_chain
from mepnim.expr import (
    _HEAP,
    Chromosome,
    EvalError,
    Gene,
    ParseError,
    active_positions,
    decode_infix,
    evaluate,
    evaluate_broadcast,
    evaluate_many,
    format_chromosome,
    heap_ref,
    max_heap_ref,
    parse_chromosome,
    Program,
    _scalar_function,
)
from mepnim.game import StateSpaceMode, build_graph
from mepnim.genetics import random_chromosome

INT64_MIN = -(1 << 63)


class TestEvaluate:
    def test_three_address_example(self):
        # (a1 + a2) * a4 built from six genes, two of them unused
        c = chrom("a1", "a2", ("+", 1, 2), "a3", "a4", ("*", 3, 5))
        assert evaluate(c, (1, 2, 9, 4)) == 12

    def test_single_terminal_identity(self):
        assert evaluate(chrom("a1"), (4, 4, 4, 4)) == 4

    def test_worked_example_values(self):
        c = worked_example()
        assert evaluate(c, (2, 1)) == 0
        assert evaluate(c, (2, 0)) == 2

    def test_heap_count_terminal_is_fixed(self):
        # n stays the declared heap count even when heaps are empty
        assert evaluate(chrom("n"), (0, 0, 0)) == 3

    def test_last_terminal_gene_ignores_the_rest(self):
        c = chrom("a1", "a2", ("div", 1, 2), "a2")
        assert evaluate(c, (7, 0)) == 0  # dead div-by-zero gene must not raise

    def test_multiplication_wraps_at_64_bits(self):
        # repeated squaring of 2 reaches 2^64 exactly -> wraps to 0
        c = chrom("a1", ("*", 1, 1), ("*", 2, 2), ("*", 3, 3), ("*", 4, 4), ("*", 5, 5), ("*", 6, 6))
        assert evaluate(c, (2,)) == 0

    def test_min_int64_div_minus_one_wraps(self):
        # build 2^63 (== INT64_MIN after wrap), then divide by -1
        c = chrom(
            "a1",                      # 1: 2
            ("*", 1, 1),               # 2: 2^2
            ("*", 2, 2),               # 3: 2^4
            ("*", 3, 3),               # 4: 2^8
            ("*", 4, 4),               # 5: 2^16
            ("*", 5, 5),               # 6: 2^32
            ("*", 6, 5),               # 7: 2^48
            ("*", 7, 4),               # 8: 2^56
            ("*", 8, 3),               # 9: 2^60
            ("*", 9, 2),               # 10: 2^62
            ("*", 10, 1),              # 11: 2^63 -> INT64_MIN
            "a2",                      # 12: 0
            ("not", 12),               # 13: -1
            ("div", 11, 13),           # 14: INT64_MIN / -1 wraps back
        )
        assert evaluate(c, (2, 0)) == INT64_MIN
        c_mod = Chromosome(c.genes[:13] + (Gene("mod", (10, 12)),))
        assert evaluate(c_mod, (2, 0)) == 0

    def test_truncated_division_and_remainder(self):
        # (0 - a1) div a2 and (0 - a1) mod a2 with a1=7, a2=2
        neg7_div = chrom("a1", "a2", ("-", 2, 2), ("-", 3, 1), ("div", 4, 2))
        neg7_mod = chrom("a1", "a2", ("-", 2, 2), ("-", 3, 1), ("mod", 4, 2))
        assert evaluate(neg7_div, (7, 2)) == -3  # truncates toward zero, not -4
        assert evaluate(neg7_mod, (7, 2)) == -1

    def test_bitwise_on_negatives(self):
        # (0 - a1) xor a2 with a1=5, a2=3: two's-complement xor
        c = chrom("a1", "a2", ("-", 2, 2), ("-", 3, 1), ("xor", 4, 2))
        assert evaluate(c, (5, 3)) == (-5) ^ 3

    def test_not_is_bitwise_complement(self):
        assert evaluate(chrom("a1", ("not", 1)), (5,)) == -6

    @pytest.mark.parametrize("op", ["div", "mod"])
    def test_zero_divisor_raises(self, op):
        c = chrom("a1", "a2", (op, 1, 2))
        with pytest.raises(EvalError):
            evaluate(c, (3, 0))

    def test_state_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate(chrom("a1"), (1, 2), n=3)

    def test_heap_reference_beyond_game_rejected(self):
        with pytest.raises(ValueError):
            evaluate(chrom("a3"), (1, 2))

    def test_numpy_rows_and_integers_give_the_value_of_the_int_tuple(self):
        # a heap-matrix row, and tuples of numpy integers, used to overflow
        # where the heap read adds 2^63 to wrap
        graph = build_graph((3, 2, 2), StateSpaceMode.MULTISET)
        rng = random.Random(5)
        formulas = [xor_chain(3), chrom("a1", "a2", ("*", 1, 2), "n", ("-", 3, 4))]
        formulas += [random_chromosome(8, 3, rng) for _ in range(20)]
        for c in formulas:
            for row in graph.heap_matrix:
                state = tuple(row.tolist())
                try:
                    expected = evaluate(c, state)
                except EvalError:
                    for numpy_state in (row, tuple(row), tuple(row.astype(np.uint64))):
                        with pytest.raises(EvalError):
                            evaluate(c, numpy_state)
                    continue
                for numpy_state in (row, tuple(row), tuple(row.astype(np.uint64))):
                    value = evaluate(c, numpy_state)
                    assert (type(value), value) == (int, expected)
                assert evaluate(c, state, np.int64(3)) == expected
        big = (np.uint64(2**63 + 3), np.uint64(5))
        assert evaluate(chrom("a1", "a2", ("-", 1, 2)), big) == evaluate(chrom("a1", "a2", ("-", 1, 2)), (2**63 + 3, 5))

    def test_generated_function_is_kept_outside_the_fields(self):
        c, twin = xor_chain(3), xor_chain(3)
        before = (repr(c), hash(c))
        assert evaluate(c, (1, 2, 3)) == 0
        kept = c.__dict__["_scalar"]
        assert evaluate(c, (1, 2, 4)) == 7
        assert c.__dict__["_scalar"] is kept
        assert c == twin and (repr(c), hash(c)) == before == (repr(twin), hash(twin))

    def test_pickles_after_evaluation(self):
        c = chrom("a1", "a2", ("div", 1, 2), "n", ("+", 3, 4))
        assert evaluate(c, (7, 2)) == 5
        copy = pickle.loads(pickle.dumps(c))
        assert copy == c and "_scalar" not in copy.__dict__
        assert evaluate(copy, (9, 2)) == 6

    def test_generated_source_takes_only_integer_code(self):
        # the source is formatted with %d, which refuses text
        with pytest.raises(TypeError):
            _scalar_function(Program(0, (0,), ((_HEAP, "0] or __import__('os').getpid() or h[0", 0),)))
        assert _scalar_function(Program(1, (0, 1, 2), ((_HEAP, 1, 0), (_HEAP, 0, 0), (7, 0, 1))))((6, 3), 2) == 5

    def test_equals_the_reference_on_random_chromosomes(self):
        rng = random.Random(20261020)
        for _ in range(300):
            n = rng.randint(1, 5)
            c = random_chromosome(rng.randint(1, 20), n, rng, rng.choice([0.3, 0.5, 0.9]))
            for _ in range(4):
                state = tuple(rng.choice([0, 1, 2, 7, rng.randint(0, 2**62), 2**63 - 1]) for _ in range(n))
                try:
                    expected = reference_evaluate(c, state)
                except EvalError as error:
                    with pytest.raises(EvalError, match=str(error)):
                        evaluate(c, state)
                else:
                    assert evaluate(c, state) == expected


class TestEvaluateMany:
    def test_agrees_with_scalar_path(self):
        rng = random.Random(20240917)
        for _ in range(300):
            n = rng.randint(1, 5)
            c = random_chromosome(rng.randint(1, 12), n, rng)
            states = [
                tuple(rng.choice([0, 1, 2, rng.randint(0, 2**40)]) for _ in range(n))
                for _ in range(6)
            ]
            assert_evaluators_agree(c, states, n)

    def test_one_writable_int64_value_per_row(self):
        matrix = np.array([[7, 0], [3, 2], [0, 0]], dtype=np.int64)
        for c in (chrom("n"), chrom("n", ("not", 1)), chrom("a1", "a2", ("+", 1, 2)), chrom("a2", "n", ("*", 1, 2))):
            values = evaluate_many(c, matrix)
            assert (values.shape, values.dtype, values.flags.writeable) == ((3,), np.int64, True)
        assert evaluate_many(chrom("n"), matrix).tolist() == [2, 2, 2]

    def test_dead_division_does_not_raise(self):
        c = chrom("a1", "a2", ("div", 1, 2), "a1")
        matrix = np.array([[7, 0], [3, 0]], dtype=np.int64)
        assert evaluate_many(c, matrix).tolist() == [7, 3]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 4), min_size=0, max_size=5),
    st.lists(st.tuples(st.integers(0, 2**32), st.sampled_from([0.3, 0.5, 0.9])), min_size=1, max_size=8),
)
@example([], [(0, 0.5), (1, 0.9)]).via("no heaps")
@example([0, 3, 0, 2], [(0, 0.5), (1, 0.9), (2, 0.9)]).via("empty heaps between")
@example([255, 3], [(0, 0.5), (1, 0.9)]).via("a heap at the uint8 limit")
def test_box_evaluation_equals_evaluate_many(root, draws):
    """On a tuple graph's broadcast axes, each value read back by box code
    equals `evaluate_many` over `heap_matrix`, and EvalError is raised by
    one exactly when it is raised by the other."""
    graph = build_graph(root, StateSpaceMode.TUPLE)
    n = len(root)
    formulas = [random_chromosome(1 + seed % 15, n, random.Random(seed), prob) for seed, prob in draws]
    formulas += [chrom("n"), chrom("n", ("-", 1, 1), ("div", 1, 2))]
    if n:
        formulas += [chrom("a1", "n", ("mod", 2, 1)), chrom(f"a{n}", ("not", 1), "a1", ("div", 3, 2))]
    for c in formulas:
        try:
            expected = evaluate_many(c, graph.heap_matrix, n)
        except EvalError:
            with pytest.raises(EvalError):
                evaluate_broadcast(c, graph.box_axes)
            continue
        values = evaluate_broadcast(c, graph.box_axes)
        assert values.dtype == np.int64
        by_node = np.broadcast_to(values, graph.box_shape).ravel()  # box codes are node ids
        assert by_node.tolist() == expected.tolist(), (root, c)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 4), min_size=0, max_size=6),
    st.lists(st.tuples(st.integers(0, 2**32), st.sampled_from([0.3, 0.5, 0.9])), min_size=1, max_size=8),
)
@example([], [(0, 0.5), (1, 0.9)]).via("no heaps")
@example([0, 3, 0, 2], [(0, 0.5), (1, 0.9), (2, 0.9)]).via("empty heaps between")
def test_box_evaluation_is_the_sub_box_of_the_heaps_read(root, draws):
    """The value has length h_i + 1 along every heap the active program
    reads and 1 along every other, which the tuple fitness scores on."""
    graph = build_graph(root, StateSpaceMode.TUPLE)
    n = len(root)
    formulas = [random_chromosome(1 + seed % 15, n, random.Random(seed), prob) for seed, prob in draws]
    formulas += [chrom("n")]
    if n:
        formulas += [chrom(f"a{n}"), chrom("a1", ("-", 1, 1)), chrom("a1", f"a{n}", ("xor", 1, 2))]
    for c in formulas:
        read = {heap_ref(c.genes[pos].symbol) for pos in active_positions(c)} - {None}
        try:
            values = evaluate_broadcast(c, graph.box_axes)
        except EvalError:
            continue
        assert values.shape == tuple(h + 1 if i in read else 1 for i, h in enumerate(root)), (root, c)


class TestInfix:
    def test_example_rendering(self):
        c = chrom("a1", "a2", ("+", 1, 2), "a3", "a4", ("*", 3, 5))
        assert decode_infix(c) == "((a1 + a2) * a4)"

    def test_single_terminal(self):
        assert decode_infix(chrom("a1")) == "a1"

    def test_xor_chain_minus(self):
        assert decode_infix(xor3_minus_a4()) == "(((a1 xor a2) xor a3) - a4)"

    def test_unary_not(self):
        assert decode_infix(chrom("n", ("not", 1))) == "(not n)"


class TestTextFormat:
    def test_parse_simple_listing(self):
        c = parse_chromosome("1: a1\n2: a2\n3: xor 1 2")
        assert c == chrom("a1", "a2", ("xor", 1, 2))

    def test_format_simple_listing(self):
        assert format_chromosome(chrom("a1", "a2", ("xor", 1, 2))) == "1: a1\n2: a2\n3: xor 1 2"

    def test_format_single_heap_count_gene(self):
        assert format_chromosome(chrom("n")) == "1: n"

    def test_format_six_gene_example(self):
        c = chrom("a1", "a2", ("+", 1, 2), "a3", "a4", ("*", 3, 5))
        assert format_chromosome(c) == "1: a1\n2: a2\n3: + 1 2\n4: a3\n5: a4\n6: * 3 5"

    def test_header_round_trip(self):
        text = format_chromosome(chrom("a1", "a2", ("xor", 1, 2)), heaps=2)
        assert text.splitlines()[0] == "heaps=2 genes=3"
        assert parse_chromosome(text) == chrom("a1", "a2", ("xor", 1, 2))

    def test_round_trip_random_chromosomes(self):
        rng = random.Random(7)
        for _ in range(200):
            c = random_chromosome(rng.randint(1, 20), rng.randint(1, 6), rng)
            assert parse_chromosome(format_chromosome(c)) == c

    @settings(deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 20),
        st.integers(1, 6),
        st.floats(0.0, 1.0),
        st.integers(0, 8),
    )
    def test_round_trip_property(self, seed, length, n_heaps, function_prob, spare):
        c = random_chromosome(length, n_heaps, random.Random(seed), function_prob)
        assert parse_chromosome(format_chromosome(c)) == c
        # any declared heap count from the largest referenced heap up
        # (at least 1, the smallest valid header) reads back the same genes
        lowest = max(max_heap_ref(c) + 1, 1)
        for heaps in (lowest, lowest + spare):
            assert parse_chromosome(format_chromosome(c, heaps=heaps)) == c

    def test_whitespace_normalization(self):
        messy = "  1:   a1 \n\n 2: a2\n3:  xor  1   2  \n"
        assert format_chromosome(parse_chromosome(messy)) == "1: a1\n2: a2\n3: xor 1 2"

    @pytest.mark.parametrize(
        "text,line",
        [
            ("1: + 1 2", 1),                       # first gene not terminal
            ("1: a1\n2: xor 2 1", 2),              # self reference
            ("1: a1\n2: xor 3 1", 2),              # forward reference
            ("1: a1\n2: bogus 1 1", 2),            # unknown symbol
            ("1: a0", 1),                          # a0 is not a terminal
            ("1: a1\n2: xor 1", 2),                # missing argument
            ("1: a1\n2: not 1 1", 2),              # unary with two args
            ("1: a1 1", 1),                        # terminal with an argument
            ("heaps=2 genes=3\n1: a1\n2: a2", 1),  # count mismatch on header line
            ("heaps=2 genes=2\n1: a1\n2: a3", 3),  # heap ref beyond header
            ("1: a1\n3: a2", 2),                   # label out of order
            ("", 1),                               # empty listing
            ("1: a1\na2", 2),                      # no ':' after the label
            ("1: a1\nx: a2", 2),                   # label not an integer
            ("1: a1\n2:", 2),                      # missing symbol
            ("1: a1\n2: xor 1 b", 2),              # argument reference not an integer
            ("heaps=x genes=2\n1: a1\n2: a2", 1),  # malformed header
            ("heaps=0 genes=1\n1: a1", 1),         # header count below 1
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_chromosome(text)
        assert err.value.line_no == line


class TestChromosomeInvariants:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Chromosome(())

    def test_function_first_gene_rejected(self):
        with pytest.raises(ValueError):
            Chromosome((Gene("+", (0, 0)),))

    def test_forward_reference_rejected(self):
        with pytest.raises(ValueError):
            Chromosome((Gene("a1"), Gene("xor", (0, 2)), Gene("a2")))

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            Chromosome((Gene("a1"), Gene("not", (0, 0))))

    def test_active_positions_of_dead_code(self):
        c = chrom("a1", "a2", ("div", 1, 2), "a1")
        assert active_positions(c) == [3]
