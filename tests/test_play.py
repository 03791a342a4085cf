import io
import random
from itertools import product

import pytest

from conftest import chrom, xor_chain
from mepnim import play
from mepnim.expr import evaluate
from mepnim.fitness import Label
from mepnim.game import StateSpaceMode, apply_move, build_graph, canonicalize, children
from mepnim.oracle import bouton_label
from mepnim.play import (
    MoveRecord,
    best_move,
    classifier_strategy,
    formula_classifier,
    interactive_session,
    oracle_classifier,
    play_game,
    random_strategy,
)

MULTISET = StateSpaceMode.MULTISET
TUPLE = StateSpaceMode.TUPLE


def bouton_is_p(state):
    """Bouton's rule as a classifier, an is-P predicate."""
    return bouton_label(state) is Label.P


class TestBestMove:
    def test_moves_to_the_xor_zero_child(self):
        # heap 1 take 1, reaching (1, 1)
        assert best_move(bouton_is_p, (2, 1), MULTISET) == (1, 1)
        assert best_move(bouton_is_p, (2, 1), TUPLE) == (1, 1)

    def test_hopeless_position_falls_back_to_first_child(self):
        # from (1,1) every child is an N-position; the first multiset
        # child, (1, 0), is heap 1 take 1
        assert best_move(bouton_is_p, (1, 1), MULTISET) == (1, 1)

    def test_hopeless_positions_with_several_children_fall_back_to_the_first(self):
        for mode in (MULTISET, TUPLE):
            for state in [(3, 2), (2, 2, 1), (4, 1, 1, 0)]:
                move = best_move(lambda _: False, state, mode)
                assert apply_move(state, *move, mode) == children(state, mode)[0]

    @pytest.mark.parametrize("mode", [MULTISET, TUPLE])
    def test_classifies_the_children_up_to_the_first_p_one(self, mode):
        for raw in product(range(4), repeat=3):
            if not any(raw):
                continue
            state = canonicalize(raw, mode)
            legal = children(state, mode)
            seen = []

            def classify(child):
                seen.append(child)
                return bouton_is_p(child)

            expected = next((c for c in legal if bouton_label(c) is Label.P), legal[0])
            assert apply_move(state, *best_move(classify, state, mode), mode) == expected
            assert seen == (legal[: legal.index(expected) + 1] if bouton_label(expected) is Label.P else legal)

    def test_forced_move(self):
        assert best_move(bouton_is_p, (1,), MULTISET) == (1, 1)

    def test_terminal_rejected(self):
        with pytest.raises(ValueError):
            best_move(bouton_is_p, (0, 0), MULTISET)

    @pytest.mark.parametrize("mode", [MULTISET, TUPLE])
    def test_formula_classifier_evaluates_each_classified_child_once(self, mode, monkeypatch):
        # the benchmark's tracer counts play's evaluations through
        # `play.evaluate`, so each child classified is one call of it
        calls = []

        def counting_evaluate(*args):
            calls.append(args[1])
            return evaluate(*args)

        monkeypatch.setattr(play, "evaluate", counting_evaluate)
        for c in (xor_chain(3), chrom("a1", "a2", ("-", 1, 2), "a3", ("*", 3, 4))):
            is_p = formula_classifier(c, 3)
            for raw in product(range(3), repeat=3):
                if not any(raw):
                    continue
                state = canonicalize(raw, mode)
                seen = []

                def classify(child):
                    seen.append(child)
                    return is_p(child)

                calls.clear()
                best_move(classify, state, mode)
                assert calls == seen and seen

    def test_deterministic(self):
        classify = formula_classifier(xor_chain(3), 3)
        assert best_move(classify, (3, 2, 1), MULTISET) == best_move(classify, (3, 2, 1), MULTISET)


class TestPlayGame:
    def test_single_object_first_mover_wins(self):
        strat = classifier_strategy(bouton_is_p, MULTISET)
        game = play_game(strat, strat, (1,), MULTISET)
        assert game.winner == 1
        assert len(game.transcript) == 1
        assert str(game.transcript[0]) == "move: heap 1 take 1 -> (0)"

    def test_transcript_never_exceeds_object_count(self):
        rng = random.Random(1)
        for _ in range(30):
            start = tuple(rng.randint(0, 4) for _ in range(3))
            if not any(start):
                continue
            game = play_game(random_strategy(rng, MULTISET), random_strategy(rng, MULTISET),
                             start, MULTISET)
            assert len(game.transcript) <= sum(start)
            assert game.winner in (1, 2)

    def test_oracle_first_mover_wins_from_n_positions(self):
        rng = random.Random(2)
        for n in (1, 2, 3):
            for root in product(range(4), repeat=n):
                if bouton_label(root) is not Label.N:
                    continue
                graph = build_graph(root, MULTISET)
                oracle = classifier_strategy(oracle_classifier(graph), MULTISET)
                rand = random_strategy(rng, MULTISET)
                assert play_game(oracle, rand, root, MULTISET).winner == 1
                assert play_game(oracle, oracle, root, MULTISET).winner == 1

    def test_correct_formula_beats_the_oracle_from_n_positions(self):
        for n in (2, 3):
            formula = classifier_strategy(formula_classifier(xor_chain(n), n), MULTISET)
            for root in product(range(4), repeat=n):
                if bouton_label(root) is not Label.N:
                    continue
                graph = build_graph(root, MULTISET)
                opponent = classifier_strategy(oracle_classifier(graph), MULTISET)
                assert play_game(formula, opponent, root, MULTISET).winner == 1

    def test_illegal_strategy_rejected(self):
        with pytest.raises(ValueError, match=r"^strategy for player 1 returned illegal move heap 9 take 9: heap must be 1\.\.2$"):
            play_game(lambda s: (9, 9), lambda s: (9, 9), (2, 1), MULTISET)

    def test_terminal_start_means_previous_player_already_won(self):
        game = play_game(lambda s: s, lambda s: s, (0, 0), MULTISET)
        assert game.winner == 2
        assert game.transcript == ()


def test_move_record_format():
    assert str(MoveRecord(2, 2, 3, (4, 1, 0))) == "move: heap 2 take 3 -> (4, 1, 0)"


class TestInteractiveSession:
    def run_session(self, script, start, n_heaps=2):
        stdin = io.StringIO(script)
        stdout = io.StringIO()
        interactive_session(formula_classifier(xor_chain(n_heaps), n_heaps), start,
                            MULTISET, stdin=stdin, stdout=stdout)
        return stdout.getvalue()

    def test_rejects_out_of_range_heap(self):
        out = self.run_session("5 1\n1 2\n", (2, 2))
        assert "heap must be 1..2" in out

    def test_rejects_zero_take(self):
        out = self.run_session("1 0\n1 2\n", (2, 2))
        assert "can take 1..2 from heap 1" in out

    def test_rejects_malformed_input(self):
        out = self.run_session("abc\n1 2\n", (2, 2))
        assert "enter two numbers" in out

    def test_multiset_human_move_is_reordered(self):
        # taking 2 from heap 1 of (3, 2) leaves (1, 2), stored as (2, 1)
        out = self.run_session("1 2\n", (3, 2))
        assert "move: heap 1 take 2 -> (2, 1)" in out

    def test_machine_punishes_a_blunder(self):
        # human breaks the (2,2) symmetry; machine mirrors and wins
        out = self.run_session("1 2\n1 2\n", (2, 2))
        assert "machine takes the last object - machine wins" in out

    def test_human_can_win_a_lost_game(self):
        out = self.run_session("1 1\n", (1,), n_heaps=1)
        assert "you take the last object - you win" in out

    def test_eof_aborts(self):
        out = self.run_session("", (2, 2))
        assert "session aborted" in out
