"""Turning a P/N classifier into a move selector, plus game play.

A classifier is an is-P predicate: it maps a state to True when it labels
the state P.  The induced strategy moves to the first child it labels P in
the deterministic child order (a winning move whenever one exists under a
correct labeling), falling back to the first child from hopeless
positions.  A strategy returns its move as the 1-based ``(heap, take)``
pair that transcripts print and the human types, and `game.apply_move`
makes the next state for every player.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from typing import Callable

from .expr import Chromosome, EvalError, evaluate
# `play` no longer calls `moves`, but perfbench/tracer.py wraps `play.moves`
# by name, so the name stays importable from this module.
from .game import GameGraph, GameState, StateSpaceMode, _moves, apply_move, canonicalize, is_terminal, moves, nth_move, state_text
from .oracle import retrograde_p_mask

Classifier = Callable[[GameState], bool]
# a state -> the (heap, take) to play from it
Strategy = Callable[[GameState], tuple[int, int]]


def formula_classifier(chrom: Chromosome, n_heaps: int) -> Classifier:
    """The paper's strategy: a state is P exactly when the formula
    evaluates to 0 on it.  A division by zero raises EvalError naming the
    state."""

    def is_p(state: GameState) -> bool:
        try:
            return evaluate(chrom, state, n_heaps) == 0
        except EvalError as exc:
            raise EvalError(f"{exc} on state {state_text(state)}") from None

    return is_p


def oracle_classifier(graph: GameGraph) -> Classifier:
    """The retrograde P-mask read at the state's node id, `GameGraph.code`,
    which raises ValueError for a state outside the graph."""
    mask, code = retrograde_p_mask(graph), graph.code
    return lambda state: bool(mask[code(state)])


def best_move(classifier: Classifier, state: GameState, mode: StateSpaceMode) -> tuple[int, int]:
    """The ``(heap, take)`` of the first child the classifier labels P,
    else of the first child.  The children are generated one at a time, so
    those after the first P child are never made or classified."""
    if is_terminal(state):
        raise ValueError("no moves from the terminal state")
    first = None
    for heap, take, child in _moves(state, mode):
        if classifier(child):
            return heap, take
        if first is None:
            first = heap, take
    return first


def classifier_strategy(classifier: Classifier, mode: StateSpaceMode) -> Strategy:
    return lambda state: best_move(classifier, state, mode)


def random_strategy(rng: random.Random, mode: StateSpaceMode) -> Strategy:
    """The move to a uniformly drawn child, the one ``rng.choice(children(
    state, mode))`` draws: it draws the index over the `nth_move` count the
    same way and makes no child."""
    if mode is StateSpaceMode.TUPLE:
        return lambda state: nth_move(state, rng.choice(range(sum(state))), mode)
    return lambda state: nth_move(state, rng.choice(range(sum(set(state)))), mode)


@dataclass(frozen=True)
class MoveRecord:
    player: int
    heap: int
    take: int
    state: GameState

    def __str__(self) -> str:
        return f"move: heap {self.heap} take {self.take} -> {state_text(self.state)}"


@dataclass(frozen=True)
class PlayedGame:
    """Winner (1 = the strategy that moved first) and full move transcript."""

    winner: int
    transcript: tuple[MoveRecord, ...]


def play_game(first: Strategy, second: Strategy, start, mode: StateSpaceMode) -> PlayedGame:
    """Alternate the two strategies from start until the terminal state;
    whoever removes the last object wins.  Takes at most total-objects
    moves."""
    state = canonicalize(start, mode)
    transcript: list[MoveRecord] = []
    player = 1
    while not is_terminal(state):
        heap, take = (first if player == 1 else second)(state)
        try:
            state = apply_move(state, heap, take, mode)
        except ValueError as exc:
            raise ValueError(f"strategy for player {player} returned illegal move heap {heap} take {take}: {exc}") from None
        transcript.append(MoveRecord(player, heap, take, state))
        player = 3 - player
    # the last mover won; with a terminal start nobody moved and the
    # previous player (not the first mover) already holds the win
    winner = transcript[-1].player if transcript else 2
    return PlayedGame(winner, tuple(transcript))


def interactive_session(classifier: Classifier, start, mode: StateSpaceMode, stdin=None, stdout=None) -> None:
    """Line-oriented human-vs-machine play; the human moves first.

    Each turn reads "<heap> <take>"; malformed or illegal input re-prompts
    without changing the state.
    """
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout

    def say(text: str) -> None:
        print(text, file=stdout)

    state = canonicalize(start, mode)
    say(f"heaps: {state_text(state)}")
    if is_terminal(state):
        say("nothing to play: the game is already over")
        return
    while True:
        move = _read_human_move(state, mode, stdin, stdout)
        if move is None:
            say("session aborted")
            return
        state = move.state
        say(str(move))
        if is_terminal(state):
            say("you take the last object - you win")
            return
        heap, take = best_move(classifier, state, mode)
        state = apply_move(state, heap, take, mode)
        say(str(MoveRecord(2, heap, take, state)))
        if is_terminal(state):
            say("machine takes the last object - machine wins")
            return


def _read_human_move(state: GameState, mode: StateSpaceMode, stdin, stdout) -> MoveRecord | None:
    while True:
        print(f"your move (heap take) from {state_text(state)}: ", end="", file=stdout, flush=True)
        line = stdin.readline()
        if not line:
            return None
        try:
            heap, take = map(int, line.split())
        except ValueError:  # not two integers
            print("enter two numbers: heap index and objects to take", file=stdout)
            continue
        try:
            return MoveRecord(1, heap, take, apply_move(state, heap, take, mode))
        except ValueError as exc:
            print(exc, file=stdout)
