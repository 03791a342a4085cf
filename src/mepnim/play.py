"""Turning a P/N classifier into a move selector, plus game play.

A classifier is an is-P predicate: it maps a state to True when it labels
the state P.  The induced strategy moves to the first child it labels P in
the deterministic child order (a winning move whenever one exists under a
correct labeling), falling back to the first child from hopeless
positions.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from typing import Callable

from .expr import Chromosome, EvalError, evaluate
# `play` no longer calls `moves`, but perfbench/tracer.py wraps `play.moves`
# by name, so the name stays importable from this module.
from .game import GameGraph, GameState, StateSpaceMode, _children, canonicalize, heap_take, is_terminal, moves, nth_child
from .oracle import retrograde_p_mask

Classifier = Callable[[GameState], bool]
Strategy = Callable[[GameState], GameState]


def formula_classifier(chrom: Chromosome, n_heaps: int) -> Classifier:
    """The paper's strategy: a state is P exactly when the formula
    evaluates to 0 on it.  A division by zero raises EvalError naming the
    state."""

    def is_p(state: GameState) -> bool:
        try:
            return evaluate(chrom, state, n_heaps) == 0
        except EvalError as exc:
            raise EvalError(f"{exc} on state ({', '.join(map(str, state))})") from None

    return is_p


def oracle_classifier(graph: GameGraph) -> Classifier:
    """The retrograde P-mask read at the state's node id, `GameGraph.code`,
    which raises ValueError for a state outside the graph."""
    mask, code = retrograde_p_mask(graph), graph.code
    return lambda state: bool(mask[code(state)])


def best_move(classifier: Classifier, state: GameState, mode: StateSpaceMode) -> GameState:
    """First child the classifier labels P, else the first child.  The
    children are generated one at a time, so those after the first P child
    are never made or classified."""
    if is_terminal(state):
        raise ValueError("no moves from the terminal state")
    first = None
    for child in _children(state, mode):
        if classifier(child):
            return child
        if first is None:
            first = child
    return first


def classifier_strategy(classifier: Classifier, mode: StateSpaceMode) -> Strategy:
    return lambda state: best_move(classifier, state, mode)


def random_strategy(rng: random.Random, mode: StateSpaceMode) -> Strategy:
    """A uniformly drawn child, the one ``rng.choice(children(state,
    mode))`` draws: it draws the index over the `nth_child` count the same
    way and makes only that child."""
    if mode is StateSpaceMode.TUPLE:
        return lambda state: nth_child(state, rng.choice(range(sum(state))), mode)
    return lambda state: nth_child(state, rng.choice(range(sum(set(state)))), mode)


@dataclass(frozen=True)
class MoveRecord:
    player: int
    heap: int
    take: int
    state: GameState

    def __str__(self) -> str:
        heaps = ", ".join(str(h) for h in self.state)
        return f"move: heap {self.heap} take {self.take} -> ({heaps})"


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
        chosen = (first if player == 1 else second)(state)
        try:
            heap, take = heap_take(state, chosen, mode)
        except ValueError:
            raise ValueError(f"strategy for player {player} returned illegal state {chosen}") from None
        transcript.append(MoveRecord(player, heap, take, chosen))
        state = chosen
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
    say(f"heaps: ({', '.join(str(h) for h in state)})")
    if is_terminal(state):
        say("nothing to play: the game is already over")
        return
    while True:
        move = _read_human_move(state, stdin, stdout)
        if move is None:
            say("session aborted")
            return
        heap, take = move
        state = canonicalize(state[: heap - 1] + (state[heap - 1] - take,) + state[heap:], mode)
        say(f"move: heap {heap} take {take} -> ({', '.join(str(h) for h in state)})")
        if is_terminal(state):
            say("you take the last object - you win")
            return
        chosen = best_move(classifier, state, mode)
        heap, take = heap_take(state, chosen, mode)
        state = chosen
        say(str(MoveRecord(2, heap, take, state)))
        if is_terminal(state):
            say("machine takes the last object - machine wins")
            return


def _read_human_move(state: GameState, stdin, stdout) -> tuple[int, int] | None:
    while True:
        print(f"your move (heap take) from ({', '.join(str(h) for h in state)}): ", end="", file=stdout, flush=True)
        line = stdin.readline()
        if not line:
            return None
        parts = line.split()
        if len(parts) != 2:
            print("enter two numbers: heap index and objects to take", file=stdout)
            continue
        try:
            heap, take = int(parts[0]), int(parts[1])
        except ValueError:
            print("enter two numbers: heap index and objects to take", file=stdout)
            continue
        if not 1 <= heap <= len(state):
            print(f"heap must be 1..{len(state)}", file=stdout)
            continue
        if not 1 <= take <= state[heap - 1]:
            print(f"can take 1..{state[heap - 1]} from heap {heap}", file=stdout)
            continue
        return heap, take
