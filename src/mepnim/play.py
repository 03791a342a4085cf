"""Turning a P/N classifier into a move selector, plus game play.

A classifier maps a state to a P or N label; the induced strategy moves to
the first P-labeled child in the deterministic child order (a winning move
whenever one exists under a correct labeling), falling back to the first
child from hopeless positions.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from typing import Callable

from .expr import Chromosome, evaluate
from .fitness import Label
# `play` no longer calls `moves`, but perfbench/tracer.py wraps `play.moves`
# by name, so the name stays importable from this module.
from .game import GameGraph, GameState, StateSpaceMode, canonicalize, children, heap_take, is_terminal, moves
from .oracle import retrograde_labels

Classifier = Callable[[GameState], Label]
Strategy = Callable[[GameState], GameState]


def formula_classifier(chrom: Chromosome, n_heaps: int) -> Classifier:
    def classify_state(state: GameState) -> Label:
        return Label.P if evaluate(chrom, state, n_heaps) == 0 else Label.N

    return classify_state


def oracle_classifier(graph: GameGraph) -> Classifier:
    """Lookup into the retrograde labeling; only valid inside the graph."""
    return retrograde_labels(graph).__getitem__


def best_move(classifier: Classifier, state: GameState, mode: StateSpaceMode) -> GameState:
    """First child the classifier labels P, else the first child."""
    if is_terminal(state):
        raise ValueError("no moves from the terminal state")
    legal = children(state, mode)
    for child in legal:
        if classifier(child) is Label.P:
            return child
    return legal[0]


def classifier_strategy(classifier: Classifier, mode: StateSpaceMode) -> Strategy:
    return lambda state: best_move(classifier, state, mode)


def random_strategy(rng: random.Random, mode: StateSpaceMode) -> Strategy:
    return lambda state: rng.choice(children(state, mode))


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
