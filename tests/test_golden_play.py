"""Seeded games and scripted human sessions must reproduce a recorded
golden file exactly.

Each game line of ``data/golden_play.txt`` is one seeded `play_game`:
the matchup, the mode, the root, the seed, the winner and every move as
``heap take>state``.  The matchups are the xor formula against a seeded
random player, two seeded random players, and the oracle against a
formula drawn at random from the seed (a formula that divides by zero
records its error instead).  Each session line is one line of a scripted
`interactive_session`'s output, prompts included.  A refactor that changes
a strategy's move, a random draw, the state a move reaches or a message
changes some line.

Regenerate (only when a change to play is intended and recorded):

    PYTHONPATH=src python tests/test_golden_play.py
"""

import io
import random
from pathlib import Path

from conftest import xor_chain
from mepnim.expr import EvalError
from mepnim.game import StateSpaceMode, build_graph
from mepnim.genetics import random_chromosome
from mepnim.play import classifier_strategy, formula_classifier, interactive_session, oracle_classifier, play_game, random_strategy

GOLDEN = Path(__file__).parent / "data" / "golden_play.txt"
SEEDS = range(20)
ROOTS = [(4, 4, 4, 4), (9, 7, 7, 3, 0, 1), (5, 4, 3, 2), (3, 3, 3)]
MODES = [StateSpaceMode.MULTISET, StateSpaceMode.TUPLE]
FORMULA_LENGTH = 6  # genes of the random formula the oracle plays against
# (name, mode, root, the human's input)
SESSIONS = [
    ("tuple", StateSpaceMode.TUPLE, (4, 1, 3), "1 1\nabc\n4 1\n2 2\n3 0\n3 3\n1 2\n1 1\n"),
    # "2 1" names the second of two equal heaps; "3 2" then takes from an
    # empty heap and "2 3" more than a heap holds
    ("multiset", StateSpaceMode.MULTISET, (3, 3, 1), "2 1\n3 2\n0 1\n1 x\n2 3\n2 2\n"),
]


def game_line(name, mode, root, seed, first, second) -> str:
    head = f"{name} {mode.value} {root} seed={seed}"
    try:
        game = play_game(first, second, root, mode)
    except EvalError as error:
        return f"{head} | error: {error}"
    moves = " ".join(f"{r.heap} {r.take}>{','.join(map(str, r.state))}" for r in game.transcript)
    return f"{head} | winner={game.winner} | {moves}"


def game_lines() -> list[str]:
    lines = []
    for mode in MODES:
        for root in ROOTS:
            n = len(root)
            formula = classifier_strategy(formula_classifier(xor_chain(n), n), mode)
            oracle = classifier_strategy(oracle_classifier(build_graph(root, mode)), mode)
            for seed in SEEDS:
                def rand(offset=0):
                    return random_strategy(random.Random(seed + offset), mode)

                drawn = random_chromosome(FORMULA_LENGTH, n, random.Random(seed))
                lines += [
                    game_line("formula-random", mode, root, seed, formula, rand()),
                    game_line("random-random", mode, root, seed, rand(), rand(100)),
                    game_line("oracle-formula", mode, root, seed, oracle,
                              classifier_strategy(formula_classifier(drawn, n), mode)),
                ]
    return lines


def session_lines() -> list[str]:
    lines = []
    for name, mode, root, script in SESSIONS:
        stdout = io.StringIO()
        interactive_session(formula_classifier(xor_chain(len(root)), len(root)), root, mode,
                            stdin=io.StringIO(script), stdout=stdout)
        lines += [f"session {name} | {line}" for line in stdout.getvalue().splitlines()]
    return lines


def golden_lines() -> list[str]:
    return game_lines() + session_lines()


def test_seeded_games_and_sessions_match_golden_file():
    expected = GOLDEN.read_text().splitlines()
    got = golden_lines()
    assert len(got) == len(expected)
    for want, line in zip(expected, got):
        assert line == want, f"first differing line\nwant: {want}\ngot:  {line}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(golden_lines()) + "\n")
