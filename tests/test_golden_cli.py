"""Command lines must reproduce a recorded golden file exactly.

Each case of ``data/golden_cli.txt`` is one `main` call, run in a fresh
temporary directory that holds the formula and config files below: its
argv, its stdin (for ``play --human``), its exit code, its stdout and
stderr, and the bytes of every file it writes there.  The cases are the
`oracle` listings, `fitness` lines, `verify` listings and the three kinds
of `play`, for the xor, a weak and a dividing formula, on two games in
both modes; seeded `evolve` runs and the three stock sweeps with their
output files; a run that reads a config file; and the bad inputs the
README names.  A refactor that changes a label, a report line, a written
file or an error message changes some case.

Regenerate (only when a change to the CLI's outputs is intended and
recorded):

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import functools
import io
import os
import sys
import tempfile
from pathlib import Path

import pytest

from mepnim.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_cli.txt"
INPUTS = {
    "xor.mep": "1: a1\n2: a2\n3: xor 1 2\n4: a3\n5: xor 3 4\n6: a4\n7: xor 5 6\n",
    "weak.mep": "1: a1\n2: a2\n3: xor 1 2\n4: a3\n5: + 3 4\n",  # (a1 xor a2) + a3
    "a1.mep": "1: a1\n",
    "div.mep": "1: a1\n2: a2\n3: mod 1 2\n4: a3\n5: not 4\n6: * 3 5\n",  # (a1 mod a2) * not a3
    "run.cfg": "heaps = 2,2\npop = 8\ngens = 5\nseed = 3\nstate-space = tuple\n# comment\n",
    "typo.cfg": "heaps = 2,2\npopp = 7\n",
}
# each (heap, take) once per heap, then a line that is no move; the session
# ends at the end of input if the game has not
HUMAN = "1 1\n2 1\n3 1\n4 1\nx\n" * 4


def _cases() -> list[tuple[str, list[str], str]]:
    cases = []
    for heaps in ("4,4,4,3", "5,4,3,2"):
        for mode in ("multiset", "tuple"):
            game = ["--heaps", heaps, "--state-space", mode]
            cases.append((f"oracle {mode} {heaps}", ["oracle", *game], ""))
            for formula in ("xor", "weak", "div"):
                with_formula = [*game, "--formula-file", f"{formula}.mep"]
                cases += [
                    (f"fitness {formula} {mode} {heaps}", ["fitness", *with_formula], ""),
                    (f"verify {formula} {mode} {heaps}", ["verify", *with_formula], ""),
                    (f"play-random {formula} {mode} {heaps}", ["play", *with_formula, "--seed", "3"], ""),
                    (f"play-oracle {formula} {mode} {heaps}", ["play", *with_formula, "--vs", "oracle"], ""),
                    (f"play-human {formula} {mode} {heaps}", ["play", *with_formula, "--human"], HUMAN),
                ]
    for heaps in ("2,5,3", "5,0,3", "7"):
        cases.append((f"oracle tuple {heaps}", ["oracle", "--heaps", heaps, "--state-space", "tuple"], ""))
    cases += [
        ("play-random games", ["play", "--heaps", "4,4,4,3", "--formula-file", "weak.mep", "--games", "20"], ""),
        ("evolve multiset 4,4,4,4", ["evolve", "--heaps", "4,4,4,4", "--seed", "0"], ""),
        ("evolve tuple 3,5,6", ["evolve", "--heaps", "3,5,6", "--state-space", "tuple", "--seed", "1",
                                "--out", "tuple.mep"], ""),
        ("evolve exhausted", ["evolve", "--heaps", "2,2", "--pop", "6", "--gens", "2", "--len", "1",
                              "--out", "never.mep"], ""),
        ("evolve config", ["evolve", "--config", "run.cfg", "--gens", "4", "--out", "cfg.mep"], ""),
    ]
    for name in ("exp1", "exp2", "exp3"):
        cases.append((f"experiment {name}", ["experiment", "--name", name, "--runs", "1", "--heaps", "2,2"], ""))
    cases += [
        ("bad states", ["oracle", "--heaps", "30,30,30,30,30", "--state-space", "tuple"], ""),
        # 41 multiset states of 40 heaps: 1,640 heap cells, more than 16 * 100
        ("bad cells", ["evolve", "--heaps", ",".join(["1"] * 40), "--max-states", "100"], ""),
        ("bad edges", ["fitness", "--heaps", "65536", "--formula-file", "a1.mep"], ""),
        ("bad edges 1000,1000", ["oracle", "--heaps", "1000,1000"], ""),
        ("bad missing heap", ["verify", "--heaps", "2,2", "--formula-file", "xor.mep"], ""),
        ("bad flag value", ["evolve", "--heaps", "2,2", "--pop", "abc"], ""),
        ("bad config key", ["evolve", "--config", "typo.cfg"], ""),
        ("bad flag", ["oracle", "--heaps", "2,1", "--no-such-flag"], ""),
    ]
    return cases


CASES = _cases()


def _stream(text: str) -> list[str]:
    """A stream's lines, each behind "| ", and a marker if it does not end
    in a newline."""
    lines = text.split("\n")
    tail = lines.pop()
    return [f"| {line}" for line in lines] + ([f"| {tail}", "\\ no newline at end"] if tail else [])


def case_lines(name: str, argv: list[str], stdin: str) -> list[str]:
    """Run one case in a fresh directory and describe what it did."""
    out, err, here = io.StringIO(), io.StringIO(), os.getcwd()
    saved_stdin = sys.stdin
    with tempfile.TemporaryDirectory() as tmp:
        for file, text in INPUTS.items():
            Path(tmp, file).write_text(text)
        try:
            os.chdir(tmp)
            sys.stdin = io.StringIO(stdin)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            sys.stdin = saved_stdin
            os.chdir(here)
        written = sorted(p for p in Path(tmp).iterdir() if p.name not in INPUTS)
        files = [[f"file {p.name}", *_stream(p.read_bytes().decode())] for p in written]
    return [f"case {name}", f"argv {' '.join(argv)}", f"stdin {stdin!r}", f"exit {code}",
            "stdout", *_stream(out.getvalue()), "stderr", *_stream(err.getvalue()),
            *(line for lines in files for line in lines)]


@functools.cache
def golden_cases() -> dict[str, list[str]]:
    """The golden file's cases by name, each as its lines."""
    blocks: dict[str, list[str]] = {}
    for line in GOLDEN.read_text().splitlines():
        if line.startswith("case "):
            block = blocks[line[len("case "):]] = []
        block.append(line)
    return blocks


def test_cases_are_the_golden_file_cases():
    assert list(golden_cases()) == [name for name, _, _ in CASES]


@pytest.mark.parametrize("name,argv,stdin", CASES, ids=[name for name, _, _ in CASES])
def test_command_line_matches_golden_file(name, argv, stdin):
    expected = golden_cases()[name]
    got = case_lines(name, argv, stdin)
    for want, line in zip(expected, got):
        assert line == want, f"first differing line of case {name!r}\nwant: {want}\ngot:  {line}"
    assert len(got) == len(expected)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(line + "\n" for name, argv, stdin in CASES for line in case_lines(name, argv, stdin)))
