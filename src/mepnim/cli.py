"""Command-line front end: evolve, fitness, oracle, verify, experiment, play.

Every setting is one row of `SETTINGS`, which generates the flags, the
config-file keys, the help defaults and the echoes.  Before a subcommand
runs, each of its settings resolves flag > config file > default and is
cast and validated; the resolved configuration is echoed into every output
artifact so a run can be reproduced from its files alone.  Exit codes: 0
success, 1 standard output closed before the output ended (as by
``| head``), 2 usage or input error (one `error:` line), 3 evolution budget
exhausted, 4 verification failure.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .evolution import EvolutionConfig, evolve
from .experiments import EXPERIMENTS, emit_csv, experiment_spec, run_sweep
from .expr import (
    Chromosome,
    EvalError,
    ParseError,
    decode_infix,
    format_chromosome,
    max_heap_ref,
    parse_chromosome,
)
from .fitness import INVALID, graph_fitness
from .game import StateSpaceMode, bfs_order, build_graph, canonicalize, edge_count, state_count, state_text
from .genetics import OperatorConfig
from .oracle import retrograde_p_mask, verify_formula
from .play import (
    classifier_strategy,
    formula_classifier,
    interactive_session,
    oracle_classifier,
    play_game,
    random_strategy,
)

EXIT_OK = 0
EXIT_CLOSED = 1
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3
EXIT_VERIFY_FAILED = 4

DEFAULT_MAX_STATES = 1_000_000
#: Heap-matrix cells (states times heaps) a game may have per state that
#: --max-states allows: enough for (9,)*6 and (1,)*19 tuple games, and it
#: refuses many small heaps, whose state count alone passes, before their
#: heap matrix is allocated.
CELLS_PER_STATE = 16
#: Edges a multiset game may have per state that --max-states allows:
#: enough for (20,)*6 (48 per state) and (500,500) (62,750,250 edges), and
#: it refuses one-heap and two-heap games whose edges, about states times
#: heap size, would fill memory before their states do.
EDGES_PER_STATE = 64


class UsageError(Exception):
    pass


def _cast(convert, expected: str, valid=lambda value: True):
    """A cast from text through `convert` that accepts only `valid` values
    and reports every failure as 'expected <expected>'."""

    def cast(text: str):
        try:
            value = convert(text)
            if valid(value):
                return value
        except ValueError:
            pass
        raise ValueError(f"expected {expected}")

    return cast


def _one_of(*options: str):
    return _cast(str, f"one of {', '.join(options)}", lambda text: text in options)


def _load_formula(path: str) -> Chromosome:
    try:
        return parse_chromosome(Path(path).read_text())
    except (OSError, ParseError) as exc:
        raise ValueError(str(exc)) from None


_INTEGER = _cast(int, "an integer")
_NUMBER = _cast(float, "a number")
_COUNT = _cast(int, "an integer >= 1", lambda n: n >= 1)
_HEAPS = _cast(lambda text: tuple(int(h) for h in text.split(",")), "comma-separated non-negative integers",
               lambda heaps: min(heaps) >= 0)
_MODE = _cast(StateSpaceMode, " or ".join(m.value for m in StateSpaceMode))
_FILE = _cast(Path, "a file path", lambda path: path.name != "")  # a name to add a suffix to
_REQUIRED = object()

COMMANDS = ("evolve", "fitness", "oracle", "verify", "experiment", "play")
_STOCK_SWEEP = experiment_spec("exp1")  # for the library's default runs and game of a sweep


class Setting(NamedTuple):
    """One row of the settings table: the flag and config key `name`, the
    cast from text (which also validates), the help line, and the default in
    each subcommand the setting applies to, or `_REQUIRED`.  `evolve`'s
    report and `experiment`'s sidecar echo their `echo` settings in table
    order."""

    name: str
    cast: Callable[[str], Any]
    help: str
    defaults: dict[str, Any]
    echo: bool = True

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")


SETTINGS = (
    Setting("formula-file", _load_formula, "the formula, as a chromosome listing",
            dict.fromkeys(("fitness", "verify", "play"), _REQUIRED)),
    Setting("name", _one_of(*EXPERIMENTS), f"which stock sweep to run: {', '.join(EXPERIMENTS)}",
            {"experiment": _REQUIRED}),
    Setting("runs", _INTEGER, "runs per parameter value", {"experiment": _STOCK_SWEEP.runs_per_value}),
    Setting("master-seed", _INTEGER, "seed all per-run seeds derive from", {"experiment": 0}),
    Setting("heaps", _HEAPS, "comma-separated heap sizes, e.g. 4,4,4,4",
            {**dict.fromkeys(COMMANDS, _REQUIRED), "experiment": _STOCK_SWEEP.base.heaps}),
    Setting("state-space", _MODE, "treat permuted heaps as one state (multiset) or keep order (tuple)",
            dict.fromkeys(COMMANDS, EvolutionConfig.mode)),
    Setting("pop", _INTEGER, "population size", {"evolve": EvolutionConfig.population_size}),
    Setting("len", _INTEGER, "chromosome length in genes", {"evolve": EvolutionConfig.chromosome_length}),
    Setting("gens", _INTEGER, "generation budget", {"evolve": EvolutionConfig.generations}),
    Setting("crossover-prob", _NUMBER, "crossover probability", {"evolve": OperatorConfig.crossover_probability}),
    Setting("mutations", _INTEGER, "mutated genes per offspring", {"evolve": OperatorConfig.mutations_per_offspring}),
    Setting("func-prob", _NUMBER, "probability a fresh gene is a function",
            {"evolve": OperatorConfig.function_gene_probability}),
    Setting("seed", _INTEGER, "random seed of the run (evolve) or of the random opponent (play)",
            {"evolve": EvolutionConfig.seed, "play": 0}),
    Setting("vs", _one_of("random", "oracle"), "opponent: random or oracle", {"play": "random"}),
    Setting("games", _COUNT, "number of games", {"play": 1}),
    Setting("out", _FILE, "output path: the formula (evolve) or the CSV (experiment)",
            {"evolve": Path("best.mep"), "experiment": Path("results.csv")}, echo=False),
    Setting("max-states", _COUNT, "refuse, before building it, a game with more states,"
            f" more than {CELLS_PER_STATE} times as many heap cells, or (multiset)"
            f" more than {EDGES_PER_STATE} times as many edges",
            dict.fromkeys(COMMANDS, DEFAULT_MAX_STATES), echo=False),
)


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(h) for h in value)
    if isinstance(value, StateSpaceMode):
        return value.value
    if isinstance(value, float):
        return format(value, "g")
    return str(value)


def _load_config(path: str | None) -> dict[str, str]:
    """Flat `key = value` file; '#' starts a comment.  Each key must be the
    name of a setting of some subcommand, so one file can serve several."""
    if path is None:
        return {}
    config: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    names = {s.name for s in SETTINGS}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"config line {line_no}: expected 'key = value'")
        key = key.strip()
        if key not in names:
            raise UsageError(f"config line {line_no}: unknown key {key!r}")
        config[key] = value.strip()
    return config


def _resolve(args: argparse.Namespace, config: dict[str, str]) -> None:
    """Set every setting of the chosen subcommand on `args`, cast and
    validated: the flag if given, else the config value, else the default.
    A formula is then checked against the heap count, so one that reads a
    heap the game lacks is refused before the game is counted or built."""
    missing = []
    for s in SETTINGS:
        if args.command not in s.defaults:
            continue
        raw = getattr(args, s.dest)
        if raw is None:
            raw = config.get(s.name)
        if raw is None:
            value = s.defaults[args.command]
            if value is _REQUIRED:
                missing.append(f"--{s.name}")
        else:
            try:
                value = s.cast(raw)
            except ValueError as exc:
                raise UsageError(f"bad value for --{s.name} {raw!r}: {exc}") from None
        setattr(args, s.dest, value)
    if missing:
        raise UsageError(f"{args.command} requires {' and '.join(missing)}")
    formula = getattr(args, "formula_file", None)
    if formula is not None and max_heap_ref(formula) >= len(args.heaps):
        raise UsageError(
            f"formula references heap a{max_heap_ref(formula) + 1} but the game has {len(args.heaps)} heaps"
        )


def _echo(args: argparse.Namespace) -> str:
    """The resolved settings of the subcommand, one `name = value` line each."""
    return "".join(
        f"{s.name} = {_fmt(getattr(args, s.dest))}\n"
        for s in SETTINGS
        if s.echo and args.command in s.defaults
    )


def _write_file(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None


def _check_size(args, heaps) -> None:
    """Refuse, before anything is built, a game with more states than
    --max-states, with more heap-matrix cells (states times heaps) than
    `CELLS_PER_STATE` times --max-states, or, in multiset mode, with more
    edges than `EDGES_PER_STATE` times --max-states.  Every game has at
    least 1 + sum(heaps) states, so a game that fails on that count is
    refused without counting its states, and the edges, whose count costs
    time in the sum of the heaps, are counted only for a game that passes
    the other two bounds."""
    limit, mode = args.max_states, args.state_space
    cells = CELLS_PER_STATE * limit
    count = sum(heaps) + 1
    if count <= limit and count * len(heaps) <= cells:
        count = state_count(heaps, mode)
        shown = str(count)
    else:
        shown = f"at least {count}"
    if count > limit:
        raise UsageError(f"heaps {_fmt(heaps)} give {shown} {mode.value} states, more than --max-states {limit}")
    if count * len(heaps) > cells:
        raise UsageError(
            f"heaps {_fmt(heaps)} give {shown} {mode.value} states of {len(heaps)} heaps, more than {cells}"
            f" heap cells ({CELLS_PER_STATE} times --max-states {limit})"
        )
    if mode is StateSpaceMode.MULTISET:
        edges = edge_count(heaps, mode)
        if edges > EDGES_PER_STATE * limit:
            raise UsageError(
                f"heaps {_fmt(heaps)} give {edges} multiset edges, more than {EDGES_PER_STATE * limit} edges"
                f" ({EDGES_PER_STATE} times --max-states {limit})"
            )


def _build(args, heaps):
    _check_size(args, heaps)
    return build_graph(heaps, args.state_space)


#: Node ids the oracle listing turns into states at a time
_TABLE_CHUNK = 4096


def _oracle_table(graph):
    """Each state and its oracle P flag, in the breadth-first order
    printed, decoded a chunk of node ids at a time, so no per-state object
    outlives its chunk."""
    is_p, order = retrograde_p_mask(graph), bfs_order(graph)
    for start in range(0, len(order), _TABLE_CHUNK):
        ids = order[start : start + _TABLE_CHUNK]
        yield from zip(map(tuple, graph.heap_rows(ids).tolist()), is_p[ids].tolist())


def _cmd_evolve(args) -> int:
    """search for a zero-violation formula"""
    try:
        config = EvolutionConfig(
            heaps=args.heaps,
            population_size=args.pop,
            chromosome_length=args.len,
            generations=args.gens,
            operators=OperatorConfig(
                crossover_probability=args.crossover_prob,
                mutations_per_offspring=args.mutations,
                function_gene_probability=args.func_prob,
            ),
            seed=args.seed,
            mode=args.state_space,
        )
        _check_size(args, args.heaps)
        result = evolve(config)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    best = "invalid" if result.best_fitness == INVALID else result.best_fitness
    outcome = [
        f"success = {'true' if result.success else 'false'}",
        f"generations-run = {len(result.best_fitness_history) - 1}",
        f"best-fitness = {best}",
        f"formula = {decode_infix(result.best_chromosome)}",
    ]
    if result.success:
        outcome.insert(1, f"generation-of-success = {result.generation_of_success}")

    report = _echo(args) + "\n".join(outcome) + "\n"
    report_path = args.out.with_suffix(".report.txt")
    _write_file(report_path, report)
    print(report, end="")
    print(f"wrote {report_path}")

    if not result.success:
        print(f"no zero-violation formula within budget (best fitness {best})")
        return EXIT_EXHAUSTED

    _write_file(args.out, format_chromosome(result.best_chromosome, heaps=len(args.heaps)) + "\n")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_fitness(args) -> int:
    """violation count of a formula on a game"""
    total, breakdown = graph_fitness(args.formula_file, _build(args, args.heaps))
    if breakdown is None:
        print("fitness: invalid (division or modulo by zero on some state)")
        return EXIT_OK
    print(f"fitness: {total}")
    print(f"rule i (move from labeled P to labeled P): {breakdown.rule_i}")
    print(f"rule ii (labeled N with no labeled-P child): {breakdown.rule_ii}")
    print(f"rule iii (terminal labeled N): {breakdown.rule_iii}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    """print the ground-truth P/N table"""
    graph = _build(args, args.heaps)
    for state, is_p in _oracle_table(graph):
        print(f"{state_text(state)}: {'P' if is_p else 'N'}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    """check a formula against the oracle"""
    graph = _build(args, args.heaps)
    result = verify_formula(args.formula_file, graph)
    if result.invalid:
        print("formula is invalid (division or modulo by zero on some state)")
        return EXIT_VERIFY_FAILED
    if result.agrees:
        print(f"formula agrees with the oracle on all {graph.num_nodes} states")
        return EXIT_OK
    print(f"formula disagrees with the oracle on {len(result.disagreements)} of {graph.num_nodes} states:")
    # the disagreements come in node order (by state code); they are
    # listed in breadth-first order, like the oracle table
    wrong = set(result.disagreements)
    for state, is_p in _oracle_table(graph):
        if state in wrong:
            formula, oracle = ("N", "P") if is_p else ("P", "N")
            print(f"  {state_text(state)}: formula={formula} oracle={oracle}")
    return EXIT_VERIFY_FAILED


def _cmd_experiment(args) -> int:
    """run a stock parameter sweep"""
    try:
        spec = experiment_spec(
            args.name, EvolutionConfig(heaps=args.heaps, mode=args.state_space), runs_per_value=args.runs
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _check_size(args, args.heaps)

    table = run_sweep(spec, args.master_seed)
    csv_text = emit_csv(table)
    _write_file(args.out, csv_text)
    config_path = args.out.with_suffix(".config.txt")
    _write_file(config_path, _echo(args))

    print(csv_text, end="")
    for row in table:
        if row.error:
            print(f"error at {row.parameter}={row.value}: {row.error}", file=sys.stderr)
    print(f"wrote {args.out}")
    print(f"wrote {config_path}")
    return EXIT_OK


def _cmd_play(args) -> int:
    """play games with a formula-driven strategy"""
    mode = args.state_space
    start = canonicalize(args.heaps, mode)
    _check_size(args, start)  # the formula walks the children of each state it meets
    classifier = formula_classifier(args.formula_file, len(start))
    try:
        if args.human:
            interactive_session(classifier, start, mode)
        else:
            _play_games(args, classifier, start, mode)
    except EvalError as exc:
        raise UsageError(f"formula is invalid: {exc}") from None
    return EXIT_OK


def _play_games(args, classifier, start, mode) -> None:
    mover = classifier_strategy(classifier, mode)
    if args.vs == "random":
        opponent = random_strategy(random.Random(args.seed), mode)
    else:
        opponent = classifier_strategy(oracle_classifier(build_graph(start, mode)), mode)

    wins = 0
    for _ in range(args.games):
        game = play_game(mover, opponent, start, mode)
        if game.winner == 1:
            wins += 1
        if args.games == 1:
            for record in game.transcript:
                print(record)
    print(f"formula (moving first) won {wins}/{args.games} games vs {args.vs}")


_RUN = {"evolve": _cmd_evolve, "fitness": _cmd_fitness, "oracle": _cmd_oracle,
        "verify": _cmd_verify, "experiment": _cmd_experiment, "play": _cmd_play}


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a UsageError instead of exiting."""

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mepnim",
        description="Evolve and verify integer formulas that classify Nim positions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command, help=_RUN[command].__doc__)
        p.add_argument("--config", help="flat key = value settings file; flags win")
        for s in SETTINGS:
            if command in s.defaults:
                default = s.defaults[command]
                shown = "required" if default is _REQUIRED else f"default {_fmt(default)}"
                p.add_argument(f"--{s.name}", help=f"{s.help} ({shown})")
        if command == "play":
            p.add_argument("--human", action="store_true", help="interactive session, human moves first")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _resolve(args, _load_config(args.config))
        code = _RUN[args.command](args)
        sys.stdout.flush()
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader went away; the rest of the output goes to devnull, so
        # the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED


if __name__ == "__main__":
    sys.exit(main())
