"""Command-line front end: evolve, fitness, oracle, verify, experiment, play.

Settings resolve flag > config file > built-in default; the fully resolved
configuration is echoed into every output artifact so a run can be
reproduced from its files alone.  Exit codes: 0 success, 2 usage or input
error, 3 evolution budget exhausted, 4 verification failure.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from .evolution import EvolutionConfig, evolve
from .experiments import emit_csv, experiment_spec, run_sweep
from .expr import (
    Chromosome,
    ParseError,
    decode_infix,
    format_chromosome,
    max_heap_ref,
    parse_chromosome,
)
from .fitness import INVALID, graph_fitness
from .game import StateSpaceMode, build_graph, canonicalize
from .genetics import OperatorConfig
from .oracle import retrograde_labels, verify_formula
from .play import (
    classifier_strategy,
    formula_classifier,
    interactive_session,
    oracle_classifier,
    play_game,
    random_strategy,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3
EXIT_VERIFY_FAILED = 4


class UsageError(Exception):
    pass


def _parse_heaps(text: str) -> tuple[int, ...]:
    try:
        heaps = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"bad heap list {text!r}; expected comma-separated integers") from None
    if not heaps or any(h < 0 for h in heaps):
        raise UsageError("heaps must be a non-empty list of non-negative integers")
    return heaps


def _load_config(path: str | None) -> dict[str, str]:
    """Flat `key = value` file mirroring flag names; '#' starts a comment."""
    if path is None:
        return {}
    config: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"config line {line_no}: expected 'key = value'")
        config[key.strip()] = value.strip()
    return config


def _resolver(args: argparse.Namespace, config: dict[str, str]):
    def get(name: str, cast, default):
        value = getattr(args, name.replace("-", "_"))
        if value is not None:
            # typed flags are already cast by argparse; string flags like
            # --heaps still need parsing
            return cast(value) if isinstance(value, str) else value
        if name in config:
            raw = config[name]
            try:
                return cast(raw)
            except UsageError:
                raise
            except ValueError:
                raise UsageError(f"bad config value for {name!r}: {raw!r}") from None
        return default

    return get


def _write_file(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None


def _load_formula(path: str) -> Chromosome:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read formula file: {exc}") from None
    try:
        return parse_chromosome(text)
    except ParseError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _state_text(state) -> str:
    return f"({', '.join(str(h) for h in state)})"


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, "g")
    return str(value)


def _cmd_evolve(args, config) -> int:
    get = _resolver(args, config)
    heaps = get("heaps", _parse_heaps, None)
    if heaps is None:
        raise UsageError("evolve requires --heaps")
    mode = get("state-space", StateSpaceMode, StateSpaceMode.MULTISET)
    try:
        operators = OperatorConfig(
            crossover_probability=get("crossover-prob", float, 0.9),
            mutations_per_offspring=get("mutations", int, 2),
            function_gene_probability=get("func-prob", float, 0.5),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    run_config = EvolutionConfig(
        heaps=heaps,
        population_size=get("pop", int, 100),
        chromosome_length=get("len", int, 15),
        generations=get("gens", int, 100),
        operators=operators,
        seed=get("seed", int, 0),
        mode=mode,
    )
    out_path = Path(get("out", str, "best.mep"))

    try:
        result = evolve(run_config)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    echo = [
        f"heaps = {','.join(str(h) for h in run_config.heaps)}",
        f"state-space = {mode.value}",
        f"pop = {run_config.population_size}",
        f"len = {run_config.chromosome_length}",
        f"gens = {run_config.generations}",
        f"crossover-prob = {_fmt(operators.crossover_probability)}",
        f"mutations = {operators.mutations_per_offspring}",
        f"func-prob = {_fmt(operators.function_gene_probability)}",
        f"seed = {run_config.seed}",
    ]
    outcome = [
        f"success = {'true' if result.success else 'false'}",
        f"generations-run = {len(result.best_fitness_history) - 1}",
        f"best-fitness = {'invalid' if result.best_fitness == INVALID else result.best_fitness}",
        f"formula = {decode_infix(result.best_chromosome)}",
    ]
    if result.success:
        outcome.insert(1, f"generation-of-success = {result.generation_of_success}")

    report = "\n".join(echo + outcome) + "\n"
    report_path = out_path.with_suffix(".report.txt")
    _write_file(report_path, report)
    print(report, end="")
    print(f"wrote {report_path}")

    if not result.success:
        print(f"no zero-violation formula within budget (best fitness "
              f"{'invalid' if result.best_fitness == INVALID else result.best_fitness})")
        return EXIT_EXHAUSTED

    _write_file(out_path, format_chromosome(result.best_chromosome, heaps=len(heaps)) + "\n")
    print(f"wrote {out_path}")
    return EXIT_OK


def _cmd_fitness(args, config) -> int:
    get = _resolver(args, config)
    formula = get("formula-file", str, None)
    heaps = get("heaps", _parse_heaps, None)
    if formula is None or heaps is None:
        raise UsageError("fitness requires --formula-file and --heaps")
    mode = get("state-space", StateSpaceMode, StateSpaceMode.MULTISET)
    chrom = _load_formula(formula)
    graph = build_graph(heaps, mode)
    try:
        total, breakdown = graph_fitness(chrom, graph)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if breakdown is None:
        print("fitness: invalid (division or modulo by zero on some state)")
        return EXIT_OK
    print(f"fitness: {total}")
    print(f"rule i (move from labeled P to labeled P): {breakdown.rule_i}")
    print(f"rule ii (labeled N with no labeled-P child): {breakdown.rule_ii}")
    print(f"rule iii (terminal labeled N): {breakdown.rule_iii}")
    return EXIT_OK


def _cmd_oracle(args, config) -> int:
    get = _resolver(args, config)
    heaps = get("heaps", _parse_heaps, None)
    if heaps is None:
        raise UsageError("oracle requires --heaps")
    mode = get("state-space", StateSpaceMode, StateSpaceMode.MULTISET)
    graph = build_graph(heaps, mode)
    labels = retrograde_labels(graph)
    for state in graph.nodes:
        print(f"{_state_text(state)}: {labels[state].value}")
    return EXIT_OK


def _cmd_verify(args, config) -> int:
    get = _resolver(args, config)
    formula = get("formula-file", str, None)
    heaps = get("heaps", _parse_heaps, None)
    if formula is None or heaps is None:
        raise UsageError("verify requires --formula-file and --heaps")
    mode = get("state-space", StateSpaceMode, StateSpaceMode.MULTISET)
    chrom = _load_formula(formula)
    graph = build_graph(heaps, mode)
    try:
        result = verify_formula(chrom, graph)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if result.invalid:
        print("formula is invalid (division or modulo by zero on some state)")
        return EXIT_VERIFY_FAILED
    if result.agrees:
        print(f"formula agrees with the oracle on all {graph.num_nodes} states")
        return EXIT_OK
    print(f"formula disagrees with the oracle on {len(result.disagreements)} of {graph.num_nodes} states:")
    labels = retrograde_labels(graph)
    for state in result.disagreements:
        flipped = "N" if labels[state].value == "P" else "P"
        print(f"  {_state_text(state)}: formula={flipped} oracle={labels[state].value}")
    return EXIT_VERIFY_FAILED


def _cmd_experiment(args, config) -> int:
    get = _resolver(args, config)
    name = get("name", str, None)
    if name is None:
        raise UsageError("experiment requires --name exp1|exp2|exp3")
    runs = get("runs", int, 50)
    master_seed = get("master-seed", int, 0)
    heaps = get("heaps", _parse_heaps, (4, 4, 4, 4))
    mode = get("state-space", StateSpaceMode, StateSpaceMode.MULTISET)
    out_path = Path(get("out", str, "results.csv"))

    try:
        spec = experiment_spec(name, EvolutionConfig(heaps=heaps, mode=mode), runs_per_value=runs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    table = run_sweep(spec, master_seed)
    csv_text = emit_csv(table)
    _write_file(out_path, csv_text)

    echo = [
        f"name = {name}",
        f"runs = {runs}",
        f"master-seed = {master_seed}",
        f"heaps = {','.join(str(h) for h in heaps)}",
        f"state-space = {mode.value}",
    ]
    config_path = out_path.with_suffix(".config.txt")
    _write_file(config_path, "\n".join(echo) + "\n")

    print(csv_text, end="")
    for row in table:
        if row.error:
            print(f"error at {row.parameter}={row.value}: {row.error}", file=sys.stderr)
    print(f"wrote {out_path}")
    print(f"wrote {config_path}")
    return EXIT_OK


def _cmd_play(args, config) -> int:
    get = _resolver(args, config)
    formula = get("formula-file", str, None)
    heaps = get("heaps", _parse_heaps, None)
    if formula is None or heaps is None:
        raise UsageError("play requires --formula-file and --heaps")
    mode = get("state-space", StateSpaceMode, StateSpaceMode.MULTISET)
    chrom = _load_formula(formula)
    start = canonicalize(heaps, mode)
    if max_heap_ref(chrom) >= len(start):
        raise UsageError(
            f"formula references heap a{max_heap_ref(chrom) + 1} but the game has {len(start)} heaps"
        )
    classifier = formula_classifier(chrom, len(start))

    if args.human:
        interactive_session(classifier, start, mode)
        return EXIT_OK

    opponent_kind = get("vs", str, "random")
    games = get("games", int, 1)
    seed = get("seed", int, 0)
    if games < 1:
        raise UsageError("--games must be >= 1")

    mover = classifier_strategy(classifier, mode)
    if opponent_kind == "random":
        opponent = random_strategy(random.Random(seed), mode)
    elif opponent_kind == "oracle":
        opponent = classifier_strategy(oracle_classifier(build_graph(start, mode)), mode)
    else:
        raise UsageError(f"unknown opponent {opponent_kind!r}; expected random or oracle")

    wins = 0
    for _ in range(games):
        game = play_game(mover, opponent, start, mode)
        if game.winner == 1:
            wins += 1
        if games == 1:
            for record in game.transcript:
                print(record)
    print(f"formula (moving first) won {wins}/{games} games vs {opponent_kind}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mepnim",
        description="Evolve and verify integer formulas that classify Nim positions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value settings file; flags win")
        p.add_argument("--heaps", help="comma-separated heap sizes, e.g. 4,4,4,4")
        p.add_argument("--state-space", choices=["multiset", "tuple"],
                       help="treat permuted heaps as one state (multiset, default) or keep order (tuple)")

    p = sub.add_parser("evolve", help="search for a zero-violation formula")
    common(p)
    p.add_argument("--pop", type=int, help="population size (default 100)")
    p.add_argument("--len", type=int, help="chromosome length in genes (default 15)")
    p.add_argument("--gens", type=int, help="generation budget (default 100)")
    p.add_argument("--seed", type=int, help="random seed (default 0)")
    p.add_argument("--crossover-prob", type=float, help="crossover probability (default 0.9)")
    p.add_argument("--mutations", type=int, help="mutated genes per offspring (default 2)")
    p.add_argument("--func-prob", type=float, help="probability a fresh gene is a function (default 0.5)")
    p.add_argument("--out", help="formula output path (default best.mep)")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("fitness", help="violation count of a formula on a game")
    common(p)
    p.add_argument("--formula-file", help="chromosome listing to score")
    p.set_defaults(func=_cmd_fitness)

    p = sub.add_parser("oracle", help="print the ground-truth P/N table")
    common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="check a formula against the oracle")
    common(p)
    p.add_argument("--formula-file", help="chromosome listing to check")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("experiment", help="run a stock parameter sweep")
    common(p)
    p.add_argument("--name", choices=["exp1", "exp2", "exp3"], help="which sweep to run")
    p.add_argument("--runs", type=int, help="runs per parameter value (default 50)")
    p.add_argument("--master-seed", type=int, help="seed all per-run seeds derive from (default 0)")
    p.add_argument("--out", help="CSV output path (default results.csv)")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("play", help="play games with a formula-driven strategy")
    common(p)
    p.add_argument("--formula-file", help="chromosome listing to play with")
    p.add_argument("--vs", choices=["random", "oracle"], help="opponent type (default random)")
    p.add_argument("--games", type=int, help="number of games (default 1)")
    p.add_argument("--seed", type=int, help="random opponent seed (default 0)")
    p.add_argument("--human", action="store_true", help="interactive session, human moves first")
    p.set_defaults(func=_cmd_play)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        return args.func(args, config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
