"""Evolving integer-formula classifiers for Nim positions.

Chromosomes encode formulas over heap sizes; a formula labels a state P
when it evaluates to zero.  Fitness counts violations of the three
winning-strategy rules over the reachable-state graph, and evolved
formulas are cross-checked against a brute-force retrograde oracle.
"""

from .expr import (
    ARITY,
    FUNCTIONS,
    Chromosome,
    EvalError,
    Gene,
    ParseError,
    decode_infix,
    evaluate,
    evaluate_many,
    format_chromosome,
    parse_chromosome,
)
from .evolution import EvolutionConfig, RunResult, evolve, tournament_select
from .experiments import SweepRow, SweepSpec, emit_csv, experiment_spec, run_sweep
from .fitness import INVALID, FitnessBreakdown, Label, graph_fitness
from .game import (
    GameGraph,
    StateSpaceMode,
    bfs_order,
    build_graph,
    canonicalize,
    children,
    is_terminal,
    moves,
    state_count,
)
from .genetics import OperatorConfig, crossover_one_point, mutate, random_chromosome
from .oracle import VerifyResult, bouton_label, retrograde_labels, retrograde_p_mask, verify_formula
from .play import (
    MoveRecord,
    PlayedGame,
    best_move,
    classifier_strategy,
    formula_classifier,
    interactive_session,
    oracle_classifier,
    play_game,
    random_strategy,
)

__version__ = "0.1.0"
