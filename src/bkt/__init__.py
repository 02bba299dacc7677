"""Balanced knockout tournaments: win probabilities, robustness, fixing.

Importing the package loads no submodule and no numpy: each public name is
looked up in the submodule that owns it on first use (PEP 562), so the
command line can set up the environment before numpy loads.
"""

import importlib

__version__ = "0.1.0"

# each public name, under the submodule that owns it
_EXPORTS = {
    "draws": (
        "ENUMERATION_LIMIT", "Draw", "canonicalize", "count_draws",
        "draw_from_json_dict", "enumerate_draws",
    ),
    "errors": (
        "BktError", "ComplementarityError", "DimensionError", "DimensionMismatch",
        "EpsilonTooLarge", "NonpositiveEpsilon", "NotDeterministic", "NotWinner",
        "NoWinningDraw", "ParameterError", "PermutationError", "RangeError",
        "ScaleError",
    ),
    "generators": (
        "BigSmallInstance", "bigsmall_even_probability", "compose_big_win",
        "gen_bigsmall", "gen_hard", "gen_threetier", "gen_unbalanced",
        "hard_path_probability", "uniform_perturbation",
    ),
    "matrix": ("ComparisonMatrix", "matrix_from_json_dict", "validate_matrix"),
    "robustness": (
        "DECREASE", "HOLD", "INCREASE", "CrucialMatchReport", "DropEstimate",
        "Match", "PairSensitivity", "SensitivityReport", "WorstPerturbationWitness",
        "crucial_matches", "crucial_matches_oracle", "drop_estimate",
        "exact_worst_drop_oracle", "sensitivity", "worst_perturbation_witness",
    ),
    "solvers": (
        "EXACT_LIMIT", "DeltaOptimalEntry", "SolveRequest", "SolveResult",
        "best_draw", "enumerate_delta_optimal", "most_robust_winning_draw", "solve",
    ),
    "winprob": (
        "OUTCOME_ENUMERATION_LIMIT", "ReachTable", "outcome_win_distribution",
        "reach_table", "win_probabilities", "winner", "wp_by_outcome_enumeration",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = sorted(_HOME)


def __getattr__(name):
    # not cached here: a name stays whatever its submodule holds now
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
