"""Draw-fixing decision problems and robust draw selection.

Four problems over a fixed comparison matrix and target player: force an
outright win (TFP), reach a winning-probability threshold (PTFP), and the
robust variants that additionally cap the drop coefficient (RTFP, RPTFP).
Small instances are scanned exhaustively over canonical draws; larger ones
fall back to a restarted local search over block swaps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .draws import Draw, canonicalize, enumerate_draws
from .errors import (
    NoWinningDraw,
    NotDeterministic,
    ParameterError,
    ScaleError,
)
from .matrix import ComparisonMatrix
from .robustness import _winner_levels, sensitivity
from .winprob import _check_player, win_probabilities, winner

EXACT_LIMIT = 8  # players; the canonical-draw count explodes past this
_WP_ATOL = 1e-9

_PROBLEMS = ("TFP", "PTFP", "RTFP", "RPTFP")


@dataclass(frozen=True)
class SolveRequest:
    problem: str
    matrix: ComparisonMatrix
    player: int
    q: float | None = None
    c: float | None = None
    s: float | None = None
    mode: str = "auto"  # auto resolves to exact when the scan is feasible

    def __post_init__(self):
        object.__setattr__(self, "problem", str(self.problem).upper())
        if self.problem not in _PROBLEMS:
            raise ParameterError(
                f"unknown problem {self.problem!r}; expected one of {_PROBLEMS}"
            )
        if self.mode not in ("auto", "exact", "heuristic"):
            raise ParameterError(f"unknown mode {self.mode!r}")
        _check_player(self.matrix, self.player)
        if self.problem in ("TFP", "RTFP") and not self.matrix.deterministic:
            raise NotDeterministic(f"{self.problem} requires a 0/1 matrix")
        if self.problem in ("PTFP", "RPTFP"):
            if self.q is None or not 0.0 <= self.q <= 1.0:
                raise ParameterError(f"{self.problem} needs a threshold q in [0, 1]")
        # "not >=" also rejects NaN, which would make every comparison fail
        if self.problem == "RTFP" and (self.c is None or not self.c >= 0.0):
            raise ParameterError("RTFP needs a nonnegative drop bound c")
        if self.problem == "RPTFP" and (self.s is None or not self.s >= 0.0):
            raise ParameterError("RPTFP needs a nonnegative drop bound s")

    @property
    def wp_target(self) -> float:
        return 1.0 if self.problem in ("TFP", "RTFP") else self.q

    @property
    def drop_bound(self) -> float | None:
        if self.problem == "RTFP":
            return self.c
        if self.problem == "RPTFP":
            return self.s
        return None


@dataclass(frozen=True)
class SolveResult:
    answer: bool
    witness: Draw | None
    wp: float | None
    drop_coefficient: float | None
    draws_examined: int
    exact: bool  # exhaustive scan: a negative answer is a proof

    @property
    def verdict(self) -> str:
        if self.exact:
            return "yes" if self.answer else "no"
        return "found" if self.answer else "not-found"

    def to_json_dict(self) -> dict:
        return {
            "answer": self.verdict,
            "witness": list(self.witness.leaves) if self.witness else None,
            "wp": self.wp,
            "drop_coefficient": self.drop_coefficient,
            "draws_examined": self.draws_examined,
            "exact": self.exact,
        }


def _evaluate(req: SolveRequest, d: Draw) -> tuple[bool, float, float | None]:
    m = req.matrix
    if req.problem in ("TFP", "RTFP"):
        wp = 1.0 if winner(m, d) == req.player else 0.0
    else:
        wp = float(win_probabilities(m, d)[req.player - 1])
    if wp < req.wp_target - _WP_ATOL:
        return False, wp, None
    if req.drop_bound is None:
        return True, wp, None
    s = sensitivity(m, d, req.player).drop_coefficient
    return s <= req.drop_bound + _WP_ATOL, wp, s


def _verify_witness(req: SolveRequest, d: Draw, wp: float, s: float | None) -> None:
    # independent recomputation guards against evaluator divergence
    full = float(win_probabilities(req.matrix, d)[req.player - 1])
    if abs(full - wp) > 1e-9 or full < req.wp_target - _WP_ATOL:
        raise RuntimeError("witness fails re-verification of its winning probability")
    if req.drop_bound is not None:
        s2 = sensitivity(req.matrix, d, req.player).drop_coefficient
        if s2 > req.drop_bound + _WP_ATOL:
            raise RuntimeError("witness fails re-verification of its drop coefficient")


def _solve_exact(req: SolveRequest) -> SolveResult:
    m = req.matrix
    if m.size > EXACT_LIMIT:
        raise ScaleError(
            f"exact scan is limited to {EXACT_LIMIT} players; use the heuristic"
        )
    examined = 0
    for d in enumerate_draws(m.n):
        examined += 1
        ok, wp, s = _evaluate(req, d)
        if ok:
            _verify_witness(req, d, wp, s)
            return SolveResult(True, d, wp, s, examined, True)
    return SolveResult(False, None, None, None, examined, True)


def _rounds_survived(req: SolveRequest, d: Draw) -> int:
    levels = _winner_levels(req.matrix, d)
    target = req.player - 1
    depth = 0
    for level in levels[1:]:
        if target not in level:
            break
        depth += 1
    return depth


def _score(req: SolveRequest, d: Draw) -> tuple[tuple[float, float], bool, float, float | None]:
    """Lexicographic score for hill-climbing; larger is better.

    The primary part measures progress toward the winning condition (rounds
    survived for 0/1 matrices, capped wp otherwise); the secondary part
    kicks in only once the primary is satisfied and rewards low drop.
    """
    ok, wp, s = _evaluate(req, d)
    if req.problem in ("TFP", "RTFP"):
        primary = float(_rounds_survived(req, d))
    else:
        primary = min(wp, req.wp_target)
    if req.drop_bound is None:
        return (primary, 0.0), ok, wp, s
    secondary = -s if s is not None else -np.inf
    return (primary, secondary), ok, wp, s


def _neighbors(leaves: tuple[int, ...]):
    n = len(leaves)
    b = 1
    while b <= n // 2:
        starts = range(0, n, b)
        for x in starts:
            for y in starts:
                if y <= x:
                    continue
                out = list(leaves)
                out[x : x + b], out[y : y + b] = leaves[y : y + b], leaves[x : x + b]
                yield tuple(out)
        b *= 2


def _solve_heuristic(req: SolveRequest, restarts: int, seed: int) -> SolveResult:
    size = req.matrix.size
    rng = np.random.default_rng(seed)
    cache: dict[tuple[int, ...], tuple] = {}

    def evaluate(leaves):
        if leaves not in cache:
            cache[leaves] = _score(req, Draw(leaves))
        return cache[leaves]

    starts = [tuple(range(1, size + 1))]
    for _ in range(max(1, restarts) - 1):
        starts.append(tuple(int(x) + 1 for x in rng.permutation(size)))
    for start in starts:
        cur = canonicalize(start).leaves
        cur_score, ok, wp, s = evaluate(cur)
        if ok:
            d = Draw(cur)
            _verify_witness(req, d, wp, s)
            return SolveResult(True, d, wp, s, len(cache), False)
        while True:
            best = None
            best_score = cur_score
            for nb in _neighbors(cur):
                nb = canonicalize(nb).leaves
                score, ok, wp, s = evaluate(nb)
                if ok:
                    d = Draw(nb)
                    _verify_witness(req, d, wp, s)
                    return SolveResult(True, d, wp, s, len(cache), False)
                if score > best_score:
                    best, best_score = nb, score
            if best is None:
                break
            cur, cur_score = best, best_score
    return SolveResult(False, None, None, None, len(cache), False)


def solve(req: SolveRequest, *, restarts: int = 10, seed: int = 0) -> SolveResult:
    """Decide the requested fixing problem, or search for a witness.

    Exact mode scans every canonical draw (small instances only) and its
    answers are definitive; heuristic mode runs a restarted local search
    whose negative answers are inconclusive.  Mode "auto" picks by size.
    """
    mode = req.mode
    if mode == "auto":
        mode = "exact" if req.matrix.size <= EXACT_LIMIT else "heuristic"
    if mode == "exact":
        return _solve_exact(req)
    return _solve_heuristic(req, restarts, seed)


def best_draw(m: ComparisonMatrix, player: int) -> tuple[Draw, float]:
    """Canonical draw maximizing the player's winning probability.

    Exhaustive; ties keep the lexicographically first maximizer.
    """
    _check_player(m, player)
    if m.size > EXACT_LIMIT:
        raise ScaleError(f"best_draw is limited to {EXACT_LIMIT} players")
    best = None
    best_wp = -1.0
    for d in enumerate_draws(m.n):
        wp = float(win_probabilities(m, d)[player - 1])
        if wp > best_wp:
            best, best_wp = d, wp
    return best, best_wp


@dataclass(frozen=True)
class DeltaOptimalEntry:
    draw: Draw
    wp: float
    drop_coefficient: float

    def to_json_dict(self) -> dict:
        return {
            "leaves": list(self.draw.leaves),
            "wp": self.wp,
            "drop_coefficient": self.drop_coefficient,
        }


def enumerate_delta_optimal(
    m: ComparisonMatrix, player: int, delta: float
) -> list[DeltaOptimalEntry]:
    """All canonical draws within delta of the best winning probability.

    Sorted by ascending drop coefficient, then descending wp, then leaves.
    """
    if not delta >= 0.0:  # also rejects NaN
        raise ParameterError(f"delta must be nonnegative, got {delta}")
    _check_player(m, player)
    if m.size > EXACT_LIMIT:
        raise ScaleError(f"the delta-optimal scan is limited to {EXACT_LIMIT} players")
    draws = list(enumerate_draws(m.n))
    wps = [float(win_probabilities(m, d)[player - 1]) for d in draws]
    top = max(wps)
    entries = [
        DeltaOptimalEntry(d, wp, sensitivity(m, d, player).drop_coefficient)
        for d, wp in zip(draws, wps)
        if wp >= top - delta - _WP_ATOL
    ]
    entries.sort(key=lambda e: (e.drop_coefficient, -e.wp, e.draw.leaves))
    return entries


def most_robust_winning_draw(
    m: ComparisonMatrix, player: int, delta: float = 0.0, *, require_win: bool = False
) -> DeltaOptimalEntry:
    """Among near-optimal draws, the one with the smallest drop coefficient.

    With require_win, only draws the player wins outright qualify.
    """
    entries = enumerate_delta_optimal(m, player, delta)
    if require_win:
        entries = [e for e in entries if e.wp >= 1.0 - _WP_ATOL]
        if not entries:
            raise NoWinningDraw(f"player {player} wins no draw outright")
    return min(entries, key=lambda e: (e.drop_coefficient, e.draw.leaves))
