"""Draw-fixing decision problems and robust draw selection.

Four problems over a fixed comparison matrix and target player: force an
outright win (TFP), reach a winning-probability threshold (PTFP), and the
robust variants that additionally cap the drop coefficient (RTFP, RPTFP).
Small instances are scanned exhaustively over canonical draws; larger ones
fall back to a restarted local search over block swaps.  Both score their
candidates in batches: `_player_reach` gives a whole batch's winning
probabilities from the target player's distinct opponent parts, and the
robust problems take the drop coefficients of the rows that meet the target
from `_slopes`, a chunk at a time.  Every score, and every re-check of a
witness, comes from `winprob`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .draws import Draw, _canon_rows, _canonical_sequences, count_draws
from .errors import (NoWinningDraw, NotDeterministic, ParameterError, ScaleError, _check_integer,
                     _check_memory, _check_real, _physical_memory)
from .matrix import ComparisonMatrix, _check_player
from .winprob import _player_reach, _row_keys, _slopes, win_probabilities

EXACT_LIMIT = 8  # players; the canonical-draw count explodes past this
# Draws the heuristic search may examine.  It stops at the first
# neighbourhood past this, with a not-found answer, and a size whose one
# neighbourhood holds more draws is refused.  The benchmark's searches
# examine at most 26 281 draws; at 128 players a draw takes 26-45 us on a
# 2-CPU host, so a search there ends within about 5 s.
DRAW_BUDGET = 100_000
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
        object.__setattr__(self, "player", _check_player(self.matrix, self.player))
        if self.problem in ("TFP", "RTFP") and not self.matrix.deterministic:
            raise NotDeterministic(f"{self.problem} requires a 0/1 matrix")
        if self.problem in ("PTFP", "RPTFP"):
            object.__setattr__(self, "q", _check_real(
                self.q, 0.0, 1.0, f"{self.problem} needs a threshold q in [0, 1]"))
        if self.problem == "RTFP":
            object.__setattr__(self, "c", _check_real(
                self.c, 0.0, math.inf, "RTFP needs a nonnegative drop bound c"))
        if self.problem == "RPTFP":
            object.__setattr__(self, "s", _check_real(
                self.s, 0.0, math.inf, "RPTFP needs a nonnegative drop bound s"))

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
    budget_spent: bool = False  # the search stopped at DRAW_BUDGET

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


def _verify_witness(req: SolveRequest, d: Draw, wp: float, s: float | None) -> None:
    # independent recomputation guards against evaluator divergence
    full = float(win_probabilities(req.matrix, d)[req.player - 1])
    if abs(full - wp) > 1e-9 or full < req.wp_target - _WP_ATOL:
        raise RuntimeError("witness fails re-verification of its winning probability")
    if req.drop_bound is not None:
        # a witness is a canonical row, as sensitivity would make it
        ((*_, s),) = _slopes(req.matrix, np.array([d.leaves]), req.player)
        if s[0] > req.drop_bound + _WP_ATOL:
            raise RuntimeError("witness fails re-verification of its drop coefficient")


def _scores(req: SolveRequest, rows: np.ndarray) -> tuple[np.ndarray, tuple | None]:
    """(scores, hit) of the canonical rows up to and including the first
    that is ok: scores is (2, k), each row's (primary, secondary) score, and
    hit is the ok row's (wp, s), or None when no row is ok.

    The score is lexicographic, larger is better, for hill-climbing.  Its
    primary part measures progress toward the winning condition: rounds
    survived on 0/1 matrices (every reach level is then exactly 0 or 1),
    capped wp otherwise.  The secondary part rewards a low drop coefficient,
    which is computed only for rows whose wp meets the target.  Every row's
    reach comes from `_player_reach`, the player's distinct opponent parts,
    at once; the rows that meet the target go through `_slopes` a chunk at a
    time, one forward and one adjoint pass per chunk, and no chunk past the
    first ok row is evaluated.
    """
    m, target, bound = req.matrix, req.wp_target, req.drop_bound
    reach = _player_reach(m, rows, req.player)
    wp = reach[:, -1]
    scores = np.empty((2, len(wp)))
    if req.problem in ("TFP", "RTFP"):
        scores[0] = reach[:, 1:].sum(axis=1)
    else:
        scores[0] = np.minimum(wp, target)
    (meet,) = np.nonzero(wp >= target - _WP_ATOL)
    if bound is None:
        scores[1] = 0.0
        if len(meet):
            k = meet[0]
            return scores[:, :k + 1], (float(wp[k]), None)
        return scores, None
    scores[1] = -np.inf  # no drop coefficient
    lo = 0
    for *_, s in _slopes(m, rows[meet], req.player):
        at = meet[lo:lo + len(s)]
        lo += len(s)
        scores[1, at] = -s
        (hits,) = np.nonzero(s <= bound + _WP_ATOL)
        if len(hits):
            k = at[hits[0]]
            return scores[:, :k + 1], (float(wp[k]), float(s[hits[0]]))
    return scores, None


def _all_rows(m: ComparisonMatrix, caller: str) -> np.ndarray:
    """Every canonical draw, one row each, in lexicographic order."""
    if m.size > EXACT_LIMIT:
        raise ScaleError(f"{caller} is limited to {EXACT_LIMIT} players")
    return np.array(list(_canonical_sequences(tuple(range(1, m.size + 1)))))


def _solve_exact(req: SolveRequest) -> SolveResult:
    rows = _all_rows(req.matrix, "the exact scan")
    scores, hit = _scores(req, rows)
    if hit is None:
        return SolveResult(False, None, None, None, len(rows), True)
    k = scores.shape[1]
    d = Draw(tuple(rows[k - 1].tolist()))
    _verify_witness(req, d, *hit)
    return SolveResult(True, d, *hit, k, True)


def _neighbourhood_size(size: int) -> int:
    """The number of rows of _swaps(size)."""
    return sum(math.comb(size >> k, 2) for k in range(size.bit_length() - 1))


@functools.cache
def _swaps(size: int) -> np.ndarray:
    """Leaf index rows of every swap of two equal aligned blocks.

    Block sizes rise, then the pairs of blocks go in lexicographic order.
    """
    out = []
    b = 1
    while b <= size // 2:
        for x in range(0, size, b):
            for y in range(x + b, size, b):
                idx = list(range(size))
                idx[x:x + b], idx[y:y + b] = idx[y:y + b], idx[x:x + b]
                out.append(idx)
        b *= 2
    return np.array(out, dtype=np.intp)


def _solve_heuristic(req: SolveRequest, restarts: int, seed: int) -> SolveResult:
    size = req.matrix.size
    step = _neighbourhood_size(size)
    if step > DRAW_BUDGET:
        raise ScaleError(f"a heuristic search of {size} players examines {step} draws a step, "
                         f"more than its budget of {DRAW_BUDGET}")
    _check_memory((step * size * 8 - 1).bit_length(), f"the {step} swaps of {size} players",
                  _physical_memory())
    # every examined draw, as a key into the columns of one score table
    # (primary, secondary), which doubles whenever it fills
    seen: dict[bytes, int] = {}
    table = np.empty((2, 1024))

    def visit(rows):
        """(the table column of each canonical row, None), or (None, (row, wp,
        s)) of the first ok row.  The rows not seen before are scored in one
        batch, up to the first ok one, and remembered."""
        nonlocal table
        keys = _row_keys(rows)
        fresh = {}  # each unseen key at its first row
        for k, key in enumerate(keys):
            if key not in seen:
                fresh.setdefault(key, k)
        at = list(fresh.values())
        scores, hit = _scores(req, rows[at])
        lo, hi = len(seen), len(seen) + scores.shape[1]
        if hi > table.shape[1]:
            grown = np.empty((2, max(hi, 2 * table.shape[1])))
            grown[:, :lo] = table[:, :lo]
            table = grown
        table[:, lo:hi] = scores
        seen.update(zip(fresh, range(lo, hi)))
        if hit is not None:
            return None, (rows[at[hi - lo - 1]], *hit)
        return [seen[key] for key in keys], None

    def found(row, wp, s):
        d = Draw(tuple(row.tolist()))
        _verify_witness(req, d, wp, s)
        return SolveResult(True, d, wp, s, len(seen), False)

    # a small instance can run out of draws to examine before its restarts
    every = count_draws(req.matrix.n) if size <= EXACT_LIMIT else math.inf
    for restart in range(restarts):
        if len(seen) == every:
            break
        # each random start is drawn only once the previous restarts are spent,
        # and numpy.random is imported only once there is one to draw
        if restart == 1:
            rng = np.random.default_rng(seed)
        start = np.arange(1, size + 1) if restart == 0 else rng.permutation(size) + 1
        rows = _canon_rows(start[None])
        cols, hit = visit(rows)
        if hit:
            return found(*hit)
        cur, cur_score = rows[0], tuple(table[:, cols[0]].tolist())
        while True:
            if len(seen) >= DRAW_BUDGET:
                return SolveResult(False, None, None, None, len(seen), False, budget_spent=True)
            rows = _canon_rows(cur[_swaps(size)])
            cols, hit = visit(rows)
            if hit:
                return found(*hit)
            # the first neighbour with the largest (primary, secondary) score
            primary, secondary = table[:, cols]
            top = primary == primary.max()
            top &= secondary == secondary[top].max()
            k = int(np.argmax(top))
            score = (float(primary[k]), float(secondary[k]))
            if not score > cur_score:
                break
            cur, cur_score = rows[k].copy(), score
    return SolveResult(False, None, None, None, len(seen), False)


def solve(req: SolveRequest, *, restarts: int = 10, seed: int = 0) -> SolveResult:
    """Decide the requested fixing problem, or search for a witness.

    Exact mode scans every canonical draw (small instances only) and its
    answers are definitive; heuristic mode runs a restarted local search
    whose negative answers are inconclusive.  Mode "auto" picks by size.
    """
    seed = _check_integer(seed, 0, math.inf, "seed must be a nonnegative integer")
    restarts = _check_integer(restarts, 1, math.inf, "restart count must be a positive integer")
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
    player = _check_player(m, player)
    rows = _all_rows(m, "best_draw")
    wps = _player_reach(m, rows, player)[:, -1]
    k = int(np.argmax(wps))  # the first maximizer
    return Draw(tuple(rows[k].tolist())), float(wps[k])


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
    delta = _check_real(delta, 0.0, math.inf, f"delta must be nonnegative, got {delta!r}")
    player = _check_player(m, player)
    rows = _all_rows(m, "enumerate_delta_optimal")
    wps = _player_reach(m, rows, player)[:, -1]
    near = wps >= wps.max() - delta - _WP_ATOL
    rows, wps = rows[near], wps[near]
    drops = np.concatenate([s for *_, s in _slopes(m, rows, player)])
    entries = (DeltaOptimalEntry(Draw(tuple(leaves)), wp, s)
               for leaves, wp, s in zip(rows.tolist(), wps.tolist(), drops.tolist()))
    return sorted(entries, key=lambda e: (e.drop_coefficient, -e.wp, e.draw.leaves))


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
