"""Draw-fixing decision problems and robust draw selection.

Four problems over a fixed comparison matrix and target player: force an
outright win (TFP), reach a winning-probability threshold (PTFP), and the
robust variants that additionally cap the drop coefficient (RTFP, RPTFP).
Small instances are scanned exhaustively over canonical draws; larger ones
fall back to a restarted local search over block swaps.  Both score their
candidates in batches: one `_reach` call evaluates a whole stack of draws.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .draws import Draw, _canon_rows, _canonical_sequences
from .errors import (
    NoWinningDraw,
    NotDeterministic,
    ParameterError,
    ScaleError,
)
from .matrix import ComparisonMatrix
from .robustness import _drop_coefficients, _reach_chunks, sensitivity
from .winprob import _check_player, win_probabilities

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


def _verify_witness(req: SolveRequest, d: Draw, wp: float, s: float | None) -> None:
    # independent recomputation guards against evaluator divergence
    full = float(win_probabilities(req.matrix, d)[req.player - 1])
    if abs(full - wp) > 1e-9 or full < req.wp_target - _WP_ATOL:
        raise RuntimeError("witness fails re-verification of its winning probability")
    if req.drop_bound is not None:
        s2 = sensitivity(req.matrix, d, req.player).drop_coefficient
        if s2 > req.drop_bound + _WP_ATOL:
            raise RuntimeError("witness fails re-verification of its drop coefficient")


def _scores(req: SolveRequest, rows: np.ndarray) -> list[tuple]:
    """(score, ok, wp, s) of each canonical row, up to the first that is ok.

    The score is lexicographic, larger is better, for hill-climbing.  Its
    primary part measures progress toward the winning condition: rounds
    survived on 0/1 matrices (every reach level is then exactly 0 or 1),
    capped wp otherwise.  The secondary part rewards a low drop coefficient,
    which is computed only for rows whose wp meets the target.  The rows go
    a chunk at a time, with one slope pass per chunk, and no chunk past the
    first ok row is evaluated.
    """
    m, target, bound = req.matrix, req.wp_target, req.drop_bound
    out = []
    for reach, slopes in _reach_chunks(m, rows, req.player):
        if req.problem in ("TFP", "RTFP"):
            primaries = reach[:, 1:].sum(axis=1).tolist()
        else:
            primaries = np.minimum(reach[:, -1], target).tolist()
        meets = reach[:, -1] >= target - _WP_ATOL
        if bound is not None and meets.any():
            drops = iter(_drop_coefficients(m, slopes(meets)).tolist())
        for wp, primary, ok in zip(reach[:, -1].tolist(), primaries, meets.tolist()):
            s = next(drops) if ok and bound is not None else None
            ok = ok and (s is None or s <= bound + _WP_ATOL)
            secondary = 0.0 if bound is None else -s if s is not None else -np.inf
            out.append(((primary, secondary), ok, wp, s))
            if ok:
                return out
    return out


def _all_rows(m: ComparisonMatrix) -> np.ndarray:
    """Every canonical draw, one row each, in lexicographic order."""
    return np.array(list(_canonical_sequences(tuple(range(1, m.size + 1)))))


def _solve_exact(req: SolveRequest) -> SolveResult:
    if req.matrix.size > EXACT_LIMIT:
        raise ScaleError(
            f"exact scan is limited to {EXACT_LIMIT} players; use the heuristic"
        )
    rows = _all_rows(req.matrix)
    scores = _scores(req, rows)
    _, ok, wp, s = scores[-1]
    if not ok:
        return SolveResult(False, None, None, None, len(rows), True)
    d = Draw(tuple(rows[len(scores) - 1].tolist()))
    _verify_witness(req, d, wp, s)
    return SolveResult(True, d, wp, s, len(scores), True)


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


def _row_keys(rows: np.ndarray) -> list[bytes]:
    """One bytes key per row of leaf labels 1..N: each label less one, in a
    byte up to 256 players and in two bytes above."""
    codes = (rows - 1).astype(np.min_scalar_type(rows.shape[1] - 1))
    return codes.view(np.dtype((np.void, codes.shape[1] * codes.itemsize))).ravel().tolist()


def _solve_heuristic(req: SolveRequest, restarts: int, seed: int) -> SolveResult:
    size = req.matrix.size
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
        scores = _scores(req, rows[at]) if at else []
        lo, hi = len(seen), len(seen) + len(scores)
        if hi > table.shape[1]:
            grown = np.empty((2, max(hi, 2 * table.shape[1])))
            grown[:, :lo] = table[:, :lo]
            table = grown
        table[:, lo:hi] = np.array([score for score, *_ in scores]).reshape(-1, 2).T
        seen.update(zip(fresh, range(lo, hi)))
        if scores and scores[-1][1]:
            _, _, wp, s = scores[-1]
            return None, (rows[at[len(scores) - 1]], wp, s)
        return [seen[key] for key in keys], None

    def found(row, wp, s):
        d = Draw(tuple(row.tolist()))
        _verify_witness(req, d, wp, s)
        return SolveResult(True, d, wp, s, len(seen), False)

    for restart in range(restarts):
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
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ParameterError(f"seed must be a nonnegative integer, got {seed!r}")
    if isinstance(restarts, bool) or not isinstance(restarts, numbers.Integral) or restarts < 1:
        raise ParameterError(f"restart count must be a positive integer, got {restarts!r}")
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
    rows = _all_rows(m)
    wps = np.concatenate([reach[:, -1] for reach, _ in _reach_chunks(m, rows, player)])
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
    if not delta >= 0.0:  # also rejects NaN
        raise ParameterError(f"delta must be nonnegative, got {delta}")
    _check_player(m, player)
    if m.size > EXACT_LIMIT:
        raise ScaleError(f"the delta-optimal scan is limited to {EXACT_LIMIT} players")
    rows = _all_rows(m)
    chunks = list(_reach_chunks(m, rows, player))  # EXACT_LIMIT keeps them small
    top = max(reach[:, -1].max() for reach, _ in chunks)
    entries, lo = [], 0
    for reach, slopes in chunks:
        wps = reach[:, -1]
        near = wps >= top - delta - _WP_ATOL
        drops = _drop_coefficients(m, slopes(near)).tolist()
        for leaves, wp, s in zip(rows[lo:lo + len(wps)][near].tolist(), wps[near].tolist(), drops):
            entries.append(DeltaOptimalEntry(Draw(tuple(leaves)), wp, s))
        lo += len(wps)
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
