"""First-order robustness of a draw under bounded probability errors.

Winning probability is multilinear in the matrix entries, hence affine in
each unordered pair on its own.  The per-pair slopes give a drop
coefficient S such that an adversary moving every entry by at most eps can
lower the winning probability by S*eps + O(eps^2).  For deterministic
instances the same quantity counts the "crucial" matches whose lone flip
dethrones the winner.

The slopes and S come from `winprob._slopes`; this module builds the
reports on them, the eps-adversary's estimate and witness, crucial matches,
and the brute-force oracles that check them.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .draws import Draw, canonicalize
from .errors import (
    EpsilonTooLarge,
    NonpositiveEpsilon,
    NotDeterministic,
    NotWinner,
    RangeError,
    ScaleError,
    _check_number,
)
from .matrix import ComparisonMatrix, _check_player, validate_matrix
from .winprob import _checked, _outcome_weights, _slopes, _winner_levels

# Corner-scan oracle: at most two candidate entries per pair, so 2**pairs
# corners; 13 pairs admit 4 players (64 corners) and refuse 8 (28 pairs).
CORNER_ORACLE_PAIR_LIMIT = 13

DECREASE, INCREASE, HOLD = "decrease", "increase", "hold"


class PairSensitivity(NamedTuple):
    i: int
    j: int
    alpha: float  # slope of wp in the entry P[i,j]
    beta: float  # wp at P[i,j] = 0
    p: float  # the entry itself
    contribution: float  # clipped |alpha|, honouring the boundary


@dataclass(frozen=True, eq=False)
class SensitivityReport:
    """Per-pair affine decomposition of wp plus the aggregate drop coefficient.

    columns holds one numpy array per PairSensitivity field, over the pairs
    i < j in lexicographic order; the per-pair views are built on demand.
    """

    player: int
    wp: float
    columns: PairSensitivity
    drop_coefficient: float
    validity_bound: float

    @functools.cached_property
    def pairs(self) -> tuple[PairSensitivity, ...]:
        return tuple(map(PairSensitivity._make, zip(*(c.tolist() for c in self.columns))))

    def pair(self, i: int, j: int) -> PairSensitivity:
        i, j = min(i, j), max(i, j)
        size = int(self.columns.j[-1])  # the last pair is (N - 1, N)
        if not 1 <= i < j <= size:
            raise KeyError((i, j))
        k = (i - 1) * (2 * size - i) // 2 + j - i - 1  # rank of (i, j) among the pairs
        return PairSensitivity._make(c[k].item() for c in self.columns)

    def alpha(self, i: int, j: int) -> float:
        return self.pair(i, j).alpha

    def _by_key(self, column: np.ndarray) -> dict[tuple[int, int], float]:
        keys = zip(self.columns.i.tolist(), self.columns.j.tolist())
        return dict(zip(keys, column.tolist()))

    @property
    def alphas(self) -> dict[tuple[int, int], float]:
        return self._by_key(self.columns.alpha)

    @property
    def betas(self) -> dict[tuple[int, int], float]:
        return self._by_key(self.columns.beta)

    def to_json_dict(self) -> dict:
        return {
            "player": self.player,
            "wp": self.wp,
            "alphas": [
                {"i": i, "j": j, "alpha": a, "beta": b, "p": p, "contribution": c}
                for i, j, a, b, p, c in zip(*(column.tolist() for column in self.columns))
            ],
            "drop_coefficient": self.drop_coefficient,
            "validity_bound": self.validity_bound,
        }


def sensitivity(m: ComparisonMatrix, d, player: int) -> SensitivityReport:
    """Slopes alpha, intercepts beta and the drop coefficient for one draw.

    beta = wp - alpha * p.  The sum runs over unordered pairs {i, j} in
    lexicographic order.
    """
    d, player = _checked(m, d), _check_player(m, player)
    ((wp, alphas, contributions, s),) = _slopes(m, np.array([canonicalize(d).leaves]), player)
    base, alphas, contributions = wp[0], alphas[0], contributions[0]
    rows, cols = np.triu_indices(m.size, 1)
    ps = m.probs[rows, cols]
    return SensitivityReport(
        player=player,
        wp=float(base),
        columns=PairSensitivity(rows + 1, cols + 1, alphas, base - alphas * ps, ps, contributions),
        drop_coefficient=float(s[0]),
        validity_bound=m.xi,
    )


@dataclass(frozen=True)
class DropEstimate:
    """First-order worst-case drop S*eps and the guaranteed remainder."""

    epsilon: float
    drop: float
    guaranteed: float
    clamped: bool
    exceeds_validity: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def _check_eps(eps: float) -> None:
    if not _check_number(eps, "eps") > 0.0:  # also rejects NaN
        raise NonpositiveEpsilon(f"eps must be positive, got {eps}")
    if eps > 1.0:  # also rejects inf, and keeps S * eps finite
        raise RangeError(f"eps must be at most 1, as no entry can move further; got {eps}")


def drop_estimate(report: SensitivityReport, eps: float) -> DropEstimate:
    """First-order estimate of the eps-adversary's damage."""
    _check_eps(eps)
    drop = report.drop_coefficient * eps
    raw = report.wp - drop
    guaranteed = min(1.0, max(0.0, raw))
    return DropEstimate(
        epsilon=eps,
        drop=drop,
        guaranteed=guaranteed,
        clamped=guaranteed != raw,
        exceeds_validity=eps > report.validity_bound,
    )


_WAYS = np.array([HOLD, DECREASE, INCREASE], dtype=object)


@dataclass(frozen=True, eq=False)
class WorstPerturbationWitness:
    """Realized adversarial matrix moving each pair against the player.

    ways holds each pair's direction, over the pairs i < j in lexicographic
    order.
    """

    ways: np.ndarray
    epsilon: float
    matrix: ComparisonMatrix

    def _rows(self):
        """(i, j, direction) of each pair i < j, in lexicographic order."""
        i, j = np.triu_indices(self.matrix.size, 1)
        return zip((i + 1).tolist(), (j + 1).tolist(), self.ways.tolist())

    @property
    def directions(self) -> dict[tuple[int, int], str]:
        return {(i, j): way for i, j, way in self._rows()}

    def to_json_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "directions": [{"i": i, "j": j, "direction": way} for i, j, way in self._rows()],
            "matrix": self.matrix.to_json_dict(),
        }


def worst_perturbation_witness(
    report: SensitivityReport, m: ComparisonMatrix, eps: float
) -> WorstPerturbationWitness:
    """Move each pair entry by eps against the sign of its slope.

    Requires eps <= xi(P), so an entry leaves [0, 1] only by the 1e-9
    complement tolerance, and such an entry is clipped back.  The result
    realizes the first-order drop up to O(eps^2).
    """
    _check_eps(eps)
    if eps > m.xi:
        raise EpsilonTooLarge(f"eps {eps} exceeds the validity bound xi = {m.xi}")
    c = report.columns
    down = (c.alpha > 0.0) & (c.p > 0.0)
    up = ~down & (c.alpha < 0.0) & (c.p < 1.0)
    # p - eps >= 0 as eps <= xi <= p, but p + eps may pass 1 by as much as
    # the complement tolerance, so a raised entry is clipped at 1
    new = np.where(down, c.p - eps, np.where(up, np.minimum(c.p + eps, 1.0), c.p))
    arr = m.probs.copy()
    arr[c.i - 1, c.j - 1] = new
    arr[c.j - 1, c.i - 1] = 1.0 - new
    return WorstPerturbationWitness(
        ways=_WAYS[down + 2 * up], epsilon=eps, matrix=validate_matrix(arr)
    )


class Match(NamedTuple):
    round: int  # 1-based round
    node: int  # 0-based slot within the round, left to right
    first: int  # player arriving from the left child
    second: int  # player arriving from the right child


@dataclass(frozen=True, eq=False)
class CrucialMatchReport:
    """Matches whose lone flipped outcome makes the player lose the title."""

    player: int
    crucial: tuple[Match, ...]

    @property
    def count(self) -> int:
        return len(self.crucial)

    def ids(self) -> set[tuple[int, int]]:
        return {(mt.round, mt.node) for mt in self.crucial}

    def to_json_dict(self) -> dict:
        return {
            "player": self.player,
            "count": self.count,
            "crucial": [mt._asdict() for mt in self.crucial],
        }


def _require_winner(m: ComparisonMatrix, d: Draw, player: int) -> list[list[int]]:
    if not m.deterministic:
        raise NotDeterministic("crucial matches need a 0/1 matrix")
    levels = _winner_levels(m, d)
    if levels[-1][0] != player - 1:
        raise NotWinner(f"player {player} does not win this draw")
    return levels


def crucial_matches(m: ComparisonMatrix, d, player: int) -> CrucialMatchReport:
    """All crucial matches, in O(N log N).

    Subtree winners are computed once; flipping one match then only needs
    the winners recomputed along its ancestor path.
    """
    d, player = _checked(m, d), _check_player(m, player)
    levels = _require_winner(m, d, player)
    probs = m.probs
    rounds = d.rounds
    found = []
    for r in range(1, rounds + 1):
        below = levels[r - 1]
        for node in range(len(levels[r])):
            a, b = below[2 * node], below[2 * node + 1]
            cur = b if levels[r][node] == a else a  # the flipped outcome
            idx = node
            for rr in range(r + 1, rounds + 1):
                sib = levels[rr - 1][idx ^ 1]
                cur = cur if probs[cur, sib] == 1.0 else sib
                idx >>= 1
            if cur != player - 1:
                found.append(Match(r, node, a + 1, b + 1))
    return CrucialMatchReport(player=player, crucial=tuple(found))


def _replay_with_flip(probs: np.ndarray, leaves0: list[int], fr: int, fnode: int) -> int:
    cur = leaves0
    r = 1
    while len(cur) > 1:
        nxt = []
        for k, (a, b) in enumerate(zip(cur[::2], cur[1::2])):
            w = a if probs[a, b] == 1.0 else b
            if r == fr and k == fnode:
                w = b if w == a else a
            nxt.append(w)
        cur = nxt
        r += 1
    return cur[0]


def crucial_matches_oracle(m: ComparisonMatrix, d, player: int) -> CrucialMatchReport:
    """Naive O(N^2) check: replay the whole bracket once per flipped match."""
    d, player = _checked(m, d), _check_player(m, player)
    if m.size > 64:
        raise ScaleError("the replay oracle is limited to 64 players")
    levels = _require_winner(m, d, player)
    probs = m.probs
    leaves0 = [x - 1 for x in d.leaves]
    found = []
    for r in range(1, d.rounds + 1):
        below = levels[r - 1]
        for node in range(len(levels[r])):
            if _replay_with_flip(probs, leaves0, r, node) != player - 1:
                found.append(Match(r, node, below[2 * node] + 1, below[2 * node + 1] + 1))
    return CrucialMatchReport(player=player, crucial=tuple(found))


def _corner_candidates(p: float, eps: float) -> list[float]:
    return sorted({max(0.0, p - eps), min(1.0, p + eps)})


def exact_worst_drop_oracle(m: ComparisonMatrix, d, player: int,
                            eps: float) -> tuple[float, ComparisonMatrix]:
    """Exact worst-case drop by exhaustive corner evaluation.

    Multilinearity puts the minimum of wp over the eps-box at a corner, so
    scanning the two ends of each pair's interval, clipped to [0, 1], is
    exact.  The matrix and every corner are scored as one stack by outcome
    enumeration, independently of the reach kernel.  Returns (drop, the
    first minimizing corner's matrix).
    """
    d, player = _checked(m, d), _check_player(m, player)
    _check_eps(eps)
    i, j = np.triu_indices(m.size, 1)
    if len(i) > CORNER_ORACLE_PAIR_LIMIT:
        raise ScaleError(f"{len(i)} pairs exceed the corner-scan limit {CORNER_ORACLE_PAIR_LIMIT}")
    candidates = [_corner_candidates(p, eps) for p in m.probs[i, j].tolist()]
    corners = np.array(list(itertools.product(*candidates)))
    # the matrix itself, then a copy of it per corner with the corner's entries
    stack = np.repeat(m.probs[None], len(corners) + 1, axis=0)
    stack[1:, i, j] = corners
    stack[1:, j, i] = 1.0 - corners
    weight, won = _outcome_weights(stack, canonicalize(d).leaves)
    wps = weight[:, won == player - 1].sum(axis=1)
    k = 1 + int(np.argmin(wps[1:]))
    return float(wps[0] - wps[k]), validate_matrix(stack[k])
