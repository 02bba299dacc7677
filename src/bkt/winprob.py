"""Winning probabilities of complete tournaments.

Everything runs through one private kernel, `_reach`: given a (B, N, N)
stack of matrices permuted into leaf order, it computes the bottom-up
"reach" levels (the probability that each leaf's player wins its first k
rounds), merging all blocks of a level, for all B matrices, at once.
`_reach_adjoint` is its reverse-mode pass: one backward sweep from a root
leaf yields the slope of that leaf's winning probability in every pair's
entry, in O(N^2) for all pairs.  `_slopes` pairs the two passes over a
batch of draws and sums each draw's clipped slopes into its drop
coefficient S, the quantity `robustness` reports and the robust solvers
bound.  `_player_reach` scores one player across a batch of draws
from the distinct opponent parts they meet, one `_reach` call per part
size.  A separate oracle enumerates all 2**(N-1) joint match outcomes
instead; it cross-checks the kernel and scores the corner-scan oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .draws import Draw, canonicalize
from .errors import DimensionMismatch, NotDeterministic, ScaleError, _check_integer
from .matrix import ComparisonMatrix, _check_player

# 2**(N-1) outcome combinations; 16 players (32768 rows) is the sane limit.
OUTCOME_ENUMERATION_LIMIT = 16
_CHUNK_CELLS = 1 << 16  # matrix cells per _reach call; bounds a batch's memory


def _checked(m: ComparisonMatrix, d) -> Draw:
    """d as a Draw, after the checks every evaluator makes, in this order:
    the leaves, then the draw's size against m's.  An evaluator that takes
    a player checks it next, with `matrix._check_player`."""
    d = d if isinstance(d, Draw) else Draw(tuple(d))
    if m.size != d.size:
        raise DimensionMismatch(f"matrix has {m.size} players, draw has {d.size}")
    return d


def _leaf_stacks(m: ComparisonMatrix, rows: np.ndarray):
    """(perm, pq) per chunk of a (B, N) array of leaf rows: the rows as 0-based
    players and the matrix in each row's leaf order, _CHUNK_CELLS cells at most."""
    step = max(1, _CHUNK_CELLS // rows.shape[1] ** 2)
    for lo in range(0, len(rows), step):
        perm = rows[lo:lo + step] - 1
        yield perm, m.probs[perm[:, :, None], perm[:, None, :]]


def _sibling_sums(pq: np.ndarray, r: np.ndarray, half: int) -> np.ndarray:
    """s[b, t] = sum of pq[b, t, u] * r[b, u] over u in the sibling half of t.

    Blocks have size 2*half, and a whole level merges at once.  Up to
    half = 2 each leaf's one or two sibling terms are gathered and added to
    0.0 in order, as einsum's accumulator adds them: einsum's bits, a -0.0
    sum turned to +0.0 included.  Wider levels run einsum on the diagonal
    blocks of every stack entry, read through one strided view.
    """
    B, N = r.shape
    if half <= 2:
        t = np.arange(N)
        s = 0.0
        for j in range(half):
            u = ((t // half) ^ 1) * half + j
            s = s + pq[:, t, u] * r[:, u]
        return s
    nb = N // (2 * half)
    blocks = np.diagonal(pq.reshape(B, nb, 2 * half, nb, 2 * half), axis1=1, axis2=3)
    r = r.reshape(B, nb, 2, half)
    s = np.empty((B, nb, 2, half))
    s[:, :, 0] = np.einsum("bijk,bkj->bki", blocks[:, :half, half:], r[:, :, 1])
    s[:, :, 1] = np.einsum("bijk,bkj->bki", blocks[:, half:, :half], r[:, :, 0])
    return s.reshape(B, N)


def _reach(pq: np.ndarray) -> list[np.ndarray]:
    """Reach levels of a leaf-ordered (B, N, N) stack of matrices.

    levels[k] is (B, N): the probability that the player on leaf t wins
    their first k rounds.  Every subtree is a contiguous block of leaves, so
    level k+1 is level k times the sibling-weighted row sums.
    """
    B, N = pq.shape[0], pq.shape[1]
    levels = [np.ones((B, N))]
    half = 1
    while half < N:
        levels.append(levels[-1] * _sibling_sums(pq, levels[-1], half))
        half *= 2
    return levels


def _row_keys(rows: np.ndarray, size: int | None = None) -> list[bytes]:
    """One bytes key per row of a (B, k) array of labels 1..size (size
    defaults to k): each label less one, in a byte up to 256 labels and in
    two bytes above."""
    codes = (rows - 1).astype(np.min_scalar_type((size or rows.shape[1]) - 1))
    return codes.view(np.dtype((np.void, codes.shape[1] * codes.itemsize))).ravel().tolist()


def _player_reach(m: ComparisonMatrix, rows: np.ndarray, player: int) -> np.ndarray:
    """(B, rounds + 1) reach levels of the player in each canonical (B, N)
    leaf row: column k is the chance that they win their first k rounds.

    In round k + 1 the player v meets the winner of the sibling block of
    size 2**k at their leaf, a part S whose internal matches no other round
    reads.  So level k + 1 is level k times g = sum of P(v, u) wp_S(u) over
    u in S, in the products and sums `_reach` takes, so the levels equal
    the full kernel's bit for bit.  A part is a canonical label sequence,
    and equal sequences have equal wp_S: each distinct part of the batch
    is gathered and run through `_reach` once.
    """
    B, N = rows.shape
    if not B:
        return np.ones((0, N.bit_length()))
    leaf = np.argmax(rows == player, axis=1)
    levels = [np.ones(B)]
    size = 1
    while size < N:
        start = (leaf // size ^ 1) * size
        parts = rows[np.arange(B)[:, None], start[:, None] + np.arange(size)]
        pv = m.probs[player - 1, parts - 1]
        if size == 1:
            g = pv[:, 0] + 0.0  # -0.0 to +0.0, as in _sibling_sums
        else:
            index: dict[bytes, int] = {}
            which = np.array([index.setdefault(key, len(index)) for key in _row_keys(parts, N)])
            distinct = np.empty(len(index), dtype=np.intp)
            distinct[which] = np.arange(B)  # a row of each part
            wp = np.concatenate([_reach(pq)[-1] for _, pq in _leaf_stacks(m, parts[distinct])])
            g = np.einsum("bj,bj->b", pv, wp[which])
        levels.append(levels[-1] * g)
        size *= 2
    return np.stack(levels, axis=1)


def _reach_adjoint(pq: np.ndarray, levels: list[np.ndarray], leaf: np.ndarray) -> np.ndarray:
    """Slopes of the root reach of leaf[b] for each matrix b of a (B, N, N) stack.

    Returns the antisymmetric (B, N, N) stack alpha with alpha[b, a, c] the
    derivative of wp along pq[b, a, c] = p, pq[b, c, a] = 1 - p.  Reverse
    mode: the adjoint bar of each level starts as e_leaf at the root; a pair
    first meeting at level k+1 has slope r_k(a) r_k(c) (bar_{k+1}(a) -
    bar_{k+1}(c)), and bar_k = bar_{k+1} * s_k + (sibling sums of
    bar_{k+1} * r_k through the transposed matrix).
    """
    B, N = pq.shape[0], pq.shape[1]
    at = np.arange(B)[:, None]
    pq_t = np.ascontiguousarray(pq.transpose(0, 2, 1))
    bar = (np.arange(N) == leaf[:, None]).astype(float)
    upper = np.zeros((B, N, N))
    for k in range(len(levels) - 2, -1, -1):
        half = 1 << k
        nb = N // (2 * half)
        r = levels[k]
        rb, bb = r.reshape(B, nb, 2 * half), bar.reshape(B, nb, 2 * half)
        blk = np.arange(nb)
        upper.reshape(B, nb, 2 * half, nb, 2 * half)[at, blk, :half, blk, half:] = (
            rb[:, :, :half, None] * rb[:, :, None, half:]
            * (bb[:, :, :half, None] - bb[:, :, None, half:])
        )
        bar = bar * _sibling_sums(pq, r, half) + _sibling_sums(pq_t, bar * r, half)
    return upper - upper.transpose(0, 2, 1)


def _slopes(m: ComparisonMatrix, rows: np.ndarray, player: int):
    """(wp, alphas, contributions, s) per _leaf_stacks chunk of a (B, N) array
    of leaf rows: the player's (b,) winning probability, (b, C(N, 2)) slopes
    and clipped slopes, pairs i < j in lexicographic order, and the (b,)
    drop coefficients S, each row's sum of clipped slopes.

    One adjoint pass on the chunk's forward pass gives every pair's slope
    alpha at once: wp is affine in each pair's entry, so the derivative is
    the exact slope.  A caller that reduces each chunk before it takes the
    next keeps its memory within one chunk.
    """
    i, j = np.triu_indices(rows.shape[1], 1)
    ps = m.probs[i, j]
    inside = (0.0 < ps) & (ps < 1.0)
    for perm, pq in _leaf_stacks(m, rows):
        levels = _reach(pq)
        pos = np.argsort(perm, axis=1)  # leaf of each player
        at = np.arange(len(pos))
        leaf = pos[:, player - 1]
        alphas = _reach_adjoint(pq, levels, leaf)[at[:, None], pos[:, i], pos[:, j]]
        # at the boundary only the feasible direction can hurt; where() keeps
        # the sign of a zero, as Python's max(x, 0.0) does and maximum() does not
        hurt = np.where(ps == 1.0, alphas, -alphas)
        c = np.where(inside, np.abs(alphas), np.where(hurt < 0.0, 0.0, hurt))
        # left to right as Python's sum adds, not pairwise as np.sum; + 0.0
        # makes a sum of -0.0 terms 0.0, as sum's start value 0 does
        yield levels[-1][at, leaf], alphas, c, np.cumsum(c, axis=1)[:, -1] + 0.0


@dataclass(frozen=True, eq=False)
class ReachTable:
    """Per-node labelling probabilities, on the draw's own tree shape.

    levels[k] is leaf-ordered with blocks of size 2**k, one per node at
    height k; level 0 are the leaves and the last level is the root.
    """

    leaves: tuple[int, ...]
    levels: tuple[np.ndarray, ...]

    @property
    def rounds(self) -> int:
        return len(self.levels) - 1

    def _node(self, level, index) -> slice:
        """The leaf positions under a node, once the node is checked to be
        in the tree; else ParameterError."""
        level = _check_integer(level, 0, self.rounds,
                               f"level must be an integer in 0..{self.rounds}")
        last = (1 << self.rounds - level) - 1
        index = _check_integer(index, 0, last,
                               f"index at level {level} must be an integer in 0..{last}")
        return slice(index << level, index + 1 << level)

    def players_under(self, level: int, index: int) -> tuple[int, ...]:
        return self.leaves[self._node(level, index)]

    def distribution(self, level: int, index: int) -> dict[int, float]:
        at = self._node(level, index)
        return {p: float(v) for p, v in zip(self.leaves[at], self.levels[level][at])}

    def probability(self, level: int, index: int, player: int) -> float:
        """Probability that `player` labels the node; 0 for players elsewhere."""
        player = _check_integer(player, 1, len(self.leaves),
                                f"player must be an integer in 1..{len(self.leaves)}")
        return self.distribution(level, index).get(player, 0.0)

    def root_distribution(self) -> np.ndarray:
        out = np.empty(len(self.leaves))
        out[np.asarray(self.leaves) - 1] = self.levels[-1]
        return out


def reach_table(m: ComparisonMatrix, d) -> ReachTable:
    """Full reach table of C(P, d), keeping d's literal tree layout."""
    d = _checked(m, d)
    ((_, pq),) = _leaf_stacks(m, np.array([d.leaves]))
    levels = _reach(pq)
    return ReachTable(leaves=d.leaves, levels=tuple(level[0] for level in levels))


def win_probabilities(m: ComparisonMatrix, d) -> np.ndarray:
    """Vector of winning probabilities; entry i-1 belongs to player i.

    The canonical representative of the draw is evaluated, so equivalent
    draws give bit-identical results.
    """
    return reach_table(m, canonicalize(d)).root_distribution()


def winner(m: ComparisonMatrix, d) -> int:
    """Winner of a deterministic tournament, in O(N) match lookups."""
    d = _checked(m, d)
    if not m.deterministic:
        raise NotDeterministic("winner is defined only for 0/1 matrices")
    return _winner_levels(m, d)[-1][0] + 1


def _winner_levels(m: ComparisonMatrix, d: Draw) -> list[list[int]]:
    """0-based winners of a 0/1 tournament's nodes, the leaves first."""
    probs = m.probs
    levels = [[x - 1 for x in d.leaves]]
    while len(levels[-1]) > 1:
        cur = levels[-1]
        levels.append([a if probs[a, b] == 1.0 else b for a, b in zip(cur[::2], cur[1::2])])
    return levels


def outcome_win_distribution(m: ComparisonMatrix, d) -> np.ndarray:
    """Winner distribution by enumerating all 2**(N-1) joint match outcomes.

    Deliberately independent of the reach recursion: each outcome vector is
    played out match by match and contributes the product of its per-match
    probabilities.
    """
    d = _checked(m, d)
    N = m.size
    if N > OUTCOME_ENUMERATION_LIMIT:
        raise ScaleError(
            f"outcome enumeration is limited to {OUTCOME_ENUMERATION_LIMIT} players"
        )
    weight, won = _outcome_weights(m.probs[None], d.leaves)
    out = np.zeros(N)
    np.add.at(out, won, weight[0])
    return out


def _outcome_weights(stack: np.ndarray, leaves) -> tuple[np.ndarray, np.ndarray]:
    """(weight, won) of the 2**(N-1) joint match outcomes of the draw with
    these leaves: weight[k, o] is the probability of outcome o under matrix
    k of a (K, N, N) stack in player order, and won[o] the 0-based player
    that o crowns.  Bit b of o says whether the first player lost match b."""
    B = 1 << (len(leaves) - 1)
    sel = np.arange(B)
    layer = [np.full(B, x - 1, dtype=np.intp) for x in leaves]
    weight = np.ones((len(stack), B))
    match_bit = 0
    while len(layer) > 1:
        nxt = []
        for x, y in zip(layer[::2], layer[1::2]):
            first_wins = ((sel >> match_bit) & 1) == 0
            weight = weight * np.where(first_wins, stack[:, x, y], stack[:, y, x])
            nxt.append(np.where(first_wins, x, y))
            match_bit += 1
        layer = nxt
    return weight, layer[0]


def wp_by_outcome_enumeration(m: ComparisonMatrix, d, player: int) -> float:
    """Winning probability of one player by brute-force outcome enumeration."""
    d, player = _checked(m, d), _check_player(m, player)
    return float(outcome_win_distribution(m, d)[player - 1])
