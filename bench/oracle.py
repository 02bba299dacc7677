"""Reference computations the benchmark checks bkt's outputs against.

Nothing here imports bkt, so a defect in the program's fast paths cannot
hide in its own checks.  A matrix is an (N, N) array with p[i, j] the
probability that player i+1 beats player j+1; a draw is a sequence of
1-based player labels in leaf order.
"""

from __future__ import annotations

import itertools

import numpy as np


def reach(q: np.ndarray) -> np.ndarray:
    """Reach recursion over a stack of leaf-ordered matrices.

    q[b, s, t] is the chance that the player on leaf s beats the one on
    leaf t in instance b.  Returns r with r[b, s] the chance that the
    player on leaf s wins the whole bracket.  Every level is merged for
    all its blocks at once.
    """
    count, size = q.shape[0], q.shape[1]
    r = np.ones((count, size))
    h = 1
    while h < size:
        nb = size // (2 * h)
        blocks = np.arange(nb)
        diag = q.reshape(count, nb, 2 * h, nb, 2 * h)[:, blocks, :, blocks, :]
        halves = r.reshape(count, nb, 2, h)
        left, right = halves[:, :, 0, :], halves[:, :, 1, :]
        new_left = left * np.einsum("nbij,bnj->bni", diag[:, :, :h, h:], right)
        new_right = right * np.einsum("nbij,bnj->bni", diag[:, :, h:, :h], left)
        r = np.stack([new_left, new_right], axis=2).reshape(count, size)
        h *= 2
    return r


def win_probabilities(p: np.ndarray, draws) -> np.ndarray:
    """(B, N) winning probabilities in player order, one row per draw."""
    leaves = np.atleast_2d(np.asarray(draws, dtype=np.intp)) - 1
    r = reach(p[leaves[:, :, None], leaves[:, None, :]])
    out = np.empty_like(r)
    np.put_along_axis(out, leaves, r, axis=1)
    return out


def wp(p: np.ndarray, draw, player: int) -> float:
    return float(win_probabilities(p, draw)[0, player - 1])


def pair_slopes(p: np.ndarray, draw, player: int, pairs) -> tuple[np.ndarray, np.ndarray]:
    """Slope alpha and intercept beta of wp(player) in each pair's entry.

    wp is affine in one pair's entry, so its values with the entry forced
    to 0 and to 1 give both exactly.
    """
    stack = np.repeat(p[None], 2 * len(pairs), axis=0)
    for t, (i, j) in enumerate(pairs):
        for row, v in ((2 * t, 0.0), (2 * t + 1, 1.0)):
            stack[row, i - 1, j - 1] = v
            stack[row, j - 1, i - 1] = 1.0 - v
    perm = np.asarray(draw, dtype=np.intp) - 1
    r = reach(stack[:, perm][:, :, perm])
    at = r[:, int(np.flatnonzero(perm == player - 1)[0])]
    return at[1::2] - at[0::2], at[0::2]


def clipped(alpha: float, entry: float) -> float:
    """The part of a slope an adversary can use: entries at 0 only rise, at 1 only fall."""
    if entry == 1.0:
        return max(alpha, 0.0)
    if entry == 0.0:
        return max(-alpha, 0.0)
    return abs(alpha)


def drop_coefficient(p: np.ndarray, draw, player: int) -> float:
    """Sum of clipped slopes over every unordered pair."""
    pairs = list(itertools.combinations(range(1, len(draw) + 1), 2))
    alphas, _ = pair_slopes(p, draw, player, pairs)
    return sum(clipped(float(a), float(p[i - 1, j - 1])) for a, (i, j) in zip(alphas, pairs))


def rounds(p: np.ndarray, draw) -> list[np.ndarray]:
    """Survivors of each round of a 0/1 tournament, leaves first (0-based ids)."""
    cur = np.asarray(draw, dtype=np.intp) - 1
    out = [cur]
    while len(cur) > 1:
        a, b = cur[0::2], cur[1::2]
        cur = np.where(p[a, b] == 1.0, a, b)
        out.append(cur)
    return out


def winner(p: np.ndarray, draw) -> int:
    return int(rounds(p, draw)[-1][0]) + 1


def crucial_set(p: np.ndarray, draw) -> set[tuple[int, int]]:
    """(round, node) of every match whose lone flip changes the winner.

    Brute force: the whole bracket is replayed once per flipped match, all
    replays side by side.
    """
    leaves = np.asarray(draw, dtype=np.intp) - 1
    size = len(leaves)
    ids = [(r, k) for r in range(1, size.bit_length()) for k in range(size >> r)]
    flip_round = np.array([r for r, _ in ids])
    flip_node = np.array([k for _, k in ids])
    cur = np.tile(leaves, (len(ids), 1))
    r = 1
    while cur.shape[1] > 1:
        a, b = cur[:, 0::2], cur[:, 1::2]
        nxt = np.where(p[a, b] == 1.0, a, b)
        rows = np.flatnonzero(flip_round == r)
        cols = flip_node[rows]
        wa, wb = a[rows, cols], b[rows, cols]
        nxt[rows, cols] = np.where(nxt[rows, cols] == wa, wb, wa)
        cur = nxt
        r += 1
    champion = rounds(p, draw)[-1][0]
    return {ids[t] for t in np.flatnonzero(cur[:, 0] != champion)}


def bracket(draw):
    """Nested frozensets of the bracket: equal exactly for equivalent draws."""
    items = list(draw)
    while len(items) > 1:
        items = [frozenset(pair) for pair in zip(items[0::2], items[1::2])]
    return items[0]


def canonical(draw) -> tuple[int, ...]:
    """The file format's canonical layout: at every node the child whose
    smallest label is smaller comes first."""
    seq = tuple(draw)
    if len(seq) == 1:
        return seq
    h = len(seq) // 2
    left, right = canonical(seq[:h]), canonical(seq[h:])
    return left + right if min(left) < min(right) else right + left


def classes_by_permutation(size: int) -> list[tuple[int, ...]]:
    """One draw per bracket class, found by trying every permutation."""
    seen = {}
    for perm in itertools.permutations(range(1, size + 1)):
        seen.setdefault(bracket(perm), perm)
    return list(seen.values())


def hard(n: int) -> np.ndarray:
    """0/1 matrix of the hard family over 2**n players, from its definition.

    n doubling steps each seat a new player right of every seated one.  A
    spawner beats its spawn; any other pair is won by the right-seated
    player.  Labels follow final seating order, so the identity draw
    crowns player 1.
    """
    players, spawner = [0], {}
    for _ in range(n):
        seated = []
        for x in players:
            spawner[len(spawner) + 1] = x
            seated += [x, len(spawner)]
        players = seated
    rank = np.empty(len(players), dtype=np.intp)
    rank[players] = np.arange(len(players))
    arr = np.tri(len(players), k=-1)
    for child, parent in spawner.items():
        arr[rank[parent], rank[child]] = 1.0
        arr[rank[child], rank[parent]] = 0.0
    return arr


def relabel(p: np.ndarray, perm) -> np.ndarray:
    """Matrix of the same instance with player i renamed perm[i - 1]."""
    new = np.asarray(perm, dtype=np.intp) - 1
    out = np.zeros_like(p)
    out[np.ix_(new, new)] = p
    return out


def corner_minimum(p: np.ndarray, draw, player: int, eps: float) -> float:
    """Lowest wp over every corner of the eps-box around p (small instances).

    wp is multilinear, so the minimum over the box sits at a corner; each
    pair may take its interval ends, plus 0 or 1 where those are inside.
    """
    pairs = list(itertools.combinations(range(len(p)), 2))
    choices = []
    for i, j in pairs:
        x = p[i, j]
        vals = {v for v in (x - eps, x + eps) if 0.0 <= v <= 1.0}
        vals |= {v for v in (0.0, 1.0) if x - eps <= v <= x + eps}
        choices.append(sorted(vals))
    corners = np.array(list(itertools.product(*choices)))
    stack = np.repeat(p[None], len(corners), axis=0)
    for k, (i, j) in enumerate(pairs):
        stack[:, i, j] = corners[:, k]
        stack[:, j, i] = 1.0 - corners[:, k]
    perm = np.asarray(draw, dtype=np.intp) - 1
    r = reach(stack[:, perm][:, :, perm])
    return float(r[:, int(np.flatnonzero(perm == player - 1)[0])].min())
