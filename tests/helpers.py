"""Shared test utilities: seeded instance builders, an independent
structural signature for draw equivalence, and reference implementations
that the fast paths are checked against."""

import numpy as np

from bkt import (
    DECREASE,
    HOLD,
    INCREASE,
    Draw,
    SolveResult,
    canonicalize,
    enumerate_draws,
    sensitivity,
    validate_matrix,
    win_probabilities,
    winner,
)
from bkt.winprob import _winner_levels


def random_matrix(rng, size, interior=False):
    """Random valid comparison matrix from a seeded generator.

    interior=True keeps every off-diagonal entry in [0.05, 0.95] so that
    perturbation validity bounds stay comfortably positive.
    """
    a = rng.random((size, size))
    if interior:
        a = 0.05 + 0.9 * a
    upper = np.triu(a, 1)
    arr = upper + (1.0 - upper.T) * (np.tri(size, k=-1) > 0)
    return validate_matrix(arr)


def random_deterministic(rng, size):
    """Random 0/1 comparison matrix (each pair's orientation a coin flip)."""
    a = (rng.random((size, size)) < 0.5).astype(float)
    upper = np.triu(a, 1)
    arr = upper + (1.0 - upper.T) * (np.tri(size, k=-1) > 0)
    return validate_matrix(arr)


def random_mixed(rng, size):
    """Random comparison matrix with exact 0/1 entries next to interior ones."""
    a = rng.random((size, size))
    a = np.where(a < 0.3, 0.0, np.where(a > 0.7, 1.0, a))
    upper = np.triu(a, 1)
    arr = upper + (1.0 - upper.T) * (np.tri(size, k=-1) > 0)
    return validate_matrix(arr)


def round_signature(leaves):
    """Hashable invariant of a leaf sequence's bracket-equivalence class.

    Collects, for every level of the tree, the set of player groups that
    share a subtree of that size, each group a bit mask of its labels and
    each level the sorted tuple of its masks.  Swapping the two children of
    any node leaves every group unchanged, and two sequences with identical
    groups induce identical brackets, so equal signatures certify
    equivalence without relying on the canonicalization code under test.
    """
    masks = [1 << label for label in leaves]
    sig = []
    while len(masks) > 1:
        masks = [a | b for a, b in zip(masks[::2], masks[1::2])]
        sig.append(tuple(sorted(masks)))
    return tuple(sig)


def scramble(rng, leaves):
    """Apply random subtree swaps: an equivalent, usually different, sequence."""
    out = list(leaves)
    width = 1
    while width < len(out):
        for start in range(0, len(out), 2 * width):
            if rng.random() < 0.5:
                left = out[start:start + width]
                right = out[start + width:start + 2 * width]
                out[start:start + 2 * width] = right + left
        width *= 2
    return tuple(out)


def _stack_win_probabilities(stack, leaves):
    """Winning probabilities for a (B, N, N) stack sharing one draw, by the
    textbook block-by-block reach recursion; (B, N) in player order."""
    B, N = stack.shape[0], stack.shape[1]
    perm = np.asarray(leaves, dtype=np.intp) - 1
    pq = stack[:, perm][:, :, perm]
    reach = np.ones((B, N))
    half = 1
    while half < N:
        nxt = np.empty((B, N))
        for lo in range(0, N, 2 * half):
            mid, hi = lo + half, lo + 2 * half
            left, right = reach[:, lo:mid], reach[:, mid:hi]
            nxt[:, lo:mid] = left * np.einsum("bij,bj->bi", pq[:, lo:mid, mid:hi], right)
            nxt[:, mid:hi] = right * np.einsum("bij,bj->bi", pq[:, mid:hi, lo:mid], left)
        reach = nxt
        half *= 2
    out = np.empty((B, N))
    out[:, perm] = reach
    return out


def einsum_sibling_sums(pq, r, half):
    """`winprob._sibling_sums` with `einsum` at every level, frozen: the
    kernel's gathered sums at half 1 and 2 must give its bits."""
    B, N = r.shape
    nb = N // (2 * half)
    blocks = np.diagonal(pq.reshape(B, nb, 2 * half, nb, 2 * half), axis1=1, axis2=3)
    r = r.reshape(B, nb, 2 * half)
    s = np.empty((B, nb, 2 * half))
    s[:, :, :half] = np.einsum("bijk,bkj->bki", blocks[:, :half, half:], r[:, :, half:])
    s[:, :, half:] = np.einsum("bijk,bkj->bki", blocks[:, half:, :half], r[:, :, :half])
    return s.reshape(B, N)


def two_point_slopes(m, d, player):
    """Per-pair slope and intercept of the player's wp by two evaluations.

    wp is affine in each pair's entry, so forcing P[i,j] to 1 and to 0 gives
    the slope alpha = wp(1) - wp(0) and the intercept beta = wp(0) exactly.
    Returns (pairs, alphas, betas) over the pairs i < j in lexicographic
    order, independently of the adjoint pass under test.
    """
    rows, cols = np.triu_indices(m.size, 1)
    chunk = 256  # matrices per evaluated stack
    ends = []
    for value in (1.0, 0.0):
        wps = []
        for lo in range(0, len(rows), chunk):
            i, j = rows[lo:lo + chunk], cols[lo:lo + chunk]
            stack = np.repeat(m.probs[None], len(i), axis=0)
            k = np.arange(len(i))
            stack[k, i, j] = value
            stack[k, j, i] = 1.0 - value
            wps.append(_stack_win_probabilities(stack, d)[:, player - 1])
        ends.append(np.concatenate(wps))
    hi, lo = ends
    pairs = list(zip((rows + 1).tolist(), (cols + 1).tolist()))
    return pairs, hi - lo, lo


def corner_descent(m, leaves, player, eps, starts, max_steps=10**9):
    """(wp, table) of the lowest eps-box corner that coordinate descent
    reaches from any start: a falsifier of the first-order floor, not a
    proof of the minimum.

    A corner moves each pair i < j, in lexicographic order, to the low or
    the high end of [p - eps, p + eps] clipped to [0, 1]; a start is a bool
    vector, True for the high end.  Each step evaluates, as one stack and
    by the textbook recursion, every single-pair flip of the current corner
    that can move the player's wp: a pair with the player, or inside one
    of the subtrees whose winner the player meets.  It takes the best flip
    while that lowers wp.
    """
    rows, cols = np.triu_indices(m.size, 1)
    p = m.probs[rows, cols]
    ends = np.stack([np.maximum(p - eps, 0.0), np.minimum(p + eps, 1.0)])
    leaf = np.argsort(np.asarray(leaves) - 1)  # of each player
    meets = np.array([int(x).bit_length() for x in leaf ^ leaf[player - 1]])  # round
    (live,) = np.nonzero((rows == player - 1) | (cols == player - 1)
                         | (meets[rows] == meets[cols]))

    def tables(highs):
        stack = np.repeat(m.probs[None], len(highs), axis=0)
        vals = np.where(highs, ends[1], ends[0])
        stack[:, rows, cols] = vals
        stack[:, cols, rows] = 1.0 - vals
        return stack

    best = (np.inf, None)
    for start in starts:
        high = np.asarray(start, dtype=bool)
        wp = _stack_win_probabilities(tables(high[None]), leaves)[0, player - 1]
        for _ in range(max_steps):
            flips = np.repeat(high[None], len(live), axis=0)
            flips[np.arange(len(live)), live] ^= True
            wps = _stack_win_probabilities(tables(flips), leaves)[:, player - 1]
            j = int(np.argmin(wps))
            if not wps[j] < wp:
                break
            high, wp = flips[j], wps[j]
        if wp < best[0]:
            best = (float(wp), tables(high[None])[0])
    return best


def reference_witness(report, m, eps):
    """worst_perturbation_witness one pair at a time.

    Returns the directions, keyed by pair, and the moved table before
    validation.
    """
    arr = m.probs.copy()
    directions = {}
    for ps in report.pairs:
        if ps.alpha > 0.0 and ps.p > 0.0:
            way, new = DECREASE, ps.p - eps
        elif ps.alpha < 0.0 and ps.p < 1.0:
            way, new = INCREASE, ps.p + eps
        else:
            way, new = HOLD, ps.p
        directions[(ps.i, ps.j)] = way
        arr[ps.i - 1, ps.j - 1] = new
        arr[ps.j - 1, ps.i - 1] = 1.0 - new
    return directions, arr


def hard_by_spawning(n):
    """gen_hard's 0/1 table built by literally replaying its n doubling steps.

    Every player spawns a new one seated to its right; a spawned player
    beats everyone to its left except its spawner and loses to everything
    on its right.  Rows and columns follow final seating order.
    """
    players = [0]  # working ids in seating order
    spawner = {0: None}
    nxt = 1
    for _ in range(n):
        seated = []
        for p in players:
            spawner[nxt] = p
            seated += [p, nxt]
            nxt += 1
        players = seated
    size = len(players)
    rank = {p: k for k, p in enumerate(players)}  # final 0-based position
    arr = np.zeros((size, size))
    for p in players:
        for q in players:
            if p == q:
                continue
            # default: the right-seated player wins; spawners beat their spawn
            if spawner.get(q) == p:
                winner_is_p = True
            elif spawner.get(p) == q:
                winner_is_p = False
            else:
                winner_is_p = rank[p] > rank[q]
            arr[rank[p], rank[q]] = 1.0 if winner_is_p else 0.0
    return arr


def unbalanced_by_loop(n):
    """gen_unbalanced's 0/1 table built pair by pair around a spawned core.

    The 2**(n-1) added players lose to player 1, beat the rest of the core,
    and among themselves the higher index wins.
    """
    half = 1 << (n - 1)
    size = 2 * half
    arr = np.zeros((size, size))
    arr[:half, :half] = hard_by_spawning(n - 1)
    for a in range(half, size):
        arr[0, a] = 1.0
        arr[a, 0] = 0.0
        for c in range(1, half):
            arr[a, c] = 1.0
            arr[c, a] = 0.0
        for b in range(half, size):
            if a == b:
                continue
            arr[a, b] = 1.0 if a > b else 0.0
    return arr


def is_canonical_sequence(leaves):
    """True when every internal node's left subtree holds the smaller minimum."""
    width = 1
    while width < len(leaves):
        for lo in range(0, len(leaves), 2 * width):
            if min(leaves[lo:lo + width]) > min(leaves[lo + width:lo + 2 * width]):
                return False
        width *= 2
    return True


# ------------------------------------------------ one-draw-at-a-time solvers
#
# The draw searches as they ran before the batched scorer: every candidate
# is scored by its own win_probabilities / winner / sensitivity call.  They
# are the reference that solve(), best_draw() and enumerate_delta_optimal()
# must reproduce exactly, witness and draws_examined included.

_ATOL = 1e-9


def _reference_evaluate(req, d):
    m = req.matrix
    if req.problem in ("TFP", "RTFP"):
        wp = 1.0 if winner(m, d) == req.player else 0.0
    else:
        wp = float(win_probabilities(m, d)[req.player - 1])
    if wp < req.wp_target - _ATOL:
        return False, wp, None
    if req.drop_bound is None:
        return True, wp, None
    s = sensitivity(m, d, req.player).drop_coefficient
    return s <= req.drop_bound + _ATOL, wp, s


def _reference_rounds_survived(req, d):
    target = req.player - 1
    depth = 0
    for level in _winner_levels(req.matrix, d)[1:]:
        if target not in level:
            break
        depth += 1
    return depth


def _reference_score(req, d):
    ok, wp, s = _reference_evaluate(req, d)
    if req.problem in ("TFP", "RTFP"):
        primary = float(_reference_rounds_survived(req, d))
    else:
        primary = min(wp, req.wp_target)
    if req.drop_bound is None:
        return (primary, 0.0), ok, wp, s
    return (primary, -s if s is not None else -np.inf), ok, wp, s


def _reference_neighbors(leaves):
    n = len(leaves)
    b = 1
    while b <= n // 2:
        starts = range(0, n, b)
        for x in starts:
            for y in starts:
                if y <= x:
                    continue
                out = list(leaves)
                out[x:x + b], out[y:y + b] = leaves[y:y + b], leaves[x:x + b]
                yield tuple(out)
        b *= 2


def reference_solve_exact(req):
    """Scan the canonical draws one at a time, in lexicographic order."""
    examined = 0
    for d in enumerate_draws(req.matrix.n):
        examined += 1
        ok, wp, s = _reference_evaluate(req, d)
        if ok:
            return SolveResult(True, d, wp, s, examined, True)
    return SolveResult(False, None, None, None, examined, True)


def reference_solve_heuristic(req, restarts, seed):
    """Steepest ascent over block swaps, scoring one neighbour at a time."""
    size = req.matrix.size
    rng = np.random.default_rng(seed)
    cache = {}

    def evaluate(leaves):
        if leaves not in cache:
            cache[leaves] = _reference_score(req, Draw(leaves))
        return cache[leaves]

    starts = [tuple(range(1, size + 1))]
    for _ in range(max(1, restarts) - 1):
        starts.append(tuple(int(x) + 1 for x in rng.permutation(size)))
    for start in starts:
        cur = canonicalize(start).leaves
        cur_score, ok, wp, s = evaluate(cur)
        if ok:
            return SolveResult(True, Draw(cur), wp, s, len(cache), False)
        while True:
            best = None
            best_score = cur_score
            for nb in _reference_neighbors(cur):
                nb = canonicalize(nb).leaves
                score, ok, wp, s = evaluate(nb)
                if ok:
                    return SolveResult(True, Draw(nb), wp, s, len(cache), False)
                if score > best_score:
                    best, best_score = nb, score
            if best is None:
                break
            cur, cur_score = best, best_score
    return SolveResult(False, None, None, None, len(cache), False)


def reference_best_draw(m, player):
    best, best_wp = None, -1.0
    for d in enumerate_draws(m.n):
        wp = float(win_probabilities(m, d)[player - 1])
        if wp > best_wp:
            best, best_wp = d, wp
    return best, best_wp


def reference_delta_optimal(m, player, delta):
    """(leaves, wp, drop coefficient) of the draws within delta of the best."""
    draws = list(enumerate_draws(m.n))
    wps = [float(win_probabilities(m, d)[player - 1]) for d in draws]
    top = max(wps)
    entries = [
        (d.leaves, wp, sensitivity(m, d, player).drop_coefficient)
        for d, wp in zip(draws, wps)
        if wp >= top - delta - _ATOL
    ]
    entries.sort(key=lambda e: (e[2], -e[1], e[0]))
    return entries
