"""Instance families with known structure, plus their closed-form anchors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RangeError, _check_memory, _check_number, _check_rounds
from .matrix import ComparisonMatrix, validate_matrix


def _check_n(n: int, table_extra: int | None = None) -> int:
    """n as an int, once checked to be a positive round count (see
    errors._check_rounds).  With table_extra, the float table of
    2**(n + table_extra) players must also fit in physical memory."""
    n = _check_rounds(n)
    if table_extra is None:
        return n
    rounds = n + table_extra
    # the table's 8*N*N bytes are 2**(2*rounds + 3)
    _check_memory(2 * rounds + 3, f"a table of 2**{rounds} players")
    return n


def gen_hard(n: int) -> ComparisonMatrix:
    """Deterministic family where only the identity-like draw crowns player 1.

    Built by n doubling steps: every player spawns a new one seated to its
    right.  A spawned player beats everyone to its left except its spawner,
    and loses to everything on its right.  Player numbering follows final
    seating order, in which the player at 0-based seat q >= 1 was spawned
    by the one at seat q - (q & -q).
    """
    n = _check_n(n, table_extra=0)
    size = 1 << n
    arr = np.tri(size, k=-1)  # the right-seated player wins by default
    spawn = np.arange(1, size)
    spawner = spawn - (spawn & -spawn)
    arr[spawner, spawn] = 1.0
    arr[spawn, spawner] = 0.0
    return validate_matrix(arr)


def gen_unbalanced(n: int) -> ComparisonMatrix:
    """Hard core of 2^(n-1) players padded with weak spoilers.

    Added players lose to player 1, beat the rest of the core, and among
    themselves the higher index wins.  Player 1 then wins many draws but
    every one of them leans on fragile matches.
    """
    n = _check_n(n, table_extra=0)
    if n < 2:
        raise ParameterError("gen_unbalanced needs n >= 2")
    half = 1 << (n - 1)
    arr = np.zeros((2 * half, 2 * half))
    arr[:half, :half] = gen_hard(n - 1).probs
    arr[0, half:] = 1.0
    arr[half:, 1:half] = 1.0
    arr[half:, half:] = np.tri(half, k=-1)  # the higher index wins
    return validate_matrix(arr)


@dataclass(frozen=True)
class BigSmallInstance:
    n: int
    p: float
    matrix: ComparisonMatrix
    big: tuple[int, ...]
    small: tuple[int, ...]


def gen_bigsmall(n: int, p: float) -> BigSmallInstance:
    """The upper half of the players beats the lower half with probability p.

    Matches inside either half are even coin flips; p must sit strictly
    between 0.5 and 1.
    """
    n = _check_n(n, table_extra=0)
    if not 0.5 < _check_number(p, "p") < 1.0:
        raise RangeError(f"p must lie strictly between 0.5 and 1, got {p}")
    size = 1 << n
    half = size // 2
    arr = np.full((size, size), 0.5)
    arr[half:, :half] = p
    arr[:half, half:] = 1.0 - p
    np.fill_diagonal(arr, 0.0)
    return BigSmallInstance(
        n=n,
        p=p,
        matrix=validate_matrix(arr),
        big=tuple(range(half + 1, size + 1)),
        small=tuple(range(1, half + 1)),
    )


def gen_threetier(n: int, eps: float) -> ComparisonMatrix:
    """Favourite plus small, medium and big tiers over 2^(n+1) players.

    Player 1 crushes the small tier (players 2..2^n), is a slight underdog
    against every medium player (2^n+1..2^n+2^(n-1)) and a slight
    favourite against every big player (the rest).  Small players lose all
    cross-tier matches; medium beats big with probability 1/2 - eps/2.
    """
    n = _check_n(n, table_extra=1)
    if n < 2:
        raise ParameterError("gen_threetier needs n >= 2")
    if not 0.0 < _check_number(eps, "eps") < 0.5:
        raise RangeError(f"eps must lie strictly between 0 and 0.5, got {eps}")
    size = 1 << (n + 1)
    half = size // 2
    small = slice(1, half)
    medium = slice(half, half + half // 2)
    big = slice(half + half // 2, size)
    arr = np.full((size, size), 0.5)
    arr[0, small] = 1.0
    arr[small, 0] = 0.0
    arr[0, medium] = 0.4
    arr[medium, 0] = 0.6
    arr[0, big] = 0.6
    arr[big, 0] = 0.4
    arr[small, medium] = 0.0
    arr[medium, small] = 1.0
    arr[small, big] = 0.0
    arr[big, small] = 1.0
    arr[medium, big] = 0.5 - eps / 2.0
    arr[big, medium] = 0.5 + eps / 2.0
    np.fill_diagonal(arr, 0.0)
    return validate_matrix(arr)


def uniform_perturbation(m: ComparisonMatrix, eps: float) -> ComparisonMatrix:
    """Pull every off-diagonal entry eps away from its nearest boundary.

    0 becomes eps, 1 becomes 1 - eps, interior values stay put.  Useful for
    smoothing a deterministic instance before sensitivity analysis.
    """
    if not 0.0 < _check_number(eps, "eps") < 0.5:
        raise RangeError(f"eps must lie strictly between 0 and 0.5, got {eps}")
    arr = m.probs.copy()  # validate_matrix resets the diagonal this moves
    arr[arr == 0.0] = eps
    arr[arr == 1.0] = 1.0 - eps
    return validate_matrix(arr)


def hard_path_probability(k: int, eps: float) -> float:
    """Winning probability of player 1 in the smoothed k-round hard family.

    Exact recursion over rounds: the favourite's survival chance composes
    with itself once per round.
    """
    k = _check_n(k)
    if not 0.0 <= _check_number(eps, "eps") < 0.5:
        raise RangeError(f"eps must lie in [0, 0.5), got {eps}")
    p = 1.0 - eps
    for _ in range(k - 1):
        p = p * (p * (1.0 - eps) + (1.0 - p) * eps)
    return p


def bigsmall_even_probability(k: int, eps: float) -> float:
    """Chance a big player wins a k-round mixed big-vs-small tournament.

    Exact recursion e_{k+1} = e_k + 2 e_k (1 - e_k) eps starting from
    e_1 = 1/2 + eps, where eps = p - 1/2.
    """
    k = _check_n(k)
    if not 0.0 <= _check_number(eps, "eps") < 0.5:
        raise RangeError(f"eps must lie in [0, 0.5), got {eps}")
    e = 0.5 + eps
    for _ in range(k - 1):
        e = e + 2.0 * e * (1.0 - e) * eps
    return e


def compose_big_win(left: float, right: float, p: float) -> float:
    """Chance some strong player emerges from a merge of two subtrees.

    left and right are the chances a strong player wins each half; the
    final is won by the strong side with probability p when exactly one
    half sends a strong player, so the merge is
    p*(left + right) + (1 - 2p)*left*right.
    """
    for name, v in (("left", left), ("right", right), ("p", p)):
        if not 0.0 <= _check_number(v, name) <= 1.0:
            raise RangeError(f"{name} must lie in [0, 1], got {v}")
    return p * (left + right) + (1.0 - 2.0 * p) * left * right
