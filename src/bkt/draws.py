"""Draws: leaf labellings of the balanced bracket, up to tree isomorphism.

Two labellings that differ only by swapping children of internal nodes play
the same tournament.  The canonical representative of a class puts, at every
internal node, the child subtree holding the smaller minimum label first.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .errors import PermutationError, ScaleError, _check_memory, _check_rounds

# Full enumeration beyond 8 players is an explicit opt-in: 16 players already
# have 638 512 875 equivalence classes.
ENUMERATION_LIMIT = 8


@dataclass(frozen=True, order=True)
class Draw:
    """Left-to-right leaf labels of a balanced knockout bracket."""

    leaves: tuple[int, ...]

    def __post_init__(self):
        # integers only (numpy's too): int() would round 2.5, parse "3" and
        # take True for 1
        try:
            leaves = tuple(self.leaves)
            if bool in map(type, leaves):
                raise TypeError
            seq = tuple(map(operator.index, leaves))
        except TypeError:
            raise PermutationError(f"leaves must be integers, got {self.leaves!r}") from None
        n = len(seq)
        if n < 2 or n & (n - 1):
            raise PermutationError(f"need a power-of-two number of leaves >= 2, got {n}")
        if sorted(seq) != list(range(1, n + 1)):
            raise PermutationError(f"leaves {seq} are not a permutation of 1..{n}")
        object.__setattr__(self, "leaves", seq)

    @property
    def size(self) -> int:
        return len(self.leaves)

    @property
    def rounds(self) -> int:
        return self.size.bit_length() - 1

    @property
    def is_canonical(self) -> bool:
        return self.leaves == _canon(self.leaves)

    def canonical(self) -> "Draw":
        return Draw(_canon(self.leaves))

    def equivalent_to(self, other: "Draw | Iterable[int]") -> bool:
        """True when both draws play the same tournament."""
        if not isinstance(other, Draw):
            other = Draw(tuple(other))
        return _canon(self.leaves) == _canon(other.leaves)

    def to_json_dict(self) -> dict:
        return {"leaves": list(self.leaves)}


def _canon(seq: tuple[int, ...]) -> tuple[int, ...]:
    if len(seq) == 1:
        return seq
    h = len(seq) // 2
    left = _canon(seq[:h])
    right = _canon(seq[h:])
    # canonical subsequences start with their minimum label
    return left + right if left[0] < right[0] else right + left


def _canon_rows(rows):
    """Canonicalize a C-contiguous (B, N) int array of leaf rows in place.

    Bottom-up: once every block of size h is canonical it starts with its
    minimum, so each block of size 2h needs only its first labels compared.
    """
    B, N = rows.shape
    h = 1
    while h < N:
        v = rows.reshape(B, N // (2 * h), 2, h)
        swap = v[:, :, 0, 0] > v[:, :, 1, 0]
        v[swap] = v[swap][:, ::-1]
        h *= 2
    return rows


def canonicalize(d: Draw | Iterable[int]) -> Draw:
    """Canonical representative of the draw's isomorphism class."""
    if not isinstance(d, Draw):
        d = Draw(tuple(d))
    return Draw(_canon(d.leaves))


def draw_from_json_dict(obj) -> Draw:
    """Build a draw from the {"leaves": [...]} file format."""
    if not isinstance(obj, dict) or not isinstance(obj.get("leaves"), list):
        raise PermutationError('draw file must be an object with a "leaves" list')
    return Draw(tuple(obj["leaves"]))


def count_draws(n: int) -> int:
    """Number of draw classes for 2**n players: (2**n)! / 2**(2**n - 1)."""
    n = _check_rounds(n)
    # the counts rise with n and first pass 2**127 - 1 at n = 6, so refuse
    # those before any factorial is taken
    if n >= 6:
        raise OverflowError(f"count for n={n} does not fit in a 128-bit integer")
    N = 1 << n
    return math.factorial(N) >> (N - 1)  # exactly divisible for N = 2**n


def enumerate_draws(n: int, *, allow_large: bool = False) -> Iterator[Draw]:
    """Yield every canonical draw in lexicographic order.

    Even the first draw holds about N**2 / 4 bytes, in the N-bit label sets
    of the 2N or so generators it suspends.  So, allow_large or not, a size
    whose N**2 / 2 bytes exceed physical memory is refused up front.
    """
    n = _check_rounds(n)
    _check_memory(2 * n - 1, f"listing draws of 2**{n} players")
    N = 1 << n
    if N > ENUMERATION_LIMIT and not allow_large:
        raise ScaleError(
            f"enumeration of {N} players needs allow_large=True "
            f"(limit is {ENUMERATION_LIMIT})"
        )
    return (Draw(seq) for seq in _canonical_sequences(tuple(range(1, N + 1))))


def _canonical_sequences(players: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All canonical leaf sequences over a set of distinct nonnegative
    labels, lexicographically, and lazily: the first comes at once."""
    first, *rest = sorted(players)
    # set byte by byte, as a sum of 1 << p takes time quadratic in N
    pool = bytearray(rest[-1] // 8 + 1 if rest else 0)
    for p in rest:
        pool[p >> 3] |= 1 << (p & 7)
    return _sequences(first, int.from_bytes(pool, "little"), len(players))


def _sequences(first: int, pool: int, k: int) -> Iterator[tuple[int, ...]]:
    """Canonical sequences of k labels that start with first and take their
    other k - 1 labels from pool, a bit set of labels above first, in
    lexicographic order.

    The first half is one of these sequences of k // 2 labels.  The second
    half starts with its own minimum m, a label the first half left in the
    pool, and takes its other labels from those above m; m rises while
    enough labels remain above it.  First halves and then the m rise, so
    the sequences do too.
    """
    if k == 1:
        yield (first,)
        return
    h = k // 2
    for left in _sequences(first, pool, h):
        rest = pool
        for p in left[1:]:
            rest ^= 1 << p
        count = rest.bit_count()
        while count >= h:
            low = rest & -rest
            rest ^= low
            count -= 1
            for right in _sequences(low.bit_length() - 1, rest, h):
                yield left + right
