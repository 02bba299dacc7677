"""Draws: leaf labellings of the balanced bracket, up to tree isomorphism.

Two labellings that differ only by swapping children of internal nodes play
the same tournament.  The canonical representative of a class puts, at every
internal node, the child subtree holding the smaller minimum label first.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .errors import ParameterError, PermutationError, ScaleError

# Full enumeration beyond 8 players is an explicit opt-in: 16 players already
# have 638 512 875 equivalence classes.
ENUMERATION_LIMIT = 8

_INT128_MAX = 2**127 - 1


@dataclass(frozen=True, order=True)
class Draw:
    """Left-to-right leaf labels of a balanced knockout bracket."""

    leaves: tuple[int, ...]

    def __post_init__(self):
        seq = tuple(int(x) for x in self.leaves)
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
    if not isinstance(obj, dict) or "leaves" not in obj:
        raise PermutationError('draw file must be an object with a "leaves" key')
    return Draw(tuple(obj["leaves"]))


def count_draws(n: int) -> int:
    """Number of draw classes for 2**n players: (2**n)! / 2**(2**n - 1)."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    N = 1 << n
    result = math.factorial(N) >> (N - 1)  # exactly divisible for N = 2**n
    if result > _INT128_MAX:
        raise OverflowError(f"count for n={n} does not fit in a 128-bit integer")
    return result


def enumerate_draws(n: int, *, allow_large: bool = False) -> Iterator[Draw]:
    """Yield every canonical draw in lexicographic order."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    N = 1 << n
    if N > ENUMERATION_LIMIT and not allow_large:
        raise ScaleError(
            f"enumeration of {N} players needs allow_large=True "
            f"(limit is {ENUMERATION_LIMIT})"
        )
    return (Draw(seq) for seq in _canonical_sequences(tuple(range(1, N + 1))))


def _pair_stream(left: tuple[int, ...], right: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    # The lex-first canonical sequence over a label set is its sorted order,
    # so the head of every stream is free.  The recursive product behind it
    # is built only when the merge advances this stream past its head.
    yield tuple(sorted(left)) + tuple(sorted(right))
    rest = (a + b for a in _canonical_sequences(left) for b in _canonical_sequences(right))
    next(rest)
    yield from rest


def _pop(heap: list) -> tuple[int, ...]:
    seq, k, stream = heap[0]
    nxt = next(stream, None)
    if nxt is None:
        heapq.heappop(heap)
    else:
        heapq.heapreplace(heap, (nxt, k, stream))
    return seq


def _canonical_sequences(players: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All canonical leaf sequences over this label set, lexicographically.

    The half containing the minimum label comes first, so the choice of the
    rest of that half determines the class exactly once.  Each per-choice
    stream is itself sorted and starts at its head, and the heads rise in
    combination order.  So a stream joins the heap merge only once every
    pending sequence below its head has been yielded: the first sequence
    comes out without building all C(N-1, N/2-1) streams.
    """
    if len(players) == 1:
        yield players
        return
    half = len(players) // 2
    lead, *rest = sorted(players)
    heap = []  # (next sequence, stream number, stream)
    for k, extra in enumerate(itertools.combinations(rest, half - 1)):
        chosen = set(extra)
        stream = _pair_stream((lead, *extra), tuple(x for x in rest if x not in chosen))
        head = next(stream)
        while heap and heap[0][0] < head:
            yield _pop(heap)
        heapq.heappush(heap, (head, k, stream))
    while heap:
        yield _pop(heap)
