"""Comparison matrices: validated pairwise win probabilities."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ComplementarityError, DimensionError, RangeError, _check_integer, _check_number

# Tolerance for P[i,j] + P[j,i] = 1.  Entries themselves are checked against
# [0, 1] exactly.
COMPLEMENT_ATOL = 1e-9
# Side of the square tiles the complement check walks: a tile and its mirror
# (2 x 128 KB) stay in cache, where the whole-table gap at 1024 players
# streams four 8 MB temporaries.  128 was fastest at 256-1024 players.
_TILE = 128


def _is_power_of_two(k: int) -> bool:
    return k >= 2 and (k & (k - 1)) == 0


@dataclass(frozen=True, eq=False)
class ComparisonMatrix:
    """N x N pairwise win probabilities for N = 2**n players.

    probs[i-1, j-1] holds the probability that player i beats player j.
    Diagonal entries are meaningless; they are stored as 0.0 and never read.
    Instances are created through validate_matrix and treated as immutable.
    """

    probs: np.ndarray
    n: int
    deterministic: bool
    xi: float

    @property
    def size(self) -> int:
        """Number of players N = 2**n."""
        return self.probs.shape[0]

    def _pair(self, i: int, j: int) -> tuple[int, int]:
        """(i, j) as ints, once checked to be two distinct players."""
        i, j = _check_player(self, i), _check_player(self, j)
        if i == j:
            raise ValueError("probability is undefined for i == j")
        return i, j

    def probability(self, i: int, j: int) -> float:
        """Probability that player i beats player j (1-based, i != j)."""
        i, j = self._pair(i, j)
        return float(self.probs[i - 1, j - 1])

    def with_entry(self, i: int, j: int, p: float) -> "ComparisonMatrix":
        """New matrix with P[i,j] = p and P[j,i] = 1 - p (1-based, i != j)."""
        i, j = self._pair(i, j)
        if not 0.0 <= _check_number(p, "p") <= 1.0:
            raise RangeError(f"entry {p!r} outside [0, 1]")
        out = self.probs.copy()
        out[i - 1, j - 1] = p
        out[j - 1, i - 1] = 1.0 - p
        return validate_matrix(out)

    def to_json_dict(self) -> dict:
        """Serializable form {"n": ..., "matrix": [...]} with a null diagonal."""
        rows = self.probs.tolist()
        for i, row in enumerate(rows):
            row[i] = None
        return {"n": self.n, "matrix": rows}


def _check_player(m: ComparisonMatrix, player) -> int:
    """player as an int, once checked to be one of m's players 1..N."""
    return _check_integer(player, 1, m.size, f"player must be an integer in 1..{m.size}")


def _to_float(v) -> float:
    # non-numbers become NaN here; validate_matrix rejects NaN off-diagonal.
    # An integer past the float range becomes an infinity, as 1e400 does.
    try:
        return float(v)
    except OverflowError:
        return np.inf if v > 0 else -np.inf
    except (TypeError, ValueError):
        return np.nan


def _coerce_cells(raw) -> np.ndarray:
    try:
        return np.array([[_to_float(v) for v in row] for row in raw], dtype=float)
    except (TypeError, ValueError):
        raise DimensionError("matrix must be a rectangular table of numbers") from None


def _coerce(raw) -> np.ndarray:
    if isinstance(raw, np.ndarray) and raw.dtype.kind in "biuf":  # bool, int, uint, float
        arr = raw.astype(float, copy=True)
    else:
        # Other arrays are read as their lists.  One call converts a
        # well-formed table (None becomes NaN, as in _to_float); anything
        # else takes the per-cell path for its error.
        raw = raw.tolist() if isinstance(raw, np.ndarray) else raw
        try:
            arr = np.array(raw, dtype=float)
        except (TypeError, ValueError, OverflowError):
            arr = None
        if arr is None or arr.ndim != 2:
            arr = _coerce_cells(raw)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"matrix must be square, got shape {arr.shape}")
    if not _is_power_of_two(arr.shape[0]):
        raise DimensionError(f"side {arr.shape[0]} is not a power of two >= 2")
    return arr


def _complementary(arr: np.ndarray) -> bool:
    """Whether every |arr[i,j] + arr[j,i] - 1| is within COMPLEMENT_ATOL.

    The sum is the same either way round, so the tiles on and above the
    diagonal, each against its mirror tile, cover every pair.
    """
    size = arr.shape[0]
    for lo in range(0, size, _TILE):
        for hi in range(lo, size, _TILE):
            gap = np.abs(arr[lo:lo + _TILE, hi:hi + _TILE]
                         + arr[hi:hi + _TILE, lo:lo + _TILE].T - 1.0)
            if (gap > COMPLEMENT_ATOL).any():
                return False
    return True


def validate_matrix(raw) -> ComparisonMatrix:
    """Validate a square probability table and wrap it.

    Accepts any nested sequence or array.  Diagonal entries may be None, NaN
    or arbitrary numbers; they are ignored.  Raises DimensionError on bad
    shape, RangeError for entries outside [0, 1] and ComplementarityError
    when some P[i,j] + P[j,i] differs from 1 by more than 1e-9.
    """
    if isinstance(raw, ComparisonMatrix):
        return raw
    arr = _coerce(raw)  # a fresh array, so its diagonal is ours to overwrite
    # the diagonal is never read: 0.5 passes the NaN, range and complement
    # checks, and 0.0 is deterministic and not positive, so no mask is needed
    np.fill_diagonal(arr, 0.5)
    if np.isnan(arr).any():
        raise RangeError("off-diagonal entries must be numbers")
    if (arr < 0.0).any() or (arr > 1.0).any():
        bad = float(arr[(arr < 0.0) | (arr > 1.0)][0])
        raise RangeError(f"entry {bad!r} outside [0, 1]")
    if not _complementary(arr):
        # the whole gap only to name the pair, as the first of its largest
        gap = np.abs(arr + arr.T - 1.0)
        i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
        raise ComplementarityError(
            f"P[{i + 1},{j + 1}] + P[{j + 1},{i + 1}] = {float(arr[i, j] + arr[j, i])!r} != 1"
        )
    np.fill_diagonal(arr, 0.0)
    arr.setflags(write=False)
    deterministic = bool(np.all((arr == 0.0) | (arr == 1.0)))
    xi = float(arr[arr > 0.0].min())
    return ComparisonMatrix(
        probs=arr,
        n=arr.shape[0].bit_length() - 1,
        deterministic=deterministic,
        xi=xi,
    )


def matrix_from_json_dict(obj) -> ComparisonMatrix:
    """Build a matrix from the {"n": ..., "matrix": [...]} file format."""
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise DimensionError('matrix file must be an object with a "matrix" key')
    m = validate_matrix(obj["matrix"])
    declared = obj.get("n")
    if declared is None:
        return m
    # an integer, as draw leaves are: true and 1.0 are not 1
    if isinstance(declared, bool) or not isinstance(declared, numbers.Integral):
        raise DimensionError(f"declared n must be an integer, got {declared!r}")
    if declared != m.n:
        raise DimensionError(f"declared n={declared} but matrix side is {m.size}")
    return m
