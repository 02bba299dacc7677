"""Exception types shared across the package, the integer rule that round
counts, players, seeds and restart counts share, the real-number rule of
every real-valued parameter, and the physical-memory rule of scale checks."""

import math
import numbers
import operator
import os


class BktError(Exception):
    """Base class for all library errors."""


class DimensionError(BktError):
    """Matrix is not square with a power-of-two side of at least 2."""


class DimensionMismatch(BktError):
    """Matrix and draw disagree on the number of players."""


class ComplementarityError(BktError):
    """Some pair violates P[i,j] + P[j,i] = 1."""


class RangeError(BktError):
    """A numeric value is outside its allowed interval."""


class PermutationError(BktError):
    """Draw leaves are not a permutation of 1..N."""


class ScaleError(BktError):
    """Instance is too large: for an exhaustive operation (override to force),
    or for its table to fit in physical memory."""


class NotDeterministic(BktError):
    """Operation requires a deterministic (all 0/1) comparison matrix."""


class NotWinner(BktError):
    """The distinguished player does not win the given tournament."""


class NonpositiveEpsilon(BktError):
    """Perturbation radius must be strictly positive."""


class EpsilonTooLarge(BktError):
    """Perturbation radius exceeds the smallest nonzero matrix entry."""


class ParameterError(BktError):
    """Invalid or inconsistent generator/solver parameters."""


class NoWinningDraw(BktError):
    """No draw wins outright for the distinguished player."""


def _check_integer(x, lo: int, hi: float, message: str) -> int:
    """x as an int, once checked to be an integer in lo..hi: numpy's
    integers count, a bool does not.  Else ParameterError, message then x."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral) or not lo <= x <= hi:
        raise ParameterError(f"{message}, got {x!r}")
    return operator.index(x)


def _check_real(x, lo: float, hi: float, message: str) -> float:
    """x as a float, once checked to be a real number in lo..hi: numpy's
    numbers count, a bool does not, and NaN is in no range.  Else
    ParameterError with message."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or not lo <= x <= hi:
        raise ParameterError(message)
    return float(x)


def _check_number(x, name: str):
    """x, once checked to be a real number by _check_real's rule; its range
    is the caller's to check, with the caller's error kinds."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ParameterError(f"{name} must be a real number, got {x!r}")
    return x


def _check_rounds(n) -> int:
    """n as an int, once checked to be a positive round count."""
    return _check_integer(n, 1, math.inf, "round count must be a positive integer")


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the system does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


# Where physical memory is unknown, sizes are held to the most bytes an
# array can span, 2**63 - 1, as no host can address more.
_ADDRESSABLE = (1 << 63) - 1


def _check_memory(log2_bytes: int, what: str, memory: int | None) -> None:
    """ScaleError if 2**log2_bytes bytes exceed memory (None: unknown),
    compared by exponent so that an absurd size builds no huge integer."""
    if log2_bytes >= (_ADDRESSABLE if memory is None else memory).bit_length():
        where = ("any host can address" if memory is None
                 else f"the {memory} bytes of physical memory")
        raise ScaleError(f"{what} needs 2**{log2_bytes} bytes, more than {where}")
