"""Small numeric helpers shared across modules."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import PreconditionError


def log_sum_exp(values: Iterable[float]) -> float:
    """log(sum(exp(v) for v in values)), stable under large magnitudes.

    Values are consumed in the order given; the reduction is deterministic.
    Returns -inf for an empty sequence.
    """
    vals = list(values)
    if not vals:
        return float("-inf")
    m = max(vals)
    if math.isinf(m):
        return m
    return m + math.log(math.fsum(math.exp(v - m) for v in vals))


def log_count_sum(counts: Sequence[int], beta: float) -> float:
    """log(sum over x of counts[x] * exp(beta * x)), skipping zero counts.

    The log of a weighted histogram; -inf when every count is zero.
    """
    return log_sum_exp([math.log(c) + beta * x for x, c in enumerate(counts) if c])


class OnlineLogSumExp:
    """Streaming log-sum-exp accumulator with O(1) memory.

    Deterministic for a fixed insertion order.
    """

    def __init__(self) -> None:
        self._max = float("-inf")
        self._sum = 0.0  # sum of exp(v - self._max) over added values

    def add(self, value: float) -> None:
        if value <= self._max:
            self._sum += math.exp(value - self._max)
        else:
            if math.isinf(self._max):
                self._sum = 1.0
            else:
                self._sum = self._sum * math.exp(self._max - value) + 1.0
            self._max = value

    def result(self) -> float:
        if math.isinf(self._max):
            return float("-inf")
        return self._max + math.log(self._sum)


def as_fraction(x: int | float | Fraction, name: str) -> Fraction:
    """Lift the argument ``name`` to an exact Fraction (floats convert exactly).

    A nan or infinite float has no rational value and is refused.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if math.isnan(x) or math.isinf(x):
            raise PreconditionError(f"{name} must be finite, got {x!r}")
        return Fraction(x)
    raise TypeError(f"unsupported numeric type: {type(x).__name__}")
