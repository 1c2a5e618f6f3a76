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
