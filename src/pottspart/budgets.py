"""Enumeration budgets: hard caps that guard runtime and memory.

A run takes one :class:`Budgets` value and hands each field to the
enumeration it caps.  Exceeding a cap raises :class:`BudgetError` rather
than degrading the result.  The module constants are the defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import PreconditionError

__all__ = [
    "Budgets",
    "STATE_BUDGET",
    "GROUND_STATE_CAP",
    "POLYMER_COUNT_BUDGET",
    "CLUSTER_BUDGET",
]

STATE_BUDGET = 10**8  # colourings the exact oracle may enumerate
GROUND_STATE_CAP = 10**6  # ground states a pipeline may sum
POLYMER_COUNT_BUDGET = 200_000  # polymers one enumeration may emit
CLUSTER_BUDGET = 5_000_000  # clusters one expansion may build


@dataclass(frozen=True)
class Budgets:
    """The caps of one run, passed explicitly down the pipeline."""

    states: int = STATE_BUDGET
    ground_states: int = GROUND_STATE_CAP
    polymers: int = POLYMER_COUNT_BUDGET
    clusters: int = CLUSTER_BUDGET

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not isinstance(value, int) or value < 1:
                raise PreconditionError(
                    f"the {field.name} budget must be an integer >= 1, got {value!r}"
                )
