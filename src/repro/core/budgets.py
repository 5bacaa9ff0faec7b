"""The one parser of the budgets every engine takes.

``max_rounds`` and ``max_steps`` count rounds or clock ticks; ``max_time``
is a simulated-time horizon.  The serial engines and
:func:`~repro.core.batch_engine.run_batch` all parse them here, so a
malformed budget fails the same way, with a :class:`ProtocolError` naming
the option, on every path.
"""

from __future__ import annotations

import math
import numbers
from typing import Optional

from repro.errors import ProtocolError

__all__ = ["parse_count_budget", "parse_time_budget"]


def parse_count_budget(name: str, value: Optional[float], default: int) -> int:
    """A round or step budget: ``default`` for ``None``, else a finite,
    non-negative count (a fractional value truncates toward zero)."""
    if value is None:
        return default
    if not isinstance(value, numbers.Integral) and not math.isfinite(value):
        raise ProtocolError(f"{name} must be finite, got {value}")
    if value < 0:
        raise ProtocolError(f"{name} must be non-negative, got {value}")
    return int(value)


def parse_time_budget(value: Optional[float]) -> float:
    """The ``max_time`` budget: ``inf`` (unbounded) for ``None``, else a
    non-negative number, ``inf`` included."""
    budget = math.inf if value is None else float(value)
    if math.isnan(budget):
        raise ProtocolError(f"max_time must be a number, got {value}")
    if budget < 0:
        raise ProtocolError(f"max_time must be non-negative, got {value}")
    return budget
