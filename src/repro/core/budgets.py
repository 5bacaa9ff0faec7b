"""The one parser of the budgets every engine takes, and of the source.

``max_rounds`` and ``max_steps`` count rounds or clock ticks; ``max_time``
is a simulated-time horizon.  The serial engines and
:func:`~repro.core.batch_engine.run_batch` all parse them here, so a
malformed budget fails the same way, with a :class:`ProtocolError` naming
the option, on every path.  The serial engines and the couplings also check
their source vertex here (:func:`check_source`); ``run_batch`` checks its
source array vectorised.
"""

from __future__ import annotations

import math
import numbers
from typing import Optional

from repro.errors import ProtocolError
from repro.graphs.base import Graph

__all__ = ["check_source", "parse_count_budget", "parse_time_budget"]


def check_source(graph: Graph, source: object) -> int:
    """The source vertex of a run on ``graph``, as a Python ``int``.

    Raises :class:`ProtocolError` for a bool or non-integral source, for one
    that is not a vertex of ``graph``, and for a disconnected graph, from
    which the rumor could never reach every vertex.
    """
    if isinstance(source, bool) or not isinstance(source, numbers.Integral):
        raise ProtocolError(f"source must be an integer vertex id, got {source!r}")
    vertex = int(source)
    if not 0 <= vertex < graph.num_vertices:
        raise ProtocolError(
            f"source {vertex} is not a vertex of {graph.name} (n={graph.num_vertices})"
        )
    if graph.num_vertices > 1 and not graph.is_connected():
        raise ProtocolError(
            f"{graph.name} is not connected; the rumor can never reach every vertex"
        )
    return vertex


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
