"""The one parser of the budgets every engine takes, and of the source.

``max_rounds`` and ``max_steps`` count rounds or clock ticks; ``max_time``
is a simulated-time horizon.  The serial engines and
:func:`~repro.core.batch_engine.run_batch` all parse them, and
``on_budget_exhausted``, here, so a malformed budget fails the same way,
with a :class:`ProtocolError` naming the option, on every path.  The serial
engines and the couplings also check their source vertex here
(:func:`check_source`); ``run_batch`` checks its source array vectorised.
Every path, :func:`~repro.analysis.parallel.run_trials_parallel`'s parent
included, refuses a disconnected graph through :func:`check_connected`.
Which scenarios the engines run at all is decided here too
(:func:`scenario_rejection`).
"""

from __future__ import annotations

import math
import numbers
from typing import TYPE_CHECKING, Optional

from repro.errors import ProtocolError, ScenarioError
from repro.graphs.base import Graph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios.base import Scenario

__all__ = [
    "check_budget_policy",
    "check_connected",
    "check_source",
    "parse_count_budget",
    "parse_time_budget",
    "scenario_rejection",
]


def check_connected(graph: Graph) -> None:
    """Raise :class:`ProtocolError` for a disconnected graph, from which the
    rumor could never reach every vertex."""
    if not graph.is_connected():
        raise ProtocolError(
            f"{graph.name} is not connected; the rumor can never reach every vertex"
        )


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
    check_connected(graph)
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


def check_budget_policy(on_budget_exhausted: str) -> None:
    """Raise :class:`ProtocolError` unless ``on_budget_exhausted`` is
    ``"error"`` or ``"partial"``."""
    if on_budget_exhausted not in ("error", "partial"):
        raise ProtocolError(
            f"on_budget_exhausted must be 'error' or 'partial', got {on_budget_exhausted!r}"
        )


def scenario_rejection(
    protocol: str,
    scenario: Optional["Scenario"],
    *,
    synchronous: bool,
    analysis_only: bool = False,
    view: str = "global",
) -> Optional[ScenarioError]:
    """Why no engine runs ``protocol`` under ``scenario``, or ``None``.

    The serial engines and :func:`~repro.core.protocols.check_options`
    (the check of ``spread``, ``run_batch`` and the Monte Carlo runners)
    raise it, and the scenario sweeps skip the cells it rejects.
    """
    if scenario is None:
        return None
    if analysis_only and scenario.runtime_active():
        return ScenarioError(
            f"protocol {protocol!r} is an analysis-only process; runtime "
            "scenarios (loss, churn, dynamic graphs, delay) do not apply"
        )
    if synchronous and scenario.delay is not None:
        return ScenarioError(
            "Delay skews asynchronous clock rates; synchronous rounds have no "
            "clocks to slow down — use an asynchronous protocol"
        )
    if view == "edge_clocks" and scenario.dynamic is not None:
        return ScenarioError(
            "dynamic-graph scenarios are not supported under the 'edge_clocks' "
            "view: resampling the graph would change the per-pair clock set "
            "itself; use the 'node_clocks' or 'global' view"
        )
    return None
