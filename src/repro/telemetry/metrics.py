"""Lightweight process-local runtime metrics: counters, timers, gauges.

Collection is *off by default and free when off*.  Every instrumentation
site in the engines follows the same two-step pattern:

.. code-block:: python

    m = current_metrics()          # one module-global read, None when off
    ...
    if m is not None:              # a local None check inside the hot loop
        m.count("engine.rounds", live)

so a disabled run pays one function call per *engine invocation* (not per
round or per tick) plus a handful of local ``is not None`` checks — the
telemetry-off overhead gate in ``benchmarks/bench_batch.py`` pins this at
under 2% of the batched engine's wall time.

A :class:`MetricsRegistry` is plain process-local state.  Pool workers
run their chunks under a private registry and ship the
:meth:`~MetricsRegistry.snapshot` dict back through the existing
shared-memory chunk-return path (see
:mod:`repro.analysis.parallel`); the parent folds worker snapshots into
its own registry with :meth:`~MetricsRegistry.merge`, so worker-merged
totals equal what one process would have counted.

Metric name conventions used by the built-in instrumentation:

========================================  =====================================
``engine.rounds``                         synchronous round-trials executed
``engine.clock_ticks``                    asynchronous ticks executed
``engine.messages_attempted``             contacts attempted (sync: one per up
                                          caller per live trial-round, n
                                          without churn; async: one per tick)
``engine.messages_delivered``             contacts that informed a new vertex
``engine.messages_lost``                  attempted contacts suppressed by loss
                                          scenarios (up callers only; counted
                                          by batched synchronous rounds only)
``engine.kernel_invocations``             batched kernel entries
``engine.drain_returns``                  refills of the asynchronous
                                          bodies (global view, clock-view
                                          table, pooled chunks), one per
                                          refill whatever the backend
``analysis.trials``                       Monte Carlo trials completed
``analysis.batch_seconds`` (timer)        wall time inside the batched path
``analysis.serial_seconds`` (timer)       wall time inside the serial path
``parallel.chunks``                       pool chunks dispatched
``parallel.chunk_seconds`` (timer)        per-chunk worker wall time
``parallel.chunk_retries``                chunk resubmissions after a worker
                                          crash, raise, or timeout
``parallel.chunk_timeouts``               chunks whose worker exceeded
                                          ``REPRO_CHUNK_TIMEOUT``
``parallel.serial_fallbacks``             chunks run serially in the parent
                                          after retries were exhausted
``scenario.adversary_budget_spent``       adaptive-adversary budget units
                                          consumed (crashes + jammed contacts)
``shm.segments``                          shared-memory segments created
``shm.segment_bytes``                     bytes placed in shared segments
``engine.backend`` (gauge)                kernel backend that actually ran
========================================  =====================================
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = [
    "MetricsRegistry",
    "current_metrics",
    "enable_metrics",
    "disable_metrics",
    "collecting_metrics",
]


def _plain(value: object) -> object:
    """Coerce numpy scalars to plain Python numbers (JSON-safe snapshots)."""
    return value.item() if hasattr(value, "item") else value


class MetricsRegistry:
    """Process-local counters / timers / gauges with snapshot + merge.

    Counters accumulate numbers, timers accumulate ``(total_seconds,
    count)`` pairs, gauges keep the last value written.  The registry is
    deliberately lock-free: each process owns exactly one active registry
    and cross-process aggregation happens through :meth:`snapshot` /
    :meth:`merge` at chunk boundaries, never concurrently.
    """

    __slots__ = ("counters", "timers", "gauges")

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.timers: dict[str, list] = {}
        self.gauges: dict[str, object] = {}

    # -- recording ------------------------------------------------------ #
    def count(self, name: str, amount: object = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + _plain(amount)

    def gauge(self, name: str, value: object) -> None:
        self.gauges[name] = _plain(value)

    def add_time(self, name: str, seconds: float, *, count: int = 1) -> None:
        entry = self.timers.setdefault(name, [0.0, 0])
        entry[0] += float(seconds)
        entry[1] += int(count)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - start)

    # -- aggregation ---------------------------------------------------- #
    def snapshot(self) -> dict:
        """A picklable/JSON-safe dict of everything recorded so far."""
        return {
            "counters": dict(self.counters),
            "timers": {
                name: {"seconds": entry[0], "count": entry[1]}
                for name, entry in self.timers.items()
            },
            "gauges": dict(self.gauges),
        }

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and timers add; gauges take the incoming value (last
        writer wins, matching single-process semantics where the merged
        chunk ran last).
        """
        for name, amount in snapshot.get("counters", {}).items():
            self.count(name, amount)
        for name, entry in snapshot.get("timers", {}).items():
            self.add_time(name, entry["seconds"], count=entry["count"])
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name, value)

    def reset(self) -> None:
        self.counters.clear()
        self.timers.clear()
        self.gauges.clear()


#: The process's active registry; ``None`` means collection is off and
#: every instrumentation site short-circuits.
_ACTIVE: Optional[MetricsRegistry] = None


def current_metrics() -> Optional[MetricsRegistry]:
    """The active registry, or ``None`` when metrics collection is off."""
    return _ACTIVE


def enable_metrics(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Turn collection on (idempotent); returns the active registry."""
    global _ACTIVE
    if registry is not None:
        _ACTIVE = registry
    elif _ACTIVE is None:
        _ACTIVE = MetricsRegistry()
    return _ACTIVE


def disable_metrics() -> Optional[MetricsRegistry]:
    """Turn collection off; returns the registry that was active (if any)."""
    global _ACTIVE
    registry, _ACTIVE = _ACTIVE, None
    return registry


@contextmanager
def collecting_metrics(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Scoped collection: activate a registry, restore the prior state after.

    >>> with collecting_metrics() as m:
    ...     run_trials(...)
    >>> m.snapshot()["counters"]["analysis.trials"]
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry if registry is not None else MetricsRegistry()
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous
