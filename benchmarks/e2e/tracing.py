"""Per-layer spans for the traced benchmark run, recorded from outside ``src/``.

A span is the wall time of one call into a layer.  Spans are recorded as
timers of the active :class:`~repro.telemetry.metrics.MetricsRegistry`
under ``span.<layer name>``, so the ones recorded in pool workers travel
back to the parent through the program's own per-chunk snapshot merge.
They stay in memory and are read once, when the run ends.

Two kinds of span exist:

* calls the benchmark makes itself (``run_trials``, ``run_trials_parallel``,
  ``high_probability_time``, ``ManifestWriter.event``, graph builders) go
  through :func:`span`;
* calls the program makes internally are seen by :func:`install`, which
  replaces the callee's name in the caller's module namespace with a
  timing wrapper.  It must run before the pool forks, so that workers
  inherit the wrappers.

With no registry active (the untraced run) :func:`span` costs one function
call and :func:`install` is never called.

The layers nest in a fixed way, so a layer's self time is its span total
minus the span totals of the layers it calls, as :func:`layer_metrics`
computes them.
"""

from __future__ import annotations

import functools
import time
from typing import Callable

from repro.telemetry.metrics import MetricsRegistry, current_metrics

PREFIX = "span."

#: (module path, attribute, span name) for every internal call site the
#: traced run wraps.  ``parallel.run_trials`` is the pool-worker entry into
#: the Monte Carlo driver; the benchmark's own in-process calls go through
#: ``montecarlo.run_trials`` and are recorded by :func:`span` instead.
WRAPPED = (
    ("repro.core.kernels.numpy_backend", "sync_round_step", "core.kernels.sync_round_step"),
    ("repro.core.kernels.numpy_backend", "async_tick_loop", "core.kernels.async_tick_loop"),
    ("repro.core.kernels.numpy_backend", "clock_chunk_consume", "core.kernels.clock_chunk_consume"),
    ("repro.analysis.montecarlo", "run_batch", "core.batch_engine.run_batch"),
    ("repro.analysis.montecarlo", "spawn_generators", "randomness.spawn_generators"),
    ("repro.analysis.parallel", "run_trials", "analysis.parallel.worker_run_trials"),
    ("repro.analysis.shm", "share_graph", "analysis.shm.share_graph"),
    ("repro.analysis.shm", "attach_graph", "analysis.shm.attach_graph"),
    ("repro.analysis.shm", "result_array", "analysis.shm.result_array"),
    ("repro.core.batch_engine", "flat_adjacency", "core.flatgraph.flat_adjacency"),
    ("repro.analysis.shm", "flat_adjacency", "core.flatgraph.flat_adjacency"),
)

KERNELS = ("sync_round_step", "async_tick_loop", "clock_chunk_consume")


def span(name: str, fn: Callable, *args, **kwargs):
    """Call ``fn`` and, when a registry is active, record the call as span ``name``."""
    registry = current_metrics()
    if registry is None:
        return fn(*args, **kwargs)
    start = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        registry.add_time(PREFIX + name, time.perf_counter() - start)


def _wrapped(name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return span(name, fn, *args, **kwargs)

    return wrapper


def install() -> None:
    """Wrap every call site in :data:`WRAPPED` for the rest of the process."""
    import importlib

    for module_path, attribute, name in WRAPPED:
        module = importlib.import_module(module_path)
        setattr(module, attribute, _wrapped(name, getattr(module, attribute)))


#: Per-layer metric names in report order (units are in BENCHMARK.json).
#: Times and counts of the timed phase are per pass: every pass repeats the
#: same cells, so they compare across runs of any length.  ``graphs.*`` and
#: ``flat_adjacency`` are set-up quantities.
LAYERS = (
    "graphs.build_s",
    "graphs.build_calls",
    "core.flatgraph.flat_adjacency_s",
    "core.kernels.sync_round_step_s",
    "core.kernels.async_tick_loop_s",
    "core.kernels.clock_chunk_consume_s",
    "core.kernels.calls",
    "core.kernels.ns_per_contact",
    "core.batch_engine.self_s",
    "core.batch_engine.calls",
    "randomness.spawn_generators_s",
    "analysis.montecarlo.self_s",
    "analysis.parallel.wait_s",
    "analysis.parallel.worker_busy_s",
    "analysis.parallel.overhead_frac",
    "parallel.chunks",
    "parallel.chunk_retries",
    "parallel.chunk_timeouts",
    "parallel.serial_fallbacks",
    "analysis.shm.share_graph_s",
    "analysis.shm.attach_graph_s",
    "analysis.shm.result_array_s",
    "shm.segment_bytes",
    "analysis.shm.reuse_ratio",
    "analysis.quantiles.high_probability_time_s",
    "telemetry.manifest.event_s",
    "engine.rounds",
    "engine.clock_ticks",
    "engine.messages_attempted",
    "engine.messages_delivered",
    "engine.messages_lost",
    "engine.delivery_ratio",
    "trace.unattributed_frac",
    "trace.overhead_frac",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(
    setup: MetricsRegistry,
    timed: MetricsRegistry,
    *,
    passes: int,
    timed_seconds: float,
    workers: int,
) -> dict[str, float]:
    """Reduce the set-up and timed-phase registries to the per-layer metrics.

    ``trace.overhead_frac`` needs the untraced run as well, so the caller
    fills it in.
    """

    def seconds(name: str, registry: MetricsRegistry = timed) -> float:
        return registry.timers.get(PREFIX + name, [0.0, 0])[0]

    def calls(name: str, registry: MetricsRegistry = timed) -> int:
        return registry.timers.get(PREFIX + name, [0.0, 0])[1]

    def counter(name: str) -> float:
        return timed.counters.get(name, 0)

    kernel_s = {kernel: seconds(f"core.kernels.{kernel}") for kernel in KERNELS}
    kernels = sum(kernel_s.values())
    run_batch = seconds("core.batch_engine.run_batch")
    spawn = seconds("randomness.spawn_generators")
    in_process = seconds("analysis.montecarlo.run_trials")
    in_worker = seconds("analysis.parallel.worker_run_trials")
    attach = seconds("analysis.shm.attach_graph")
    wait = seconds("analysis.parallel.run_trials_parallel")
    quantiles = seconds("analysis.quantiles.high_probability_time")
    manifest = seconds("telemetry.manifest.event")
    busy = in_worker + attach
    attempted = counter("engine.messages_attempted")
    top_level = in_process + wait + quantiles + manifest

    per_pass = {
        **{f"core.kernels.{kernel}_s": value for kernel, value in kernel_s.items()},
        "core.kernels.calls": sum(calls(f"core.kernels.{kernel}") for kernel in KERNELS),
        "core.batch_engine.self_s": run_batch - kernels,
        "core.batch_engine.calls": calls("core.batch_engine.run_batch"),
        "randomness.spawn_generators_s": spawn,
        "analysis.montecarlo.self_s": in_process + in_worker - run_batch - spawn,
        "analysis.parallel.wait_s": wait,
        "analysis.parallel.worker_busy_s": busy,
        "parallel.chunks": counter("parallel.chunks"),
        "parallel.chunk_retries": counter("parallel.chunk_retries"),
        "parallel.chunk_timeouts": counter("parallel.chunk_timeouts"),
        "parallel.serial_fallbacks": counter("parallel.serial_fallbacks"),
        "analysis.shm.share_graph_s": seconds("analysis.shm.share_graph"),
        "analysis.shm.attach_graph_s": attach,
        "analysis.shm.result_array_s": seconds("analysis.shm.result_array"),
        "shm.segment_bytes": counter("shm.segment_bytes"),
        "analysis.quantiles.high_probability_time_s": quantiles,
        "telemetry.manifest.event_s": manifest,
        "engine.rounds": counter("engine.rounds"),
        "engine.clock_ticks": counter("engine.clock_ticks"),
        "engine.messages_attempted": attempted,
        "engine.messages_delivered": counter("engine.messages_delivered"),
        "engine.messages_lost": counter("engine.messages_lost"),
    }
    metrics = {name: value / passes for name, value in per_pass.items()}
    metrics.update(
        {
            "graphs.build_s": seconds("graphs.build", setup),
            "graphs.build_calls": calls("graphs.build", setup),
            "core.flatgraph.flat_adjacency_s": seconds("core.flatgraph.flat_adjacency", setup),
            "core.kernels.ns_per_contact": _ratio(kernels * 1e9, attempted),
            "analysis.parallel.overhead_frac": (
                1.0 - _ratio(busy, workers * wait) if wait > 0 else 0.0
            ),
            "analysis.shm.reuse_ratio": _ratio(
                counter("shm.sweep_segment_reuses"), calls("analysis.shm.result_array")
            ),
            "engine.delivery_ratio": _ratio(counter("engine.messages_delivered"), attempted),
            "trace.unattributed_frac": 1.0 - _ratio(top_level, timed_seconds),
        }
    )
    return {name: metrics.get(name, 0.0) for name in LAYERS}
