"""Parallel Monte Carlo execution across processes.

Spreading-time trials are embarrassingly parallel, and the experiment suites
run thousands of them.  :func:`run_trials_parallel` splits a trial budget
into chunks, executes the chunks on the session's persistent process pool
(:mod:`repro.analysis.pool` — created once and reused across sweep grid
points), and merges the chunk results.  Seeds are spawned from the master
seed *before* dispatch, so the merged sample is identical in distribution
(though not in order) to a serial run with the same total number of trials,
and fully reproducible for a fixed ``(seed, trials, num_workers)`` triple.

Each pool chunk returns its :class:`SpreadingTimeSample` (O(trials)
numbers) and the parent merges the chunks in chunk order with
:meth:`SpreadingTimeSample.merged`.  Only what grows with the vertex count
travels through :mod:`multiprocessing.shared_memory`: the graph's CSR
adjacency arrays sit in one shared segment per graph (cached across calls)
that workers reattach by name — the graph is never re-pickled per chunk,
and the reattached arrays feed the batch kernels zero-copy — and a traced
call's ``(trials, n)`` coverage matrix, which the workers write in place at
their row offsets.  A graph given as a named family is built **once in the
parent** from the plan's shared graph seed, so every chunk — the degenerate
one-chunk in-process path included — runs on the same graph.

**Fault tolerance.**  Chunk execution survives misbehaving workers: every
chunk is retried with exponential backoff when its worker crashes, raises,
or exceeds the per-chunk timeout, and a chunk whose retries are exhausted
runs *serially in the parent* instead of failing the whole sweep.  Because
a chunk's result is a deterministic function of its ``(chunk_seed,
chunk_size)`` pair, a retried or fallen-back sweep is bit-identical to an
undisturbed one.  Two environment knobs tune the policy:

* ``REPRO_CHUNK_RETRIES`` — resubmissions per chunk before the serial
  fallback (default 2; 0 falls back on the first failure).
* ``REPRO_CHUNK_TIMEOUT`` — per-chunk result timeout in seconds (unset or
  non-positive disables the timeout).  A timeout resets the pool, which
  also terminates the stalled worker process.

The ``REPRO_FAULT_INJECT`` hook (``crash`` | ``raise`` | ``stall``, fired
with probability ``REPRO_FAULT_RATE``, default 1) makes workers misbehave
on purpose; it is the CI smoke test for the machinery above and only ever
fires inside pool workers, never in the parent.  Under an active metrics
registry the dispatcher counts ``parallel.chunk_retries``,
``parallel.chunk_timeouts``, and ``parallel.serial_fallbacks``.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from concurrent.futures import (
    BrokenExecutor,
    CancelledError,
    TimeoutError as FuturesTimeout,
    wait as wait_futures,
)
from dataclasses import dataclass, replace
from typing import Any, Optional, Sequence, Union

import numpy as np

from repro import config
from repro.analysis import shm
from repro.analysis.montecarlo import (
    SpreadingTimeSample,
    TrialPlan,
    _is_integer,
    _require,
    run_trials,
)
from repro.analysis import pool as pool_module
from repro.analysis.pool import ExecutorHandle, get_pool
from repro.core.budgets import check_connected
from repro.errors import AnalysisError
from repro.graphs.base import Graph
from repro.graphs.families import get_family
from repro.randomness.rng import SeedLike, as_generator, spawn_seeds
from repro.scenarios.base import ScenarioLike
from repro.telemetry.metrics import (
    MetricsRegistry,
    collecting_metrics,
    current_metrics,
)
from repro.telemetry.trace import CoverageRecorder, active_trace_collector

__all__ = [
    "ParallelTrialSpec",
    "run_trials_parallel",
    "default_worker_count",
    "chunk_plan",
]

def default_worker_count() -> int:
    """Number of worker processes to use by default.

    Defaults to the CPU count (at least 1).  The ``REPRO_MAX_WORKERS``
    environment variable, when set to a positive integer, caps the fan-out —
    useful on CI runners and shared machines; values above the CPU count are
    clamped to it, and unparsable or non-positive values are ignored.
    """
    cpus = max(1, os.cpu_count() or 1)
    raw = config.read_env("REPRO_MAX_WORKERS")
    if raw is not None:
        try:
            limit = int(raw)
        except ValueError:
            return cpus
        if limit >= 1:
            return min(limit, cpus)
    return cpus


def _chunk_retries() -> int:
    """Resubmissions allowed per chunk (``REPRO_CHUNK_RETRIES``, default 2)."""
    return max(0, config.read_int("REPRO_CHUNK_RETRIES", 2))


def _chunk_timeout() -> Optional[float]:
    """Per-chunk result timeout in seconds (``REPRO_CHUNK_TIMEOUT``), or None."""
    value = config.read_float("REPRO_CHUNK_TIMEOUT")
    return value if value is not None and value > 0 else None


#: Valid values of the ``REPRO_FAULT_INJECT`` environment variable.
FAULT_MODES = ("crash", "raise", "stall")


def _maybe_inject_fault(trial_seed: int) -> None:
    """The worker fault-injection hook (``REPRO_FAULT_INJECT``).

    Fires at the top of a chunk, before any simulation work or shared-memory
    write, with probability ``REPRO_FAULT_RATE`` (default 1) per
    ``(chunk seed, worker pid)`` pair — deterministic for a fixed pair, so a
    chunk resubmitted to a *different* worker re-rolls while the parent-side
    serial fallback (where this hook never fires) guarantees termination.

    * ``crash`` — hard-exit the worker process (simulates a SIGKILL / OOM
      kill; breaks the whole executor).
    * ``raise`` — raise :class:`AnalysisError` from the chunk.
    * ``stall`` — sleep ``REPRO_FAULT_STALL_SECONDS`` (default 3600),
      simulating a hung worker; only a ``REPRO_CHUNK_TIMEOUT`` recovers.
    """
    mode = config.read_env("REPRO_FAULT_INJECT")
    if not mode or not pool_module.in_worker():
        return
    mode = mode.strip().lower()
    if mode not in FAULT_MODES:
        raise AnalysisError(
            f"REPRO_FAULT_INJECT must be one of {FAULT_MODES}, got {mode!r}"
        )
    rate = config.read_float("REPRO_FAULT_RATE", 1.0)
    fault_rng = as_generator(np.random.SeedSequence((int(trial_seed), os.getpid())))
    if fault_rng.random() >= rate:
        return
    if mode == "crash":
        os._exit(13)
    if mode == "raise":
        raise AnalysisError(f"injected worker fault (chunk seed {trial_seed})")
    stall = config.read_float("REPRO_FAULT_STALL_SECONDS", 3600.0)
    time.sleep(3600.0 if stall is None else stall)


@dataclass(frozen=True)
class ParallelTrialSpec:
    """Description of one chunk of trials executed in a worker process.

    Attributes:
        plan: the chunk's :class:`~repro.analysis.montecarlo.TrialPlan`,
            ``replace(plan, trials=size, seed=chunk_seed)`` of the call's
            plan, run through :func:`~repro.analysis.montecarlo.run_trials`.
            It pickles to the worker with its scenario (the standard models
            and :class:`~repro.scenarios.FamilyResampler` all pickle —
            custom resampler lambdas do not).
        graph: the graph to run on, for a chunk run in-process (the
            one-chunk path) or pickled to a worker.
        graph_shm: name of a shared-memory CSR segment to reattach the
            graph from (mutually exclusive with ``graph``).
        graph_display_name: display name restored onto the reattached graph.
        collect_metrics: run the chunk under a private worker-local
            :class:`~repro.telemetry.metrics.MetricsRegistry` and return its
            snapshot with the chunk metadata, so the parent can merge the
            workers' counters into its own registry.
    """

    plan: TrialPlan
    graph: Optional[Graph] = None
    graph_shm: Optional[str] = None
    graph_display_name: Optional[str] = None
    collect_metrics: bool = False


@dataclass(frozen=True)
class _PoolChunk:
    """One pool chunk, and where a traced chunk writes its coverage rows.

    ``coverage_name`` names the parent-owned ``(total_trials,
    num_vertices)`` informing-time matrix from
    :func:`repro.analysis.shm.result_array` (``None`` for an untraced
    call); the chunk writes its rows at ``[offset, offset +
    spec.plan.trials)``.
    """

    spec: ParallelTrialSpec
    offset: int
    total_trials: int
    coverage_name: Optional[str]
    num_vertices: int


def _resolve_chunk_graph(spec: ParallelTrialSpec) -> Graph:
    """The chunk's graph: carried in the spec, or reattached from shared memory."""
    if spec.graph is not None:
        return spec.graph
    if spec.graph_shm is None:
        raise AnalysisError("a chunk needs either a graph or a shared graph segment")
    return shm.attach_graph(spec.graph_shm, spec.graph_display_name)


def _run_chunk(
    spec: ParallelTrialSpec, trace: Optional[CoverageRecorder] = None
) -> SpreadingTimeSample:
    """Run one chunk on its graph (in a worker or in the parent)."""
    plan = spec.plan
    _maybe_inject_fault(plan.seed)
    graph = _resolve_chunk_graph(spec)
    return run_trials(
        graph, plan.source, plan.protocol, trials=plan.trials, seed=plan.seed,
        fractions=plan.fractions, engine_options=plan.engine_options,
        batch=plan.batch, scenario=plan.scenario, trace=trace,
    )


def _run_pool_chunk(
    chunk: _PoolChunk,
) -> tuple[SpreadingTimeSample, Optional[dict]]:
    """Pool worker entry point (and the parent-side serial fallback).

    Runs the chunk and returns its sample with a metrics snapshot, which is
    ``None`` unless the parent asked for worker counters via
    ``spec.collect_metrics``.  A traced chunk runs through a local
    :class:`~repro.telemetry.trace.CoverageRecorder` and writes the recorded
    rows into the parent-owned coverage matrix at its offset.
    """
    spec = chunk.spec
    recorder = CoverageRecorder() if chunk.coverage_name is not None else None
    snapshot: Optional[dict] = None
    if spec.collect_metrics:
        # The worker process has no ambient registry of its own; the chunk
        # runs under a private one whose snapshot travels back with the
        # sample so the parent can merge it (telemetry stays observational:
        # the simulation code is identical either way).
        registry = MetricsRegistry()
        with collecting_metrics(registry):
            with registry.timer("parallel.chunk_seconds"):
                sample = _run_chunk(spec, trace=recorder)
        snapshot = registry.snapshot()
    else:
        sample = _run_chunk(spec, trace=recorder)
    if recorder is not None:
        shape = (chunk.total_trials, chunk.num_vertices)
        segment, coverage = shm.attach_array(chunk.coverage_name, shape)
        try:
            coverage[chunk.offset : chunk.offset + spec.plan.trials] = recorder.times_matrix()
        finally:
            del coverage
            segment.close()
    return sample, snapshot


def chunk_plan(
    trials: int, workers: int, seed: SeedLike = None
) -> tuple[int, list[tuple[int, int]]]:
    """The deterministic (graph seed, per-chunk ``(size, seed)``) split.

    This is the one place the parallel chunking policy lives — including
    the bit-compatibility-critical ``min(workers, trials)`` clamp, which
    changes how many seeds are spawned: the pool and the equivalence
    harness (which replays the chunks through serial
    :func:`~repro.analysis.montecarlo.run_trials` calls) derive the same
    plan from the same ``(trials, workers, seed)`` triple, which is what
    makes the two paths bit-identical.
    """
    workers = min(int(workers), int(trials))
    graph_seed, *chunk_seeds = spawn_seeds(workers + 1, seed)
    base, remainder = divmod(trials, workers)
    plan = []
    for index, chunk_seed in enumerate(chunk_seeds):
        size = base + (1 if index < remainder else 0)
        if size > 0:
            plan.append((size, chunk_seed))
    return graph_seed, plan


def _dispatch_chunks(handle: ExecutorHandle, fn, chunk_specs: Sequence[Any]) -> list:
    """Run ``fn`` over every chunk spec on the pool, tolerating worker faults.

    Per chunk: up to ``REPRO_CHUNK_RETRIES`` resubmissions (with exponential
    backoff between rounds) on a worker crash, exception, or
    ``REPRO_CHUNK_TIMEOUT`` expiry; after retries are exhausted the chunk
    runs serially in the parent through the very same entry point.  A crash
    or timeout resets the pool (terminating its processes, so a stalled
    worker does not run on after its chunk has been retried elsewhere);
    chunks whose futures died *with* the pool are resubmitted without
    charging their own retry budget.  Results come back in spec order, and
    a chunk's result depends only on its spec, so the merged sample is
    bit-identical to an undisturbed dispatch.

    A chunk that still fails in the parent raises — a genuine chunk error
    (as opposed to a worker fault) should surface, not loop.
    """
    retries = _chunk_retries()
    timeout = _chunk_timeout()
    metrics = current_metrics()
    results: dict[int, Any] = {}
    attempts = [0] * len(chunk_specs)
    pending = list(range(len(chunk_specs)))
    round_index = 0

    def _note_failure(index: int, *, timed_out: bool = False) -> Optional[int]:
        """Charge one attempt; return the index to requeue, or run serially."""
        attempts[index] += 1
        if timed_out and metrics is not None:
            metrics.count("parallel.chunk_timeouts")
        if attempts[index] > retries:
            if metrics is not None:
                metrics.count("parallel.serial_fallbacks")
            results[index] = fn(chunk_specs[index])
            return None
        if metrics is not None:
            metrics.count("parallel.chunk_retries")
        return index

    while pending:
        if round_index > 0:
            time.sleep(min(1.0, 0.05 * (2 ** (round_index - 1))))
        round_index += 1
        requeue: list[int] = []
        with handle.lease():
            futures: dict[int, Any] = {}
            try:
                try:
                    for index in pending:
                        futures[index] = handle.submit(fn, chunk_specs[index])
                except BrokenExecutor:
                    # Submission itself failed: the pool is gone.  Charge the
                    # chunks that never got a future and reset below via the
                    # collection loop's broken handling.
                    handle.reset()
                    for index in pending:
                        if index not in futures:
                            next_index = _note_failure(index)
                            if next_index is not None:
                                requeue.append(next_index)
                broken = False
                for index, future in futures.items():
                    try:
                        if broken:
                            # The pool was reset this round; salvage results
                            # that completed before it died, without waiting.
                            results[index] = future.result(timeout=0)
                        else:
                            results[index] = future.result(timeout=timeout)
                    except FuturesTimeout:
                        if broken:
                            requeue.append(index)
                        else:
                            broken = True
                            handle.reset()
                            next_index = _note_failure(index, timed_out=True)
                            if next_index is not None:
                                requeue.append(next_index)
                    except (BrokenExecutor, CancelledError):
                        if broken:
                            # Died with the pool, through no fault of its own.
                            requeue.append(index)
                        else:
                            broken = True
                            handle.reset()
                            next_index = _note_failure(index)
                            if next_index is not None:
                                requeue.append(next_index)
                    # A chunk runs arbitrary scenario code, so the concrete
                    # failure types are unknowable; every error is counted,
                    # retried, and ultimately re-raised through the serial
                    # fallback rather than swallowed.
                    # repro: allow[EXC001] -- fault barrier for arbitrary chunk code
                    except Exception:
                        # The chunk itself raised; the pool is still healthy.
                        next_index = _note_failure(index)
                        if next_index is not None:
                            requeue.append(next_index)
            # Must catch KeyboardInterrupt/SystemExit too: in-flight workers
            # have to be drained before the caller unlinks the coverage
            # segment they write into; the exception is always re-raised.
            # repro: allow[EXC001] -- drain in-flight workers before shm unlink; re-raised
            except BaseException:
                # A parent-side failure (e.g. the serial fallback re-raising a
                # genuine chunk error) while other futures may still be in
                # flight: cancel what has not started and drain what has, so
                # no worker is left writing into a segment the caller is about
                # to unlink.
                for future in futures.values():
                    future.cancel()
                wait_futures(list(futures.values()), timeout=5.0)
                raise
        pending = requeue
    return [results[index] for index in range(len(chunk_specs))]


def _execute_shared(
    handle: ExecutorHandle,
    specs: list[ParallelTrialSpec],
    num_vertices: int,
    trace: Optional[CoverageRecorder] = None,
) -> SpreadingTimeSample:
    """Run the chunks on the pool and merge their samples in chunk order."""
    trials = sum(spec.plan.trials for spec in specs)
    segment = coverage = None
    try:
        if trace is not None:
            # The (trials, n) informing-time matrix is the one result that
            # grows with n: each worker fills its chunk's rows in place and
            # the parent ingests the assembled block below.
            segment, coverage = shm.result_array((trials, num_vertices))
        chunks = []
        offset = 0
        for spec in specs:
            chunks.append(
                _PoolChunk(
                    spec=spec,
                    offset=offset,
                    total_trials=trials,
                    coverage_name=segment.name if segment is not None else None,
                    num_vertices=num_vertices,
                )
            )
            offset += spec.plan.trials
        # The dispatcher retries crashed/raising/stalled chunks and, once a
        # chunk's retries are exhausted, runs it serially in the parent
        # through the same entry point, so a disturbed sweep's result is
        # bit-identical to an undisturbed one.  It drains its own futures on
        # a parent-side failure, so the finally block below can safely
        # unlink the coverage segment.
        results = _dispatch_chunks(handle, _run_pool_chunk, chunks)
        metrics = current_metrics()
        if metrics is not None:
            for _, snapshot in results:
                if snapshot:
                    metrics.merge(snapshot)
        if trace is not None:
            # record_block copies, so this happens before the finally block
            # unlinks the segment.
            trace.record_block(coverage)
        return SpreadingTimeSample.merged([sample for sample, _ in results])
    finally:
        del coverage
        if segment is not None:
            shm._unlink(segment)


def run_trials_parallel(
    graph_or_family: Union[Graph, str],
    source: Union[int, str],
    protocol: str,
    *,
    trials: int,
    seed: SeedLike = None,
    size: Optional[int] = None,
    num_workers: Optional[int] = None,
    fractions: Sequence[float] = (),
    batch: Union[bool, int, str] = "auto",
    scenario: ScenarioLike = None,
    engine_options: Optional[dict] = None,
    parallel: str = "shared",
    trace: Optional[CoverageRecorder] = None,
) -> SpreadingTimeSample:
    """Run ``trials`` independent simulations across worker processes.

    Args:
        graph_or_family: a :class:`Graph` instance, or the name of a
            registered graph family (in which case ``size`` is required and
            the graph is built once in the parent from the plan's graph
            seed).
        source: source vertex id or ``"random"``.
        protocol: canonical protocol name.
        trials: total number of trials across all workers.
        seed: master seed.
        size: family size (only with a family name).
        num_workers: worker processes; defaults to
            :func:`default_worker_count` (CPU count, capped by the
            ``REPRO_MAX_WORKERS`` environment variable).  With one worker
            the call degenerates to an in-process serial
            :func:`~repro.analysis.montecarlo.run_trials`.  The chunking —
            and therefore the result — depends only on this value, never on
            how many processes the session pool actually holds.
        fractions: coverage fractions to record per trial.
        batch: batch dispatch mode for each worker's chunk (see
            :func:`~repro.analysis.montecarlo.run_trials`); the default
            ``"auto"`` makes every chunk one vectorised batch job when the
            protocol allows it.
        scenario: optional adversity scenario (or spec string) applied by
            every trial in every worker.
        engine_options: extra engine options forwarded to every chunk's
            ``run_trials`` call (e.g. ``{"view": "edge_clocks"}``).
        parallel: accepts only ``"shared"``, and changes nothing: chunks
            return their samples, and shared memory carries the graph and
            a traced call's coverage matrix.  The keyword is kept only
            because the end-to-end benchmark's workloads pass it; any other
            value raises :class:`AnalysisError`.
        trace: optional :class:`~repro.telemetry.trace.CoverageRecorder`.
            Each worker records its chunk through a local recorder and
            writes the per-vertex informing times into a shared
            ``(trials, n)`` matrix; the parent ingests the assembled block
            into ``trace``, so the recorded coverage is identical to a
            single-process traced run at the same seed.  Requires a
            concrete :class:`Graph` (the matrix width is the vertex count).
            When a metrics registry is active in the parent
            (``collecting_metrics``), worker counters are snapshotted per
            chunk and merged back with the chunk samples, alongside
            parent-side ``parallel.chunks`` / ``parallel.chunk_seconds``.

    Returns:
        The merged :class:`SpreadingTimeSample`.

    Raises:
        AnalysisError, ProtocolError, ScenarioError: for a malformed call,
            in the parent before any chunk is dispatched: the arguments a
            :class:`~repro.analysis.montecarlo.TrialPlan` checks, a fixed
            source that is not a vertex of the graph, a ``num_workers``
            that is not a positive integer, and (as
            :class:`~repro.errors.ProtocolError`) a disconnected graph.  A
            crashed, raising, or stalled *worker* does not raise: its chunks
            are retried (``REPRO_CHUNK_RETRIES`` times, with exponential
            backoff; ``REPRO_CHUNK_TIMEOUT`` bounds each chunk wait) and
            finally run serially in the parent, so the sweep completes
            bit-identically; only an error that reproduces in the parent
            propagates.
    """
    plan = TrialPlan(source, protocol, trials, seed, fractions, engine_options, scenario, batch)
    _require("parallel", parallel, "'shared' (the only transport)", parallel == "shared")
    workers = default_worker_count() if num_workers is None else num_workers
    _require("num_workers", num_workers, "a positive integer", _is_integer(workers) and workers > 0)
    collector = None
    if trace is None and isinstance(graph_or_family, Graph):
        # Ambient tracing (collecting_traces) reaches parallel runs too,
        # but only where explicit tracing is supported; deposit happens
        # after the merged sample is assembled below.
        collector = active_trace_collector()
        if collector is not None and collector.spec.coverage:
            trace = CoverageRecorder(collector.spec)
        else:
            collector = None
    if trace is not None and not isinstance(graph_or_family, Graph):
        raise AnalysisError(
            "coverage tracing requires a concrete Graph (the traced "
            "matrix width is the vertex count); build the family graph "
            "first and pass it directly"
        )

    graph_seed, chunks = chunk_plan(plan.trials, workers, plan.seed)
    if isinstance(graph_or_family, Graph):
        graph = graph_or_family
    elif size is None:
        raise AnalysisError("size is required when passing a family name")
    else:
        graph = get_family(str(graph_or_family)).build(int(size), seed=graph_seed)
    # Every chunk's engine would refuse a disconnected graph, and every
    # chunk a fixed source off the graph; refuse them here, before
    # dispatch, instead of retrying each chunk into the serial fallback.
    # The connectivity answer is memoized on the graph, and share_graph
    # hands it to the workers.
    check_connected(graph)
    if not isinstance(plan.source, str):
        plan.source_on(graph, None)
    plans = [replace(plan, trials=chunk_size, seed=chunk_seed) for chunk_size, chunk_seed in chunks]

    metrics = current_metrics()
    if metrics is not None:
        metrics.count("parallel.chunks", len(plans))
    if len(plans) == 1:
        # One chunk: run it in-process (identical to a worker run; no pool,
        # no shared memory).  The ambient metrics registry, when active,
        # sees the chunk directly.
        with metrics.timer("parallel.chunk_seconds") if metrics is not None else nullcontext():
            sample = _run_chunk(ParallelTrialSpec(plan=plans[0], graph=graph), trace=trace)
    else:
        handle = get_pool(len(plans))  # one process per chunk is all the call can use
        # Publish the CSR arrays once (cached per graph across calls); the
        # specs name the segment instead of pickling the graph.  The pin
        # (taken inside share_graph's registry lock) keeps the segment out
        # of LRU eviction while this call's chunks are queued — a
        # concurrent sweep may register many other graphs meanwhile.  With
        # a metrics registry active the workers run their chunks under
        # private registries and ship the snapshots back with their
        # samples (_execute_shared merges them).
        segment_name = shm.share_graph(graph, pin=True)
        specs = [
            ParallelTrialSpec(
                plan=chunk, graph_shm=segment_name, graph_display_name=graph.name,
                collect_metrics=metrics is not None,
            )
            for chunk in plans
        ]
        try:
            sample = _execute_shared(handle, specs, graph.num_vertices, trace)
        finally:
            shm.unpin_segment(segment_name)
    if collector is not None:
        collector.add(trace.trace(protocol=plan.protocol, graph_name=sample.graph_name))
    return sample
