"""Batched simulation kernels: run ``B`` Monte Carlo trials as one 2-D job.

Every quantity the paper reasons about — the expectation of the spreading
time ``T(alg, G, u)`` (Theorem 2) and its ``1 - 1/n`` quantile (Theorem 1) —
is a property of a *distribution*, so the real workload is thousands of
independent trials per (protocol, graph, source) cell.  Running those trials
one :func:`~repro.core.sync_engine.run_synchronous` call at a time pays the
full Python-level per-round overhead and the per-vertex
:class:`~repro.core.result.SpreadingResult` materialization once per trial.

The kernels in this module instead simulate ``B`` trials *simultaneously* as
``(B, n)`` NumPy arrays:

* :func:`run_synchronous_batch` is a 2-D generalization of the synchronous
  engine — one vectorised neighbor-sampling call per round covers every live
  trial, and per-trial completion masks retire finished trials from the
  working set (they stop consuming randomness, exactly like a serial run
  that returned).
* :func:`run_asynchronous_batch` is a batched tick loop for the ``"global"``
  view of the asynchronous model: per-trial exponential time accumulators
  advance all live trials by one Poisson tick per iteration, with the rumor
  exchange vectorised across trials.
* :func:`run_clock_view_batch` serves the ``"node_clocks"`` and
  ``"edge_clocks"`` views: the serial priority queue becomes a next-tick
  matrix with one row per live trial, whose per-row ``argmin`` is the next
  event (identical to the heap pop — continuous tick times tie with
  probability zero), so batched next-event simulation stays exact.
* :func:`run_auxiliary_batch` batches the analysis-only processes
  ``ppx``/``ppy`` of Definitions 5 and 7: informed-neighbor counts are a
  ``(B, n)`` integer matrix and the per-vertex pull probabilities come from
  the shared vectorised
  :func:`~repro.core.aux_processes.pull_probabilities`.

**Exact serial equivalence.**  Each trial owns its own
:class:`numpy.random.Generator` and the kernels consume randomness from it
in *exactly* the order the serial engines do (``rng.random(n)`` per
synchronous round while live; ``exponential``/``integers``/``random`` chunks
of the same sizes for the asynchronous global view; per-tick scalar draws
for the node-clock view and for loss or churn draws under the edge-clock
view, whose plain reschedule exponentials come in per-trial blocks;
push/pull uniform blocks plus parent draws for ``ppx``/``ppy``).
Consequently a batched trial with generator ``g`` produces bit-for-bit the
same informing times as a serial run seeded with ``g``, and leaves ``g`` in
the same state — the batch dimension is a pure throughput optimization,
testable trial-for-trial with spawned seeds (the shared harness in
``tests/helpers/equivalence.py`` pins exactly this contract for every
kernel).

**Adversity scenarios.**  Every kernel accepts the ``scenario=`` argument
of :mod:`repro.scenarios` and implements the perturbations as vectorised
``(B, n)`` masks, consuming per-trial scenario randomness in the same
documented order as the serial engines (resample → churn → burst →
contacts → loss; ``Delay`` rates once at trial start), so fixed-seed
serial/batch agreement holds under scenarios too.  The synchronous kernel
covers loss (independent or bursty), churn (random, targeted, or adaptive),
adaptive jamming, and
dynamic graphs (one concatenated CSR rebuilt for all trials at each shared
round boundary); the asynchronous kernels — the ``"global"`` tick loop and
both clock-queue views — cover all of those plus ``Delay``, with dynamic
graphs carried as a *per-trial padded* stacked CSR (:class:`_TrialGraphs`)
whose rows are replaced independently at each trial's own period boundary.
The single rejected combination is a dynamic graph under the
``"edge_clocks"`` view, where the serial engine refuses too (resampling
would change the per-pair clock set itself) — see :func:`is_batchable`.

**Pooled RNG mode.**  Passing ``pooled_rng=`` replaces the per-trial
generators with one shared generator drawing whole ``(B, n)`` matrices at
once.  This halves the Python-level draw overhead for small ``n`` but gives
up serial equivalence: pooled samples agree with per-trial samples only *in
distribution* (checked by a KS test in the suite).  For the clock-queue
views the pooled mode goes further: freed from the serial draw order, the
kernel pre-draws the randomness of thousands of future ticks as
``(B, chunk)`` blocks and drops the next-tick table entirely (both views
are the same superposed Poisson process in distribution — see
:func:`_run_clock_view_pooled`), which removes the dominant per-tick
argmin/draw overhead.

**Kernel backends.**  The hot loops themselves — the synchronous round
step, the flattened asynchronous tick loop, and the pooled clock-view
chunk consumer — live in :mod:`repro.core.kernels` with interchangeable
``"numpy"`` and numba-compiled ``"jit"`` implementations, selected per
call with the ``backend=`` engine option (default ``"auto"``); see the
package docstring for the per-kernel equivalence guarantees.

The output is a times-only :class:`~repro.core.result.BatchTimes` record:
batched runs never build parents, infection kinds, or traces.  Callers that
need those (coupling experiments, trace debugging) use the serial engines.
"""

from __future__ import annotations

from itertools import compress
from types import ModuleType
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.async_engine import ASYNC_MODES, ASYNC_VIEWS, default_max_steps
from repro.core.aux_processes import AUX_VARIANTS, pull_probabilities
from repro.core.flatgraph import FlatAdjacency, flat_adjacency
from repro.core.kernels import AsyncState, resolve_backend
from repro.core.result import BatchTimes
from repro.core.sync_engine import SYNC_MODES, default_max_rounds
from repro.errors import ProtocolError, ScenarioError, SimulationError
from repro.graphs.base import Graph
from repro.randomness.rng import SeedLike, spawn_generators
from repro.scenarios.base import DynamicGraph, Scenario, ScenarioLike, as_scenario
from repro.telemetry.metrics import MetricsRegistry, current_metrics

__all__ = [
    "run_batch",
    "run_synchronous_batch",
    "run_asynchronous_batch",
    "run_auxiliary_batch",
    "run_clock_view_batch",
    "is_batchable",
    "SYNC_BATCH_PROTOCOLS",
    "ASYNC_BATCH_PROTOCOLS",
    "AUX_BATCH_PROTOCOLS",
    "CLOCK_VIEWS",
]

#: Canonical protocol name -> synchronous engine mode.
SYNC_BATCH_PROTOCOLS = {"pp": "push-pull", "push": "push", "pull": "pull"}

#: Canonical protocol name -> asynchronous engine mode (all three views).
ASYNC_BATCH_PROTOCOLS = {"pp-a": "push-pull", "push-a": "push", "pull-a": "pull"}

#: Auxiliary processes with a batched kernel (protocol name == variant).
AUX_BATCH_PROTOCOLS = ("ppx", "ppy")

#: The clock-queue asynchronous views served by :func:`run_clock_view_batch`
#: (the ``"global"`` view has its own kernel, :func:`run_asynchronous_batch`).
CLOCK_VIEWS = ("node_clocks", "edge_clocks")

_SYNC_MODE_NAMES = {"push": "push", "pull": "pull", "push-pull": "pp"}
_ASYNC_MODE_NAMES = {"push": "push-a", "pull": "pull-a", "push-pull": "pp-a"}

#: Engine options each batched kernel understands (beyond ``record_times``).
_SYNC_OPTIONS = frozenset({"max_rounds", "on_budget_exhausted", "backend"})
_ASYNC_OPTIONS = frozenset({"max_steps", "max_time", "view", "on_budget_exhausted", "backend"})
_AUX_OPTIONS = frozenset({"max_rounds", "on_budget_exhausted", "backend"})

#: Chunk size of the serial asynchronous global-view engine; the batched
#: kernel must refill per-trial randomness buffers in chunks of exactly this
#: size to reproduce the serial draw order.
_ASYNC_CHUNK = 4096

#: Default number of future ticks whose randomness the pooled clock-view
#: fast path draws ahead of time as one ``(B, chunk)`` block per kind.
_POOLED_CLOCK_CHUNK = 4096

#: Reschedule exponentials the per-trial edge-clock loop draws ahead per
#: trial and refill (a 512 KiB block at 64 trials); see :class:`_BlockDraws`.
_CLOCK_BLOCK = 1024


def is_batchable(
    protocol: str,
    engine_options: Optional[dict] = None,
    scenario: ScenarioLike = None,
) -> bool:
    """Whether ``protocol`` (with these options and scenario) has a batched kernel.

    Batched kernels cover the six realistic protocols (synchronous and
    asynchronous push / pull / push–pull under all three asynchronous
    views), the auxiliary processes ``ppx``/``ppy``, and the times-only
    options; anything needing parents or traces falls back to the serial
    engines.  Every runtime scenario — the adaptive adversaries
    (:class:`~repro.scenarios.AdaptiveCrash`,
    :class:`~repro.scenarios.AdaptiveLoss`) included — batches except where
    the serial engine
    itself rejects the combination (so the fallback path raises the
    descriptive error): a :class:`~repro.scenarios.Delay` on a synchronous
    protocol, a :class:`~repro.scenarios.DynamicGraph` under the
    ``edge_clocks`` view, and any runtime scenario on an auxiliary process.
    """
    options = dict(engine_options or {})
    if options.pop("record_trace", False):
        return False
    scenario = as_scenario(scenario)
    if protocol in SYNC_BATCH_PROTOCOLS:
        if scenario is not None and scenario.delay is not None:
            return False
        return set(options) <= _SYNC_OPTIONS
    if protocol in AUX_BATCH_PROTOCOLS:
        if scenario is not None and scenario.runtime_active():
            return False
        return set(options) <= _AUX_OPTIONS
    if protocol in ASYNC_BATCH_PROTOCOLS:
        view = options.get("view", "global")
        if view not in ASYNC_VIEWS:
            return False
        if (
            view == "edge_clocks"
            and scenario is not None
            and scenario.dynamic is not None
        ):
            return False
        return set(options) <= _ASYNC_OPTIONS
    return False


def _prepare(
    graph: Graph,
    sources: Union[int, Sequence[int], np.ndarray],
    mode: str,
    valid_modes: tuple[str, ...],
    rngs: Optional[Sequence[np.random.Generator]],
    trials: Optional[int],
    seed: SeedLike,
    on_budget_exhausted: str,
    pooled_rng: Optional[np.random.Generator] = None,
) -> tuple[np.ndarray, Optional[list[np.random.Generator]]]:
    """Validate inputs and normalise (sources, rngs) to per-trial sequences.

    In pooled mode (``pooled_rng`` given) no per-trial generators exist and
    the second return value is ``None``.
    """
    if mode not in valid_modes:
        raise ProtocolError(f"unknown mode {mode!r}; expected one of {valid_modes}")
    if on_budget_exhausted not in ("error", "partial"):
        raise ProtocolError(
            f"on_budget_exhausted must be 'error' or 'partial', got {on_budget_exhausted!r}"
        )
    if pooled_rng is not None and rngs is not None:
        raise ProtocolError("pass either per-trial rngs or a pooled_rng, not both")
    if np.ndim(sources) == 0:
        batch = len(rngs) if rngs is not None else trials
        if batch is None:
            raise ProtocolError(
                "with a scalar source, pass per-trial rngs, a pooled_rng with an "
                "explicit trials count, or an explicit trials count"
            )
        source_array = np.full(int(batch), int(sources), dtype=np.int64)
    else:
        source_array = np.asarray(sources, dtype=np.int64)
    if source_array.size < 1:
        raise ProtocolError("a batch needs at least one trial")
    if pooled_rng is not None:
        generators = None
    elif rngs is None:
        generators = spawn_generators(source_array.size, seed)
    else:
        generators = list(rngs)
    if generators is not None and len(generators) != source_array.size:
        raise ProtocolError(
            f"got {source_array.size} sources but {len(generators)} generators"
        )
    n = graph.num_vertices
    if source_array.min() < 0 or source_array.max() >= n:
        bad = source_array[(source_array < 0) | (source_array >= n)][0]
        raise ProtocolError(
            f"source {int(bad)} is not a vertex of {graph.name} (n={n})"
        )
    if n > 1 and not graph.is_connected():
        raise ProtocolError(
            f"{graph.name} is not connected; the rumor can never reach every vertex"
        )
    return source_array, generators


def _trivial_batch(
    protocol_name: str,
    graph: Graph,
    sources: np.ndarray,
    record_times: bool,
    synchronous: bool,
) -> BatchTimes:
    """The n == 1 graph: every trial completes instantly."""
    batch = sources.size
    counters = np.zeros(batch, dtype=np.int64)
    return BatchTimes(
        protocol=protocol_name,
        graph_name=graph.name,
        num_vertices=1,
        sources=sources,
        completed=np.ones(batch, dtype=bool),
        completion_time=np.zeros(batch, dtype=float),
        informed_time=np.zeros((batch, 1), dtype=float) if record_times else None,
        rounds=counters if synchronous else None,
        steps=None if synchronous else counters,
    )


def _raise_incomplete(
    protocol_name: str,
    graph: Graph,
    num_informed: np.ndarray,
    completed: np.ndarray,
    budget_description: str,
) -> None:
    incomplete = np.flatnonzero(~completed)
    worst = int(num_informed[incomplete].min())
    raise SimulationError(
        f"{protocol_name} on {graph.name} left {incomplete.size} of "
        f"{completed.size} batched trials incomplete within {budget_description} "
        f"(worst trial informed {worst}/{graph.num_vertices} vertices)"
    )


class _TrialGraphs:
    """Per-trial dynamic graphs as one padded ``(B, ·)`` stacked CSR.

    The asynchronous kernels resample graphs at *per-trial* simulated-time
    boundaries, so — unlike the synchronous kernel, whose rounds are global
    and can rebuild one concatenated CSR for every trial at once — each
    trial's CSR row must be replaceable independently.  Rows are padded to
    a shared capacity (the widest neighbor array seen so far); a resample
    that outgrows it grows the pad for all rows.

    The arrays are kept flat — ``(B * n,)`` degree/start tables and a
    raveled ``(B * width,)`` neighbor array — so the per-tick
    :meth:`callees` gather is three 1-D ``np.take`` calls, the same memory
    traffic as the static-graph fast path, instead of 2-D fancy indexing.
    """

    __slots__ = ("graphs", "num_vertices", "width", "degrees", "rel_start", "indices")

    def __init__(self, graph: Graph, batch: int) -> None:
        flat = flat_adjacency(graph)
        self.graphs: list[Graph] = [graph] * batch
        self.num_vertices = flat.num_vertices
        self.width = flat.indices.size
        self.degrees = np.tile(flat.degrees, batch)
        self.rel_start = np.tile(flat.indptr[:-1], batch)
        self.indices = np.tile(flat.indices, batch)

    def resample(
        self, row: int, dynamic: "DynamicGraph", rng: np.random.Generator
    ) -> None:
        """Replace one trial's graph (and CSR row) with a fresh sample."""
        new_graph = dynamic.resample(self.graphs[row], rng)
        self.graphs[row] = new_graph
        # The identity-keyed cache matters when the resampler reuses graph
        # objects (pool-based resamplers): the CSR rebuild collapses to a
        # lookup plus a row memcpy.
        flat = flat_adjacency(new_graph)
        needed = flat.indices.size
        if needed > self.width:
            batch = len(self.graphs)
            grown = np.zeros(batch * needed, dtype=self.indices.dtype)
            view_old = self.indices.reshape(batch, self.width)
            grown.reshape(batch, needed)[:, : self.width] = view_old
            self.indices = grown
            self.width = needed
        n = self.num_vertices
        self.degrees[row * n : (row + 1) * n] = flat.degrees
        self.rel_start[row * n : (row + 1) * n] = flat.indptr[:-1]
        self.indices[row * self.width : row * self.width + needed] = flat.indices

    def callees(
        self, rows: np.ndarray, callers: np.ndarray, uniforms: np.ndarray
    ) -> np.ndarray:
        """One uniform random neighbor per (trial row, caller) pair."""
        return self.callees_at(
            rows * self.num_vertices + callers, rows * self.width, uniforms
        )

    def callees_at(
        self, pos: np.ndarray, row_offsets: np.ndarray, uniforms: np.ndarray
    ) -> np.ndarray:
        """:meth:`callees` with the flat (row, caller) positions and per-row
        neighbor-array offsets precomputed (hot-loop callers cache them)."""
        deg = self.degrees.take(pos, mode="clip")
        offsets = (uniforms * deg).astype(np.int64)
        np.minimum(offsets, deg - 1, out=offsets)
        offsets += self.rel_start.take(pos, mode="clip")
        offsets += row_offsets
        return self.indices.take(offsets, mode="clip")


class _ScenarioParts:
    """The per-category scenario components a batched kernel reads.

    One unpack shared by the kernels so the ``lossy`` /
    ``churn_updates`` / epoch bookkeeping cannot drift between them.
    """

    __slots__ = (
        "loss_prob", "burst", "churn", "dynamic", "delay", "lossy",
        "churn_updates", "adaptive_loss", "adaptive_churn", "crash_order",
        "crash_budget", "jam_budget", "initial_budget", "retired_budget",
    )

    def __init__(self, scenario: Optional[Scenario]) -> None:
        self.loss_prob = scenario.loss_prob if scenario is not None else 0.0
        self.burst = scenario.burst if scenario is not None else None
        self.churn = scenario.churn if scenario is not None else None
        self.dynamic = scenario.dynamic if scenario is not None else None
        self.delay = scenario.delay if scenario is not None else None
        self.adaptive_loss = scenario.adaptive_loss if scenario is not None else None
        self.lossy = (
            self.loss_prob > 0.0
            or self.burst is not None
            or self.adaptive_loss is not None
        )
        self.churn_updates = self.churn is not None and self.churn.epoch_draws
        self.adaptive_churn = self.churn is not None and self.churn.adaptive
        # Per-trial adversary budgets, filled in by init_adaptive once the
        # batch size is known.  Kernels that compact their live set must
        # compact these too (compact_budgets); kernels that mask absolute
        # rows index them directly.
        self.crash_order = None
        self.crash_budget = None
        self.jam_budget = None
        self.initial_budget = 0
        self.retired_budget = 0

    @property
    def needs_epochs(self) -> bool:
        """Whether unit-time epoch boundaries carry any state update."""
        return self.churn_updates or self.adaptive_churn or self.burst is not None

    @property
    def has_adaptive(self) -> bool:
        """Whether an adaptive adversary (crash or jam) is present."""
        return self.adaptive_churn or self.adaptive_loss is not None

    def init_adaptive(self, graph: Graph, batch: int) -> None:
        """Allocate the per-trial adversary budgets (and the crash ranking)."""
        if self.adaptive_churn:
            self.crash_order = self.churn.ranking(graph)
            self.crash_budget = np.full(batch, self.churn.budget, dtype=np.int64)
            self.initial_budget += batch * int(self.churn.budget)
        if self.adaptive_loss is not None:
            self.jam_budget = np.full(
                batch, self.adaptive_loss.budget, dtype=np.int64
            )
            self.initial_budget += batch * int(self.adaptive_loss.budget)

    def compact_budgets(self, keep: np.ndarray) -> None:
        """Drop finished trials' budget rows, banking their unspent budget."""
        if self.crash_budget is not None:
            kept_sum = int(self.crash_budget[keep].sum())
            self.retired_budget += int(self.crash_budget.sum()) - kept_sum
            self.crash_budget = self.crash_budget[keep]
        if self.jam_budget is not None:
            kept_sum = int(self.jam_budget[keep].sum())
            self.retired_budget += int(self.jam_budget.sum()) - kept_sum
            self.jam_budget = self.jam_budget[keep]

    def budget_spent(self) -> int:
        """Total adversary budget consumed across the batch so far."""
        remaining = self.retired_budget
        if self.crash_budget is not None:
            remaining += int(self.crash_budget.sum())
        if self.jam_budget is not None:
            remaining += int(self.jam_budget.sum())
        return self.initial_budget - remaining

    def record_budget_spent(self, metrics: Optional[MetricsRegistry]) -> None:
        """Count ``scenario.adversary_budget_spent`` when metrics are on."""
        if metrics is not None and self.has_adaptive:
            metrics.count("scenario.adversary_budget_spent", self.budget_spent())

    def initial_up(self, graph: Graph, batch: int) -> Optional[np.ndarray]:
        """The ``(B, n)`` up/down matrix at trial start, or ``None``."""
        if self.churn is None:
            return None
        return np.tile(self.churn.initial_up(graph), (batch, 1))

    def loss_threshold(
        self, bad: Optional[np.ndarray], rows: Optional[np.ndarray] = None
    ) -> Union[float, np.ndarray]:
        """Per-row loss probability (scalar without a burst component)."""
        if self.burst is None:
            return self.loss_prob
        states = bad if rows is None else bad[rows]
        return np.where(states, self.burst.p_loss_bad, self.burst.p_loss_good)

    def cross_boundaries(
        self,
        b: int,
        t: float,
        rng: np.random.Generator,
        n: int,
        up: Optional[np.ndarray],
        bad: Optional[np.ndarray],
        next_epoch: Optional[np.ndarray],
        next_resample: Optional[np.ndarray],
        trial_graphs: Optional["_TrialGraphs"],
        informed: Optional[np.ndarray] = None,
    ) -> None:
        """Fire trial ``b``'s epoch/resample boundaries up to time ``t``.

        The single definition of the batched kernels' boundary interleave —
        chronological order, epoch (churn update, then burst draw) before a
        resample on ties — matching the serial engines' draw order exactly.
        All three batch tick loops call this, so the equivalence-pinned
        contract cannot drift between them.  ``informed`` is the ``(B, n)``
        informed matrix an adaptive crash adversary observes (it draws
        nothing, so the RNG stream matches the oblivious engines').
        """
        while True:
            epoch_at = next_epoch[b] if next_epoch is not None else np.inf
            resample_at = next_resample[b] if next_resample is not None else np.inf
            if min(epoch_at, resample_at) > t:
                return
            if epoch_at <= resample_at:
                if self.churn_updates:
                    # repro: allow[RNG002] -- epoch schedule is deterministic in time, not in drawn values; this method IS the pinned boundary-interleave contract
                    up[b] = self.churn.step(up[b], rng.random(n))
                elif self.adaptive_churn:
                    self.crash_budget[b] -= self.churn.crash_step(
                        up[b], informed[b], self.crash_order, self.crash_budget[b]
                    )
                if bad is not None:
                    # repro: allow[RNG002] -- epoch schedule is deterministic in time, not in drawn values; this method IS the pinned boundary-interleave contract
                    bad[b] = self.burst.step_state(bad[b], rng.random())
                next_epoch[b] += 1.0
            else:
                trial_graphs.resample(b, self.dynamic, rng)
                next_resample[b] += float(self.dynamic.period)


# ---------------------------------------------------------------------- #
# Synchronous batch kernel
# ---------------------------------------------------------------------- #
def run_synchronous_batch(
    graph: Graph,
    sources: Union[int, Sequence[int], np.ndarray],
    *,
    mode: str = "push-pull",
    rngs: Optional[Sequence[np.random.Generator]] = None,
    trials: Optional[int] = None,
    seed: SeedLike = None,
    max_rounds: Optional[int] = None,
    record_times: bool = True,
    on_budget_exhausted: str = "error",
    scenario: ScenarioLike = None,
    pooled_rng: Optional[np.random.Generator] = None,
    backend: Optional[str] = None,
) -> BatchTimes:
    """Simulate a batch of synchronous rumor-spreading trials at once.

    Args:
        graph: the (connected) graph shared by every trial (the *initial*
            graph under a dynamic-graph scenario).
        sources: per-trial source vertices (length ``B``), or a single vertex
            id used by all trials.  Note scenario source strategies are
            applied by :func:`repro.core.protocols.spread` and
            :func:`repro.analysis.montecarlo.run_trials`; this kernel always
            uses the sources it is given.
        mode: ``"push"``, ``"pull"``, or ``"push-pull"``.
        rngs: per-trial generators (length ``B``).  Trial ``i`` consumes
            randomness from ``rngs[i]`` exactly as a serial
            :func:`~repro.core.sync_engine.run_synchronous` call would, so
            fixed-seed results agree trial-for-trial with the serial engine
            (scenarios included).
        trials: batch size when ``sources`` is a scalar and ``rngs`` is not
            given.
        seed: master seed used to spawn per-trial generators when ``rngs``
            is not given.
        max_rounds: per-trial round budget (shared), defaulting to
            :func:`~repro.core.sync_engine.default_max_rounds`.
        record_times: record the full ``(B, n)`` per-vertex time matrix.
            With ``False`` only per-trial spreading times are kept, which is
            cheaper and enough for spreading-time statistics.
        on_budget_exhausted: ``"error"`` raises :class:`SimulationError` if
            any trial fails to complete; ``"partial"`` marks such trials
            incomplete instead.
        scenario: optional adversity scenario; loss (independent or
            bursty), churn (random or targeted), and dynamic graphs apply
            (``Delay`` raises — synchronous rounds have no clocks).
        pooled_rng: one shared generator replacing the per-trial ones (no
            serial equivalence; distribution-level agreement only).
        backend: kernel backend for the round step — ``"numpy"``, ``"jit"``,
            or ``"auto"`` (see :mod:`repro.core.kernels`; both backends are
            bit-identical here).  ``None`` reads ``REPRO_KERNEL_BACKEND``
            and then defaults to ``"auto"``.

    Returns:
        A :class:`~repro.core.result.BatchTimes` with round-valued times.
    """
    source_array, generators = _prepare(
        graph, sources, mode, SYNC_MODES, rngs, trials, seed, on_budget_exhausted, pooled_rng
    )
    scenario = as_scenario(scenario)
    if scenario is not None and scenario.delay is not None:
        raise ScenarioError(
            "Delay skews asynchronous clock rates; synchronous rounds have no "
            "clocks to slow down — use an asynchronous protocol"
        )
    parts = _ScenarioParts(scenario)
    loss_prob = parts.loss_prob
    burst = parts.burst
    churn = parts.churn
    dynamic = parts.dynamic
    protocol_name = _SYNC_MODE_NAMES[mode]
    n = graph.num_vertices
    batch = source_array.size
    budget = default_max_rounds(n) if max_rounds is None else int(max_rounds)
    if budget < 0:
        raise ProtocolError(f"max_rounds must be non-negative, got {max_rounds}")
    if n == 1:
        return _trivial_batch(protocol_name, graph, source_array, record_times, True)

    kern = resolve_backend(backend)
    metrics = current_metrics()
    if metrics is not None:
        metrics.gauge("engine.backend", kern.BACKEND_NAME)
    flat = flat_adjacency(graph)
    # Narrow copies of the CSR arrays: the neighbor-sampling gathers are the
    # hottest memory traffic in the round loop.  int32 covers flat (row,
    # vertex) addresses whenever batch * n fits, which is every realistic
    # batch; fall back to int64 otherwise.
    idx_dtype = np.int32 if batch * n < 2**31 else np.int64
    degrees_nw = flat.degrees.astype(idx_dtype)
    max_offset_nw = degrees_nw - 1
    start_nw = flat.indptr[:-1].astype(idx_dtype)
    indices_nw = flat.indices.astype(idx_dtype)
    csr_nw = (degrees_nw, max_offset_nw, start_nw, indices_nw)

    pull_allowed = mode in ("pull", "push-pull")
    push_allowed = mode in ("push", "push-pull")

    # Live-trial working set, compacted whenever trials finish: row i of the
    # live arrays belongs to trial live_ids[i].  Finished trials move their
    # rows into the separate per-trial final storage and stop paying any
    # per-round cost (and stop consuming randomness, like a serial run that
    # returned).
    live_ids = np.arange(batch, dtype=np.int64)
    live_rngs = list(generators) if generators is not None else []
    informed_live = np.zeros((batch, n), dtype=bool)
    informed_live[live_ids, source_array] = True
    informed_live_count = np.ones(batch, dtype=np.int64)
    times_live = None
    final_times = None
    if record_times:
        times_live = np.full((batch, n), np.inf)
        times_live[live_ids, source_array] = 0.0
        final_times = np.empty((batch, n))

    final_rounds = np.zeros(batch, dtype=np.int64)
    final_informed_count = np.full(batch, n, dtype=np.int64)
    completed = np.zeros(batch, dtype=bool)
    completion_time = np.full(batch, np.inf)
    # Contact-draw buffer (sliced to the live row count) plus the backend's
    # own round workspace (the numpy kernels preallocate their per-round
    # temporaries there; the jit kernels need none).
    scratch = np.empty((batch, n))
    ws = kern.sync_workspace(batch, n, idx_dtype)

    # Scenario state: per-trial up/down churn matrix, draw buffers for the
    # churn and loss uniforms, per-trial burst channel states, and — under
    # a dynamic graph — per-trial current graphs with a stacked CSR built
    # at each resample boundary (degrees and flat start offsets per
    # (trial, vertex) into one concatenated neighbor array).  All compacted
    # alongside the live set.
    up_live = parts.initial_up(graph, batch)
    parts.init_adaptive(graph, batch)
    churn_buf = np.empty((batch, n)) if parts.churn_updates else None
    loss_buf = np.empty((batch, n)) if parts.lossy else None
    bad_live = np.zeros(batch, dtype=bool) if burst is not None else None
    current_graphs: Optional[list[Graph]] = [graph] * batch if dynamic is not None else None
    stacked: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None
    row_offsets_wide = (
        (np.arange(batch, dtype=np.int64) * n)[:, None] if dynamic is not None else None
    )

    round_index = 0
    while live_ids.size and round_index < budget:
        round_index += 1
        live = live_ids.size
        # Scenario randomness order per trial (matching the serial engine):
        # graph resample, churn update, contacts, loss flips.
        if dynamic is not None and round_index > 1 and (round_index - 1) % dynamic.period == 0:
            for i in range(live):
                rng_i = pooled_rng if pooled_rng is not None else live_rngs[i]
                current_graphs[i] = dynamic.resample(current_graphs[i], rng_i)
            flats = [FlatAdjacency(g) for g in current_graphs[:live]]
            degrees_st = np.stack([f.degrees for f in flats])
            indices_cat = np.concatenate([f.indices for f in flats])
            bases = np.zeros(live, dtype=np.int64)
            np.cumsum([f.indices.size for f in flats[:-1]], out=bases[1:])
            start_st = np.stack(
                [f.indptr[:-1] + base for f, base in zip(flats, bases)]
            )
            stacked = (degrees_st, start_st, indices_cat)
        if parts.churn_updates:
            churn_draws = churn_buf[:live]
            if pooled_rng is not None:
                pooled_rng.random(out=churn_draws)
            else:
                for i in range(live):
                    live_rngs[i].random(out=churn_draws[i])
            up_live = churn.step(up_live, churn_draws)
        elif parts.adaptive_churn:
            # Deterministic crash on each trial's round-start informed set —
            # no draw, so the per-trial RNG streams match the oblivious
            # kernel's exactly.
            for i in range(live):
                parts.crash_budget[i] -= churn.crash_step(
                    up_live[i], informed_live[i], parts.crash_order, parts.crash_budget[i]
                )
        if burst is not None:
            if pooled_rng is not None:
                burst_draws = pooled_rng.random(live)
            else:
                # One scalar channel draw per live trial per round — the
                # exact draw the serial engine makes.
                burst_draws = np.array([live_rngs[i].random() for i in range(live)])
            bad_live = burst.step_state(bad_live, burst_draws)
        draws = scratch[:live]
        if pooled_rng is not None:
            pooled_rng.random(out=draws)
        else:
            for i in range(live):
                # One rng.random(n) per live trial per round — the exact draw
                # the serial engine makes, so per-trial streams stay aligned.
                live_rngs[i].random(out=draws[i])
        # Loss uniforms are the round's final draw (after the contacts),
        # resolved into the `kept` mask before the kernel runs — the draw
        # order is what serial equivalence pins, not where the mask is used.
        kept = None
        if parts.lossy:
            loss_draws = loss_buf[:live]
            if pooled_rng is not None:
                pooled_rng.random(out=loss_draws)
            else:
                for i in range(live):
                    live_rngs[i].random(out=loss_draws[i])
            if parts.adaptive_loss is not None:
                # Resolve the round's contacts early (the same arithmetic the
                # kernel applies) so the jammer can see which exchanges would
                # transmit; the budget is spent in vertex-id order per trial,
                # matching the serial engine.
                if stacked is not None:
                    degrees_st, start_st, indices_cat = stacked
                    offsets = (draws * degrees_st).astype(np.int64)
                    np.minimum(offsets, degrees_st - 1, out=offsets)
                    callees = indices_cat[start_st + offsets]
                else:
                    offsets = (draws * degrees_nw).astype(np.int64)
                    np.minimum(offsets, max_offset_nw, out=offsets)
                    callees = indices_nw[start_nw + offsets]
                contacted = np.take_along_axis(informed_live, callees, axis=1)
                if mode == "push-pull":
                    informative = informed_live != contacted
                elif mode == "push":
                    informative = informed_live & ~contacted
                else:
                    informative = ~informed_live & contacted
                candidate = informative
                if up_live is not None:
                    candidate = (
                        candidate
                        & up_live
                        & np.take_along_axis(up_live, callees, axis=1)
                    )
                spend = candidate & (loss_draws < parts.adaptive_loss.p)
                jam = spend & (np.cumsum(spend, axis=1) <= parts.jam_budget[:, None])
                parts.jam_budget -= jam.sum(axis=1)
                kept = ~jam
            elif burst is None:
                kept = loss_draws >= loss_prob
            else:
                kept = loss_draws >= parts.loss_threshold(bad_live)[:, None]
        if metrics is not None:
            metrics.count("engine.rounds", live)
            metrics.count("engine.messages_attempted", live * n)
            if kept is not None:
                metrics.count("engine.messages_lost", int(kept.size - kept.sum()))
        if stacked is not None:
            informed_live_count = kern.sync_round_step_dynamic(
                stacked, row_offsets_wide[:live], draws, kept, up_live,
                informed_live, times_live, round_index,
                push_allowed, pull_allowed, ws, informed_live_count,
            )
        else:
            informed_live_count = kern.sync_round_step(
                csr_nw, draws, kept, up_live,
                informed_live, times_live, round_index,
                push_allowed, pull_allowed, ws, informed_live_count,
            )
        finished = informed_live_count == n
        if finished.any():
            done = np.flatnonzero(finished)
            done_ids = live_ids[done]
            completed[done_ids] = True
            completion_time[done_ids] = float(round_index)
            final_rounds[done_ids] = round_index
            if times_live is not None:
                final_times[done_ids] = times_live[done]
            keep = np.flatnonzero(~finished)
            informed_live = informed_live[keep]
            if times_live is not None:
                times_live = times_live[keep]
            informed_live_count = informed_live_count[keep]
            if pooled_rng is None:
                live_rngs = [live_rngs[i] for i in keep]
            if up_live is not None:
                up_live = up_live[keep]
            if bad_live is not None:
                bad_live = bad_live[keep]
            parts.compact_budgets(keep)
            if current_graphs is not None:
                current_graphs = [current_graphs[i] for i in keep]
            if stacked is not None:
                # The concatenated neighbor array keeps dead segments until
                # the next rebuild; the kept start offsets stay valid.
                stacked = (stacked[0][keep], stacked[1][keep], stacked[2])
            live_ids = live_ids[keep]

    if live_ids.size:
        # Budget exhausted with trials still live: they executed every round.
        final_rounds[live_ids] = round_index
        final_informed_count[live_ids] = informed_live_count
        if times_live is not None:
            final_times[live_ids] = times_live

    if not completed.all() and on_budget_exhausted == "error":
        _raise_incomplete(
            protocol_name, graph, final_informed_count, completed, f"{budget} rounds"
        )
    if metrics is not None:
        # Every informed vertex beyond the pre-informed sources received
        # exactly one successful transmission.
        metrics.count(
            "engine.messages_delivered", int(final_informed_count.sum()) - batch
        )
    parts.record_budget_spent(metrics)

    return BatchTimes(
        protocol=protocol_name,
        graph_name=graph.name,
        num_vertices=n,
        sources=source_array,
        completed=completed,
        completion_time=completion_time,
        informed_time=final_times,
        rounds=final_rounds,
        steps=None,
    )


# ---------------------------------------------------------------------- #
# Asynchronous batch kernel ("global" view)
# ---------------------------------------------------------------------- #
def run_asynchronous_batch(
    graph: Graph,
    sources: Union[int, Sequence[int], np.ndarray],
    *,
    mode: str = "push-pull",
    rngs: Optional[Sequence[np.random.Generator]] = None,
    trials: Optional[int] = None,
    seed: SeedLike = None,
    max_steps: Optional[int] = None,
    max_time: Optional[float] = None,
    record_times: bool = True,
    on_budget_exhausted: str = "error",
    scenario: ScenarioLike = None,
    pooled_rng: Optional[np.random.Generator] = None,
    backend: Optional[str] = None,
) -> BatchTimes:
    """Simulate a batch of asynchronous trials under the ``"global"`` view.

    Every trial carries its own exponential time accumulator (the rate-``n``
    global Poisson clock) and every loop iteration advances all live trials
    by one tick, with the contact exchange vectorised across trials.
    Per-trial randomness is drawn from ``rngs[i]`` in chunks of the same
    sizes and order as the serial
    :func:`~repro.core.async_engine.run_asynchronous` global view, so
    fixed-seed results agree trial-for-trial with the serial engine —
    scenarios included (loss, burst loss, churn, targeted churn, delay,
    and dynamic graphs all batch; dynamic graphs ride a per-trial padded
    stacked CSR whose rows are resampled at each trial's own period
    boundaries).

    Args: as :func:`run_synchronous_batch`, with the asynchronous budgets
        ``max_steps`` (clock ticks) and ``max_time`` (simulated time).
        ``backend`` selects the tick-loop kernel (:mod:`repro.core.kernels`);
        the per-trial modes are bit-identical across backends, the pooled
        mode agrees in distribution only under ``"jit"``.

    Returns:
        A :class:`~repro.core.result.BatchTimes` with continuous times.
    """
    source_array, generators = _prepare(
        graph, sources, mode, ASYNC_MODES, rngs, trials, seed, on_budget_exhausted, pooled_rng
    )
    scenario = as_scenario(scenario)
    parts = _ScenarioParts(scenario)
    burst = parts.burst
    delay = parts.delay
    dynamic = parts.dynamic
    protocol_name = _ASYNC_MODE_NAMES[mode]
    n = graph.num_vertices
    batch = source_array.size
    step_budget = default_max_steps(n) if max_steps is None else int(max_steps)
    if step_budget < 0:
        raise ProtocolError(f"max_steps must be non-negative, got {max_steps}")
    time_budget = np.inf if max_time is None else float(max_time)
    if time_budget < 0:
        raise ProtocolError(f"max_time must be non-negative, got {max_time}")
    if n == 1:
        return _trivial_batch(protocol_name, graph, source_array, record_times, False)

    kern = resolve_backend(backend)
    metrics = current_metrics()
    if metrics is not None:
        metrics.gauge("engine.backend", kern.BACKEND_NAME)
    flat = flat_adjacency(graph)
    degrees_nw = flat.degrees.astype(np.int32)
    max_offset_nw = degrees_nw - 1
    start_nw = flat.indptr[:-1].astype(np.int32)
    indices_nw = flat.indices.astype(np.int32)
    trial_graphs = _TrialGraphs(graph, batch) if dynamic is not None else None

    finite_time_budget = np.isfinite(time_budget)
    scale = 1.0 / n  # mean gap of the rate-n global clock

    # Delay scenario: per-trial vertex rates drawn at trial start (the first
    # randomness each trial consumes, matching the serial engine), with the
    # cumulative-rate tables used to resolve weighted caller draws.
    rates_cum = None
    rates_total = None
    scales = None
    if delay is not None:
        rates = np.stack(
            [
                delay.draw_rates(
                    graph, pooled_rng if pooled_rng is not None else generators[b]
                )
                for b in range(batch)
            ]
        )
        rates_cum = np.cumsum(rates, axis=1)
        rates_total = rates_cum[:, -1].copy()
        scales = 1.0 / rates_total  # per-trial mean gap of the superposed clock

    informed = np.zeros((batch, n), dtype=bool)
    trial_rows = np.arange(batch, dtype=np.int64)
    informed[trial_rows, source_array] = True
    num_informed = np.ones(batch, dtype=np.int64)
    times = None
    if record_times:
        times = np.full((batch, n), np.inf)
        times[trial_rows, source_array] = 0.0

    now = np.zeros(batch)
    completed = np.zeros(batch, dtype=bool)
    completion_time = np.full(batch, np.inf)

    # Scenario state, indexed by absolute trial row (this kernel masks rows
    # instead of compacting them): churn up/down matrices, burst channel
    # states, the per-trial epoch/resample boundary clocks, and a
    # loss-uniform buffer mirroring the serial chunk order (gaps, callers,
    # neighbor uniforms, loss uniforms).
    up = parts.initial_up(graph, batch)
    parts.init_adaptive(graph, batch)
    bad = np.zeros(batch, dtype=bool) if burst is not None else None
    next_epoch = np.ones(batch) if parts.needs_epochs else None
    next_resample = (
        np.full(batch, float(dynamic.period)) if dynamic is not None else None
    )
    # Scalar lower bound on the earliest pending boundary over all trials:
    # the per-row boundary scan is skipped while every tick time is provably
    # below it (one max-reduce instead of gathers, compares, and any()).
    has_boundaries = next_epoch is not None or next_resample is not None
    boundary_floor = np.inf
    if next_epoch is not None:
        boundary_floor = 1.0
    if next_resample is not None:
        boundary_floor = min(boundary_floor, float(dynamic.period))

    # Per-trial randomness buffers mirroring the serial engine's chunked
    # draws: refilled (exponential gaps, callers, neighbor uniforms — in that
    # order) whenever exhausted, with chunk size min(4096, remaining budget).
    # A trial can only run out of step budget at a buffer boundary (chunks
    # never outlive the budget), so the budget check lives in the refill.
    gaps = np.empty((batch, _ASYNC_CHUNK))
    callers = np.empty((batch, _ASYNC_CHUNK), dtype=np.int32)
    nbr_uniforms = np.empty((batch, _ASYNC_CHUNK))
    loss_uniforms = np.empty((batch, _ASYNC_CHUNK)) if parts.lossy else None
    positions = np.zeros(batch, dtype=np.int64)
    buffer_lengths = np.zeros(batch, dtype=np.int64)
    # Executed ticks are implied by the buffer bookkeeping — ticks consumed
    # in retired chunks plus the in-chunk position — so the loop never pays
    # a per-tick `steps[rows] += 1` scatter.  The one correction: a trial
    # retired by the time budget consumed (but did not execute) its final
    # draw, tracked in `overtime` and subtracted at the end.
    chunk_base = np.zeros(batch, dtype=np.int64)
    overtime = np.zeros(batch, dtype=bool) if finite_time_budget else None

    live = num_informed < n
    if step_budget == 0:
        live[:] = False
    steps = np.zeros(batch, dtype=np.int64)
    # Hand the fully-prepared working set to the selected backend's tick
    # loop: both backends consume one identical bundle (same buffer layout,
    # same chunked-draw protocol via AsyncState.draw_chunk), so the
    # equivalence-pinned randomness stream is backend independent.
    state = AsyncState(
        n=n, batch=batch, mode=mode, chunk=_ASYNC_CHUNK,
        step_budget=step_budget, time_budget=time_budget,
        finite_time_budget=finite_time_budget,
        generators=generators, pooled_rng=pooled_rng,
        scale=scale, scales=scales, rates_cum=rates_cum, rates_total=rates_total,
        degrees=degrees_nw, max_offset=max_offset_nw,
        start=start_nw, indices=indices_nw, trial_graphs=trial_graphs,
        parts=parts, up=up, bad=bad,
        next_epoch=next_epoch, next_resample=next_resample,
        boundary_floor=boundary_floor, has_boundaries=has_boundaries,
        gaps=gaps, callers=callers, nbr_uniforms=nbr_uniforms,
        loss_uniforms=loss_uniforms, positions=positions,
        buffer_lengths=buffer_lengths, chunk_base=chunk_base,
        informed=informed, times=times, num_informed=num_informed, now=now,
        live=live, completed=completed, completion_time=completion_time,
        overtime=overtime, steps=steps,
    )
    kern.async_tick_loop(state)
    if overtime is not None:
        steps[overtime] -= 1  # the final draw was consumed, not executed
    if metrics is not None:
        # Delivered counts come from the backends' own drain-exit deltas
        # (see kernels.numpy_backend / kernels.jit_backend); the totals
        # here are budget-corrected tick counts only.
        total_ticks = int(steps.sum())
        metrics.count("engine.clock_ticks", total_ticks)
        metrics.count("engine.messages_attempted", total_ticks)
    parts.record_budget_spent(metrics)
    if not completed.all() and on_budget_exhausted == "error":
        _raise_incomplete(
            protocol_name,
            graph,
            num_informed,
            completed,
            f"{step_budget} steps / time {time_budget}",
        )
    return BatchTimes(
        protocol=protocol_name,
        graph_name=graph.name,
        num_vertices=n,
        sources=source_array,
        completed=completed,
        completion_time=completion_time,
        informed_time=times,
        rounds=None,
        steps=steps,
    )


# ---------------------------------------------------------------------- #
# Auxiliary-process batch kernel (ppx / ppy)
# ---------------------------------------------------------------------- #
def _bump_neighbor_counts(
    counts_flat: np.ndarray,
    rows: np.ndarray,
    verts: np.ndarray,
    flat: FlatAdjacency,
    n: int,
) -> None:
    """``counts_flat[r * n + w] += 1`` for every neighbor ``w`` of each ``(r, v)``.

    The vectorised equivalent of the serial engine's "for each newly informed
    vertex, bump every neighbor's informed count" loop, across batch rows.
    """
    degs = flat.degrees[verts]
    total = int(degs.sum())
    if total == 0:
        return
    stops = np.cumsum(degs)
    within = np.arange(total, dtype=np.int64) - np.repeat(stops - degs, degs)
    neighbors = flat.indices[np.repeat(flat.indptr[verts], degs) + within]
    np.add.at(counts_flat, np.repeat(rows, degs) * n + neighbors, 1)


def run_auxiliary_batch(
    graph: Graph,
    sources: Union[int, Sequence[int], np.ndarray],
    *,
    variant: str = "ppx",
    rngs: Optional[Sequence[np.random.Generator]] = None,
    trials: Optional[int] = None,
    seed: SeedLike = None,
    max_rounds: Optional[int] = None,
    record_times: bool = True,
    on_budget_exhausted: str = "error",
    scenario: ScenarioLike = None,
    pooled_rng: Optional[np.random.Generator] = None,
    backend: Optional[str] = None,
) -> BatchTimes:
    """Simulate a batch of auxiliary-process (``ppx``/``ppy``) trials at once.

    The ``(B, n)`` generalization of
    :func:`~repro.core.aux_processes.run_auxiliary_process`: per-vertex
    informed-neighbor counts are maintained as a batched integer matrix, the
    pull probabilities come from the shared vectorised
    :func:`~repro.core.aux_processes.pull_probabilities`, and the push/pull
    commits are scatter operations across all live trials.

    Per-trial randomness is consumed in exactly the serial engine's order —
    one ``random(k_informed)`` push block, one ``random(k_candidates)`` pull
    block, then one bounded-integer parent draw per pulling vertex (the
    chosen parent never affects informing times, but the draw must happen to
    keep the streams aligned) — so fixed-seed results agree trial-for-trial
    with the serial engine.  ``pooled_rng`` switches to the shared-generator
    mode (distributional agreement only; the parent draws are skipped).

    Runtime scenarios (loss, churn, dynamic graphs, delay) do not apply to
    the analysis-only processes and raise :class:`ScenarioError`, matching
    :func:`repro.core.protocols.spread`.

    Args: as :func:`run_synchronous_batch`, plus ``variant`` (``"ppx"`` or
        ``"ppy"``).  ``backend`` is accepted for interface uniformity and
        ignored: the auxiliary kernels have no compiled implementation
        (their cost is dominated by the neighbor-count bookkeeping, not a
        tick loop).

    Returns:
        A :class:`~repro.core.result.BatchTimes` with round-valued times.
    """
    source_array, generators = _prepare(
        graph, sources, variant, AUX_VARIANTS, rngs, trials, seed, on_budget_exhausted, pooled_rng
    )
    scenario = as_scenario(scenario)
    if scenario is not None and scenario.runtime_active():
        raise ScenarioError(
            f"protocol {variant!r} is an analysis-only process; runtime "
            "scenarios (loss, churn, dynamic graphs, delay) do not apply"
        )
    n = graph.num_vertices
    batch = source_array.size
    budget = default_max_rounds(n) if max_rounds is None else int(max_rounds)
    if budget < 0:
        raise ProtocolError(f"max_rounds must be non-negative, got {max_rounds}")
    if n == 1:
        return _trivial_batch(variant, graph, source_array, record_times, True)

    metrics = current_metrics()
    flat = flat_adjacency(graph)
    degrees = flat.degrees

    # Live-trial working set, compacted as trials finish (see the
    # synchronous kernel): finished trials stop consuming randomness.
    live_ids = np.arange(batch, dtype=np.int64)
    live_rngs = list(generators) if generators is not None else []
    informed_live = np.zeros((batch, n), dtype=bool)
    informed_live[live_ids, source_array] = True
    informed_live_count = np.ones(batch, dtype=np.int64)
    times_live = None
    final_times = None
    if record_times:
        times_live = np.full((batch, n), np.inf)
        times_live[live_ids, source_array] = 0.0
        final_times = np.empty((batch, n))
    # nbr_count[i, v] = |{w in Γ(v): w informed}| in trial i (round start).
    nbr_count = np.zeros((batch, n), dtype=np.int64)
    _bump_neighbor_counts(nbr_count.reshape(-1), live_ids, source_array, flat, n)

    final_rounds = np.zeros(batch, dtype=np.int64)
    final_informed_count = np.full(batch, n, dtype=np.int64)
    completed = np.zeros(batch, dtype=bool)
    completion_time = np.full(batch, np.inf)

    round_index = 0
    while live_ids.size and round_index < budget:
        round_index += 1
        live = live_ids.size
        if metrics is not None:
            metrics.count("engine.rounds", live)

        # --- Push half: every informed vertex contacts a random neighbor. ---
        rows_p, verts_p = np.nonzero(informed_live)  # row-major = serial's vertex order
        push_u = np.empty(rows_p.size)
        if pooled_rng is not None:
            pooled_rng.random(out=push_u)
        else:
            stop = 0
            for i in range(live):
                # One rng.random(k_informed) per live trial per round — the
                # exact draw the serial engine makes.
                start, stop = stop, stop + int(informed_live_count[i])
                live_rngs[i].random(out=push_u[start:stop])
        contacts = flat.random_neighbors(verts_p, push_u)
        informed_flat = informed_live.reshape(-1)
        hit = ~informed_flat[rows_p * n + contacts]
        push_rows = rows_p[hit]
        push_verts = contacts[hit]

        # --- Pull half: uninformed vertices pull with the variant's probability. ---
        rows_c, verts_c = np.nonzero(~informed_live & (nbr_count > 0))
        cand_counts = np.bincount(rows_c, minlength=live)
        pull_u = np.empty(rows_c.size)
        if pooled_rng is not None:
            pooled_rng.random(out=pull_u)
        else:
            stop = 0
            for i in range(live):
                start, stop = stop, stop + int(cand_counts[i])
                live_rngs[i].random(out=pull_u[start:stop])
        k = nbr_count[rows_c, verts_c]
        pulled = pull_u < pull_probabilities(variant, k, degrees[verts_c])
        pull_rows = rows_c[pulled]
        pull_verts = verts_c[pulled]
        if pooled_rng is None and pull_rows.size:
            # The serial engine draws a uniform informed parent per pulling
            # vertex (rng.integers(k)); informing times never depend on the
            # choice, but the draws must be consumed for stream alignment.
            bounds = k[pulled]
            pull_counts = np.bincount(pull_rows, minlength=live)
            stop = 0
            for i in range(live):
                start, stop = stop, stop + int(pull_counts[i])
                if stop > start:
                    # repro: allow[RNG002] -- zero-count skip only: integers() over an empty bounds slice consumes no stream, so the guard cannot reorder draws
                    live_rngs[i].integers(0, bounds[start:stop])

        # --- Commit: pulls and pushes both stamp this round's timestamp. ---
        new_mask = np.zeros((live, n), dtype=bool)
        new_mask[pull_rows, pull_verts] = True
        new_mask[push_rows, push_verts] = True
        if times_live is not None:
            times_live[new_mask] = float(round_index)
        informed_live |= new_mask
        rows_n, verts_n = np.nonzero(new_mask)
        _bump_neighbor_counts(nbr_count.reshape(-1), rows_n, verts_n, flat, n)
        informed_live_count = informed_live.sum(axis=1)

        finished = informed_live_count == n
        if finished.any():
            done = np.flatnonzero(finished)
            done_ids = live_ids[done]
            completed[done_ids] = True
            completion_time[done_ids] = float(round_index)
            final_rounds[done_ids] = round_index
            if times_live is not None:
                final_times[done_ids] = times_live[done]
            keep = np.flatnonzero(~finished)
            informed_live = informed_live[keep]
            nbr_count = nbr_count[keep]
            if times_live is not None:
                times_live = times_live[keep]
            informed_live_count = informed_live_count[keep]
            if pooled_rng is None:
                live_rngs = [live_rngs[i] for i in keep]
            live_ids = live_ids[keep]

    if live_ids.size:
        final_rounds[live_ids] = round_index
        final_informed_count[live_ids] = informed_live_count
        if times_live is not None:
            final_times[live_ids] = times_live

    if not completed.all() and on_budget_exhausted == "error":
        _raise_incomplete(variant, graph, final_informed_count, completed, f"{budget} rounds")
    if metrics is not None:
        metrics.count(
            "engine.messages_delivered", int(final_informed_count.sum()) - batch
        )

    return BatchTimes(
        protocol=variant,
        graph_name=graph.name,
        num_vertices=n,
        sources=source_array,
        completed=completed,
        completion_time=completion_time,
        informed_time=final_times,
        rounds=final_rounds,
        steps=None,
    )


# ---------------------------------------------------------------------- #
# Clock-queue asynchronous views (node_clocks / edge_clocks)
# ---------------------------------------------------------------------- #
def _run_clock_view_pooled(
    graph: Graph,
    source_array: np.ndarray,
    mode: str,
    pooled_rng: np.random.Generator,
    step_budget: int,
    time_budget: float,
    record_times: bool,
    on_budget_exhausted: str,
    chunk: int,
    protocol_name: str,
    parts: Optional["_ScenarioParts"] = None,
    kern: Optional[ModuleType] = None,
) -> BatchTimes:
    """The chunked pooled-RNG fast path shared by both clock-queue views.

    The per-trial kernel must keep the next-tick table and follow each
    trial's serial draw sequence, because serial draw-order equivalence
    pins exactly that sequence.  Pooled mode only promises
    agreement *in distribution*, and in distribution both views are the
    same superposed Poisson process: every vertex ticks at rate 1 under
    ``node_clocks``, and under ``edge_clocks`` each caller's pair clocks
    (rate ``1/deg(v)`` each) also sum to rate 1 per vertex — so successive
    events arrive with ``Exp(1/n)`` gaps, a uniformly random caller, and a
    uniformly random neighbor as callee (the view equivalence of
    :mod:`repro.experiments.view_equivalence`).  That lets this path
    pre-draw the whole randomness of the next ``chunk`` ticks as three
    ``(B, chunk)`` blocks — gaps, callers, neighbor uniforms — resolve the
    callee matrix in one vectorised gather, and run a lean per-tick loop
    with no RNG calls and no argmin over the next-tick table at all.

    Runtime scenarios keep the same shape: a :class:`~repro.scenarios.Delay`
    reweights the superposition (per-trial total rate, weighted caller
    draws resolved at block-refill time), loss/burst-loss add one uniform
    block, and churn updates fire inside the column loop at each trial's
    epoch boundaries.  Dynamic graphs never reach this path (the callee
    blocks above are resolved against one fixed CSR); the dispatcher routes
    them through the unchunked pooled table loop instead.
    """
    n = graph.num_vertices
    batch = source_array.size
    flat = flat_adjacency(graph)
    degrees = flat.degrees
    start = flat.indptr[:-1]
    indices = flat.indices
    mode_pp = mode == "push-pull"
    push_allowed = mode in ("push", "push-pull")
    finite_time_budget = np.isfinite(time_budget)
    scale = 1.0 / n  # mean gap of the superposed rate-n tick process

    if parts is None:
        parts = _ScenarioParts(None)
    if kern is None:
        kern = resolve_backend(None)
    metrics = current_metrics()
    if metrics is not None:
        metrics.gauge("engine.backend", kern.BACKEND_NAME)
    burst = parts.burst
    # Under a Delay every vertex v ticks at rate r_v (node clocks) — and
    # its edge-view pair clocks, rate r_v/deg(v) each, superpose to the
    # same r_v — so the pooled process has per-trial total rate sum(r_v)
    # and rate-weighted callers.
    rates_cum = None
    rates_total = None
    trial_scales = None
    if parts.delay is not None:
        rates = np.stack(
            [parts.delay.draw_rates(graph, pooled_rng) for _ in range(batch)]
        )
        rates_cum = np.cumsum(rates, axis=1)
        rates_total = rates_cum[:, -1].copy()
        trial_scales = 1.0 / rates_total
    up = parts.initial_up(graph, batch)
    parts.init_adaptive(graph, batch)
    bad = np.zeros(batch, dtype=bool) if burst is not None else None
    next_epoch = np.ones(batch) if parts.needs_epochs else None

    informed = np.zeros((batch, n), dtype=bool)
    trial_rows = np.arange(batch, dtype=np.int64)
    informed[trial_rows, source_array] = True
    num_informed = np.ones(batch, dtype=np.int64)
    times = None
    if record_times:
        times = np.full((batch, n), np.inf)
        times[trial_rows, source_array] = 0.0
    now = np.zeros(batch)
    steps = np.zeros(batch, dtype=np.int64)
    completed = np.zeros(batch, dtype=bool)
    completion_time = np.full(batch, np.inf)

    live = num_informed < n
    while True:
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        # Live trials all hold the same tick count: every live trial
        # executes one tick per column and leaves the set when it retires,
        # so one scalar tracks the remaining step budget for the block.
        executed = int(steps[rows[0]])
        remaining = step_budget - executed
        if remaining <= 0:
            live[rows] = False
            break
        width = min(chunk, remaining)
        if trial_scales is None:
            gaps = pooled_rng.exponential(scale, (rows.size, width))
        else:
            gaps = pooled_rng.exponential(
                trial_scales[rows][:, None], (rows.size, width)
            )
        tick_times = np.cumsum(gaps, axis=1)
        tick_times += now[rows][:, None]
        if rates_cum is None:
            callers = pooled_rng.integers(0, n, (rows.size, width))
        else:
            caller_uniforms = pooled_rng.random((rows.size, width))
            callers = np.empty((rows.size, width), dtype=np.int64)
            for j, b in enumerate(rows):
                callers[j] = np.minimum(
                    np.searchsorted(
                        rates_cum[b], caller_uniforms[j] * rates_total[b], side="right"
                    ),
                    n - 1,
                )
        uniforms = pooled_rng.random((rows.size, width))
        loss_block = pooled_rng.random((rows.size, width)) if parts.lossy else None
        deg = degrees[callers]
        offsets = (uniforms * deg).astype(np.int64)
        np.minimum(offsets, deg - 1, out=offsets)
        callees = indices[start[callers] + offsets]

        # Everything random about the block is resolved; the backend's
        # consumer walks its columns and mutates the per-trial state in
        # place (only epoch crossings still draw, from the pooled
        # generator — the jit backend delegates those blocks to numpy).
        informed_before = int(num_informed.sum()) if metrics is not None else 0
        kern.clock_chunk_consume(
            rows, executed, width, tick_times, callers, callees, loss_block,
            informed, times, num_informed, steps, completed, completion_time,
            live, now, n, time_budget, finite_time_budget, mode_pp,
            push_allowed, parts, bad, up, next_epoch, pooled_rng,
        )
        if metrics is not None:
            metrics.count("engine.drain_returns")
            metrics.count(
                "engine.messages_delivered", int(num_informed.sum()) - informed_before
            )

    if not completed.all() and on_budget_exhausted == "error":
        _raise_incomplete(
            protocol_name,
            graph,
            num_informed,
            completed,
            f"{step_budget} steps / time {time_budget}",
        )
    if metrics is not None:
        total_ticks = int(steps.sum())
        metrics.count("engine.clock_ticks", total_ticks)
        metrics.count("engine.messages_attempted", total_ticks)
    parts.record_budget_spent(metrics)
    return BatchTimes(
        protocol=protocol_name,
        graph_name=graph.name,
        num_vertices=n,
        sources=source_array,
        completed=completed,
        completion_time=completion_time,
        informed_time=times,
        rounds=None,
        steps=steps,
    )


class _TickDraws:
    """The draw source of the clock-view table loop.

    ``uniform`` and ``exponential`` return one value per live row, in row
    order; ``retire`` drops the rows where ``keep`` is false.  A source
    that serves only trials drawing no uniforms leaves ``uniform`` out.
    """

    __slots__ = ()

    def uniform(self) -> np.ndarray:
        raise NotImplementedError

    def exponential(self) -> np.ndarray:
        raise NotImplementedError

    def retire(self, keep: np.ndarray) -> None:
        raise NotImplementedError


class _ScalarDraws(_TickDraws):
    """Per-tick scalar draws of the live trials' own generators, in row order.

    Each call draws one value per live row; the generators are independent,
    so drawing every row's neighbor uniform before every row's reschedule
    keeps each generator's own sequence in the serial per-tick order.
    """

    __slots__ = ("uniforms", "exponentials")

    def __init__(self, generators: Sequence[np.random.Generator]) -> None:
        self.uniforms = [generator.random for generator in generators]
        self.exponentials = [generator.standard_exponential for generator in generators]

    def uniform(self) -> np.ndarray:
        return np.array([draw() for draw in self.uniforms])

    def exponential(self) -> np.ndarray:
        return np.array([draw() for draw in self.exponentials])

    def retire(self, keep: np.ndarray) -> None:
        self.uniforms = list(compress(self.uniforms, keep))
        self.exponentials = list(compress(self.exponentials, keep))


class _PooledDraws(_TickDraws):
    """Per-tick draws of one shared generator, one value per live row."""

    __slots__ = ("rng", "size")

    def __init__(self, rng: np.random.Generator, size: int) -> None:
        self.rng = rng
        self.size = size

    def uniform(self) -> np.ndarray:
        return self.rng.random(self.size)

    def exponential(self) -> np.ndarray:
        return self.rng.standard_exponential(self.size)

    def retire(self, keep: np.ndarray) -> None:
        self.size = int(np.count_nonzero(keep))


class _BlockDraws(_TickDraws):
    """Reschedule exponentials drawn ``_CLOCK_BLOCK`` ticks ahead per trial.

    Serves trials whose per-tick stream is the reschedule exponential alone
    (the edge view without loss draws or churn-epoch draws).  Every live row
    takes one tick per loop iteration, so all rows consume the same block
    column and refill together.  ``standard_exponential(k)`` makes the same
    draws as ``k`` scalar calls, so a column times the clock's scale is the
    serial engine's ``exponential(scale)``.  A retiring row gets its
    generator state from the refill back and redraws exactly the columns it
    consumed, so no over-drawn value leaks into its end state.
    """

    __slots__ = ("generators", "block", "column", "saved")

    def __init__(self, generators: Sequence[np.random.Generator]) -> None:
        self.generators = list(generators)
        self.block = np.empty((len(self.generators), 0))
        self.column = 0
        self.saved: list = []

    def exponential(self) -> np.ndarray:
        if self.column == self.block.shape[1]:
            self.saved = [generator.bit_generator.state for generator in self.generators]
            self.block = np.empty((len(self.generators), _CLOCK_BLOCK))
            for row, generator in zip(self.block, self.generators):
                generator.standard_exponential(out=row)
            self.column = 0
        values = self.block[:, self.column]
        self.column += 1
        return values

    def retire(self, keep: np.ndarray) -> None:
        if self.column < self.block.shape[1]:
            for j in np.flatnonzero(~keep):
                generator = self.generators[j]
                generator.bit_generator.state = self.saved[j]
                generator.standard_exponential(self.column)
            self.saved = list(compress(self.saved, keep))
        self.generators = list(compress(self.generators, keep))
        self.block = self.block[keep]


def _retire_rows(
    keep: np.ndarray,
    rows: np.ndarray,
    table: np.ndarray,
    draws: _TickDraws,
    n: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shrink the live rows, their table and their draws to ``keep``.

    Returns the new rows, table, flat table offset of each row, and flat
    ``(B, n)`` offset of each row.
    """
    draws.retire(keep)
    rows = rows[keep]
    table = table[keep]
    return rows, table, np.arange(rows.size) * table.shape[1], rows * n


def run_clock_view_batch(
    graph: Graph,
    sources: Union[int, Sequence[int], np.ndarray],
    *,
    mode: str = "push-pull",
    view: str = "node_clocks",
    rngs: Optional[Sequence[np.random.Generator]] = None,
    trials: Optional[int] = None,
    seed: SeedLike = None,
    max_steps: Optional[int] = None,
    max_time: Optional[float] = None,
    record_times: bool = True,
    on_budget_exhausted: str = "error",
    scenario: ScenarioLike = None,
    pooled_rng: Optional[np.random.Generator] = None,
    pooled_chunk: Optional[int] = None,
    backend: Optional[str] = None,
) -> BatchTimes:
    """Simulate a batch of asynchronous trials under a clock-queue view.

    The serial engine realises the ``"node_clocks"`` and ``"edge_clocks"``
    views with a priority queue of next-tick times; the batched kernel keeps
    the same next-tick table as a ``(live, #clocks)`` matrix and replaces
    the heap pop with a vectorised per-row ``argmin`` — with continuous tick
    times the minimum entry *is* the heap's next event (ties have measure
    zero, and both resolutions pick the lowest index), so the event sequence
    is identical.  Every loop iteration advances all live trials by one
    tick, with the rumor exchange vectorised across trials.  The table
    holds only the live trials, in ascending trial order, and shrinks when
    trials retire, so the per-tick ``argmin``, tick-time gather and
    reschedule scatter touch it in place; scenario state, informed sets and
    times stay indexed by absolute trial.

    Per-trial randomness follows the serial draw order exactly: ``Delay``
    rates first (when present), then the initial next-tick table as one
    ``exponential`` block per trial (``n`` rate-``r_v`` clocks for
    ``node_clocks``; one rate-``r_v/deg(v)`` clock per ordered adjacent
    pair, in the serial pair order, for ``edge_clocks``), then per tick the
    epoch/resample boundary draws crossed since the previous event followed
    by the tick's own draws — neighbor uniform (``node_clocks`` only), loss
    uniform (when a loss or burst-loss component is present), reschedule
    exponential — so fixed-seed results agree trial-for-trial with
    :func:`~repro.core.async_engine.run_asynchronous`, scenarios included,
    and every generator ends in the serial engine's end state.

    Where a trial's per-tick stream is the reschedule exponential alone —
    ``edge_clocks`` without loss and without churn-epoch draws — the kernel
    draws ``_CLOCK_BLOCK`` standard exponentials per trial at a time (the
    same draws as that many scalar calls, and ``exponential(s)`` is
    ``s * standard_exponential()``) and all live trials consume one block
    column per tick.  A retiring trial restores its generator state from
    the last refill and redraws exactly the columns it consumed.  The node
    view interleaves a neighbor uniform with each reschedule, which no block
    call reproduces, so it keeps per-tick scalar draws (as does the edge
    view under loss or churn).

    Every runtime scenario applies under both views except a dynamic graph
    under ``edge_clocks`` (the serial engine rejects it with the same
    error: resampling would change the per-pair clock set itself).  Under
    ``node_clocks`` a dynamic graph rides the per-trial padded stacked CSR
    (:class:`_TrialGraphs`); the clocks themselves are graph independent
    and are never redrawn.

    **Pooled fast path.**  With ``pooled_rng`` the serial draw order no
    longer constrains the kernel, and the per-tick scalar draws are chunked
    into ``(B, chunk)`` blocks drawn ahead of time (see
    :func:`_run_clock_view_pooled` — both views are, in distribution, the
    same superposed Poisson process, so the next-tick table and its per-row
    ``argmin`` disappear entirely).  ``pooled_chunk`` sets the block width
    (default 4096 ticks); ``pooled_chunk=0`` keeps the legacy unchunked
    pooled loop over the next-tick table, which draws per tick — it exists
    as the benchmark baseline for the fast path.  A dynamic-graph scenario
    also runs through the unchunked pooled loop (its pre-resolved callee
    blocks assume a fixed graph).  Pooled samples agree with the per-trial
    modes in distribution only (KS-tested in the suite).

    Args: as :func:`run_asynchronous_batch`, plus ``view`` and
        ``pooled_chunk``.  ``backend`` applies to the chunked pooled fast
        path only (its consumer is a :mod:`repro.core.kernels` kernel, and
        both backends produce identical results there); the per-trial and
        unchunked pooled table loops are pinned to the serial draw order
        and always run the numpy path.

    Returns:
        A :class:`~repro.core.result.BatchTimes` with continuous times.
    """
    if view not in CLOCK_VIEWS:
        raise ProtocolError(
            f"run_clock_view_batch serves the views {CLOCK_VIEWS}, got {view!r}"
        )
    scenario = as_scenario(scenario)
    if scenario is not None and scenario.dynamic is not None and view == "edge_clocks":
        raise ScenarioError(
            "dynamic-graph scenarios are not supported under the 'edge_clocks' "
            "view: resampling the graph would change the per-pair clock set "
            "itself; use the 'node_clocks' or 'global' view"
        )
    parts = _ScenarioParts(scenario)
    source_array, generators = _prepare(
        graph, sources, mode, ASYNC_MODES, rngs, trials, seed, on_budget_exhausted, pooled_rng
    )
    protocol_name = _ASYNC_MODE_NAMES[mode]
    n = graph.num_vertices
    batch = source_array.size
    step_budget = default_max_steps(n) if max_steps is None else int(max_steps)
    if step_budget < 0:
        raise ProtocolError(f"max_steps must be non-negative, got {max_steps}")
    time_budget = np.inf if max_time is None else float(max_time)
    if time_budget < 0:
        raise ProtocolError(f"max_time must be non-negative, got {max_time}")
    if pooled_chunk is not None and pooled_chunk < 0:
        raise ProtocolError(f"pooled_chunk must be non-negative, got {pooled_chunk}")
    if pooled_chunk and pooled_rng is None:
        # The chunked block draws exist only where the serial draw order
        # does not constrain the kernel; silently running the per-trial
        # path instead would time/benchmark the wrong kernel.
        raise ProtocolError(
            "pooled_chunk requires pooled_rng (the per-trial path is pinned "
            "to the serial draw order and cannot chunk its draws)"
        )
    if n == 1:
        return _trivial_batch(protocol_name, graph, source_array, record_times, False)
    if pooled_rng is not None and pooled_chunk != 0 and parts.dynamic is None:
        return _run_clock_view_pooled(
            graph,
            source_array,
            mode,
            pooled_rng,
            step_budget,
            time_budget,
            record_times,
            on_budget_exhausted,
            _POOLED_CLOCK_CHUNK if pooled_chunk is None else int(pooled_chunk),
            protocol_name,
            parts,
            kern=resolve_backend(backend),
        )

    flat = flat_adjacency(graph)
    degrees = flat.degrees
    node_view = view == "node_clocks"
    # The next-tick table loops are pinned to the serial draw order and
    # always run on the numpy path (see the docstring).
    metrics = current_metrics()
    if metrics is not None:
        metrics.gauge("engine.backend", "numpy")

    # Delay rates are the first randomness each trial consumes (before the
    # initial next-tick block), matching the serial engine.
    rates = None
    node_scales = None
    if parts.delay is not None:
        rates = np.stack(
            [
                parts.delay.draw_rates(
                    graph, pooled_rng if pooled_rng is not None else generators[b]
                )
                for b in range(batch)
            ]
        )
        node_scales = 1.0 / rates  # (B, n): mean gap of each vertex clock

    pair_caller = pair_callee = pair_scale = None
    if node_view:
        # One rate-r_v clock per vertex (r_v = 1 without a Delay): the
        # first ticks are the serial engine's initial exponential block.
        next_tick = np.empty((batch, n))
        if pooled_rng is not None:
            if node_scales is None:
                next_tick[:] = pooled_rng.exponential(1.0, (batch, n))
            else:
                next_tick[:] = pooled_rng.exponential(node_scales)
        else:
            for b in range(batch):
                if node_scales is None:
                    next_tick[b] = generators[b].exponential(1.0, n)
                else:
                    next_tick[b] = generators[b].exponential(node_scales[b])
    else:
        # One clock per ordered pair (v, w) with rate r_v/deg(v).  The pair
        # order (v ascending, neighbors in adjacency order) is exactly the
        # flat CSR layout, and a single array-scale exponential call draws
        # the same stream as the serial engine's per-pair scalar draws.
        pair_caller = np.repeat(np.arange(n, dtype=np.int64), degrees)
        pair_callee = flat.indices
        pair_scale = degrees[pair_caller].astype(float)
        if rates is not None:
            # (B, #pairs): each trial's own rates reweight its pair clocks.
            pair_scale = pair_scale[None, :] / rates[:, pair_caller]
        next_tick = np.empty((batch, pair_caller.size))
        if pooled_rng is not None:
            if rates is None:
                next_tick[:] = pooled_rng.exponential(
                    pair_scale, (batch, pair_caller.size)
                )
            else:
                next_tick[:] = pooled_rng.exponential(pair_scale)
        else:
            for b in range(batch):
                next_tick[b] = generators[b].exponential(
                    pair_scale if rates is None else pair_scale[b]
                )

    informed = np.zeros((batch, n), dtype=bool)
    trial_rows = np.arange(batch, dtype=np.int64)
    informed[trial_rows, source_array] = True
    num_informed = np.ones(batch, dtype=np.int64)
    times = None
    if record_times:
        times = np.full((batch, n), np.inf)
        times[trial_rows, source_array] = 0.0
    steps = np.zeros(batch, dtype=np.int64)
    completed = np.zeros(batch, dtype=bool)
    completion_time = np.full(batch, np.inf)
    finite_time_budget = np.isfinite(time_budget)
    mode_pp = mode == "push-pull"
    push_allowed = mode in ("push", "push-pull")

    # Scenario state, indexed by absolute trial row: see
    # run_asynchronous_batch.  Dynamic graphs only reach the node view
    # (edge_clocks rejected above) and never touch the next-tick table —
    # vertex clocks are graph independent.
    burst = parts.burst
    dynamic = parts.dynamic
    lossy = parts.lossy
    up = parts.initial_up(graph, batch)
    parts.init_adaptive(graph, batch)
    bad = np.zeros(batch, dtype=bool) if burst is not None else None
    next_epoch = np.ones(batch) if parts.needs_epochs else None
    next_resample = (
        np.full(batch, float(dynamic.period)) if dynamic is not None else None
    )
    trial_graphs = _TrialGraphs(graph, batch) if dynamic is not None else None
    draws: _TickDraws
    if pooled_rng is not None:
        draws = _PooledDraws(pooled_rng, batch)
    elif node_view or lossy or parts.churn_updates:
        # The tick's uniforms (or epoch draws) interleave with its
        # reschedule, which no block call reproduces.
        draws = _ScalarDraws(generators)
    else:
        draws = _BlockDraws(generators)

    # The live trials (absolute ids, ascending) and the next-tick table
    # aligned with them; both shrink only when trials retire.  Every live
    # trial takes one tick per iteration, so `executed` is each one's step
    # count.
    rows = np.arange(batch, dtype=np.int64)
    table = next_tick
    slot_base = rows * table.shape[1]
    cell_base = rows * n
    executed = 0
    while rows.size:
        if executed >= step_budget:
            # The serial while-condition checks the step budget before each pop.
            steps[rows] = executed
            draws.retire(np.zeros(rows.size, dtype=bool))
            break
        idx = table.argmin(axis=1)
        tick_time = table.take(slot_base + idx)
        if finite_time_budget:
            over = tick_time > time_budget
            if over.any():
                # Serial pops the over-budget event and stops without drawing.
                steps[rows[over]] = executed
                keep = ~over
                rows, table, slot_base, cell_base = _retire_rows(
                    keep, rows, table, draws, n
                )
                if rows.size == 0:
                    break
                idx = idx[keep]
                tick_time = tick_time[keep]
        if next_epoch is not None or next_resample is not None:
            # Boundaries crossed in (previous event, now] fire before the
            # exchange, chronologically, epoch before resample on ties —
            # the serial engine's interleaved draws.
            if next_epoch is None:
                bound = next_resample.take(rows)
            elif next_resample is None:
                bound = next_epoch.take(rows)
            else:
                bound = np.minimum(next_epoch.take(rows), next_resample.take(rows))
            crossing = tick_time >= bound
            if crossing.any():
                for b, t in zip(rows[crossing], tick_time[crossing]):
                    rng = pooled_rng if pooled_rng is not None else generators[b]
                    parts.cross_boundaries(
                        b, t, rng, n, up, bad, next_epoch, next_resample,
                        trial_graphs, informed,
                    )
        executed += 1
        # The tick's draws in the serial order: neighbor uniform (node view
        # only), loss uniform (when lossy), reschedule exponential.
        if node_view:
            u = draws.uniform()
        loss_u = draws.uniform() if lossy else None
        resched = draws.exponential()
        if node_view:
            caller = idx
            if trial_graphs is not None:
                callee = trial_graphs.callees(rows, caller, u)
            else:
                deg = degrees.take(caller)
                offsets = (u * deg).astype(np.int64)
                np.minimum(offsets, deg - 1, out=offsets)
                callee = flat.indices.take(flat.indptr.take(caller) + offsets)
            if node_scales is not None:
                resched = resched * node_scales.take(cell_base + caller)
        else:
            caller = pair_caller.take(idx)
            callee = pair_callee.take(idx)
            pairs = idx if rates is None else rows * pair_caller.size + idx
            resched = resched * pair_scale.take(pairs)
        table.put(slot_base + idx, tick_time + resched)

        caller_cells = cell_base + caller
        callee_cells = cell_base + callee
        caller_informed = informed.take(caller_cells)
        callee_informed = informed.take(callee_cells)
        if mode_pp:
            active = caller_informed != callee_informed
            targets = np.where(caller_informed, callee_cells, caller_cells)
        elif push_allowed:
            active = caller_informed & ~callee_informed
            targets = callee_cells
        else:
            active = ~caller_informed & callee_informed
            targets = caller_cells
        if loss_u is not None and parts.adaptive_loss is None:
            active &= loss_u >= parts.loss_threshold(bad, rows)
        if up is not None:
            # Crashed endpoints suppress the exchange in either direction.
            active &= up.take(caller_cells) & up.take(callee_cells)
        if parts.adaptive_loss is not None:
            # At this point `active` is exactly the would-transmit mask
            # (informative direction between two up vertices): jam those
            # whose pre-drawn loss uniform fires, while budget remains.
            jam = active & (loss_u < parts.adaptive_loss.p) & (
                parts.jam_budget[rows] > 0
            )
            if jam.any():
                parts.jam_budget[rows[jam]] -= 1
                active &= ~jam
        if active.any():
            hit = np.flatnonzero(active)
            hit_rows = rows[hit]
            hit_cells = targets[hit]
            informed.put(hit_cells, True)
            if times is not None:
                times.put(hit_cells, tick_time[hit])
            num_informed[hit_rows] += 1
            full = num_informed[hit_rows] == n
            if full.any():
                done = hit[full]
                done_rows = hit_rows[full]
                completed[done_rows] = True
                completion_time[done_rows] = tick_time[done]
                steps[done_rows] = executed
                keep = np.ones(rows.size, dtype=bool)
                keep[done] = False
                rows, table, slot_base, cell_base = _retire_rows(
                    keep, rows, table, draws, n
                )

    if not completed.all() and on_budget_exhausted == "error":
        _raise_incomplete(
            protocol_name,
            graph,
            num_informed,
            completed,
            f"{step_budget} steps / time {time_budget}",
        )
    if metrics is not None:
        total_ticks = int(steps.sum())
        metrics.count("engine.clock_ticks", total_ticks)
        metrics.count("engine.messages_attempted", total_ticks)
        metrics.count("engine.messages_delivered", int(num_informed.sum()) - batch)
    parts.record_budget_spent(metrics)
    return BatchTimes(
        protocol=protocol_name,
        graph_name=graph.name,
        num_vertices=n,
        sources=source_array,
        completed=completed,
        completion_time=completion_time,
        informed_time=times,
        rounds=None,
        steps=steps,
    )


# ---------------------------------------------------------------------- #
# Uniform entry point
# ---------------------------------------------------------------------- #
def run_batch(
    graph: Graph,
    sources: Union[int, Sequence[int], np.ndarray],
    protocol: str = "pp",
    *,
    rngs: Optional[Sequence[np.random.Generator]] = None,
    trials: Optional[int] = None,
    seed: SeedLike = None,
    record_times: bool = True,
    scenario: ScenarioLike = None,
    pooled_rng: Optional[np.random.Generator] = None,
    **options: object,
) -> BatchTimes:
    """Run a batch of trials of any batchable protocol.

    The batched analogue of :func:`repro.core.protocols.spread`: dispatches
    on the canonical protocol name to the synchronous, asynchronous (any of
    the three views), or auxiliary-process batch kernel.  ``options`` are
    forwarded to the kernel (``max_rounds`` / ``max_steps`` / ``max_time`` /
    ``view`` / ``on_budget_exhausted`` / ``backend``).  ``scenario`` applies a
    :mod:`repro.scenarios` adversity model; note that source strategies are
    *not* applied here (``sources`` is explicit — use
    :func:`~repro.analysis.montecarlo.run_trials` or
    :func:`~repro.core.protocols.spread` for that).  ``pooled_rng`` switches
    to the pooled single-generator mode (see the module docstring).
    """
    metrics = current_metrics()
    if metrics is not None:
        metrics.count("engine.kernel_invocations")
    if protocol in AUX_BATCH_PROTOCOLS:
        return run_auxiliary_batch(
            graph,
            sources,
            variant=protocol,
            rngs=rngs,
            trials=trials,
            seed=seed,
            record_times=record_times,
            scenario=scenario,
            pooled_rng=pooled_rng,
            **options,
        )
    if protocol in SYNC_BATCH_PROTOCOLS:
        return run_synchronous_batch(
            graph,
            sources,
            mode=SYNC_BATCH_PROTOCOLS[protocol],
            rngs=rngs,
            trials=trials,
            seed=seed,
            record_times=record_times,
            scenario=scenario,
            pooled_rng=pooled_rng,
            **options,
        )
    if protocol in ASYNC_BATCH_PROTOCOLS:
        view = options.pop("view", "global")
        if view in CLOCK_VIEWS:
            return run_clock_view_batch(
                graph,
                sources,
                mode=ASYNC_BATCH_PROTOCOLS[protocol],
                view=view,
                rngs=rngs,
                trials=trials,
                seed=seed,
                record_times=record_times,
                scenario=scenario,
                pooled_rng=pooled_rng,
                **options,
            )
        if view != "global":
            raise ProtocolError(
                f"unknown asynchronous view {view!r}; expected one of {ASYNC_VIEWS}"
            )
        return run_asynchronous_batch(
            graph,
            sources,
            mode=ASYNC_BATCH_PROTOCOLS[protocol],
            rngs=rngs,
            trials=trials,
            seed=seed,
            record_times=record_times,
            scenario=scenario,
            pooled_rng=pooled_rng,
            **options,
        )
    raise ProtocolError(
        f"protocol {protocol!r} has no batched kernel; batchable protocols: "
        f"{sorted(SYNC_BATCH_PROTOCOLS) + sorted(ASYNC_BATCH_PROTOCOLS) + sorted(AUX_BATCH_PROTOCOLS)}"
    )
