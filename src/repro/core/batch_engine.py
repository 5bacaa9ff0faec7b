"""Batched simulation kernels: run ``B`` Monte Carlo trials as one 2-D job.

Every quantity the paper reasons about — the expectation of the spreading
time ``T(alg, G, u)`` (Theorem 2) and its ``1 - 1/n`` quantile (Theorem 1) —
is a property of a *distribution*, so the real workload is thousands of
independent trials per (protocol, graph, source) cell.  Running those trials
one :func:`~repro.core.sync_engine.run_synchronous` call at a time pays the
full Python-level per-round overhead and the per-vertex
:class:`~repro.core.result.SpreadingResult` materialization once per trial.

:func:`run_batch` instead simulates ``B`` trials *simultaneously* as
``(B, n)`` NumPy arrays.  It is the one entry point: it validates a call
once (protocol, options, scenario, budgets, sources, generators), resolves
the kernel backend, runs one of five private loop bodies, and builds the
times-only result.  The bodies, by kernel family:

* **Synchronous rounds** (``pp``/``push``/``pull``, :func:`_sync_rounds`) —
  one round-step call per round covers every live trial, after each trial
  drew its full ``random(n)`` contact block; on a wide round whose smaller
  status class is small the numpy step resolves only the callers next to
  it (see :mod:`repro.core.kernels.numpy_backend`).  Finished trials leave
  the working set (they stop consuming randomness, exactly like a serial
  run that returned).
* **Auxiliary rounds** (``ppx``/``ppy`` of Definitions 5 and 7,
  :func:`_aux_rounds`) — informed-neighbor counts are a ``(B, n)`` integer
  matrix and the per-vertex pull probabilities come from the shared
  vectorised :func:`~repro.core.aux_processes.pull_probabilities`.
* **The global tick loop** (the asynchronous trio under the ``"global"``
  view with per-trial generators, :func:`_async_ticks`) — per-trial
  exponential time accumulators and randomness buffers; the numpy backend
  moves the live trials in lockstep, one tick each per column, and
  resolves every refill in blocks of ticks for all of them at once, with
  the rumor exchange vectorised across trials.
* **The clock-view table loop** (``"node_clocks"`` and ``"edge_clocks"``
  with per-trial generators, :func:`_clock_table`) — the serial priority
  queue becomes a next-tick matrix with one row per live trial, whose
  per-row ``argmin`` is the next event (identical to the heap pop —
  continuous tick times tie with probability zero), so batched next-event
  simulation stays exact.
* **Pooled chunks** (the asynchronous trio with a pooled generator, every
  view, static or dynamic graph, :func:`_pooled_clock_chunks`) — see
  *Pooled RNG mode*.

**Exact serial equivalence.**  Each trial owns its own
:class:`numpy.random.Generator` and the bodies consume randomness from it
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
body).

**Adversity scenarios.**  Every body accepts the ``scenario=`` argument
of :mod:`repro.scenarios` and implements the perturbations as vectorised
``(B, n)`` masks, consuming per-trial scenario randomness in the same
documented order as the serial engines (resample → churn → burst →
contacts → loss; ``Delay`` rates once at trial start), so fixed-seed
serial/batch agreement holds under scenarios too.  The synchronous rounds
cover loss (independent or bursty), churn (random, targeted, or adaptive),
adaptive jamming, and dynamic graphs; the asynchronous bodies cover all of
those plus ``Delay``.  Every body but the auxiliary rounds carries dynamic
graphs as one *per-trial padded* stacked CSR (:class:`_TrialGraphs`) whose
rows are replaced independently, at the shared round boundary or at each
trial's own period boundary in simulated time.
:func:`run_batch` rejects what the serial engines reject (see :func:`is_batchable`):
a ``Delay`` on a synchronous protocol, a dynamic graph under the
``"edge_clocks"`` view (resampling would change the per-pair clock set
itself), and any runtime scenario on ``ppx``/``ppy``.

**Pooled RNG mode.**  Passing ``pooled_rng=`` replaces the per-trial
generators with one shared generator drawing whole ``(B, n)`` matrices at
once.  This halves the Python-level draw overhead for small ``n`` but gives
up serial equivalence: pooled samples agree with per-trial samples only *in
distribution* (checked by KS tests in the suite).  The asynchronous pooled
mode goes further: freed from the serial draw order,
:func:`_pooled_clock_chunks` pre-draws the randomness of
``_POOLED_CLOCK_CHUNK`` future ticks as ``(B, chunk)`` blocks and keeps no
next-tick table, because the three views are one superposed Poisson process
in distribution.  A pooled asynchronous result therefore does not depend on
the view, and both backends consume the pooled stream in the same order.

**Kernel backends.**  The hot loops themselves — the synchronous round
step, the block-resolved asynchronous tick loop, and the pooled chunk
consumer — live in :mod:`repro.core.kernels` with interchangeable
``"numpy"`` and numba-compiled ``"jit"`` implementations, selected per
call with the ``backend=`` option (default ``"auto"``); see the package
docstring for the per-kernel equivalence guarantees.  The auxiliary rounds
and the clock-view table loop run numpy code only.  The three asynchronous
bodies share one state, an :class:`~repro.core.kernels.AsyncState` that
:func:`_async_state` builds once per run and the kernels take whole; its
methods hold the boundary crossing and the rumor exchange they all use.

The output is a times-only :class:`~repro.core.result.BatchTimes` record:
batched runs never build parents, infection kinds, or traces.  Callers that
need those (coupling experiments, trace debugging) use the serial engines.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from itertools import compress
from types import ModuleType
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.core.async_engine import ASYNC_VIEWS, default_max_steps
from repro.core.aux_processes import pull_probabilities
from repro.core.budgets import (
    check_budget_policy,
    parse_count_budget,
    parse_time_budget,
    scenario_rejection,
)
from repro.core.flatgraph import FlatAdjacency, flat_adjacency
from repro.core.kernels import AsyncState, resolve_backend
from repro.core.result import BatchTimes
from repro.core.sync_engine import default_max_rounds
from repro.errors import ProtocolError, ReproError, SimulationError
from repro.graphs.base import Graph
from repro.randomness.rng import SeedLike, spawn_generators
from repro.scenarios.base import DynamicGraph, Scenario, ScenarioLike, as_scenario
from repro.telemetry.metrics import MetricsRegistry, current_metrics

__all__ = [
    "run_batch",
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

#: Auxiliary processes with a batched body (protocol name == variant).
AUX_BATCH_PROTOCOLS = ("ppx", "ppy")

#: The clock-queue asynchronous views (the ``"global"`` view has its own
#: tick loop).
CLOCK_VIEWS = ("node_clocks", "edge_clocks")

#: Canonical protocol name -> (kernel family, engine mode or aux variant).
_PROTOCOL_FAMILIES = {
    **{name: ("sync", mode) for name, mode in SYNC_BATCH_PROTOCOLS.items()},
    **{name: ("async", mode) for name, mode in ASYNC_BATCH_PROTOCOLS.items()},
    **{name: ("aux", name) for name in AUX_BATCH_PROTOCOLS},
}

#: The options each kernel family takes (beyond ``record_times``).
_FAMILY_OPTIONS = {
    "sync": frozenset({"max_rounds", "on_budget_exhausted", "backend"}),
    "async": frozenset({"max_steps", "max_time", "view", "on_budget_exhausted", "backend"}),
    "aux": frozenset({"max_rounds", "on_budget_exhausted", "backend"}),
}

#: Chunk size of the serial asynchronous global-view engine; the batched
#: kernel must refill per-trial randomness buffers in chunks of exactly this
#: size to reproduce the serial draw order.
_ASYNC_CHUNK = 4096

#: Number of future ticks whose randomness the pooled clock-view chunks
#: draw ahead of time as one ``(B, chunk)`` block per kind.
_POOLED_CLOCK_CHUNK = 4096

#: Reschedule exponentials the per-trial edge-clock loop draws ahead per
#: trial and refill (a 512 KiB block at 64 trials); see :class:`_BlockDraws`.
_CLOCK_BLOCK = 1024


def _rejection(
    protocol: str, options: dict, scenario: Optional[Scenario]
) -> Optional[ReproError]:
    """Why ``protocol`` cannot run as a batch with these options, or ``None``.

    The one decision behind both :func:`is_batchable` and the errors
    :func:`run_batch` raises.  Scenario rejections are the serial engines'
    own (:func:`~repro.core.budgets.scenario_rejection`).
    """
    if protocol not in _PROTOCOL_FAMILIES:
        return ProtocolError(
            f"protocol {protocol!r} has no batched kernel; batchable protocols: "
            f"{sorted(SYNC_BATCH_PROTOCOLS) + sorted(ASYNC_BATCH_PROTOCOLS) + sorted(AUX_BATCH_PROTOCOLS)}"
        )
    family, _ = _PROTOCOL_FAMILIES[protocol]
    taken = _FAMILY_OPTIONS[family]
    misapplied = sorted(set(options) - taken)
    if misapplied:
        return ProtocolError(
            f"protocol {protocol!r} does not take {misapplied}; "
            f"its batch options are {sorted(taken)}"
        )
    view = options.get("view", "global")
    if family == "async" and view not in ASYNC_VIEWS:
        return ProtocolError(
            f"unknown asynchronous view {view!r}; expected one of {ASYNC_VIEWS}"
        )
    return scenario_rejection(
        protocol, scenario,
        synchronous=family != "async", analysis_only=family == "aux", view=view,
    )


def is_batchable(
    protocol: str,
    engine_options: Optional[dict] = None,
    scenario: ScenarioLike = None,
) -> bool:
    """Whether ``protocol`` (with these options and scenario) has a batched kernel.

    Batched kernels cover the six realistic protocols (synchronous and
    asynchronous push / pull / push–pull under all three asynchronous
    views), the auxiliary processes ``ppx``/``ppy``, and the times-only
    options of :func:`run_batch`; anything else — ``record_trace`` included,
    which needs the serial engines' traces — falls back to the serial
    engines.  Every runtime scenario — the adaptive adversaries
    (:class:`~repro.scenarios.AdaptiveCrash`,
    :class:`~repro.scenarios.AdaptiveLoss`) included — batches except where
    the serial engine
    itself rejects the combination (so the fallback path raises the
    descriptive error): a :class:`~repro.scenarios.Delay` on a synchronous
    protocol, a :class:`~repro.scenarios.DynamicGraph` under the
    ``edge_clocks`` view, and any runtime scenario on an auxiliary process.
    :func:`run_batch` raises exactly where this returns ``False``.
    """
    return _rejection(protocol, dict(engine_options or {}), as_scenario(scenario)) is None


def _prepare(
    graph: Graph,
    sources: Union[int, Sequence[int], np.ndarray],
    rngs: Optional[Sequence[np.random.Generator]],
    trials: Optional[int],
    seed: SeedLike,
    on_budget_exhausted: str,
    pooled_rng: Optional[np.random.Generator],
) -> tuple[np.ndarray, Optional[list[np.random.Generator]]]:
    """Validate inputs and normalise (sources, rngs) to per-trial sequences.

    In pooled mode (``pooled_rng`` given) no per-trial generators exist and
    the second return value is ``None``.
    """
    check_budget_policy(on_budget_exhausted)
    if pooled_rng is not None and rngs is not None:
        raise ProtocolError("pass either per-trial rngs or a pooled_rng, not both")
    if trials is not None and not isinstance(trials, numbers.Integral):
        raise ProtocolError(f"trials must be an integer, got {trials!r}")
    source_array = np.asarray(sources)
    if source_array.ndim > 1 or (
        source_array.size and not np.issubdtype(source_array.dtype, np.integer)
    ):
        raise ProtocolError(
            f"sources must be a vertex id or a 1-D sequence of vertex ids, got {sources!r}"
        )
    if source_array.ndim == 0:
        batch = len(rngs) if rngs is not None else trials
        if batch is None:
            raise ProtocolError(
                "with a scalar source, pass per-trial rngs, a pooled_rng with an "
                "explicit trials count, or an explicit trials count"
            )
        if batch < 1:
            raise ProtocolError(f"a batch needs at least one trial, got trials={batch}")
        source_array = np.full(batch, source_array, dtype=np.int64)
    else:
        source_array = source_array.astype(np.int64)
    if source_array.size < 1:
        raise ProtocolError("a batch needs at least one trial")
    if trials is not None and trials != source_array.size:
        given = "sources" if np.ndim(sources) else "generators"
        raise ProtocolError(f"trials={trials} disagrees with the {source_array.size} {given} given")
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

    Every body that runs a dynamic graph keeps it here, one row per trial
    id, replaceable independently (the asynchronous bodies resample at
    *per-trial* simulated times).  Rows are padded to a shared capacity
    (the widest neighbor array seen so far, plus headroom); a resample that
    outgrows it grows the pad for all rows.

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
        # A CSR-built sample is read in place: caching a fresh graph per
        # resample would only evict live entries.  A tuple-built sample goes
        # through the identity-keyed cache, so a resampler that reuses graph
        # objects builds each one's CSR arrays once.
        csr = new_graph.csr()
        flat = (
            FlatAdjacency.from_arrays(*csr)
            if csr is not None
            else flat_adjacency(new_graph)
        )
        needed = flat.indices.size
        if needed > self.width:
            # An eighth of headroom: samples a little over the widest so far
            # do not each copy every row again.
            batch, width = len(self.graphs), needed + needed // 8
            grown = np.zeros(batch * width, dtype=self.indices.dtype)
            view_old = self.indices.reshape(batch, self.width)
            grown.reshape(batch, width)[:, : self.width] = view_old
            self.indices = grown
            self.width = width
        n = self.num_vertices
        self.degrees[row * n : (row + 1) * n] = flat.degrees
        self.rel_start[row * n : (row + 1) * n] = flat.indptr[:-1]
        self.indices[row * self.width : row * self.width + needed] = flat.indices

    def callees(
        self, rows: np.ndarray, callers: np.ndarray, uniforms: np.ndarray
    ) -> np.ndarray:
        """One uniform random neighbor per (trial row, caller) pair; the
        three arrays broadcast together."""
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


# ---------------------------------------------------------------------- #
# What run_batch hands a loop body, and what it gets back
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class _BatchJob:
    """The validated inputs of one :func:`run_batch` call.

    ``budget`` is the round budget of the synchronous and auxiliary
    families and the step budget of the asynchronous one; ``time_budget``
    is infinite for the round-based families.  ``kern`` is the resolved
    backend module (the numpy one for the numpy-only bodies).
    """

    graph: Graph
    sources: np.ndarray
    generators: Optional[list[np.random.Generator]]
    pooled_rng: Optional[np.random.Generator]
    mode: str
    view: str
    record_times: bool
    parts: _ScenarioParts
    kern: ModuleType
    metrics: Optional[MetricsRegistry]
    budget: int
    time_budget: float


class _Outcome(NamedTuple):
    """A loop body's per-trial results."""

    completed: np.ndarray
    completion_time: np.ndarray
    times: Optional[np.ndarray]
    #: rounds (synchronous and auxiliary) or executed ticks (asynchronous)
    counts: np.ndarray
    num_informed: np.ndarray


def _initial_informed(
    n: int, sources: np.ndarray, record_times: bool
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Each trial's informed matrix, informed count and time matrix at t = 0."""
    batch = sources.size
    trial_rows = np.arange(batch, dtype=np.int64)
    informed = np.zeros((batch, n), dtype=bool)
    informed[trial_rows, sources] = True
    times = None
    if record_times:
        times = np.full((batch, n), np.inf)
        times[trial_rows, sources] = 0.0
    return informed, np.ones(batch, dtype=np.int64), times


class _LiveSet:
    """The live-trial working set of the round-based bodies.

    Row ``i`` of the live arrays belongs to trial ``ids[i]``.  When trials
    finish, :meth:`retire` moves their rows into the per-trial final
    storage and compacts the rest, so finished trials stop paying any
    per-round cost (and stop consuming randomness, like a serial run that
    returned).  ``rngs`` is empty in pooled mode.
    """

    __slots__ = (
        "n", "ids", "rngs", "informed", "count", "times",
        "final_times", "rounds", "final_count", "completed", "completion_time",
    )

    def __init__(
        self,
        n: int,
        sources: np.ndarray,
        generators: Optional[list[np.random.Generator]],
        record_times: bool,
    ) -> None:
        batch = sources.size
        self.n = n
        self.ids = np.arange(batch, dtype=np.int64)
        self.rngs = list(generators) if generators is not None else []
        self.informed, self.count, self.times = _initial_informed(n, sources, record_times)
        self.final_times = np.empty((batch, n)) if record_times else None
        self.rounds = np.zeros(batch, dtype=np.int64)
        self.final_count = np.full(batch, n, dtype=np.int64)
        self.completed = np.zeros(batch, dtype=bool)
        self.completion_time = np.full(batch, np.inf)

    def retire(self, round_index: int) -> Optional[np.ndarray]:
        """Retire the trials this round completed; the kept rows, or ``None``."""
        finished = self.count == self.n
        if not finished.any():
            return None
        done = np.flatnonzero(finished)
        done_ids = self.ids[done]
        self.completed[done_ids] = True
        self.completion_time[done_ids] = float(round_index)
        self.rounds[done_ids] = round_index
        keep = np.flatnonzero(~finished)
        if self.times is not None:
            self.final_times[done_ids] = self.times[done]
            self.times = self.times[keep]
        self.informed = self.informed[keep]
        self.count = self.count[keep]
        if self.rngs:
            self.rngs = [self.rngs[i] for i in keep]
        self.ids = self.ids[keep]
        return keep

    def outcome(self, round_index: int) -> _Outcome:
        """The per-trial results; trials still live executed every round."""
        if self.ids.size:
            self.rounds[self.ids] = round_index
            self.final_count[self.ids] = self.count
            if self.times is not None:
                self.final_times[self.ids] = self.times
        return _Outcome(
            self.completed, self.completion_time, self.final_times,
            self.rounds, self.final_count,
        )


# ---------------------------------------------------------------------- #
# Synchronous rounds (pp / push / pull)
# ---------------------------------------------------------------------- #
def _sync_rounds(job: _BatchJob) -> _Outcome:
    """The synchronous round loop.

    Per live trial and round the randomness is drawn in the serial
    engine's order: graph resample (at period boundaries), churn update,
    burst channel draw, one ``random(n)`` contact block, loss uniforms.
    The round itself is the backend's ``sync_round_step``; from a dynamic
    graph's first resample on it is ``sync_round_step_dynamic``, on the
    contacts a :class:`_TrialGraphs` resolves.
    """
    graph, parts, kern, metrics = job.graph, job.parts, job.kern, job.metrics
    pooled_rng = job.pooled_rng
    loss_prob = parts.loss_prob
    burst = parts.burst
    churn = parts.churn
    dynamic = parts.dynamic
    mode = job.mode
    n = graph.num_vertices
    batch = job.sources.size
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

    live_set = _LiveSet(n, job.sources, job.generators, job.record_times)
    # Contact-draw buffer (sliced to the live row count) plus the backend's
    # own round workspace (the numpy kernels preallocate their per-round
    # temporaries there; the jit kernels need none).
    scratch = np.empty((batch, n))
    ws = kern.sync_workspace(batch, n, idx_dtype)

    # Scenario state: per-trial up/down churn matrix, draw buffers for the
    # churn and loss uniforms and per-trial burst channel states, compacted
    # alongside the live set; from a dynamic graph's first resample on, the
    # trials' graphs (by trial id).
    up_live = parts.initial_up(graph, batch)
    parts.init_adaptive(graph, batch)
    churn_buf = np.empty((batch, n)) if parts.churn_updates else None
    loss_buf = np.empty((batch, n)) if parts.lossy else None
    bad_live = np.zeros(batch, dtype=bool) if burst is not None else None
    trial_graphs: Optional[_TrialGraphs] = None

    round_index = 0
    while live_set.ids.size and round_index < job.budget:
        round_index += 1
        live = live_set.ids.size
        live_rngs = live_set.rngs
        informed_live = live_set.informed
        # Scenario randomness order per trial (matching the serial engine):
        # graph resample, churn update, contacts, loss flips.
        if dynamic is not None and round_index > 1 and (round_index - 1) % dynamic.period == 0:
            if trial_graphs is None:
                trial_graphs = _TrialGraphs(graph, batch)
            for i, row in enumerate(live_set.ids.tolist()):
                rng_i = pooled_rng if pooled_rng is not None else live_rngs[i]
                trial_graphs.resample(row, dynamic, rng_i)
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
        contacts = None
        if trial_graphs is not None:
            contacts = trial_graphs.callees(live_set.ids[:, None], np.arange(n), draws)
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
                callees = contacts
                if callees is None:
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
            # Like the serial engine: a crashed caller attempts no contact.
            metrics.count(
                "engine.messages_attempted",
                live * n if up_live is None else int(np.count_nonzero(up_live)),
            )
            if kept is not None:
                # Only the callers that are up attempt a contact to lose.
                lost = ~kept if up_live is None else up_live & ~kept
                metrics.count("engine.messages_lost", int(np.count_nonzero(lost)))
        if contacts is not None:
            live_set.count = kern.sync_round_step_dynamic(
                contacts, kept, up_live,
                informed_live, live_set.times, round_index,
                push_allowed, pull_allowed, ws, live_set.count,
            )
        else:
            live_set.count = kern.sync_round_step(
                csr_nw, draws, kept, up_live,
                informed_live, live_set.times, round_index,
                push_allowed, pull_allowed, ws, live_set.count,
            )
        keep = live_set.retire(round_index)
        if keep is not None:
            if up_live is not None:
                up_live = up_live[keep]
            if bad_live is not None:
                bad_live = bad_live[keep]
            parts.compact_budgets(keep)
    return live_set.outcome(round_index)


# ---------------------------------------------------------------------- #
# Auxiliary rounds (ppx / ppy)
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


def _aux_rounds(job: _BatchJob) -> _Outcome:
    """The ``(B, n)`` generalization of
    :func:`~repro.core.aux_processes.run_auxiliary_process`.

    Per-vertex informed-neighbor counts are a batched integer matrix and the
    push/pull commits are scatter operations across all live trials.
    Per-trial randomness is consumed in exactly the serial engine's order —
    one ``random(k_informed)`` push block, one ``random(k_candidates)`` pull
    block, then one bounded-integer parent draw per pulling vertex (the
    chosen parent never affects informing times, but the draw must happen to
    keep the streams aligned).  The pooled mode skips the parent draws.
    """
    graph, pooled_rng, metrics = job.graph, job.pooled_rng, job.metrics
    variant = job.mode
    n = graph.num_vertices
    batch = job.sources.size
    flat = flat_adjacency(graph)
    degrees = flat.degrees

    live_set = _LiveSet(n, job.sources, job.generators, job.record_times)
    # nbr_count[i, v] = |{w in Γ(v): w informed}| in trial i (round start).
    nbr_count = np.zeros((batch, n), dtype=np.int64)
    _bump_neighbor_counts(nbr_count.reshape(-1), live_set.ids, job.sources, flat, n)

    round_index = 0
    while live_set.ids.size and round_index < job.budget:
        round_index += 1
        live = live_set.ids.size
        live_rngs = live_set.rngs
        informed_live = live_set.informed
        informed_live_count = live_set.count

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
        if metrics is not None:
            metrics.count("engine.rounds", live)
            # The serial engine's contacts: every informed vertex pushes and
            # every pulling vertex pulls.
            metrics.count("engine.messages_attempted", int(rows_p.size + pull_rows.size))

        # --- Commit: pulls and pushes both stamp this round's timestamp. ---
        new_mask = np.zeros((live, n), dtype=bool)
        new_mask[pull_rows, pull_verts] = True
        new_mask[push_rows, push_verts] = True
        if live_set.times is not None:
            live_set.times[new_mask] = float(round_index)
        informed_live |= new_mask
        rows_n, verts_n = np.nonzero(new_mask)
        _bump_neighbor_counts(nbr_count.reshape(-1), rows_n, verts_n, flat, n)
        live_set.count = informed_live.sum(axis=1)
        keep = live_set.retire(round_index)
        if keep is not None:
            nbr_count = nbr_count[keep]
    return live_set.outcome(round_index)


# ---------------------------------------------------------------------- #
# The one state of the asynchronous bodies
# ---------------------------------------------------------------------- #
def _async_state(job: _BatchJob) -> AsyncState:
    """The one state of an asynchronous batch (see :class:`AsyncState`).

    Each trial's ``Delay`` rates come first, through its own generator (or
    the pooled one): they are its first randomness, as in the serial
    engines.  Everything is indexed by absolute trial row; the bodies mask
    retired rows instead of compacting the state.  The static CSR comes as
    narrow int32 copies for the contact gathers.
    """
    graph, parts = job.graph, job.parts
    n = graph.num_vertices
    batch = job.sources.size
    dynamic = parts.dynamic
    flat = flat_adjacency(graph)
    degrees = flat.degrees.astype(np.int32)
    informed, num_informed, times = _initial_informed(n, job.sources, job.record_times)
    finite_time_budget = bool(np.isfinite(job.time_budget))
    state = AsyncState(
        degrees=degrees, max_offset=degrees - 1,
        start=flat.indptr[:-1].astype(np.int32), indices=flat.indices.astype(np.int32),
        n=n, batch=batch, mode_pp=job.mode == "push-pull",
        push_allowed=job.mode in ("push", "push-pull"),
        step_budget=job.budget, time_budget=job.time_budget,
        finite_time_budget=finite_time_budget,
        generators=job.generators, pooled_rng=job.pooled_rng,
        rates=None, rates_cum=None,
        informed=informed, times=times, num_informed=num_informed,
        now=np.zeros(batch), steps=np.zeros(batch, dtype=np.int64),
        live=np.full(batch, job.budget > 0),
        completed=np.zeros(batch, dtype=bool), completion_time=np.full(batch, np.inf),
        overtime=np.zeros(batch, dtype=bool) if finite_time_budget else None,
        parts=parts, up=parts.initial_up(graph, batch),
        bad=np.zeros(batch, dtype=bool) if parts.burst is not None else None,
        next_epoch=np.ones(batch) if parts.needs_epochs else None,
        next_resample=np.full(batch, float(dynamic.period)) if dynamic is not None else None,
        trial_graphs=_TrialGraphs(graph, batch) if dynamic is not None else None,
        has_boundaries=parts.needs_epochs or dynamic is not None,
    )
    parts.init_adaptive(graph, batch)
    state.boundary_floor = float(state.pending(np.arange(batch)).min())
    if parts.delay is not None:
        state.rates = np.stack(
            [parts.delay.draw_rates(graph, state.rng_for(b)) for b in range(batch)]
        )
        state.rates_cum = np.cumsum(state.rates, axis=1)
    return state


def _async_outcome(state: AsyncState) -> _Outcome:
    """An asynchronous body's per-trial results."""
    if state.overtime is not None:
        state.steps[state.overtime] -= 1  # popped, not executed
    return _Outcome(
        state.completed, state.completion_time, state.times, state.steps, state.num_informed
    )


# ---------------------------------------------------------------------- #
# The asynchronous "global" view, per-trial generators
# ---------------------------------------------------------------------- #
def _async_ticks(job: _BatchJob) -> _Outcome:
    """The global-view tick loop.

    Every trial carries its own exponential time accumulator (the rate-``n``
    global Poisson clock).  Per-trial randomness is drawn in chunks of the
    same sizes and order as the serial
    :func:`~repro.core.async_engine.run_asynchronous` global view (gaps,
    callers, neighbor uniforms, loss uniforms; ``Delay`` rates first).  The
    loop itself is the backend's ``async_tick_loop``: the numpy one moves
    the live trials in lockstep and consumes each refill in blocks of ticks
    resolved for all of them at once, the jit one drains trial by trial.
    Both are bit-identical.  A pooled generator never reaches this loop
    (see :func:`_pooled_clock_chunks`).
    """
    state = _async_state(job)
    batch = state.batch
    # Per-trial randomness buffers mirroring the serial engine's chunked
    # draws: refilled (exponential gaps, callers, neighbor uniforms, loss
    # uniforms — in that order) whenever exhausted, with chunk size
    # min(4096, remaining budget).  A trial can only run out of step budget
    # at a buffer boundary (chunks never outlive the budget), so the budget
    # check lives in the refill.  The jit drain counts a trial's executed
    # ticks as the ticks of its retired chunks plus its in-chunk position.
    state.chunk = _ASYNC_CHUNK
    state.gaps = np.empty((batch, _ASYNC_CHUNK))
    state.callers = np.empty((batch, _ASYNC_CHUNK), dtype=np.int32)
    state.nbr_uniforms = np.empty((batch, _ASYNC_CHUNK))
    state.loss_uniforms = np.empty((batch, _ASYNC_CHUNK)) if job.parts.lossy else None
    state.positions = np.zeros(batch, dtype=np.int64)
    state.buffer_lengths = np.zeros(batch, dtype=np.int64)
    state.chunk_base = np.zeros(batch, dtype=np.int64)
    job.kern.async_tick_loop(state)
    return _async_outcome(state)


# ---------------------------------------------------------------------- #
# Pooled generators (every asynchronous view)
# ---------------------------------------------------------------------- #
def _pooled_clock_chunks(job: _BatchJob) -> _Outcome:
    """The chunked pooled-RNG body of all three asynchronous views.

    The per-trial global tick loop and table loop follow each trial's
    serial draw sequence, because serial draw-order equivalence pins
    exactly that sequence.  Pooled mode only promises agreement *in
    distribution*, and in distribution the three views are one superposed
    Poisson process: the global clock ticks at rate ``n`` and picks a
    uniform caller, every vertex ticks at rate 1 under ``node_clocks``, and
    under ``edge_clocks`` each caller's pair clocks (rate ``1/deg(v)``
    each) also sum to rate 1 per vertex — so successive events arrive with
    ``Exp(1/n)`` gaps, a uniformly random caller, and a uniformly random
    neighbor as callee (the view equivalence of
    :mod:`repro.experiments.view_equivalence`).  That lets this body
    pre-draw the whole randomness of the next ``_POOLED_CLOCK_CHUNK`` ticks
    as three ``(B, chunk)`` blocks — gaps, callers, neighbor uniforms — and
    hand them to a lean per-tick loop (the backend's
    ``clock_chunk_consume``, which resolves the callees of the ticks it
    reaches) with no RNG calls and no next-tick table at all.  The view
    never enters the draws.

    Runtime scenarios keep the same shape: a :class:`~repro.scenarios.Delay`
    reweights the superposition (per-trial total rate, weighted caller
    draws resolved at block-refill time), loss/burst-loss add one uniform
    block, and churn updates fire inside the column loop at each trial's
    epoch boundaries, as do graph resamples.
    """
    state = _async_state(job)
    pooled_rng = job.pooled_rng
    assert pooled_rng is not None
    n = state.n
    live, steps = state.live, state.steps
    while True:
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        # Live trials all hold the same tick count: every live trial
        # executes one tick per column and leaves the set when it retires,
        # so one scalar tracks the remaining step budget for the block.
        executed = int(steps[rows[0]])
        remaining = state.step_budget - executed
        if remaining <= 0:
            live[rows] = False
            break
        width = min(_POOLED_CLOCK_CHUNK, remaining)
        # Under a Delay every vertex v ticks at rate r_v (node clocks) — and
        # its edge-view pair clocks, rate r_v/deg(v) each, superpose to the
        # same r_v — so the pooled process has per-trial total rate sum(r_v)
        # and rate-weighted callers.
        if state.rates is None:
            gaps = pooled_rng.exponential(1.0 / n, (rows.size, width))
            callers = pooled_rng.integers(0, n, (rows.size, width))
        else:
            gaps = pooled_rng.exponential(
                1.0 / state.rates_cum[rows, -1:], (rows.size, width)
            )
            caller_uniforms = pooled_rng.random((rows.size, width))
            callers = np.empty((rows.size, width), dtype=np.int64)
            for j, b in enumerate(rows):
                callers[j] = state.weighted_callers(b, caller_uniforms[j])
        tick_times = np.cumsum(gaps, axis=1)
        tick_times += state.now[rows][:, None]
        uniforms = pooled_rng.random((rows.size, width))
        loss_block = pooled_rng.random((rows.size, width)) if job.parts.lossy else None

        # Everything random about the block is drawn; the backend's consumer
        # walks its columns and mutates the state in place (only epoch and
        # resample crossings still draw, from the pooled generator — the jit
        # backend delegates those blocks to numpy).
        job.kern.clock_chunk_consume(
            state, rows, executed, tick_times, callers, uniforms, loss_block
        )
        if job.metrics is not None:
            job.metrics.count("engine.drain_returns")
    return _async_outcome(state)


# ---------------------------------------------------------------------- #
# Clock-queue views (node_clocks / edge_clocks), per-trial generators
# ---------------------------------------------------------------------- #
class _ScalarDraws:
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


class _BlockDraws:
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


#: The draw source of the clock-view table loop: ``uniform`` and
#: ``exponential`` return one value per live row, in row order, and
#: ``retire`` drops the rows where ``keep`` is false.
_TickDraws = Union[_ScalarDraws, _BlockDraws]


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


def _clock_table(job: _BatchJob) -> _Outcome:
    """The next-tick table loop of the clock-queue views.

    The serial engine realises the ``"node_clocks"`` and ``"edge_clocks"``
    views with a priority queue of next-tick times; this loop keeps the
    same next-tick table as a ``(live, #clocks)`` matrix and replaces
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
    ``edge_clocks`` without loss and without churn-epoch draws — the loop
    draws ``_CLOCK_BLOCK`` standard exponentials per trial at a time (the
    same draws as that many scalar calls, and ``exponential(s)`` is
    ``s * standard_exponential()``) and all live trials consume one block
    column per tick.  A retiring trial restores its generator state from
    the last refill and redraws exactly the columns it consumed.  The node
    view interleaves a neighbor uniform with each reschedule, which no block
    call reproduces, so it keeps per-tick scalar draws (as does the edge
    view under loss or churn).

    Under ``node_clocks`` a dynamic graph rides the per-trial padded stacked
    CSR (:class:`_TrialGraphs`); the clocks themselves are graph independent
    and are never redrawn.  A pooled generator never reaches this loop (see
    :func:`_pooled_clock_chunks`).
    """
    state = _async_state(job)
    generators = job.generators
    n, batch = state.n, state.batch
    degrees = state.degrees
    node_view = job.view == "node_clocks"
    rates = state.rates

    pair_caller = pair_callee = pair_scale = node_scales = None
    if node_view:
        # One rate-r_v clock per vertex (r_v = 1 without a Delay): the
        # first ticks are the serial engine's initial exponential block.
        if rates is not None:
            node_scales = 1.0 / rates  # (B, n): mean gap of each vertex clock
        next_tick = np.empty((batch, n))
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
        pair_callee = state.indices
        pair_scale = degrees[pair_caller].astype(float)
        if rates is not None:
            # (B, #pairs): each trial's own rates reweight its pair clocks.
            pair_scale = pair_scale[None, :] / rates[:, pair_caller]
        next_tick = np.empty((batch, pair_caller.size))
        for b in range(batch):
            next_tick[b] = generators[b].exponential(
                pair_scale if rates is None else pair_scale[b]
            )

    # Dynamic graphs only reach the node view (edge_clocks is rejected) and
    # never touch the next-tick table — vertex clocks are graph independent.
    trial_graphs = state.trial_graphs
    lossy = job.parts.lossy
    draws: _TickDraws
    if node_view or lossy or job.parts.churn_updates:
        # The tick's uniforms (or epoch draws) interleave with its
        # reschedule, which no block call reproduces.
        draws = _ScalarDraws(generators)
    else:
        draws = _BlockDraws(generators)

    # What the loop reads, bound once: the loop costs tens of microseconds
    # per tick.
    steps, step_budget = state.steps, state.step_budget
    time_budget, finite_time_budget = state.time_budget, state.finite_time_budget
    has_boundaries = state.has_boundaries
    cross, exchange = state.cross, state.exchange
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
        if has_boundaries and tick_time.max() >= state.boundary_floor:
            # Boundaries crossed in (previous event, now] fire before the
            # exchange, chronologically, epoch before resample on ties —
            # the serial engine's interleaved draws.
            cross(rows, tick_time)
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
                callee = state.indices.take(state.start.take(caller) + offsets)
            if node_scales is not None:
                resched = resched * node_scales.take(cell_base + caller)
        else:
            caller = pair_caller.take(idx)
            callee = pair_callee.take(idx)
            pairs = idx if rates is None else rows * pair_caller.size + idx
            resched = resched * pair_scale.take(pairs)
        table.put(slot_base + idx, tick_time + resched)
        done = exchange(rows, cell_base + caller, cell_base + callee, tick_time, loss_u, executed)
        if done is not None:
            keep = np.ones(rows.size, dtype=bool)
            keep[done] = False
            rows, table, slot_base, cell_base = _retire_rows(keep, rows, table, draws, n)
    return _async_outcome(state)


#: The bodies whose hot loop is a :mod:`repro.core.kernels` kernel; the
#: others always run numpy code.
_KERNEL_BODIES = (_sync_rounds, _async_ticks, _pooled_clock_chunks)


# ---------------------------------------------------------------------- #
# The entry point
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
    max_rounds: Optional[int] = None,
    max_steps: Optional[int] = None,
    max_time: Optional[float] = None,
    view: Optional[str] = None,
    on_budget_exhausted: str = "error",
    backend: Optional[str] = None,
    **unknown: object,
) -> BatchTimes:
    """Simulate a batch of trials of any batchable protocol at once.

    The batched analogue of :func:`repro.core.protocols.spread`, and the one
    entry point of this module.

    Args:
        graph: the (connected) graph shared by every trial (the *initial*
            graph under a dynamic-graph scenario).
        sources: per-trial source vertices (length ``B``), or a single vertex
            id used by all trials.  Scenario source strategies are *not*
            applied here (use :func:`~repro.analysis.montecarlo.run_trials`
            or :func:`~repro.core.protocols.spread` for that).
        protocol: a canonical protocol name with a batched body:
            ``pp``/``push``/``pull``, ``pp-a``/``push-a``/``pull-a``, or
            ``ppx``/``ppy``.
        rngs: per-trial generators (length ``B``).  Trial ``i`` consumes
            randomness from ``rngs[i]`` exactly as a serial run would, so
            fixed-seed results agree trial-for-trial with the serial engine
            (scenarios included).
        trials: batch size when ``sources`` is a scalar and ``rngs`` is not
            given; otherwise, if given, it must equal their length.
        seed: master seed used to spawn per-trial generators when ``rngs``
            is not given.
        record_times: record the full ``(B, n)`` per-vertex time matrix.
            With ``False`` only per-trial spreading times are kept, which is
            cheaper and enough for spreading-time statistics.
        scenario: optional :mod:`repro.scenarios` adversity model.
        pooled_rng: one shared generator replacing the per-trial ones (no
            serial equivalence; distribution-level agreement only).
        max_rounds: per-trial round budget of the synchronous protocols and
            ``ppx``/``ppy``, defaulting to
            :func:`~repro.core.sync_engine.default_max_rounds`.
        max_steps: per-trial clock-tick budget of the asynchronous
            protocols, defaulting to
            :func:`~repro.core.async_engine.default_max_steps`.
        max_time: per-trial simulated-time budget of the asynchronous
            protocols (unbounded by default).
        view: the asynchronous view — ``"global"`` (default),
            ``"node_clocks"`` or ``"edge_clocks"``.
        on_budget_exhausted: ``"error"`` raises :class:`SimulationError` if
            any trial fails to complete; ``"partial"`` marks such trials
            incomplete instead.
        backend: kernel backend — ``"numpy"``, ``"jit"``, or ``"auto"`` (see
            :mod:`repro.core.kernels`).  ``None`` reads
            ``REPRO_KERNEL_BACKEND`` and then defaults to ``"auto"``.  The
            auxiliary rounds and the per-trial clock-view table loop always
            run numpy code.

    Returns:
        A :class:`~repro.core.result.BatchTimes` with round-valued times
        (synchronous protocols, ``ppx``/``ppy``) or continuous times.

    Raises:
        ProtocolError: for a protocol without a batched body, an option its
            family does not take (for example ``view`` on ``pp`` or
            ``max_steps`` on ``ppx``), an unknown view, a negative budget,
            invalid sources and generators (sources that are not integral or
            not 1-D, a non-integral ``trials``, or a ``trials`` that
            disagrees with the sources or generators).
        ScenarioError: where the serial engine rejects the scenario (see
            :func:`is_batchable`).
        SimulationError: when trials stay incomplete under
            ``on_budget_exhausted="error"``.
    """
    metrics = current_metrics()
    if metrics is not None:
        metrics.count("engine.kernel_invocations")
    named = {
        "max_rounds": max_rounds, "max_steps": max_steps, "max_time": max_time, "view": view
    }
    given = {name: value for name, value in named.items() if value is not None}
    scenario = as_scenario(scenario)
    rejection = _rejection(protocol, {**given, **unknown}, scenario)
    if rejection is not None:
        raise rejection
    family, mode = _PROTOCOL_FAMILIES[protocol]
    n = graph.num_vertices
    synchronous = family != "async"
    if synchronous:
        budget = parse_count_budget("max_rounds", max_rounds, default_max_rounds(n))
        time_budget = np.inf
    else:
        budget = parse_count_budget("max_steps", max_steps, default_max_steps(n))
        time_budget = parse_time_budget(max_time)
    view = view or "global"
    source_array, generators = _prepare(
        graph, sources, rngs, trials, seed, on_budget_exhausted, pooled_rng
    )
    batch = source_array.size
    if n == 1:
        return _trivial_batch(protocol, graph, source_array, record_times, synchronous)

    parts = _ScenarioParts(scenario)
    if family == "sync":
        body = _sync_rounds
    elif family == "aux":
        body = _aux_rounds
    elif pooled_rng is not None:
        body = _pooled_clock_chunks
    elif view == "global":
        body = _async_ticks
    else:
        body = _clock_table
    kern = resolve_backend(backend if body in _KERNEL_BODIES else "numpy")
    if metrics is not None:
        metrics.gauge("engine.backend", kern.BACKEND_NAME)
    outcome = body(
        _BatchJob(
            graph=graph, sources=source_array, generators=generators,
            pooled_rng=pooled_rng, mode=mode, view=view, record_times=record_times,
            parts=parts, kern=kern, metrics=metrics,
            budget=budget, time_budget=time_budget,
        )
    )

    if metrics is not None:
        if not synchronous:
            total_ticks = int(outcome.counts.sum())
            metrics.count("engine.clock_ticks", total_ticks)
            metrics.count("engine.messages_attempted", total_ticks)
        # Every informed vertex beyond the source received exactly one
        # successful transmission.
        metrics.count("engine.messages_delivered", int(outcome.num_informed.sum()) - batch)
    parts.record_budget_spent(metrics)
    if not outcome.completed.all() and on_budget_exhausted == "error":
        _raise_incomplete(
            protocol,
            graph,
            outcome.num_informed,
            outcome.completed,
            f"{budget} rounds" if synchronous else f"{budget} steps / time {time_budget}",
        )
    return BatchTimes(
        protocol=protocol,
        graph_name=graph.name,
        num_vertices=n,
        sources=source_array,
        completed=outcome.completed,
        completion_time=outcome.completion_time,
        informed_time=outcome.times,
        rounds=outcome.counts if synchronous else None,
        steps=None if synchronous else outcome.counts,
    )
