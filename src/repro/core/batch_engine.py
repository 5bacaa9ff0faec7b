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
  drew its full ``random(n)`` contact block.  The step resolves the
  contacts on the shared graph, or takes the ones resolved on each trial's
  own graph once a dynamic graph has resampled; on a wide shared-graph
  round whose smaller status class is small the numpy step resolves only
  the callers next to it (see :mod:`repro.core.kernels.numpy_backend`).
  Finished trials leave the working set (they stop consuming randomness,
  exactly like a serial run that returned).
* **Auxiliary rounds** (``ppx``/``ppy`` of Definitions 5 and 7,
  :func:`_aux_rounds`) — informed-neighbor counts are a ``(B, n)`` integer
  matrix and the per-vertex pull probabilities come from the shared
  vectorised :func:`~repro.core.aux_processes.pull_probabilities`.
* **The global tick loop** (the asynchronous trio under the ``"global"``
  view with per-trial generators, :func:`_async_ticks`) — every live trial
  draws its next refill of ticks in the serial engine's order, and the
  backend's block consumer takes each refill for all of them at once: the
  live trials move in lockstep, one tick each per column.
* **The clock-view table loop** (``"node_clocks"`` and ``"edge_clocks"``
  with per-trial generators, :func:`_clock_table`) — the serial priority
  queue becomes a next-tick matrix with one row per live trial, whose
  per-row ``argmin`` is the next event (identical to the heap pop —
  continuous tick times tie with probability zero), so batched next-event
  simulation stays exact.  Each trial draws its ticks' randomness in
  refills, so the table advances a block of ticks at a time and the numpy
  block consumer resolves the block's contacts.
* **Pooled chunks** (the asynchronous trio with a pooled generator, every
  view, static or dynamic graph, :func:`_pooled_clock_chunks`) — see
  *Pooled RNG mode*.

**Exact serial equivalence.**  Each trial owns its own
:class:`numpy.random.Generator` and the bodies consume randomness from it
in *exactly* the order the serial engines do (``rng.random(n)`` per
synchronous round while live; refills of the same sizes and order for the
asynchronous views — gaps, callers, neighbor uniforms and loss uniforms
for the global view, neighbor uniforms, loss uniforms and reschedule
exponentials for the clock views; push/pull uniform blocks plus parent
draws for ``ppx``/``ppy``).
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
:func:`run_batch` rejects what the serial engines reject (see
:func:`~repro.core.protocols.check_options`): a ``Delay`` on a synchronous
protocol, a dynamic graph under the ``"edge_clocks"`` view (resampling
would change the per-pair clock set itself), and any runtime scenario on
``ppx``/``ppy``.

**Pooled RNG mode.**  Passing ``pooled_rng=`` replaces the per-trial
generators with one shared generator drawing whole ``(B, n)`` matrices at
once.  This halves the Python-level draw overhead for small ``n`` but gives
up serial equivalence: pooled samples agree with per-trial samples only *in
distribution* (checked by KS tests in the suite).  The asynchronous pooled
mode goes further: freed from the serial draw order,
:func:`_pooled_clock_chunks` pre-draws the randomness of ``_CLOCK_BLOCK``
future ticks as ``(B, chunk)`` blocks and keeps no next-tick table,
because the three views are one superposed Poisson process in
distribution.  A pooled asynchronous result therefore does not depend on
the view, and both backends consume the pooled stream in the same order.

**Kernel backends.**  The hot loops themselves — the synchronous round
step and the block consumer that every asynchronous body feeds — live in
:mod:`repro.core.kernels` with interchangeable ``"numpy"`` and
numba-compiled ``"jit"`` implementations, selected per call with the
``backend=`` option (default ``"auto"``); see the package docstring for the
per-kernel equivalence guarantees.  :func:`run_batch` resolves the
requested backend once per call and takes numpy wherever the jit backend
has no loop: the auxiliary rounds, the clock-view table loop, and every
asynchronous run with epoch or resample boundaries.  The three
asynchronous bodies share one state, an
:class:`~repro.core.kernels.AsyncState` that :func:`_async_state` builds
once per run and the kernels take whole; its methods hold the global
view's refills, the boundary crossing and the rumor exchange.

The output is a times-only :class:`~repro.core.result.BatchTimes` record:
batched runs never build parents, infection kinds, or traces.  Callers that
need those (coupling experiments, trace debugging) use the serial engines.
"""

from __future__ import annotations

import numbers
from collections import abc
from dataclasses import dataclass
from types import ModuleType
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.core.async_engine import _CLOCK_BLOCK, default_max_steps
from repro.core.aux_processes import pull_probabilities
from repro.core.budgets import (
    check_budget_policy,
    check_connected,
    parse_count_budget,
    parse_time_budget,
)
from repro.core.flatgraph import FlatAdjacency, flat_adjacency
from repro.core.kernels import AsyncState, numpy_backend, resolve_backend
from repro.core.kernels.numpy_backend import _BLOCK_TICKS
from repro.core.protocols import check_options
from repro.core.result import BatchTimes
from repro.core.sync_engine import default_max_rounds
from repro.errors import ProtocolError, SimulationError
from repro.graphs.base import Graph
from repro.randomness.rng import SeedLike, spawn_generators
from repro.scenarios.base import DynamicGraph, Scenario, ScenarioLike, as_scenario
from repro.telemetry.metrics import MetricsRegistry, current_metrics

__all__ = [
    "run_batch",
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
    if rngs is not None and not (
        isinstance(rngs, abc.Sequence) and all(isinstance(r, np.random.Generator) for r in rngs)
    ):
        raise ProtocolError(f"rngs must be a sequence of numpy.random.Generator, got {rngs!r}")
    if pooled_rng is not None and not isinstance(pooled_rng, np.random.Generator):
        raise ProtocolError(f"pooled_rng must be a numpy.random.Generator, got {pooled_rng!r}")
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
    check_connected(graph)
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
    raveled ``(B * width,)`` neighbor array — so the :meth:`callees_at`
    gather is three 1-D ``np.take`` calls, the same memory traffic as the
    static-graph fast path, instead of 2-D fancy indexing.
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

    def callees_at(
        self, pos: np.ndarray, row_offsets: np.ndarray, uniforms: np.ndarray
    ) -> np.ndarray:
        """One uniform random neighbor per caller.

        ``pos`` holds each caller's flat ``row * n + caller`` position and
        ``row_offsets`` its row's ``row * width`` neighbor-array offset (the
        column walk caches them); the three arrays broadcast together.
        """
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
    def has_boundaries(self) -> bool:
        """Whether an asynchronous run fires epoch or resample boundaries."""
        return self.needs_epochs or self.dynamic is not None

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
    is infinite for the round-based families.  ``kern`` is the backend
    module that runs the body's hot loop, as :func:`run_batch` chose it.
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
    returned).  ``rngs`` is empty in pooled mode, where ``pooled_rng``
    draws for every trial.
    """

    __slots__ = (
        "n", "ids", "rngs", "pooled_rng", "informed", "count", "times",
        "final_times", "rounds", "final_count", "completed", "completion_time",
    )

    def __init__(self, job: _BatchJob) -> None:
        n = job.graph.num_vertices
        batch = job.sources.size
        self.n = n
        self.ids = np.arange(batch, dtype=np.int64)
        self.rngs = list(job.generators) if job.generators is not None else []
        self.pooled_rng = job.pooled_rng
        self.informed, self.count, self.times = _initial_informed(
            n, job.sources, job.record_times
        )
        self.final_times = np.empty((batch, n)) if job.record_times else None
        self.rounds = np.zeros(batch, dtype=np.int64)
        self.final_count = np.full(batch, n, dtype=np.int64)
        self.completed = np.zeros(batch, dtype=bool)
        self.completion_time = np.full(batch, np.inf)

    def draw(self, out: np.ndarray, sizes: Optional[np.ndarray] = None) -> np.ndarray:
        """Fill ``out`` with uniforms for the live trials and return it.

        The pooled generator fills the whole buffer.  Otherwise live trial
        ``i``'s generator fills row ``i`` of ``out`` or, given ``sizes``,
        the ``i``-th of the consecutive ``sizes[i]``-long segments of the
        flat ``out``: exactly the draw its serial run makes.
        """
        if self.pooled_rng is not None:
            self.pooled_rng.random(out=out)
        elif sizes is None:
            for rng, row in zip(self.rngs, out):
                rng.random(out=row)
        else:
            stop = 0
            for rng, size in zip(self.rngs, sizes.tolist()):
                start, stop = stop, stop + size
                rng.random(out=out[start:stop])
        return out

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
    engine's order (:meth:`_LiveSet.draw`): graph resample (at period
    boundaries), churn update, burst channel draw, one ``random(n)``
    contact block, loss uniforms.  The round itself is the backend's
    ``sync_round_step``, which resolves the contacts on the shared graph;
    from a dynamic graph's first resample on, it takes the contacts a
    :class:`_TrialGraphs` resolved on each trial's own graph instead.
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

    live_set = _LiveSet(job)
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
    burst_buf = np.empty((batch, 1)) if burst is not None else None
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
            up_live = churn.step(up_live, live_set.draw(churn_buf[:live]))
        elif parts.adaptive_churn:
            # Deterministic crash on each trial's round-start informed set —
            # no draw, so the per-trial RNG streams match the oblivious
            # kernel's exactly.
            for i in range(live):
                parts.crash_budget[i] -= churn.crash_step(
                    up_live[i], informed_live[i], parts.crash_order, parts.crash_budget[i]
                )
        if burst is not None:
            # One channel draw per live trial per round.
            bad_live = burst.step_state(bad_live, live_set.draw(burst_buf[:live])[:, 0])
        draws = live_set.draw(scratch[:live])
        contacts = None
        if trial_graphs is not None:
            ids = live_set.ids[:, None]
            contacts = trial_graphs.callees_at(
                ids * n + np.arange(n), ids * trial_graphs.width, draws
            )
        # Loss uniforms are the round's final draw (after the contacts),
        # resolved into the `kept` mask before the kernel runs — the draw
        # order is what serial equivalence pins, not where the mask is used.
        kept = None
        if parts.lossy:
            loss_draws = live_set.draw(loss_buf[:live])
            if parts.adaptive_loss is not None:
                # Resolve the round's contacts early (the same arithmetic the
                # kernel applies) so the jammer can see which exchanges would
                # transmit; the budget is spent in vertex-id order per trial,
                # matching the serial engine.
                callees = flat.random_neighbors_all(draws) if contacts is None else contacts
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
        live_set.count = kern.sync_round_step(
            csr_nw, draws, contacts, kept, up_live,
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

    live_set = _LiveSet(job)
    # nbr_count[i, v] = |{w in Γ(v): w informed}| in trial i (round start).
    nbr_count = np.zeros((batch, n), dtype=np.int64)
    _bump_neighbor_counts(nbr_count.reshape(-1), live_set.ids, job.sources, flat, n)

    round_index = 0
    while live_set.ids.size and round_index < job.budget:
        round_index += 1
        live = live_set.ids.size
        live_rngs = live_set.rngs
        informed_live = live_set.informed

        # --- Push half: every informed vertex contacts a random neighbor. ---
        rows_p, verts_p = np.nonzero(informed_live)  # row-major = serial's vertex order
        # One random(k_informed) per live trial.
        push_u = live_set.draw(np.empty(rows_p.size), live_set.count)
        contacts = flat.random_neighbors(verts_p, push_u)
        informed_flat = informed_live.reshape(-1)
        hit = ~informed_flat[rows_p * n + contacts]
        push_rows = rows_p[hit]
        push_verts = contacts[hit]

        # --- Pull half: uninformed vertices pull with the variant's probability. ---
        rows_c, verts_c = np.nonzero(~informed_live & (nbr_count > 0))
        pull_u = live_set.draw(np.empty(rows_c.size), np.bincount(rows_c, minlength=live))
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
        has_boundaries=parts.has_boundaries,
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
    global Poisson clock).  The backend's ``async_tick_loop`` draws the
    per-trial randomness in refills of the same sizes and order as the
    serial :func:`~repro.core.async_engine.run_asynchronous` global view
    (:meth:`~repro.core.kernels.AsyncState.refills`: gaps, callers, neighbor
    uniforms, loss uniforms; ``Delay`` rates first) and hands each refill to
    its block consumer, the one the pooled chunks and the clock-view table
    loop feed.  Both backends are bit-identical.  A pooled generator never
    reaches this loop (see :func:`_pooled_clock_chunks`).
    """
    state = _async_state(job)
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
    pre-draw the whole randomness of the next ``_CLOCK_BLOCK`` ticks
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
        width = min(_CLOCK_BLOCK, remaining)
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
        # resample crossings still draw, from the pooled generator, which is
        # why run_batch sends those runs to numpy).
        job.kern.clock_chunk_consume(
            state, rows, executed, tick_times, callers, uniforms, loss_block
        )
        if job.metrics is not None:
            job.metrics.count("engine.drain_returns")
    return _async_outcome(state)


# ---------------------------------------------------------------------- #
# Clock-queue views (node_clocks / edge_clocks), per-trial generators
# ---------------------------------------------------------------------- #
def _clock_table(job: _BatchJob) -> _Outcome:
    """The next-tick table loop of the clock-queue views.

    The serial engine realises the ``"node_clocks"`` and ``"edge_clocks"``
    views with a priority queue of next-tick times; this loop keeps the
    same next-tick table as a ``(live, #clocks)`` matrix and replaces
    the heap pop with a vectorised per-row ``argmin`` — with continuous tick
    times the minimum entry *is* the heap's next event (ties have measure
    zero, and both resolutions pick the lowest index), so the event sequence
    is identical.  The table holds only the live trials, in ascending trial
    order, and shrinks when trials retire; scenario state, informed sets
    and times stay indexed by absolute trial.

    Per-trial randomness follows the serial draw order exactly (see
    :class:`~repro.core.async_engine._ScenarioState`): ``Delay`` rates
    first (when present), then the initial next-tick table as one
    ``exponential`` block per trial (``n`` rate-``r_v`` clocks for
    ``node_clocks``; one rate-``r_v/deg(v)`` clock per ordered adjacent
    pair, in the serial pair order, for ``edge_clocks``), then one refill
    per ``min(_CLOCK_BLOCK, steps left)`` ticks: the neighbor uniforms
    (``node_clocks`` only), the loss uniforms (when a loss, burst-loss or
    jammer component is present) and the standard exponentials that the
    firing clock's scale turns into its reschedule.  Every live trial takes
    one tick per column, so all of them refill together; the boundary draws
    of a refill's ticks come after it, and a trial that stops mid-refill
    keeps the whole refill drawn, as the serial engine does.  Fixed-seed
    results therefore agree trial-for-trial with
    :func:`~repro.core.async_engine.run_asynchronous`, scenarios included,
    and every generator ends in the serial engine's end state.

    With no draw left inside a refill, the loop advances the table one
    sub-block of at most ``_BLOCK_TICKS`` columns at a time (argmin, take
    and put per column) and hands the sub-block's tick times and contacts
    to the numpy backend's ``clock_chunk_consume`` (:func:`run_batch` runs
    this body on numpy whatever the backend asked for): scenario-free runs are
    relaxed, every other run is walked column by column (time budget,
    boundaries, dynamic graphs, the exchange).  A trial that retires inside
    a sub-block has advanced its table past its last tick; nothing reads
    those entries, and its rows leave before the next sub-block.

    Under ``node_clocks`` a dynamic graph rides the per-trial padded stacked
    CSR (:class:`_TrialGraphs`), on which the consumer resolves each
    column's callees; the clocks themselves are graph independent and are
    never redrawn.  A pooled generator never reaches this loop (see
    :func:`_pooled_clock_chunks`).
    """
    state = _async_state(job)
    generators = job.generators
    assert generators is not None  # a pooled generator takes its own body
    n, batch = state.n, state.batch
    degrees = state.degrees
    node_view = job.view == "node_clocks"
    lossy = job.parts.lossy
    rates = state.rates

    # `scale` is each clock's mean gap: it turns a standard exponential
    # into the clock's reschedule (None for the rate-1 vertex clocks).
    if node_view:
        scale = None if rates is None else 1.0 / rates  # (B, n)
    else:
        # One clock per ordered pair (v, w) with rate r_v/deg(v).  The pair
        # order (v ascending, neighbors in adjacency order) is exactly the
        # flat CSR layout, and a single array-scale exponential call draws
        # the same stream as the serial engine's per-pair scalar draws.
        pair_caller = np.repeat(np.arange(n, dtype=np.int64), degrees)
        pair_callee = state.indices
        scale = degrees[pair_caller].astype(float)
        if rates is not None:
            # (B, #pairs): each trial's own rates reweight its pair clocks.
            scale = scale[None, :] / rates[:, pair_caller]
    clocks = n if node_view else pair_caller.size
    table = np.empty((batch, clocks))
    for b, generator in enumerate(generators):
        if scale is None:
            table[b] = generator.exponential(1.0, n)
        else:
            table[b] = generator.exponential(scale[b] if scale.ndim == 2 else scale)

    # The live trials (absolute ids, ascending; every trial, or none under
    # a zero step budget) and the per-row arrays aligned with them; all
    # shrink only when trials retire.  Every live trial takes one tick per
    # column, so `executed` is each one's step count at a refill.
    live = state.live
    rows = np.flatnonzero(live)
    executed = 0
    while rows.size:
        refill = min(_CLOCK_BLOCK, state.step_budget - executed)
        if refill <= 0:
            # The serial loop checks the step budget before each refill.
            live[rows] = False
            state.steps[rows] = executed
            break
        # Zero-width where the view or the run draws none.
        uniforms = np.empty((rows.size, refill if node_view else 0))
        loss = np.empty((rows.size, refill if lossy else 0))
        gaps = np.empty((rows.size, refill))
        for i, b in enumerate(rows.tolist()):
            generator = generators[b]
            if node_view:
                generator.random(out=uniforms[i])
            if lossy:
                generator.random(out=loss[i])
            generator.standard_exponential(out=gaps[i])
        gaps = np.ascontiguousarray(gaps.T)  # one row of every trial's gaps per column
        for lo in range(0, refill, _BLOCK_TICKS):
            width = min(_BLOCK_TICKS, refill - lo)
            slot_base = np.arange(rows.size) * clocks
            tick_times = np.empty((width, rows.size))
            slots = np.empty((width, rows.size), dtype=np.int64)
            for column in range(width):
                # The heap pop and push of every live row: the next event is
                # the row's earliest clock, which then reschedules.
                idx = table.argmin(axis=1, out=slots[column])
                flat = slot_base + idx
                now = table.take(flat, out=tick_times[column])
                gap = gaps[lo + column]
                if scale is not None:
                    gap = gap * scale.take(flat if scale.ndim == 2 else idx)
                table.put(flat, now + gap)
            block_loss = loss[:, lo:lo + width] if lossy else None
            if node_view:
                job.kern.clock_chunk_consume(
                    state, rows, executed + lo, tick_times.T, slots.T,
                    uniforms[:, lo:lo + width], block_loss,
                )
            else:
                job.kern.clock_chunk_consume(
                    state, rows, executed + lo, tick_times.T, pair_caller.take(slots.T),
                    pair_callee.take(slots.T), block_loss, resolved=True,
                )
            keep = live.take(rows)
            if not keep.all():
                rows = rows[keep]
                if rows.size == 0:
                    break
                table = table[keep]
                gaps = gaps[:, keep]
                uniforms = uniforms[keep]
                loss = loss[keep]
                if scale is not None and scale.ndim == 2:
                    scale = scale[keep]
        executed += refill
        if job.metrics is not None:
            job.metrics.count("engine.drain_returns")
    return _async_outcome(state)


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
            ``REPRO_KERNEL_BACKEND`` and then defaults to ``"auto"``.  An
            unknown name raises whatever the protocol.  The auxiliary
            rounds, the per-trial clock-view table loop and every
            asynchronous run with epoch or resample boundaries (churn
            updates, a burst channel, an adaptive crash adversary, a dynamic
            graph) run numpy code whatever the backend; the
            ``engine.backend`` gauge names the one that ran.

    Returns:
        A :class:`~repro.core.result.BatchTimes` with round-valued times
        (synchronous protocols, ``ppx``/``ppy``) or continuous times.

    Raises:
        ProtocolError: for an unknown protocol, an option it does not take
            (for example ``view`` on ``pp`` or ``max_steps`` on ``ppx``; see
            :func:`~repro.core.protocols.check_options`), ``record_trace``
            (serial engines only), an unknown view or kernel backend
            (``backend`` or ``REPRO_KERNEL_BACKEND``), a negative budget,
            invalid sources and generators (sources that are not integral or
            not 1-D, a non-integral ``trials``, ``rngs`` that are not a
            sequence of generators, a ``pooled_rng`` that is not a
            generator, or a ``trials`` that disagrees with the sources or
            generators).
        ScenarioError: where the serial engine rejects the scenario (see
            :func:`~repro.core.protocols.check_options`).
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
    check_options(protocol, {**given, **unknown}, scenario)
    if "record_trace" in unknown:
        raise ProtocolError(
            "record_trace needs the serial engines' contact traces; run_batch records times only"
        )
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
    kern = resolve_backend(backend)
    if body in (_aux_rounds, _clock_table) or (family == "async" and parts.has_boundaries):
        # The jit backend has no loop for these: the numpy-only bodies, and
        # boundary crossings, which draw from a generator mid-block.
        kern = numpy_backend
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
