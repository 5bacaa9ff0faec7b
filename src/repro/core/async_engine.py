"""Asynchronous rumor spreading engines (the paper's ``pp-a`` and friends).

In the asynchronous model every vertex carries an independent Poisson clock
of rate 1.  Whenever the clock of ``v`` ticks, ``v`` contacts a uniformly
random neighbor ``w`` and the rumor is exchanged exactly as in the
synchronous protocol (push, pull, or both), using the informed set at the
instant of the tick.  The rumor spreading time is measured in continuous
time units.

Section 2 of the paper lists three equivalent descriptions of the model, and
this module implements all three so their equivalence can be validated
empirically (experiment E10):

* ``"global"`` — a single Poisson clock of rate ``n``; on every tick a
  uniformly random vertex takes a step.  This is the fastest view (one
  exponential gap and two uniform draws per step) and the default.
* ``"node_clocks"`` — a literal per-vertex clock realised with a priority
  queue of next-tick times.
* ``"edge_clocks"`` — one clock per *ordered* adjacent pair ``(v, w)`` with
  rate ``1 / deg(v)``; on a tick, ``v`` contacts ``w``.

The equivalence follows from the superposition and thinning properties of
Poisson processes plus the memorylessness of the exponential distribution —
precisely the facts the paper quotes.

Each view is one runner over two shared objects: a :class:`_Record` of the
trial (informed set, informing times, infection tree, push/pull counters,
trace, and the result built from them) and, under a scenario, one
:class:`_ScenarioState` (boundary crossing and suppression), whose docstring
gives the per-trial draw order of all three views.

As with the synchronous engine, this module simulates one trial with full
:class:`~repro.core.result.SpreadingResult` bookkeeping; times-only Monte
Carlo runs of any view should go through
:func:`repro.core.batch_engine.run_batch`, which batches the ``"global"``
tick loop and the ``"node_clocks"``/``"edge_clocks"`` priority queues (as
per-row argmin next-event tables), reproducing this engine's results
trial-for-trial for the same per-trial generators.
"""

from __future__ import annotations

import heapq
import math
from itertools import repeat
from typing import Callable, Optional

import numpy as np

from repro.core.budgets import (
    check_budget_policy,
    check_source,
    parse_count_budget,
    parse_time_budget,
    scenario_rejection,
)
from repro.core.result import ContactEvent, SpreadingResult
from repro.errors import ProtocolError, SimulationError
from repro.graphs.base import Graph
from repro.randomness.rng import SeedLike, as_generator
from repro.scenarios.base import Scenario, ScenarioLike, as_scenario

__all__ = [
    "run_asynchronous",
    "default_max_steps",
    "ASYNC_MODES",
    "ASYNC_VIEWS",
]

#: Valid values for the ``mode`` argument.
ASYNC_MODES = ("push", "pull", "push-pull")

#: Valid values for the ``view`` argument.
ASYNC_VIEWS = ("global", "node_clocks", "edge_clocks")

_PROTOCOL_NAMES = {"push": "push-a", "pull": "pull-a", "push-pull": "pp-a"}

#: Ticks per refill of the global view's draws.  ``AsyncState.refills``
#: imports it: the batched refills must be exactly this size.
_CHUNK = 4096

#: Ticks per refill of the clock views' draws, imported by the batched
#: table loop (its refills must match) and by the pooled chunks (which only
#: need a width).  A run leaves at most one refill partly unused; ``pp-a``
#: on a random 8-regular graph with 256 vertices takes about 1,800 ticks.
_CLOCK_BLOCK = 1024


def default_max_steps(num_vertices: int) -> int:
    """A generous default step budget.

    The slowest standard case is asynchronous push (or pull) on the star,
    which needs :math:`\\Theta(n \\log n)` time units, i.e.
    :math:`\\Theta(n^2 \\log n)` steps.  The default budget is a constant
    multiple of that, so in practice it is only ever hit for disconnected
    graphs or genuinely pathological inputs.
    """
    n = max(2, num_vertices)
    return int(40 * n * n * max(1.0, math.log(n)) + 20_000)


def run_asynchronous(
    graph: Graph,
    source: int,
    *,
    mode: str = "push-pull",
    view: str = "global",
    seed: SeedLike = None,
    max_steps: Optional[int] = None,
    max_time: Optional[float] = None,
    record_trace: bool = False,
    on_budget_exhausted: str = "error",
    scenario: ScenarioLike = None,
) -> SpreadingResult:
    """Simulate one run of an asynchronous rumor spreading protocol.

    Args:
        graph: the (connected) graph to spread on.
        source: the initially informed vertex ``u``.
        mode: ``"push"``, ``"pull"``, or ``"push-pull"`` (the paper's
            ``push-a``, ``pull-a`` and ``pp-a``).
        view: which of the three equivalent model descriptions to simulate
            (``"global"``, ``"node_clocks"``, ``"edge_clocks"``).
        seed: RNG seed / generator.
        max_steps: step budget; defaults to :func:`default_max_steps`.
        max_time: optional wall-clock (simulated time) budget; whichever of
            the two budgets is hit first stops the run.
        record_trace: record every contact as a :class:`ContactEvent`.
            Under a scenario the trace records every attempted contact,
            including those suppressed by loss or churn.
        on_budget_exhausted: ``"error"`` raises :class:`SimulationError` when
            the run stops before everyone is informed; ``"partial"`` returns
            the incomplete result.
        scenario: optional adversity scenario (or spec string) from
            :mod:`repro.scenarios`.  Message loss (independent or bursty),
            node churn (random or targeted; state updates once per unit of
            simulated time), dynamic graphs (resampled every ``period``
            time units), and heterogeneous clock rates
            (:class:`~repro.scenarios.Delay`) all apply, under every view.
            The single exception is a dynamic graph under ``"edge_clocks"``
            — resampling the graph would change the per-pair clock set
            itself, so that combination raises
            :class:`~repro.errors.ScenarioError` (use the ``"node_clocks"``
            or ``"global"`` view).  Under the clock-queue views churn never
            stops a clock (a crashed vertex's clocks keep ticking; its
            exchanges are suppressed) and ``Delay`` reweights the per-clock
            rates (vertex ``v`` ticks at rate ``r_v``; pair ``(v, w)`` at
            rate ``r_v / deg(v)``).

    Returns:
        A :class:`SpreadingResult` with continuous informing times; the
        ``steps`` field counts how many clock ticks were simulated.
    """
    if mode not in ASYNC_MODES:
        raise ProtocolError(f"unknown asynchronous mode {mode!r}; expected one of {ASYNC_MODES}")
    if view not in ASYNC_VIEWS:
        raise ProtocolError(f"unknown asynchronous view {view!r}; expected one of {ASYNC_VIEWS}")
    source = check_source(graph, source)
    scenario = as_scenario(scenario)
    rejection = scenario_rejection(mode, scenario, synchronous=False, view=view)
    if rejection is not None:
        raise rejection
    check_budget_policy(on_budget_exhausted)
    n = graph.num_vertices
    step_budget = parse_count_budget("max_steps", max_steps, default_max_steps(n))
    time_budget = parse_time_budget(max_time)

    record = _Record(graph, source, mode, record_trace)
    if n == 1:
        return record.result(0, None, on_budget_exhausted, "")

    rng = as_generator(seed)
    if scenario is not None and not scenario.runtime_active():
        scenario = None
    state = _ScenarioState(graph, scenario, rng, mode) if scenario is not None else None
    steps = _RUNNERS[view](graph, record, rng, state, step_budget, time_budget)
    budget = f"{step_budget} steps / time {time_budget}"
    if scenario is not None:
        budget += f" under {scenario.spec()}"
    return record.result(steps, state, on_budget_exhausted, budget)


# ---------------------------------------------------------------------- #
# The two objects every view shares
# ---------------------------------------------------------------------- #
class _Record:
    """One trial's bookkeeping: the informed set, informing times, infection
    tree, push/pull counters and (when asked for) the trace of every
    contact, plus the :class:`SpreadingResult` built from them."""

    __slots__ = (
        "graph", "source", "protocol", "push", "pull", "informed", "informed_time",
        "parent", "kind", "num_informed", "push_infections", "pull_infections", "trace",
    )

    def __init__(self, graph: Graph, source: int, mode: str, record_trace: bool) -> None:
        n = graph.num_vertices
        self.graph = graph
        self.source = source
        self.protocol = _PROTOCOL_NAMES[mode]
        self.push = mode != "pull"
        self.pull = mode != "push"
        self.informed = [False] * n
        self.informed[source] = True
        self.informed_time = [math.inf] * n
        self.informed_time[source] = 0.0
        self.parent = [-1] * n
        self.kind: list[Optional[str]] = [None] * n
        self.kind[source] = "source"
        self.num_informed = 1
        self.push_infections = 0
        self.pull_infections = 0
        self.trace: Optional[list[ContactEvent]] = [] if record_trace else None

    def contact(self, caller: int, callee: int, now: float, suppressed: bool) -> bool:
        """Apply one contact at time ``now`` unless a scenario ``suppressed``
        it; returns whether every vertex is now informed."""
        informed = self.informed
        vertex: Optional[int] = None
        kind: Optional[str] = None
        if not suppressed and informed[caller] != informed[callee]:
            if informed[caller]:
                if self.push:
                    vertex, kind, sender = callee, "push", caller
                    self.push_infections += 1
            elif self.pull:
                vertex, kind, sender = caller, "pull", callee
                self.pull_infections += 1
            if vertex is not None:
                informed[vertex] = True
                self.informed_time[vertex] = now
                self.parent[vertex] = sender
                self.kind[vertex] = kind
                self.num_informed += 1
        if self.trace is not None:
            self.trace.append(
                ContactEvent(time=now, caller=caller, callee=callee, informed=vertex, kind=kind)
            )
        return vertex is not None and self.num_informed == len(informed)

    def result(
        self,
        steps: int,
        state: Optional[_ScenarioState],
        on_budget_exhausted: str,
        budget: str,
    ) -> SpreadingResult:
        """The trial's result after ``steps`` ticks; an incomplete run raises
        :class:`SimulationError` naming the ``budget`` unless
        ``on_budget_exhausted`` is ``"partial"``."""
        graph = self.graph
        completed = self.num_informed == graph.num_vertices
        if not completed and on_budget_exhausted == "error":
            raise SimulationError(
                f"{self.protocol} on {graph.name} informed only {self.num_informed}/"
                f"{graph.num_vertices} vertices within {budget}"
            )
        return SpreadingResult(
            protocol=self.protocol,
            graph_name=graph.name,
            num_vertices=graph.num_vertices,
            source=self.source,
            informed_time=tuple(self.informed_time),
            parent=tuple(self.parent),
            infection_kind=tuple(self.kind),
            completed=completed,
            steps=steps,
            push_infections=self.push_infections,
            pull_infections=self.pull_infections,
            total_contacts=steps if state is None else state.total_contacts,
            adversary_budget_spent=None if state is None else state.budget_spent(),
            trace=None if self.trace is None else tuple(self.trace),
        )


class _ScenarioState:
    """One trial's scenario state, shared by the three views.

    Per-trial randomness order, mirrored exactly by the batched kernels of
    :func:`repro.core.batch_engine.run_batch`:

    1. ``Delay`` rates, once, before any tick randomness;
    2. the clock views' initial next-tick block: ``rng.exponential(1 / r_v,
       n)`` for ``node_clocks``; one per-pair block with scale
       ``deg(v) / r_v`` in CSR pair order for ``edge_clocks``;
    3. the ticks' own draws, ahead, one refill of ``min(size, steps left)``
       ticks whenever the run goes on past its previous refill — so a
       refill's draws precede the boundary draws of its ticks, and a run
       that stops mid-refill keeps the whole refill drawn:

       * ``global`` (``_CHUNK`` ticks): the exponential gaps, the callers
         (``integers``, or rate-weighted uniforms under a ``Delay``), the
         neighbor uniforms, then the loss uniforms when the run is lossy;
       * ``node_clocks`` (``_CLOCK_BLOCK`` ticks): the neighbor uniforms,
         the loss uniforms when the run is lossy, then the standard
         exponentials that the clock's scale turns into reschedules;
       * ``edge_clocks`` (``_CLOCK_BLOCK`` ticks): the loss uniforms when
         the run is lossy, then the standard exponentials;
    4. per tick at time ``now``, every boundary crossed in (previous tick,
       now], chronologically: per unit-time epoch one ``rng.random(n)``
       churn update (for churn models with per-epoch randomness) then one
       scalar burst draw; per dynamic-graph period the resampler's own
       draws (the epoch fires before a resample on ties; clocks are never
       redrawn — ``node_clocks`` clocks are graph independent, and
       ``edge_clocks`` rejects dynamic graphs).
    """

    __slots__ = (
        "burst", "churn", "dynamic", "lossy", "rates", "up", "churn_updates",
        "bad", "current_loss", "next_epoch", "next_resample", "next_boundary",
        "current_graph", "total_contacts", "mode", "adaptive_loss",
        "adaptive_churn", "crash_order", "crash_budget", "jam_budget",
    )

    def __init__(
        self,
        graph: Graph,
        scenario: Scenario,
        rng: np.random.Generator,
        mode: str,
    ) -> None:
        self.burst = scenario.burst
        self.churn = scenario.churn
        self.dynamic = scenario.dynamic
        self.adaptive_loss = scenario.adaptive_loss
        self.lossy = (
            scenario.loss_prob > 0.0
            or self.burst is not None
            or self.adaptive_loss is not None
        )
        self.mode = mode
        # Delay rates are the first randomness the trial consumes.
        delay = scenario.delay
        self.rates = delay.draw_rates(graph, rng) if delay is not None else None
        self.up = self.churn.initial_up(graph) if self.churn is not None else None
        self.churn_updates = self.churn is not None and self.churn.epoch_draws
        self.adaptive_churn = self.churn is not None and self.churn.adaptive
        self.crash_order = (
            self.churn.ranking(graph) if self.adaptive_churn else None
        )
        self.crash_budget = self.churn.budget if self.adaptive_churn else 0
        self.jam_budget = (
            self.adaptive_loss.budget if self.adaptive_loss is not None else 0
        )
        self.bad = False
        self.current_loss = scenario.loss_prob
        self.next_epoch = (
            1.0
            if (self.churn_updates or self.adaptive_churn or self.burst is not None)
            else math.inf
        )
        self.next_resample = (
            float(self.dynamic.period) if self.dynamic is not None else math.inf
        )
        self.next_boundary = min(self.next_epoch, self.next_resample)
        self.current_graph = graph
        self.total_contacts = 0

    def budget_spent(self) -> Optional[int]:
        """Adaptive budget consumed so far (``None`` without adaptive parts)."""
        if not self.adaptive_churn and self.adaptive_loss is None:
            return None
        initial = (self.churn.budget if self.adaptive_churn else 0) + (
            self.adaptive_loss.budget if self.adaptive_loss is not None else 0
        )
        return initial - self.crash_budget - self.jam_budget

    def cross_boundaries(
        self,
        now: float,
        n: int,
        rng: np.random.Generator,
        informed: list[bool],
    ) -> float:
        """Fire every epoch/resample boundary in (previous tick, now];
        returns the next boundary's time.

        A runner whose view reads the graph must refresh its adjacency from
        :attr:`current_graph` afterwards.
        """
        while self.next_boundary <= now:
            if self.next_epoch <= self.next_resample:
                if self.churn_updates:
                    self.up = self.churn.step(self.up, rng.random(n))
                elif self.adaptive_churn:
                    # Deterministic crash on the observed informed set — no
                    # draw, so the RNG stream matches the oblivious engines'.
                    self.crash_budget -= self.churn.crash_step(
                        self.up,
                        np.asarray(informed, dtype=bool),
                        self.crash_order,
                        self.crash_budget,
                    )
                if self.burst is not None:
                    self.bad = bool(self.burst.step_state(self.bad, rng.random()))
                    self.current_loss = float(self.burst.loss_at(self.bad))
                self.next_epoch += 1.0
            else:
                self.current_graph = self.dynamic.resample(self.current_graph, rng)
                self.next_resample += float(self.dynamic.period)
            self.next_boundary = min(self.next_epoch, self.next_resample)
        return self.next_boundary

    def suppresses(
        self,
        caller: int,
        callee: int,
        loss_uniform: float,
        informed: list[bool],
    ) -> bool:
        """Whether loss, churn or the jammer suppresses the tick's contact.

        ``loss_uniform`` is the tick's loss draw (read only when the run is
        lossy).  A crashed caller initiates nothing, so only contacts whose
        caller is up count toward ``total_contacts`` (matching the sync
        engine's accounting); lost messages still count — the contact
        happened, the payload didn't arrive.
        """
        up = self.up
        if up is None or up[caller]:
            self.total_contacts += 1
        down = up is not None and not (up[caller] and up[callee])
        if self.adaptive_loss is not None:
            # The jammer only jams would-transmit contacts (the informative
            # direction between two up vertices) while budget remains.
            if self.mode == "push-pull":
                informative = informed[caller] != informed[callee]
            elif self.mode == "push":
                informative = informed[caller] and not informed[callee]
            else:
                informative = not informed[caller] and informed[callee]
            jam = (
                not down
                and informative
                and self.jam_budget > 0
                and loss_uniform < self.adaptive_loss.p
            )
            if jam:
                self.jam_budget -= 1
            return down or jam
        return (self.lossy and loss_uniform < self.current_loss) or down


# ---------------------------------------------------------------------- #
# The three views: each runs one trial and returns its step count
# ---------------------------------------------------------------------- #
def _run_global_view(
    graph: Graph,
    record: _Record,
    rng: np.random.Generator,
    state: Optional[_ScenarioState],
    step_budget: int,
    time_budget: float,
) -> int:
    """View 1: one Poisson clock of rate ``n`` (``sum(r_v)`` under a
    ``Delay``); on each tick a uniformly (rate-weighted) random vertex takes
    a step.  Draw order: :class:`_ScenarioState`."""
    n = graph.num_vertices
    adjacency = graph.adjacency
    degrees = graph.degrees
    rates = None if state is None else state.rates
    cum_rates = None if rates is None else np.cumsum(rates)
    total_rate = float(n) if cum_rates is None else float(cum_rates[-1])
    scale = 1.0 / total_rate  # mean gap of the superposed clock
    lossy = state is not None and state.lossy
    next_boundary = math.inf if state is None else state.next_boundary
    informed = record.informed
    contact = record.contact

    now = 0.0
    steps = 0
    while record.num_informed < n and steps < step_budget and now <= time_budget:
        chunk = min(_CHUNK, step_budget - steps)
        gaps = rng.exponential(scale, chunk).tolist()
        if cum_rates is None:
            callers = rng.integers(0, n, chunk).tolist()
        else:
            uniforms = rng.random(chunk) * total_rate
            callers = np.minimum(
                np.searchsorted(cum_rates, uniforms, side="right"), n - 1
            ).tolist()
        neighbor_uniforms = rng.random(chunk).tolist()
        loss_uniforms = rng.random(chunk).tolist() if lossy else repeat(0.0)
        for gap, caller, u, loss in zip(gaps, callers, neighbor_uniforms, loss_uniforms):
            now += gap
            if now > time_budget:
                break
            if now >= next_boundary and state is not None:
                next_boundary = state.cross_boundaries(now, n, rng, informed)
                adjacency = state.current_graph.adjacency
                degrees = state.current_graph.degrees
            steps += 1
            degree = degrees[caller]
            callee = adjacency[caller][min(int(u * degree), degree - 1)]
            suppressed = state is not None and state.suppresses(caller, callee, loss, informed)
            if contact(caller, callee, now, suppressed):
                break
    return steps


def _run_node_clock_view(
    graph: Graph,
    record: _Record,
    rng: np.random.Generator,
    state: Optional[_ScenarioState],
    step_budget: int,
    time_budget: float,
) -> int:
    """View 2: one Poisson clock of rate 1 (``r_v`` under a ``Delay``) per
    vertex, kept in a priority queue.  Draw order: :class:`_ScenarioState`."""
    n = graph.num_vertices
    adjacency = graph.adjacency
    degrees = graph.degrees
    rates = None if state is None else state.rates
    # Vertex v ticks at rate r_v: gaps are Exp(1 / r_v).
    scales = None if rates is None else (1.0 / rates).tolist()
    first_ticks = rng.exponential(1.0, n) if rates is None else rng.exponential(1.0 / rates)
    heap = [(float(first_ticks[v]), v) for v in range(n)]
    heapq.heapify(heap)
    lossy = state is not None and state.lossy
    next_boundary = math.inf if state is None else state.next_boundary
    informed = record.informed

    steps = 0
    while steps < step_budget:
        refill = min(_CLOCK_BLOCK, step_budget - steps)
        neighbor_uniforms = rng.random(refill).tolist()
        loss_uniforms = rng.random(refill).tolist() if lossy else repeat(0.0)
        exponentials = rng.standard_exponential(refill).tolist()
        for u, loss, gap in zip(neighbor_uniforms, loss_uniforms, exponentials):
            now, caller = heapq.heappop(heap)
            if now > time_budget:
                return steps
            if now >= next_boundary and state is not None:
                next_boundary = state.cross_boundaries(now, n, rng, informed)
                adjacency = state.current_graph.adjacency
                degrees = state.current_graph.degrees
            steps += 1
            degree = degrees[caller]
            callee = adjacency[caller][min(int(u * degree), degree - 1)]
            suppressed = state is not None and state.suppresses(caller, callee, loss, informed)
            if record.contact(caller, callee, now, suppressed):
                return steps
            if scales is not None:
                gap *= scales[caller]
            heapq.heappush(heap, (now + gap, caller))
    return steps


def _run_edge_clock_view(
    graph: Graph,
    record: _Record,
    rng: np.random.Generator,
    state: Optional[_ScenarioState],
    step_budget: int,
    time_budget: float,
) -> int:
    """View 3: one Poisson clock of rate ``1 / deg(v)`` per ordered pair
    ``(v, w)``, kept in a priority queue.  Draw order:
    :class:`_ScenarioState`."""
    n = graph.num_vertices
    rates = None if state is None else state.rates
    # Clock rate 1/deg(v) means the inter-tick times have mean deg(v) — or
    # deg(v)/r_v under a Delay, so v's pair clocks still superpose to v's
    # own rate r_v.
    ordered_pairs: list[tuple[int, int]] = []
    pair_scales: list[float] = []
    for v in range(n):
        scale = graph.degree(v) if rates is None else graph.degree(v) / float(rates[v])
        for w in graph.neighbors(v):
            ordered_pairs.append((v, w))
            pair_scales.append(scale)
    heap = [(float(rng.exponential(scale)), index) for index, scale in enumerate(pair_scales)]
    heapq.heapify(heap)
    lossy = state is not None and state.lossy
    next_boundary = math.inf if state is None else state.next_boundary
    informed = record.informed

    steps = 0
    while steps < step_budget:
        refill = min(_CLOCK_BLOCK, step_budget - steps)
        loss_uniforms = rng.random(refill).tolist() if lossy else repeat(0.0)
        exponentials = rng.standard_exponential(refill).tolist()
        for loss, gap in zip(loss_uniforms, exponentials):
            now, pair_index = heapq.heappop(heap)
            if now > time_budget:
                return steps
            if now >= next_boundary and state is not None:
                # Dynamic graphs are rejected upstream: the pair set never changes.
                next_boundary = state.cross_boundaries(now, n, rng, informed)
            steps += 1
            caller, callee = ordered_pairs[pair_index]
            suppressed = state is not None and state.suppresses(caller, callee, loss, informed)
            if record.contact(caller, callee, now, suppressed):
                return steps
            heapq.heappush(heap, (now + gap * pair_scales[pair_index], pair_index))
    return steps


_Runner = Callable[
    [Graph, _Record, np.random.Generator, Optional[_ScenarioState], int, float], int
]

_RUNNERS: dict[str, _Runner] = {
    "global": _run_global_view,
    "node_clocks": _run_node_clock_view,
    "edge_clocks": _run_edge_clock_view,
}
