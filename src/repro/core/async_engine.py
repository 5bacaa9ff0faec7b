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
from typing import Optional

import numpy as np

from repro.core.result import ContactEvent, SpreadingResult
from repro.errors import ProtocolError, ScenarioError, SimulationError
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


def _validate(graph: Graph, source: int, mode: str, view: str) -> None:
    if mode not in ASYNC_MODES:
        raise ProtocolError(f"unknown asynchronous mode {mode!r}; expected one of {ASYNC_MODES}")
    if view not in ASYNC_VIEWS:
        raise ProtocolError(f"unknown asynchronous view {view!r}; expected one of {ASYNC_VIEWS}")
    if not (0 <= source < graph.num_vertices):
        raise ProtocolError(
            f"source {source} is not a vertex of {graph.name} (n={graph.num_vertices})"
        )
    if graph.num_vertices > 1 and not graph.is_connected():
        raise ProtocolError(
            f"{graph.name} is not connected; the rumor can never reach every vertex"
        )


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
    _validate(graph, source, mode, view)
    scenario = as_scenario(scenario)
    if (
        scenario is not None
        and scenario.dynamic is not None
        and view == "edge_clocks"
    ):
        raise ScenarioError(
            "dynamic-graph scenarios are not supported under the 'edge_clocks' "
            "view: resampling the graph would change the per-pair clock set "
            "itself; use the 'node_clocks' or 'global' view"
        )
    if on_budget_exhausted not in ("error", "partial"):
        raise ProtocolError(
            f"on_budget_exhausted must be 'error' or 'partial', got {on_budget_exhausted!r}"
        )
    n = graph.num_vertices
    step_budget = default_max_steps(n) if max_steps is None else int(max_steps)
    if step_budget < 0:
        raise ProtocolError(f"max_steps must be non-negative, got {max_steps}")
    time_budget = math.inf if max_time is None else float(max_time)
    if time_budget < 0:
        raise ProtocolError(f"max_time must be non-negative, got {max_time}")

    protocol_name = _PROTOCOL_NAMES[mode]
    if n == 1:
        return SpreadingResult(
            protocol=protocol_name,
            graph_name=graph.name,
            num_vertices=1,
            source=source,
            informed_time=(0.0,),
            parent=(-1,),
            infection_kind=("source",),
            completed=True,
            steps=0,
            push_infections=0,
            pull_infections=0,
            total_contacts=0,
            trace=None,
        )

    rng = as_generator(seed)
    runtime_scenario = (
        scenario if scenario is not None and scenario.runtime_active() else None
    )
    if view == "global":
        if runtime_scenario is not None:
            return _run_global_view_scenario(
                graph,
                source,
                mode,
                rng,
                step_budget,
                time_budget,
                record_trace,
                on_budget_exhausted,
                protocol_name,
                runtime_scenario,
            )
        runner = _run_global_view
        return runner(
            graph,
            source,
            mode,
            rng,
            step_budget,
            time_budget,
            record_trace,
            on_budget_exhausted,
            protocol_name,
        )
    runner = _run_node_clock_view if view == "node_clocks" else _run_edge_clock_view
    return runner(
        graph,
        source,
        mode,
        rng,
        step_budget,
        time_budget,
        record_trace,
        on_budget_exhausted,
        protocol_name,
        runtime_scenario,
    )


# ---------------------------------------------------------------------- #
# Shared per-step rumor exchange logic
# ---------------------------------------------------------------------- #
def _exchange(
    mode: str,
    caller: int,
    callee: int,
    informed: list[bool],
    informed_time: list[float],
    parent: list[int],
    kind: list[Optional[str]],
    now: float,
) -> tuple[Optional[int], Optional[str]]:
    """Apply one contact; returns (vertex informed, kind) or (None, None)."""
    caller_informed = informed[caller]
    callee_informed = informed[callee]
    if caller_informed == callee_informed:
        return None, None
    if caller_informed:
        if mode in ("push", "push-pull"):
            informed[callee] = True
            informed_time[callee] = now
            parent[callee] = caller
            kind[callee] = "push"
            return callee, "push"
        return None, None
    # Caller is uninformed, callee informed: a pull.
    if mode in ("pull", "push-pull"):
        informed[caller] = True
        informed_time[caller] = now
        parent[caller] = callee
        kind[caller] = "pull"
        return caller, "pull"
    return None, None


def _build_result(
    protocol_name: str,
    graph: Graph,
    source: int,
    informed_time: list[float],
    parent: list[int],
    kind: list[Optional[str]],
    steps: int,
    push_infections: int,
    pull_infections: int,
    trace: list[ContactEvent],
    record_trace: bool,
    on_budget_exhausted: str,
    budget_description: str,
    total_contacts: Optional[int] = None,
    adversary_budget_spent: Optional[int] = None,
) -> SpreadingResult:
    completed = all(math.isfinite(t) for t in informed_time)
    if not completed and on_budget_exhausted == "error":
        informed_count = sum(1 for t in informed_time if math.isfinite(t))
        raise SimulationError(
            f"{protocol_name} on {graph.name} informed only {informed_count}/"
            f"{graph.num_vertices} vertices within {budget_description}"
        )
    return SpreadingResult(
        protocol=protocol_name,
        graph_name=graph.name,
        num_vertices=graph.num_vertices,
        source=source,
        informed_time=tuple(informed_time),
        parent=tuple(parent),
        infection_kind=tuple(kind),
        completed=completed,
        steps=steps,
        push_infections=push_infections,
        pull_infections=pull_infections,
        total_contacts=steps if total_contacts is None else total_contacts,
        adversary_budget_spent=adversary_budget_spent,
        trace=tuple(trace) if record_trace else None,
    )


# ---------------------------------------------------------------------- #
# View 1: single global Poisson clock of rate n
# ---------------------------------------------------------------------- #
def _run_global_view(
    graph: Graph,
    source: int,
    mode: str,
    rng: np.random.Generator,
    step_budget: int,
    time_budget: float,
    record_trace: bool,
    on_budget_exhausted: str,
    protocol_name: str,
) -> SpreadingResult:
    n = graph.num_vertices
    adjacency = graph.adjacency
    degrees = graph.degrees

    informed = [False] * n
    informed[source] = True
    informed_time = [math.inf] * n
    informed_time[source] = 0.0
    parent = [-1] * n
    kind: list[Optional[str]] = [None] * n
    kind[source] = "source"

    push_infections = 0
    pull_infections = 0
    trace: list[ContactEvent] = []

    now = 0.0
    steps = 0
    num_informed = 1
    batch_size = 4096
    scale = 1.0 / n  # mean gap of the rate-n global clock

    while num_informed < n and steps < step_budget and now <= time_budget:
        remaining = step_budget - steps
        this_batch = min(batch_size, remaining)
        gaps = rng.exponential(scale, this_batch).tolist()
        callers = rng.integers(0, n, this_batch).tolist()
        neighbor_uniforms = rng.random(this_batch).tolist()
        for gap, caller, u in zip(gaps, callers, neighbor_uniforms):
            now += gap
            if now > time_budget:
                break
            steps += 1
            degree = degrees[caller]
            callee = adjacency[caller][min(int(u * degree), degree - 1)]
            informed_vertex, event_kind = _exchange(
                mode, caller, callee, informed, informed_time, parent, kind, now
            )
            if event_kind == "push":
                push_infections += 1
                num_informed += 1
            elif event_kind == "pull":
                pull_infections += 1
                num_informed += 1
            if record_trace:
                trace.append(
                    ContactEvent(
                        time=now,
                        caller=caller,
                        callee=callee,
                        informed=informed_vertex,
                        kind=event_kind,
                    )
                )
            if num_informed == n:
                break

    return _build_result(
        protocol_name,
        graph,
        source,
        informed_time,
        parent,
        kind,
        steps,
        push_infections,
        pull_infections,
        trace,
        record_trace,
        on_budget_exhausted,
        f"{step_budget} steps / time {time_budget}",
    )


# ---------------------------------------------------------------------- #
# View 1 under an adversity scenario (kept separate so the unperturbed hot
# path above stays byte-for-byte identical to the PR-1 pinned draw order)
# ---------------------------------------------------------------------- #
def _run_global_view_scenario(
    graph: Graph,
    source: int,
    mode: str,
    rng: np.random.Generator,
    step_budget: int,
    time_budget: float,
    record_trace: bool,
    on_budget_exhausted: str,
    protocol_name: str,
    scenario: Scenario,
) -> SpreadingResult:
    """The global view with loss / churn / dynamic-graph / delay effects.

    Per-trial randomness order (mirrored exactly by the batched kernel in
    :mod:`repro.core.batch_engine`):

    1. ``Delay`` rates, once, before any tick randomness;
    2. per refill chunk: exponential gaps, caller draws (``integers`` without
       delay, uniforms with), neighbor uniforms, loss uniforms (if a loss or
       burst-loss component is present);
    3. interleaved at consumption time: per unit-time epoch boundary
       crossed, one ``rng.random(n)`` churn update (for churn models with
       per-epoch randomness) then one scalar burst-channel draw; and the
       resampler's own draws at each dynamic-graph period boundary (the
       epoch fires before a resample on ties).
    """
    n = graph.num_vertices
    current_graph = graph
    adjacency = graph.adjacency
    degrees = graph.degrees

    loss_prob = scenario.loss_prob
    burst = scenario.burst
    churn = scenario.churn
    dynamic = scenario.dynamic
    delay = scenario.delay
    adaptive_loss = scenario.adaptive_loss
    lossy = loss_prob > 0.0 or burst is not None or adaptive_loss is not None

    cum_rates = None
    total_rate = float(n)
    if delay is not None:
        rates = delay.draw_rates(graph, rng)
        cum_rates = np.cumsum(rates)
        total_rate = float(cum_rates[-1])
    scale = 1.0 / total_rate  # mean gap of the superposed clock

    up: Optional[np.ndarray] = churn.initial_up(graph) if churn is not None else None
    churn_updates = churn is not None and churn.epoch_draws
    adaptive_churn = churn is not None and churn.adaptive
    crash_order = churn.ranking(graph) if adaptive_churn else None
    crash_budget = churn.budget if adaptive_churn else 0
    jam_budget = adaptive_loss.budget if adaptive_loss is not None else 0
    bad = False
    current_loss = loss_prob
    next_epoch = (
        1.0 if (churn_updates or adaptive_churn or burst is not None) else math.inf
    )
    next_resample = float(dynamic.period) if dynamic is not None else math.inf

    informed = [False] * n
    informed[source] = True
    informed_time = [math.inf] * n
    informed_time[source] = 0.0
    parent = [-1] * n
    kind: list[Optional[str]] = [None] * n
    kind[source] = "source"

    push_infections = 0
    pull_infections = 0
    trace: list[ContactEvent] = []

    now = 0.0
    steps = 0
    total_contacts = 0
    num_informed = 1
    batch_size = 4096

    while num_informed < n and steps < step_budget and now <= time_budget:
        remaining = step_budget - steps
        this_batch = min(batch_size, remaining)
        gaps = rng.exponential(scale, this_batch).tolist()
        if delay is not None:
            caller_draws = rng.random(this_batch).tolist()
        else:
            caller_draws = rng.integers(0, n, this_batch).tolist()
        neighbor_uniforms = rng.random(this_batch).tolist()
        loss_uniforms = rng.random(this_batch).tolist() if lossy else None
        for index in range(this_batch):
            now += gaps[index]
            if now > time_budget:
                break
            # Boundaries crossed in (previous tick, now] fire before the
            # exchange at `now`, in chronological order (epoch updates —
            # churn then burst — before a resample on ties).
            while True:
                boundary = min(next_epoch, next_resample)
                if boundary > now:
                    break
                if next_epoch <= next_resample:
                    if churn_updates:
                        # repro: allow[RNG002] -- epoch schedule is deterministic in time, not in drawn values; every engine fires the identical boundary interleave
                        up = churn.step(up, rng.random(n))
                    elif adaptive_churn:
                        # The adaptive adversary observes the informed set at
                        # the epoch boundary and crashes deterministically —
                        # no draw, so the RNG stream matches the oblivious
                        # engines'.
                        crash_budget -= churn.crash_step(
                            up, np.asarray(informed, dtype=bool), crash_order, crash_budget
                        )
                    if burst is not None:
                        # repro: allow[RNG002] -- epoch schedule is deterministic in time, not in drawn values; every engine fires the identical boundary interleave
                        bad = bool(burst.step_state(bad, rng.random()))
                        current_loss = float(burst.loss_at(bad))
                    next_epoch += 1.0
                else:
                    current_graph = dynamic.resample(current_graph, rng)
                    adjacency = current_graph.adjacency
                    degrees = current_graph.degrees
                    next_resample += float(dynamic.period)
            steps += 1
            if cum_rates is not None:
                caller = min(
                    int(np.searchsorted(cum_rates, caller_draws[index] * total_rate, side="right")),
                    n - 1,
                )
            else:
                caller = caller_draws[index]
            degree = degrees[caller]
            callee = adjacency[caller][min(int(neighbor_uniforms[index] * degree), degree - 1)]
            if up is None or up[caller]:
                # A crashed caller initiates nothing (matching the sync
                # engine's contact accounting); lost messages still count —
                # the contact happened, the payload didn't arrive.
                total_contacts += 1
            down = up is not None and not (up[caller] and up[callee])
            if adaptive_loss is not None:
                # Jam only would-transmit contacts (informative direction
                # between two up vertices); the loss uniform is consumed
                # unconditionally so the draw order never depends on state.
                if mode == "push-pull":
                    informative = informed[caller] != informed[callee]
                elif mode == "push":
                    informative = informed[caller] and not informed[callee]
                else:
                    informative = not informed[caller] and informed[callee]
                jam = (
                    not down
                    and informative
                    and jam_budget > 0
                    and loss_uniforms[index] < adaptive_loss.p
                )
                if jam:
                    jam_budget -= 1
                suppressed = down or jam
            else:
                suppressed = (
                    loss_uniforms is not None and loss_uniforms[index] < current_loss
                ) or down
            if suppressed:
                informed_vertex, event_kind = None, None
            else:
                informed_vertex, event_kind = _exchange(
                    mode, caller, callee, informed, informed_time, parent, kind, now
                )
            if event_kind == "push":
                push_infections += 1
                num_informed += 1
            elif event_kind == "pull":
                pull_infections += 1
                num_informed += 1
            if record_trace:
                trace.append(
                    ContactEvent(
                        time=now,
                        caller=caller,
                        callee=callee,
                        informed=informed_vertex,
                        kind=event_kind,
                    )
                )
            if num_informed == n:
                break

    return _build_result(
        protocol_name,
        graph,
        source,
        informed_time,
        parent,
        kind,
        steps,
        push_infections,
        pull_infections,
        trace,
        record_trace,
        on_budget_exhausted,
        f"{step_budget} steps / time {time_budget} under {scenario.spec()}",
        total_contacts=total_contacts,
        adversary_budget_spent=(
            (churn.budget if adaptive_churn else 0)
            + (adaptive_loss.budget if adaptive_loss is not None else 0)
            - crash_budget
            - jam_budget
        )
        if adaptive_churn or adaptive_loss is not None
        else None,
    )


# ---------------------------------------------------------------------- #
# Shared scenario state for the clock-queue views
# ---------------------------------------------------------------------- #
class _ClockScenarioState:
    """Per-trial scenario bookkeeping shared by both clock-queue runners.

    Per-trial randomness order (mirrored exactly by the clock-view table
    loop of :func:`repro.core.batch_engine.run_batch`):

    1. ``Delay`` rates, once, before the initial next-tick block;
    2. the initial next-tick block (``rng.exponential(1 / r_v, n)`` for
       ``node_clocks``; one per-pair block with scale ``deg(v) / r_v`` in
       CSR pair order for ``edge_clocks``);
    3. per tick popped at time ``now``: every boundary crossed in
       (previous tick, now] fires chronologically — per epoch one
       ``rng.random(n)`` churn update (for churn models with per-epoch
       randomness) then one scalar burst draw; per dynamic-graph period
       boundary the resampler's own draws (epoch before resample on ties;
       clocks are never redrawn — ``node_clocks`` clocks are graph
       independent, and ``edge_clocks`` rejects dynamic graphs);
    4. the tick's own draws, in order: neighbor uniform (``node_clocks``
       only), loss uniform (whenever a loss or burst-loss component is
       present), reschedule exponential.
    """

    __slots__ = (
        "loss_prob", "burst", "churn", "dynamic", "delay", "lossy", "rates",
        "up", "churn_updates", "bad", "current_loss", "next_epoch",
        "next_resample", "current_graph", "total_contacts", "mode",
        "adaptive_loss", "adaptive_churn", "crash_order", "crash_budget",
        "jam_budget",
    )

    def __init__(
        self,
        graph: Graph,
        scenario: Optional[Scenario],
        rng: np.random.Generator,
        mode: str = "push-pull",
    ) -> None:
        self.loss_prob = scenario.loss_prob if scenario is not None else 0.0
        self.burst = scenario.burst if scenario is not None else None
        self.churn = scenario.churn if scenario is not None else None
        self.dynamic = scenario.dynamic if scenario is not None else None
        self.delay = scenario.delay if scenario is not None else None
        self.adaptive_loss = (
            scenario.adaptive_loss if scenario is not None else None
        )
        self.lossy = (
            self.loss_prob > 0.0
            or self.burst is not None
            or self.adaptive_loss is not None
        )
        self.mode = mode
        # Delay rates are the first randomness the trial consumes.
        self.rates = (
            self.delay.draw_rates(graph, rng) if self.delay is not None else None
        )
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
        self.current_loss = self.loss_prob
        self.next_epoch = (
            1.0
            if (self.churn_updates or self.adaptive_churn or self.burst is not None)
            else math.inf
        )
        self.next_resample = (
            float(self.dynamic.period) if self.dynamic is not None else math.inf
        )
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
        informed: Optional[list] = None,
    ) -> bool:
        """Fire every epoch/resample boundary in (previous tick, now].

        Returns whether a resample occurred (the caller must refresh its
        adjacency view).
        """
        resampled = False
        while True:
            boundary = min(self.next_epoch, self.next_resample)
            if boundary > now:
                return resampled
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
                resampled = True

    def suppresses(
        self,
        caller: int,
        callee: int,
        rng: np.random.Generator,
        informed: Optional[list] = None,
    ) -> bool:
        """Consume the tick's loss draw and apply the loss/churn masks.

        Also maintains the caller-must-be-up contact accounting (matching
        the global view's scenario runner).
        """
        if self.up is None or self.up[caller]:
            self.total_contacts += 1
        down = self.up is not None and not (self.up[caller] and self.up[callee])
        if self.adaptive_loss is not None:
            # The loss uniform is consumed unconditionally so the draw order
            # never depends on protocol state; it only jams would-transmit
            # contacts while budget remains.
            draw = rng.random()
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
                and draw < self.adaptive_loss.p
            )
            if jam:
                self.jam_budget -= 1
            return down or jam
        lost = self.lossy and rng.random() < self.current_loss
        return lost or down


# ---------------------------------------------------------------------- #
# View 2: one Poisson clock of rate 1 per vertex (priority queue)
# ---------------------------------------------------------------------- #
def _run_node_clock_view(
    graph: Graph,
    source: int,
    mode: str,
    rng: np.random.Generator,
    step_budget: int,
    time_budget: float,
    record_trace: bool,
    on_budget_exhausted: str,
    protocol_name: str,
    scenario: Optional[Scenario] = None,
) -> SpreadingResult:
    n = graph.num_vertices
    state = (
        _ClockScenarioState(graph, scenario, rng, mode)
        if scenario is not None
        else None
    )
    adjacency = graph.adjacency
    degrees = graph.degrees

    informed = [False] * n
    informed[source] = True
    informed_time = [math.inf] * n
    informed_time[source] = 0.0
    parent = [-1] * n
    kind: list[Optional[str]] = [None] * n
    kind[source] = "source"

    push_infections = 0
    pull_infections = 0
    trace: list[ContactEvent] = []

    if state is not None and state.rates is not None:
        # Vertex v ticks at rate r_v: gaps are Exp(1 / r_v).
        scales = 1.0 / state.rates
        first_ticks = rng.exponential(scales)
    else:
        scales = None
        first_ticks = rng.exponential(1.0, n)
    heap: list[tuple[float, int]] = [(float(first_ticks[v]), v) for v in range(n)]
    heapq.heapify(heap)

    steps = 0
    num_informed = 1
    now = 0.0
    while num_informed < n and steps < step_budget:
        now, caller = heapq.heappop(heap)
        if now > time_budget:
            break
        if state is not None and state.cross_boundaries(now, n, rng, informed):
            adjacency = state.current_graph.adjacency
            degrees = state.current_graph.degrees
        steps += 1
        degree = degrees[caller]
        callee = adjacency[caller][min(int(rng.random() * degree), degree - 1)]
        if state is not None and state.suppresses(caller, callee, rng, informed):
            informed_vertex, event_kind = None, None
        else:
            informed_vertex, event_kind = _exchange(
                mode, caller, callee, informed, informed_time, parent, kind, now
            )
        if event_kind == "push":
            push_infections += 1
            num_informed += 1
        elif event_kind == "pull":
            pull_infections += 1
            num_informed += 1
        if record_trace:
            trace.append(
                ContactEvent(
                    time=now,
                    caller=caller,
                    callee=callee,
                    informed=informed_vertex,
                    kind=event_kind,
                )
            )
        reschedule_scale = 1.0 if scales is None else float(scales[caller])
        heapq.heappush(heap, (now + float(rng.exponential(reschedule_scale)), caller))

    return _build_result(
        protocol_name,
        graph,
        source,
        informed_time,
        parent,
        kind,
        steps,
        push_infections,
        pull_infections,
        trace,
        record_trace,
        on_budget_exhausted,
        f"{step_budget} steps / time {time_budget}"
        + (f" under {scenario.spec()}" if scenario is not None else ""),
        total_contacts=state.total_contacts if state is not None else None,
        adversary_budget_spent=state.budget_spent() if state is not None else None,
    )


# ---------------------------------------------------------------------- #
# View 3: one Poisson clock of rate 1/deg(v) per ordered pair (v, w)
# ---------------------------------------------------------------------- #
def _run_edge_clock_view(
    graph: Graph,
    source: int,
    mode: str,
    rng: np.random.Generator,
    step_budget: int,
    time_budget: float,
    record_trace: bool,
    on_budget_exhausted: str,
    protocol_name: str,
    scenario: Optional[Scenario] = None,
) -> SpreadingResult:
    n = graph.num_vertices
    state = (
        _ClockScenarioState(graph, scenario, rng, mode)
        if scenario is not None
        else None
    )

    informed = [False] * n
    informed[source] = True
    informed_time = [math.inf] * n
    informed_time[source] = 0.0
    parent = [-1] * n
    kind: list[Optional[str]] = [None] * n
    kind[source] = "source"

    push_infections = 0
    pull_infections = 0
    trace: list[ContactEvent] = []

    # Ordered pairs (v, w) for every edge {v, w}: clock rate 1/deg(v) means
    # the inter-tick times have mean deg(v) — or deg(v)/r_v under a Delay,
    # so v's pair clocks still superpose to v's own rate r_v.
    rates = state.rates if state is not None else None
    ordered_pairs: list[tuple[int, int]] = []
    pair_scales: list[float] = []
    for v in range(n):
        scale = graph.degree(v) if rates is None else graph.degree(v) / float(rates[v])
        for w in graph.neighbors(v):
            ordered_pairs.append((v, w))
            pair_scales.append(scale)
    heap: list[tuple[float, int]] = []
    for index in range(len(ordered_pairs)):
        first = float(rng.exponential(pair_scales[index]))
        heap.append((first, index))
    heapq.heapify(heap)

    steps = 0
    num_informed = 1
    now = 0.0
    while num_informed < n and steps < step_budget and heap:
        now, pair_index = heapq.heappop(heap)
        if now > time_budget:
            break
        if state is not None:
            state.cross_boundaries(now, n, rng, informed)  # dynamic rejected upstream
        steps += 1
        caller, callee = ordered_pairs[pair_index]
        if state is not None and state.suppresses(caller, callee, rng, informed):
            informed_vertex, event_kind = None, None
        else:
            informed_vertex, event_kind = _exchange(
                mode, caller, callee, informed, informed_time, parent, kind, now
            )
        if event_kind == "push":
            push_infections += 1
            num_informed += 1
        elif event_kind == "pull":
            pull_infections += 1
            num_informed += 1
        if record_trace:
            trace.append(
                ContactEvent(
                    time=now,
                    caller=caller,
                    callee=callee,
                    informed=informed_vertex,
                    kind=event_kind,
                )
            )
        heapq.heappush(
            heap, (now + float(rng.exponential(pair_scales[pair_index])), pair_index)
        )

    return _build_result(
        protocol_name,
        graph,
        source,
        informed_time,
        parent,
        kind,
        steps,
        push_infections,
        pull_infections,
        trace,
        record_trace,
        on_budget_exhausted,
        f"{step_budget} steps / time {time_budget}"
        + (f" under {scenario.spec()}" if scenario is not None else ""),
        total_contacts=state.total_contacts if state is not None else None,
        adversary_budget_spent=state.budget_spent() if state is not None else None,
    )
