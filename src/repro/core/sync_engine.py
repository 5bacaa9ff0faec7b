"""Synchronous rumor spreading engines: push, pull, and push–pull.

This is the paper's baseline model (Section 2): time proceeds in rounds
``r = 1, 2, ...``; in every round each vertex ``v`` contacts a uniformly
random neighbor ``w``.  If exactly one of ``v, w`` was informed *before the
round*, the other becomes informed in that round:

* **push** — only informed callers transmit (``v`` informed, ``w`` not);
* **pull** — only uninformed callers receive (``v`` not informed, ``w`` is);
* **push–pull** (``pp``) — both directions are allowed.

All vertices' contacts within a round happen "in parallel and
independently"; the informed set used to decide transmissions is the one
from the *start* of the round, and all vertices that received the rumor are
added at the end of the round.  The engine is fully vectorised over
vertices, so a round costs a handful of NumPy operations regardless of
degree structure.

This module simulates *one* trial and materialises the full
:class:`~repro.core.result.SpreadingResult` (parents, infection kinds,
optional traces).  Monte Carlo workloads that only need spreading times
should go through :mod:`repro.core.batch_engine`, which runs whole blocks
of trials as ``(B, n)`` arrays and reproduces this engine's results
trial-for-trial for the same per-trial generators.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.budgets import (
    check_budget_policy,
    check_source,
    parse_count_budget,
    scenario_rejection,
)
from repro.core.flatgraph import FlatAdjacency, flat_adjacency
from repro.core.result import ContactEvent, SpreadingResult
from repro.errors import ProtocolError, SimulationError
from repro.graphs.base import Graph
from repro.randomness.rng import SeedLike, as_generator
from repro.scenarios.base import ScenarioLike, as_scenario

__all__ = [
    "run_synchronous",
    "default_max_rounds",
    "SYNC_MODES",
]

#: Valid values for the ``mode`` argument.
SYNC_MODES = ("push", "pull", "push-pull")


def default_max_rounds(num_vertices: int) -> int:
    """A generous default round budget.

    The slowest protocol/topology pair in the standard suites is synchronous
    push on the star, which needs :math:`\\Theta(n \\log n)` rounds; the
    default budget is a large constant times that, so hitting it indicates a
    genuine problem (e.g. a disconnected graph) rather than bad luck.
    """
    n = max(2, num_vertices)
    return int(200 * n * max(1.0, math.log(n)) + 2000)


def run_synchronous(
    graph: Graph,
    source: int,
    *,
    mode: str = "push-pull",
    seed: SeedLike = None,
    max_rounds: Optional[int] = None,
    record_trace: bool = False,
    on_budget_exhausted: str = "error",
    scenario: ScenarioLike = None,
) -> SpreadingResult:
    """Simulate one run of a synchronous rumor spreading protocol.

    Args:
        graph: the (connected) graph to spread on.
        source: the initially informed vertex ``u``.
        mode: ``"push"``, ``"pull"``, or ``"push-pull"``.
        seed: RNG seed / generator for reproducibility.
        max_rounds: round budget; defaults to :func:`default_max_rounds`.
        record_trace: record every contact as a :class:`ContactEvent` (slow
            and memory heavy; intended for debugging and coupling tests).
            Under a scenario the trace records every *attempted* contact,
            including those suppressed by loss or churn.
        on_budget_exhausted: ``"error"`` raises :class:`SimulationError` when
            the budget runs out before everyone is informed; ``"partial"``
            returns the incomplete result instead.
        scenario: optional adversity scenario (or spec string) from
            :mod:`repro.scenarios`; message loss (independent or bursty),
            node churn (random or targeted), and dynamic graphs apply to
            synchronous protocols.  Per round the engine draws, in this
            order: graph resample (at a period boundary), churn state
            update (``rng.random(n)``; static churn models draw nothing),
            burst-channel state update (``rng.random()``), contact
            selection (``rng.random(n)``), loss coin flips
            (``rng.random(n)``, drawn whenever a loss or burst-loss
            component is present) — the batch kernel consumes per-trial
            randomness identically.

    Returns:
        A :class:`SpreadingResult`; informing times are round numbers
        (the source has time 0).
    """
    if mode not in SYNC_MODES:
        raise ProtocolError(f"unknown synchronous mode {mode!r}; expected one of {SYNC_MODES}")
    source = check_source(graph, source)
    scenario = as_scenario(scenario)
    rejection = scenario_rejection(mode, scenario, synchronous=True)
    if rejection is not None:
        raise rejection
    loss_prob = 0.0
    burst = None
    churn = None
    dynamic = None
    if scenario is not None:
        loss_prob = scenario.loss_prob
        burst = scenario.burst
        churn = scenario.churn
        dynamic = scenario.dynamic
    adaptive_loss = scenario.adaptive_loss if scenario is not None else None
    lossy = loss_prob > 0.0 or burst is not None or adaptive_loss is not None
    check_budget_policy(on_budget_exhausted)
    n = graph.num_vertices
    budget = parse_count_budget("max_rounds", max_rounds, default_max_rounds(n))

    rng = as_generator(seed)
    flat = flat_adjacency(graph)
    all_vertices = np.arange(n, dtype=np.int64)

    informed = np.zeros(n, dtype=bool)
    informed[source] = True
    informed_round = np.full(n, np.inf)
    informed_round[source] = 0.0
    parent = np.full(n, -1, dtype=np.int64)
    kind = np.full(n, None, dtype=object)
    kind[source] = "source"

    push_infections = 0
    pull_infections = 0
    total_contacts = 0
    trace: list[ContactEvent] = []

    protocol_name = {"push": "push", "pull": "pull", "push-pull": "pp"}[mode]
    rounds_executed = 0

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
            rounds=0,
            push_infections=0,
            pull_infections=0,
            total_contacts=0,
            trace=tuple(trace) if record_trace else None,
        )

    current_graph = graph
    up = churn.initial_up(graph) if churn is not None else None
    churn_updates = churn is not None and churn.epoch_draws
    adaptive_churn = churn is not None and churn.adaptive
    crash_order = churn.ranking(graph) if adaptive_churn else None
    crash_budget = churn.budget if adaptive_churn else 0
    jam_budget = adaptive_loss.budget if adaptive_loss is not None else 0
    bad = False

    num_informed = 1
    while num_informed < n and rounds_executed < budget:
        rounds_executed += 1
        # Scenario randomness order (see the `scenario` arg docs): graph
        # resample, churn update, burst update, contacts, loss flips.
        if dynamic is not None and rounds_executed > 1 and (rounds_executed - 1) % dynamic.period == 0:
            current_graph = dynamic.resample(current_graph, rng)
            flat = FlatAdjacency(current_graph)
        if churn_updates:
            up = churn.step(up, rng.random(n))
        elif adaptive_churn:
            # The adaptive adversary observes the round-start informed set
            # and crashes deterministically — no draw, so the RNG stream is
            # identical to the unperturbed engine's.
            crash_budget -= churn.crash_step(up, informed, crash_order, crash_budget)
        if burst is not None:
            bad = bool(burst.step_state(bad, rng.random()))
        contacts = flat.random_neighbors_all(rng.random(n))
        exchange_ok = None
        if churn is not None:
            # Both endpoints must be up: crashed vertices neither initiate
            # nor answer.
            exchange_ok = up & up[contacts]
            total_contacts += int(np.count_nonzero(up))
        else:
            total_contacts += n
        if lossy:
            loss_draws = rng.random(n)
            if adaptive_loss is not None:
                # Jam only contacts that would transmit: an informative
                # contact in an allowed direction between two up vertices.
                # The budget is spent in vertex-id order within the round.
                contacted = informed[contacts]
                if mode == "push-pull":
                    informative = informed != contacted
                elif mode == "push":
                    informative = informed & ~contacted
                else:
                    informative = ~informed & contacted
                candidate = (
                    informative if exchange_ok is None else informative & exchange_ok
                )
                spend = candidate & (loss_draws < adaptive_loss.p)
                jam = spend & (np.cumsum(spend) <= jam_budget)
                jam_budget -= int(jam.sum())
                kept = ~jam
            else:
                round_loss = loss_prob if burst is None else float(burst.loss_at(bad))
                kept = loss_draws >= round_loss
            exchange_ok = kept if exchange_ok is None else exchange_ok & kept
        informed_before = informed  # the snapshot used for this round's decisions
        contacted_informed = informed_before[contacts]

        new_by_pull = np.zeros(n, dtype=bool)
        if mode in ("pull", "push-pull"):
            # Uninformed caller v contacting an informed callee pulls the rumor.
            new_by_pull = (~informed_before) & contacted_informed
            if exchange_ok is not None:
                new_by_pull &= exchange_ok

        new_by_push = np.zeros(n, dtype=bool)
        push_sources = np.empty(0, dtype=np.int64)
        push_targets = np.empty(0, dtype=np.int64)
        if mode in ("push", "push-pull"):
            # Informed caller v contacting an uninformed callee pushes the rumor.
            pusher_mask = informed_before & ~informed_before[contacts]
            if exchange_ok is not None:
                pusher_mask &= exchange_ok
            push_sources = all_vertices[pusher_mask]
            push_targets = contacts[pusher_mask]
            # A vertex may be pushed to by several callers; keep the first
            # occurrence as the parent (any informed caller is a valid parent).
            if push_targets.size:
                unique_targets, first_index = np.unique(push_targets, return_index=True)
                push_targets = unique_targets
                push_sources = push_sources[first_index]
                # A vertex that pulled this round is already accounted for.
                fresh = ~new_by_pull[push_targets]
                push_targets = push_targets[fresh]
                push_sources = push_sources[fresh]
                new_by_push[push_targets] = True

        newly_informed = new_by_pull | new_by_push
        if newly_informed.any():
            new_ids = all_vertices[newly_informed]
            informed_round[new_ids] = float(rounds_executed)
            pull_ids = all_vertices[new_by_pull]
            parent[pull_ids] = contacts[pull_ids]
            kind[pull_ids] = "pull"
            pull_infections += int(pull_ids.size)
            parent[push_targets] = push_sources
            kind[push_targets] = "push"
            push_infections += int(push_targets.size)
            informed = informed_before.copy()
            informed[new_ids] = True
            num_informed += int(new_ids.size)

        if record_trace:
            # A caller v is credited with an infection either because it
            # pulled this round (its parent is necessarily its contact) or
            # because its contact w was pushed to and chose v as parent.
            informed_of = np.full(n, -1, dtype=np.int64)
            kind_of = np.full(n, None, dtype=object)
            informed_of[new_by_pull] = all_vertices[new_by_pull]
            kind_of[new_by_pull] = "pull"
            pushed_via = new_by_push[contacts] & (parent[contacts] == all_vertices) & ~new_by_pull
            informed_of[pushed_via] = contacts[pushed_via]
            kind_of[pushed_via] = "push"
            round_time = float(rounds_executed)
            trace.extend(
                ContactEvent(
                    time=round_time,
                    caller=v,
                    callee=w,
                    informed=(i if i >= 0 else None),
                    kind=k,
                )
                for v, w, i, k in zip(
                    range(n), contacts.tolist(), informed_of.tolist(), kind_of.tolist()
                )
            )

    completed = num_informed == n
    if not completed and on_budget_exhausted == "error":
        raise SimulationError(
            f"synchronous {mode} on {graph.name} informed only {num_informed}/{n} "
            f"vertices within {budget} rounds"
        )

    adversary_budget_spent = None
    if adaptive_churn or adaptive_loss is not None:
        initial_budget = (churn.budget if adaptive_churn else 0) + (
            adaptive_loss.budget if adaptive_loss is not None else 0
        )
        adversary_budget_spent = initial_budget - crash_budget - jam_budget

    return SpreadingResult(
        protocol=protocol_name,
        graph_name=graph.name,
        num_vertices=n,
        source=source,
        informed_time=tuple(informed_round.tolist()),
        parent=tuple(parent.tolist()),
        infection_kind=tuple(kind.tolist()),
        completed=completed,
        rounds=rounds_executed,
        push_infections=push_infections,
        pull_infections=pull_infections,
        total_contacts=total_contacts,
        adversary_budget_spent=adversary_budget_spent,
        trace=tuple(trace) if record_trace else None,
    )
