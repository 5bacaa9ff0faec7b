"""The Section 4 coupling: coupled executions of ``ppx``, ``ppy`` and ``pp-a``.

The upper-bound proof (Theorem 4) chains three comparisons:

* Lemma 6 — ``T(ppx) ≼ T(pp)`` (plain stochastic domination);
* Lemma 9 — under a coupling driven by shared random variables
  ``X[v][i]`` (push destinations) and ``Y[v][w] ~ Exp(2/deg(v))`` (pull
  waiting variables), every vertex satisfies
  ``r'_v <= 2 * r_v + O(log(n/δ))`` with probability ``1 − δ/2n``, where
  ``r_v`` / ``r'_v`` are the informing rounds in ``ppx`` / ``ppy``;
* Lemma 10 — under the continuous-time version of the same coupling, the
  informing time ``t_v`` in ``pp-a`` satisfies
  ``t_v <= 4 * r'_v + O(log(n/δ))``.

This module implements the couplings *executably*: :func:`run_coupled_processes`
simulates ``ppx``, ``ppy`` and ``pp-a`` on one shared draw of the
``X``/``Y`` variables (plus the extra Poisson tick gaps the asynchronous
process needs) and returns the per-vertex informing rounds/times of all
three, so the per-vertex inequalities above can be checked directly on
concrete runs and aggregated by the experiments (E8).

The construction follows the paper's coupling rules exactly:

* **push** — vertex ``v`` pushes to ``X[v][i]`` in the ``i``-th round after
  it became informed (``ppx``/``ppy``), and at its ``i``-th clock tick after
  it became informed (``pp-a``);
* **pull in ppy** — ``v`` pulls in round ``min_w(r'_w + ceil(Y[v][w]))``
  from ``argmin_w(r'_w + Y[v][w])`` (if not informed by a push before);
* **pull in ppx** — the same rule while fewer than half of ``v``'s
  neighbors are informed; as soon as at least ``deg(v)/2`` neighbors are
  informed by the end of some round ``z``, ``v`` pulls in round ``z + 1``
  from the informed neighbor minimising ``r_w + Y[v][w]``;
* **pull in pp-a** — ``v`` pulls at time ``min_w(t_w + 2 Y[v][w])`` from the
  minimising neighbor (the factor 2 converts ``Exp(2/deg(v))`` into the
  ``Exp(1/deg(v))`` law of the pair-clock view).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.budgets import check_source
from repro.errors import CouplingError
from repro.graphs.base import Graph
from repro.randomness.rng import SeedLike, as_generator

__all__ = [
    "CoupledProcessesRun",
    "SharedCouplingVariables",
    "run_coupled_processes",
]


class SharedCouplingVariables:
    """Lazily generated shared randomness for the Section 4 coupling.

    Attributes (conceptually):
        X[v][i]: the ``i``-th push destination of ``v`` (uniform neighbor).
        Y[(v, w)]: the exponential pull variable of rate ``2 / deg(v)``.
    """

    def __init__(self, graph: Graph, rng: np.random.Generator) -> None:
        self._graph = graph
        self._rng = rng
        self._push_destinations: dict[int, list[int]] = {}
        self._pull_variables: dict[tuple[int, int], float] = {}

    def push_destination(self, vertex: int, index: int) -> int:
        """``X[vertex][index]`` for a 1-based ``index``."""
        if index < 1:
            raise CouplingError(f"push index must be >= 1, got {index}")
        sequence = self._push_destinations.setdefault(vertex, [])
        neighbors = self._graph.neighbors(vertex)
        while len(sequence) < index:
            sequence.append(int(neighbors[int(self._rng.integers(len(neighbors)))]))
        return sequence[index - 1]

    def pull_variable(self, vertex: int, neighbor: int) -> float:
        """``Y[(vertex, neighbor)] ~ Exp(2 / deg(vertex))``."""
        key = (vertex, neighbor)
        value = self._pull_variables.get(key)
        if value is None:
            rate = 2.0 / self._graph.degree(vertex)
            value = float(self._rng.exponential(1.0 / rate))
            self._pull_variables[key] = value
        return value


@dataclass(frozen=True)
class CoupledProcessesRun:
    """Per-vertex informing rounds/times of one coupled (ppx, ppy, pp-a) run.

    Attributes:
        graph_name: display name of the simulated graph.
        source: initially informed vertex.
        ppx_round: informing round ``r_v`` of each vertex in ``ppx``.
        ppy_round: informing round ``r'_v`` of each vertex in ``ppy``.
        ppa_time: informing time ``t_v`` of each vertex in ``pp-a``.
    """

    graph_name: str
    source: int
    ppx_round: tuple[float, ...]
    ppy_round: tuple[float, ...]
    ppa_time: tuple[float, ...]

    @property
    def num_vertices(self) -> int:
        return len(self.ppx_round)

    @property
    def ppx_spreading_time(self) -> float:
        return max(self.ppx_round)

    @property
    def ppy_spreading_time(self) -> float:
        return max(self.ppy_round)

    @property
    def ppa_spreading_time(self) -> float:
        return max(self.ppa_time)

    def lemma9_slack(self) -> float:
        """``max_v (r'_v - 2 r_v)`` — Lemma 9 says this is ``O(log n)`` whp."""
        return max(ry - 2.0 * rx for rx, ry in zip(self.ppx_round, self.ppy_round))

    def lemma10_slack(self) -> float:
        """``max_v (t_v - 4 r'_v)`` — Lemma 10 says this is ``O(log n)`` whp."""
        return max(t - 4.0 * ry for ry, t in zip(self.ppy_round, self.ppa_time))

    def theorem_slack(self) -> float:
        """``max_v (t_v - 8 r_v)`` — the end-to-end comparison behind Theorem 4."""
        return max(t - 8.0 * rx for rx, t in zip(self.ppx_round, self.ppa_time))


def _run_coupled_round_process(
    graph: Graph,
    source: int,
    shared: SharedCouplingVariables,
    variant: str,
    max_rounds: int,
) -> list[float]:
    """Run the coupled ``ppx`` (``variant="ppx"``) or ``ppy`` (``"ppy"``) process.

    Returns the per-vertex informing rounds.  The pull schedule is driven by
    the shared ``Y`` variables, the push schedule by the shared ``X``
    destinations, exactly as in the proof of Lemma 9.
    """
    n = graph.num_vertices
    adjacency = graph.adjacency
    informed_round: list[float] = [math.inf] * n
    informed_round[source] = 0.0
    informed_order: list[int] = [source]

    # For each still-uninformed vertex v, the best (earliest) pull candidate:
    # (candidate_round, exact_value, from_neighbor).  Candidates are created
    # when a neighbor becomes informed.
    best_candidate: dict[int, tuple[int, float, int]] = {}
    # Pull events scheduled for a given round: vertex -> (round, parent).
    informed_neighbor_count = [0] * n
    half_reached_round: dict[int, int] = {}
    forced_pull: dict[int, tuple[int, float, int]] = {}  # v -> (round, exact, parent)

    def register_informed(w: int, round_w: int) -> None:
        """Update pull candidates of w's uninformed neighbors."""
        for v in adjacency[w]:
            if not math.isinf(informed_round[v]):
                continue
            informed_neighbor_count[v] += 1
            y = shared.pull_variable(v, w)
            exact = round_w + y
            candidate_round = round_w + math.ceil(y)
            current = best_candidate.get(v)
            if current is None or exact < current[1]:
                best_candidate[v] = (candidate_round, exact, w)
            if (
                variant == "ppx"
                and v not in half_reached_round
                and informed_neighbor_count[v] >= graph.degree(v) / 2.0
            ):
                half_reached_round[v] = round_w

    register_informed(source, 0)

    informed_count = 1
    current_round = 0
    while informed_count < n and current_round < max_rounds:
        current_round += 1
        newly: list[tuple[int, int]] = []  # (vertex, round informed)

        # --- Push operations: v pushes to X[v][i] in round r_v + i. ---
        push_targets: list[int] = []
        for v in informed_order:
            offset = current_round - int(informed_round[v])
            if offset >= 1:
                push_targets.append(shared.push_destination(v, offset))

        # --- Pull operations. ---
        pull_targets: list[tuple[int, int]] = []  # (vertex, parent)
        for v, (candidate_round, _exact, parent) in list(best_candidate.items()):
            if math.isinf(informed_round[v]) and candidate_round == current_round:
                if variant == "ppy" or v not in half_reached_round:
                    pull_targets.append((v, parent))
                elif half_reached_round[v] >= current_round:
                    # Half coverage is only reached at the end of this round
                    # or later, so the natural rule still applies (case (i)).
                    pull_targets.append((v, parent))
        if variant == "ppx":
            for v, z in half_reached_round.items():
                if math.isinf(informed_round[v]) and current_round == z + 1:
                    # Forced pull (case (ii)): pull from the informed neighbor
                    # minimising r_w + Y[v][w] among those informed by round z.
                    best_exact = math.inf
                    best_parent: Optional[int] = None
                    for w in adjacency[v]:
                        r_w = informed_round[w]
                        if math.isfinite(r_w) and r_w <= z:
                            exact = r_w + shared.pull_variable(v, w)
                            if exact < best_exact:
                                best_exact = exact
                                best_parent = w
                    if best_parent is not None:
                        pull_targets.append((v, best_parent))

        # --- Commit the round. ---
        seen: set[int] = set()
        for v, _parent in pull_targets:
            if math.isinf(informed_round[v]) and v not in seen:
                seen.add(v)
                newly.append((v, current_round))
        for v in push_targets:
            if math.isinf(informed_round[v]) and v not in seen:
                seen.add(v)
                newly.append((v, current_round))
        for v, round_v in newly:
            informed_round[v] = float(round_v)
            informed_order.append(v)
            informed_count += 1
        for v, round_v in newly:
            register_informed(v, round_v)

    if informed_count < n:
        raise CouplingError(
            f"coupled {variant} did not finish on {graph.name} within {max_rounds} rounds"
        )
    return informed_round


def _run_coupled_async(
    graph: Graph,
    source: int,
    shared: SharedCouplingVariables,
    rng: np.random.Generator,
    max_events: int,
) -> list[float]:
    """Run the coupled asynchronous push–pull process (Lemma 10's continuous rules)."""
    n = graph.num_vertices
    adjacency = graph.adjacency
    informed_time: list[float] = [math.inf] * n
    informed_time[source] = 0.0

    # Event heap entries:
    #   (time, kind, vertex, payload)
    # kind 0: push tick of `vertex` (payload = tick index, 1-based)
    # kind 1: pull candidate for `vertex` (payload = informing neighbor)
    heap: list[tuple[float, int, int, int]] = []

    def schedule_push_ticks(v: int, t_v: float) -> None:
        heapq.heappush(heap, (t_v + float(rng.exponential(1.0)), 0, v, 1))

    def schedule_pull_candidates(w: int, t_w: float) -> None:
        for v in adjacency[w]:
            if math.isinf(informed_time[v]):
                candidate_time = t_w + 2.0 * shared.pull_variable(v, w)
                heapq.heappush(heap, (candidate_time, 1, v, w))

    schedule_push_ticks(source, 0.0)
    schedule_pull_candidates(source, 0.0)

    informed_count = 1
    events = 0
    while heap and informed_count < n and events < max_events:
        events += 1
        time, kind, vertex, payload = heapq.heappop(heap)
        if kind == 0:
            # Push tick: vertex pushes to its payload-th shared destination.
            target = shared.push_destination(vertex, payload)
            if math.isinf(informed_time[target]):
                informed_time[target] = time
                informed_count += 1
                schedule_push_ticks(target, time)
                schedule_pull_candidates(target, time)
            heapq.heappush(heap, (time + float(rng.exponential(1.0)), 0, vertex, payload + 1))
        else:
            # Pull candidate for `vertex` from neighbor `payload`.
            if math.isinf(informed_time[vertex]):
                informed_time[vertex] = time
                informed_count += 1
                schedule_push_ticks(vertex, time)
                schedule_pull_candidates(vertex, time)

    if informed_count < n:
        raise CouplingError(
            f"coupled pp-a did not finish on {graph.name} within {max_events} events"
        )
    return informed_time


def run_coupled_processes(
    graph: Graph,
    source: int,
    *,
    seed: SeedLike = None,
    max_rounds: Optional[int] = None,
    max_events: Optional[int] = None,
) -> CoupledProcessesRun:
    """Run ``ppx``, ``ppy`` and ``pp-a`` on one shared draw of the coupling variables.

    Args:
        graph: the (connected) graph.
        source: the initially informed vertex.
        seed: RNG seed / generator.
        max_rounds: round budget for the two round-based processes.
        max_events: event budget for the asynchronous process.

    Returns:
        A :class:`CoupledProcessesRun` with the three per-vertex informing
        vectors; its ``lemma9_slack`` / ``lemma10_slack`` helpers expose the
        quantities bounded by the paper's lemmas.
    """
    source = check_source(graph, source)
    n = graph.num_vertices
    if n == 1:
        return CoupledProcessesRun(graph.name, source, (0.0,), (0.0,), (0.0,))
    rng = as_generator(seed)
    shared = SharedCouplingVariables(graph, rng)
    round_budget = (
        int(400 * n * max(1.0, math.log(n)) + 4000) if max_rounds is None else int(max_rounds)
    )
    event_budget = (
        int(200 * n * n * max(1.0, math.log(n)) + 100_000) if max_events is None else int(max_events)
    )

    ppx_rounds = _run_coupled_round_process(graph, source, shared, "ppx", round_budget)
    ppy_rounds = _run_coupled_round_process(graph, source, shared, "ppy", round_budget)
    ppa_times = _run_coupled_async(graph, source, shared, rng, event_budget)

    return CoupledProcessesRun(
        graph_name=graph.name,
        source=source,
        ppx_round=tuple(ppx_rounds),
        ppy_round=tuple(ppy_rounds),
        ppa_time=tuple(ppa_times),
    )
