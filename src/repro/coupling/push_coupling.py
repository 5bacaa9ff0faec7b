"""The classical push coupling (Sauerwald) between synchronous and asynchronous push.

Section 3 of the paper recalls the simple coupling used to compare the
synchronous push protocol with its asynchronous variant ``push-a``: once a
vertex ``v`` becomes informed, it contacts its neighbors *in the same order*
in both protocols.  Concretely, two shared families of random variables
drive both processes:

* ``X[v][i]`` — the ``i``-th neighbor ``v`` contacts after becoming informed
  (uniform over ``Γ(v)``, i.i.d.);
* ``G[v][i]`` — the waiting time between ``v``'s ``(i-1)``-th and ``i``-th
  clock ticks after it became informed (``Exp(1)``, i.i.d.).

In the synchronous protocol, ``v`` pushes to ``X[v][i]`` in round
``r_v + i``; in the asynchronous protocol, ``v`` pushes to ``X[v][i]`` at
time ``t_v + G[v][1] + ... + G[v][i]``.  Because the expected waiting time
for the ``i``-th tick is exactly ``i`` rounds' worth of time, the coupling
yields ``E[t_v] <= E[r_v]`` for every vertex — the heart of the argument
that asynchrony never hurts the push protocol by more than a constant
factor.

:func:`run_coupled_push` executes both processes on the shared randomness
and returns the per-vertex informing rounds/times, so the inequality can be
inspected on concrete runs and averaged over trials in the experiments.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from repro.core.budgets import check_source
from repro.errors import CouplingError
from repro.graphs.base import Graph
from repro.randomness.rng import SeedLike, as_generator

__all__ = ["CoupledPushRun", "run_coupled_push"]


@dataclass(frozen=True)
class CoupledPushRun:
    """Result of one coupled (synchronous push, asynchronous push) run.

    Attributes:
        graph_name: display name of the simulated graph.
        source: the initially informed vertex.
        sync_round: per-vertex informing round in synchronous push.
        async_time: per-vertex informing time in asynchronous push, driven by
            the same contact choices.
        sync_spreading_time: ``max(sync_round)``.
        async_spreading_time: ``max(async_time)``.
    """

    graph_name: str
    source: int
    sync_round: tuple[float, ...]
    async_time: tuple[float, ...]

    @property
    def sync_spreading_time(self) -> float:
        return max(self.sync_round)

    @property
    def async_spreading_time(self) -> float:
        return max(self.async_time)

    def per_vertex_differences(self) -> list[float]:
        """``async_time[v] - sync_round[v]`` for every vertex.

        Negative values mean the asynchronous protocol informed the vertex
        earlier than the synchronous one did under the shared randomness.
        The coupling argument says these differences have non-positive mean
        when averaged over runs.
        """
        return [a - s for a, s in zip(self.async_time, self.sync_round)]


def run_coupled_push(
    graph: Graph,
    source: int,
    *,
    seed: SeedLike = None,
    max_rounds: int | None = None,
) -> CoupledPushRun:
    """Run synchronous and asynchronous push on shared contact randomness.

    Both processes are simulated exactly; they share the per-vertex contact
    sequences ``X[v][i]`` but the asynchronous side additionally draws the
    exponential tick gaps ``G[v][i]``.  The push-only protocol has the
    convenient property that a vertex's behaviour after it becomes informed
    does not depend on anything else, which is what makes this direct
    coupling possible (and what fails for pull — the motivation for the
    paper's new coupling in Section 4).

    Returns:
        A :class:`CoupledPushRun` with per-vertex informing rounds and times.

    Raises:
        CouplingError: if either process fails to inform every vertex within
            a very generous budget (only possible on disconnected input,
            which is rejected earlier anyway).
    """
    source = check_source(graph, source)
    n = graph.num_vertices
    rng = as_generator(seed)
    adjacency = graph.adjacency
    budget = max_rounds if max_rounds is not None else int(400 * n * max(1.0, math.log(max(n, 2))) + 4000)

    if n == 1:
        return CoupledPushRun(graph.name, source, (0.0,), (0.0,))

    # Shared contact sequences, generated lazily per (vertex, index).
    contact_cache: dict[int, list[int]] = {v: [] for v in range(n)}

    def contact(v: int, i: int) -> int:
        """The i-th (1-based) neighbor v contacts after becoming informed."""
        sequence = contact_cache[v]
        while len(sequence) < i:
            nbrs = adjacency[v]
            sequence.append(int(nbrs[int(rng.integers(len(nbrs)))]))
        return sequence[i - 1]

    # ---------------- Synchronous push on the shared contacts ---------------- #
    sync_round = [math.inf] * n
    sync_round[source] = 0.0
    informed_order = [source]
    current_round = 0
    informed_count = 1
    while informed_count < n and current_round < budget:
        current_round += 1
        newly: list[int] = []
        for v in informed_order:
            offset = current_round - int(sync_round[v])
            if offset < 1:
                continue
            target = contact(v, offset)
            if math.isinf(sync_round[target]):
                sync_round[target] = float(current_round)
                newly.append(target)
        informed_order.extend(newly)
        informed_count += len(newly)
    if informed_count < n:
        raise CouplingError(
            f"synchronous push did not finish on {graph.name} within {budget} rounds"
        )

    # ---------------- Asynchronous push on the same contacts ---------------- #
    async_time = [math.inf] * n
    async_time[source] = 0.0
    # Heap entries: (tick_time, vertex, tick_index) — the tick_index-th tick
    # of `vertex` after it became informed.
    heap: list[tuple[float, int, int]] = [(float(rng.exponential(1.0)), source, 1)]
    async_informed = 1
    safety = 0
    step_cap = budget * n + 10_000
    while heap and async_informed < n and safety < step_cap:
        safety += 1
        tick_time, v, index = heapq.heappop(heap)
        target = contact(v, index)
        if math.isinf(async_time[target]):
            async_time[target] = tick_time
            async_informed += 1
            heapq.heappush(heap, (tick_time + float(rng.exponential(1.0)), target, 1))
        heapq.heappush(heap, (tick_time + float(rng.exponential(1.0)), v, index + 1))
    if async_informed < n:
        raise CouplingError(
            f"asynchronous push did not finish on {graph.name} within {step_cap} ticks"
        )

    return CoupledPushRun(
        graph_name=graph.name,
        source=source,
        sync_round=tuple(sync_round),
        async_time=tuple(async_time),
    )


def average_push_coupling_gap(
    graph: Graph,
    source: int,
    *,
    trials: int,
    seed: SeedLike = None,
) -> float:
    """Average of ``mean_v(async_time[v] - sync_round[v])`` over coupled trials.

    The coupling argument shows this is at most 0 in expectation; the
    experiments report the measured value as evidence.
    """
    if trials < 1:
        raise CouplingError(f"trials must be >= 1, got {trials}")
    rng = as_generator(seed)
    total = 0.0
    for _ in range(trials):
        run = run_coupled_push(graph, source, seed=rng)
        differences = run.per_vertex_differences()
        total += float(np.mean(differences))
    return total / trials
