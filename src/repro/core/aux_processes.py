"""The auxiliary synchronous processes ``ppx`` and ``ppy`` (Definitions 5 and 7).

Section 4 of the paper introduces two synthetic round-based processes that
interpolate between synchronous push–pull (``pp``) and the asynchronous
protocol (``pp-a``).  They are not realistic rumor spreading algorithms —
they assume each vertex knows which of its neighbors are informed — but they
are perfectly well-defined stochastic processes, and simulating them lets us
check the two domination lemmas that the upper-bound proof chains together:

* **``ppx``** (Definition 5): every informed vertex pushes to a uniformly
  random neighbor each round; an uninformed vertex ``v`` with ``k`` informed
  neighbors pulls from a uniformly random *informed* neighbor with
  probability ``1 - exp(-2k / deg(v))`` if ``k < deg(v) / 2`` and with
  probability 1 once ``k >= deg(v) / 2``.
  Lemma 6: ``T(ppx) ≼ T(pp)``.
* **``ppy``** (Definition 7): identical, except the pull probability is
  ``1 - exp(-2k / deg(v))`` for every ``k`` (no "half the neighbors" cutoff).
  Lemma 9: ``T_δ(ppy) = O(T_δ(ppx) + log(n/δ))``.

Both engines use the informed set from the *start* of the round for every
decision, mirroring the synchronous engine.

This module simulates one trial with full
:class:`~repro.core.result.SpreadingResult` bookkeeping; times-only Monte
Carlo runs should go through
:func:`repro.core.batch_engine.run_batch`, which simulates whole
``(B, n)`` blocks of trials at once, shares this module's
:func:`pull_probabilities`, and reproduces this engine's informing times
trial-for-trial for the same per-trial generators.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.flatgraph import flat_adjacency
from repro.core.result import SpreadingResult
from repro.core.sync_engine import default_max_rounds
from repro.errors import ProtocolError, SimulationError
from repro.graphs.base import Graph
from repro.randomness.rng import SeedLike, as_generator

__all__ = [
    "run_ppx",
    "run_ppy",
    "run_auxiliary_process",
    "pull_probability",
    "pull_probabilities",
    "AUX_VARIANTS",
]

#: Valid auxiliary process names.
AUX_VARIANTS = ("ppx", "ppy")


def pull_probability(variant: str, informed_neighbors: int, degree: int) -> float:
    """The per-round pull probability of an uninformed vertex.

    Args:
        variant: ``"ppx"`` or ``"ppy"``.
        informed_neighbors: the number ``k`` of currently informed neighbors.
        degree: the vertex degree.

    Returns:
        The probability from Definition 5 (``ppx``) or Definition 7
        (``ppy``).  Zero when ``k == 0`` in both variants.
    """
    if variant not in AUX_VARIANTS:
        raise ProtocolError(f"unknown auxiliary variant {variant!r}; expected one of {AUX_VARIANTS}")
    if degree <= 0:
        raise ProtocolError("pull probability undefined for an isolated vertex")
    # Delegate to the vectorised formula so the scalar reference is
    # bit-for-bit the engines' probability (numpy's exp and libm's may
    # differ in the last ulp).
    return float(
        pull_probabilities(
            variant,
            np.asarray([informed_neighbors], dtype=np.int64),
            np.asarray([degree], dtype=np.int64),
        )[0]
    )


def pull_probabilities(
    variant: str, informed_neighbors: np.ndarray, degrees: np.ndarray
) -> np.ndarray:
    """Vectorised :func:`pull_probability` over per-vertex count/degree arrays.

    Both the serial round loop and the batched ``(B, n)`` kernel compute
    their pull probabilities through this one function, so the two paths
    cannot drift apart.  Entries with ``k <= 0`` get probability zero.

    Args:
        variant: ``"ppx"`` or ``"ppy"``.
        informed_neighbors: integer array of informed-neighbor counts ``k``.
        degrees: matching array of (positive) vertex degrees.

    Returns:
        A float array of per-vertex pull probabilities, same shape.
    """
    if variant not in AUX_VARIANTS:
        raise ProtocolError(f"unknown auxiliary variant {variant!r}; expected one of {AUX_VARIANTS}")
    k = np.asarray(informed_neighbors)
    degrees = np.asarray(degrees)
    if degrees.size and degrees.min() <= 0:
        raise ProtocolError("pull probability undefined for an isolated vertex")
    probabilities = 1.0 - np.exp(-2.0 * k / degrees)
    if variant == "ppx":
        probabilities = np.where(k >= degrees / 2.0, 1.0, probabilities)
    return np.where(k > 0, probabilities, 0.0)


def run_auxiliary_process(
    graph: Graph,
    source: int,
    *,
    variant: str,
    seed: SeedLike = None,
    max_rounds: Optional[int] = None,
    on_budget_exhausted: str = "error",
) -> SpreadingResult:
    """Simulate one run of ``ppx`` or ``ppy``.

    The result's informing times are round numbers, exactly as for the
    synchronous engine, so results are directly comparable to ``pp`` runs.
    """
    if variant not in AUX_VARIANTS:
        raise ProtocolError(f"unknown auxiliary variant {variant!r}; expected one of {AUX_VARIANTS}")
    if not (0 <= source < graph.num_vertices):
        raise ProtocolError(
            f"source {source} is not a vertex of {graph.name} (n={graph.num_vertices})"
        )
    if graph.num_vertices > 1 and not graph.is_connected():
        raise ProtocolError(
            f"{graph.name} is not connected; the rumor can never reach every vertex"
        )
    if on_budget_exhausted not in ("error", "partial"):
        raise ProtocolError(
            f"on_budget_exhausted must be 'error' or 'partial', got {on_budget_exhausted!r}"
        )

    n = graph.num_vertices
    budget = default_max_rounds(n) if max_rounds is None else int(max_rounds)
    rng = as_generator(seed)
    flat = flat_adjacency(graph)
    adjacency = graph.adjacency
    degrees = np.asarray(graph.degrees, dtype=np.int64)
    all_vertices = np.arange(n, dtype=np.int64)

    informed = np.zeros(n, dtype=bool)
    informed[source] = True
    informed_round = np.full(n, np.inf)
    informed_round[source] = 0.0
    parent = np.full(n, -1, dtype=np.int64)
    kind: list[Optional[str]] = [None] * n
    kind[source] = "source"

    # informed_neighbor_count[v] = |{w in Γ(v): w informed}| (before the round).
    informed_neighbor_count = np.zeros(n, dtype=np.int64)
    for w in graph.neighbors(source):
        informed_neighbor_count[w] += 1

    push_infections = 0
    pull_infections = 0
    total_contacts = 0
    rounds_executed = 0
    num_informed = 1

    if n == 1:
        return SpreadingResult(
            protocol=variant,
            graph_name=graph.name,
            num_vertices=1,
            source=source,
            informed_time=(0.0,),
            parent=(-1,),
            infection_kind=("source",),
            completed=True,
            rounds=0,
        )

    while num_informed < n and rounds_executed < budget:
        rounds_executed += 1
        informed_before = informed.copy()

        # --- Push half: every informed vertex pushes to a random neighbor. ---
        informed_ids = all_vertices[informed_before]
        contacts = flat.random_neighbors(informed_ids, rng.random(informed_ids.size))
        total_contacts += int(informed_ids.size)
        pusher_mask = ~informed_before[contacts]
        push_sources = informed_ids[pusher_mask]
        push_targets = contacts[pusher_mask]
        if push_targets.size:
            unique_targets, first_index = np.unique(push_targets, return_index=True)
            push_targets = unique_targets
            push_sources = push_sources[first_index]

        # --- Pull half: uninformed vertices pull with the variant's probability. ---
        uninformed_ids = all_vertices[~informed_before]
        counts = informed_neighbor_count[uninformed_ids]
        candidate_mask = counts > 0
        candidates = uninformed_ids[candidate_mask]
        candidate_counts = counts[candidate_mask]
        probabilities = pull_probabilities(variant, candidate_counts, degrees[candidates])
        pulls = rng.random(candidates.size) < probabilities
        pulling_vertices = candidates[pulls]
        pull_parents = np.empty(pulling_vertices.size, dtype=np.int64)
        for index, v in enumerate(pulling_vertices):
            informed_nbrs = [w for w in adjacency[int(v)] if informed_before[w]]
            pull_parents[index] = informed_nbrs[int(rng.integers(len(informed_nbrs)))]
        total_contacts += int(pulling_vertices.size)

        # --- Commit the round: pulls first, then pushes to still-uninformed vertices. ---
        newly: list[tuple[int, int, str]] = []
        pulled_set = set(int(v) for v in pulling_vertices)
        for v, p in zip(pulling_vertices, pull_parents):
            newly.append((int(v), int(p), "pull"))
        for v, p in zip(push_targets, push_sources):
            if int(v) not in pulled_set:
                newly.append((int(v), int(p), "push"))

        for v, p, how in newly:
            informed[v] = True
            informed_round[v] = float(rounds_executed)
            parent[v] = p
            kind[v] = how
            if how == "push":
                push_infections += 1
            else:
                pull_infections += 1
            num_informed += 1
            for w in adjacency[v]:
                informed_neighbor_count[w] += 1

    completed = num_informed == n
    if not completed and on_budget_exhausted == "error":
        raise SimulationError(
            f"{variant} on {graph.name} informed only {num_informed}/{n} vertices "
            f"within {budget} rounds"
        )

    return SpreadingResult(
        protocol=variant,
        graph_name=graph.name,
        num_vertices=n,
        source=source,
        informed_time=tuple(float(t) for t in informed_round),
        parent=tuple(int(p) for p in parent),
        infection_kind=tuple(kind),
        completed=completed,
        rounds=rounds_executed,
        push_infections=push_infections,
        pull_infections=pull_infections,
        total_contacts=total_contacts,
    )


def run_ppx(
    graph: Graph,
    source: int,
    *,
    seed: SeedLike = None,
    max_rounds: Optional[int] = None,
    on_budget_exhausted: str = "error",
) -> SpreadingResult:
    """Simulate the ``ppx`` process of Definition 5."""
    return run_auxiliary_process(
        graph,
        source,
        variant="ppx",
        seed=seed,
        max_rounds=max_rounds,
        on_budget_exhausted=on_budget_exhausted,
    )


def run_ppy(
    graph: Graph,
    source: int,
    *,
    seed: SeedLike = None,
    max_rounds: Optional[int] = None,
    on_budget_exhausted: str = "error",
) -> SpreadingResult:
    """Simulate the ``ppy`` process of Definition 7."""
    return run_auxiliary_process(
        graph,
        source,
        variant="ppy",
        seed=seed,
        max_rounds=max_rounds,
        on_budget_exhausted=on_budget_exhausted,
    )
