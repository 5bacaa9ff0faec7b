"""The Section 5 block decomposition: mapping asynchronous steps to synchronous rounds.

The lower-bound proof (Theorem 11) couples the asynchronous process ``pp-a``
with the synchronous process ``pp`` by cutting the sequence of asynchronous
steps ``S_1, S_2, ...`` (each step ``S_i = (x_i, y_i)`` meaning "``x_i``
contacts ``y_i``") into **blocks**, and mapping every block to one or more
synchronous rounds such that the informed set of ``pp-a`` after each block is
contained in the informed set of ``pp`` after the corresponding rounds
(Lemma 13).  The expected number of rounds produced for ``t`` steps is
``O(t / sqrt(n) + sqrt(n))`` (Lemma 14), which yields the
``E[T(pp)] = O(sqrt(n) · E[T(pp-a)])`` bound.

Block rules (for a normal block starting at step ``i``; ``j`` is the first
index at which the block ends):

1. ``j - i = sqrt(n)`` — the block reached the maximum size;
2. ``S_j`` is **left-incompatible** with the block — ``x_j`` already appears
   (as either endpoint) in one of the block's steps;
3. ``S_j`` is **right-incompatible** with the block — ``y_j`` became
   informed during the block's steps.

If a block ends because of (3), the next block is a **special block**
containing a single step, which may map to several synchronous rounds; in
the full coupling the special step is re-drawn from rounds sampled afresh.

This module provides two levels of machinery:

* :func:`partition_steps_into_blocks` — a *descriptive* decomposition of any
  recorded asynchronous step sequence into blocks, with the end-condition of
  every block, used for the Lemma 14 statistics (how many blocks of each
  kind occur, how large they are);
* :func:`run_block_coupling` — the *constructive* coupling: it generates the
  asynchronous step sequence, builds the corresponding synchronous rounds
  (sampling fresh full rounds for special blocks until a right-incompatible
  pair appears, exactly as in the paper), applies them to a synchronous
  informed set, and verifies the Lemma 13 subset invariant block by block.

  One simplification relative to the paper: when a freshly sampled round
  contains several right-incompatible pairs, we pick the replacement pair
  for the asynchronous side uniformly among them instead of via the
  distribution ``μ_{A|D}`` whose existence the paper establishes in the full
  version.  This choice does not affect the synchronous side (the rounds are
  used verbatim), so the Lemma 13 subset check and the Lemma 14 round counts
  are unaffected; only the exact law of the replaced asynchronous step is
  approximated.  The substitution is recorded in DESIGN.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.budgets import check_source
from repro.errors import CouplingError
from repro.graphs.base import Graph
from repro.randomness.rng import SeedLike, as_generator

__all__ = [
    "Step",
    "Block",
    "BlockStatistics",
    "BlockCouplingRun",
    "is_left_incompatible",
    "is_right_incompatible",
    "simulate_step_sequence",
    "partition_steps_into_blocks",
    "run_block_coupling",
]

#: One asynchronous step: (caller, callee).
Step = tuple[int, int]


# ---------------------------------------------------------------------- #
# Incompatibility predicates (Definitions preceding Remark 12)
# ---------------------------------------------------------------------- #
def is_left_incompatible(step: Step, history: Sequence[Step]) -> bool:
    """Whether ``step`` is left-incompatible with the steps in ``history``.

    ``(x, y)`` is left-incompatible with ``H`` when ``x`` already appears in
    ``H`` as either a caller or a callee.
    """
    x, _y = step
    for u, v in history:
        if x == u or x == v:
            return True
    return False


def _informed_after(history: Sequence[Step], informed: set[int]) -> set[int]:
    """The informed set after executing ``history`` sequentially (push–pull)."""
    current = set(informed)
    for u, v in history:
        if (u in current) != (v in current):
            current.add(u)
            current.add(v)
    return current


def is_right_incompatible(step: Step, history: Sequence[Step], informed: set[int]) -> bool:
    """Whether ``step`` is right-incompatible with ``history`` and informed set ``informed``.

    ``(x, y)`` is right-incompatible when it is *not* left-incompatible and
    ``y`` becomes informed during the sequential execution of ``history``
    starting from ``informed`` (in particular ``y`` was not informed before).
    """
    if is_left_incompatible(step, history):
        return False
    _x, y = step
    if y in informed:
        return False
    return y in _informed_after(history, informed)


# ---------------------------------------------------------------------- #
# Step-sequence simulation and descriptive block partition
# ---------------------------------------------------------------------- #
def simulate_step_sequence(
    graph: Graph,
    source: int,
    *,
    seed: SeedLike = None,
    max_steps: Optional[int] = None,
) -> list[Step]:
    """Generate the asynchronous step sequence until every vertex is informed.

    Each step picks a uniformly random vertex and a uniformly random neighbor
    of it (the global-clock view of ``pp-a``); the sequence stops as soon as
    the push–pull exchange has informed every vertex.  Only the pairs are
    returned — the continuous times are irrelevant for the block coupling
    (the expected time between steps is exactly ``1/n``).
    """
    source = check_source(graph, source)
    n = graph.num_vertices
    rng = as_generator(seed)
    adjacency = graph.adjacency
    degrees = graph.degrees
    budget = int(40 * n * n * max(1.0, math.log(max(n, 2))) + 20_000) if max_steps is None else int(max_steps)

    informed = [False] * n
    informed[source] = True
    informed_count = 1
    steps: list[Step] = []
    batch = 4096
    while informed_count < n and len(steps) < budget:
        callers = rng.integers(0, n, batch).tolist()
        uniforms = rng.random(batch).tolist()
        for caller, u in zip(callers, uniforms):
            degree = degrees[caller]
            callee = adjacency[caller][min(int(u * degree), degree - 1)]
            steps.append((caller, callee))
            if informed[caller] != informed[callee]:
                informed[caller] = True
                informed[callee] = True
                informed_count += 1
                if informed_count == n:
                    break
            if len(steps) >= budget:
                break
    if informed_count < n:
        raise CouplingError(
            f"step sequence on {graph.name} did not inform every vertex within {budget} steps"
        )
    return steps


@dataclass(frozen=True)
class Block:
    """One block of the decomposition.

    Attributes:
        start: index (into the step sequence) of the block's first step.
        end: index one past the block's last step.
        kind: ``"normal"`` or ``"special"``.
        end_condition: why the block ended — ``"full"`` (reached
            ``sqrt(n)`` steps), ``"left"`` (next step left-incompatible),
            ``"right"`` (next step right-incompatible), ``"exhausted"``
            (the step sequence ended), or ``"special"`` for special blocks.
        rounds: how many synchronous rounds the block maps to (1 for normal
            blocks; for special blocks only known when the constructive
            coupling was run, otherwise 0).
    """

    start: int
    end: int
    kind: str
    end_condition: str
    rounds: int = 1

    @property
    def size(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class BlockStatistics:
    """Aggregate statistics of a block decomposition (the Lemma 14 quantities).

    ``rho_full``, ``rho_left``, ``rho_right`` count the synchronous rounds
    attributed to normal blocks that ended because they were full / hit a
    left-incompatible step / hit a right-incompatible step; ``rho_special``
    counts the rounds of special blocks.  ``rho_total`` is their sum — the
    quantity the paper calls ``ρ_τ``.
    """

    num_steps: int
    block_size_limit: int
    num_normal_blocks: int
    num_special_blocks: int
    rho_full: int
    rho_left: int
    rho_right: int
    rho_special: int

    @property
    def rho_total(self) -> int:
        return self.rho_full + self.rho_left + self.rho_right + self.rho_special

    def lemma14_bound(self) -> float:
        """The (order-of-magnitude) bound ``num_steps / sqrt(n) + 2 sqrt(n)`` from Lemma 14.

        The constants follow the proof: at most ``t / sqrt(n)`` full blocks,
        expected ``2 t / sqrt(n)`` left-ended blocks, and expected
        ``2 sqrt(n)`` special-block rounds (each also charged one extra round
        for the preceding right-ended block).
        """
        root = self.block_size_limit
        return 3.0 * self.num_steps / root + 3.0 * (2.0 * root) + 1.0


def partition_steps_into_blocks(
    graph: Graph,
    source: int,
    steps: Sequence[Step],
    *,
    block_size_limit: Optional[int] = None,
) -> tuple[list[Block], BlockStatistics]:
    """Partition a recorded step sequence into blocks following the paper's rules.

    This is the *descriptive* decomposition: the steps are taken as given
    (they come from an actual ``pp-a`` run), each normal block maps to one
    synchronous round, and each special block is counted as one round here
    (the constructive coupling in :func:`run_block_coupling` samples the true
    geometric number of rounds for special blocks).

    Returns:
        ``(blocks, statistics)``.
    """
    n = graph.num_vertices
    limit = int(math.isqrt(n)) if block_size_limit is None else int(block_size_limit)
    limit = max(1, limit)

    informed: set[int] = {source}
    blocks: list[Block] = []
    rho_full = rho_left = rho_right = rho_special = 0
    num_normal = num_special = 0

    index = 0
    total = len(steps)
    next_is_special = False
    while index < total:
        if next_is_special:
            # Special block: a single step, one round in this descriptive count.
            blocks.append(Block(start=index, end=index + 1, kind="special", end_condition="special", rounds=1))
            num_special += 1
            rho_special += 1
            informed = _informed_after(steps[index : index + 1], informed)
            index += 1
            next_is_special = False
            continue
        start = index
        history: list[Step] = []
        end_condition = "exhausted"
        while index < total:
            if len(history) == limit:
                end_condition = "full"
                break
            step = steps[index]
            if is_left_incompatible(step, history):
                end_condition = "left"
                break
            if is_right_incompatible(step, history, informed):
                end_condition = "right"
                break
            history.append(step)
            index += 1
        blocks.append(
            Block(start=start, end=index, kind="normal", end_condition=end_condition, rounds=1)
        )
        num_normal += 1
        if end_condition == "full":
            rho_full += 1
        elif end_condition == "left":
            rho_left += 1
        elif end_condition == "right":
            rho_right += 1
            next_is_special = True
        informed = _informed_after(history, informed)

    statistics = BlockStatistics(
        num_steps=total,
        block_size_limit=limit,
        num_normal_blocks=num_normal,
        num_special_blocks=num_special,
        rho_full=rho_full,
        rho_left=rho_left,
        rho_right=rho_right,
        rho_special=rho_special,
    )
    return blocks, statistics


# ---------------------------------------------------------------------- #
# Constructive coupling (Lemma 13 / Lemma 14 verification)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class BlockCouplingRun:
    """Outcome of one constructive block-coupling run.

    Attributes:
        graph_name: display name of the graph.
        source: initially informed vertex.
        num_steps: number of asynchronous steps consumed before ``pp-a``
            informed every vertex.
        num_rounds: number of synchronous rounds generated by the coupling
            (the paper's ``ρ_τ``).
        statistics: the per-category round counts.
        subset_invariant_held: whether the Lemma 13 invariant
            ``I_k(pp-a) ⊆ I_k(pp)`` held after every block.
        async_spreading_time_estimate: ``num_steps / n`` — the expected
            asynchronous time corresponding to the consumed steps (the
            expected gap between steps is ``1/n``).
    """

    graph_name: str
    source: int
    num_steps: int
    num_rounds: int
    statistics: BlockStatistics
    subset_invariant_held: bool
    async_spreading_time_estimate: float
    sync_rounds_to_inform_all: Optional[int] = None


def _random_full_round(
    graph: Graph, rng: np.random.Generator
) -> list[Step]:
    """One synchronous round: every vertex contacts a uniformly random neighbor."""
    n = graph.num_vertices
    adjacency = graph.adjacency
    degrees = graph.degrees
    uniforms = rng.random(n)
    return [
        (v, adjacency[v][min(int(uniforms[v] * degrees[v]), degrees[v] - 1)])
        for v in range(n)
    ]


def _apply_round(round_pairs: Sequence[Step], informed: set[int]) -> set[int]:
    """Apply one synchronous push–pull round (all contacts use the pre-round informed set)."""
    newly: set[int] = set()
    for caller, callee in round_pairs:
        caller_informed = caller in informed
        callee_informed = callee in informed
        if caller_informed and not callee_informed:
            newly.add(callee)
        elif callee_informed and not caller_informed:
            newly.add(caller)
    return informed | newly


def run_block_coupling(
    graph: Graph,
    source: int,
    *,
    seed: SeedLike = None,
    block_size_limit: Optional[int] = None,
    max_steps: Optional[int] = None,
    max_special_rounds: int = 100_000,
) -> BlockCouplingRun:
    """Execute the Section 5 coupling and verify its invariants.

    The asynchronous step sequence is generated on the fly; blocks are formed
    with the paper's three stopping conditions; normal blocks become one
    synchronous round containing exactly the block's contacts (all other
    vertices stay silent, which can only slow ``pp`` down); special blocks
    sample fresh *full* rounds until one contains a right-incompatible pair,
    and the asynchronous step of the special block is replaced by such a pair
    (chosen uniformly — see the module docstring for the one simplification
    relative to the paper).

    Returns:
        A :class:`BlockCouplingRun`; ``subset_invariant_held`` reports the
        Lemma 13 check and ``num_rounds`` is the sample of ``ρ_τ`` whose
        expectation Lemma 14 bounds by ``O(E[τ]/sqrt(n) + sqrt(n))``.
    """
    source = check_source(graph, source)
    n = graph.num_vertices
    rng = as_generator(seed)
    adjacency = graph.adjacency
    degrees = graph.degrees
    limit = int(math.isqrt(n)) if block_size_limit is None else int(block_size_limit)
    limit = max(1, limit)
    step_budget = (
        int(40 * n * n * max(1.0, math.log(max(n, 2))) + 20_000) if max_steps is None else int(max_steps)
    )

    def draw_step() -> Step:
        caller = int(rng.integers(n))
        degree = degrees[caller]
        callee = adjacency[caller][min(int(rng.random() * degree), degree - 1)]
        return caller, callee

    async_informed: set[int] = {source}
    sync_informed: set[int] = {source}

    rho_full = rho_left = rho_right = rho_special = 0
    num_normal = num_special = 0
    num_steps = 0
    num_rounds = 0
    subset_ok = True
    sync_rounds_when_all_informed: Optional[int] = None

    pending_special = False
    pending_history: list[Step] = []
    pending_informed_before: set[int] = set(async_informed)

    while len(async_informed) < n and num_steps < step_budget:
        if pending_special:
            # ---- Special block: sample fresh full rounds for pp. ----
            num_special += 1
            special_rounds = 0
            replacement: Optional[Step] = None
            while special_rounds < max_special_rounds:
                round_pairs = _random_full_round(graph, rng)
                special_rounds += 1
                incompatible = [
                    pair
                    for pair in round_pairs
                    if is_right_incompatible(pair, pending_history, pending_informed_before)
                ]
                sync_informed = _apply_round(round_pairs, sync_informed)
                num_rounds += 1
                if incompatible:
                    replacement = incompatible[int(rng.integers(len(incompatible)))]
                    break
            if replacement is None:
                raise CouplingError(
                    f"special block on {graph.name} found no right-incompatible pair within "
                    f"{max_special_rounds} rounds"
                )
            rho_special += special_rounds
            # The asynchronous side executes the replacement pair as its step.
            num_steps += 1
            caller, callee = replacement
            if (caller in async_informed) != (callee in async_informed):
                async_informed.add(caller)
                async_informed.add(callee)
            pending_special = False
            if not async_informed.issubset(sync_informed):
                subset_ok = False
        else:
            # ---- Normal block. ----
            num_normal += 1
            informed_before = set(async_informed)
            history: list[Step] = []
            end_condition = "exhausted"
            while True:
                if len(history) == limit:
                    end_condition = "full"
                    break
                if num_steps + len(history) >= step_budget:
                    end_condition = "exhausted"
                    break
                step = draw_step()
                if is_left_incompatible(step, history):
                    end_condition = "left"
                    # The step that ended the block starts the next block.
                    next_first_step: Optional[Step] = step
                    break
                if is_right_incompatible(step, history, informed_before):
                    end_condition = "right"
                    next_first_step = step
                    break
                history.append(step)
                # Early exit: if the asynchronous process is already done we
                # still close the block normally below.
                next_first_step = None
            # Apply the block's steps to the asynchronous informed set.
            for caller, callee in history:
                if (caller in async_informed) != (callee in async_informed):
                    async_informed.add(caller)
                    async_informed.add(callee)
            num_steps += len(history)
            # The corresponding synchronous round contains exactly these contacts.
            sync_informed = _apply_round(history, sync_informed)
            num_rounds += 1
            if end_condition == "full":
                rho_full += 1
            elif end_condition == "left":
                rho_left += 1
            elif end_condition == "right":
                rho_right += 1
            if not async_informed.issubset(sync_informed):
                subset_ok = False
            if end_condition == "right":
                pending_special = True
                pending_history = history
                pending_informed_before = informed_before
            elif end_condition == "left" and next_first_step is not None:
                # The left-incompatible step simply starts the next block; to
                # keep the sequential semantics we execute it as the first
                # step of that block by pushing it back through the RNG-free
                # path: treat it as a one-step prefix of the next block.
                # (Executing it here as its own mini-block keeps the subset
                # invariant intact and only adds rounds, i.e. is conservative
                # for the Lemma 14 check.)
                for_caller, for_callee = next_first_step
                if (for_caller in async_informed) != (for_callee in async_informed):
                    async_informed.add(for_caller)
                    async_informed.add(for_callee)
                num_steps += 1
                sync_informed = _apply_round([next_first_step], sync_informed)
                num_rounds += 1
                rho_left += 1
                if not async_informed.issubset(sync_informed):
                    subset_ok = False
        if len(async_informed) == n and sync_rounds_when_all_informed is None and len(sync_informed) == n:
            sync_rounds_when_all_informed = num_rounds

    if len(async_informed) < n:
        raise CouplingError(
            f"block coupling on {graph.name} did not inform every vertex within {step_budget} steps"
        )

    statistics = BlockStatistics(
        num_steps=num_steps,
        block_size_limit=limit,
        num_normal_blocks=num_normal,
        num_special_blocks=num_special,
        rho_full=rho_full,
        rho_left=rho_left,
        rho_right=rho_right,
        rho_special=rho_special,
    )
    return BlockCouplingRun(
        graph_name=graph.name,
        source=source,
        num_steps=num_steps,
        num_rounds=num_rounds,
        statistics=statistics,
        subset_invariant_held=subset_ok,
        async_spreading_time_estimate=num_steps / n,
        sync_rounds_to_inform_all=sync_rounds_when_all_informed,
    )
