"""Reference NumPy kernels of the batch engine.

The synchronous round step works in the flat address space of the raveled
``(live, n)`` arrays with narrow-dtype gathers, ``casting="unsafe"``
contact arithmetic and preallocated round buffers.  A contact informs only
when it joins an informed vertex and an uninformed one, so its caller lies
in ``S ∪ N(S)`` for ``S`` the trial's smaller status class.  A wide round
(at least ``_FRONTIER_MIN_CELLS`` cells) whose ``vol(S) + |S|`` is at most
``live * n / _FRONTIER_SHARE`` resolves only those callers, reading the
draws and the loss and up masks there alone, and adds the new vertices to
the round-start counts.  Every other round, and every round whose contacts
the engine resolved on each trial's own graph (a dynamic graph), takes the
full-width exchange of every caller.  Both paths give the same result, and
neither changes what is drawn.

Every asynchronous block goes to one consumer (:class:`_TickColumns`):
``async_tick_loop`` hands it each refill of the global view
(:meth:`~repro.core.kernels.AsyncState.refills`), ``clock_chunk_consume``
the pooled chunks and the per-trial clock-view table loop's blocks.  Live
trials move in lockstep (each executes one tick per column and all of them
refill at the same tick), so a block of ticks is resolved for every live
trial at once: the tick times (for the global view, one sequential
``cumsum`` along the tick axis; for the clock views, the table's
per-column minima) and the contacts as flat ``(trial, vertex)``
positions, row-major.  No resolved value depends on the order of the
draws, so the per-trial RNG streams are the serial engines', and a pooled
block is consumed exactly as the engine drew it.

The consumer takes a block one of two ways, decided once per kernel call
from its inputs.  A run with no per-contact scenario state (no loss
uniforms, up/down mask, epoch or resample boundaries, dynamic graph or
adaptive jammer: every run without a scenario, and ``Delay``) is resolved
a whole block at once by earliest-arrival relaxation.  Every contact is
fixed before the block and informs exactly when its source endpoint was
informed at an earlier tick, so the block's informing ticks are the
earliest arrivals along time-respecting contact paths, and a few
vectorised min-relaxation sweeps reach the same least fixed point the
column walk computes tick by tick.  Every other run walks the block column
by column, doing only what depends on state the block cannot know in
advance; it is the only path for exchanges whose outcome depends on tick
order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.telemetry.metrics import current_metrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.kernels import AsyncState

BACKEND_NAME = "numpy"

#: Ticks per resolved block of the asynchronous kernels.  It bounds every
#: block buffer at ``(live, _BLOCK_TICKS)`` and the work wasted when trials
#: retire early in a block.
_BLOCK_TICKS = 256


# ---------------------------------------------------------------------- #
# Synchronous round step
# ---------------------------------------------------------------------- #
#: Rounds of fewer cells (``live * n``) always take the full exchange: the
#: frontier's fixed cost (two scans and a dozen small gathers) does not pay
#: below it.  With the frontier allowed on every round, ``pp`` batches of 24
#: trials on 128 vertices (3,072 cells, the ``e12-parallel`` chunk) ran 12%
#: to 20% slower on four of five graph families, 128 x 256 cells ran within
#: 4% either way, and 16 x 4,096 cells ran 4% to 8% faster (2-vCPU Xeon VM,
#: numpy 2.4).
_FRONTIER_MIN_CELLS = 2**16

#: A round takes the frontier while ``vol(S) + |S|`` (its candidate callers,
#: repeats included) is at most ``live * n / _FRONTIER_SHARE``.  On two
#: ``pp`` trials of a random 3-regular graph with 10^6 vertices a full round
#: took 20 to 22 ms; the frontier took 18 ms at 14% of the cells, 21 ms at
#: 21% and 28 ms at 33% (same machine).
_FRONTIER_SHARE = 4


class SyncWorkspace:
    """Preallocated per-round buffers (sliced to the live row count): the
    round loop reuses them instead of allocating ~n * live temporaries
    every round.  ``row_offsets`` turns (row, vertex) pairs into indices of
    the raveled (live, n) arrays; the whole round works in that flat
    address space.

    The frontier path works on candidate lists instead: it marks them in
    ``seen`` (flat, all ``False`` between rounds: every mark is cleared after
    use), stores its contact arithmetic in the ``offsets`` buffer, and reads
    the graph's ``(min, max)`` degree from ``degree_range``, filled on the
    first wide round."""

    __slots__ = (
        "offsets", "contact", "contacted", "pull", "push", "row_offsets",
        "seen", "degree_range",
    )

    def __init__(self, batch: int, n: int, idx_dtype: type) -> None:
        self.offsets = np.empty((batch, n), dtype=idx_dtype)
        self.contact = np.empty((batch, n), dtype=idx_dtype)
        self.contacted = np.empty((batch, n), dtype=bool)
        self.pull = np.empty((batch, n), dtype=bool)
        self.push = np.empty((batch, n), dtype=bool)
        self.row_offsets = (np.arange(batch, dtype=idx_dtype) * idx_dtype(n))[:, None]
        self.seen = np.zeros(batch * n, dtype=bool)
        self.degree_range: Optional[tuple[int, int]] = None


def sync_workspace(batch: int, n: int, idx_dtype: type) -> SyncWorkspace:
    return SyncWorkspace(batch, n, idx_dtype)


def sync_round_step(
    csr: tuple,
    draws: np.ndarray,
    contacts: Optional[np.ndarray],
    kept: Optional[np.ndarray],
    up_live: Optional[np.ndarray],
    informed_live: np.ndarray,
    times_live: Optional[np.ndarray],
    round_index: int,
    push_allowed: bool,
    pull_allowed: bool,
    ws: SyncWorkspace,
    counts: np.ndarray,
) -> np.ndarray:
    """One synchronous round of the live trials.

    ``csr`` is the engine's narrow ``(degrees, max_offset, start, indices)``
    tuple of the shared graph; ``draws`` the round's ``(live, n)`` contact
    uniforms; ``contacts`` ``None``, or the ``(live, n)`` callees the engine
    already resolved from ``draws`` on each trial's own graph (a dynamic
    graph after its first resample); ``kept`` the precomputed loss mask (or
    ``None``); ``counts`` the per-trial informed counts at round start.
    Mutates ``informed_live`` / ``times_live`` in place and returns the new
    per-trial informed counts.

    A contact informs only when it joins an informed vertex and an
    uninformed one, so its caller lies in ``S ∪ N(S)``, where ``S`` is the
    trial's smaller status class.  A wide round on the shared graph whose
    ``S`` is small resolves only those callers (:func:`_frontier_round`) and
    adds the new vertices to ``counts``; every other round takes every
    caller's contact (:func:`_full_round`) and recounts.  The frontier is
    taken when ``contacts`` is ``None``, the round has at least
    ``_FRONTIER_MIN_CELLS`` cells and ``vol(S) + |S|``, summed over the live
    trials, is at most ``live * n / _FRONTIER_SHARE``.  The choice reads no
    draw, and every path gives the same result.
    """
    if contacts is None and informed_live.size >= _FRONTIER_MIN_CELLS:
        smaller = _frontier_class(csr[0], informed_live, counts, ws)
        if smaller is not None:
            return _frontier_round(
                csr, smaller, draws, kept, up_live, informed_live, times_live,
                round_index, push_allowed, pull_allowed, ws, counts,
            )
    return _full_round(
        csr, draws, contacts, kept, up_live, informed_live, times_live,
        round_index, push_allowed, pull_allowed, ws,
    )


def _frontier_class(
    degrees: np.ndarray, informed_live: np.ndarray, counts: np.ndarray, ws: SyncWorkspace
) -> Optional[np.ndarray]:
    """``S`` for :func:`_frontier_round`, or ``None`` when the round is too wide.

    ``counts`` gives ``|S|`` and the degree range bounds ``vol(S)`` on both
    sides, so the informed matrix is scanned only when the lower bound
    passes, and the exact volume is summed only when the bounds straddle the
    threshold (never on a regular graph).
    """
    live, n = informed_live.shape
    cells = live * n
    if ws.degree_range is None:
        ws.degree_range = (int(degrees.min()), int(degrees.max()))
    low, high = ws.degree_range
    size = int(np.minimum(counts, n - counts).sum())
    if _FRONTIER_SHARE * size * (low + 1) > cells:
        return None
    smaller = _smaller_class(informed_live, counts, ws)
    if _FRONTIER_SHARE * size * (high + 1) > cells:
        volume = int(degrees.take(smaller % n).sum())
        if _FRONTIER_SHARE * (size + volume) > cells:
            return None
    return smaller


def _full_round(
    csr: tuple,
    draws: np.ndarray,
    contacts: Optional[np.ndarray],
    kept: Optional[np.ndarray],
    up_live: Optional[np.ndarray],
    informed_live: np.ndarray,
    times_live: Optional[np.ndarray],
    round_index: int,
    push_allowed: bool,
    pull_allowed: bool,
    ws: SyncWorkspace,
) -> np.ndarray:
    """The full-width round: every caller's contact (given in ``contacts``,
    or resolved from its draw on the shared CSR), then the round-snapshot
    push/pull exchange."""
    live = informed_live.shape[0]
    contact_flat = ws.contact[:live]
    if contacts is None:
        # Contact selection, identical arithmetic to
        # FlatAdjacency.random_neighbors_all but on narrow dtypes (the
        # unsafe cast truncates toward zero exactly like .astype, and the
        # 'clip' take mode skips bounds checks on indices that are in
        # range by construction).
        degrees_nw, max_offset_nw, start_nw, indices_nw = csr
        offsets = ws.offsets[:live]
        np.multiply(draws, degrees_nw, out=offsets, casting="unsafe")
        np.minimum(offsets, max_offset_nw, out=offsets)
        offsets += start_nw
        contacts = np.take(indices_nw, offsets, out=contact_flat, mode="clip")
    # The flat index of each contacted vertex.
    np.add(contacts, ws.row_offsets[:live], out=contact_flat, casting="unsafe")

    informed_flat = informed_live.reshape(-1)
    contacted_informed = ws.contacted[:live]
    np.take(informed_flat, contact_flat, out=contacted_informed, mode="clip")
    exchange_ok = None
    if up_live is not None:
        # Both endpoints must be up: crashed vertices neither initiate
        # nor answer.
        exchange_ok = up_live & np.take(up_live.reshape(-1), contact_flat, mode="clip")
    if kept is not None:
        exchange_ok = kept if exchange_ok is None else exchange_ok & kept

    # Everything below reads the round-start snapshot of the informed
    # set before mutating it.  A flat position is its own "caller"
    # index, so the pull update is a plain elementwise OR with the
    # contacted statuses (a no-op on already-informed callers), and
    # push infections scatter at the contacted positions of informed
    # callers (a no-op on already-informed targets, so the snapshot
    # mask `informed > contacted` drops them before the scatter).
    push_targets = None
    if push_allowed:
        push_mask = np.greater(informed_live, contacted_informed, out=ws.push[:live])
        if exchange_ok is not None:
            push_mask &= exchange_ok
        push_targets = contact_flat[push_mask]
    if times_live is not None:
        times_flat = times_live.reshape(-1)
        if pull_allowed:
            pull_mask = np.less(informed_live, contacted_informed, out=ws.pull[:live])
            if exchange_ok is not None:
                pull_mask &= exchange_ok
            np.copyto(times_live, float(round_index), where=pull_mask)
        if push_targets is not None:
            times_flat[push_targets] = float(round_index)
    if pull_allowed:
        if exchange_ok is None:
            informed_live |= contacted_informed
        else:
            informed_live |= np.logical_and(
                contacted_informed, exchange_ok, out=ws.pull[:live]
            )
    if push_targets is not None:
        informed_flat[push_targets] = True

    return informed_live.sum(axis=1)


def _smaller_class(
    informed_live: np.ndarray, counts: np.ndarray, ws: SyncWorkspace
) -> np.ndarray:
    """The flat positions of each trial's smaller status class, row-major.

    A trial with at most half its vertices informed contributes its
    informed vertices, any other its uninformed ones.
    """
    live, n = informed_live.shape
    flip = 2 * counts > n
    if not flip.any():
        return np.flatnonzero(informed_live)
    return np.flatnonzero(np.not_equal(informed_live, flip[:, None], out=ws.pull[:live]))


def _frontier_round(
    csr: tuple,
    smaller: np.ndarray,
    draws: np.ndarray,
    kept: Optional[np.ndarray],
    up_live: Optional[np.ndarray],
    informed_live: np.ndarray,
    times_live: Optional[np.ndarray],
    round_index: int,
    push_allowed: bool,
    pull_allowed: bool,
    ws: SyncWorkspace,
    counts: np.ndarray,
) -> np.ndarray:
    """The round resolved on the callers in ``S ∪ N(S)`` only.

    ``smaller`` holds the flat positions of ``S``, one status class of each
    trial (:func:`_smaller_class` picks the smaller).  The candidates are
    ``S`` and its neighbors, marked in ``ws.seen`` and read back in
    row-major order without repeats, so every new vertex (a pulling
    candidate or a push target, which is a candidate too) is counted once.
    The contacts use the full round's arithmetic on the same draws.
    """
    degrees, max_offset, start, indices = csr
    live, n = informed_live.shape
    seen = ws.seen
    # S's neighbors: the CSR ranges of its vertices, laid end to end.
    vertex = smaller % n
    degree = degrees.take(vertex)
    first = np.cumsum(degree) - degree  # each range's first slot
    slots = np.arange(int(degree.sum()))
    slots += np.repeat(start.take(vertex) - first, degree)
    neighbor = indices.take(slots) + np.repeat(smaller - vertex, degree)
    seen[smaller] = True
    seen[neighbor] = True
    callers = np.flatnonzero(seen[: live * n])
    seen[callers] = False

    vertex = callers % n
    offsets = ws.offsets.reshape(-1)[: callers.size]
    np.multiply(
        draws.reshape(-1).take(callers), degrees.take(vertex), out=offsets, casting="unsafe"
    )
    np.minimum(offsets, max_offset.take(vertex), out=offsets)
    offsets += start.take(vertex)
    contact = indices.take(offsets) + (callers - vertex)

    informed_flat = informed_live.reshape(-1)
    caller_informed = informed_flat.take(callers)
    contact_informed = informed_flat.take(contact)
    exchange_ok = None
    if up_live is not None:
        up_flat = up_live.reshape(-1)
        exchange_ok = up_flat.take(callers) & up_flat.take(contact)
    if kept is not None:
        kept_callers = kept.reshape(-1).take(callers)
        exchange_ok = kept_callers if exchange_ok is None else exchange_ok & kept_callers
    # Both masks read the round-start snapshot before anything is written.
    informs = []
    if push_allowed:
        push_mask = caller_informed > contact_informed
        if exchange_ok is not None:
            push_mask &= exchange_ok
        informs.append(contact[push_mask])
    if pull_allowed:
        pull_mask = caller_informed < contact_informed
        if exchange_ok is not None:
            pull_mask &= exchange_ok
        informs.append(callers[pull_mask])
    for targets in informs:
        informed_flat[targets] = True
        if times_live is not None:
            times_live.reshape(-1)[targets] = float(round_index)
    fresh = callers[informed_flat.take(callers) > caller_informed]
    return counts + np.bincount(fresh // n, minlength=live)


# ---------------------------------------------------------------------- #
# Asynchronous kernels: the shared block consumer
# ---------------------------------------------------------------------- #
#: Arrival column of a vertex not informed yet: above every column of a
#: block, since ``_BLOCK_TICKS`` bounds the width.
_UNINFORMED = np.iinfo(np.int16).max


class _TickColumns:
    """The numpy block consumer of an :class:`~repro.core.kernels.AsyncState`.

    Both asynchronous kernels feed it blocks: ``async_tick_loop`` the global
    view's refills, ``clock_chunk_consume`` the pooled chunks and the
    clock-view table loop's blocks.  A block is ``width`` consecutive
    ticks of the live trials ``rows``, resolved row-major:
    ``tick_times[i, j]`` holds row ``i``'s ``j``-th tick time and
    ``caller_pos[i, j]`` / ``callees[i, j]`` the flat positions of its
    contact's endpoints in the raveled ``(B, n)`` state.  Under a dynamic
    graph a resample may replace a trial's graph mid-block, so ``callees``
    carries the neighbor uniforms instead and every column resolves its
    own callees.

    :meth:`consume` resolves a block one of two ways, fixed for the kernel
    call by its state:

    * **Relaxation** (:meth:`_relax`) takes every run with no per-contact
      scenario state: no loss uniforms, no up/down mask, no epoch or
      resample boundaries, no dynamic graph, no adaptive jammer.  That is
      every run without a scenario, and ``Delay``, which only weights the
      caller draws.  Each row has one contact per tick, fixed before the
      block, and at tick ``j`` a vertex learns the rumor exactly when its
      partner (the caller under push, the callee under pull) learned it at
      an earlier tick.  The block's informing ticks are therefore earliest
      arrivals along time-respecting contact paths, and vectorised
      min-relaxation sweeps over one arrival column per vertex converge to
      the least fixed point of that recurrence, which is what the column
      walk computes.  Contacts are ordered by column, not by tick time, so
      a zero gap cannot create a tie.
    * **The column walk** (:meth:`_walk`) takes every other run.  It walks
      the columns in order and does only what depends on state the block
      cannot know in advance: the time budget, epoch and resample
      boundaries (which draw from the trial's generator, so they fire
      column by column in row order) and the state's exchange.  Retired
      rows leave the block at once.
    """

    __slots__ = ("state", "arrival", "moved")

    def __init__(self, state: "AsyncState") -> None:
        self.state = state
        # Relaxed runs keep every flat position's arrival column between
        # blocks: -1 once informed, _UNINFORMED before.  `parts.lossy`
        # covers loss, the burst channel and the adaptive jammer.
        relaxed = not (
            state.parts.lossy
            or state.up is not None
            or state.has_boundaries
            or state.trial_graphs is not None
        )
        self.arrival = (
            np.where(state.informed.reshape(-1), np.int16(-1), np.int16(_UNINFORMED))
            if relaxed
            else None
        )
        # The positions a relaxation sweep lowered, cleared after each sweep.
        self.moved = np.zeros(state.informed.size, dtype=bool) if relaxed else None

    def consume(
        self,
        rows: np.ndarray,
        executed: int,
        tick_times: np.ndarray,
        caller_pos: np.ndarray,
        callees: np.ndarray,
        loss: Optional[np.ndarray],
    ) -> np.ndarray:
        """Consume one resolved ``(rows.size, width)`` block.

        ``executed`` is the tick count every row reached before the block.
        A row that completes or runs out of time retires at its column;
        the survivors' ``now`` and ``steps`` are written at the end.
        Returns the indices into ``rows`` of the survivors.
        """
        if self.arrival is not None:
            return self._relax(rows, executed, tick_times, caller_pos, callees)
        return self._walk(
            rows,
            executed,
            np.ascontiguousarray(tick_times.T),
            np.ascontiguousarray(caller_pos.T),
            np.ascontiguousarray(callees.T),
            None if loss is None else np.ascontiguousarray(loss.T),
        )

    def _relax(
        self,
        rows: np.ndarray,
        executed: int,
        tick_times: np.ndarray,
        caller_pos: np.ndarray,
        callee_pos: np.ndarray,
    ) -> np.ndarray:
        """Resolve a block at once by earliest-arrival relaxation.

        Each contact is an arc from its source endpoint to its target (push:
        caller to callee, pull: callee to caller, push-pull: both), and the
        arc at column ``j`` fires when the source's arrival is below ``j``
        and the target's above it, lowering the target's to ``j``.  Arcs
        whose target was informed before the block, and arcs at or past
        their row's first over-budget tick, never fire.  Arcs from a source
        informed before the block all fire in the first sweep; after that
        an arc can only fire in the sweep after its source moved, so each
        sweep checks just the arcs leaving the positions the previous one
        lowered, until none fires.
        """
        state = self.state
        n = state.n
        arrival, moved = self.arrival, self.moved
        assert arrival is not None and moved is not None  # relaxed runs only
        live = state.live
        width = tick_times.shape[1]
        caller_open = arrival.take(caller_pos) >= 0
        callee_open = arrival.take(callee_pos) >= 0
        cut = None
        if state.finite_time_budget and tick_times.max() > state.time_budget:
            # Like the serial engine: a row's first over-budget tick is
            # popped but not executed, and nothing after it runs.  Such a
            # contact is dropped as if both endpoints were informed.
            over = tick_times > state.time_budget
            cut = np.where(over.any(axis=1), over.argmax(axis=1), width)
            in_budget = np.arange(width) < cut[:, None]
            caller_open &= in_budget
            callee_open &= in_budget
        # Seeds: contacts from an informed endpoint to an open one.
        if state.mode_pp:
            seed = np.flatnonzero(caller_open != callee_open)
            seed_target = np.where(
                caller_open.take(seed), caller_pos.take(seed), callee_pos.take(seed)
            )
        elif state.push_allowed:
            seed = np.flatnonzero(callee_open > caller_open)
            seed_target = callee_pos.take(seed)
        else:
            seed = np.flatnonzero(caller_open > callee_open)
            seed_target = caller_pos.take(seed)
        np.minimum.at(arrival, seed_target, (seed % width).astype(np.int16))
        fired_contacts, fired_targets = [seed], [seed_target]
        # The arcs between two open endpoints, by direction.
        dormant = np.flatnonzero(caller_open & callee_open)
        caller_d = caller_pos.take(dormant)
        callee_d = callee_pos.take(dormant)
        arcs = []
        if state.push_allowed:
            arcs.append((caller_d, callee_d))
        if state.mode_pp or not state.push_allowed:
            arcs.append((callee_d, caller_d))
        lowered = seed_target
        while lowered.size and dormant.size:
            moved[lowered] = True
            checks = [
                (np.flatnonzero(moved.take(source)), source, target)
                for source, target in arcs
            ]
            moved[lowered] = False
            lowered_now = []
            for check, source, target in checks:
                column = (dormant.take(check) % width).astype(np.int16)
                check_target = target.take(check)
                fire = arrival.take(source.take(check)) < column
                fire &= column < arrival.take(check_target)
                fired = check_target[fire]
                np.minimum.at(arrival, fired, column[fire])
                fired_contacts.append(dormant.take(check[fire]))
                fired_targets.append(fired)
                lowered_now.append(fired)
            lowered = np.concatenate(lowered_now)
        target = np.concatenate(fired_targets)
        if target.size:
            local, column = np.divmod(np.concatenate(fired_contacts), width)
            # A target's arrival is the column of the one arc that informed
            # it: the other arcs that fired on it lie later in its row.
            first = arrival.take(target) == column
            target, local, column = target[first], local[first], column[first]
            arrival[target] = -1
            state.informed.reshape(-1)[target] = True
            if state.times is not None:
                state.times.reshape(-1)[target] = tick_times[local, column]
            counts = state.num_informed.take(rows) + np.bincount(local, minlength=rows.size)
            state.num_informed[rows] = counts
            done = np.flatnonzero(counts == n)
            if done.size:
                # A complete row retires at its last informing column.
                last = np.zeros(rows.size, dtype=column.dtype)
                np.maximum.at(last, local, column)
                last = last[done]
                done_rows = rows[done]
                state.completed[done_rows] = True
                state.completion_time[done_rows] = tick_times[done, last]
                state.steps[done_rows] = executed + last + 1
                live[done_rows] = False
        if cut is not None:
            over_rows = np.flatnonzero(cut < width)
            over_rows = over_rows[live.take(rows[over_rows])]
            self._retire_overtime(rows[over_rows], executed + cut[over_rows])
        kept = np.flatnonzero(live.take(rows))
        survivors = rows[kept]
        state.now[survivors] = tick_times[kept, -1]
        state.steps[survivors] = executed + width
        return kept

    def _walk(
        self,
        rows: np.ndarray,
        executed: int,
        tick_times: np.ndarray,
        caller_pos: np.ndarray,
        callees: np.ndarray,
        loss: Optional[np.ndarray],
    ) -> np.ndarray:
        """Consume a column-major ``(width, rows.size)`` block column by column."""
        state = self.state
        n = state.n
        live = state.live
        exchange = state.exchange
        trial_graphs = state.trial_graphs
        time_budget = state.time_budget
        check_time = state.finite_time_budget
        check_bounds = state.has_boundaries
        width = tick_times.shape[0]
        kept = np.arange(rows.size)
        row_base = rows * n
        w_base = row_base
        tg_width = -1
        # Per-column maxima: a column skips the time-budget and boundary
        # scans while no row's tick time can reach them.
        col_max: list = (
            tick_times.max(axis=1).tolist() if check_time or check_bounds else []
        )
        origin = 0  # the block column that row 0 of the compacted arrays holds
        for column in range(width):
            j = column - origin
            tick_time = tick_times[j]
            over = None
            if check_time and col_max[j] > time_budget:
                # Like the serial engine: the first over-budget tick is
                # popped but not executed.
                over = tick_time > time_budget
                self._retire_overtime(rows[over], executed + column)
            if check_bounds and col_max[j] >= state.boundary_floor:
                state.cross(rows, tick_time, over)
            cp = caller_pos[j]
            if trial_graphs is not None:
                if trial_graphs.width != tg_width:  # new rows, or a resample grew the pad
                    tg_width = trial_graphs.width
                    w_base = rows * tg_width
                ep = trial_graphs.callees_at(cp, w_base, callees[j]) + row_base
            else:
                ep = callees[j]
            done = exchange(
                rows, cp, ep, tick_time, None if loss is None else loss[j],
                executed + column + 1, over,
            )
            if over is not None or done is not None:
                keep = live.take(rows)
                if not keep.any():
                    return kept[keep]
                # Drop the retired rows from the rest of the block; the
                # current column stays so the last one is always present.
                rows = rows[keep]
                kept = kept[keep]
                row_base = row_base[keep]
                tick_times = tick_times[j:, keep]
                caller_pos = caller_pos[j:, keep]
                callees = callees[j:, keep]
                if loss is not None:
                    loss = loss[j:, keep]
                if col_max:
                    col_max = tick_times.max(axis=1).tolist()
                tg_width = -1
                origin = column
        state.now[rows] = tick_times[-1]
        state.steps[rows] = executed + width
        return kept

    def _retire_overtime(self, gone: np.ndarray, executed: Union[int, np.ndarray]) -> None:
        # The popped tick counts in `steps` and is flagged for the engine
        # to uncount.
        state = self.state
        state.live[gone] = False
        state.overtime[gone] = True
        state.steps[gone] = executed + 1


# ---------------------------------------------------------------------- #
# Asynchronous ("global" view) tick loop
# ---------------------------------------------------------------------- #
def async_tick_loop(state: "AsyncState") -> None:
    """Drain an :class:`~repro.core.kernels.AsyncState` to completion.

    Each refill of :meth:`~repro.core.kernels.AsyncState.refills` goes to
    the block consumer of :func:`clock_chunk_consume`, through one
    :class:`_TickColumns` for the whole run.
    """
    columns = _TickColumns(state)
    metrics = current_metrics()
    for refill in state.refills():
        _consume(columns, *refill)
        if metrics is not None:
            metrics.count("engine.drain_returns")


def _callees(state: "AsyncState", callers: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """The static-graph neighbor each uniform picks for its caller.

    Contact selection on the state's narrow CSR, as in sync_round_step: the
    unsafe cast truncates toward zero like ``.astype``.
    """
    degrees = state.degrees
    offsets = np.multiply(
        uniforms,
        degrees.take(callers),
        out=np.empty(callers.shape, dtype=degrees.dtype),
        casting="unsafe",
    )
    np.minimum(offsets, state.max_offset.take(callers), out=offsets)
    offsets += state.start.take(callers)
    return state.indices.take(offsets)


# ---------------------------------------------------------------------- #
# The block consumer of every asynchronous body
# ---------------------------------------------------------------------- #
def clock_chunk_consume(
    state: "AsyncState",
    rows: np.ndarray,
    executed: int,
    tick_times: np.ndarray,
    callers: np.ndarray,
    contacts: np.ndarray,
    loss_block: Optional[np.ndarray],
    resolved: bool = False,
) -> None:
    """Consume one pre-drawn ``(rows, width)`` block of asynchronous ticks.

    The pooled chunks and the per-trial clock-view table loop feed it, and
    ``async_tick_loop`` feeds the same code (:func:`_consume`) the global
    view's refills.  Every tick's time, caller and loss uniform is known
    before the call: only epoch and resample crossings draw, from the
    trials' generators, mid-block.  ``contacts`` holds each tick's neighbor
    uniform or, when ``resolved``, the callee vertex the engine already
    picked (the edge view's pair callees).  The block goes to the shared
    block consumer in row-major sub-blocks of ``_BLOCK_TICKS`` ticks, with
    contacts as flat positions; each sub-block's neighbor uniforms are
    resolved for the rows still live, on the static CSR, or by the column
    walk against each trial's current graph under a dynamic graph.  Mutates
    the state in place; a row that retires leaves ``state.live``.
    """
    _consume(
        _TickColumns(state), rows, executed, tick_times, callers, contacts, loss_block,
        resolved,
    )


def _consume(
    columns: _TickColumns,
    rows: np.ndarray,
    executed: int,
    tick_times: np.ndarray,
    callers: np.ndarray,
    contacts: np.ndarray,
    loss_block: Optional[np.ndarray],
    resolved: bool = False,
) -> None:
    """:func:`clock_chunk_consume` on the block consumer ``columns``.

    ``async_tick_loop`` calls it once per refill with the one consumer of
    its run, so a traced ``clock_chunk_consume`` never nests in it.
    """
    state = columns.state
    width = tick_times.shape[1]
    local = np.arange(rows.size)  # the block's rows still live
    for lo in range(0, width, _BLOCK_TICKS):
        hi = min(lo + _BLOCK_TICKS, width)
        live_rows = rows[local]
        row_base = (live_rows * state.n)[:, None]
        block_callers = callers[local, lo:hi]
        callees = contacts[local, lo:hi]
        if resolved:
            callees = callees + row_base
        elif state.trial_graphs is None:
            callees = _callees(state, block_callers, callees) + row_base
        kept = columns.consume(
            live_rows,
            executed + lo,
            tick_times[local, lo:hi],
            block_callers + row_base,
            callees,
            None if loss_block is None else loss_block[local, lo:hi],
        )
        local = local[kept]
        if local.size == 0:
            break
