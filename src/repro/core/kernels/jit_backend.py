"""Numba ``@njit`` kernels: per-trial CSR loops with no ``(B, n)`` temporaries.

Each kernel re-expresses its numpy counterpart as a compiled per-trial /
per-vertex loop over the CSR ``indptr``/``indices`` arrays.  The loops
consume exactly the randomness the engine pre-drew (contact uniforms per
round, the tick blocks of the asynchronous bodies) and are deterministic
given it, so:

* **Sync rounds** go to one compiled loop (``_sync_round``), which resolves
  each caller's contact from its uniform on the shared CSR or, under a
  dynamic graph, takes the contacts the engine resolved on each trial's own
  graph.  It is bit-identical to the numpy backend (and therefore to the
  serial engines).
* **Asynchronous blocks** go to one compiled column drain
  (``_clock_drain``): every refill of the per-trial global view
  (:meth:`~repro.core.kernels.AsyncState.refills`) through
  ``async_tick_loop``, and every pooled chunk through
  ``clock_chunk_consume``.  All of a block's randomness is drawn before the
  drain runs, so both backends read the same streams, and the full
  ``KERNEL_CASES`` registry replays under ``backend="jit"``.

The drain has no loop for epoch or resample crossings, which draw from a
generator mid-block, nor for the clock-view table loop's resolved callees:
:func:`~repro.core.batch_engine.run_batch` sends those runs (churn updates,
a burst channel, an adaptive crash adversary, a dynamic graph, and every
per-trial ``node_clocks``/``edge_clocks`` run) to the numpy consumer.
Every RNG mode is therefore bit-identical across the two backends.

Without numba the module still imports: the kernels stay plain-Python
(the resolver then routes ``backend="jit"`` to numpy with a warning), and
setting ``REPRO_JIT_PURE_PYTHON=1`` opts into running these loops
uncompiled anyway — slow, but it lets numba-free environments verify the
jit loop semantics against the equivalence harness.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro import config
from repro.telemetry.metrics import current_metrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.batch_engine import _ScenarioParts
    from repro.core.kernels import AsyncState

BACKEND_NAME = "jit"

try:
    from numba import njit as _njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via the fallback tests
    _njit = None
    _HAVE_NUMBA = False


def is_compiled() -> bool:
    """Whether the kernels below are actually numba-compiled."""
    return _HAVE_NUMBA


def is_available() -> bool:
    """Whether ``backend="jit"`` resolves here instead of falling back."""
    return _HAVE_NUMBA or config.read_flag("REPRO_JIT_PURE_PYTHON")


def _compile(fn: Callable[..., None]) -> Callable[..., None]:
    if _HAVE_NUMBA:
        return _njit(cache=True)(fn)
    return fn


# Typed dummies standing in for absent optional arrays (numba needs a
# concrete array argument even when the matching has_* flag is False).
_B2 = np.zeros((0, 0), dtype=bool)
_F2 = np.zeros((0, 0), dtype=np.float64)
_I2 = np.zeros((0, 0), dtype=np.int64)
_I64 = np.zeros(0, dtype=np.int64)


# ---------------------------------------------------------------------- #
# Synchronous round step
# ---------------------------------------------------------------------- #
def _sync_round_impl(
    degrees: np.ndarray, start: np.ndarray, indices: np.ndarray,
    draws: np.ndarray, contacts: np.ndarray, has_contacts: bool, informed: np.ndarray,
    times: np.ndarray, has_times: bool, kept: np.ndarray, has_kept: bool,
    up: np.ndarray, has_up: bool,
    round_time: float, push_allowed: bool, pull_allowed: bool,
    counts: np.ndarray,
) -> None:
    live, n = draws.shape
    snapshot = np.empty(n, dtype=np.bool_)
    for i in range(live):
        for v in range(n):
            snapshot[v] = informed[i, v]
        for v in range(n):
            if has_contacts:
                contact = contacts[i, v]
            else:
                deg = degrees[v]
                off = int(draws[i, v] * deg)
                if off > deg - 1:
                    off = deg - 1
                contact = indices[start[v] + off]
            if has_up and not (up[i, v] and up[i, contact]):
                continue
            if has_kept and not kept[i, v]:
                continue
            if pull_allowed and not snapshot[v] and snapshot[contact]:
                if not informed[i, v]:
                    informed[i, v] = True
                    counts[i] += 1
                if has_times:
                    times[i, v] = round_time
            if push_allowed and snapshot[v] and not snapshot[contact]:
                if not informed[i, contact]:
                    informed[i, contact] = True
                    counts[i] += 1
                if has_times:
                    times[i, contact] = round_time


_sync_round = _compile(_sync_round_impl)


def sync_workspace(batch: int, n: int, idx_dtype: type) -> None:
    """The jit round step needs no vectorisation buffers."""
    return None


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
    ws: None,
    counts: np.ndarray,
) -> np.ndarray:
    degrees, _max_offset, start, indices = csr
    new_counts = counts.copy()
    _sync_round(
        degrees, start, indices, draws,
        np.ascontiguousarray(contacts, dtype=np.int64) if contacts is not None else _I2,
        contacts is not None, informed_live,
        times_live if times_live is not None else _F2, times_live is not None,
        np.ascontiguousarray(kept) if kept is not None else _B2, kept is not None,
        np.ascontiguousarray(up_live) if up_live is not None else _B2, up_live is not None,
        float(round_index), bool(push_allowed), bool(pull_allowed), new_counts,
    )
    return new_counts


# ---------------------------------------------------------------------- #
# The asynchronous block consumer
# ---------------------------------------------------------------------- #
def _clock_drain_impl(
    rows: np.ndarray, width: int, executed: int, tick_times: np.ndarray,
    callers: np.ndarray, uniforms: np.ndarray,
    degrees: np.ndarray, start: np.ndarray, indices: np.ndarray,
    loss_block: np.ndarray, has_loss: bool, loss_prob: float,
    up: np.ndarray, has_up: bool,
    has_adaptive: bool, adaptive_p: float, jam_budget: np.ndarray,
    informed: np.ndarray, times: np.ndarray, has_times: bool,
    num_informed: np.ndarray, steps: np.ndarray,
    completed: np.ndarray, completion_time: np.ndarray,
    live: np.ndarray, now: np.ndarray,
    time_budget: float, finite_time_budget: bool, mode_code: int, n: int,
) -> None:
    for j in range(rows.shape[0]):
        b = rows[j]
        survived = True
        for col in range(width):
            t = tick_times[j, col]
            if finite_time_budget and t > time_budget:
                # The first over-budget event is popped but not executed.
                live[b] = False
                steps[b] = executed + col
                survived = False
                break
            caller = callers[j, col]
            deg = degrees[caller]
            off = int(uniforms[j, col] * deg)
            if off > deg - 1:
                off = deg - 1
            callee = indices[start[caller] + off]
            ci = informed[b, caller]
            ce = informed[b, callee]
            if mode_code == 2:
                ok = ci != ce
            elif mode_code == 0:
                ok = ci and not ce
            else:
                ok = (not ci) and ce
            # Up before loss: the adaptive jammer must only see
            # would-transmit contacts (result-identical for plain loss).
            if ok and has_up and not (up[b, caller] and up[b, callee]):
                ok = False
            if ok and has_loss and loss_block[j, col] < loss_prob:
                ok = False
            if (
                ok
                and has_adaptive
                and jam_budget[b] > 0
                and loss_block[j, col] < adaptive_p
            ):
                jam_budget[b] -= 1
                ok = False
            if ok:
                if mode_code == 2:
                    target = callee if ci else caller
                elif mode_code == 0:
                    target = callee
                else:
                    target = caller
                informed[b, target] = True
                if has_times:
                    times[b, target] = t
                num_informed[b] += 1
                if num_informed[b] == n:
                    completed[b] = True
                    completion_time[b] = t
                    steps[b] = executed + col + 1
                    live[b] = False
                    survived = False
                    break
        if survived:
            steps[b] = executed + width
            now[b] = tick_times[j, width - 1]


_clock_drain = _compile(_clock_drain_impl)


def _mode_code(state: "AsyncState") -> int:
    """The drain's exchange rule: 0 push, 1 pull, 2 push-pull."""
    return 2 if state.mode_pp else (0 if state.push_allowed else 1)


def _jammer(parts: "_ScenarioParts") -> tuple[bool, float, np.ndarray]:
    """Whether an adaptive jammer is present, its loss probability and budgets."""
    if parts.adaptive_loss is None:
        return False, 0.0, _I64
    return True, float(parts.adaptive_loss.p), parts.jam_budget


def async_tick_loop(state: "AsyncState") -> None:
    """Drain an :class:`~repro.core.kernels.AsyncState` to completion.

    Each refill of :meth:`~repro.core.kernels.AsyncState.refills` goes
    whole to the compiled column drain.
    """
    metrics = current_metrics()
    for refill in state.refills():
        _drain(state, *refill)
        if metrics is not None:
            metrics.count("engine.drain_returns")


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
    """Consume one pre-drawn pooled block; identical results to numpy.

    All block randomness is drawn by the engine before this runs, so the
    compiled per-trial column drain, which resolves each tick's callee from
    its neighbor uniform (``contacts``) on the state's static CSR, reads the
    same pooled stream the numpy consumer would.  A run with epoch or
    resample boundaries and the ``resolved`` callees of the clock-view table
    loop never reach this backend (see the module docstring).
    """
    assert not resolved, "the clock-view table loop runs on the numpy backend"
    _drain(state, rows, executed, tick_times, callers, contacts, loss_block)


def _drain(
    state: "AsyncState",
    rows: np.ndarray,
    executed: int,
    tick_times: np.ndarray,
    callers: np.ndarray,
    uniforms: np.ndarray,
    loss_block: Optional[np.ndarray],
) -> None:
    """One block through ``_clock_drain``, with the state's scenario inputs."""
    assert not state.has_boundaries, "runs with boundaries take the numpy backend"
    parts = state.parts
    has_adaptive, adaptive_p, jam_budget = _jammer(parts)
    has_loss = loss_block is not None and not has_adaptive
    # Without epochs there is no burst channel, so the threshold is the
    # scalar independent-loss probability.
    loss_prob = float(parts.loss_threshold(state.bad)) if has_loss else 0.0
    _clock_drain(
        rows, tick_times.shape[1], int(executed), tick_times,
        np.ascontiguousarray(callers), uniforms,
        state.degrees, state.start, state.indices,
        loss_block if loss_block is not None else _F2, has_loss, loss_prob,
        np.ascontiguousarray(state.up) if state.up is not None else _B2,
        state.up is not None, has_adaptive, adaptive_p, jam_budget,
        state.informed, state.times if state.times is not None else _F2,
        state.times is not None, state.num_informed, state.steps,
        state.completed, state.completion_time, state.live, state.now,
        float(state.time_budget), bool(state.finite_time_budget),
        _mode_code(state), state.n,
    )
