"""Backend-neutral batch kernels: the hot loops of ``repro.core.batch_engine``.

The batched Monte Carlo engine separates *orchestration* (validation,
scenario unpacking, RNG stream management, result assembly — all of which
stays in :mod:`repro.core.batch_engine`) from the *hot loops* that consume
the pre-drawn randomness: the synchronous round step and the asynchronous
block consumer.  Each backend has one round step, ``sync_round_step``: it
resolves every caller's contact on the shared CSR or takes the contacts the
engine resolved on each trial's own dynamic graph, then runs the same
exchange.  Every asynchronous body feeds the one block consumer whole
blocks of ticks: the per-trial ``"global"`` view through its backend's
``async_tick_loop`` (one block per refill of
:meth:`AsyncState.refills`), the pooled chunks (all three views) and the
per-trial clock-view table loop through ``clock_chunk_consume``.  Those
loops live here as pure-array kernel functions with two interchangeable
implementations:

``numpy``
    :mod:`repro.core.kernels.numpy_backend` — the reference vectorised
    kernels.  Always available.
``jit``
    :mod:`repro.core.kernels.jit_backend` — Numba ``@njit(cache=True)``
    loops over the CSR ``indptr``/``indices`` arrays, per trial and per
    vertex, with no full-width ``(B, n)`` temporaries.  Requires the
    ``jit`` install extra (``pip install -e .[jit]``); without numba the
    resolver falls back to ``numpy`` with a one-time warning.
``auto``
    ``jit`` when numba is importable, ``numpy`` otherwise (never warns).

Both asynchronous kernels take an :class:`AsyncState`, the one state of an
asynchronous batch, which the engine builds once per run.

**Equivalence contract.**  All trial-level randomness is drawn *outside*
the compiled loops (by the engine or by :class:`AsyncState`'s
:meth:`~AsyncState.refills` and :meth:`~AsyncState.cross_boundaries`),
in an order that does not depend on the backend; the kernels are
deterministic functions of those draws.  Consequently every RNG mode is
**bit-identical** across backends: the per-trial modes draw in the serial
engines' documented order, every asynchronous view in refills drawn before
the consumer takes them (the full ``KERNEL_CASES`` registry replays under
both), and a pooled generator is consumed in whole blocks the engine draws
before either backend's consumer runs (the pooled asynchronous body, under
every view) or in the engine's own loop (the pooled rounds).

The backend is selected per call through the ``backend=`` engine option
(threaded through ``run_trials`` / ``run_trials_parallel`` / the CLI
``--backend`` flag), defaulting to the ``REPRO_KERNEL_BACKEND``
environment variable and then to ``"auto"``;
:func:`~repro.core.batch_engine.run_batch` resolves it once per call and
takes numpy wherever the jit backend has no loop.
"""

from __future__ import annotations

import warnings
from types import ModuleType
from typing import Iterator, Optional

import numpy as np

from repro import config
from repro.core.async_engine import _CHUNK
from repro.errors import ProtocolError
from repro.randomness.rng import as_generator

__all__ = [
    "KERNEL_BACKENDS",
    "AsyncState",
    "available_backends",
    "default_backend_name",
    "resolve_backend",
    "warmup_kernels",
]

#: Names accepted by ``backend=`` (and the ``REPRO_KERNEL_BACKEND`` env var).
KERNEL_BACKENDS = ("numpy", "jit", "auto")

_ENV_BACKEND = "REPRO_KERNEL_BACKEND"

_jit_fallback_warned = False


def _reset_fallback_warning() -> None:
    """Test hook: make the next jit→numpy fallback warn again."""
    global _jit_fallback_warned
    _jit_fallback_warned = False


def default_backend_name() -> str:
    """The backend name used when a kernel call passes ``backend=None``."""
    return config.read_env(_ENV_BACKEND) or "auto"


def available_backends() -> list[str]:
    """The backend names that resolve to themselves in this process."""
    from repro.core.kernels import jit_backend

    names = ["numpy"]
    if jit_backend.is_available():
        names.append("jit")
    return names


def _checked_name(name: object) -> str:
    """``name`` once it is one of :data:`KERNEL_BACKENDS`; a :class:`ProtocolError` otherwise."""
    if name not in KERNEL_BACKENDS:
        raise ProtocolError(
            f"unknown kernel backend {name!r}; expected one of {KERNEL_BACKENDS}"
        )
    return str(name)


def resolve_backend(backend: Optional[str] = None) -> ModuleType:
    """Resolve a backend name to its kernel module.

    ``None`` reads ``REPRO_KERNEL_BACKEND`` and then defaults to
    ``"auto"``.  ``"auto"`` quietly prefers the compiled jit backend when
    numba is importable.  ``"jit"`` without numba degrades to the numpy
    backend with a single :class:`RuntimeWarning` per process (the
    graceful-fallback contract pinned by the suite).  Unknown names raise
    :class:`~repro.errors.ProtocolError`.
    """
    global _jit_fallback_warned
    name = _checked_name(default_backend_name() if backend is None else backend)
    from repro.core.kernels import numpy_backend

    if name == "numpy":
        return numpy_backend
    from repro.core.kernels import jit_backend

    if name == "auto":
        return jit_backend if jit_backend.is_compiled() else numpy_backend
    if jit_backend.is_available():
        return jit_backend
    if not _jit_fallback_warned:
        _jit_fallback_warned = True
        warnings.warn(
            "backend='jit' requested but numba is not installed; falling back "
            "to the numpy kernels (install the extra: pip install -e '.[jit]'). "
            "This warning is shown once per process.",
            RuntimeWarning,
            stacklevel=2,
        )
    return numpy_backend


def warmup_kernels(backend: Optional[str] = None) -> str:
    """Run one tiny batch through every kernel family on ``backend``.

    Numba compiles lazily on the first call per signature, so a worker's
    first real chunk (or a benchmark's first timed repetition) would
    otherwise absorb seconds of compilation.  Pool workers and
    ``benchmarks/conftest.py`` call this once up front; the runs use
    throwaway graphs and seeds and touch no caller RNG state.  Returns the
    resolved backend's name (``"numpy"`` after a fallback).
    """
    from repro.core import batch_engine
    from repro.graphs import complete_graph

    resolved = resolve_backend(backend)
    graph = complete_graph(4)
    common = dict(
        trials=2,
        record_times=False,
        on_budget_exhausted="partial",
        backend=backend,
    )
    batch_engine.run_batch(graph, 0, "pp", seed=0, **common)
    batch_engine.run_batch(graph, 0, "pp-a", seed=0, **common)
    batch_engine.run_batch(
        graph, 0, "pp-a", view="node_clocks", pooled_rng=as_generator(0), **common
    )
    return resolved.BACKEND_NAME


class AsyncState:
    """The one state of an asynchronous batch.

    ``_async_state`` in :mod:`repro.core.batch_engine` builds it once for
    each of the engine's three asynchronous bodies (the per-trial
    ``"global"`` tick loop and clock-view table loop, and the pooled
    chunks), and the body hands it whole to the backend's
    ``async_tick_loop`` or ``clock_chunk_consume``.  Every array is indexed
    by absolute trial row; a consumer that compacts its working set keeps
    its own row mapping and writes results back through these arrays.

    It holds the run's shape, budgets and generators; narrow int32 copies
    of the static CSR (``degrees``, ``max_offset``, ``start``,
    ``indices``) for the contact gathers; each trial's
    ``Delay`` vertex rates (``rates``, drawn once, before any tick) and
    their running sums (``rates_cum``, the rate-weighted caller table);
    the trial state (``informed``, ``times``, ``num_informed``, ``now``,
    ``steps``, ``live``, ``completed``, ``completion_time`` and
    ``overtime``, which marks the rows whose ``steps`` count a popped but
    unexecuted over-budget tick); and the scenario state (``parts`` with
    the adversary budgets, ``up``, ``bad``, ``next_epoch``,
    ``next_resample``, ``trial_graphs`` and ``boundary_floor``, a lower
    bound on the earliest boundary pending for a live row).
    """

    __slots__ = (
        # problem shape, protocol, budgets, randomness sources
        "n", "batch", "mode_pp", "push_allowed",
        "step_budget", "time_budget", "finite_time_budget",
        "generators", "pooled_rng",
        # the static CSR, narrow
        "degrees", "max_offset", "start", "indices",
        # Delay clock rates
        "rates", "rates_cum",
        # trial state
        "informed", "times", "num_informed", "now", "steps", "live",
        "completed", "completion_time", "overtime",
        # scenario state
        "parts", "up", "bad", "next_epoch", "next_resample", "trial_graphs",
        "has_boundaries", "boundary_floor",
    )

    def __init__(self, **fields: object) -> None:
        for name, value in fields.items():
            setattr(self, name, value)

    def rng_for(self, trial: int) -> np.random.Generator:
        """The generator that owns ``trial``'s randomness stream."""
        if self.pooled_rng is not None:
            return self.pooled_rng
        return self.generators[trial]

    def weighted_callers(self, trial: int, uniforms: np.ndarray) -> np.ndarray:
        """One caller per uniform, chosen in proportion to ``trial``'s rates."""
        cumulative = self.rates_cum[trial]
        return np.minimum(
            np.searchsorted(cumulative, uniforms * cumulative[-1], side="right"),
            self.n - 1,
        )

    def refills(
        self,
    ) -> Iterator[tuple[np.ndarray, int, np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]]:
        """The per-trial global view's ticks, one refill at a time.

        A refill is each live row's next ``min(_CHUNK, steps left)`` ticks,
        drawn row by row in the serial engine's order (exponential gaps,
        callers, rate-weighted under a ``Delay``, neighbor uniforms, loss
        uniforms when the run is lossy) into row-major blocks.  One
        sequential ``cumsum`` along each row, after its ``now`` is added to
        its first gap, turns the gaps into tick times: bit-identical to
        adding one gap per tick, which ``now + cumsum(gaps)`` is not.  Each
        refill is yielded as ``clock_chunk_consume``'s ``(rows, executed,
        tick_times, callers, uniforms, loss)``, and the next one reuses its
        buffers.  The live rows execute one tick per column, so one scalar
        counts their ticks, and a row runs out of step budget only here.
        """
        lossy = self.parts.lossy
        rows = np.flatnonzero(self.live)
        # Every refill fills the heads of one set of buffers (the loss
        # buffer stays empty unless the run is lossy).
        size = rows.size * min(_CHUNK, self.step_budget)
        buffers = (
            np.empty(size), np.empty(size, dtype=np.int32), np.empty(size),
            np.empty(size if lossy else 0),
        )
        executed = 0
        while rows.size:
            width = min(_CHUNK, self.step_budget - executed)
            if width <= 0:
                self.live[rows] = False
                self.steps[rows] = executed
                return
            tick_times, callers, uniforms, loss = (
                buffer[: rows.size * width].reshape(rows.size, -1) for buffer in buffers
            )
            for i, b in enumerate(rows.tolist()):
                rng = self.rng_for(b)
                if self.rates_cum is None:
                    tick_times[i] = rng.exponential(1.0 / self.n, width)
                    callers[i] = rng.integers(0, self.n, width)
                else:
                    tick_times[i] = rng.exponential(1.0 / self.rates_cum[b, -1], width)
                    callers[i] = self.weighted_callers(b, rng.random(width))
                rng.random(out=uniforms[i])
                if lossy:
                    rng.random(out=loss[i])
            tick_times[:, 0] += self.now.take(rows)
            np.cumsum(tick_times, axis=1, out=tick_times)
            yield rows, executed, tick_times, callers, uniforms, loss if lossy else None
            executed += width
            rows = rows[self.live.take(rows)]

    def pending(self, rows: np.ndarray) -> np.ndarray:
        """Each row's earliest pending epoch or resample boundary."""
        bound = np.full(rows.size, np.inf)
        if self.next_epoch is not None:
            np.minimum(bound, self.next_epoch.take(rows), out=bound)
        if self.next_resample is not None:
            np.minimum(bound, self.next_resample.take(rows), out=bound)
        return bound

    def cross(
        self, rows: np.ndarray, tick_time: np.ndarray, skip: Optional[np.ndarray] = None
    ) -> None:
        """Fire every boundary that each row's ``tick_time`` crosses, in row order.

        Rows in ``skip`` (retiring on the time budget) cross nothing.
        Afterwards ``boundary_floor`` is the earliest boundary still
        pending for ``rows``.
        """
        bound = self.pending(rows)
        crossing = tick_time >= bound
        if skip is not None:
            crossing &= ~skip
        if crossing.any():
            for b, t in zip(rows[crossing].tolist(), tick_time[crossing].tolist()):
                self.cross_boundaries(b, t)
            bound = self.pending(rows)
        self.boundary_floor = float(bound.min())

    def cross_boundaries(self, b: int, t: float) -> None:
        """Fire trial ``b``'s epoch and resample boundaries up to time ``t``.

        The one definition of the batched boundary interleave: chronological
        order, the epoch (churn update, then burst draw) before a resample
        on ties, drawing from ``b``'s generator exactly as the serial
        engines do.  An adaptive crash adversary observes ``b``'s informed
        set and draws nothing.
        """
        parts, up, bad = self.parts, self.up, self.bad
        next_epoch, next_resample = self.next_epoch, self.next_resample
        rng = self.rng_for(b)
        while True:
            epoch_at = next_epoch[b] if next_epoch is not None else np.inf
            resample_at = next_resample[b] if next_resample is not None else np.inf
            if min(epoch_at, resample_at) > t:
                return
            if epoch_at <= resample_at:
                if parts.churn_updates:
                    # repro: allow[RNG002] -- epoch schedule is deterministic in time, not in drawn values; this method IS the pinned boundary-interleave contract
                    up[b] = parts.churn.step(up[b], rng.random(self.n))
                elif parts.adaptive_churn:
                    parts.crash_budget[b] -= parts.churn.crash_step(
                        up[b], self.informed[b], parts.crash_order, parts.crash_budget[b]
                    )
                if bad is not None:
                    # repro: allow[RNG002] -- epoch schedule is deterministic in time, not in drawn values; this method IS the pinned boundary-interleave contract
                    bad[b] = parts.burst.step_state(bad[b], rng.random())
                next_epoch[b] += 1.0
            else:
                self.trial_graphs.resample(b, parts.dynamic, rng)
                next_resample[b] += float(parts.dynamic.period)

    def exchange(
        self,
        rows: np.ndarray,
        caller_pos: np.ndarray,
        callee_pos: np.ndarray,
        tick_time: np.ndarray,
        loss: Optional[np.ndarray],
        executed: int,
        skip: Optional[np.ndarray] = None,
    ) -> Optional[np.ndarray]:
        """One tick of each row in ``rows``: the rumor exchange of its contact.

        Row ``i``'s contact joins the flat positions ``caller_pos[i]`` and
        ``callee_pos[i]`` of the raveled ``(B, n)`` state at time
        ``tick_time[i]``, with the pre-drawn loss uniform ``loss[i]``
        (``loss`` is ``None`` when the run draws none).  One contact per
        row, so the exchange vectorises with no conflicts: push informs the
        callee, pull the caller, and push-pull exactly the uninformed
        endpoint of an informative contact.  The loss threshold is read
        after the tick's boundaries fired, so the burst channel's state sets
        it; crashed endpoints suppress the exchange in either direction; the
        adaptive jammer sees exactly the would-transmit contacts and jams
        those whose uniform fires while budget remains.  Rows in ``skip``
        (retiring on the time budget) exchange nothing.

        A row that completes records ``executed`` steps and leaves ``live``.
        Returns the indices into ``rows`` of those rows, or ``None``.
        """
        informed = self.informed
        caller_informed = informed.take(caller_pos)
        callee_informed = informed.take(callee_pos)
        if self.mode_pp:
            active = caller_informed != callee_informed
        elif self.push_allowed:
            active = caller_informed > callee_informed
        else:
            active = caller_informed < callee_informed
        if skip is not None:
            active &= ~skip
        parts = self.parts
        jammer = parts.adaptive_loss
        if loss is not None and jammer is None:
            active &= loss >= parts.loss_threshold(self.bad, rows)
        if self.up is not None:
            active &= self.up.take(caller_pos) & self.up.take(callee_pos)
        if jammer is not None:
            jam = active & (loss < jammer.p) & (parts.jam_budget.take(rows) > 0)
            if jam.any():
                parts.jam_budget[rows[jam]] -= 1
                active &= ~jam
        if not active.any():
            return None
        hit = np.flatnonzero(active)
        hit_rows = rows[hit]
        if self.mode_pp:
            targets = np.where(caller_informed, callee_pos, caller_pos)[hit]
        elif self.push_allowed:
            targets = callee_pos[hit]
        else:
            targets = caller_pos[hit]
        informed.reshape(-1)[targets] = True
        if self.times is not None:
            self.times.reshape(-1)[targets] = tick_time[hit]
        counts = self.num_informed[hit_rows] + 1
        self.num_informed[hit_rows] = counts
        if counts.max() < self.n:
            return None
        done = hit[counts == self.n]
        done_rows = rows[done]
        self.completed[done_rows] = True
        self.completion_time[done_rows] = tick_time[done]
        self.steps[done_rows] = executed
        self.live[done_rows] = False
        return done
