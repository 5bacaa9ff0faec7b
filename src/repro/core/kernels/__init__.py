"""Backend-neutral batch kernels: the hot loops of ``repro.core.batch_engine``.

The batched Monte Carlo engine separates *orchestration* (validation,
scenario unpacking, RNG stream management, result assembly — all of which
stays in :mod:`repro.core.batch_engine`) from the *hot loops* that consume
the pre-drawn randomness: the synchronous round step, the flattened
asynchronous tick loop of the ``"global"`` view, and the pooled clock-view
chunk consumer.  Those loops live here as pure-array kernel functions with
two interchangeable implementations:

``numpy``
    :mod:`repro.core.kernels.numpy_backend` — the reference vectorised
    kernels, extracted verbatim from the engine.  Always available.
``jit``
    :mod:`repro.core.kernels.jit_backend` — Numba ``@njit(cache=True)``
    loops over the CSR ``indptr``/``indices`` arrays, per trial and per
    vertex, with no full-width ``(B, n)`` temporaries.  Requires the
    ``jit`` install extra (``pip install -e .[jit]``); without numba the
    resolver falls back to ``numpy`` with a one-time warning.
``auto``
    ``jit`` when numba is importable, ``numpy`` otherwise (never warns).

**Equivalence contract.**  All trial-level randomness is drawn *outside*
the kernels (by the engine or the shared :meth:`AsyncState.draw_chunk` /
``_ScenarioParts.cross_boundaries`` helpers), in the serial engines'
documented order; the kernels are deterministic functions of those draws.
Consequently the per-trial RNG modes are **bit-identical** across backends
— the full ``KERNEL_CASES`` registry replays under both — and the pooled
modes agree in distribution (the jit backend drains pooled buffers trial
by trial, reordering consumption of the shared generator), with one
strengthening: the *chunked* pooled clock-view consumer pre-draws every
block before consuming it, so given the same pooled stream the two
backends produce identical results there too.

The backend is selected per call through the ``backend=`` engine option
(threaded through ``run_trials`` / ``run_trials_parallel`` / the CLI
``--backend`` flag), defaulting to the ``REPRO_KERNEL_BACKEND``
environment variable and then to ``"auto"``.
"""

from __future__ import annotations

import warnings
from types import ModuleType
from typing import Optional

import numpy as np

from repro import config
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
    name = default_backend_name() if backend is None else backend
    if name not in KERNEL_BACKENDS:
        raise ProtocolError(
            f"unknown kernel backend {name!r}; expected one of {KERNEL_BACKENDS}"
        )
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
    """Everything the asynchronous ``"global"`` tick loop reads and writes.

    Built by the global-view tick loop of
    :func:`~repro.core.batch_engine.run_batch` and
    handed to the selected backend's ``async_tick_loop``, so both backends
    consume one identically-prepared bundle (same buffer layout, same
    pre-drawn randomness protocol) and cannot drift apart.  All arrays are
    indexed by absolute trial row; a backend that compacts its working set
    (the numpy loop does) keeps its own local-row mapping and writes
    results back through these arrays.
    """

    __slots__ = (
        # problem shape / protocol
        "n", "batch", "mode", "chunk",
        # budgets
        "step_budget", "time_budget", "finite_time_budget",
        # randomness sources
        "generators", "pooled_rng",
        # clock rates (Delay scenario)
        "scale", "scales", "rates_cum", "rates_total",
        # static CSR (narrow) and the per-trial dynamic stacked CSR
        "degrees", "max_offset", "start", "indices", "trial_graphs",
        # scenario state
        "parts", "up", "bad", "next_epoch", "next_resample",
        "boundary_floor", "has_boundaries",
        # per-trial randomness buffers (serial chunk protocol)
        "gaps", "callers", "nbr_uniforms", "loss_uniforms",
        "positions", "buffer_lengths", "chunk_base",
        # trial state
        "informed", "times", "num_informed", "now",
        "live", "completed", "completion_time", "overtime", "steps",
    )

    def __init__(self, **fields: object) -> None:
        for name in self.__slots__:
            setattr(self, name, fields.pop(name))
        if fields:
            raise TypeError(f"unknown AsyncState fields: {sorted(fields)}")

    def rng_for(self, trial: int) -> np.random.Generator:
        """The generator that owns ``trial``'s randomness stream."""
        if self.pooled_rng is not None:
            return self.pooled_rng
        return self.generators[trial]

    def draw_chunk(
        self,
        rng: np.random.Generator,
        trial: int,
        chunk: int,
        row: int,
        gaps: Optional[np.ndarray] = None,
        callers: Optional[np.ndarray] = None,
        nbr_uniforms: Optional[np.ndarray] = None,
        loss_uniforms: Optional[np.ndarray] = None,
    ) -> None:
        """Refill one trial's randomness buffers with ``chunk`` draws.

        The single definition of the serial engine's per-chunk draw order
        (exponential gaps, callers, neighbor uniforms, loss uniforms) shared
        by both backends, so the equivalence-pinned stream cannot drift.
        ``trial`` addresses the per-trial rate tables (absolute row);
        ``row`` addresses the buffers, which a compacting backend passes as
        local arrays (defaulting to the state's own).
        """
        n = self.n
        if gaps is None:
            gaps = self.gaps
        if callers is None:
            callers = self.callers
        if nbr_uniforms is None:
            nbr_uniforms = self.nbr_uniforms
        if loss_uniforms is None:
            loss_uniforms = self.loss_uniforms
        gaps[row, :chunk] = rng.exponential(
            self.scale if self.scales is None else self.scales[trial], chunk
        )
        if self.rates_cum is not None:
            # Weighted caller selection: resolve the whole chunk of uniforms
            # against the trial's cumulative rates now (the draw order is
            # what serial equivalence pins, not when they are transformed).
            caller_uniforms = rng.random(chunk)
            callers[row, :chunk] = np.minimum(
                np.searchsorted(
                    self.rates_cum[trial],
                    caller_uniforms * self.rates_total[trial],
                    side="right",
                ),
                n - 1,
            )
        else:
            callers[row, :chunk] = rng.integers(0, n, chunk)
        nbr_uniforms[row, :chunk] = rng.random(chunk)
        if loss_uniforms is not None:
            loss_uniforms[row, :chunk] = rng.random(chunk)
