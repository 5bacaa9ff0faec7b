"""A persistent, session-wide process pool for parallel Monte Carlo runs.

Before this module every :func:`repro.analysis.parallel.run_trials_parallel`
call created (and tore down) its own
:class:`~concurrent.futures.ProcessPoolExecutor`, so a Theorem-1 or E12
sweep paid full pool startup — interpreter forks/spawns plus imports — at
*every grid point*.  :class:`ExecutorHandle` keeps one executor alive for
the whole session instead:

* :func:`get_pool` returns the lazily created session handle, sized by
  :func:`~repro.analysis.parallel.default_worker_count` (the
  ``REPRO_MAX_WORKERS`` environment variable caps the default fan-out) and
  grown on demand when a caller explicitly asks for more workers.
* The handle is a context manager, and the session pool is also torn down
  by an ``atexit`` hook (which additionally releases every parent-owned
  shared-memory graph segment — see :mod:`repro.analysis.shm`).
* A signal that skips ``atexit`` (SIGTERM, SIGKILL) cannot orphan the
  workers: each one polls the process that owns the pool and exits once
  that process is gone, after which the
  :mod:`multiprocessing.resource_tracker` unlinks the owner's segments.
* A crashed worker breaks a :class:`ProcessPoolExecutor` permanently;
  :meth:`ExecutorHandle.reset` discards the broken executor so the next
  call transparently gets a fresh pool (callers surface the crash itself
  as an :class:`~repro.errors.AnalysisError`).

The multiprocessing start method follows the interpreter default (fork on
Linux) and can be forced with ``REPRO_MP_START_METHOD=fork|spawn|forkserver``
— CI runs the parallel smoke suite under both fork and spawn to catch
start-method regressions early.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Optional

from repro import config
from repro.errors import AnalysisError

__all__ = ["ExecutorHandle", "get_pool", "shutdown_pool", "in_worker"]

#: Valid values of the ``REPRO_MP_START_METHOD`` environment variable.
_START_METHODS = ("fork", "spawn", "forkserver")

#: ``True`` only in pool worker processes (set by the initializer).  The
#: fault-injection hook in :mod:`repro.analysis.parallel` keys on this so an
#: injected crash/stall can never take down the parent process (serial
#: fallback chunks run in the parent through the very same code path).
_IN_WORKER = False


def in_worker() -> bool:
    """Whether the current process is a pool worker."""
    return _IN_WORKER


#: Seconds between two checks of a worker on the process owning its pool.
_OWNER_POLL_SECONDS = 0.5


def _watch_owner(owner_pid: int) -> None:
    """Exit this worker once the process that owns the pool is gone.

    ``getppid()`` alone is not enough: under ``forkserver`` a worker's
    parent is the fork server, not the owner.  A parent change still
    catches an owner that died but has not been reaped yet (a zombie
    answers ``kill(pid, 0)``).
    """
    parent = os.getppid()
    while True:
        time.sleep(_OWNER_POLL_SECONDS)
        try:
            os.kill(owner_pid, 0)
        except ProcessLookupError:
            os._exit(0)
        except PermissionError:
            pass  # the pid exists (alive, or already reused)
        if os.getppid() != parent:
            os._exit(0)


def _initialize_worker(backend: Optional[str], owner_pid: int) -> None:
    """Per-process pool initializer (top level, so every start method works).

    Starts the daemon thread that ends the worker when the pool's owner
    dies (:func:`_watch_owner`), propagates the parent's kernel-backend
    selection (``spawn``/``forkserver`` children do not inherit mutated
    parent environments) and pre-warms the kernels so a worker's first real
    chunk never absorbs numba's first-call compilation.  Warmup failures
    are swallowed: a worker that cannot warm up can still run, just slower
    on its first chunk.
    """
    global _IN_WORKER
    _IN_WORKER = True
    threading.Thread(
        target=_watch_owner, args=(owner_pid,), name="repro-owner-watch", daemon=True
    ).start()
    if backend is not None:
        os.environ["REPRO_KERNEL_BACKEND"] = backend
    try:
        from repro.core.kernels import warmup_kernels

        warmup_kernels()
    # repro: allow[EXC001] -- best-effort warmup: a worker that cannot warm up still runs, just slower
    except Exception:
        pass


def _start_method() -> Optional[str]:
    """The forced multiprocessing start method, or ``None`` for the default."""
    raw = config.read_env("REPRO_MP_START_METHOD")
    if raw is None:
        return None
    method = raw.strip().lower()
    if method not in _START_METHODS:
        raise AnalysisError(
            f"REPRO_MP_START_METHOD must be one of {_START_METHODS}, got {raw!r}"
        )
    return method


class ExecutorHandle:
    """A lazily created, restartable :class:`ProcessPoolExecutor` wrapper.

    The executor is created on first use and reused by every subsequent
    call; :meth:`ensure_workers` grows it (once) when a caller explicitly
    requests more workers than it was created with.  ``creations`` counts
    how many times an executor was actually built — the pool-reuse tests
    pin it across sweeps.

    Concurrent callers are safe: a lock serialises executor management and
    :meth:`lease` tracks in-flight calls, so a growth request from one
    thread never shuts an executor down under another thread's futures
    (the growth then applies at the next creation — an undersized pool
    just queues the extra chunks, it never affects results).
    """

    def __init__(self, max_workers: int) -> None:
        if max_workers < 1:
            raise AnalysisError(f"max_workers must be positive, got {max_workers}")
        self.max_workers = int(max_workers)
        self.creations = 0
        self._executor: Optional[ProcessPoolExecutor] = None
        self._executor_workers = 0  # size the live executor was created with
        self._lock = threading.Lock()
        self._leases = 0

    # -- lifecycle ----------------------------------------------------- #
    @property
    def alive(self) -> bool:
        """Whether an executor is currently instantiated."""
        return self._executor is not None

    def executor(self) -> ProcessPoolExecutor:
        """The live executor, created on first use."""
        with self._lock:
            if self._executor is None:
                method = _start_method()
                context = multiprocessing.get_context(method) if method else None
                self._executor = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    mp_context=context,
                    initializer=_initialize_worker,
                    initargs=(config.read_env("REPRO_KERNEL_BACKEND"), os.getpid()),
                )
                self._executor_workers = self.max_workers
                self.creations += 1
            return self._executor

    def ensure_workers(self, workers: int) -> None:
        """Grow the pool to at least ``workers`` processes (shrink never).

        An idle executor is restarted at the new size; one with leased
        (in-flight) calls is left running — their chunks simply queue on
        the smaller pool.  A growth deferred that way is applied by the
        next ``ensure_workers`` call that finds the pool idle (every
        ``run_trials_parallel`` call makes one), so it is never lost.
        """
        with self._lock:
            if workers > self.max_workers:
                self.max_workers = int(workers)
            if (
                self._executor is not None
                and self._executor_workers < self.max_workers
                and self._leases == 0
            ):
                executor, self._executor = self._executor, None
                executor.shutdown(wait=True)

    def lease(self) -> "_ExecutorLease":
        """Mark one call as in flight (``with handle.lease(): ...``)."""
        return _ExecutorLease(self)

    def reset(self) -> None:
        """Discard the executor (e.g. after a worker crash broke the pool).

        Any worker processes still alive are terminated: a reset is only
        issued for a broken or unresponsive pool, and a stalled worker left
        running would hold its process and keep simulating a chunk whose
        result has already been produced by a retry or the parent.
        """
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            processes = list(getattr(executor, "_processes", {}).values())
            # A broken pool's processes are already gone; don't block on them.
            executor.shutdown(wait=False, cancel_futures=True)
            for process in processes:
                try:
                    if process.is_alive():
                        process.terminate()
                except (AttributeError, OSError, ValueError):
                    # Already-reaped or closed process objects: is_alive() on a
                    # closed handle raises ValueError, terminate() on a
                    # never-started one AttributeError, kill itself OSError.
                    pass

    def shutdown(self, wait: bool = True) -> None:
        """Tear the executor down; the next use transparently recreates it."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)

    def __enter__(self) -> "ExecutorHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- execution ----------------------------------------------------- #
    def submit(self, fn: Callable, /, *args, **kwargs):
        return self.executor().submit(fn, *args, **kwargs)

    def map(self, fn: Callable, iterable: Iterable):
        return self.executor().map(fn, iterable)


class _ExecutorLease:
    """Context manager pinning the executor while a call's futures fly."""

    def __init__(self, handle: ExecutorHandle) -> None:
        self._handle = handle

    def __enter__(self) -> ExecutorHandle:
        with self._handle._lock:
            self._handle._leases += 1
        return self._handle

    def __exit__(self, exc_type, exc, tb) -> None:
        with self._handle._lock:
            self._handle._leases -= 1


_SESSION: Optional[ExecutorHandle] = None
_SESSION_LOCK = threading.Lock()
_ATEXIT_REGISTERED = False


def get_pool(num_workers: Optional[int] = None) -> ExecutorHandle:
    """The session-wide persistent pool handle (created on first use).

    Args:
        num_workers: grow the pool to at least this many workers.  With
            ``None`` the pool is sized by
            :func:`~repro.analysis.parallel.default_worker_count`, which
            honors ``REPRO_MAX_WORKERS``.
    """
    global _SESSION, _ATEXIT_REGISTERED
    with _SESSION_LOCK:
        if _SESSION is None:
            from repro.analysis.parallel import default_worker_count

            _SESSION = ExecutorHandle(default_worker_count())
            if not _ATEXIT_REGISTERED:
                atexit.register(shutdown_pool)
                _ATEXIT_REGISTERED = True
        session = _SESSION
    if num_workers is not None:
        session.ensure_workers(int(num_workers))
    return session


def shutdown_pool(wait: bool = True) -> None:
    """Tear down the session pool and release shared graph segments.

    Idempotent; registered with :mod:`atexit` on first pool use and callable
    directly (tests, long-lived applications releasing resources between
    workloads).  The next :func:`get_pool` call starts a fresh session.
    """
    global _SESSION
    with _SESSION_LOCK:
        session, _SESSION = _SESSION, None
    if session is not None:
        session.shutdown(wait=wait)
    from repro.analysis import shm

    shm.release_shared_graphs()
