"""Shared-memory transport for the zero-copy parallel execution layer.

:func:`repro.analysis.parallel.run_trials_parallel` chunks return their
samples through the executor — O(trials) numbers, cheap to pickle.  This
module carries, through :mod:`multiprocessing.shared_memory`, only what
grows with the vertex count:

* **Graph CSR arrays** — :func:`share_graph` places a graph's
  ``FlatAdjacency`` arrays (``indptr`` + ``indices``) into one shared
  segment per graph, cached parent-side by graph identity so repeated calls
  on the same graph (e.g. the two protocols of a Theorem-1 grid point)
  reuse the segment.  Workers :func:`attach_graph` by name, rebuild the
  :class:`~repro.graphs.base.Graph` once with the trusted
  :meth:`~repro.graphs.base.Graph.from_csr` constructor, and pre-seed the
  flat-adjacency cache with zero-copy views into the segment; a worker-side
  name-keyed cache makes every later chunk on the same graph free.
* **The coverage matrix** — a traced call's ``(trials, n)`` informing-time
  matrix (:func:`result_array`), which each worker writes in place at its
  chunk's row offset.

Lifecycle: the coverage segment belongs to its call, which creates it once
and unlinks it in a ``finally`` after the dispatcher has drained its
in-flight chunks.  Graph segments are unlinked on LRU eviction, at
:func:`release_shared_graphs`, and by the same ``atexit`` hook that tears
down the persistent pool; should the owning process die without running
that hook, its pool workers exit on their own (see
:mod:`repro.analysis.pool`) and the :mod:`multiprocessing.resource_tracker`
then unlinks what the owner left.  Workers attach without registering with
the resource tracker (the parent owns every segment), so worker exits never
spuriously unlink live segments and interpreter shutdown stays free of
"leaked shared_memory" warnings.
"""

from __future__ import annotations

import threading
import weakref
from multiprocessing import shared_memory
from typing import Optional

import numpy as np

from repro.core.flatgraph import (
    FlatAdjacency,
    cache_adjacency,
    flat_adjacency,
    uncache_adjacency,
)
from repro.graphs.base import Graph
from repro.telemetry.metrics import current_metrics

__all__ = [
    "create_array",
    "attach_array",
    "share_graph",
    "attach_graph",
    "release_shared_graphs",
    "result_array",
]

#: Parent-side bound on simultaneously shared graph segments (a Theorem-1
#: sweep touches one graph per grid point; keeping a handful alive covers
#: the repeated-protocol reuse without accumulating segments).
_GRAPH_SEGMENT_LIMIT = 8

#: Worker-side bound on cached (segment, rebuilt graph) attachments.
_WORKER_CACHE_LIMIT = 8


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker registration.

    On POSIX, Python < 3.13 registers *attaching* processes with the
    resource tracker too (bpo-39959).  With fork-started workers the
    tracker process is shared with the parent, so the spurious worker-side
    registrations fight the parent's own register/unregister bookkeeping
    (KeyError noise in the tracker, or segments "leaked" at shutdown that
    the parent already unlinked).  Python 3.13+ exposes ``track=False`` for
    exactly this; on older interpreters the registration is suppressed for
    the duration of the attach — the parent is the sole owner of every
    segment, so attachers must never register.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register

        def _register_ignoring_shm(resource_name, rtype):
            if rtype != "shared_memory":
                original_register(resource_name, rtype)

        resource_tracker.register = _register_ignoring_shm
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register


def create_array(shape: tuple[int, ...], dtype=np.float64) -> tuple[shared_memory.SharedMemory, np.ndarray]:
    """Create an owned shared segment holding one ndarray; caller unlinks."""
    nbytes = max(1, int(np.prod(shape)) * np.dtype(dtype).itemsize)
    segment = shared_memory.SharedMemory(create=True, size=nbytes)
    array = np.ndarray(shape, dtype=dtype, buffer=segment.buf)
    metrics = current_metrics()
    if metrics is not None:
        metrics.count("shm.segments")
        metrics.count("shm.segment_bytes", nbytes)
    return segment, array


def attach_array(
    name: str, shape: tuple[int, ...], dtype=np.float64
) -> tuple[shared_memory.SharedMemory, np.ndarray]:
    """Attach (untracked) to a segment created by :func:`create_array`."""
    segment = _attach_untracked(name)
    array = np.ndarray(shape, dtype=dtype, buffer=segment.buf)
    return segment, array


def result_array(
    shape: tuple[int, ...], dtype=np.float64
) -> tuple[shared_memory.SharedMemory, np.ndarray]:
    """A call-owned shared result array (a traced call's coverage matrix).

    :func:`create_array` semantics: the calling
    :func:`~repro.analysis.parallel.run_trials_parallel` owns the segment
    and unlinks it when the call ends.
    """
    return create_array(shape, dtype)


# --------------------------------------------------------------------- #
# Parent side: per-graph CSR segments
# --------------------------------------------------------------------- #
# graph id -> (weakref to graph, segment); insertion order == LRU order.
# The lock covers every registry mutation: concurrent run_trials_parallel
# calls from different threads share the parent-side cache.  Segment names
# in _PINNED belong to calls whose chunks are still in flight; eviction
# skips them so a concurrent sweep registering many new graphs can never
# unlink a segment another thread's queued workers are about to attach.
_SHARED_GRAPHS: dict[int, tuple[weakref.ref, shared_memory.SharedMemory]] = {}
_PINNED: dict[str, int] = {}
#: Segment names a full release wanted to unlink but found pinned; the
#: final unpin performs the deferred unlink.
_DEFERRED_UNLINK: set[str] = set()
_REGISTRY_LOCK = threading.Lock()


def share_graph(graph: Graph, *, pin: bool = False) -> str:
    """Place ``graph``'s CSR arrays in shared memory (cached) and return the name.

    Layout: ``int64 [n, nnz, indptr[0..n], indices[0..nnz-1]]``.  The entry
    is cached by graph identity, so sweeps that run several protocols on one
    graph write the segment once.  With ``pin=True`` the returned segment is
    pinned against eviction *before* the registry lock is released — the
    caller owns one :func:`unpin_segment` for it — so no concurrent
    registration can unlink it between return and first use.
    """
    key = id(graph)
    with _REGISTRY_LOCK:
        cached = _SHARED_GRAPHS.get(key)
        if cached is not None:
            graph_ref, segment = cached
            if graph_ref() is graph:
                del _SHARED_GRAPHS[key]
                _SHARED_GRAPHS[key] = (graph_ref, segment)  # refresh recency
                if pin:
                    _PINNED[segment.name] = _PINNED.get(segment.name, 0) + 1
                return segment.name
            _unlink(segment)
            del _SHARED_GRAPHS[key]

    flat = flat_adjacency(graph)
    n = flat.num_vertices
    nnz = int(flat.indices.size)
    segment, header = create_array((2 + (n + 1) + nnz,), dtype=np.int64)
    header[0] = n
    header[1] = nnz
    header[2 : 3 + n] = flat.indptr
    header[3 + n :] = flat.indices
    del header

    with _REGISTRY_LOCK:
        raced = _SHARED_GRAPHS.get(key)
        if raced is not None and raced[0]() is graph:
            # Another thread shared the same graph while the lock was
            # released for the segment write; keep theirs, unlink ours
            # (leaving ours in limbo would leak it past every teardown).
            _unlink(segment)
            segment = raced[1]
        else:
            _evict_graph_segments(_GRAPH_SEGMENT_LIMIT - 1)
            _SHARED_GRAPHS[key] = (weakref.ref(graph), segment)
        if pin:
            _PINNED[segment.name] = _PINNED.get(segment.name, 0) + 1
        return segment.name


def pin_segment(name: str) -> None:
    """Protect a graph segment from LRU eviction while a call is in flight."""
    with _REGISTRY_LOCK:
        _PINNED[name] = _PINNED.get(name, 0) + 1


def unpin_segment(name: str) -> None:
    """Release a :func:`pin_segment` / ``share_graph(pin=True)`` pin.

    The last unpin performs any unlink a full release deferred while the
    segment was in flight, so :func:`release_shared_graphs` stays
    effectively idempotent even around concurrent calls.
    """
    with _REGISTRY_LOCK:
        count = _PINNED.get(name, 0) - 1
        if count > 0:
            _PINNED[name] = count
            return
        _PINNED.pop(name, None)
        if name in _DEFERRED_UNLINK:
            _DEFERRED_UNLINK.discard(name)
            for key, (_, segment) in list(_SHARED_GRAPHS.items()):
                if segment.name == name:
                    _unlink(_SHARED_GRAPHS.pop(key)[1])
                    break


def _evict_graph_segments(limit: int) -> None:
    """Unlink dead / least-recently-used graph segments down to ``limit``.

    Callers hold ``_REGISTRY_LOCK``.  Pinned segments (in-flight calls)
    are never evicted, even if that temporarily overflows the limit; a
    full release (``limit == 0``) marks them for unlink at their final
    unpin instead.
    """
    dead = [k for k, (ref, _) in _SHARED_GRAPHS.items() if ref() is None]
    for k in dead:
        if _SHARED_GRAPHS[k][1].name not in _PINNED:
            _unlink(_SHARED_GRAPHS.pop(k)[1])
    evictable = [
        k for k, (_, segment) in _SHARED_GRAPHS.items() if segment.name not in _PINNED
    ]
    overflow = len(_SHARED_GRAPHS) - limit
    for k in evictable[: max(0, overflow)]:
        _unlink(_SHARED_GRAPHS.pop(k)[1])
    if limit == 0:
        for _, segment in _SHARED_GRAPHS.values():
            _DEFERRED_UNLINK.add(segment.name)


def _unlink(segment: shared_memory.SharedMemory) -> None:
    try:
        segment.close()
    except BufferError:
        # Live ndarray views keep the mapping alive; unlinking the name is
        # still safe and the memory is released once the views die.
        pass
    try:
        segment.unlink()
    except FileNotFoundError:
        pass


def release_shared_graphs() -> None:
    """Unlink every parent-owned graph segment (idempotent).

    Called by :func:`repro.analysis.pool.shutdown_pool` and its ``atexit``
    hook, and usable directly by tests asserting segment hygiene.
    """
    with _REGISTRY_LOCK:
        _evict_graph_segments(0)


# --------------------------------------------------------------------- #
# Worker side: attach + rebuild cache
# --------------------------------------------------------------------- #
# segment name -> (segment, rebuilt Graph); insertion order == LRU order.
_ATTACHED_GRAPHS: dict[str, tuple[shared_memory.SharedMemory, Graph]] = {}


def attach_graph(name: str, graph_name: Optional[str] = None) -> Graph:
    """Rebuild (cached) the :class:`Graph` stored in segment ``name``.

    The reconstructed graph's flat-adjacency cache entry points at zero-copy
    views into the shared segment, so the batch kernels' hottest arrays are
    never copied into the worker.
    """
    cached = _ATTACHED_GRAPHS.get(name)
    if cached is not None:
        del _ATTACHED_GRAPHS[name]
        _ATTACHED_GRAPHS[name] = cached  # refresh recency
        return cached[1]
    segment = _attach_untracked(name)
    header = np.ndarray((2,), dtype=np.int64, buffer=segment.buf)
    n, nnz = int(header[0]), int(header[1])
    arrays = np.ndarray((2 + (n + 1) + nnz,), dtype=np.int64, buffer=segment.buf)
    indptr = arrays[2 : 3 + n]
    indices = arrays[3 + n :]
    indptr.flags.writeable = False
    indices.flags.writeable = False
    graph = Graph.from_csr(indptr, indices, name=graph_name)
    cache_adjacency(graph, FlatAdjacency.from_arrays(indptr, indices))
    while len(_ATTACHED_GRAPHS) >= _WORKER_CACHE_LIMIT:
        old_name = next(iter(_ATTACHED_GRAPHS))
        old_segment, old_graph = _ATTACHED_GRAPHS.pop(old_name)
        # Drop the flat-adjacency cache entry first: it holds the zero-copy
        # views into the segment, and close() would raise BufferError (and
        # leak the mapping) while any view is alive.
        uncache_adjacency(old_graph)
        del old_graph
        try:
            old_segment.close()
        except BufferError:
            pass  # a chunk still mid-run on this graph keeps its own views
    _ATTACHED_GRAPHS[name] = (segment, graph)
    return graph
