"""Lifecycle and stress tests for the persistent pool + shared-memory layer.

The PR-4 contracts pinned here:

* the session pool is created once and reused across sweep calls (no
  per-call executor startup);
* teardown releases every parent-owned shared-memory segment (attaching by
  name afterwards fails — the segment-leak regression check the CI parallel
  smoke job runs under both fork and spawn);
* chunks return their samples: only the graph and a traced call's coverage
  matrix travel through shared memory;
* a pool whose owner is killed (SIGTERM skips ``atexit``) leaves no worker
  and no segment behind;
* a crashed worker never fails the sweep: the affected chunks are retried
  on a fresh pool (and run serially in the parent once retries are
  exhausted), so the result is bit-identical to an undisturbed run.
  Fault-injection stress tests live in ``test_fault_tolerance.py``.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import textwrap
import time
from multiprocessing import shared_memory
from pathlib import Path

import pytest

from repro.analysis import shm
from repro.analysis.comparison import sweep_family
from repro.analysis.parallel import run_trials_parallel
from repro.analysis.pool import ExecutorHandle, get_pool, shutdown_pool
from repro.errors import AnalysisError
from repro.graphs import csr_build
from repro.graphs.base import Graph
from repro.graphs.random_graphs import random_regular_graph
from repro.telemetry.metrics import MetricsRegistry, collecting_metrics
from repro.telemetry.trace import CoverageRecorder


@pytest.fixture(autouse=True)
def fresh_pool_session():
    """Isolate every test from pool state left behind by other tests."""
    shutdown_pool()
    yield
    shutdown_pool()


@pytest.fixture
def graph():
    return random_regular_graph(48, 4, seed=3)


class TestExecutorHandle:
    def test_lazy_creation_and_context_manager(self):
        with ExecutorHandle(1) as handle:
            assert not handle.alive
            assert handle.submit(os.getpid).result() > 0
            assert handle.alive
            assert handle.creations == 1
        assert not handle.alive

    def test_ensure_workers_grows_but_never_shrinks(self):
        handle = ExecutorHandle(1)
        handle.ensure_workers(3)
        assert handle.max_workers == 3
        handle.ensure_workers(2)
        assert handle.max_workers == 3
        handle.shutdown()

    def test_growth_deferred_by_a_lease_applies_later(self):
        handle = ExecutorHandle(1)
        handle.executor()  # live 1-worker executor
        with handle.lease():
            handle.ensure_workers(2)  # deferred: a call is in flight
            assert handle.max_workers == 2
            assert handle._executor_workers == 1
        # The next idle ensure_workers call (every run_trials_parallel makes
        # one) must apply the recorded growth rather than losing it.
        handle.ensure_workers(2)
        assert handle.submit(os.getpid).result() > 0
        assert handle._executor_workers == 2
        handle.shutdown()

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(AnalysisError):
            ExecutorHandle(0)

    def test_invalid_start_method_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_START_METHOD", "threads")
        handle = ExecutorHandle(1)
        with pytest.raises(AnalysisError):
            handle.executor()


class TestPoolReuse:
    def test_pool_reused_across_sweep_calls(self, graph):
        handle = get_pool(2)
        for round_index in range(3):
            sample = run_trials_parallel(
                graph, 0, "pp", trials=8, seed=round_index, num_workers=2
            )
            assert sample.num_trials == 8
        assert get_pool() is handle
        assert handle.creations == 1  # one executor for all three sweeps

    def test_pool_reused_by_family_sweeps(self):
        handle = get_pool(2)
        for seed in range(3):
            sweep = sweep_family(
                "complete",
                ["pp"],
                sizes=[16, 24],
                trials=6,
                seed=seed,
                parallel=True,
                num_workers=2,
            )
            assert len(sweep.comparisons) == 2
        assert get_pool() is handle
        assert handle.creations == 1

    def test_shared_graph_segment_cached_across_calls(self, graph):
        run_trials_parallel(graph, 0, "pp", trials=6, seed=1, num_workers=2)
        assert len(shm._SHARED_GRAPHS) == 1
        run_trials_parallel(graph, 0, "pp-a", trials=6, seed=2, num_workers=2)
        assert len(shm._SHARED_GRAPHS) == 1  # same graph, same segment


class TestConnectivityInTheSegment:
    """share_graph writes the parent's connectivity into the segment header,
    and attach_graph hands it to the rebuilt graph: no worker searches a
    graph the parent already validated."""

    def test_attached_graph_answers_with_the_parents_connectivity(self, monkeypatch):
        from repro.core import flatgraph

        connected = random_regular_graph(16, 3, seed=1)
        # Two disjoint K4s: 12 edges >= n - 1, so only a search could tell.
        k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        indptr, indices = csr_build.csr_from_half_edges(
            8, *zip(*(k4 + [(u + 4, v + 4) for u, v in k4]))
        )
        disconnected = Graph.from_csr(indptr, indices, name="two K4s")
        names = [shm.share_graph(connected), shm.share_graph(disconnected)]

        def no_search(*args):
            raise AssertionError("an attached graph re-ran the connectivity BFS")

        monkeypatch.setattr(csr_build, "csr_is_connected", no_search)
        try:
            answers = [shm.attach_graph(name).is_connected() for name in names]
            assert answers == [True, False]
        finally:
            for name in names:
                if name in shm._ATTACHED_GRAPHS:
                    segment, g = shm._ATTACHED_GRAPHS.pop(name)
                    flatgraph.uncache_adjacency(g)
                    del g
                    segment.close()

    def test_unknown_connectivity_is_searched_once_in_the_parent(self, monkeypatch):
        path = [(v, v + 1) for v in range(9)]
        indptr, indices = csr_build.csr_from_half_edges(10, *zip(*path))
        graph = Graph.from_csr(indptr, indices)
        searches = []
        search = csr_build.csr_is_connected

        def counting_search(*args):
            searches.append(1)
            return search(*args)

        monkeypatch.setattr(csr_build, "csr_is_connected", counting_search)
        run_trials_parallel(graph, 0, "pp", trials=4, seed=1, num_workers=2)
        run_trials_parallel(graph, 0, "pp-a", trials=4, seed=2, num_workers=2)
        assert len(searches) == 1


class TestTeardown:
    def test_shutdown_releases_graph_segments(self, graph):
        run_trials_parallel(graph, 0, "pp", trials=6, seed=1, num_workers=2)
        assert len(shm._SHARED_GRAPHS) == 1
        (_, segment), = shm._SHARED_GRAPHS.values()
        name = segment.name
        shutdown_pool()
        assert not shm._SHARED_GRAPHS
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_only_a_traced_call_creates_a_result_segment(self, graph, monkeypatch):
        # Chunks return their samples: once the graph is shared, an
        # untraced multi-chunk call creates no segment, fractions or not.
        shm.share_graph(graph)
        kwargs = dict(trials=6, seed=1, num_workers=2, fractions=(0.5,))
        registry = MetricsRegistry()
        with collecting_metrics(registry):
            run_trials_parallel(graph, 0, "pp", **kwargs)
        assert registry.snapshot()["counters"].get("shm.segments", 0) == 0

        # A traced call creates its coverage matrix, and only that, and
        # unlinks it before returning.
        created = []
        create = shm.result_array

        def recording_result_array(*args, **kw):
            segment, array = create(*args, **kw)
            created.append(segment.name)
            return segment, array

        monkeypatch.setattr(shm, "result_array", recording_result_array)
        registry = MetricsRegistry()
        with collecting_metrics(registry):
            run_trials_parallel(graph, 0, "pp", trace=CoverageRecorder(), **kwargs)
        assert registry.snapshot()["counters"]["shm.segments"] == 1
        assert len(created) == 1
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=created[0])
        assert len(shm._SHARED_GRAPHS) == 1  # the cached graph segment

    def test_worker_cache_eviction_releases_adjacency_views(self):
        # Attaching more graphs than the worker cache holds must actually
        # release the evicted segments: the flat-adjacency cache entry (the
        # zero-copy views into the segment) has to be dropped first, or
        # close() raises BufferError and the mapping leaks.
        from repro.core import flatgraph

        graphs = [
            random_regular_graph(16, 3, seed=s)
            for s in range(shm._WORKER_CACHE_LIMIT + 3)
        ]
        names, attached = [], []
        for g in graphs:
            name = shm.share_graph(g)
            names.append(name)
            attached.append(shm.attach_graph(name, g.name))
        try:
            assert len(shm._ATTACHED_GRAPHS) <= shm._WORKER_CACHE_LIMIT
            cached_names = set(shm._ATTACHED_GRAPHS)
            evicted = [
                g for name, g in zip(names, attached) if name not in cached_names
            ]
            assert evicted  # the loop overflowed the cache
            for g in evicted:
                assert id(g) not in flatgraph._CACHE_KEEPALIVE
        finally:
            for name in list(shm._ATTACHED_GRAPHS):
                segment, g = shm._ATTACHED_GRAPHS.pop(name)
                flatgraph.uncache_adjacency(g)
                del g
                segment.close()

    def test_graph_segment_lru_eviction_unlinks(self):
        graphs = [random_regular_graph(16, 3, seed=s) for s in range(shm._GRAPH_SEGMENT_LIMIT + 2)]
        names = []
        for g in graphs:
            names.append(shm.share_graph(g))
        assert len(shm._SHARED_GRAPHS) <= shm._GRAPH_SEGMENT_LIMIT
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=names[0])  # evicted and unlinked
        shm.release_shared_graphs()
        for name in names[-2:]:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_pinned_segment_survives_eviction_pressure(self):
        # A pinned segment (an in-flight call from another thread) must not
        # be LRU-evicted by a concurrent sweep registering many graphs.
        pinned_graph = random_regular_graph(16, 3, seed=99)
        pinned_name = shm.share_graph(pinned_graph, pin=True)
        try:
            others = [
                random_regular_graph(16, 3, seed=s)
                for s in range(shm._GRAPH_SEGMENT_LIMIT + 3)
            ]
            for g in others:
                shm.share_graph(g)
            attachment = shared_memory.SharedMemory(name=pinned_name)  # still alive
            attachment.close()
        finally:
            shm.unpin_segment(pinned_name)
        shm.release_shared_graphs()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=pinned_name)  # unpinned -> released

    def test_full_release_defers_pinned_unlink_to_final_unpin(self):
        # shutdown_pool()/release_shared_graphs() issued while a shared
        # call is in flight must still release that call's segment — at
        # the final unpin, not never.
        g = random_regular_graph(16, 3, seed=5)
        name = shm.share_graph(g, pin=True)
        shm.release_shared_graphs()
        attachment = shared_memory.SharedMemory(name=name)  # in flight: alive
        attachment.close()
        shm.unpin_segment(name)
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)  # deferred unlink happened


class TestWorkerCrash:
    def test_sigkilled_worker_self_heals_bit_identically(self, graph):
        # The baseline: an undisturbed parallel sweep.  Chunk results are a
        # deterministic function of (chunk_seed, chunk_size), so a sweep
        # that loses workers mid-flight must still reproduce it exactly.
        expected = run_trials_parallel(graph, 0, "pp", trials=8, seed=3, num_workers=2)
        shutdown_pool()

        handle = get_pool(2)
        victim = handle.submit(os.getpid).result()
        os.kill(victim, signal.SIGKILL)
        # Give the executor's management thread a moment to notice.
        time.sleep(0.2)
        sample = run_trials_parallel(graph, 0, "pp", trials=8, seed=3, num_workers=2)
        assert sample.times == expected.times
        assert sample.num_trials == 8
        # The handle survived the reset and keeps serving subsequent calls.
        assert get_pool() is handle
        again = run_trials_parallel(graph, 0, "pp", trials=8, seed=3, num_workers=2)
        assert again.times == expected.times


def _process_table() -> dict[int, tuple[int, str]]:
    """pid -> (parent pid, state) for every process visible in /proc."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue  # exited while listing
        # The command name may contain spaces; the fields after it do not.
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        table[int(entry)] = (int(ppid), state)
    return table


def _descendants(pid: int) -> set[int]:
    table = _process_table()
    found, frontier = set(), {pid}
    while frontier:
        frontier = {child for child, (ppid, _) in table.items() if ppid in frontier}
        found |= frontier
    return found


def _living(pids: set[int]) -> set[int]:
    table = _process_table()
    return {pid for pid in pids if pid in table and table[pid][1] != "Z"}


def _cmdline(pid: int) -> str:
    try:
        return Path(f"/proc/{pid}/cmdline").read_bytes().decode(errors="replace")
    except OSError:
        return ""


def _kill(pids: set[int]) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


#: The sweep loop killed by :class:`TestOwnerDeath`: it prints its graph
#: segment names once its first call has returned, then keeps sweeping.
_SWEEP_LOOP = textwrap.dedent(
    """
    from repro.analysis import shm
    from repro.analysis.parallel import run_trials_parallel
    from repro.graphs.random_graphs import random_regular_graph

    graph = random_regular_graph(4096, 4, seed=1)
    seed = 0
    while True:
        run_trials_parallel(graph, 0, "pp", trials=64, seed=seed, num_workers=2)
        if seed == 0:
            names = [segment.name for _, segment in shm._SHARED_GRAPHS.values()]
            print(" ".join(names), flush=True)
        seed += 1
    """
)


@pytest.mark.skipif(
    not (os.path.isdir("/proc/self") and os.path.isdir("/dev/shm")),
    reason="needs /proc and /dev/shm",
)
class TestOwnerDeath:
    def test_sigterm_mid_sweep_leaves_no_worker_and_no_segment(self):
        # SIGTERM skips atexit, so the pool's teardown never runs: the
        # workers must notice their owner is gone and exit, after which the
        # resource tracker unlinks the owner's segments.
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        proc = subprocess.Popen(
            [sys.executable, "-c", _SWEEP_LOOP],
            stdout=subprocess.PIPE,
            env=env,
        )
        workers: set[int] = set()
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 60)
            assert ready, "the sweep loop's first call did not return in 60 s"
            segments = set(proc.stdout.readline().decode().split())
            assert segments, "the sweep loop died before its first call returned"
            workers = _descendants(proc.pid)
            assert workers, "the sweep loop has no pool workers"
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=10)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                left = segments & set(os.listdir("/dev/shm"))
                if not _living(workers) and not left:
                    break
                time.sleep(0.1)
            assert not _living(workers)
            assert not segments & set(os.listdir("/dev/shm"))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            # Kill surviving workers before the resource tracker, so that
            # the tracker still unlinks the segments the owner left.
            trackers = {pid for pid in workers if "resource_tracker" in _cmdline(pid)}
            _kill(_living(workers - trackers))
            deadline = time.monotonic() + 5
            while _living(trackers) and time.monotonic() < deadline:
                time.sleep(0.1)
            _kill(_living(trackers))
            proc.stdout.close()
