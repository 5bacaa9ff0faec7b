"""Benchmark E10 — equivalence (and relative cost) of the three asynchronous views.

Regenerates the E10 table, asserts the statistical indistinguishability of
the node-clock, edge-clock and global-clock simulations, and additionally
times the three engine views on the same workload — the engine-view ablation
called out in DESIGN.md.
"""

from __future__ import annotations

import pytest

from repro.core.async_engine import run_asynchronous
from repro.experiments.registry import run_experiment
from repro.graphs import hypercube_graph


def test_view_equivalence_experiment(run_once, bench_preset):
    result = run_once(run_experiment, "E10", preset=bench_preset)
    assert result.conclusion("views_statistically_indistinguishable") is True
    assert result.conclusion("max_ks_distance") < 0.6


@pytest.mark.parametrize("view", ["global", "node_clocks", "edge_clocks"])
def test_async_engine_view_cost(benchmark, view):
    """Ablation: wall-clock cost of one pp-a run per engine view (same law, different constants)."""
    graph = hypercube_graph(8)

    def run(seed=[0]):
        seed[0] += 1
        return run_asynchronous(graph, 0, view=view, seed=seed[0])

    result = benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=1)
    assert result.completed


@pytest.mark.parametrize("view", ["global", "node_clocks", "edge_clocks"])
def test_batched_view_cost(benchmark, view):
    """Companion ablation: the batched kernels' per-view cost on the same
    workload (128 trials at once; the clock-queue views advance a next-tick
    table one tick at a time before the shared block consumer resolves the
    contacts, so their batched win is smaller than the global view's)."""
    from repro.core.batch_engine import run_batch

    graph = hypercube_graph(8)
    batched = benchmark.pedantic(
        run_batch,
        args=(graph, 0, "pp-a"),
        kwargs=dict(trials=128, seed=1, view=view, record_times=False),
        rounds=1,
        iterations=1,
        warmup_rounds=1,
    )
    assert batched.completed.all()
