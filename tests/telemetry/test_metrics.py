"""Runtime metrics: registry semantics, engine counters, worker merging.

The worker-merge test compares only *chunking-invariant* counters —
``engine.rounds``, ``engine.clock_ticks``, ``engine.messages_attempted``,
``engine.messages_delivered``, and ``analysis.trials`` are identical
however the trials are split across batches or workers.  Counters like
``engine.drain_returns`` and ``engine.kernel_invocations`` intentionally
are not (they count kernel entries, which scale with the number of
chunks), so they stay out of the comparison.
"""

from __future__ import annotations

import pytest

from repro.analysis.montecarlo import run_trials
from repro.analysis.parallel import chunk_plan, run_trials_parallel
from repro.core.protocols import spread
from repro.graphs import cycle_graph
from repro.graphs.random_graphs import random_regular_graph
from repro.telemetry.metrics import (
    MetricsRegistry,
    collecting_metrics,
    current_metrics,
)

INVARIANT_COUNTERS = (
    "engine.rounds",
    "engine.clock_ticks",
    "engine.messages_attempted",
    "engine.messages_delivered",
    "analysis.trials",
)

#: Runtime scenarios of the batch-vs-serial invariant check: none, the three
#: churn models (which silence callers) and independent loss.
INVARIANT_SCENARIOS = (
    None,
    "churn:crash_rate=0.05",
    "targeted-churn:fraction=0.1",
    "adaptive-crash:budget=4",
    "loss:p=0.3",
)


class TestRegistry:
    def test_off_by_default(self):
        assert current_metrics() is None

    def test_collecting_scopes_the_registry(self):
        registry = MetricsRegistry()
        with collecting_metrics(registry):
            assert current_metrics() is registry
            current_metrics().count("a", 2)
            current_metrics().count("a")
        assert current_metrics() is None
        assert registry.counters["a"] == 3

    def test_merge_adds_counters_and_timers(self):
        first = MetricsRegistry()
        first.count("x", 5)
        first.add_time("t", 1.0)
        first.gauge("g", "old")
        second = MetricsRegistry()
        second.count("x", 7)
        second.add_time("t", 0.5)
        second.gauge("g", "new")
        first.merge(second.snapshot())
        snapshot = first.snapshot()
        assert snapshot["counters"]["x"] == 12
        assert snapshot["timers"]["t"]["seconds"] == pytest.approx(1.5)
        assert snapshot["timers"]["t"]["count"] == 2
        assert snapshot["gauges"]["g"] == "new"

    def test_timer_context(self):
        registry = MetricsRegistry()
        with registry.timer("t"):
            pass
        assert registry.snapshot()["timers"]["t"]["count"] == 1


class TestEngineCounters:
    def test_serial_spread_records(self, small_cycle):
        registry = MetricsRegistry()
        with collecting_metrics(registry):
            result = spread(small_cycle, 0, protocol="pp", seed=3)
        counters = registry.snapshot()["counters"]
        assert counters["engine.rounds"] == result.rounds
        assert counters["engine.messages_delivered"] == (
            result.push_infections + result.pull_infections
        )

    def test_batched_run_records(self, small_cycle):
        registry = MetricsRegistry()
        with collecting_metrics(registry):
            run_trials(small_cycle, 0, "pp", trials=4, seed=3, batch=True)
        snapshot = registry.snapshot()
        counters = snapshot["counters"]
        assert counters["engine.rounds"] > 0
        assert counters["engine.messages_attempted"] > 0
        assert counters["engine.kernel_invocations"] == 1
        assert counters["analysis.trials"] == 4
        assert "analysis.batch_seconds" in snapshot["timers"]
        assert snapshot["gauges"]["engine.backend"] in ("numpy", "jit")

    def test_async_clock_ticks(self, small_cycle):
        registry = MetricsRegistry()
        with collecting_metrics(registry):
            run_trials(small_cycle, 0, "pp-a", trials=4, seed=3, batch=True)
        counters = registry.snapshot()["counters"]
        assert counters["engine.clock_ticks"] > 0
        # One attempted exchange per clock tick in the global async model.
        assert counters["engine.messages_attempted"] == counters["engine.clock_ticks"]
        assert 0 < counters["engine.messages_delivered"] <= counters["engine.clock_ticks"]

    @pytest.mark.parametrize(
        "protocol, view, scenario",
        [
            # ppx and ppy take no runtime scenario.
            *[(protocol, None, None) for protocol in ("ppx", "ppy")],
            *[
                (protocol, None, scenario)
                for protocol in ("pp", "push", "pull")
                for scenario in INVARIANT_SCENARIOS
            ],
            *[
                (protocol, view, scenario)
                for protocol in ("pp-a", "push-a", "pull-a")
                for view in ("global", "node_clocks", "edge_clocks")
                for scenario in INVARIANT_SCENARIOS
            ],
        ],
    )
    def test_batch_and_serial_agree_on_invariants(self, protocol, view, scenario):
        # Churn silences enough callers of a 4-regular graph to show in the
        # attempted count; targeted churn never completes, hence the
        # partial budgets.
        graph = random_regular_graph(64, 4, seed=2)
        budget = {"max_rounds": 200} if view is None else {"max_steps": 2000, "view": view}
        options = {**budget, "on_budget_exhausted": "partial"}
        by_path = {}
        for batch in (True, False):
            registry = MetricsRegistry()
            with collecting_metrics(registry):
                run_trials(
                    graph, 0, protocol, trials=6, seed=3, batch=batch,
                    scenario=scenario, engine_options=options,
                )
            by_path[batch] = registry.snapshot()["counters"]
        for key in INVARIANT_COUNTERS:
            assert by_path[True].get(key) == by_path[False].get(key), key

    @pytest.mark.parametrize("protocol", ["pp", "push", "pull"])
    @pytest.mark.parametrize(
        "scenario",
        [
            "loss:p=0.3+churn:crash_rate=0.5,recovery_rate=0.1",
            "loss:p=0.3+targeted-churn:fraction=0.5",
        ],
        ids=["churn", "targeted-churn"],
    )
    def test_batched_lost_messages_are_attempted_ones(self, protocol, scenario):
        # A crashed caller attempts no contact, so it loses none: the loss
        # uniforms that fire on up callers are a p-share of the attempts.
        p = 0.3
        registry = MetricsRegistry()
        with collecting_metrics(registry):
            run_trials(
                random_regular_graph(64, 4, seed=2), 0, protocol, trials=6, seed=3,
                batch=True, scenario=scenario,
                engine_options={"on_budget_exhausted": "partial", "max_rounds": 200},
            )
        counters = registry.snapshot()["counters"]
        attempted = counters["engine.messages_attempted"]
        lost = counters["engine.messages_lost"]
        delivered = counters["engine.messages_delivered"]
        assert lost <= attempted
        assert delivered + lost <= attempted
        assert abs(lost / attempted - p) <= 5 * (p * (1 - p) / attempted) ** 0.5

    def test_metrics_never_change_the_sample(self, small_cycle):
        plain = run_trials(small_cycle, 0, "pp-a", trials=4, seed=9, batch=True)
        with collecting_metrics(MetricsRegistry()):
            measured = run_trials(small_cycle, 0, "pp-a", trials=4, seed=9, batch=True)
        assert plain.times == measured.times


class TestWorkerMerge:
    @pytest.mark.parametrize("protocol", ["pp", "pp-a"])
    def test_worker_merged_equals_single_process(self, protocol):
        graph = cycle_graph(24)
        trials, workers, seed = 12, 3, 21

        merged = MetricsRegistry()
        with collecting_metrics(merged):
            run_trials_parallel(
                graph, 0, protocol, trials=trials, seed=seed, num_workers=workers
            )

        _, plan = chunk_plan(trials, workers, seed)
        local = MetricsRegistry()
        with collecting_metrics(local):
            for size, chunk_seed in plan:
                run_trials(graph, 0, protocol, trials=size, seed=chunk_seed)

        merged_counters = merged.snapshot()["counters"]
        local_counters = local.snapshot()["counters"]
        for key in INVARIANT_COUNTERS:
            assert merged_counters.get(key) == local_counters.get(key), key

    def test_parallel_bookkeeping(self):
        graph = cycle_graph(24)
        registry = MetricsRegistry()
        with collecting_metrics(registry):
            run_trials_parallel(graph, 0, "pp", trials=12, seed=2, num_workers=3)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["parallel.chunks"] == 3
        assert snapshot["timers"]["parallel.chunk_seconds"]["count"] == 3
        # The graph's CSR segment registers as an shm segment; the chunks
        # return their samples, so it is the only one.
        assert snapshot["counters"]["shm.segments"] == 1
        assert snapshot["counters"]["shm.segment_bytes"] > 0
        # An undisturbed sweep records none of the fault-recovery counters.
        for name in (
            "parallel.chunk_retries",
            "parallel.chunk_timeouts",
            "parallel.serial_fallbacks",
        ):
            assert name not in snapshot["counters"]


class TestAdversaryBudgetCounter:
    """``scenario.adversary_budget_spent`` is chunking-invariant: budgets
    are per trial, so serial, batched, and worker-merged parallel runs must
    report the same total spend for the same seed and trial split."""

    def _kwargs(self):
        from repro.scenarios import AdaptiveCrash

        return dict(
            trials=8,
            seed=31,
            scenario=AdaptiveCrash(budget=2),
            engine_options={"max_rounds": 60, "on_budget_exhausted": "partial"},
        )

    def test_batch_and_serial_agree(self):
        graph = cycle_graph(24)
        spent = {}
        for batch in (True, False):
            registry = MetricsRegistry()
            with collecting_metrics(registry):
                run_trials(graph, 0, "pp", batch=batch, **self._kwargs())
            spent[batch] = registry.snapshot()["counters"][
                "scenario.adversary_budget_spent"
            ]
        assert spent[True] == spent[False] > 0

    def test_worker_merged_equals_single_process(self):
        graph = cycle_graph(24)
        kwargs = self._kwargs()
        workers = 3

        merged = MetricsRegistry()
        with collecting_metrics(merged):
            run_trials_parallel(graph, 0, "pp", num_workers=workers, **kwargs)

        _, plan = chunk_plan(kwargs["trials"], workers, kwargs["seed"])
        local = MetricsRegistry()
        with collecting_metrics(local):
            for size, chunk_seed in plan:
                run_trials(
                    graph, 0, "pp", trials=size, seed=chunk_seed,
                    scenario=kwargs["scenario"],
                    engine_options=kwargs["engine_options"],
                )

        key = "scenario.adversary_budget_spent"
        assert merged.snapshot()["counters"][key] == (
            local.snapshot()["counters"][key]
        )
        assert merged.snapshot()["counters"][key] > 0
