"""Fixed-seed serial/batch equivalence under adversity scenarios.

The PR-1 contract — a batched trial with generator ``g`` reproduces the
serial run seeded with ``g`` bit-for-bit — must survive every scenario that
claims a batched kernel: the scenario draws (churn updates, loss flips,
resampler and delay-rate draws) follow one documented per-trial order in
both code paths.  These tests check that trial-for-trial through both the
kernel API (via the shared harness in ``tests/helpers/equivalence.py``)
and the ``run_trials`` dispatcher, plus the dispatch policy for the
scenarios that do *not* batch.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers.equivalence import assert_batch_matches_serial, assert_trials_paths_agree
from repro.analysis.montecarlo import run_trials
from repro.core.protocols import check_options
from repro.errors import ScenarioError
from repro.graphs import complete_graph, star_graph
from repro.graphs.random_graphs import random_regular_graph
from repro.scenarios import (
    AdversarialSource,
    Delay,
    DynamicGraph,
    FamilyResampler,
    MessageLoss,
    NodeChurn,
)

SYNC_PROTOCOLS = ["pp", "push", "pull"]
ASYNC_PROTOCOLS = ["pp-a", "push-a", "pull-a"]


class TestKernelEquivalence:
    @pytest.mark.parametrize("protocol", SYNC_PROTOCOLS + ASYNC_PROTOCOLS)
    def test_message_loss(self, protocol):
        graph = random_regular_graph(32, 4, seed=5)
        assert_batch_matches_serial(
            graph, [1, 0, 2, 3, 0], protocol, 123, scenario=MessageLoss(0.3)
        )

    @pytest.mark.parametrize("protocol", SYNC_PROTOCOLS + ASYNC_PROTOCOLS)
    def test_node_churn(self, protocol):
        graph = complete_graph(16)
        assert_batch_matches_serial(
            graph, [0, 1, 2, 3], protocol, 77, scenario=NodeChurn(0.2, 0.5)
        )

    @pytest.mark.parametrize("protocol", SYNC_PROTOCOLS)
    def test_loss_and_churn_composed(self, protocol):
        graph = random_regular_graph(24, 3, seed=2)
        assert_batch_matches_serial(
            graph, [0] * 5, protocol, 9, scenario=MessageLoss(0.2) | NodeChurn(0.1, 0.6)
        )

    @pytest.mark.parametrize("period", [1, 3])
    def test_dynamic_graph_sync(self, period):
        graph = complete_graph(16)
        scenario = DynamicGraph(FamilyResampler("erdos_renyi"), period=period)
        assert_batch_matches_serial(graph, [0, 1, 2, 3], "pp", 31, scenario=scenario)

    @pytest.mark.parametrize("protocol", ASYNC_PROTOCOLS)
    def test_delay_async(self, protocol):
        graph = random_regular_graph(24, 3, seed=4)
        assert_batch_matches_serial(
            graph, [0, 1, 2], protocol, 15, scenario=Delay(low=0.25, high=3.0)
        )

    def test_everything_composed_async(self):
        graph = complete_graph(16)
        scenario = MessageLoss(0.2) | NodeChurn(0.1, 0.6) | Delay(low=0.5, high=2.0)
        assert_batch_matches_serial(graph, [0, 1, 2, 3], "pp-a", 57, scenario=scenario)

    def test_partial_budgets_match_under_churn(self):
        graph = star_graph(24)
        assert_batch_matches_serial(
            graph,
            [1] * 5,
            "push",
            11,
            scenario=NodeChurn(0.3, 0.2),
            max_rounds=40,
            on_budget_exhausted="partial",
        )


class TestRunTrialsDispatch:
    @pytest.mark.parametrize(
        "protocol,scenario",
        [
            ("pp", MessageLoss(0.3)),
            ("pp", NodeChurn(0.15, 0.5)),
            ("pull", MessageLoss(0.2) | NodeChurn(0.05, 0.5)),
            ("pp-a", MessageLoss(0.3)),
            ("pp-a", NodeChurn(0.15, 0.5)),
            ("push-a", Delay(low=0.5, high=2.0)),
        ],
    )
    def test_serial_and_batched_samples_identical(self, protocol, scenario):
        graph = random_regular_graph(32, 4, seed=7)
        assert_trials_paths_agree(
            graph, 0, protocol, trials=16, seed=21, scenario=scenario
        )

    def test_adversarial_source_overrides_both_paths(self):
        graph = star_graph(16)
        scenario = MessageLoss(0.2) | AdversarialSource("max_degree")
        serial, batched = assert_trials_paths_agree(
            graph, "random", "pp", trials=10, seed=3, scenario=scenario
        )
        assert serial.source == batched.source == 0  # the hub, despite "random"

    def test_async_dynamic_dispatches_to_the_batch_kernel(self):
        """Async dynamic-graph trials batch now (no serial fallback): a
        forced batch succeeds and agrees with the serial path bit for bit."""
        scenario = DynamicGraph(FamilyResampler("erdos_renyi"), period=2)
        check_options("pp-a", {}, scenario)
        check_options("pp", {}, scenario)
        check_options("pp-a", {"view": "node_clocks"}, scenario)
        graph = complete_graph(12)
        assert_trials_paths_agree(
            graph, 0, "pp-a", trials=6, seed=1, batch=True, scenario=scenario
        )

    def test_sync_delay_rejected_with_clear_error(self):
        graph = complete_graph(12)
        with pytest.raises(ScenarioError, match="synchronous"):
            run_trials(graph, 0, "pp", trials=4, seed=1, scenario=Delay())

    def test_spec_strings_accepted_end_to_end(self):
        graph = complete_graph(16)
        by_object = run_trials(
            graph, 0, "pp", trials=8, seed=5, scenario=MessageLoss(0.3)
        )
        by_string = run_trials(graph, 0, "pp", trials=8, seed=5, scenario="loss:p=0.3")
        assert by_object.times == by_string.times

    def test_fractions_recorded_under_scenarios(self):
        graph = complete_graph(20)
        assert_trials_paths_agree(
            graph,
            0,
            "pp",
            trials=12,
            seed=7,
            fractions=(0.5, 0.9),
            scenario=MessageLoss(0.25),
        )

    def test_unperturbed_runs_are_untouched_by_scenario_plumbing(self):
        graph = random_regular_graph(32, 4, seed=2)
        plain = run_trials(graph, 0, "pp", trials=12, seed=31)
        with_none = run_trials(graph, 0, "pp", trials=12, seed=31, scenario=None)
        assert plain.times == with_none.times
