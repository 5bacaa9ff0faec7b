"""Tests for the batched auxiliary-process kernel (``ppx``/``ppy``).

The trial-for-trial serial agreement itself is pinned by the shared
registry gate (``tests/core/test_kernel_equivalence.py``); this file covers
the aux-specific dispatch policy, the scenario rules (analysis-only
processes reject runtime scenarios on *both* paths — never a silent
divergence), budgets, and the times-only output shape.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers.equivalence import assert_batch_matches_serial, assert_trials_paths_agree
from repro.analysis import montecarlo
from repro.analysis.montecarlo import run_trials
from repro.core.batch_engine import is_batchable, run_batch
from repro.errors import AnalysisError, ProtocolError, ScenarioError, SimulationError
from repro.graphs import complete_graph, cycle_graph, star_graph
from repro.graphs.base import Graph
from repro.graphs.random_graphs import random_regular_graph
from repro.scenarios import AdversarialSource, MessageLoss

VARIANTS = ["ppx", "ppy"]


class TestDispatch:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_auto_mode_batches_aux_processes(self, variant, monkeypatch):
        """The aux processes are synchronous, so auto batches at any width."""
        calls = []
        real_run_batch = montecarlo.run_batch

        def counting_run_batch(*args, **kwargs):
            calls.append(args)
            return real_run_batch(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "run_batch", counting_run_batch)
        sample = run_trials(complete_graph(12), 0, variant, trials=4, seed=1)
        assert sample.num_trials == 4
        assert len(calls) == 1

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_fixed_seed_agreement_through_run_trials(self, variant):
        graph = star_graph(20)
        assert_trials_paths_agree(
            graph, "random", variant, trials=12, seed=3, fractions=(0.5,)
        )

    def test_adversarial_source_scenario_stays_batched(self):
        """AdversarialSource is deterministic (not a runtime scenario), so
        the aux processes keep the fast path and both paths agree."""
        scenario = AdversarialSource("max_degree")
        assert is_batchable("ppx", None, scenario)
        graph = star_graph(16)
        serial, batched = assert_trials_paths_agree(
            graph, "random", "ppx", trials=8, seed=5, scenario=scenario
        )
        assert serial.source == batched.source == 0  # the hub


class TestScenarioRules:
    """Runtime scenarios do not apply to analysis-only processes; the
    batched path must reject or fall back exactly like the serial path."""

    def test_kernel_rejects_runtime_scenarios(self):
        with pytest.raises(ScenarioError, match="analysis-only"):
            run_batch(
                complete_graph(8), 0, "ppx", trials=2, seed=0,
                scenario=MessageLoss(0.2),
            )

    def test_auto_falls_back_and_both_paths_raise_identically(self):
        """Dispatch under a runtime scenario goes serial, where the spread()
        entry point raises the descriptive error — never a silent batch-path
        divergence."""
        graph = complete_graph(8)
        assert not is_batchable("ppx", None, MessageLoss(0.2))
        with pytest.raises(ScenarioError, match="analysis-only"):
            run_trials(graph, 0, "ppx", trials=2, seed=0, scenario=MessageLoss(0.2))
        with pytest.raises(ScenarioError, match="analysis-only"):
            run_trials(
                graph, 0, "ppx", trials=2, seed=0, batch=False, scenario=MessageLoss(0.2)
            )

    def test_forced_batch_with_runtime_scenario_rejected(self):
        with pytest.raises(AnalysisError):
            run_trials(
                complete_graph(8), 0, "ppy", trials=2, seed=0,
                batch=True, scenario=MessageLoss(0.2),
            )


class TestKernelBehaviour:
    def test_validation(self):
        with pytest.raises(ProtocolError):
            run_batch(star_graph(8), 0, "ppz", trials=2, seed=0)
        with pytest.raises(ProtocolError):
            run_batch(star_graph(8), [0, 99], "ppx", seed=0)
        disconnected = Graph(4, [(0, 1), (2, 3)], name="two-edges")
        with pytest.raises(ProtocolError):
            run_batch(disconnected, 0, "ppx", trials=2, seed=0)

    def test_trivial_single_vertex_graph(self):
        batched = run_batch(Graph(1, [], name="dot"), 0, "ppx", trials=3, seed=0)
        assert batched.completed.all()
        assert (batched.completion_time == 0.0).all()

    def test_budget_exhaustion_raises_by_default(self):
        with pytest.raises(SimulationError):
            run_batch(cycle_graph(64), 0, "ppy", trials=3, seed=1, max_rounds=2)

    def test_partial_budget_matches_serial(self):
        assert_batch_matches_serial(
            cycle_graph(64),
            [0, 1, 2],
            "ppy",
            1,
            max_rounds=2,
            on_budget_exhausted="partial",
        )

    def test_record_times_false_keeps_scalar_outputs_exact(self):
        graph = random_regular_graph(32, 4, seed=5)
        full = run_batch(graph, 0, "ppx", trials=8, seed=3, record_times=True)
        scalar = run_batch(graph, 0, "ppx", trials=8, seed=3, record_times=False)
        assert scalar.informed_time is None
        assert np.array_equal(full.completion_time, scalar.completion_time)
        assert np.array_equal(full.rounds, scalar.rounds)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_batch_composition_invariance(self, variant):
        """Each trial's outcome is independent of its batch-mates."""
        from repro.randomness.rng import spawn_generators

        graph = star_graph(12)
        sources = [1, 0, 3, 5]
        together = run_batch(graph, sources, variant, rngs=spawn_generators(4, 42))
        alone_rngs = spawn_generators(4, 42)
        for i in range(4):
            alone = run_batch(graph, [sources[i]], variant, rngs=[alone_rngs[i]])
            assert np.array_equal(together.informed_time[i], alone.informed_time[0])
