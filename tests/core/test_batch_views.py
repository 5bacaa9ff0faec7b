"""Tests for the batched clock-queue views (``node_clocks``/``edge_clocks``).

Trial-for-trial serial agreement is pinned by the shared registry gate
(``tests/core/test_kernel_equivalence.py``); this file covers the
view-specific dispatch policy, the scenario eligibility matrix (every
runtime scenario batches under both views, except a dynamic graph under
``edge_clocks`` which *both* paths reject with the same error — never a
silent divergence), and the distributional equivalence of the three
asynchronous views on small graphs (the paper's Section 2 claim, now
checked on the batched kernels themselves).
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers.equivalence import assert_same_distribution, assert_trials_paths_agree
from repro.analysis import montecarlo
from repro.analysis.montecarlo import ASYNC_AUTO_MIN_TRIALS, run_trials
from repro.core.async_engine import ASYNC_VIEWS, run_asynchronous
from repro.core.batch_engine import is_batchable, run_batch
from repro.core.kernels import jit_backend
from repro.errors import AnalysisError, ProtocolError, ScenarioError
from repro.graphs import complete_graph, star_graph
from repro.graphs.base import Graph
from repro.graphs.random_graphs import random_regular_graph
from repro.scenarios import (
    BurstLoss,
    Delay,
    DynamicGraph,
    FamilyResampler,
    MessageLoss,
    NodeChurn,
    TargetedChurn,
)

CLOCK_VIEWS = ["node_clocks", "edge_clocks"]

#: Kernel backends for the distributional view-agreement check (the jit leg
#: skips cleanly when numba is unavailable; the per-trial modes are also
#: pinned bit-identically in the registry gate).
BACKENDS = [
    "numpy",
    pytest.param(
        "jit",
        marks=pytest.mark.skipif(
            not jit_backend.is_available(),
            reason="numba is not installed (and REPRO_JIT_PURE_PYTHON is unset)",
        ),
    ),
]


class TestDispatch:
    @pytest.mark.parametrize("view", CLOCK_VIEWS)
    def test_forced_batch_agrees_with_serial(self, view):
        graph = complete_graph(16)
        assert_trials_paths_agree(
            graph, "random", "pp-a", trials=10, seed=3,
            engine_options={"view": view}, fractions=(0.5,),
        )

    @pytest.mark.parametrize("view", CLOCK_VIEWS)
    def test_auto_threshold_applies_to_clock_views(self, view, monkeypatch):
        """Narrow async runs stay serial under auto, views included."""
        calls = []
        real_run_batch = montecarlo.run_batch

        def counting_run_batch(*args, **kwargs):
            calls.append(args)
            return real_run_batch(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "run_batch", counting_run_batch)
        graph = complete_graph(12)
        options = {"view": view}
        run_trials(graph, 0, "pp-a", trials=8, seed=1, engine_options=options)
        assert calls == []  # narrow: serial
        run_trials(graph, 0, "pp-a", trials=8, seed=1, batch=True, engine_options=options)
        assert len(calls) == 1  # forced: batched
        assert 8 < ASYNC_AUTO_MIN_TRIALS


class TestScenarioEligibility:
    """The scenario × view matrix: every runtime scenario batches under both
    clock views, except a dynamic graph under ``edge_clocks``, which both
    paths reject with the same message — never a silent divergence."""

    @pytest.mark.parametrize("view", CLOCK_VIEWS)
    @pytest.mark.parametrize(
        "scenario",
        [
            MessageLoss(0.2),
            BurstLoss(0.3, 0.5, 0.8),
            NodeChurn(0.1, 0.5),
            TargetedChurn(0.2),
            Delay(low=0.5, high=2.0),
        ],
        ids=lambda s: s.spec().split(":")[0],
    )
    def test_runtime_scenarios_are_batchable_under_clock_views(self, view, scenario):
        assert is_batchable("pp-a", {"view": view}, scenario)
        batched = run_batch(
            complete_graph(8), 4, "pp-a", view=view, trials=3, seed=0, scenario=scenario,
            max_steps=300, on_budget_exhausted="partial",
        )
        assert batched.sources.size == 3

    def test_dynamic_is_batchable_under_node_clocks_only(self):
        dynamic = DynamicGraph(FamilyResampler("erdos_renyi"), period=2)
        assert is_batchable("pp-a", {"view": "node_clocks"}, dynamic)
        assert not is_batchable("pp-a", {"view": "edge_clocks"}, dynamic)

    def test_dynamic_edge_clocks_rejected_identically_on_both_paths(self):
        """The one rejected combination; the message names the view and the
        reason, and the serial engine and the kernel raise it verbatim."""
        dynamic = DynamicGraph(FamilyResampler("erdos_renyi"), period=2)
        message = (
            r"dynamic-graph scenarios are not supported under the 'edge_clocks' "
            r"view: resampling the graph would change the per-pair clock set"
        )
        graph = complete_graph(8)
        with pytest.raises(ScenarioError, match=message):
            run_asynchronous(graph, 0, view="edge_clocks", seed=0, scenario=dynamic)
        with pytest.raises(ScenarioError, match=message):
            run_batch(
                graph, 0, "pp-a", view="edge_clocks", trials=2, seed=0, scenario=dynamic
            )
        # run_trials: auto falls back to the serial engine, which raises the
        # same error; a forced batch fails fast in the dispatcher.
        with pytest.raises(ScenarioError, match=message):
            run_trials(
                graph, 0, "pp-a", trials=2, seed=0,
                batch="auto", engine_options={"view": "edge_clocks"}, scenario=dynamic,
            )
        with pytest.raises(AnalysisError):
            run_trials(
                graph, 0, "pp-a", trials=2, seed=0,
                batch=True, engine_options={"view": "edge_clocks"}, scenario=dynamic,
            )

    def test_no_stale_global_only_rejection_message_survives(self):
        """The pre-coverage-matrix message ("runtime scenarios are only
        supported under the 'global' view") must be gone: these calls all
        succeed now."""
        graph = complete_graph(8)
        for view in CLOCK_VIEWS:
            result = run_asynchronous(
                graph, 0, view=view, seed=1, scenario=MessageLoss(0.2)
            )
            assert result.completed
            sample = run_trials(
                graph, 0, "pp-a", trials=2, seed=1,
                batch=True, engine_options={"view": view}, scenario=MessageLoss(0.2),
            )
            assert sample.num_trials == 2


class TestKernelBehaviour:
    def test_validation(self):
        with pytest.raises(ProtocolError):
            run_batch(star_graph(8), 0, "pp-a", view="smoke", trials=2, seed=0)
        with pytest.raises(ProtocolError):
            run_batch(star_graph(8), 0, "smoke", view="node_clocks", trials=2, seed=0)
        disconnected = Graph(4, [(0, 1), (2, 3)], name="two-edges")
        with pytest.raises(ProtocolError):
            run_batch(disconnected, 0, "pp-a", view="edge_clocks", trials=2, seed=0)

    @pytest.mark.parametrize("view", CLOCK_VIEWS)
    def test_trivial_single_vertex_graph(self, view):
        batched = run_batch(Graph(1, [], name="dot"), 0, "pp-a", trials=3, seed=0, view=view)
        assert batched.completed.all()
        assert (batched.completion_time == 0.0).all()

    @pytest.mark.parametrize("view", CLOCK_VIEWS)
    def test_zero_step_budget_is_incomplete_not_hung(self, view):
        batched = run_batch(
            star_graph(8), 1, "pp-a", view=view, trials=3, seed=1,
            max_steps=0, on_budget_exhausted="partial",
        )
        assert not batched.completed.any()
        assert (batched.steps == 0).all()

    @pytest.mark.parametrize("view", CLOCK_VIEWS)
    def test_steps_match_serial(self, view):
        from repro.core.protocols import spread
        from repro.randomness.rng import spawn_generators

        graph = random_regular_graph(24, 3, seed=2)
        batched = run_batch(
            graph, [0] * 4, "pp-a", rngs=spawn_generators(4, 7), view=view
        )
        for i, rng in enumerate(spawn_generators(4, 7)):
            serial = spread(graph, 0, protocol="pp-a", seed=rng, view=view)
            assert batched.steps[i] == serial.steps

    @pytest.mark.parametrize(
        "options",
        [
            {},
            {"max_steps": 40, "on_budget_exhausted": "partial"},
            {"max_time": 0.8, "on_budget_exhausted": "partial"},
        ],
        ids=["unbounded", "step-budget", "time-budget"],
    )
    def test_global_view_steps_match_serial(self, options):
        """The global kernel's implied step count (chunk bookkeeping plus
        the consumed-not-executed overtime correction) must equal the
        serial engine's tick count under every budget shape."""
        from repro.core.protocols import spread
        from repro.randomness.rng import spawn_generators

        graph = random_regular_graph(24, 3, seed=2)
        batched = run_batch(
            graph, [0] * 4, "pp-a", rngs=spawn_generators(4, 7), **options
        )
        for i, rng in enumerate(spawn_generators(4, 7)):
            serial = spread(graph, 0, protocol="pp-a", seed=rng, **options)
            assert batched.steps[i] == serial.steps


class TestThreeViewAgreement:
    """The paper's Section 2: the three asynchronous views describe the same
    process.  Checked distributionally on the batched kernels themselves."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("mode_protocol", ["pp-a", "push-a"])
    def test_views_agree_distributionally(self, mode_protocol, backend):
        graph = random_regular_graph(24, 4, seed=9)
        samples = {}
        for seed_offset, view in enumerate(ASYNC_VIEWS):
            sample = run_trials(
                graph, 0, mode_protocol, trials=300, seed=500 + seed_offset,
                batch=True, engine_options={"view": view, "backend": backend},
            )
            samples[view] = sample.as_array()
        for view_a, view_b in [
            ("global", "node_clocks"),
            ("global", "edge_clocks"),
            ("node_clocks", "edge_clocks"),
        ]:
            assert_same_distribution(
                samples[view_a],
                samples[view_b],
                min_pvalue=1e-3,
                label=f"{mode_protocol}: {view_a} vs {view_b}",
            )
        # Sanity: the views really simulate the same time scale.
        means = [float(np.mean(s)) for s in samples.values()]
        assert max(means) < 2.5 * min(means)
