"""Tests for the pooled-RNG batch mode (``batch="pooled"``).

Pooled mode shares one generator across the whole batch instead of spawning
one per trial, so it cannot reproduce serial runs bit-for-bit — the contract
is *distributional* equality with the per-trial modes, checked here with
two-sample Kolmogorov–Smirnov tests, plus the usual reproducibility and
dispatch properties.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats as scipy_stats

from helpers.equivalence import assert_same_distribution
from repro.analysis.montecarlo import run_trials
from repro.core import batch_engine
from repro.core.batch_engine import run_batch
from repro.core.kernels import jit_backend
from repro.errors import AnalysisError, ProtocolError
from repro.graphs import complete_graph, star_graph
from repro.graphs.random_graphs import random_regular_graph
from repro.randomness.rng import spawn_generators
from repro.scenarios import (
    BurstLoss,
    Delay,
    DynamicGraph,
    FamilyResampler,
    MessageLoss,
    NodeChurn,
)


#: Kernel backends for the pooled KS suites.  Pooled async draining is the
#: one place the jit backend is KS-only rather than bit-identical (per-trial
#: draining reorders the shared generator's stream), so these tests are its
#: contract; the jit legs skip cleanly when numba is unavailable.
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


class TestPooledDispatch:
    def test_pooled_runs_and_is_reproducible(self):
        graph = complete_graph(24)
        a = run_trials(graph, 0, "pp", trials=40, seed=9, batch="pooled")
        b = run_trials(graph, 0, "pp", trials=40, seed=9, batch="pooled")
        assert a.num_trials == 40
        assert a.times == b.times  # same seed -> same pooled stream

    def test_pooled_differs_from_per_trial_stream(self):
        # Same seed, different stream discipline: agreement would be a
        # one-in-astronomical coincidence, and silently identical streams
        # would mean pooled mode is not actually pooled.
        graph = complete_graph(24)
        pooled = run_trials(graph, 0, "pp", trials=40, seed=9, batch="pooled")
        spawned = run_trials(graph, 0, "pp", trials=40, seed=9, batch=True)
        assert pooled.times != spawned.times

    def test_pooled_random_sources_and_fractions(self):
        graph = star_graph(16)
        sample = run_trials(
            graph, "random", "pp", trials=30, seed=3, batch="pooled", fractions=(0.5,)
        )
        assert sample.num_trials == 30
        assert len(sample.fraction_times[0.5]) == 30

    def test_pooled_rejects_unbatchable_settings(self):
        graph = star_graph(12)
        with pytest.raises(AnalysisError):
            run_trials(
                graph,
                1,
                "pp",
                trials=4,
                seed=1,
                batch="pooled",
                engine_options={"record_trace": True},
            )

        def factory(rng):
            return complete_graph(12)

        with pytest.raises(AnalysisError):
            run_trials(factory, 0, "pp", trials=4, seed=1, batch="pooled")

    def test_kernel_rejects_both_rngs_and_pooled_rng(self):
        graph = star_graph(8)
        with pytest.raises(ProtocolError):
            run_batch(
                graph,
                [0, 1],
                "pp",
                rngs=spawn_generators(2, 0),
                pooled_rng=np.random.default_rng(0),
            )


class TestPooledDistribution:
    """KS checks: pooled and per-trial modes sample the same law."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("protocol", ["pp", "pp-a"])
    def test_pooled_matches_per_trial_distribution(self, protocol, backend):
        graph = random_regular_graph(32, 4, seed=1)
        trials = 400
        options = {"backend": backend}
        pooled = run_trials(
            graph, 0, protocol, trials=trials, seed=101, batch="pooled",
            engine_options=options,
        )
        spawned = run_trials(
            graph, 0, protocol, trials=trials, seed=202, batch=True,
            engine_options=options,
        )
        result = scipy_stats.ks_2samp(pooled.as_array(), spawned.as_array())
        assert result.pvalue > 0.01, (
            f"pooled vs per-trial {protocol} KS p-value {result.pvalue:.4f} "
            "(distributions should agree)"
        )

    @pytest.mark.parametrize("variant", ["ppx", "ppy"])
    def test_pooled_matches_per_trial_on_aux_processes(self, variant):
        graph = random_regular_graph(32, 4, seed=1)
        trials = 400
        pooled = run_trials(graph, 0, variant, trials=trials, seed=101, batch="pooled")
        spawned = run_trials(graph, 0, variant, trials=trials, seed=202, batch=True)
        assert_same_distribution(
            pooled.as_array(),
            spawned.as_array(),
            min_pvalue=0.01,
            label=f"pooled vs per-trial {variant}",
        )

    def test_pooled_aux_is_reproducible_and_distinct_from_spawned(self):
        graph = complete_graph(20)
        a = run_trials(graph, 0, "ppx", trials=30, seed=9, batch="pooled")
        b = run_trials(graph, 0, "ppx", trials=30, seed=9, batch="pooled")
        assert a.times == b.times
        spawned = run_trials(graph, 0, "ppx", trials=30, seed=9, batch=True)
        assert a.times != spawned.times  # pooled mode really pools

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("view", ["node_clocks", "edge_clocks"])
    def test_pooled_matches_per_trial_on_clock_views(self, view, backend):
        graph = random_regular_graph(24, 4, seed=3)
        trials = 300
        options = {"view": view, "backend": backend}
        pooled = run_trials(
            graph, 0, "pp-a", trials=trials, seed=7, batch="pooled", engine_options=options
        )
        spawned = run_trials(
            graph, 0, "pp-a", trials=trials, seed=77, batch=True, engine_options=options
        )
        assert_same_distribution(
            pooled.as_array(),
            spawned.as_array(),
            min_pvalue=0.01,
            label=f"pooled vs per-trial {view} view",
        )

    def test_pooled_matches_per_trial_under_scenario(self):
        graph = complete_graph(24)
        trials = 400
        scenario = MessageLoss(0.3)
        pooled = run_trials(
            graph, 0, "pp", trials=trials, seed=11, batch="pooled", scenario=scenario
        )
        spawned = run_trials(
            graph, 0, "pp", trials=trials, seed=22, batch=True, scenario=scenario
        )
        result = scipy_stats.ks_2samp(pooled.as_array(), spawned.as_array())
        assert result.pvalue > 0.01


class TestChunkedPooledClockViews:
    """The pooled clock views on a static graph.

    With a pooled generator the batch engine pre-draws ``(B, chunk)``
    randomness blocks and drops the next-tick table entirely (both clock
    views are the same superposed Poisson process in distribution); the
    serial engine and the per-trial table loop are the references.
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("view", ["node_clocks", "edge_clocks"])
    @pytest.mark.parametrize("mode_protocol", ["pp-a", "push-a", "pull-a"])
    def test_chunked_matches_serial_distribution(self, view, mode_protocol, backend):
        graph = random_regular_graph(24, 4, seed=3)
        trials = 300
        chunked = run_batch(
            graph,
            0,
            mode_protocol,
            trials=trials,
            pooled_rng=np.random.default_rng(7),
            view=view,
            backend=backend,
        )
        serial = run_trials(
            graph,
            0,
            mode_protocol,
            trials=trials,
            seed=77,
            batch=False,
            engine_options={"view": view},
        )
        assert_same_distribution(
            chunked.spreading_times(),
            serial.as_array(),
            min_pvalue=0.01,
            label=f"chunked pooled vs serial {mode_protocol} {view}",
        )

    def test_chunked_is_reproducible_and_respects_small_chunks(self, monkeypatch):
        graph = random_regular_graph(24, 4, seed=3)
        a = run_batch(
            graph, 0, "pp-a", trials=40, pooled_rng=np.random.default_rng(5),
            view="node_clocks",
        )
        b = run_batch(
            graph, 0, "pp-a", trials=40, pooled_rng=np.random.default_rng(5),
            view="node_clocks",
        )
        assert np.array_equal(a.completion_time, b.completion_time)
        # A tiny chunk width forces many block refills; results stay valid.
        monkeypatch.setattr(batch_engine, "_POOLED_CLOCK_CHUNK", 7)
        tiny = run_batch(
            graph, 0, "pp-a", trials=40, pooled_rng=np.random.default_rng(5),
            view="node_clocks",
        )
        assert tiny.completed.all()

    def test_chunked_honors_step_and_time_budgets(self):
        graph = random_regular_graph(24, 4, seed=3)
        stepped = run_batch(
            graph, 0, "pp-a", trials=20, pooled_rng=np.random.default_rng(5),
            view="node_clocks", max_steps=15, on_budget_exhausted="partial",
        )
        assert stepped.steps.max() <= 15
        assert not stepped.completed.any()
        timed = run_batch(
            graph, 0, "pp-a", trials=20, pooled_rng=np.random.default_rng(5),
            view="edge_clocks", max_time=0.4, on_budget_exhausted="partial",
        )
        finished = timed.completion_time[timed.completed]
        assert (finished <= 0.4).all()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("view", ["node_clocks", "edge_clocks"])
    @pytest.mark.parametrize(
        "scenario",
        [
            MessageLoss(0.25),
            BurstLoss(0.3, 0.5, 0.8),
            NodeChurn(0.1, 0.5),
            Delay(low=0.5, high=2.0),
        ],
        ids=lambda s: s.spec().split(":")[0],
    )
    def test_chunked_scenarios_match_per_trial_distribution(self, view, scenario, backend):
        """The pooled fast path carries every non-dynamic runtime scenario;
        its samples must agree with the (serial-equivalent) per-trial
        kernel in distribution."""
        graph = random_regular_graph(24, 4, seed=3)
        trials = 250
        chunked = run_batch(
            graph, 0, "pp-a", trials=trials,
            pooled_rng=np.random.default_rng(7), view=view, scenario=scenario,
            backend=backend,
        )
        per_trial = run_batch(
            graph, 0, "pp-a", trials=trials, seed=77, view=view, scenario=scenario,
            backend=backend,
        )
        assert_same_distribution(
            chunked.spreading_times(),
            per_trial.spreading_times(),
            min_pvalue=0.01,
            label=f"chunked pooled vs per-trial {view} under {scenario.spec()}",
        )

    def test_dynamic_scenario_routes_through_the_unchunked_pooled_loop(self):
        """Dynamic graphs cannot use the pre-resolved callee blocks; the
        pooled dispatcher must fall back to the next-tick-table loop and
        still agree with the per-trial kernel in distribution."""
        scenario = DynamicGraph(FamilyResampler("erdos_renyi"), period=2)
        graph = complete_graph(16)
        pooled = run_batch(
            graph, 0, "pp-a", trials=200,
            pooled_rng=np.random.default_rng(3), view="node_clocks", scenario=scenario,
        )
        per_trial = run_batch(
            graph, 0, "pp-a", trials=200, seed=5, view="node_clocks", scenario=scenario
        )
        assert_same_distribution(
            pooled.spreading_times(),
            per_trial.spreading_times(),
            min_pvalue=0.01,
            label="pooled dynamic fallback vs per-trial node_clocks",
        )
