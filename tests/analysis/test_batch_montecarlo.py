"""Tests for the batched fast path of the Monte Carlo trial runners.

Covers the dispatch policy of ``run_trials(batch=...)`` (including the
one path decision, :meth:`~repro.analysis.montecarlo.TrialPlan.batched`),
fixed-seed per-trial agreement between the batched and serial paths via
the shared harness, a two-sample Kolmogorov–Smirnov sanity check on larger
independently-seeded samples, and the worker-count environment override.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers.equivalence import assert_same_distribution, assert_trials_paths_agree
from repro.analysis import montecarlo
from repro.analysis.montecarlo import (
    ASYNC_AUTO_MIN_TRIALS,
    TrialPlan,
    run_adaptive_trials,
    run_trials,
)
from repro.analysis.parallel import default_worker_count, run_trials_parallel
from repro.errors import AnalysisError, ScenarioError
from repro.graphs import complete_graph, cycle_graph, star_graph
from repro.graphs.random_graphs import (
    connected_erdos_renyi_graph,
    random_regular_graph,
)


class TestBatchDispatch:
    @pytest.mark.parametrize(
        "protocol", ["pp", "push", "pull", "pp-a", "push-a", "pull-a", "ppx", "ppy"]
    )
    def test_fixed_seed_per_trial_agreement(self, protocol):
        graph = random_regular_graph(48, 4, seed=2)
        assert_trials_paths_agree(graph, 0, protocol, trials=24, seed=31)

    @pytest.mark.parametrize("view", ["node_clocks", "edge_clocks"])
    def test_fixed_seed_agreement_clock_views(self, view):
        graph = random_regular_graph(48, 4, seed=2)
        assert_trials_paths_agree(
            graph, 0, "pp-a", trials=16, seed=31, engine_options={"view": view}
        )

    def test_agreement_with_random_sources_and_fractions(self):
        graph = complete_graph(20)
        assert_trials_paths_agree(
            graph, "random", "pp", trials=16, seed=7, fractions=(0.5, 0.9)
        )

    def test_agreement_across_chunk_boundaries(self):
        graph = star_graph(16)
        # Width 7 forces uneven chunks (7 + 7 + 7 + 2).
        assert_trials_paths_agree(graph, 1, "pp", trials=23, seed=5, batch=7)

    def test_auto_falls_back_for_unbatchable_settings(self):
        graph = star_graph(12)
        # Traced runs have no batched kernel but must keep working through
        # the serial path.
        sample = run_trials(
            graph, 1, "pp", trials=3, seed=1, engine_options={"record_trace": True}
        )
        assert sample.num_trials == 3

    def test_forced_batch_rejects_unbatchable_settings(self):
        graph = star_graph(12)
        with pytest.raises(AnalysisError):
            run_trials(
                graph,
                1,
                "pp",
                trials=4,
                seed=1,
                engine_options={"record_trace": True},
                batch=True,
            )

        def factory(rng):
            return connected_erdos_renyi_graph(16, seed=rng)

        with pytest.raises(AnalysisError):
            run_trials(factory, 0, "pp", trials=4, seed=1, batch=True)
        with pytest.raises(AnalysisError):
            run_trials(graph, 1, "pp", trials=4, seed=1, batch=0)

    def test_batched_is_the_one_path_decision(self):
        """The one path decision behind run_trials, run_adaptive_trials, and
        every chunk of run_trials_parallel."""
        graph = star_graph(12)

        def factory(rng):
            return connected_erdos_renyi_graph(16, seed=rng)

        assert TrialPlan(0, "pp", 4, batch=True).batched(graph)
        assert TrialPlan(0, "ppx", 4, batch=True).batched(graph)  # the aux processes batch
        assert not TrialPlan(0, "pp", 4, batch=False).batched(graph)
        # record_trace has no batched kernel: auto runs it serially, and a
        # forced batch mode is refused when the plan is built.
        traced = {"record_trace": True}
        assert not TrialPlan(0, "pp", 4, engine_options=traced).batched(graph)
        with pytest.raises(AnalysisError, match="record_trace"):
            TrialPlan(0, "pp", 4, engine_options=traced, batch=True)
        # Graph factories run one trial per graph.
        assert not TrialPlan(0, "pp", 4).batched(factory)
        with pytest.raises(AnalysisError, match="factories"):
            TrialPlan(0, "pp", 4, batch=True).batched(factory)
        # The auto heuristic only applies to narrow asynchronous runs.
        assert not TrialPlan(0, "pp-a", 4).batched(graph)
        assert TrialPlan(0, "pp-a", ASYNC_AUTO_MIN_TRIALS).batched(graph)
        assert TrialPlan(0, "pp-a", 4, batch=True).batched(graph)
        assert TrialPlan(0, "pp", 4).batched(graph)

    def test_factory_mode_still_works_under_auto(self):
        def factory(rng):
            return connected_erdos_renyi_graph(16, seed=rng)

        sample = run_trials(factory, 0, "pp", trials=6, seed=3)
        assert sample.num_trials == 6

    def test_async_auto_threshold_prefers_serial_for_narrow_runs(self, monkeypatch):
        calls = []
        real_run_batch = montecarlo.run_batch

        def counting_run_batch(*args, **kwargs):
            calls.append(args)
            return real_run_batch(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "run_batch", counting_run_batch)
        graph = complete_graph(12)
        run_trials(graph, 0, "pp-a", trials=8, seed=1)  # narrow: serial
        assert calls == []
        run_trials(graph, 0, "pp-a", trials=8, seed=1, batch=True)  # forced
        assert len(calls) == 1
        run_trials(graph, 0, "pp", trials=8, seed=1)  # sync batches at any width
        assert len(calls) == 2

    def test_adaptive_trials_agree_between_paths(self):
        graph = complete_graph(16)
        kwargs = dict(
            initial_trials=10,
            batch_size=10,
            max_trials=40,
            relative_precision=0.05,
            seed=11,
        )
        serial = run_adaptive_trials(graph, 0, "pp", batch=False, **kwargs)
        batched = run_adaptive_trials(graph, 0, "pp", batch=True, **kwargs)
        assert serial.times == batched.times

    @pytest.mark.parametrize("runner", ["run_trials", "run_adaptive_trials", "run_trials_parallel"])
    @pytest.mark.parametrize("batch", ["foo", None, 2.5, 0, -3])
    def test_malformed_batch_rejected_by_every_runner(self, runner, batch):
        """The shared dispatch predicate rejects a malformed ``batch`` before
        any trial runs (for the parallel runner, before any worker starts)."""
        graph = cycle_graph(8)
        calls = {
            "run_trials": lambda: run_trials(graph, 0, "pp", trials=3, seed=1, batch=batch),
            "run_adaptive_trials": lambda: run_adaptive_trials(
                graph, 0, "pp", seed=1, batch=batch
            ),
            "run_trials_parallel": lambda: run_trials_parallel(
                graph, 0, "pp", trials=3, seed=1, batch=batch, num_workers=2
            ),
        }
        with pytest.raises(AnalysisError, match="positive integer width"):
            calls[runner]()

    def test_adaptive_trials_reject_forced_batch_eagerly(self):
        def factory(rng):
            return connected_erdos_renyi_graph(16, seed=rng)

        with pytest.raises(AnalysisError):
            run_adaptive_trials(factory, 0, "pp", batch=True, seed=1)


class TestDistributionSanity:
    @pytest.mark.parametrize("protocol", ["pp", "pp-a", "ppx"])
    def test_kolmogorov_smirnov_between_independent_seeds(self, protocol):
        """Batched and serial samples from *different* seeds are draws from
        the same spreading-time distribution; a two-sample KS test should
        not reject at a generous level."""
        graph = random_regular_graph(64, 4, seed=9)
        batched = run_trials(graph, 0, protocol, trials=400, seed=101, batch=True)
        serial = run_trials(graph, 0, protocol, trials=400, seed=202, batch=False)
        assert_same_distribution(
            batched.as_array(), serial.as_array(), label=f"batched/serial {protocol}"
        )


class TestParallelPlumbing:
    def test_worker_count_env_override(self, monkeypatch):
        import os

        cpus = max(1, os.cpu_count() or 1)
        monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)
        assert default_worker_count() == cpus
        monkeypatch.setenv("REPRO_MAX_WORKERS", "1")
        assert default_worker_count() == 1
        monkeypatch.setenv("REPRO_MAX_WORKERS", str(cpus + 64))
        assert default_worker_count() == cpus  # clamped to the CPU count
        monkeypatch.setenv("REPRO_MAX_WORKERS", "0")
        assert default_worker_count() == cpus  # non-positive ignored
        monkeypatch.setenv("REPRO_MAX_WORKERS", "not-a-number")
        assert default_worker_count() == cpus  # unparsable ignored

    def test_parallel_batch_false_matches_batch_true(self):
        graph = star_graph(16)
        a = run_trials_parallel(graph, 1, "pp", trials=10, seed=3, num_workers=1, batch=False)
        b = run_trials_parallel(graph, 1, "pp", trials=10, seed=3, num_workers=1, batch=True)
        assert a.times == b.times

    def test_parallel_rejects_forced_batch_in_the_parent(self):
        """A forced-batch setting with no kernel fails fast before any
        worker processes are spawned (the shared dispatch predicate), and so
        does a scenario no engine runs, with the engines' own error."""
        graph = star_graph(16)
        with pytest.raises(AnalysisError):
            run_trials_parallel(
                graph, 1, "pp", trials=10, seed=3, num_workers=1, batch=True,
                engine_options={"record_trace": True},
            )
        with pytest.raises(ScenarioError, match="Delay skews"):
            run_trials_parallel(
                graph, 1, "pp", trials=10, seed=3, num_workers=1, batch=True,
                scenario="delay:low=0.5,high=2.0",
            )

    def test_numpy_sample_roundtrip(self):
        sample = run_trials(star_graph(16), 1, "pp", trials=8, seed=1, batch=True)
        values = sample.as_array()
        assert values.shape == (8,)
        assert np.isfinite(values).all()
