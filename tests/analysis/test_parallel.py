"""Unit tests for the parallel Monte Carlo runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.parallel import (
    ParallelTrialSpec,
    _run_chunk,
    default_worker_count,
    run_trials_parallel,
)
from repro.errors import AnalysisError
from repro.graphs import complete_graph, star_graph


class TestWorkerHelpers:
    def test_default_worker_count_positive(self):
        assert default_worker_count() >= 1

    def test_chunk_runner_with_graph(self):
        spec = ParallelTrialSpec(
            protocol="pp", source=1, trials=5, trial_seed=3, graph=star_graph(12)
        )
        sample = _run_chunk(spec)
        assert sample.num_trials == 5
        assert sample.protocol == "pp"

    def test_chunk_runner_requires_a_graph(self):
        spec = ParallelTrialSpec(protocol="pp", source=0, trials=2, trial_seed=1)
        with pytest.raises(AnalysisError):
            _run_chunk(spec)


class TestRunTrialsParallel:
    def test_single_worker_matches_serial_semantics(self):
        graph = complete_graph(16)
        sample = run_trials_parallel(graph, 0, "pp", trials=12, seed=7, num_workers=1)
        assert sample.num_trials == 12
        assert all(np.isfinite(sample.times))

    def test_two_workers_on_explicit_graph(self):
        graph = complete_graph(16)
        sample = run_trials_parallel(graph, 0, "pp-a", trials=10, seed=9, num_workers=2)
        assert sample.num_trials == 10
        assert sample.num_vertices == 16

    def test_family_mode(self):
        sample = run_trials_parallel(
            "erdos_renyi", 0, "pp", trials=8, seed=11, size=32, num_workers=2
        )
        assert sample.num_trials == 8
        assert sample.num_vertices == 32

    def test_family_mode_requires_size(self):
        with pytest.raises(AnalysisError):
            run_trials_parallel("erdos_renyi", 0, "pp", trials=4, seed=1, num_workers=1)

    def test_workers_capped_by_trials(self):
        graph = star_graph(10)
        sample = run_trials_parallel(graph, 1, "pp", trials=3, seed=13, num_workers=8)
        assert sample.num_trials == 3

    def test_reproducible_for_fixed_configuration(self):
        graph = complete_graph(12)
        a = run_trials_parallel(graph, 0, "pp", trials=8, seed=21, num_workers=2)
        b = run_trials_parallel(graph, 0, "pp", trials=8, seed=21, num_workers=2)
        assert sorted(a.times) == sorted(b.times)

    def test_validation(self):
        graph = star_graph(8)
        with pytest.raises(AnalysisError):
            run_trials_parallel(graph, 0, "pp", trials=0, seed=1)
        with pytest.raises(AnalysisError):
            run_trials_parallel(graph, 0, "pp", trials=4, seed=1, num_workers=0)

    def test_fractions_recorded(self):
        graph = complete_graph(16)
        sample = run_trials_parallel(
            graph, 0, "pp-a", trials=6, seed=17, num_workers=2, fractions=(0.5,)
        )
        assert len(sample.fraction_times[0.5]) == 6


class TestTransports:
    """The zero-copy shared-memory transport, the only one."""

    def test_invalid_transport_rejected(self):
        graph = star_graph(8)
        for transport in ("mmap", "pickle"):
            with pytest.raises(AnalysisError):
                run_trials_parallel(graph, 0, "pp", trials=4, seed=1, parallel=transport)

    def test_shared_family_mode(self):
        sample = run_trials_parallel(
            "erdos_renyi",
            0,
            "pp",
            trials=8,
            seed=11,
            size=32,
            num_workers=2,
            parallel="shared",
        )
        assert sample.num_trials == 8
        assert sample.num_vertices == 32

    def test_engine_options_thread_through_workers(self):
        graph = complete_graph(12)
        sample = run_trials_parallel(
            graph,
            0,
            "pp-a",
            trials=6,
            seed=9,
            num_workers=2,
            engine_options={"view": "node_clocks"},
        )
        assert sample.num_trials == 6

    def test_shared_scenario_spec_string(self):
        graph = complete_graph(16)
        sample = run_trials_parallel(
            graph, 0, "pp", trials=6, seed=5, num_workers=2, scenario="loss:p=0.2"
        )
        assert sample.num_trials == 6

    def test_forced_batch_failure_raised_in_parent(self):
        graph = complete_graph(12)
        with pytest.raises(AnalysisError):
            run_trials_parallel(
                graph,
                0,
                "pp",
                trials=4,
                seed=1,
                num_workers=2,
                batch=True,
                engine_options={"record_trace": True},
            )
