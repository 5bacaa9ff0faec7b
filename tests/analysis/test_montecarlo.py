"""Unit tests for Monte Carlo trial runners."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.analysis.montecarlo import (
    SpreadingTimeSample,
    collect_results,
    run_adaptive_trials,
    run_trials,
)
from repro.analysis.parallel import run_trials_parallel
from repro.errors import AnalysisError
from repro.graphs import complete_graph, star_graph
from repro.graphs.random_graphs import connected_erdos_renyi_graph


class TestRunTrials:
    def test_basic_sample_fields(self):
        graph = star_graph(16)
        sample = run_trials(graph, 1, "pp", trials=10, seed=1)
        assert sample.num_trials == 10
        assert sample.protocol == "pp"
        assert sample.num_vertices == 16
        assert sample.source == 1
        assert all(t <= 2.0 for t in sample.times)

    def test_reproducible(self):
        graph = complete_graph(12)
        a = run_trials(graph, 0, "pp-a", trials=15, seed=7)
        b = run_trials(graph, 0, "pp-a", trials=15, seed=7)
        assert a.times == b.times

    def test_random_source(self):
        graph = complete_graph(12)
        sample = run_trials(graph, "random", "pp", trials=10, seed=3)
        assert sample.source == -1 or 0 <= sample.source < 12

    def test_graph_factory_mode(self):
        def factory(rng):
            return connected_erdos_renyi_graph(24, seed=rng)

        sample = run_trials(factory, 0, "pp", trials=8, seed=5)
        assert sample.num_trials == 8
        assert sample.num_vertices == 24

    def test_fraction_times_recorded(self):
        graph = complete_graph(20)
        sample = run_trials(graph, 0, "pp-a", trials=6, seed=9, fractions=(0.5, 1.0))
        assert set(sample.fraction_times) == {0.5, 1.0}
        assert len(sample.fraction_times[0.5]) == 6
        for half, full in zip(sample.fraction_times[0.5], sample.fraction_times[1.0]):
            assert half <= full

    def test_validation(self):
        graph = star_graph(8)
        with pytest.raises(AnalysisError):
            run_trials(graph, 0, "pp", trials=0)
        with pytest.raises(AnalysisError):
            run_trials(graph, 99, "pp", trials=2)
        with pytest.raises(AnalysisError):
            run_trials(graph, 0, "pp", trials=2, fractions=(1.5,))
        with pytest.raises(AnalysisError):
            run_trials(graph, "uniform", "pp", trials=2)

    @pytest.mark.parametrize(
        "runner",
        [
            functools.partial(run_trials, batch=True),
            functools.partial(run_trials, batch=False),
            functools.partial(run_trials_parallel, num_workers=2),
        ],
        ids=["run_trials-batched", "run_trials-serial", "run_trials_parallel"],
    )
    def test_repeated_fraction_rejected(self, runner):
        # A repeated fraction used to collect its times twice under one key.
        with pytest.raises(AnalysisError, match="distinct"):
            runner(complete_graph(8), 0, "pp", trials=3, seed=1, fractions=(0.5, 0.5))

    def test_unknown_protocol_rejected_eagerly(self):
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError):
            run_trials(star_graph(8), 0, "smoke-signals", trials=2)


class TestSampleStatistics:
    def test_summary_statistics(self):
        sample = SpreadingTimeSample(
            protocol="pp",
            graph_name="g",
            num_vertices=10,
            source=0,
            times=(1.0, 2.0, 3.0, 4.0),
        )
        assert sample.mean == 2.5
        assert sample.minimum == 1.0
        assert sample.maximum == 4.0
        assert sample.std == pytest.approx(np.std([1, 2, 3, 4], ddof=1))
        assert sample.standard_error() == pytest.approx(sample.std / 2.0)

    def test_single_observation_edge_cases(self):
        sample = SpreadingTimeSample("pp", "g", 5, 0, (3.0,))
        assert sample.std == 0.0
        assert sample.standard_error() == float("inf")

    def test_merge(self):
        a = SpreadingTimeSample("pp", "g", 5, 0, (1.0, 2.0), {0.5: (0.5, 1.0)})
        b = SpreadingTimeSample("pp", "g", 5, 1, (3.0,), {0.5: (2.0,)})
        merged = a.merged_with(b)
        assert merged.times == (1.0, 2.0, 3.0)
        assert merged.fraction_times[0.5] == (0.5, 1.0, 2.0)
        assert merged.source == -1  # sources disagreed

    def test_merge_rejects_mismatched_settings(self):
        a = SpreadingTimeSample("pp", "g", 5, 0, (1.0,))
        b = SpreadingTimeSample("pp-a", "g", 5, 0, (1.0,))
        with pytest.raises(AnalysisError):
            a.merged_with(b)

    def test_merged_classmethod_single_pass(self):
        chunks = [
            SpreadingTimeSample("pp", "g", 5, 0, (1.0, 2.0), {0.5: (0.5, 1.0)}),
            SpreadingTimeSample("pp", "g", 5, 0, (3.0,), {0.5: (2.0,)}),
            SpreadingTimeSample("pp", "g", 5, 0, (4.0, 5.0), {0.5: (3.0, 4.0)}),
        ]
        merged = SpreadingTimeSample.merged(chunks)
        assert merged.times == (1.0, 2.0, 3.0, 4.0, 5.0)
        assert merged.fraction_times[0.5] == (0.5, 1.0, 2.0, 3.0, 4.0)
        assert merged.source == 0  # all chunks agreed
        # Matches the pairwise chain exactly (the O(W^2) path it replaced).
        chained = chunks[0].merged_with(chunks[1]).merged_with(chunks[2])
        assert merged == chained

    def test_merged_classmethod_validation(self):
        with pytest.raises(AnalysisError):
            SpreadingTimeSample.merged([])
        a = SpreadingTimeSample("pp", "g", 5, 0, (1.0,))
        b = SpreadingTimeSample("pp", "g", 6, 0, (1.0,))
        with pytest.raises(AnalysisError):
            SpreadingTimeSample.merged([a, b])


class TestAdaptiveTrials:
    def test_stops_when_precise_enough(self):
        graph = complete_graph(16)
        sample = run_adaptive_trials(
            graph,
            0,
            "pp",
            initial_trials=20,
            batch_size=20,
            max_trials=200,
            relative_precision=0.2,
            seed=11,
        )
        assert 20 <= sample.num_trials <= 200
        half_width = 1.96 * sample.standard_error()
        assert half_width <= 0.2 * sample.mean or sample.num_trials == 200

    def test_respects_max_trials(self):
        graph = complete_graph(16)
        sample = run_adaptive_trials(
            graph,
            0,
            "pp-a",
            initial_trials=10,
            batch_size=10,
            max_trials=30,
            relative_precision=0.0001,
            seed=13,
        )
        assert sample.num_trials == 30

    def test_validation(self):
        graph = star_graph(8)
        with pytest.raises(AnalysisError):
            run_adaptive_trials(graph, 0, "pp", initial_trials=1)
        with pytest.raises(AnalysisError):
            run_adaptive_trials(graph, 0, "pp", batch_size=0)
        with pytest.raises(AnalysisError):
            run_adaptive_trials(graph, 0, "pp", max_trials=10, initial_trials=20)
        with pytest.raises(AnalysisError):
            run_adaptive_trials(graph, 0, "pp", relative_precision=2.0)


class TestCollectResults:
    def test_full_results_returned(self):
        graph = star_graph(12)
        results = collect_results(graph, 1, "pp", trials=5, seed=17)
        assert len(results) == 5
        for result in results:
            assert result.completed
            assert result.protocol == "pp"

    def test_validation(self):
        with pytest.raises(AnalysisError):
            collect_results(star_graph(8), 0, "pp", trials=0)
