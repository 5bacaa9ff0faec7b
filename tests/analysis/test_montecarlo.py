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
from repro.errors import AnalysisError, ProtocolError
from repro.graphs import complete_graph, cycle_graph, star_graph
from repro.graphs.random_graphs import connected_erdos_renyi_graph
from repro.telemetry.metrics import collecting_metrics


def _adaptive(graph, source, protocol, *, trials, **kwargs):
    return run_adaptive_trials(
        graph, source, protocol, initial_trials=trials, batch_size=2, max_trials=8, **kwargs
    )


#: Every runner path, called as ``runner(graph, source, protocol, trials=..., ...)``.
RUNNERS = {
    "run_trials-serial": functools.partial(run_trials, batch=False),
    "run_trials-batched": functools.partial(run_trials, batch=True),
    "run_trials-pooled": functools.partial(run_trials, batch="pooled"),
    "run_trials-auto": functools.partial(run_trials, batch="auto"),
    "run_trials_parallel": functools.partial(run_trials_parallel, num_workers=2),
    "run_adaptive_trials": _adaptive,
    "collect_results": collect_results,
}

#: The runners that take coverage fractions.
FRACTION_RUNNERS = [name for name in RUNNERS if name.startswith("run_trials")]

#: (id, arguments replacing a valid call's, error type, message pattern).
MALFORMED = [
    ("fractional-source", {"source": 1.5}, AnalysisError, "source"),
    ("bool-source", {"source": True}, AnalysisError, "source"),
    ("unknown-source-name", {"source": "rand"}, AnalysisError, "source"),
    ("source-off-the-graph", {"source": 99}, AnalysisError, "source 99 is not a vertex"),
    ("bool-trials", {"trials": True}, AnalysisError, "trials"),
    ("fractional-trials", {"trials": 2.5}, AnalysisError, "trials"),
    ("string-seed", {"seed": "abc"}, AnalysisError, "seed"),
    ("fractional-seed", {"seed": 1.5}, AnalysisError, "seed"),
    ("negative-seed", {"seed": -1}, AnalysisError, "seed"),
    (
        "view-on-pp", {"engine_options": {"view": "node_clocks"}}, ProtocolError,
        r"protocol 'pp' does not take \['view'\]",
    ),
    (
        "unknown-option", {"engine_options": {"bogus": 1}}, ProtocolError,
        r"protocol 'pp' does not take \['bogus'\]",
    ),
]


@pytest.mark.parametrize("runner", RUNNERS)
@pytest.mark.parametrize(
    "change, error, pattern", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED]
)
def test_malformed_call_rejected_on_every_path(runner, change, error, pattern):
    """One boundary: each malformed argument raises the same named error
    from every runner path, before any trial runs — for the parallel
    runner in the parent, with no chunk dispatched, retried or run in the
    parent as a fallback."""
    call = {"source": 0, "trials": 4, "seed": 1, **change}
    source = call.pop("source")
    with collecting_metrics() as metrics:
        with pytest.raises(error, match=pattern):
            RUNNERS[runner](cycle_graph(8), source, "pp", **call)
    for counter in (
        "analysis.trials", "parallel.chunks", "parallel.chunk_retries", "parallel.serial_fallbacks"
    ):
        assert metrics.counters.get(counter, 0) == 0, counter


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

    @pytest.mark.parametrize("runner", FRACTION_RUNNERS)
    def test_repeated_fraction_rejected(self, runner):
        # A repeated fraction used to collect its times twice under one key.
        with pytest.raises(AnalysisError, match="distinct"):
            RUNNERS[runner](complete_graph(8), 0, "pp", trials=3, seed=1, fractions=(0.5, 0.5))

    @pytest.mark.parametrize("runner", FRACTION_RUNNERS)
    def test_fractions_must_be_a_sequence(self, runner):
        call = functools.partial(RUNNERS[runner], complete_graph(8), 0, "pp", trials=3, seed=1)
        with pytest.raises(AnalysisError, match="fractions"):
            call(fractions=0.5)
        # Any sequence of numbers is accepted, a numpy array included.
        assert call(fractions=np.array([0.5, 0.9])) == call(fractions=(0.5, 0.9))

    def test_unknown_protocol_rejected_eagerly(self):
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

    @pytest.mark.parametrize(
        "argument, value", [("initial_trials", 2.5), ("batch_size", 2.5), ("max_trials", 30.5)]
    )
    def test_fractional_counts_rejected_before_any_trial(self, argument, value):
        with collecting_metrics() as metrics:
            with pytest.raises(AnalysisError, match=argument):
                run_adaptive_trials(star_graph(8), 0, "pp", **{argument: value})
        assert "analysis.trials" not in metrics.counters

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
