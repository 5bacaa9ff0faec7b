"""Coverage tracing: exactness, batch/serial equivalence, ambient capture.

The load-bearing guarantee is that a trace recorded on the batched kernels
is *float-identical* to one recomputed from the serial engine at the same
seed — tracing ingests the kernels' ``(trials, n)`` informing-time
matrices and never touches an RNG stream, so the batch/serial and
numpy/jit equivalences of the simulation layer carry over to the curves.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.curves import (
    coverage_curve,
    coverage_curve_from_histories,
    coverage_curve_from_trace,
)
from repro.analysis.montecarlo import collect_results, run_trials
from repro.analysis.parallel import chunk_plan, run_trials_parallel
from repro.core.kernels import jit_backend
from repro.errors import AnalysisError
from repro.graphs import cycle_graph, star_graph
from repro.telemetry.trace import (
    CoverageRecorder,
    TraceSpec,
    coverage_histories,
    collecting_traces,
)

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


class TestCoverageHistories:
    def test_matches_direct_counting(self):
        matrix = np.array([[0.0, 2.0, 2.0, 5.0], [1.0, 1.0, np.inf, 3.0]])
        grid = np.array([0.0, 1.0, 2.0, 4.0, 5.0])
        histories = coverage_histories(matrix, grid)
        expected = np.array(
            [[(row <= t).sum() for t in grid] for row in matrix]
        )
        assert histories.shape == (2, 5)
        assert np.array_equal(histories, expected)

    def test_uninformed_rows_stay_at_zero(self):
        matrix = np.full((3, 4), np.inf)
        histories = coverage_histories(matrix, np.array([0.0, 10.0]))
        assert histories.sum() == 0

    def test_matches_serial_searchsorted(self):
        rng = np.random.default_rng(7)
        matrix = rng.exponential(2.0, (5, 30))
        matrix[rng.random((5, 30)) < 0.2] = np.inf
        grid = np.linspace(0.0, 6.0, 50)
        histories = coverage_histories(matrix, grid)
        for row_index in range(5):
            finite = np.sort(matrix[row_index][np.isfinite(matrix[row_index])])
            serial = np.searchsorted(finite, grid, side="right")
            assert np.array_equal(histories[row_index], serial)


class TestCoverageRecorder:
    def test_record_block_and_result_agree(self):
        graph = cycle_graph(16)
        results = collect_results(graph, 0, "pp", trials=3, seed=9)
        by_result = CoverageRecorder()
        for result in results:
            by_result.record_result(result)
        matrix = by_result.times_matrix()
        by_block = CoverageRecorder()
        by_block.record_block(matrix)
        assert np.array_equal(by_block.times_matrix(), matrix)
        assert matrix.shape == (3, 16)

    def test_trace_envelope_shape(self):
        recorder = CoverageRecorder(TraceSpec(grid_points=64))
        graph = cycle_graph(12)
        run_trials(graph, 0, "pp", trials=4, seed=1, trace=recorder)
        trace = recorder.trace(protocol="pp", graph_name=graph.name)
        assert trace.num_trials == 4 and trace.num_vertices == 12
        assert trace.histories.shape == (4, 64)
        rows = list(trace.envelope_rows())
        assert len(rows) == 64
        assert set(rows[0]) == {"time", "mean", "p10", "p50", "p90"}
        # Every trial starts at the informed source and ends fully covered.
        assert rows[0]["mean"] == pytest.approx(1 / 12)
        assert rows[-1]["mean"] == 1.0

    def test_validation(self):
        recorder = CoverageRecorder()
        with pytest.raises(AnalysisError):
            recorder.trace()  # nothing recorded
        recorder.record_block(np.zeros((2, 5)))
        with pytest.raises(AnalysisError):
            recorder.record_block(np.zeros((2, 6)))  # inconsistent width
        with pytest.raises(AnalysisError):
            recorder.record_block(np.zeros(5))  # not 2-D


class TestBatchSerialCurveEquality:
    """The acceptance property: batch-traced == serial-recomputed curves."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("protocol", ["pp", "pp-a"])
    def test_batch_trace_matches_serial_trace(self, protocol, backend):
        graph = cycle_graph(32)
        options = {"backend": backend}
        batched = CoverageRecorder()
        sample_b = run_trials(
            graph, 0, protocol, trials=8, seed=42, batch=True,
            engine_options=options, trace=batched,
        )
        serial = CoverageRecorder()
        sample_s = run_trials(
            graph, 0, protocol, trials=8, seed=42, batch=False,
            engine_options=options, trace=serial,
        )
        assert sample_b.times == sample_s.times
        assert np.array_equal(batched.times_matrix(), serial.times_matrix())
        curve_b = coverage_curve_from_trace(
            batched.trace(protocol=protocol, graph_name=graph.name)
        )
        curve_s = coverage_curve_from_trace(
            serial.trace(protocol=protocol, graph_name=graph.name)
        )
        assert curve_b.times == curve_s.times
        assert curve_b.mean_fraction == curve_s.mean_fraction
        assert curve_b.lower_fraction == curve_s.lower_fraction
        assert curve_b.upper_fraction == curve_s.upper_fraction

    def test_trace_matches_legacy_coverage_curve(self):
        """The batched constructor reproduces the per-result aggregator."""
        graph = star_graph(24)
        results = collect_results(graph, 0, "pp-a", trials=6, seed=5)
        legacy = coverage_curve(results, grid_points=120)
        recorder = CoverageRecorder(TraceSpec(grid_points=120))
        for result in results:
            recorder.record_result(result)
        from_trace = coverage_curve_from_trace(
            recorder.trace(protocol="pp-a", graph_name=graph.name)
        )
        assert from_trace.times == legacy.times
        assert from_trace.mean_fraction == legacy.mean_fraction
        assert from_trace.lower_fraction == legacy.lower_fraction
        assert from_trace.upper_fraction == legacy.upper_fraction

    def test_tracing_never_changes_the_sample(self):
        graph = cycle_graph(20)
        plain = run_trials(graph, 0, "pp", trials=6, seed=13, batch=True)
        traced = run_trials(
            graph, 0, "pp", trials=6, seed=13, batch=True,
            trace=CoverageRecorder(),
        )
        assert plain.times == traced.times


class TestCurveFromHistories:
    def test_requires_consistent_shapes(self):
        with pytest.raises(AnalysisError):
            coverage_curve_from_histories(
                "pp", "g", np.linspace(0, 1, 5), np.zeros((2, 4)), 10
            )


class TestParallelTracing:
    def test_parallel_trace_matches_serial_chunk_replay(self):
        graph = cycle_graph(24)
        recorder = CoverageRecorder()
        sample = run_trials_parallel(
            graph, 0, "pp", trials=9, seed=77, num_workers=3, trace=recorder
        )
        _, plan = chunk_plan(9, 3, 77)
        replay = CoverageRecorder()
        for size, chunk_seed in plan:
            run_trials(graph, 0, "pp", trials=size, seed=chunk_seed, trace=replay)
        assert np.array_equal(recorder.times_matrix(), replay.times_matrix())
        assert sample.num_trials == 9

    def test_trace_requires_concrete_graph(self):
        with pytest.raises(AnalysisError, match="concrete Graph"):
            run_trials_parallel(
                "cycle", 0, "pp", trials=4, seed=1, size=8, num_workers=2,
                trace=CoverageRecorder(),
            )

    def test_single_chunk_degenerate_path(self):
        graph = cycle_graph(10)
        recorder = CoverageRecorder()
        run_trials_parallel(
            graph, 0, "pp", trials=3, seed=4, num_workers=8, trace=recorder
        )
        assert recorder.times_matrix().shape == (3, 10)


class TestAmbientCollection:
    def test_serial_and_batch_paths_deposit(self):
        graph = cycle_graph(12)
        with collecting_traces(TraceSpec(grid_points=40)) as collector:
            run_trials(graph, 0, "pp", trials=3, seed=2, batch=False)
            run_trials(graph, 0, "pp", trials=3, seed=2, batch=True)
        assert len(collector.traces) == 2
        first, second = collector.traces
        assert first.num_trials == second.num_trials == 3
        assert np.array_equal(first.histories, second.histories)

    def test_collection_is_scoped(self):
        graph = cycle_graph(8)
        with collecting_traces() as collector:
            pass
        run_trials(graph, 0, "pp", trials=2, seed=1)
        assert collector.traces == []
