"""Fault-tolerant parallel execution under injected worker failures.

``REPRO_FAULT_INJECT=crash|raise|stall`` makes pool workers fail
deterministically (per chunk seed and pid) at chunk start; the dispatch
loop in :mod:`repro.analysis.parallel` must absorb every such failure —
retrying on a fresh pool with exponential backoff and finally running the
chunk serially in the parent — and still produce a sample bit-identical to
an uninjected sweep.  Injection is keyed on
:func:`repro.analysis.pool.in_worker`, so the parent-side serial fallback
always succeeds even at fault rate 1.

The environment knobs are read when a chunk *runs*, but a forked worker
inherits the environment of the moment the pool was created — every test
therefore shuts the session pool down before flipping the knobs (the
autouse fixture guarantees the pool of one test never leaks into the next).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import parallel as parallel_module
from repro.analysis import pool as pool_module
from repro.analysis.parallel import run_trials_parallel
from repro.analysis.pool import shutdown_pool
from repro.errors import AnalysisError
from repro.graphs.random_graphs import random_regular_graph
from repro.scenarios import AdaptiveCrash
from repro.telemetry.metrics import MetricsRegistry, collecting_metrics
from repro.telemetry.trace import CoverageRecorder


@pytest.fixture(autouse=True)
def fresh_pool_session():
    shutdown_pool()
    yield
    shutdown_pool()


@pytest.fixture
def graph():
    return random_regular_graph(32, 4, seed=7)


def _counters(registry):
    return registry.snapshot()["counters"]


class TestKnobParsing:
    def test_retry_and_timeout_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHUNK_RETRIES", raising=False)
        monkeypatch.delenv("REPRO_CHUNK_TIMEOUT", raising=False)
        assert parallel_module._chunk_retries() == 2
        assert parallel_module._chunk_timeout() is None

    def test_bad_values_are_safe(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHUNK_RETRIES", "many")
        monkeypatch.setenv("REPRO_CHUNK_TIMEOUT", "-3")
        assert parallel_module._chunk_retries() == 2  # unparsable -> default
        assert parallel_module._chunk_timeout() is None  # non-positive -> off
        monkeypatch.setenv("REPRO_CHUNK_RETRIES", "-1")
        assert parallel_module._chunk_retries() == 0  # floored, never negative

    def test_unknown_fault_mode_rejected_in_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "explode")
        monkeypatch.setattr(pool_module, "_IN_WORKER", True)
        with pytest.raises(AnalysisError, match="REPRO_FAULT_INJECT"):
            parallel_module._maybe_inject_fault(5)

    def test_injection_is_inert_in_the_parent(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "raise")
        assert not pool_module.in_worker()
        parallel_module._maybe_inject_fault(5)  # must not raise


class TestInjectedFaults:
    @pytest.mark.parametrize("mode", ["raise", "crash"])
    def test_faulted_sweep_is_bit_identical(self, graph, monkeypatch, mode):
        kwargs = dict(trials=9, seed=11, num_workers=2, fractions=(0.5, 1.0))
        expected_trace = CoverageRecorder()
        expected = run_trials_parallel(graph, 0, "pp", trace=expected_trace, **kwargs)
        shutdown_pool()
        # Rate 1: every chunk faults in the worker on every attempt, so
        # every chunk must end in a parent-side serial fallback — which
        # returns the same sample and writes the same coverage rows.
        monkeypatch.setenv("REPRO_FAULT_INJECT", mode)
        registry = MetricsRegistry()
        trace = CoverageRecorder()
        with collecting_metrics(registry):
            sample = run_trials_parallel(graph, 0, "pp", trace=trace, **kwargs)
        assert sample.times == expected.times
        assert set(sample.fraction_times) == {0.5, 1.0}
        assert sample.fraction_times == expected.fraction_times
        np.testing.assert_array_equal(trace.times_matrix(), expected_trace.times_matrix())
        counters = _counters(registry)
        assert counters["parallel.chunk_retries"] >= 1
        assert counters["parallel.serial_fallbacks"] == counters["parallel.chunks"]

    def test_stalled_worker_times_out_and_falls_back(self, graph, monkeypatch):
        expected = run_trials_parallel(graph, 0, "pp", trials=6, seed=13, num_workers=2)
        shutdown_pool()
        monkeypatch.setenv("REPRO_FAULT_INJECT", "stall")
        monkeypatch.setenv("REPRO_FAULT_STALL_SECONDS", "60")
        monkeypatch.setenv("REPRO_CHUNK_TIMEOUT", "0.5")
        monkeypatch.setenv("REPRO_CHUNK_RETRIES", "1")
        registry = MetricsRegistry()
        with collecting_metrics(registry):
            sample = run_trials_parallel(
                graph, 0, "pp", trials=6, seed=13, num_workers=2
            )
        assert sample.times == expected.times
        counters = _counters(registry)
        assert counters["parallel.chunk_timeouts"] >= 1
        assert counters["parallel.serial_fallbacks"] >= 1

    def test_partial_fault_rate_still_bit_identical(self, graph, monkeypatch):
        # A sub-unit rate: some (chunk, pid) draws fault, others pass —
        # retried chunks land on different pids and can succeed in a
        # worker, exercising the retry (rather than fallback) exit.
        expected = run_trials_parallel(graph, 0, "pp", trials=12, seed=17, num_workers=3)
        shutdown_pool()
        monkeypatch.setenv("REPRO_FAULT_INJECT", "raise")
        monkeypatch.setenv("REPRO_FAULT_RATE", "0.5")
        sample = run_trials_parallel(graph, 0, "pp", trials=12, seed=17, num_workers=3)
        assert sample.times == expected.times

    def test_zero_fault_rate_is_inert(self, graph, monkeypatch):
        expected = run_trials_parallel(graph, 0, "pp", trials=6, seed=19, num_workers=2)
        shutdown_pool()
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash")
        monkeypatch.setenv("REPRO_FAULT_RATE", "0")
        registry = MetricsRegistry()
        with collecting_metrics(registry):
            sample = run_trials_parallel(
                graph, 0, "pp", trials=6, seed=19, num_workers=2
            )
        assert sample.times == expected.times
        counters = _counters(registry)
        assert "parallel.chunk_retries" not in counters
        assert "parallel.serial_fallbacks" not in counters

    def test_adaptive_scenario_sweep_survives_faults(self, graph, monkeypatch):
        # The tentpole meets the satellites: an adaptive-adversary sweep
        # under injected crashes must match the undisturbed sweep exactly,
        # with the worker-side budget counter merged from the survivors
        # and the parent-side fallbacks alike.
        kwargs = dict(
            trials=8, seed=29, num_workers=2, batch=True,
            scenario=AdaptiveCrash(budget=2),
            engine_options={"max_rounds": 60, "on_budget_exhausted": "partial"},
        )
        expected = run_trials_parallel(graph, 0, "pp", **kwargs)
        shutdown_pool()
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash")
        registry = MetricsRegistry()
        with collecting_metrics(registry):
            sample = run_trials_parallel(graph, 0, "pp", **kwargs)
        assert sample.times == expected.times
        counters = _counters(registry)
        assert counters["scenario.adversary_budget_spent"] > 0
        assert counters["parallel.serial_fallbacks"] >= 1
