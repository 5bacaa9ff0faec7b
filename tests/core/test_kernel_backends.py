"""Backend selection, fallback, and warmup for :mod:`repro.core.kernels`.

The registry gate (``test_kernel_equivalence.py``) pins *what* each backend
computes; this file pins how a backend is *chosen*: name resolution, the
``REPRO_KERNEL_BACKEND`` default, the one-warning-per-process jit→numpy
fallback, pool/benchmark warmup, and the ``REPRO_JIT_PURE_PYTHON`` escape
hatch that lets the jit loops run (uncompiled) on numba-free machines so
their draw-replay logic stays verifiable everywhere.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from helpers.equivalence import KERNEL_CASES, assert_kernel_case, case_ids
from repro.analysis.montecarlo import ASYNC_AUTO_MIN_TRIALS, run_trials
from repro.core import kernels
from repro.core.batch_engine import run_batch
from repro.core.kernels import (
    KERNEL_BACKENDS,
    available_backends,
    default_backend_name,
    jit_backend,
    numpy_backend,
    resolve_backend,
    warmup_kernels,
)
from repro.core.protocols import check_options, spread
from repro.errors import ProtocolError
from repro.graphs import complete_graph, cycle_graph
from repro.graphs.random_graphs import random_regular_graph
from repro.scenarios import (
    BurstLoss,
    Delay,
    DynamicGraph,
    FamilyResampler,
    MessageLoss,
    NodeChurn,
)
from repro.telemetry.metrics import collecting_metrics

#: Scenarios of the pooled cross-backend checks, by id.
POOLED_SCENARIOS = {
    "plain": None,
    "loss": MessageLoss(0.2),
    "churn": NodeChurn(0.15, 0.5),
    "burst-loss": BurstLoss(0.3, 0.5, 0.8),
    "delay": Delay(low=0.5, high=2.0),
    "dynamic": DynamicGraph(FamilyResampler("erdos_renyi"), period=2),
}

#: The backend a pooled ``backend="jit"`` run takes, by scenario: epoch and
#: resample boundaries send it to numpy.
POOLED_BACKENDS = {
    "plain": "jit",
    "loss": "jit",
    "churn": "numpy",
    "burst-loss": "numpy",
    "delay": "jit",
    "dynamic": "numpy",
}

#: Every (view, scenario) pair the engines run: edge clocks take no
#: dynamic graph.
POOLED_CELLS = [
    (view, name)
    for view in ("global", "node_clocks", "edge_clocks")
    for name in POOLED_SCENARIOS
    if not (view == "edge_clocks" and name == "dynamic")
]

#: One batch call per body: every protocol family and every asynchronous
#: view (the pooled chunks take all three views; see the tests below).
BODY_CALLS = {
    "pp": ("pp", {}),
    "ppx": ("ppx", {}),
    "ppy": ("ppy", {}),
    "global": ("pp-a", {"view": "global"}),
    "node_clocks": ("pp-a", {"view": "node_clocks"}),
    "edge_clocks": ("pp-a", {"view": "edge_clocks"}),
}

#: A cross-section of the registry for the pure-python jit replay: cheap to
#: run everywhere, yet spanning sync/async protocols, views, and scenarios.
REPLAY_CASES = KERNEL_CASES[:: max(1, len(KERNEL_CASES) // 8)]


class TestResolution:
    def test_known_names_resolve(self):
        assert resolve_backend("numpy") is numpy_backend
        assert set(KERNEL_BACKENDS) == {"numpy", "jit", "auto"}

    def test_unknown_name_rejected(self):
        with pytest.raises(ProtocolError, match="unknown kernel backend"):
            resolve_backend("cython")

    def test_default_reads_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        assert default_backend_name() == "auto"
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
        assert default_backend_name() == "numpy"
        assert resolve_backend(None) is numpy_backend

    def test_auto_prefers_compiled_jit_and_never_warns(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        expected = jit_backend if jit_backend.is_compiled() else numpy_backend
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend("auto") is expected
            assert resolve_backend(None) is expected

    def test_available_backends_lists_numpy_first(self):
        names = available_backends()
        assert names[0] == "numpy"
        assert ("jit" in names) == jit_backend.is_available()

    def test_engine_options_accept_backend(self):
        for protocol in ("pp", "pp-a", "ppx"):
            check_options(protocol, {"backend": "numpy"})
        with pytest.raises(ProtocolError, match="record_trace"):
            run_batch(
                cycle_graph(8), 0, "pp", trials=2, seed=1, backend="numpy", record_trace=True
            )


class TestUnknownBackendName:
    """A bad backend name fails where it enters, whatever path the call
    takes: every batch body, the pooled chunks, and the serial engines
    that ignore the option otherwise."""

    @pytest.mark.parametrize("given", ["option", "environment"])
    @pytest.mark.parametrize("body", list(BODY_CALLS))
    def test_rejected_on_every_path(self, monkeypatch, body, given):
        protocol, options = BODY_CALLS[body]
        graph = cycle_graph(8)
        if given == "option":
            options = {**options, "backend": "bogus"}
        else:
            monkeypatch.setenv("REPRO_KERNEL_BACKEND", "bogus")
        calls = [
            lambda: run_batch(graph, 0, protocol, trials=2, seed=1, **options),
            lambda: run_trials(
                graph, 0, protocol, trials=2, seed=1, batch=True, engine_options=options
            ),
        ]
        if protocol == "pp-a":
            calls.append(
                lambda: run_batch(
                    graph, 0, protocol, trials=2, pooled_rng=np.random.default_rng(1),
                    **options,
                )
            )
        if given == "option":
            # The serial engines take no kernel, yet the option is checked;
            # auto mode sends a narrow asynchronous batch to them too.
            assert ASYNC_AUTO_MIN_TRIALS > 2
            calls += [
                lambda: spread(graph, 0, protocol=protocol, seed=1, **options),
                lambda: run_trials(
                    graph, 0, protocol, trials=2, seed=1, batch=False,
                    engine_options=options,
                ),
                lambda: run_trials(
                    graph, 0, protocol, trials=2, seed=1, batch="auto",
                    engine_options=options,
                ),
            ]
        for call in calls:
            with pytest.raises(ProtocolError, match="unknown kernel backend 'bogus'"):
                call()


class TestFallback:
    @pytest.mark.skipif(
        jit_backend.is_compiled(), reason="numba is installed; no fallback to test"
    )
    def test_jit_without_numba_warns_once_and_degrades_to_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_JIT_PURE_PYTHON", raising=False)
        kernels._reset_fallback_warning()
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert resolve_backend("jit") is numpy_backend
        # Second request: same degradation, silent (once per process).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend("jit") is numpy_backend

    @pytest.mark.skipif(
        jit_backend.is_compiled(), reason="numba is installed; no fallback to test"
    )
    def test_fallback_run_matches_numpy_bit_for_bit(self, monkeypatch):
        monkeypatch.delenv("REPRO_JIT_PURE_PYTHON", raising=False)
        kernels._reset_fallback_warning()
        graph = complete_graph(16)
        with pytest.warns(RuntimeWarning, match="falling back"):
            degraded = run_trials(
                graph, 0, "pp", trials=12, seed=4, batch=True,
                engine_options={"backend": "jit"},
            )
        reference = run_trials(
            graph, 0, "pp", trials=12, seed=4, batch=True,
            engine_options={"backend": "numpy"},
        )
        assert degraded.times == reference.times


class TestWarmup:
    def test_warmup_returns_resolved_name(self):
        assert warmup_kernels("numpy") == "numpy"

    def test_warmup_default_matches_resolver(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        kernels._reset_fallback_warning()
        assert warmup_kernels() == resolve_backend(None).BACKEND_NAME


class TestPurePythonJit:
    """``REPRO_JIT_PURE_PYTHON=1`` runs the jit module's loops uncompiled,
    so the backend's draw-replay logic is pinned even where numba cannot be
    installed (this container, the default CI jobs)."""

    @pytest.fixture(autouse=True)
    def _pure_python(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT_PURE_PYTHON", "1")
        assert jit_backend.is_available()

    @pytest.mark.parametrize("case", REPLAY_CASES, ids=case_ids(REPLAY_CASES))
    def test_registry_cross_section_replays_serial(self, case):
        assert_kernel_case(case, backend="jit")

    @pytest.mark.parametrize("pooled", [False, True], ids=["per-trial", "pooled"])
    @pytest.mark.parametrize(
        "scenario, ran",
        [(None, "jit"), ("loss:p=0.2", "jit"), ("churn:crash_rate=0.05", "numpy")],
    )
    def test_engine_backend_gauge_names_the_backend_that_ran(self, scenario, ran, pooled):
        # A run with epoch boundaries takes the numpy consumer whatever the
        # backend asked for, and the gauge says so.
        graph = random_regular_graph(24, 4, seed=3)
        with collecting_metrics() as metrics:
            run_batch(
                graph, 0, "pp-a", trials=6, seed=2, scenario=scenario, backend="jit",
                pooled_rng=np.random.default_rng(2) if pooled else None,
            )
        assert metrics.gauges["engine.backend"] == ran

    @pytest.mark.parametrize("view, name", POOLED_CELLS, ids=[f"{v}-{s}" for v, s in POOLED_CELLS])
    def test_chunked_pooled_clock_view_is_bit_identical_across_backends(self, view, name):
        # Every pooled asynchronous run pre-draws whole (B, chunk) blocks, so
        # the jit backend consumes the pooled stream in exactly the numpy
        # order under every view — same seed, same results.  The plain,
        # loss and delay cells pin that jit replay.  The churn, burst-loss
        # and dynamic cells have epoch or resample boundaries, so run_batch
        # takes numpy whatever backend was asked for: they pin that
        # fallback, numpy against numpy.
        graph = random_regular_graph(24, 4, seed=3)

        def run(backend):
            return run_batch(
                graph, 0, "pp-a", view=view, trials=50,
                pooled_rng=np.random.default_rng(11), scenario=POOLED_SCENARIOS[name],
                backend=backend,
            )

        with collecting_metrics() as metrics:
            results = {"jit": run("jit")}
        assert metrics.gauges["engine.backend"] == POOLED_BACKENDS[name]
        results["numpy"] = run("numpy")
        assert np.array_equal(
            results["numpy"].completion_time, results["jit"].completion_time
        )
        assert np.array_equal(results["numpy"].steps, results["jit"].steps)
        assert np.array_equal(
            results["numpy"].informed_time, results["jit"].informed_time
        )

