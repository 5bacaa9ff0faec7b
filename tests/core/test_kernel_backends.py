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
from repro.analysis.montecarlo import run_trials
from repro.core import kernels
from repro.core.batch_engine import is_batchable, run_batch
from repro.core.kernels import (
    KERNEL_BACKENDS,
    available_backends,
    default_backend_name,
    jit_backend,
    numpy_backend,
    resolve_backend,
    warmup_kernels,
)
from repro.errors import ProtocolError
from repro.graphs import complete_graph
from repro.graphs.random_graphs import random_regular_graph
from repro.scenarios import MessageLoss

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
            assert is_batchable(protocol, {"backend": "numpy"}, None)
        assert not is_batchable("pp", {"backend": "numpy", "record_trace": True}, None)


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

    @pytest.mark.parametrize("scenario", [None, MessageLoss(0.2)], ids=["plain", "loss"])
    def test_chunked_pooled_clock_view_is_bit_identical_across_backends(self, scenario):
        # The chunked pooled consumer pre-draws whole (B, chunk) blocks, so
        # unlike the pooled global view the jit backend consumes the pooled
        # stream in exactly the numpy order — same seed, same results.
        graph = random_regular_graph(24, 4, seed=3)
        results = {
            backend: run_batch(
                graph, 0, "pp-a", view="node_clocks", trials=50,
                pooled_rng=np.random.default_rng(11), scenario=scenario,
                backend=backend,
            )
            for backend in ("numpy", "jit")
        }
        assert np.array_equal(
            results["numpy"].completion_time, results["jit"].completion_time
        )
        assert np.array_equal(results["numpy"].steps, results["jit"].steps)
