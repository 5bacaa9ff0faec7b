"""Tests of the public API surface: every ``__all__`` entry must resolve.

These catch broken re-exports early (a common failure mode when modules are
reorganised) and double as a smoke test that every subpackage imports cleanly
in a fresh interpreter.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.graphs",
    "repro.randomness",
    "repro.core",
    "repro.coupling",
    "repro.analysis",
    "repro.experiments",
    "repro.reporting",
    "repro.scenarios",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_all_entries_resolve(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__"), f"{module_name} should define __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.__all__ lists missing attribute {name!r}"


def test_top_level_convenience_api():
    import repro

    assert callable(repro.spread)
    assert isinstance(repro.__version__, str)
    assert "pp" in repro.available_protocols()


def test_experiments_lazy_registry_attributes():
    import repro.experiments as experiments

    assert callable(experiments.run_experiment)
    assert "E1" in experiments.EXPERIMENTS
    with pytest.raises(AttributeError):
        experiments.not_a_real_attribute  # noqa: B018


def test_error_hierarchy_rooted_at_repro_error():
    from repro import errors

    for name in (
        "GraphError",
        "GraphGenerationError",
        "ProtocolError",
        "SimulationError",
        "AnalysisError",
        "ExperimentError",
        "CouplingError",
        "ScenarioError",
    ):
        exception_type = getattr(errors, name)
        assert issubclass(exception_type, errors.ReproError)


def test_version_matches_package_metadata():
    import repro

    from repro._version import __version__

    assert repro.__version__ == __version__
    parts = __version__.split(".")
    assert len(parts) >= 2 and all(part.isdigit() for part in parts[:2])


def test_import_and_run_without_networkx():
    # networkx is optional: only the converters (and random_regular_graph's
    # rare fallback) import it, inside the functions that need it.
    script = textwrap.dedent(
        """
        import sys
        sys.modules["networkx"] = None  # any import of it now raises
        import repro
        from repro.analysis import run_trials
        from repro.graphs import random_regular_graph
        sample = run_trials(random_regular_graph(16, 3, seed=1), 0, "pp", trials=3, seed=2)
        assert sample.num_trials == 3
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
