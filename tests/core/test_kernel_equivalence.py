"""The registry-driven serial-vs-batch equivalence gate.

Every batched kernel registers its settings in
``tests/helpers/equivalence.KERNEL_CASES``; this suite replays each one
through the shared trial-for-trial assertion — once per kernel backend,
since the per-trial RNG modes promise bit-identical results under both
``"numpy"`` and ``"jit"`` (see :mod:`repro.core.kernels`).  A kernel that
is not in the registry is not covered by the gate — add cases when adding
kernels.  The jit legs skip cleanly when numba is not installed (the
default CI job stays numba-free; the ``jit-kernels`` job runs them).
"""

from __future__ import annotations

import pytest

from helpers.equivalence import (
    KERNEL_CASES,
    PARALLEL_CASES,
    assert_kernel_case,
    assert_parallel_case,
    case_ids,
)
from repro.core.batch_engine import (
    ASYNC_BATCH_PROTOCOLS,
    AUX_BATCH_PROTOCOLS,
    CLOCK_VIEWS,
    SYNC_BATCH_PROTOCOLS,
)
from repro.core.kernels import jit_backend

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


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", KERNEL_CASES, ids=case_ids(KERNEL_CASES))
def test_registered_kernel_matches_serial(case, backend):
    assert_kernel_case(case, backend=backend)


@pytest.mark.parametrize("case", PARALLEL_CASES, ids=case_ids(PARALLEL_CASES))
def test_registered_parallel_transports_agree(case):
    """The pool run ≡ a serial replay of its chunk plan."""
    assert_parallel_case(case)


def test_parallel_registry_coverage():
    """The registry must stay non-empty and exercise coverage fractions,
    scenarios, and a non-default asynchronous view at least once."""
    assert PARALLEL_CASES
    assert any(case.fractions for case in PARALLEL_CASES)
    assert any(case.scenario is not None for case in PARALLEL_CASES)
    assert any(dict(case.engine_options).get("view") for case in PARALLEL_CASES)


def test_registry_covers_every_batched_kernel():
    """Every protocol (and every asynchronous view) with a batched kernel
    must have at least one registered equivalence case."""
    covered_protocols = {case.protocol for case in KERNEL_CASES}
    expected = (
        set(SYNC_BATCH_PROTOCOLS) | set(ASYNC_BATCH_PROTOCOLS) | set(AUX_BATCH_PROTOCOLS)
    )
    assert expected <= covered_protocols
    covered_views = {
        case.options().get("view", "global")
        for case in KERNEL_CASES
        if case.protocol in ASYNC_BATCH_PROTOCOLS
    }
    assert {"global", *CLOCK_VIEWS} <= covered_views


def _scenario_categories(scenario) -> set:
    """The perturbation categories a registered case's scenario exercises."""
    if scenario is None:
        return set()
    categories = set()
    if scenario.burst is not None:
        categories.add("burst-loss")
    elif scenario.adaptive_loss is not None:
        categories.add("adaptive-loss")
    elif scenario.loss_prob > 0.0:
        categories.add("loss")
    churn = scenario.churn
    if churn is not None:
        if churn.adaptive:
            categories.add("adaptive-crash")
        elif churn.epoch_draws:
            categories.add("churn")
        else:
            categories.add("targeted-churn")
    if scenario.dynamic is not None:
        categories.add("dynamic")
    if scenario.delay is not None:
        categories.add("delay")
    return categories


def test_registry_covers_the_scenario_view_matrix():
    """The scenario × view eligibility matrix must be pinned end to end:
    every batchable (engine family, scenario category) combination needs at
    least one registered trial-for-trial case.  The sole hole in the matrix
    — dynamic graphs under ``edge_clocks`` — is rejected by both paths and
    asserted separately in ``tests/core/test_batch_views.py``."""
    covered: dict[str, set] = {}
    for case in KERNEL_CASES:
        if case.protocol in SYNC_BATCH_PROTOCOLS:
            family = "sync"
        elif case.protocol in ASYNC_BATCH_PROTOCOLS:
            family = case.options().get("view", "global")
        else:
            continue  # aux processes reject runtime scenarios
        covered.setdefault(family, set()).update(_scenario_categories(case.scenario))
    adaptive = {"adaptive-crash", "adaptive-loss"}
    expected = {
        "sync": {"loss", "burst-loss", "churn", "targeted-churn", "dynamic"} | adaptive,
        "global": {"loss", "burst-loss", "churn", "targeted-churn", "dynamic", "delay"}
        | adaptive,
        "node_clocks": {"loss", "burst-loss", "churn", "targeted-churn", "dynamic", "delay"}
        | adaptive,
        "edge_clocks": {"loss", "burst-loss", "churn", "targeted-churn", "delay"}
        | adaptive,
    }
    for family, categories in expected.items():
        missing = categories - covered.get(family, set())
        assert not missing, f"{family} is missing equivalence cases for {sorted(missing)}"
