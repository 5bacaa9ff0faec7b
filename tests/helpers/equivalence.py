"""The shared serial-vs-batch equivalence harness.

The batch kernels' central contract — a batched trial that consumes
generator ``g`` reproduces, bit-for-bit, the informing times of a serial
engine run seeded with ``g`` — must hold for *every* kernel, scenario, and
option combination that claims a batched fast path.  Before this harness the
agreement checks were copy-pasted across ``tests/core/test_batch_engine.py``,
``tests/analysis/test_batch_montecarlo.py`` and
``tests/scenarios/test_scenario_equivalence.py``; now there is one set of
assertion helpers and one registry of kernel settings.

Usage:

* **Kernel-level**: :func:`assert_batch_matches_serial` runs
  :func:`repro.core.batch_engine.run_batch` against per-trial serial
  :func:`repro.core.protocols.spread` calls with identically spawned
  generators and compares informing times, completion flags, and spreading
  times trial-for-trial.
* **Dispatcher-level**: :func:`assert_trials_paths_agree` compares whole
  :func:`repro.analysis.montecarlo.run_trials` samples between
  ``batch=False`` and a batched mode (times, sources, and coverage
  fractions).
* **Registry**: every batched kernel registers representative settings in
  :data:`KERNEL_CASES` via :func:`register_case`;
  ``tests/core/test_kernel_equivalence.py`` parametrizes over the registry,
  so adding a kernel to the registry *is* adding it to the equivalence
  gate.  Distribution-level checks share :func:`assert_same_distribution`.
* **Parallel runs**: :data:`PARALLEL_CASES` registers
  :func:`repro.analysis.parallel.run_trials_parallel` settings;
  :func:`assert_parallel_case` pins the zero-copy shared-memory pool run
  bit-identical to a serial replay of the same chunk plan through
  :func:`~repro.analysis.montecarlo.run_trials`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

from scipy import stats as scipy_stats

from repro.analysis.montecarlo import SpreadingTimeSample, run_trials
from repro.analysis.parallel import chunk_plan, run_trials_parallel
from repro.core.batch_engine import run_batch
from repro.core.protocols import spread
from repro.graphs import complete_graph, cycle_graph, star_graph
from repro.graphs.base import Graph
from repro.graphs.random_graphs import random_regular_graph
from repro.randomness.rng import spawn_generators
from repro.scenarios import (
    AdaptiveCrash,
    AdaptiveLoss,
    BurstLoss,
    Delay,
    DynamicGraph,
    FamilyResampler,
    MessageLoss,
    NodeChurn,
    TargetedChurn,
)

__all__ = [
    "KernelCase",
    "KERNEL_CASES",
    "register_case",
    "ParallelCase",
    "PARALLEL_CASES",
    "register_parallel_case",
    "case_ids",
    "assert_batch_matches_serial",
    "assert_kernel_case",
    "assert_trials_paths_agree",
    "assert_parallel_case",
    "assert_same_distribution",
]


# --------------------------------------------------------------------- #
# Assertion helpers
# --------------------------------------------------------------------- #
def assert_batch_matches_serial(
    graph, sources, protocol, seed, *, scenario=None, backend=None, **options
):
    """Batched kernel vs per-trial serial engine, trial-for-trial.

    Spawns the same per-trial generators for both paths; any divergence in
    informing times, completion flags, spreading times, or the state each
    generator is left in fails with the offending trial index.  The end
    state pins kernels that draw ahead of the serial engine and must hand
    back exactly the draws the trial consumed.  ``backend`` selects the
    kernel backend for the batched side (the serial side ignores it), so the
    same gate pins every backend to the one serial reference.
    """
    if backend is not None:
        options = {**options, "backend": backend}
    batched_rngs = spawn_generators(len(sources), seed)
    batched = run_batch(
        graph,
        sources,
        protocol,
        rngs=batched_rngs,
        scenario=scenario,
        **options,
    )
    for i, rng in enumerate(spawn_generators(len(sources), seed)):
        serial = spread(
            graph, sources[i], protocol=protocol, seed=rng, scenario=scenario, **options
        )
        assert tuple(batched.informed_time[i]) == serial.informed_time, (
            f"trial {i} of {protocol} on {graph.name} diverged from the serial engine"
        )
        assert bool(batched.completed[i]) == serial.completed
        assert batched.completion_time[i] == serial.spreading_time
        assert batched_rngs[i].bit_generator.state == rng.bit_generator.state, (
            f"trial {i} of {protocol} on {graph.name} left its generator in a "
            "different state than the serial engine"
        )
    return batched


def assert_trials_paths_agree(
    graph_or_factory,
    source,
    protocol,
    *,
    trials,
    seed,
    batch=True,
    scenario=None,
    engine_options=None,
    fractions=(),
):
    """``run_trials(batch=False)`` vs a batched mode: identical samples.

    Returns the two samples (serial first) for extra assertions.
    """
    kwargs = dict(
        trials=trials,
        seed=seed,
        scenario=scenario,
        engine_options=engine_options,
        fractions=fractions,
    )
    serial = run_trials(graph_or_factory, source, protocol, batch=False, **kwargs)
    batched = run_trials(graph_or_factory, source, protocol, batch=batch, **kwargs)
    assert serial.times == batched.times
    assert serial.source == batched.source
    assert serial.graph_name == batched.graph_name
    assert serial.fraction_times == batched.fraction_times
    return serial, batched


def assert_same_distribution(values_a, values_b, *, min_pvalue=1e-4, label=""):
    """Two-sample Kolmogorov–Smirnov check at a generous level."""
    test = scipy_stats.ks_2samp(values_a, values_b)
    assert test.pvalue > min_pvalue, (
        f"KS rejected distributional equality{f' ({label})' if label else ''}: {test}"
    )
    return test


# --------------------------------------------------------------------- #
# The kernel registry
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class KernelCase:
    """One registered (kernel, graph, scenario, options) equivalence setting.

    ``graph_builder`` is a zero-argument callable so registration stays
    cheap at import time; ``engine_options`` is a tuple of items to keep the
    case hashable for pytest parametrization.
    """

    id: str
    protocol: str
    graph_builder: Callable[[], Graph]
    sources: tuple[int, ...]
    seed: int
    scenario: Optional[Any] = None
    engine_options: tuple[tuple[str, Any], ...] = ()

    def options(self) -> dict:
        return dict(self.engine_options)


KERNEL_CASES: list[KernelCase] = []


def register_case(
    id: str,
    protocol: str,
    graph_builder: Callable[[], Graph],
    sources,
    seed: int,
    *,
    scenario=None,
    **engine_options,
) -> KernelCase:
    """Register a kernel setting in the shared equivalence gate."""
    case = KernelCase(
        id=id,
        protocol=protocol,
        graph_builder=graph_builder,
        sources=tuple(int(s) for s in sources),
        seed=seed,
        scenario=scenario,
        engine_options=tuple(sorted(engine_options.items())),
    )
    KERNEL_CASES.append(case)
    return case


def case_ids(cases) -> list[str]:
    return [case.id for case in cases]


def assert_kernel_case(case: KernelCase, backend=None):
    """Run one registered case through the trial-for-trial gate."""
    return assert_batch_matches_serial(
        case.graph_builder(),
        list(case.sources),
        case.protocol,
        case.seed,
        scenario=case.scenario,
        backend=backend,
        **case.options(),
    )


def _rr32():
    return random_regular_graph(32, 4, seed=5)


def _rr24():
    return random_regular_graph(24, 3, seed=2)


# --- PR-1 kernels: synchronous and asynchronous-global ----------------- #
for _protocol in ("pp", "push", "pull"):
    register_case(f"sync-{_protocol}", _protocol, _rr32, (1, 0, 2, 3, 0), 123)
for _protocol in ("pp-a", "push-a", "pull-a"):
    register_case(f"global-{_protocol}", _protocol, _rr32, (1, 0, 2, 3, 0), 123)
register_case(
    "sync-partial-budget",
    "push",
    lambda: star_graph(32),
    (1,) * 5,
    11,
    max_rounds=3,
    on_budget_exhausted="partial",
)
register_case(
    "global-step-budget",
    "pp-a",
    lambda: star_graph(24),
    (1,) * 4,
    13,
    max_steps=40,
    on_budget_exhausted="partial",
)

# --- PR-2: adversity scenarios on the batched path --------------------- #
register_case("sync-loss", "pp", _rr32, (1, 0, 2), 9, scenario=MessageLoss(0.3))
register_case("global-loss", "pp-a", _rr32, (1, 0, 2), 9, scenario=MessageLoss(0.3))
register_case(
    "sync-loss-churn",
    "pull",
    _rr24,
    (0,) * 4,
    7,
    scenario=MessageLoss(0.2) | NodeChurn(0.1, 0.6),
)
register_case(
    "sync-dynamic",
    "pp",
    lambda: complete_graph(16),
    (0, 1, 2),
    31,
    scenario=DynamicGraph(FamilyResampler("erdos_renyi"), period=2),
)
register_case(
    "global-delay", "push-a", _rr24, (0, 1, 2), 15, scenario=Delay(low=0.25, high=3.0)
)

# --- PR-3 kernels: clock-queue views and auxiliary processes ----------- #
for _view in ("node_clocks", "edge_clocks"):
    for _protocol in ("pp-a", "push-a", "pull-a"):
        register_case(
            f"{_view}-{_protocol}", _protocol, _rr32, (1, 0, 2), 55, view=_view
        )
    register_case(
        f"{_view}-step-budget",
        "pp-a",
        lambda: star_graph(16),
        (1,) * 3,
        13,
        view=_view,
        max_steps=40,
        on_budget_exhausted="partial",
    )
    register_case(
        f"{_view}-time-budget",
        "pp-a",
        lambda: complete_graph(12),
        (0,) * 3,
        17,
        view=_view,
        max_time=1.5,
        on_budget_exhausted="partial",
    )
for _variant in ("ppx", "ppy"):
    register_case(f"aux-{_variant}-regular", _variant, _rr32, (0, 1, 2, 3, 0), 123)
    register_case(f"aux-{_variant}-star", _variant, lambda: star_graph(24), (1, 0, 2), 7)
    register_case(
        f"aux-{_variant}-complete", _variant, lambda: complete_graph(16), (0,) * 4, 9
    )
register_case(
    "aux-round-budget",
    "ppy",
    lambda: cycle_graph(20),
    (0, 5),
    11,
    max_rounds=8,
    on_budget_exhausted="partial",
)

# --- PR-5: the full scenario × view coverage matrix --------------------- #
# Every runtime scenario under both clock-queue views, the batched
# asynchronous dynamic-graph path (global and node_clocks), and the
# correlated-adversity models (BurstLoss, TargetedChurn) on every engine
# family.  Targeted churn permanently silences its victims, so those cases
# run with partial budgets — the partial per-vertex times must still agree
# trial-for-trial.
_BURST = BurstLoss(p_gb=0.3, p_bg=0.5, p_loss_bad=0.8)
_ER_DYNAMIC = DynamicGraph(FamilyResampler("erdos_renyi"), period=2)

for _view in ("node_clocks", "edge_clocks"):
    register_case(
        f"{_view}-loss", "pp-a", _rr24, (0, 1, 2), 21, scenario=MessageLoss(0.3), view=_view
    )
    register_case(
        f"{_view}-churn", "pull-a", _rr24, (0,) * 3, 23,
        scenario=NodeChurn(0.15, 0.5), view=_view,
    )
    register_case(
        f"{_view}-delay", "push-a", _rr24, (0, 1, 2), 25,
        scenario=Delay(low=0.25, high=3.0), view=_view,
    )
    register_case(
        f"{_view}-burst-loss", "pp-a", _rr24, (0, 1), 27, scenario=_BURST, view=_view
    )
    register_case(
        f"{_view}-targeted-churn", "pp-a", lambda: complete_graph(12), (3, 4), 29,
        scenario=TargetedChurn(0.2), view=_view,
        max_steps=400, on_budget_exhausted="partial",
    )
    register_case(
        f"{_view}-loss-churn-delay", "pp-a", lambda: complete_graph(12), (0,) * 3, 31,
        scenario=MessageLoss(0.2) | NodeChurn(0.1, 0.6) | Delay(low=0.5, high=2.0),
        view=_view,
    )
register_case(
    "node_clocks-dynamic", "pp-a", lambda: complete_graph(12), (0, 1), 33,
    scenario=_ER_DYNAMIC, view="node_clocks",
)
register_case(
    "node_clocks-dynamic-loss-churn", "push-a", lambda: complete_graph(12), (0,) * 3, 35,
    scenario=MessageLoss(0.2) | NodeChurn(0.1, 0.5) | _ER_DYNAMIC, view="node_clocks",
)
register_case(
    "global-dynamic", "pp-a", lambda: complete_graph(12), (0, 1, 2), 37,
    scenario=_ER_DYNAMIC,
)
register_case(
    # A cycle resampled into denser graphs: the per-trial padded CSR must
    # grow its neighbor-array capacity mid-run.
    "global-dynamic-grow", "pp-a", lambda: cycle_graph(12), (0, 1), 38,
    scenario=DynamicGraph(FamilyResampler("erdos_renyi"), period=1),
)
register_case(
    "global-time-budget-loss", "pp-a", lambda: complete_graph(12), (0,) * 3, 40,
    scenario=MessageLoss(0.3), max_time=1.5, on_budget_exhausted="partial",
)
register_case(
    "global-dynamic-delay-burst", "pp-a", lambda: complete_graph(12), (0, 1), 39,
    scenario=_BURST | Delay(low=0.5, high=2.0) | DynamicGraph(
        FamilyResampler("erdos_renyi"), period=3
    ),
)
register_case("sync-burst-loss", "pp", _rr24, (0, 1, 2), 41, scenario=_BURST)
register_case(
    "sync-burst-churn", "pull", _rr24, (0,) * 3, 43,
    scenario=BurstLoss(0.2, 0.4, 0.9, p_loss_good=0.05) | NodeChurn(0.1, 0.6),
)
register_case("global-burst-loss", "push-a", _rr24, (0, 1, 2), 45, scenario=_BURST)
register_case(
    "global-churn", "pp-a", lambda: complete_graph(16), (0, 1, 2), 46,
    scenario=NodeChurn(0.15, 0.5),
)
register_case(
    "sync-targeted-churn", "pp", lambda: complete_graph(12), (3, 4, 5), 47,
    scenario=TargetedChurn(0.25), max_rounds=40, on_budget_exhausted="partial",
)
register_case(
    "global-targeted-churn", "pp-a", lambda: complete_graph(12), (3, 4), 49,
    scenario=TargetedChurn(0.2) | MessageLoss(0.2),
    max_steps=400, on_budget_exhausted="partial",
)
register_case(
    "sync-targeted-eccentricity", "push", lambda: star_graph(16), (1, 2), 51,
    scenario=TargetedChurn(0.1, by="eccentricity"),
    max_rounds=60, on_budget_exhausted="partial",
)

# --- Synchronous rounds on a dynamic graph -------------------------------- #
# From the first resample on, the round loop keeps the trials' graphs in the
# per-trial padded CSR the asynchronous bodies use and hands the round step
# resolved contacts.  Every mode, the loss and churn masks, a jammer that is
# still spending after the first resample (it reads the same contacts), a
# resample that grows the padded capacity, and a round budget that stops
# trials part-way.
for _protocol in ("push", "pull"):
    register_case(
        f"sync-dynamic-{_protocol}", _protocol, lambda: complete_graph(16), (0, 1, 2), 32,
        scenario=_ER_DYNAMIC,
    )
register_case(
    "sync-dynamic-loss-churn", "pp", _rr24, (0, 1, 2), 34,
    scenario=MessageLoss(0.2) | NodeChurn(0.1, 0.6) | _ER_DYNAMIC,
)
register_case(
    "sync-dynamic-adaptive-loss", "pp", lambda: complete_graph(16), (0, 1, 2), 61,
    scenario=AdaptiveLoss(p=0.8, budget=40)
    | DynamicGraph(FamilyResampler("erdos_renyi"), period=1),
)
register_case(
    "sync-dynamic-grow", "pp", lambda: cycle_graph(12), (0, 1, 6), 36,
    scenario=DynamicGraph(FamilyResampler("erdos_renyi"), period=1),
)
register_case(
    "sync-dynamic-partial-budget", "push", lambda: cycle_graph(24), (0, 5, 11), 42,
    scenario=_ER_DYNAMIC, max_rounds=4, on_budget_exhausted="partial",
)

# --- PR-9: budget-limited adaptive adversaries -------------------------- #
# AdaptiveCrash consumes no randomness and AdaptiveLoss reuses the oblivious
# loss draw slot, so both must hold the bit-identical serial/batch contract
# with unchanged RNG streams — on every engine family.  Crash cases can
# stall the rumor permanently (that is the point of the adversary), so they
# run with partial budgets; the partial per-vertex times must still agree.
for _view in ("node_clocks", "edge_clocks"):
    register_case(
        f"{_view}-adaptive-crash", "pp-a", lambda: complete_graph(12), (0, 1), 53,
        scenario=AdaptiveCrash(budget=3, k=2),
        view=_view, max_steps=400, on_budget_exhausted="partial",
    )
    register_case(
        f"{_view}-adaptive-loss", "push-a", _rr24, (0, 1), 55,
        scenario=AdaptiveLoss(p=0.9, budget=5), view=_view,
    )
register_case(
    "sync-adaptive-crash", "pp", lambda: star_graph(16), (1, 2, 0), 57,
    scenario=AdaptiveCrash(budget=2),
    max_rounds=40, on_budget_exhausted="partial",
)
register_case(
    "sync-adaptive-loss", "push", _rr24, (0, 1, 2), 59,
    scenario=AdaptiveLoss(p=0.8, budget=6),
)
register_case(
    "global-adaptive-crash", "pp-a", lambda: star_graph(16), (1, 0), 61,
    scenario=AdaptiveCrash(budget=2, by="eccentricity"),
    max_time=12.0, on_budget_exhausted="partial",
)
register_case(
    "global-adaptive-loss", "pull-a", _rr24, (0, 1), 63,
    scenario=AdaptiveLoss(p=1.0, budget=8),
)
register_case(
    # Both adaptive models at once: the crash schedule shifts the informed
    # frontier the jammer observes, so this pins their interleaving.
    "sync-adaptive-crash-loss", "pp", lambda: complete_graph(12), (0,) * 3, 65,
    scenario=AdaptiveCrash(budget=2) | AdaptiveLoss(p=0.7, budget=4),
    max_rounds=60, on_budget_exhausted="partial",
)
register_case(
    "node_clocks-adaptive-composed", "pp-a", lambda: complete_graph(12), (0, 1), 67,
    scenario=AdaptiveLoss(p=0.6, budget=5) | NodeChurn(0.1, 0.6)
    | Delay(low=0.5, high=2.0),
    view="node_clocks",
)
# The jammer and the crash adversary together outside synchronous rounds:
# the crash epochs (the state's boundary crossing) change the up mask the
# jammer's would-transmit contacts are judged against (the state's one
# exchange), under Delay-weighted callers; both budgets run out in some
# trials.
for _view in ("global", "node_clocks", "edge_clocks"):
    register_case(
        f"{_view}-adaptive-crash-loss-delay", "pp-a",
        lambda: random_regular_graph(24, 4, seed=3), (0, 1, 5), 91,
        scenario=AdaptiveLoss(p=0.6, budget=5) | AdaptiveCrash(budget=2)
        | Delay(low=0.5, high=2.0),
        view=_view, max_time=12.0, on_budget_exhausted="partial",
    )


# --- Long runs across the per-trial loops' refills ----------------------- #
# Every case above stops within a few hundred ticks, before the global
# view's 4096-tick chunk (async_engine._CHUNK) or the clock views' refill
# (async_engine._CLOCK_BLOCK) runs out, and inside the first sub-block of
# the shared block consumer (numpy_backend._BLOCK_TICKS).  Push on a long
# cycle takes 8,000 to 10,000 ticks per trial; the budgets below retire
# rows part-way through a refill and a sub-block, which the generator
# end-state check turns into a test of the refill's replay.
def _cycle96():
    return cycle_graph(96)


def _rr128():
    return random_regular_graph(128, 3, seed=7)


_LONG_SOURCES = (0, 17, 40, 63, 80, 95)
_WIDE_SOURCES = tuple(range(0, 128, 2))
for _view in ("global", "node_clocks", "edge_clocks"):
    register_case(f"{_view}-long-push", "push-a", _cycle96, _LONG_SOURCES, 71, view=_view)
# Without a scenario the block consumer resolves each sub-block by
# earliest-arrival relaxation: long runs of every mode cross refills, a
# wide batch puts many rows in one sub-block and completes several of them
# in the same sub-block, and a time budget past the first refill cuts rows
# part-way through a sub-block.  Under a scenario it walks the columns.
register_case("global-long-pp", "pp-a", _cycle96, _LONG_SOURCES, 79)
register_case("global-long-pull", "pull-a", _cycle96, _LONG_SOURCES, 81)
register_case("global-wide-pp", "pp-a", _rr128, _WIDE_SOURCES, 83)
for _view in ("node_clocks", "edge_clocks"):
    register_case(f"{_view}-long-pp", "pp-a", _cycle96, _LONG_SOURCES, 79, view=_view)
    register_case(f"{_view}-long-pull", "pull-a", _cycle96, _LONG_SOURCES, 81, view=_view)
    register_case(f"{_view}-wide-pp", "pp-a", _rr128, _WIDE_SOURCES, 83, view=_view)
register_case(
    "global-long-time-budget", "push-a", _cycle96, _LONG_SOURCES, 85,
    max_time=60.0, on_budget_exhausted="partial",
)
for _view in ("node_clocks", "edge_clocks"):
    register_case(
        f"{_view}-long-delay", "push-a", lambda: cycle_graph(64), (0, 21, 42), 73,
        scenario=Delay(low=0.5, high=2.0), view=_view,
    )
    register_case(
        f"{_view}-long-time-budget", "push-a", _cycle96, (0, 30, 60, 90), 75,
        view=_view, max_time=30.0, on_budget_exhausted="partial",
    )
    register_case(
        f"{_view}-long-step-budget", "pp-a", _cycle96, (0, 48, 5), 77,
        view=_view, max_steps=2500, on_budget_exhausted="partial",
    )
    # Walked sub-blocks: rows complete thousands of ticks apart and the
    # time budget cuts the slowest, so the survivors' loss uniforms must
    # follow them through every retirement.
    register_case(
        f"{_view}-long-loss-time-budget", "push-a", _cycle96, _LONG_SOURCES, 75,
        scenario=MessageLoss(0.2), view=_view, max_time=120.0,
        on_budget_exhausted="partial",
    )
# The same three on the global view, whose refills hold 4,096 ticks.  Its
# step budget ends in a short last refill (904 ticks: three sub-blocks and
# 136 ticks): one row runs into it, the others complete in the first and
# second refills.
register_case(
    "global-long-delay", "push-a", lambda: cycle_graph(64), (0, 21, 42), 73,
    scenario=Delay(low=0.5, high=2.0),
)
register_case(
    "global-long-step-budget", "pp-a", _cycle96, (0, 48, 5), 77,
    max_steps=5000, on_budget_exhausted="partial",
)
register_case(
    "global-long-loss-time-budget", "push-a", _cycle96, _LONG_SOURCES, 75,
    scenario=MessageLoss(0.2), max_time=120.0, on_budget_exhausted="partial",
)


# --- Synchronous rounds wide enough for the frontier path ---------------- #
# Every synchronous case above has n <= 32, far below the numpy round step's
# width threshold (numpy_backend._FRONTIER_MIN_CELLS), so it takes the full
# exchange every round.  16 trials on 8,192 vertices take the frontier while
# the smaller status class is small and the full exchange in between.
def _rr8192():
    return random_regular_graph(8192, 3, seed=4)


_FRONTIER_SOURCES = tuple(range(0, 8192, 512))
for _protocol in ("pp", "push", "pull"):
    register_case(f"sync-frontier-{_protocol}", _protocol, _rr8192, _FRONTIER_SOURCES, 87)
register_case(
    "sync-frontier-loss", "pp", _rr8192, _FRONTIER_SOURCES, 89, scenario=MessageLoss(0.3)
)
register_case(
    "sync-frontier-churn", "pp", _rr8192, _FRONTIER_SOURCES, 93,
    scenario=NodeChurn(0.1, 0.6),
)
register_case(
    "sync-frontier-adaptive-loss", "pp", _rr8192, _FRONTIER_SOURCES, 95,
    scenario=AdaptiveLoss(p=0.8, budget=400),
)
register_case(
    "sync-frontier-partial-budget", "pp", _rr8192, _FRONTIER_SOURCES, 97,
    max_rounds=16, on_budget_exhausted="partial",
)
# A star's degree range straddles the width threshold, so the step sums the
# exact volume of S: a leaf passes, the hub does not.
register_case(
    "sync-frontier-star", "pp", lambda: star_graph(8192), tuple(range(1, 17)), 99
)


# --------------------------------------------------------------------- #
# The parallel-run registry
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ParallelCase:
    """One registered ``run_trials_parallel`` equivalence setting.

    Replayed twice — serial chunk replay and the pool run — which must
    produce bit-identical samples for the fixed ``(seed, trials,
    num_workers)`` triple.
    """

    id: str
    protocol: str
    graph_builder: Callable[[], Graph]
    source: Union[int, str]
    trials: int
    seed: int
    num_workers: int
    fractions: tuple[float, ...] = ()
    batch: Any = "auto"
    scenario: Optional[Any] = None
    engine_options: tuple[tuple[str, Any], ...] = ()

    def options(self) -> Optional[dict]:
        return dict(self.engine_options) or None


PARALLEL_CASES: list[ParallelCase] = []


def register_parallel_case(
    id: str,
    protocol: str,
    graph_builder: Callable[[], Graph],
    source,
    *,
    trials: int,
    seed: int,
    num_workers: int,
    fractions=(),
    batch="auto",
    scenario=None,
    **engine_options,
) -> ParallelCase:
    """Register a parallel-run setting in the shared equivalence gate."""
    case = ParallelCase(
        id=id,
        protocol=protocol,
        graph_builder=graph_builder,
        source=source,
        trials=int(trials),
        seed=int(seed),
        num_workers=int(num_workers),
        fractions=tuple(float(f) for f in fractions),
        batch=batch,
        scenario=scenario,
        engine_options=tuple(sorted(engine_options.items())),
    )
    PARALLEL_CASES.append(case)
    return case


def assert_parallel_case(case: ParallelCase):
    """Pool run ≡ serial chunk replay, bit for bit."""
    graph = case.graph_builder()
    options = case.options()
    # The serial reference: replay the deterministic chunk plan through
    # plain in-process run_trials calls and merge once — no executor, no
    # transport, exactly the work the workers do.
    _, plan = chunk_plan(case.trials, case.num_workers, case.seed)
    expected = SpreadingTimeSample.merged(
        [
            run_trials(
                graph,
                case.source,
                case.protocol,
                trials=size,
                seed=chunk_seed,
                fractions=case.fractions,
                batch=case.batch,
                scenario=case.scenario,
                engine_options=options,
            )
            for size, chunk_seed in plan
        ]
    )
    kwargs = dict(
        trials=case.trials,
        seed=case.seed,
        num_workers=case.num_workers,
        fractions=case.fractions,
        batch=case.batch,
        scenario=case.scenario,
        engine_options=options,
    )
    sample = run_trials_parallel(graph, case.source, case.protocol, **kwargs)
    assert sample.times == expected.times, (
        f"the pool run diverged from the serial chunk replay for {case.id}"
    )
    assert sample.fraction_times == expected.fraction_times
    assert sample.source == expected.source
    assert sample.graph_name == expected.graph_name
    assert sample.num_vertices == expected.num_vertices
    return sample


register_parallel_case(
    "parallel-sync-pp", "pp", _rr32, 1, trials=9, seed=123, num_workers=3,
    fractions=(0.5, 0.9),
)
register_parallel_case(
    "parallel-async-global", "pp-a", _rr24, 0, trials=8, seed=17, num_workers=2
)
register_parallel_case(
    "parallel-random-source", "push", lambda: star_graph(16), "random",
    trials=7, seed=5, num_workers=2,
)
register_parallel_case(
    "parallel-scenario-loss", "pp", _rr24, 0, trials=6, seed=29, num_workers=2,
    scenario=MessageLoss(0.3),
)
register_parallel_case(
    "parallel-clock-view", "pp-a", lambda: complete_graph(12), 0,
    trials=6, seed=31, num_workers=2, view="edge_clocks",
)
register_parallel_case(
    "parallel-clock-view-scenario", "pp-a", _rr24, 0,
    trials=6, seed=37, num_workers=2,
    scenario=MessageLoss(0.25) | NodeChurn(0.1, 0.6), view="node_clocks",
)
register_parallel_case(
    # PR-9: the adaptive adversary's per-trial budgets must shard cleanly
    # across pool chunks (each worker sees only its chunk's informed masks).
    "parallel-adaptive-crash", "pp", lambda: star_graph(16), 0,
    trials=6, seed=41, num_workers=2, batch=True,
    scenario=AdaptiveCrash(budget=2),
    max_rounds=40, on_budget_exhausted="partial",
)
register_parallel_case(
    "parallel-adaptive-loss", "pp-a", _rr24, 0,
    trials=6, seed=43, num_workers=2,
    scenario=AdaptiveLoss(p=0.9, budget=6), view="node_clocks",
)
