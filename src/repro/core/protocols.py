"""Protocol registry and the uniform :func:`spread` entry point.

Every protocol studied in the paper is registered here under its canonical
short name, so analysis code, experiments, the CLI and user scripts can all
run any protocol through one call:

>>> from repro import graphs, spread
>>> result = spread(graphs.star_graph(64), source=0, protocol="pp-a", seed=7)
>>> result.completed
True

Canonical names (matching the paper's notation):

========  ===========================================================
``pp``     synchronous push–pull
``push``   synchronous push only
``pull``   synchronous pull only
``pp-a``   asynchronous push–pull (rate-1 Poisson clock per vertex)
``push-a`` asynchronous push only
``pull-a`` asynchronous pull only
``ppx``    auxiliary process of Definition 5 (analysis device)
``ppy``    auxiliary process of Definition 7 (analysis device)
========  ===========================================================

Every call also accepts a ``scenario=`` argument (a
:class:`repro.scenarios.Scenario` or a spec string like ``"loss:p=0.3"``)
applying composable adversity models.  Scenario support by protocol group:

====================  =====  =====  =======  ======  ==============
scenario              sync   async  ppx/ppy  batch   notes
====================  =====  =====  =======  ======  ==============
``loss``              yes    yes    no       yes     per-exchange drop
``burst-loss``        yes    yes    no       yes     Gilbert–Elliott channel; state steps once per round / time unit
``churn``             yes    yes    no       yes     state updates once per round / time unit
``targeted-churn``    yes    yes    no       yes     deterministic: top vertices by degree/eccentricity crash at trial start
``adaptive-crash``    yes    yes    no       yes     budget-limited: each round / epoch crashes the top-``k`` *informed* vertices by degree/eccentricity until the budget is spent
``adaptive-loss``     yes    yes    no       yes     budget-limited: drops only *informative* contacts (informed→uninformed) with probability ``p`` until the budget is spent
``dynamic``           yes    yes*   no       yes*    \\*every view except ``edge_clocks`` (a resample would change the pair clock set)
``adversarial-source`` yes   yes    yes      yes     deterministic; overrides ``source``
``delay``             no     yes    no       yes     clock rates are an async-only notion; reweights per-clock rates under the clock views
====================  =====  =====  =======  ======  ==============

Asynchronous runtime scenarios run under **all three views** (``global``,
``node_clocks``, ``edge_clocks``); the single exception is ``dynamic``
under ``edge_clocks``, which raises a descriptive
:class:`~repro.errors.ScenarioError` on every path.  Scenario × view
eligibility, in full:

====================  ======  ==========  ===============  ===============
scenario              sync    ``global``  ``node_clocks``  ``edge_clocks``
====================  ======  ==========  ===============  ===============
``loss``              yes     yes         yes              yes
``burst-loss``        yes     yes         yes              yes
``churn``             yes     yes         yes              yes
``targeted-churn``    yes     yes         yes              yes
``adaptive-crash``    yes     yes         yes              yes
``adaptive-loss``     yes     yes         yes              yes
``dynamic``           yes     yes         yes              **no**
``adversarial-source`` yes    yes         yes              yes
``delay``             no      yes         yes              yes
====================  ======  ==========  ===============  ===============

The adaptive scenarios observe the informed set at every decision point
(round start in sync, epoch boundary in async) and consume **no extra
randomness**: ``adaptive-crash`` picks victims deterministically from a
precomputed degree/eccentricity ranking, and ``adaptive-loss`` reuses the
per-contact loss draw slot — so the batched kernels stay bit-identical to
the serial engines with or without an adversary attached.

Every protocol also has a times-only batched ``(B, n)`` kernel in
:mod:`repro.core.batch_engine`, exactly seed-equivalent to the serial
engines (``batch`` column: which scenario categories stay on the fast path
there).  Batched kernel coverage by protocol group and asynchronous view:

==================  ============  =====================================
protocol group      batch kernel  runtime scenarios on the batched path
==================  ============  =====================================
sync pp/push/pull   yes           loss, burst-loss, churn, targeted-churn, adaptive-crash, adaptive-loss, dynamic
async ``global``    yes           all (dynamic rides a per-trial stacked CSR)
async clock views   yes           all except dynamic under ``edge_clocks`` (serial engine rejects it too)
``ppx``/``ppy``     yes           none (analysis-only processes)
==================  ============  =====================================

**Kernel backends.**  The batched hot loops live in
:mod:`repro.core.kernels` with two interchangeable implementations,
selected by the ``backend`` engine option (also understood by
``run_trials``/``run_trials_parallel`` ``engine_options``, the
``REPRO_KERNEL_BACKEND`` environment variable, and the CLI ``--backend``
flag):

===========  ==========================  ===================================
``backend``  implementation              equivalence to the serial engines
===========  ==========================  ===================================
``"numpy"``  vectorised reference        bit-identical (the historical
             kernels (always available)  engine behaviour)
``"jit"``    Numba ``@njit`` CSR loops   bit-identical in every RNG mode,
             (``pip install -e .[jit]``; per-trial and pooled; ``ppx``/``ppy``
             falls back to numpy with    have no jit kernel
             one warning when numba is
             missing)
``"auto"``   ``jit`` when numba is       as the backend it resolves to
             importable, else ``numpy``
===========  ==========================  ===================================

**Parallel execution.**  Above the batch kernels sits the multi-process
layer: :func:`repro.analysis.parallel.run_trials_parallel` shards a trial
budget across the session's persistent process pool
(:mod:`repro.analysis.pool`; sized by ``REPRO_MAX_WORKERS``, start method
via ``REPRO_MP_START_METHOD``), with every protocol of the table above
supported through the same chunked ``run_trials`` calls the serial path
makes.  Each chunk returns its sample to the parent, graphs travel once as
shared CSR arrays, a traced call's ``(trials, n)`` coverage matrix is
written by the workers into one shared segment, the result is
bit-identical to a serial replay of the same chunk
plan for a fixed ``(seed, trials, num_workers)`` (pinned by the
equivalence harness), and one pool serves whole experiment sweeps
(``sweep_family(parallel=True)``, ``experiments.theorem1.run(parallel=True)``,
``experiments.scenarios``).

**Telemetry.**  The observability layer (:mod:`repro.telemetry`) threads
through every path above with zero cost when off: coverage traces ingest
the per-vertex informing times each engine already produces (the ``(B,
n)`` matrices of the batch kernels under ``record_times=True``, the
:class:`SpreadingResult` histories serially), and runtime metrics count
rounds / ticks / messages inside the engines only while a registry is
installed (:func:`repro.telemetry.metrics.collecting_metrics`).  Tracing
never changes which dispatch path runs and never consumes randomness.
Coverage-tracing support by engine, view, and backend:

==================  ===============  ========  ==================================
engine / path       views            backends  coverage trace source
==================  ===============  ========  ==================================
serial sync/async   all three        n/a       per-run ``SpreadingResult.informed_time``
serial ppx/ppy      (rounds)         n/a       per-run ``SpreadingResult.informed_time``
batched sync        (rounds)         numpy,    kernel ``(B, n)`` time matrix,
                                     jit       fixed-seed-identical across backends
batched async       global           numpy,    kernel ``(B, n)`` time matrix; the jit
                                     jit       status-code drain reports metric deltas
                                               Python-side, RNG untouched
batched clock       node_clocks,     numpy     kernel ``(B, n)`` time matrix (table
views               edge_clocks      (pinned)  loops are numpy-pinned; pooled chunked
                                               path runs either backend)
batched ppx/ppy     (rounds)         numpy     kernel ``(B, n)`` time matrix
parallel            all of the       both      workers write per-chunk time-matrix
                    above                      rows into one shared ``(trials, n)``
                                               coverage matrix; metrics snapshots
                                               merge at chunk return
==================  ===============  ========  ==================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.async_engine import run_asynchronous
from repro.core.aux_processes import run_auxiliary_process
from repro.core.budgets import scenario_rejection
from repro.core.result import SpreadingResult
from repro.core.sync_engine import run_synchronous
from repro.errors import ProtocolError
from repro.graphs.base import Graph
from repro.randomness.rng import SeedLike
from repro.scenarios.base import ScenarioLike, as_scenario, scenario_source
from repro.telemetry.metrics import current_metrics

__all__ = [
    "ProtocolSpec",
    "PROTOCOLS",
    "available_protocols",
    "get_protocol",
    "spread",
    "is_synchronous_protocol",
    "is_asynchronous_protocol",
]


@dataclass(frozen=True)
class ProtocolSpec:
    """Metadata and runner for one registered protocol.

    Attributes:
        name: canonical short name (e.g. ``"pp-a"``).
        description: one-line human readable description.
        synchronous: whether the protocol is round based.
        realistic: ``False`` for the analysis-only processes ``ppx``/``ppy``
            (they assume knowledge of which neighbors are informed).
        runner: callable implementing the protocol; signature
            ``runner(graph, source, seed=..., **options) -> SpreadingResult``.
    """

    name: str
    description: str
    synchronous: bool
    realistic: bool
    runner: Callable[..., SpreadingResult]


def _sync_runner(mode: str) -> Callable[..., SpreadingResult]:
    def run(
        graph: Graph,
        source: int,
        *,
        seed: SeedLike = None,
        scenario: ScenarioLike = None,
        **options: object,
    ) -> SpreadingResult:
        return run_synchronous(
            graph, source, mode=mode, seed=seed, scenario=scenario, **options
        )

    return run


def _async_runner(mode: str) -> Callable[..., SpreadingResult]:
    def run(
        graph: Graph,
        source: int,
        *,
        seed: SeedLike = None,
        scenario: ScenarioLike = None,
        **options: object,
    ) -> SpreadingResult:
        return run_asynchronous(
            graph, source, mode=mode, seed=seed, scenario=scenario, **options
        )

    return run


def _aux_runner(variant: str) -> Callable[..., SpreadingResult]:
    def run(
        graph: Graph, source: int, *, seed: SeedLike = None, **options: object
    ) -> SpreadingResult:
        return run_auxiliary_process(graph, source, variant=variant, seed=seed, **options)

    return run


PROTOCOLS: dict[str, ProtocolSpec] = {
    "pp": ProtocolSpec(
        name="pp",
        description="synchronous push-pull: every vertex contacts a random neighbor each round",
        synchronous=True,
        realistic=True,
        runner=_sync_runner("push-pull"),
    ),
    "push": ProtocolSpec(
        name="push",
        description="synchronous push: only informed callers transmit",
        synchronous=True,
        realistic=True,
        runner=_sync_runner("push"),
    ),
    "pull": ProtocolSpec(
        name="pull",
        description="synchronous pull: only uninformed callers receive",
        synchronous=True,
        realistic=True,
        runner=_sync_runner("pull"),
    ),
    "pp-a": ProtocolSpec(
        name="pp-a",
        description="asynchronous push-pull: rate-1 Poisson clock per vertex",
        synchronous=False,
        realistic=True,
        runner=_async_runner("push-pull"),
    ),
    "push-a": ProtocolSpec(
        name="push-a",
        description="asynchronous push: ticks of informed vertices push the rumor",
        synchronous=False,
        realistic=True,
        runner=_async_runner("push"),
    ),
    "pull-a": ProtocolSpec(
        name="pull-a",
        description="asynchronous pull: ticks of uninformed vertices pull the rumor",
        synchronous=False,
        realistic=True,
        runner=_async_runner("pull"),
    ),
    "ppx": ProtocolSpec(
        name="ppx",
        description="auxiliary process of Definition 5 (pull prob. 1-e^{-2k/deg}, forced at k>=deg/2)",
        synchronous=True,
        realistic=False,
        runner=_aux_runner("ppx"),
    ),
    "ppy": ProtocolSpec(
        name="ppy",
        description="auxiliary process of Definition 7 (pull prob. 1-e^{-2k/deg})",
        synchronous=True,
        realistic=False,
        runner=_aux_runner("ppy"),
    ),
}


def available_protocols(*, include_analysis_only: bool = True) -> list[str]:
    """Sorted list of registered protocol names."""
    return sorted(
        name
        for name, spec in PROTOCOLS.items()
        if include_analysis_only or spec.realistic
    )


def get_protocol(name: str) -> ProtocolSpec:
    """Look up a protocol by name; raises with the list of valid names."""
    try:
        return PROTOCOLS[name]
    except KeyError:
        raise ProtocolError(
            f"unknown protocol {name!r}; available: {available_protocols()}"
        ) from None


def is_synchronous_protocol(name: str) -> bool:
    """Whether the named protocol measures time in rounds."""
    return get_protocol(name).synchronous


def is_asynchronous_protocol(name: str) -> bool:
    """Whether the named protocol measures time in continuous time units."""
    return not get_protocol(name).synchronous


def spread(
    graph: Graph,
    source: int,
    *,
    protocol: str = "pp",
    seed: SeedLike = None,
    scenario: ScenarioLike = None,
    **options: object,
) -> SpreadingResult:
    """Run one rumor-spreading simulation.

    Args:
        graph: the (connected) graph to spread on.
        source: the initially informed vertex.  An
            :class:`~repro.scenarios.AdversarialSource` component in the
            scenario overrides this argument.
        protocol: a canonical protocol name (see module docstring).
        seed: RNG seed or generator.
        scenario: optional adversity scenario from :mod:`repro.scenarios`
            (a :class:`~repro.scenarios.Scenario` or a spec string such as
            ``"loss:p=0.3"``).  See the table in the module docstring for
            which scenarios each protocol supports.
        **options: engine-specific options forwarded to the underlying
            runner (``max_rounds``, ``max_steps``, ``max_time``, ``view``,
            ``record_trace``, ``on_budget_exhausted``).  The batch-only
            ``backend`` option is accepted and ignored, so one options dict
            can drive both a serial and a batched run.

    Returns:
        The :class:`~repro.core.result.SpreadingResult` of the run.
    """
    # Kernel backends are a batch-engine notion (see repro.core.kernels);
    # the serial engines have exactly one implementation.
    options.pop("backend", None)
    spec = get_protocol(protocol)
    scenario = as_scenario(scenario)
    if scenario is not None:
        source = scenario_source(scenario, graph, source)
        rejection = scenario_rejection(
            protocol, scenario,
            synchronous=spec.synchronous, analysis_only=not spec.realistic,
            view=str(options.get("view", "global")),
        )
        if rejection is not None:
            raise rejection
        if scenario.runtime_active():
            result = spec.runner(graph, source, seed=seed, scenario=scenario, **options)
            _record_spread_metrics(result)
            return result
    result = spec.runner(graph, source, seed=seed, **options)
    _record_spread_metrics(result)
    return result


def _record_spread_metrics(result: SpreadingResult) -> None:
    """Serial run counters, derived from the result the engine built anyway.

    One registry lookup per :func:`spread` call and pure field reads —
    nothing is added to the engines' inner loops, so a serial run with
    telemetry off pays one ``is None`` check total.
    """
    metrics = current_metrics()
    if metrics is None:
        return
    if result.rounds is not None:
        metrics.count("engine.rounds", result.rounds)
    if result.steps is not None:
        metrics.count("engine.clock_ticks", result.steps)
        metrics.count("engine.messages_attempted", result.steps)
    elif result.total_contacts:
        metrics.count("engine.messages_attempted", result.total_contacts)
    metrics.count(
        "engine.messages_delivered",
        result.push_infections + result.pull_infections,
    )
    if result.adversary_budget_spent is not None:
        metrics.count(
            "scenario.adversary_budget_spent", result.adversary_budget_spent
        )
