"""Monte Carlo trial runners for spreading-time estimation.

The quantities the paper reasons about are properties of the *distribution*
of the rumor spreading time ``T(alg, G, u)``: its expectation (Theorem 2)
and its ``1 − 1/n`` quantile ``T_{1/n}`` (Theorem 1).  This module runs
repeated independent simulations and collects the resulting samples into
:class:`SpreadingTimeSample` objects that the quantile/statistics helpers
consume.

Two run modes are supported:

* a **fixed graph** — all trials run on the same graph instance (the correct
  semantics for the theorems, which hold for every individual graph);
* a **graph factory** — each trial draws a fresh random graph (used when the
  experiment is about a random-graph *family*, e.g. "random 3-regular
  graphs", and we want to average over the family as the cited literature
  does).

Both modes support fixed sources and uniformly random sources, fixed trial
counts and an adaptive mode that keeps adding trials until the relative
half-width of the mean's confidence interval drops below a target.

**The batched fast path.**  When the caller asks only for spreading times
(no traces, no per-vertex detail) on a fixed graph, :func:`run_trials`
dispatches to the 2-D batch kernels in :mod:`repro.core.batch_engine`,
which simulate whole blocks of trials as ``(B, n)`` NumPy arrays and skip
:class:`~repro.core.result.SpreadingResult` materialization entirely.  All
eight protocols batch — the six realistic ones (the asynchronous trio under
any of the three views, including the ``node_clocks``/``edge_clocks`` clock
queues) and the auxiliary processes ``ppx``/``ppy``.  The single
"can this setting batch?" predicate all runners share is
:func:`batch_dispatch_decision`.  The
batch kernels consume per-trial randomness in exactly the serial engines'
order, so ``run_trials(..., batch=True)`` and ``run_trials(...,
batch=False)`` return identical samples for the same seed — the ``batch``
argument is a pure throughput knob (``"auto"``, the default, batches
whenever the protocol and options allow it).  ``batch="pooled"`` trades the
serial equivalence for one shared generator per batch (cheaper small-``n``
rounds; agreement in distribution only).

Every runner also takes a ``scenario=`` argument applying the composable
adversity models of :mod:`repro.scenarios` (message loss, churn, dynamic
graphs, adversarial sources, heterogeneous clocks); scenario sweeps keep the
batched fast path whenever the scenario vectorises (see
:func:`repro.core.batch_engine.is_batchable`).
"""

from __future__ import annotations

import math
import numbers
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.core.batch_engine import is_batchable, run_batch
from repro.core.budgets import scenario_rejection
from repro.core.protocols import PROTOCOLS, get_protocol, spread
from repro.core.result import SpreadingResult
from repro.errors import AnalysisError
from repro.graphs.base import Graph
from repro.randomness.rng import (
    SeedLike,
    as_generator,
    draw_order_critical,
    spawn_generators,
)
from repro.scenarios.base import (
    Scenario,
    ScenarioLike,
    as_scenario,
    select_adversarial_source,
)
from repro.telemetry.metrics import current_metrics
from repro.telemetry.trace import CoverageRecorder, active_trace_collector

__all__ = [
    "SpreadingTimeSample",
    "run_trials",
    "run_adaptive_trials",
    "collect_results",
    "batch_dispatch_decision",
    "DEFAULT_BATCH_WIDTH",
]

#: Trials simulated per batch-kernel call on the batched fast path; bounds
#: the (width, n) working-array memory while amortizing per-round overhead.
DEFAULT_BATCH_WIDTH = 256

#: In ``batch="auto"``/``batch=True`` mode the width is additionally capped
#: so the kernels' (width, n) working buffers stay around tens of MB even
#: on very large graphs.  An explicit integer width is honored as given.
AUTO_BATCH_ELEMENT_BUDGET = 4_194_304

#: In ``batch="auto"`` mode, asynchronous protocols only dispatch to the
#: batched tick loop at this many trials or more: each tick advances every
#: live trial by one step, so the per-iteration overhead amortizes across
#: the batch and narrow batches are better served by the serial engine.
#: (Synchronous rounds amortize over ``n`` vertices as well, so they batch
#: at any width.)  Explicit ``batch=True``/``batch=<width>`` overrides this.
ASYNC_AUTO_MIN_TRIALS = 128

#: Accepted values for the ``batch`` argument of :func:`run_trials`.
BatchSpec = Union[bool, int, str]

GraphFactory = Callable[[np.random.Generator], Graph]
SourceSpec = Union[int, str]


@dataclass(frozen=True)
class SpreadingTimeSample:
    """A sample of spreading times for one (protocol, graph/family, source) setting.

    Attributes:
        protocol: canonical protocol name.
        graph_name: name of the graph (or family representative).
        num_vertices: number of vertices of the simulated graph(s).
        source: the fixed source vertex, or ``-1`` when sources were random.
        times: the observed spreading times, one per trial.
        fraction_times: optional per-trial times to inform given fractions
            (only populated when requested).
        num_trials: convenience alias for ``len(times)``.
    """

    protocol: str
    graph_name: str
    num_vertices: int
    source: int
    times: tuple[float, ...]
    fraction_times: dict[float, tuple[float, ...]] = field(default_factory=dict)

    @property
    def num_trials(self) -> int:
        return len(self.times)

    def as_array(self) -> np.ndarray:
        """The spreading times as a NumPy array."""
        return np.asarray(self.times, dtype=float)

    @property
    def mean(self) -> float:
        """Sample mean of the spreading time (estimates ``E[T]``)."""
        return float(np.mean(self.as_array()))

    @property
    def std(self) -> float:
        """Sample standard deviation (ddof=1; 0 for a single trial)."""
        values = self.as_array()
        if values.size < 2:
            return 0.0
        return float(np.std(values, ddof=1))

    @property
    def maximum(self) -> float:
        return float(np.max(self.as_array()))

    @property
    def minimum(self) -> float:
        return float(np.min(self.as_array()))

    def standard_error(self) -> float:
        """Standard error of the mean."""
        if self.num_trials < 2:
            return math.inf
        return self.std / math.sqrt(self.num_trials)

    @classmethod
    def merged(cls, samples: Sequence["SpreadingTimeSample"]) -> "SpreadingTimeSample":
        """Combine any number of samples of the same setting in one pass.

        A single concatenation per field, so merging ``W`` worker chunks is
        O(total trials) — unlike a chain of pairwise :meth:`merged_with`
        calls, which re-concatenates the accumulated tuples at every step
        (O(W * total)).  Fraction keys keep the first sample's order, then
        first appearance; the merged source is the common source, or ``-1``
        when the chunks disagree (or any chunk already had mixed sources).
        """
        samples = list(samples)
        if not samples:
            raise AnalysisError("cannot merge an empty sequence of samples")
        first = samples[0]
        for other in samples[1:]:
            if (first.protocol, first.num_vertices) != (other.protocol, other.num_vertices):
                raise AnalysisError("cannot merge samples from different settings")
        merged_fraction_times: dict[float, tuple[float, ...]] = {}
        for sample in samples:
            for fraction in sample.fraction_times:
                if fraction not in merged_fraction_times:
                    merged_fraction_times[fraction] = tuple(
                        value
                        for s in samples
                        for value in s.fraction_times.get(fraction, ())
                    )
        sources = {sample.source for sample in samples}
        return cls(
            protocol=first.protocol,
            graph_name=first.graph_name,
            num_vertices=first.num_vertices,
            source=sources.pop() if len(sources) == 1 else -1,
            times=tuple(time for sample in samples for time in sample.times),
            fraction_times=merged_fraction_times,
        )

    def merged_with(self, other: "SpreadingTimeSample") -> "SpreadingTimeSample":
        """Combine two samples of the same setting (used by adaptive runs)."""
        return SpreadingTimeSample.merged([self, other])


def _resolve_source(source: SourceSpec, graph: Graph, rng: np.random.Generator) -> int:
    if isinstance(source, str):
        if source != "random":
            raise AnalysisError(f"source must be a vertex id or 'random', got {source!r}")
        return int(rng.integers(graph.num_vertices))
    if not (0 <= int(source) < graph.num_vertices):
        raise AnalysisError(
            f"source {source} is not a vertex of {graph.name} (n={graph.num_vertices})"
        )
    return int(source)


def _resolve_batch_width(batch: BatchSpec, num_vertices: int) -> int:
    """Map a validated ``batch`` argument to a positive batch width."""
    if batch is True or batch in ("auto", "pooled"):
        return max(1, min(DEFAULT_BATCH_WIDTH, AUTO_BATCH_ELEMENT_BUDGET // max(1, num_vertices)))
    return int(batch)


def _scenario_fixed_source(scenario: Optional[Scenario], graph: Graph) -> Optional[int]:
    """The adversarially forced source, when the scenario carries one."""
    if scenario is None or scenario.source_strategy is None:
        return None
    return select_adversarial_source(graph, scenario.source_strategy)


def batch_dispatch_decision(
    protocol: str,
    engine_options: Optional[dict] = None,
    scenario: ScenarioLike = None,
    batch: BatchSpec = "auto",
    trials: Optional[int] = None,
    *,
    fixed_graph: bool = True,
    trace: Optional[object] = None,
) -> tuple[bool, str]:
    """The one "can this (protocol, options, scenario) setting batch?" predicate.

    Shared by :func:`run_trials`, :func:`run_adaptive_trials`, and
    :func:`repro.analysis.parallel.run_trials_parallel`, so the dispatch
    policy cannot drift between the three runners.

    Args:
        protocol: canonical protocol name.
        engine_options: engine options the trials will run with (the
            asynchronous ``view`` lives here).
        scenario: optional adversity scenario (or spec string).
        batch: the runner's ``batch`` argument, validated here: anything
            but ``True``, ``False``, ``"auto"``, ``"pooled"`` or a positive
            integer width raises :class:`AnalysisError`.
        trials: number of trials the caller intends to run (used by the
            ``"auto"`` narrow-asynchronous-batch heuristic; pass ``None`` to
            skip that check).
        fixed_graph: whether the trials share one fixed graph — graph
            factories run one trial per graph and never batch.
        trace: the coverage recorder the trials will feed, if any.  Tracing
            **never** changes the chosen path — coverage derives from the
            ``(B, n)`` time matrix the batch kernels emit anyway (and from
            the serial engines' per-trial histories on the serial path) —
            so the argument only annotates the returned reason string.

    Returns:
        ``(use_batch, reason)``: whether to dispatch to the batch kernels,
        and a human-readable reason for the decision — always present, for
        debuggability on both outcomes (the negative reason is also used
        verbatim in the error raised when batching was explicitly forced).
        Raises the engines' :class:`~repro.errors.ScenarioError` where no
        engine runs the scenario at all, batched or serial.
    """
    if not (
        isinstance(batch, bool)
        or (isinstance(batch, str) and batch in ("auto", "pooled"))
        or (isinstance(batch, numbers.Integral) and batch > 0)
    ):
        raise AnalysisError(
            "batch must be True, False, 'auto', 'pooled' or a positive integer "
            f"width, got {batch!r}"
        )
    traced = " [coverage tracing active; it never affects dispatch]" if trace is not None else ""
    if batch is False:
        return False, "batch=False forces the serial path" + traced
    options = dict(engine_options or {})
    scenario = as_scenario(scenario)
    if not fixed_graph:
        return False, "graph factories run one trial per graph" + traced
    if not is_batchable(protocol, options, scenario):
        spec = PROTOCOLS.get(protocol)
        if spec is not None:
            rejection = scenario_rejection(
                protocol, scenario,
                synchronous=spec.synchronous, analysis_only=not spec.realistic,
                view=str(options.get("view", "global")),
            )
            if rejection is not None:
                # No engine runs this combination, batched or serial.
                raise rejection
        return False, (
            f"protocol {protocol!r} with options {sorted(options)} and "
            f"scenario {scenario.spec() if scenario is not None else None!r} "
            "has no batched kernel" + traced
        )
    if (
        batch == "auto"
        and not get_protocol(protocol).synchronous
        and trials is not None
        and trials < ASYNC_AUTO_MIN_TRIALS
    ):
        # Narrow async batches lose to the serial engine.
        return False, (
            f"auto mode runs fewer than {ASYNC_AUTO_MIN_TRIALS} asynchronous "
            "trials through the serial engine" + traced
        )
    return True, (
        f"protocol {protocol!r} dispatches to the batched kernels "
        f"(batch={batch!r})" + traced
    )


def _forced_batch_error(batch: BatchSpec, reason: Optional[str]) -> AnalysisError:
    """The one error raised when an explicitly forced batch mode cannot run."""
    return AnalysisError(f"batch={batch!r} was requested but {reason}")


def _check_fractions(fractions: Sequence[float]) -> None:
    """Raise :class:`AnalysisError` unless the coverage fractions are
    distinct and each lies in ``(0, 1]``.

    A repeated fraction would collect its times twice under one key.
    """
    for fraction in fractions:
        if not 0.0 < fraction <= 1.0:
            raise AnalysisError(f"fractions must be in (0, 1], got {fraction}")
    if len(set(fractions)) != len(fractions):
        raise AnalysisError(f"fractions must be distinct, got {tuple(fractions)}")


@draw_order_critical
def _run_trials_batched(
    graph: Graph,
    source: SourceSpec,
    protocol: str,
    trials: int,
    seed: SeedLike,
    fractions: Sequence[float],
    options: dict,
    width: int,
    scenario: Optional[Scenario],
    pooled: bool,
    trace: Optional[CoverageRecorder] = None,
) -> SpreadingTimeSample:
    """The batched fast path of :func:`run_trials`.

    Spawns the same per-trial generators and resolves per-trial sources with
    the same draws as the serial path, then hands blocks of ``width`` trials
    to the batch kernels.  The full ``(B, n)`` time matrix is only recorded
    when coverage fractions were requested or a coverage trace is attached
    (the recorder ingests each block's matrix — coverage tracing at batch
    speed, no extra randomness, no kernel changes).  In pooled mode one
    shared generator replaces the per-trial ones (distribution-level
    agreement only; see :mod:`repro.core.batch_engine`).
    """
    record_times = bool(fractions) or trace is not None
    forced_source = _scenario_fixed_source(scenario, graph)
    pooled_rng = None
    generators = None
    if pooled:
        pooled_rng = as_generator(seed)
        if forced_source is not None:
            rng_sources = [forced_source] * trials
        elif isinstance(source, str):
            if source != "random":
                raise AnalysisError(
                    f"source must be a vertex id or 'random', got {source!r}"
                )
            rng_sources = pooled_rng.integers(0, graph.num_vertices, trials).tolist()
        else:
            rng_sources = [_resolve_source(source, graph, pooled_rng)] * trials
    else:
        generators = spawn_generators(trials, seed)
        if forced_source is not None:
            rng_sources = [forced_source] * trials
        else:
            rng_sources = [_resolve_source(source, graph, rng) for rng in generators]

    times: list[float] = []
    fraction_values: dict[float, list[float]] = {fraction: [] for fraction in fractions}
    for start in range(0, trials, width):
        stop = min(start + width, trials)
        block = run_batch(
            graph,
            rng_sources[start:stop],
            protocol,
            rngs=generators[start:stop] if generators is not None else None,
            pooled_rng=pooled_rng,
            record_times=record_times,
            scenario=scenario,
            **options,
        )
        times.extend(block.spreading_times().tolist())
        if trace is not None:
            trace.record_block(block.informed_time)
        for fraction in fractions:
            fraction_values[fraction].extend(
                block.time_to_inform_fraction(fraction).tolist()
            )

    fixed_source = rng_sources[0] if len(set(rng_sources)) == 1 else -1
    return SpreadingTimeSample(
        protocol=protocol,
        graph_name=graph.name,
        num_vertices=graph.num_vertices,
        source=fixed_source,
        times=tuple(times),
        fraction_times={f: tuple(v) for f, v in fraction_values.items()},
    )


def run_trials(
    graph_or_factory: Union[Graph, GraphFactory],
    source: SourceSpec,
    protocol: str,
    *,
    trials: int,
    seed: SeedLike = None,
    fractions: Sequence[float] = (),
    engine_options: Optional[dict] = None,
    batch: BatchSpec = "auto",
    scenario: ScenarioLike = None,
    trace: Optional[CoverageRecorder] = None,
) -> SpreadingTimeSample:
    """Run ``trials`` independent simulations and collect spreading times.

    Args:
        graph_or_factory: a fixed :class:`Graph`, or a callable mapping an
            RNG to a freshly sampled graph (for random families).
        source: a vertex id, or the string ``"random"`` to pick a fresh
            uniformly random source in every trial.  An
            :class:`~repro.scenarios.AdversarialSource` component in the
            scenario overrides this argument entirely (deterministically, so
            both dispatch paths agree).
        protocol: canonical protocol name (``"pp"``, ``"pp-a"``, ...).
        trials: number of independent trials (must be positive).
        seed: master seed; per-trial generators are spawned from it.
        fractions: optional fractions (e.g. ``(0.5, 0.9)``) for which the
            time to inform that fraction of vertices is also recorded.
        engine_options: extra keyword arguments forwarded to the engine.
        batch: ``"auto"`` (default) uses the vectorised batch kernels
            whenever the setting allows it (fixed graph, batchable protocol,
            options, and scenario) and falls back to serial runs otherwise;
            ``False`` forces the serial path; ``True`` or a positive int
            (the batch width) forces batching and raises
            :class:`AnalysisError` when the setting cannot be batched.  All
            of those produce identical samples for the same seed.
            ``"pooled"`` also forces batching but shares *one* generator
            across the whole batch instead of spawning one per trial —
            roughly halving small-``n`` round cost at the price of serial
            equivalence (pooled samples agree with the other modes in
            distribution only).
        scenario: optional adversity scenario from :mod:`repro.scenarios`
            (a :class:`~repro.scenarios.Scenario` or a spec string such as
            ``"loss:p=0.3"``), applied to every trial.
        trace: optional :class:`~repro.telemetry.trace.CoverageRecorder`
            collecting per-trial coverage histories alongside the sample —
            at batch speed on the batched path (the kernels' ``(B, n)``
            time matrices), from :class:`SpreadingResult` histories on the
            serial path.  Tracing never changes which path runs; the same
            fixed seed yields bit-identical samples traced or not.  When
            ``None`` and an ambient collector is active (see
            :func:`repro.telemetry.trace.collecting_traces`), a recorder is
            created per call and the finished trace deposited there.

    Returns:
        The collected :class:`SpreadingTimeSample`.
    """
    if trials < 1:
        raise AnalysisError(f"trials must be positive, got {trials}")
    get_protocol(protocol)  # validate the name eagerly
    scenario = as_scenario(scenario)
    _check_fractions(fractions)
    options = dict(engine_options or {})
    collector = None
    if trace is None:
        collector = active_trace_collector()
        if collector is not None and collector.spec.coverage:
            trace = collector.recorder()
        else:
            collector = None
    metrics = current_metrics()

    if batch is not False:
        use_batch, reason = batch_dispatch_decision(
            protocol,
            options,
            scenario,
            batch,
            trials,
            fixed_graph=isinstance(graph_or_factory, Graph),
            trace=trace,
        )
        if use_batch:
            with metrics.timer("analysis.batch_seconds") if metrics is not None else nullcontext():
                sample = _run_trials_batched(
                    graph_or_factory,
                    source,
                    protocol,
                    trials,
                    seed,
                    tuple(fractions),
                    options,
                    _resolve_batch_width(batch, graph_or_factory.num_vertices),
                    scenario,
                    batch == "pooled",
                    trace,
                )
            if metrics is not None:
                metrics.count("analysis.trials", trials)
            if collector is not None:
                collector.add(
                    trace.trace(protocol=protocol, graph_name=sample.graph_name)
                )
            return sample
        if batch != "auto":
            raise _forced_batch_error(batch, reason)

    generators = spawn_generators(trials, seed)
    serial_started = time.perf_counter() if metrics is not None else None

    times: list[float] = []
    fraction_times: dict[float, list[float]] = {fraction: [] for fraction in fractions}
    graph_name = None
    num_vertices = None
    fixed_source: Optional[int] = None

    for rng in generators:
        if isinstance(graph_or_factory, Graph):
            graph = graph_or_factory
        else:
            graph = graph_or_factory(rng)
        if graph_name is None:
            graph_name = graph.name
            num_vertices = graph.num_vertices
        forced_source = _scenario_fixed_source(scenario, graph)
        if forced_source is not None:
            trial_source = forced_source
        else:
            trial_source = _resolve_source(source, graph, rng)
        if fixed_source is None:
            fixed_source = trial_source
        elif fixed_source != trial_source:
            fixed_source = -1
        result = spread(
            graph, trial_source, protocol=protocol, seed=rng, scenario=scenario, **options
        )
        times.append(result.spreading_time)
        if trace is not None:
            trace.record_result(result)
        for fraction in fractions:
            fraction_times[fraction].append(result.time_to_inform_fraction(fraction))

    assert graph_name is not None and num_vertices is not None
    if metrics is not None:
        metrics.add_time("analysis.serial_seconds", time.perf_counter() - serial_started)
        metrics.count("analysis.trials", trials)
    if collector is not None:
        collector.add(trace.trace(protocol=protocol, graph_name=graph_name))
    return SpreadingTimeSample(
        protocol=protocol,
        graph_name=graph_name,
        num_vertices=num_vertices,
        source=fixed_source if fixed_source is not None else -1,
        times=tuple(times),
        fraction_times={f: tuple(v) for f, v in fraction_times.items()},
    )


def run_adaptive_trials(
    graph_or_factory: Union[Graph, GraphFactory],
    source: SourceSpec,
    protocol: str,
    *,
    initial_trials: int = 50,
    batch_size: int = 50,
    max_trials: int = 2000,
    relative_precision: float = 0.05,
    seed: SeedLike = None,
    engine_options: Optional[dict] = None,
    batch: BatchSpec = "auto",
    scenario: ScenarioLike = None,
) -> SpreadingTimeSample:
    """Keep adding trial batches until the mean is known to the requested precision.

    The stopping rule is ``1.96 * standard_error <= relative_precision * mean``
    (a ~95% confidence half-width below the requested relative precision), or
    ``max_trials`` trials, whichever comes first.  This is the "adaptive
    trial allocation" ablation mentioned in DESIGN.md.  Each refinement block
    goes through :func:`run_trials` and therefore picks up the batched fast
    path under the same conditions (see the ``batch`` argument there).
    """
    if initial_trials < 2:
        raise AnalysisError("initial_trials must be at least 2")
    if batch_size < 1:
        raise AnalysisError("batch_size must be positive")
    if max_trials < initial_trials:
        raise AnalysisError("max_trials must be at least initial_trials")
    if not 0 < relative_precision < 1:
        raise AnalysisError("relative_precision must be in (0, 1)")
    master = as_generator(seed)
    scenario = as_scenario(scenario)
    sample = run_trials(
        graph_or_factory,
        source,
        protocol,
        trials=initial_trials,
        seed=master,
        engine_options=engine_options,
        batch=batch,
        scenario=scenario,
    )
    while sample.num_trials < max_trials:
        half_width = 1.96 * sample.standard_error()
        if sample.mean > 0 and half_width <= relative_precision * sample.mean:
            break
        remaining = min(batch_size, max_trials - sample.num_trials)
        extra = run_trials(
            graph_or_factory,
            source,
            protocol,
            trials=remaining,
            seed=master,
            engine_options=engine_options,
            batch=batch,
            scenario=scenario,
        )
        sample = sample.merged_with(extra)
    return sample


def collect_results(
    graph: Graph,
    source: SourceSpec,
    protocol: str,
    *,
    trials: int,
    seed: SeedLike = None,
    engine_options: Optional[dict] = None,
    scenario: ScenarioLike = None,
) -> list[SpreadingResult]:
    """Run ``trials`` simulations and return the full result objects.

    Unlike :func:`run_trials` this keeps every :class:`SpreadingResult`
    (parents, infection kinds, per-vertex times), which the coupling
    experiments and a few tests need; it is correspondingly heavier.
    """
    if trials < 1:
        raise AnalysisError(f"trials must be positive, got {trials}")
    options = dict(engine_options or {})
    scenario = as_scenario(scenario)
    results = []
    for rng in spawn_generators(trials, seed):
        forced_source = _scenario_fixed_source(scenario, graph)
        if forced_source is not None:
            trial_source = forced_source
        else:
            trial_source = _resolve_source(source, graph, rng)
        results.append(
            spread(
                graph, trial_source, protocol=protocol, seed=rng, scenario=scenario, **options
            )
        )
    return results
