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

**One plan per call.**  Every runner first builds a frozen
:class:`TrialPlan` from its arguments.  Building it is the one argument
check: a malformed source, trial count, seed, coverage fraction or batch
mode raises an :class:`AnalysisError` naming the argument, and a misapplied
engine option or impossible scenario the
:class:`~repro.errors.ProtocolError` or :class:`~repro.errors.ScenarioError`
of :func:`~repro.core.protocols.check_options` — before any trial runs, on
every path, and in the parent process for
:func:`~repro.analysis.parallel.run_trials_parallel`.
:meth:`TrialPlan.batched` is the one path decision and
:meth:`TrialPlan.source_on` the one source draw.

**The batched fast path.**  When the caller asks only for spreading times
(no traces, no per-vertex detail) on a fixed graph, :func:`run_trials`
dispatches to the 2-D batch kernels in :mod:`repro.core.batch_engine`,
which simulate whole blocks of trials as ``(B, n)`` NumPy arrays and skip
:class:`~repro.core.result.SpreadingResult` materialization entirely.  All
eight protocols batch — the six realistic ones (the asynchronous trio under
any of the three views, including the ``node_clocks``/``edge_clocks`` clock
queues) and the auxiliary processes ``ppx``/``ppy``.  The batch kernels
consume per-trial randomness in exactly the serial engines' order, so
``run_trials(..., batch=True)`` and ``run_trials(..., batch=False)`` return
identical samples for the same seed — the ``batch`` argument is a pure
throughput knob (``"auto"``, the default, batches whenever the setting
allows it).  ``batch="pooled"`` trades the serial equivalence for one
shared generator per batch (cheaper small-``n`` rounds; agreement in
distribution only).

Every runner also takes a ``scenario=`` argument applying the composable
adversity models of :mod:`repro.scenarios` (message loss, churn, dynamic
graphs, adversarial sources, heterogeneous clocks); every scenario an
engine runs at all also runs on the batched fast path.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable, Iterator, Mapping
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.core.batch_engine import run_batch
from repro.core.protocols import PROTOCOLS, check_options, spread
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
    "TrialPlan",
    "run_trials",
    "run_adaptive_trials",
    "collect_results",
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


def _is_integer(value: object) -> bool:
    """Whether ``value`` is an integer and not a bool."""
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


def _require(name: str, value: object, expected: str, valid: bool) -> None:
    """Raise an :class:`AnalysisError` naming the argument unless ``valid``."""
    if not valid:
        raise AnalysisError(f"{name} must be {expected}, got {value!r}")


def _resolve_batch_width(batch: BatchSpec, num_vertices: int) -> int:
    """Map a validated ``batch`` argument to a positive batch width."""
    if batch is True or batch in ("auto", "pooled"):
        return max(1, min(DEFAULT_BATCH_WIDTH, AUTO_BATCH_ELEMENT_BUDGET // max(1, num_vertices)))
    return int(batch)


@dataclass(frozen=True)
class TrialPlan:
    """One runner call's arguments, checked once.

    Building a plan is the one argument check of :func:`run_trials`,
    :func:`run_adaptive_trials`, :func:`collect_results` and
    :func:`~repro.analysis.parallel.run_trials_parallel`: it raises an
    :class:`AnalysisError` naming a malformed argument (or a forced batch
    mode with ``record_trace``, which only the serial engines take), and
    the errors of :func:`~repro.core.protocols.check_options`.  It keeps
    ``fractions`` as a tuple, ``engine_options`` as a dict and the scenario
    parsed.  A pool chunk carries ``replace(plan, trials=size,
    seed=chunk_seed)``.  The graph stays out of the plan, because a pool
    chunk reattaches it from shared memory instead of pickling it; the two
    decisions that need it take it as an argument.
    """

    source: SourceSpec
    protocol: str
    trials: int
    seed: SeedLike = None
    fractions: tuple[float, ...] = ()
    engine_options: dict = field(default_factory=dict)
    scenario: Optional[Scenario] = None
    batch: BatchSpec = "auto"

    def __post_init__(self) -> None:
        source, trials, seed, fractions, options, batch = (
            self.source, self.trials, self.seed, self.fractions, self.engine_options, self.batch
        )
        _require(
            "source", source, "a vertex id or 'random'",
            source == "random" if isinstance(source, str) else _is_integer(source),
        )
        _require("trials", trials, "a positive integer", _is_integer(trials) and trials > 0)
        _require(
            "seed", seed, "None, a non-negative integer, a Generator or a SeedSequence",
            seed is None
            or isinstance(seed, (np.random.Generator, np.random.SeedSequence))
            or (_is_integer(seed) and seed >= 0),
        )
        _require("fractions", fractions, "a sequence", isinstance(fractions, Iterable))
        fractions = tuple(fractions)
        for fraction in fractions:
            _require(
                "fractions", fraction, "in (0, 1]",
                isinstance(fraction, numbers.Real) and 0.0 < fraction <= 1.0,
            )
        _require("fractions", fractions, "distinct", len(set(fractions)) == len(fractions))
        _require("engine_options", options, "a mapping", options is None or isinstance(options, Mapping))
        options = dict(options or {})
        _require(
            "batch", batch, "True, False, 'auto', 'pooled' or a positive integer width",
            isinstance(batch, bool)
            or (batch in ("auto", "pooled") if isinstance(batch, str) else _is_integer(batch) and batch > 0),
        )
        scenario = as_scenario(self.scenario)
        check_options(self.protocol, options, scenario)
        if batch is not False and batch != "auto" and "record_trace" in options:
            raise AnalysisError(
                f"batch={batch!r} was requested, but record_trace runs only on the serial engines"
            )
        object.__setattr__(self, "trials", int(trials))
        object.__setattr__(self, "fractions", fractions)
        object.__setattr__(self, "engine_options", options)
        object.__setattr__(self, "scenario", scenario)

    def batched(self, graph_or_factory: Union[Graph, GraphFactory]) -> bool:
        """Whether the trials run on the batch kernels: the one path decision.

        ``batch=False``, a graph factory (one trial per graph) and
        ``record_trace`` run serially, and so does ``"auto"`` with fewer
        than :data:`ASYNC_AUTO_MIN_TRIALS` asynchronous trials.  Raises
        :class:`AnalysisError` for a forced batch mode on a graph factory.
        """
        if self.batch is False:
            return False
        if not isinstance(graph_or_factory, Graph):
            if self.batch != "auto":
                raise AnalysisError(
                    f"batch={self.batch!r} was requested, but graph factories run "
                    "one trial per graph"
                )
            return False
        if self.batch != "auto":
            return True
        # Narrow asynchronous batches lose to the serial engine.
        return "record_trace" not in self.engine_options and (
            PROTOCOLS[self.protocol].synchronous or self.trials >= ASYNC_AUTO_MIN_TRIALS
        )

    def source_on(
        self, graph: Graph, rng: Optional[np.random.Generator], size: Optional[int] = None
    ) -> Union[int, list[int]]:
        """The source of a trial on ``graph``: the one source draw.

        A scenario's adversarial source overrides ``source``; ``"random"``
        draws a vertex from ``rng`` (nothing else reads it); a fixed source
        off ``graph`` raises :class:`AnalysisError`.  With ``size``, the
        sources of ``size`` trials come back as a list, drawn at once from
        one pooled generator.
        """
        if self.scenario is not None and self.scenario.source_strategy is not None:
            vertex = select_adversarial_source(graph, self.scenario.source_strategy)
        elif isinstance(self.source, str):  # "random", as the plan checked
            if size is not None:
                return rng.integers(0, graph.num_vertices, size).tolist()
            return int(rng.integers(graph.num_vertices))
        elif 0 <= self.source < graph.num_vertices:
            vertex = int(self.source)
        else:
            raise AnalysisError(
                f"source {self.source} is not a vertex of {graph.name} (n={graph.num_vertices})"
            )
        return vertex if size is None else [vertex] * size


def _sample(
    plan: TrialPlan, graph: Graph, sources: Sequence[int], times: list[float],
    fraction_times: dict[float, list[float]],
) -> SpreadingTimeSample:
    """The sample of one plan's trials, named after ``graph`` (a factory's first)."""
    return SpreadingTimeSample(
        protocol=plan.protocol,
        graph_name=graph.name,
        num_vertices=graph.num_vertices,
        source=sources[0] if len(set(sources)) == 1 else -1,
        times=tuple(times),
        fraction_times={fraction: tuple(values) for fraction, values in fraction_times.items()},
    )


@draw_order_critical
def _run_batched(
    graph: Graph, plan: TrialPlan, trace: Optional[CoverageRecorder]
) -> SpreadingTimeSample:
    """The batched fast path of :func:`run_trials`.

    Spawns the same per-trial generators and draws the same per-trial
    sources as the serial path, then hands blocks of trials to the batch
    kernels.  The full ``(B, n)`` time matrix is only recorded when
    coverage fractions were requested or a coverage trace is attached (the
    recorder ingests each block's matrix — coverage tracing at batch speed,
    no extra randomness, no kernel changes).  In pooled mode one shared
    generator replaces the per-trial ones (distribution-level agreement
    only; see :mod:`repro.core.batch_engine`).
    """
    pooled_rng = generators = None
    if plan.batch == "pooled":
        pooled_rng = as_generator(plan.seed)
        sources = plan.source_on(graph, pooled_rng, plan.trials)
    else:
        generators = spawn_generators(plan.trials, plan.seed)
        sources = [plan.source_on(graph, rng) for rng in generators]
    width = _resolve_batch_width(plan.batch, graph.num_vertices)
    record_times = bool(plan.fractions) or trace is not None
    times: list[float] = []
    fraction_times: dict[float, list[float]] = {fraction: [] for fraction in plan.fractions}
    for start in range(0, plan.trials, width):
        stop = min(start + width, plan.trials)
        block = run_batch(
            graph, sources[start:stop], plan.protocol,
            rngs=generators[start:stop] if generators is not None else None,
            pooled_rng=pooled_rng, record_times=record_times, scenario=plan.scenario,
            **plan.engine_options,
        )
        times.extend(block.spreading_times().tolist())
        if trace is not None:
            trace.record_block(block.informed_time)
        for fraction, values in fraction_times.items():
            values.extend(block.time_to_inform_fraction(fraction).tolist())
    return _sample(plan, graph, sources, times, fraction_times)


def _spread_each(
    graph_or_factory: Union[Graph, GraphFactory], plan: TrialPlan
) -> Iterator[tuple[Graph, int, SpreadingResult]]:
    """One serial :func:`spread` run per trial: ``(graph, source, result)``."""
    for rng in spawn_generators(plan.trials, plan.seed):
        graph = graph_or_factory if isinstance(graph_or_factory, Graph) else graph_or_factory(rng)
        source = plan.source_on(graph, rng)
        yield graph, source, spread(
            graph, source, protocol=plan.protocol, seed=rng, scenario=plan.scenario,
            **plan.engine_options,
        )


def _run_serial(
    graph_or_factory: Union[Graph, GraphFactory],
    plan: TrialPlan,
    trace: Optional[CoverageRecorder],
) -> SpreadingTimeSample:
    """The serial path of :func:`run_trials`, one :func:`spread` call per trial."""
    first: Optional[Graph] = None
    sources: list[int] = []
    times: list[float] = []
    fraction_times: dict[float, list[float]] = {fraction: [] for fraction in plan.fractions}
    for graph, source, result in _spread_each(graph_or_factory, plan):
        if first is None:
            first = graph
        sources.append(source)
        times.append(result.spreading_time)
        if trace is not None:
            trace.record_result(result)
        for fraction, values in fraction_times.items():
            values.append(result.time_to_inform_fraction(fraction))
    return _sample(plan, first, sources, times, fraction_times)


def _run_plan(
    graph_or_factory: Union[Graph, GraphFactory],
    plan: TrialPlan,
    trace: Optional[CoverageRecorder] = None,
) -> SpreadingTimeSample:
    """Run a checked plan on the path :meth:`TrialPlan.batched` picks."""
    collector = None
    if trace is None:
        collector = active_trace_collector()
        if collector is not None and collector.spec.coverage:
            trace = collector.recorder()
        else:
            collector = None
    batched = plan.batched(graph_or_factory)
    metrics = current_metrics()
    timer = "analysis.batch_seconds" if batched else "analysis.serial_seconds"
    with metrics.timer(timer) if metrics is not None else nullcontext():
        sample = (_run_batched if batched else _run_serial)(graph_or_factory, plan, trace)
    if metrics is not None:
        metrics.count("analysis.trials", plan.trials)
    if collector is not None:
        collector.add(trace.trace(protocol=plan.protocol, graph_name=sample.graph_name))
    return sample


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
        trials: number of independent trials (a positive integer).
        seed: master seed; per-trial generators are spawned from it.
        fractions: optional fractions (e.g. ``(0.5, 0.9)``) for which the
            time to inform that fraction of vertices is also recorded.
        engine_options: extra keyword arguments forwarded to the engine.
        batch: ``"auto"`` (default) uses the vectorised batch kernels
            whenever the setting allows it (fixed graph, no
            ``record_trace``) and falls back to serial runs otherwise;
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

    Raises:
        AnalysisError, ProtocolError, ScenarioError: for a malformed call,
            before any trial runs (see :class:`TrialPlan`).
    """
    plan = TrialPlan(source, protocol, trials, seed, fractions, engine_options, scenario, batch)
    return _run_plan(graph_or_factory, plan, trace)


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
    runs like a :func:`run_trials` call and therefore picks up the batched
    fast path under the same conditions (see the ``batch`` argument there).
    Every argument is checked before the first trial.
    """
    _require(
        "initial_trials", initial_trials, "an integer of at least 2",
        _is_integer(initial_trials) and initial_trials >= 2,
    )
    _require("batch_size", batch_size, "a positive integer", _is_integer(batch_size) and batch_size > 0)
    _require(
        "max_trials", max_trials, "an integer of at least initial_trials",
        _is_integer(max_trials) and max_trials >= initial_trials,
    )
    _require(
        "relative_precision", relative_precision, "in (0, 1)",
        isinstance(relative_precision, numbers.Real) and 0 < relative_precision < 1,
    )
    plan = TrialPlan(source, protocol, initial_trials, seed, (), engine_options, scenario, batch)
    # Every block spawns its trials from one master generator.
    plan = replace(plan, seed=as_generator(plan.seed))
    sample = _run_plan(graph_or_factory, plan)
    while sample.num_trials < max_trials:
        half_width = 1.96 * sample.standard_error()
        if sample.mean > 0 and half_width <= relative_precision * sample.mean:
            break
        remaining = min(batch_size, max_trials - sample.num_trials)
        sample = sample.merged_with(_run_plan(graph_or_factory, replace(plan, trials=remaining)))
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
    experiments and a few tests need; it is correspondingly heavier.  Its
    arguments are checked like :func:`run_trials`'s (see :class:`TrialPlan`).
    """
    plan = TrialPlan(source, protocol, trials, seed, (), engine_options, scenario, batch=False)
    return [result for _, _, result in _spread_each(graph, plan)]
