"""Protocol comparisons across graph families and sizes.

This is the workhorse the experiments build on: given a graph family, a size
sweep, and a pair (or set) of protocols, run the Monte Carlo trials, estimate
means and high-probability times, and package everything into records that
the table renderers and benchmarks consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.analysis.montecarlo import BatchSpec, SpreadingTimeSample, run_trials
from repro.analysis.parallel import run_trials_parallel
from repro.analysis.quantiles import high_probability_time
from repro.analysis.statistics import MeanEstimate, RatioEstimate, bootstrap_ratio_of_means, summarize
from repro.errors import AnalysisError
from repro.graphs.base import Graph
from repro.graphs.families import GraphFamily, get_family
from repro.randomness.rng import SeedLike, derive_generator

__all__ = [
    "ProtocolMeasurement",
    "GraphComparison",
    "FamilySweep",
    "measure_protocol",
    "compare_protocols_on_graph",
    "sweep_family",
]


@dataclass(frozen=True)
class ProtocolMeasurement:
    """Monte Carlo measurement of one protocol on one graph.

    Attributes:
        protocol: canonical protocol name.
        graph_name: graph display name.
        num_vertices: graph size ``n``.
        sample: the raw spreading-time sample.
        mean: mean spreading time with confidence interval.
        high_probability: estimated ``T_{1/n}``.
    """

    protocol: str
    graph_name: str
    num_vertices: int
    sample: SpreadingTimeSample
    mean: MeanEstimate
    high_probability: float


@dataclass(frozen=True)
class GraphComparison:
    """Comparison of several protocols on one graph.

    ``measurements`` is keyed by protocol name; ``ratios`` holds the ratios
    of mean spreading times requested by the caller, keyed by
    ``"A/B"`` strings.
    """

    graph_name: str
    num_vertices: int
    measurements: dict[str, ProtocolMeasurement]
    ratios: dict[str, RatioEstimate] = field(default_factory=dict)

    def measurement(self, protocol: str) -> ProtocolMeasurement:
        try:
            return self.measurements[protocol]
        except KeyError:
            raise AnalysisError(
                f"no measurement for protocol {protocol!r} on {self.graph_name}"
            ) from None


@dataclass(frozen=True)
class FamilySweep:
    """Measurements of a family over a size sweep (one :class:`GraphComparison` per size)."""

    family_name: str
    sizes: tuple[int, ...]
    comparisons: tuple[GraphComparison, ...]

    def series(self, protocol: str, quantity: str = "mean") -> list[float]:
        """Extract one series across sizes: ``"mean"`` or ``"hp"`` (T_{1/n})."""
        values = []
        for comparison in self.comparisons:
            measurement = comparison.measurement(protocol)
            if quantity == "mean":
                values.append(measurement.mean.value)
            elif quantity == "hp":
                values.append(measurement.high_probability)
            else:
                raise AnalysisError(f"unknown quantity {quantity!r}; use 'mean' or 'hp'")
        return values

    def ratio_series(self, key: str) -> list[float]:
        """Extract the ratio series for a ``"A/B"`` ratio key across sizes."""
        values = []
        for comparison in self.comparisons:
            if key not in comparison.ratios:
                raise AnalysisError(f"ratio {key!r} was not computed for {comparison.graph_name}")
            values.append(comparison.ratios[key].value)
        return values


def measure_protocol(
    graph: Graph,
    source: int | str,
    protocol: str,
    *,
    trials: int,
    seed: SeedLike = None,
    engine_options: Optional[dict] = None,
    batch: BatchSpec = "auto",
    parallel: bool = False,
    num_workers: Optional[int] = None,
) -> ProtocolMeasurement:
    """Run trials of one protocol on one graph and summarise them.

    ``batch`` is the dispatch mode of
    :func:`~repro.analysis.montecarlo.run_trials`; every mode produces an
    identical sample for the same seed, so it is a pure throughput knob.

    ``parallel`` shards the trials across the session's persistent process
    pool via :func:`~repro.analysis.parallel.run_trials_parallel`.  Unlike
    ``batch`` this changes the per-trial seed spawning — parallel samples
    are reproducible but not bit-identical to serial ones; sweeps that flip
    it should treat it as a different (equally valid) random draw of the
    same distribution.
    """
    kwargs = dict(trials=trials, seed=seed, engine_options=engine_options, batch=batch)
    if parallel:
        sample = run_trials_parallel(
            graph,
            source,
            protocol,
            num_workers=num_workers,
            **kwargs,
        )
    else:
        sample = run_trials(graph, source, protocol, **kwargs)
    return ProtocolMeasurement(
        protocol=protocol,
        graph_name=graph.name,
        num_vertices=graph.num_vertices,
        sample=sample,
        mean=summarize(sample.times),
        high_probability=high_probability_time(sample).value,
    )


def compare_protocols_on_graph(
    graph: Graph,
    source: int | str,
    protocols: Sequence[str],
    *,
    trials: int,
    seed: SeedLike = None,
    ratios: Sequence[tuple[str, str]] = (),
    engine_options: Optional[dict] = None,
    batch: BatchSpec = "auto",
    parallel: bool = False,
    num_workers: Optional[int] = None,
) -> GraphComparison:
    """Measure several protocols on one graph and compute requested mean ratios.

    Args:
        graph: the graph to measure on.
        source: vertex id or ``"random"``.
        protocols: protocol names to measure.
        trials: trials per protocol.
        seed: master seed (per-protocol sub-seeds are derived from it).
        ratios: pairs ``(numerator_protocol, denominator_protocol)`` whose
            ratio of mean spreading times should be estimated.
        engine_options: forwarded to the engines.
        batch: Monte Carlo batch dispatch mode (seed-for-seed identical
            samples in every mode; see
            :func:`~repro.analysis.montecarlo.run_trials`).
        parallel: shard each protocol's trials across the persistent
            process pool (see :func:`measure_protocol`).
        num_workers: worker override for the parallel path.

    Returns:
        A :class:`GraphComparison`.
    """
    if not protocols:
        raise AnalysisError("need at least one protocol to compare")
    measurements: dict[str, ProtocolMeasurement] = {}
    for protocol in protocols:
        protocol_rng = derive_generator(seed, graph.name, protocol)
        measurements[protocol] = measure_protocol(
            graph,
            source,
            protocol,
            trials=trials,
            seed=protocol_rng,
            engine_options=engine_options,
            batch=batch,
            parallel=parallel,
            num_workers=num_workers,
        )
    ratio_estimates: dict[str, RatioEstimate] = {}
    for numerator, denominator in ratios:
        if numerator not in measurements or denominator not in measurements:
            raise AnalysisError(
                f"ratio {numerator}/{denominator} refers to protocols that were not measured"
            )
        ratio_rng = derive_generator(seed, graph.name, numerator, denominator, "ratio")
        ratio_estimates[f"{numerator}/{denominator}"] = bootstrap_ratio_of_means(
            measurements[numerator].sample.times,
            measurements[denominator].sample.times,
            seed=ratio_rng,
        )
    return GraphComparison(
        graph_name=graph.name,
        num_vertices=graph.num_vertices,
        measurements=measurements,
        ratios=ratio_estimates,
    )


def sweep_family(
    family: GraphFamily | str,
    protocols: Sequence[str],
    *,
    sizes: Optional[Sequence[int]] = None,
    trials: int = 100,
    source: int | str = 0,
    seed: SeedLike = None,
    ratios: Sequence[tuple[str, str]] = (),
    engine_options: Optional[dict] = None,
    batch: BatchSpec = "auto",
    parallel: bool = False,
    num_workers: Optional[int] = None,
) -> FamilySweep:
    """Measure a set of protocols on a graph family over a size sweep.

    For deterministic families the same graph instance is reused for all
    trials at a given size.  For random families a representative graph is
    sampled per size (with a seed derived from the master seed), which keeps
    the semantics of the theorems — they are statements about individual
    graphs — while still exercising the family; experiments that want
    averaging over the family can pass a factory to
    :func:`repro.analysis.montecarlo.run_trials` directly.

    With ``parallel`` every (size, protocol) cell shards its trials across
    the *same* persistent process pool — pool startup and the per-graph
    shared-memory CSR segment are paid once per grid point, not per cell —
    and each cell's chunks return their samples to the parent.
    """
    if isinstance(family, str):
        family = get_family(family)
    size_list = tuple(int(s) for s in (sizes if sizes is not None else family.default_sizes))
    if not size_list:
        raise AnalysisError("size sweep must contain at least one size")
    comparisons = []
    for size in size_list:
        graph_rng = derive_generator(seed, family.name, size, "graph")
        graph = family.build(size, seed=int(graph_rng.integers(2**31 - 1)))
        comparison_rng = derive_generator(seed, family.name, size, "trials")
        comparisons.append(
            compare_protocols_on_graph(
                graph,
                source,
                protocols,
                trials=trials,
                seed=comparison_rng,
                ratios=ratios,
                engine_options=engine_options,
                batch=batch,
                parallel=parallel,
                num_workers=num_workers,
            )
        )
    return FamilySweep(
        family_name=family.name,
        sizes=size_list,
        comparisons=tuple(comparisons),
    )
