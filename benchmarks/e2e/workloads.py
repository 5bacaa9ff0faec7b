"""The four workloads of the end-to-end sweep benchmark.

Every workload is a closed loop with one client, as in a sweep driver: a
*pass* runs a fixed list of cells back to back, a cell being one call to
``run_trials`` or ``run_trials_parallel``, and the next cell starts when the
previous one returns.  Every pass of a run repeats the same cells with the
same seeds, so a later pass must reproduce the first one exactly and the
per-pass work counts of the traced run repeat exactly.  The inputs (random
graphs, sources, trial seeds) come from the run's seed, except where a
workload copies a driver that seeds its graphs otherwise.

Each workload function does the workload's set-up (graph builds, one warm
cell per distinct configuration, which also starts the pool where there is
one) and returns a :class:`Plan`: the cells of one pass, the
correctness check run after the timed phase, and the teardown.
"""

from __future__ import annotations

import functools
import tempfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.analysis import montecarlo, parallel, quantiles
from repro.analysis.bounds import theorem1_constant
from repro.graphs import async_favoring_gap_graph, get_family, random_regular_graph
from repro.scenarios import as_scenario
from repro.telemetry.manifest import ManifestWriter

from tracing import span

#: Theorem 1 threshold on T_hp(pp-a) / (T_hp(pp) + ln n), as experiment E1 uses it.
THEOREM1_LIMIT = 4.0

#: Significance level of the distribution-equality checks of ``views-aux``.
KS_ALPHA = 1e-3


@dataclass
class Cell:
    """One call into the program, plus the per-cell follow-up a sweep makes."""

    label: str
    trials: int
    run: Callable[[], montecarlo.SpreadingTimeSample]
    after: Optional[Callable[[montecarlo.SpreadingTimeSample, float], object]] = None


@dataclass
class Plan:
    """A workload after set-up: one pass of cells, its check, its teardown.

    ``check`` receives the first pass's samples (``None`` for a cell that
    raised) and returns one line per failed check.
    """

    cells: list[Cell]
    check: Callable[[list], list[str]]
    close: Callable[[], None] = field(default=lambda: None)


def sub_seed(seed: int, *labels: object) -> int:
    """A 63-bit seed derived from the run seed and a label path."""
    key = zlib.crc32("/".join(map(str, labels)).encode())
    return int(np.random.SeedSequence([seed, key]).generate_state(2, np.uint64)[0] >> 1)


def scaled(size: int, scale: float) -> int:
    return max(16, round(size * scale))


def build(builder: Callable, *args, **kwargs):
    return span("graphs.build", builder, *args, **kwargs)


def run_trials(graph, source, protocol, **kwargs):
    return span("analysis.montecarlo.run_trials", montecarlo.run_trials, graph, source, protocol, **kwargs)


def run_trials_parallel(graph, source, protocol, **kwargs):
    return span(
        "analysis.parallel.run_trials_parallel",
        parallel.run_trials_parallel,
        graph,
        source,
        protocol,
        parallel="shared",
        **kwargs,
    )


def replay_chunks(graph, source, protocol, *, trials, seed, **kwargs) -> tuple:
    """The times ``run_trials_parallel`` must return, computed in-process.

    Runs the chunks of the pool's deterministic ``chunk_plan`` one after
    another through ``run_trials``.
    """
    _graph_seed, plan = parallel.chunk_plan(trials, parallel.default_worker_count(), seed)
    times: list[float] = []
    for size, chunk_seed in plan:
        times.extend(
            montecarlo.run_trials(graph, source, protocol, trials=size, seed=chunk_seed, **kwargs).times
        )
    return tuple(times)


def _mismatch(label: str, sample, expected: tuple) -> list[str]:
    if sample is None or sample.times == expected:
        return []
    return [f"{label}: replay differs from the timed cell"]


# --------------------------------------------------------------------- #
# e1-batch
# --------------------------------------------------------------------- #

E1_FAMILIES = ("star", "hypercube", "random_regular_3", "erdos_renyi", "async_gap")
E1_SIZES = (256, 1024)
E1_TRIALS = 128
E1_PROTOCOLS = ("pp", "pp-a")
WARM_TRIALS = 8


def e1_batch(seed: int, scale: float) -> Plan:
    """The Theorem-1 sweep: ``pp`` and ``pp-a`` over five families, in-process."""
    graphs = [
        (family, size, build(get_family(family).build, scaled(size, scale), seed=sub_seed(seed, family, size)))
        for family in E1_FAMILIES
        for size in E1_SIZES
    ]
    configs = [
        (family, size, protocol, graph, sub_seed(seed, family, size, protocol))
        for family, size, graph in graphs
        for protocol in E1_PROTOCOLS
    ]
    cells = []
    for family, size, protocol, graph, cell_seed in configs:
        run_trials(graph, 0, protocol, trials=WARM_TRIALS, seed=cell_seed, batch=True)
        cells.append(
            Cell(
                label=f"{family}/{size}/{protocol}",
                trials=E1_TRIALS,
                run=functools.partial(
                    run_trials, graph, 0, protocol, trials=E1_TRIALS, seed=cell_seed, batch=True
                ),
                after=lambda sample, _seconds: span(
                    "analysis.quantiles.high_probability_time", quantiles.high_probability_time, sample
                ),
            )
        )

    def check(samples: list) -> list[str]:
        failures = []
        by_config = {}
        # One pp and one pp-a cell are replayed, of a family the seed picks.
        replayed = E1_FAMILIES[seed % len(E1_FAMILIES)], min(E1_SIZES)
        for (family, size, protocol, graph, cell_seed), sample in zip(configs, samples):
            by_config[family, size, protocol] = sample
            if (family, size) == replayed:
                serial = montecarlo.run_trials(
                    graph, 0, protocol, trials=E1_TRIALS, seed=cell_seed, batch=False
                )
                failures += _mismatch(f"{family}/{size}/{protocol} batch=False", sample, serial.times)
        for family, size, graph in graphs:
            sync, asynchronous = by_config[family, size, "pp"], by_config[family, size, "pp-a"]
            if sync is None or asynchronous is None:
                continue
            constant = theorem1_constant(
                quantiles.high_probability_time(asynchronous).value,
                quantiles.high_probability_time(sync).value,
                graph.num_vertices,
            )
            if not constant < THEOREM1_LIMIT:
                failures.append(f"{family}/{size}: Theorem 1 constant {constant:.3f} >= {THEOREM1_LIMIT}")
        return failures

    return Plan(cells=cells, check=check)


# --------------------------------------------------------------------- #
# e12-parallel
# --------------------------------------------------------------------- #

# The cell loop of ``scenarios sweep --parallel --manifest``: one graph per
# family, built with ``seed=size``; every cell a ``run_trials_parallel`` call
# with ``batch="auto"``, partial results and no sweep scope, followed by one
# manifest ``cell`` event.  The grid is the sweep's default grid without
# ``targeted-churn``, whose cells never complete and run to the default
# horizon of about 10^5 rounds (10-25 s a cell), plus an adaptive-loss cell.
E12_FAMILIES = (
    "star", "complete", "hypercube", "binary_tree",
    "double_star", "erdos_renyi", "random_regular_3", "random_regular_4",
)
E12_SIZE = 128
E12_TRIALS = 48
E12_SCENARIOS = (
    None,
    "loss:p=0.1",
    "loss:p=0.3",
    "burst-loss:p_gb=0.2,p_bg=0.5,p_loss_bad=0.8",
    "churn:crash_rate=0.05",
    "adaptive-loss:p=0.5,budget=16",
)
E12_OPTIONS = {"on_budget_exhausted": "partial"}


def e12_parallel(seed: int, scale: float) -> Plan:
    """The small-cell scenario sweep on the pool, one manifest event per cell."""
    size = scaled(E12_SIZE, scale)
    graphs = [(family, build(get_family(family).build, size, seed=size)) for family in E12_FAMILIES]
    scenarios = [(spec or "baseline", as_scenario(spec)) for spec in E12_SCENARIOS]
    # A run writes only inside its checkout, so the manifest goes next to this file.
    manifest_dir = tempfile.TemporaryDirectory(prefix=".manifest-", dir=Path(__file__).parent)
    writer = ManifestWriter(Path(manifest_dir.name) / "manifest.jsonl")
    configs = []
    cells = []
    for family, graph in graphs:
        for label, scenario in scenarios:
            kwargs = dict(
                trials=E12_TRIALS, seed=sub_seed(seed, family, label), batch="auto",
                scenario=scenario, engine_options=E12_OPTIONS,
            )
            configs.append((family, graph, label, kwargs))
            run_trials_parallel(graph, 0, "pp", **kwargs)
            row = dict(family=family, n=graph.num_vertices, protocol="pp", view="global", scenario=label)
            cells.append(
                Cell(
                    label=f"{family}/{label}",
                    trials=E12_TRIALS,
                    run=functools.partial(run_trials_parallel, graph, 0, "pp", **kwargs),
                    after=lambda sample, seconds, row=row: span(
                        "telemetry.manifest.event",
                        writer.event,
                        "cell",
                        wall_seconds=seconds,
                        mean=sample.mean,
                        **row,
                    ),
                )
            )

    def check(samples: list) -> list[str]:
        failures = []
        # One cell per scenario is replayed, of a family the seed picks.
        replayed = E12_FAMILIES[seed % len(E12_FAMILIES)]
        for (family, graph, label, kwargs), sample in zip(configs, samples):
            if family == replayed:
                expected = replay_chunks(graph, 0, "pp", **kwargs)
                failures += _mismatch(f"{family}/{label} chunk replay", sample, expected)
        return failures

    return Plan(cells=cells, check=check, close=manifest_dir.cleanup)


# --------------------------------------------------------------------- #
# views-aux
# --------------------------------------------------------------------- #

VIEWS_SIZE = 256
VIEWS_CELLS = (
    # (protocol, view, batch, trials)
    ("pp-a", "node_clocks", True, 64),
    ("pp-a", "edge_clocks", True, 64),
    ("pp-a", "node_clocks", "pooled", 128),
    ("pp-a", "edge_clocks", "pooled", 128),
    ("ppx", None, True, 64),
    ("ppy", None, True, 64),
)


def views_aux(seed: int, scale: float) -> Plan:
    """Clock views per-trial and pooled, plus ``ppx``/``ppy``, in-process."""
    size = scaled(VIEWS_SIZE, scale)
    graphs = [
        ("regular8", build(random_regular_graph, size, 8, seed=sub_seed(seed, "regular8"))),
        ("async_gap", build(async_favoring_gap_graph, size)),
    ]
    configs = []
    cells = []
    for name, graph in graphs:
        for protocol, view, batch, trials in VIEWS_CELLS:
            options = {"view": view} if view else None
            cell_seed = sub_seed(seed, name, protocol, view, batch)
            configs.append((name, graph, protocol, view, batch, trials, options, cell_seed))
            run_trials(graph, 0, protocol, trials=WARM_TRIALS, seed=cell_seed, batch=batch, engine_options=options)
            cells.append(
                Cell(
                    label=f"{name}/{protocol}/{view}/{'pooled' if batch == 'pooled' else 'per-trial'}",
                    trials=trials,
                    run=functools.partial(
                        run_trials, graph, 0, protocol, trials=trials, seed=cell_seed,
                        batch=batch, engine_options=options,
                    ),
                )
            )

    def check(samples: list) -> list[str]:
        failures = []
        found = {}
        for config, sample in zip(configs, samples):
            name, graph, protocol, view, batch, trials, options, cell_seed = config
            found[name, protocol, view, batch] = (config, sample)
            if view and batch is True:
                serial = montecarlo.run_trials(
                    graph, 0, protocol, trials=trials, seed=cell_seed, batch=False, engine_options=options
                )
                failures += _mismatch(f"{name}/{view} batch=False", sample, serial.times)

        def same_law(label: str, *keys: tuple) -> list[str]:
            """Two-sample KS test of two cells; a rejection is retested once.

            With six tests per run a spurious rejection at ``KS_ALPHA``
            would hit about 0.6% of runs; a retest on fresh samples brings
            that to about 6e-6, while a real difference fails both tests.
            """
            from scipy import stats

            pair = [found[key] for key in keys]
            if any(sample is None for _, sample in pair):
                return []
            if stats.ks_2samp(*(sample.times for _, sample in pair)).pvalue >= KS_ALPHA:
                return []
            fresh = [
                montecarlo.run_trials(
                    graph, 0, protocol, trials=trials, seed=sub_seed(seed, "retest", label, side),
                    batch=batch, engine_options=options,
                ).times
                for side, ((_, graph, protocol, _, batch, trials, options, _), _) in enumerate(pair)
            ]
            retest = stats.ks_2samp(*fresh).pvalue
            return [] if retest >= KS_ALPHA else [f"{label}: KS p={retest:.2e} < {KS_ALPHA}"]

        for name, _graph in graphs:
            for view in ("node_clocks", "edge_clocks"):
                failures += same_law(
                f"{name}/{view} pooled vs per-trial", (name, "pp-a", view, "pooled"), (name, "pp-a", view, True)
            )
            failures += same_law(
                f"{name} node_clocks vs edge_clocks",
                (name, "pp-a", "node_clocks", True),
                (name, "pp-a", "edge_clocks", True),
            )
        return failures

    return Plan(cells=cells, check=check)


# --------------------------------------------------------------------- #
# million
# --------------------------------------------------------------------- #

MILLION_SIZE = 10**6
MILLION_TRIALS = 4


def million(seed: int, scale: float) -> Plan:
    """A few huge pool chunks on a 10^6-vertex random 3-regular graph."""
    size = scaled(MILLION_SIZE, scale)
    graph = build(get_family("random_regular_3").build, size, seed=sub_seed(seed, "graph"))
    source = int(np.random.default_rng(sub_seed(seed, "source")).integers(graph.num_vertices))
    cell_seed = sub_seed(seed, "cell")
    run_trials_parallel(
        graph, source, "pp", trials=parallel.default_worker_count(), seed=sub_seed(seed, "warm")
    )
    cells = [
        Cell(
            label="regular3/pp",
            trials=MILLION_TRIALS,
            run=functools.partial(
                run_trials_parallel, graph, source, "pp", trials=MILLION_TRIALS, seed=cell_seed
            ),
        )
    ]

    def check(samples: list) -> list[str]:
        expected = replay_chunks(graph, source, "pp", trials=MILLION_TRIALS, seed=cell_seed)
        return _mismatch("regular3/pp chunk replay", samples[0], expected)

    return Plan(cells=cells, check=check)


WORKLOADS: dict[str, Callable[[int, float], Plan]] = {
    "e1-batch": e1_batch,
    "e12-parallel": e12_parallel,
    "views-aux": views_aux,
    "million": million,
}
