"""Experiment E12 — spreading-time blowup under adversity scenarios.

The paper's guarantees are proved for a static graph with perfectly reliable
exchanges.  This experiment measures how robust the measured spreading times
are when that assumption is broken: it sweeps message-loss and node-churn
rates (plus one composed loss+churn setting) over the paper's standard
topologies — the star, a random regular graph, and the async-favoring gap
construction — for both the synchronous and asynchronous push–pull
protocols, and reports the *blowup*: the ratio of the perturbed mean
spreading time to the unperturbed baseline on the same (graph, protocol)
cell.

Expected shape: blowups are ≥ 1 (adversity never helps — scenario times
stochastically dominate the clean times) and increase monotonically with the
loss rate.  For synchronous push–pull a loss rate ``p`` roughly stretches
time by ``1/(1-p)`` on conductance-limited graphs; churn hits hub-dominated
topologies (star) much harder than expanders, because progress stalls
whenever the hub is down.

All measurement cells run through ``run_trials(batch="auto")``, so the sweep
exercises the vectorised scenario kernels end to end.
"""

from __future__ import annotations

import csv
import time
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.analysis.montecarlo import run_trials
from repro.analysis.parallel import run_trials_parallel
from repro.core.budgets import scenario_rejection
from repro.core.protocols import get_protocol
from repro.errors import AnalysisError
from repro.experiments.presets import get_preset
from repro.experiments.records import ExperimentResult
from repro.graphs.base import Graph
from repro.graphs.families import get_family
from repro.graphs.gap_graphs import async_favoring_gap_graph
from repro.graphs.generators import star_graph
from repro.graphs.random_graphs import random_regular_graph
from repro.randomness.rng import SeedLike, derive_generator
from repro.scenarios.base import MessageLoss, NodeChurn, Scenario, as_scenario
from repro.telemetry.manifest import ManifestWriter
from repro.telemetry.metrics import current_metrics
from repro.telemetry.trace import CoverageRecorder, TraceSpec

#: Column order of the ``--curves`` CSV emitted by :func:`sweep_scenarios`.
CURVE_FIELDS = (
    "family", "n", "protocol", "view", "scenario",
    "time", "p10", "p50", "p90", "mean",
)

__all__ = ["run", "sweep_scenarios", "DEFAULT_SWEEP_GRID"]

#: The default scenario sweep: label -> scenario (None = clean baseline).
DEFAULT_SWEEP: tuple[tuple[str, Optional[Scenario]], ...] = (
    ("baseline", None),
    ("loss 0.1", MessageLoss(0.1)),
    ("loss 0.3", MessageLoss(0.3)),
    ("churn 0.05", NodeChurn(0.05, 0.5)),
    ("churn 0.15", NodeChurn(0.15, 0.5)),
    ("loss 0.2 + churn 0.05", MessageLoss(0.2) | NodeChurn(0.05, 0.5)),
)


def _graphs(n: int) -> list[Graph]:
    return [
        star_graph(n),
        random_regular_graph(n, 4, seed=n),
        async_favoring_gap_graph(max(n, 16)),
    ]


def run(
    preset: str = "quick",
    *,
    seed: SeedLike = 20160729,
    sizes: Optional[Sequence[int]] = None,
    protocols: Sequence[str] = ("pp", "pp-a"),
    scenario=None,
    parallel: bool = False,
    num_workers: Optional[int] = None,
) -> ExperimentResult:
    """Run experiment E12 and return its result table.

    Args:
        preset: experiment preset (sets graph size and trial count).
        seed: master seed (each cell derives its own stable sub-stream).
        sizes: optional size sweep override; only the largest size is used
            (the experiment is about perturbation strength, not scaling).
        protocols: protocols to measure (defaults to both push–pull models).
        scenario: optional single scenario (or CLI spec string) replacing
            the default loss/churn sweep — the table then compares just that
            scenario against the clean baseline (this is what
            ``python -m repro run E12 --scenario ...`` passes).
        parallel: shard every cell's trials across the session's persistent
            process pool via the zero-copy shared-memory transport; the pool
            and the per-graph CSR segments are reused across the whole
            (graph, protocol, scenario) grid.  Changes the per-trial seed
            spawning (reproducible, but a different draw than serial).
        num_workers: worker override for the parallel path.
    """
    config = get_preset(preset)
    size_sweep = tuple(sizes) if sizes is not None else config.sizes
    n = max(size_sweep)

    override = as_scenario(scenario)
    if override is not None:
        sweep: tuple[tuple[str, Optional[Scenario]], ...] = (
            ("baseline", None),
            (override.spec(), override),
        )
    else:
        sweep = DEFAULT_SWEEP

    rows: list[dict[str, object]] = []
    blowups: dict[tuple[str, str], dict[str, float]] = {}
    # Protocols whose engines reject the override (a Delay on synchronous
    # rounds, any runtime scenario on ppx/ppy), with the reason.
    skipped: dict[str, str] = {}
    for protocol in protocols:
        spec = get_protocol(protocol)
        rejection = scenario_rejection(
            protocol, override,
            synchronous=spec.synchronous, analysis_only=not spec.realistic,
        )
        if rejection is not None:
            skipped[protocol] = str(rejection)
    for graph in _graphs(n):
        for protocol in protocols:
            if protocol in skipped:
                continue
            baseline_mean: Optional[float] = None
            for label, cell_scenario in sweep:
                cell_kwargs = dict(
                    trials=config.trials,
                    seed=derive_generator(seed, "scenarios", graph.name, protocol, label),
                    batch="auto",
                    scenario=cell_scenario,
                    engine_options={"on_budget_exhausted": "partial"},
                )
                if parallel:
                    sample = run_trials_parallel(
                        graph, 0, protocol,
                        num_workers=num_workers, **cell_kwargs,
                    )
                else:
                    sample = run_trials(graph, 0, protocol, **cell_kwargs)
                mean = sample.mean
                if label == "baseline":
                    baseline_mean = mean
                blowup = mean / baseline_mean if baseline_mean else float("nan")
                blowups.setdefault((graph.name, protocol), {})[label] = blowup
                rows.append(
                    {
                        "graph": graph.name,
                        "protocol": protocol,
                        "scenario": label,
                        "mean T": mean,
                        "blowup": blowup,
                    }
                )

    conclusions: dict[str, object] = {}
    all_blowups = [
        value
        for per_cell in blowups.values()
        for label, value in per_cell.items()
        if label != "baseline"
    ]
    if all_blowups:
        conclusions["max_blowup"] = max(all_blowups)
        # Adversity never helps (0.9 tolerates Monte Carlo noise on the
        # fastest cells, where the clean time is only a couple of rounds).
        conclusions["adversity_never_helps"] = min(all_blowups) >= 0.9
    if override is None:
        monotone = all(
            per_cell["loss 0.3"] >= per_cell["loss 0.1"] - 0.15
            for per_cell in blowups.values()
        )
        conclusions["loss_blowup_monotone"] = monotone
        conclusions["max_churn_blowup"] = max(
            per_cell["churn 0.15"] for per_cell in blowups.values()
        )

    notes = [
        f"preset={config.name}, trials={config.trials} per cell, n={n}, source = vertex 0",
        "blowup = mean perturbed spreading time / mean clean spreading time on the same cell",
        "all cells dispatch through run_trials(batch='auto'): the vectorised scenario kernels",
    ]
    if override is not None:
        notes.append(f"scenario override: {override.spec()}")
    for protocol, reason in skipped.items():
        notes.append(f"skipped {protocol}: {reason}")
    return ExperimentResult(
        experiment_id="E12",
        title="Adversity scenarios: spreading-time blowup under loss and churn",
        claim="Perturbed spreading times dominate the clean ones; blowup grows with loss rate",
        columns=["graph", "protocol", "scenario", "mean T", "blowup"],
        rows=rows,
        conclusions=conclusions,
        notes=notes,
    )


#: Default scenario grid of :func:`sweep_scenarios` (``;``-separated CLI form).
DEFAULT_SWEEP_GRID: tuple[str, ...] = (
    "loss:p=0.1",
    "loss:p=0.3",
    "burst-loss:p_gb=0.2,p_bg=0.5,p_loss_bad=0.8",
    "churn:crash_rate=0.05",
    "targeted-churn:fraction=0.05",
)


def sweep_scenarios(
    families: Sequence[str],
    scenarios: Sequence[Union[str, Scenario]],
    *,
    size: int = 128,
    protocols: Sequence[str] = ("pp", "pp-a"),
    view: str = "global",
    trials: int = 64,
    seed: SeedLike = 20160729,
    output: Optional[Union[str, Path]] = None,
    parallel: bool = False,
    num_workers: Optional[int] = None,
    curves: bool = False,
    curves_output: Optional[Union[str, Path]] = None,
    curve_points: int = 200,
    manifest: Optional[Union[str, Path]] = None,
) -> list[dict[str, object]]:
    """Blowup curves over a (family × scenario-grid) product.

    The workhorse behind ``python -m repro scenarios sweep``: for every
    (family, protocol) cell it measures the clean baseline plus every
    scenario of the grid, reports the blowup (perturbed mean over clean
    mean), and optionally writes the rows as a CSV.  Incompletable cells
    (e.g. targeted churn, which leaves the crashed vertices uninformed
    forever) run with ``on_budget_exhausted="partial"`` like E12.

    Args:
        families: registered graph-family names (see ``python -m repro
            families``).
        scenarios: scenario spec strings (or :class:`Scenario` objects);
            the clean baseline is always measured and need not be listed.
        size: number of vertices for every family build.
        protocols: canonical protocol names to measure.
        view: asynchronous view for the asynchronous protocols (the
            synchronous ones ignore it), so the sweep can exercise the
            clock-queue kernels end to end.
        trials: Monte Carlo trials per cell.
        seed: master seed (each cell derives its own stable sub-stream).
        output: optional CSV path for the blowup table.
        parallel: shard every cell across the session's persistent process
            pool (the zero-copy shared transport; one pool reused over the
            whole grid).
        num_workers: worker override for the parallel path.
        curves: record a per-cell coverage trace and emit a per-time
            coverage-quantile CSV (columns :data:`CURVE_FIELDS`; one row per
            grid time per cell).  Every cell is forced onto the batched
            kernels (``batch=True`` — seed-identical to what ``"auto"``
            batches, but with no serial fallback), so the curves come from
            the vectorised ``(trials, n)`` informing-time matrices, not a
            per-trial Python loop.
        curves_output: destination of the curve CSV; defaults to
            ``<output-stem>_curves.csv`` next to ``output`` (one of the two
            must be given when ``curves`` is set).
        curve_points: coverage-grid resolution per cell trace.
        manifest: optional JSONL manifest path — writes a ``run_start``
            event, one ``cell`` event per measurement (with wall seconds),
            one ``coverage`` event per traced cell, and a final ``summary``
            record carrying the ambient metric totals (when a registry is
            active via ``collecting_metrics``).

    Returns:
        The table as a list of row dicts
        (``family, n, protocol, view, scenario, mean, blowup``).
    """
    if not families:
        raise AnalysisError("sweep_scenarios needs at least one family")
    if trials < 1:
        raise AnalysisError(f"trials must be positive, got {trials}")
    grid: list[tuple[str, Optional[Scenario]]] = [("baseline", None)]
    for entry in scenarios:
        scenario = as_scenario(entry)
        if scenario is None:
            continue
        grid.append((scenario.spec(), scenario))
    if len(grid) < 2:
        raise AnalysisError("sweep_scenarios needs at least one scenario")
    curves_path: Optional[Path] = None
    if curves:
        if curve_points < 2:
            raise AnalysisError(f"curve_points must be >= 2, got {curve_points}")
        if curves_output is not None:
            curves_path = Path(curves_output)
        elif output is not None:
            out = Path(output)
            curves_path = out.with_name(out.stem + "_curves.csv")
        else:
            raise AnalysisError(
                "curves need a destination: pass curves_output, or output "
                "(the curve CSV then lands next to it as <stem>_curves.csv)"
            )

    manifest_writer = ManifestWriter(manifest) if manifest is not None else None
    sweep_started = time.perf_counter()
    if manifest_writer is not None:
        manifest_writer.event(
            "run_start",
            command="scenarios sweep",
            families=list(families),
            scenarios=[label for label, _ in grid[1:]],
            size=int(size),
            protocols=list(protocols),
            view=view,
            trials=int(trials),
            parallel=bool(parallel),
            curves=bool(curves),
        )

    rows: list[dict[str, object]] = []
    curve_rows: list[dict[str, object]] = []
    for family_name in families:
        family = get_family(family_name)  # validates the name eagerly
        graph = family.build(size, seed=size)
        for protocol in protocols:
            spec = get_protocol(protocol)
            synchronous = spec.synchronous
            cell_view = "global" if synchronous else view
            options: dict[str, object] = {"on_budget_exhausted": "partial"}
            if not synchronous:
                options["view"] = cell_view
            baseline_mean: Optional[float] = None
            for label, cell_scenario in grid:
                if scenario_rejection(
                    protocol, cell_scenario,
                    synchronous=synchronous, analysis_only=not spec.realistic,
                    view=cell_view,
                ) is not None:
                    # Combinations the engines reject (sync protocols have
                    # no clocks to delay, edge clocks cannot survive a graph
                    # resample, ppx/ppy take no runtime scenario) are
                    # skipped, not errored, so one grid serves mixed
                    # protocol lists.
                    continue
                recorder: Optional[CoverageRecorder] = None
                cell_kwargs = dict(
                    trials=trials,
                    seed=derive_generator(
                        seed, "scenario-sweep", family_name, protocol, label
                    ),
                    batch="auto",
                    scenario=cell_scenario,
                    engine_options=options,
                )
                if curves:
                    # Force the batched kernels: "auto" would fall back to
                    # the serial loop on small asynchronous cells, and the
                    # curves are specified to come from the (trials, n)
                    # batch matrices.  batch=True draws the same sample.
                    recorder = CoverageRecorder(TraceSpec(grid_points=curve_points))
                    cell_kwargs["batch"] = True
                    cell_kwargs["trace"] = recorder
                cell_started = time.perf_counter()
                if parallel:
                    sample = run_trials_parallel(
                        graph, 0, protocol,
                        num_workers=num_workers, **cell_kwargs,
                    )
                else:
                    sample = run_trials(graph, 0, protocol, **cell_kwargs)
                cell_seconds = time.perf_counter() - cell_started
                mean = sample.mean
                if label == "baseline":
                    baseline_mean = mean
                blowup = mean / baseline_mean if baseline_mean else float("nan")
                row: dict[str, object] = {
                    "family": family_name,
                    "n": graph.num_vertices,
                    "protocol": protocol,
                    "view": cell_view,
                    "scenario": label,
                    "mean": mean,
                    "blowup": blowup,
                }
                rows.append(row)
                if manifest_writer is not None:
                    manifest_writer.event("cell", wall_seconds=cell_seconds, **row)
                if recorder is not None:
                    trace = recorder.trace(protocol=protocol, graph_name=graph.name)
                    for point in trace.envelope_rows():
                        curve_rows.append(
                            {
                                "family": family_name,
                                "n": graph.num_vertices,
                                "protocol": protocol,
                                "view": cell_view,
                                "scenario": label,
                                **point,
                            }
                        )
                    if manifest_writer is not None:
                        manifest_writer.coverage(
                            trace,
                            family=family_name,
                            view=cell_view,
                            scenario=label,
                        )

    if output is not None:
        path = Path(output)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(
                handle,
                fieldnames=["family", "n", "protocol", "view", "scenario", "mean", "blowup"],
            )
            writer.writeheader()
            writer.writerows(rows)
    if curves_path is not None:
        curves_path.parent.mkdir(parents=True, exist_ok=True)
        with curves_path.open("w", newline="") as handle:
            curve_writer = csv.DictWriter(handle, fieldnames=list(CURVE_FIELDS))
            curve_writer.writeheader()
            curve_writer.writerows(curve_rows)
    if manifest_writer is not None:
        metrics = current_metrics()
        manifest_writer.summary(
            metrics=metrics.snapshot() if metrics is not None else None,
            command="scenarios sweep",
            cells=len(rows),
            curve_rows=len(curve_rows),
            wall_seconds=time.perf_counter() - sweep_started,
        )
    return rows
