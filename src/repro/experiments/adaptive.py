"""Experiment E13 — adaptive vs oblivious adversaries at equal budget.

The adversity models of E12 are *oblivious*: loss and churn strike at
random, blind to where the rumor actually is.  This experiment measures how
much more damage an **adaptive** adversary does — one that observes the
informed set after every round/epoch and spends a hard budget on exactly
the vertices (:class:`~repro.scenarios.AdaptiveCrash`) or frontier contacts
(:class:`~repro.scenarios.AdaptiveLoss`) that matter.  For every (family ×
budget × protocol) cell it reports the blowup (perturbed mean spreading
time over the clean baseline on the same cell) alongside two oblivious
comparators at the same nominal budget:

* ``churn-random`` — :class:`~repro.scenarios.NodeChurn` with crash rate
  ``budget / n`` and no recovery.  Its *expected* number of crashes per
  epoch already equals the adaptive adversary's whole budget, so it is the
  generously-budgeted random baseline: the adaptive blowup dominating it is
  the strong form of the claim.
* ``targeted-static`` — :class:`~repro.scenarios.TargetedChurn` crashing
  the top ``budget`` vertices by degree at trial start: the same ranking
  the adaptive adversary uses, minus the ability to observe the rumor.

Every cell runs through the batched kernels with a coverage trace, so the
table carries per-time coverage envelope summaries (time to half coverage,
final mean coverage) and the full per-time envelope can be exported as a
CSV via ``curves_output``.

Expected shape: adaptive crash stalls hub-dominated topologies (star, the
gap construction) almost immediately — it waits for the hub to be informed
and kills it — while equal-budget random churn mostly hits harmless leaves,
so the adaptive blowup strictly dominates the random one there and grows
with the budget until the graph's cut vertices are exhausted.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.analysis.montecarlo import run_trials
from repro.analysis.parallel import run_trials_parallel
from repro.core.protocols import is_synchronous_protocol
from repro.experiments.presets import get_preset
from repro.experiments.records import ExperimentResult
from repro.graphs.base import Graph
from repro.graphs.gap_graphs import async_favoring_gap_graph
from repro.graphs.generators import star_graph
from repro.graphs.random_graphs import random_regular_graph
from repro.randomness.rng import SeedLike, derive_generator
from repro.scenarios.base import (
    AdaptiveCrash,
    AdaptiveLoss,
    NodeChurn,
    Scenario,
    TargetedChurn,
    as_scenario,
)
from repro.telemetry.trace import CoverageRecorder, TraceSpec

__all__ = ["run", "DEFAULT_BUDGETS", "CURVE_FIELDS"]

#: Default adversary budgets (absolute spend units, not fractions).
DEFAULT_BUDGETS: tuple[int, ...] = (1, 2, 4)

#: Column order of the optional ``curves_output`` CSV (per-time coverage
#: envelope rows, one per grid point per cell).
CURVE_FIELDS = (
    "graph", "n", "protocol", "budget", "scenario",
    "time", "p10", "p50", "p90", "mean",
)

#: Jammed contacts granted to the adaptive-loss adversary per crash-budget
#: unit, so both adaptive models sweep the same budget axis.
JAMS_PER_BUDGET_UNIT = 8


def _graphs(n: int) -> list[Graph]:
    return [
        star_graph(n),
        random_regular_graph(n, 4, seed=n),
        async_favoring_gap_graph(max(n, 16)),
    ]


def _budget_grid(n: int, budget: int) -> list[tuple[str, Scenario]]:
    """The adaptive scenarios and oblivious comparators for one budget."""
    return [
        ("adaptive-crash", AdaptiveCrash(budget=budget, k=1, by="degree")),
        ("adaptive-loss", AdaptiveLoss(p=1.0, budget=budget * JAMS_PER_BUDGET_UNIT)),
        ("churn-random", NodeChurn(crash_rate=min(1.0, budget / n), recovery_rate=0.0)),
        ("targeted-static", TargetedChurn(fraction=budget / n)),
    ]


def _coverage_summary(trace) -> tuple[float, float]:
    """(time to 50% mean coverage, final mean coverage) from one trace."""
    half_time = math.inf
    for index, fraction in enumerate(trace.mean_fraction):
        if fraction >= 0.5:
            half_time = float(trace.times[index])
            break
    final = float(trace.mean_fraction[-1]) if len(trace.mean_fraction) else 0.0
    return half_time, final


def run(
    preset: str = "quick",
    *,
    seed: SeedLike = 20160808,
    sizes: Optional[Sequence[int]] = None,
    protocols: Sequence[str] = ("pp", "pp-a"),
    budgets: Sequence[int] = DEFAULT_BUDGETS,
    scenario=None,
    parallel: bool = False,
    num_workers: Optional[int] = None,
    curve_points: int = 120,
    curves_output: Optional[Union[str, Path]] = None,
) -> ExperimentResult:
    """Run experiment E13 and return its result table.

    Args:
        preset: experiment preset (sets graph size and trial count).
        seed: master seed (each cell derives its own stable sub-stream).
        sizes: optional size override; only the largest size is used.
        protocols: protocols to measure (defaults to both push–pull models).
        budgets: adversary budgets to sweep (absolute spend units).
        scenario: optional single adaptive scenario (or CLI spec string,
            e.g. ``"adaptive-crash:budget=3,k=2"``) measured *instead of*
            the budget sweep — the table then compares just that scenario
            against the clean baseline and the equal-budget comparators are
            omitted (this is what ``python -m repro run E13 --scenario ...``
            passes).
        parallel: shard every cell's trials across the session's persistent
            process pool (chunks return their samples; each cell's coverage
            matrix is written by the workers into one shared segment, so
            the envelopes are identical to serial).
        num_workers: worker override for the parallel path.
        curve_points: coverage-grid resolution of each cell's trace.
        curves_output: optional CSV path receiving the full per-time
            coverage envelope rows (columns :data:`CURVE_FIELDS`).
    """
    config = get_preset(preset)
    size_sweep = tuple(sizes) if sizes is not None else config.sizes
    n = max(size_sweep)

    override = as_scenario(scenario)
    rows: list[dict[str, object]] = []
    curve_rows: list[dict[str, object]] = []
    blowups: dict[tuple[str, str, int], dict[str, float]] = {}
    coverages: dict[tuple[str, str, int], dict[str, float]] = {}

    for graph in _graphs(n):
        for protocol in protocols:
            # Crash adversaries stall spreading forever; a bounded horizon
            # with partial results keeps stalled cells cheap while leaving
            # unperturbed and loss-only cells far from the cap.
            options: dict[str, object] = {"on_budget_exhausted": "partial"}
            if is_synchronous_protocol(protocol):
                options["max_rounds"] = 400
            else:
                options["max_time"] = 48.0
            baseline_mean: Optional[float] = None
            if override is not None:
                grid: list[tuple[int, str, Optional[Scenario]]] = [
                    (0, "baseline", None),
                    (0, override.spec(), override),
                ]
            else:
                grid = [(0, "baseline", None)]
                for budget in budgets:
                    grid.extend(
                        (int(budget), label, cell_scenario)
                        for label, cell_scenario in _budget_grid(
                            graph.num_vertices, int(budget)
                        )
                    )
            for budget, label, cell_scenario in grid:
                recorder = CoverageRecorder(TraceSpec(grid_points=curve_points))
                cell_kwargs = dict(
                    trials=config.trials,
                    seed=derive_generator(
                        seed, "adaptive", graph.name, protocol, budget, label
                    ),
                    # The coverage envelopes are specified to come from the
                    # vectorised (trials, n) informing-time matrices, so the
                    # batched kernels are forced rather than "auto".
                    batch=True,
                    scenario=cell_scenario,
                    engine_options=options,
                    trace=recorder,
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
                blowups.setdefault((graph.name, protocol, budget), {})[label] = blowup
                trace = recorder.trace(protocol=protocol, graph_name=graph.name)
                half_time, final_coverage = _coverage_summary(trace)
                coverages.setdefault((graph.name, protocol, budget), {})[label] = (
                    final_coverage
                )
                rows.append(
                    {
                        "graph": graph.name,
                        "protocol": protocol,
                        "budget": budget,
                        "scenario": label,
                        "mean T": mean,
                        "blowup": blowup,
                        "t@50%": half_time,
                        "coverage": final_coverage,
                    }
                )
                for point in trace.envelope_rows():
                    curve_rows.append(
                        {
                            "graph": graph.name,
                            "n": graph.num_vertices,
                            "protocol": protocol,
                            "budget": budget,
                            "scenario": label,
                            **point,
                        }
                    )

    conclusions: dict[str, object] = {}
    adaptive_blowups = [
        cell["adaptive-crash"] for cell in blowups.values() if "adaptive-crash" in cell
    ]
    if adaptive_blowups:
        finite = [value for value in adaptive_blowups if math.isfinite(value)]
        conclusions["max_adaptive_blowup"] = max(finite) if finite else math.inf
        conclusions["stalled_adaptive_cells"] = sum(
            1 for value in adaptive_blowups if math.isinf(value)
        )
        # The headline claim, on the topologies where adaptivity matters:
        # at equal budget, observing the informed set never helps the rumor.
        # Stated on final coverage — always finite, unlike stalled means.
        hub_cells = [
            cell
            for (graph_name, _protocol, _budget), cell in coverages.items()
            if "adaptive-crash" in cell and "churn-random" in cell
            and ("star" in graph_name or "gap" in graph_name)
        ]
        conclusions["adaptive_dominates_random"] = all(
            cell["adaptive-crash"] <= cell["churn-random"] + 0.05
            for cell in hub_cells
        )
        budget_series: dict[tuple[str, str], list[tuple[int, float]]] = {}
        for (graph_name, protocol, budget), cell in coverages.items():
            if "adaptive-crash" in cell:
                budget_series.setdefault((graph_name, protocol), []).append(
                    (budget, cell["adaptive-crash"])
                )
        conclusions["crash_severity_monotone_in_budget"] = all(
            all(c2 <= c1 + 0.05 for (_, c1), (_, c2) in zip(series, series[1:]))
            for series in (sorted(points) for points in budget_series.values())
        )

    if curves_output is not None:
        path = Path(curves_output)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(CURVE_FIELDS))
            writer.writeheader()
            writer.writerows(curve_rows)

    notes = [
        f"preset={config.name}, trials={config.trials} per cell, n={n}, source = vertex 0",
        "blowup = mean perturbed spreading time / mean clean spreading time on the same cell",
        "churn-random's EXPECTED crashes per epoch already equal the whole adaptive budget, "
        "so adaptive >= random is the strong form of the dominance claim",
        f"adaptive-loss gets {JAMS_PER_BUDGET_UNIT} jammed contacts (p=1) per budget unit",
        "t@50% / coverage come from each cell's batched coverage trace "
        f"({curve_points}-point grid); full envelopes via curves_output",
    ]
    if override is not None:
        notes.append(f"scenario override: {override.spec()}")
    return ExperimentResult(
        experiment_id="E13",
        title="Adaptive adversaries: blowup vs oblivious baselines at equal budget",
        claim="An informed-set-observing adversary amplifies spreading time beyond "
        "any equal-budget oblivious adversary, increasingly with budget",
        columns=[
            "graph", "protocol", "budget", "scenario",
            "mean T", "blowup", "t@50%", "coverage",
        ],
        rows=rows,
        conclusions=conclusions,
        notes=notes,
    )
