"""Command-line interface: list and run the paper's experiments.

Usage examples::

    # list everything that can be run
    python -m repro list

    # run one experiment with the quick preset and print its table
    python -m repro run E4

    # run every experiment with the smoke preset and save JSON/CSV artefacts
    python -m repro run-all --preset smoke --output results/

    # show the registered protocols, graph families, and adversity scenarios
    python -m repro protocols
    python -m repro families
    python -m repro scenarios

    # run an experiment under message loss + churn
    python -m repro run E12 --scenario "loss:p=0.3+churn:crash_rate=0.05"
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro._version import __version__
from repro.core.protocols import PROTOCOLS
from repro.errors import ReproError
from repro.experiments.presets import PRESETS
from repro.graphs.families import FAMILIES

__all__ = ["build_parser", "main"]

#: ``--batch`` flag value -> ``run_trials`` batch dispatch mode.
_BATCH_MODES = {"auto": "auto", "off": False, "on": True, "pooled": "pooled"}


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduction harness for 'How Asynchrony Affects Rumor Spreading Time' "
            "(Giakkoupis, Nazari, Woelfel; PODC 2016)"
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the registered experiments")
    subparsers.add_parser("protocols", help="list the registered rumor-spreading protocols")
    subparsers.add_parser("families", help="list the registered graph families")

    scenarios_parser = subparsers.add_parser(
        "scenarios",
        help="list the registered adversity scenarios, or sweep them (`scenarios sweep`)",
    )
    scenarios_sub = scenarios_parser.add_subparsers(dest="scenarios_command")
    sweep_parser = scenarios_sub.add_parser(
        "sweep",
        help="measure blowup curves over a (family x scenario-grid) product and emit a CSV",
    )
    sweep_parser.add_argument(
        "--families",
        default="star,random_regular_4",
        help="comma-separated registered family names (default: star,random_regular_4)",
    )
    sweep_parser.add_argument(
        "--grid",
        default=None,
        metavar="SPEC[;SPEC...]",
        help=(
            "semicolon-separated scenario specs (e.g. 'loss:p=0.1;loss:p=0.3;"
            "burst-loss:p_gb=0.2,p_bg=0.5,p_loss_bad=0.8'); the clean baseline "
            "is always measured (default: a loss/burst/churn grid)"
        ),
    )
    sweep_parser.add_argument("--size", type=int, default=128, help="vertices per family build")
    sweep_parser.add_argument(
        "--protocols", default="pp,pp-a", help="comma-separated protocol names"
    )
    sweep_parser.add_argument(
        "--view",
        default="global",
        choices=["global", "node_clocks", "edge_clocks"],
        help="asynchronous view used by the asynchronous protocols",
    )
    sweep_parser.add_argument("--trials", type=int, default=64, help="trials per cell")
    sweep_parser.add_argument("--seed", type=int, default=20160729)
    sweep_parser.add_argument(
        "--output", type=Path, default=Path("scenario_sweep.csv"),
        help="CSV path for the blowup table (default: scenario_sweep.csv)",
    )
    sweep_parser.add_argument(
        "--parallel", action="store_true",
        help="shard every cell across the session's persistent process pool",
    )
    sweep_parser.add_argument(
        "--num-workers", type=int, default=None,
        help="worker processes for --parallel (default: CPU count, REPRO_MAX_WORKERS capped)",
    )
    sweep_parser.add_argument(
        "--backend", choices=("auto", "numpy", "jit"), default=None,
        help=(
            "kernel backend for the batched engines (sets REPRO_KERNEL_BACKEND "
            "process-wide, pool workers included): 'numpy' is the reference, "
            "'jit' the numba-compiled loops (falls back to numpy with one "
            "warning when numba is missing), 'auto' prefers jit when available"
        ),
    )
    sweep_parser.add_argument(
        "--curves", action="store_true",
        help=(
            "record per-cell coverage traces on the batched kernels and emit "
            "a per-time coverage-quantile CSV (p10/p50/p90/mean per grid time)"
        ),
    )
    sweep_parser.add_argument(
        "--curves-output", type=Path, default=None,
        help="curve CSV path (default: <--output stem>_curves.csv)",
    )
    sweep_parser.add_argument(
        "--curve-points", type=int, default=200,
        help="coverage-grid resolution per cell trace (default: 200)",
    )
    sweep_parser.add_argument(
        "--manifest", type=Path, default=None,
        help=(
            "write a JSONL run manifest (run_start/cell/coverage/summary "
            "events; summarize with `telemetry summarize`)"
        ),
    )

    run_parser = subparsers.add_parser("run", help="run one experiment and print its table")
    run_parser.add_argument("experiment", help="experiment id, e.g. E1 or 1")
    run_parser.add_argument("--preset", choices=sorted(PRESETS), default="quick")
    run_parser.add_argument("--seed", type=int, default=None, help="override the experiment's default seed")
    run_parser.add_argument("--json", action="store_true", help="print JSON instead of the text report")
    run_parser.add_argument("--output", type=Path, default=None, help="directory to save JSON/CSV artefacts")
    run_parser.add_argument(
        "--scenario",
        default=None,
        metavar="NAME[:param=val,...]",
        help=(
            "run the experiment under an adversity scenario, e.g. 'loss:p=0.3' or "
            "'loss:p=0.2+churn:crash_rate=0.05' (see `scenarios`; only experiments "
            "that accept a scenario, such as E12/E13, support this)"
        ),
    )
    run_parser.add_argument(
        "--batch",
        choices=sorted(_BATCH_MODES),
        default=None,
        help=(
            "Monte Carlo dispatch mode for experiments that accept one (e.g. E1): "
            "'on' forces the 2-D batch kernels, 'off' forces the serial loop, "
            "'auto' batches when the setting allows it, 'pooled' shares one "
            "generator per batch.  All but 'pooled' are seed-for-seed identical."
        ),
    )
    run_parser.add_argument(
        "--families",
        default=None,
        metavar="NAME[,NAME...]",
        help=(
            "override the experiment's family sweep with a comma-separated "
            "list of registered families (experiments that accept one, e.g. "
            "E1; see `families`)"
        ),
    )
    run_parser.add_argument(
        "--sizes",
        default=None,
        metavar="N[,N...]",
        help=(
            "override the preset's size sweep with a comma-separated list of "
            "vertex counts (experiments that accept one, e.g. E1; the "
            "CSR-native generators handle sizes up to 10^6)"
        ),
    )
    run_parser.add_argument(
        "--parallel",
        action="store_true",
        help=(
            "shard the experiment's Monte Carlo cells across the session's "
            "persistent process pool (experiments that accept it, e.g. E1/E12/E13; "
            "chunks return their samples; graphs are served to workers over "
            "shared CSR segments)"
        ),
    )
    run_parser.add_argument(
        "--num-workers",
        type=int,
        default=None,
        help="worker processes for --parallel (default: CPU count, REPRO_MAX_WORKERS capped)",
    )
    run_parser.add_argument(
        "--backend",
        choices=("auto", "numpy", "jit"),
        default=None,
        help=(
            "kernel backend for the batched engines (sets REPRO_KERNEL_BACKEND "
            "process-wide, pool workers included): 'numpy' is the reference, "
            "'jit' the numba-compiled loops (falls back to numpy with one "
            "warning when numba is missing), 'auto' prefers jit when available"
        ),
    )
    run_parser.add_argument(
        "--trace",
        choices=("coverage",),
        default=None,
        help=(
            "collect coverage traces from every traced Monte Carlo call the "
            "experiment makes (batch-speed: the (trials, n) informing-time "
            "matrices, no per-trial loop) and print a sparkline per trace"
        ),
    )
    run_parser.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        metavar="FILE",
        help=(
            "collect runtime metrics (rounds, ticks, messages, backend, pool "
            "chunks) and write a JSONL run manifest to FILE; coverage traces "
            "from --trace ride along as coverage events"
        ),
    )

    run_all_parser = subparsers.add_parser("run-all", help="run every experiment")
    run_all_parser.add_argument("--preset", choices=sorted(PRESETS), default="quick")
    run_all_parser.add_argument("--seed", type=int, default=None)
    run_all_parser.add_argument("--output", type=Path, default=None, help="directory to save JSON/CSV artefacts")

    devtools_parser = subparsers.add_parser(
        "devtools",
        help="repo-specific static analysis (`devtools lint`, `devtools knobs`)",
    )
    devtools_sub = devtools_parser.add_subparsers(dest="devtools_command", required=True)
    lint_parser = devtools_sub.add_parser(
        "lint",
        help=(
            "run the AST lint rules (RNG discipline, backend parity, shm "
            "lifecycle, env-knob registry, ...) over source trees"
        ),
    )
    lint_parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories (default: src)"
    )
    lint_parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="lint_format",
        help="report format on stdout (default: text)",
    )
    lint_parser.add_argument(
        "--output", type=Path, default=None,
        help="also write the JSON report to this path (CI artifact)",
    )
    lint_parser.add_argument(
        "--select", default=None, metavar="CODE[,CODE...]",
        help="restrict the run to these rule codes (e.g. RNG001,PAR001)",
    )
    knobs_parser = devtools_sub.add_parser(
        "knobs", help="print the generated REPRO_* configuration-knob table"
    )
    knobs_parser.add_argument(
        "--check", type=Path, default=None, metavar="README",
        help="verify the README's generated knob table matches the registry",
    )

    telemetry_parser = subparsers.add_parser(
        "telemetry", help="inspect telemetry artefacts (`telemetry summarize`)"
    )
    telemetry_sub = telemetry_parser.add_subparsers(
        dest="telemetry_command", required=True
    )
    summarize_parser = telemetry_sub.add_parser(
        "summarize", help="aggregate a JSONL run manifest into one report"
    )
    summarize_parser.add_argument("manifest", type=Path, help="JSONL manifest path")
    summarize_parser.add_argument(
        "--json", action="store_true", help="print the aggregate as JSON"
    )

    return parser


def _command_list() -> int:
    from repro.experiments.registry import EXPERIMENTS, available_experiments

    for experiment_id in available_experiments():
        spec = EXPERIMENTS[experiment_id]
        print(f"{experiment_id:>4}  {spec.title}")
        print(f"      claim: {spec.claim}")
    return 0


def _command_protocols() -> int:
    for name in sorted(PROTOCOLS):
        spec = PROTOCOLS[name]
        clock = "rounds" if spec.synchronous else "continuous time"
        marker = "" if spec.realistic else " [analysis-only]"
        print(f"{name:>7}  ({clock}){marker}  {spec.description}")
    return 0


def _command_families() -> int:
    for name in sorted(FAMILIES):
        family = FAMILIES[name]
        flags = []
        if family.is_regular:
            flags.append("regular")
        if family.is_random:
            flags.append("random")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        print(f"{name:>24}{suffix}  {family.description}")
    return 0


def _command_scenarios(arguments: argparse.Namespace) -> int:
    if getattr(arguments, "scenarios_command", None) == "sweep":
        return _command_scenarios_sweep(arguments)
    from repro.scenarios import SCENARIOS

    for name in sorted(SCENARIOS):
        spec = SCENARIOS[name]
        print(f"{name:>20}  {spec.summary}")
        print(f"{'':>20}  params: {spec.parameters}")
    print()
    print('compose with "+", e.g. --scenario "loss:p=0.2+churn:crash_rate=0.05"')
    print('sweep a grid with `scenarios sweep` (see `scenarios sweep --help`)')
    return 0


def _apply_backend(backend: Optional[str]) -> None:
    """Select the kernel backend process-wide (pool workers inherit it).

    The environment variable is the one channel every consumer reads — the
    in-process kernels via :func:`repro.core.kernels.default_backend_name`
    and the persistent pool workers via their initializer — so the CLI flag
    covers serial, batched, and parallel runs alike.
    """
    if backend is not None:
        os.environ["REPRO_KERNEL_BACKEND"] = backend


def _command_scenarios_sweep(arguments: argparse.Namespace) -> int:
    from contextlib import ExitStack

    from repro.experiments.scenarios import DEFAULT_SWEEP_GRID, sweep_scenarios
    from repro.telemetry.metrics import MetricsRegistry, collecting_metrics

    _apply_backend(arguments.backend)
    grid = (
        [part for part in arguments.grid.split(";") if part.strip()]
        if arguments.grid is not None
        else list(DEFAULT_SWEEP_GRID)
    )
    with ExitStack() as stack:
        if arguments.manifest is not None:
            # A manifest's summary record carries the metric totals, so a
            # registry is active for the whole sweep when one is requested.
            stack.enter_context(collecting_metrics(MetricsRegistry()))
        rows = sweep_scenarios(
            [name.strip() for name in arguments.families.split(",") if name.strip()],
            grid,
            size=arguments.size,
            protocols=[p.strip() for p in arguments.protocols.split(",") if p.strip()],
            view=arguments.view,
            trials=arguments.trials,
            seed=arguments.seed,
            output=arguments.output,
            # An explicit worker count implies parallel mode, matching `run`.
            parallel=arguments.parallel or arguments.num_workers is not None,
            num_workers=arguments.num_workers,
            curves=arguments.curves,
            curves_output=arguments.curves_output,
            curve_points=arguments.curve_points,
            manifest=arguments.manifest,
        )
    for row in rows:
        print(
            f"{row['family']:>20}  {row['protocol']:>6}  {row['view']:>11}  "
            f"{row['scenario']:<44}  mean={row['mean']:9.3f}  blowup={row['blowup']:6.2f}"
        )
    print(f"wrote {arguments.output} ({len(rows)} rows)")
    if arguments.curves:
        curves_path = (
            arguments.curves_output
            if arguments.curves_output is not None
            else arguments.output.with_name(arguments.output.stem + "_curves.csv")
        )
        print(f"wrote {curves_path} (coverage quantile curves)")
    if arguments.manifest is not None:
        print(f"wrote {arguments.manifest} (run manifest)")
    return 0


def _save(results, output: Optional[Path]) -> None:
    if output is None:
        return
    from repro.reporting.results_io import save_results

    written = save_results(results, output)
    for path in written:
        print(f"wrote {path}")


def _require_runner_param(experiment: str, param: str, hint: str) -> None:
    """Raise unless the experiment's runner accepts the named keyword."""
    import inspect

    from repro.errors import ExperimentError
    from repro.experiments.registry import get_experiment

    spec = get_experiment(experiment)
    if param not in inspect.signature(spec.runner).parameters:
        raise ExperimentError(
            f"experiment {spec.experiment_id} does not accept a {hint}"
        )


def _command_run(arguments: argparse.Namespace) -> int:
    import time
    from contextlib import ExitStack

    from repro.experiments.registry import run_experiment
    from repro.telemetry.metrics import MetricsRegistry, collecting_metrics
    from repro.telemetry.trace import TraceSpec, collecting_traces

    _apply_backend(arguments.backend)
    overrides = {}
    if arguments.scenario is not None:
        from repro.scenarios import parse_scenario

        _require_runner_param(
            arguments.experiment, "scenario", "scenario; the scenario suites are E12/E13"
        )
        overrides["scenario"] = parse_scenario(arguments.scenario)
    if arguments.batch is not None:
        _require_runner_param(
            arguments.experiment,
            "batch",
            "batch mode; the batched Monte Carlo suite is E1",
        )
        overrides["batch"] = _BATCH_MODES[arguments.batch]
    if arguments.families is not None:
        _require_runner_param(
            arguments.experiment,
            "families",
            "family override; the family-sweep suite is E1",
        )
        overrides["families"] = [
            name.strip() for name in arguments.families.split(",") if name.strip()
        ]
    if arguments.sizes is not None:
        _require_runner_param(
            arguments.experiment,
            "sizes",
            "size override; the family-sweep suite is E1",
        )
        try:
            overrides["sizes"] = [
                int(token) for token in arguments.sizes.split(",") if token.strip()
            ]
        except ValueError as error:
            raise SystemExit(f"--sizes expects comma-separated integers: {error}")
    if arguments.parallel or arguments.num_workers is not None:
        _require_runner_param(
            arguments.experiment,
            "parallel",
            "parallel mode; parallel-capable suites include E1, E12 and E13",
        )
        overrides["parallel"] = True
        if arguments.num_workers is not None:
            overrides["num_workers"] = arguments.num_workers
    registry = collector = None
    started = time.perf_counter()
    with ExitStack() as stack:
        if arguments.metrics_out is not None:
            registry = MetricsRegistry()
            stack.enter_context(collecting_metrics(registry))
        if arguments.trace == "coverage":
            # Ambient tracing: every run_trials / run_trials_parallel call
            # the experiment makes deposits a compacted coverage trace here.
            collector = stack.enter_context(collecting_traces(TraceSpec()))
        result = run_experiment(
            arguments.experiment, preset=arguments.preset, seed=arguments.seed, **overrides
        )
    wall_seconds = time.perf_counter() - started
    if arguments.json:
        print(result.to_json())
    else:
        print(result.to_text())
    if collector is not None:
        from repro.analysis.curves import ascii_sparkline

        print()
        print(f"coverage traces ({len(collector.traces)}):")
        for trace in collector.traces:
            spark = ascii_sparkline(
                [row["mean"] for row in trace.envelope_rows()], width=48
            )
            print(
                f"  {trace.protocol:>7}  {trace.graph_name:<32} "
                f"trials={trace.num_trials:<5} {spark}"
            )
    if arguments.metrics_out is not None:
        from repro.telemetry.manifest import ManifestWriter

        writer = ManifestWriter(arguments.metrics_out)
        writer.event(
            "run_start",
            command="run",
            experiment=result.experiment_id,
            preset=arguments.preset,
            seed=arguments.seed,
            trace=arguments.trace,
        )
        if collector is not None:
            for trace in collector.traces:
                writer.coverage(trace)
        writer.summary(
            metrics=registry.snapshot(),
            command="run",
            experiment=result.experiment_id,
            wall_seconds=wall_seconds,
        )
        print(f"wrote {arguments.metrics_out} (run manifest)")
    _save([result], arguments.output)
    return 0


def _command_run_all(arguments: argparse.Namespace) -> int:
    from repro.experiments.registry import run_all_experiments

    results = run_all_experiments(preset=arguments.preset, seed=arguments.seed)
    for experiment_id in sorted(results, key=lambda key: int(key.lstrip("E"))):
        print(results[experiment_id].to_text())
        print()
    _save(list(results.values()), arguments.output)
    return 0


def _command_devtools(arguments: argparse.Namespace) -> int:
    if arguments.devtools_command == "knobs":
        from repro import config

        if arguments.check is not None:
            errors = config.readme_table_errors(
                arguments.check.read_text(encoding="utf8")
            )
            for error in errors:
                print(f"error: {error}", file=sys.stderr)
            if not errors:
                print(f"{arguments.check}: knob table matches the registry")
            return 1 if errors else 0
        print(config.markdown_table())
        return 0

    from repro.devtools import count_files, lint_paths, render_json, render_text

    paths = [Path(p) for p in arguments.paths]
    missing = [path for path in paths if not path.exists()]
    if missing:
        for path in missing:
            print(f"error: no such path: {path}", file=sys.stderr)
        return 2
    select = (
        [code.strip() for code in arguments.select.split(",") if code.strip()]
        if arguments.select is not None
        else None
    )
    diagnostics = lint_paths(paths, select=select)
    files_checked = count_files(paths)
    if arguments.output is not None:
        arguments.output.write_text(
            render_json(diagnostics, files_checked) + "\n", encoding="utf8"
        )
    if arguments.lint_format == "json":
        print(render_json(diagnostics, files_checked))
    else:
        print(render_text(diagnostics, files_checked))
    return 1 if diagnostics else 0


def _command_telemetry(arguments: argparse.Namespace) -> int:
    from repro.telemetry.manifest import summarize_manifest

    summary = summarize_manifest(arguments.manifest)
    if arguments.json:
        import json

        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(f"manifest: {summary['path']}")
    print("events:")
    for kind in sorted(summary["events"]):
        print(f"  {kind:>12}  {summary['events'][kind]}")
    metrics = summary["metrics"]
    if metrics["counters"]:
        print("counters:")
        for name in sorted(metrics["counters"]):
            print(f"  {name:<32} {metrics['counters'][name]}")
    if metrics["timers"]:
        print("timers:")
        for name in sorted(metrics["timers"]):
            timer = metrics["timers"][name]
            print(
                f"  {name:<32} total={timer['seconds']:.3f}s calls={timer['count']}"
            )
    if metrics["gauges"]:
        print("gauges:")
        for name in sorted(metrics["gauges"]):
            print(f"  {name:<32} {metrics['gauges'][name]}")
    if summary["coverage"]:
        print(f"coverage cells: {len(summary['coverage'])}")
        for cell in summary["coverage"]:
            print(
                f"  {cell['protocol']:>7}  {cell['graph']:<32} "
                f"n={cell['num_vertices']} trials={cell['num_trials']}"
            )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        if arguments.command == "list":
            return _command_list()
        if arguments.command == "protocols":
            return _command_protocols()
        if arguments.command == "families":
            return _command_families()
        if arguments.command == "scenarios":
            return _command_scenarios(arguments)
        if arguments.command == "run":
            return _command_run(arguments)
        if arguments.command == "run-all":
            return _command_run_all(arguments)
        if arguments.command == "devtools":
            return _command_devtools(arguments)
        if arguments.command == "telemetry":
            return _command_telemetry(arguments)
        parser.error(f"unknown command {arguments.command!r}")
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
