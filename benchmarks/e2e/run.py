"""End-to-end sweep benchmark: how long a Monte Carlo sweep takes to come back correct.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds T]
                                  [--trace 0|1] [--scale X] [--repeat K] [--out F]
    python3 benchmarks/e2e/run.py compare A.json B.json

Each workload runs in fresh subprocesses with a pinned environment (numpy
kernels, ``min(2, nproc)`` fork-started pool workers, one BLAS thread).
With ``--trace 0`` (the default) a workload is set up ``SETUP_SAMPLES``
times, each in its own process, and the last process also runs the timed
phase and the correctness checks; the end-to-end metrics are printed by
name and unit, timings stated at reference speed (see :func:`speed_factor`)
and followed by their raw wall time.  With ``--trace 1`` one process runs
every cell twice in a row, traced and untraced, and prints the
per-layer metrics of the traced runs; ``trace.overhead_frac`` compares the
two.  ``--seconds`` is the length of the timed phase; it defaults to
``run_seconds`` of ``BENCHMARK.json``, the value the benchmark's command
passes.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names and
units are those of ``BENCHMARK.json``.

``--repeat K`` runs every workload K times with seeds S, S+1, ..., in
alternating workload order, and ``--out F`` writes every run plus the
median and quartiles of each metric to F.  ``compare`` reads two such
files and judges each (workload, end-to-end metric) row against the
bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

WORKLOADS = ("e1-batch", "e12-parallel", "views-aux", "million")
DEFAULT_SEED = 20160725

#: Set-up runs per workload run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: Wall-clock budget for all processes of one workload run.
WORKLOAD_DEADLINE_S = 170.0

#: :func:`reference_ms` on the machine the first numbers come from, a 2-vCPU
#: Xeon VM, when it is quiet.  It only fixes the unit of the scaled timings.
REFERENCE_MS = 0.66

#: Timed reference runs right after set-up; one more runs before every cell.
SETUP_PROBES = 9


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed check)."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units_of(spec: dict, trace: int) -> dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in spec["per_layer" if trace else "end_to_end"]}


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pinned() -> dict[str, str]:
    return {
        "REPRO_KERNEL_BACKEND": "numpy",
        "REPRO_MAX_WORKERS": str(min(2, nproc())),
        "REPRO_MP_START_METHOD": "fork",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
    }


def child_environment() -> dict[str, str]:
    """The caller's environment without any ``REPRO_*`` knob, plus :func:`pinned`."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(pinned())
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict[str, object]:
    from importlib.metadata import version

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_sha": git_sha(),
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        **pinned(),
    }


# --------------------------------------------------------------------- #
# Child process: set-up, timed phase, checks
# --------------------------------------------------------------------- #


def shm_segments() -> set[str]:
    """Names of the POSIX shared-memory segments Python created that exist now."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except OSError:
        return set()


@functools.cache
def _reference_arrays():
    import numpy as np

    rng = np.random.default_rng(0)
    values = rng.random(20_000)
    return values, rng.integers(0, values.size, values.size), np.empty_like(values)


def reference_ms(repeats: int = 1) -> list[float]:
    """Times of a fixed computation, in ms: how fast the machine runs now.

    The computation is an interpreter loop plus numpy gathers and scans
    into a preallocated buffer, over 480 KB of the benchmark's own arrays.
    It calls no program code and allocates no arrays, so the heap a cell
    leaves behind cannot change it; it runs once untimed before the
    ``repeats`` timed runs, so its data are back in the caches whatever the
    cell before it evicted.
    """
    import numpy as np

    values, index, buffer = _reference_arrays()
    times = []
    for _ in range(repeats + 1):
        start = time.perf_counter()
        total = 0
        for k in range(3000):
            total += k * k
        for _ in range(6):
            np.take(values, index, out=buffer)
            np.cumsum(buffer, out=buffer)
        times.append((time.perf_counter() - start) * 1000.0)
    return times[1:]


def run_passes(plan, seconds: float, registry=None) -> dict:
    """Run whole passes until ``seconds`` have elapsed; at least one pass.

    Per cell of the pass it keeps the latency of every repeat (``cell_ms``)
    and the wall time until the next cell could start, per-cell follow-up
    included (``step_ms``).  With a ``registry``, every cell runs twice in a
    row, once traced into the registry and once not, in alternating order:
    the traced repeats' step times are kept apart (``traced_step_ms``), and
    each untraced twin measures the tracing overhead at the same moment on
    the machine.  A :func:`reference_ms` run precedes every repeat
    (``probe_ms``), outside its timing.
    """
    import traceback

    from repro.telemetry.metrics import collecting_metrics

    first: list = [None] * len(plan.cells)
    samples = {
        traced: {key: [[] for _ in plan.cells] for key in ("cell_ms", "step_ms")}
        for traced in (False, True)
    }
    failures: list[str] = []
    probes: list[float] = []
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        modes = (False,) if registry is None else ((False, True), (True, False))[passes % 2]
        for index, cell in enumerate(plan.cells):
            for traced in modes:
                probes += reference_ms()
                cell_start = time.perf_counter()
                try:
                    with collecting_metrics(registry) if traced else contextlib.nullcontext():
                        sample = cell.run()
                        elapsed = time.perf_counter() - cell_start
                        if cell.after is not None:
                            cell.after(sample, elapsed)
                # A cell runs arbitrary program code: record the failure and
                # keep measuring the other cells.
                except Exception:
                    traceback.print_exc()
                    failures.append(f"{cell.label}: raised")
                    continue
                samples[traced]["step_ms"][index].append((time.perf_counter() - cell_start) * 1000.0)
                samples[traced]["cell_ms"][index].append(elapsed * 1000.0)
                if first[index] is None:
                    first[index] = sample
                elif sample.times != first[index].times:
                    failures.append(f"{cell.label}: a repeat in pass {passes + 1} differs from the first")
        passes += 1
    return {
        "first": first,
        **samples[False],
        "traced_step_ms": samples[True]["step_ms"],
        "probe_ms": probes,
        "passes": passes,
        "trials": [cell.trials for cell in plan.cells],
        "attempted": passes * len(plan.cells) * len(modes),
        "failures": failures,
    }


def child_main(args: argparse.Namespace) -> dict:
    from multiprocessing import resource_tracker

    import tracing

    # Wrap before anything forks, so that pool workers inherit the wrappers.
    if args.trace:
        tracing.install()
    try:
        return child_run(args)
    finally:
        # Shared memory starts a tracker process, which would otherwise
        # outlive this one.
        with contextlib.suppress(AttributeError):
            resource_tracker._resource_tracker._stop()


def child_run(args: argparse.Namespace) -> dict:
    import resource

    import tracing
    import workloads
    from repro.analysis import parallel, pool
    from repro.core.kernels import warmup_kernels
    from repro.telemetry.metrics import MetricsRegistry, collecting_metrics

    segments_before = shm_segments()
    setup, timed_phase = MetricsRegistry(), MetricsRegistry()
    try:
        with collecting_metrics(setup) if args.trace else contextlib.nullcontext():
            warmup_kernels()
            plan = workloads.WORKLOADS[args.workload](args.seed, args.scale)
        setup_s = time.time() - args.spawned_at
        probes = reference_ms(SETUP_PROBES)
        if args.child == "setup":
            plan.close()
            return {"setup_s": setup_s, "probe_ms": probes}
        try:
            result = run_passes(plan, args.seconds, timed_phase if args.trace else None)
            result["probe_ms"] = probes + result["probe_ms"]
            result["failures"] += plan.check(result.pop("first"))
        finally:
            plan.close()
    finally:
        pool.shutdown_pool()
    result["failures"] += [
        f"shared-memory segment {name} survived the run"
        for name in sorted(shm_segments() - segments_before)
    ]
    result["setup_s"] = setup_s
    # This process's own peak is VmHWM: ru_maxrss would also keep the peak
    # of the runner process this one was exec'd from.
    own_kib = next(
        int(line.split()[1])
        for line in Path("/proc/self/status").read_text().splitlines()
        if line.startswith("VmHWM:")
    )
    result["peak_rss_mib"] = max(own_kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
    if args.trace:
        result["layers"] = tracing.layer_metrics(
            setup,
            timed_phase,
            passes=result["passes"],
            timed_seconds=sum(map(sum, result["traced_step_ms"])) / 1000.0,
            workers=parallel.default_worker_count(),
        )
    return result


# --------------------------------------------------------------------- #
# Parent process
# --------------------------------------------------------------------- #


def run_child(role: str, workload: str, seed: int, seconds: float, trace: int, scale: float, deadline: float) -> dict:
    """Run one child process to completion and return its JSON result."""
    command = [
        sys.executable, str(HERE / "run.py"), "--child", role, "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
        "--scale", repr(scale), "--spawned-at", repr(time.time()),
    ]
    process = subprocess.Popen(
        command, cwd=ROOT, env=child_environment(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        # Timeout or interrupt: stop the child and its pool workers.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise
    if process.returncode != 0 or not out.strip():
        raise BenchmarkError(f"{workload}: {role} process exited with code {process.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def latency_quantiles(latencies: list[float]) -> tuple[float, float]:
    """Median and 90th percentile of the cell latencies, Harrell-Davis estimates.

    Each is a weighted average of all order statistics instead of one or
    two of them.  A sweep's cells fall into clusters (``pp`` against
    ``pp-a`` cells, per-trial against pooled ones), and the plain median of
    such a sample is the midpoint of the two cells next to a gap, so it
    moves whenever either of them does.
    """
    if len(latencies) == 1:
        return latencies[0], latencies[0]
    from scipy.stats.mstats import hdquantiles

    p50, p90 = hdquantiles(latencies, prob=[0.5, 0.9])
    return float(p50), float(p90)


def lower_quartile(values: list[float]) -> float:
    return sorted(values)[len(values) // 4]


def pass_ms(step_ms: list[list[float]]) -> float:
    """One pass's wall time: the sum of each cell's lower-quartile step time."""
    return sum(lower_quartile(repeats) for repeats in step_ms if repeats)


def cell_costs(child: dict) -> tuple[list[float], float]:
    """Each cell's latency, and the throughput of one pass, in wall time.

    Other load on the machine only ever slows a repeat down, so a cell's
    cost is the lower quartile of its repeats, which tolerates interference
    on up to three quarters of them.  Throughput is one pass's trials over
    the sum of each cell's lower-quartile step time.
    """
    measured = [index for index, repeats in enumerate(child["cell_ms"]) if repeats]
    if not measured:
        raise BenchmarkError("no cell completed")
    latencies = [lower_quartile(child["cell_ms"][index]) for index in measured]
    trials = sum(child["trials"][index] for index in measured)
    return latencies, trials / (pass_ms(child["step_ms"]) / 1000.0)


def speed_factor(child: dict) -> float:
    """What states one process's timings at reference speed.

    The machine is a shared virtual machine whose speed drifts with other
    tenants' load, by up to 2x over an hour.  Each process's timings are
    multiplied by ``REFERENCE_MS`` over the median of all its
    :func:`reference_ms` runs: one factor per process, from tens to
    thousands of runs spread over its whole life, so the drift is taken out
    while one run's jitter is not multiplied into any timing.
    """
    return REFERENCE_MS / statistics.median(child["probe_ms"])


def run_workload(workload: str, seed: int, seconds: float, trace: int, scale: float) -> dict:
    """One workload run: its metrics, ``attempted``, ``failed`` and the failure lines."""
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    setups = [
        run_child("setup", workload, seed, seconds, 0, scale, deadline)
        for _ in range(0 if trace else SETUP_SAMPLES - 1)
    ]
    last = run_child("run", workload, seed, seconds, trace, scale, deadline)
    latencies, trials_per_s = cell_costs(last)
    raw: dict[str, float] = {}
    if trace:
        metrics = dict(last["layers"])
        # Each traced repeat has an untraced twin run right next to it, so
        # the two compare pass by pass at the same machine load.
        passes = zip(zip(*last["step_ms"]), zip(*last["traced_step_ms"]))
        ratios = [sum(untraced) / sum(traced) for untraced, traced in passes]
        metrics["trace.overhead_frac"] = 1.0 - statistics.median(ratios)
    else:
        p50, p90 = latency_quantiles(latencies)
        raw = {
            "setup_s": statistics.median([child["setup_s"] for child in setups + [last]]),
            "trials_per_s": trials_per_s,
            "cell_ms.p50": p50,
            "cell_ms.p90": p90,
        }
        factor = speed_factor(last)
        metrics = {
            "setup_s": statistics.median([child["setup_s"] * speed_factor(child) for child in setups + [last]]),
            "trials_per_s": trials_per_s / factor,
            "cell_ms.p50": raw["cell_ms.p50"] * factor,
            "cell_ms.p90": raw["cell_ms.p90"] * factor,
            "peak_rss_mib": last["peak_rss_mib"],
        }
    return {
        "metrics": metrics,
        "raw": raw,
        "reference_ms": statistics.median(last["probe_ms"]),
        "attempted": last["attempted"],
        "failed": len(last["failures"]),
        "failures": last["failures"],
        "cells": len(last["cell_ms"]),
        "passes": last["passes"],
    }


def print_workload(workload: str, result: dict, units: dict[str, str]) -> None:
    print(
        f"\n{workload}: N={result['cells']} cells x {result['passes']} passes, reference "
        f"{result['reference_ms']:.4g} ms (timings stated at {REFERENCE_MS} ms)"
    )
    for name, value in result["metrics"].items():
        raw = f"  (raw {result['raw'][name]:.6g})" if name in result["raw"] else ""
        print(f"  {name:<44} {value:>16.6g} {units[name]}{raw}")
    failed_frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':<44} {failed_frac:>16.6g} ({result['failed']}/{result['attempted']})")
    for line in result["failures"]:
        print(f"  FAILED {line}")


def summarize(values: list[float]) -> dict[str, float]:
    """Median, quartiles and spread (quartile distance over median) of one metric."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def measure(args: argparse.Namespace) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program sources under {SRC}")
    units = units_of(load_spec(), args.trace)
    names = [args.workload] if args.workload else list(WORKLOADS)
    env = environment()
    print("environment: " + ", ".join(f"{key}={value}" for key, value in env.items()))
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for repeat in range(args.repeat):
        for name in names if repeat % 2 == 0 else names[::-1]:
            result = run_workload(name, args.seed + repeat, args.seconds, args.trace, args.scale)
            if set(result["metrics"]) != set(units):
                raise BenchmarkError(f"{name}: metrics do not match BENCHMARK.json")
            print_workload(name, result, units)
            runs[name].append(result)
    summaries = {
        name: {metric: summarize([run["metrics"][metric] for run in results]) for metric in units}
        for name, results in runs.items()
    }
    if args.repeat > 1:
        print("\nmedian [q1, q3] over repeats:")
        for name, summary in summaries.items():
            for metric, s in summary.items():
                print(
                    f"  {name:<13} {metric:<44} {s['median']:>14.6g} "
                    f"[{s['q1']:.6g}, {s['q3']:.6g}] spread {s['spread']:.3f}"
                )
    if args.out:
        report = {
            "environment": env,
            "seed": args.seed,
            "seconds": args.seconds,
            "scale": args.scale,
            "trace": args.trace,
            "units": units,
            "workloads": {
                name: {"runs": runs[name], "summary": summaries[name]} for name in names
            },
        }
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    every_run = [run for results in runs.values() for run in results]
    failed = sum(run["failed"] for run in every_run)
    if args.workload and args.repeat == 1:
        metrics = {name: {"value": value, "unit": units[name]} for name, value in every_run[0]["metrics"].items()}
    else:
        metrics = {
            name: {metric: {"value": s["median"], "unit": units[metric]} for metric, s in summary.items()}
            for name, summary in summaries.items()
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(run["attempted"] for run in every_run),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def compare(path_a: str, path_b: str) -> int:
    """Judge B against A on every (workload, end-to-end metric) row; 1 if any is worse."""
    spec = {entry["name"]: entry for entry in load_spec()["end_to_end"]}
    a, b = (json.loads(Path(path).read_text())["workloads"] for path in (path_a, path_b))
    worse = 0
    print(f"{'workload':<13} {'metric':<14} {'A median':>12} {'B median':>12} {'change':>8} "
          f"{'spread A':>8} {'spread B':>8} verdict")
    for workload in [name for name in a if name in b]:
        for name, entry in spec.items():
            sa, sb = a[workload]["summary"].get(name), b[workload]["summary"].get(name)
            if sa is None or sb is None:
                continue
            change = (sb["median"] - sa["median"]) / sa["median"]
            worse_by = change if entry["better"] == "lower" else -change
            if max(sa["spread"], sb["spread"]) > entry["bound"]:
                verdict = "unresolved"
            elif worse_by > entry["bound"]:
                verdict = "worse"
            elif -worse_by > entry["bound"]:
                verdict = "better"
            else:
                verdict = "no-worse"
            worse += verdict == "worse"
            print(f"{workload:<13} {name:<14} {sa['median']:>12.6g} {sb['median']:>12.6g} "
                  f"{change:>+8.3f} {sa['spread']:>8.3f} {sb['spread']:>8.3f} {verdict}")
    return 1 if worse else 0


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="timed phase per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0, help="multiplies every graph size")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload")
    parser.add_argument("--out", help="write every run and its summary as JSON")
    parser.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if args.repeat < 1 or args.seconds <= 0 or args.scale <= 0:
        parser.error("--repeat, --seconds and --scale must be positive")
    return args


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    args = parse_args(argv)
    if args.child:
        print(json.dumps(child_main(args)))
        return 0
    try:
        return measure(args)
    except (BenchmarkError, OSError, ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
