"""Batched vs serial Monte Carlo throughput (the PR-acceptance benchmark).

Unlike the experiment benchmarks (``bench_theorem1.py`` and friends), which
time whole paper-reproduction experiments, this file times the *trial
engine* itself three ways on the same workload — synchronous push–pull on a
1024-vertex random regular graph:

* ``seed_baseline`` — a frozen copy of the pre-batching engine loop (the
  repository's original serial hot path, kept here verbatim so the speedup
  is measured against a fixed historical baseline rather than against the
  continually-optimised current serial engine);
* ``serial`` — today's ``run_trials(batch=False)`` path;
* ``batched`` — the 2-D batch kernel path (``run_trials(batch="auto")``).

``test_batched_speedup_over_seed_baseline`` asserts the batched path is at
least 5x the seed baseline's throughput (trials/second); the pytest-benchmark
entries record the absolute numbers for the perf trajectory.

The scenario benchmarks time the same comparison under a lossy push–pull
workload (``MessageLoss(0.3)``): the vectorised scenario masks must keep the
batched path at least 5x *today's* serial scenario loop
(``test_batched_scenario_speedup_over_serial`` — a stricter reference than
the frozen seed baseline, since the serial engine itself is vectorised
per-round), so scenario sweeps never silently fall off the fast path.

The PR-9 gate (``test_batched_adaptive_scenario_speedup_over_serial``)
repeats the scenario comparison under the composed adaptive adversary
(``AdaptiveCrash | AdaptiveLoss`` — the E13 cell shape, mostly stalled
partial-budget rounds) at >= 2x serial, so adaptive sweeps stay on the
batched path too.

The auxiliary-process benchmarks gate the PR-3 kernels the same way:
``test_batched_aux_speedup_over_serial`` asserts batched ``ppx``/``ppy`` at
least 5x today's serial aux engine on the 1024-vertex random regular graph
(while double-checking the fixed-seed sample equality), so the Theorem-1
suites can rely on the fast path staying fast.

The zero-copy parallel layer has its own gate:
``test_shared_sweep_speedup_over_per_call_executor`` runs a 16-point
sweep through ``run_trials_parallel`` on the persistent process pool and
asserts >= 3x a frozen per-call-executor baseline (a fresh
``ProcessPoolExecutor`` per grid point, graph pickled into every chunk,
samples pickled back, pairwise ``merged_with`` chain) — while checking the
two paths stay bit-identical.

The PR-6 gate covers the compiled kernel tier:
``test_jit_sync_round_speedup_over_numpy`` asserts the numba jit backend
at >= 3x the numpy reference on the synchronous round kernel at n=10^4
(warm-up — including jit compilation — excluded from the timed region,
bit-identical samples double-checked).  On a numba-free machine the gate
skips but still writes a ``skipped`` record, so BENCH_batch.json shows
*why* the number is missing rather than silently omitting it.

The per-trial asynchronous gates ``test_batched_async_speedup_over_serial``
and ``test_batched_edge_clock_speedup_over_serial`` assert batched pp-a at
>= 2x the serial engine on the 256-vertex scenario graph, under the global
view's tick loop and under the edge-clock view's next-tick table, with the
fixed-seed samples checked equal.

Every gate records its measured numbers through ``bench_record`` into
``BENCH_batch.json`` (see ``conftest.py``).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.analysis.montecarlo import run_trials
from repro.analysis.parallel import (
    ParallelTrialSpec,
    _run_chunk,
    run_trials_parallel,
)
from repro.analysis.pool import shutdown_pool
from repro.core.batch_engine import run_batch
from repro.core.flatgraph import flat_adjacency
from repro.core.kernels import jit_backend, warmup_kernels
from repro.graphs.random_graphs import random_regular_graph
from repro.randomness.rng import spawn_generators, spawn_seeds
from repro.scenarios import (
    AdaptiveCrash,
    AdaptiveLoss,
    DynamicGraph,
    FamilyResampler,
    MessageLoss,
)

#: Trials per preset; the smoke preset keeps the whole file under ~10 s.
TRIALS = {"smoke": 96, "quick": 256, "full": 768}

GRAPH_SIZE = 1024
GRAPH_DEGREE = 8

#: The scenario gate uses a smaller graph and more trials: batching amortizes
#: Python-level per-round overhead across trials, which is the dominant cost
#: at moderate n (at n=1024 the serial rounds are already numpy-bound and the
#: measured gap narrows to ~5x — too close to gate on).
SCENARIO_GRAPH_SIZE = 256
SCENARIO_TRIALS = {"smoke": 192, "quick": 384, "full": 1024}

#: The lossy workload: 30% of exchanges dropped.
LOSSY = MessageLoss(0.3)

#: Trials for the auxiliary-process (ppx/ppy) gate.  The serial aux engine
#: pays per-pulling-vertex Python loops plus full SpreadingResult
#: materialization, so a modest trial count gives a stable signal on the
#: 1024-vertex graph.
AUX_TRIALS = {"smoke": 24, "quick": 64, "full": 192}

#: The shared-memory sweep gate: 16 grid points, 2 workers per point (the
#: CI cap), small per-point trial counts — exactly the shape where per-call
#: executor startup used to dominate a sweep.
SWEEP_POINTS = 16
SWEEP_WORKERS = 2
SWEEP_GRAPH_SIZE = 128
SWEEP_TRIALS = {"smoke": 24, "quick": 48, "full": 96}

#: The async dynamic-graph gate (PR 5): the batched tick loop with the
#: per-trial padded CSR vs the serial per-tick Python loop (the pre-PR-5
#: fallback for this scenario).  The resampler draws from a prebuilt pool
#: of graphs so every trial's graph genuinely changes each period while the
#: Python graph-construction cost — identical per trial on both paths, and
#: easily the largest term with a family resampler — stays out of the
#: timed region: the gate times the kernels, not the family constructor.
#: The batch width matches the trial count (one block), where the batched
#: tick loop's fixed per-iteration cost amortizes fully.
DYNAMIC_GRAPH_SIZE = 256
DYNAMIC_PERIOD = 3
DYNAMIC_POOL = 8
DYNAMIC_TRIALS = {"smoke": 1024, "quick": 1536, "full": 2048}


class _PooledGraphResampler:
    """Draw the next graph uniformly from a prebuilt pool (picklable)."""

    def __init__(self, graphs):
        self.graphs = tuple(graphs)
        self.family_name = f"pool({len(self.graphs)})"

    def __call__(self, graph, rng):
        return self.graphs[int(rng.integers(len(self.graphs)))]


def _dynamic_scenario():
    pool = [
        random_regular_graph(DYNAMIC_GRAPH_SIZE, GRAPH_DEGREE, seed=100 + index)
        for index in range(DYNAMIC_POOL)
    ]
    return DynamicGraph(_PooledGraphResampler(pool), period=DYNAMIC_PERIOD)


@pytest.fixture(scope="module")
def bench_graph():
    return random_regular_graph(GRAPH_SIZE, GRAPH_DEGREE, seed=1)


@pytest.fixture(scope="module")
def scenario_graph():
    return random_regular_graph(SCENARIO_GRAPH_SIZE, GRAPH_DEGREE, seed=1)


# --------------------------------------------------------------------- #
# Frozen seed baseline: the original (pre-batching) synchronous engine
# loop, verbatim in structure — per-vertex Python loops for infection
# kinds, np.unique parent resolution, and per-vertex tuple materialization.
# Do not "optimise" this function; it exists to pin the comparison point.
# --------------------------------------------------------------------- #
def _seed_baseline_trial(graph, source, rng):
    n = graph.num_vertices
    flat = flat_adjacency(graph)
    all_vertices = np.arange(n, dtype=np.int64)
    informed = np.zeros(n, dtype=bool)
    informed[source] = True
    informed_round = np.full(n, np.inf)
    informed_round[source] = 0.0
    parent = np.full(n, -1, dtype=np.int64)
    kind = [None] * n
    kind[source] = "source"
    num_informed = 1
    rounds_executed = 0
    while num_informed < n:
        rounds_executed += 1
        contacts = flat.random_neighbors(all_vertices, rng.random(n))
        informed_before = informed
        contacted_informed = informed_before[contacts]
        new_by_pull = (~informed_before) & contacted_informed
        new_by_push = np.zeros(n, dtype=bool)
        pusher_mask = informed_before & ~informed_before[contacts]
        push_sources = all_vertices[pusher_mask]
        push_targets = contacts[pusher_mask]
        if push_targets.size:
            unique_targets, first_index = np.unique(push_targets, return_index=True)
            push_targets = unique_targets
            push_sources = push_sources[first_index]
            fresh = ~new_by_pull[push_targets]
            push_targets = push_targets[fresh]
            push_sources = push_sources[fresh]
            new_by_push[push_targets] = True
        newly_informed = new_by_pull | new_by_push
        if newly_informed.any():
            new_ids = all_vertices[newly_informed]
            informed_round[new_ids] = float(rounds_executed)
            pull_ids = all_vertices[new_by_pull]
            parent[pull_ids] = contacts[pull_ids]
            for v in pull_ids:
                kind[int(v)] = "pull"
            parent[push_targets] = push_sources
            for v in push_targets:
                kind[int(v)] = "push"
            informed = informed_before.copy()
            informed[new_ids] = True
            num_informed += int(new_ids.size)
    informed_time = tuple(float(t) for t in informed_round)
    tuple(int(p) for p in parent)
    tuple(kind)
    return max(informed_time)


def _seed_baseline_run_trials(graph, source, trials, seed):
    return [
        _seed_baseline_trial(graph, source, rng)
        for rng in spawn_generators(trials, seed)
    ]


def _throughput(fn, trials):
    start = time.perf_counter()
    fn()
    return trials / (time.perf_counter() - start)


def test_seed_baseline_throughput(benchmark, bench_preset, bench_graph):
    trials = TRIALS[bench_preset]
    times = benchmark.pedantic(
        _seed_baseline_run_trials,
        args=(bench_graph, 0, trials, 5),
        rounds=1,
        iterations=1,
        warmup_rounds=1,
    )
    assert len(times) == trials


def test_serial_throughput(benchmark, bench_preset, bench_graph):
    trials = TRIALS[bench_preset]
    sample = benchmark.pedantic(
        run_trials,
        args=(bench_graph, 0, "pp"),
        kwargs=dict(trials=trials, seed=5, batch=False),
        rounds=1,
        iterations=1,
        warmup_rounds=1,
    )
    assert sample.num_trials == trials


def test_batched_throughput(benchmark, bench_preset, bench_graph):
    trials = TRIALS[bench_preset]
    sample = benchmark.pedantic(
        run_trials,
        args=(bench_graph, 0, "pp"),
        kwargs=dict(trials=trials, seed=5, batch="auto"),
        rounds=1,
        iterations=1,
        warmup_rounds=1,
    )
    assert sample.num_trials == trials


def test_batched_async_throughput(benchmark, bench_preset, bench_graph):
    trials = max(128, TRIALS[bench_preset])
    sample = benchmark.pedantic(
        run_trials,
        args=(bench_graph, 0, "pp-a"),
        kwargs=dict(trials=trials, seed=5, batch="auto"),
        rounds=1,
        iterations=1,
        warmup_rounds=1,
    )
    assert sample.num_trials == trials


def test_serial_scenario_throughput(benchmark, bench_preset, scenario_graph):
    trials = SCENARIO_TRIALS[bench_preset]
    sample = benchmark.pedantic(
        run_trials,
        args=(scenario_graph, 0, "pp"),
        kwargs=dict(trials=trials, seed=5, batch=False, scenario=LOSSY),
        rounds=1,
        iterations=1,
        warmup_rounds=1,
    )
    assert sample.num_trials == trials


def test_batched_scenario_throughput(benchmark, bench_preset, scenario_graph):
    trials = SCENARIO_TRIALS[bench_preset]
    sample = benchmark.pedantic(
        run_trials,
        args=(scenario_graph, 0, "pp"),
        kwargs=dict(trials=trials, seed=5, batch="auto", scenario=LOSSY),
        rounds=1,
        iterations=1,
        warmup_rounds=1,
    )
    assert sample.num_trials == trials


def test_pooled_scenario_throughput(benchmark, bench_preset, scenario_graph):
    trials = SCENARIO_TRIALS[bench_preset]
    sample = benchmark.pedantic(
        run_trials,
        args=(scenario_graph, 0, "pp"),
        kwargs=dict(trials=trials, seed=5, batch="pooled", scenario=LOSSY),
        rounds=1,
        iterations=1,
        warmup_rounds=1,
    )
    assert sample.num_trials == trials


def test_batched_scenario_speedup_over_serial(bench_preset, scenario_graph, bench_record):
    """The scenario gate: batched lossy push-pull >= 5x the serial loop."""
    trials = SCENARIO_TRIALS[bench_preset]
    # Warm both paths (flat adjacency cache, allocator).
    run_trials(scenario_graph, 0, "pp", trials=8, seed=0, batch=False, scenario=LOSSY)
    run_trials(scenario_graph, 0, "pp", trials=8, seed=0, batch="auto", scenario=LOSSY)

    serial = _throughput(
        lambda: run_trials(
            scenario_graph, 0, "pp", trials=trials, seed=5, batch=False, scenario=LOSSY
        ),
        trials,
    )
    batched = _throughput(
        lambda: run_trials(
            scenario_graph, 0, "pp", trials=trials, seed=5, batch="auto", scenario=LOSSY
        ),
        trials,
    )
    speedup = batched / serial
    print(
        f"\nserial scenario {serial:.0f} trials/s, batched scenario {batched:.0f} "
        f"trials/s, speedup {speedup:.2f}x"
    )
    bench_record(
        "batched_scenario_vs_serial",
        seconds=trials / batched,
        speedup=speedup,
        gate=5.0,
        baseline_seconds=trials / serial,
        trials=trials,
    )
    assert speedup >= 5.0, (
        f"batched scenario path is only {speedup:.2f}x today's serial scenario loop "
        f"({serial:.0f} vs {batched:.0f} trials/s)"
    )


#: The PR-9 adaptive-adversary gate: both adaptive models at once (the E13
#: cell shape).  The crash adversary kills the source at the first epoch, so
#: most of each trial is spent in stalled partial-budget rounds — exactly
#: the regime E13 sweeps — where the batched path's win is amortized Python
#: overhead, not narrower numpy work; the measured gap (~2.5x) is therefore
#: gated at 2x, below the oblivious-scenario 5x by design, not regression.
ADAPTIVE_SCENARIO = AdaptiveCrash(budget=4) | AdaptiveLoss(p=0.5, budget=32)
ADAPTIVE_OPTIONS = {"max_rounds": 100, "on_budget_exhausted": "partial"}


def test_batched_adaptive_scenario_speedup_over_serial(
    bench_preset, scenario_graph, bench_record
):
    """The PR-9 gate: batched adaptive-adversary push-pull >= 2x the serial
    loop (and exactly seed-equivalent to it)."""
    trials = SCENARIO_TRIALS[bench_preset]
    kwargs = dict(scenario=ADAPTIVE_SCENARIO, engine_options=ADAPTIVE_OPTIONS)
    # Warm both paths (flat adjacency cache, allocator).
    run_trials(scenario_graph, 0, "pp", trials=8, seed=0, batch=False, **kwargs)
    run_trials(scenario_graph, 0, "pp", trials=8, seed=0, batch="auto", **kwargs)

    serial_sample = run_trials(
        scenario_graph, 0, "pp", trials=trials, seed=5, batch=False, **kwargs
    )
    batched_sample = run_trials(
        scenario_graph, 0, "pp", trials=trials, seed=5, batch="auto", **kwargs
    )
    assert serial_sample.times == batched_sample.times  # exact equivalence

    # Best of two runs per path: loaded CI runners spike single measurements.
    serial = max(
        _throughput(
            lambda: run_trials(
                scenario_graph, 0, "pp", trials=trials, seed=5, batch=False, **kwargs
            ),
            trials,
        )
        for _ in range(2)
    )
    batched = max(
        _throughput(
            lambda: run_trials(
                scenario_graph, 0, "pp", trials=trials, seed=5, batch="auto", **kwargs
            ),
            trials,
        )
        for _ in range(2)
    )
    speedup = batched / serial
    print(
        f"\nserial adaptive scenario {serial:.0f} trials/s, batched "
        f"{batched:.0f} trials/s, speedup {speedup:.2f}x"
    )
    bench_record(
        "batched_adaptive_scenario_vs_serial",
        seconds=trials / batched,
        speedup=speedup,
        gate=2.0,
        baseline_seconds=trials / serial,
        trials=trials,
    )
    assert speedup >= 2.0, (
        f"batched adaptive-scenario path is only {speedup:.2f}x today's serial "
        f"loop ({serial:.0f} vs {batched:.0f} trials/s)"
    )


def test_serial_aux_throughput(benchmark, bench_preset, bench_graph):
    trials = AUX_TRIALS[bench_preset]
    sample = benchmark.pedantic(
        run_trials,
        args=(bench_graph, 0, "ppx"),
        kwargs=dict(trials=trials, seed=5, batch=False),
        rounds=1,
        iterations=1,
        warmup_rounds=1,
    )
    assert sample.num_trials == trials


def test_batched_aux_throughput(benchmark, bench_preset, bench_graph):
    trials = AUX_TRIALS[bench_preset]
    sample = benchmark.pedantic(
        run_trials,
        args=(bench_graph, 0, "ppx"),
        kwargs=dict(trials=trials, seed=5, batch="auto"),
        rounds=1,
        iterations=1,
        warmup_rounds=1,
    )
    assert sample.num_trials == trials


@pytest.mark.parametrize("variant", ["ppx", "ppy"])
def test_batched_aux_speedup_over_serial(bench_preset, bench_graph, variant, bench_record):
    """The PR-3 gate: batched ppx/ppy >= 5x the serial aux engine on the
    1024-vertex random regular graph (and exactly seed-equivalent to it)."""
    trials = AUX_TRIALS[bench_preset]
    # Warm both paths (flat adjacency cache, allocator).
    run_trials(bench_graph, 0, variant, trials=4, seed=0, batch=False)
    run_trials(bench_graph, 0, variant, trials=4, seed=0, batch="auto")

    serial_sample = {}
    batched_sample = {}
    serial = _throughput(
        lambda: serial_sample.setdefault(
            "s", run_trials(bench_graph, 0, variant, trials=trials, seed=5, batch=False)
        ),
        trials,
    )
    batched = _throughput(
        lambda: batched_sample.setdefault(
            "b", run_trials(bench_graph, 0, variant, trials=trials, seed=5, batch="auto")
        ),
        trials,
    )
    assert serial_sample["s"].times == batched_sample["b"].times  # exact equivalence
    speedup = batched / serial
    print(
        f"\nserial {variant} {serial:.0f} trials/s, batched {variant} {batched:.0f} "
        f"trials/s, speedup {speedup:.2f}x"
    )
    bench_record(
        f"batched_aux_{variant}_vs_serial",
        seconds=trials / batched,
        speedup=speedup,
        gate=5.0,
        baseline_seconds=trials / serial,
        trials=trials,
    )
    assert speedup >= 5.0, (
        f"batched {variant} path is only {speedup:.2f}x the serial aux engine "
        f"({serial:.0f} vs {batched:.0f} trials/s)"
    )


def test_batched_dynamic_async_speedup_over_serial(bench_preset, bench_record):
    """The PR-5 gate: batched dynamic-graph async (per-trial padded CSR in
    the tick loop) >= 4x the serial engine it used to fall back to — while
    double-checking the fixed-seed sample equality."""
    trials = DYNAMIC_TRIALS[bench_preset]
    graph = random_regular_graph(DYNAMIC_GRAPH_SIZE, GRAPH_DEGREE, seed=1)
    kwargs = dict(scenario=_dynamic_scenario())
    # Warm both paths (flat adjacency cache for the whole pool, allocator).
    run_trials(graph, 0, "pp-a", trials=8, seed=0, batch=False, **kwargs)
    run_trials(graph, 0, "pp-a", trials=8, seed=0, batch=8, **kwargs)

    # Best of two runs per path: loaded CI runners put multi-hundred-ms
    # noise spikes on single measurements (see the PR-4 gates).
    serial_sample = run_trials(
        graph, 0, "pp-a", trials=trials, seed=5, batch=False, **kwargs
    )
    batched_sample = run_trials(
        graph, 0, "pp-a", trials=trials, seed=5, batch=trials, **kwargs
    )
    assert serial_sample.times == batched_sample.times  # exact equivalence
    serial = max(
        _throughput(
            lambda: run_trials(
                graph, 0, "pp-a", trials=trials, seed=5, batch=False, **kwargs
            ),
            trials,
        )
        for _ in range(2)
    )
    batched = max(
        _throughput(
            lambda: run_trials(
                graph, 0, "pp-a", trials=trials, seed=5, batch=trials, **kwargs
            ),
            trials,
        )
        for _ in range(2)
    )
    speedup = batched / serial
    print(
        f"\nserial dynamic async {serial:.0f} trials/s, batched {batched:.0f} "
        f"trials/s, speedup {speedup:.2f}x"
    )
    bench_record(
        "batched_dynamic_async_vs_serial",
        seconds=trials / batched,
        speedup=speedup,
        gate=4.0,
        baseline_seconds=trials / serial,
        trials=trials,
    )
    assert speedup >= 4.0, (
        f"batched dynamic-graph async path is only {speedup:.2f}x the serial "
        f"engine ({serial:.0f} vs {batched:.0f} trials/s)"
    )


#: The per-trial asynchronous gates: batched pp-a against the serial engine
#: on the scenario graph, for the global view's tick loop and for the
#: edge-clock view's compacted next-tick table with block-drawn
#: reschedules.  Both force batch=True: below ASYNC_AUTO_MIN_TRIALS the
#: auto mode would pick the serial engine.
ASYNC_TRIALS = {"smoke": 128, "quick": 256, "full": 512}
EDGE_CLOCK_TRIALS = {"smoke": 64, "quick": 96, "full": 128}


def _async_speedup_gate(graph, trials, view, record_name, bench_record, gate=2.0):
    """Batched per-trial pp-a >= ``gate`` x the serial engine under ``view``
    (and exactly seed-equivalent to it)."""
    kwargs = dict(engine_options={"view": view})
    # Warm both paths (flat adjacency cache, allocator).
    run_trials(graph, 0, "pp-a", trials=8, seed=0, batch=False, **kwargs)
    run_trials(graph, 0, "pp-a", trials=8, seed=0, batch=True, **kwargs)

    serial_sample = run_trials(graph, 0, "pp-a", trials=trials, seed=5, batch=False, **kwargs)
    batched_sample = run_trials(graph, 0, "pp-a", trials=trials, seed=5, batch=True, **kwargs)
    assert serial_sample.times == batched_sample.times  # exact equivalence

    # Best of two runs per path: loaded CI runners spike single measurements.
    serial = max(
        _throughput(
            lambda: run_trials(
                graph, 0, "pp-a", trials=trials, seed=5, batch=False, **kwargs
            ),
            trials,
        )
        for _ in range(2)
    )
    batched = max(
        _throughput(
            lambda: run_trials(
                graph, 0, "pp-a", trials=trials, seed=5, batch=True, **kwargs
            ),
            trials,
        )
        for _ in range(2)
    )
    speedup = batched / serial
    print(
        f"\nserial pp-a {view} {serial:.0f} trials/s, batched {batched:.0f} "
        f"trials/s, speedup {speedup:.2f}x"
    )
    bench_record(
        record_name,
        seconds=trials / batched,
        speedup=speedup,
        gate=gate,
        baseline_seconds=trials / serial,
        trials=trials,
    )
    assert speedup >= gate, (
        f"batched pp-a under the {view} view is only {speedup:.2f}x the serial "
        f"engine ({serial:.0f} vs {batched:.0f} trials/s)"
    )


def test_batched_async_speedup_over_serial(bench_preset, scenario_graph, bench_record):
    """Batched pp-a (global view tick loop) >= 2x the serial engine."""
    _async_speedup_gate(
        scenario_graph, ASYNC_TRIALS[bench_preset], "global",
        "batched_async_vs_serial", bench_record,
    )


def test_batched_edge_clock_speedup_over_serial(bench_preset, scenario_graph, bench_record):
    """Batched pp-a under edge_clocks >= 2x the serial engine."""
    _async_speedup_gate(
        scenario_graph, EDGE_CLOCK_TRIALS[bench_preset], "edge_clocks",
        "batched_edge_clock_vs_serial", bench_record,
    )


def test_batched_speedup_over_seed_baseline(bench_preset, bench_graph, bench_record):
    """The PR acceptance gate: batched >= 5x the seed's serial throughput."""
    trials = TRIALS[bench_preset]
    # Warm both paths (flat adjacency cache, allocator).
    _seed_baseline_run_trials(bench_graph, 0, 8, 0)
    run_trials(bench_graph, 0, "pp", trials=8, seed=0, batch="auto")

    baseline = _throughput(
        lambda: _seed_baseline_run_trials(bench_graph, 0, trials, 5), trials
    )
    batched = _throughput(
        lambda: run_trials(bench_graph, 0, "pp", trials=trials, seed=5, batch="auto"),
        trials,
    )
    speedup = batched / baseline
    print(
        f"\nseed baseline {baseline:.0f} trials/s, batched {batched:.0f} trials/s, "
        f"speedup {speedup:.2f}x"
    )
    bench_record(
        "batched_vs_seed_baseline",
        seconds=trials / batched,
        speedup=speedup,
        gate=5.0,
        baseline_seconds=trials / baseline,
        trials=trials,
    )
    assert speedup >= 5.0, (
        f"batched path is only {speedup:.2f}x the seed serial baseline "
        f"({baseline:.0f} vs {batched:.0f} trials/s)"
    )


# --------------------------------------------------------------------- #
# PR-6 gate: the numba jit backend vs the numpy reference kernels on the
# synchronous round step.  n=10^4 is where the numpy kernel's full-width
# (B, n) temporaries hurt most and the per-vertex compiled loop wins; the
# sync round kernel is also the one with no Python-side draw loop inside,
# so the measured ratio is the kernel ratio, not an RNG artifact.
# --------------------------------------------------------------------- #
JIT_GRAPH_SIZE = 10_000
JIT_TRIALS = {"smoke": 32, "quick": 64, "full": 128}


def test_jit_sync_round_speedup_over_numpy(bench_preset, bench_record):
    """The PR-6 gate: jit sync kernel >= 3x numpy at n=10^4 (bit-identical)."""
    if not jit_backend.is_compiled():
        bench_record(
            "jit_sync_round_vs_numpy",
            seconds=None,
            speedup=None,
            gate=3.0,
            skipped="numba not installed",
        )
        pytest.skip("numba is not installed; jit gate records itself as skipped")
    trials = JIT_TRIALS[bench_preset]
    graph = random_regular_graph(JIT_GRAPH_SIZE, GRAPH_DEGREE, seed=1)

    # Warm both backends outside the timed region: jit compilation happens
    # here (warmup_kernels plus one real-shape call per backend), so the
    # timings below measure steady-state kernels only.
    warmup_kernels("jit")
    check = {
        backend: run_batch(
            graph, 0, "pp", trials=8, seed=5, record_times=False, backend=backend
        )
        for backend in ("numpy", "jit")
    }
    assert np.array_equal(
        check["numpy"].completion_time, check["jit"].completion_time
    )  # exact equivalence

    def timed(backend):
        # Min of two runs: loaded CI runners spike single measurements.
        seconds = []
        for _ in range(2):
            start = time.perf_counter()
            run_batch(
                graph, 0, "pp", trials=trials, seed=5, record_times=False, backend=backend
            )
            seconds.append(time.perf_counter() - start)
        return min(seconds)

    numpy_seconds = timed("numpy")
    jit_seconds = timed("jit")
    speedup = numpy_seconds / jit_seconds
    print(
        f"\nnumpy sync kernel {numpy_seconds:.2f}s, jit {jit_seconds:.2f}s for "
        f"{trials} trials on n={JIT_GRAPH_SIZE}, speedup {speedup:.2f}x"
    )
    bench_record(
        "jit_sync_round_vs_numpy",
        seconds=jit_seconds,
        speedup=speedup,
        gate=3.0,
        baseline_seconds=numpy_seconds,
        trials=trials,
        graph_size=JIT_GRAPH_SIZE,
    )
    assert speedup >= 3.0, (
        f"jit sync kernel is only {speedup:.2f}x the numpy reference "
        f"({numpy_seconds:.2f}s vs {jit_seconds:.2f}s)"
    )


# --------------------------------------------------------------------- #
# PR-4 gate 1: zero-copy shared-memory sweep vs a fresh executor per call.
# The baseline is a frozen copy of the pre-PR-4 dispatch — a brand-new
# ProcessPoolExecutor per sweep point, the graph pickled into every chunk
# spec, whole SpreadingTimeSample objects pickled back, and a pairwise
# merged_with chain.  Do not "optimise" it; it pins the comparison point.
# --------------------------------------------------------------------- #
def _per_call_executor_point(graph, trials, seed):
    graph_seed, *chunk_seeds = spawn_seeds(SWEEP_WORKERS + 1, seed)
    base, remainder = divmod(trials, SWEEP_WORKERS)
    specs = [
        ParallelTrialSpec(
            protocol="pp",
            source=0,
            trials=base + (1 if index < remainder else 0),
            trial_seed=chunk_seed,
            graph=graph,
        )
        for index, chunk_seed in enumerate(chunk_seeds)
    ]
    with ProcessPoolExecutor(max_workers=SWEEP_WORKERS) as executor:
        samples = list(executor.map(_run_chunk, specs))
    merged = samples[0]
    for sample in samples[1:]:
        merged = merged.merged_with(sample)
    return merged


def test_shared_sweep_speedup_over_per_call_executor(bench_preset, bench_record):
    """The PR-4 sweep gate: persistent-pool shared-memory sweep >= 3x the
    fresh-executor-per-call baseline on a 16-point sweep (bit-identically)."""
    trials = SWEEP_TRIALS[bench_preset]
    graphs = [
        random_regular_graph(SWEEP_GRAPH_SIZE, 6, seed=point)
        for point in range(SWEEP_POINTS)
    ]

    def run_baseline_sweep():
        return [
            _per_call_executor_point(graph, trials, 1000 + point)
            for point, graph in enumerate(graphs)
        ]

    def run_shared_sweep():
        return [
            run_trials_parallel(
                graph,
                0,
                "pp",
                trials=trials,
                seed=1000 + point,
                num_workers=SWEEP_WORKERS,
            )
            for point, graph in enumerate(graphs)
        ]

    # Warm both paths (allocator, flat adjacency cache, and — for the
    # shared path — the persistent pool itself: a sweep is the steady
    # state this gate measures, so the one-time session startup is paid
    # before the timer, exactly as it is amortized across real sweeps).
    shutdown_pool()
    _per_call_executor_point(graphs[0], 8, 1)
    run_trials_parallel(
        graphs[0], 0, "pp", trials=8, seed=1, num_workers=SWEEP_WORKERS
    )

    # One-CPU CI runners make multi-process timings noisy; the min of two
    # runs per path is the standard stabiliser.
    baseline_samples = run_baseline_sweep()
    shared_samples = run_shared_sweep()

    def best_of_two(sweep):
        seconds = []
        for _ in range(2):
            start = time.perf_counter()
            sweep()
            seconds.append(time.perf_counter() - start)
        return min(seconds)

    baseline_seconds = best_of_two(run_baseline_sweep)
    shared_seconds = best_of_two(run_shared_sweep)
    shutdown_pool()

    # Same chunk plan, same seeds -> the transports must agree bit for bit.
    for baseline_sample, shared_sample in zip(baseline_samples, shared_samples):
        assert baseline_sample.times == shared_sample.times

    speedup = baseline_seconds / shared_seconds
    print(
        f"\nper-call executors {baseline_seconds:.2f}s, shared-memory sweep "
        f"{shared_seconds:.2f}s over {SWEEP_POINTS} points, speedup {speedup:.2f}x"
    )
    bench_record(
        "shared_memory_sweep",
        seconds=shared_seconds,
        speedup=speedup,
        gate=3.0,
        baseline_seconds=baseline_seconds,
        points=SWEEP_POINTS,
        trials_per_point=trials,
        workers=SWEEP_WORKERS,
    )
    assert speedup >= 3.0, (
        f"shared-memory sweep is only {speedup:.2f}x the per-call-executor "
        f"baseline ({baseline_seconds:.2f}s vs {shared_seconds:.2f}s)"
    )


# --------------------------------------------------------------------- #
# PR-7 gate: disabled telemetry must cost nothing on the batched hot
# path.  The baseline stubs the `current_metrics` accessor in every
# instrumented module down to the cheapest possible no-op, so the gate
# fails if the accessor (or anything guarded by it) ever grows real work
# on the telemetry-off path — e.g. a registry that defaults on, or an
# unconditional allocation sneaking ahead of the None check.
# --------------------------------------------------------------------- #
TELEMETRY_ROUNDS = {"smoke": 3, "quick": 5, "full": 7}


def test_telemetry_off_overhead(bench_preset, bench_graph, bench_record, monkeypatch):
    """Telemetry off: within 2% of an accessor-stubbed baseline."""
    from repro.analysis import montecarlo as montecarlo_module
    from repro.core import batch_engine as batch_engine_module
    from repro.core import protocols as protocols_module
    from repro.core.kernels import jit_backend as jit_module
    from repro.core.kernels import numpy_backend as numpy_module
    from repro.telemetry.metrics import current_metrics

    assert current_metrics() is None, "telemetry must be off by default"
    trials = TRIALS[bench_preset]
    rounds = TELEMETRY_ROUNDS[bench_preset]

    def workload():
        start = time.perf_counter()
        run_trials(bench_graph, 0, "pp", trials=trials, seed=5, batch=True)
        run_trials(bench_graph, 0, "pp-a", trials=max(trials // 4, 8), seed=5, batch=True)
        return time.perf_counter() - start

    def stub_accessor():
        return None

    instrumented = (
        montecarlo_module,
        batch_engine_module,
        protocols_module,
        numpy_module,
        jit_module,
    )

    workload()  # warm both engines (flat adjacency cache, allocator)
    shipped = stubbed = float("inf")
    # Interleave the two measurements so machine noise (thermal drift, a
    # background process) hits both sides; best-of-N rejects outliers.
    for _ in range(rounds):
        shipped = min(shipped, workload())
        with monkeypatch.context() as patch:
            for module in instrumented:
                patch.setattr(module, "current_metrics", stub_accessor)
            stubbed = min(stubbed, workload())

    speedup = stubbed / shipped  # >= 1 means the shipped accessor is free
    print(
        f"\ntelemetry-off {shipped:.4f}s vs stubbed baseline {stubbed:.4f}s "
        f"for {trials} sync + {max(trials // 4, 8)} async trials, "
        f"ratio {speedup:.3f}"
    )
    bench_record(
        "telemetry_off_overhead",
        seconds=shipped,
        speedup=speedup,
        gate=0.98,
        baseline_seconds=stubbed,
        trials=trials,
    )
    assert speedup >= 0.98, (
        f"disabled telemetry costs {(1 - speedup) * 100:.1f}% on the batched "
        f"hot path ({shipped:.4f}s vs {stubbed:.4f}s stubbed)"
    )


# --------------------------------------------------------------------- #
# PR-8 gate: CSR-native generation at one million vertices.  The whole
# point of building graphs as CSR arrays end to end is that *construction*
# stops being the wall at large n, so this gate times an E1-style workload
# on a random regular graph at n = 10^6 (10^5 on the smoke preset):
# configuration-model sampling + vectorised simplicity check + array-side
# connectivity, then a short synchronous push-pull sweep through the batch
# kernels.  Build time and tracemalloc peak are hard ceilings; the sweep
# time is recorded for the trajectory.  d = 3 keeps the pairing model's
# simple-sample probability at e^-2, so the fixed seed needs only a
# handful of permutation attempts.
# --------------------------------------------------------------------- #
MILLION_SIZE = {"smoke": 100_000, "quick": 1_000_000, "full": 1_000_000}
MILLION_DEGREE = 3
MILLION_TRIALS = 4
#: Ceilings at n = 10^6 (measured ~2.3 s / ~190 MiB on a laptop-class
#: machine; 20x / 5x headroom for loaded CI runners).  The smoke preset's
#: n = 10^5 run shares them — it is strictly cheaper.
MILLION_BUILD_GATE_SECONDS = 45.0
MILLION_PEAK_GATE_MIB = 1024.0


def test_million_vertex_csr_build_and_sweep(bench_preset, bench_record):
    """The PR-8 gate: build + sweep a million-vertex random regular graph."""
    import tracemalloc

    size = MILLION_SIZE[bench_preset]

    tracemalloc.start()
    start = time.perf_counter()
    graph = random_regular_graph(size, MILLION_DEGREE, seed=1)
    build_seconds = time.perf_counter() - start
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    peak_mib = peak / 2**20
    assert graph.num_vertices == size
    assert graph.csr() is not None  # stayed on the lazy CSR path

    # E1-style measurement: synchronous push-pull through the 2-D batch
    # kernels (the async event loop is inherently sequential and would
    # dominate at this n without saying anything about construction).
    start = time.perf_counter()
    sample = run_trials(graph, 0, "pp", trials=MILLION_TRIALS, seed=5, batch="auto")
    sweep_seconds = time.perf_counter() - start
    assert sample.num_trials == MILLION_TRIALS

    print(
        f"\nn={size} d={MILLION_DEGREE}: build {build_seconds:.2f}s "
        f"(peak {peak_mib:.0f} MiB), {MILLION_TRIALS}-trial pp sweep "
        f"{sweep_seconds:.2f}s"
    )
    bench_record(
        "million_vertex_csr_build",
        seconds=build_seconds,
        speedup=None,
        gate=MILLION_BUILD_GATE_SECONDS,
        peak_mib=round(peak_mib, 1),
        peak_gate_mib=MILLION_PEAK_GATE_MIB,
        sweep_seconds=round(sweep_seconds, 3),
        graph_size=size,
        degree=MILLION_DEGREE,
        trials=MILLION_TRIALS,
    )
    assert build_seconds <= MILLION_BUILD_GATE_SECONDS, (
        f"building n={size} took {build_seconds:.1f}s "
        f"(gate {MILLION_BUILD_GATE_SECONDS:.0f}s)"
    )
    assert peak_mib <= MILLION_PEAK_GATE_MIB, (
        f"building n={size} peaked at {peak_mib:.0f} MiB "
        f"(gate {MILLION_PEAK_GATE_MIB:.0f} MiB)"
    )
