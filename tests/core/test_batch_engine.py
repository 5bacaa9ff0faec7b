"""Unit tests for the 2-D batched simulation kernels.

The central contract is *exact serial equivalence*: a batched trial that
consumes generator ``g`` must produce bit-for-bit the informing times of a
serial engine run seeded with ``g``.  These tests check that trial-for-trial
across protocols, graphs, sources, and budget configurations, plus the
usual validation and the ``BatchTimes`` record's derived quantities.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.montecarlo import run_trials
from repro.core.batch_engine import (
    ASYNC_BATCH_PROTOCOLS,
    SYNC_BATCH_PROTOCOLS,
    _async_state,
    _BatchJob,
    _ScenarioParts,
    run_batch,
)
from repro.core.flatgraph import flat_adjacency
from repro.core.kernels import AsyncState, numpy_backend
from repro.core.kernels.numpy_backend import _TickColumns
from repro.core.protocols import check_options, spread
from repro.core.result import BatchTimes
from repro.errors import ProtocolError, ScenarioError, SimulationError
from repro.graphs import complete_graph, cycle_graph, path_graph, star_graph
from repro.graphs.base import Graph
from repro.graphs.random_graphs import random_regular_graph
from repro.randomness.rng import as_generator, spawn_generators

ALL_BATCH_PROTOCOLS = sorted(SYNC_BATCH_PROTOCOLS) + sorted(ASYNC_BATCH_PROTOCOLS)


def serial_reference(graph, sources, protocol, seed, **options):
    """Run the serial engine once per trial with spawned generators."""
    generators = spawn_generators(len(sources), seed)
    return [
        spread(graph, source, protocol=protocol, seed=rng, **options)
        for source, rng in zip(sources, generators)
    ]


class TestSerialEquivalence:
    @pytest.mark.parametrize("protocol", ALL_BATCH_PROTOCOLS)
    @pytest.mark.parametrize(
        "graph",
        [
            star_graph(24),
            complete_graph(16),
            cycle_graph(20),
            random_regular_graph(32, 4, seed=5),
        ],
        ids=lambda g: g.name,
    )
    def test_times_match_serial_trial_for_trial(self, protocol, graph):
        sources = [1, 0, 2, 1, 3, 0]
        batched = run_batch(
            graph, sources, protocol, rngs=spawn_generators(len(sources), 123)
        )
        serial = serial_reference(graph, sources, protocol, 123)
        for i, result in enumerate(serial):
            assert tuple(batched.informed_time[i]) == result.informed_time
            assert bool(batched.completed[i]) == result.completed
            assert batched.completion_time[i] == result.spreading_time

    def test_rounds_and_steps_match_serial(self):
        graph = random_regular_graph(24, 3, seed=2)
        sources = [0] * 5
        sync = run_batch(graph, sources, "pp", rngs=spawn_generators(5, 7))
        for i, result in enumerate(serial_reference(graph, sources, "pp", 7)):
            assert sync.rounds[i] == result.rounds
        asyn = run_batch(graph, sources, "pp-a", rngs=spawn_generators(5, 7))
        for i, result in enumerate(serial_reference(graph, sources, "pp-a", 7)):
            assert asyn.steps[i] == result.steps

    def test_scalar_source_with_seed_matches_spawned_rngs(self):
        graph = star_graph(16)
        a = run_batch(graph, 1, "pp", trials=8, seed=99)
        b = run_batch(graph, [1] * 8, "pp", rngs=spawn_generators(8, 99))
        assert np.array_equal(a.informed_time, b.informed_time)

    def test_record_times_false_keeps_scalar_outputs_exact(self):
        graph = random_regular_graph(32, 4, seed=5)
        full = run_batch(graph, 0, "pp", trials=10, seed=3, record_times=True)
        scalar = run_batch(graph, 0, "pp", trials=10, seed=3, record_times=False)
        assert scalar.informed_time is None
        assert np.array_equal(full.completion_time, scalar.completion_time)
        assert np.array_equal(full.rounds, scalar.rounds)


class TestBudgets:
    def test_sync_partial_matches_serial(self):
        graph = star_graph(32)
        sources = [1] * 6
        batched = run_batch(
            graph,
            sources,
            "push",
            rngs=spawn_generators(6, 11),
            max_rounds=3,
            on_budget_exhausted="partial",
        )
        serial = serial_reference(
            graph, sources, "push", 11, max_rounds=3, on_budget_exhausted="partial"
        )
        for i, result in enumerate(serial):
            assert tuple(batched.informed_time[i]) == result.informed_time
            assert bool(batched.completed[i]) == result.completed
            assert batched.rounds[i] == result.rounds

    @pytest.mark.parametrize("options", [{"max_steps": 40}, {"max_time": 1.25}])
    def test_async_partial_matches_serial(self, options):
        graph = star_graph(24)
        sources = [1] * 6
        batched = run_batch(
            graph,
            sources,
            "pp-a",
            rngs=spawn_generators(6, 13),
            on_budget_exhausted="partial",
            **options,
        )
        serial = serial_reference(
            graph, sources, "pp-a", 13, on_budget_exhausted="partial", **options
        )
        for i, result in enumerate(serial):
            assert tuple(batched.informed_time[i]) == result.informed_time
            assert bool(batched.completed[i]) == result.completed

    def test_exhaustion_raises_by_default(self):
        with pytest.raises(SimulationError):
            run_batch(star_graph(32), 1, "push", trials=4, seed=3, max_rounds=1)
        with pytest.raises(SimulationError):
            run_batch(star_graph(32), 1, "pp-a", trials=4, seed=3, max_steps=2)

    def test_zero_step_budget_is_incomplete_not_hung(self):
        batched = run_batch(
            star_graph(8), 1, "pp-a", trials=3, seed=1, max_steps=0,
            on_budget_exhausted="partial",
        )
        assert not batched.completed.any()
        assert (batched.steps == 0).all()


class TestValidation:
    def test_bad_mode_rejected(self):
        with pytest.raises(ProtocolError):
            run_batch(star_graph(8), 0, "smoke", trials=2, seed=0)

    @pytest.mark.parametrize(
        "protocol, option",
        [
            ("pp", {"view": "node_clocks"}),
            ("ppx", {"max_steps": 5}),
            ("pp-a", {"max_rounds": 3}),
            ("pp", {"pooled_chunk": 3}),
        ],
        ids=["view-on-pp", "max_steps-on-ppx", "max_rounds-on-pp-a", "unknown-option"],
    )
    def test_misapplied_option_rejected_at_the_boundary(self, protocol, option):
        """An option the protocol's family does not take is a ProtocolError
        naming the protocol and the options it does take."""
        with pytest.raises(ProtocolError, match=rf"protocol '{protocol}' does not take") as error:
            run_batch(complete_graph(8), 0, protocol, trials=2, seed=1, **option)
        assert "on_budget_exhausted" in str(error.value)
        with pytest.raises(ProtocolError, match=rf"protocol '{protocol}' does not take"):
            check_options(protocol, option)

    @pytest.mark.parametrize("option", ["max_rounds", "max_steps", "max_time"])
    def test_negative_budget_rejected(self, option):
        protocol = "pp" if option == "max_rounds" else "pp-a"
        with pytest.raises(ProtocolError, match=f"{option} must be non-negative"):
            run_batch(star_graph(8), 0, protocol, trials=2, seed=0, **{option: -1})

    @pytest.mark.parametrize("batch", [True, False], ids=["batch", "serial"])
    @pytest.mark.parametrize(
        "protocol, option, value",
        [
            ("pp-a", "max_time", math.nan),
            ("pp-a", "max_steps", math.nan),
            ("pp-a", "max_steps", math.inf),
            ("pp", "max_rounds", math.nan),
            ("pp", "max_rounds", math.inf),
            ("ppx", "max_rounds", math.nan),
            ("ppx", "max_rounds", math.inf),
        ],
    )
    def test_non_finite_budget_rejected_on_every_path(self, protocol, option, value, batch):
        """A NaN budget, or an infinite count, is a ProtocolError naming the
        option on the batched and the serial path alike."""
        options = {option: value, "on_budget_exhausted": "partial"}
        with pytest.raises(ProtocolError, match=option):
            run_trials(
                cycle_graph(8), 0, protocol, trials=2, seed=1, batch=batch,
                engine_options=options,
            )

    def test_infinite_time_budget_is_unbounded_on_every_path(self):
        runs = [
            run_trials(
                cycle_graph(8), 0, "pp-a", trials=2, seed=1, batch=batch,
                engine_options={"max_time": math.inf},
            )
            for batch in (True, False)
        ]
        assert runs[0].times == runs[1].times
        assert all(math.isfinite(t) for t in runs[0].times)

    def test_negative_trial_count_rejected(self):
        with pytest.raises(ProtocolError, match="at least one trial"):
            run_batch(star_graph(8), 0, "pp", trials=-3, seed=0)

    def test_bad_source_rejected(self):
        with pytest.raises(ProtocolError):
            run_batch(star_graph(8), [0, 99], "pp", seed=0)

    def test_disconnected_graph_rejected(self):
        graph = Graph(4, [(0, 1), (2, 3)], name="two-edges")
        with pytest.raises(ProtocolError):
            run_batch(graph, 0, "pp", trials=2, seed=0)

    def test_scalar_source_needs_trial_count(self):
        with pytest.raises(ProtocolError):
            run_batch(star_graph(8), 0, "pp")

    @pytest.mark.parametrize(
        "sources, options, match",
        [
            ([0, 1], {"trials": 5}, None),
            (0, {"rngs": 3, "trials": 5}, None),
            (1.7, {"trials": 2}, None),
            ([0.5, 1.9], {}, None),
            ([[0, 1]], {}, None),
            (0, {"trials": 2.5}, None),
            (0, {"rngs": [1, 2]}, "rngs"),
            (0, {"trials": 2, "pooled_rng": 1}, "pooled_rng"),
            (0, {"rngs": np.random.default_rng(1)}, "rngs"),
        ],
        ids=[
            "trials-vs-sources", "trials-vs-rngs", "fractional-source",
            "fractional-sources", "2d-sources", "fractional-trials",
            "integer-rngs", "integer-pooled-rng", "one-generator-as-rngs",
        ],
    )
    def test_malformed_trial_inputs_rejected(self, sources, options, match):
        if isinstance(options.get("rngs"), int):
            options = {**options, "rngs": spawn_generators(options["rngs"], 1)}
        with pytest.raises(ProtocolError, match=match):
            run_batch(cycle_graph(8), sources, "pp", seed=1, **options)

    def test_numpy_integer_sources_accepted(self):
        scalar = run_batch(cycle_graph(8), np.int32(1), "pp", trials=2, seed=1)
        listed = run_batch(cycle_graph(8), np.array([1, 1], dtype=np.int16), "pp", seed=1)
        assert np.array_equal(scalar.informed_time, listed.informed_time)

    def test_mismatched_rngs_rejected(self):
        with pytest.raises(ProtocolError):
            run_batch(star_graph(8), [0, 1, 2], "pp", rngs=spawn_generators(2, 0))

    def test_unbatchable_protocol_rejected(self):
        with pytest.raises(ProtocolError):
            run_batch(star_graph(8), 0, "no-such-protocol", trials=2, seed=0)

    def test_unknown_view_rejected(self):
        with pytest.raises(ProtocolError):
            run_batch(star_graph(8), 0, "pp-a", trials=2, seed=0, view="smoke")

    def test_check_options_matrix(self):
        """Accepted means no raise; every protocol batches with the options
        it takes, except record_trace, which only the serial engines take."""
        for protocol, options in [
            ("pp", {}),
            ("pp-a", {}),
            ("pp-a", {"view": "global", "max_steps": 10}),
            ("ppx", {}),
            ("ppy", {}),
            ("ppx", {"max_rounds": 10}),
            ("pp-a", {"view": "node_clocks"}),
            ("pp-a", {"view": "edge_clocks", "max_time": 2.0}),
            ("pp", {"record_trace": True}),
        ]:
            check_options(protocol, options)
        for protocol, options in [
            ("ppx", {"record_trace": True}),
            ("pp-a", {"view": "smoke"}),  # unknown view
            ("pp", {"max_steps": 10}),  # async option on sync
            ("ppx", {"max_steps": 10}),  # async option on aux
        ]:
            with pytest.raises(ProtocolError):
                check_options(protocol, options)
        with pytest.raises(ProtocolError, match="record_trace"):
            run_batch(star_graph(8), 0, "pp", trials=2, seed=0, record_trace=True)

    def test_check_options_scenario_matrix(self):
        """Every runtime scenario runs wherever the serial engine runs it;
        only the serial-rejected combinations raise."""
        from repro.scenarios import (
            BurstLoss,
            Delay,
            DynamicGraph,
            FamilyResampler,
            MessageLoss,
            NodeChurn,
            TargetedChurn,
        )

        dynamic = DynamicGraph(FamilyResampler("erdos_renyi"), period=2)
        runtime = [
            MessageLoss(0.2),
            BurstLoss(0.2, 0.5, 0.8),
            NodeChurn(0.1),
            TargetedChurn(0.1),
        ]
        for scenario in runtime:
            check_options("pp", {}, scenario)
            for view in ("global", "node_clocks", "edge_clocks"):
                check_options("pp-a", {"view": view}, scenario)
            with pytest.raises(ScenarioError):
                check_options("ppx", {}, scenario)
        for view in ("global", "node_clocks", "edge_clocks"):
            check_options("pp-a", {"view": view}, Delay())
        with pytest.raises(ScenarioError):
            check_options("pp", {}, Delay())  # sync has no clocks
        check_options("pp", {}, dynamic)
        check_options("pp-a", {}, dynamic)  # async dynamic batches now
        check_options("pp-a", {"view": "node_clocks"}, dynamic)
        # The one hole in the matrix: edge clocks cannot survive a resample.
        with pytest.raises(ScenarioError):
            check_options("pp-a", {"view": "edge_clocks"}, dynamic)


class TestResampledGraphs:
    def test_resampled_csr_graphs_stay_out_of_the_adjacency_cache(self):
        # A fresh CSR-built sample per resample is read in place; caching it
        # would only evict live entries — the run's own base graph first.
        from repro.core import flatgraph
        from repro.scenarios import DynamicGraph, FamilyResampler

        graph = random_regular_graph(1024, 4, seed=1)
        before = set(flatgraph._CACHE_KEEPALIVE._entries)
        run_trials(
            graph,
            0,
            "pp",
            trials=64,
            seed=1,
            batch=True,
            scenario=DynamicGraph(FamilyResampler("erdos_renyi"), period=2),
        )
        added = set(flatgraph._CACHE_KEEPALIVE._entries) - before
        assert id(graph) in flatgraph._CACHE_KEEPALIVE
        assert all(owner == id(graph) for owner, _ in added)


class TestScenarioRejection:
    """Every path refuses the combinations no engine runs with one message,
    the one ``scenario_rejection`` writes."""

    @pytest.mark.parametrize(
        "protocol, scenario, options, message",
        [
            ("pp", "delay:low=0.5,high=2", {}, "Delay skews asynchronous clock rates"),
            (
                "pp-a", "dynamic:family=erdos_renyi,period=2", {"view": "edge_clocks"},
                "dynamic-graph scenarios are not supported under the 'edge_clocks' view",
            ),
            ("ppx", "loss:p=0.1", {}, "protocol 'ppx' is an analysis-only process"),
        ],
        ids=["sync-delay", "edge-clocks-dynamic", "aux-loss"],
    )
    def test_every_path_raises_the_same_error(self, protocol, scenario, options, message):
        graph = cycle_graph(8)
        calls = {
            "spread": lambda: spread(
                graph, 0, protocol=protocol, seed=1, scenario=scenario, **options
            ),
            "run_batch": lambda: run_batch(
                graph, 0, protocol, trials=2, seed=1, scenario=scenario, **options
            ),
            **{
                f"run_trials(batch={batch})": lambda batch=batch: run_trials(
                    graph, 0, protocol, trials=2, seed=1, batch=batch,
                    scenario=scenario, engine_options=options,
                )
                for batch in (False, True)
            },
        }
        messages = {}
        for name, call in calls.items():
            with pytest.raises(ScenarioError) as raised:
                call()
            messages[name] = str(raised.value)
        assert len(set(messages.values())) == 1, messages
        assert message in messages["spread"]


class TestBatchTimesRecord:
    def test_trivial_single_vertex_graph(self):
        batched = run_batch(Graph(1, [], name="dot"), 0, "pp", trials=4, seed=0)
        assert batched.completed.all()
        assert (batched.completion_time == 0.0).all()
        assert batched.num_trials == 4

    def test_derived_quantities_match_spreading_result(self):
        graph = random_regular_graph(24, 3, seed=4)
        sources = [0, 1, 2, 3]
        batched = run_batch(graph, sources, "pp", rngs=spawn_generators(4, 21))
        serial = serial_reference(graph, sources, "pp", 21)
        assert np.array_equal(
            batched.spreading_times(), [r.spreading_time for r in serial]
        )
        for fraction in (0.25, 0.5, 1.0):
            assert np.array_equal(
                batched.time_to_inform_fraction(fraction),
                [r.time_to_inform_fraction(fraction) for r in serial],
            )
        assert batched.is_synchronous
        assert "pp on" in batched.summary()

    def test_fraction_needs_recorded_times(self):
        batched = run_batch(star_graph(8), 0, "pp", trials=2, seed=0, record_times=False)
        with pytest.raises(ValueError):
            batched.time_to_inform_fraction(0.5)
        with pytest.raises(ValueError):
            batched.time_to_inform_fraction(1.5)


class TestCompletionMasking:
    """Finished trials must be frozen: more rounds for slow trials in the
    same batch can never change (resurrect) an already-completed trial."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        batch=st.integers(min_value=1, max_value=9),
        protocol=st.sampled_from(ALL_BATCH_PROTOCOLS),
    )
    def test_batch_composition_invariance(self, seed, batch, protocol):
        """Each trial's outcome is independent of its batch-mates: running
        the batch together equals running every trial in its own batch."""
        graph = star_graph(12)
        sources = [(seed + i) % graph.num_vertices for i in range(batch)]
        together = run_batch(graph, sources, protocol, rngs=spawn_generators(batch, seed))
        alone_rngs = spawn_generators(batch, seed)
        for i in range(batch):
            alone = run_batch(graph, [sources[i]], protocol, rngs=[alone_rngs[i]])
            assert np.array_equal(together.informed_time[i], alone.informed_time[0])
            assert together.completed[i] == alone.completed[0]

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        batch=st.integers(min_value=2, max_value=8),
    )
    def test_completed_trials_are_internally_consistent(self, seed, batch):
        graph = cycle_graph(10)
        batched = run_batch(graph, 0, "pp", trials=batch, seed=seed)
        assert batched.completed.all()
        times = batched.informed_time
        assert np.isfinite(times).all()
        # The completion time is exactly the last informing time, and no
        # vertex is informed after its trial completed.
        assert np.array_equal(times.max(axis=1), batched.completion_time)
        assert np.array_equal(times[:, 0], np.zeros(batch))
        assert np.array_equal(batched.rounds.astype(float), batched.completion_time)


_BLOCK_GRAPHS = [
    star_graph(12),
    cycle_graph(10),
    complete_graph(6),
    random_regular_graph(16, 3, seed=4),
]


def _block_state(graph, informed, now, mode, time_budget, record_times):
    """The state the engine builds for a scenario-free global-view run,
    moved to the mid-run informed sets and clocks given."""
    trials = informed.shape[0]
    state = _async_state(
        _BatchJob(
            graph=graph, sources=np.zeros(trials, dtype=np.int64), generators=None,
            pooled_rng=None, mode=mode, view="global", record_times=record_times,
            parts=_ScenarioParts(None), kern=numpy_backend, metrics=None,
            budget=10**6, time_budget=time_budget,
        )
    )
    state.informed[:] = informed
    state.num_informed[:] = informed.sum(axis=1)
    if record_times:
        state.times[:] = np.where(informed, 0.0, np.inf)
    state.now[:] = now
    return state


class TestRelaxedBlockConsumer:
    """Earliest-arrival relaxation resolves a block exactly as the column
    walk does, from dense mid-run states the registry reaches only by
    chance."""

    @settings(max_examples=120, deadline=None)
    @given(
        graph=st.sampled_from(_BLOCK_GRAPHS),
        rows_live=st.integers(min_value=1, max_value=40),
        width=st.integers(min_value=1, max_value=300),
        mode=st.sampled_from(["push-pull", "push", "pull"]),
        density=st.floats(min_value=0.0, max_value=1.0),
        budget_at=st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.2)),
        record_times=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_relaxation_equals_column_walk(
        self, graph, rows_live, width, mode, density, budget_at, record_times, seed,
    ):
        rng = as_generator(seed)
        n = graph.num_vertices
        flat = flat_adjacency(graph)
        # The live rows are a sorted subset of a larger batch, as after
        # retirements, and every one of them still misses a vertex.
        total_rows = rows_live + int(rng.integers(0, 5))
        rows = np.sort(rng.choice(total_rows, size=rows_live, replace=False))
        informed = rng.random((total_rows, n)) < density
        informed[np.arange(total_rows), rng.integers(0, n, total_rows)] = False
        now = rng.random(total_rows)
        gaps = rng.exponential(1.0 / n, (rows_live, width))
        gaps[rng.random(gaps.shape) < 0.1] = 0.0  # ties in time, never in column
        tick_times = now[rows][:, None] + np.cumsum(gaps, axis=1)
        budget = np.inf
        if budget_at is not None:
            low, high = tick_times.min(), tick_times.max()
            budget = low + budget_at * (high - low)
        callers = rng.integers(0, n, (rows_live, width))
        offsets = (rng.random(callers.shape) * flat.degrees[callers]).astype(np.int64)
        callees = flat.indices[flat.indptr[callers] + offsets]
        row_base = (rows * n)[:, None]
        block = (tick_times, callers + row_base, callees + row_base)
        executed = int(rng.integers(0, 10_000))

        relaxed = _block_state(graph, informed, now, mode, budget, record_times)
        kept = _TickColumns(relaxed).consume(rows, executed, *block, None)
        walked = _block_state(graph, informed, now, mode, budget, record_times)
        walk_kept = _TickColumns(walked)._walk(
            rows, executed, *(np.ascontiguousarray(a.T) for a in block), None
        )
        assert np.array_equal(kept, walk_kept)
        for name in AsyncState.__slots__:
            value = getattr(walked, name, None)
            if isinstance(value, np.ndarray):
                assert np.array_equal(getattr(relaxed, name), value), name
