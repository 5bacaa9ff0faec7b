"""Unit tests for the asynchronous engine and its three model views."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.async_engine import (
    _CLOCK_BLOCK,
    ASYNC_MODES,
    ASYNC_VIEWS,
    default_max_steps,
    run_asynchronous,
)
from repro.core.result import check_result_consistency
from repro.errors import ProtocolError, SimulationError
from repro.graphs import complete_graph, cycle_graph, path_graph, star_graph
from repro.graphs.base import Graph
from repro.graphs.random_graphs import random_regular_graph


class TestValidation:
    def test_unknown_mode_rejected(self, small_star):
        with pytest.raises(ProtocolError):
            run_asynchronous(small_star, 0, mode="gossip")

    def test_unknown_view_rejected(self, small_star):
        with pytest.raises(ProtocolError):
            run_asynchronous(small_star, 0, view="quantum")

    def test_bad_source_rejected(self, small_star):
        with pytest.raises(ProtocolError):
            run_asynchronous(small_star, -1)

    def test_disconnected_graph_rejected(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ProtocolError):
            run_asynchronous(graph, 0)

    def test_negative_budgets_rejected(self, small_star):
        with pytest.raises(ProtocolError):
            run_asynchronous(small_star, 0, max_steps=-5)
        with pytest.raises(ProtocolError):
            run_asynchronous(small_star, 0, max_time=-1.0)

    def test_bad_budget_policy_rejected(self, small_star):
        with pytest.raises(ProtocolError):
            run_asynchronous(small_star, 0, on_budget_exhausted="whatever")


class TestBasicBehaviour:
    @pytest.mark.parametrize("view", ASYNC_VIEWS)
    def test_single_vertex_graph(self, view):
        result = run_asynchronous(Graph(1, []), 0, view=view)
        assert result.completed
        assert result.steps == 0
        assert result.trace is None
        traced = run_asynchronous(Graph(1, []), 0, view=view, record_trace=True)
        assert traced.trace == ()
        assert traced.informed_time == (0.0,)
        assert traced.infection_kind == ("source",)

    @pytest.mark.parametrize("view", ASYNC_VIEWS)
    def test_completes_and_is_consistent(self, small_hypercube, view):
        result = run_asynchronous(small_hypercube, 0, view=view, seed=1)
        assert result.completed
        assert result.rounds is None
        assert result.steps is not None and result.steps > 0
        assert check_result_consistency(result) == []

    @pytest.mark.parametrize("mode", ["push", "pull", "push-pull"])
    def test_all_modes_complete(self, small_complete, mode):
        result = run_asynchronous(small_complete, 0, mode=mode, seed=2)
        assert result.completed

    def test_protocol_names(self, small_complete):
        assert run_asynchronous(small_complete, 0, mode="push-pull", seed=0).protocol == "pp-a"
        assert run_asynchronous(small_complete, 0, mode="push", seed=0).protocol == "push-a"
        assert run_asynchronous(small_complete, 0, mode="pull", seed=0).protocol == "pull-a"

    def test_reproducible_with_seed(self, small_hypercube):
        a = run_asynchronous(small_hypercube, 0, seed=5)
        b = run_asynchronous(small_hypercube, 0, seed=5)
        assert a.informed_time == b.informed_time

    def test_informing_times_increase_along_parents(self, small_hypercube):
        result = run_asynchronous(small_hypercube, 0, seed=7)
        for v in range(small_hypercube.num_vertices):
            p = result.parent[v]
            if p >= 0:
                assert result.informed_time[p] < result.informed_time[v]

    def test_times_are_continuous(self, small_complete):
        result = run_asynchronous(small_complete, 0, seed=9)
        non_integer = [t for t in result.informed_time if t > 0 and t != int(t)]
        assert non_integer  # continuous clock times are essentially never integers


class TestBudgets:
    def test_step_budget_raises_by_default(self, small_star):
        with pytest.raises(SimulationError):
            run_asynchronous(small_star, 1, max_steps=3)

    def test_step_budget_partial(self, small_star):
        result = run_asynchronous(small_star, 1, max_steps=3, on_budget_exhausted="partial", seed=1)
        assert not result.completed
        assert result.steps <= 3

    def test_time_budget_partial(self):
        graph = star_graph(64)
        result = run_asynchronous(
            graph, 1, max_time=0.05, on_budget_exhausted="partial", seed=2
        )
        assert not result.completed
        assert all(t <= 0.05 or math.isinf(t) for t in result.informed_time if t > 0)

    def test_default_budget_grows(self):
        assert default_max_steps(100) < default_max_steps(1000)


class TestStatisticalBehaviour:
    """Distributional sanity checks against closed-form expectations."""

    def test_star_async_time_is_logarithmic(self):
        graph = star_graph(128)
        times = [run_asynchronous(graph, 1, seed=s).spreading_time for s in range(60)]
        expected = math.log(127) + 0.5772
        assert np.mean(times) == pytest.approx(expected + 1.0, rel=0.35)

    def test_mean_time_equals_steps_over_n(self):
        """The expected gap between steps is 1/n, so time ~ steps / n."""
        graph = complete_graph(32)
        ratios = []
        for seed in range(30):
            result = run_asynchronous(graph, 0, seed=seed)
            ratios.append(result.spreading_time / (result.steps / 32))
        assert np.mean(ratios) == pytest.approx(1.0, abs=0.15)

    def test_push_pull_faster_than_push_on_star(self):
        graph = star_graph(48)
        pp_mean = np.mean(
            [run_asynchronous(graph, 1, mode="push-pull", seed=s).spreading_time for s in range(25)]
        )
        push_mean = np.mean(
            [run_asynchronous(graph, 1, mode="push", seed=s).spreading_time for s in range(25)]
        )
        assert pp_mean < push_mean

    def test_path_time_scales_with_length(self):
        short = np.mean(
            [run_asynchronous(path_graph(8), 0, seed=s).spreading_time for s in range(20)]
        )
        long = np.mean(
            [run_asynchronous(path_graph(32), 0, seed=s).spreading_time for s in range(20)]
        )
        assert long > 2.0 * short


class TestViewEquivalence:
    """The three views must produce statistically indistinguishable times."""

    @pytest.mark.parametrize("other_view", ["node_clocks", "edge_clocks"])
    def test_views_have_similar_means(self, other_view):
        graph = complete_graph(24)
        base = [
            run_asynchronous(graph, 0, view="global", seed=s).spreading_time for s in range(40)
        ]
        other = [
            run_asynchronous(graph, 0, view=other_view, seed=1000 + s).spreading_time
            for s in range(40)
        ]
        assert np.mean(other) == pytest.approx(np.mean(base), rel=0.25)


class TestClockViewDrawOrder:
    """The clock views' documented draw order (see ``_ScenarioState``).

    The serial/batch equivalence harness cannot see a draw-order change
    made to both engines at once, so this replays the documented draws on
    a fresh generator of the same seed and compares the end states.
    """

    @pytest.mark.parametrize("max_steps", [None, 2500])
    @pytest.mark.parametrize("lossy", [False, True])
    @pytest.mark.parametrize("view", ["node_clocks", "edge_clocks"])
    def test_generator_end_state_replays_the_documented_draws(self, view, lossy, max_steps):
        # Push on a 96-cycle takes thousands of ticks, so the run crosses
        # several refills; a 2,500-step budget ends on a short refill.
        graph = cycle_graph(96)
        rng = np.random.default_rng(29)
        result = run_asynchronous(
            graph, 0, mode="push", view=view, seed=rng, max_steps=max_steps,
            scenario="loss:p=0.3" if lossy else None, on_budget_exhausted="partial",
        )
        assert result.steps > 2 * _CLOCK_BLOCK
        budget = default_max_steps(graph.num_vertices) if max_steps is None else max_steps

        replay = np.random.default_rng(29)
        if view == "node_clocks":
            replay.exponential(1.0, graph.num_vertices)
        else:
            replay.exponential(
                [graph.degree(v) for v in range(graph.num_vertices) for _ in graph.neighbors(v)]
            )
        drawn = 0
        while drawn < result.steps:
            block = min(_CLOCK_BLOCK, budget - drawn)
            if view == "node_clocks":
                replay.random(block)  # neighbor uniforms
            if lossy:
                replay.random(block)  # loss uniforms
            replay.standard_exponential(block)  # reschedules
            drawn += block
        assert replay.bit_generator.state == rng.bit_generator.state


_TRACE_SCENARIOS = [
    None,
    "loss:p=0.3",
    "churn:crash_rate=0.05",
    "delay:low=0.5,high=2",
    "adaptive-loss:p=0.5,budget=20",
    "dynamic:family=random_regular_4,period=2",
]

#: Every view under every scenario, except a dynamic graph under
#: ``edge_clocks`` (rejected: it would change the per-pair clock set).
_TRACE_CASES = [
    (view, scenario)
    for view in ASYNC_VIEWS
    for scenario in _TRACE_SCENARIOS
    if not (view == "edge_clocks" and scenario is not None and scenario.startswith("dynamic"))
]


class TestTrace:
    """The record keeping (trace, parents, kinds, counters) under every view
    and scenario: the batched paths never see it, so only these pin it."""

    @pytest.mark.parametrize(("view", "scenario"), _TRACE_CASES)
    @pytest.mark.parametrize("mode", ASYNC_MODES)
    def test_trace_events_match_steps(self, view, scenario, mode):
        graph = random_regular_graph(24, 4, seed=5)
        result = run_asynchronous(
            graph, 0, mode=mode, view=view, seed=3, record_trace=True,
            scenario=scenario, on_budget_exhausted="partial",
        )
        assert result.trace is not None
        assert len(result.trace) == result.steps
        times = [event.time for event in result.trace]
        assert times == sorted(times)
        informing = [event for event in result.trace if event.informed is not None]
        assert len(informing) == result.num_informed - 1
        pushes = [event for event in informing if event.kind == "push"]
        assert len(pushes) == result.push_infections
        assert result.infection_kind.count("push") == result.push_infections
        assert result.infection_kind.count("pull") == result.pull_infections
        for event in informing:
            assert result.informed_time[event.informed] == event.time
            sender = event.caller if event.kind == "push" else event.callee
            assert result.parent[event.informed] == sender
        assert check_result_consistency(result) == []
        if scenario is not None and scenario.startswith("churn"):
            assert result.total_contacts <= result.steps
        else:
            assert result.total_contacts == result.steps
