"""Integration tests across subsystems: engines vs couplings vs analysis."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro import spread
from repro.analysis import run_trials
from repro.coupling import run_block_coupling, run_coupled_processes
from repro.core.aux_processes import run_ppx, run_ppy
from repro.core.sync_engine import run_synchronous
from repro.graphs import complete_graph, from_networkx, hypercube_graph, star_graph, to_networkx
from repro.randomness.dominance import dominates_empirically


class TestAuxiliaryProcessChain:
    """The chain pp ≽ ppx and the closeness of ppy/pp-a that Theorem 4 composes."""

    @pytest.mark.parametrize(
        "graph, source",
        [(complete_graph(32), 0), (hypercube_graph(5), 0), (star_graph(32), 1)],
        ids=["complete", "hypercube", "star"],
    )
    def test_ppx_dominated_by_pp(self, graph, source):
        ppx_times = [run_ppx(graph, source, seed=s).spreading_time for s in range(60)]
        pp_times = [run_synchronous(graph, source, seed=900 + s).spreading_time for s in range(60)]
        assert dominates_empirically(ppx_times, pp_times).holds

    def test_coupled_run_consistent_with_theorem4_composition(self):
        graph = hypercube_graph(5)
        budget = 8 * math.log(graph.num_vertices) + 8
        for seed in range(10):
            run = run_coupled_processes(graph, 0, seed=seed)
            # Composing Lemma 9 and Lemma 10: t_v <= 8 r_v + O(log n).
            assert run.theorem_slack() <= 3 * budget


class TestBlockCouplingVsEngines:
    """The block coupling's implied bound is consistent with direct measurements."""

    def test_block_rounds_upper_bound_direct_sync_time(self):
        graph = hypercube_graph(5)
        # Direct synchronous spreading time.
        direct = np.mean(
            [run_synchronous(graph, 0, seed=s).spreading_time for s in range(30)]
        )
        # Rounds generated by the coupling (an upper bound on pp's time, by Lemma 13).
        coupled = np.mean([run_block_coupling(graph, 0, seed=s).num_rounds for s in range(15)])
        assert coupled >= 0.5 * direct

    def test_block_steps_match_async_engine_steps(self):
        graph = complete_graph(32)
        engine_steps = np.mean([spread(graph, 0, protocol="pp-a", seed=s).steps for s in range(30)])
        coupling_steps = np.mean(
            [run_block_coupling(graph, 0, seed=100 + s).num_steps for s in range(30)]
        )
        # Same stopping rule (all informed), same step law, so the means agree.
        assert coupling_steps == pytest.approx(engine_steps, rel=0.3)


class TestNetworkxInterop:
    """A user can bring a networkx graph, convert, and run the whole pipeline."""

    def test_full_pipeline_on_converted_graph(self):
        nx = pytest.importorskip("networkx")
        nx_graph = nx.les_miserables_graph()
        graph, mapping = from_networkx(nx_graph)
        assert graph.is_connected()
        sample = run_trials(graph, 0, "pp-a", trials=10, seed=1)
        assert sample.num_trials == 10
        assert all(np.isfinite(sample.times))
        # Round-trip back to networkx keeps the structure.
        back = to_networkx(graph)
        assert back.number_of_edges() == nx_graph.number_of_edges()


class TestCoupledMarginalsMatchEngines:
    """The coupled ppx marginal law matches the standalone ppx engine (KS test)."""

    def test_ppx_marginal(self):
        graph = complete_graph(24)
        coupled = [run_coupled_processes(graph, 0, seed=s).ppx_spreading_time for s in range(50)]
        direct = [run_ppx(graph, 0, seed=500 + s).spreading_time for s in range(50)]
        assert scipy_stats.ks_2samp(coupled, direct).pvalue > 0.01

    def test_ppy_marginal(self):
        graph = complete_graph(24)
        coupled = [run_coupled_processes(graph, 0, seed=s).ppy_spreading_time for s in range(50)]
        direct = [run_ppy(graph, 0, seed=900 + s).spreading_time for s in range(50)]
        assert scipy_stats.ks_2samp(coupled, direct).pvalue > 0.01
