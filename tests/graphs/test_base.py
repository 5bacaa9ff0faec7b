"""Unit tests for the core Graph type."""

from __future__ import annotations

import pytest

from repro.errors import GraphError
from repro.graphs.base import Graph, normalize_edges


class TestNormalizeEdges:
    def test_deduplicates_and_sorts(self):
        edges = normalize_edges([(2, 1), (1, 2), (0, 3)])
        assert edges == [(0, 3), (1, 2)]

    def test_orients_edges_low_high(self):
        assert normalize_edges([(5, 2)]) == [(2, 5)]

    def test_rejects_self_loops(self):
        with pytest.raises(GraphError):
            normalize_edges([(1, 1)])

    def test_rejects_negative_vertices(self):
        with pytest.raises(GraphError):
            normalize_edges([(-1, 2)])

    def test_rejects_wrong_arity(self):
        with pytest.raises(GraphError):
            normalize_edges([(1, 2, 3)])


class TestGraphConstruction:
    def test_basic_triangle(self):
        graph = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert graph.num_vertices == 3
        assert graph.num_edges == 3
        assert graph.degrees == (2, 2, 2)
        assert graph.is_regular()

    def test_rejects_zero_vertices(self):
        with pytest.raises(GraphError):
            Graph(0, [])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 3)])

    def test_duplicate_edges_collapse(self):
        graph = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert graph.num_edges == 1
        assert graph.degree(0) == 1

    def test_name_defaults_to_size_summary(self):
        graph = Graph(4, [(0, 1)])
        assert "n=4" in graph.name

    def test_with_name_keeps_structure(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        renamed = graph.with_name("pair-of-edges")
        assert renamed.name == "pair-of-edges"
        assert renamed.edges == graph.edges
        assert renamed == graph


class TestGraphAccessors:
    def test_neighbors_are_sorted_tuples(self):
        graph = Graph(4, [(0, 3), (0, 1), (0, 2)])
        assert graph.neighbors(0) == (1, 2, 3)
        assert graph.neighbors(2) == (0,)

    def test_has_edge(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        assert graph.has_edge(0, 1)
        assert graph.has_edge(1, 0)
        assert not graph.has_edge(0, 2)
        assert not graph.has_edge(0, 99)

    def test_contains_len_iter(self):
        graph = Graph(5, [(0, 1)])
        assert 4 in graph
        assert 5 not in graph
        assert "0" not in graph
        assert len(graph) == 5
        assert list(graph) == [0, 1, 2, 3, 4]

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(1, 2), (0, 1)])
        c = Graph(3, [(0, 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != "not a graph"


class TestConnectivity:
    def test_connected_path(self):
        graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert graph.is_connected()
        assert graph.connected_components() == [[0, 1, 2, 3]]

    def test_disconnected_graph(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        assert not graph.is_connected()
        assert graph.connected_components() == [[0, 1], [2, 3]]

    def test_single_vertex_is_connected(self):
        assert Graph(1, []).is_connected()

    def test_isolated_vertex_disconnects(self):
        graph = Graph(3, [(0, 1)])
        assert not graph.is_connected()


class TestBfsAndEccentricity:
    def test_bfs_distances_on_path(self):
        graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert graph.bfs_distances(0) == [0, 1, 2, 3]
        assert graph.bfs_distances(2) == [2, 1, 0, 1]

    def test_bfs_unreachable_marked_minus_one(self):
        graph = Graph(3, [(0, 1)])
        assert graph.bfs_distances(0) == [0, 1, -1]

    def test_bfs_rejects_bad_source(self):
        graph = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(GraphError):
            graph.bfs_distances(7)

    def test_eccentricity(self):
        graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert graph.eccentricity(0) == 3
        assert graph.eccentricity(1) == 2

    def test_eccentricity_requires_connectivity(self):
        graph = Graph(3, [(0, 1)])
        with pytest.raises(GraphError):
            graph.eccentricity(0)


class TestSubgraphAndRelabel:
    def test_induced_subgraph(self):
        graph = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        sub = graph.subgraph([0, 1, 2])
        assert sub.num_vertices == 3
        assert set(sub.edges) == {(0, 1), (1, 2)}

    def test_subgraph_rejects_unknown_vertex(self):
        graph = Graph(3, [(0, 1)])
        with pytest.raises(GraphError):
            graph.subgraph([0, 5])

    def test_relabeled_permutation(self):
        graph = Graph(3, [(0, 1), (1, 2)])
        relabeled = graph.relabeled([2, 1, 0])
        assert set(relabeled.edges) == {(1, 2), (0, 1)}
        assert relabeled.degree(1) == 2

    def test_relabeled_rejects_non_permutation(self):
        graph = Graph(3, [(0, 1)])
        with pytest.raises(GraphError):
            graph.relabeled([0, 0, 1])


# --------------------------------------------------------------------- #
# The CSR lazy-materialization surface: every structural query must give
# the same answer whether the graph was built from an edge list (eager
# Python tuples) or adopted from CSR arrays (lazy tuples).  Regression
# guard for the class of bug where an accessor reads a `_`-prefixed slot
# directly and finds None on the lazy path (Graph.is_regular did).
# --------------------------------------------------------------------- #
import numpy as np

from repro.graphs import csr_build


def _build(num_vertices, edges, via):
    if via == "edges":
        return Graph(num_vertices, edges)
    heads = np.array([u for u, _ in edges], dtype=np.int64)
    tails = np.array([v for _, v in edges], dtype=np.int64)
    indptr, indices = csr_build.csr_from_half_edges(num_vertices, heads, tails)
    return Graph.from_csr(indptr, indices)


@pytest.fixture(params=["edges", "csr"])
def via(request):
    return request.param


class TestStructuralQueriesBothConstructions:
    CYCLE = (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    SPLIT = (5, [(0, 1), (1, 2), (3, 4)])

    def test_is_connected(self, via):
        assert _build(*self.CYCLE, via).is_connected()
        assert not _build(*self.SPLIT, via).is_connected()

    def test_connected_components(self, via):
        assert _build(*self.CYCLE, via).connected_components() == [[0, 1, 2, 3, 4]]
        assert _build(*self.SPLIT, via).connected_components() == [[0, 1, 2], [3, 4]]

    def test_eccentricity(self, via):
        graph = _build(*self.CYCLE, via)
        assert graph.eccentricity(0) == 2

    def test_subgraph(self, via):
        sub = _build(*self.CYCLE, via).subgraph([0, 1, 2])
        assert sub.num_vertices == 3
        assert set(sub.edges) == {(0, 1), (1, 2)}

    def test_eq_and_hash_across_constructions(self, via):
        graph = _build(*self.CYCLE, via)
        reference = Graph(*self.CYCLE)
        assert graph == reference
        assert hash(graph) == hash(reference)

    def test_is_regular(self, via):
        assert _build(*self.CYCLE, via).is_regular()
        assert not _build(*self.SPLIT, via).is_regular()

    def test_degrees_and_min_max(self, via):
        graph = _build(*self.SPLIT, via)
        assert graph.degrees == (1, 2, 1, 1, 1)
        assert graph.min_degree() == 1
        assert graph.max_degree() == 2


def test_is_regular_on_from_csr_graph_regression():
    """Graph.is_regular used to read self._degrees (None on the CSR path)
    and raise TypeError for every from_csr-built graph."""
    indptr, indices = csr_build.csr_from_half_edges(
        3, np.array([0, 1, 0]), np.array([1, 2, 2])
    )
    graph = Graph.from_csr(indptr, indices)
    assert graph.is_regular()


def test_connectivity_is_searched_once_per_graph(monkeypatch):
    """Every batch call validates connectivity.  On a CSR-built graph that
    used to rerun the O(n + m) frontier BFS per call (per pool chunk at
    n = 10^6); the answer is now kept on the graph and its renamed clones."""
    from repro.analysis.montecarlo import run_trials

    searches = []
    search = csr_build.csr_is_connected

    def counting_search(indptr, indices):
        searches.append(indptr.size - 1)
        return search(indptr, indices)

    monkeypatch.setattr(csr_build, "csr_is_connected", counting_search)
    graph = _build(*TestStructuralQueriesBothConstructions.CYCLE, "csr")
    run_trials(graph, 0, "pp", trials=4, seed=1, batch=True)
    run_trials(graph.with_name("renamed-cycle"), 0, "pp", trials=4, seed=2, batch=True)
    assert searches == [5]
