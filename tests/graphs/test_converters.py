"""Unit tests for networkx conversion helpers."""

from __future__ import annotations

import pytest

from repro.errors import GraphError
from repro.graphs import converters, cycle_graph, star_graph

# networkx is an optional dependency: without it the module skips.
nx = pytest.importorskip("networkx")


class TestFromNetworkx:
    def test_round_trip_preserves_structure(self):
        original = star_graph(10)
        nx_graph = converters.to_networkx(original)
        back, mapping = converters.from_networkx(nx_graph)
        assert back == original
        assert mapping == {v: v for v in range(10)}

    def test_string_labels_are_relabelled(self):
        nx_graph = nx.Graph()
        nx_graph.add_edges_from([("a", "b"), ("b", "c"), ("c", "a")])
        graph, mapping = converters.from_networkx(nx_graph)
        assert graph.num_vertices == 3
        assert graph.num_edges == 3
        assert set(mapping) == {"a", "b", "c"}
        assert sorted(mapping.values()) == [0, 1, 2]

    def test_mixed_unsortable_labels(self):
        nx_graph = nx.Graph()
        nx_graph.add_edge("a", 1)
        graph, mapping = converters.from_networkx(nx_graph)
        assert graph.num_edges == 1
        assert len(mapping) == 2

    def test_rejects_directed_graphs(self):
        with pytest.raises(GraphError):
            converters.from_networkx(nx.DiGraph([(0, 1)]))

    def test_rejects_multigraphs(self):
        with pytest.raises(GraphError):
            converters.from_networkx(nx.MultiGraph([(0, 1), (0, 1)]))

    def test_rejects_self_loops(self):
        nx_graph = nx.Graph()
        nx_graph.add_edge(0, 0)
        with pytest.raises(GraphError):
            converters.from_networkx(nx_graph)

    def test_name_override(self):
        nx_graph = nx.path_graph(4)
        graph, _ = converters.from_networkx(nx_graph, name="my-path")
        assert graph.name == "my-path"


class TestToNetworkx:
    def test_preserves_vertices_and_edges(self):
        original = cycle_graph(7)
        nx_graph = converters.to_networkx(original)
        assert nx_graph.number_of_nodes() == 7
        assert nx_graph.number_of_edges() == 7
        assert nx.is_connected(nx_graph)
        assert nx_graph.name == original.name

    def test_isolated_vertices_survive(self):
        from repro.graphs.base import Graph

        graph = Graph(5, [(0, 1)])
        nx_graph = converters.to_networkx(graph)
        assert nx_graph.number_of_nodes() == 5


class TestFromEdgeList:
    def test_builds_graph_and_mapping(self):
        graph, mapping = converters.from_edge_list(
            [("alice", "bob"), ("bob", "carol")], name="social"
        )
        assert graph.num_vertices == 3
        assert graph.num_edges == 2
        assert graph.name == "social"
        assert graph.degree(mapping["bob"]) == 2
