"""Conversions between :class:`repro.graphs.base.Graph` and :mod:`networkx`.

The simulation engines only ever see the internal :class:`Graph` type, but
users frequently have a :class:`networkx.Graph` in hand (e.g. a social
network loaded from an edge list).  These helpers translate in both
directions, relabelling arbitrary hashable networkx node identifiers to the
contiguous integer ids the engines require and back.

networkx is imported inside the helpers that use it, so ``import repro``
(and every pool worker it starts) neither needs nor pays for it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Hashable

from repro.errors import GraphError
from repro.graphs.base import Graph

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = [
    "from_networkx",
    "to_networkx",
    "from_edge_list",
]


def from_networkx(nx_graph: "nx.Graph", *, name: str | None = None) -> tuple[Graph, dict[Hashable, int]]:
    """Convert a networkx graph to the internal representation.

    Returns the converted graph together with the mapping from original node
    identifiers to the integer ids used internally (sorted by ``repr`` for
    determinism when node labels are not mutually comparable).

    Raises:
        GraphError: for directed graphs or multigraphs (collapse them first),
            or graphs with self loops.
    """
    if nx_graph.is_directed():
        raise GraphError("directed graphs are not supported; convert to undirected first")
    if nx_graph.is_multigraph():
        raise GraphError("multigraphs are not supported; collapse parallel edges first")
    nodes = list(nx_graph.nodes())
    try:
        nodes.sort()
    except TypeError:
        nodes.sort(key=repr)
    mapping: dict[Hashable, int] = {node: index for index, node in enumerate(nodes)}
    edges = []
    for u, v in nx_graph.edges():
        if u == v:
            raise GraphError(f"self loop at node {u!r} is not supported")
        edges.append((mapping[u], mapping[v]))
    graph_name = name if name is not None else (nx_graph.name or None)
    return Graph(len(nodes), edges, name=graph_name), mapping


def to_networkx(graph: Graph) -> "nx.Graph":
    """Convert an internal graph to a :class:`networkx.Graph`.

    Node ids are preserved (integers ``0..n-1``) and the graph name is
    carried over, so the round trip ``from_networkx(to_networkx(g))``
    reproduces ``g`` exactly.
    """
    import networkx as nx

    nx_graph = nx.Graph(name=graph.name)
    nx_graph.add_nodes_from(range(graph.num_vertices))
    nx_graph.add_edges_from(graph.edges)
    return nx_graph


def from_edge_list(
    edges: list[tuple[Any, Any]],
    *,
    name: str | None = None,
) -> tuple[Graph, dict[Hashable, int]]:
    """Build a graph from an edge list over arbitrary hashable labels.

    Convenience wrapper for loading external data sets: labels are mapped to
    contiguous integer ids and the mapping is returned alongside the graph.
    """
    import networkx as nx

    nx_graph = nx.Graph()
    nx_graph.add_edges_from(edges)
    return from_networkx(nx_graph, name=name)
