"""Core graph data structure used by every simulator in the library.

The paper analyses rumor spreading on *connected, undirected, simple*
graphs.  All protocol engines in :mod:`repro.core` operate on the
:class:`Graph` type defined here rather than on :mod:`networkx` graphs for
two reasons:

* **Speed** — Monte Carlo experiments draw millions of "uniform random
  neighbor of *v*" samples.  The native representation is CSR adjacency
  (``indptr``/``indices`` arrays, adopted zero-copy via :meth:`Graph.from_csr`)
  with integer vertex ids, so kernels index neighbor slices directly; Python
  tuple views are materialised lazily only for code paths that ask for them.
* **Immutability** — a :class:`Graph` is frozen after construction, so a
  single instance can safely be shared by thousands of simulation trials
  (and across processes) without defensive copying.

Vertices are always the integers ``0 .. n-1``.  Conversion helpers to and
from :mod:`networkx` live in :mod:`repro.graphs.converters`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import Optional

from repro.errors import GraphError

__all__ = ["Graph", "Edge", "normalize_edges"]

#: An undirected edge, stored with ``u < v``.
Edge = tuple[int, int]


def normalize_edges(edges: Iterable[Sequence[int]]) -> list[Edge]:
    """Return a sorted, de-duplicated list of undirected edges.

    Each input edge may be any two-element sequence of vertex ids.  Self
    loops are rejected (the protocols contact a *neighbor*, never the node
    itself), duplicate edges — in either orientation — are collapsed.

    Raises:
        GraphError: if an edge does not have exactly two endpoints, has a
            negative endpoint, or is a self loop.
    """
    seen: set[Edge] = set()
    for edge in edges:
        if len(edge) != 2:
            raise GraphError(f"edge {edge!r} does not have exactly two endpoints")
        u, v = int(edge[0]), int(edge[1])
        if u < 0 or v < 0:
            raise GraphError(f"edge ({u}, {v}) has a negative endpoint")
        if u == v:
            raise GraphError(f"self loop ({u}, {v}) is not allowed")
        seen.add((u, v) if u < v else (v, u))
    return sorted(seen)


class Graph:
    """An immutable, undirected, simple graph on vertices ``0 .. n-1``.

    Args:
        num_vertices: number of vertices ``n``; vertices are ``0 .. n-1``.
        edges: iterable of 2-sequences of vertex ids.  Duplicates (in either
            orientation) are collapsed; self loops raise :class:`GraphError`.
        name: optional human-readable name (e.g. ``"star(128)"``) used in
            experiment tables and ``repr``.

    The most frequently used accessors are :meth:`neighbors` and
    :meth:`degree`, both O(1); neighbor lists are exposed as tuples so they
    can be handed directly to random samplers.
    """

    __slots__ = (
        "_n", "_adjacency", "_edges", "_degrees", "_name", "_csr", "_connected",
        "__weakref__",
    )

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[Sequence[int]],
        *,
        name: Optional[str] = None,
    ) -> None:
        if num_vertices < 1:
            raise GraphError(f"a graph needs at least one vertex, got {num_vertices}")
        edge_list = normalize_edges(edges)
        adjacency: list[list[int]] = [[] for _ in range(num_vertices)]
        for u, v in edge_list:
            if u >= num_vertices or v >= num_vertices:
                raise GraphError(
                    f"edge ({u}, {v}) references a vertex outside 0..{num_vertices - 1}"
                )
            adjacency[u].append(v)
            adjacency[v].append(u)
        self._n = num_vertices
        self._adjacency: Optional[tuple[tuple[int, ...], ...]] = tuple(
            tuple(sorted(nbrs)) for nbrs in adjacency
        )
        self._edges: Optional[tuple[Edge, ...]] = tuple(edge_list)
        self._degrees: Optional[tuple[int, ...]] = tuple(
            len(nbrs) for nbrs in self._adjacency
        )
        self._name = name
        self._csr = None
        self._connected: Optional[bool] = None

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._n

    # ------------------------------------------------------------------ #
    # Lazy materialization for CSR-built graphs (see :meth:`from_csr`)
    # ------------------------------------------------------------------ #
    def _materialize(self) -> None:
        """Build the Python adjacency/edge tuples from the stored CSR arrays.

        Only CSR-built graphs can reach this (``__init__`` always builds the
        tuples eagerly); it runs at most once per graph, on first access to
        a tuple-backed accessor.
        """
        indptr, indices = self._csr
        ptr = indptr.tolist() if hasattr(indptr, "tolist") else [int(p) for p in indptr]
        idx = indices.tolist() if hasattr(indices, "tolist") else [int(w) for w in indices]
        n = self._n
        if self._adjacency is None:
            self._adjacency = tuple(tuple(idx[ptr[v] : ptr[v + 1]]) for v in range(n))
        if self._degrees is None:
            self._degrees = tuple(ptr[v + 1] - ptr[v] for v in range(n))
        if self._edges is None:
            self._edges = tuple(
                (v, w) for v in range(n) for w in self._adjacency[v] if v < w
            )

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|``."""
        if self._edges is None:
            return len(self._csr[1]) // 2
        return len(self._edges)

    @property
    def name(self) -> str:
        """Human readable name; synthesised from size if none was given."""
        if self._name is not None:
            return self._name
        return f"graph(n={self._n}, m={self.num_edges})"

    @property
    def vertices(self) -> range:
        """The vertex set as a ``range`` object (vertices are ``0..n-1``)."""
        return range(self._n)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """All undirected edges as ``(u, v)`` tuples with ``u < v``."""
        if self._edges is None:
            self._materialize()
        return self._edges

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """The full adjacency structure: ``adjacency[v]`` are v's neighbors."""
        if self._adjacency is None:
            self._materialize()
        return self._adjacency

    @property
    def degrees(self) -> tuple[int, ...]:
        """Degree sequence indexed by vertex id."""
        if self._degrees is None:
            import numpy as np

            self._degrees = tuple(np.diff(np.asarray(self._csr[0])).tolist())
        return self._degrees

    def csr(self):
        """The adopted ``(indptr, indices)`` arrays of a CSR-built graph.

        ``None`` for graphs built from edge lists.  Lets
        :func:`repro.core.flatgraph.flat_adjacency` rebuild its structure
        zero-copy on a cache miss instead of materialising the Python
        tuples, keeping :meth:`from_csr`'s O(1)-attach guarantee structural
        rather than dependent on a warm cache.
        """
        return self._csr

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of vertex ``v`` (sorted tuple).

        This is the set :math:`\\Gamma(v)` from the paper.
        """
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        """Degree :math:`\\deg(v)` of vertex ``v``."""
        return self.degrees[v]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge of the graph."""
        if not (0 <= u < self._n and 0 <= v < self._n):
            return False
        # Neighbor tuples are small for most vertices; for the occasional
        # hub, a linear scan is still cheap relative to simulation cost.
        return v in self.adjacency[u]

    def __contains__(self, v: object) -> bool:
        return isinstance(v, int) and 0 <= v < self._n

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._n))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self._n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(name={self.name!r}, n={self._n}, m={self.num_edges})"

    # ------------------------------------------------------------------ #
    # Structural queries used throughout the library
    # ------------------------------------------------------------------ #
    def is_connected(self) -> bool:
        """Whether the graph is connected.

        All rumor-spreading theorems in the paper assume connectivity; the
        protocol engines validate it via this method, on every batch call.
        The graph is immutable, so the answer is computed once and kept (or
        seeded by :meth:`from_csr`).
        """
        if self._connected is None:
            self._connected = self._search_connected()
        return self._connected

    def _search_connected(self) -> bool:
        if self._n == 1:
            return True
        if self.num_edges < self._n - 1:
            return False
        if self._adjacency is None:
            return self._csr_is_connected()
        seen = bytearray(self._n)
        stack = [0]
        seen[0] = 1
        count = 1
        adjacency = self._adjacency
        while stack:
            u = stack.pop()
            for w in adjacency[u]:
                if not seen[w]:
                    seen[w] = 1
                    count += 1
                    stack.append(w)
        return count == self._n

    def _csr_is_connected(self) -> bool:
        """Connectivity straight off the CSR arrays (no tuple materialization).

        Delegates to :func:`repro.graphs.csr_build.csr_is_connected` (a
        level-synchronous frontier BFS in NumPy), so a CSR-built graph is
        checked without ever building its Python adjacency.
        """
        from repro.graphs import csr_build

        return csr_build.csr_is_connected(*self._csr)

    def connected_components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists (sorted by minimum)."""
        if self._adjacency is None:
            import numpy as np

            from repro.graphs import csr_build

            labels = csr_build.connected_component_labels(*self._csr)
            order = np.argsort(labels, kind="stable")
            splits = np.nonzero(np.diff(labels[order]))[0] + 1
            return [np.sort(part).tolist() for part in np.split(order, splits)]
        seen = bytearray(self._n)
        components: list[list[int]] = []
        adjacency = self.adjacency
        for start in range(self._n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = 1
            component = [start]
            while stack:
                u = stack.pop()
                for w in adjacency[u]:
                    if not seen[w]:
                        seen[w] = 1
                        component.append(w)
                        stack.append(w)
            components.append(sorted(component))
        return components

    def is_regular(self) -> bool:
        """Whether every vertex has the same degree."""
        return len(set(self.degrees)) <= 1

    def min_degree(self) -> int:
        """Minimum degree over all vertices."""
        return min(self.degrees)

    def max_degree(self) -> int:
        """Maximum degree over all vertices."""
        return max(self.degrees)

    def bfs_distances(self, source: int) -> list[int]:
        """Breadth-first-search distances from ``source``.

        Unreachable vertices get distance ``-1``.  Used for diameter and
        eccentricity computations and by a few deterministic lower bounds
        (the rumor needs at least ``dist(u, v)`` synchronous rounds to reach
        ``v``).
        """
        if not (0 <= source < self._n):
            raise GraphError(f"source {source} is not a vertex of {self.name}")
        dist = [-1] * self._n
        dist[source] = 0
        frontier = [source]
        adjacency = self.adjacency
        level = 0
        while frontier:
            level += 1
            next_frontier: list[int] = []
            for u in frontier:
                for w in adjacency[u]:
                    if dist[w] < 0:
                        dist[w] = level
                        next_frontier.append(w)
            frontier = next_frontier
        return dist

    def eccentricity(self, source: int) -> int:
        """Largest BFS distance from ``source``; raises if disconnected."""
        distances = self.bfs_distances(source)
        if min(distances) < 0:
            raise GraphError(f"{self.name} is not connected; eccentricity undefined")
        return max(distances)

    def subgraph(self, keep: Iterable[int], *, name: Optional[str] = None) -> "Graph":
        """Induced subgraph on the vertex set ``keep``.

        Vertices are relabelled ``0..k-1`` in increasing order of their old
        ids.  Mostly used by tests and by gap-graph constructions.
        """
        kept = sorted(set(int(v) for v in keep))
        for v in kept:
            if not (0 <= v < self._n):
                raise GraphError(f"vertex {v} is not a vertex of {self.name}")
        index = {old: new for new, old in enumerate(kept)}
        edges = [
            (index[u], index[v])
            for u, v in self.edges
            if u in index and v in index
        ]
        return Graph(len(kept), edges, name=name)

    def relabeled(self, mapping: Sequence[int], *, name: Optional[str] = None) -> "Graph":
        """Return a copy with vertex ``v`` renamed to ``mapping[v]``.

        ``mapping`` must be a permutation of ``0..n-1``.
        """
        if sorted(mapping) != list(range(self._n)):
            raise GraphError("mapping must be a permutation of 0..n-1")
        edges = [(mapping[u], mapping[v]) for u, v in self.edges]
        return Graph(self._n, edges, name=name or self._name)

    def with_name(self, name: str) -> "Graph":
        """Return the same graph carrying a different display name."""
        clone = Graph.__new__(Graph)
        clone._n = self._n
        clone._adjacency = self._adjacency
        clone._edges = self._edges
        clone._degrees = self._degrees
        clone._name = name
        clone._csr = self._csr
        clone._connected = self._connected
        return clone

    @classmethod
    def from_csr(
        cls,
        indptr,
        indices,
        *,
        name: Optional[str] = None,
        connected: Optional[bool] = None,
    ) -> "Graph":
        """Rebuild a graph from CSR adjacency arrays produced by this library.

        The trusted fast-path inverse of
        :class:`repro.core.flatgraph.FlatAdjacency`: ``indptr``/``indices``
        must describe a valid simple undirected graph with *sorted* neighbor
        lists (exactly what ``FlatAdjacency`` stores for any :class:`Graph`).
        No normalization or validation is performed, so the reconstruction
        compares equal to the original graph while skipping the
        ``normalize_edges`` sort entirely.  Used by the shared-memory
        parallel layer to reattach a graph in worker processes from arrays
        placed in a :mod:`multiprocessing.shared_memory` segment.

        Attaching is O(1): the arrays are adopted as-is and the Python
        adjacency/edge tuples are materialised lazily, on the first access
        that actually needs them.  Batch-only worker chunks, whose kernels
        read the (cached) CSR arrays, never pay the O(n + m) tuple pass at
        all.  ``connected`` seeds the :meth:`is_connected` memo with an
        answer already computed on these arrays (``None`` leaves it to a
        BFS on first use): :func:`repro.analysis.shm.attach_graph` passes
        the parent's, so a worker's first chunk pays no BFS either.
        """
        n = len(indptr) - 1
        if n < 1:
            raise GraphError("a graph needs at least one vertex")
        graph = cls.__new__(cls)
        graph._n = n
        graph._adjacency = None
        graph._edges = None
        graph._degrees = None
        graph._name = name
        graph._csr = (indptr, indices)
        graph._connected = connected
        return graph
