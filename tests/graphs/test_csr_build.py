"""Tests for the CSR-native construction path (PR 8).

Three layers:

* unit tests for :mod:`repro.graphs.csr_build` (assembly, edge recovery,
  patching, connectivity, component labelling);
* fixed-seed equality: CSR-built deterministic generators — and the
  configuration-model ``random_regular_graph``, whose RNG draw order the
  rewrite preserved — compare ``==`` to independent legacy edge-list
  constructions reimplemented here;
* distributional equality: the geometric-skip ER sampler and the
  Miller–Hagberg Chung–Lu sampler changed their draw patterns, so they are
  pinned by KS tests against row-Bernoulli reference samplers (the exact
  pre-PR-8 algorithms) rather than seed-for-seed.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphGenerationError
from repro.graphs import csr_build, generators
from repro.graphs.base import Graph
from repro.graphs.gap_graphs import string_of_stars_graph
from repro.graphs.random_graphs import (
    chung_lu_graph,
    erdos_renyi_graph,
    random_regular_graph,
)
from repro.randomness.rng import as_generator
from tests.helpers.equivalence import assert_same_distribution


class TestCsrBuild:
    def test_csr_from_half_edges_sorted_neighbor_lists(self):
        indptr, indices = csr_build.csr_from_half_edges(
            4, np.array([2, 0, 1]), np.array([3, 1, 2])
        )
        assert indptr.tolist() == [0, 1, 3, 5, 6]
        assert indices.tolist() == [1, 0, 2, 1, 3, 2]

    def test_empty_edge_set(self):
        indptr, indices = csr_build.csr_from_half_edges(
            3, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert indptr.tolist() == [0, 0, 0, 0]
        assert indices.size == 0

    def test_csr_edges_roundtrip(self):
        edges = [(0, 1), (1, 2), (0, 3), (2, 3)]
        indptr, indices = csr_build.csr_from_half_edges(
            4, np.array([u for u, _ in edges]), np.array([v for _, v in edges])
        )
        heads, tails = csr_build.csr_edges(indptr, indices)
        assert sorted(zip(heads.tolist(), tails.tolist())) == sorted(edges)

    def test_csr_add_edges_matches_rebuild(self):
        indptr, indices = csr_build.csr_from_half_edges(
            5, np.array([0, 3]), np.array([1, 4])
        )
        new_indptr, new_indices = csr_build.csr_add_edges(
            indptr, indices, np.array([1]), np.array([3])
        )
        reference = Graph(5, [(0, 1), (3, 4), (1, 3)])
        assert Graph.from_csr(new_indptr, new_indices) == reference

    def test_csr_is_connected(self):
        path = csr_build.csr_from_half_edges(4, np.array([0, 1, 2]), np.array([1, 2, 3]))
        split = csr_build.csr_from_half_edges(4, np.array([0, 2]), np.array([1, 3]))
        assert csr_build.csr_is_connected(*path)
        assert not csr_build.csr_is_connected(*split)

    def test_component_labels_numbered_by_smallest_member(self):
        # Components {1, 4}, {0, 3}, {2}: labels by smallest member order.
        indptr, indices = csr_build.csr_from_half_edges(
            5, np.array([1, 0]), np.array([4, 3])
        )
        labels = csr_build.connected_component_labels(indptr, indices)
        assert labels.tolist() == [0, 1, 2, 0, 1]
        reps = csr_build.component_representatives(labels)
        assert reps.tolist() == [0, 1, 2]

    def test_component_labels_reject_out_of_range_indices(self):
        # scipy reads CSR indices unchecked; a bad one must raise, not crash.
        with pytest.raises(ValueError, match="0..1"):
            csr_build.connected_component_labels(np.array([0, 1, 2]), np.array([5, 0]))

    def test_labels_match_graph_connected_components(self):
        rng = np.random.default_rng(7)
        heads, tails = [], []
        for u, v in itertools.combinations(range(30), 2):
            if rng.random() < 0.02:
                heads.append(u)
                tails.append(v)
        indptr, indices = csr_build.csr_from_half_edges(
            30, np.array(heads, dtype=np.int64), np.array(tails, dtype=np.int64)
        )
        labels = csr_build.connected_component_labels(indptr, indices)
        components = Graph.from_csr(indptr, indices).connected_components()
        for label, component in enumerate(components):
            assert all(labels[v] == label for v in component)


# --------------------------------------------------------------------- #
# The one-key assembly and the scatter/gather BFS against references.
# --------------------------------------------------------------------- #
def _lexsort_csr(n, heads, tails):
    """The two-column ``np.lexsort`` assembly the one-key sort replaced."""
    heads = np.asarray(heads, dtype=np.int64)
    tails = np.asarray(tails, dtype=np.int64)
    sym_heads = np.concatenate([heads, tails])
    sym_tails = np.concatenate([tails, heads])
    order = np.lexsort((sym_tails, sym_heads))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(sym_heads, minlength=n), out=indptr[1:])
    return indptr, sym_tails[order]


def _python_bfs_labels(n, edges):
    """Component labels by a plain-Python BFS, numbered by smallest member."""
    adjacency = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    labels = [-1] * n
    label = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        labels[start] = label
        queue = [start]
        for u in queue:
            for w in adjacency[u]:
                if labels[w] < 0:
                    labels[w] = label
                    queue.append(w)
        label += 1
    return labels


@st.composite
def simple_edge_sets(draw):
    """``(n, heads, tails)``: a random simple edge set in random orientation
    and order, as int64 or int32 arrays; empty sets and isolated vertices
    included."""
    n = draw(st.integers(min_value=1, max_value=40))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    chosen = draw(st.permutations(chosen))
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    oriented = [(v, u) if flip else (u, v) for (u, v), flip in zip(chosen, flips)]
    dtype = draw(st.sampled_from([np.int64, np.int32]))
    heads = np.array([u for u, _ in oriented], dtype=dtype)
    tails = np.array([v for _, v in oriented], dtype=dtype)
    return n, heads, tails


class TestOneKeyAssembly:
    @settings(max_examples=200, deadline=None)
    @given(simple_edge_sets())
    def test_equals_two_column_lexsort(self, edge_set):
        n, heads, tails = edge_set
        indptr, indices = csr_build.csr_from_half_edges(n, heads, tails)
        ref_indptr, ref_indices = _lexsort_csr(n, heads, tails)
        assert indptr.dtype == indices.dtype == np.int64
        np.testing.assert_array_equal(indptr, ref_indptr)
        np.testing.assert_array_equal(indices, ref_indices)

    def test_keys_beyond_int32_from_int32_endpoints(self):
        # 69_999 * 70_000 + 69_998 > 2**31: the key must be formed in int64.
        n = 70_000
        heads = np.array([69_999, 0], dtype=np.int32)
        tails = np.array([69_998, 69_999], dtype=np.int32)
        indptr, indices = csr_build.csr_from_half_edges(n, heads, tails)
        ref_indptr, ref_indices = _lexsort_csr(n, heads, tails)
        np.testing.assert_array_equal(indptr, ref_indptr)
        np.testing.assert_array_equal(indices, ref_indices)
        assert indices[indptr[n - 1] : indptr[n]].tolist() == [0, 69_998]


class TestFrontierBfs:
    def test_matches_python_bfs_on_graphs_with_many_components(self):
        rng = np.random.default_rng(20160725)
        disconnected = 0
        for _ in range(200):
            n = int(rng.integers(1, 120))
            pairs = [
                (u, v)
                for u, v in itertools.combinations(range(n), 2)
                if rng.random() < 1.5 / n
            ]
            heads = np.array([u for u, _ in pairs], dtype=np.int64)
            tails = np.array([v for _, v in pairs], dtype=np.int64)
            indptr, indices = csr_build.csr_from_half_edges(n, heads, tails)
            expected = _python_bfs_labels(n, pairs)
            labels = csr_build.connected_component_labels(indptr, indices)
            assert labels.tolist() == expected
            connected = max(expected) == 0
            assert csr_build.csr_is_connected(indptr, indices) == connected
            graph = Graph.from_csr(indptr, indices)
            assert graph.is_connected() == connected
            assert graph.connected_components() == Graph(n, pairs).connected_components()
            disconnected += not connected
        assert disconnected >= 150  # the sample is mostly many-component graphs
        # One graph with thousands of components: n/4 random edges leave
        # about 3n/4 of them, most isolated vertices.
        n = 4000
        endpoints = rng.integers(0, n, size=(n // 4, 2))
        pairs = sorted({(min(u, v), max(u, v)) for u, v in endpoints.tolist() if u != v})
        heads = np.array([u for u, _ in pairs], dtype=np.int64)
        tails = np.array([v for _, v in pairs], dtype=np.int64)
        indptr, indices = csr_build.csr_from_half_edges(n, heads, tails)
        expected = _python_bfs_labels(n, pairs)
        assert max(expected) >= 2500
        labels = csr_build.connected_component_labels(indptr, indices)
        assert labels.dtype == np.int64
        assert labels.tolist() == expected


# --------------------------------------------------------------------- #
# Fixed-seed equality against independent legacy edge-list constructions.
# --------------------------------------------------------------------- #
def _legacy_star(n):
    return Graph(n, [(0, v) for v in range(1, n)])


def _legacy_complete(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


def _legacy_cycle(n):
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


def _legacy_grid(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def _legacy_torus(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            edges.append((v, r * cols + (c + 1) % cols))
            edges.append((v, ((r + 1) % rows) * cols + c))
    return Graph(rows * cols, edges)


def _legacy_hypercube(dimension):
    n = 1 << dimension
    edges = [(v, v ^ (1 << bit)) for v in range(n) for bit in range(dimension)]
    return Graph(n, edges)


def _legacy_string_of_stars(chain_length, bundle_size):
    num_hubs = chain_length + 1
    edges = []
    leaf = num_hubs
    for link in range(chain_length):
        for _ in range(bundle_size):
            edges.append((link, leaf))
            edges.append((leaf, link + 1))
            leaf += 1
    return Graph(num_hubs + chain_length * bundle_size, edges)


DETERMINISTIC_CASES = [
    (lambda: generators.star_graph(17), lambda: _legacy_star(17)),
    (lambda: generators.complete_graph(9), lambda: _legacy_complete(9)),
    (lambda: generators.cycle_graph(12), lambda: _legacy_cycle(12)),
    (lambda: generators.grid_graph(4, 5), lambda: _legacy_grid(4, 5)),
    (lambda: generators.torus_graph(4, 5), lambda: _legacy_torus(4, 5)),
    (lambda: generators.hypercube_graph(5), lambda: _legacy_hypercube(5)),
    (lambda: string_of_stars_graph(3, 4), lambda: _legacy_string_of_stars(3, 4)),
]


@pytest.mark.parametrize(
    "build, reference",
    DETERMINISTIC_CASES,
    ids=["star", "complete", "cycle", "grid", "torus", "hypercube", "string_of_stars"],
)
def test_csr_generator_equals_legacy_edge_list(build, reference):
    graph = build()
    legacy = reference()
    assert graph.csr() is not None  # stayed on the CSR-native path
    assert graph == legacy
    assert hash(graph) == hash(legacy)


def _legacy_random_regular(n, degree, seed):
    """The pre-PR-8 configuration-model loop, verbatim in its RNG draws."""
    rng = as_generator(seed)
    stubs_template = np.repeat(np.arange(n, dtype=np.int64), degree)
    for _ in range(400):
        stubs = rng.permutation(stubs_template)
        pairs = stubs.reshape(-1, 2)
        edge_set = set()
        simple = True
        for a, b in pairs:
            u, v = int(a), int(b)
            if u == v:
                simple = False
                break
            key = (u, v) if u < v else (v, u)
            if key in edge_set:
                simple = False
                break
            edge_set.add(key)
        if not simple:
            continue
        graph = Graph(n, sorted(edge_set))
        if graph.is_connected():
            return graph
    raise AssertionError("legacy reference did not converge")


@pytest.mark.parametrize("n, degree, seed", [(32, 4, 5), (24, 3, 2), (30, 2, 11)])
def test_random_regular_equals_legacy_at_fixed_seed(n, degree, seed):
    """The vectorised simplicity check accepts exactly the attempts the
    legacy Python loop accepted and consumes no RNG draws, so the sampled
    graph is bit-identical to the pre-PR-8 implementation."""
    assert random_regular_graph(n, degree, seed=seed) == _legacy_random_regular(
        n, degree, seed
    )


# --------------------------------------------------------------------- #
# Satellite-bug regressions: random_regular connectivity guarantees.
# --------------------------------------------------------------------- #
class TestRandomRegularConnectivityRegressions:
    def test_degree_one_on_two_vertices_is_the_single_edge(self):
        graph = random_regular_graph(2, 1, seed=0)
        assert graph.edges == ((0, 1),)
        assert graph.is_connected()

    def test_degree_one_beyond_two_vertices_raises(self):
        """degree == 1 used to short-circuit the connectivity check and
        return a perfect matching — disconnected for every n > 2."""
        with pytest.raises(GraphGenerationError):
            random_regular_graph(10, 1, seed=0)

    def test_degree_two_samples_are_connected(self):
        """The nx fallback used to accept any degree <= 2 sample (a union
        of cycles); every returned 2-regular graph must be one cycle."""
        for seed in range(8):
            graph = random_regular_graph(24, 2, seed=seed)
            assert graph.is_connected()
            assert set(graph.degrees) == {2}


# --------------------------------------------------------------------- #
# Distributional pins for the samplers whose algorithms changed.
# --------------------------------------------------------------------- #
def _legacy_erdos_renyi_edge_count(n, p, seed):
    rng = as_generator(seed)
    count = 0
    for u in range(n - 1):
        row = rng.random(n - u - 1)
        count += int(np.count_nonzero(row < p))
    return count


def _legacy_chung_lu_degree_sum(weights, seed):
    w = np.asarray(weights, dtype=float)
    total = float(w.sum())
    rng = as_generator(seed)
    count = 0
    for u in range(w.size - 1):
        probs = np.minimum(1.0, w[u] * w[u + 1 :] / total)
        count += int(np.count_nonzero(rng.random(w.size - u - 1) < probs))
    return count


def test_erdos_renyi_edge_count_distribution_matches_row_bernoulli():
    """Geometric skip sampling is exactly Binomial(n(n-1)/2, p): the edge
    counts must be indistinguishable from the legacy row-Bernoulli loop."""
    n, p, samples = 64, 0.08, 200
    skip = [erdos_renyi_graph(n, p, seed=s).num_edges for s in range(samples)]
    legacy = [
        _legacy_erdos_renyi_edge_count(n, p, 10_000 + s) for s in range(samples)
    ]
    assert_same_distribution(skip, legacy, label="erdos_renyi edge count")


def test_chung_lu_edge_count_distribution_matches_row_bernoulli():
    """Miller–Hagberg skip sampling preserves every pairwise probability
    min(1, w_u w_v / W): edge counts match the legacy independent-coin loop."""
    rng = np.random.default_rng(3)
    weights = rng.uniform(1.0, 12.0, size=48)
    samples = 200
    skip = [
        chung_lu_graph(weights, seed=s, ensure_connected=False).num_edges
        for s in range(samples)
    ]
    legacy = [
        _legacy_chung_lu_degree_sum(weights, 10_000 + s) for s in range(samples)
    ]
    assert_same_distribution(skip, legacy, label="chung_lu edge count")


def test_erdos_renyi_per_pair_inclusion_probability():
    """Beyond totals: each individual pair must appear with probability p
    (the skip sampler enumerates pairs lexicographically, so a bias would
    show up at specific positions, e.g. the first or last pair)."""
    n, p, samples = 10, 0.3, 400
    first = last = 0
    for s in range(samples):
        graph = erdos_renyi_graph(n, p, seed=s)
        first += graph.has_edge(0, 1)  # linear pair index 0
        last += graph.has_edge(n - 2, n - 1)  # linear pair index 44
    for count in (first, last):
        # 5-sigma band around Binomial(samples, p).
        sigma = (samples * p * (1 - p)) ** 0.5
        assert abs(count - samples * p) < 5 * sigma
