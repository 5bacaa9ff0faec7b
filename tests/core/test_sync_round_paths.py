"""The paths of the synchronous round step agree.

The numpy ``sync_round_step`` resolves a wide round whose smaller status
class ``S`` is small on the callers in ``S ∪ N(S)`` only
(``_frontier_round``), and every other round on every caller
(``_full_round``).  An informative contact joins an informed and an
uninformed vertex, so its caller lies in ``S ∪ N(S)`` whichever class ``S``
is.  Under a dynamic graph the engine resolves the contacts itself and
hands them to the same kernel, on both backends.  These tests drive the
paths directly on random round states, independently of any serial replay:
rows with a single informed or a single uninformed vertex, loss and up
masks or none, every protocol, times recorded or not.  Every path must
leave the same informed matrix and times and return the same counts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch_engine import run_batch
from repro.core.flatgraph import flat_adjacency
from repro.core.kernels import jit_backend, numpy_backend
from repro.graphs import complete_graph, cycle_graph, star_graph
from repro.graphs.random_graphs import connected_erdos_renyi_graph, random_regular_graph
from repro.scenarios import DynamicGraph, FamilyResampler

MODES = {"push": (True, False), "pull": (False, True), "pp": (True, True)}

#: The kernel modules themselves: the jit loops run uncompiled when numba
#: is absent and ``REPRO_JIT_PURE_PYTHON=1`` is set.
BACKENDS = [
    pytest.param(numpy_backend, id="numpy"),
    pytest.param(
        jit_backend,
        id="jit",
        marks=pytest.mark.skipif(
            not jit_backend.is_available(), reason="numba absent and REPRO_JIT_PURE_PYTHON unset"
        ),
    ),
]


def _narrow_csr(graph) -> tuple:
    """The ``(degrees, max_offset, start, indices)`` tuple the batch engine passes."""
    flat = flat_adjacency(graph)
    degrees = flat.degrees.astype(np.int32)
    return degrees, degrees - 1, flat.indptr[:-1].astype(np.int32), flat.indices.astype(np.int32)


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=3, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    kind = draw(st.sampled_from(["erdos_renyi", "regular", "star", "cycle"]))
    if kind == "erdos_renyi":
        return connected_erdos_renyi_graph(n, seed=seed)
    if kind == "regular":
        return random_regular_graph(n + n % 2, 3, seed=seed)
    return star_graph(n) if kind == "star" else cycle_graph(n)


@st.composite
def round_states(draw):
    """A graph and one round's inputs: statuses, draws, masks and times."""
    graph = draw(graphs())
    n = graph.num_vertices
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kinds = st.sampled_from(["random", "one-informed", "one-uninformed"])
    rows = []
    for kind in draw(st.lists(kinds, min_size=1, max_size=5)):
        row = rng.random(n) < rng.random() if kind == "random" else np.zeros(n, dtype=bool)
        if kind != "random":
            row[rng.integers(n)] = True
        rows.append(~row if kind == "one-uninformed" else row)
    informed = np.array(rows)
    draws = rng.random(informed.shape)
    kept = rng.random(informed.shape) >= 0.3 if draw(st.booleans()) else None
    up = rng.random(informed.shape) >= 0.2 if draw(st.booleans()) else None
    times = None
    if draw(st.booleans()):
        times = np.where(informed, rng.integers(0, 5, informed.shape).astype(float), np.inf)
    mode = draw(st.sampled_from(sorted(MODES)))
    return graph, informed, draws, kept, up, times, mode


@given(round_states())
@settings(max_examples=200, deadline=None)
def test_frontier_round_matches_full_round(state):
    graph, informed, draws, kept, up, times, mode = state
    push_allowed, pull_allowed = MODES[mode]
    csr = _narrow_csr(graph)
    live, n = informed.shape
    counts = informed.sum(axis=1)
    ws = numpy_backend.sync_workspace(live, n, np.int32)

    full_informed = informed.copy()
    full_times = None if times is None else times.copy()
    full_counts = numpy_backend._full_round(
        csr, draws, None, kept, up, full_informed, full_times, 6, push_allowed, pull_allowed, ws
    )
    frontier_informed = informed.copy()
    frontier_times = None if times is None else times.copy()
    smaller = numpy_backend._smaller_class(frontier_informed, counts, ws)
    frontier_counts = numpy_backend._frontier_round(
        csr, smaller, draws, kept, up, frontier_informed, frontier_times, 6,
        push_allowed, pull_allowed, ws, counts,
    )

    assert np.array_equal(frontier_informed, full_informed)
    if times is not None:
        assert np.array_equal(frontier_times, full_times)
    assert np.array_equal(frontier_counts, full_counts)
    assert np.array_equal(full_counts, full_informed.sum(axis=1))
    assert not ws.seen.any(), "the frontier left marks in its scratch"


@given(round_states())
@settings(max_examples=50, deadline=None)
def test_smaller_class_is_the_smaller_status_class(state):
    _graph, informed, *_ = state
    live, n = informed.shape
    counts = informed.sum(axis=1)
    ws = numpy_backend.sync_workspace(live, n, np.int32)
    smaller = numpy_backend._smaller_class(informed, counts, ws)
    rows, vertices = np.divmod(smaller, n)
    for row in range(live):
        expected = informed[row] if 2 * counts[row] <= n else ~informed[row]
        assert np.array_equal(vertices[rows == row], np.flatnonzero(expected))


@pytest.mark.parametrize("kern", BACKENDS)
@given(state=round_states())
@settings(max_examples=100, deadline=None)
def test_resolved_contacts_match_drawn_contacts(kern, state):
    # The contacts a dynamic graph's round hands the kernel, resolved here
    # from the round's own draws on the shared graph, must do exactly what
    # the kernel does when it resolves them itself.
    graph, informed, draws, kept, up, times, mode = state
    push_allowed, pull_allowed = MODES[mode]
    csr = _narrow_csr(graph)
    live, n = informed.shape
    counts = informed.sum(axis=1)
    outcomes = []
    for contacts in (None, flat_adjacency(graph).random_neighbors_all(draws)):
        round_informed = informed.copy()
        round_times = None if times is None else times.copy()
        round_counts = kern.sync_round_step(
            csr, draws, contacts, kept, up, round_informed, round_times, 6,
            push_allowed, pull_allowed, kern.sync_workspace(live, n, np.int32), counts,
        )
        outcomes.append((round_informed, round_times, round_counts))
    (drawn_informed, drawn_times, drawn_counts), (given_informed, given_times, given_counts) = (
        outcomes
    )

    assert np.array_equal(given_informed, drawn_informed)
    if times is not None:
        assert np.array_equal(given_times, drawn_times)
    assert np.array_equal(given_counts, drawn_counts)
    assert np.array_equal(drawn_counts, drawn_informed.sum(axis=1))


def test_dynamic_graph_rounds_reach_the_traced_entry(monkeypatch):
    # A tracer that wraps the numpy `sync_round_step` by name must see every
    # round, the rounds on resampled graphs included.
    step = numpy_backend.sync_round_step
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(numpy_backend, "sync_round_step", counted)
    result = run_batch(
        complete_graph(16), 0, "push", trials=6, seed=11,
        scenario=DynamicGraph(FamilyResampler("erdos_renyi"), period=1),
        backend="numpy",
    )
    assert result.rounds.max() > 2
    assert len(calls) == result.rounds.max()
