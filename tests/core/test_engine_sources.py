"""The serial engines' one source check (:func:`repro.core.budgets.check_source`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.async_engine import run_asynchronous
from repro.core.aux_processes import run_auxiliary_process
from repro.core.sync_engine import run_synchronous
from repro.errors import ProtocolError
from repro.graphs import cycle_graph

_ENGINES = {
    "sync": lambda graph, source: run_synchronous(graph, source, seed=1),
    "async": lambda graph, source: run_asynchronous(graph, source, seed=1),
    "aux": lambda graph, source: run_auxiliary_process(graph, source, variant="ppx", seed=1),
}


@pytest.mark.parametrize("engine", sorted(_ENGINES))
@pytest.mark.parametrize("source", [True, 2.0, 2.5, "2", None], ids=repr)
def test_malformed_source_rejected(engine, source):
    with pytest.raises(ProtocolError, match="source must be an integer vertex id"):
        _ENGINES[engine](cycle_graph(6), source)


@pytest.mark.parametrize("engine", sorted(_ENGINES))
def test_numpy_integer_source_is_a_python_int(engine):
    result = _ENGINES[engine](cycle_graph(6), np.int64(2))
    assert type(result.source) is int
    assert result.source == 2
    assert result.informed_time[2] == 0.0
