"""Protocol engines: synchronous, asynchronous, and auxiliary rumor spreading."""

from repro.core.async_engine import (
    ASYNC_MODES,
    ASYNC_VIEWS,
    default_max_steps,
    run_asynchronous,
)
from repro.core.aux_processes import (
    AUX_VARIANTS,
    pull_probabilities,
    pull_probability,
    run_auxiliary_process,
    run_ppx,
    run_ppy,
)
from repro.core.batch_engine import (
    ASYNC_BATCH_PROTOCOLS,
    AUX_BATCH_PROTOCOLS,
    CLOCK_VIEWS,
    SYNC_BATCH_PROTOCOLS,
    is_batchable,
    run_batch,
)
from repro.core.flatgraph import FlatAdjacency, flat_adjacency
from repro.core.protocols import (
    PROTOCOLS,
    ProtocolSpec,
    available_protocols,
    get_protocol,
    is_asynchronous_protocol,
    is_synchronous_protocol,
    spread,
)
from repro.core.result import (
    BatchTimes,
    ContactEvent,
    SpreadingResult,
    check_result_consistency,
)
from repro.core.sync_engine import SYNC_MODES, default_max_rounds, run_synchronous

__all__ = [
    "ASYNC_MODES",
    "ASYNC_VIEWS",
    "default_max_steps",
    "run_asynchronous",
    "ASYNC_BATCH_PROTOCOLS",
    "AUX_BATCH_PROTOCOLS",
    "CLOCK_VIEWS",
    "SYNC_BATCH_PROTOCOLS",
    "is_batchable",
    "run_batch",
    "BatchTimes",
    "AUX_VARIANTS",
    "pull_probabilities",
    "pull_probability",
    "run_auxiliary_process",
    "run_ppx",
    "run_ppy",
    "FlatAdjacency",
    "flat_adjacency",
    "PROTOCOLS",
    "ProtocolSpec",
    "available_protocols",
    "get_protocol",
    "is_asynchronous_protocol",
    "is_synchronous_protocol",
    "spread",
    "ContactEvent",
    "SpreadingResult",
    "check_result_consistency",
    "SYNC_MODES",
    "default_max_rounds",
    "run_synchronous",
]
