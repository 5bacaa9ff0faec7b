"""Unit tests for the protocol registry and the spread() entry point."""

from __future__ import annotations

import pytest

from repro.core.protocols import (
    PROTOCOLS,
    available_protocols,
    get_protocol,
    is_asynchronous_protocol,
    is_synchronous_protocol,
    spread,
)
from repro.errors import ProtocolError
from repro.graphs import star_graph


class TestRegistry:
    def test_all_paper_protocols_registered(self):
        assert {"pp", "push", "pull", "pp-a", "push-a", "pull-a", "ppx", "ppy"} == set(PROTOCOLS)

    def test_available_protocols_sorted(self):
        names = available_protocols()
        assert names == sorted(names)

    def test_analysis_only_filter(self):
        realistic = available_protocols(include_analysis_only=False)
        assert "ppx" not in realistic and "ppy" not in realistic
        assert "pp" in realistic and "pp-a" in realistic

    def test_get_protocol_unknown(self):
        with pytest.raises(ProtocolError, match="available"):
            get_protocol("broadcast")

    def test_synchronous_flags(self):
        assert is_synchronous_protocol("pp")
        assert is_synchronous_protocol("ppx")
        assert not is_synchronous_protocol("pp-a")
        assert is_asynchronous_protocol("pull-a")
        assert not is_asynchronous_protocol("push")

    def test_descriptions_are_informative(self):
        for spec in PROTOCOLS.values():
            assert len(spec.description) > 10


class TestSpread:
    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_every_protocol_runs(self, protocol):
        graph = star_graph(12)
        result = spread(graph, 1, protocol=protocol, seed=1)
        assert result.completed
        assert result.protocol == protocol
        assert result.num_vertices == 12

    def test_unknown_protocol_raises(self):
        with pytest.raises(ProtocolError):
            spread(star_graph(8), 0, protocol="carrier-pigeon")

    def test_engine_options_forwarded(self):
        result = spread(star_graph(12), 1, protocol="pp-a", seed=1, view="node_clocks")
        assert result.completed

    @pytest.mark.parametrize(
        "protocol, option",
        [
            ("pp", {"view": "global"}),
            ("push", {"max_steps": 10}),
            ("pp-a", {"max_rounds": 3}),
            ("pull-a", {"bogus": 1}),
            ("ppx", {"record_trace": True}),
            ("ppy", {"max_time": 2.0}),
        ],
        ids=["view-on-pp", "max_steps-on-push", "max_rounds-on-pp-a", "unknown-on-pull-a",
             "record_trace-on-ppx", "max_time-on-ppy"],
    )
    def test_misapplied_option_rejected(self, protocol, option):
        """Each protocol family takes only its own options: the one
        ProtocolError names the option, on spread as on every runner."""
        name = sorted(option)[0]
        with pytest.raises(ProtocolError, match=rf"protocol '{protocol}' does not take \['{name}'\]"):
            spread(star_graph(8), 0, protocol=protocol, seed=1, **option)
        assert name not in PROTOCOLS[protocol].options

    def test_sync_async_time_units_differ(self):
        sync = spread(star_graph(32), 1, protocol="pp", seed=2)
        asynchronous = spread(star_graph(32), 1, protocol="pp-a", seed=2)
        assert sync.rounds is not None and sync.steps is None
        assert asynchronous.steps is not None and asynchronous.rounds is None
