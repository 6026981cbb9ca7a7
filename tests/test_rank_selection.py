"""Rank-indexed central selection is bit-identical to the filtered order.

Under the dict engine, :class:`~repro.core.CentralDaemon` and the sparse
phase of :class:`~repro.core.RegimeSwitchingDaemon` resolve their pick
through the engine's :class:`~repro.core.daemons.EnabledRanks` (a Fenwick
tree over the repr-sorted vertex ranks) instead of filtering the whole
vertex order.
``engine="reference"`` never attaches the index, so it keeps the original
``_ordered_enabled`` path: comparing the two pins the selections, the
moves and the final configuration — including the random strategy's rng
stream — on non-ring graphs.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines import BfsSpanningTree
from repro.core import CentralDaemon, Daemon, RegimeSwitchingDaemon, Simulator
from repro.core.daemons import EnabledRanks
from repro.graphs import random_connected_graph, ring_graph
from repro.mutex import SSME
from repro.unison import AsynchronousUnison

PROTOCOLS = {
    "ssme": SSME,
    "unison": AsynchronousUnison,
    "bfs": BfsSpanningTree,
}


def run(protocol, daemon, initial, seed, steps, engine, trace):
    simulator = Simulator(
        protocol, daemon, rng=random.Random(seed), engine=engine, trace=trace
    )
    execution = simulator.run(initial, max_steps=steps)
    moves = [
        sorted(
            (repr(r.vertex), r.rule_name, r.old_state, r.new_state)
            for r in execution.activation_records(index)
        )
        for index in range(execution.steps)
    ]
    return (
        [execution.selection(index) for index in range(execution.steps)],
        moves,
        execution.final,
    )


def assert_bit_identical(protocol, daemon_factory, engine, seed=0, steps=400):
    initial = protocol.random_configuration(random.Random(seed))
    reference = run(protocol, daemon_factory(), initial, seed + 1, steps, "reference", "full")
    for trace in ("light", "full"):
        candidate = run(protocol, daemon_factory(), initial, seed + 1, steps, engine, trace)
        assert candidate[0] == reference[0]
        assert candidate[1] == reference[1]
        assert candidate[2] == reference[2]
    assert reference[0], "the run must make moves"


class TestEnabledRanks:
    def test_kth_matches_sorted_members(self):
        rng = random.Random(3)
        order = tuple(sorted(range(37), key=repr))
        ranks = EnabledRanks(order)
        members = set(rng.sample(order, 12))
        ranks.current = frozenset(members)
        for step in range(400):
            expected = [v for v in order if v in members]
            for k in range(len(expected)):
                assert ranks.kth(k) == expected[k]
            vertex = rng.choice(order)
            if vertex in members:
                members.discard(vertex)
                ranks.update(vertex, -1)
            else:
                members.add(vertex)
                ranks.update(vertex, 1)
            assert ranks.current is None
            if step % 50 == 49:
                ranks.suspend()
            if members:
                ranks.current = frozenset(members)
            else:  # the engine never publishes an empty set to a daemon
                members.add(order[0])
                ranks.update(order[0], 1)
                ranks.current = frozenset(members)

    def test_foreign_enabled_set_falls_back(self):
        protocol = SSME(ring_graph(9))
        daemon = CentralDaemon("last")
        daemon.bind(protocol)
        order = tuple(protocol.graph.sorted_vertices())
        ranks = EnabledRanks(order)
        assert daemon.attach_ranks(ranks)
        ranks.current = frozenset(order)
        subset = frozenset({0, 3, 4})
        choice = daemon.select(subset, protocol.default_configuration(), 0, random.Random(0))
        assert choice == frozenset({4})
        assert daemon.select(ranks.current, None, 0, random.Random(0)) == frozenset({order[-1]})

    def test_only_position_pickers_accept_the_index(self):
        order = (0, 1)
        ranks = EnabledRanks(order)
        assert CentralDaemon().attach_ranks(ranks)
        assert RegimeSwitchingDaemon().attach_ranks(ranks)
        assert not Daemon.attach_ranks(CentralDaemon(), ranks)


class TestCentralBitIdentity:
    @pytest.mark.parametrize("strategy", ["random", "first", "last"])
    @pytest.mark.parametrize("protocol_name", sorted(PROTOCOLS))
    def test_dict_engine_matches_reference(self, nonring_graph, protocol_name, strategy):
        protocol = PROTOCOLS[protocol_name](nonring_graph)
        assert_bit_identical(protocol, lambda: CentralDaemon(strategy), "incremental")

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs(self, seed):
        graph = random_connected_graph(14, 0.25, random.Random(seed))
        protocol = SSME(graph)
        assert_bit_identical(protocol, CentralDaemon, "incremental", seed=seed, steps=300)

    def test_batch_and_sparse_refreshes_within_one_run(self, nonring_graph):
        """Short dense phases drive the dict engine through batch refreshes
        (index suspended) and back to sparse ones (index rebuilt)."""
        protocol = AsynchronousUnison(nonring_graph)
        assert_bit_identical(
            protocol, lambda: RegimeSwitchingDaemon(dense_steps=2, sparse_steps=5),
            "incremental",
        )


class TestRegimeSwitchingBitIdentity:
    @pytest.mark.parametrize("protocol_name", ["ssme", "unison"])
    def test_adaptive_engine_matches_reference(self, nonring_graph, protocol_name):
        protocol = PROTOCOLS[protocol_name](nonring_graph)
        assert_bit_identical(
            protocol, lambda: RegimeSwitchingDaemon(dense_steps=8, sparse_steps=40),
            "adaptive", steps=500,
        )


class TestSelectionComplexity:
    def test_central_selection_never_scans_the_vertex_order(self, monkeypatch):
        """On ring(3200) the dict engine's central picks go through the rank
        index: the filtered vertex order is never built, and the index is
        rebuilt once (the first pick), then only updated."""
        protocol = SSME(ring_graph(3200), diam=1600)

        def forbidden(self, enabled):
            raise AssertionError("selection iterated the full vertex order")

        rebuilds = []
        rebuild = EnabledRanks._rebuild

        def counting_rebuild(self):
            rebuilds.append(1)
            rebuild(self)

        monkeypatch.setattr(Daemon, "_ordered_enabled", forbidden)
        monkeypatch.setattr(EnabledRanks, "_rebuild", counting_rebuild)
        initial = protocol.random_configuration(random.Random(1))
        simulator = Simulator(
            protocol, CentralDaemon(), rng=random.Random(2), engine="incremental", trace="light"
        )
        execution = simulator.run(initial, max_steps=500)
        assert execution.steps == 500
        assert len(rebuilds) == 1
