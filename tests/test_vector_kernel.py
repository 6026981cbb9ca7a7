"""Unit tests for the array-state (vector) engine backend.

The engine equivalence suite pins whole traces; these tests pin the
building blocks directly — CSR indexing, codecs, guard-by-guard kernel
equality against the Python guards, the live array view, the capability
API (including a width-2 tuple-state protocol), and the codec-decline
fallback.  Everything here needs real NumPy and is skipped without it;
the no-NumPy degradation path is covered in ``test_engine_equivalence``.
"""

from __future__ import annotations

import random

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ArrayKernel,
    ArrayStateView,
    CentralDaemon,
    Configuration,
    GraphIndex,
    IntCodec,
    IntTupleCodec,
    Protocol,
    Rule,
    Simulator,
    SynchronousDaemon,
    VectorEngine,
    protocol_supports_vector,
)
from repro.exceptions import SimulationError
from repro.baselines import BfsSpanningTree, MaximalMatching
from repro.graphs import random_connected_graph, ring_graph, star_graph
from repro.mutex import SSME, DijkstraTokenRing
from repro.unison import AsynchronousUnison


class TestGraphIndex:
    def test_csr_matches_adjacency(self):
        graph = random_connected_graph(9, 0.4, random.Random(1))
        index = GraphIndex(graph)
        assert set(index.vertices) == set(graph.vertices)
        for i, v in enumerate(index.vertices):
            row = index.indices[index.indptr[i] : index.indptr[i + 1]]
            assert {index.vertices[j] for j in row.tolist()} == set(graph.neighbors(v))
        # edge_src mirrors the row ownership of every adjacency entry.
        for e in range(int(index.indices.size)):
            src = int(index.edge_src[e])
            assert index.indptr[src] <= e < index.indptr[src + 1]

    def test_edge_reductions_match_python(self):
        graph = star_graph(5)
        index = GraphIndex(graph)
        rng = random.Random(3)
        flags = np.array([rng.random() < 0.5 for _ in range(int(index.indices.size))])
        any_vec = index.any_over_edges(flags)
        all_vec = index.all_over_edges(flags)
        for i in range(index.n):
            segment = flags[index.indptr[i] : index.indptr[i + 1]].tolist()
            assert bool(any_vec[i]) == any(segment)
            assert bool(all_vec[i]) == all(segment)


class TestCodecs:
    def test_int_codec_round_trip(self):
        codec = IntCodec()
        order = ("a", "b", "c")
        states = {"a": -7, "b": 0, "c": 123}
        array = codec.encode(states, order)
        assert array.shape == (3, 1)
        decoded = codec.decode(array)
        assert decoded == [-7, 0, 123]
        assert all(type(value) is int for value in decoded)

    def test_int_codec_rejects_non_ints(self):
        codec = IntCodec()
        with pytest.raises(TypeError):
            codec.encode({"a": 1.5}, ("a",))
        with pytest.raises(TypeError):
            codec.encode({"a": True}, ("a",))
        with pytest.raises(TypeError):
            codec.encode({"a": (1, 2)}, ("a",))

    def test_tuple_codec_round_trip(self):
        codec = IntTupleCodec(2)
        order = (0, 1)
        states = {0: (1, -2), 1: (0, 9)}
        array = codec.encode(states, order)
        assert array.shape == (2, 2)
        decoded = codec.decode(array)
        assert decoded == [(1, -2), (0, 9)]
        assert all(type(value) is int for row in decoded for value in row)

    def test_tuple_codec_rejects_wrong_width(self):
        codec = IntTupleCodec(2)
        with pytest.raises(TypeError):
            codec.encode({0: (1, 2, 3)}, (0,))
        with pytest.raises(SimulationError):
            IntTupleCodec(0)


def _expected_rule_id(protocol, configuration, vertex):
    """First enabled rule position via the stock Python chain (-1 if none)."""
    _view, enabled = protocol.evaluate(configuration, vertex)
    if not enabled:
        return -1
    rules = list(protocol.rules())
    return rules.index(enabled[0])


@pytest.mark.parametrize(
    "factory",
    [
        lambda g: AsynchronousUnison(g, validate_parameters=False),
        SSME,
    ],
    ids=["unison", "ssme"],
)
@pytest.mark.parametrize("graph_seed", [0, 4])
@pytest.mark.parametrize("state_seed", [1, 7, 42])
def test_unison_kernel_guards_match_python(factory, graph_seed, state_seed):
    graph = random_connected_graph(8, 0.35, random.Random(graph_seed))
    protocol = factory(graph)
    kernel = protocol.array_kernel()
    codec = protocol.array_codec()
    index = GraphIndex(graph)
    kernel.prepare(index)
    configuration = protocol.random_configuration(random.Random(state_seed))
    states = codec.encode(configuration, index.vertices)
    rule_ids = kernel.enabled_rules(states, index)
    for i, vertex in enumerate(index.vertices):
        assert int(rule_ids[i]) == _expected_rule_id(protocol, configuration, vertex), vertex
    # Fire every enabled vertex and compare against the rule actions.
    enabled = np.flatnonzero(rule_ids != -1)
    if enabled.size:
        new_rows = kernel.fire(states, enabled, rule_ids[enabled], index)
        rules = list(protocol.rules())
        for row, position in enumerate(enabled.tolist()):
            vertex = index.vertices[position]
            view, enabled_rules = protocol.evaluate(configuration, vertex)
            assert codec.decode(new_rows[row : row + 1])[0] == enabled_rules[0].apply(view)


@pytest.mark.parametrize("state_seed", [0, 5, 19])
def test_dijkstra_kernel_guards_match_python(state_seed):
    protocol = DijkstraTokenRing(ring_graph(7))
    kernel = protocol.array_kernel()
    codec = protocol.array_codec()
    index = GraphIndex(protocol.graph)
    kernel.prepare(index)
    configuration = protocol.random_configuration(random.Random(state_seed))
    states = codec.encode(configuration, index.vertices)
    rule_ids = kernel.enabled_rules(states, index)
    for i, vertex in enumerate(index.vertices):
        assert int(rule_ids[i]) == _expected_rule_id(protocol, configuration, vertex)
    enabled = np.flatnonzero(rule_ids != -1)
    new_rows = kernel.fire(states, enabled, rule_ids[enabled], index)
    for row, position in enumerate(enabled.tolist()):
        vertex = index.vertices[position]
        view, enabled_rules = protocol.evaluate(configuration, vertex)
        assert codec.decode(new_rows[row : row + 1])[0] == enabled_rules[0].apply(view)


@pytest.mark.parametrize(
    "factory",
    [BfsSpanningTree, MaximalMatching],
    ids=["bfs", "matching"],
)
@pytest.mark.parametrize("graph_seed", [0, 4, 9])
@pytest.mark.parametrize("state_seed", [1, 7, 42])
def test_baseline_kernel_guards_match_python(factory, graph_seed, state_seed):
    graph = random_connected_graph(8, 0.35, random.Random(graph_seed))
    protocol = factory(graph)
    codec, kernel = protocol_supports_vector(protocol)
    index = GraphIndex(graph)
    kernel.prepare(index)
    configuration = protocol.random_configuration(random.Random(state_seed))
    states = codec.encode(configuration, index.vertices)
    rule_ids = kernel.enabled_rules(states, index)
    for i, vertex in enumerate(index.vertices):
        assert int(rule_ids[i]) == _expected_rule_id(protocol, configuration, vertex), vertex
    enabled = np.flatnonzero(rule_ids != -1)
    if enabled.size:
        new_rows = kernel.fire(states, enabled, rule_ids[enabled], index)
        for row, position in enumerate(enabled.tolist()):
            vertex = index.vertices[position]
            view, enabled_rules = protocol.evaluate(configuration, vertex)
            assert codec.decode(new_rows[row : row + 1])[0] == enabled_rules[0].apply(view)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 30),
    graph_p=st.floats(0.0, 0.6),
    graph_seed=st.integers(0, 1000),
    state_seed=st.integers(0, 10_000),
)
def test_unison_kernel_guards_match_python_hypothesis(n, graph_p, graph_seed, state_seed):
    graph = random_connected_graph(n, graph_p, random.Random(graph_seed))
    protocol = AsynchronousUnison(graph, validate_parameters=False)
    kernel = protocol.array_kernel()
    codec = protocol.array_codec()
    index = GraphIndex(graph)
    kernel.prepare(index)
    configuration = protocol.random_configuration(random.Random(state_seed))
    states = codec.encode(configuration, index.vertices)
    rule_ids = kernel.enabled_rules(states, index)
    for i, vertex in enumerate(index.vertices):
        assert int(rule_ids[i]) == _expected_rule_id(protocol, configuration, vertex)


class TestArrayStateView:
    def _view(self):
        protocol = AsynchronousUnison(ring_graph(5), validate_parameters=False)
        index = GraphIndex(protocol.graph)
        codec = protocol.array_codec()
        configuration = protocol.random_configuration(random.Random(2))
        states = codec.encode(configuration, index.vertices)
        return ArrayStateView(index, states, codec), configuration, states

    def test_mapping_protocol_and_decoding(self):
        view, configuration, _states = self._view()
        assert len(view) == 5
        assert set(view) == set(configuration)
        assert dict(view) == dict(configuration)
        assert view == configuration
        for vertex in view:
            assert type(view[vertex]) is int
        with pytest.raises(SimulationError):
            view["missing"]
        with pytest.raises(TypeError):
            hash(view)

    def test_view_is_live_and_snapshot_pins(self):
        view, _configuration, states = self._view()
        vertex = next(iter(view))
        before = view[vertex]
        pinned = view.snapshot()
        states[0, 0] = before + 1
        assert view[vertex] == before + 1
        assert pinned[vertex] == before
        assert isinstance(pinned, Configuration)

    def test_updated_and_restrict(self):
        view, configuration, _states = self._view()
        vertex = next(iter(view))
        updated = view.updated({vertex: 3})
        assert updated[vertex] == 3
        assert view.restrict([vertex])[vertex] == view[vertex]
        with pytest.raises(SimulationError):
            view.updated({"missing": 1})


# --------------------------------------------------------------------- #
# A width-2 tuple-state protocol exercising IntTupleCodec end to end
# --------------------------------------------------------------------- #
class TwoCounterProtocol(Protocol):
    """Toy protocol with state ``(a, b)``: ``sync`` raises ``a`` toward
    ``b``; ``catch`` raises ``b`` while every neighbour's ``b`` exceeds
    ``a``.  Meaningless as a distributed algorithm — it exists to pin the
    width-2 codec/kernel path against the Python rule chain."""

    name = "two-counter"

    def rules(self):
        def sync_guard(view):
            return view.state[0] < view.state[1]

        def sync_action(view):
            return (view.state[0] + 1, view.state[1])

        def catch_guard(view):
            a, b = view.state
            return a == b and all(
                state[1] > a for state in view.neighbor_states.values()
            )

        def catch_action(view):
            return (view.state[0], view.state[1] + 1)

        return [Rule("sync", sync_guard, sync_action), Rule("catch", catch_guard, catch_action)]

    def random_state(self, vertex, rng):
        return (rng.randrange(4), rng.randrange(4))

    def array_codec(self):
        return IntTupleCodec(2)

    def array_kernel(self):
        return TwoCounterKernel()


class TwoCounterKernel(ArrayKernel):
    rule_names = ("sync", "catch")

    def enabled_rules(self, states, index):
        a = states[:, 0]
        b = states[:, 1]
        sync = a < b
        edge_ok = b[index.indices] > a[index.edge_src]
        catch = (a == b) & index.all_over_edges(edge_ok)
        rule_ids = np.full(index.n, -1, dtype=np.int64)
        rule_ids[catch] = 1
        rule_ids[sync] = 0
        return rule_ids

    def fire(self, states, selected, rule_ids, index):
        rows = states[selected].copy()
        sync_rows = rule_ids == 0
        rows[sync_rows, 0] += 1
        rows[~sync_rows, 1] += 1
        return rows


class TestTupleStateProtocol:
    def test_vector_supported_and_equivalent(self):
        graph = random_connected_graph(7, 0.4, random.Random(6))
        protocol = TwoCounterProtocol(graph)
        assert protocol_supports_vector(protocol)
        initial = protocol.random_configuration(random.Random(9))
        runs = {}
        for engine in ("reference", "vector"):
            for trace in ("full", "light"):
                simulator = Simulator(
                    protocol,
                    SynchronousDaemon(),
                    rng=random.Random(1),
                    engine=engine,
                    trace=trace,
                )
                if engine == "vector":
                    assert simulator.engine == "vector"
                runs[(engine, trace)] = simulator.run(initial, max_steps=30)
        reference = runs[("reference", "full")]
        for execution in runs.values():
            assert execution.steps == reference.steps
            assert list(execution.configurations) == list(reference.configurations)
        final = reference.final
        assert all(type(state) is tuple for state in final.as_dict().values())

    def test_records_decode_tuples(self):
        protocol = TwoCounterProtocol(ring_graph(4))
        initial = protocol.configuration({v: (0, 1) for v in protocol.graph.vertices})
        simulator = Simulator(protocol, SynchronousDaemon(), engine="vector")
        execution = simulator.run(initial, max_steps=1)
        records = execution.activation_records(0)
        assert {record.vertex for record in records} == set(protocol.graph.vertices)
        for record in records:
            assert record.rule_name == "sync"
            assert record.old_state == (0, 1)
            assert record.new_state == (1, 1)
            assert type(record.new_state) is tuple


class TestBackendSelection:
    def test_codec_decline_falls_back_per_run(self):
        """States outside the codec's layout run on the dict paths."""
        protocol = AsynchronousUnison(ring_graph(6), validate_parameters=False)
        # A float clock value is fine for the Python guards but cannot be
        # encoded losslessly; the engine must decline and fall back.
        states = {v: 1 for v in protocol.graph.vertices}
        states[0] = 1.5
        initial = Configuration(states)
        reference = Simulator(
            protocol, SynchronousDaemon(), rng=random.Random(2), engine="reference"
        ).run(initial, max_steps=10)
        simulator = Simulator(
            protocol, SynchronousDaemon(), rng=random.Random(2), engine="vector"
        )
        assert simulator.engine == "vector"
        execution = simulator.run(initial, max_steps=10)
        assert simulator.last_run_backend == "dict"
        assert list(execution.configurations) == list(reference.configurations)
        # An encodable initial on the same simulator goes vectorized again.
        clean = protocol.random_configuration(random.Random(5))
        simulator.run(clean, max_steps=5)
        assert simulator.last_run_backend == "vector"

    def test_overridden_choose_rule_disables_vector(self):
        class PickyUnison(AsynchronousUnison):
            def choose_rule(self, enabled_rules, view):
                return enabled_rules[-1]

        protocol = PickyUnison(ring_graph(5), validate_parameters=False)
        assert protocol_supports_vector(protocol) is None
        simulator = Simulator(protocol, SynchronousDaemon(), engine="vector")
        assert simulator.engine == "reference"

    def test_rule_name_mismatch_rejected(self):
        class LyingKernelProtocol(TwoCounterProtocol):
            def array_kernel(self):
                kernel = TwoCounterKernel()
                kernel.rule_names = ("sync", "wrong")
                return kernel

        protocol = LyingKernelProtocol(ring_graph(4))
        with pytest.raises(SimulationError):
            VectorEngine(protocol)

    def test_auto_selection_is_daemon_density_aware(self):
        protocol = AsynchronousUnison(ring_graph(8), validate_parameters=False)
        # Synchronous daemons take the batched superstep loop under auto.
        assert Simulator(protocol, SynchronousDaemon()).engine == "vector-superstep"
        assert Simulator(protocol, CentralDaemon()).engine == "incremental"
        # Protocols without the capability resolve to incremental even for
        # dense daemons.  (Every shipped protocol now declares the
        # capability, so strip it off a subclass.)
        class NoKernelMatching(MaximalMatching):
            def array_codec(self):
                return None

            def array_kernel(self):
                return None

        matching = NoKernelMatching(ring_graph(8))
        assert Simulator(matching, SynchronousDaemon()).engine == "incremental"
        # The baselines themselves now take the superstep loop under auto.
        assert (
            Simulator(MaximalMatching(ring_graph(8)), SynchronousDaemon()).engine
            == "vector-superstep"
        )

    def test_auto_selection_routes_mid_density_daemons_at_scale(self):
        """p >= 0.2 daemons take the array backend once n is large enough
        for the vectorized sparse refresh to win (resolve_backend)."""
        from repro.core import DistributedDaemon

        small = AsynchronousUnison(ring_graph(16), validate_parameters=False)
        assert Simulator(small, DistributedDaemon(0.4)).engine == "incremental"
        big = AsynchronousUnison(ring_graph(512), validate_parameters=False)
        assert Simulator(big, DistributedDaemon(0.4)).engine == "vector"
        # Below the density floor the dirty-set engine keeps the run.
        assert Simulator(big, DistributedDaemon(0.05)).engine == "incremental"
