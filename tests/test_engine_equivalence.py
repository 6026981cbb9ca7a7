"""Property test: the incremental, vector and adaptive engines are
observationally equal to the reference engine.

For every protocol of the library, every daemon, random graph shapes, the
non-ring fixture graphs (Shrikhande, grid, Petersen, path, binary tree) and
seeds, the executions produced by the incremental engine, the vectorized
array-state engine (single-step and superstep; protocols without a kernel
exercise its graceful fallback) and the adaptive engine, each in both trace
modes, must match the reference engine's execution action for action: same configurations, same daemon
selections, same enabled sets, same truncation verdict, and the same
activation records per action (record *order* within one action follows
set iteration order and is compared order-insensitively).

The suite runs identically with and without NumPy installed: when NumPy is
missing the ``engine="vector"`` runs silently degrade to the incremental
engine (pinned explicitly by the fallback tests at the bottom), so the
assertions still compare three observationally equal executions.
"""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import BfsSpanningTree, MaximalMatching
from repro.core import (
    AdversarialCentralDaemon,
    CentralDaemon,
    Daemon,
    DistributedDaemon,
    LocallyCentralDaemon,
    RegimeSwitchingDaemon,
    RoundRobinCentralDaemon,
    Simulator,
    StarvationDaemon,
    SynchronousDaemon,
)
from repro.graphs import random_connected_graph, ring_graph
from repro.mutex import SSME, DijkstraTokenRing
from repro.unison import AsynchronousUnison

PROTOCOL_FACTORIES = {
    "ssme": SSME,
    "unison": lambda graph: AsynchronousUnison(graph, validate_parameters=False),
    "bfs": BfsSpanningTree,
    "matching": MaximalMatching,
}


class AlternatingDaemon(Daemon):
    """Alternates synchronous (full) and single-vertex selections.

    Crossing the incremental engine's dense/sparse refresh threshold on
    every other action exercises the switch between the batch and dirty-set
    refresh paths within a single run.
    """

    name = "alt"

    def select(self, enabled, configuration, step_index, rng):
        if step_index % 2 == 0:
            return enabled
        return frozenset({self._ordered_enabled(enabled)[0]})


DAEMON_FACTORIES = {
    "sd": SynchronousDaemon,
    "cd": CentralDaemon,
    "cd-rr": RoundRobinCentralDaemon,
    "cd-adv": AdversarialCentralDaemon,
    "dd": lambda: DistributedDaemon(0.4),
    "lcd": LocallyCentralDaemon,
    "ud-starve": StarvationDaemon,
    "alt": AlternatingDaemon,
}

#: Daemons whose selections are dense enough to drive the engine into its
#: batch-refresh path on essentially every action.
DENSE_DAEMON_FACTORIES = {
    "sd": SynchronousDaemon,
    "dd-dense": lambda: DistributedDaemon(0.9),
    "alt": AlternatingDaemon,
}


def _record_key(record):
    return (repr(record.vertex), record.rule_name)


def _normalized_records(execution):
    """Per-action records as order-insensitive comparable lists."""
    normalized = []
    for index in range(execution.steps):
        records = sorted(execution.activation_records(index), key=_record_key)
        normalized.append(
            [(r.vertex, r.rule_name, r.old_state, r.new_state) for r in records]
        )
    return normalized


def naive_run(protocol, daemon, rng, initial, max_steps):
    """A hand-rolled naive simulation loop, independent of the simulator's
    shared-evaluation path: the oracle of oracles.

    Uses only the public ``enabled_vertices`` + two-argument ``apply``
    chain, mirroring the pre-engine semantics statement for statement.
    """
    daemon.bind(protocol)
    daemon.reset()
    configurations = [initial]
    selections = []
    enabled_sets = []
    current = initial
    for index in range(max_steps + 1):
        enabled = protocol.enabled_vertices(current)
        enabled_sets.append(enabled)
        if not enabled or index == max_steps:
            break
        selection = daemon.checked_select(enabled, current, index, rng)
        current, _ = protocol.apply(current, selection)
        selections.append(selection)
        configurations.append(current)
    return configurations, selections, enabled_sets


#: Engine/trace pairs every equivalence case compares against the first
#: (reference) entry.  The vector entries degrade to the incremental
#: engine for protocols without a kernel (or without NumPy) — the runs are
#: then redundant but the assertions still hold, which is exactly the
#: graceful-fallback contract.  The adaptive entries stitch dict and vector
#: segments whenever a run outlasts the detector's dwell.
EQUIVALENCE_MODES = (
    ("reference", "full"),
    ("incremental", "full"),
    ("incremental", "light"),
    ("vector", "full"),
    ("vector", "light"),
    ("vector-superstep", "full"),
    ("vector-superstep", "light"),
    ("adaptive", "full"),
    ("adaptive", "light"),
)


def assert_equivalent_runs(protocol, daemon_name, seed, steps):
    """Run every engine/trace mode and compare the executions against
    reference/full (plus a hand-rolled naive loop)."""
    initial = protocol.random_configuration(random.Random(seed))
    executions = []
    for engine, trace in EQUIVALENCE_MODES:
        simulator = Simulator(
            protocol,
            DAEMON_FACTORIES[daemon_name](),
            rng=random.Random(seed + 1),
            engine=engine,
            trace=trace,
        )
        # The reference engine records full traces regardless of mode.
        executions.append(simulator.run(initial, max_steps=steps))
    reference = executions[0]
    for other in executions[1:]:
        assert other.steps == reference.steps
        assert other.truncated == reference.truncated
        assert list(other.configurations) == list(reference.configurations)
        assert [other.selection(i) for i in range(other.steps)] == [
            reference.selection(i) for i in range(reference.steps)
        ]
        assert [other.enabled_at(i) for i in range(other.steps)] == [
            reference.enabled_at(i) for i in range(reference.steps)
        ]
        assert _normalized_records(other) == _normalized_records(reference)

    # The simulator's reference mode shares the single-evaluation fast path
    # with the incremental engine; cross-check both against a naive loop
    # that uses none of the new machinery.
    naive_configs, naive_selections, naive_enabled = naive_run(
        protocol,
        DAEMON_FACTORIES[daemon_name](),
        random.Random(seed + 1),
        initial,
        steps,
    )
    assert list(reference.configurations) == naive_configs
    assert [reference.selection(i) for i in range(reference.steps)] == naive_selections
    assert [
        reference.enabled_at(i) for i in range(len(naive_enabled))
    ] == naive_enabled


@settings(max_examples=40, deadline=None)
@given(
    protocol_name=st.sampled_from(sorted(PROTOCOL_FACTORIES)),
    daemon_name=st.sampled_from(sorted(DAEMON_FACTORIES)),
    n=st.integers(2, 9),
    p=st.floats(0.0, 0.5),
    graph_seed=st.integers(0, 10_000),
    seed=st.integers(0, 10_000),
    steps=st.integers(0, 35),
)
def test_engines_agree_on_random_graphs(
    protocol_name, daemon_name, n, p, graph_seed, seed, steps
):
    graph = random_connected_graph(n, p, random.Random(graph_seed))
    protocol = PROTOCOL_FACTORIES[protocol_name](graph)
    assert_equivalent_runs(protocol, daemon_name, seed, steps)


@settings(max_examples=20, deadline=None)
@given(
    daemon_name=st.sampled_from(sorted(DAEMON_FACTORIES)),
    n=st.integers(3, 9),
    seed=st.integers(0, 10_000),
    steps=st.integers(0, 35),
)
def test_engines_agree_on_dijkstra_rings(daemon_name, n, seed, steps):
    protocol = DijkstraTokenRing(ring_graph(n))
    assert_equivalent_runs(protocol, daemon_name, seed, steps)


@settings(max_examples=20, deadline=None)
@given(
    protocol_name=st.sampled_from(sorted(PROTOCOL_FACTORIES)),
    daemon_name=st.sampled_from(sorted(DENSE_DAEMON_FACTORIES)),
    n=st.integers(16, 40),
    seed=st.integers(0, 10_000),
    steps=st.integers(1, 12),
)
def test_engines_agree_in_batch_refresh_regime(
    protocol_name, daemon_name, n, seed, steps
):
    """Reference ≡ incremental specifically where the batch refresh kicks in.

    ``n`` is large enough (and the selections dense enough) that
    ``len(changes) >= n // 4`` holds on essentially every action, so these
    runs exercise the persistent-view batch scan — including the mid-run
    switch between batch and sparse for the alternating daemon — in both
    trace modes.
    """
    graph = ring_graph(n)
    protocol = PROTOCOL_FACTORIES[protocol_name](graph)
    daemon_factory = DENSE_DAEMON_FACTORIES[daemon_name]
    initial = protocol.random_configuration(random.Random(seed))
    executions = []
    for engine, trace in EQUIVALENCE_MODES:
        simulator = Simulator(
            protocol,
            daemon_factory(),
            rng=random.Random(seed + 1),
            engine=engine,
            trace=trace,
        )
        executions.append(simulator.run(initial, max_steps=steps))
    reference = executions[0]
    for other in executions[1:]:
        assert other.steps == reference.steps
        assert other.truncated == reference.truncated
        assert list(other.configurations) == list(reference.configurations)
        assert [other.enabled_at(i) for i in range(other.steps)] == [
            reference.enabled_at(i) for i in range(reference.steps)
        ]
        assert _normalized_records(other) == _normalized_records(reference)


@settings(max_examples=15, deadline=None)
@given(
    protocol_name=st.sampled_from(sorted(PROTOCOL_FACTORIES)),
    daemon_name=st.sampled_from(sorted(DAEMON_FACTORIES)),
    seed=st.integers(0, 10_000),
    threshold=st.integers(0, 6),
)
def test_engines_agree_with_stop_when(protocol_name, daemon_name, seed, threshold):
    """``stop_when`` must observe the same configurations in both engines."""
    graph = ring_graph(6)
    protocol = PROTOCOL_FACTORIES[protocol_name](graph)
    initial = protocol.random_configuration(random.Random(seed))
    observed = {}

    def runner(engine, trace):
        seen = []

        def stop_when(configuration, index):
            seen.append(dict(configuration))
            return index >= threshold

        simulator = Simulator(
            protocol,
            DAEMON_FACTORIES[daemon_name](),
            rng=random.Random(seed + 1),
            engine=engine,
            trace=trace,
        )
        execution = simulator.run(initial, max_steps=30, stop_when=stop_when)
        return execution, seen

    reference, seen_reference = runner("reference", "full")
    for engine in ("incremental", "vector", "vector-superstep"):
        light, seen_light = runner(engine, "light")
        assert seen_light == seen_reference
        assert light.steps == reference.steps
        assert light.truncated == reference.truncated
        assert list(light.configurations) == list(reference.configurations)


@pytest.mark.parametrize("protocol_name", sorted(PROTOCOL_FACTORIES))
@pytest.mark.parametrize("daemon_name", sorted(DAEMON_FACTORIES))
def test_engines_agree_beyond_rings(nonring_graph, protocol_name, daemon_name):
    """The whole chain reference ≡ incremental ≡ vector ≡ vector-superstep
    ≡ adaptive on every non-ring fixture graph, long enough (past the
    adaptive dwell) for dense schedules to stitch segments."""
    protocol = PROTOCOL_FACTORIES[protocol_name](nonring_graph)
    assert_equivalent_runs(protocol, daemon_name, seed=5, steps=40)


@pytest.mark.parametrize("daemon_name", sorted(DAEMON_FACTORIES))
def test_engines_agree_until_terminal_on_silent_protocols(daemon_name):
    """Silent protocols must reach the same terminal configuration."""
    graph = random_connected_graph(7, 0.3, random.Random(3))
    for factory in (BfsSpanningTree, MaximalMatching):
        protocol = factory(graph)
        assert_equivalent_runs(protocol, daemon_name, seed=11, steps=400)


#: Protocols that actually declare an array kernel — the vector-specific
#: cases below must exercise the real vectorized backend, not its fallback.
VECTOR_PROTOCOL_FACTORIES = {
    "ssme": SSME,
    "unison": lambda graph: AsynchronousUnison(graph, validate_parameters=False),
    "dijkstra": DijkstraTokenRing,
}


@settings(max_examples=20, deadline=None)
@given(
    protocol_name=st.sampled_from(sorted(VECTOR_PROTOCOL_FACTORIES)),
    daemon_name=st.sampled_from(sorted(DENSE_DAEMON_FACTORIES)),
    n=st.integers(16, 40),
    seed=st.integers(0, 10_000),
    steps=st.integers(1, 12),
)
def test_vector_kernel_agrees_in_dense_regime(protocol_name, daemon_name, n, seed, steps):
    """Vector ≡ incremental ≡ reference where the array kernel actually runs.

    Rings large enough that dense selections exercise the whole-array step
    (and, with the alternating daemon, the per-run cached enabled set under
    membership churn), for every protocol that declares a kernel.  With
    NumPy installed the runs are asserted to really use the vector backend.
    """
    protocol = VECTOR_PROTOCOL_FACTORIES[protocol_name](ring_graph(n))
    assert_vector_kernel_agrees(protocol, daemon_name, seed, steps)


#: Kernel-declaring protocols defined on any graph (Dijkstra needs a ring).
NONRING_VECTOR_PROTOCOLS = ("ssme", "unison")


@pytest.mark.parametrize("protocol_name", NONRING_VECTOR_PROTOCOLS)
@pytest.mark.parametrize("daemon_name", sorted(DENSE_DAEMON_FACTORIES))
@pytest.mark.parametrize("seed", [0, 9])
def test_vector_kernel_agrees_in_dense_regime_beyond_rings(
    nonring_graph, protocol_name, daemon_name, seed
):
    """The dense-regime vector oracle on every non-ring fixture graph."""
    protocol = VECTOR_PROTOCOL_FACTORIES[protocol_name](nonring_graph)
    assert_vector_kernel_agrees(protocol, daemon_name, seed, steps=40)


def assert_vector_kernel_agrees(protocol, daemon_name, seed, steps):
    """Check the vector backend really runs (with NumPy), then compare
    every engine/trace mode in the dense regime."""
    from repro.core import protocol_supports_vector

    simulator = Simulator(
        protocol,
        DENSE_DAEMON_FACTORIES[daemon_name](),
        rng=random.Random(seed + 1),
        engine="vector",
    )
    if protocol_supports_vector(protocol):
        assert simulator.engine == "vector"
    assert_equivalent_runs_dense(protocol, daemon_name, seed, steps)


def assert_equivalent_runs_dense(protocol, daemon_name, seed, steps):
    initial = protocol.random_configuration(random.Random(seed))
    daemon_factory = DENSE_DAEMON_FACTORIES[daemon_name]
    executions = []
    for engine, trace in EQUIVALENCE_MODES:
        simulator = Simulator(
            protocol,
            daemon_factory(),
            rng=random.Random(seed + 1),
            engine=engine,
            trace=trace,
        )
        executions.append(simulator.run(initial, max_steps=steps))
    reference = executions[0]
    for other in executions[1:]:
        assert other.steps == reference.steps
        assert other.truncated == reference.truncated
        assert list(other.configurations) == list(reference.configurations)
        assert [other.enabled_at(i) for i in range(other.steps)] == [
            reference.enabled_at(i) for i in range(reference.steps)
        ]
        assert _normalized_records(other) == _normalized_records(reference)


class TestNoNumpyFallback:
    """Backend selection must degrade cleanly when NumPy is unavailable.

    The stub poisons ``sys.modules["numpy"]`` (making ``import numpy``
    raise), which is exactly what ``numpy_available()`` re-checks on every
    call; the CI job without NumPy installed runs the whole suite in that
    state for real.
    """

    def _protocol(self):
        return AsynchronousUnison(ring_graph(10), validate_parameters=False)

    def test_vector_request_degrades_to_incremental(self, monkeypatch):
        from repro.core import numpy_available

        protocol = self._protocol()
        initial = protocol.random_configuration(random.Random(3))
        reference = Simulator(
            protocol, SynchronousDaemon(), rng=random.Random(4), engine="reference"
        ).run(initial, max_steps=25)

        monkeypatch.setitem(sys.modules, "numpy", None)
        assert not numpy_available()
        for engine in ("vector", "vector-superstep", "auto"):
            simulator = Simulator(
                protocol, SynchronousDaemon(), rng=random.Random(4), engine=engine
            )
            assert simulator.engine == "incremental"
            execution = simulator.run(initial, max_steps=25)
            assert simulator.last_run_backend == "dict"
            assert list(execution.configurations) == list(reference.configurations)
            assert execution.truncated == reference.truncated

    def test_superstep_requests_degrade_to_dict_without_numpy(self, monkeypatch):
        """Superstep and auto requests under a synchronous daemon (and the
        default unison validation) fall back to the dict engine."""
        monkeypatch.setitem(sys.modules, "numpy", None)
        protocol = AsynchronousUnison(ring_graph(12))
        for requested in ("vector-superstep", "auto"):
            simulator = Simulator(
                protocol, SynchronousDaemon(), rng=random.Random(0), engine=requested
            )
            assert simulator.engine == "incremental", requested
            execution = simulator.run(
                protocol.random_configuration(random.Random(1)), max_steps=24
            )
            assert simulator.last_run_backend == "dict", requested
            assert execution.steps == 24

    def test_adaptive_engine_is_one_dict_segment_without_numpy(self, monkeypatch):
        """The adaptive engine's promotion targets are NumPy-only: a run
        stays one dict segment and reproduces the incremental execution."""
        monkeypatch.setitem(sys.modules, "numpy", None)
        protocol = SSME(ring_graph(16))
        initial = protocol.random_configuration(random.Random(1))
        runs = {}
        for engine in ("incremental", "adaptive"):
            simulator = Simulator(
                protocol,
                RegimeSwitchingDaemon(24, 48),
                rng=random.Random(0),
                engine=engine,
            )
            runs[engine] = simulator.run(initial, max_steps=144)
            assert simulator.last_run_backend == "dict", engine
        assert simulator.last_run_switches == ((0, "dict"),)
        reference, adaptive = runs["incremental"], runs["adaptive"]
        assert adaptive.steps == reference.steps
        assert list(adaptive.configurations) == list(reference.configurations)
        assert [adaptive.selection(i) for i in range(adaptive.steps)] == [
            reference.selection(i) for i in range(reference.steps)
        ]

    def test_capability_hooks_return_none_without_numpy(self, monkeypatch):
        from repro.core import protocol_supports_vector

        protocol = self._protocol()
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert protocol.array_codec() is None
        assert protocol.array_kernel() is None
        assert not protocol_supports_vector(protocol)
        dijkstra = DijkstraTokenRing(ring_graph(5))
        assert dijkstra.array_codec() is None
        assert dijkstra.array_kernel() is None

    def test_vector_backend_used_when_numpy_present(self):
        pytest.importorskip("numpy")
        protocol = self._protocol()
        initial = protocol.random_configuration(random.Random(3))
        # auto + synchronous daemon + kernel → batched supersteps.
        simulator = Simulator(protocol, SynchronousDaemon(), rng=random.Random(4))
        assert simulator.engine == "vector-superstep"
        simulator.run(initial, max_steps=10)
        assert simulator.last_run_backend == "vector-superstep"
        # auto + dense-but-random daemon → single-step vector (selections
        # are not deterministic, so supersteps do not apply).
        dense = Simulator(
            protocol, DistributedDaemon(0.9), rng=random.Random(4)
        )
        assert dense.engine == "vector"
        dense.run(initial, max_steps=10)
        assert dense.last_run_backend == "vector"
        # An explicit single-step request is honoured even for a
        # synchronous daemon (benchmarks compare the two paths).
        single = Simulator(
            protocol, SynchronousDaemon(), rng=random.Random(4), engine="vector"
        )
        assert single.engine == "vector"
        single.run(initial, max_steps=10)
        assert single.last_run_backend == "vector"
        # An explicit superstep request under a non-synchronous daemon
        # degrades to the single-step vector backend.
        degraded = Simulator(
            protocol,
            DistributedDaemon(0.9),
            rng=random.Random(4),
            engine="vector-superstep",
        )
        assert degraded.engine == "vector"
        # Sparse daemons keep the dirty-set paths under auto selection.
        sparse = Simulator(protocol, CentralDaemon(), rng=random.Random(4))
        assert sparse.engine == "incremental"
