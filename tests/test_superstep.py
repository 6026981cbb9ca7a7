"""Unit tests for the batched superstep execution path.

The engine equivalence suite pins ``vector-superstep`` trace-for-trace
against the reference engine through the simulator; these tests drive
:meth:`VectorEngine.run_supersteps` directly at adversarial cadences
(superstep 1, 3, 5 against traces hundreds of steps long) and pin the
checkpoint trace every vector run records: replay at non-checkpoint
indices (supersteps and single-step runs under central and distributed
daemons), ``moves()``/``.final``/round counting that never fire the
kernel (single-step, superstep and stitched adaptive light traces),
``stop_when`` evaluated inline at every step (mid-block stops on rings
and non-ring graphs, and a monitored run that fires the kernel exactly
once per step), mid-block terminal detection, the fixed-point
fast-forward, the vectorized sparse guard refresh (subset kernels), and
the vectorized privilege fast path of ``spec_ME``.  Everything here needs
real NumPy; the no-NumPy degradation is covered in
``test_engine_equivalence``.
"""

from __future__ import annotations

import random

import pytest

np = pytest.importorskip("numpy")

from repro.core import (
    ArrayKernel,
    CentralDaemon,
    Configuration,
    DistributedDaemon,
    GraphIndex,
    IntCodec,
    Protocol,
    RegimeSwitchingDaemon,
    Rule,
    SafetyMonitor,
    Simulator,
    SynchronousDaemon,
    VectorEngine,
)
from repro.exceptions import SimulationError
from repro.graphs import random_connected_graph, ring_graph
from repro.mutex import SSME, DijkstraTokenRing
from repro.mutex.specification import MutualExclusionSpec
from repro.unison import AsynchronousUnison
from repro.unison.array_kernel import UnisonArrayKernel


def _records(execution, index):
    return sorted(
        (r.vertex, r.rule_name, r.old_state, r.new_state)
        for r in execution.activation_records(index)
    )


def _assert_same_trace(actual, expected):
    assert actual.steps == expected.steps
    assert actual.truncated == expected.truncated
    for i in range(expected.steps + 1):
        assert dict(actual.configuration(i)) == dict(expected.configuration(i)), i
    for i in range(expected.steps):
        assert actual.selection(i) == expected.selection(i), i
        assert actual.enabled_at(i) == expected.enabled_at(i), i
        assert _records(actual, i) == _records(expected, i), i


PROTOCOLS = {
    "ssme": lambda: SSME(ring_graph(12)),
    "unison": lambda: AsynchronousUnison(ring_graph(11), validate_parameters=False),
    "dijkstra": lambda: DijkstraTokenRing(ring_graph(9)),
}


@pytest.mark.parametrize("protocol_name", sorted(PROTOCOLS))
@pytest.mark.parametrize("superstep", [1, 3, 5, 64])
@pytest.mark.parametrize("trace", ["full", "light"])
def test_supersteps_match_single_step_at_every_cadence(
    protocol_name, superstep, trace
):
    """Block boundaries at awkward cadences never shift the trace."""
    protocol = PROTOCOLS[protocol_name]()
    initial = protocol.random_configuration(random.Random(7))
    engine = VectorEngine(protocol)
    single = engine.run(
        SynchronousDaemon(), random.Random(0), initial, max_steps=200, trace=trace
    )
    batched = engine.run_supersteps(
        SynchronousDaemon(),
        random.Random(0),
        initial,
        max_steps=200,
        trace=trace,
        superstep=superstep,
    )
    _assert_same_trace(batched, single)


REPLAY_RUNS = {
    "supersteps": (SynchronousDaemon, VectorEngine.run_supersteps),
    "run-cd": (CentralDaemon, VectorEngine.run),
    "run-dd": (lambda: DistributedDaemon(0.4), VectorEngine.run),
}


@pytest.mark.parametrize("run_name", sorted(REPLAY_RUNS))
@pytest.mark.parametrize("trace", ["full", "light"])
def test_light_trace_random_access_at_non_checkpoint_indices(run_name, trace):
    """Replayed configurations are exact at arbitrary indices, visited in
    arbitrary order (backward seeks reload the nearest checkpoint), for
    supersteps and for single-step runs whose daemon fires subsets."""
    daemon_factory, run = REPLAY_RUNS[run_name]
    protocol = SSME(ring_graph(10))
    initial = protocol.random_configuration(random.Random(3))
    oracle = Simulator(
        protocol, daemon_factory(), rng=random.Random(0), engine="incremental"
    ).run(initial, max_steps=150)
    daemon = daemon_factory()
    daemon.bind(protocol)
    replayed = run(
        VectorEngine(protocol), daemon, random.Random(0), initial,
        max_steps=150, trace=trace,
    )
    assert VectorEngine.DEFAULT_SUPERSTEP == 64
    assert replayed.steps == oracle.steps == 150
    for i in (150, 1, 63, 64, 65, 0, 127, 30, 128, 129, 99, 2):
        assert dict(replayed.configuration(i)) == dict(oracle.configuration(i)), i
    for i in (149, 5, 64, 63, 100):
        assert replayed.selection(i) == oracle.selection(i), i
        assert _records(replayed, i) == _records(oracle, i), i
    assert replayed.count_rounds() == oracle.count_rounds()


@pytest.mark.parametrize("target", [0, 1, 6, 63, 64, 65, 130])
def test_stop_when_rolls_back_to_the_exact_step(target):
    """A mid-block trigger keeps exactly the single-step prefix."""
    protocol = SSME(ring_graph(10))
    initial = protocol.random_configuration(random.Random(5))
    engine = VectorEngine(protocol)

    def runner(run, **kwargs):
        seen = []

        def stop_when(configuration, index):
            seen.append(index)
            return index >= target

        execution = run(
            SynchronousDaemon(),
            random.Random(0),
            initial,
            max_steps=200,
            stop_when=stop_when,
            **kwargs,
        )
        return execution, seen

    single, seen_single = runner(engine.run)
    batched, seen_batched = runner(engine.run_supersteps, superstep=4)
    # The predicate observes the same gapless index sequence...
    assert seen_batched == seen_single == list(range(target + 1))
    # ...and the recorded prefixes are identical.
    _assert_same_trace(batched, single)
    assert batched.steps == target
    assert batched.truncated


STOP_PROTOCOLS = {"ssme": SSME, "unison": AsynchronousUnison}
STOP_SUPERSTEP = 4
STOP_HORIZON = 40


@pytest.mark.parametrize("protocol_name", sorted(STOP_PROTOCOLS))
@pytest.mark.parametrize("trace", ["full", "light"])
@pytest.mark.parametrize(
    "target",
    [0, STOP_SUPERSTEP - 1, STOP_SUPERSTEP, STOP_SUPERSTEP + 1, STOP_HORIZON, None],
)
def test_stop_when_keeps_the_exact_prefix_beyond_rings(
    nonring_graph, protocol_name, trace, target
):
    """Stops at block-boundary neighbours, the first and the last index
    (``None``: never) on every non-ring fixture graph — Shrikhande, grid,
    Petersen, path, binary tree — keep the single-step prefix."""
    protocol = STOP_PROTOCOLS[protocol_name](nonring_graph)
    initial = protocol.random_configuration(random.Random(11))

    def runner(run, trace, **kwargs):
        seen = []

        def stop_when(configuration, index):
            seen.append(index)
            return index == target

        execution = run(
            VectorEngine(protocol),
            SynchronousDaemon(),
            random.Random(0),
            initial,
            max_steps=STOP_HORIZON,
            stop_when=stop_when,
            trace=trace,
            **kwargs,
        )
        return execution, seen

    single, seen_single = runner(VectorEngine.run, trace)
    batched, seen_batched = runner(
        VectorEngine.run_supersteps, trace, superstep=STOP_SUPERSTEP
    )
    decoded, _ = runner(VectorEngine.run, "full")
    last = STOP_HORIZON if target is None else target
    assert seen_batched == seen_single == list(range(last + 1))
    _assert_same_trace(batched, single)
    assert batched.steps == last
    # A light trace's final configuration is seeded by the run, not
    # replayed: it must equal the one a full trace decodes step by step.
    assert batched.final == single.final == decoded.configurations[-1]


def _count_fires(monkeypatch):
    """Count ``UnisonArrayKernel.fire`` calls (SSME inherits the kernel)."""
    calls = []
    original = UnisonArrayKernel.fire

    def fire(self, *args):
        calls.append(None)
        return original(self, *args)

    monkeypatch.setattr(UnisonArrayKernel, "fire", fire)
    return calls


LIGHT_RUNS = {
    "run": (SynchronousDaemon, "vector", 200),
    "run-dd": (lambda: DistributedDaemon(0.4), "vector", 200),
    "supersteps": (SynchronousDaemon, "vector-superstep", 200),
    "adaptive": (lambda: RegimeSwitchingDaemon(48, 96), "adaptive", 288),
}


@pytest.mark.parametrize("run_name", sorted(LIGHT_RUNS))
def test_light_trace_aggregates_fire_no_kernel(run_name, monkeypatch):
    """``moves()``, ``.final`` and round counting read what the run
    recorded: none of them replays a single step, including across the
    segments of a stitched adaptive trace."""
    daemon_factory, engine, steps = LIGHT_RUNS[run_name]
    protocol = SSME(ring_graph(24))
    initial = protocol.random_configuration(random.Random(0))
    simulator = Simulator(
        protocol, daemon_factory(), rng=random.Random(0), engine=engine,
        trace="light",
    )
    calls = _count_fires(monkeypatch)
    execution = simulator.run(initial, max_steps=steps)
    if engine == "adaptive":
        backends = [event.backend for event in simulator.last_run_switches]
        assert "vector" in backends and len(backends) >= 3
    else:
        assert simulator.last_run_backend == engine
    fired = len(calls)
    assert fired > 0
    moves = execution.moves()
    final = execution.final
    rounds = execution.count_rounds()
    assert len(calls) == fired
    oracle = Simulator(
        protocol, daemon_factory(), rng=random.Random(0), engine="incremental"
    ).run(initial, max_steps=steps)
    assert (moves, final, rounds) == (
        oracle.moves(), oracle.final, oracle.count_rounds()
    )


@pytest.mark.parametrize("trace", ["full", "light"])
def test_monitored_run_fires_each_step_once(trace, monkeypatch):
    """A ``SafetyMonitor`` never stops a run; the run still fires the
    kernel once per step — the predicate never re-simulates a block."""
    protocol = SSME(ring_graph(24))
    initial = protocol.random_configuration(random.Random(2))
    engine = VectorEngine(protocol)
    monitor = SafetyMonitor([MutualExclusionSpec(protocol)], protocol)
    calls = _count_fires(monkeypatch)
    execution = engine.run_supersteps(
        SynchronousDaemon(),
        random.Random(0),
        initial,
        max_steps=150,
        stop_when=monitor.observe,
        trace=trace,
        superstep=8,
    )
    fired = len(calls)
    assert execution.steps == 150
    assert fired == execution.steps
    oracle = engine.run(
        SynchronousDaemon(), random.Random(0), initial, max_steps=150, trace=trace
    )
    _assert_same_trace(execution, oracle)


@pytest.mark.parametrize("trace", ["full", "light"])
def test_monitored_simulator_run_fires_each_step_once(trace, monkeypatch):
    protocol = SSME(ring_graph(24))
    initial = protocol.random_configuration(random.Random(4))
    simulator = Simulator(
        protocol, SynchronousDaemon(), rng=random.Random(0), engine="auto", trace=trace
    )
    monitor = SafetyMonitor([MutualExclusionSpec(protocol)], protocol)
    calls = _count_fires(monkeypatch)
    execution = simulator.run(initial, max_steps=150, stop_when=monitor.observe)
    fired = len(calls)
    assert simulator.last_run_backend == "vector-superstep"
    assert execution.steps == 150
    assert fired == execution.steps


def test_supersteps_require_a_synchronous_daemon():
    protocol = SSME(ring_graph(6))
    engine = VectorEngine(protocol)
    initial = protocol.random_configuration(random.Random(1))
    with pytest.raises(SimulationError):
        engine.run_supersteps(
            CentralDaemon(), random.Random(0), initial, max_steps=10
        )
    with pytest.raises(SimulationError):
        engine.run_supersteps(
            SynchronousDaemon(), random.Random(0), initial, max_steps=10, superstep=0
        )


# --------------------------------------------------------------------- #
# Terminal detection and fixed points inside a block
# --------------------------------------------------------------------- #
class CountdownProtocol(Protocol):
    """Each vertex counts its own state down to 0, then disables —
    terminates mid-block after max(initial) steps."""

    name = "countdown"
    actions_preserve_validity = True

    def __init__(self, graph):
        super().__init__(graph)
        self._rules = [
            Rule("tick", lambda view: view.state > 0, lambda view: view.state - 1)
        ]

    def rules(self):
        return self._rules

    def random_state(self, vertex, rng):
        return rng.randrange(12)

    def array_codec(self):
        return IntCodec()

    def array_kernel(self):
        return CountdownKernel()


class CountdownKernel(ArrayKernel):
    rule_names = ("tick",)

    def enabled_rules(self, states, index):
        return np.where(states[:, 0] > 0, np.int64(0), np.int64(-1))

    def fire(self, states, selected, rule_ids, index):
        return states[selected] - 1


class StutterProtocol(Protocol):
    """Always enabled, never changes — the eternal fixed point."""

    name = "stutter"
    actions_preserve_validity = True

    def __init__(self, graph):
        super().__init__(graph)
        self._rules = [Rule("stay", lambda view: True, lambda view: view.state)]

    def rules(self):
        return self._rules

    def random_state(self, vertex, rng):
        return rng.randrange(5)

    def array_codec(self):
        return IntCodec()

    def array_kernel(self):
        return StutterKernel()


class StutterKernel(ArrayKernel):
    rule_names = ("stay",)

    def enabled_rules(self, states, index):
        return np.zeros(index.n, dtype=np.int64)

    def fire(self, states, selected, rule_ids, index):
        return states[selected]


@pytest.mark.parametrize("trace", ["full", "light"])
def test_terminal_detected_mid_block(trace):
    protocol = CountdownProtocol(ring_graph(7))
    initial = protocol.random_configuration(random.Random(9))
    horizon = max(dict(initial).values())
    engine = VectorEngine(protocol)
    single = engine.run(
        SynchronousDaemon(), random.Random(0), initial, max_steps=500, trace=trace
    )
    batched = engine.run_supersteps(
        SynchronousDaemon(),
        random.Random(0),
        initial,
        max_steps=500,
        trace=trace,
        superstep=64,
    )
    assert batched.steps == single.steps == horizon
    assert batched.is_terminal and not batched.truncated
    _assert_same_trace(batched, single)


@pytest.mark.parametrize("trace", ["full", "light"])
def test_fixed_point_fast_forwards_the_remaining_budget(trace):
    protocol = StutterProtocol(ring_graph(6))
    initial = protocol.random_configuration(random.Random(2))
    engine = VectorEngine(protocol)
    single = engine.run(
        SynchronousDaemon(), random.Random(0), initial, max_steps=300, trace=trace
    )
    batched = engine.run_supersteps(
        SynchronousDaemon(),
        random.Random(0),
        initial,
        max_steps=300,
        trace=trace,
        superstep=64,
    )
    assert batched.steps == single.steps == 300
    assert batched.truncated
    for i in (0, 1, 150, 299, 300):
        assert dict(batched.configuration(i)) == dict(single.configuration(i))
        if i < 300:
            assert batched.selection(i) == single.selection(i)
            assert _records(batched, i) == _records(single, i)


# --------------------------------------------------------------------- #
# Vectorized sparse guard refresh: subset kernels
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("graph_seed", [0, 3, 8])
@pytest.mark.parametrize("state_seed", [1, 6, 11])
def test_unison_subset_guards_match_full_scan(graph_seed, state_seed):
    graph = random_connected_graph(14, 0.3, random.Random(graph_seed))
    protocol = AsynchronousUnison(graph, validate_parameters=False)
    kernel = protocol.array_kernel()
    codec = protocol.array_codec()
    index = GraphIndex(graph)
    kernel.prepare(index)
    configuration = protocol.random_configuration(random.Random(state_seed))
    states = codec.encode(configuration, index.vertices)
    full = kernel.enabled_rules(states, index)
    rng = random.Random(state_seed + 100)
    for size in (0, 1, 3, 7, index.n):
        rows = np.array(
            sorted(rng.sample(range(index.n), size)), dtype=np.int64
        )
        subset = kernel.enabled_rules_for(states, rows, index)
        assert np.array_equal(subset, full[rows])


@pytest.mark.parametrize("state_seed", [0, 5, 9])
def test_dijkstra_subset_guards_match_full_scan(state_seed):
    protocol = DijkstraTokenRing(ring_graph(11))
    kernel = protocol.array_kernel()
    codec = protocol.array_codec()
    index = GraphIndex(protocol.graph)
    kernel.prepare(index)
    configuration = protocol.random_configuration(random.Random(state_seed))
    states = codec.encode(configuration, index.vertices)
    full = kernel.enabled_rules(states, index)
    rng = random.Random(state_seed + 100)
    for size in (0, 1, 4, index.n):
        rows = np.array(
            sorted(rng.sample(range(index.n), size)), dtype=np.int64
        )
        subset = kernel.enabled_rules_for(states, rows, index)
        assert np.array_equal(subset, full[rows])


def test_subset_refresh_keeps_sparse_selections_exact():
    """A central daemon forced onto the vector backend exercises the
    in-place ``rule_ids`` patching on every action."""
    protocol = AsynchronousUnison(ring_graph(24), validate_parameters=False)
    initial = protocol.random_configuration(random.Random(4))
    reference = Simulator(
        protocol, CentralDaemon(), rng=random.Random(1), engine="reference"
    ).run(initial, max_steps=120)
    vectorized = Simulator(
        protocol, CentralDaemon(), rng=random.Random(1), engine="vector"
    )
    assert vectorized.engine == "vector"
    execution = vectorized.run(initial, max_steps=120)
    assert vectorized.last_run_backend == "vector"
    assert list(execution.configurations) == list(reference.configurations)


# --------------------------------------------------------------------- #
# Vectorized privilege fast path of spec_ME
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "factory", [lambda: SSME(ring_graph(13)), lambda: DijkstraTokenRing(ring_graph(13))]
, ids=["ssme", "dijkstra"])
def test_privileged_count_array_matches_python(factory):
    protocol = factory()
    engine = VectorEngine(protocol)
    spec = MutualExclusionSpec(protocol)
    for seed in range(8):
        configuration = protocol.random_configuration(random.Random(seed))
        states = engine.encode_initial(configuration)
        view = engine._view(states) if hasattr(engine, "_view") else None
        if view is None:
            from repro.core import ArrayStateView

            view = ArrayStateView(engine._index, states, engine._codec)
        expected = len(protocol.privileged_vertices(configuration))
        assert protocol.privileged_count_array(view) == expected
        assert spec.is_safe(view, protocol) == spec.is_safe(configuration, protocol)
