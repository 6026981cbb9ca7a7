"""Incremental safety monitoring ≡ full safety scans.

:class:`~repro.core.SafetyMonitor` keeps the bad-vertex set of every
specification declaring the local shape (``spec_ME``: privileged vertices,
budget 1; ``spec_AU``: locally illegitimate vertices, budget 0) and, on the
dict engine's live view, re-evaluates only the changed vertices and their
neighbours.  These tests pin it to the oracle — ``is_safe`` evaluated from
scratch on every configuration of the produced trace — at *every* index:
the per-index verdict (``is_currently_safe``), the first and the last
unsafe index.

Starts carry several privileged vertices (or broken registers), so the
runs do visit unsafe configurations: a monitor that never reports unsafe
would fail here.  Dijkstra's privilege reads the predecessor's counter,
so its runs exercise the ``neig(C)`` part of the re-evaluated region.
"""

from __future__ import annotations

import random

import pytest

from repro.core import (
    CentralDaemon,
    ConfigurationBuffer,
    DistributedDaemon,
    RegimeSwitchingDaemon,
    SafetyMonitor,
    Simulator,
    SynchronousDaemon,
)
from repro.core.vector import numpy_available
from repro.graphs import ring_graph
from repro.mutex import SSME, DijkstraTokenRing, MutualExclusionSpec
from repro.unison import AsynchronousUnison, AsynchronousUnisonSpec


class OpaqueSpec(MutualExclusionSpec):
    """``spec_ME`` without the declared local shape: always a full scan."""

    def local_safety(self):
        return None


def crowded_start(protocol, seed: int, privileged: int = 4):
    """A random configuration with up to ``privileged`` vertices moved onto
    their privileged values (several privileged vertices at index 0)."""
    rng = random.Random(seed)
    states = dict(protocol.random_configuration(rng))
    vertices = list(protocol.graph.vertices)
    for vertex in rng.sample(vertices, min(privileged, len(vertices))):
        states[vertex] = protocol.privileged_value(vertex)
    return protocol.configuration(states)


def recorded_run(protocol, specs, daemon, initial, steps, seed, engine, trace, stop=None):
    """Run with a monitor over ``specs``; returns the execution, the monitor,
    per observed index the monitor's ``is_currently_safe`` verdicts, and
    the simulator."""
    verdicts = []

    def record(configuration, index):
        verdicts.append([monitor.is_currently_safe(spec) for spec in specs])
        return stop(monitor) if stop is not None else False

    monitor = SafetyMonitor(specs, protocol, stop_when=record)
    simulator = Simulator(
        protocol, daemon, rng=random.Random(seed), engine=engine, trace=trace
    )
    execution = simulator.run(initial, max_steps=steps, stop_when=monitor.observe)
    return execution, monitor, verdicts, simulator


def assert_matches_full_scans(protocol, specs, execution, monitor, verdicts):
    expected = [
        [spec.is_safe(configuration, protocol) for spec in specs]
        for configuration in execution.iter_configurations()
    ]
    assert verdicts == expected
    for position, spec in enumerate(specs):
        unsafe = [index for index, row in enumerate(expected) if not row[position]]
        assert monitor.first_unsafe_index(spec) == (unsafe[0] if unsafe else None)
        assert monitor.last_unsafe_index(spec) == (unsafe[-1] if unsafe else None)
    return expected


def ssme_case(graph, seed):
    protocol = SSME(graph)
    return protocol, crowded_start(protocol, seed)


def unison_case(graph, seed):
    protocol = AsynchronousUnison(graph)
    return protocol, protocol.random_configuration(random.Random(seed))


DAEMONS = {
    "cd": CentralDaemon,
    "dd": lambda: DistributedDaemon(0.3),
    "sd": SynchronousDaemon,
}


class TestMutexMonitor:
    @pytest.mark.parametrize("trace", ["light", "full"])
    @pytest.mark.parametrize("daemon", sorted(DAEMONS))
    def test_ssme_matches_full_scans(self, local_step_graph, daemon, trace):
        protocol, initial = ssme_case(local_step_graph, seed=3)
        spec = MutualExclusionSpec(protocol)
        execution, monitor, verdicts, _ = recorded_run(
            protocol, [spec, OpaqueSpec(protocol)], DAEMONS[daemon](), initial,
            steps=250, seed=5, engine="incremental", trace=trace,
        )
        expected = assert_matches_full_scans(
            protocol, [spec], execution, monitor, [row[:1] for row in verdicts]
        )
        assert [row[0] for row in verdicts] == [row[1] for row in verdicts]
        assert not expected[0][0], "the start must be unsafe"

    @pytest.mark.parametrize("trace", ["light", "full"])
    @pytest.mark.parametrize("n", [5, 9, 16])
    def test_dijkstra_matches_full_scans(self, n, trace):
        protocol = DijkstraTokenRing(ring_graph(n))
        spec = MutualExclusionSpec(protocol)
        for seed in range(4):
            initial = protocol.random_configuration(random.Random(seed))
            execution, monitor, verdicts, _ = recorded_run(
                protocol, [spec], CentralDaemon(), initial,
                steps=400, seed=seed, engine="incremental", trace=trace,
            )
            expected = assert_matches_full_scans(
                protocol, [spec], execution, monitor, verdicts
            )
            assert any(not row[0] for row in expected)

    @pytest.mark.parametrize("strategy", ["first", "last"])
    def test_dijkstra_deterministic_central(self, strategy):
        protocol = DijkstraTokenRing(ring_graph(11))
        spec = MutualExclusionSpec(protocol)
        initial = protocol.configuration({v: (3 * v) % protocol.K for v in range(11)})
        execution, monitor, verdicts, _ = recorded_run(
            protocol, [spec], CentralDaemon(strategy), initial,
            steps=300, seed=0, engine="incremental", trace="light",
        )
        assert_matches_full_scans(protocol, [spec], execution, monitor, verdicts)
        assert monitor.first_unsafe_index(spec) == 0


class TestUnisonMonitor:
    @pytest.mark.parametrize("trace", ["light", "full"])
    @pytest.mark.parametrize("daemon", sorted(DAEMONS))
    def test_unison_matches_full_scans(self, local_step_graph, daemon, trace):
        protocol, initial = unison_case(local_step_graph, seed=7)
        spec = AsynchronousUnisonSpec(protocol)
        execution, monitor, verdicts, _ = recorded_run(
            protocol, [spec], DAEMONS[daemon](), initial,
            steps=300, seed=11, engine="incremental", trace=trace,
        )
        expected = assert_matches_full_scans(protocol, [spec], execution, monitor, verdicts)
        assert not expected[0][0]

    def test_local_predicate_counts_match_legitimacy(self, local_step_graph):
        protocol, _ = unison_case(local_step_graph, seed=0)
        spec = AsynchronousUnisonSpec(protocol)
        bad_of, budget = spec.local_safety()
        rng = random.Random(1)
        for _ in range(60):
            configuration = protocol.random_configuration(rng)
            if rng.random() < 0.5:
                base = rng.randrange(protocol.K)
                configuration = protocol.configuration(
                    {v: (base + rng.randrange(2)) % protocol.K for v in protocol.graph.vertices}
                )
            bad = [v for v in protocol.graph.vertices if bad_of(configuration, v)]
            assert (len(bad) <= budget) == spec.is_safe(configuration, protocol)


class TestSegmentsAndWrappers:
    def test_adaptive_engine_matches_full_scans(self, local_step_graph):
        protocol, initial = ssme_case(local_step_graph, seed=2)
        specs = [MutualExclusionSpec(protocol), AsynchronousUnisonSpec(protocol)]
        execution, monitor, verdicts, simulator = recorded_run(
            protocol, specs, RegimeSwitchingDaemon(dense_steps=6, sparse_steps=30),
            initial, steps=400, seed=4, engine="adaptive", trace="light",
        )
        assert_matches_full_scans(protocol, specs, execution, monitor, verdicts)
        if numpy_available():  # without NumPy the run is one dict segment
            assert len(simulator.last_run_switches) > 2

    def test_e3_two_spec_monitor_with_wrapped_stop(self, local_step_graph):
        """The Theorem 3 trial: spec_AU and spec_ME in one monitor, the run
        stopping as soon as the configuration under decision is in Γ₁."""
        protocol, initial = ssme_case(local_step_graph, seed=9)
        unison_spec = AsynchronousUnisonSpec(protocol)
        specs = [unison_spec, MutualExclusionSpec(protocol)]
        execution, monitor, verdicts, _ = recorded_run(
            protocol, specs, CentralDaemon(), initial, steps=20_000, seed=1,
            engine="incremental", trace="light",
            stop=lambda monitor: monitor.is_currently_safe(unison_spec),
        )
        expected = assert_matches_full_scans(protocol, specs, execution, monitor, verdicts)
        unison_safe = [row[0] for row in expected]
        assert unison_safe[-1] and not any(unison_safe[:-1])
        assert monitor.stabilization_index(unison_spec) == execution.steps

    def test_reset_reuses_monitor_across_runs(self):
        protocol, initial = ssme_case(ring_graph(10), seed=1)
        spec = MutualExclusionSpec(protocol)
        monitor = SafetyMonitor([spec], protocol)
        results = []
        for seed in (1, 2):
            monitor.reset()
            simulator = Simulator(
                protocol, CentralDaemon(), rng=random.Random(seed), trace="light"
            )
            execution = simulator.run(initial, max_steps=80, stop_when=monitor.observe)
            results.append((monitor.first_unsafe_index(spec), monitor.last_unsafe_index(spec)))
            assert results[-1][1] == spec.last_unsafe_index(execution, protocol)
        assert results[0][0] == results[1][0] == 0


class TestChangeTracking:
    def test_changed_since(self):
        buffer = ConfigurationBuffer({0: 0, 1: 0, 2: 0})
        view = buffer.view()
        stamp = view.stamp()
        assert view.changed_since(stamp) == ()
        buffer.apply_trusted_changes({1: 5, 2: 6})
        assert set(view.changed_since(stamp)) == {1, 2}
        buffer.apply_changes({0: 1})
        assert view.changed_since(stamp) is None
        assert set(view.changed_since(view.stamp())) == set()

    def test_other_buffer_cannot_vouch(self):
        first = ConfigurationBuffer({0: 0})
        second = ConfigurationBuffer({0: 0})
        assert second.view().changed_since(first.view().stamp()) is None


class TestObserveComplexity:
    def test_privilege_calls_bounded_by_dirty_region(self):
        """After index 0 every observed step costs at most |C ∪ N(C)|
        privilege evaluations, C the vertices the step changed."""
        graph = ring_graph(3200)
        protocol = SSME(graph, diam=1600)
        calls = [0]
        privileged = protocol.is_privileged

        def counting(configuration, vertex):
            calls[0] += 1
            return privileged(configuration, vertex)

        protocol.is_privileged = counting
        spec = MutualExclusionSpec(protocol)
        seen = []
        monitor = SafetyMonitor(
            [spec], protocol, stop_when=lambda configuration, index: seen.append(calls[0]) or False
        )
        initial = crowded_start(protocol, seed=1, privileged=3)
        simulator = Simulator(protocol, CentralDaemon(), rng=random.Random(2), trace="light")
        execution = simulator.run(initial, max_steps=300, stop_when=monitor.observe)
        assert seen[0] == graph.n
        for index in range(1, execution.steps + 1):
            changed = {
                record.vertex
                for record in execution.activation_records(index - 1)
                if record.changed
            }
            region = set(changed)
            for vertex in changed:
                region.update(graph.neighbors(vertex))
            assert seen[index] - seen[index - 1] <= len(region)
        assert monitor.first_unsafe_index(spec) == 0
