"""Tests for :mod:`repro.adaptive` — detector, engine switching, protocol.

Three contracts are pinned here:

* the :class:`RegimeDetector` is a pure function of its observation
  stream (Hypothesis: identical streams produce identical estimate
  streams, and ``reset()`` restores a fresh detector);
* ``engine="adaptive"`` is observationally identical to the fixed
  backends — under pure-dense (sd), pure-sparse (cd) and regime-switching
  schedules, in both trace modes, with a gapless ``stop_when`` stream —
  and degrades to a single dict segment without NumPy;
* :class:`AdaptiveProtocol` stabilizes across rule-set switches and
  reports a deterministic, internally consistent run record.

The whole module runs with and without NumPy installed (the no-NumPy CI
job runs it too): the with-NumPy-only promotion assertions guard on
``numpy_available()``.
"""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive import (
    AdaptiveProtocol,
    RegimeDetector,
    SwitchEvent,
)
from repro.core import (
    CentralDaemon,
    RegimeSwitchingDaemon,
    Simulator,
    SynchronousDaemon,
    make_daemon,
    numpy_available,
)
from repro.exceptions import DaemonError, SimulationError
from repro.graphs import ring_graph
from repro.mutex import SSME

# --------------------------------------------------------------------- #
# Detector
# --------------------------------------------------------------------- #

#: One observation: (selection_size, enabled_size) with size <= enabled.
observations = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)).map(
        lambda pair: (min(pair), max(pair))
    ),
    min_size=0,
    max_size=40,
)


def _estimate_stream(detector: RegimeDetector, stream):
    estimates = []
    for selection_size, enabled_size in stream:
        detector.observe(
            selection_size, enabled_size, frozenset(range(selection_size))
        )
        estimates.append(detector.estimate())
    return estimates


@settings(max_examples=40, deadline=None)
@given(stream=observations)
def test_detector_is_a_pure_function_of_the_observation_stream(stream):
    first = _estimate_stream(RegimeDetector(12), stream)
    second = _estimate_stream(RegimeDetector(12), stream)
    assert first == second

    # reset() restores a fresh detector: replaying the stream reproduces
    # the exact estimate stream (this is what makes seeded adaptive runs
    # reproducible end to end).
    detector = RegimeDetector(12)
    _estimate_stream(detector, stream)
    detector.reset()
    assert detector.observations == 0
    assert _estimate_stream(detector, stream) == first


def test_detector_warmup_hysteresis_and_classification():
    detector = RegimeDetector(10, min_observations=8)
    for _ in range(7):
        detector.observe(10, 10)
        assert detector.classify() is None  # warmup
    detector.observe(10, 10)
    assert detector.classify() == RegimeDetector.DENSE
    assert detector.estimate().regime == RegimeDetector.DENSE

    # A long sparse phase pulls the EWMA through the hysteresis band
    # (None in between) down to a sparse classification.
    seen = []
    for _ in range(20):
        detector.observe(1, 5)
        seen.append(detector.classify())
    assert seen[-1] == RegimeDetector.SPARSE
    assert None in seen  # the band between the thresholds was crossed

    # Coverage tracks |selection| / |enabled| independently of density:
    # the last samples selected 1 of 5 enabled.
    assert 0.0 < detector.coverage < 1.0


def test_detector_overlap_identity_fast_path():
    detector = RegimeDetector(4)
    selection = frozenset({0, 1, 2, 3})
    detector.observe(4, 4, selection)
    detector.observe(4, 4, selection)  # same object: overlap sample 1.0
    assert detector.overlap == 1.0
    detector.observe(2, 4, frozenset({0, 1}))
    assert detector.overlap < 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 0},
        {"smoothing": 0.0},
        {"smoothing": 1.5},
        {"window": 0},
        {"dense_threshold": 0.2, "sparse_threshold": 0.5},
        {"dense_threshold": 1.2},
        {"min_observations": 0},
    ],
)
def test_detector_rejects_bad_parameters(kwargs):
    with pytest.raises(SimulationError):
        RegimeDetector(**{"n": 8, **kwargs})


# --------------------------------------------------------------------- #
# The regime-switch workload daemon
# --------------------------------------------------------------------- #


def test_regime_switching_daemon_phases_and_selections():
    daemon = RegimeSwitchingDaemon(dense_steps=3, sparse_steps=5)
    assert [daemon.in_dense_phase(i) for i in range(8)] == (
        [True] * 3 + [False] * 5
    )
    assert daemon.in_dense_phase(8)  # next period

    protocol = SSME(ring_graph(6))
    daemon.bind(protocol)
    configuration = protocol.random_configuration(random.Random(0))
    enabled = protocol.enabled_vertices(configuration)
    rng = random.Random(1)
    assert daemon.select(enabled, configuration, 0, rng) == enabled
    sparse = daemon.select(enabled, configuration, 4, rng)
    assert len(sparse) == 1 and sparse <= enabled

    # Advisory flags stay at the sparse defaults: static selection must
    # not route this daemon to the array backends (that is adaptive's job).
    assert daemon.density is None and not daemon.synchronous


def test_regime_switching_daemon_registry_and_validation():
    daemon = make_daemon("regime-switch")
    assert isinstance(daemon, RegimeSwitchingDaemon)
    assert (daemon.dense_steps, daemon.sparse_steps) == (64, 192)
    with pytest.raises(DaemonError):
        RegimeSwitchingDaemon(dense_steps=0)
    with pytest.raises(DaemonError):
        RegimeSwitchingDaemon(sparse_steps=0)


# --------------------------------------------------------------------- #
# Adaptive engine equivalence
# --------------------------------------------------------------------- #

DAEMONS = {
    "sd": SynchronousDaemon,
    "cd": CentralDaemon,
    "regime-switch": lambda: RegimeSwitchingDaemon(48, 96),
}


def _run(protocol, daemon_name, engine, trace, initial, steps, seed):
    simulator = Simulator(
        protocol,
        DAEMONS[daemon_name](),
        rng=random.Random(seed),
        engine=engine,
        trace=trace,
    )
    execution = simulator.run(initial, max_steps=steps)
    return simulator, execution


def _normalized_records(execution):
    normalized = []
    for index in range(execution.steps):
        records = sorted(
            execution.activation_records(index),
            key=lambda r: (repr(r.vertex), r.rule_name),
        )
        normalized.append(
            [(r.vertex, r.rule_name, r.old_state, r.new_state) for r in records]
        )
    return normalized


@pytest.mark.parametrize("daemon_name", sorted(DAEMONS))
@pytest.mark.parametrize("trace", ["full", "light"])
def test_adaptive_engine_is_bit_identical_to_incremental(daemon_name, trace):
    protocol = SSME(ring_graph(16))
    initial = protocol.random_configuration(random.Random(3))
    steps = 288 if daemon_name == "regime-switch" else 120
    _, reference = _run(protocol, daemon_name, "incremental", "full", initial, steps, 7)
    simulator, adaptive = _run(protocol, daemon_name, "adaptive", trace, initial, steps, 7)

    assert adaptive.steps == reference.steps
    assert adaptive.truncated == reference.truncated
    assert list(adaptive.configurations) == list(reference.configurations)
    assert [adaptive.selection(i) for i in range(adaptive.steps)] == [
        reference.selection(i) for i in range(reference.steps)
    ]
    assert [adaptive.enabled_at(i) for i in range(adaptive.steps)] == [
        reference.enabled_at(i) for i in range(reference.steps)
    ]
    assert _normalized_records(adaptive) == _normalized_records(reference)
    assert adaptive.moves() == reference.moves()
    assert adaptive.rule_counts() == reference.rule_counts()

    # The switch history always exists and is duplicate-free; its step
    # indices are strictly increasing from 0.
    switches = simulator.last_run_switches
    assert switches[0].step == 0
    assert all(isinstance(event, SwitchEvent) for event in switches)
    assert all(b.step > a.step for a, b in zip(switches, switches[1:]))
    assert all(b.backend != a.backend for a, b in zip(switches, switches[1:]))


def test_adaptive_engine_promotes_under_a_dense_schedule():
    pytest.importorskip("numpy")
    protocol = SSME(ring_graph(24))
    initial = protocol.random_configuration(random.Random(0))
    simulator, _ = _run(protocol, "sd", "adaptive", "light", initial, 96, 0)
    backends = [event.backend for event in simulator.last_run_switches]
    assert backends[0] == "dict"
    assert backends[-1] == "vector-superstep"  # sd densities promote
    assert simulator.last_run_backend == "vector-superstep"


def test_adaptive_engine_switches_back_and_forth_under_regime_switching():
    pytest.importorskip("numpy")
    protocol = SSME(ring_graph(24))
    initial = protocol.random_configuration(random.Random(0))
    simulator, _ = _run(protocol, "regime-switch", "adaptive", "light", initial, 288, 0)
    backends = [event.backend for event in simulator.last_run_switches]
    assert backends[0] == "dict"
    assert "vector" in backends  # promoted during a dense phase
    assert len(backends) >= 3  # ... and demoted again


def test_adaptive_engine_stays_dict_under_a_sparse_schedule():
    protocol = SSME(ring_graph(16))
    initial = protocol.random_configuration(random.Random(0))
    simulator, _ = _run(protocol, "cd", "adaptive", "light", initial, 120, 0)
    assert simulator.last_run_switches == (SwitchEvent(0, "dict"),)
    assert simulator.last_run_backend == "dict"


def test_adaptive_engine_degrades_to_one_dict_segment_without_numpy(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert not numpy_available()
    protocol = SSME(ring_graph(12))
    initial = protocol.random_configuration(random.Random(2))
    _, reference = _run(protocol, "sd", "incremental", "full", initial, 60, 5)
    simulator, adaptive = _run(protocol, "sd", "adaptive", "full", initial, 60, 5)
    assert simulator.last_run_backend == "dict"
    assert simulator.last_run_switches == (SwitchEvent(0, "dict"),)
    assert list(adaptive.configurations) == list(reference.configurations)


def test_adaptive_engine_stop_when_sees_a_gapless_global_stream():
    protocol = SSME(ring_graph(16))
    initial = protocol.random_configuration(random.Random(3))
    observed = []

    def stop_when(configuration, index):
        observed.append(index)
        return index == 70

    simulator = Simulator(
        protocol,
        RegimeSwitchingDaemon(24, 48),
        rng=random.Random(7),
        engine="adaptive",
        trace="light",
    )
    execution = simulator.run(initial, max_steps=288, stop_when=stop_when)
    # Exactly once per global index, in order, stopping where asked —
    # segment boundaries must neither skip nor re-present an index.
    assert observed == list(range(71))
    assert execution.steps == 70
    assert execution.truncated


# --------------------------------------------------------------------- #
# Adaptive protocol
# --------------------------------------------------------------------- #


def test_adaptive_protocol_stabilizes_under_the_synchronous_daemon():
    adaptive = AdaptiveProtocol(ring_graph(6))
    initial = adaptive.speculative.random_configuration(random.Random(4))
    run = adaptive.run(initial, SynchronousDaemon(), max_steps=120, rng=random.Random(0))
    assert run.final_legitimate
    assert run.switches[0] == (0, "speculative")
    # Safety (first index safe forever) is never later than legitimacy.
    assert run.safety_index <= run.stabilization_index <= run.steps + 1

    # Deterministic given seeds: the whole run record reproduces.
    again = adaptive.run(initial, SynchronousDaemon(), max_steps=120, rng=random.Random(0))
    assert again == run


def test_adaptive_protocol_switches_rule_sets_and_still_stabilizes():
    adaptive = AdaptiveProtocol(ring_graph(6), dwell=8)
    initial = adaptive.speculative.random_configuration(random.Random(1))
    run = adaptive.run(
        initial,
        RegimeSwitchingDaemon(24, 48),
        max_steps=360,
        rng=random.Random(2),
    )
    assert run.final_legitimate
    modes = [switch.mode for switch in run.switches]
    assert modes[0] == "speculative"
    assert all(b != a for a, b in zip(modes, modes[1:]))
    assert len(modes) >= 2  # the sparse phases demote to conservative
    assert run.safety_index <= run.stabilization_index <= run.steps + 1
    assert run.moves > 0


def test_adaptive_protocol_default_rule_sets_share_a_state_space():
    adaptive = AdaptiveProtocol(ring_graph(5))
    assert adaptive.conservative.K == adaptive.speculative.K
    rng = random.Random(9)
    for _ in range(5):
        configuration = adaptive.speculative.random_configuration(rng)
        assert adaptive.compatible(configuration)


def test_adaptive_protocol_rejects_bad_parameters():
    with pytest.raises(SimulationError):
        AdaptiveProtocol(ring_graph(4), dwell=0)
    with pytest.raises(SimulationError):
        AdaptiveProtocol(ring_graph(4), initial_mode="turbo")
    with pytest.raises(SimulationError):
        AdaptiveProtocol(ring_graph(4)).run(
            None, SynchronousDaemon(), max_steps=-1
        )
