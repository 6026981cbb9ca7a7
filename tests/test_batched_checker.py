"""Bit-identical equivalence of the batched array checker and the dict path.

The contract of :mod:`repro.verify.batched` is *exactness*, not
approximation: same reachable keys, same per-state successor lists (order
included), same safety labels, same game values, same lassos-that-replay.
These tests pin that contract on every daemon class over full products,
seeded regions, diverging instances and every protocol family with an
array codec — plus the engine dispatch (``engine="auto"|"dict"|"batched"``)
and the graceful no-NumPy degradation.
"""

from __future__ import annotations

import random
import sys

import pytest

from repro.baselines import (
    BfsSpanningTree,
    BfsTreeSpec,
    MaximalMatching,
    MaximalMatchingSpec,
)
from repro.core import protocol_supports_vector
from repro.exceptions import VerificationError
from repro.graphs import path_graph, ring_graph
from repro.mutex import SSME, DijkstraTokenRing, MutualExclusionSpec
from repro.unison import AsynchronousUnison, AsynchronousUnisonSpec
from repro.verify import (
    StateSpace,
    TransitionSystem,
    solve,
    verify_stabilization,
)

np = pytest.importorskip("numpy")

from repro.verify import BatchedTransitionSystem, solve_arrays  # noqa: E402
from repro.verify.batched import ArrayPacker  # noqa: E402

DAEMON_CLASSES = ("synchronous", "central", "distributed")


def assert_systems_identical(protocol, specification, daemon_class, initial=None):
    """Explore both paths and compare every observable, bit for bit."""
    space = StateSpace(protocol)
    dict_ts = TransitionSystem(
        protocol, specification, daemon_class, space=space
    )
    batched_ts = BatchedTransitionSystem(
        protocol, specification, daemon_class, space=space
    )
    if initial is None:
        dict_system = dict_ts.explore_full()
        batched_system = batched_ts.explore_full()
    else:
        dict_system = dict_ts.explore(initial)
        batched_system = batched_ts.explore(initial)
    as_dict = batched_system.to_explored_system()
    assert set(dict_system.keys) == set(as_dict.keys)
    assert dict_system.successors == as_dict.successors
    assert dict_system.safe == as_dict.safe
    assert set(dict_system.terminal_keys) == set(as_dict.terminal_keys)
    assert list(dict_system.initial_keys) == list(as_dict.initial_keys)
    dict_solution = solve(dict_system)
    array_solution = solve_arrays(batched_system)
    as_game = array_solution.to_game_solution()
    assert dict_solution.values == as_game.values
    assert dict_solution.legitimate == as_game.legitimate
    assert dict_solution.diverging == as_game.diverging
    assert dict_solution.exact_worst_case == array_solution.exact_worst_case


def replay_lasso(counterexample, protocol):
    """Check a lasso counterexample transition-by-transition."""
    configs = list(counterexample.stem) + list(counterexample.cycle)
    selections = list(counterexample.stem_selections) + list(
        counterexample.cycle_selections
    )
    assert len(configs) == len(selections)
    sequence = configs + [counterexample.cycle[0]]
    for i, selection in enumerate(selections):
        if not selection:
            assert sequence[i] == sequence[i + 1]
            continue
        successor, _ = protocol.apply(sequence[i], selection)
        assert successor == sequence[i + 1], f"replay mismatch at step {i}"


# --------------------------------------------------------------------- #
# Full-product equivalence, every daemon class
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("daemon_class", DAEMON_CLASSES)
class TestFullProductEquivalence:
    def test_dijkstra_stabilizing(self, daemon_class):
        protocol = DijkstraTokenRing.on_ring(4)
        assert_systems_identical(
            protocol, MutualExclusionSpec(protocol), daemon_class
        )

    def test_dijkstra_diverging(self, daemon_class):
        # K = 2 < n + 1: legitimately diverges, the values/diverging sets
        # must still match exactly.
        protocol = DijkstraTokenRing.on_ring(3, K=2)
        assert_systems_identical(
            protocol, MutualExclusionSpec(protocol), daemon_class
        )

    def test_unison(self, daemon_class):
        n = 3 if daemon_class == "distributed" else 4
        protocol = AsynchronousUnison(ring_graph(n), alpha=2, K=8)
        assert_systems_identical(
            protocol, AsynchronousUnisonSpec(protocol), daemon_class
        )

    def test_bfs_tree(self, daemon_class):
        protocol = BfsSpanningTree(path_graph(4))
        assert_systems_identical(protocol, BfsTreeSpec(protocol), daemon_class)

    def test_matching(self, daemon_class):
        protocol = MaximalMatching(ring_graph(4))
        assert_systems_identical(
            protocol, MaximalMatchingSpec(protocol), daemon_class
        )

    def test_region_exploration(self, daemon_class):
        protocol = DijkstraTokenRing.on_ring(5)
        initial = [
            protocol.configuration(
                {v: (v * 2) % protocol.K for v in protocol.graph.vertices}
            ),
            protocol.configuration({v: 0 for v in protocol.graph.vertices}),
        ]
        assert_systems_identical(
            protocol, MutualExclusionSpec(protocol), daemon_class, initial
        )


# --------------------------------------------------------------------- #
# Engine dispatch and result API
# --------------------------------------------------------------------- #
class TestEngineDispatch:
    def test_engines_agree_end_to_end(self):
        protocol = DijkstraTokenRing.on_ring(4)
        specification = MutualExclusionSpec(protocol)
        by_engine = {
            engine: verify_stabilization(
                protocol, specification, "central", engine=engine
            )
            for engine in ("dict", "batched", "auto")
        }
        reference = by_engine["dict"]
        for result in by_engine.values():
            assert result.exact_worst_case == reference.exact_worst_case
            assert result.state_count == reference.state_count
            assert result.transition_count == reference.transition_count
            assert result.legitimate_count == reference.legitimate_count
            assert result.stabilizes == reference.stabilizes
        legit = protocol.legitimate_configuration(2)
        batched = by_engine["batched"]
        assert batched.value_of(legit) == reference.value_of(legit) == 0
        assert batched.is_certified_legitimate(legit)
        assert sorted(batched.legitimate_configurations(), key=repr) == sorted(
            reference.legitimate_configurations(), key=repr
        )

    def test_unknown_engine_rejected(self):
        protocol = DijkstraTokenRing.on_ring(3)
        with pytest.raises(VerificationError, match="unknown engine"):
            verify_stabilization(
                protocol, MutualExclusionSpec(protocol), "central",
                engine="gpu",
            )

    def test_lassos_replay_on_both_engines(self):
        protocol = DijkstraTokenRing.on_ring(3, K=2)
        specification = MutualExclusionSpec(protocol)
        for engine in ("dict", "batched"):
            for daemon_class in ("synchronous", "distributed"):
                result = verify_stabilization(
                    protocol, specification, daemon_class, engine=engine
                )
                assert not result.stabilizes
                assert result.counterexample is not None
                replay_lasso(result.counterexample, protocol)

    def test_exploration_cap_message_matches_dict_path(self):
        protocol = DijkstraTokenRing.on_ring(5)
        specification = MutualExclusionSpec(protocol)
        errors = {}
        for engine in ("dict", "batched"):
            with pytest.raises(VerificationError) as excinfo:
                verify_stabilization(
                    protocol, specification, "central",
                    engine=engine, max_states=100,
                )
            errors[engine] = str(excinfo.value)
        assert errors["dict"] == errors["batched"]

    def test_auto_does_not_repeat_a_capped_exploration_on_dict(self, monkeypatch):
        """The auto engine falls back to the dict path only when the batched
        path declines the instance; an exploration cap it hits is raised
        as is, not re-explored by the dict engine."""
        import repro.verify.solver as solver

        protocol = SSME(ring_graph(6))
        specification = MutualExclusionSpec(protocol)
        initial = [protocol.random_configuration(random.Random(0))]

        def no_dict_engine(*args, **kwargs):
            raise AssertionError("the dict engine re-ran a capped exploration")

        monkeypatch.setattr(solver, "TransitionSystem", no_dict_engine)
        with pytest.raises(VerificationError, match="exploration cap"):
            verify_stabilization(
                protocol, specification, "central",
                initial=initial, engine="auto", max_states=50,
            )


# --------------------------------------------------------------------- #
# The packer (state identity without bignums)
# --------------------------------------------------------------------- #
class TestArrayPacker:
    def _packer(self, protocol):
        space = StateSpace(protocol)
        return space, ArrayPacker(space, protocol.array_codec())

    def test_keys_match_state_space_encoding(self):
        protocol = DijkstraTokenRing.on_ring(5)
        space, packer = self._packer(protocol)
        assert packer.packable
        rng = random.Random(0)
        configurations = [
            protocol.random_configuration(rng) for _ in range(20)
        ]
        keys = [space.encode(c) for c in configurations]
        idx = packer.indices_of_keys(keys)
        assert packer.python_keys(idx) == keys
        assert packer.configurations_of(idx) == configurations
        # codec-row round trip: rows_of and indices_of invert each other
        assert (packer.indices_of(packer.rows_of(idx)) == idx).all()

    def test_wide_keys_use_column_groups(self):
        # SSME ring(10): the full mixed-radix key exceeds int64, so the
        # packer must split into column groups yet still reproduce the
        # exact arbitrary-precision python keys.
        protocol = SSME(ring_graph(10))
        space, packer = self._packer(protocol)
        assert not packer.packable
        assert packer.columns > 1
        rng = random.Random(1)
        configurations = [
            protocol.random_configuration(rng) for _ in range(10)
        ]
        keys = [space.encode(c) for c in configurations]
        idx = packer.indices_of_keys(keys)
        assert packer.python_keys(idx) == keys
        assert packer.configurations_of(idx) == configurations

    def test_out_of_domain_row_is_a_clear_error(self):
        protocol = DijkstraTokenRing.on_ring(4, K=5)
        space, packer = self._packer(protocol)
        rows = packer.rows_of(
            packer.indices_of_keys([space.encode(
                protocol.configuration({v: 0 for v in protocol.graph.vertices})
            )])
        )
        rows[0, 0, 0] = 99  # clock value far outside 0..K-1
        with pytest.raises(VerificationError, match="outside the declared"):
            packer.indices_of(rows)


# --------------------------------------------------------------------- #
# No-NumPy degradation
# --------------------------------------------------------------------- #
class TestNoNumpyDegradation:
    def test_auto_falls_back_and_batched_raises(self, monkeypatch):
        protocol = DijkstraTokenRing.on_ring(3)
        specification = MutualExclusionSpec(protocol)
        with_numpy = verify_stabilization(
            protocol, specification, "central", engine="auto"
        )
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert protocol_supports_vector(protocol) is None
        without_numpy = verify_stabilization(
            protocol, specification, "central", engine="auto"
        )
        assert without_numpy.exact_worst_case == with_numpy.exact_worst_case
        assert without_numpy.state_count == with_numpy.state_count
        with pytest.raises(VerificationError, match="batched"):
            verify_stabilization(
                protocol, specification, "central", engine="batched"
            )
