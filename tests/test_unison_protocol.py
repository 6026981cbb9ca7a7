"""Unit tests for the asynchronous unison protocol (Boulinier et al.)."""

from __future__ import annotations

import random
import time

import pytest

from repro.core import Simulator, SynchronousDaemon, synchronous_execution
from repro.exceptions import ProtocolError
from repro.graphs import complete_graph, path_graph, ring_graph, star_graph
from repro.unison import AsynchronousUnison, AsynchronousUnisonSpec, default_unison_parameters


class TestConstruction:
    def test_default_parameters(self):
        protocol = AsynchronousUnison(ring_graph(6))
        assert protocol.alpha == 6
        assert protocol.K == 7
        assert protocol.clock.alpha == 6

    def test_explicit_parameters(self):
        protocol = AsynchronousUnison(path_graph(4), alpha=3, K=10)
        assert protocol.alpha == 3
        assert protocol.K == 10

    def test_alpha_too_small_rejected(self):
        # hole(ring_6) = 6 so alpha must be >= 4.
        with pytest.raises(ProtocolError):
            AsynchronousUnison(ring_graph(6), alpha=2, K=10)

    def test_K_too_small_rejected(self):
        with pytest.raises(ProtocolError):
            AsynchronousUnison(ring_graph(6), alpha=6, K=3)

    def test_default_validation_at_n_1000(self):
        """The exact hole search behind default validation is iterative:
        ring(1000) needs a 1000-deep path, past the recursion limit."""
        started = time.perf_counter()
        protocol = AsynchronousUnison(ring_graph(1000))
        assert time.perf_counter() - started < 30.0
        assert protocol.alpha == 1000 and protocol.K == 1001
        with pytest.raises(ProtocolError):
            AsynchronousUnison(ring_graph(1000), alpha=997)

    def test_validation_can_be_disabled(self):
        protocol = AsynchronousUnison(ring_graph(6), alpha=2, K=3, validate_parameters=False)
        assert protocol.alpha == 2

    def test_default_unison_parameters(self):
        alpha, K = default_unison_parameters(ring_graph(6))
        assert alpha == 6 and K == 7
        alpha_exact, K_exact = default_unison_parameters(path_graph(5), exact=True)
        assert alpha_exact == 1  # hole(tree) = 2 -> alpha >= max(1, 0)
        assert K_exact >= 2


class TestStates:
    def test_random_state_in_domain(self, rng):
        protocol = AsynchronousUnison(ring_graph(5))
        for _ in range(50):
            value = protocol.random_state(0, rng)
            assert protocol.clock.contains(value)

    def test_validate_state(self):
        protocol = AsynchronousUnison(ring_graph(5))
        with pytest.raises(ProtocolError):
            protocol.validate_state(0, protocol.K)
        with pytest.raises(ProtocolError):
            protocol.validate_state(0, "zero")

    def test_default_configuration_is_legitimate(self):
        protocol = AsynchronousUnison(ring_graph(5))
        assert protocol.is_legitimate(protocol.default_configuration())

    def test_legitimate_configuration_helper(self):
        protocol = AsynchronousUnison(ring_graph(5))
        gamma = protocol.legitimate_configuration(3)
        assert protocol.is_legitimate(gamma)
        with pytest.raises(ProtocolError):
            protocol.legitimate_configuration(-1)


class TestRules:
    def test_at_most_one_rule_enabled_per_vertex(self, rng):
        protocol = AsynchronousUnison(ring_graph(6))
        for _ in range(30):
            gamma = protocol.random_configuration(rng)
            for vertex in protocol.graph.vertices:
                assert len(protocol.enabled_rules(gamma, vertex)) <= 1

    def test_normal_action_increments_local_minimum(self):
        protocol = AsynchronousUnison(path_graph(3), alpha=3, K=6, validate_parameters=False)
        gamma = protocol.configuration({0: 2, 1: 2, 2: 3})
        # Vertex 2 is ahead of its neighbour, so it must wait; 0 and 1 may move.
        assert protocol.is_enabled(gamma, 0)
        assert protocol.is_enabled(gamma, 1)
        assert not protocol.is_enabled(gamma, 2)
        gamma2, records = protocol.apply(gamma, [0, 1])
        assert gamma2[0] == 3 and gamma2[1] == 3
        assert all(record.rule_name == "NA" for record in records)

    def test_reset_action_on_inconsistency(self):
        protocol = AsynchronousUnison(path_graph(2), alpha=2, K=5, validate_parameters=False)
        gamma = protocol.configuration({0: 1, 1: 4})
        # Drift 2 > 1: both vertices see an inconsistency; both hold
        # non-initial values, so both must reset.
        assert protocol.enabled_rules(gamma, 0)[0].name == "RA"
        assert protocol.enabled_rules(gamma, 1)[0].name == "RA"
        gamma2, _ = protocol.apply(gamma, [0, 1])
        assert gamma2[0] == -2 and gamma2[1] == -2

    def test_converge_action_climbs_the_tail(self):
        protocol = AsynchronousUnison(path_graph(2), alpha=3, K=5, validate_parameters=False)
        gamma = protocol.configuration({0: -3, 1: -1})
        # Vertex 0 holds the smallest initial value: only it may climb.
        assert protocol.enabled_rules(gamma, 0)[0].name == "CA"
        assert not protocol.is_enabled(gamma, 1)

    def test_zero_vertex_waits_for_negative_neighbors(self):
        protocol = AsynchronousUnison(path_graph(2), alpha=3, K=5, validate_parameters=False)
        gamma = protocol.configuration({0: 0, 1: -2})
        # Vertex 0 is at 0 (initial *and* correct) with a tail neighbour: it
        # can neither reset (it holds an initial value) nor converge (0 is
        # not a strict initial value) nor take a normal step (neighbour not
        # correct): it simply waits.
        assert not protocol.is_enabled(gamma, 0)
        assert protocol.is_enabled(gamma, 1)


class TestLegitimacy:
    def test_is_legitimate_requires_correct_values(self):
        protocol = AsynchronousUnison(ring_graph(4))
        gamma = protocol.configuration({0: -1, 1: 0, 2: 0, 3: 0})
        assert not protocol.is_legitimate(gamma)

    def test_is_legitimate_requires_small_drift(self):
        protocol = AsynchronousUnison(ring_graph(4))
        gamma = protocol.configuration({0: 0, 1: 2, 2: 0, 3: 0})
        assert not protocol.is_legitimate(gamma)

    def test_is_locally_correct(self):
        protocol = AsynchronousUnison(path_graph(3))
        gamma = protocol.configuration({0: 1, 1: 2, 2: 2})
        assert protocol.is_locally_correct(gamma, 1)
        gamma_bad = protocol.configuration({0: 1, 1: 3, 2: 2})
        assert not protocol.is_locally_correct(gamma_bad, 0)


class TestConvergence:
    @pytest.mark.parametrize(
        "graph",
        [ring_graph(5), path_graph(6), star_graph(5), complete_graph(4)],
        ids=["ring5", "path6", "star5", "complete4"],
    )
    def test_synchronous_convergence_from_random_configurations(self, graph, rng):
        protocol = AsynchronousUnison(graph)
        spec = AsynchronousUnisonSpec(protocol)
        horizon = 4 * (protocol.alpha + protocol.K)
        for _ in range(5):
            gamma = protocol.random_configuration(rng)
            execution = synchronous_execution(protocol, gamma, horizon)
            assert protocol.is_legitimate(execution.final)
            # Closure: once legitimate, the execution stays legitimate.
            first_legit = next(
                i
                for i in range(execution.steps + 1)
                if protocol.is_legitimate(execution.configuration(i))
            )
            for i in range(first_legit, execution.steps + 1):
                assert protocol.is_legitimate(execution.configuration(i))
            # Liveness: every clock keeps being incremented after convergence.
            assert spec.check_liveness(execution, protocol, first_legit)

    def test_closure_of_legitimate_configurations_under_any_selection(self, rng):
        protocol = AsynchronousUnison(ring_graph(5))
        gamma = protocol.legitimate_configuration(2)
        for _ in range(30):
            enabled = protocol.enabled_vertices(gamma)
            assert enabled
            selection = [v for v in enabled if rng.random() < 0.6] or [next(iter(enabled))]
            gamma, _ = protocol.apply(gamma, selection)
            assert protocol.is_legitimate(gamma)
