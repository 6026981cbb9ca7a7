"""The asynchronous unison specification ``spec_AU`` (Specification 2).

An execution satisfies ``spec_AU`` when every configuration belongs to the
legitimate set ``Γ₁`` (safety) and the clock value of every vertex is
incremented infinitely often (liveness).  On finite traces the liveness
condition is approximated by "incremented at least once in the inspected
window", which is the strongest checkable statement.
"""

from __future__ import annotations

from typing import Optional

from ..core import Execution, Protocol, Specification
from ..core.state import Configuration
from ..exceptions import SpecificationError
from .protocol import AsynchronousUnison

__all__ = ["AsynchronousUnisonSpec"]


class AsynchronousUnisonSpec(Specification):
    """``spec_AU`` for a given :class:`AsynchronousUnison` instance."""

    name = "spec_AU"

    #: Γ₁ membership (correct registers, drift ≤ 1 over edges) only reads
    #: register values over the edge set, which automorphisms preserve.
    vertex_symmetric = True

    def __init__(self, protocol: AsynchronousUnison) -> None:
        if not isinstance(protocol, AsynchronousUnison):
            raise SpecificationError(
                "AsynchronousUnisonSpec requires an AsynchronousUnison protocol"
            )
        self._protocol = protocol

    # ------------------------------------------------------------------ #
    # Safety: membership in Γ₁
    # ------------------------------------------------------------------ #
    def is_safe(self, configuration: Configuration, protocol: Protocol) -> bool:
        del protocol  # the spec is bound to its own protocol instance
        return self._protocol.is_legitimate(configuration)

    def local_safety(self):
        """Γ₁ as a zero budget of bad vertices: a vertex is bad when its
        register is incorrect or an incident edge drifts by more than 1."""
        return self._locally_illegitimate, 0

    def _locally_illegitimate(self, configuration: Configuration, vertex) -> bool:
        # Correct values are [0, K); for them ``distance > 1`` is
        # ``1 < (rv - ru) % K < K - 1`` (the guards' inlined arithmetic).
        K = self._protocol.K
        rv = configuration[vertex]
        if not 0 <= rv < K:
            return True
        for neighbor in self._protocol.graph.neighbors(vertex):
            ru = configuration[neighbor]
            if not 0 <= ru < K or 1 < (rv - ru) % K < K - 1:
                return True
        return False

    def safe_rows(self, rows, order, protocol: Protocol):
        """Batch Γ₁ membership for the exact checker: every register correct
        (``>= 0``; the cherry domain is bounded above by ``K``) and every
        edge's cyclic drift at most 1."""
        del protocol
        import numpy as np

        bound = self._protocol
        position = {v: i for i, v in enumerate(order)}
        sources = []
        targets = []
        for u, v in bound.graph.edges:
            sources.append(position[u])
            targets.append(position[v])
        src = np.asarray(sources, dtype=np.int64)
        dst = np.asarray(targets, dtype=np.int64)
        values = rows[:, :, 0]
        correct = (values >= 0).all(axis=1)
        K = bound.clock.K
        diff = (values[:, src] - values[:, dst]) % K
        drift_ok = (np.minimum(diff, K - diff) <= 1).all(axis=1)
        return correct & drift_ok

    # ------------------------------------------------------------------ #
    # Liveness: every clock incremented in the window
    # ------------------------------------------------------------------ #
    def check_liveness(
        self, execution: Execution, protocol: Protocol, start: int = 0
    ) -> bool:
        del protocol
        incremented = set()
        clock = self._protocol.clock
        for index in range(start, execution.steps):
            for record in execution.activation_records(index):
                if record.rule_name in (
                    AsynchronousUnison.RULE_NORMAL,
                    AsynchronousUnison.RULE_CONVERGE,
                ) and record.new_state == clock.phi(record.old_state):
                    incremented.add(record.vertex)
        return incremented >= set(self._protocol.graph.vertices)

    def drift_bound_violations(self, configuration: Configuration) -> int:
        """Number of edges whose endpoints drift by more than 1 — a simple
        progress metric used by the examples."""
        clock = self._protocol.clock
        return sum(
            1
            for u, v in self._protocol.graph.edges
            if clock.distance(configuration[u], configuration[v]) > 1
        )
