"""The mutual exclusion specification ``spec_ME`` (Specification 1).

An execution satisfies ``spec_ME`` when at most one vertex is privileged in
every configuration (safety) and every vertex executes its critical section
infinitely often (liveness).  A vertex *executes its critical section*
during an action when it is privileged in the source configuration and
activated during that action.

The specification is generic over any protocol implementing the
:class:`~repro.core.protocol.PrivilegeAware` mixin (SSME, Dijkstra's token
ring).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..core import Execution, PrivilegeAware, Protocol, Specification
from ..core.state import Configuration
from ..exceptions import SpecificationError
from ..types import VertexId

__all__ = ["MutualExclusionSpec", "critical_section_events", "critical_section_counts"]


def critical_section_events(
    execution: Execution, protocol: Protocol
) -> List[Tuple[int, VertexId]]:
    """All critical-section executions of a trace.

    Returns pairs ``(action_index, vertex)``: the vertex was privileged in
    the source configuration of the action and was activated during it.
    """
    if not isinstance(protocol, PrivilegeAware):
        raise SpecificationError("protocol does not define a privilege predicate")
    events: List[Tuple[int, VertexId]] = []
    # Sequential walk: per-index configuration access would pin every
    # reconstructed configuration of a light trace (see docs/engine.md).
    configurations = execution.iter_configurations()
    for index in range(execution.steps):
        configuration = next(configurations)
        selection = execution.selection(index)
        for vertex in selection:
            if protocol.is_privileged(configuration, vertex):
                events.append((index, vertex))
    return events


def critical_section_counts(
    execution: Execution, protocol: Protocol, start: int = 0
) -> Dict[VertexId, int]:
    """How many times each vertex executed its critical section from action
    ``start`` onwards."""
    counts: Dict[VertexId, int] = {v: 0 for v in protocol.graph.vertices}
    for index, vertex in critical_section_events(execution, protocol):
        if index >= start:
            counts[vertex] += 1
    return counts


class MutualExclusionSpec(Specification):
    """``spec_ME`` for a privilege-aware protocol."""

    name = "spec_ME"

    def __init__(self, protocol: Protocol) -> None:
        if not isinstance(protocol, PrivilegeAware):
            raise SpecificationError(
                "MutualExclusionSpec requires a protocol with a privilege predicate"
            )
        self._protocol = protocol
        # Vectorized safety fast path: PrivilegeAware protocols with an
        # array-state privilege counter (SSME, Dijkstra) let is_safe avoid
        # the O(n) per-vertex scan when handed a live ArrayStateView.
        self._count_array = getattr(protocol, "privileged_count_array", None)

    # ------------------------------------------------------------------ #
    # Safety: at most one privileged vertex per configuration
    # ------------------------------------------------------------------ #
    def is_safe(self, configuration: Configuration, protocol: Protocol) -> bool:
        del protocol
        if self._count_array is not None and hasattr(configuration, "raw_states"):
            # Live ArrayStateView from an array backend: one vectorized
            # count instead of n mapping lookups per observed step.
            return self._count_array(configuration) <= 1
        privileged = 0
        for vertex in self._protocol.graph.vertices:
            if self._protocol.is_privileged(configuration, vertex):
                privileged += 1
                if privileged > 1:
                    return False
        return True

    def local_safety(self):
        """At most one privileged vertex: ``bad`` is the protocol's
        privilege predicate, which reads the vertex's closed neighbourhood
        only (see :class:`~repro.core.PrivilegeAware`)."""
        return self._protocol.is_privileged, 1

    def privileged_count(self, configuration: Configuration) -> int:
        """Number of privileged vertices (0 or 1 in safe configurations)."""
        return len(self._protocol.privileged_vertices(configuration))

    def safe_rows(self, rows, order, protocol: Protocol):
        """Batch safety for the exact checker: at most one privileged vertex
        per row, through the protocol's ``privileged_rows`` capability
        (``None`` — per-configuration fallback — when it lacks one)."""
        del protocol
        privileged = self._protocol.privileged_rows(rows, order)
        if privileged is None:
            return None
        return privileged.sum(axis=1) <= 1

    # ------------------------------------------------------------------ #
    # Liveness: every vertex executes its critical section in the window
    # ------------------------------------------------------------------ #
    def check_liveness(
        self, execution: Execution, protocol: Protocol, start: int = 0
    ) -> bool:
        del protocol
        executed: Set[VertexId] = set()
        for index, vertex in critical_section_events(execution, self._protocol):
            if index >= start:
                executed.add(vertex)
        return executed >= set(self._protocol.graph.vertices)
