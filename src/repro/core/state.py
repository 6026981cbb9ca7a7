"""Configurations: immutable global states of the distributed system.

A *configuration* assigns a local state to every vertex of the communication
graph (Section 2 of the paper).  Configurations are immutable and hashable
(provided vertex states are hashable), which lets the simulator detect
terminal configurations, cache enabled sets, and compare configurations for
the lower-bound splicing construction.

The incremental simulation engine additionally uses two mutable-world
companions defined here:

* :class:`ConfigurationBuffer` — a mutable vertex->state mapping updated in
  place in O(Δ) per action, from which immutable :class:`Configuration`
  snapshots are materialized only when the execution trace records them;
* :class:`ConfigurationView` — a read-only *live* window onto a buffer,
  handed to daemons and ``stop_when`` predicates in light-trace mode so no
  snapshot has to be materialized for steps the trace does not keep.  A
  view also tells which vertices its buffer changed since an earlier
  :meth:`~ConfigurationView.stamp`, which lets streaming observers
  (:class:`~repro.core.SafetyMonitor`) re-check only what moved.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterable, Iterator, Mapping, Optional, Tuple

from ..exceptions import SimulationError
from ..types import VertexId, VertexStateLike

__all__ = ["Configuration", "ConfigurationBuffer", "ConfigurationView"]


class Configuration(Mapping[VertexId, VertexStateLike]):
    """An immutable mapping from vertices to their local states.

    Examples
    --------
    >>> gamma = Configuration({0: 1, 1: 5})
    >>> gamma[0]
    1
    >>> gamma.updated({0: 2})[0]
    2
    """

    __slots__ = ("_states", "_hash")

    def __init__(self, states: Mapping[VertexId, VertexStateLike]):
        self._states: Dict[VertexId, VertexStateLike] = dict(states)
        self._hash = None

    @classmethod
    def _from_trusted_dict(cls, states: Dict[VertexId, VertexStateLike]) -> "Configuration":
        """Wrap ``states`` without copying.

        The caller transfers ownership of the dict and must never mutate it
        afterwards; the simulation engine uses this to materialize snapshots
        from its :class:`ConfigurationBuffer` with a single dict copy.
        """
        configuration = cls.__new__(cls)
        configuration._states = states
        configuration._hash = None
        return configuration

    # -- Mapping interface -------------------------------------------------
    def __getitem__(self, vertex: VertexId) -> VertexStateLike:
        try:
            return self._states[vertex]
        except KeyError:
            raise SimulationError(f"configuration has no state for vertex {vertex!r}") from None

    def __iter__(self) -> Iterator[VertexId]:
        return iter(self._states)

    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, vertex: object) -> bool:
        return vertex in self._states

    # -- Value semantics ----------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, Configuration):
            return self._states == other._states
        if isinstance(other, Mapping):
            return self._states == dict(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._states.items()))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{v!r}: {s!r}" for v, s in sorted(self._states.items(), key=lambda kv: repr(kv[0])))
        return f"Configuration({{{inner}}})"

    # -- Functional updates ---------------------------------------------------
    def updated(self, changes: Mapping[VertexId, VertexStateLike]) -> "Configuration":
        """A new configuration with the states of ``changes`` replaced.

        Every key of ``changes`` must already be a vertex of the
        configuration (a configuration never gains or loses vertices).
        """
        for vertex in changes:
            if vertex not in self._states:
                raise SimulationError(f"cannot update unknown vertex {vertex!r}")
        merged = dict(self._states)
        merged.update(changes)
        return Configuration._from_trusted_dict(merged)

    def restrict(self, vertices: Iterable[VertexId]) -> "Configuration":
        """The restriction of the configuration to ``vertices``.

        This is the ``k``-local state of Definition 7 once ``vertices`` is a
        ball of the communication graph.
        """
        vertices = list(vertices)
        missing = [v for v in vertices if v not in self._states]
        if missing:
            raise SimulationError(f"unknown vertices in restriction: {missing!r}")
        return Configuration({v: self._states[v] for v in vertices})

    def differing_vertices(self, other: "Configuration") -> Tuple[VertexId, ...]:
        """Vertices whose states differ between ``self`` and ``other``."""
        if set(self._states) != set(other._states):
            raise SimulationError("configurations are over different vertex sets")
        return tuple(
            v for v in self._states if self._states[v] != other._states[v]
        )

    def as_dict(self) -> Dict[VertexId, VertexStateLike]:
        """A mutable copy of the underlying mapping."""
        return dict(self._states)


class ConfigurationBuffer(Mapping[VertexId, VertexStateLike]):
    """A mutable vertex->state mapping used internally by the engine.

    Unlike :class:`Configuration`, updates happen in place (O(Δ) per action
    for Δ changed vertices); immutable snapshots are materialized on demand
    with :meth:`snapshot`, each costing one dict copy.  The buffer counts
    its updates and keeps the vertex set of the latest one, which is what
    :meth:`ConfigurationView.changed_since` reports.
    """

    __slots__ = ("_states", "_version", "_last_changed")

    def __init__(self, initial: Mapping[VertexId, VertexStateLike]) -> None:
        self._states: Dict[VertexId, VertexStateLike] = dict(initial)
        self._version = 0
        self._last_changed: Collection[VertexId] = ()

    # -- Mapping interface -------------------------------------------------
    def __getitem__(self, vertex: VertexId) -> VertexStateLike:
        try:
            return self._states[vertex]
        except KeyError:
            raise SimulationError(f"buffer has no state for vertex {vertex!r}") from None

    def __iter__(self) -> Iterator[VertexId]:
        return iter(self._states)

    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, vertex: object) -> bool:
        return vertex in self._states

    # -- Mutation ----------------------------------------------------------
    def apply_changes(self, changes: Mapping[VertexId, VertexStateLike]) -> None:
        """Overwrite the states of ``changes`` in place (keys must exist)."""
        for vertex in changes:
            if vertex not in self._states:
                raise SimulationError(f"cannot update unknown vertex {vertex!r}")
        self._states.update(changes)
        self._version += 1
        self._last_changed = tuple(changes)

    def apply_trusted_changes(self, changes: Mapping[VertexId, VertexStateLike]) -> None:
        """Like :meth:`apply_changes` without the per-key membership check.

        For callers that construct ``changes`` from the buffer's own vertex
        set (the simulation engine's firing loop does: every key comes from
        a daemon selection validated against the enabled set); the check is
        pure per-action overhead there, and it dominates the batch fast
        path where Δ is the whole graph.  ``changes`` itself is kept as the
        latest update's vertex set, so the caller must not mutate it
        afterwards (the engine builds a fresh dict per action).
        """
        self._states.update(changes)
        self._version += 1
        self._last_changed = changes

    # -- Export ------------------------------------------------------------
    def snapshot(self) -> Configuration:
        """An immutable :class:`Configuration` copy of the current states."""
        return Configuration._from_trusted_dict(dict(self._states))

    def raw_states(self) -> Dict[VertexId, VertexStateLike]:
        """The live underlying dict (engine internals only; do not leak)."""
        return self._states

    def view(self) -> "ConfigurationView":
        """A read-only live view of this buffer."""
        return ConfigurationView(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ConfigurationBuffer(n={len(self._states)})"


class ConfigurationView(Mapping[VertexId, VertexStateLike]):
    """A read-only *live* view of a :class:`ConfigurationBuffer`.

    The engine passes views to daemons and ``stop_when`` predicates in
    light-trace mode: they behave like the current configuration (including
    the functional :meth:`updated`, which adversarial daemons use to look
    ahead) without materializing a snapshot.  The view tracks the buffer —
    callers must not retain it across steps; call :meth:`snapshot` to pin
    the current states.
    """

    __slots__ = ("_buffer",)

    def __init__(self, buffer: ConfigurationBuffer) -> None:
        self._buffer = buffer

    def __getitem__(self, vertex: VertexId) -> VertexStateLike:
        return self._buffer[vertex]

    def __iter__(self) -> Iterator[VertexId]:
        return iter(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)

    def __contains__(self, vertex: object) -> bool:
        return vertex in self._buffer

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Mapping):
            return dict(self) == dict(other)
        return NotImplemented

    # Live views are deliberately unhashable: their contents change under
    # the caller's feet, so hashing one (e.g. for membership in a seen-set)
    # would be a correctness trap.  Pin the states with snapshot() first.
    __hash__ = None  # type: ignore[assignment]

    def updated(self, changes: Mapping[VertexId, VertexStateLike]) -> Configuration:
        """An immutable configuration: current states with ``changes`` applied."""
        states = dict(self._buffer.raw_states())
        for vertex in changes:
            if vertex not in states:
                raise SimulationError(f"cannot update unknown vertex {vertex!r}")
        states.update(changes)
        return Configuration._from_trusted_dict(states)

    def restrict(self, vertices: Iterable[VertexId]) -> Configuration:
        """The (immutable) restriction of the current states to ``vertices``."""
        return self.snapshot().restrict(vertices)

    def differing_vertices(self, other: "Configuration") -> Tuple[VertexId, ...]:
        """Vertices whose current states differ from ``other``'s."""
        return self.snapshot().differing_vertices(other)

    def snapshot(self) -> Configuration:
        """Pin the current states as an immutable :class:`Configuration`."""
        return self._buffer.snapshot()

    # -- Change tracking ----------------------------------------------------
    def stamp(self) -> Tuple[ConfigurationBuffer, int]:
        """An opaque marker of the current states, for :meth:`changed_since`.

        Unlike the view itself, a stamp may be kept across steps: it pins
        no states, only the buffer's identity and update count.
        """
        buffer = self._buffer
        return buffer, buffer._version

    def changed_since(
        self, stamp: Tuple[ConfigurationBuffer, int]
    ) -> Optional[Collection[VertexId]]:
        """The vertices whose states may differ from when ``stamp`` was taken.

        Empty when the buffer has not been updated since, the vertex set of
        its latest update when exactly one update happened in between (one
        engine action), and ``None`` when the view cannot tell — the stamp
        comes from another buffer (another run or run segment) or is more
        than one update old.  Callers treat ``None`` as "rescan everything".
        """
        buffer, version = stamp
        if buffer is not self._buffer:
            return None
        current = buffer._version
        if current == version:
            return ()
        if current == version + 1:
            return buffer._last_changed
        return None

    def as_dict(self) -> Dict[VertexId, VertexStateLike]:
        """A mutable copy of the current states."""
        return dict(self._buffer.raw_states())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ConfigurationView(n={len(self._buffer)})"
