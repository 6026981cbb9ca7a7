"""The distributed-protocol abstraction.

A distributed protocol (Section 2) is, for each vertex, a set of guarded
rules.  Concrete protocols (unison, SSME, Dijkstra's token ring, the BFS
tree, the matching) subclass :class:`Protocol` and provide their rules, a
random-state sampler (used to draw arbitrary initial configurations, i.e.
post-transient-fault states), and optionally a privilege predicate for
mutual-exclusion-style specifications.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import ProtocolError
from ..graphs import Graph
from ..types import VertexId, VertexStateLike
from .rules import LocalView, Rule
from .state import Configuration

__all__ = ["Protocol", "PrivilegeAware", "ActivationRecord"]


class ActivationRecord:
    """What happened to one vertex during one action of the execution."""

    __slots__ = ("vertex", "rule_name", "old_state", "new_state")

    def __init__(
        self,
        vertex: VertexId,
        rule_name: str,
        old_state: VertexStateLike,
        new_state: VertexStateLike,
    ) -> None:
        self.vertex = vertex
        self.rule_name = rule_name
        self.old_state = old_state
        self.new_state = new_state

    @property
    def changed(self) -> bool:
        """Whether the activation actually modified the state."""
        return self.old_state != self.new_state

    def __repr__(self) -> str:
        return (
            f"ActivationRecord(vertex={self.vertex!r}, rule={self.rule_name!r}, "
            f"{self.old_state!r} -> {self.new_state!r})"
        )


#: Methods forming the enabledness chain; fast paths may replace them only
#: when a subclass overrides none of them.
_ENABLEDNESS_METHODS = ("is_enabled", "enabled_rules", "evaluate", "local_view")

#: Additional transition methods the incremental engine replaces.
_TRANSITION_METHODS = ("apply", "enabled_vertices", "prepared_step")


class Protocol(ABC):
    """Base class of every distributed protocol in the library.

    Subclasses must implement :meth:`rules` and :meth:`random_state`; they
    may override :meth:`validate_state` to reject malformed states and
    :meth:`choose_rule` if several rules can be enabled simultaneously at a
    vertex (none of the protocols of the paper needs that).
    """

    #: Human-readable protocol name, overridden by subclasses.
    name: str = "protocol"

    #: Subclasses may set this to True to declare that every rule action,
    #: evaluated on a view whose states are all legal, produces a legal
    #: state (``validate_state`` can never raise on an action's output).
    #: Engines may then skip the per-firing re-validation on their hot
    #: paths; external inputs (``configuration``/``validate_state`` callers)
    #: are still validated.  Leave False unless the closure property
    #: actually holds for every rule.
    actions_preserve_validity: bool = False

    #: Whether the protocol is *anonymous*: its rules read only local state
    #: and the neighbour state multiset, never vertex identities, so every
    #: graph automorphism maps executions to executions.  Required (together
    #: with the specification-side flag) for the exact checker's symmetry
    #: quotient (:class:`repro.verify.SymmetryReducer`).  Leave False unless
    #: the equivariance property actually holds for every rule — identity-
    #: dependent protocols (SSME's privileged values, BFS roots, matching
    #: identities) must keep it False even when a symmetric superclass sets
    #: it True.
    vertex_symmetric: bool = False

    def has_stock_enabledness(self) -> bool:
        """Whether this protocol keeps the base-class enabledness chain.

        Fast paths (the rules-hoisted :meth:`enabled_vertices` scan, the
        adversarial daemon's lookahead) may bypass
        :meth:`is_enabled`/:meth:`enabled_rules`/:meth:`evaluate`/
        :meth:`local_view` only when none of them is overridden.

        Only *class-level* overrides are detected; monkeypatching a method
        on an instance is not supported and will be bypassed by the fast
        paths — subclass instead.
        """
        cls = type(self)
        return all(
            getattr(cls, name) is getattr(Protocol, name)
            for name in _ENABLEDNESS_METHODS
        )

    def has_stock_transitions(self) -> bool:
        """Whether this protocol keeps the full base-class transition
        semantics (enabledness chain plus :meth:`apply`/
        :meth:`enabled_vertices`/:meth:`prepared_step`).

        The incremental simulation engine replaces all of these with cached
        equivalents, so it is only sound for protocols where this holds;
        :meth:`choose_rule`, :meth:`validate_state` and :meth:`rules` may be
        overridden freely — every engine calls them.
        """
        cls = type(self)
        return self.has_stock_enabledness() and all(
            getattr(cls, name) is getattr(Protocol, name)
            for name in _TRANSITION_METHODS
        )

    def __init__(self, graph: Graph) -> None:
        if graph.n == 0:
            raise ProtocolError("protocols require a non-empty communication graph")
        if not graph.is_connected():
            raise ProtocolError(f"{type(self).__name__} requires a connected communication graph")
        self._graph = graph

    # ------------------------------------------------------------------ #
    # Abstract interface
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> Graph:
        """The communication graph the protocol runs on."""
        return self._graph

    @abstractmethod
    def rules(self) -> Sequence[Rule]:
        """The guarded rules of the local protocol (same for every vertex)."""

    @abstractmethod
    def random_state(self, vertex: VertexId, rng: random.Random) -> VertexStateLike:
        """Sample an arbitrary (possibly corrupted) state for ``vertex``.

        Drawing every vertex's state through this method produces an
        arbitrary initial configuration, which is how transient faults are
        modelled in self-stabilization.
        """

    # ------------------------------------------------------------------ #
    # Optional hooks
    # ------------------------------------------------------------------ #
    def validate_state(self, vertex: VertexId, state: VertexStateLike) -> None:
        """Raise :class:`ProtocolError` if ``state`` is not a legal local
        state for ``vertex``.  The default accepts everything."""

    def choose_rule(self, enabled_rules: Sequence[Rule], view: LocalView) -> Rule:
        """Pick which enabled rule the vertex executes when activated.

        All protocols in this library have mutually exclusive guards, so the
        default (first enabled rule, in :meth:`rules` order) never has to
        arbitrate; it exists as an explicit extension point.
        """
        return enabled_rules[0]

    def default_state(self, vertex: VertexId) -> VertexStateLike:
        """A canonical 'clean' state, used by workload generators that want
        a well-defined non-random starting point.  Defaults to sampling with
        a fixed seed."""
        return self.random_state(vertex, random.Random(0))

    # ------------------------------------------------------------------ #
    # Finite-state capability (the exact model checker)
    # ------------------------------------------------------------------ #
    def vertex_state_space(self, vertex: VertexId) -> Optional[Sequence[VertexStateLike]]:
        """The finite, ordered set of legal local states of ``vertex``, or None.

        Protocols whose per-vertex state ranges over a small finite domain
        (the bounded clock of unison/SSME, Dijkstra's counter) may return
        that domain here to unlock the exact explicit-state model checker
        (:mod:`repro.verify`): the product of the per-vertex domains is the
        configuration space the checker enumerates and packs into integer
        keys.  The sequence must contain every state accepted by
        :meth:`validate_state` for ``vertex`` (so every rule action stays
        inside it), list each state exactly once, and use a deterministic
        order — the order defines the packing.  The default — None —
        declares the domain unknown/unbounded and keeps the protocol on the
        sampling-based analyses only.
        """
        return None

    # ------------------------------------------------------------------ #
    # Array-state capability (the vectorized engine backend)
    # ------------------------------------------------------------------ #
    def array_codec(self):
        """The protocol's :class:`~repro.core.vector.ArrayCodec`, or None.

        Protocols whose per-vertex state is a fixed small tuple of machine
        integers may return a codec here (together with
        :meth:`array_kernel`) to unlock the NumPy-vectorized engine backend
        for the dense-daemon regime.  The default — no capability — keeps
        the protocol on the dict-based engines; NumPy remains an optional
        dependency either way.
        """
        return None

    def array_kernel(self):
        """The protocol's :class:`~repro.core.vector.ArrayKernel`, or None.

        Must encode *exactly* the stock transition semantics over the
        :meth:`array_codec` representation (first-enabled-rule arbitration
        included); see :func:`repro.core.vector.protocol_supports_vector`
        for the full eligibility contract.  Implementations may assume
        NumPy is importable — the capability is only queried after that
        check — but must return None themselves when it is not, so direct
        callers degrade cleanly too.
        """
        return None

    # ------------------------------------------------------------------ #
    # Configurations
    # ------------------------------------------------------------------ #
    def configuration(self, assignment: Mapping[VertexId, VertexStateLike]) -> Configuration:
        """Build and validate a configuration from ``assignment``."""
        missing = [v for v in self._graph.vertices if v not in assignment]
        if missing:
            raise ProtocolError(f"assignment misses vertices: {missing!r}")
        extra = [v for v in assignment if v not in self._graph]
        if extra:
            raise ProtocolError(f"assignment has unknown vertices: {extra!r}")
        for vertex, state in assignment.items():
            self.validate_state(vertex, state)
        return Configuration(assignment)

    def random_configuration(self, rng: random.Random) -> Configuration:
        """An arbitrary configuration: every state drawn by :meth:`random_state`."""
        return Configuration(
            {v: self.random_state(v, rng) for v in self._graph.vertices}
        )

    def default_configuration(self) -> Configuration:
        """The configuration assigning :meth:`default_state` everywhere."""
        return Configuration({v: self.default_state(v) for v in self._graph.vertices})

    # ------------------------------------------------------------------ #
    # Enabledness and transitions
    # ------------------------------------------------------------------ #
    def local_view(self, configuration: Configuration, vertex: VertexId) -> LocalView:
        """The local view of ``vertex`` in ``configuration``."""
        return LocalView.from_configuration(configuration, vertex, self._graph)

    def evaluate(
        self,
        configuration: Configuration,
        vertex: VertexId,
        rules: Optional[Sequence[Rule]] = None,
    ) -> Tuple[LocalView, List[Rule]]:
        """Evaluate every guard of ``vertex`` once: ``(view, enabled_rules)``.

        ``rules`` lets callers hoist the :meth:`rules` lookup out of
        per-vertex loops; the returned view can be reused to fire one of the
        enabled rules, so guards are evaluated exactly once per vertex per
        step (see :meth:`prepared_step` / :meth:`apply`).
        """
        view = self.local_view(configuration, vertex)
        if rules is None:
            rules = self.rules()
        return view, [rule for rule in rules if rule.is_enabled(view)]

    def enabled_rules(self, configuration: Configuration, vertex: VertexId) -> List[Rule]:
        """The rules of ``vertex`` whose guard holds in ``configuration``."""
        return self.evaluate(configuration, vertex)[1]

    def is_enabled(self, configuration: Configuration, vertex: VertexId) -> bool:
        """Whether ``vertex`` is enabled in ``configuration``."""
        return bool(self.enabled_rules(configuration, vertex))

    def enabled_vertices(self, configuration: Configuration) -> FrozenSet[VertexId]:
        """The set of enabled vertices in ``configuration``."""
        if self.has_stock_enabledness():
            # Fast path: hoist the rules lookup and build one view per
            # vertex instead of re-resolving both per vertex per rule.
            rules = self.rules()
            graph = self._graph
            enabled = []
            for v in graph.vertices:
                view = LocalView.from_configuration(configuration, v, graph)
                if any(rule.is_enabled(view) for rule in rules):
                    enabled.append(v)
            return frozenset(enabled)
        # A subclass customized the enabledness chain — honour it.
        return frozenset(
            v for v in self._graph.vertices if self.is_enabled(configuration, v)
        )

    def prepared_step(
        self, configuration: Configuration
    ) -> Tuple[FrozenSet[VertexId], Dict[VertexId, Tuple[LocalView, List[Rule]]]]:
        """Evaluate every vertex once: ``(enabled set, prepared evaluations)``.

        ``prepared`` maps each *enabled* vertex to the ``(view, enabled
        rules)`` pair produced by :meth:`evaluate`; passing it to
        :meth:`apply` reuses those evaluations instead of re-running every
        guard, so each step evaluates guards once per vertex.
        """
        rules = self.rules()
        prepared: Dict[VertexId, Tuple[LocalView, List[Rule]]] = {}
        for vertex in self._graph.vertices:
            view, enabled_rules = self.evaluate(configuration, vertex, rules)
            if enabled_rules:
                prepared[vertex] = (view, enabled_rules)
        return frozenset(prepared), prepared

    def apply(
        self,
        configuration: Configuration,
        selected: Iterable[VertexId],
        prepared: Optional[Dict[VertexId, Tuple[LocalView, List[Rule]]]] = None,
    ) -> Tuple[Configuration, List[ActivationRecord]]:
        """Execute one action: activate every vertex in ``selected``.

        Each selected vertex evaluates its rules against the *current*
        configuration (atomic snapshot of its neighbours) and rewrites its
        own state; all rewrites are applied simultaneously, which is exactly
        the semantics of the state model under an arbitrary daemon.

        Selected vertices that turn out to be disabled are ignored (the
        daemon abstraction already prevents this; tolerating it makes the
        method convenient for exploratory use).

        ``prepared`` (from :meth:`prepared_step` on the *same*
        configuration) short-circuits guard evaluation: selected vertices
        absent from it are treated as disabled, present ones reuse the
        stored view and enabled rules.
        """
        changes: Dict[VertexId, VertexStateLike] = {}
        records: List[ActivationRecord] = []
        rules: Optional[Sequence[Rule]] = None
        for vertex in selected:
            if vertex not in self._graph:
                raise ProtocolError(f"cannot activate unknown vertex {vertex!r}")
            if prepared is not None:
                entry = prepared.get(vertex)
                if entry is None:
                    continue
                view, enabled = entry
            else:
                if rules is None:
                    rules = self.rules()
                view, enabled = self.evaluate(configuration, vertex, rules)
                if not enabled:
                    continue
            rule = self.choose_rule(enabled, view)
            new_state = rule.apply(view)
            self.validate_state(vertex, new_state)
            changes[vertex] = new_state
            records.append(
                ActivationRecord(
                    vertex=vertex,
                    rule_name=rule.name,
                    old_state=configuration[vertex],
                    new_state=new_state,
                )
            )
        if not changes:
            return configuration, records
        return configuration.updated(changes), records

    def is_terminal(self, configuration: Configuration) -> bool:
        """Whether no vertex is enabled in ``configuration``."""
        return not self.enabled_vertices(configuration)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(graph={self._graph!r})"


class PrivilegeAware(ABC):
    """Mixin for protocols that define a ``privileged`` predicate.

    Mutual-exclusion-style specifications (``spec_ME``) are expressed in
    terms of this predicate (Section 4): a vertex that is privileged in a
    configuration and activated during the next action executes its critical
    section during that action.

    Like a guard, ``is_privileged(configuration, v)`` may read only the
    states of ``v`` and its neighbours; ``spec_ME``'s incremental safety
    monitoring relies on it.
    """

    @abstractmethod
    def is_privileged(self, configuration: Configuration, vertex: VertexId) -> bool:
        """Whether ``vertex`` is privileged in ``configuration``."""

    def privileged_vertices(self, configuration: Configuration) -> FrozenSet[VertexId]:
        """All privileged vertices of ``configuration``."""
        graph: Graph = getattr(self, "graph")
        return frozenset(
            v for v in graph.vertices if self.is_privileged(configuration, v)
        )

    def privileged_rows(self, rows, order):
        """Optional batch capability: the ``(m, n)`` boolean privilege matrix
        of an ``(m, n, width)`` array of codec-encoded configurations, with
        columns aligned to the vertex tuple ``order``.

        Must agree entry-for-entry with :meth:`is_privileged` on the decoded
        configurations — the exact checker's batched safety evaluation
        (``spec_ME``) builds on it.  The base implementation returns
        ``None``, meaning "unsupported": callers then decode and evaluate
        per configuration.
        """
        del rows, order
        return None
