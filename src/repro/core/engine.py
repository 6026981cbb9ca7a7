"""The incremental simulation engine.

The reference semantics of the model (see :class:`~repro.core.Simulator`)
recompute the enabled set of *every* vertex at *every* step, building a
fresh :class:`LocalView` per vertex and evaluating every guard twice (once
for enabledness, once inside ``Protocol.apply``).  That is O(n·rules·deg)
work per action even when the daemon activates a single vertex.

This engine exploits the locality of the state model instead: a guard of
vertex ``v`` only reads the states of ``v`` and its neighbours, so after an
action that changed the states of a set ``C`` of vertices, only the vertices
of ``C ∪ neig(C)`` can change enabledness.  The engine therefore maintains

* a mutable :class:`~repro.core.ConfigurationBuffer` updated in place
  (O(Δ) per action),
* one **persistent** :class:`LocalView` per vertex, alive for the whole
  run and patched *in place* after each action — ``view.state`` for every
  changed vertex, plus the single ``neighbor_states`` entry each changed
  vertex occupies in its neighbours' views.  That is O(Σ deg(C)) dict-entry
  writes per action instead of rebuilding a fresh view dict per dirty
  vertex per step,
* a cache of the enabled rules of every enabled vertex, refreshed for the
  dirty vertices after each action,

and shares each cached view between the enabledness check and the rule
firing, so every guard is evaluated exactly once per vertex per dirty
event.  The guard *refresh* switches on dirty-set density: below
``_BATCH_DENSITY`` the engine walks the explicit dirty set ``C ∪ neig(C)``
(the ``cd`` regime); at or above it — the synchronous-daemon regime, where
the dirty set covers essentially the whole graph — it skips the dirty-set
bookkeeping altogether and rescans every vertex against its (already
patched) persistent view, which is cheaper than materializing a set of
nearly all vertices first.  Immutable :class:`~repro.core.Configuration`
snapshots are materialized only where the :class:`~repro.core.Execution`
trace records them; in light-trace mode (``trace="light"``) no snapshot is
materialized at all and configurations are reconstructed on demand from the
activation records.

The produced executions are equivalent to the reference engine's (same
configurations, selections, enabled sets and activation records — record
*order* within one action may differ, as it follows set iteration order).
``tests/test_engine_equivalence.py`` asserts this property across
protocols, daemons, graphs and seeds.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..exceptions import SimulationError
from ..types import VertexId, VertexStateLike
from .daemons import Daemon, EnabledRanks
from .execution import Execution, LazyActivations
from .protocol import ActivationRecord, Protocol
from .rules import LocalView, Rule
from .state import Configuration, ConfigurationBuffer

__all__ = ["ENGINES", "IncrementalEngine", "resolve_backend"]

#: Engine selection values accepted by :class:`~repro.core.Simulator`.
ENGINES = (
    "auto",
    "adaptive",
    "incremental",
    "vector",
    "vector-superstep",
    "reference",
)

#: The resolved engines :meth:`IncrementalEngine.run` executes.
_RUN_BACKENDS = ("incremental", "vector", "vector-superstep")

#: Automatic-backend policy (``engine="auto"``): a daemon whose advisory
#: ``density`` is at least ``_DENSE`` runs on the array kernel at any size;
#: one of at least ``_MID_DENSITY`` does so on graphs of at least
#: ``_MID_DENSITY_MIN_N`` vertices, where the vectorized sparse guard
#: refresh beats the dict-backed dirty-set paths.  Purely advisory — every
#: backend is correct for every daemon.
_DENSE = 0.5
_MID_DENSITY = 0.2
_MID_DENSITY_MIN_N = 512


def resolve_backend(
    requested: str, daemon: Daemon, incremental: "IncrementalEngine"
) -> str:
    """The backend that serves ``requested`` for ``daemon`` on
    ``incremental``'s protocol — the one backend decision of the library.

    ``requested`` is one of :data:`ENGINES`; the result is the resolved
    engine: ``"reference"``, ``"adaptive"``, ``"incremental"``,
    ``"vector"`` or ``"vector-superstep"``.  The :class:`~repro.core.Simulator`
    resolves its ``engine=`` argument here, :meth:`IncrementalEngine.run`
    its ``backend``, and the adaptive engine its promotion target.  An
    unknown name raises :class:`SimulationError`; otherwise the decision
    degrades, never errors:

    * a protocol without the stock transition semantics
      (:meth:`Protocol.has_stock_transitions`) runs on the reference engine;
    * ``"auto"`` tries the array kernel only for a daemon whose advisory
      ``density`` is dense (``>= 0.5``), or mid-density (``>= 0.2``) on a
      graph of at least 512 vertices, and keeps the dirty-set engine
      otherwise;
    * an array request without the capability
      (:func:`~repro.core.vector.protocol_supports_vector`) runs on the
      dirty-set engine;
    * the array kernel takes the superstep loop under a synchronous daemon,
      except on an explicit single-step ``"vector"`` request (benchmarks and
      equivalence tests compare the two paths); a superstep request under
      any other daemon degrades to single-step ``"vector"``.
    """
    if requested not in ENGINES:
        raise SimulationError(
            f"unknown engine {requested!r}; known: {', '.join(ENGINES)}"
        )
    if not incremental._protocol.has_stock_transitions():
        return "reference"
    if requested in ("reference", "adaptive", "incremental"):
        return requested
    if requested == "auto":
        density = daemon.density
        if density is None or density < _MID_DENSITY or (
            density < _DENSE and len(incremental._vertices) < _MID_DENSITY_MIN_N
        ):
            return "incremental"
    if incremental._vector_engine() is None:
        return "incremental"
    if daemon.synchronous and requested != "vector":
        return "vector-superstep"
    return "vector"


class IncrementalEngine:
    """Dirty-set incremental runner for one protocol instance.

    The engine is stateless between runs (all per-run state lives in local
    variables), so one instance can be cached per simulator and reused.

    Backend selection: the dict-based sparse/batch paths below are always
    available; protocols that declare an array codec/kernel (see
    :mod:`repro.core.vector`) additionally unlock a NumPy-vectorized
    **array-state backend** that replaces the whole per-step scan of the
    dense (batch) regime with a handful of array operations.  ``run``'s
    ``backend`` picks between them through :func:`resolve_backend`, which
    degrades to the dict paths when the capability is missing, so NumPy
    stays an optional dependency.
    """

    __slots__ = (
        "_protocol",
        "_vertices",
        "_neighbors",
        "_vector",
        "_rank_order",
        "last_run_backend",
    )

    #: Refresh-mode switch: when ``len(changes) * _BATCH_DENSITY >= n`` the
    #: dirty set ``C ∪ neig(C)`` covers (essentially) the whole graph, so the
    #: guard refresh rescans every vertex instead of materializing the set.
    _BATCH_DENSITY = 4

    def __init__(self, protocol: Protocol) -> None:
        self._protocol = protocol
        graph = protocol.graph
        # The graph is immutable, so the neighbourhood map can be cached for
        # the engine's lifetime; rules() is re-queried per run because the
        # protocol contract allows it to be overridden (e.g. parameterized).
        self._vertices: Tuple[VertexId, ...] = tuple(graph.vertices)
        self._neighbors: Dict[VertexId, Tuple[VertexId, ...]] = {
            v: tuple(graph.neighbors(v)) for v in self._vertices
        }
        self._vector = None
        # The daemons' repr-sorted vertex order (EnabledRanks ranks),
        # sorted on the first dict run.
        self._rank_order: Optional[Tuple[VertexId, ...]] = None
        #: Which backend the most recent ``run`` used ("vector-superstep",
        #: "vector" or "dict"); None before the first run.  Diagnostic only.
        self.last_run_backend: Optional[str] = None

    def _vector_engine(self):
        """The cached array-state backend, or None when unavailable.

        Probed lazily (and re-probed while unavailable, so an environment
        that gains NumPy mid-process is picked up; a cached engine is never
        dropped — the capability cannot un-declare itself).  The probed
        codec/kernel objects are handed straight to the engine, so the
        capability is instantiated exactly once.
        """
        if self._vector is None:
            from .vector import VectorEngine, protocol_supports_vector

            capability = protocol_supports_vector(self._protocol)
            if capability is not None:
                self._vector = VectorEngine(self._protocol, *capability)
        return self._vector

    def run(
        self,
        daemon: Daemon,
        rng: random.Random,
        initial: Configuration,
        max_steps: int,
        stop_when: Optional[Callable[[Configuration, int], bool]] = None,
        trace: str = "full",
        backend: str = "incremental",
    ) -> Execution:
        """Run up to ``max_steps`` actions from ``initial``.

        Mirrors the reference engine's ``Simulator.run`` contract exactly;
        with ``trace="light"`` the returned execution reconstructs
        intermediate configurations on demand, and daemons/predicates are
        handed a live read-only view instead of per-step snapshots.

        Views are persistent for the whole run and patched *in place* after
        each action, so the guard/action hooks they are handed must treat
        them as read-only **and must not retain them across steps** — which
        the rule contract already requires (guards and actions are pure
        functions of the view); a hook mutating ``view.neighbor_states``
        would corrupt the cache, and one stashing a view would observe it
        silently change under later actions.

        ``backend`` is a resolved engine (see :func:`resolve_backend`): the
        dict-based sparse/batch paths (``"incremental"``), the per-step
        NumPy array-state kernel (``"vector"``) or the daemon-free
        synchronous kernel loop (``"vector-superstep"``, see
        :meth:`VectorEngine.run_supersteps`).  An initial configuration
        outside the codec's integer layout runs on the dict paths — never
        an error; :attr:`last_run_backend` reports what ran.
        """
        if trace not in {"full", "light"}:
            raise SimulationError(f"unknown trace mode {trace!r}")
        if backend not in _RUN_BACKENDS:
            raise SimulationError(f"unknown engine backend {backend!r}")
        backend = resolve_backend(backend, daemon, self)
        if backend == "reference":
            raise SimulationError(
                f"protocol {self._protocol.name!r} overrides the stock "
                "transition semantics; run it on the reference engine"
            )
        if backend != "incremental":
            vector = self._vector
            encoded = vector.encode_initial(initial)
            if encoded is not None:
                self.last_run_backend = backend
                run = vector.run if backend == "vector" else vector.run_supersteps
                return run(
                    daemon=daemon,
                    rng=rng,
                    initial=initial,
                    max_steps=max_steps,
                    stop_when=stop_when,
                    trace=trace,
                    initial_array=encoded,
                )
        self.last_run_backend = "dict"
        if set(initial) != set(self._vertices):
            raise SimulationError(
                "initial configuration is not over the protocol's vertex set"
            )
        protocol = self._protocol
        graph = protocol.graph
        rules = tuple(protocol.rules())
        neighbors = self._neighbors
        vertices = self._vertices
        n_vertices = len(vertices)
        batch_threshold = max(1, n_vertices // self._BATCH_DENSITY)
        # The stock choose_rule (guaranteed by resolve_backend) fires the
        # FIRST enabled rule, so the engine searches for it with a
        # short-circuit: a vertex whose first guard holds never evaluates
        # the remaining ones.
        # Per-firing re-validation is skipped when it cannot raise: the
        # stock validate_state accepts everything, and protocols declaring
        # ``actions_preserve_validity`` guarantee their actions are closed
        # over the legal states.
        validate_state: Optional[Callable[[VertexId, VertexStateLike], None]] = (
            None
            if (
                protocol.actions_preserve_validity
                or type(protocol).validate_state is Protocol.validate_state
            )
            else protocol.validate_state
        )

        buffer = ConfigurationBuffer(initial)
        states = buffer.raw_states()

        # Guard and action callables, hoisted once.  Rules keeping the stock
        # ``is_enabled``/``apply`` are probed/fired through their raw
        # guard/action (one call frame less per evaluation); subclasses
        # overriding either keep their semantics through the bound methods.
        # ``plans`` pairs each guard with the pre-built ``(rule, fire)``
        # tuple the firing loop consumes, so the per-step scan allocates
        # nothing.
        plans: List[Tuple[Callable[[LocalView], object], Tuple[str, Callable]]] = []
        for rule in rules:
            check = (
                rule.guard
                if type(rule).is_enabled is Rule.is_enabled
                else rule.is_enabled
            )
            fire = rule.action if type(rule).apply is Rule.apply else rule.apply
            plans.append((check, (rule.name, fire)))

        # One persistent view per vertex (patched in place after actions)
        # plus the cache of what each enabled vertex will fire, seeded by one
        # full evaluation: ``prepared`` maps every enabled vertex to the
        # ``(rule name, fire)`` plan of its first enabled rule.
        views: Dict[VertexId, LocalView] = {}
        prepared: Dict[VertexId, Tuple[str, Callable]] = {}
        for vertex in vertices:
            view = LocalView._from_trusted_parts(
                vertex, states[vertex], {u: states[u] for u in neighbors[vertex]}, graph
            )
            views[vertex] = view
            for check, plan in plans:
                if check(view):
                    prepared[vertex] = plan
                    break
        # Patch plan: for each vertex, the ``neighbor_states`` dicts (one
        # per neighbour's view) holding its state.  A vertex's *own*
        # ``view.state`` is rewritten inside the firing loop — no other
        # vertex's firing reads it — so only these neighbour slots remain
        # to patch after the action.
        patch_slots: Dict[VertexId, List[Dict[VertexId, VertexStateLike]]] = {
            vertex: [views[u].neighbor_states for u in neighbors[vertex]]
            for vertex in vertices
        }
        # The views dict never changes shape after seeding; the batch scan
        # iterates this flat list instead of a fresh dict-items view.
        scan_items: List[Tuple[VertexId, LocalView]] = list(views.items())

        # Rank index for daemons picking by position in the repr order
        # (central daemons): maintained from the join/leave events of the
        # sparse refresh, suspended by batch refreshes, published as the
        # enabled frozenset is rebuilt.  None when the daemon declines it.
        ranks: Optional[EnabledRanks] = None
        if self._rank_order is None:
            self._rank_order = tuple(graph.sorted_vertices())
        candidate = EnabledRanks(self._rank_order)
        if daemon.attach_ranks(candidate):
            ranks = candidate

        light = trace == "light"
        live_view = buffer.view() if light else None
        configurations: List[Configuration] = [initial]
        selections: List[FrozenSet[VertexId]] = []
        activations: List[Sequence[ActivationRecord]] = []
        enabled_sets: List[FrozenSet[VertexId]] = []
        deltas: List[Dict[VertexId, VertexStateLike]] = []
        truncated = True

        current: Configuration = initial
        enabled: Optional[FrozenSet[VertexId]] = None  # reused until membership changes
        for index in range(max_steps + 1):
            if enabled is None:
                enabled = frozenset(prepared)
                if ranks is not None:
                    ranks.current = enabled
            enabled_sets.append(enabled)
            observed = live_view if light else current
            if stop_when is not None and stop_when(observed, index):
                truncated = True
                break
            if not enabled:
                truncated = False
                break
            if index == max_steps:
                truncated = True
                break
            selection = daemon.checked_select(enabled, observed, index, rng)

            # Fire the cached enabled rules of the selected vertices.
            # ``record order within one action follows iteration order'' is
            # part of the engine contract (compared order-insensitively by
            # the equivalence suite), so the synchronous fast path below may
            # iterate ``prepared`` directly: when the selection is the whole
            # enabled set (``selection ⊆ enabled = prepared.keys()`` plus
            # equal sizes), the per-vertex lookups are pure overhead.
            # Each firing is recorded as a raw (vertex, rule_name, old, new)
            # tuple; full traces materialize ActivationRecords per action
            # below, light traces wrap the raw log in LazyActivations.
            records: List[tuple] = []
            changes: Dict[VertexId, VertexStateLike] = {}
            if len(selection) == len(prepared):
                fired = prepared.items()
            else:
                fired = (
                    (vertex, prepared[vertex])
                    for vertex in selection
                    if vertex in prepared
                )
            for vertex, (rule_name, fire) in fired:
                view = views[vertex]
                new_state = fire(view)
                if validate_state is not None:
                    validate_state(vertex, new_state)
                old_state = view.state
                records.append((vertex, rule_name, old_state, new_state))
                if new_state != old_state:
                    changes[vertex] = new_state
                    view.state = new_state

            # O(Δ) in-place update of buffer and persistent views: a changed
            # vertex occupies exactly one neighbor_states slot in each of its
            # neighbours' views, so patching those slots (O(Σ deg(C))) keeps
            # every view current without rebuilding any dict.  Only the
            # changed vertices and their neighbours can change enabledness.
            if changes:
                buffer.apply_trusted_changes(changes)
                if len(changes) >= batch_threshold:
                    # Batch refresh (dense dirty set, e.g. the synchronous
                    # daemon): C ∪ neig(C) covers essentially every vertex,
                    # so skip the dirty-set bookkeeping, rescan every view,
                    # and rebuild the enabled set unconditionally (cheaper
                    # than per-vertex membership tracking at this density).
                    for vertex, new_state in changes.items():
                        for slot in patch_slots[vertex]:
                            slot[vertex] = new_state
                    enabled = None
                    if ranks is not None:
                        ranks.suspend()
                    # The first rule is the hot one in every protocol of
                    # the library; probing it outside the general rule loop
                    # keeps the per-vertex cost at one call in the steady
                    # state.
                    first_check, first_plan = plans[0]
                    rest = plans[1:]
                    for vertex, view in scan_items:
                        if first_check(view):
                            prepared[vertex] = first_plan
                            continue
                        for check, plan in rest:
                            if check(view):
                                prepared[vertex] = plan
                                break
                        else:
                            prepared.pop(vertex, None)
                else:
                    # Sparse refresh: walk the explicit dirty set, tracking
                    # whether the enabled set's membership actually changed
                    # so the frozenset is rebuilt only when it did.
                    dirty: Set[VertexId] = set(changes)
                    for vertex, new_state in changes.items():
                        for slot in patch_slots[vertex]:
                            slot[vertex] = new_state
                        dirty.update(neighbors[vertex])
                    for vertex in dirty:
                        view = views[vertex]
                        for check, plan in plans:
                            if check(view):
                                if vertex not in prepared:
                                    enabled = None
                                    if ranks is not None:
                                        ranks.update(vertex, 1)
                                prepared[vertex] = plan
                                break
                        else:
                            if prepared.pop(vertex, None) is not None:
                                enabled = None
                                if ranks is not None:
                                    ranks.update(vertex, -1)

            selections.append(selection)
            if light:
                activations.append(records)
                # ``changes`` is rebound (never mutated) on the next
                # iteration, so the dict itself can seed the lazy trace.
                deltas.append(changes)
            else:
                activations.append(
                    [ActivationRecord(*record) for record in records]
                )
                current = buffer.snapshot() if changes else current
                configurations.append(current)

        if ranks is not None:
            # Withdraw the index; a run aborted by an exception leaves it
            # attached, which is harmless — it only answers for this run's
            # own enabled sets (EnabledRanks.current).
            daemon.attach_ranks(None)
        if light:
            # The buffer already holds the final states: snapshotting it is
            # O(n) once, versus an O(steps · Δ) delta replay through
            # ``Execution.final``.
            return Execution.from_activations(
                initial=initial,
                selections=selections,
                activations=LazyActivations(activations),
                enabled_sets=enabled_sets,
                truncated=truncated,
                deltas=deltas,
                final=buffer.snapshot(),
            )
        return Execution(
            configurations=configurations,
            selections=selections,
            activations=activations,
            enabled_sets=enabled_sets,
            truncated=truncated,
        )
