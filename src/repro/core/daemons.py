"""Daemons (adversaries/schedulers) of Definition 1.

A daemon restricts which executions of a protocol are considered possible.
Operationally, our simulator consults the daemon at every configuration: the
daemon receives the set of enabled vertices and returns the non-empty subset
that gets activated during the next action.

The classical daemons of the paper are provided:

* :class:`SynchronousDaemon` (``sd``) — activates every enabled vertex;
* :class:`CentralDaemon` (``cd``) — activates exactly one enabled vertex;
* :class:`DistributedDaemon` — activates an arbitrary non-empty subset,
  which (together with the adversarial variants below) stands in for the
  *unfair distributed daemon* ``ud`` of the paper;
* :class:`LocallyCentralDaemon` — never activates two neighbours at once;
* :class:`AdversarialCentralDaemon` / :class:`StarvationDaemon` — greedy
  heuristics that try to delay convergence or starve a process, used to
  estimate worst-case stabilization times under unfair scheduling.

Definition 2's partial order ("more powerful" = allows more executions) is
made executable through :meth:`Daemon.admits_selection` and
:func:`is_weaker_than`: a daemon is weaker than another (over a ground set
of enabled vertices) when every per-step selection it can make is also
available to the other.
"""

from __future__ import annotations

import itertools
import operator
import random
from abc import ABC, abstractmethod
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..exceptions import DaemonError
from ..types import VertexId
from .protocol import Protocol
from .state import Configuration

__all__ = [
    "Daemon",
    "SynchronousDaemon",
    "CentralDaemon",
    "RoundRobinCentralDaemon",
    "DistributedDaemon",
    "LocallyCentralDaemon",
    "AdversarialCentralDaemon",
    "StarvationDaemon",
    "RegimeSwitchingDaemon",
    "is_weaker_than",
    "DAEMON_FACTORIES",
    "make_daemon",
]


class EnabledRanks:
    """Enabled membership over the repr-sorted vertex ranks (a Fenwick tree).

    The dict engine keeps one per run for daemons that pick by position in
    the deterministic vertex order (:meth:`Daemon.attach_ranks`): it
    reports every vertex joining or leaving the enabled set during a sparse
    guard refresh (O(log n) each) and publishes, as :attr:`current`, the
    enabled frozenset the tree describes.  :meth:`kth` then finds the k-th
    enabled vertex in O(log n) instead of filtering the whole vertex order.

    After a batch refresh the engine calls :meth:`suspend` instead of
    reporting n events; the tree is rebuilt from :attr:`current` — once,
    in O(n) — only when a daemon next asks, so dense steps pay nothing.

    Invariant: whenever :attr:`current` is not None, the tree (once
    rebuilt, if suspended) holds exactly the members of :attr:`current`;
    every event resets :attr:`current` until the engine publishes the new
    enabled set.  A daemon handed any other set must not use the tree.
    """

    __slots__ = ("_order", "_rank", "_starts", "_top", "_tree", "_live", "current")

    def __init__(self, order: Sequence[VertexId]) -> None:
        self._order = order
        # Rank and cell tables, built with the first tree: tree cell i
        # counts the members at 1-based positions (starts[i], i], where
        # ``starts[i] = i - lowbit(i)``.
        self._rank: Dict[VertexId, int] = {}
        self._starts: List[int] = []
        self._top = 1
        self._tree: List[int] = []
        self._live = False
        #: The enabled set the tree describes (None between an event and
        #: the engine's next publication).
        self.current: Optional[FrozenSet[VertexId]] = None

    def suspend(self) -> None:
        """Stop tracking events; rebuild from :attr:`current` on next use."""
        self._live = False
        self.current = None

    def update(self, vertex: VertexId, delta: int) -> None:
        """``vertex`` joined (``delta=1``) or left (``-1``) the enabled set."""
        self.current = None
        if self._live:
            tree = self._tree
            size = len(tree)
            index = self._rank[vertex] + 1
            while index < size:
                tree[index] += delta
                index += index & -index

    def _rebuild(self) -> None:
        if not self._starts:
            order = self._order
            self._rank = {vertex: position for position, vertex in enumerate(order)}
            self._starts = [index - (index & -index) for index in range(len(order) + 1)]
            while self._top * 2 <= len(order):
                self._top *= 2
        rank = self._rank
        bits = [0] * len(self._starts)
        for vertex in self.current:
            bits[rank[vertex] + 1] = 1
        prefix = list(itertools.accumulate(bits))
        self._tree = list(
            map(operator.sub, prefix, map(prefix.__getitem__, self._starts))
        )
        self._live = True

    def kth(self, k: int) -> VertexId:
        """The ``k``-th (0-based) member of :attr:`current` in rank order."""
        if not self._live:
            self._rebuild()
        tree = self._tree
        size = len(tree)
        position = 0
        step = self._top
        while step:
            probe = position + step
            if probe < size and tree[probe] <= k:
                position = probe
                k -= tree[probe]
            step >>= 1
        return self._order[position]


class Daemon(ABC):
    """Base class for daemons.

    A daemon may be *bound* to a protocol by the simulator (see
    :meth:`bind`); adversarial daemons use the protocol to look ahead, the
    others ignore it.
    """

    #: Short human-readable name ("sd", "cd", ...), set by subclasses.
    name: str = "daemon"

    #: Backend-selection hint: True when the daemon's typical selection
    #: activates a constant fraction of the enabled set (the synchronous
    #: daemon, dense distributed daemons).  The engine's automatic backend
    #: selection runs such daemons on the vectorized array-state kernel
    #: when the protocol declares one; sparse daemons keep the dirty-set
    #: paths.  Purely advisory — every backend is correct for every daemon.
    dense: bool = False

    #: True only for daemons whose selection is *always* the full enabled
    #: set (the synchronous daemon).  Such schedules are deterministic given
    #: the initial configuration, which is what licenses the batched
    #: superstep path of :class:`repro.core.vector.VectorEngine`: K steps
    #: can be executed as pure array operations because no per-step daemon
    #: decision exists.  Never set this on a daemon that can activate a
    #: proper subset — the superstep path skips ``select`` entirely.
    synchronous: bool = False

    #: Advisory expected fraction of the enabled set activated per step
    #: (``None`` when unknown).  Used by the automatic backend selection to
    #: route mid-density daemons (``0.2 <= density < 0.5``) to the array
    #: kernel on large graphs, where the vectorized sparse guard refresh
    #: beats the dict-backed dirty-set paths.
    density: Optional[float] = None

    #: Engine-maintained rank index (see :meth:`attach_ranks`).
    _ranks: Optional[EnabledRanks] = None

    def __init__(self) -> None:
        self._protocol: Optional[Protocol] = None
        self._sorted_vertices: Optional[List[VertexId]] = None

    def bind(self, protocol: Protocol) -> None:
        """Attach the protocol whose executions this daemon schedules."""
        self._protocol = protocol
        # Cache the deterministic vertex order once: the simulator hands the
        # daemon a (cached) enabled set every step, and re-sorting it by repr
        # per step is a hidden O(n log n) on the simulation hot path.
        self._sorted_vertices = list(protocol.graph.sorted_vertices())

    def _ordered_enabled(self, enabled: FrozenSet[VertexId]) -> List[VertexId]:
        """The enabled vertices in deterministic (repr-sorted) order.

        Uses the vertex order cached at :meth:`bind` time when available —
        one membership filter instead of a repr sort per step.  For enabled
        sets much smaller than the graph (the tail of every stabilization
        run) sorting the few elements directly is cheaper than scanning the
        full vertex order; both branches produce the identical list.
        """
        if self._sorted_vertices is None or len(enabled) * 8 < len(self._sorted_vertices):
            return sorted(enabled, key=repr)
        return [v for v in self._sorted_vertices if v in enabled]

    def attach_ranks(self, ranks: Optional[EnabledRanks]) -> bool:
        """Offer (or, with ``None``, withdraw) the engine's rank index.

        Returns whether the daemon uses it; the engine maintains the index
        only for daemons that do.  The base daemon declines.
        """
        del ranks
        return False

    def _enabled_at(self, enabled: FrozenSet[VertexId], k: int) -> VertexId:
        """``self._ordered_enabled(enabled)[k]`` (0 <= k < len(enabled)).

        O(log n) through the attached rank index when it describes exactly
        ``enabled`` (the engine's own enabled set this step), the filtered
        vertex order otherwise — both give the same vertex.
        """
        ranks = self._ranks
        if ranks is not None and ranks.current is enabled:
            return ranks.kth(k)
        return self._ordered_enabled(enabled)[k]

    @property
    def protocol(self) -> Optional[Protocol]:
        """The bound protocol, if any."""
        return self._protocol

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    @abstractmethod
    def select(
        self,
        enabled: FrozenSet[VertexId],
        configuration: Configuration,
        step_index: int,
        rng: random.Random,
    ) -> FrozenSet[VertexId]:
        """Choose the non-empty subset of ``enabled`` to activate.

        ``enabled`` is the simulator's cached enabled set for the current
        configuration — daemons must not recompute it.  ``configuration``
        is an immutable snapshot under the default trace mode, but a *live*
        read-only view in light-trace mode: read it freely during the call,
        never retain it across steps.
        """

    def checked_select(
        self,
        enabled: FrozenSet[VertexId],
        configuration: Configuration,
        step_index: int,
        rng: random.Random,
    ) -> FrozenSet[VertexId]:
        """Like :meth:`select`, with the legality checks of the model."""
        if not enabled:
            raise DaemonError("select() called with no enabled vertex")
        selection = frozenset(self.select(enabled, configuration, step_index, rng))
        if selection is enabled:
            # The synchronous daemon returns the enabled set itself (and
            # frozenset() of a frozenset is the same object); the subset
            # check below would cost O(n) per step for nothing.
            return selection
        if not selection:
            raise DaemonError(f"daemon {self.name!r} returned an empty selection")
        if not selection <= enabled:
            raise DaemonError(
                f"daemon {self.name!r} selected disabled vertices: "
                f"{sorted(selection - enabled, key=repr)!r}"
            )
        return selection

    # ------------------------------------------------------------------ #
    # Definition 2 semantics
    # ------------------------------------------------------------------ #
    def admits_selection(
        self, enabled: FrozenSet[VertexId], selection: FrozenSet[VertexId]
    ) -> bool:
        """Whether this daemon could ever return ``selection`` for ``enabled``.

        The default is the unconstrained (distributed) behaviour: any
        non-empty subset of the enabled vertices.
        """
        return bool(selection) and selection <= enabled

    def admissible_selections(
        self, enabled: FrozenSet[VertexId]
    ) -> List[FrozenSet[VertexId]]:
        """Enumerate every selection this daemon admits (small sets only)."""
        vertices = sorted(enabled, key=repr)
        result = []
        for size in range(1, len(vertices) + 1):
            for combo in itertools.combinations(vertices, size):
                candidate = frozenset(combo)
                if self.admits_selection(enabled, candidate):
                    result.append(candidate)
        return result

    def reset(self) -> None:
        """Forget scheduling memory (round-robin position, starvation
        target...).  Called by the simulator before each run."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SynchronousDaemon(Daemon):
    """The synchronous daemon ``sd``: every enabled vertex is activated."""

    name = "sd"
    dense = True
    synchronous = True
    density = 1.0

    def select(
        self,
        enabled: FrozenSet[VertexId],
        configuration: Configuration,
        step_index: int,
        rng: random.Random,
    ) -> FrozenSet[VertexId]:
        return enabled

    def admits_selection(
        self, enabled: FrozenSet[VertexId], selection: FrozenSet[VertexId]
    ) -> bool:
        return bool(selection) and selection == enabled


class CentralDaemon(Daemon):
    """The central daemon ``cd``: exactly one enabled vertex per action.

    ``strategy`` controls which vertex is picked:

    * ``"random"`` — uniformly at random (default);
    * ``"first"`` / ``"last"`` — deterministic extremes of the repr order,
      useful to build reproducible sequential executions.

    Every strategy picks a position ``k`` in the repr order of the enabled
    set — the random one with ``rng.choice(range(len(enabled)))``, the same
    single ``_randbelow(len)`` draw as choosing from the ordered list — and
    resolves it through :meth:`Daemon._enabled_at`, O(log n) under the
    dict engine's rank index.
    """

    name = "cd"

    def __init__(self, strategy: str = "random") -> None:
        super().__init__()
        if strategy not in {"random", "first", "last"}:
            raise DaemonError(f"unknown central strategy {strategy!r}")
        self._strategy = strategy

    def select(
        self,
        enabled: FrozenSet[VertexId],
        configuration: Configuration,
        step_index: int,
        rng: random.Random,
    ) -> FrozenSet[VertexId]:
        if self._strategy == "first":
            k = 0
        elif self._strategy == "last":
            k = len(enabled) - 1
        else:
            k = rng.choice(range(len(enabled)))
        return frozenset({self._enabled_at(enabled, k)})

    def attach_ranks(self, ranks: Optional[EnabledRanks]) -> bool:
        self._ranks = ranks
        return True

    def admits_selection(
        self, enabled: FrozenSet[VertexId], selection: FrozenSet[VertexId]
    ) -> bool:
        return len(selection) == 1 and selection <= enabled


class RoundRobinCentralDaemon(Daemon):
    """A fair central daemon cycling through the vertices in a fixed order.

    Useful as a benign sequential scheduler (it never starves a vertex).
    """

    name = "cd-rr"

    def __init__(self) -> None:
        super().__init__()
        self._cursor = 0

    def reset(self) -> None:
        self._cursor = 0

    def select(
        self,
        enabled: FrozenSet[VertexId],
        configuration: Configuration,
        step_index: int,
        rng: random.Random,
    ) -> FrozenSet[VertexId]:
        if self._sorted_vertices is None:
            ordered_all = sorted(enabled, key=repr)
        else:
            ordered_all = self._sorted_vertices
        total = len(ordered_all)
        for offset in range(total):
            candidate = ordered_all[(self._cursor + offset) % total]
            if candidate in enabled:
                self._cursor = (self._cursor + offset + 1) % total
                return frozenset({candidate})
        # Unreachable: checked_select() guarantees ``enabled`` is non-empty
        # and every enabled vertex appears in ``ordered_all``.
        raise DaemonError("round-robin daemon found no enabled vertex")

    def admits_selection(
        self, enabled: FrozenSet[VertexId], selection: FrozenSet[VertexId]
    ) -> bool:
        return len(selection) == 1 and selection <= enabled


class DistributedDaemon(Daemon):
    """The (randomized) distributed daemon: an arbitrary non-empty subset.

    Each enabled vertex is selected independently with probability
    ``activation_probability``; if the coin flips produce an empty set, one
    enabled vertex is forced, so the selection is always legal.
    """

    name = "dd"

    def __init__(self, activation_probability: float = 0.5) -> None:
        super().__init__()
        if not 0.0 < activation_probability <= 1.0:
            raise DaemonError(
                f"activation probability must be in (0, 1], got {activation_probability}"
            )
        self._p = activation_probability
        # Expected selections cover at least half the enabled set: the
        # dense regime the vector backend is built for.
        self.dense = activation_probability >= 0.5
        self.density = activation_probability

    def select(
        self,
        enabled: FrozenSet[VertexId],
        configuration: Configuration,
        step_index: int,
        rng: random.Random,
    ) -> FrozenSet[VertexId]:
        ordered = self._ordered_enabled(enabled)
        chosen = {v for v in ordered if rng.random() < self._p}
        if not chosen:
            chosen = {rng.choice(ordered)}
        return frozenset(chosen)


class LocallyCentralDaemon(Daemon):
    """Never activates two neighbouring vertices in the same action.

    The selection is a (greedy, randomized) maximal independent subset of
    the enabled vertices.
    """

    name = "lcd"

    def select(
        self,
        enabled: FrozenSet[VertexId],
        configuration: Configuration,
        step_index: int,
        rng: random.Random,
    ) -> FrozenSet[VertexId]:
        if self._protocol is None:
            raise DaemonError("locally central daemon requires a bound protocol")
        graph = self._protocol.graph
        ordered = self._ordered_enabled(enabled)
        rng.shuffle(ordered)
        chosen: Set[VertexId] = set()
        for v in ordered:
            if not any(u in chosen for u in graph.neighbors(v)):
                chosen.add(v)
        return frozenset(chosen)

    def admits_selection(
        self, enabled: FrozenSet[VertexId], selection: FrozenSet[VertexId]
    ) -> bool:
        if not (selection and selection <= enabled):
            return False
        if self._protocol is None:
            return True
        graph = self._protocol.graph
        return all(
            not (graph.has_edge(u, v))
            for u in selection
            for v in selection
            if u != v
        )


class AdversarialCentralDaemon(Daemon):
    """A convergence-delaying central daemon (unfair heuristic).

    At each configuration it activates the single enabled vertex whose
    activation leaves the *largest* number of vertices enabled in the next
    configuration (ties broken in favour of the vertex activated least
    recently, then by identifier).  Keeping many vertices enabled for as
    long as possible is a standard way to realize slow executions of
    unison-style protocols, and empirically dominates random central
    scheduling in our Theorem 3 experiment.
    """

    name = "cd-adv"

    def __init__(self) -> None:
        super().__init__()
        self._last_activated: Dict[VertexId, int] = {}

    def reset(self) -> None:
        self._last_activated = {}

    def select(
        self,
        enabled: FrozenSet[VertexId],
        configuration: Configuration,
        step_index: int,
        rng: random.Random,
    ) -> FrozenSet[VertexId]:
        if self._protocol is None:
            raise DaemonError("adversarial daemon requires a bound protocol")
        protocol = self._protocol
        graph = protocol.graph
        # Reuse one rules lookup across the lookahead only when the protocol
        # keeps the stock enabledness chain; custom chains must be honoured.
        stock_enabledness = protocol.has_stock_enabledness()
        rules = protocol.rules() if stock_enabledness else None
        best_vertex = None
        best_key: Optional[Tuple[int, int, str]] = None
        for vertex in self._ordered_enabled(enabled):
            next_config, _ = protocol.apply(configuration, [vertex])
            # Activating a single vertex can only change the enabledness of
            # that vertex and its neighbours, so the successor's enabled
            # count is computed from the current one by a local delta.
            closed_neighborhood = set(graph.neighbors(vertex)) | {vertex}
            enabled_after = len(enabled - closed_neighborhood)
            if stock_enabledness:
                enabled_after += sum(
                    1
                    for w in closed_neighborhood
                    if protocol.evaluate(next_config, w, rules)[1]
                )
            else:
                enabled_after += sum(
                    1
                    for w in closed_neighborhood
                    if protocol.is_enabled(next_config, w)
                )
            recency = self._last_activated.get(vertex, -1)
            # Maximize enabled_after, then prefer least recently activated.
            key = (-enabled_after, recency, repr(vertex))
            if best_key is None or key < best_key:
                best_key = key
                best_vertex = vertex
        assert best_vertex is not None
        self._last_activated[best_vertex] = step_index
        return frozenset({best_vertex})

    def admits_selection(
        self, enabled: FrozenSet[VertexId], selection: FrozenSet[VertexId]
    ) -> bool:
        return len(selection) == 1 and selection <= enabled


class StarvationDaemon(Daemon):
    """An unfair distributed daemon that starves a target vertex.

    The target (by default the vertex with the largest identifier) is only
    activated when it is the sole enabled vertex; every other enabled vertex
    is activated at every step.  This realizes the classical unfairness
    pattern used to exhibit worst-case executions.
    """

    name = "ud-starve"
    dense = True  # every enabled vertex but the target fires each step

    def __init__(self, target: Optional[VertexId] = None) -> None:
        super().__init__()
        self._target = target

    def _resolve_target(self) -> Optional[VertexId]:
        if self._target is not None:
            return self._target
        if self._protocol is None:
            return None
        return self._protocol.graph.sorted_vertices()[-1]

    def select(
        self,
        enabled: FrozenSet[VertexId],
        configuration: Configuration,
        step_index: int,
        rng: random.Random,
    ) -> FrozenSet[VertexId]:
        target = self._resolve_target()
        if target is None:
            return enabled
        without_target = frozenset(v for v in enabled if v != target)
        return without_target if without_target else enabled


class RegimeSwitchingDaemon(Daemon):
    """Alternates synchronous and sparse-central scheduling phases.

    For ``dense_steps`` actions out of every ``dense_steps + sparse_steps``
    period the daemon behaves like the synchronous daemon (every enabled
    vertex fires); for the remaining ``sparse_steps`` actions it behaves
    like the random central daemon (one enabled vertex fires).  Phase
    membership is a pure function of the step index, so executions are
    deterministic given the seed.

    This is the canonical *regime-switch workload* for the adaptive engine
    (:mod:`repro.adaptive`): neither phase dominates the run, so any fixed
    backend choice is wrong half the time.  The advisory flags deliberately
    stay at their sparse defaults (``dense=False``, ``synchronous=False``):
    ``engine="auto"`` must keep the incremental engine for this daemon —
    exploiting the dense phases mid-run is exactly the adaptive engine's
    job, not static backend selection's.
    """

    name = "regime-switch"

    def __init__(self, dense_steps: int = 64, sparse_steps: int = 192) -> None:
        super().__init__()
        if dense_steps < 1 or sparse_steps < 1:
            raise DaemonError("phase lengths must be at least 1 step")
        self._dense_steps = dense_steps
        self._period = dense_steps + sparse_steps

    @property
    def dense_steps(self) -> int:
        """Length of the synchronous phase of each period."""
        return self._dense_steps

    @property
    def sparse_steps(self) -> int:
        """Length of the sparse-central phase of each period."""
        return self._period - self._dense_steps

    def in_dense_phase(self, step_index: int) -> bool:
        """Whether action ``step_index`` falls in a synchronous phase."""
        return (step_index % self._period) < self._dense_steps

    def select(
        self,
        enabled: FrozenSet[VertexId],
        configuration: Configuration,
        step_index: int,
        rng: random.Random,
    ) -> FrozenSet[VertexId]:
        if self.in_dense_phase(step_index):
            return enabled
        # Same draw and vertex as CentralDaemon's random strategy.
        k = rng.choice(range(len(enabled)))
        return frozenset({self._enabled_at(enabled, k)})

    def attach_ranks(self, ranks: Optional[EnabledRanks]) -> bool:
        self._ranks = ranks
        return True


def is_weaker_than(
    weaker: Daemon, stronger: Daemon, ground_sets: Iterable[FrozenSet[VertexId]]
) -> bool:
    """Executable approximation of Definition 2 over sample enabled sets.

    ``weaker`` is at most as powerful as ``stronger`` when every per-step
    selection ``weaker`` admits is also admitted by ``stronger``.  The check
    is performed for every enabled set in ``ground_sets`` (keep them small,
    the enumeration is exponential).
    """
    for enabled in ground_sets:
        enabled = frozenset(enabled)
        if not enabled:
            continue
        weak_choices = set(weaker.admissible_selections(enabled))
        strong_choices = set(stronger.admissible_selections(enabled))
        if not weak_choices <= strong_choices:
            return False
    return True


#: Factories for daemons by short name, used by the experiment harness and
#: the command-line examples.
DAEMON_FACTORIES = {
    "sd": SynchronousDaemon,
    "cd": CentralDaemon,
    "cd-rr": RoundRobinCentralDaemon,
    "cd-adv": AdversarialCentralDaemon,
    "dd": DistributedDaemon,
    "lcd": LocallyCentralDaemon,
    "ud-starve": StarvationDaemon,
    "regime-switch": RegimeSwitchingDaemon,
}


def make_daemon(name: str, **kwargs) -> Daemon:
    """Instantiate a daemon by its short name."""
    try:
        factory = DAEMON_FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(DAEMON_FACTORIES))
        raise DaemonError(f"unknown daemon {name!r}; known: {known}") from None
    return factory(**kwargs)
