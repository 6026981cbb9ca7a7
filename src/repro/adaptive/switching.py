"""Mid-run engine backend switching driven by the regime detector.

``engine="auto"`` decides the backend once, up front, from the daemon's
*declared* density.  :class:`AdaptiveEngine` decides online instead: it
starts every run on the incremental dict backend, watches the selections
the daemon actually makes through a :class:`~repro.adaptive.RegimeDetector`,
promotes the run to the array-state kernel (``"vector"``, or
``"vector-superstep"`` under a synchronous daemon) when a dense regime is
detected, and demotes back to the dict paths when sparsity returns.

The run is executed as a sequence of *segments*, each delegated to
:meth:`IncrementalEngine.run` with a fixed backend.  State crosses backend
boundaries exactly the way it crosses the Simulator API: the segment's
final :class:`~repro.core.Configuration` (``Execution.final``, which every
engine seeds into its light trace, so no replay is paid) seeds the next
segment, where the array backends re-encode it through the protocol's
:class:`~repro.core.ArrayCodec`.

**Equivalence guarantee.**  The stitched execution is bit-for-bit the
execution any fixed backend produces:

* every backend already produces equivalent executions from equal inputs
  (the engine contract, pinned by ``tests/test_engine_equivalence.py``);
* the probe daemon forwards ``select`` with the run-global step index and
  the shared ``rng``, so the daemon observes the identical
  ``(enabled, configuration, step_index, rng-state)`` stream it would see
  in a single-segment run — the segmentation is invisible to it;
* a user ``stop_when`` is evaluated exactly once per global index, in
  order (segment boundaries re-present the boundary index, which the
  engine deduplicates), so gapless stateful observers
  (:class:`~repro.core.SafetyMonitor`) work unchanged.

``tests/test_adaptive.py`` pins the equivalence across daemons, trace
modes and NumPy availability; without NumPy the engine degrades to a
single dict segment and never errors.
"""

from __future__ import annotations

import bisect
import random
from typing import (
    Callable,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..core.daemons import Daemon
from ..core.engine import IncrementalEngine
from ..core.execution import Execution, LazyActivations
from ..core.state import Configuration
from ..exceptions import SimulationError
from ..types import VertexId
from .detector import RegimeDetector

__all__ = ["AdaptiveEngine", "SwitchEvent"]


class SwitchEvent(NamedTuple):
    """One entry of a run's backend switch history: ``backend`` served the
    run from global step ``step`` until the next entry (or the end)."""

    step: int
    backend: str


class _ProbeDaemon(Daemon):
    """Transparent daemon wrapper feeding the regime detector.

    Forwards ``select`` to the wrapped daemon with the *run-global* step
    index (segments restart their local index at 0) and observes every
    selection.  The advisory attributes mirror the inner daemon's so any
    backend heuristic consulted downstream sees the real schedule.  The
    probe does **not** forward ``reset``: scheduling memory (round-robin
    cursors, starvation targets) must survive segment boundaries — the
    simulator already reset the inner daemon once, at run start.
    """

    name = "adaptive-probe"

    def __init__(self, inner: Daemon, detector: RegimeDetector) -> None:
        super().__init__()
        self._inner = inner
        self._detector = detector
        self.offset = 0
        self.dense = inner.dense
        self.synchronous = inner.synchronous
        self.density = inner.density

    def bind(self, protocol) -> None:
        super().bind(protocol)
        self._inner.bind(protocol)

    def attach_ranks(self, ranks) -> bool:
        # ``select`` hands the inner daemon the engine's own enabled set,
        # so the inner daemon can use the engine's rank index directly.
        return self._inner.attach_ranks(ranks)

    def select(
        self,
        enabled: FrozenSet[VertexId],
        configuration: Configuration,
        step_index: int,
        rng: random.Random,
    ) -> FrozenSet[VertexId]:
        selection = self._inner.select(
            enabled, configuration, self.offset + step_index, rng
        )
        self._detector.observe(len(selection), len(enabled), selection)
        return selection

    def admits_selection(
        self, enabled: FrozenSet[VertexId], selection: FrozenSet[VertexId]
    ) -> bool:
        return self._inner.admits_selection(enabled, selection)


class _ChainedSequence(Sequence):
    """Read-only concatenation view over per-segment sequences.

    Keeps every part as-is (no copying, no materialization) — crucial for
    lazy parts like the vector engine's replayed logs.  Sequential access
    is O(1) amortized on top of the parts' own access cost.
    """

    __slots__ = ("_parts", "_offsets", "_length")

    def __init__(self, parts: Sequence[Sequence]) -> None:
        self._parts = list(parts)
        self._offsets: List[int] = []
        total = 0
        for part in self._parts:
            self._offsets.append(total)
            total += len(part)
        self._length = total

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._length))]
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(f"index {index} out of range")
        part = bisect.bisect_right(self._offsets, index) - 1
        return self._parts[part][index - self._offsets[part]]


class AdaptiveEngine:
    """Segment-wise runner that re-selects the backend mid-run.

    One instance per :class:`IncrementalEngine` (the Simulator wires this
    up for ``engine="adaptive"``); stateless between runs apart from the
    ``last_run_*`` diagnostics.

    Parameters
    ----------
    incremental:
        The dirty-set engine every segment is delegated to; its cached
        vector capability is the promotion target.
    detector_factory:
        ``f(n) -> RegimeDetector`` building the per-run detector; defaults
        to :class:`RegimeDetector` with its stock thresholds.
    dwell:
        Minimum number of steps a segment must run before the policy may
        end it with a switch.  Bounds oscillation: a run of S steps pays at
        most ``S / dwell`` backend transitions.
    """

    __slots__ = (
        "_incremental",
        "_graph",
        "_detector_factory",
        "_dwell",
        "last_run_backend",
        "last_run_switches",
        "last_run_estimate",
    )

    #: Default minimum segment length before a switch may fire.
    DEFAULT_DWELL = 24

    def __init__(
        self,
        incremental: IncrementalEngine,
        detector_factory: Optional[Callable[[int], RegimeDetector]] = None,
        dwell: Optional[int] = None,
    ) -> None:
        self._incremental = incremental
        self._graph = incremental._graph
        self._detector_factory = detector_factory
        self._dwell = dwell if dwell is not None else self.DEFAULT_DWELL
        if self._dwell < 1:
            raise SimulationError(f"dwell must be >= 1, got {self._dwell}")
        #: Backend of the final segment of the most recent run (None before
        #: the first run) — what "the engine ended on".
        self.last_run_backend: Optional[str] = None
        #: Backend switch history of the most recent run as a tuple of
        #: :class:`SwitchEvent`; a run that never switched has one entry.
        self.last_run_switches: Tuple[SwitchEvent, ...] = ()
        #: The detector's final estimate of the most recent run.
        self.last_run_estimate = None

    def _make_detector(self) -> RegimeDetector:
        if self._detector_factory is not None:
            return self._detector_factory(self._graph.n)
        return RegimeDetector(self._graph.n)

    def _target_backend(
        self, detector: RegimeDetector, daemon: Daemon, vector_ok: bool
    ) -> Optional[str]:
        """The backend the detector currently argues for (None: no opinion)."""
        if not vector_ok:
            return None
        regime = detector.classify()
        if regime == RegimeDetector.DENSE:
            return "vector-superstep" if daemon.synchronous else "vector"
        if regime == RegimeDetector.SPARSE:
            return "dict"
        return None

    def run(
        self,
        daemon: Daemon,
        rng: random.Random,
        initial: Configuration,
        max_steps: int,
        stop_when: Optional[Callable[[Configuration, int], bool]] = None,
        trace: str = "full",
    ) -> Execution:
        """Run up to ``max_steps`` actions from ``initial``.

        Mirrors :meth:`IncrementalEngine.run`'s contract (and its observable
        executions — see the module docstring's equivalence guarantee).
        """
        incremental = self._incremental
        vector_ok = incremental._vector_engine() is not None
        detector = self._make_detector()
        probe = _ProbeDaemon(daemon, detector)
        dwell = self._dwell

        segments: List[Execution] = []
        switches: List[SwitchEvent] = []
        backend = "dict"
        offset = 0
        current = initial
        # Mutable cells shared with the per-segment stop predicate.
        state = {"pending": None, "user_stopped": False, "last_checked": -1}

        while True:
            remaining = max_steps - offset
            probe.offset = offset
            state["pending"] = None
            # Demotion from the superstep backend never happens (it is only
            # entered for synchronous daemons, whose density is permanently
            # 1.0), so superstep segments skip the policy probe — with no
            # user predicate they run with stop_when=None, which is what
            # unlocks the in-kernel fixed-point fast-forward.
            allow_switch = vector_ok and backend != "vector-superstep"
            segment_stop = self._segment_stop(
                stop_when, state, offset, daemon, detector,
                backend, dwell, allow_switch, vector_ok,
            )
            execution = incremental.run(
                daemon=probe,
                rng=rng,
                initial=current,
                max_steps=remaining,
                stop_when=segment_stop,
                trace=trace,
                backend=backend,
            )
            actual = incremental.last_run_backend
            current = execution.final
            segments.append(execution)
            if not switches or switches[-1].backend != actual:
                switches.append(SwitchEvent(offset, actual))
            offset += execution.steps
            if (
                not execution.truncated
                or state["user_stopped"]
                or offset >= max_steps
                or state["pending"] is None
            ):
                break
            backend = state["pending"]

        self.last_run_backend = incremental.last_run_backend
        self.last_run_switches = tuple(switches)
        self.last_run_estimate = detector.estimate()
        if len(segments) == 1:
            return segments[0]
        return self._stitch(segments, trace)

    def _segment_stop(
        self,
        stop_when: Optional[Callable],
        state: dict,
        offset: int,
        daemon: Daemon,
        detector: RegimeDetector,
        backend: str,
        dwell: int,
        allow_switch: bool,
        vector_ok: bool,
    ) -> Optional[Callable[[Configuration, int], bool]]:
        """The per-segment stop predicate (None when nothing to watch).

        Evaluates the user predicate exactly once per *global* index — a
        segment boundary re-presents the boundary index, which the
        ``last_checked`` cursor deduplicates — then, past the dwell, asks
        the detector whether the segment should end with a backend switch.
        A switch is only requested at a positive local index, so every
        segment makes progress and the loop terminates.
        """
        if stop_when is None and not allow_switch:
            return None

        target_backend = self._target_backend

        def segment_stop(observed, local_index: int) -> bool:
            global_index = offset + local_index
            if stop_when is not None and global_index > state["last_checked"]:
                state["last_checked"] = global_index
                if stop_when(observed, global_index):
                    state["user_stopped"] = True
                    return True
            if allow_switch and local_index >= dwell:
                target = target_backend(detector, daemon, vector_ok)
                if target is not None and target != backend:
                    state["pending"] = target
                    return True
            return False

        return segment_stop

    # ------------------------------------------------------------------ #
    # Stitching
    # ------------------------------------------------------------------ #
    def _stitch(self, segments: List[Execution], trace: str) -> Execution:
        """Concatenate per-segment executions into one.

        Each segment's final configuration is the next segment's initial
        one, and the boundary enabled set is recorded by both — the
        duplicates are dropped so the stitched trace satisfies the
        ``Execution`` length invariants exactly.
        """
        truncated = segments[-1].truncated
        selections: List[FrozenSet[VertexId]] = []
        enabled_sets: List[FrozenSet[VertexId]] = []
        for position, segment in enumerate(segments):
            selections.extend(segment._selections)
            enabled = segment._enabled_sets
            enabled_sets.extend(enabled if position == 0 else enabled[1:])
        if trace == "light":
            activations = LazyActivations(
                _ChainedSequence([segment._activations._raw for segment in segments])
            )
            deltas = _ChainedSequence(
                [segment._configurations._deltas for segment in segments]
            )
            return Execution.from_activations(
                initial=segments[0].initial,
                selections=selections,
                activations=activations,
                enabled_sets=enabled_sets,
                truncated=truncated,
                deltas=deltas,
                final=segments[-1].final,
            )
        configurations: List[Configuration] = []
        activations: List[Sequence] = []
        for position, segment in enumerate(segments):
            parts = segment._configurations
            configurations.extend(parts if position == 0 else parts[1:])
            activations.extend(segment._activations)
        return Execution(
            configurations=configurations,
            selections=selections,
            activations=activations,
            enabled_sets=enabled_sets,
            truncated=truncated,
        )
