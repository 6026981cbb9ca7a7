"""The discrete-event simulator: protocol + daemon -> executions.

The simulator realizes the operational model of Section 2: at each
configuration it computes the enabled vertices, asks the daemon for a
non-empty subset of them, and applies the corresponding action atomically.
Runs are deterministic given the seed (and fully deterministic under the
synchronous daemon).
"""

from __future__ import annotations

import random
from typing import Callable, FrozenSet, List, Optional, Sequence

from ..exceptions import SimulationError
from ..types import VertexId
from .daemons import Daemon
from .engine import ENGINES, IncrementalEngine, resolve_backend
from .execution import Execution
from .protocol import ActivationRecord, Protocol
from .state import Configuration

__all__ = ["ENGINES", "StepResult", "Simulator"]

#: Trace modes accepted by :class:`Simulator` (see docs/engine.md).
TRACE_MODES = ("full", "light")


class StepResult:
    """Outcome of a single simulated action."""

    __slots__ = ("configuration", "selection", "records", "enabled", "terminal")

    def __init__(
        self,
        configuration: Configuration,
        selection: FrozenSet[VertexId],
        records: Sequence[ActivationRecord],
        enabled: FrozenSet[VertexId],
        terminal: bool,
    ) -> None:
        self.configuration = configuration
        self.selection = selection
        self.records = tuple(records)
        self.enabled = enabled
        self.terminal = terminal

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"StepResult(selected={sorted(self.selection, key=repr)!r}, "
            f"terminal={self.terminal})"
        )


class Simulator:
    """Runs executions of a protocol under a daemon.

    Parameters
    ----------
    protocol:
        The distributed protocol to execute.
    daemon:
        The adversary scheduling the execution.  It is bound to the
        protocol by the constructor.
    rng:
        Source of randomness for the daemon (and nothing else).  Passing a
        seeded ``random.Random`` makes runs reproducible.
    engine:
        One of :data:`~repro.core.engine.ENGINES`, resolved once by
        :func:`~repro.core.engine.resolve_backend`.
        ``"auto"`` (default) picks the fastest sound backend for the
        (protocol, daemon) pair: the NumPy-vectorized array-state kernel
        (:mod:`repro.core.vector`) when the protocol declares one, NumPy is
        importable and the daemon's advisory density is dense (or
        mid-density on a large graph) — upgraded to the batched superstep loop
        (:meth:`~repro.core.vector.VectorEngine.run_supersteps`) when the
        daemon is synchronous (:attr:`Daemon.synchronous`); the dirty-set
        incremental engine otherwise.  ``"incremental"`` forces the
        dict-based dirty-set engine of :mod:`repro.core.engine`;
        ``"vector"`` requests the single-step array-state kernel for any
        daemon; ``"vector-superstep"`` requests the batched kernel loop
        (degrading to ``"vector"`` under a non-synchronous daemon, whose
        per-step selections supersteps cannot honour).  Both array requests
        fall back to ``"incremental"`` when the capability is unavailable —
        NumPy stays optional.  ``"adaptive"`` re-decides the backend *online*
        (:class:`repro.adaptive.AdaptiveEngine`): each run starts on the
        dict paths, promotes to the array kernels when the regime detector
        reads the schedule as dense, and demotes back when sparsity returns
        — producing bit-for-bit the same executions as any fixed backend
        (without NumPy it degrades to a single dict segment).  The switch
        history of the last run is reported by :attr:`last_run_switches`.
        ``"reference"`` runs the naive full-rescan semantics and serves as
        the correctness oracle.  Protocols that override the base-class
        transition methods (``choose_rule`` included) automatically fall
        back to the reference engine.
        The resolved choice is reported by :attr:`engine`.
    trace:
        ``"full"`` (default) records every configuration in the returned
        :class:`Execution`.  ``"light"`` records activations only and
        reconstructs configurations on demand — same observable trace, far
        less per-step work and memory.  Both engines honour both modes; in
        light mode the incremental engine additionally hands daemons and
        ``stop_when`` predicates a live read-only view of the current
        states instead of per-step snapshots, so they must not retain it
        across steps.

    Examples
    --------
    >>> from repro.graphs import ring_graph
    >>> from repro.mutex import SSME
    >>> from repro.core import SynchronousDaemon, Simulator
    >>> protocol = SSME(ring_graph(4))
    >>> sim = Simulator(protocol, SynchronousDaemon())
    >>> execution = sim.run(protocol.default_configuration(), max_steps=10)
    >>> execution.steps
    10
    """

    def __init__(
        self,
        protocol: Protocol,
        daemon: Daemon,
        rng: Optional[random.Random] = None,
        engine: str = "auto",
        trace: str = "full",
    ) -> None:
        if trace not in TRACE_MODES:
            raise SimulationError(
                f"unknown trace mode {trace!r}; known: {', '.join(TRACE_MODES)}"
            )
        self._protocol = protocol
        self._daemon = daemon
        self._daemon.bind(protocol)
        self._rng = rng or random.Random(0)
        # Protocols overriding hot-path transition methods keep their custom
        # semantics: no prepared-evaluation threading in the reference
        # engine (their ``apply`` may predate the ``prepared`` keyword and
        # their enabledness chain must be honoured).
        self._prepared_ok = protocol.has_stock_transitions()
        incremental = IncrementalEngine(protocol)
        engine = resolve_backend(engine, daemon, incremental)
        self._incremental: Optional[IncrementalEngine] = (
            None if engine == "reference" else incremental
        )
        self._adaptive = None
        if engine == "adaptive":
            # Imported lazily: repro.adaptive builds on this module.
            from ..adaptive.switching import AdaptiveEngine

            self._adaptive = AdaptiveEngine(incremental)
        self._engine = engine
        self._trace = trace

    @property
    def protocol(self) -> Protocol:
        """The protocol being simulated."""
        return self._protocol

    @property
    def daemon(self) -> Daemon:
        """The scheduling daemon."""
        return self._daemon

    @property
    def engine(self) -> str:
        """The resolved engine ("adaptive", "vector-superstep", "vector",
        "incremental" or "reference"; see
        :func:`~repro.core.engine.resolve_backend`)."""
        return self._engine

    @property
    def last_run_backend(self) -> Optional[str]:
        """Which backend the most recent :meth:`run` actually used
        ("vector-superstep", "vector" or "dict"; None before any run or
        under the reference engine).  Diagnostic: the vector backend may
        decline a particular initial configuration (states outside the
        codec's integer layout) and fall back to the dict paths
        mid-selection.  Under the adaptive engine this is the backend the
        run *ended* on; :attr:`last_run_switches` has the full history."""
        if self._incremental is None:
            return None
        return self._incremental.last_run_backend

    @property
    def last_run_switches(self):
        """Backend switch history of the most recent :meth:`run` as a tuple
        of ``(step, backend)`` events — ``backend`` served the run from
        ``step`` until the next event.  A fixed-backend run reports the
        single event ``(0, backend)``; None before any run or under the
        reference engine."""
        if self._adaptive is not None:
            return self._adaptive.last_run_switches or None
        if self._incremental is None or self._incremental.last_run_backend is None:
            return None
        return ((0, self._incremental.last_run_backend),)

    @property
    def trace(self) -> str:
        """The trace mode executions are recorded with."""
        return self._trace

    # ------------------------------------------------------------------ #
    # Single step
    # ------------------------------------------------------------------ #
    def step(self, configuration: Configuration, step_index: int = 0) -> StepResult:
        """Simulate one action from ``configuration``.

        If the configuration is terminal the result has ``terminal=True``
        and echoes the configuration unchanged.
        """
        enabled, action = self._reference_step(configuration, step_index)
        if action is None:
            return StepResult(
                configuration=configuration,
                selection=frozenset(),
                records=(),
                enabled=enabled,
                terminal=True,
            )
        selection, new_configuration, records = action
        return StepResult(
            configuration=new_configuration,
            selection=selection,
            records=records,
            enabled=enabled,
            terminal=False,
        )

    def _reference_step(
        self, configuration: Configuration, step_index: int, fire: bool = True
    ):
        """One step of the reference semantics from ``configuration``.

        Returns ``(enabled, action)``: the enabled set, evaluated from
        scratch, and — when ``fire`` is set and the configuration is not
        terminal — the daemon's ``selection`` with the protocol's successor
        configuration and activation records; otherwise ``action`` is None.
        For stock protocols guards run only once per vertex because the
        enabledness pass is shared with ``Protocol.apply`` (see
        :meth:`Protocol.prepared_step`); protocols overriding hot-path
        methods go through their own ``enabled_vertices``/``apply`` chain
        unchanged.
        """
        protocol = self._protocol
        if self._prepared_ok:
            enabled, prepared = protocol.prepared_step(configuration)
        else:
            enabled, prepared = protocol.enabled_vertices(configuration), None
        if not (fire and enabled):
            return enabled, None
        selection = self._daemon.checked_select(
            enabled, configuration, step_index, self._rng
        )
        if prepared is None:
            successor, records = protocol.apply(configuration, selection)
        else:
            successor, records = protocol.apply(
                configuration, selection, prepared=prepared
            )
        return enabled, (selection, successor, records)

    # ------------------------------------------------------------------ #
    # Full runs
    # ------------------------------------------------------------------ #
    def run(
        self,
        initial: Configuration,
        max_steps: int,
        stop_when: Optional[Callable[[Configuration, int], bool]] = None,
        trace: Optional[str] = None,
    ) -> Execution:
        """Run up to ``max_steps`` actions starting from ``initial``.

        The run stops early when a terminal configuration is reached or when
        ``stop_when(configuration, step_index)`` returns True (the predicate
        is also evaluated on the initial configuration with index 0).

        ``trace`` overrides the simulator's trace mode for this run.
        """
        if max_steps < 0:
            raise SimulationError("max_steps must be non-negative")
        trace = trace if trace is not None else self._trace
        if trace not in TRACE_MODES:
            raise SimulationError(
                f"unknown trace mode {trace!r}; known: {', '.join(TRACE_MODES)}"
            )
        self._daemon.reset()
        if self._engine == "adaptive":
            return self._adaptive.run(
                daemon=self._daemon,
                rng=self._rng,
                initial=initial,
                max_steps=max_steps,
                stop_when=stop_when,
                trace=trace,
            )
        if self._engine == "reference":
            return self._run_reference(initial, max_steps, stop_when, trace)
        return self._incremental.run(
            daemon=self._daemon,
            rng=self._rng,
            initial=initial,
            max_steps=max_steps,
            stop_when=stop_when,
            trace=trace,
            backend=self._engine,
        )

    def _run_reference(
        self,
        initial: Configuration,
        max_steps: int,
        stop_when: Optional[Callable[[Configuration, int], bool]],
        trace: str,
    ) -> Execution:
        """The naive full-rescan semantics — the correctness oracle: every
        configuration is evaluated from scratch (:meth:`_reference_step`)."""
        light = trace == "light"
        configurations: List[Configuration] = [initial]
        selections: List[FrozenSet[VertexId]] = []
        activations: List[Sequence[ActivationRecord]] = []
        enabled_sets: List[FrozenSet[VertexId]] = []
        truncated = True

        current = initial
        for index in range(max_steps + 1):
            stopped = stop_when is not None and stop_when(current, index)
            enabled, action = self._reference_step(
                current, index, fire=not stopped and index < max_steps
            )
            enabled_sets.append(enabled)
            if action is None:
                # A stop, or the budget on a non-terminal configuration,
                # truncates; a terminal configuration ends the execution.
                truncated = stopped or bool(enabled)
                break
            selection, current, records = action
            selections.append(selection)
            activations.append(records)
            if not light:
                configurations.append(current)

        if light:
            return Execution.from_activations(
                initial=initial,
                selections=selections,
                activations=activations,
                enabled_sets=enabled_sets,
                truncated=truncated,
                final=current,
            )
        return Execution(
            configurations=configurations,
            selections=selections,
            activations=activations,
            enabled_sets=enabled_sets,
            truncated=truncated,
        )

    def run_until_terminal(
        self,
        initial: Configuration,
        max_steps: int,
        stop_when: Optional[Callable[[Configuration, int], bool]] = None,
        trace: Optional[str] = "light",
    ) -> Execution:
        """Run until a terminal configuration; raise if the budget is hit.

        Only meaningful for *silent* protocols (BFS tree, matching) that are
        guaranteed to terminate; unison/SSME never terminate.

        ``stop_when`` and ``trace`` are threaded through to :meth:`run`
        (they used to be silently dropped).  ``trace`` defaults to
        ``"light"`` — terminal-seeking callers typically only inspect the
        final configuration, and a light trace reconstructs anything else
        on demand; pass ``trace="full"`` to keep per-step snapshots, or
        ``trace=None`` to defer to the simulator's configured mode (the
        same ``None`` semantics as :meth:`run`).  A ``stop_when`` that
        fires before a terminal configuration truncates the run, which
        therefore raises like an exhausted budget.
        """
        execution = self.run(
            initial,
            max_steps,
            stop_when=stop_when,
            trace=trace,
        )
        if not execution.is_terminal:
            raise SimulationError(
                f"no terminal configuration reached within {max_steps} steps"
            )
        return execution


def synchronous_execution(
    protocol: Protocol, initial: Configuration, steps: int
) -> Execution:
    """Convenience helper: the (unique) synchronous execution prefix.

    Under the synchronous daemon the execution from a configuration is
    deterministic, so no seed is needed.
    """
    from .daemons import SynchronousDaemon

    simulator = Simulator(protocol, SynchronousDaemon(), rng=random.Random(0))
    return simulator.run(initial, max_steps=steps)
