"""Span tracing of the library's layers, installed from the benchmark's side.

The traced run of the benchmark wraps the public entry points of each layer
of ``repro`` (no file under ``src/`` changes).  Every call through a wrapped
entry point records one span ``{name, start, end, parent, op_id}``; spans
are kept in memory and written out when the run ends.  A span's *self
time* is its duration minus the part of its interval covered by its child
spans.

Per-layer metrics describe one set-up plus one operation: spans recorded
while the workload is set up count in full, spans recorded during the
measured operations count divided by the number of operations.  Counts use
the same weighting, so both are comparable across runs of different
lengths.
"""

from __future__ import annotations

import gzip
import json
import re
import resource
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: The metric-name grammar shared with ``BENCHMARK.json``.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: ``op_id`` of spans recorded while the workload is set up.
SETUP = "setup"
#: ``op_id`` of spans recorded while outputs are read for the correctness
#: check; they belong to no operation and carry no weight.
CHECK = "check"


def validate_metric_name(name: str) -> str:
    """Return ``name`` if it is a legal metric name, else raise ValueError."""
    if not isinstance(name, str) or METRIC_NAME.fullmatch(name) is None:
        raise ValueError(f"illegal metric name {name!r}")
    return name


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Span:
    """One call through a wrapped entry point."""

    __slots__ = ("name", "start", "end", "parent", "op_id", "info")

    def __init__(self, name: str, start: float, parent: int, op_id: Any) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op_id = op_id
        self.info: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; ``op_id`` tags the spans of the current
    operation (:data:`SETUP` while the workload is being built)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: List[Span] = []
        self.op_id: Any = SETUP
        self._open: List[int] = []
        self._clock = clock

    def wrap(
        self,
        name: str,
        func: Callable,
        info: Optional[Callable[[tuple, Any], Any]] = None,
    ) -> Callable:
        """``func`` recording one span per call; ``info(args, result)``
        attaches call facts (a backend, a step count) to the span."""
        validate_metric_name(name)
        spans, open_spans, clock = self.spans, self._open, self._clock

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, clock(), open_spans[-1] if open_spans else -1, self.op_id)
            spans.append(span)
            open_spans.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = clock()
                open_spans.pop()
            if info is not None:
                span.info = info(args, result)
            return result

        traced.__name__ = getattr(func, "__name__", name)
        traced.__doc__ = getattr(func, "__doc__", None)
        traced.__wrapped__ = func
        return traced


def write_spans(spans: Sequence[Span], path) -> None:
    """Write ``spans`` as gzipped columnar JSON: one list per field, span
    names interned in ``names`` and ``parent`` indexing the same lists."""
    names: Dict[str, int] = {}
    columns: Dict[str, List[Any]] = {
        field: [] for field in ("name", "start", "end", "parent", "op_id", "info")
    }
    for span in spans:
        columns["name"].append(names.setdefault(span.name, len(names)))
        columns["start"].append(span.start)
        columns["end"].append(span.end)
        columns["parent"].append(span.parent)
        columns["op_id"].append(span.op_id)
        columns["info"].append(span.info)
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        json.dump({"names": list(names), **columns}, handle, separators=(",", ":"))


# ---------------------------------------------------------------------- #
# Span arithmetic
# ---------------------------------------------------------------------- #
def children_of(spans: Sequence[Span]) -> List[List[int]]:
    children: List[List[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    return children


def self_time(spans: Sequence[Span], index: int, children: Sequence[Sequence[int]]) -> float:
    """Duration of ``spans[index]`` minus the union of its children's
    intervals (clipped to the span)."""
    span = spans[index]
    intervals = sorted(
        (max(spans[c].start, span.start), min(spans[c].end, span.end))
        for c in children[index]
    )
    covered = 0.0
    cursor = span.start
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return span.duration - covered


class SpanIndex:
    """Queries over one run's spans, weighted per operation."""

    def __init__(self, spans: Sequence[Span], operations: int) -> None:
        self.spans = spans
        self.children = children_of(spans)
        self._per_op = 1.0 / max(1, operations)
        self._by_name: Dict[str, List[int]] = {}
        for index, span in enumerate(spans):
            self._by_name.setdefault(span.name, []).append(index)

    def weight(self, span: Span) -> float:
        if span.op_id == CHECK:
            return 0.0
        return 1.0 if span.op_id == SETUP else self._per_op

    def has_ancestor(self, index: int, test: Callable[[str], bool]) -> bool:
        parent = self.spans[index].parent
        while parent >= 0:
            if test(self.spans[parent].name):
                return True
            parent = self.spans[parent].parent
        return False

    def select(
        self,
        test: Callable[[str], bool],
        under: Optional[Callable[[str], bool]] = None,
    ) -> Iterable[int]:
        """Outermost spans passing ``test`` (a span nested in another
        passing span is not counted twice), optionally only those with an
        ancestor passing ``under``."""
        for name in sorted(self._by_name):
            if not test(name):
                continue
            for index in self._by_name[name]:
                if self.has_ancestor(index, test):
                    continue
                if under is not None and not self.has_ancestor(index, under):
                    continue
                yield index

    def seconds(self, indices: Iterable[int]) -> float:
        return sum(self.weight(self.spans[i]) * self.spans[i].duration for i in indices)

    def self_seconds(self, indices: Iterable[int]) -> float:
        return sum(
            self.weight(self.spans[i]) * self_time(self.spans, i, self.children)
            for i in indices
        )

    def calls(self, indices: Iterable[int]) -> float:
        return sum(self.weight(self.spans[i]) for i in indices)

    def info_sum(self, indices: Iterable[int], position: Optional[int] = None) -> float:
        total = 0.0
        for i in indices:
            value = self.spans[i].info
            if position is not None:
                value = value[position]
            total += self.weight(self.spans[i]) * value
        return total


def named(name: str) -> Callable[[str], bool]:
    return lambda candidate: candidate == name


def prefixed(prefix: str) -> Callable[[str], bool]:
    return lambda candidate: candidate.startswith(prefix)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: Sequence[Span], operations: int) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` except
    ``trace.overhead_frac`` (which needs the untraced run)."""
    ix = SpanIndex(spans, operations)
    unison_kernel = prefixed("unison.array_kernel.")
    mutex_kernel = prefixed("mutex.array_kernel.")

    def any_kernel(name: str) -> bool:
        return unison_kernel(name) or mutex_kernel(name)

    engine_runs = list(ix.select(named("core.engine.run")))
    dict_runs = [i for i in engine_runs if spans[i].info == "dict"]
    adaptive_runs = [i for i in engine_runs if ix.has_ancestor(i, named("adaptive.run"))]
    supersteps = list(ix.select(named("core.vector.superstep")))
    superstep_fires = ix.calls(
        ix.select(lambda name: name.endswith("array_kernel.fire"), under=named("core.vector.superstep"))
    )
    explores = list(ix.select(named("verify.explore")))
    states = ix.info_sum(explores, 0)
    transitions = ix.info_sum(explores, 1)
    dispatches = list(ix.select(named("jobs.dispatch")))
    return {
        "graphs.diameter_s": ix.seconds(ix.select(named("graphs.diameter"))),
        "core.daemons.select_calls": ix.calls(ix.select(named("core.daemons.select"))),
        "core.daemons.select_s": ix.seconds(ix.select(named("core.daemons.select"))),
        "core.stabilization.observe_calls": ix.calls(ix.select(named("core.stabilization.observe"))),
        "core.stabilization.observe_s": ix.seconds(ix.select(named("core.stabilization.observe"))),
        "core.engine.dict_self_s": ix.self_seconds(dict_runs),
        "core.vector.superstep_s": ix.seconds(supersteps),
        "core.vector.fire_per_step": _ratio(superstep_fires, ix.info_sum(supersteps)),
        "core.vector.step_s": ix.seconds(ix.select(named("core.vector.step"))),
        "core.execution.materialize_s": ix.seconds(ix.select(named("core.execution.materialize"))),
        "unison.array_kernel.calls": ix.calls(ix.select(unison_kernel)),
        "unison.array_kernel.s": ix.seconds(ix.select(unison_kernel)),
        "mutex.array_kernel.calls": ix.calls(ix.select(mutex_kernel)),
        "mutex.array_kernel.s": ix.seconds(ix.select(mutex_kernel)),
        "adaptive.switches": ix.info_sum(ix.select(named("adaptive.run"))),
        "adaptive.observe_s": ix.seconds(ix.select(named("adaptive.observe"))),
        "adaptive.dict_s": ix.seconds(i for i in adaptive_runs if spans[i].info == "dict"),
        "adaptive.vector_s": ix.seconds(i for i in adaptive_runs if spans[i].info != "dict"),
        "jobs.emit_s": ix.seconds(ix.select(named("jobs.emit"))),
        "jobs.spec_key_s": ix.seconds(ix.select(named("jobs.spec_key"))),
        "jobs.store_get_s": ix.seconds(ix.select(named("jobs.store_get"))),
        "jobs.store_put_s": ix.seconds(ix.select(named("jobs.store_put"))),
        "jobs.hits": ix.info_sum(dispatches, 0),
        "jobs.misses": ix.info_sum(dispatches, 1),
        "jobs.run_job_s": ix.seconds(ix.select(named("jobs.run_job"))),
        "jobs.dispatch_self_s": ix.self_seconds(dispatches),
        "jobs.warm_s": ix.seconds(ix.select(named("jobs.warm_pass"))),
        "verify.explore_s": ix.seconds(explores),
        "verify.kernel_s": ix.seconds(ix.select(any_kernel, under=named("verify.explore"))),
        "verify.pack_s": ix.seconds(ix.select(named("verify.pack"))),
        "verify.canonicalize_s": ix.seconds(ix.select(named("verify.canonicalize"))),
        "verify.dedup_self_s": ix.self_seconds(explores),
        "verify.solve_s": ix.seconds(ix.select(named("verify.solve"))),
        "verify.states": states,
        "verify.transitions": transitions,
        "verify.states_per_transition": _ratio(states, transitions),
        "verify.explore_rss_mb": max((spans[i].info[2] for i in explores), default=0.0),
    }


# ---------------------------------------------------------------------- #
# Installing the wrappers
# ---------------------------------------------------------------------- #
def replace_function(original: Callable, replacement: Callable) -> int:
    """Rebind every ``repro`` module attribute bound to ``original``
    (``from x import f`` copies the binding into each importer)."""
    rebound = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)
                rebound += 1
    return rebound


def wrap_method(tracer: Tracer, owner: type, attribute: str, name: str, info=None) -> None:
    current = owner.__dict__[attribute]
    if isinstance(current, property):
        setattr(owner, attribute, property(tracer.wrap(name, current.fget, info)))
    else:
        setattr(owner, attribute, tracer.wrap(name, current, info))


def _explore_info(args: tuple, system) -> Tuple[int, int, float]:
    return (system.state_count, system.transition_count, peak_rss_mb())


def install(tracer: Tracer) -> None:
    """Wrap the public entry point of every measured layer."""
    from repro.adaptive.detector import RegimeDetector
    from repro.adaptive.switching import AdaptiveEngine
    from repro.core.daemons import Daemon
    from repro.core.engine import IncrementalEngine
    from repro.core.execution import Execution
    from repro.core.stabilization import SafetyMonitor
    from repro.core.vector import VectorEngine
    from repro.experiments import dijkstra_comparison
    from repro.graphs import properties
    from repro.jobs import Dispatcher, JobSpec, ResultStore
    from repro.mutex.array_kernel import DijkstraArrayKernel
    from repro.unison.array_kernel import UnisonArrayKernel
    from repro.verify import batched
    from repro.verify.symmetry import SymmetryReducer

    for original, name in (
        (properties.diameter, "graphs.diameter"),
        (dijkstra_comparison.emit_jobs, "jobs.emit"),
        (dijkstra_comparison.run_job, "jobs.run_job"),
        (batched.solve_arrays, "verify.solve"),
    ):
        replace_function(original, tracer.wrap(name, original))

    wrap_method(tracer, Daemon, "checked_select", "core.daemons.select")
    wrap_method(tracer, SafetyMonitor, "observe", "core.stabilization.observe")
    wrap_method(
        tracer, IncrementalEngine, "run", "core.engine.run",
        info=lambda args, result: args[0].last_run_backend,
    )
    wrap_method(
        tracer, VectorEngine, "run_supersteps", "core.vector.superstep",
        info=lambda args, result: result.steps,
    )
    wrap_method(tracer, VectorEngine, "run", "core.vector.step")
    wrap_method(tracer, Execution, "final", "core.execution.materialize")
    wrap_method(tracer, Execution, "configuration", "core.execution.materialize")
    for kernel, family in ((UnisonArrayKernel, "unison"), (DijkstraArrayKernel, "mutex")):
        for method in ("enabled_rules", "enabled_rules_for", "fire"):
            wrap_method(tracer, kernel, method, f"{family}.array_kernel.{method}")
    wrap_method(
        tracer, AdaptiveEngine, "run", "adaptive.run",
        info=lambda args, result: len(args[0].last_run_switches) - 1,
    )
    wrap_method(tracer, RegimeDetector, "observe", "adaptive.observe")
    wrap_method(tracer, JobSpec, "spec_key", "jobs.spec_key")
    wrap_method(tracer, ResultStore, "get", "jobs.store_get")
    wrap_method(tracer, ResultStore, "put", "jobs.store_put")
    wrap_method(
        tracer, Dispatcher, "run", "jobs.dispatch",
        info=lambda args, result: (args[0].last_stats.hits, args[0].last_stats.misses),
    )
    for method in ("explore", "explore_full"):
        wrap_method(tracer, batched.BatchedTransitionSystem, method, "verify.explore", info=_explore_info)
    for method in ("indices_of", "key_columns"):
        wrap_method(tracer, batched.ArrayPacker, method, "verify.pack")
    wrap_method(tracer, SymmetryReducer, "canonicalize_index_matrix", "verify.canonicalize")
