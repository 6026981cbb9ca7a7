"""The four benchmark workloads and their correctness checks.

Each workload is built from the run's seed (constructing it is the measured
set-up: imports plus graph, protocol and input construction) and then
repeats one *operation* — the call a user of the library makes — on the
same inputs.  Every operation returns its host seconds, the amount of work
it did (in the workload's own unit) and the *facts* its output must match.

Correctness has two levels:

* invariants that hold for every seed (the Theorem 2 bound, warm == cold,
  adaptive == incremental, strong >= weak with weak <= ceil(diam/2), and
  repeated operations agreeing with each other);
* for the recorded default seed, facts equal to the ones recorded in
  ``expected.json``.

A failed check marks the whole operation failed: all of its calls count in
``failed``.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence


def checksum(data: Any) -> str:
    """Short deterministic digest of JSON-serializable data."""
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def configuration_checksum(configuration) -> str:
    return checksum(sorted((repr(v), repr(s)) for v, s in configuration.as_dict().items()))


class Operation:
    """Outcome of one timed operation; ``work`` counts jobs, simulated steps
    or explored states, as the workload's ``work_per_s`` does."""

    __slots__ = ("seconds", "work", "facts")

    def __init__(self, seconds: float, work: float, facts: Dict[str, Any]) -> None:
        self.seconds = seconds
        self.work = work
        self.facts = facts


class Workload:
    """Base of the workloads; ``tracer`` is set on the traced run only."""

    name = ""
    #: Calls a user makes per operation (jobs, runs or verify calls).
    calls_per_op = 1
    #: Operations a run makes even when they outlast ``--seconds``.
    min_operations = 1
    #: Recorded facts that do not depend on the seed, checked on every seed.
    seed_independent_facts: Sequence[str] = ()

    def __init__(self, seed: int, workdir: Path, tracer=None) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer

    def phase(self, name: str, func: Callable) -> Callable:
        """``func``, recorded as a span named ``name`` when traced."""
        return func if self.tracer is None else self.tracer.wrap(name, func)

    @contextmanager
    def checking(self):
        """Spans inside are correctness reads, not part of the operation."""
        if self.tracer is None:
            yield
            return
        from perf_trace import CHECK

        saved, self.tracer.op_id = self.tracer.op_id, CHECK
        try:
            yield
        finally:
            self.tracer.op_id = saved

    def reference(self) -> Optional[Dict[str, Any]]:
        """Facts computed once, untimed, that every operation must match."""
        return None

    def operation(self) -> Operation:
        raise NotImplementedError

    def invariants(self, facts: Mapping[str, Any], reference: Optional[Mapping[str, Any]]) -> List[str]:
        """Seed-independent checks of one operation's facts."""
        return []

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------- #
# sync-sweep
# ---------------------------------------------------------------------- #
class SyncSweep(Workload):
    """E6 head-to-head through an in-process dispatcher over a fresh store:
    a cold pass, then an identical warm pass served by the store."""

    name = "sync-sweep"
    min_operations = 2
    RING_SIZES = (8, 12, 16, 20, 64, 1000)
    #: Both protocols on every ring, cold and warm.
    calls_per_op = 2 * 2 * len(RING_SIZES)

    def __init__(self, seed: int, workdir: Path, tracer=None) -> None:
        super().__init__(seed, workdir, tracer)
        from repro.experiments import dijkstra_comparison
        from repro.jobs import Dispatcher, ResultStore

        self._driver = dijkstra_comparison
        self._dispatcher_class = Dispatcher
        self._store_class = ResultStore
        workdir.mkdir(parents=True, exist_ok=True)
        self._root = Path(tempfile.mkdtemp(prefix="sync-sweep-", dir=workdir))
        self._passes = 0

    def _sweep(self, dispatcher):
        return self._driver.run_experiment(
            ring_sizes=self.RING_SIZES, seed=self.seed, dispatcher=dispatcher
        )

    def operation(self) -> Operation:
        self._passes += 1
        store_dir = self._root / f"store-{self._passes}"
        with self._dispatcher_class(store=self._store_class(store_dir)) as dispatcher:
            started = time.perf_counter()
            cold = self._sweep(dispatcher)
            cold_done = time.perf_counter()
            cold_stats = dispatcher.last_stats
            warm = self.phase("jobs.warm_pass", self._sweep)(dispatcher)
            warm_stats = dispatcher.last_stats
        shutil.rmtree(store_dir)
        cold_text = cold.to_markdown()
        facts = {
            "passed": cold.passed,
            "ssme_steps": [row["ssme_steps"] for row in cold.rows],
            "ssme_bounds": [row["ssme_bound_ceil_diam_over_2"] for row in cold.rows],
            "dijkstra_steps": [row["dijkstra_steps"] for row in cold.rows],
            "report_checksum": checksum(cold_text),
            "warm_equals_cold": warm.to_markdown() == cold_text,
            "cold_misses": cold_stats.misses,
            "warm_all_hits": warm_stats.all_hits,
        }
        return Operation(cold_done - started, cold_stats.total, facts)

    def invariants(self, facts, reference):
        errors = []
        if not facts["passed"]:
            errors.append("E6 report did not pass")
        for n, steps, bound in zip(self.RING_SIZES, facts["ssme_steps"], facts["ssme_bounds"]):
            if steps is None or steps > bound:
                errors.append(f"ring({n}): SSME took {steps} > ceil(diam/2) = {bound}")
        if not facts["warm_equals_cold"]:
            errors.append("warm report differs from the cold one")
        if not facts["warm_all_hits"]:
            errors.append("warm pass was not served entirely from the store")
        if facts["cold_misses"] != 2 * len(self.RING_SIZES):
            errors.append(f"cold pass missed {facts['cold_misses']} jobs, not all of them")
        return errors

    def close(self) -> None:
        shutil.rmtree(self._root, ignore_errors=True)


# ---------------------------------------------------------------------- #
# central-ring
# ---------------------------------------------------------------------- #
class CentralRing(Workload):
    """``measure_stabilization`` of SSME on ring(3200) under the central
    daemon, light trace, seeded random start, fixed horizon."""

    name = "central-ring"
    min_operations = 5
    N = 3200
    HORIZON = 2000

    def __init__(self, seed: int, workdir: Path, tracer=None) -> None:
        super().__init__(seed, workdir, tracer)
        from repro.core import CentralDaemon, Simulator, measure_stabilization
        from repro.core.stabilization import SafetyMonitor
        from repro.graphs import ring_graph
        from repro.mutex import SSME, MutualExclusionSpec

        self._measure = measure_stabilization
        self._daemon_class = CentralDaemon
        self.protocol = SSME(ring_graph(self.N))
        self.specification = MutualExclusionSpec(self.protocol)
        self.initial = self.protocol.random_configuration(random.Random(seed))
        self._simulator_class = Simulator
        self._monitor_class = SafetyMonitor

    def measure(self, engine: str, horizon: int) -> Dict[str, Any]:
        """One measurement; the run's execution and monitor are read back
        through the two calls ``measure_stabilization`` makes once per run."""
        seen: Dict[str, Any] = {}
        run = self._simulator_class.run
        index = self._monitor_class.stabilization_index

        def capture_run(simulator, *args, **kwargs):
            seen["execution"] = run(simulator, *args, **kwargs)
            return seen["execution"]

        def capture_index(monitor, specification):
            seen["first_unsafe"] = monitor.first_unsafe_index(specification)
            seen["last_unsafe"] = monitor.last_unsafe_index(specification)
            return index(monitor, specification)

        self._simulator_class.run = capture_run
        self._monitor_class.stabilization_index = capture_index
        try:
            started = time.perf_counter()
            measurement = self._measure(
                self.protocol, self._daemon_class(), self.initial, self.specification,
                horizon, rng=random.Random(self.seed + 1), engine=engine,
                trace="light", count_rounds=False,
            )
            seconds = time.perf_counter() - started
        finally:
            self._simulator_class.run = run
            self._monitor_class.stabilization_index = index
        execution = seen["execution"]
        with self.checking():
            return {
                "seconds": seconds,
                "steps": measurement.execution_steps,
                "stabilization_steps": measurement.stabilization_steps,
                "first_unsafe": seen["first_unsafe"],
                "last_unsafe": seen["last_unsafe"],
                "moves": execution.moves(),
                "final_checksum": configuration_checksum(execution.final),
            }

    def operation(self) -> Operation:
        facts = self.measure("auto", self.HORIZON)
        seconds = facts.pop("seconds")
        return Operation(seconds, facts["steps"], facts)

    def invariants(self, facts, reference):
        errors = []
        if facts["steps"] != self.HORIZON:
            errors.append(f"run stopped at {facts['steps']} of {self.HORIZON} steps")
        if facts["stabilization_steps"] is None:
            errors.append("SSME did not stabilize within the horizon")
        return errors


# ---------------------------------------------------------------------- #
# regime-switch
# ---------------------------------------------------------------------- #
class RegimeSwitch(Workload):
    """SSME on ring(1000) under RegimeSwitchingDaemon(192, 768) with the
    adaptive engine, light trace, reading ``execution.final`` as E10 does."""

    name = "regime-switch"
    N = 1000
    DENSE, SPARSE = 192, 768
    HORIZON = 3 * (192 + 768)

    def __init__(self, seed: int, workdir: Path, tracer=None) -> None:
        super().__init__(seed, workdir, tracer)
        from repro.core import RegimeSwitchingDaemon, Simulator
        from repro.graphs import ring_graph
        from repro.mutex import SSME

        self._daemon_class = RegimeSwitchingDaemon
        self._simulator_class = Simulator
        self.protocol = SSME(ring_graph(self.N))
        self.initial = self.protocol.random_configuration(random.Random(seed))

    def run(self, engine: str) -> Dict[str, Any]:
        simulator = self._simulator_class(
            self.protocol,
            self._daemon_class(self.DENSE, self.SPARSE),
            rng=random.Random(self.seed + 1),
            engine=engine,
            trace="light",
        )
        started = time.perf_counter()
        execution = simulator.run(self.initial, max_steps=self.HORIZON)
        final = execution.final
        seconds = time.perf_counter() - started
        with self.checking():
            return {
                "seconds": seconds,
                "steps": execution.steps,
                "moves": execution.moves(),
                "final_checksum": configuration_checksum(final),
            }

    def reference(self):
        with self.checking():
            facts = self.run("incremental")
        facts.pop("seconds")
        return facts

    def operation(self) -> Operation:
        facts = self.run("adaptive")
        seconds = facts.pop("seconds")
        return Operation(seconds, facts["steps"], facts)

    def invariants(self, facts, reference):
        return [
            f"adaptive {key} {facts[key]!r} != incremental {reference[key]!r}"
            for key in ("steps", "moves", "final_checksum")
            if facts[key] != reference[key]
        ]


# ---------------------------------------------------------------------- #
# exact-check
# ---------------------------------------------------------------------- #
class ExactCheck(Workload):
    """Exact Definition 4 gap (central vs synchronous, batched engine) on
    SSME ring(10) over the seeded ``mutex_workload`` region and on the
    unison ring(6) full product under the symmetry quotient."""

    name = "exact-check"
    calls_per_op = 4
    seed_independent_facts = ("unison-ring6-quotient",)
    MAX_STATES = 20_000_000

    def __init__(self, seed: int, workdir: Path, tracer=None) -> None:
        super().__init__(seed, workdir, tracer)
        from repro.experiments.workloads import mutex_workload
        from repro.graphs import ring_graph
        from repro.mutex import SSME, MutualExclusionSpec
        from repro.unison import AsynchronousUnison, AsynchronousUnisonSpec
        from repro.verify import exact_speculation_gap

        self._gap = exact_speculation_gap
        ssme = SSME(ring_graph(10))
        unison = AsynchronousUnison(ring_graph(6), alpha=4, K=8)
        self.ssme_bound = ssme.synchronous_stabilization_bound()
        self.instances = {
            "ssme-ring10-region": (
                ssme, MutualExclusionSpec(ssme),
                mutex_workload(ssme, random.Random(seed), random_count=6), False,
            ),
            "unison-ring6-quotient": (
                unison, AsynchronousUnisonSpec(unison), None, True,
            ),
        }

    def operation(self) -> Operation:
        facts: Dict[str, Any] = {}
        states = 0
        started = time.perf_counter()
        for label, (protocol, specification, region, symmetry) in self.instances.items():
            gap = self._gap(
                protocol, specification, "central", "synchronous", region,
                engine="batched", max_states=self.MAX_STATES, symmetry=symmetry,
            )
            facts[label] = {
                "strong_states": gap.strong.state_count,
                "strong_transitions": gap.strong.transition_count,
                "strong_worst": gap.strong.exact_worst_case,
                "weak_states": gap.weak.state_count,
                "weak_worst": gap.weak.exact_worst_case,
            }
            states += gap.strong.state_count + gap.weak.state_count
        return Operation(time.perf_counter() - started, states, facts)

    def invariants(self, facts, reference):
        errors = []
        for label, row in facts.items():
            if row["strong_worst"] is None or row["weak_worst"] is None:
                errors.append(f"{label}: an instance does not stabilize")
            elif row["strong_worst"] < row["weak_worst"]:
                errors.append(f"{label}: strong worst {row['strong_worst']} < weak {row['weak_worst']}")
        weak = facts["ssme-ring10-region"]["weak_worst"]
        if weak is not None and weak > self.ssme_bound:
            errors.append(f"SSME ring(10) synchronous worst {weak} > ceil(diam/2) = {self.ssme_bound}")
        return errors


WORKLOADS: Dict[str, type] = {
    workload.name: workload for workload in (SyncSweep, CentralRing, RegimeSwitch, ExactCheck)
}


def check_operations(
    workload: Workload,
    operations: Sequence[Operation],
    reference: Optional[Mapping[str, Any]],
    expected: Optional[Mapping[str, Any]],
    default_seed: bool,
    crash: Optional[str] = None,
) -> Dict[str, Any]:
    """Count attempted and failed calls over a run's operations.

    ``expected`` holds the recorded facts of the default seed; on any other
    seed only its seed-independent entries are compared.  ``crash`` is the
    error that ended the run, if an operation raised: that operation counts
    as attempted and failed.
    """
    errors: List[str] = []
    failed = 0
    if crash is not None:
        failed += workload.calls_per_op
        errors.append(f"operation {len(operations)} raised: {crash.strip().splitlines()[-1]}")
    for number, operation in enumerate(operations):
        problems = list(workload.invariants(operation.facts, reference))
        if operation.facts != operations[0].facts:
            problems.append("facts differ from the run's first operation")
        if expected is not None:
            keys = expected if default_seed else workload.seed_independent_facts
            problems.extend(
                f"{key}: {operation.facts.get(key)!r} != recorded {expected[key]!r}"
                for key in keys
                if operation.facts.get(key) != expected[key]
            )
        if problems:
            failed += workload.calls_per_op
            errors.extend(f"operation {number}: {problem}" for problem in problems)
    return {
        "attempted": workload.calls_per_op * (len(operations) + (crash is not None)),
        "failed": failed,
        "errors": errors,
    }
