"""Tests of the benchmark harness itself (no workload is run).

Run with ``python3 -m pytest perfbench/tests`` from the root of a checkout.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import perf_trace  # noqa: E402
import perf_workloads  # noqa: E402
import run  # noqa: E402


class FakeClock:
    """Clock returning scripted instants, one per call."""

    def __init__(self, instants):
        self._instants = iter(instants)

    def __call__(self):
        return next(self._instants)


def test_self_time_subtracts_covered_children():
    # outer [0, 10] with children [1, 3] and [5, 6]; the second child has a
    # grandchild [5.5, 5.8] that must not be subtracted from outer again.
    tracer = perf_trace.Tracer(clock=FakeClock([0, 1, 3, 5, 5.5, 5.8, 6, 10]))

    def grandchild():
        return None

    def child_a():
        return None

    def child_b():
        tracer.wrap("g", grandchild)()

    def outer():
        tracer.wrap("a", child_a)()
        tracer.wrap("b", child_b)()

    tracer.wrap("outer", outer)()
    spans = tracer.spans
    children = perf_trace.children_of(spans)
    assert [span.name for span in spans] == ["outer", "a", "b", "g"]
    assert perf_trace.self_time(spans, 0, children) == pytest.approx(10 - 2 - 1)
    assert perf_trace.self_time(spans, 2, children) == pytest.approx(1 - 0.3)
    assert perf_trace.self_time(spans, 3, children) == pytest.approx(0.3)


def test_self_time_counts_overlapping_children_once():
    spans = [perf_trace.Span("p", 0.0, -1, 0)]
    spans[0].end = 10.0
    for start, end in ((1.0, 4.0), (3.0, 5.0), (9.0, 12.0)):
        span = perf_trace.Span("c", start, 0, 0)
        span.end = end
        spans.append(span)
    # covered: [1, 5] plus [9, 10] clipped to the parent
    assert perf_trace.self_time(spans, 0, perf_trace.children_of(spans)) == pytest.approx(5.0)


def test_span_weights_setup_operations_and_checks():
    tracer = perf_trace.Tracer(clock=FakeClock([0, 1, 2, 4, 5, 8, 9, 19]))
    work = tracer.wrap("work", lambda: None)
    work()  # set-up: 1 s, full weight
    tracer.op_id = 0
    work()  # 2 s
    tracer.op_id = 1
    work()  # 3 s
    tracer.op_id = perf_trace.CHECK
    work()  # 10 s, ignored
    index = perf_trace.SpanIndex(tracer.spans, operations=2)
    selected = list(index.select(perf_trace.named("work")))
    assert index.seconds(selected) == pytest.approx(1 + (2 + 3) / 2)
    assert index.calls(selected) == pytest.approx(1 + 2 / 2)


def test_nested_spans_of_one_name_count_once():
    tracer = perf_trace.Tracer(clock=FakeClock([0, 1, 2, 3]))
    inner = tracer.wrap("layer", lambda: None)
    tracer.wrap("layer", inner)()
    index = perf_trace.SpanIndex(tracer.spans, operations=1)
    assert list(index.select(perf_trace.named("layer"))) == [0]


def test_layer_metrics_cover_every_declared_per_layer_metric():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    declared = {item["name"] for item in spec["per_layer"]}
    produced = set(perf_trace.layer_metrics([], operations=1)) | {"trace.overhead_frac"}
    assert produced == declared


@pytest.mark.parametrize(
    "name", ["run_s", "core.vector.fire_per_step", "jobs.store-get", "a", "9lives"]
)
def test_metric_names_accepted(name):
    assert perf_trace.validate_metric_name(name) == name


@pytest.mark.parametrize(
    "name", ["", "has space", "slash/name", "_leading", ".dot", "x" * 65, "ünïcode", None]
)
def test_metric_names_rejected(name):
    with pytest.raises(ValueError):
        perf_trace.validate_metric_name(name)


def test_benchmark_json_names_are_valid():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    names = [item["name"] for key in ("workloads", "end_to_end", "per_layer") for item in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        perf_trace.validate_metric_name(name)


class StubWorkload(perf_workloads.Workload):
    name = "stub"
    calls_per_op = 3

    def invariants(self, facts, reference):
        return [] if facts["value"] >= 0 else ["negative value"]


def operations(*values):
    return [perf_workloads.Operation(1.0, 1, {"value": value, "label": "x"}) for value in values]


def test_failed_counts_every_call_of_a_wrong_operation():
    workload = StubWorkload(0, Path("."))
    ok = perf_workloads.check_operations(workload, operations(5, 5), None, {"value": 5}, True)
    assert (ok["attempted"], ok["failed"], ok["errors"]) == (6, 0, [])
    wrong = perf_workloads.check_operations(workload, operations(5, 5), None, {"value": 6}, True)
    assert (wrong["attempted"], wrong["failed"]) == (6, 6)
    assert "recorded 6" in wrong["errors"][0]


def test_recorded_facts_only_bind_the_default_seed():
    workload = StubWorkload(0, Path("."))
    held_out = perf_workloads.check_operations(workload, operations(5), None, {"value": 6}, False)
    assert held_out["failed"] == 0


def test_invariants_and_disagreeing_operations_fail():
    workload = StubWorkload(0, Path("."))
    outcome = perf_workloads.check_operations(workload, operations(5, -1), None, None, False)
    assert outcome["failed"] == 3
    assert any("negative value" in error for error in outcome["errors"])
    assert any("differ" in error for error in outcome["errors"])


def test_a_raising_operation_counts_as_attempted_and_failed():
    workload = StubWorkload(0, Path("."))
    crash = "Traceback (most recent call last):\nVerificationError: cap exceeded\n"
    outcome = perf_workloads.check_operations(workload, operations(5), None, None, False, crash)
    assert (outcome["attempted"], outcome["failed"]) == (6, 3)
    assert outcome["errors"] == ["operation 1 raised: VerificationError: cap exceeded"]


def test_seed_independent_facts_bind_every_seed():
    workload = StubWorkload(0, Path("."))
    workload.seed_independent_facts = ("unison-ring6-quotient",)
    facts = [perf_workloads.Operation(1.0, 1, {"value": 1, "unison-ring6-quotient": {"worst": 9}})]
    expected = {"value": 2, "unison-ring6-quotient": {"worst": 10}}
    outcome = perf_workloads.check_operations(workload, facts, None, expected, False)
    assert outcome["failed"] == 3
    assert len(outcome["errors"]) == 1 and "unison-ring6-quotient" in outcome["errors"][0]


@pytest.mark.parametrize("name", ["../expected.json", "../../BENCHMARK.json", "sub/x.json"])
def test_runs_never_write_recorded_files(name):
    with pytest.raises(ValueError):
        run.results_path(name)


def test_runs_write_under_results():
    assert run.results_path("central-ring-seed1-trace0.json").parent == run.RESULTS.resolve()
