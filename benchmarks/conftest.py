"""Shared helpers for the benchmark harness.

Each benchmark regenerates one artefact of the paper (see the experiment
drivers in docs/experiments.md) by running the corresponding driver
exactly once under pytest-benchmark (the drivers are deterministic, so
repeated rounds would only re-measure the same numbers) and printing the
resulting paper-vs-measured table.  Run them with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

from typing import Callable

from repro.experiments import ExperimentReport


def run_report_benchmark(benchmark, driver: Callable[..., ExperimentReport], **kwargs) -> ExperimentReport:
    """Run ``driver(**kwargs)`` once under the benchmark fixture and print it."""
    report = benchmark.pedantic(lambda: driver(**kwargs), rounds=1, iterations=1)
    print()
    print(report.to_text())
    return report
