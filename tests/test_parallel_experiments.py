"""Tests for opt-in process parallelism in the experiment sweeps.

The contract under test: ``workers=`` must never change any reported
number — the task lists carry pre-drawn seeds, so sequential and parallel
execution aggregate identical results — and the :class:`WorkerPool` the
drivers fan out through must be an order-preserving map with a
zero-overhead sequential default.  Every pool case runs sequentially and
with two worker processes.
"""

from __future__ import annotations

import pytest

from repro.exceptions import JobError
from repro.experiments import theorem2_sync_upper, theorem3_async_upper
from repro.jobs import WorkerPool


def _square(x):
    return x * x


def _reciprocal(x):
    return 1 / x


def _map(worker, tasks, workers):
    with WorkerPool(workers) as pool:
        return pool.run(worker, tasks)


@pytest.mark.parametrize("workers", [None, 2])
class TestWorkerPoolMap:
    def test_preserves_order(self, workers):
        assert _map(_square, [3, 1, 2], workers) == [9, 1, 4]
        assert _map(_square, list(range(7)), workers) == [x * x for x in range(7)]

    def test_empty_input(self, workers):
        assert _map(_square, [], workers) == []

    def test_more_workers_than_tasks(self, workers):
        wide = 4 if workers is None else workers + 2
        assert _map(_square, [5], wide) == [25]
        assert _map(_square, [5, 6, 7], wide) == [25, 36, 49]

    def test_negative_workers_rejected(self, workers):
        with pytest.raises(ValueError):
            WorkerPool(-1 if workers is None else -workers)

    def test_worker_failure_names_the_task(self, workers):
        with pytest.raises(JobError) as info:
            _map(_reciprocal, [2, 1, 0, 5], workers)
        message = str(info.value)
        assert "task 2" in message
        assert "ZeroDivisionError" in message
        assert "task: 0" in message
        assert isinstance(info.value.__cause__, ZeroDivisionError)


class TestTheoremDriversParallel:
    """workers= is observationally inert for the experiment drivers."""

    SWEEP2 = (("ring", 6), ("star", 5))
    SWEEP3 = (("ring", 5),)

    def test_theorem2_workers_do_not_change_results(self):
        sequential = theorem2_sync_upper.run_experiment(
            sweep=self.SWEEP2, random_configurations_per_graph=3, seed=17
        )
        parallel = theorem2_sync_upper.run_experiment(
            sweep=self.SWEEP2, random_configurations_per_graph=3, seed=17, workers=3
        )
        assert parallel.rows == sequential.rows
        assert parallel.summary == sequential.summary
        assert parallel.passed == sequential.passed

    def test_theorem3_workers_do_not_change_results(self):
        sequential = theorem3_async_upper.run_experiment(
            sweep=self.SWEEP3, random_configurations_per_graph=2, seed=17
        )
        parallel = theorem3_async_upper.run_experiment(
            sweep=self.SWEEP3, random_configurations_per_graph=2, seed=17, workers=2
        )
        assert parallel.rows == sequential.rows
        assert parallel.summary == sequential.summary
        assert parallel.passed == sequential.passed

    def test_theorem3_custom_daemon_factories_run_sequentially(self):
        """Custom factories hold closures; workers= must degrade, not crash."""
        from repro.core import CentralDaemon

        factories = (("cd", CentralDaemon), ("cd-again", lambda: CentralDaemon("first")))
        report = theorem3_async_upper.run_experiment(
            sweep=self.SWEEP3,
            daemon_factories=factories,
            random_configurations_per_graph=1,
            seed=3,
            workers=4,
        )
        row = report.rows[0]
        assert "unison_steps[cd-again]" in row
