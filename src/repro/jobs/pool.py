"""Persistent process worker pool with ordered results and task context.

:class:`WorkerPool` is the one process-parallel primitive of the
experiment sweeps: an order-preserving map with a zero-overhead sequential
default (the caller pre-draws every seed, so ``workers=`` never changes
results), plus

* a **persistent** executor — one pool instance serves any number of
  ``run`` calls (one per driver in a multi-experiment sweep) without
  re-spawning processes between them;
* **per-task error context** — a worker exception is re-raised as
  :class:`~repro.exceptions.JobError` carrying the task index and a
  ``repr`` of the task, with the original exception chained as
  ``__cause__``;
* **streamed completion callbacks** — ``on_result(index, result)`` fires
  as each task finishes (completion order under parallelism), which is how
  the dispatcher checkpoints every completed job before the sweep ends.

Tasks must be picklable values and workers module-level functions:
protocol objects hold rule closures and are rebuilt inside the
worker from primitive parameters.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, List, Optional, Sequence, TypeVar

from ..exceptions import JobError

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["WorkerPool"]


def _pool_context():
    """The multiprocessing context to run pools under (prefer ``fork``:
    cheap, inherits ``sys.path``)."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _task_error(index: int, task: object, exc: BaseException) -> JobError:
    detail = repr(task)
    if len(detail) > 500:
        detail = detail[:500] + "...<truncated>"
    return JobError(
        f"worker task {index} failed with {type(exc).__name__}: {exc}\n"
        f"task: {detail}"
    )


class WorkerPool:
    """An order-preserving, optionally process-parallel task mapper.

    ``workers`` of ``None``, ``0`` or ``1`` (the default) makes every
    :meth:`run` a plain sequential in-process loop — no pool, no pickling.
    Larger values lazily start a ``ProcessPoolExecutor`` of at most
    ``workers`` processes that persists across :meth:`run` calls until
    :meth:`close` (the pool is also a context manager).
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.workers = workers
        self._executor = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def parallel(self) -> bool:
        """Whether this pool fans tasks across processes."""
        return bool(self.workers) and self.workers > 1

    def _ensure_executor(self):
        if self._executor is None:
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=_pool_context()
            )
        return self._executor

    def close(self) -> None:
        """Shut the underlying process pool down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Mapping
    # ------------------------------------------------------------------ #
    def run(
        self,
        worker: Callable[[T], R],
        tasks: Sequence[T],
        on_result: Optional[Callable[[int, R], None]] = None,
    ) -> List[R]:
        """``[worker(t) for t in tasks]`` with ordered results.

        ``on_result(index, result)`` is invoked once per finished task —
        in task order sequentially, in completion order under parallelism —
        before the call returns; the dispatcher uses it to checkpoint
        completed jobs.  A failing task aborts the run with a
        :class:`~repro.exceptions.JobError` naming the task.
        """
        tasks = list(tasks)
        if not self.parallel or len(tasks) <= 1:
            results: List[R] = []
            for index, task in enumerate(tasks):
                try:
                    result = worker(task)
                except Exception as exc:
                    raise _task_error(index, task, exc) from exc
                if on_result is not None:
                    on_result(index, result)
                results.append(result)
            return results

        from concurrent.futures import FIRST_COMPLETED, wait

        executor = self._ensure_executor()
        futures = {executor.submit(worker, task): index for index, task in enumerate(tasks)}
        slots: List[Optional[R]] = [None] * len(tasks)
        pending = set(futures)
        try:
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    index = futures[future]
                    exc = future.exception()
                    if exc is not None:
                        raise _task_error(index, tasks[index], exc) from exc
                    result = future.result()
                    slots[index] = result
                    if on_result is not None:
                        on_result(index, result)
        except BaseException:
            for future in pending:
                future.cancel()
            raise
        return slots  # type: ignore[return-value]
