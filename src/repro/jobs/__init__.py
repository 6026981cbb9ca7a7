"""Job-oriented experiment service layer.

The experiment drivers used to be one-shot CLI scripts: every invocation
re-simulated its whole sweep from scratch.  This package restructures them
as a small service:

* :mod:`repro.jobs.spec` — declarative, content-addressed job descriptions
  (:class:`JobSpec`): protocol family × graph spec × daemon spec × pre-drawn
  seeds × horizon × metric set, with a canonical JSON form and a stable
  ``spec_key`` hash that folds in a per-driver code-version tag.
* :mod:`repro.jobs.pool` — :class:`WorkerPool`, the persistent process
  pool (ordered results, per-task error context, streamed completion
  callbacks).
* :mod:`repro.jobs.store` — :class:`ResultStore`, the content-addressed
  on-disk result cache (atomic writes, versioned schema), and
  :class:`Journal`, the per-sweep completion log behind resume/status.
* :mod:`repro.jobs.dispatcher` — :class:`Dispatcher`, which partitions a
  job list into cache hits and misses, feeds the misses to the pool,
  checkpoints every completed job, and returns results in job order so
  sequential, parallel and resumed executions aggregate identically.

Drivers *emit* their trial grids as ``JobSpec`` lists and aggregate the
dispatcher's results; see ``docs/experiments.md`` for the architecture and
the ``spec_key`` contract.
"""

from .dispatcher import DispatchStats, Dispatcher, ProgressEvent, execute_job
from .pool import WorkerPool
from .spec import JobSpec, canonical_json, freeze
from .store import Journal, ResultStore

__all__ = [
    "DispatchStats",
    "Dispatcher",
    "Journal",
    "JobSpec",
    "ProgressEvent",
    "ResultStore",
    "WorkerPool",
    "canonical_json",
    "execute_job",
    "freeze",
]
