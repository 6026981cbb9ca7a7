"""Exact adversarial model checking for finite-state protocol instances.

The simulation layer (:mod:`repro.core`) *samples* daemon schedules and
initial configurations, so every worst case it reports is a lower bound on
the truth (see the caveat in :mod:`repro.core.stabilization`).  This
package closes that gap on small instances by explicit-state game solving:

* :class:`StateSpace` packs configurations of finite-state protocols
  (those declaring :meth:`repro.core.Protocol.vertex_state_space`) into
  mixed-radix integer keys;
* :class:`TransitionSystem` expands, per configuration, *every* successor a
  daemon class admits (synchronous / central / distributed), over the full
  product space or the reachable closure of an initial region;
* :func:`solve` / :func:`verify_stabilization` run the adversarial game:
  certified legitimate attractor (greatest fixpoint), exact worst-case
  stabilization time (backward value iteration), divergence detection with
  an extracted :class:`LassoCounterexample`, and the exact speculation gap
  (:func:`exact_speculation_gap`).

Two orthogonal accelerations keep exactness while scaling the reach
(``verify_stabilization(engine=..., symmetry=...)`` turns them on):

* :class:`BatchedTransitionSystem` / :func:`solve_arrays`
  (:mod:`repro.verify.batched`) re-run the same exploration and game as
  NumPy array programs over the PR 3 kernel machinery — thousands of
  configurations expanded per kernel call, CSR frontier/value sweeps —
  bit-identical to the dict path and picked automatically when available;
* :class:`SymmetryReducer` (:mod:`repro.verify.symmetry`) quotients the
  exploration by the graph automorphism group when the protocol and the
  specification both declare ``vertex_symmetric`` (up to ``2n``-fold on
  rings).

See ``docs/verify.md`` for the encoding, the expansion rules, the solver
semantics, and when exact verification applies versus sampling.
"""

from .batched import (
    ArrayExploredSystem,
    ArrayGameSolution,
    ArrayPacker,
    BatchedTransitionSystem,
    solve_arrays,
)
from .results import LassoCounterexample, SpeculationGapCertificate, VerificationResult
from .solver import (
    GameSolution,
    exact_speculation_gap,
    exact_worst_case_stabilization,
    solve,
    verify_stabilization,
)
from .statespace import DEFAULT_MAX_ENUMERATED, StateSpace
from .symmetry import SymmetryReducer, ring_automorphisms
from .transitions import (
    DAEMON_CLASSES,
    ExploredSystem,
    TransitionSystem,
    daemon_class_selections,
)

__all__ = [
    "ArrayExploredSystem",
    "ArrayGameSolution",
    "ArrayPacker",
    "BatchedTransitionSystem",
    "DAEMON_CLASSES",
    "DEFAULT_MAX_ENUMERATED",
    "ExploredSystem",
    "GameSolution",
    "LassoCounterexample",
    "SpeculationGapCertificate",
    "StateSpace",
    "SymmetryReducer",
    "TransitionSystem",
    "VerificationResult",
    "daemon_class_selections",
    "exact_speculation_gap",
    "exact_worst_case_stabilization",
    "ring_automorphisms",
    "solve",
    "solve_arrays",
    "verify_stabilization",
]
