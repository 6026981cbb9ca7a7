"""Online regime detection from the activation stream.

The paper's speculation trade-off (optimize for the synchronous schedule,
stay correct under the adversarial one) is resolved *statically* everywhere
else in the library: backend selection reads the declared
:attr:`~repro.core.Daemon.density` hint once, and the speculative-vs-
conservative comparison runs offline.  :class:`RegimeDetector` is the
online half — a streaming estimator that watches the selections a daemon
actually makes and classifies the current *regime*:

* **density** — EWMA of ``|selection| / n``, the fraction of the graph
  activated per action.  This is the signal backend switching keys on: the
  array kernels win when most rows fire each step, the dict dirty-set
  paths win when few do.
* **coverage** — EWMA of ``|selection| / |enabled|``, how synchronous the
  schedule is relative to what *could* fire.  1.0 means sd-like behaviour
  even when the enabled set itself is small.
* **overlap** — EWMA of the Jaccard overlap between consecutive
  selections.  High overlap means the same region fires repeatedly (a
  stable schedule); low overlap means the activity wanders.
* a **window** of the most recent raw density samples, whose mean tracks
  phase changes faster than the EWMA during long runs.

The detector is a pure function of the observation stream — it draws no
randomness and keeps no wall-clock state — so a seeded run reproduces the
exact estimate stream, and with it every decision the adaptive engine and
protocol take (``tests/test_adaptive.py`` pins this determinism).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, NamedTuple, Optional

from ..exceptions import SimulationError

__all__ = ["RegimeDetector", "RegimeEstimate"]


class RegimeEstimate(NamedTuple):
    """A point-in-time snapshot of the detector's streaming estimates."""

    #: EWMA of ``|selection| / n``.
    density: float
    #: Mean of the last ``window`` raw density samples.
    window_density: float
    #: EWMA of ``|selection| / |enabled|``.
    coverage: float
    #: EWMA of the Jaccard overlap between consecutive selections.
    overlap: float
    #: Number of observations consumed so far.
    observations: int
    #: Current classification ("dense", "sparse", or None during warmup or
    #: between the thresholds).
    regime: Optional[str]


class RegimeDetector:
    """Streaming daemon-density / schedule-synchrony estimator.

    Parameters
    ----------
    n:
        Number of vertices of the graph being simulated (the density
        denominator).
    smoothing:
        EWMA coefficient in ``(0, 1]``: each new sample moves the estimate
        by ``smoothing * (sample - estimate)``.  The default reacts to a
        phase change within a handful of steps without chattering on a
        single outlier selection.
    window:
        Length of the raw density sample window backing
        :attr:`RegimeEstimate.window_density`.
    dense_threshold / sparse_threshold:
        Hysteresis band for :meth:`classify`: densities at or above
        ``dense_threshold`` read as "dense", at or below
        ``sparse_threshold`` as "sparse", and anything between as None
        (no opinion — callers keep their current regime), which keeps a
        mid-density schedule from flapping the classification every step.
    min_observations:
        Warmup: :meth:`classify` returns None until this many observations
        have been consumed, so one early selection never triggers a switch.
    """

    #: Classification labels returned by :meth:`classify`.
    DENSE = "dense"
    SPARSE = "sparse"

    __slots__ = (
        "_n",
        "_smoothing",
        "_dense_threshold",
        "_sparse_threshold",
        "_min_observations",
        "_window",
        "_window_sum",
        "_density",
        "_coverage",
        "_overlap",
        "_observations",
        "_previous_selection",
    )

    def __init__(
        self,
        n: int,
        smoothing: float = 0.25,
        window: int = 32,
        dense_threshold: float = 0.5,
        sparse_threshold: float = 0.2,
        min_observations: int = 8,
    ) -> None:
        if n < 1:
            raise SimulationError("regime detection needs at least one vertex")
        if not 0.0 < smoothing <= 1.0:
            raise SimulationError(
                f"smoothing must be in (0, 1], got {smoothing}"
            )
        if window < 1:
            raise SimulationError(f"window must be >= 1, got {window}")
        if not 0.0 <= sparse_threshold < dense_threshold <= 1.0:
            raise SimulationError(
                "thresholds must satisfy 0 <= sparse < dense <= 1, got "
                f"sparse={sparse_threshold}, dense={dense_threshold}"
            )
        if min_observations < 1:
            raise SimulationError(
                f"min_observations must be >= 1, got {min_observations}"
            )
        self._n = n
        self._smoothing = smoothing
        self._dense_threshold = dense_threshold
        self._sparse_threshold = sparse_threshold
        self._min_observations = min_observations
        self._window: Deque[float] = deque(maxlen=window)
        self._window_sum = 0.0
        self._density: Optional[float] = None
        self._coverage: Optional[float] = None
        self._overlap: Optional[float] = None
        self._observations = 0
        self._previous_selection: Optional[Iterable] = None

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #
    def observe(
        self,
        selection_size: int,
        enabled_size: int,
        selection: Optional[Iterable] = None,
    ) -> None:
        """Consume one action's selection.

        ``selection`` (the selected vertex set) is optional and only feeds
        the overlap estimate; density and coverage need the sizes alone.
        """
        density_sample = selection_size / self._n
        coverage_sample = (
            selection_size / enabled_size if enabled_size else 0.0
        )
        self._density = self._smooth(self._density, density_sample)
        self._coverage = self._smooth(self._coverage, coverage_sample)
        if len(self._window) == self._window.maxlen:
            self._window_sum -= self._window[0]
        self._window.append(density_sample)
        self._window_sum += density_sample
        if selection is not None:
            previous = self._previous_selection
            if previous is not None:
                self._overlap = self._smooth(
                    self._overlap, self._jaccard(previous, selection)
                )
            self._previous_selection = selection
        self._observations += 1

    def _smooth(self, estimate: Optional[float], sample: float) -> float:
        if estimate is None:
            return sample
        return estimate + self._smoothing * (sample - estimate)

    @staticmethod
    def _jaccard(previous, selection) -> float:
        # The engines reuse the enabled frozenset object while membership is
        # unchanged, and the synchronous daemon returns that object itself —
        # in the dense steady state consecutive selections are *the same
        # object*, making the O(n) set arithmetic below a pointer compare.
        if previous is selection:
            return 1.0
        previous = set(previous)
        selection = set(selection)
        union = len(previous | selection)
        if union == 0:
            return 0.0
        return len(previous & selection) / union

    # ------------------------------------------------------------------ #
    # Estimates
    # ------------------------------------------------------------------ #
    @property
    def observations(self) -> int:
        """Number of observations consumed so far."""
        return self._observations

    @property
    def density(self) -> float:
        """EWMA of ``|selection| / n`` (0.0 before any observation)."""
        return self._density if self._density is not None else 0.0

    @property
    def coverage(self) -> float:
        """EWMA of ``|selection| / |enabled|`` (0.0 before any observation)."""
        return self._coverage if self._coverage is not None else 0.0

    @property
    def overlap(self) -> float:
        """EWMA of consecutive-selection Jaccard overlap (0.0 until two
        selections have been observed)."""
        return self._overlap if self._overlap is not None else 0.0

    @property
    def window_density(self) -> float:
        """Mean of the last ``window`` raw density samples."""
        if not self._window:
            return 0.0
        return self._window_sum / len(self._window)

    def estimate(self) -> RegimeEstimate:
        """The current estimates as one immutable snapshot."""
        return RegimeEstimate(
            density=self.density,
            window_density=self.window_density,
            coverage=self.coverage,
            overlap=self.overlap,
            observations=self._observations,
            regime=self.classify(),
        )

    def classify(self) -> Optional[str]:
        """"dense", "sparse", or None (warmup / between the thresholds)."""
        if self._observations < self._min_observations or self._density is None:
            return None
        if self._density >= self._dense_threshold:
            return self.DENSE
        if self._density <= self._sparse_threshold:
            return self.SPARSE
        return None

    def reset(self) -> None:
        """Forget every estimate (a fresh run observes from scratch)."""
        self._window.clear()
        self._window_sum = 0.0
        self._density = None
        self._coverage = None
        self._overlap = None
        self._observations = 0
        self._previous_selection = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"RegimeDetector(n={self._n}, observations={self._observations}, "
            f"density={self.density:.3f}, regime={self.classify()!r})"
        )
