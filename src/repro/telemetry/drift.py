"""Prototype-drift monitoring for the online phase.

FOCUS's online phase leans on an offline assumption: the prototype
dictionary fitted before deployment keeps describing the stream
(Sec. I "relatively universal", Sec. VIII-D drift).  When that breaks,
accuracy decays *silently* — the model still emits finite numbers.
:class:`DriftMonitor` watches the observable proxy: the distribution of
nearest-prototype assignments of the segments inside each forecast
window.

Per forecast it records

- **prototype utilization** — per-prototype assignment counters (a
  utilization histogram across the dictionary),
- **assignment entropy** — normalized Shannon entropy of the window's
  assignment distribution (a collapsed-routing indicator),
- **assignment drift** — total-variation distance between the recent
  assignment distribution (sliding window of forecasts) and a frozen
  baseline (captured from the first ``baseline_forecasts`` forecasts,
  or set explicitly from the offline fit via :meth:`set_baseline`).

When drift stays above ``threshold`` for ``alarm_streak`` consecutive
forecasts the monitor fires its alarm — which the
:class:`~repro.maintenance.MaintenanceWorker` turns into a repair job,
so a stale prototype bank is refitted *before* forecast error craters.
"""

from __future__ import annotations

import dataclasses
from collections import deque

import numpy as np


@dataclasses.dataclass
class DriftConfig:
    """Drift-alarm knobs (defaults tuned for per-forecast observation)."""

    # Number of recent forecasts whose assignments form the "current"
    # distribution compared against the baseline.
    window: int = 32
    # Forecasts used to auto-capture the baseline when none is set.
    baseline_forecasts: int = 8
    # Total-variation distance (in [0, 1]) above which a forecast counts
    # toward the alarm streak.
    threshold: float = 0.35
    # Consecutive drifted forecasts required before the alarm fires.
    alarm_streak: int = 3
    # Minimum segments accumulated in the recent window before drift is
    # trusted at all.
    min_segments: int = 32

    def __post_init__(self):
        if self.window < 1 or self.baseline_forecasts < 1 or self.alarm_streak < 1:
            raise ValueError("window, baseline_forecasts, alarm_streak must be >= 1")
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("threshold must lie in (0, 1]")


def assignment_entropy(counts: np.ndarray) -> float:
    """Shannon entropy of a count vector, normalized to [0, 1]."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0 or len(counts) < 2:
        return 0.0
    probs = counts[counts > 0] / total
    return float(-(probs * np.log(probs)).sum() / np.log(len(counts)))


def total_variation(p_counts: np.ndarray, q_counts: np.ndarray) -> float:
    """TV distance between two count vectors (0 when either is empty)."""
    p_counts = np.asarray(p_counts, dtype=np.float64)
    q_counts = np.asarray(q_counts, dtype=np.float64)
    if p_counts.sum() <= 0 or q_counts.sum() <= 0:
        return 0.0
    return float(
        0.5 * np.abs(p_counts / p_counts.sum() - q_counts / q_counts.sum()).sum()
    )


class DriftMonitor:
    """Sliding-window assignment-drift detector with a debounced alarm."""

    def __init__(
        self,
        num_prototypes: int,
        config: DriftConfig | None = None,
        registry=None,
        on_alarm=None,
        run_logger=None,
    ):
        if num_prototypes < 1:
            raise ValueError("num_prototypes must be positive")
        self.num_prototypes = num_prototypes
        self.config = config or DriftConfig()
        self.registry = registry
        self.on_alarm = on_alarm
        self.run_logger = run_logger
        self.utilization = np.zeros(num_prototypes, dtype=np.int64)
        self.baseline: np.ndarray | None = None
        self.alarmed = False
        self.alarms = 0
        self.forecasts_seen = 0
        self.last_entropy = 0.0
        self.last_drift = 0.0
        self._baseline_accum = np.zeros(num_prototypes, dtype=np.int64)
        self._recent: deque[np.ndarray] = deque(maxlen=self.config.window)
        # Running total of ``_recent`` (integer, so exact): the drift
        # statistic never re-sums the window.
        self._recent_counts = np.zeros(num_prototypes, dtype=np.int64)
        self._streak = 0

    def set_baseline(self, counts: np.ndarray) -> None:
        """Freeze the reference assignment distribution (e.g. from the
        offline clustering fit's training-split assignments)."""
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (self.num_prototypes,):
            raise ValueError(
                f"baseline shape {counts.shape} != ({self.num_prototypes},)"
            )
        if counts.sum() <= 0:
            raise ValueError("baseline needs at least one assignment")
        self.baseline = counts.copy()

    def reset(self, baseline: np.ndarray | None = None) -> None:
        """Re-arm the monitor after a prototype hot-swap.

        The old baseline describes the *retired* bank's assignment
        distribution; comparing post-swap traffic against it would
        re-fire the alarm forever.  ``reset`` clears the debounce state
        and the recent window, and either installs ``baseline``
        (e.g. the candidate bank's fit-time assignment counts) or
        re-arms auto-capture from the next ``baseline_forecasts``
        forecasts.  Cumulative counters (``utilization``, ``alarms``)
        are preserved.
        """
        self._recent.clear()
        self._recent_counts[:] = 0
        self._streak = 0
        self.alarmed = False
        self.last_drift = 0.0
        self.forecasts_seen = 0
        self._baseline_accum = np.zeros(self.num_prototypes, dtype=np.int64)
        if baseline is None:
            self.baseline = None
        else:
            self.set_baseline(baseline)

    def observe(self, assignments: np.ndarray) -> dict:
        """Record one forecast window's nearest-prototype assignments.

        Returns a summary dict: utilization counts for this window,
        entropy, drift, and whether the alarm fired on this call.

        An empty assignment array (a window that produced no segments)
        is a no-op observation: nothing is counted, the baseline
        auto-capture countdown does not advance, and the alarm cannot
        fire — empty windows must neither dilute the baseline nor feed
        degenerate zero-count distributions into the drift statistics.
        """
        assignments = np.asarray(assignments, dtype=np.int64).ravel()
        if assignments.size == 0:
            return {
                "counts": np.zeros(self.num_prototypes, dtype=np.int64),
                "entropy": self.last_entropy,
                "drift": self.last_drift,
                "alarmed": False,
                "reason": None,
            }
        counts = np.bincount(assignments, minlength=self.num_prototypes)
        self.forecasts_seen += 1
        self.utilization += counts
        if len(self._recent) == self._recent.maxlen:
            self._recent_counts -= self._recent[0]
        self._recent.append(counts)
        self._recent_counts += counts
        self.last_entropy = assignment_entropy(counts)

        if self.baseline is None:
            self._baseline_accum += counts
            if self.forecasts_seen >= self.config.baseline_forecasts:
                self.baseline = self._baseline_accum.copy()

        fired = False
        self.last_drift = 0.0
        recent_total = int(self._recent_counts.sum())
        baseline_ready = (
            self.baseline is not None
            # Auto-captured baselines must not be compared against the
            # very forecasts that formed them.
            and self.forecasts_seen > self.config.baseline_forecasts
            and recent_total >= self.config.min_segments
        )
        if baseline_ready:
            self.last_drift = total_variation(self._recent_counts, self.baseline)
            if self.last_drift > self.config.threshold:
                self._streak += 1
                if self._streak >= self.config.alarm_streak:
                    fired = True
                    self.alarmed = True
                    self.alarms += 1
            else:
                self._streak = 0
                self.alarmed = False

        self._record(counts, fired)
        reason = None
        if fired:
            reason = (
                f"prototype drift: assignment TV distance {self.last_drift:.3f} "
                f"> {self.config.threshold} for {self._streak} forecasts"
            )
            if self.run_logger is not None:
                self.run_logger.event(
                    "drift_alarm",
                    metric="assignment_tv",
                    value=round(self.last_drift, 6),
                    threshold=self.config.threshold,
                    reason=reason,
                )
            if self.on_alarm is not None:
                self.on_alarm(reason)
        return {
            "counts": counts,
            "entropy": self.last_entropy,
            "drift": self.last_drift,
            "alarmed": fired,
            "reason": reason,
        }

    def _record(self, counts: np.ndarray, fired: bool) -> None:
        registry = self.registry
        if registry is None:
            return
        for proto_index, count in enumerate(counts):
            if count:
                registry.counter(
                    "focus_prototype_assignments_total",
                    labels={"prototype": str(proto_index)},
                    help="segments routed to each prototype",
                ).inc(int(count))
        registry.gauge(
            "focus_assignment_entropy",
            help="normalized entropy of the last window's assignments",
        ).set(self.last_entropy)
        registry.gauge(
            "focus_assignment_drift",
            help="TV distance of recent assignments vs the baseline",
        ).set(self.last_drift)
        if fired:
            registry.counter(
                "focus_drift_alarms_total", help="debounced drift alarms"
            ).inc()
