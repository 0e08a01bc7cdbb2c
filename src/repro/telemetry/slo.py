"""Rolling-window SLO tracking over the merged serving stream.

An :class:`SloMonitor` watches every answered request (latency plus an
ok/degraded verdict) and evaluates three objectives over sliding
windows:

- ``latency_p99`` — the p99 of end-to-end latency against a target;
- ``error_rate`` — the fraction of requests answered degraded
  (fallback or rejected) over the short window;
- ``error_budget`` — the same fraction over a much longer window,
  normalized by the error-rate target: a *burn rate* of 1.0 means the
  budget is being consumed exactly as fast as the SLO allows, and
  budget exhaustion (burn >= ``budget_burn_limit``) is the "users are
  about to notice" signal.

Objective transitions emit schema-validated ``slo_violation`` /
``slo_recovered`` run events and update SLO gauges.  When a
:class:`~repro.robustness.health.HealthMonitor` is attached, each
evaluation with any objective in violation records a health *failure*
(degrading a HEALTHY server immediately — the monitor's contract), and
each clean evaluation records a success, so sustained budget burn walks
health toward DEGRADED/FAILED and recovery climbs back out.

Recording is O(1) under a lock — deque appends plus a running count of
degraded responses that serves both windows — so an evaluation (every
``evaluate_every`` requests) only has to compute the latency p99.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
from collections import deque

#: Response sources that count against the error budget.
DEGRADED_PREFIXES = ("fallback", "rejected")


def response_ok(source: str) -> bool:
    """Whether a response source counts as meeting the SLO."""
    return not source.startswith(DEGRADED_PREFIXES)


@dataclasses.dataclass
class SloConfig:
    """Targets and window sizes for serving SLOs (see docs/observability.md)."""

    latency_p99_ms: float = 250.0
    latency_quantile: float = 0.99
    error_rate: float = 0.05
    window: int = 256
    budget_window: int = 2048
    budget_burn_limit: float = 1.0
    min_samples: int = 16
    evaluate_every: int = 16

    def __post_init__(self):
        if self.latency_p99_ms <= 0:
            raise ValueError("latency_p99_ms must be positive")
        if not 0.0 < self.latency_quantile <= 1.0:
            raise ValueError("latency_quantile must lie in (0, 1]")
        if not 0.0 < self.error_rate < 1.0:
            raise ValueError("error_rate must lie in (0, 1)")
        if self.window < 2 or self.budget_window < self.window:
            raise ValueError("need window >= 2 and budget_window >= window")
        if self.min_samples < 1 or self.evaluate_every < 1:
            raise ValueError("min_samples and evaluate_every must be >= 1")
        if self.budget_burn_limit <= 0:
            raise ValueError("budget_burn_limit must be positive")

    def to_wire(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_wire(cls, data: dict) -> "SloConfig":
        return cls(**data)


class SloMonitor:
    """Tracks serving SLO objectives and their violation state."""

    OBJECTIVES = ("latency_p99", "error_rate", "error_budget")

    def __init__(self, config: SloConfig | None = None, telemetry=None,
                 run_logger=None, health=None):
        self.config = config or SloConfig()
        self._run_logger = run_logger
        self._health = health
        self._lock = threading.Lock()
        self._latencies: deque[float] = deque(maxlen=self.config.window)
        # Running count of degraded responses after each recorded request
        # (seeded with 0).  The error count of the last n requests is a
        # difference of two entries, so both windows cost O(1) per record.
        self._marks: deque[int] = deque([0], maxlen=self.config.budget_window + 1)
        self._since_eval = 0
        self.violations: dict[str, bool] = {name: False for name in self.OBJECTIVES}
        self.evaluations = 0
        self._instruments = None
        if telemetry is not None:
            self._instruments = {
                "p99": telemetry.gauge(
                    "slo_latency_p99_ms", help="rolling-window p99 serving latency"
                ),
                "error_rate": telemetry.gauge(
                    "slo_error_rate", help="rolling-window degraded-response rate"
                ),
                "burn": telemetry.gauge(
                    "slo_budget_burn_rate",
                    help="error-budget burn rate (1.0 = budget exactly consumed)",
                ),
                "violating": telemetry.gauge(
                    "slo_objectives_violating", help="objectives currently in violation"
                ),
                "violations": {
                    name: telemetry.counter(
                        "slo_violations_total", labels={"objective": name},
                        help="SLO violation transitions, per objective",
                    )
                    for name in self.OBJECTIVES
                },
            }

    # ------------------------------------------------------------------
    def record(self, latency_ms: float, ok: bool) -> None:
        """Feed one answered request; evaluates every ``evaluate_every``."""
        self.record_many(latency_ms, (ok,))

    def record_many(self, latency_ms: float, oks) -> None:
        """Feed requests that share one latency (one served batch).

        Runs one evaluation per ``evaluate_every`` boundary crossed, after
        the whole batch is recorded.
        """
        flags = [not ok for ok in oks]
        every = self.config.evaluate_every
        with self._lock:
            self._latencies.extend([float(latency_ms)] * len(flags))
            marks = self._marks
            # accumulate re-emits the popped running total first.
            marks.extend(itertools.accumulate(flags, initial=marks.pop()))
            due, self._since_eval = divmod(self._since_eval + len(flags), every)
        for _ in range(due):
            self.evaluate()

    def record_response(self, latency_ms: float, source: str) -> None:
        """Convenience: feed a response by its provenance string."""
        self.record(latency_ms, response_ok(source))

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Current objective values (independent of evaluation cadence)."""
        with self._lock:
            ordered = sorted(self._latencies)
            marks = self._marks
            errors = marks[-1] - marks[-1 - len(ordered)]
            budget = len(marks) - 1
            budget_errors = marks[-1] - marks[0]
        samples = len(ordered)
        if not samples:
            return {"samples": 0}
        q = self.config.latency_quantile
        index = min(samples - 1, max(0, int(q * samples + 0.5) - 1))
        return {
            "samples": samples,
            "latency_p99_ms": ordered[index],
            "error_rate": errors / samples,
            "budget_burn_rate": budget_errors / budget / self.config.error_rate,
        }

    def evaluate(self) -> dict[str, bool]:
        """Re-check every objective; emits transition events on change."""
        state = self.snapshot()
        if state["samples"] < self.config.min_samples:
            return dict(self.violations)
        self.evaluations += 1
        observed = {
            "latency_p99": (state["latency_p99_ms"], self.config.latency_p99_ms),
            "error_rate": (state["error_rate"], self.config.error_rate),
            "error_budget": (state["budget_burn_rate"], self.config.budget_burn_limit),
        }
        if self._instruments is not None:
            self._instruments["p99"].set(state["latency_p99_ms"])
            self._instruments["error_rate"].set(state["error_rate"])
            self._instruments["burn"].set(state["budget_burn_rate"])
        for objective, (value, target) in observed.items():
            violating = value > target
            was = self.violations[objective]
            if violating == was:
                continue
            self.violations[objective] = violating
            event_type = "slo_violation" if violating else "slo_recovered"
            if self._instruments is not None and violating:
                self._instruments["violations"][objective].inc()
            if self._run_logger is not None:
                self._run_logger.event(
                    event_type,
                    objective=objective,
                    value=round(float(value), 6),
                    target=float(target),
                    burn_rate=round(float(state["budget_burn_rate"]), 4),
                )
        active = sum(1 for violating in self.violations.values() if violating)
        if self._instruments is not None:
            self._instruments["violating"].set(active)
        if self._health is not None:
            if active:
                worst = ", ".join(
                    name for name, bad in self.violations.items() if bad
                )
                self._health.record_failure(f"SLO violation: {worst}")
            else:
                self._health.record_success()
        return dict(self.violations)

    @property
    def violating(self) -> bool:
        return any(self.violations.values())
