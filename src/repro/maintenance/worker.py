"""Zero-downtime prototype lifecycle: drift → refit → shadow → swap.

The offline/online split that makes FOCUS fast at serving time has an
operational cost: the prototype dictionary is frozen at deploy time,
and when the stream's motif population drifts away from it, accuracy
decays silently (PAPER.md Sec. VIII-D).  :class:`MaintenanceWorker`
closes the loop *without* taking serving down:

1. **observe** — the serving host taps every accepted observation into
   the worker's :class:`~repro.maintenance.repair.RecentHistory`; every
   ``drift_every`` rows per ready entity the worker profiles the
   entity's latest lookback window through the live model and feeds the
   assignments to its own :class:`~repro.telemetry.drift.DriftMonitor`;
2. **alarm** — a debounced drift alarm enqueues one maintenance job;
   alarms raised while a job is in flight or pending are coalesced;
3. **refit** — a candidate bank is fitted on recent history, either
   incrementally (ODAC-style split/merge, cheap, for small drifts) or
   by a full :class:`~repro.core.clustering.SegmentClusterer` run.
   Refits run in an abandonable helper thread under a timeout, with
   bounded exponential-backoff retries; a crash, hang, or timeout never
   touches the live bank;
4. **shadow** — candidate and live banks are scored on held-out recent
   windows through a snapshot replica; the candidate must win by
   ``shadow_margin`` or the job ends with a ``swap_rejected`` event
   (``mode="auto"`` escalates a rejected incremental repair to one full
   refit before giving up);
5. **swap** — the accepted bank is installed through the bound swap
   callable (:meth:`FOCUSForecaster.set_prototypes` single-process,
   :meth:`ShardRouter.set_prototypes` with epoch fencing on a fleet),
   and the drift baseline is reset;
6. **watch** — the retired bank is kept for ``rollback_window`` drift
   ticks; if the swapped bank scores worse than the retired one by more
   than ``rollback_tolerance`` on fresh holdout, the retired bank is
   restored (``maintenance_rollback``).

Everything the worker does is observable: ``maintenance_*`` run-log
events (see :mod:`repro.telemetry.runlog`) and ``maintenance_refit_*``
/ ``maintenance_swap_*`` metrics.  Every job mints a ``trace_id`` that
is stamped on all of its events (refit attempts, shadow verdicts, the
swap, and any later rollback of that swap), so one grep over the run
log reconstructs a job end to end — the maintenance-side counterpart
of the serving plane's request traces (``docs/observability.md``).
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time

import numpy as np

from repro.core.clustering import ClusteringConfig, SegmentClusterer, composite_distance
from repro.maintenance.repair import (
    RecentHistory,
    ShadowScorer,
    build_job_data,
    incremental_repair,
    phase_candidates,
)
from repro.robustness.chaos import ChaosError, ChaosSpec
from repro.telemetry.context import new_id
from repro.telemetry.drift import DriftConfig, DriftMonitor
from repro.telemetry.runlog import NULL_LOGGER

MAINTENANCE_MODES = ("auto", "full", "incremental")


@dataclasses.dataclass
class MaintenanceConfig:
    """Lifecycle knobs (defaults sized for test/demo streams).

    ``shadow_margin`` is the fractional improvement the candidate must
    show over the live bank: accept iff
    ``candidate <= live * (1 - shadow_margin)``.  ``0.0`` means "at
    least as good" — a strictly worse candidate is always rejected.
    """

    # Per-entity observation history depth available to refits.
    history_rows: int = 512
    # Profile drift every this many accepted rows per entity.
    drift_every: int = 8
    # Baseline/window sized so the TV estimate is low-noise: a small
    # window over few-segment profiles alarms on sampling noise alone.
    # Note the window counts *profiles*, which arrive per entity — with
    # E entities and ``drift_every`` d the window spans only
    # ``window * d / E`` steps, so multi-entity hosts need wider
    # windows for the same smoothing.
    drift: DriftConfig = dataclasses.field(
        default_factory=lambda: DriftConfig(
            window=32, baseline_forecasts=24, threshold=0.3,
            alarm_streak=2, min_segments=16,
        )
    )
    # Minimum segments required before a refit is attempted at all.
    min_segments: int = 32
    # Rows that must arrive *after* an alarm before its job launches.
    # Drift alarms fire at the onset of a regime change, when history
    # is still dominated by the old regime; refitting immediately bakes
    # stale segments into the candidate.  0 launches immediately.
    settle_rows: int = 0
    # Held-out (input, target) windows for shadow scoring and rollback.
    holdout_windows: int = 8
    shadow_margin: float = 0.0
    shadow_metric: str = "mse"
    # Refit execution: per-attempt timeout and bounded retries with
    # exponential backoff (base * 2^attempt, capped).
    refit_timeout_s: float = 30.0
    max_refit_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    # "auto" repairs incrementally below ``full_refit_drift`` and falls
    # back to a full refit above it (or when the repair is rejected).
    mode: str = "auto"
    full_refit_drift: float = 0.6
    # Rollback watch: keep the retired bank for this many drift ticks,
    # re-scoring current-vs-retired every ``rollback_check_every`` ticks
    # (and immediately on a post-swap alarm).  Roll back when
    # ``current > retired * rollback_tolerance``.
    rollback_window: int = 24
    rollback_check_every: int = 8
    rollback_tolerance: float = 1.05

    def __post_init__(self):
        if self.mode not in MAINTENANCE_MODES:
            raise ValueError(
                f"mode must be one of {MAINTENANCE_MODES}, got {self.mode!r}"
            )
        if self.history_rows < 1 or self.drift_every < 1:
            raise ValueError("history_rows and drift_every must be >= 1")
        if self.settle_rows < 0:
            raise ValueError("settle_rows must be >= 0")
        if self.max_refit_retries < 0 or self.refit_timeout_s <= 0:
            raise ValueError("refit_timeout_s must be > 0, retries >= 0")
        if not 0.0 <= self.shadow_margin < 1.0:
            raise ValueError("shadow_margin must lie in [0, 1)")
        if self.rollback_window < 0 or self.rollback_check_every < 1:
            raise ValueError(
                "rollback_window must be >= 0, rollback_check_every >= 1"
            )


class MaintenanceWorker:
    """Background prototype-lifecycle manager for a serving host.

    Attach to a host with ``server.attach_maintenance(worker)`` /
    ``router.attach_maintenance(worker)`` (which feeds :meth:`record`
    and binds the swap callable).  Either :meth:`start` the background
    thread, step it from the host's own clock with :meth:`tick`, or
    drive single jobs via :meth:`run_once` / :meth:`propose`.
    """

    def __init__(
        self,
        model,
        config: MaintenanceConfig | None = None,
        swap=None,
        clustering: ClusteringConfig | None = None,
        registry=None,
        run_logger=None,
        tracer=None,
        chaos: ChaosSpec | None = None,
    ):
        self.model = model
        self.config = config or MaintenanceConfig()
        self.registry = registry
        self.run_logger = run_logger or NULL_LOGGER
        self.tracer = tracer
        self.chaos = chaos
        model_config = model.config
        self._swap = swap if swap is not None else model.set_prototypes
        self._clustering = clustering or ClusteringConfig(
            num_prototypes=model_config.num_prototypes,
            segment_length=model_config.segment_length,
            alpha=getattr(model_config, "alpha", 0.2),
            max_iters=15,
            refine_steps=3,
            seed=0,
        )
        self.history = RecentHistory(
            self.config.history_rows, model_config.num_entities
        )
        self.monitor = DriftMonitor(
            model_config.num_prototypes,
            self.config.drift,
            registry=registry,
            run_logger=self.run_logger,
        )
        # Serializes drift profiling + monitor state against resets.
        self._monitor_lock = threading.Lock()
        self._rows_since_profile: dict[str, int] = {}

        # Job queue: at most one pending + one in-flight job; alarms
        # arriving while either exists are coalesced.
        self._cond = threading.Condition()
        self._pending_trigger: str | None = None
        self._pending_rows_mark = 0
        self._in_flight = False
        self._watch_check_due = False
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

        # Rollback watch (guarded by ``_watch_lock``).
        self._watch_lock = threading.Lock()
        self._watch: dict | None = None

        # One shadow scorer per worker, rebuilt only when the model
        # changes beyond its bank (see ``_shadow_scorer``).
        self._scorer_lock = threading.Lock()
        self._scorer: ShadowScorer | None = None

        # Trace id of the job currently (or last) executing; stamped on
        # every maintenance event via ``_event``.  Jobs are serialized
        # (one in flight), so a plain field suffices.
        self._job_trace = ""

        self._state = "idle"
        self._refit_attempts = 0  # lifetime counter, drives chaos schedule
        self.stats_counters = {
            "rows_recorded": 0,
            "alarms": 0,
            "alarms_coalesced": 0,
            "jobs_started": 0,
            "jobs_swapped": 0,
            "jobs_rejected": 0,
            "jobs_skipped": 0,
            "jobs_failed": 0,
            "refit_retries": 0,
            "rollbacks": 0,
            "watch_expired": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "MaintenanceWorker":
        if self._thread is not None:
            raise RuntimeError("maintenance worker already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="maintenance", daemon=True
        )
        self._thread.start()
        return self

    def close(self, timeout: float = 10.0) -> None:
        self._stop.set()
        with self._cond:
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def __enter__(self) -> "MaintenanceWorker":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def state(self) -> str:
        return self._state

    def bind(self, swap) -> None:
        """Install the hot-swap callable (host integration point)."""
        self._swap = swap

    # ------------------------------------------------------------------
    # Observation tap
    # ------------------------------------------------------------------
    def record(self, entity_id: str, row: np.ndarray) -> None:
        """Feed one accepted observation row (the one-row
        :meth:`record_many`)."""
        row = np.asarray(row, dtype=np.float64).ravel()
        self.record_many([entity_id], row[None])

    def record_many(self, entity_ids, rows: np.ndarray) -> None:
        """Feed ``rows[i]`` of entity ``entity_ids[i]``, in order (called
        by the host once per ingest step; ids may repeat).

        Cheap by design: O(N) history appends, and every
        ``drift_every`` rows per entity one assignment profile of the
        entity's latest lookback window.  Non-finite rows are dropped
        by the history and do not advance the profiling countdown.

        Exactly equivalent to one :meth:`record` per row in the given
        order: every window, monitor observation, alarm and rollback
        watch tick happens in the same order on the same data.  The
        windows due between two inline rollback checks are assigned in
        one stacked pass; the rows are appended up to the row whose
        watch tick runs a check, so that check (which reads every
        entity's history) sees this call's rows only up to that row.
        """
        entity_ids = list(entity_ids)
        rows = np.asarray(rows, dtype=np.float64)
        expected = (len(entity_ids), self.history.num_entities)
        if rows.shape != expected:
            raise ValueError(f"expected {expected} rows, got {rows.shape}")
        finite = np.isfinite(rows).all(axis=1)
        lookback = self.model.config.lookback
        counters = self.stats_counters
        start = 0
        while start < len(entity_ids):
            stop, due, windows = self.history.record_many(
                entity_ids, rows, finite, start,
                due=self._profile_due, steps=lookback,
                limit=self._ticks_before_inline_check(),
            )
            recorded = start
            if windows:
                assignments = self.model.assignments(np.stack(windows))
                for index, labels in zip(due, assignments):
                    counters["rows_recorded"] += int(finite[recorded : index + 1].sum())
                    recorded = index + 1
                    with self._monitor_lock:
                        outcome = self.monitor.observe(labels)
                    # Reacting to the returned verdict rather than
                    # through an on_alarm callback keeps the monitor free
                    # of a reference back to the worker.
                    if outcome["alarmed"]:
                        self._on_alarm(outcome["reason"])
                    self._tick_watch()
            counters["rows_recorded"] += int(finite[recorded:stop].sum())
            start = stop

    def _profile_due(self, entity_id: str, depth: int) -> bool:
        """Advance the entity's profiling countdown for one stored row."""
        if depth < self.model.config.lookback:
            return False
        seen = self._rows_since_profile.get(entity_id, 0) + 1
        if seen < self.config.drift_every:
            self._rows_since_profile[entity_id] = seen
            return False
        self._rows_since_profile[entity_id] = 0
        return True

    def _ticks_before_inline_check(self) -> int | None:
        """Drift ticks until :meth:`_tick_watch` next runs an inline
        rollback check, or None when none can run (no watch armed, or
        the background loop does the checks)."""
        if self._thread is not None:
            return None
        with self._watch_lock:
            watch = self._watch
            if watch is None:
                return None
            return max(
                1,
                min(
                    self.config.rollback_check_every - watch["since_check"],
                    watch["remaining"],
                ),
            )

    def _on_alarm(self, reason: str) -> None:
        self.stats_counters["alarms"] += 1
        with self._watch_lock:
            watching = self._watch is not None
        if watching:
            # Post-swap drift: check the new bank against the retired
            # one before (possibly) starting another job.
            with self._cond:
                self._watch_check_due = True
                self._cond.notify_all()
        else:
            self.request_maintenance(f"drift_alarm: {reason}")

    # ------------------------------------------------------------------
    # Job queue
    # ------------------------------------------------------------------
    def request_maintenance(self, trigger: str) -> bool:
        """Enqueue one maintenance job; concurrent requests coalesce.

        Returns True when a new job was enqueued, False when it merged
        into an already pending/in-flight one.
        """
        with self._cond:
            if self._in_flight or self._pending_trigger is not None:
                self.stats_counters["alarms_coalesced"] += 1
                self._counter(
                    "maintenance_jobs_total", {"status": "coalesced"}
                )
                return False
            self._pending_trigger = trigger
            self._pending_rows_mark = self.stats_counters["rows_recorded"]
            self._cond.notify_all()
            return True

    def _pending_ready(self) -> bool:
        """Whether the pending job has settled (call with ``_cond`` held)."""
        if self._pending_trigger is None:
            return False
        fresh = self.stats_counters["rows_recorded"] - self._pending_rows_mark
        return fresh >= self.config.settle_rows

    def _loop(self) -> None:
        while not self._stop.is_set():
            with self._cond:
                while (
                    not self._stop.is_set()
                    and not self._pending_ready()
                    and not self._watch_check_due
                ):
                    self._cond.wait(timeout=0.2)
                if self._stop.is_set():
                    return
            self.tick()

    def tick(self) -> dict | None:
        """Run one iteration of the background loop on the calling thread.

        Performs a due rollback check, then the pending job if it has
        settled (``settle_rows`` fresh rows since it was requested).
        Returns the job's result, or None when no job ran.  Hosts that
        drive the worker from a logical clock — a replay loop, a test —
        call this at each stream step instead of :meth:`start`, which
        places alarm → refit → shadow → swap at deterministic steps.
        """
        with self._cond:
            trigger = None
            if self._pending_ready():
                trigger = self._pending_trigger
                self._pending_trigger = None
                self._in_flight = True
            watch_due = self._watch_check_due
            self._watch_check_due = False
        if watch_due:
            try:
                self.check_rollback(force=True)
            except Exception:  # noqa: BLE001 - watch must not kill loop
                pass
        if trigger is None:
            return None
        try:
            return self.run_once(trigger)
        except Exception as error:  # noqa: BLE001 - loop must survive
            # run_once handles refit/gate failures itself; this catches
            # host-side swap failures (e.g. a router shutting down) so
            # the loop keeps serving alarms.
            self.stats_counters["jobs_failed"] += 1
            self._event(
                "maintenance_job", trigger=trigger,
                status="failed", error=repr(error),
            )
            return None
        finally:
            with self._cond:
                self._in_flight = False
                self._cond.notify_all()

    def join_idle(self, timeout: float = 30.0) -> bool:
        """Block until no job is pending or in flight (test helper)."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._in_flight or self._pending_trigger is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(timeout=remaining)
        return True

    # ------------------------------------------------------------------
    # The job pipeline
    # ------------------------------------------------------------------
    def run_once(self, trigger: str = "manual") -> dict:
        """Execute one full maintenance job synchronously.

        Never raises on refit failure, shadow rejection, or missing
        data — the outcome is the returned dict's ``status``
        (``swapped`` / ``rejected`` / ``skipped`` / ``refit_failed``)
        plus run-log events.  The live bank is untouched unless the
        candidate survives the shadow gate.
        """
        self.stats_counters["jobs_started"] += 1
        self._job_trace = new_id()
        if self.tracer is not None:
            with self.tracer.span("maintenance_job"):
                result = self._run_job(trigger)
        else:
            result = self._run_job(trigger)
        self._event(
            "maintenance_job", trigger=trigger, status=result["status"],
            **{k: v for k, v in result.items() if k != "status"},
        )
        self._counter("maintenance_jobs_total", {"status": result["status"]})
        self._set_state("idle" if self._watch is None else "watching")
        return result

    def _run_job(self, trigger: str) -> dict:
        config = self.config
        model_config = self.model.config
        live = self.model.prototype_values()
        if live is None:
            self.stats_counters["jobs_skipped"] += 1
            return {"status": "skipped", "reason": "prototype-free mixer"}

        history_rows, starts = self.history.snapshot_with_starts()
        fit_segments, inputs, targets, fit_rows = build_job_data(
            history_rows,
            model_config.lookback,
            model_config.horizon,
            model_config.segment_length,
            config.holdout_windows,
        )
        if fit_segments is None or len(fit_segments) < max(
            config.min_segments, model_config.num_prototypes
        ):
            self.stats_counters["jobs_skipped"] += 1
            return {
                "status": "skipped",
                "reason": "insufficient history",
                "segments": 0 if fit_segments is None else len(fit_segments),
            }
        if not inputs:
            self.stats_counters["jobs_skipped"] += 1
            return {"status": "skipped", "reason": "insufficient holdout"}

        drift = self.monitor.last_drift
        if config.mode == "auto":
            mode = "incremental" if drift <= config.full_refit_drift else "full"
        else:
            mode = config.mode

        scorer = self._shadow_scorer()
        live_score = scorer.score(live, inputs, targets)

        attempted_modes = []
        while True:
            attempted_modes.append(mode)
            self._set_state("refitting")
            refit = self._refit_with_timeout(
                fit_segments, mode, live, fit_rows, scorer, inputs, targets,
                starts,
            )
            if refit is None:
                self.stats_counters["jobs_failed"] += 1
                self._set_state("idle")
                return {
                    "status": "refit_failed",
                    "mode": mode,
                    "attempts": self._refit_attempts,
                }
            candidate, candidate_score = refit
            self._set_state("shadowing")
            if candidate_score is None:
                # A full refit already scored its winner on this scorer
                # and holdout; only an incremental repair is scored here.
                candidate_score = scorer.score(candidate, inputs, targets)
            accepted = candidate_score <= live_score * (1.0 - config.shadow_margin)
            self._event(
                "maintenance_shadow",
                candidate_score=candidate_score,
                live_score=live_score,
                margin=config.shadow_margin,
                accepted=accepted,
                mode=mode,
                metric=config.shadow_metric,
            )
            if accepted:
                break
            if config.mode == "auto" and mode == "incremental":
                # A rejected cheap repair escalates to one full refit.
                mode = "full"
                continue
            self.stats_counters["jobs_rejected"] += 1
            self._counter("maintenance_swap_total", {"outcome": "rejected"})
            self._event(
                "swap_rejected",
                candidate_score=candidate_score,
                live_score=live_score,
                margin=config.shadow_margin,
                modes=attempted_modes,
            )
            self._set_state("idle")
            return {
                "status": "rejected",
                "mode": mode,
                "candidate_score": candidate_score,
                "live_score": live_score,
            }

        self._install(candidate, mode=mode, retired=live, scorer=scorer)
        self.stats_counters["jobs_swapped"] += 1
        return {
            "status": "swapped",
            "mode": mode,
            "candidate_score": candidate_score,
            "live_score": live_score,
        }

    def propose(
        self, candidate: np.ndarray, trigger: str = "manual", force: bool = False
    ) -> dict:
        """Shadow-gate (unless ``force``) and install an external bank.

        The operator/test entry point: runs the same gate → swap →
        watch tail of the pipeline on a caller-supplied candidate.
        ``force=True`` skips the gate (used to exercise rollback).
        """
        candidate = np.asarray(candidate, dtype=np.float64)
        live = self.model.prototype_values()
        if live is None:
            return {"status": "skipped", "reason": "prototype-free mixer"}
        self._job_trace = new_id()
        config = self.model.config
        scorer = self._shadow_scorer()
        _, inputs, targets, _ = build_job_data(
            self.history.snapshot(),
            config.lookback,
            config.horizon,
            config.segment_length,
            self.config.holdout_windows,
        )
        if not force:
            if not inputs:
                return {"status": "skipped", "reason": "insufficient holdout"}
            live_score = scorer.score(live, inputs, targets)
            candidate_score = scorer.score(candidate, inputs, targets)
            accepted = candidate_score <= live_score * (
                1.0 - self.config.shadow_margin
            )
            self._event(
                "maintenance_shadow",
                candidate_score=candidate_score,
                live_score=live_score,
                margin=self.config.shadow_margin,
                accepted=accepted,
                mode="proposed",
                metric=self.config.shadow_metric,
            )
            if not accepted:
                self.stats_counters["jobs_rejected"] += 1
                self._counter(
                    "maintenance_swap_total", {"outcome": "rejected"}
                )
                self._event(
                    "swap_rejected",
                    candidate_score=candidate_score,
                    live_score=live_score,
                    margin=self.config.shadow_margin,
                    modes=["proposed"],
                )
                return {
                    "status": "rejected",
                    "candidate_score": candidate_score,
                    "live_score": live_score,
                }
        self._install(candidate, mode="proposed", retired=live, scorer=scorer)
        self._event(
            "maintenance_job", trigger=trigger, status="swapped", mode="proposed"
        )
        self.stats_counters["jobs_swapped"] += 1
        return {"status": "swapped", "mode": "proposed"}

    def _shadow_scorer(self) -> ShadowScorer:
        """The worker's shadow scorer for the model as it is now.

        A replica costs a rebuild plus a plan trace, several times one
        score, so the worker keeps one and reuses it for every job,
        refit attempt, :meth:`propose` and rollback check while the
        model is unchanged up to its bank (:meth:`ShadowScorer.serves`).
        A different shadow metric or any other change to the model
        builds a fresh one.
        """
        snapshot = self.model.snapshot()
        metric = self.config.shadow_metric
        with self._scorer_lock:
            scorer = self._scorer
            if scorer is None or scorer.metric != metric or not scorer.serves(snapshot):
                scorer = self._scorer = ShadowScorer(snapshot, metric)
            return scorer

    # ------------------------------------------------------------------
    # Refit execution (timeout + retries + chaos channels)
    # ------------------------------------------------------------------
    def _refit_with_timeout(
        self,
        segments: np.ndarray,
        mode: str,
        live: np.ndarray,
        fit_rows: dict[str, np.ndarray] | None = None,
        scorer: ShadowScorer | None = None,
        inputs: list[np.ndarray] | None = None,
        targets: list[np.ndarray] | None = None,
        starts: dict[str, int] | None = None,
    ) -> tuple[np.ndarray, float | None] | None:
        """One refit under timeout, retried with exponential backoff.

        Each attempt runs in a daemon helper thread.  Python threads
        cannot be killed, so a timed-out attempt is *abandoned*: the
        holder is flagged and whatever the stray thread eventually
        produces is discarded.  The live bank is never touched here.

        When ``fit_rows`` is provided the full-refit path sweeps every
        segmentation phase offset and selects the candidate with the
        best held-out shadow score on ``scorer`` (see
        :func:`~repro.maintenance.repair.phase_candidates`).  Attempts
        share the scorer: it serializes its forwards, and an abandoned
        straggler checks its holder before every score.

        Returns ``(candidate, score)`` — ``score`` is the winning shadow
        score of a scored full refit, ``None`` when the attempt did not
        score its candidate — or ``None`` when every attempt failed.
        """
        config = self.config
        for retry in range(config.max_refit_retries + 1):
            if self._stop.is_set():
                return None
            self._refit_attempts += 1
            attempt = self._refit_attempts
            holder: dict = {
                "done": threading.Event(),
                "result": None,
                "score": None,
                "error": None,
                "abandoned": False,
                "phase": 0,
                "phase_scores": {},
            }
            thread = threading.Thread(
                target=self._refit_attempt,
                args=(
                    holder, segments, mode, live, attempt,
                    fit_rows, scorer, inputs, targets, starts,
                ),
                name=f"maintenance-refit-{attempt}",
                daemon=True,
            )
            started = time.monotonic()
            thread.start()
            # Slice the wait so close() interrupts a refit-in-progress
            # promptly instead of blocking for the full timeout budget.
            deadline = started + config.refit_timeout_s
            while True:
                finished = holder["done"].wait(0.05)
                if finished or self._stop.is_set():
                    break
                if time.monotonic() >= deadline:
                    break
            elapsed = time.monotonic() - started
            if not finished and self._stop.is_set():
                holder["abandoned"] = True
                return None
            if finished and holder["error"] is None:
                # phase_scores: every phase's shadow score ({} unless a
                # scored full refit).
                self._event(
                    "maintenance_refit",
                    attempt=attempt, mode=mode, status="ok",
                    retry=retry, elapsed_s=round(elapsed, 4),
                    phase=holder["phase"], phase_scores=holder["phase_scores"],
                )
                self._counter("maintenance_refit_total", {"status": "ok"})
                return holder["result"], holder["score"]
            if finished:
                status, detail = "error", repr(holder["error"])
            else:
                holder["abandoned"] = True
                status, detail = "timeout", f"abandoned after {elapsed:.2f}s"
            self._event(
                "maintenance_refit",
                attempt=attempt, mode=mode, status=status,
                retry=retry, detail=detail,
            )
            self._counter("maintenance_refit_total", {"status": status})
            if retry < config.max_refit_retries:
                self.stats_counters["refit_retries"] += 1
                self._counter("maintenance_refit_retries_total")
                delay = min(
                    config.backoff_base_s * (2.0 ** retry), config.backoff_max_s
                )
                if self._stop.wait(delay):
                    return None
        return None

    def _refit_attempt(
        self, holder: dict, segments: np.ndarray, mode: str, live: np.ndarray,
        attempt: int,
        fit_rows: dict[str, np.ndarray] | None = None,
        scorer: ShadowScorer | None = None,
        inputs: list[np.ndarray] | None = None,
        targets: list[np.ndarray] | None = None,
        starts: dict[str, int] | None = None,
    ) -> None:
        try:
            spec = self.chaos
            if spec is not None:
                # Chaos channels keyed on the lifetime attempt counter
                # (the refit-side analogue of ChaosModel.forward).
                if spec.fires(spec.hang_every, attempt):
                    time.sleep(spec.hang_seconds)
                    raise ChaosError(
                        f"injected refit hang on attempt {attempt}"
                    )
                if spec.fires(spec.fail_every, attempt):
                    raise ChaosError(
                        f"injected refit failure on attempt {attempt}"
                    )
            alpha = self._clustering.effective_alpha
            sweep = phase_candidates(
                fit_rows, self.model.config.segment_length, starts
            ) if fit_rows else [(0, segments)]
            if mode == "incremental":
                # Small-drift repair assumes the live bank is roughly
                # right, so the live bank itself defines the phase: pick
                # the offset whose segments sit closest to it.
                offset, chopped = min(
                    sweep,
                    key=lambda item: float(
                        composite_distance(item[1], live, alpha)
                        .min(axis=1).mean()
                    ),
                )
                candidate, _ = incremental_repair(live, chopped, alpha)
                holder["phase"] = offset
            else:
                # Full refit: fit one bank per phase offset and keep the
                # one with the best held-out shadow score.  Inertia is
                # blind to phase (misphased hybrids cluster tightly on
                # cyclic data), so the selection must run on the holdout.
                # All phases are fitted in one batched pass; without a
                # scorer only the first eligible phase is needed.
                if not inputs:
                    scorer = None
                eligible = [
                    (offset, chopped)
                    for offset, chopped in sweep
                    if len(chopped) >= self.model.config.num_prototypes
                ]
                if scorer is None:
                    eligible = eligible[:1]
                banks = []
                if eligible and not (holder["abandoned"] or self._stop.is_set()):
                    banks = SegmentClusterer(self._clustering).fit_many(
                        [chopped for _, chopped in eligible]
                    )
                candidate, best = None, math.inf
                for (offset, _), fitted in zip(eligible, banks):
                    if holder["abandoned"] or self._stop.is_set():
                        break
                    if scorer is None:
                        candidate = fitted
                        holder["phase"] = offset
                        break
                    score = scorer.score(fitted, inputs, targets)
                    holder["phase_scores"][offset] = score
                    if score < best:
                        candidate, best = fitted, score
                        holder["phase"] = offset
                if candidate is None:
                    raise RuntimeError(
                        "no phase offset yielded enough segments to refit"
                    )
                if scorer is not None:
                    holder["score"] = best
            if not holder["abandoned"]:
                holder["result"] = np.asarray(candidate, dtype=np.float64)
        except Exception as error:  # noqa: BLE001 - reported via holder
            if not holder["abandoned"]:
                holder["error"] = error
        finally:
            holder["done"].set()

    # ------------------------------------------------------------------
    # Swap + rollback watch
    # ------------------------------------------------------------------
    def _install(
        self, candidate: np.ndarray, mode: str, retired: np.ndarray, scorer
    ) -> None:
        self._swap(candidate)
        with self._monitor_lock:
            self.monitor.reset()
        self._counter("maintenance_swap_total", {"outcome": "accepted"})
        self._event(
            "maintenance_swap",
            mode=mode,
            prototype_version=int(self.model.prototype_version),
        )
        with self._watch_lock:
            if self.config.rollback_window > 0:
                self._watch = {
                    "retired": np.asarray(retired, dtype=np.float64).copy(),
                    "remaining": self.config.rollback_window,
                    "since_check": 0,
                    "scorer": scorer,
                    # A rollback undoes *this* swap: its event carries
                    # the swapping job's trace id, not a fresh one.
                    "trace": self._job_trace,
                }
                self._set_state("watching")
            else:
                self._watch = None
                self._set_state("idle")

    def _tick_watch(self) -> None:
        """Advance the rollback watch one drift tick (host thread).

        Only bookkeeping happens here — the scoring itself runs on the
        background loop (or via :meth:`check_rollback`), keeping the
        serving ingest path cheap.
        """
        due = False
        with self._watch_lock:
            watch = self._watch
            if watch is None:
                return
            watch["remaining"] -= 1
            watch["since_check"] += 1
            if watch["since_check"] >= self.config.rollback_check_every:
                watch["since_check"] = 0
                due = True
            if watch["remaining"] <= 0:
                due = True
        if due:
            with self._cond:
                self._watch_check_due = True
                self._cond.notify_all()
            if self._thread is None:
                # No background loop (synchronous/test use): run inline.
                self.check_rollback(force=True)

    def check_rollback(self, force: bool = False) -> dict | None:
        """Score live vs retired on fresh holdout; roll back if worse.

        Returns the check result, or None when no watch is armed (or
        the check was not due and ``force`` is False).
        """
        with self._cond:
            if not force and not self._watch_check_due:
                return None
            self._watch_check_due = False
        with self._watch_lock:
            watch = self._watch
            if watch is None:
                return None
            retired = watch["retired"]
            scorer = watch["scorer"]
            expired = watch["remaining"] <= 0
            watch_trace = watch.get("trace") or new_id()
        model_config = self.model.config
        _, inputs, targets, _ = build_job_data(
            self.history.snapshot(),
            model_config.lookback,
            model_config.horizon,
            model_config.segment_length,
            self.config.holdout_windows,
        )
        live = self.model.prototype_values()
        if live is None or not inputs:
            return {"status": "skipped"}
        current_score = scorer.score(live, inputs, targets)
        retired_score = scorer.score(retired, inputs, targets)
        regressed = current_score > retired_score * self.config.rollback_tolerance
        if regressed:
            self._swap(retired)
            with self._monitor_lock:
                self.monitor.reset()
            with self._watch_lock:
                self._watch = None
            self.stats_counters["rollbacks"] += 1
            self._counter("maintenance_swap_total", {"outcome": "rollback"})
            self.run_logger.event(
                "maintenance_rollback",
                reason=(
                    f"post-swap {self.config.shadow_metric} {current_score:.6g} "
                    f"> retired {retired_score:.6g} "
                    f"x tolerance {self.config.rollback_tolerance}"
                ),
                current_score=current_score,
                retired_score=retired_score,
                trace_id=watch_trace,
            )
            self._set_state("idle")
            return {
                "status": "rolled_back",
                "current_score": current_score,
                "retired_score": retired_score,
            }
        if expired:
            with self._watch_lock:
                self._watch = None
            self.stats_counters["watch_expired"] += 1
            self._set_state("idle")
            return {"status": "watch_expired", "current_score": current_score}
        return {
            "status": "healthy",
            "current_score": current_score,
            "retired_score": retired_score,
        }

    # ------------------------------------------------------------------
    # Introspection / telemetry
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._watch_lock:
            watching = self._watch is not None
            watch_remaining = (
                self._watch["remaining"] if self._watch is not None else 0
            )
        return {
            "state": self._state,
            "watching": watching,
            "watch_remaining": watch_remaining,
            "history_rows": self.history.total_rows(),
            "drift": self.monitor.last_drift,
            "drift_alarms": self.monitor.alarms,
            **self.stats_counters,
        }

    _STATE_CODES = {"idle": 0, "refitting": 1, "shadowing": 2, "watching": 3}

    def _set_state(self, state: str) -> None:
        self._state = state
        if self.registry is not None:
            self.registry.gauge(
                "maintenance_state",
                help="0=idle 1=refitting 2=shadowing 3=watching",
            ).set(self._STATE_CODES[state])

    def _event(self, kind: str, **fields) -> None:
        """Emit one run event, stamped with the active job's trace id."""
        if self._job_trace:
            fields.setdefault("trace_id", self._job_trace)
        self.run_logger.event(kind, **fields)

    def _counter(self, name: str, labels: dict | None = None) -> None:
        if self.registry is not None:
            self.registry.counter(name, labels=labels).inc()
