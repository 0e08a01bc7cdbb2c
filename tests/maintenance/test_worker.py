"""Unit tests for the MaintenanceWorker lifecycle machinery.

These use the quick untrained model with ``shadow_metric="inertia"``:
the gate then scores banks by the clustering objective on the holdout
segments, which is deterministic without readout training — a bank
fitted on the current regime always beats a stale one.  The trained
end-to-end scenarios (forecast-MSE gate) live in
``test_lifecycle_chaos.py``.
"""

import math
import threading
import time

import numpy as np
import pytest

from repro.core.clustering import SegmentClusterer
from repro.maintenance import MaintenanceConfig, MaintenanceWorker
from repro.maintenance.repair import ShadowScorer, build_job_data, phase_candidates
from repro.robustness import ChaosSpec
from repro.telemetry import DriftConfig, MetricsRegistry
from repro.telemetry.runlog import RunLogger

from .conftest import ListSink, Q_LOOKBACK, events_of, quick_model, regime_rows

pytestmark = pytest.mark.maintenance


def make_worker(model=None, sink=None, registry=None, chaos=None, **overrides):
    model = model or quick_model()
    defaults = dict(
        history_rows=128,
        drift_every=4,
        drift=DriftConfig(
            window=4, baseline_forecasts=2, threshold=0.3,
            alarm_streak=2, min_segments=8,
        ),
        min_segments=16,
        holdout_windows=4,
        shadow_metric="inertia",
        refit_timeout_s=10.0,
        backoff_base_s=0.01,
        backoff_max_s=0.05,
        rollback_window=12,
        rollback_check_every=2,
    )
    defaults.update(overrides)
    worker = MaintenanceWorker(
        model,
        MaintenanceConfig(**defaults),
        registry=registry,
        run_logger=RunLogger([sink]) if sink is not None else None,
        chaos=chaos,
    )
    return worker


def feed(worker, rows):
    for row in rows:
        worker.record("tenant-0", row)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="mode"):
            MaintenanceConfig(mode="yolo")
        with pytest.raises(ValueError, match="settle_rows"):
            MaintenanceConfig(settle_rows=-1)
        with pytest.raises(ValueError, match="shadow_margin"):
            MaintenanceConfig(shadow_margin=1.0)
        with pytest.raises(ValueError, match="refit_timeout_s"):
            MaintenanceConfig(refit_timeout_s=0.0)
        with pytest.raises(ValueError, match="rollback"):
            MaintenanceConfig(rollback_check_every=0)


class TestObservationTap:
    def test_profiles_feed_drift_monitor_every_drift_every_rows(self, rng):
        worker = make_worker()
        feed(worker, regime_rows(rng, 40))
        # 40 rows, profiling starts once depth reaches the lookback (16)
        # and then fires every 4th row.
        assert worker.monitor.forecasts_seen == 6
        assert worker.stats()["rows_recorded"] == 40
        assert worker.monitor.baseline is not None

    def test_non_finite_rows_never_profiled(self, rng):
        worker = make_worker()
        rows = regime_rows(rng, 24)
        rows[20:] = np.nan
        feed(worker, rows)
        assert worker.history.dropped_rows == 4
        assert worker.stats()["rows_recorded"] == 20
        # Profiling fires on rows 19 only (depth 16 reached at row 16,
        # then every 4th eligible row); the NaN tail never profiles.
        assert worker.monitor.forecasts_seen == 1

    def test_stale_bank_on_shifted_stream_raises_alarm(self, rng):
        worker = make_worker()
        feed(worker, regime_rows(rng, 48))           # baseline regime
        assert worker.stats()["alarms"] == 0
        feed(worker, regime_rows(rng, 64, fast=True))  # shifted regime
        assert worker.stats()["alarms"] >= 1
        # Without a running loop the job stays pending (coalesced).
        assert worker.stats()["alarms_coalesced"] >= 0


class TestJobQueue:
    def test_requests_coalesce_while_pending(self):
        worker = make_worker()
        assert worker.request_maintenance("first") is True
        assert worker.request_maintenance("second") is False
        assert worker.stats()["alarms_coalesced"] == 1

    def test_run_once_skips_without_history(self, rng):
        sink = ListSink()
        worker = make_worker(sink=sink)
        result = worker.run_once("manual")
        assert result["status"] == "skipped"
        assert result["reason"] == "insufficient history"
        jobs = events_of(sink, "maintenance_job")
        assert jobs and jobs[0]["status"] == "skipped"

    def test_run_once_skips_without_holdout(self, rng):
        worker = make_worker(holdout_windows=4, min_segments=2)
        # Enough rows to fit on, not enough for lookback+horizon holdout.
        feed(worker, regime_rows(rng, Q_LOOKBACK + 2))
        result = worker.run_once("manual")
        assert result["status"] == "skipped"
        assert result["reason"] == "insufficient holdout"


class TestShadowGateAndSwap:
    def test_regime_shift_refit_is_accepted_and_installed(self, rng):
        sink = ListSink()
        registry = MetricsRegistry()
        worker = make_worker(sink=sink, registry=registry, mode="full")
        model = worker.model
        stale = model.prototype_values().copy()
        version = model.prototype_version
        feed(worker, regime_rows(rng, 100, fast=True))
        result = worker.run_once("manual")
        assert result["status"] == "swapped"
        assert result["candidate_score"] < result["live_score"]
        assert model.prototype_version == version + 1
        assert not np.array_equal(model.prototype_values(), stale)
        # The drift baseline re-arms after the swap.
        assert worker.monitor.baseline is None
        assert worker.state == "watching"
        swap = events_of(sink, "maintenance_swap")
        assert swap and swap[0]["prototype_version"] == version + 1
        shadow = events_of(sink, "maintenance_shadow")
        assert shadow and shadow[0]["accepted"] is True
        assert registry.value(
            "maintenance_swap_total", labels={"outcome": "accepted"}
        ) == 1

    def test_impossible_margin_rejects_and_escalates_through_full(self, rng):
        # History matches the live bank's fit regime, and the margin
        # demands a 2x improvement no candidate can deliver: the auto
        # mode must try incremental, escalate to full, then reject —
        # leaving the live bank untouched.
        sink = ListSink()
        registry = MetricsRegistry()
        worker = make_worker(
            sink=sink, registry=registry, mode="auto", shadow_margin=0.5
        )
        model = worker.model
        live = model.prototype_values().copy()
        feed(worker, regime_rows(rng, 100))
        result = worker.run_once("manual")
        assert result["status"] == "rejected"
        np.testing.assert_array_equal(model.prototype_values(), live)
        shadow = events_of(sink, "maintenance_shadow")
        assert [e["mode"] for e in shadow] == ["incremental", "full"]
        assert all(e["accepted"] is False for e in shadow)
        rejected = events_of(sink, "swap_rejected")
        assert rejected and rejected[0]["modes"] == ["incremental", "full"]
        assert registry.value(
            "maintenance_swap_total", labels={"outcome": "rejected"}
        ) == 1
        assert worker.state == "idle"

    def test_propose_gates_nan_candidate(self, rng):
        sink = ListSink()
        worker = make_worker(sink=sink, shadow_metric="mse")
        model = worker.model
        live = model.prototype_values().copy()
        feed(worker, regime_rows(rng, 100))
        poisoned = np.full_like(live, np.nan)
        result = worker.propose(poisoned)
        assert result["status"] == "rejected"
        assert result["candidate_score"] == float("inf")
        np.testing.assert_array_equal(model.prototype_values(), live)
        assert events_of(sink, "swap_rejected")

    def test_propose_force_bypasses_gate(self, rng):
        worker = make_worker()
        feed(worker, regime_rows(rng, 100))
        bank = worker.model.prototype_values() + 0.5
        result = worker.propose(bank, force=True)
        assert result["status"] == "swapped"
        np.testing.assert_array_equal(worker.model.prototype_values(), bank)


class TestPhaseSweep:
    """The batched full refit picks what the per-phase sweep picks."""

    @pytest.mark.parametrize("metric", ["inertia", "mse"])
    def test_full_job_matches_per_phase_fit_and_score(self, rng, metric):
        sink = ListSink()
        worker = make_worker(sink=sink, mode="full", shadow_metric=metric)
        model = worker.model
        feed(worker, regime_rows(rng, 100, fast=True))

        # Reference: fit each phase alone, score it, keep the first best.
        config, model_config = worker.config, model.config
        history, starts = worker.history.snapshot_with_starts()
        _, inputs, targets, fit_rows = build_job_data(
            history, model_config.lookback, model_config.horizon,
            model_config.segment_length, config.holdout_windows,
        )
        scorer = ShadowScorer(model.snapshot(), metric)
        phases = [
            (phase, chopped)
            for phase, chopped in phase_candidates(
                fit_rows, model_config.segment_length, starts
            )
            if len(chopped) >= model_config.num_prototypes
        ]
        assert len(phases) > 1
        best, expected, expected_phase = math.inf, None, None
        for phase, chopped in phases:
            bank = SegmentClusterer(worker._clustering).fit(chopped).prototypes_
            score = scorer.score(bank, inputs, targets)
            if score < best:
                best, expected, expected_phase = score, bank, phase

        candidates = []
        refit = worker._refit_with_timeout

        def capture(*args, **kwargs):
            candidates.append(refit(*args, **kwargs))
            return candidates[-1]

        worker._refit_with_timeout = capture
        result = worker.run_once("manual")
        assert result["mode"] == "full"
        ((candidate, score),) = candidates
        assert np.array_equal(candidate, expected)
        # The attempt's winning score is the job's candidate score.
        assert score == best == result["candidate_score"]
        assert events_of(sink, "maintenance_refit")[-1]["phase"] == expected_phase

    def test_stop_after_fit_scores_no_bank(self, rng, monkeypatch):
        worker = make_worker(mode="full")
        feed(worker, regime_rows(rng, 100, fast=True))
        fit_many = SegmentClusterer.fit_many
        scored = []

        def fit_then_stop(self, segment_sets):
            banks = fit_many(self, segment_sets)
            worker._stop.set()
            return banks

        original_score = ShadowScorer.score

        def counting_score(self, bank, inputs, targets):
            scored.append(bank)
            return original_score(self, bank, inputs, targets)

        monkeypatch.setattr(SegmentClusterer, "fit_many", fit_then_stop)
        # The live bank is scored once before the refit starts.
        monkeypatch.setattr(ShadowScorer, "score", counting_score)
        result = worker.run_once("manual")
        assert result["status"] == "refit_failed"
        assert len(scored) == 1


class TestRefitFaults:
    def test_all_attempts_hang_times_out_and_leaves_bank_alone(self, rng):
        sink = ListSink()
        registry = MetricsRegistry()
        worker = make_worker(
            sink=sink,
            registry=registry,
            chaos=ChaosSpec(hang_every=1, hang_seconds=5.0),
            refit_timeout_s=0.2,
            max_refit_retries=2,
            mode="full",
        )
        live = worker.model.prototype_values().copy()
        feed(worker, regime_rows(rng, 100, fast=True))
        started = time.monotonic()
        result = worker.run_once("manual")
        elapsed = time.monotonic() - started
        assert result["status"] == "refit_failed"
        assert result["attempts"] == 3
        assert elapsed < 3.0  # attempts were abandoned, not awaited
        np.testing.assert_array_equal(worker.model.prototype_values(), live)
        refits = events_of(sink, "maintenance_refit")
        assert [e["status"] for e in refits] == ["timeout"] * 3
        assert [e["retry"] for e in refits] == [0, 1, 2]
        assert worker.stats()["refit_retries"] == 2
        assert registry.value(
            "maintenance_refit_total", labels={"status": "timeout"}
        ) == 3

    def test_transient_failures_retry_until_success(self, rng):
        sink = ListSink()
        worker = make_worker(
            sink=sink,
            chaos=ChaosSpec(fail_every=1, stop_after=2),  # attempts 1, 2 fail
            max_refit_retries=2,
            mode="full",
        )
        feed(worker, regime_rows(rng, 100, fast=True))
        result = worker.run_once("manual")
        assert result["status"] == "swapped"
        refits = events_of(sink, "maintenance_refit")
        assert [e["status"] for e in refits] == ["error", "error", "ok"]
        assert refits[-1]["retry"] == 2
        assert worker.stats()["refit_retries"] == 2


class TestRollbackWatch:
    def test_regressing_swap_rolls_back(self, rng):
        sink = ListSink()
        registry = MetricsRegistry()
        worker = make_worker(sink=sink, registry=registry)
        model = worker.model
        good = model.prototype_values().copy()
        feed(worker, regime_rows(rng, 100))
        # Force-install a bank that is finite but wildly wrong.
        garbage = good + 25.0
        worker.propose(garbage, force=True)
        assert worker.state == "watching"
        # Fresh traffic ticks the watch; with no background thread the
        # due check runs inline and must restore the retired bank.
        feed(worker, regime_rows(rng, 40))
        assert worker.stats()["rollbacks"] == 1
        np.testing.assert_array_equal(model.prototype_values(), good)
        assert worker.state == "idle"
        rollback = events_of(sink, "maintenance_rollback")
        assert rollback and rollback[0]["current_score"] > rollback[0]["retired_score"]
        assert registry.value(
            "maintenance_swap_total", labels={"outcome": "rollback"}
        ) == 1

    def test_healthy_swap_expires_watch_without_rollback(self, rng):
        worker = make_worker()
        model = worker.model
        feed(worker, regime_rows(rng, 100))
        near_identical = model.prototype_values() + 1e-9
        worker.propose(near_identical, force=True)
        feed(worker, regime_rows(rng, 80))
        stats = worker.stats()
        assert stats["rollbacks"] == 0
        assert stats["watch_expired"] == 1
        assert worker.state == "idle"
        np.testing.assert_array_equal(model.prototype_values(), near_identical)


class TestTick:
    def test_tick_runs_the_settled_job_inline(self, rng):
        # Baseline-regime feed so no drift alarm pre-empts the request.
        worker = make_worker(settle_rows=40, mode="full")
        feed(worker, regime_rows(rng, 100))
        assert worker.tick() is None  # nothing pending
        worker.request_maintenance("drift onset")
        assert worker.tick() is None  # still settling
        assert worker.stats()["jobs_started"] == 0
        feed(worker, regime_rows(rng, 40))
        result = worker.tick()
        assert result["status"] in ("swapped", "rejected")
        assert worker.stats()["jobs_started"] == 1
        assert worker.join_idle(timeout=0.0)  # nothing pending or in flight
        assert worker.tick() is None


class TestBackgroundLoop:
    def test_background_job_runs_and_loop_survives(self, rng):
        worker = make_worker(mode="full")
        # The shifted feed itself raises a drift alarm, which enqueues
        # the job the loop must pick up once started.
        feed(worker, regime_rows(rng, 100, fast=True))
        with worker:
            worker.request_maintenance("manual")  # coalesces or enqueues
            assert worker.join_idle(timeout=20.0)
            assert worker.stats()["jobs_swapped"] == 1
            first = worker.stats()["jobs_started"]
            # The loop is still alive for subsequent work.
            assert worker.request_maintenance("again") is True
            assert worker.join_idle(timeout=20.0)
            assert worker.stats()["jobs_started"] == first + 1

    def test_double_start_rejected_and_close_idempotent(self):
        worker = make_worker()
        worker.start()
        with pytest.raises(RuntimeError, match="already started"):
            worker.start()
        worker.close()
        worker.close()  # second close is a no-op
        worker.start()  # restart after close works
        worker.close()

    def test_settle_rows_delays_job_until_fresh_data_arrives(self, rng):
        # Baseline-regime feed so no drift alarm pre-empts the request.
        worker = make_worker(settle_rows=40, mode="full")
        feed(worker, regime_rows(rng, 100))
        with worker:
            worker.request_maintenance("drift onset")
            time.sleep(0.5)
            # Still settling: no fresh rows arrived since the alarm.
            assert worker.stats()["jobs_started"] == 0
            feed(worker, regime_rows(rng, 40))
            assert worker.join_idle(timeout=20.0)
            assert worker.stats()["jobs_started"] == 1

    def test_close_mid_refit_abandons_cleanly(self, rng):
        sink = ListSink()
        worker = make_worker(
            sink=sink,
            chaos=ChaosSpec(hang_every=1, hang_seconds=30.0),
            refit_timeout_s=30.0,
            mode="full",
        )
        live = worker.model.prototype_values().copy()
        feed(worker, regime_rows(rng, 100, fast=True))
        worker.start()
        worker.request_maintenance("manual")
        deadline = time.monotonic() + 5.0
        while worker.state != "refitting" and time.monotonic() < deadline:
            time.sleep(0.01)
        assert worker.state == "refitting"
        started = time.monotonic()
        worker.close()
        assert time.monotonic() - started < 2.0
        np.testing.assert_array_equal(worker.model.prototype_values(), live)
        assert not events_of(sink, "maintenance_swap")


class TestRecordMany:
    """``record_many`` is exactly one ``record`` per row, in order."""

    TENANTS = ["tenant-0", "tenant-1", "tenant-2"]

    @staticmethod
    def scenario():
        """Ingest steps ``(entity ids, rows)`` plus the job/swap calls
        between them: regime A, a drift to regime B (alarm, settled job,
        swap), a NaN row mid-step, a forced bad swap whose inline
        rollback check fires mid-step, and one tenant's 4-row block."""
        rng = np.random.default_rng(5)
        tenants = TestRecordMany.TENANTS
        streams = {
            tenant: np.concatenate(
                [regime_rows(rng, 48), regime_rows(rng, 120, fast=True)]
            )
            for tenant in tenants
        }
        actions = []
        for step in range(168):
            rows = np.stack([streams[tenant][step] for tenant in tenants])
            if step == 100:
                rows[1] = np.nan
            actions.append(("rows", tenants, rows))
            if step == 90:
                actions.append(("tick",))
            if step == 111:
                actions.append(("garbage",))
            if step == 140:
                block = regime_rows(rng, 4)
                actions.append(("rows", ["tenant-2"] * 4, block))
        return actions

    @staticmethod
    def drive(batched: bool):
        sink = ListSink()
        worker = make_worker(
            sink=sink, history_rows=64, mode="full", settle_rows=12,
            rollback_check_every=3,
        )
        checks = []
        check = worker.check_rollback

        def traced_check(force=False):
            history, starts = worker.history.snapshot_with_starts()
            observed = sum(starts[e] + len(rows) for e, rows in history.items())
            result = check(force=force)
            checks.append((observed, history, result))
            return result

        worker.check_rollback = traced_check
        states = []
        boundaries = {0}
        observed = 0
        for action in TestRecordMany.scenario():
            if action[0] == "tick":
                worker.tick()
            elif action[0] == "garbage":
                worker.propose(worker.model.prototype_values() + 25.0, force=True)
            else:
                _, entity_ids, rows = action
                if batched:
                    worker.record_many(entity_ids, rows)
                else:
                    for entity_id, row in zip(entity_ids, rows):
                        worker.record(entity_id, row)
                observed += len(rows)
                boundaries.add(observed)
            states.append(TestRecordMany.state(worker))
        return worker, sink, checks, states, boundaries

    @staticmethod
    def state(worker):
        monitor = worker.monitor
        history, starts = worker.history.snapshot_with_starts()
        with worker._watch_lock:
            watch = None if worker._watch is None else {
                key: value for key, value in worker._watch.items()
                if key not in ("scorer", "trace")
            }
        return {
            "stats": worker.stats(),
            "history": history,
            "starts": starts,
            "countdown": dict(worker._rows_since_profile),
            "bank": worker.model.prototype_values(),
            "monitor": (
                monitor.forecasts_seen, monitor.utilization.copy(),
                None if monitor.baseline is None else monitor.baseline.copy(),
                monitor.last_drift, monitor.last_entropy, monitor.alarms,
                monitor.alarmed, monitor._streak,
                [counts.copy() for counts in monitor._recent],
            ),
            "queue": (
                worker._pending_trigger, worker._pending_rows_mark,
                worker._in_flight, worker._watch_check_due,
            ),
            "watch": watch,
        }

    @staticmethod
    def events(sink):
        volatile = ("ts", "trace_id", "elapsed_s")
        return [
            {key: value for key, value in event.items() if key not in volatile}
            for event in sink.events
        ]

    def test_matches_per_row_record(self):
        worker, sink, checks, states, boundaries = self.drive(batched=True)
        _, ref_sink, ref_checks, ref_states, _ = self.drive(batched=False)

        # The scenario covers what the contract is about.
        stats = worker.stats()
        assert stats["alarms"] >= 1 and stats["jobs_swapped"] >= 2
        assert stats["rollbacks"] == 1
        assert worker.history.dropped_rows == 1
        rolled = [observed for observed, _, result in checks
                  if result is not None and result["status"] == "rolled_back"]
        assert rolled and rolled[0] not in boundaries  # fired mid-step

        _assert_same(self.events(sink), self.events(ref_sink))
        _assert_same(checks, ref_checks)
        _assert_same(states, ref_states)

    def test_rejects_misshapen_rows(self):
        worker = make_worker()
        with pytest.raises(ValueError, match="rows"):
            worker.record_many(["a", "b"], np.zeros((3, 2)))


def _assert_same(left, right, path="value"):
    """Deep equality of nested containers; arrays bitwise."""
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        assert isinstance(left, np.ndarray) and isinstance(right, np.ndarray), path
        assert left.dtype == right.dtype and np.array_equal(left, right, equal_nan=True), path
    elif isinstance(left, dict):
        assert isinstance(right, dict) and list(left) == list(right), path
        for key in left:
            _assert_same(left[key], right[key], f"{path}[{key!r}]")
    elif isinstance(left, (list, tuple)):
        assert type(left) is type(right) and len(left) == len(right), path
        for index, (a, b) in enumerate(zip(left, right)):
            _assert_same(a, b, f"{path}[{index}]")
    else:
        assert left == right or (left != left and right != right), path
