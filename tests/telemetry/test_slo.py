"""Tests for rolling-window SLO tracking and its health wiring."""

import random

import pytest

from repro.telemetry import (
    MetricsRegistry,
    RunLogger,
    SloConfig,
    SloMonitor,
    read_events,
    response_ok,
)
from repro.robustness import HealthMonitor, HealthState


def fast_config(**overrides):
    base = dict(
        latency_p99_ms=10.0, error_rate=0.2, window=8, budget_window=8,
        min_samples=4, evaluate_every=4,
    )
    base.update(overrides)
    return SloConfig(**base)


class TestSloConfig:
    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("latency_p99_ms", 0.0, "latency_p99_ms"),
            ("latency_quantile", 0.0, "latency_quantile"),
            ("latency_quantile", 1.5, "latency_quantile"),
            ("error_rate", 0.0, "error_rate"),
            ("error_rate", 1.0, "error_rate"),
            ("window", 1, "window"),
            ("budget_window", 4, "budget_window"),
            ("min_samples", 0, "min_samples"),
            ("evaluate_every", 0, "evaluate_every"),
            ("budget_burn_limit", 0.0, "budget_burn_limit"),
        ],
    )
    def test_validation_rejects_bad_values(self, field, value, match):
        kwargs = {"window": 8, "budget_window": 16, field: value}
        if field == "budget_window":
            kwargs["window"] = 8  # budget_window 4 < window 8
        with pytest.raises(ValueError, match=match):
            SloConfig(**kwargs)

    def test_wire_round_trip(self):
        config = fast_config()
        assert SloConfig.from_wire(config.to_wire()) == config


class TestResponseOk:
    def test_model_and_cache_meet_the_slo(self):
        assert response_ok("model")
        assert response_ok("cache")

    def test_fallback_and_rejected_burn_budget(self):
        assert not response_ok("fallback_mean")
        assert not response_ok("fallback")
        assert not response_ok("rejected_queue_full")


class TestObjectives:
    def test_latency_breach_emits_violation_and_degrades_health(self, tmp_path):
        logger = RunLogger.to_dir(tmp_path)
        health = HealthMonitor(recover_after=1)
        monitor = SloMonitor(fast_config(), run_logger=logger, health=health)
        for _ in range(4):
            monitor.record(100.0, ok=True)
        assert monitor.violations["latency_p99"]
        assert monitor.violating
        assert health.state is HealthState.DEGRADED
        logger.close()
        events = [e for e in read_events(tmp_path)
                  if e["type"] == "slo_violation"]
        assert len(events) == 1
        assert events[0]["objective"] == "latency_p99"
        assert events[0]["value"] == pytest.approx(100.0)
        assert events[0]["target"] == 10.0

    def test_recovery_emits_recovered_and_heals(self, tmp_path):
        logger = RunLogger.to_dir(tmp_path)
        health = HealthMonitor(recover_after=1)
        monitor = SloMonitor(fast_config(), run_logger=logger, health=health)
        for _ in range(4):
            monitor.record(100.0, ok=True)
        # Flush the rolling window with fast responses.
        for _ in range(8):
            monitor.record(1.0, ok=True)
        assert not monitor.violating
        assert health.state is HealthState.HEALTHY
        logger.close()
        kinds = [e["type"] for e in read_events(tmp_path)
                 if e["type"].startswith("slo_")]
        assert kinds == ["slo_violation", "slo_recovered"]

    def test_error_rate_and_budget_burn_trip_together(self, tmp_path):
        logger = RunLogger.to_dir(tmp_path)
        monitor = SloMonitor(fast_config(), run_logger=logger)
        for _ in range(4):
            monitor.record(1.0, ok=False)
        assert monitor.violations["error_rate"]
        assert monitor.violations["error_budget"]
        assert not monitor.violations["latency_p99"]
        logger.close()
        events = [e for e in read_events(tmp_path)
                  if e["type"] == "slo_violation"]
        assert {e["objective"] for e in events} == {
            "error_rate", "error_budget",
        }
        # burn = observed error rate / target = 1.0 / 0.2.
        assert all(e["burn_rate"] == pytest.approx(5.0) for e in events)

    def test_record_response_maps_provenance(self):
        monitor = SloMonitor(fast_config())
        for _ in range(4):
            monitor.record_response(1.0, "fallback_mean")
        assert monitor.violations["error_rate"]


class TestCadence:
    def test_min_samples_suppresses_early_verdicts(self):
        monitor = SloMonitor(fast_config(min_samples=8, evaluate_every=1))
        for _ in range(7):
            monitor.record(100.0, ok=False)
        assert monitor.evaluations == 0
        assert not monitor.violating
        monitor.record(100.0, ok=False)
        assert monitor.evaluations == 1
        assert monitor.violating

    def test_evaluate_every_batches_evaluations(self):
        monitor = SloMonitor(fast_config(min_samples=1, evaluate_every=4))
        for _ in range(11):
            monitor.record(1.0, ok=True)
        assert monitor.evaluations == 2  # at samples 4 and 8

    def test_empty_snapshot_reports_zero_samples(self):
        assert SloMonitor(fast_config()).snapshot() == {"samples": 0}

    def test_snapshot_reports_rolling_values(self):
        monitor = SloMonitor(fast_config(evaluate_every=100))
        for latency in (1.0, 2.0, 3.0, 40.0):
            monitor.record(latency, ok=True)
        monitor.record(5.0, ok=False)
        state = monitor.snapshot()
        assert state["samples"] == 5
        assert state["latency_p99_ms"] == 40.0
        assert state["error_rate"] == pytest.approx(0.2)
        assert state["budget_burn_rate"] == pytest.approx(1.0)

    def test_running_error_counts_match_the_windows(self):
        """Running sums and the sorted latency window stay exact as both
        windows evict, for single records and batches larger than a window."""
        config = fast_config(window=8, budget_window=32, evaluate_every=5,
                             latency_quantile=0.8)
        monitor = SloMonitor(config)
        rng = random.Random(7)
        outcomes, latencies = [], []
        for _ in range(60):
            batch = [rng.random() < 0.7 for _ in range(rng.choice((1, 3, 9, 40)))]
            latency = float(rng.randrange(20))  # ties included
            if len(batch) == 1:
                monitor.record(latency, ok=batch[0])
            else:
                monitor.record_many(latency, batch)
            outcomes += batch
            latencies += [latency] * len(batch)
            window = outcomes[-config.window:]
            budget = outcomes[-config.budget_window:]
            ordered = sorted(latencies[-config.window:])
            state = monitor.snapshot()
            assert state["samples"] == len(window)
            assert state["latency_p99_ms"] == ordered[int(0.8 * len(ordered) + 0.5) - 1]
            assert state["error_rate"] == window.count(False) / len(window)
            assert state["budget_burn_rate"] == (
                budget.count(False) / len(budget) / config.error_rate
            )
        # One evaluation per evaluate_every boundary crossed.
        assert monitor.evaluations == len(outcomes) // config.evaluate_every


class TestInstruments:
    def test_gauges_and_violation_counters_update(self):
        registry = MetricsRegistry()
        monitor = SloMonitor(fast_config(), telemetry=registry)
        for _ in range(4):
            monitor.record(100.0, ok=False)
        assert registry.gauge("slo_latency_p99_ms").value == 100.0
        assert registry.gauge("slo_error_rate").value == 1.0
        assert registry.gauge("slo_objectives_violating").value == 3
        for objective in SloMonitor.OBJECTIVES:
            counter = registry.counter(
                "slo_violations_total", labels={"objective": objective}
            )
            assert counter.value == 1
        # Recovery pulls the gauges back without new violation counts.
        for _ in range(8):
            monitor.record(1.0, ok=True)
        assert registry.gauge("slo_objectives_violating").value == 0
        assert registry.counter(
            "slo_violations_total", labels={"objective": "latency_p99"}
        ).value == 1

    def test_health_climbs_back_after_clean_evaluations(self):
        health = HealthMonitor(recover_after=2)
        monitor = SloMonitor(fast_config(), health=health)
        for _ in range(4):
            monitor.record(100.0, ok=True)
        assert health.state is HealthState.DEGRADED
        for _ in range(12):
            monitor.record(1.0, ok=True)
        assert health.state is HealthState.HEALTHY
