"""Serving-plane observability: request traces, SLO breaches, fleet merge.

Pins the acceptance bar of the fleet observability plane
(docs/observability.md#fleet-observability): every traced response
carries a request id, merged traces cover both the router and worker
processes, per-stage decompositions never exceed the measured
end-to-end latency, one merged registry covers every shard under a
``shard`` label, and a forced SLO breach walks serving health to
DEGRADED and back.
"""

import numpy as np
import pytest

from repro.robustness import HealthState
from repro.serving import (
    FleetConfig,
    ForecastServer,
    ServingConfig,
    ShardRouter,
    replay_streams,
)
from repro.telemetry import (
    STAGES,
    MetricsRegistry,
    RunLogger,
    SloConfig,
    render_prometheus,
    validate_event,
)

from .conftest import LOOKBACK, NUM_ENTITIES, build_model


class ListSink:
    def __init__(self):
        self.records = []

    def write(self, record):
        self.records.append(record)

    def close(self):
        pass


def warm(target, entities, rng):
    for entity_id in entities:
        target.observe_many(entity_id, rng.normal(size=(LOOKBACK, NUM_ENTITIES)))


# ----------------------------------------------------------------------
# Single-process tracing
# ----------------------------------------------------------------------
@pytest.mark.serve
class TestTracedServing:
    def test_forecast_many_traces_every_request(self, model):
        sink = ListSink()
        server = ForecastServer(
            model, ServingConfig(trace=True), run_logger=RunLogger([sink])
        )
        warm(server, ["a", "b"], np.random.default_rng(40))
        responses = server.forecast_many(["a", "b"])
        ids = [response.request_id for response in responses]
        assert all(ids) and len(set(ids)) == 2
        traces = server.trace_buffer.traces()
        assert len(traces) == 2
        for trace, response in zip(traces, responses):
            assert trace.context.request_id == response.request_id
            stages = set(trace.decomposition())
            assert stages <= set(STAGES)
            assert {"cache_lookup", "batch_assembly", "forward"} <= stages
            assert trace.stage_seconds <= trace.total_seconds
            assert trace.processes() == {"server"}
        events = [r for r in sink.records if r["type"] == "serve_trace"]
        assert [e["request_id"] for e in events] == ids
        for event in events:
            assert validate_event(event) == []
            assert sum(s["ms"] for s in event["spans"]) <= event["total_ms"] + 1e-6

    def test_threaded_requests_record_queue_wait(self, model):
        server = ForecastServer(
            model, ServingConfig(trace=True, max_delay_ms=1.0)
        )
        warm(server, ["a"], np.random.default_rng(41))
        with server:
            response = server.forecast("a")
        assert response.request_id
        (trace,) = server.trace_buffer.traces()
        decomposition = trace.decomposition()
        assert "queue_wait" in decomposition
        assert trace.stage_seconds <= trace.total_seconds

    def test_untraced_responses_have_empty_request_ids(self, model):
        server = ForecastServer(model, ServingConfig())
        warm(server, ["a"], np.random.default_rng(42))
        assert server.forecast("a").request_id == ""
        assert server.trace_buffer is None

    def test_slo_feed_rides_the_traced_path(self, model):
        server = ForecastServer(
            model,
            ServingConfig(
                trace=True,
                slo=SloConfig(latency_p99_ms=1e9, window=8, budget_window=8,
                              min_samples=2, evaluate_every=2),
            ),
        )
        warm(server, ["a", "b"], np.random.default_rng(43))
        server.forecast_many(["a", "b"])
        snapshot = server.slo.snapshot()
        assert snapshot["samples"] == 2
        assert not server.slo.violating


# ----------------------------------------------------------------------
# SLO breach chaos: degraded responses burn the budget, health follows
# ----------------------------------------------------------------------
@pytest.mark.serve
@pytest.mark.chaos
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestSloBreach:
    def test_forced_breach_degrades_and_recovers(self):
        model = build_model("float64")
        sink = ListSink()
        config = ServingConfig(
            use_cache=False,
            fail_threshold=100,  # health driven by the SLO, not forwards
            recover_after=1,
            slo=SloConfig(latency_p99_ms=1e9, error_rate=0.25, window=4,
                          budget_window=4, min_samples=4, evaluate_every=4),
        )
        server = ForecastServer(model, config, run_logger=RunLogger([sink]))
        warm(server, ["a"], np.random.default_rng(44))
        # Poison the window: a non-finite forward answers every request
        # from the fallback, which counts against the error budget.
        session = server.store.session("a")
        with session.lock:
            session.ring.storage[0, 0] = np.inf
        for _ in range(4):
            assert server.forecast("a").source == "fallback:persistence"
        assert server.slo.violations["error_rate"]
        assert server.health.state is HealthState.DEGRADED
        violations = [r for r in sink.records if r["type"] == "slo_violation"]
        assert {v["objective"] for v in violations} >= {"error_rate"}
        # Recovery: fresh finite observations flush the poisoned window.
        server.observe_many(
            "a", np.random.default_rng(45).normal(size=(LOOKBACK, NUM_ENTITIES))
        )
        for _ in range(8):
            assert server.forecast("a").source == "model"
        assert not server.slo.violating
        assert server.health.state is HealthState.HEALTHY
        recovered = [r for r in sink.records if r["type"] == "slo_recovered"]
        assert {r["objective"] for r in recovered} >= {"error_rate"}
        for record in sink.records:
            assert validate_event(record) == []


# ----------------------------------------------------------------------
# Fleet acceptance: cross-process traces + merged shard metrics
# ----------------------------------------------------------------------
@pytest.mark.fleet
class TestFleetObservability:
    def test_traced_replay_meets_the_acceptance_bar(self, model):
        sink = ListSink()
        telemetry = MetricsRegistry()
        config = FleetConfig(
            shards=2, trace=True,
            slo=SloConfig(latency_p99_ms=1e9, min_samples=8, evaluate_every=8),
        )
        rng = np.random.default_rng(46)
        streams = {
            f"obs-{i}": rng.normal(size=(LOOKBACK + 16, NUM_ENTITIES))
            for i in range(6)
        }
        with ShardRouter(
            model, config, telemetry=telemetry, run_logger=RunLogger([sink])
        ) as router:
            responses = replay_streams(router, streams, forecast_every=8)
            assert {router.shard_for(e) for e in streams} == {0, 1}
            merged = router.merged_registry()
            traces = router.trace_buffer.traces()
        # Every response carries a unique request id.
        ids = [response.request_id for response in responses]
        assert len(responses) > 0
        assert all(ids) and len(set(ids)) == len(ids)
        assert len(traces) == len(responses)
        by_request = {trace.context.request_id for trace in traces}
        assert by_request == set(ids)
        for trace in traces:
            # Router AND worker spans merged into one trace, with the
            # decomposition bounded by the end-to-end latency.
            processes = trace.processes()
            assert "router" in processes
            assert any(p.startswith("shard-") for p in processes)
            assert set(trace.decomposition()) <= set(STAGES)
            assert {"router_dispatch", "queue_wait", "gather"} <= set(
                trace.decomposition()
            )
            assert trace.stage_seconds <= trace.total_seconds + 1e-9
        # serve_trace events mirror the buffer and pass the schema.
        events = [r for r in sink.records if r["type"] == "serve_trace"]
        assert {e["request_id"] for e in events} == set(ids)
        for event in events:
            assert validate_event(event) == []
        # One merged export covers every live worker under a shard label.
        rendered = render_prometheus(merged)
        for shard in ("0", "1"):
            assert f'serve_forecasts_total{{shard="{shard}",source="model"}}' in rendered
        assert "serve_fleet_alive_workers 2" in rendered  # router-side, unlabelled
        # The SLO monitor saw the whole replay.
        assert router.slo.snapshot()["samples"] == len(responses)
