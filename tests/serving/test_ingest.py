"""Batched step ingest ≡ per-row ingest.

``ForecastServer.observe_rows`` takes one row per tenant of a stream
step: one finiteness check over the ``(E, N)`` block, one ring write per
session, one maintenance tap.  The reference is the per-row ingest it
replaces: ``store.observe`` (the guarded ring write) followed by
``MaintenanceWorker.record`` for each row in order.  Every ring, version,
journal, ingest outcome and maintenance state must match, and
``replay_streams`` must answer bit-identically on the synchronous and the
threaded path.
"""

import numpy as np
import pytest

from repro.maintenance import MaintenanceConfig, MaintenanceWorker
from repro.serving import ForecastServer, ServingConfig, replay_streams
from repro.telemetry import DriftConfig

from .conftest import LOOKBACK, NUM_ENTITIES

pytestmark = [
    pytest.mark.serve,
    # A float32 cast that overflows must stay silent (it takes the
    # guarded path); a warning here means the overflow guard is gone.
    pytest.mark.filterwarnings("error::RuntimeWarning"),
]

TENANTS = ["t-0", "t-1", "t-2", "t-3"]


def step_rows(steps, seed, nan_rows=()):
    """``(steps, E, N)`` rows; ``nan_rows`` holds ``(step, tenant)`` cells
    whose row gets one NaN value."""
    rows = np.random.default_rng(seed).normal(size=(steps, len(TENANTS), NUM_ENTITIES))
    for step, tenant in nan_rows:
        rows[step, tenant, tenant % NUM_ENTITIES] = np.nan
    return rows


def make_server(model, nan_policy="reject", maintenance=False):
    server = ForecastServer(
        model, ServingConfig(nan_policy=nan_policy, record_events=True, use_cache=False)
    )
    if maintenance:
        worker = MaintenanceWorker(
            model,
            MaintenanceConfig(
                history_rows=64, drift_every=4,
                drift=DriftConfig(window=4, baseline_forecasts=2, min_segments=4),
                shadow_metric="inertia",
            ),
        )
        server.attach_maintenance(worker)
    return server


def per_row_observe(server, entity_ids, rows):
    """The per-row ingest: a guarded ring write, then the tap."""
    results = []
    for entity_id, row in zip(entity_ids, rows):
        results.append(server.store.observe(entity_id, row))
        if server._maintenance is not None:
            server._maintenance.record(entity_id, row)
    return results


def assert_same_state(left, right):
    assert left.store.entities() == right.store.entities()
    for entity_id in left.store.entities():
        a, b = left.store.session(entity_id), right.store.session(entity_id)
        assert a.ring.storage.dtype == b.ring.storage.dtype
        assert np.array_equal(a.ring.storage, b.ring.storage)
        assert (a.ring.head, a.ring.filled, a.ring.version) == (
            b.ring.head, b.ring.filled, b.ring.version
        )
        assert a.stats == b.stats
        assert [kind for kind, _ in a.journal] == [kind for kind, _ in b.journal]
        for (_, x), (_, y) in zip(a.journal, b.journal):
            assert np.array_equal(x, y, equal_nan=True)
    worker, twin = left._maintenance, right._maintenance
    if worker is not None:
        assert worker.stats() == twin.stats()
        mine, starts = worker.history.snapshot_with_starts()
        theirs, twin_starts = twin.history.snapshot_with_starts()
        assert starts == twin_starts and list(mine) == list(theirs)
        for entity_id in mine:
            assert np.array_equal(mine[entity_id], theirs[entity_id])
        assert np.array_equal(worker.monitor.utilization, twin.monitor.utilization)
        assert worker.monitor.forecasts_seen == twin.monitor.forecasts_seen
        assert worker.monitor.last_drift == twin.monitor.last_drift


@pytest.mark.parametrize("nan_policy", ["reject", "impute_last", "impute_prototype"])
@pytest.mark.parametrize("maintenance", [False, True])
def test_step_ingest_matches_per_row(model, nan_policy, maintenance):
    rows = step_rows(LOOKBACK + 20, seed=3, nan_rows=[(5, 1), (40, 2), (41, 2)])
    batched = make_server(model, nan_policy, maintenance)
    reference = make_server(model, nan_policy, maintenance)
    for step_block in rows:
        got = batched.observe_rows(TENANTS, step_block)
        want = per_row_observe(reference, TENANTS, step_block)
        assert got == want
    # A repeated id: one tenant's rows land in order within one call.
    block = step_rows(1, seed=4)[0]
    ids = ["t-1", "t-1", "t-0", "t-1"]
    assert batched.observe_rows(ids, block) == per_row_observe(reference, ids, block)
    assert_same_state(batched, reference)
    if maintenance:
        assert batched._maintenance.monitor.forecasts_seen > 0
    totals = {key: batched.stats()[key] for key in ("observations", "imputed_values", "rejected_observations")}
    assert totals == {key: reference.stats()[key] for key in totals}


def test_float32_store_matches_per_row(model_f32):
    rows = step_rows(LOOKBACK + 4, seed=6, nan_rows=[(2, 0)])
    rows[7, 3, 0] = 1e300  # finite in float64, inf in the float32 ring
    batched = make_server(model_f32, "impute_last")
    reference = make_server(model_f32, "impute_last")
    for step_block in rows:
        assert batched.observe_rows(TENANTS, step_block) == per_row_observe(
            reference, TENANTS, step_block
        )
    assert_same_state(batched, reference)
    assert batched.stats()["imputed_values"] == 2


def test_observe_is_the_one_row_case(model):
    server = make_server(model)
    with pytest.raises(ValueError, match="observation"):
        server.observe("t-0", np.zeros(NUM_ENTITIES + 1))
    with pytest.raises(ValueError, match="observations"):
        server.observe_rows(["t-0", "t-1"], np.zeros((3, NUM_ENTITIES)))
    result = server.observe("t-0", np.ones(NUM_ENTITIES))
    assert result.accepted == 1 and server.store.session("t-0").version == 1


def replay_per_row(server, streams, forecast_every):
    """``replay_streams`` with per-row ingest: the reference order."""
    responses = []
    length = min(len(stream) for stream in streams.values())
    for step in range(length):
        due = []
        for entity_id, stream in streams.items():
            per_row_observe(server, [entity_id], stream[step][None])
            if (step + 1) >= LOOKBACK and (step + 1) % forecast_every == 0:
                if server.store.session(entity_id).ready:
                    due.append(entity_id)
        if due:
            responses.extend(server.forecast_many(due))
    return responses


@pytest.mark.parametrize("threaded", [False, True])
def test_replay_streams_matches_per_row(model, threaded):
    rows = step_rows(LOOKBACK + 40, seed=8, nan_rows=[(LOOKBACK + 3, 2)])
    streams = {tenant: rows[:, index] for index, tenant in enumerate(TENANTS)}
    reference = make_server(model, maintenance=True)
    expected = replay_per_row(reference, streams, forecast_every=4)
    server = make_server(model, maintenance=True)
    if threaded:
        with server:
            responses = replay_streams(server, streams, forecast_every=4)
    else:
        responses = replay_streams(server, streams, forecast_every=4)
    assert len(responses) == len(expected) > 0
    for got, want in zip(responses, expected):
        assert (got.entity, got.source, got.ring_version) == (
            want.entity, want.source, want.ring_version
        )
        assert np.array_equal(got.forecast, want.forecast)
    assert_same_state(server, reference)
