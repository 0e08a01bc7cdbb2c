"""The worker's one reused shadow scorer.

Shadow scores replay compiled plans on a replica.  A replica plus its
plan trace costs several scores, so the worker keeps one scorer and
reuses it for every job, refit attempt, ``propose`` and rollback check
while the model is unchanged up to its bank.  These tests pin that the
reuse saves the rebuilds, that any other model change forces one, that
threads sharing a scorer get the serial scores, and that plan scores are
the eager scores bit for bit.
"""

import threading

import numpy as np
import pytest

from repro.core.model import FOCUSForecaster
from repro.maintenance.repair import ShadowScorer, build_job_data

from .conftest import quick_model, regime_rows
from .test_worker import feed, make_worker

pytestmark = pytest.mark.maintenance


@pytest.fixture
def builds(monkeypatch):
    """Counts replica builds and plan traces."""
    counts = {"replicas": 0, "traces": 0}
    from_snapshot = FOCUSForecaster.from_snapshot.__func__
    trace_plan = FOCUSForecaster._trace_plan

    def counting_from_snapshot(cls, snapshot):
        counts["replicas"] += 1
        return from_snapshot(cls, snapshot)

    def counting_trace(self, windows):
        counts["traces"] += 1
        return trace_plan(self, windows)

    monkeypatch.setattr(
        FOCUSForecaster, "from_snapshot", classmethod(counting_from_snapshot)
    )
    monkeypatch.setattr(FOCUSForecaster, "_trace_plan", counting_trace)
    return counts


def holdout(worker):
    config = worker.model.config
    _, inputs, targets, _ = build_job_data(
        worker.history.snapshot(), config.lookback, config.horizon,
        config.segment_length, worker.config.holdout_windows,
    )
    assert inputs
    return inputs, targets


def eager_mse(snapshot, bank, inputs, targets):
    replica = FOCUSForecaster.from_snapshot(snapshot)
    replica.set_prototypes(bank)
    predictions = replica.forecast_batch(np.stack(inputs), engine="eager")
    return float(np.mean((predictions - np.stack(targets)) ** 2))


def test_jobs_and_rollback_check_share_one_replica_and_plan(rng, builds):
    worker = make_worker(mode="full", shadow_metric="mse")
    feed(worker, regime_rows(rng, 100, fast=True))
    for _ in range(3):
        assert worker.run_once("manual")["status"] in ("swapped", "rejected")
    worker.propose(worker.model.prototype_values() + 0.1, force=True)
    assert worker.check_rollback(force=True)["status"] in (
        "healthy", "rolled_back", "watch_expired"
    )
    assert builds == {"replicas": 1, "traces": 1}


def test_changed_readout_weight_rebuilds_the_replica(rng, builds):
    worker = make_worker(shadow_metric="mse")
    model = worker.model
    feed(worker, regime_rows(rng, 100))
    inputs, targets = holdout(worker)
    first = worker._shadow_scorer()
    assert worker._shadow_scorer() is first
    assert builds["replicas"] == 1

    state = model.state_dict()
    state["fusion.head.weight"] = state["fusion.head.weight"] + 1e-3
    model.load_state_dict(state)
    rebuilt = worker._shadow_scorer()
    assert rebuilt is not first and builds["replicas"] == 2
    bank = model.prototype_values()
    assert rebuilt.score(bank, inputs, targets) == eager_mse(
        model.snapshot(), bank, inputs, targets
    )
    assert rebuilt.score(bank, inputs, targets) != first.score(bank, inputs, targets)


def test_dtype_change_rebuilds_the_replica(rng):
    worker = make_worker(shadow_metric="mse")
    model = worker.model
    feed(worker, regime_rows(rng, 100))
    first = worker._shadow_scorer()
    model.to_dtype(np.float32)
    rebuilt = worker._shadow_scorer()
    assert rebuilt is not first
    assert rebuilt._replica.snapshot()["dtype"] == "float32"
    inputs, targets = holdout(worker)
    assert np.isfinite(rebuilt.score(model.prototype_values(), inputs, targets))


def test_serves_compares_state_dtypes_not_just_values():
    model = quick_model()
    # Round-trip through float32 so every weight is exactly representable
    # there: a float32 copy of one weight is then np.array_equal to it.
    model.to_dtype(np.float32).to_dtype(np.float64)
    snapshot = model.snapshot()
    scorer = ShadowScorer(snapshot, "mse")
    assert scorer.serves(model.snapshot())

    name = "fusion.head.weight"
    cast = {**snapshot, "state": dict(snapshot["state"])}
    cast["state"][name] = cast["state"][name].astype(np.float32)
    assert np.array_equal(cast["state"][name], snapshot["state"][name])
    assert not scorer.serves(cast)

    # A different bank alone never forces a rebuild.
    model.set_prototypes(model.prototype_values() + 1.0)
    assert scorer.serves(model.snapshot())


def test_threads_sharing_a_scorer_get_the_serial_scores(rng):
    model = quick_model()
    scorer = ShadowScorer(model.snapshot(), "mse")
    rows = regime_rows(rng, 200)
    inputs = [rows[i : i + 16] for i in range(0, 160, 20)]
    targets = [rows[i + 16 : i + 20] for i in range(0, 160, 20)]
    live = model.prototype_values()
    banks = [live, live + 0.5, live + 0.2 * rng.standard_normal(live.shape), live * 2.0]
    serial = [scorer.score(bank, inputs, targets) for bank in banks]
    assert len(set(serial)) == len(serial)

    results = {index: [] for index in range(2)}
    start = threading.Barrier(2)

    def hammer(index):
        start.wait()
        for round_ in range(30):
            bank = (index + round_) % len(banks)
            results[index].append((bank, scorer.score(banks[bank], inputs, targets)))

    threads = [threading.Thread(target=hammer, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for scores in results.values():
        assert len(scores) == 30
        assert all(score == serial[bank] for bank, score in scores)


def test_plan_score_equals_eager_mse_bitwise(rng):
    model = quick_model()
    snapshot = model.snapshot()
    scorer = ShadowScorer(snapshot, "mse")
    rows = regime_rows(rng, 300, fast=True)
    for windows in (1, 5, 8, 19):
        inputs = [rows[i * 14 : i * 14 + 16] for i in range(windows)]
        targets = [rows[i * 14 + 16 : i * 14 + 20] for i in range(windows)]
        for shift in (0.0, 0.3, -1.0):
            bank = model.prototype_values() + shift
            assert scorer.score(bank, inputs, targets) == eager_mse(
                snapshot, bank, inputs, targets
            )
