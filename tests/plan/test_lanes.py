"""Two-lane replay: large plan batches split across the caller and one
helper thread.

``forecast_batch(engine="plan")`` replays a batch of at least
``TWO_LANE_MIN_ROWS`` rows as two row halves at the same time, the
second on the engine's helper thread (:mod:`repro.engine.lanes`).  Rows
are independent, so the result must stay bitwise equal to eager; the
helper must surface its failures on the caller, stay unique per
process, and never hang a forked child.
"""

import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import model as model_module
from repro.engine import lanes

from .conftest import build_plan_model, make_windows

pytestmark = pytest.mark.plan

needs_two_cpus = pytest.mark.skipif(
    not lanes.lanes_available(), reason="two lanes need two usable CPUs"
)


def _helpers():
    return [t for t in threading.enumerate() if t.name == "repro-plan-lane"]


@pytest.fixture
def parallel_first(monkeypatch):
    """Forget the measured costs, so the next call runs on two lanes."""
    monkeypatch.setattr(lanes._HELPER, "cost", {True: None, False: None})


def test_measured_choice_runs_the_cheaper_way_and_probes_the_other():
    helper = lanes._Helper()
    assert helper.pick() is True  # nothing measured: two lanes first
    helper.record(True, 3.0)
    assert helper.pick() is False  # then one lane once
    helper.record(False, 1.0)
    picks = [helper.pick() for _ in range(2 * lanes.PROBE_EVERY)]
    assert picks.count(True) == 2  # one-lane is cheaper: two probes
    while helper.cost[True] > 0.5 * helper.cost[False]:  # the second CPU frees up
        helper.record(True, 0.2)
    picks = [helper.pick() for _ in range(2 * lanes.PROBE_EVERY)]
    assert picks.count(False) == 2


def test_only_batches_of_the_threshold_and_up_take_two_lanes(monkeypatch):
    calls = []
    original = model_module.run_two_lanes

    def counting(first, second, units):
        calls.append(units)
        original(first, second, units)

    monkeypatch.setattr(model_module, "run_two_lanes", counting)
    monkeypatch.setattr(model_module, "lanes_available", lambda: True)
    model = build_plan_model()
    threshold = model.TWO_LANE_MIN_ROWS
    for batch in (1, threshold - 1, threshold, 2 * threshold + 3):
        windows = make_windows(model, batch, seed=batch)
        got = model.forecast_batch(windows, engine="plan")
        assert np.array_equal(got, model.forecast_batch(windows, engine="eager"))
    assert calls == [threshold, 2 * threshold + 3]


def test_one_lane_process_replays_every_row_on_the_caller(monkeypatch):
    monkeypatch.setattr(model_module, "lanes_available", lambda: False)
    monkeypatch.setattr(
        model_module, "run_two_lanes", lambda *_: pytest.fail("split on one lane")
    )
    model = build_plan_model()
    windows = make_windows(model, 40, seed=4)
    got = model.forecast_batch(windows, engine="plan")
    assert np.array_equal(got, model.forecast_batch(windows, engine="eager"))


@needs_two_cpus
@pytest.mark.usefixtures("parallel_first")
def test_helper_failure_reaches_the_caller_and_the_next_call_succeeds(monkeypatch):
    model = build_plan_model()
    windows = make_windows(model, 32, seed=5)
    eager = model.forecast_batch(windows, engine="eager")
    original = model_module._replay_chunks
    helper_failed = threading.Event()

    def failing_on_helper(chunks, prediction):
        if threading.current_thread().name == "repro-plan-lane":
            helper_failed.set()
            raise RuntimeError("injected helper failure")
        # Hold the caller's half until the helper has taken its own.
        assert helper_failed.wait(timeout=30.0)
        original(chunks, prediction)

    monkeypatch.setattr(model_module, "_replay_chunks", failing_on_helper)
    with pytest.raises(RuntimeError, match="injected helper failure"):
        model.forecast_batch(windows, engine="plan")
    monkeypatch.undo()
    assert np.array_equal(model.forecast_batch(windows, engine="plan"), eager)


@pytest.mark.usefixtures("parallel_first")
def test_run_two_lanes_reraises_either_failure_and_stays_usable():
    def boom():
        raise ValueError("second")

    ran = []
    with pytest.raises(ValueError, match="second"):
        lanes.run_two_lanes(lambda: ran.append("first"), boom)
    assert ran == ["first"]
    started = threading.Event()

    def first_fails_after_second_started():
        assert started.wait(timeout=30.0)
        raise KeyError("first")

    def second():
        started.set()
        ran.append("second")

    with pytest.raises(KeyError):
        lanes.run_two_lanes(first_fails_after_second_started, second)
    assert ran == ["first", "second"]  # the caller waited for the helper
    lanes.run_two_lanes(lambda: ran.append(1), lambda: ran.append(2))
    assert sorted(map(str, ran[2:])) == ["1", "2"]


def test_caller_takes_back_an_offer_the_helper_has_not_started(monkeypatch):
    stalled = lanes._Helper()
    stalled.thread = object()  # counts as started, but never takes an offer
    monkeypatch.setattr(lanes, "_HELPER", stalled)
    seen = []
    lanes.run_two_lanes(
        lambda: seen.append(threading.get_ident()),
        lambda: seen.append(threading.get_ident()),
    )
    assert seen == [threading.get_ident()] * 2
    assert stalled.offer is None and not stalled.owner.locked()


def test_busy_helper_runs_both_halves_on_the_caller():
    here = threading.get_ident()
    seen = []
    with lanes._HELPER.owner:  # another caller owns the helper
        lanes.run_two_lanes(
            lambda: seen.append(threading.get_ident()),
            lambda: seen.append(threading.get_ident()),
        )
    assert seen == [here, here]


def test_callers_at_once_all_get_eager_results():
    """More callers than CPUs: one holds the helper, the others replay
    both halves themselves."""
    callers = 3
    model = build_plan_model()
    batches = [make_windows(model, 64, seed=60 + tid) for tid in range(callers)]
    oracle = [model.forecast_batch(w, engine="eager") for w in batches]
    model.forecast_batch(batches[0], engine="plan")
    barrier = threading.Barrier(callers)
    failures = []

    def call(tid):
        barrier.wait()
        for _ in range(15):
            got = model.forecast_batch(batches[tid], engine="plan")
            if not np.array_equal(got, oracle[tid]):
                failures.append(tid)

    threads = [threading.Thread(target=call, args=(tid,)) for tid in range(callers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures


@needs_two_cpus
def test_many_calls_leave_exactly_one_helper_thread():
    model = build_plan_model()
    windows = make_windows(model, 32, seed=7)
    for _ in range(200):
        model.forecast_batch(windows, engine="plan")
    assert len(_helpers()) == 1


@needs_two_cpus
def test_idle_helper_exits_and_the_next_call_starts_a_new_one(monkeypatch):
    monkeypatch.setattr(lanes, "IDLE_EXIT_S", 0.05)
    # Any helper from earlier tests still waits on the old timeout.
    lanes.run_two_lanes(lambda: None, lambda: None)
    deadline = time.monotonic() + 10.0
    while _helpers() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _helpers()
    model = build_plan_model()
    windows = make_windows(model, 32, seed=8)
    got = model.forecast_batch(windows, engine="plan")
    assert np.array_equal(got, model.forecast_batch(windows, engine="eager"))


def _child_forecast(queue):
    model = build_plan_model()
    windows = make_windows(model, 32, seed=9)
    got = model.forecast_batch(windows, engine="plan")
    queue.put(
        (
            bool(np.array_equal(got, model.forecast_batch(windows, engine="eager"))),
            len(_helpers()),
        )
    )


@needs_two_cpus
@pytest.mark.skipif(sys.platform != "linux", reason="fork start method")
@pytest.mark.usefixtures("parallel_first")
def test_forked_child_runs_two_lanes_without_hanging():
    model = build_plan_model()
    model.forecast_batch(make_windows(model, 32, seed=10), engine="plan")
    assert _helpers()  # the parent's helper exists at fork time ...
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    with lanes._HELPER.owner:  # ... and is owned by a parent thread
        child = ctx.Process(target=_child_forecast, args=(queue,))
        child.start()
    try:
        # Bitwise eager, replayed on a helper of the child's own.
        assert queue.get(timeout=120.0) == (True, 1)
    finally:
        child.join(timeout=30.0)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0


def _single_lane_child(queue):
    lanes.use_single_lane()
    queue.put(lanes.lanes_available())


@pytest.mark.skipif(sys.platform != "linux", reason="fork start method")
def test_use_single_lane_turns_lanes_off_for_the_process():
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_single_lane_child, args=(queue,))
    child.start()
    try:
        assert queue.get(timeout=60.0) is False
    finally:
        child.join(timeout=30.0)
    assert child.exitcode == 0
