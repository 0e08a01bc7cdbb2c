"""Concurrent replay: one shared plan, many threads, zero cross-talk.

Arenas are per-thread (``threading.local`` inside
:class:`repro.engine.ExecutionPlan`), so N serving threads replaying
the *same* compiled plan concurrently must each produce exactly what a
single-threaded run produces — no torn buffers, no interleaved scratch
state.  The hammer drives MicroBatcher-style traffic (every thread its
own window set, all threads sharing the model and plan cache) and
compares every result against a precomputed single-threaded oracle.

CI runs this file twice under ``PYTHONHASHSEED=0`` (see the ``plan``
job) to shake out ordering flakes.
"""

import sys
import threading

import numpy as np
import pytest

from repro.serving import ForecastServer, ServingConfig

from .conftest import build_plan_model, make_windows

pytestmark = pytest.mark.plan

N_THREADS = 8
REPLAYS_PER_THREAD = 40


def test_threaded_replays_match_single_threaded_oracle():
    model = build_plan_model()
    batches = {
        tid: make_windows(model, 1 + tid % 3, seed=100 + tid)
        for tid in range(N_THREADS)
    }
    # Oracle first, single-threaded, via the eager reference engine.
    oracle = {
        tid: model.forecast_batch(windows, engine="eager")
        for tid, windows in batches.items()
    }
    # Compile the plans once so every thread hammers shared plans.
    for windows in batches.values():
        model.forecast_batch(windows, engine="plan")

    failures = []
    barrier = threading.Barrier(N_THREADS)

    def hammer(tid):
        windows = batches[tid]
        expected = oracle[tid]
        barrier.wait()
        for _ in range(REPLAYS_PER_THREAD):
            got = model.forecast_batch(windows, engine="plan")
            if not np.array_equal(got, expected):
                failures.append(tid)
                return

    threads = [
        threading.Thread(target=hammer, args=(tid,)) for tid in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, f"threads {sorted(set(failures))} saw torn replays"


def test_prototype_swaps_during_threaded_replay_leave_no_stale_arena():
    """Each thread's arena caches prototype statistics; swaps landing
    mid-replay must never leave a thread serving the old bank after."""
    model = build_plan_model()
    windows = make_windows(model, 3, seed=11)
    model.forecast_batch(windows, engine="plan")
    rng = np.random.default_rng(5)
    swapping = threading.Event()
    swapping.set()
    final = {}

    def replay(tid):
        while swapping.is_set():
            model.forecast_batch(windows, engine="plan")
        final[tid] = model.forecast_batch(windows, engine="plan")

    threads = [threading.Thread(target=replay, args=(tid,)) for tid in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        cfg = model.config
        for step in range(30):
            if step % 2:
                model.update_prototype(step % cfg.num_prototypes,
                                       rng.standard_normal(cfg.segment_length))
            else:
                model.set_prototypes(
                    rng.standard_normal((cfg.num_prototypes, cfg.segment_length))
                )
    finally:
        swapping.clear()
        sys.setswitchinterval(interval)
        for thread in threads:
            thread.join(timeout=30.0)
    assert not any(thread.is_alive() for thread in threads)
    eager = model.forecast_batch(windows, engine="eager")
    assert sorted(final) == [0, 1, 2, 3]
    for tid, forecast in final.items():
        assert np.array_equal(forecast, eager), f"thread {tid} replayed a stale bank"


def test_each_thread_gets_its_own_arena():
    model = build_plan_model()
    windows = make_windows(model, 2, seed=7)
    model.forecast_batch(windows, engine="plan")
    plan = model._last_plan[1]
    arenas = {}

    def grab(tid):
        plan.replay(windows)
        arenas[tid] = plan._tls.arena

    threads = [threading.Thread(target=grab, args=(tid,)) for tid in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len({id(arena) for arena in arenas.values()}) == 3


def test_threaded_plan_server_matches_eager_server():
    """The full serving front-end, background batching worker included."""
    plan_server = ForecastServer(
        build_plan_model(), ServingConfig(engine="plan", use_cache=False)
    )
    eager_server = ForecastServer(
        build_plan_model(), ServingConfig(engine="eager", use_cache=False)
    )
    cfg = plan_server.model.config
    rng = np.random.default_rng(31)
    streams = {
        f"plan-{i}": rng.normal(size=(cfg.lookback + 4, cfg.num_entities))
        for i in range(6)
    }
    for server in (plan_server, eager_server):
        for entity_id, data in streams.items():
            server.observe_many(entity_id, data.copy())
    with plan_server:
        plan_responses = {
            r.entity: r for r in plan_server.forecast_many(list(streams))
        }
    eager_responses = {
        r.entity: r for r in eager_server.forecast_many(list(streams))
    }
    assert set(plan_responses) == set(eager_responses)
    for entity_id, eager in eager_responses.items():
        got = plan_responses[entity_id]
        assert got.source == eager.source == "model"
        assert np.array_equal(got.forecast, eager.forecast)



def _race_against_replay(model, replay_windows, work, calls):
    """Run ``work()`` ``calls`` times while another thread replays
    ``replay_windows`` on the same model, with a tiny switch interval.
    Returns every mismatch or exception either side saw."""
    replay_oracle = model.forecast_batch(replay_windows, engine="eager")
    model.forecast_batch(replay_windows, engine="plan")
    stop = threading.Event()
    problems = []

    def replay():
        while not stop.is_set():
            got = model.forecast_batch(replay_windows, engine="plan")
            if not np.array_equal(got, replay_oracle):
                problems.append("replay")

    thread = threading.Thread(target=replay)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    thread.start()
    try:
        for _ in range(calls):
            try:
                if not work():
                    problems.append("work")
            except Exception as error:  # noqa: BLE001 — reported below
                problems.append(repr(error))
    finally:
        stop.set()
        thread.join(timeout=30.0)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    return problems


def test_eager_forward_beside_replay_gathers_its_own_labels():
    """ProtoAttn routes with the labels of its own forward even while
    another thread's replay runs on the same module."""
    model = build_plan_model()
    windows = make_windows(model, 4, seed=41)
    oracle = model.forecast_batch(windows, engine="eager")

    def eager():
        return np.array_equal(model.forecast_batch(windows, engine="eager"), oracle)

    problems = _race_against_replay(model, make_windows(model, 4, seed=42), eager, 200)
    assert not problems, problems[:5]


def test_tracing_a_new_shape_beside_replay_compiles_the_right_plan():
    model = build_plan_model()
    windows = make_windows(model, 3, seed=43)
    oracle = model.forecast_batch(windows, engine="eager")

    def trace():
        # A fresh trace each call (bypassing the plan cache), then a
        # replay of it.
        return np.array_equal(model._trace_plan(windows).replay(windows), oracle)

    problems = _race_against_replay(model, make_windows(model, 2, seed=44), trace, 60)
    assert not problems, problems[:5]
