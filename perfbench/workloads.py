"""The three workloads, each driven from one load thread in one process,
with no subprocesses.

- ``replay-sync``: closed loop.  64 tenants replayed through
  ``replay_streams`` on a server that was never started; every tenant
  asks for a forecast every 8 of its steps.  Every request misses the
  cache, so the batched forward dominates; queue, cache hits and
  maintenance are bypassed.
- ``open-loop``: Poisson arrivals at a fixed rate from one generator
  thread, against the threaded server.  70% of requests observe a new
  row then ask for a forecast, 30% re-read a ring that has not changed
  (a cache hit).  Latency runs from each request's due time to its
  resolution, so a stall also charges the requests queued behind it.
- ``drift-refit``: 16 tenants replayed synchronously whose streams
  switch mid-stream from Electricity to PEMS04.  A ``MaintenanceWorker``
  is attached but never started; the benchmark runs ``run_once`` at
  fixed stream steps, so refits, swaps and the cache and plan
  invalidation they cause happen at the same step on every run.  Half
  the tenants are re-read between observations and after each job.

Every response is checked: finite, shaped ``(horizon, N)``, and on a
seeded sample bit-identical (float64) to ``model.forecast_batch`` on the
window its ring version names.  A fallback, shed or timed-out request
counts as failed, never as wrong.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time

import numpy as np

from fixture import CONFIG, Fixture, Sizes, tenant_streams
from repro.core.clustering import ClusteringConfig
from repro.core.model import FOCUSForecaster
from repro.maintenance import MaintenanceConfig, MaintenanceWorker
from repro.serving import ForecastServer, replay_streams

LOOKBACK, HORIZON = CONFIG.lookback, CONFIG.horizon
#: Latency limit behind ``slo_ok_share``.
SLO_MS = 50.0
#: Longest wait for one open-loop request before it counts as failed.
REQUEST_TIMEOUT_S = 5.0
# Every drift-refit job is a full refit of fixed work: "auto" would pick
# the cheap incremental repair or the full refit depending on how far
# each seed's data drifted, and the default tolerance stops clustering
# after a data-dependent number of iterations.  Either would make the
# job's cost, the thing this workload measures, depend on the seed.
MAINTENANCE = MaintenanceConfig(mode="full")
REFIT = ClusteringConfig(
    num_prototypes=CONFIG.num_prototypes,
    segment_length=CONFIG.segment_length,
    alpha=CONFIG.alpha,
    max_iters=15,
    refine_steps=3,
    seed=0,
    tol=0.0,
)


@dataclasses.dataclass
class Outcome:
    """What one workload run measured and found."""

    attempted: int = 0
    answered: int = 0  # by the model or the cache
    failed: int = 0  # fallback, shed or timed out
    wall_s: float = 0.0  # measured time, correctness checks excluded
    latencies_ms: list = dataclasses.field(default_factory=list)
    slo_ok: int = 0
    squared_error: float = 0.0
    errors_counted: int = 0
    checked: int = 0
    wrong: list = dataclasses.field(default_factory=list)
    refit_s: list = dataclasses.field(default_factory=list)
    late_ms: list = dataclasses.field(default_factory=list)
    sent: int = 0
    passes: int = 0
    pass_rates: list = dataclasses.field(default_factory=list)  # answered/s
    submitted: list = dataclasses.field(default_factory=list)  # open loop
    _mark: tuple = (0, 0.0)

    @property
    def mse(self) -> float:
        return self.squared_error / max(self.errors_counted, 1)

    def end_pass(self) -> None:
        answered, wall = self._mark
        self.pass_rates.append((self.answered - answered) / max(self.wall_s - wall, 1e-9))
        self._mark = (self.answered, self.wall_s)
        self.passes += 1


class Checker:
    """Accounts for each response against the stream it came from."""

    def __init__(self, model, outcome: Outcome, seed: int, check_every: int, ledger=None):
        self.model = model
        self.outcome = outcome
        self.rng = np.random.default_rng([seed, 99])
        self.check_every = check_every
        # Reference forwards must not land in the traced model spans.
        self.quiet = ledger.quiet if ledger is not None else contextlib.nullcontext

    def __call__(self, response, stream: np.ndarray | None, latency_ms: float):
        outcome = self.outcome
        outcome.attempted += 1
        if response is None:
            outcome.failed += 1
            return
        forecast = response.forecast
        if forecast.shape != (HORIZON, CONFIG.num_entities) or not np.isfinite(
            forecast
        ).all():
            outcome.wrong.append(
                f"{response.entity}@{response.ring_version}: shape "
                f"{forecast.shape} or non-finite values ({response.source})"
            )
            return
        if response.source not in ("model", "cache"):
            outcome.failed += 1
            return
        outcome.answered += 1
        outcome.latencies_ms.append(latency_ms)
        outcome.slo_ok += latency_ms <= SLO_MS
        version = response.ring_version
        if outcome.passes == 0:
            # Later passes replay identical inputs; scoring only the
            # first keeps the MSE independent of how many passes fit.
            truth = stream[version : version + HORIZON]
            outcome.squared_error += float(((forecast - truth) ** 2).sum())
            outcome.errors_counted += truth.size
        if self.rng.random() * self.check_every < 1.0:
            outcome.checked += 1
            window = stream[version - LOOKBACK : version][None]
            with self.quiet("bench.check"):
                expected = self.model.forecast_batch(window)[0]
            if not np.array_equal(expected, forecast):
                outcome.wrong.append(
                    f"{response.entity}@{version}: {response.source} forecast "
                    "differs from model.forecast_batch on the same window"
                )


def _timed_calls(server: ForecastServer) -> list:
    """Time every ``server.forecast_many`` call: ``(ms, requests)``."""
    calls: list[tuple[float, int]] = []
    original = server.forecast_many

    def timed(entity_ids, *args, **kwargs):
        started = time.perf_counter()
        result = original(entity_ids, *args, **kwargs)
        calls.append(((time.perf_counter() - started) * 1e3, len(entity_ids)))
        return result

    server.forecast_many = timed
    return calls


def _latencies(calls: list) -> list[float]:
    """One latency per request: the duration of the call that answered it."""
    return [ms for ms, count in calls for _ in range(count)]


def replay_sync(fix: Fixture, sizes: Sizes, seed: int, seconds: float, ledger, deadline):
    rng = np.random.default_rng([seed, 1])
    streams = tenant_streams(
        fix.heldout, sizes.sync_tenants, LOOKBACK + sizes.sync_steps + HORIZON, rng
    )
    replayed = {tenant: rows[: LOOKBACK + sizes.sync_steps] for tenant, rows in streams.items()}
    outcome = Outcome()
    check = Checker(fix.model, outcome, seed, sizes.check_every, ledger)
    if ledger is not None:
        ledger.attach(model=fix.model)
    while outcome.passes == 0 or (
        outcome.wall_s < seconds and time.perf_counter() < deadline
    ):
        server = ForecastServer(fix.model)
        calls = _timed_calls(server)
        if ledger is not None:
            ledger.attach(server=server)
        started = time.perf_counter()
        responses = replay_streams(server, replayed, forecast_every=sizes.forecast_every)
        outcome.wall_s += time.perf_counter() - started
        for response, latency in zip(responses, _latencies(calls)):
            check(response, streams[response.entity], latency)
        outcome.end_pass()
    outcome.sent = outcome.attempted
    return outcome


def _schedule(sizes: Sizes, seconds: float, rng: np.random.Generator):
    """Seeded open-loop arrivals: ``(due_s, tenant index, observes)``.

    A Poisson process conditioned on its count: ``rate * seconds``
    arrivals at sorted uniform times, so every seed offers the same
    load.  A re-read targets a tenant none of the previous eight
    requests touched, so its last forecast has most likely resolved
    into the cache by the time the re-read arrives.
    """
    tenants = sizes.open_tenants
    count = max(1, round(sizes.open_rate * seconds))
    events = []
    for due in np.sort(rng.uniform(0.0, seconds, count)):
        observes = bool(rng.random() < 0.7)
        recent = {tenant for _, tenant, _ in events[-8:]}
        if observes or len(recent) >= tenants:
            tenant = int(rng.integers(tenants))
        else:
            choices = [t for t in range(tenants) if t not in recent]
            tenant = choices[int(rng.integers(len(choices)))]
        events.append((float(due), tenant, observes))
    return events


def open_loop(fix: Fixture, sizes: Sizes, seed: int, seconds: float, ledger, deadline):
    rng = np.random.default_rng([seed, 2])
    events = _schedule(sizes, seconds, rng)
    rows_needed = max(
        [sum(1 for _, t, obs in events if obs and t == tenant) for tenant in range(sizes.open_tenants)]
        + [0]
    )
    streams = tenant_streams(
        fix.heldout, sizes.open_tenants, LOOKBACK + rows_needed + HORIZON, rng
    )
    names = list(streams)
    outcome = Outcome()
    check = Checker(fix.model, outcome, seed, sizes.check_every, ledger)
    server = ForecastServer(fix.model)
    for name in names:
        server.observe_many(name, streams[name][:LOOKBACK])
    server.forecast_many(names)  # prime the cache the re-reads hit
    cursor = dict.fromkeys(names, LOOKBACK)
    # Requests leave the queue in submission order (one submitter), and
    # the server resolves a batch's requests as soon as forecast_sessions
    # returns; stamping that return on the worker thread times each
    # resolution without a collector thread competing for the GIL.
    finished: list[tuple[float, int]] = []
    batcher = server.batcher
    execute = batcher.forecast_sessions

    def stamped(sessions, *args, **kwargs):
        result = execute(sessions, *args, **kwargs)
        finished.append((time.perf_counter(), len(sessions)))
        return result

    batcher.forecast_sessions = stamped
    if ledger is not None:
        ledger.attach(server=server, model=fix.model)
    requests, dues, shed = [], [], {}
    with server:
        started = time.perf_counter()
        for due_s, tenant, observes in events:
            due = started + due_s
            if due > deadline:
                break
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            outcome.late_ms.append(max(0.0, (time.perf_counter() - due) * 1e3))
            name = names[tenant]
            if observes:
                server.observe(name, streams[name][cursor[name]])
                cursor[name] += 1
            request = server.submit(name)
            if request.done.is_set():  # shed by admission control
                shed[len(requests)] = time.perf_counter()
            requests.append(request)
            dues.append(due)
        for request in requests:
            request.done.wait(max(0.0, min(REQUEST_TIMEOUT_S, deadline - time.perf_counter())))
        outcome.wall_s = time.perf_counter() - started
    outcome.sent = len(requests)
    outcome.submitted = [request.submitted for i, request in enumerate(requests) if i not in shed]
    stamps = iter([stamp for stamp, size in finished for _ in range(size)])
    for index, (request, due) in enumerate(zip(requests, dues)):
        resolved = shed.get(index) or next(stamps, None)
        if not request.done.is_set() or resolved is None:
            check(None, None, 0.0)
            continue
        check(request.response, streams[request.response.entity], (resolved - due) * 1e3)
    outcome.end_pass()
    return outcome


def drift_refit(fix: Fixture, sizes: Sizes, seed: int, seconds: float, ledger, deadline):
    rng = np.random.default_rng([seed, 3])
    before = tenant_streams(fix.heldout, sizes.drift_tenants, LOOKBACK + sizes.drift_before, rng)
    after = tenant_streams(fix.drift_rows, sizes.drift_tenants, sizes.drift_after + HORIZON, rng)
    streams = {
        tenant: np.concatenate([rows, after[other]])
        for (tenant, rows), other in zip(before.items(), after)
    }
    names = list(streams)
    rereads = names[::2]
    switch = LOOKBACK + sizes.drift_before
    job_steps = {switch + step for step in sizes.drift_jobs}
    every = sizes.forecast_every
    length = switch + sizes.drift_after
    snapshot = fix.model.snapshot()
    outcome = Outcome()
    while outcome.passes == 0 or (
        outcome.wall_s < seconds and time.perf_counter() < deadline
    ):
        model = FOCUSForecaster.from_snapshot(snapshot)
        check = Checker(model, outcome, seed + outcome.passes, sizes.check_every, ledger)
        server = ForecastServer(model)
        worker = MaintenanceWorker(model, MAINTENANCE, clustering=REFIT)
        server.attach_maintenance(worker)
        calls = _timed_calls(server)
        if ledger is not None:
            ledger.attach(server=server, model=model, worker=worker)
        step = 0
        while step < length:
            end = LOOKBACK if step == 0 else step + every
            chunk = {name: streams[name][step:end] for name in names}
            calls.clear()
            started = time.perf_counter()
            responses = replay_streams(
                server, chunk, forecast_every=every, warmup=LOOKBACK if step == 0 else 1
            )
            responses += server.forecast_many(rereads)
            outcome.wall_s += time.perf_counter() - started
            for response, latency in zip(responses, _latencies(calls)):
                check(response, streams[response.entity], latency)
            step = end
            if step in job_steps:
                started = time.perf_counter()
                worker.run_once("benchmark")
                took = time.perf_counter() - started
                # Re-read right after the job: a swap has invalidated
                # the cached forecasts, so these pay the model again.
                calls.clear()
                responses = server.forecast_many(rereads)
                outcome.wall_s += time.perf_counter() - started
                outcome.refit_s.append(took)
                for response, latency in zip(responses, _latencies(calls)):
                    check(response, streams[response.entity], latency)
        outcome.end_pass()
    outcome.sent = outcome.attempted
    return outcome


WORKLOADS = {
    "replay-sync": replay_sync,
    "open-loop": open_loop,
    "drift-refit": drift_refit,
}
