"""Two-lane replay: run a second job on a helper thread while the caller
runs the first.

Plan replay spends most of its time in numpy and BLAS kernels that
release the GIL, so two independent replays overlap on two CPUs.
:func:`run_two_lanes` offers ``second`` to the process's one helper
thread, runs ``first`` on the calling thread, and returns once both are
done.  If the helper has not started ``second`` by the time ``first``
is done (its CPU is busy elsewhere), the caller runs it too.  Whether
the two lanes pay depends on the host as much as on the work: the
threads hand one interpreter lock back and forth, which is cheap while
the second CPU is free and dear while other work holds it.  So the
process measures both ways as it goes and runs the cheaper one (see
:func:`run_two_lanes`).  The helper is shared by every caller in the process and taken with a
*try*-lock: a caller that finds it busy runs both jobs itself, so
callers never queue behind each other and never deadlock (a job the
helper runs may itself call :func:`run_two_lanes`; it just finds the
helper taken).

The helper is started on first use and exits after
:data:`IDLE_EXIT_S` without work, so an idle process holds no extra
thread.  A forked child starts with no helper (the parent's thread does
not exist there) and creates its own on first use.
:func:`use_single_lane` switches the process to one lane for good; the
fleet's shard processes call it, since their siblings already occupy
the other CPUs.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable

__all__ = [
    "IDLE_EXIT_S",
    "PROBE_EVERY",
    "lanes_available",
    "run_two_lanes",
    "use_single_lane",
]

#: Seconds the helper waits for work before its thread exits; the next
#: call starts a new one.
IDLE_EXIT_S = 1.0
#: One call in this many runs the way that currently measures slower,
#: so a change in the host (a neighbour taking the second CPU, or
#: leaving it) is noticed within a few probes.
PROBE_EVERY = 16
#: Weight of the newest sample in each way's running cost.
_COST_WEIGHT = 0.25
#: Two lanes run only while they measure at least this much cheaper
#: than one: part of their cost (the helper taking the interpreter lock
#: back after its job) lands after the timed call, so a tie is a loss.
_PARALLEL_MARGIN = 0.9


class _Job:
    """``second``, offered to the helper; whichever thread claims it runs it."""

    __slots__ = ("fn", "claim", "done", "error")

    def __init__(self, fn: Callable[[], None]):
        self.fn = fn
        self.claim = threading.Lock()
        self.done = threading.Lock()
        self.done.acquire()
        self.error: BaseException | None = None


class _Helper:
    """The second lane: one worker thread that takes offered jobs.

    ``owner`` is the try-lock a caller holds for the whole of a two-lane
    call; ``offer`` and ``thread`` change only under it, so a helper
    that decides to exit can never strand a job.  ``wake`` is a plain
    lock used as a binary semaphore (a ``Lock`` may be released by a
    thread other than its acquirer), the cheapest hand-off
    ``threading`` offers.
    """

    def __init__(self):
        self.owner = threading.Lock()
        self.wake = threading.Lock()
        self.wake.acquire()
        self.offer: _Job | None = None
        self.thread: threading.Thread | None = None
        # Running cost in seconds per unit of work, keyed by "ran on two
        # lanes"; read and written only under ``owner``.
        self.cost: dict[bool, float | None] = {True: None, False: None}
        self.calls = 0

    def pick(self) -> bool:
        """Whether the next call runs on two lanes: the way with the
        lower running cost (two lanes by a margin), except every
        :data:`PROBE_EVERY`-th call.  Each way is tried once first, two
        lanes first."""
        self.calls += 1
        parallel, serial = self.cost[True], self.cost[False]
        if parallel is None or serial is None:
            return parallel is None
        cheaper = parallel <= _PARALLEL_MARGIN * serial
        return cheaper != (self.calls % PROBE_EVERY == 0)

    def record(self, parallel: bool, cost: float) -> None:
        old = self.cost[parallel]
        self.cost[parallel] = cost if old is None else old + _COST_WEIGHT * (cost - old)

    def _loop(self) -> None:
        while True:
            if not self.wake.acquire(timeout=IDLE_EXIT_S):
                # Idle.  Exit only while no caller owns the helper: a
                # caller that owns it may be about to offer a job.
                if self.owner.acquire(blocking=False):
                    self.thread = None
                    self.owner.release()
                    return
                continue
            job = self.offer
            if job is None or not job.claim.acquire(blocking=False):
                continue  # the caller got to it first
            try:
                job.fn()
            except BaseException as error:  # noqa: BLE001 — re-raised on the caller
                job.error = error
            job.done.release()

    def run(self, first: Callable[[], None], second: Callable[[], None]) -> None:
        """Run both jobs; the caller must hold ``owner``."""
        if self.thread is None:
            self.thread = threading.Thread(
                target=self._loop, name="repro-plan-lane", daemon=True
            )
            self.thread.start()
        job = self.offer = _Job(second)
        if self.wake.locked():  # else a wake-up is still pending
            self.wake.release()
        try:
            first()
        finally:
            self.offer = None
            # Take ``second`` back if the helper has not started it
            # (waiting for a helper whose CPU is busy elsewhere costs
            # more than running it here), else wait for it: it writes
            # into the caller's buffers, so never return, normally or
            # by exception, while it runs.
            claimed = job.claim.acquire(blocking=False)
            if not claimed:
                job.done.acquire()
        if claimed:
            second()
        elif job.error is not None:
            raise job.error


_HELPER = _Helper()
_SINGLE_LANE = False


def _reset_after_fork() -> None:
    # The child has only the forking thread: the helper thread and any
    # lock another parent thread held are gone with it.
    global _HELPER
    _HELPER = _Helper()


os.register_at_fork(after_in_child=_reset_after_fork)


def use_single_lane() -> None:
    """Run every later two-lane call of this process on the caller only."""
    global _SINGLE_LANE
    _SINGLE_LANE = True


def lanes_available() -> bool:
    """True when this process may run a second lane: it is not pinned to
    one lane and may be scheduled on at least two CPUs."""
    if _SINGLE_LANE:
        return False
    try:
        return len(os.sched_getaffinity(0)) >= 2
    except AttributeError:  # no sched_getaffinity (macOS, Windows)
        return (os.cpu_count() or 1) >= 2


def run_two_lanes(
    first: Callable[[], None], second: Callable[[], None], units: int = 1
) -> None:
    """Run ``first`` on this thread and ``second`` on the helper thread.

    Runs ``second`` here too when the helper has not started it by the
    time ``first`` is done, and both here, one after the other, when
    the helper is busy with another caller's job or when running them
    one after the other currently measures cheaper per unit of work
    (``units``, e.g. rows).  Two threads share one interpreter lock, and
    on a host whose second CPU is taken by other work, handing it back
    and forth can cost more than the second lane saves; so the process
    keeps a running cost of both ways and probes the slower one every
    :data:`PROBE_EVERY` calls.  Returns once both jobs have finished.
    An exception from either job is re-raised here (``first``'s when
    both fail); the helper stays usable.
    """
    helper = _HELPER
    if not helper.owner.acquire(blocking=False):
        first()
        second()
        return
    try:
        parallel = helper.pick()
        started = time.perf_counter()
        if parallel:
            helper.run(first, second)
        else:
            first()
            second()
        helper.record(parallel, (time.perf_counter() - started) / units)
    finally:
        helper.owner.release()
