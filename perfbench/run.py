"""FOCUS serving benchmark: one pinned model config, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload replay-sync --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, the per-layer ledger with ``--trace 1``).  Earlier lines
carry the run's environment and request counts.  The exit code is 0
unless an output was wrong; slowness never fails a run.  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: Hard wall-clock budget of one run; workloads stop measuring at
#: ``DEADLINE_S`` so the result is printed well before the alarm.
BUDGET_S = 170
DEADLINE_S = 140


def blas_threads() -> str:
    """The OpenBLAS thread count numpy runs with, when it can be read."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            getter = getattr(handle, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return str(getter())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """One benchmark run; returns the result object printed last."""
    import numpy as np

    import report
    from fixture import Sizes, build
    from ledger import Ledger
    from workloads import WORKLOADS

    sizes = sizes or Sizes()
    drive = WORKLOADS[workload]
    deadline = time.perf_counter() + DEADLINE_S
    fix = build(seed, sizes, trace=trace)
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
    }
    if not trace:
        outcome = drive(fix, sizes, seed, seconds, None, deadline)
        metrics = report.end_to_end(outcome, fix)
        outcomes, wrong = [outcome], fix.wrong + outcome.wrong
    else:
        # Half the time untraced, half traced: the difference is the
        # tracing overhead; the layer metrics come from the traced half.
        untraced = drive(fix, sizes, seed, seconds / 2, None, deadline)
        ledger = Ledger()
        try:
            with ledger.span("bench.workload") as root:
                traced = drive(fix, sizes, seed, seconds / 2, ledger, deadline)
        finally:
            ledger.detach()
        metrics = report.per_layer(ledger, root, traced, fix)
        engine, engine_wrong = report.engine_replay(fix.model, ledger.forward_sizes(), ledger.pool)
        metrics.update(engine)
        metrics["trace.overhead_pct"] = (report.overhead_pct(workload, untraced, traced), "%")
        outcomes = [untraced, traced]
        wrong = fix.wrong + untraced.wrong + traced.wrong + engine_wrong
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        ledger.write(out / f"spans-{workload}-seed{seed}.jsonl")
    for outcome in outcomes:
        print("counts " + json.dumps(report.summary(outcome), sort_keys=True))
    print("env " + json.dumps(info, sort_keys=True))
    for problem in wrong[:20]:
        print(f"WRONG {problem}")
    return {
        "correct": not wrong,
        "attempted": sum(outcome.attempted for outcome in outcomes),
        "failed": sum(outcome.failed for outcome in outcomes),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def _join_threads(timeout: float = 10.0) -> None:
    """Wait for every thread this run started (refit helpers included)."""
    for thread in threading.enumerate():
        if thread is not threading.main_thread():
            thread.join(timeout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["replay-sync", "open-loop", "drift-refit"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the repro sources are missing ({SRC})", file=sys.stderr)
        return 2

    def out_of_time(*_):
        print(f"perfbench: run exceeded its {BUDGET_S}s budget", file=sys.stderr)
        os._exit(3)

    signal.signal(signal.SIGALRM, out_of_time)
    signal.alarm(BUDGET_S)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    _join_threads()
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.path[:0] = [str(HERE), str(SRC)]
    sys.exit(main())
