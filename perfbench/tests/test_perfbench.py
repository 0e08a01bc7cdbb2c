"""Tests of the benchmark itself, on tiny sizes (run from the repo root):

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import fixture  # noqa: E402
import run  # noqa: E402
from repro.core.model import FOCUSForecaster  # noqa: E402

TINY = fixture.Sizes(
    setups=2,
    train_stride=64,
    sync_tenants=4,
    sync_steps=16,
    open_tenants=4,
    open_rate=200.0,
    drift_tenants=4,
    drift_before=16,
    drift_after=32,
    drift_jobs=(0, 32),
    check_every=1,
)
WORKLOADS = ["replay-sync", "open-loop", "drift-refit"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def tiny_run(workload: str, trace: bool = False, seed: int = 3):
    return run.run(workload, seed, 0.3, trace, sizes=TINY)


def test_spec_names_are_valid():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25, metric
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    result = tiny_run(workload)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_reports_the_ledger(workload):
    result = tiny_run(workload, trace=True)
    assert result["correct"] is True
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(result["metrics"]) == set(units)
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert all(math.isfinite(value) for value in metrics.values())
    assert metrics["model.forwards"] > 0 and metrics["engine.builds"] > 0
    parts = ("forward_self", "revin", "temporal_protoattn", "entity_protoattn",
             "fusion", "extractor_self")
    split = sum(metrics[f"model.{part}_ms"] for part in parts)
    assert split == pytest.approx(metrics["model.forward_ms"], rel=1e-9)
    if workload == "open-loop":
        assert metrics["server.batches"] > 0
    else:
        assert metrics["server.forecast_many_ms"] > 0
        # The queue is bypassed on the synchronous workloads.
        for name in ("server.batches", "server.batch_size_mean",
                     "server.queue_wait_p50_ms", "server.queue_wait_p99_ms"):
            assert metrics[name] == 0, name
    if workload == "replay-sync":
        assert metrics["cache.hit_ratio"] == 0
    if workload == "drift-refit":
        assert metrics["maintenance.jobs"] > 0


@pytest.mark.parametrize("workload", ["replay-sync", "drift-refit"])
def test_forecast_mse_repeats_for_one_seed(workload):
    first = tiny_run(workload, seed=5)["metrics"]["forecast_mse"]["value"]
    second = tiny_run(workload, seed=5)["metrics"]["forecast_mse"]["value"]
    other = tiny_run(workload, seed=6)["metrics"]["forecast_mse"]["value"]
    assert first == second
    assert first != other


def test_model_exception_counts_as_failed_not_crash(monkeypatch):
    def broken(self, windows, engine="eager"):
        raise FloatingPointError("stand-in model failure")

    monkeypatch.setattr(FOCUSForecaster, "forecast_batch", broken)
    result = tiny_run("replay-sync")
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]


def test_wrong_output_is_caught(monkeypatch):
    original = FOCUSForecaster.forecast_batch

    def skewed(self, windows, engine="eager"):
        forecast = original(self, windows, engine)
        # Batched answers drift from single-window ones: finite, plausible,
        # and wrong.
        return forecast + 1e-3 if len(windows) > 1 else forecast

    monkeypatch.setattr(FOCUSForecaster, "forecast_batch", skewed)
    assert tiny_run("replay-sync")["correct"] is False


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay-sync",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tenant_streams_are_seeded():
    rows = np.arange(200.0)[:, None]
    first = fixture.tenant_streams(rows, 3, 50, np.random.default_rng(1))
    again = fixture.tenant_streams(rows, 3, 50, np.random.default_rng(1))
    assert all(np.array_equal(first[t], again[t]) for t in first)
    with pytest.raises(ValueError):
        fixture.tenant_streams(rows, 1, 201, np.random.default_rng(1))
