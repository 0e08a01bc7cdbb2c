"""The pinned FOCUS config every workload shares, and its set-up.

Set-up is what a deployment pays before it can answer its first
request: generate the Electricity-smoke data, cluster the training
split offline, train the model for two epochs, and answer one forecast
through a fresh ``ForecastServer``.  Everything is seeded from the
workload seed, ``repro.nn.init.seed`` included, so two set-ups with
one seed in one process build bit-identical models.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.core.clustering import ClusteringConfig, SegmentClusterer
from repro.core.model import FOCUSConfig, FOCUSForecaster
from repro.data import load_dataset
from repro.nn import init as nn_init
from repro.serving import ForecastServer
from repro.telemetry import MetricsRegistry
from repro.training import Trainer, TrainerConfig

CONFIG = FOCUSConfig(
    lookback=96,
    horizon=24,
    num_entities=12,
    segment_length=12,
    num_prototypes=8,
    d_model=32,
    num_readout=2,
)
EPOCHS = 2
DATASET = "Electricity"
DRIFT_DATASET = "PEMS04"


@dataclasses.dataclass(frozen=True)
class Sizes:
    """How much work one run does.  The defaults are the benchmark; the
    benchmark's own tests shrink them to keep a run under a second."""

    setups: int = 3
    # Stride between training windows (1 = every window of the split).
    train_stride: int = 2
    sync_tenants: int = 64
    sync_steps: int = 256
    open_tenants: int = 64
    open_rate: float = 250.0
    drift_tenants: int = 16
    drift_before: int = 64
    drift_after: int = 128
    # Stream steps after the regime switch at which a maintenance job runs.
    drift_jobs: tuple[int, ...] = (0, 64, 128)
    forecast_every: int = 8
    # One in this many answered responses is re-forecast and compared
    # bit-for-bit.
    check_every: int = 64


@dataclasses.dataclass
class Fixture:
    """One trained model plus the data the workloads replay."""

    model: FOCUSForecaster
    heldout: np.ndarray  # Electricity val+test rows, normalized (T, N)
    drift_rows: np.ndarray  # PEMS04 rows, normalized by their own scaler
    setup_s: list[float]
    clustering_s: list[float]
    training_s: list[float]
    step_ms: list[float]
    wrong: list[str]


def _build(seed: int, sizes: Sizes, registry: MetricsRegistry | None):
    started = time.perf_counter()
    data = load_dataset(DATASET, seed=seed)
    loaded = time.perf_counter()
    clusterer = SegmentClusterer(
        ClusteringConfig(
            num_prototypes=CONFIG.num_prototypes,
            segment_length=CONFIG.segment_length,
            alpha=CONFIG.alpha,
            seed=seed,
        )
    ).fit(data.train)
    clustered = time.perf_counter()
    nn_init.seed(seed)
    model = FOCUSForecaster(CONFIG, prototypes=clusterer.prototypes_)
    trainer = Trainer(
        model, TrainerConfig(epochs=EPOCHS, seed=seed), registry=registry
    )
    trainer.fit(
        data.windows("train", CONFIG.lookback, CONFIG.horizon, sizes.train_stride),
        data.windows("val", CONFIG.lookback, CONFIG.horizon, sizes.train_stride),
    )
    trained = time.perf_counter()
    server = ForecastServer(model)
    server.observe_many("first", data.val[: CONFIG.lookback])
    first = server.forecast("first").forecast
    done = time.perf_counter()
    return model, data, first, {
        "setup": done - started,
        "clustering": clustered - loaded,
        "training": trained - clustered,
    }


def build(seed: int, sizes: Sizes, trace: bool = False) -> Fixture:
    """Set up ``sizes.setups`` times with one seed; keep the last model.

    Two set-ups that disagree on the first forecast are recorded in
    ``Fixture.wrong``: the seed would then not pin the model.
    """
    times: dict[str, list[float]] = {"setup": [], "clustering": [], "training": []}
    step_ms: list[float] = []
    reference, wrong = None, []
    for _ in range(max(1, sizes.setups)):
        registry = MetricsRegistry() if trace else None
        model, data, first, took = _build(seed, sizes, registry)
        for key, value in took.items():
            times[key].append(value)
        if registry is not None:
            steps = registry.histogram("train_step_seconds")
            step_ms.append(steps.sum / max(steps.count, 1) * 1e3)
        if reference is not None and not np.array_equal(reference, first):
            wrong.append("two set-ups with one seed built different models")
        reference = first
    drift = load_dataset(DRIFT_DATASET, seed=seed)
    return Fixture(
        model=model,
        heldout=np.concatenate([data.val, data.test]),
        drift_rows=drift.train,
        setup_s=times["setup"],
        clustering_s=times["clustering"],
        training_s=times["training"],
        step_ms=step_ms,
        wrong=wrong,
    )


def tenant_streams(
    rows: np.ndarray, count: int, length: int, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """``count`` tenant streams of ``length`` rows, each cut from ``rows``
    at its own seeded offset.

    Offsets are stratified, one per equal slice of the room available,
    so every seed spreads its tenants over the whole span of ``rows``.
    """
    room = len(rows) - length
    if room < 0:
        raise ValueError(f"streams of {length} rows need more than {len(rows)} rows")
    slices = np.arange(count) * (room + 1) // count
    widths = np.diff(np.append(slices, room + 1))
    offsets = slices + (rng.random(count) * widths).astype(int)
    return {
        f"tenant-{index:03d}": rows[offset : offset + length]
        for index, offset in enumerate(offsets)
    }
