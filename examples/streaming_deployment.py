"""Deployment-style streaming forecasting with prototype maintenance.

Trains FOCUS on the Weather surrogate, then replays the validation and
test splits one observation at a time through a :class:`ForecastServer`,
forecasting every 24 steps.  After them the stream changes regime: it
plays the training series four times faster, so the segment shapes the
offline prototype bank was fitted on stop describing it.  A
:class:`MaintenanceWorker` attached to the server watches the
prototype-assignment drift, raises an alarm, and repairs or refits the
bank behind a shadow-scoring gate, with no serving downtime.  The worker
is stepped with ``tick()`` once per stream step, so alarm, refit and
swap land at the same steps on every run.

With ``--telemetry-dir DIR`` the whole pipeline shares one telemetry
stack (docs/observability.md): the trainer, the server and the worker
write JSONL events to ``DIR/events.jsonl``, metrics (batch latency,
forecast sources, assignment drift, maintenance jobs, health) land in
``DIR/metrics.prom``, and ``python -m repro monitor DIR`` renders the
result.

Run:  python examples/streaming_deployment.py [--telemetry-dir DIR] [--epochs N]
"""

import argparse

import numpy as np

from repro.core import FOCUSConfig, FOCUSForecaster
from repro.data import load_dataset
from repro.maintenance import MaintenanceConfig, MaintenanceWorker
from repro.serving import ForecastServer
from repro.telemetry import DriftConfig, MetricsRegistry, RunLogger, write_prometheus
from repro.training import Trainer, TrainerConfig

LOOKBACK, HORIZON = 96, 24
ENTITY = "weather-station"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--telemetry-dir", default=None,
        help="write JSONL events + Prometheus metrics here",
    )
    parser.add_argument("--epochs", type=int, default=4)
    args = parser.parse_args(argv)

    registry = None
    logger = None
    if args.telemetry_dir:
        registry = MetricsRegistry()
        logger = RunLogger.to_dir(args.telemetry_dir)

    data = load_dataset("Weather", scale="smoke", seed=0)
    config = FOCUSConfig(
        lookback=LOOKBACK, horizon=HORIZON, num_entities=data.num_entities,
        segment_length=12, num_prototypes=8, d_model=64, num_readout=16,
    )
    model = FOCUSForecaster.from_training_data(config, data.train)
    trainer = Trainer(
        model,
        TrainerConfig(epochs=args.epochs, batch_size=32, lr=5e-3, patience=99,
                      restore_best=False),
        run_logger=logger,
        registry=registry,
    )
    print("training ...")
    trainer.fit(
        data.windows("train", LOOKBACK, HORIZON, stride=2),
        data.windows("val", LOOKBACK, HORIZON),
    )

    server = ForecastServer(model, telemetry=registry, run_logger=logger)
    # One entity yields one drift profile per ``drift_every`` rows, so a
    # 16-profile window already spans 128 steps.
    maintenance = MaintenanceConfig(
        drift=DriftConfig(
            window=16, baseline_forecasts=24, threshold=0.25,
            alarm_streak=2, min_segments=16,
        )
    )
    worker = MaintenanceWorker(
        model, maintenance, registry=registry, run_logger=logger
    )
    server.attach_maintenance(worker)

    calm = np.concatenate([data.val, data.test])
    shifted = data.train[::4]
    stream = np.concatenate([calm, shifted])
    print(f"replaying {len(calm)} calm + {len(shifted)} shifted steps ...")
    errors = {"calm": [], "shifted": []}
    for t in range(len(stream) - HORIZON):
        server.observe(ENTITY, stream[t])
        job = worker.tick()
        if job is not None:
            print(f"  step {t}: drift alarm -> maintenance job {job['status']}"
                  + (f" ({job['mode']})" if "mode" in job else ""))
        if t % 24 == 0 and server.ready([ENTITY]):
            forecast = server.forecast(ENTITY).forecast
            truth = stream[t + 1 : t + 1 + HORIZON]
            regime = "calm" if t + HORIZON < len(calm) else "shifted"
            errors[regime].append(float(((forecast - truth) ** 2).mean()))

    stats = server.stats()
    upkeep = worker.stats()
    print(f"\nserved {stats['observations']} observations, "
          f"made {stats['forecasts']} forecasts (health {stats['health']})")
    print(f"drift alarms: {upkeep['drift_alarms']}, "
          f"jobs: {upkeep['jobs_started']}, "
          f"swaps: {upkeep['jobs_swapped']}, "
          f"rejected: {upkeep['jobs_rejected']}, "
          f"rollbacks: {upkeep['rollbacks']}")
    print("forecast MSE: "
          + ", ".join(f"{regime} {np.mean(values):.4f}"
                      for regime, values in errors.items() if values))
    if args.telemetry_dir:
        write_prometheus(registry, args.telemetry_dir)
        logger.close()
        print(f"telemetry written to {args.telemetry_dir} "
              f"(render with: python -m repro monitor {args.telemetry_dir})")


if __name__ == "__main__":
    main()
