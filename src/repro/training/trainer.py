"""Minibatch trainer with validation-based early stopping.

Fault tolerance (opt-in via ``TrainerConfig.checkpoint_dir``):

- every ``checkpoint_every`` epochs the full training state — model,
  optimizer moments, data-order and dropout RNG, epoch counters, and
  history — is written atomically through
  :class:`~repro.robustness.checkpoint.CheckpointManager`;
- ``resume=True`` restores the newest valid checkpoint and continues,
  reproducing the exact same per-epoch losses an uninterrupted run
  would have produced;
- a non-finite (or, with a checkpoint available, exploding) training
  loss triggers *loss-spike recovery*: roll back to the last good
  checkpoint, halve the learning rate, and retry — up to
  ``max_recovery_retries`` times per fit — instead of aborting the
  run.  Without a checkpoint the historical hard failure
  (:class:`NonFiniteLossError`) is preserved.

Observability (see ``docs/observability.md``): every notable event —
epoch, checkpoint save/resume, loss-spike recovery — is emitted through
a :class:`~repro.telemetry.runlog.RunLogger` instead of bare prints.
``TrainerConfig.verbose`` routes events through a stdout sink that
reproduces the historical CLI lines byte-for-byte;
``TrainerConfig.telemetry_dir`` additionally writes schema-versioned
JSONL events plus a Prometheus metrics snapshot (span timings and
per-step latency/loss instruments) into the run directory.  With both
off, the only residue on the hot loop is one ``is not None`` test per
batch.
"""

from __future__ import annotations

import dataclasses
import json
import time

import numpy as np

from repro import autograd as ag
from repro.autograd import Tensor
from repro.data.windows import DataLoader, SlidingWindowDataset
from repro.nn import Module
from repro.nn import init as nn_init
from repro.optim import AdamW, clip_grad_norm
from repro.robustness.checkpoint import CheckpointManager
from repro.telemetry import (
    NULL_LOGGER,
    NULL_TRACER,
    MetricsRegistry,
    RunLogger,
    StdoutSink,
    Tracer,
    TrainingInstruments,
    write_prometheus,
)
from repro.training.metrics import evaluate_forecast


class NonFiniteLossError(RuntimeError):
    """Raised when training diverges and no recovery path is available."""


@dataclasses.dataclass
class TrainerConfig:
    """Training hyperparameters (shared by FOCUS and all baselines for a
    fair Table III comparison)."""

    epochs: int = 5
    batch_size: int = 32
    lr: float = 3e-3
    weight_decay: float = 1e-4
    grad_clip: float = 5.0
    patience: int = 3
    restore_best: bool = True
    seed: int = 0
    verbose: bool = False
    # Fault tolerance (all inert unless checkpoint_dir is set).
    checkpoint_dir: str | None = None
    checkpoint_every: int = 1
    resume: bool = False
    keep_checkpoints: int = 3
    max_recovery_retries: int = 3
    # A finite epoch loss this many times the best epoch loss so far is
    # treated as a spike (recovery only; never a hard failure).
    loss_explosion_factor: float = 1e4
    # Telemetry (inert unless set): run directory receiving JSONL events
    # (events.jsonl) and a Prometheus metrics snapshot (metrics.prom).
    telemetry_dir: str | None = None


@dataclasses.dataclass
class TrainingHistory:
    """Per-epoch losses and timing collected during :meth:`Trainer.fit`."""

    train_losses: list[float] = dataclasses.field(default_factory=list)
    val_losses: list[float] = dataclasses.field(default_factory=list)
    best_epoch: int = -1
    train_seconds: float = 0.0
    # One entry per loss-spike rollback: epoch, restored_epoch, reason, lr.
    recoveries: list[dict] = dataclasses.field(default_factory=list)

    @property
    def best_val_loss(self) -> float:
        if not self.val_losses:
            return float("nan")
        return self.val_losses[self.best_epoch]


class Trainer:
    """MSE-objective trainer mirroring the paper's protocol.

    Trains with AdamW, clips gradients, restores the best-validation
    weights at the end (early stopping with ``patience``).
    """

    def __init__(
        self,
        model: Module,
        config: TrainerConfig | None = None,
        run_logger: RunLogger | None = None,
        registry: MetricsRegistry | None = None,
    ):
        self.model = model
        self.config = config or TrainerConfig()
        self.optimizer = AdamW(
            model.parameters(), lr=self.config.lr, weight_decay=self.config.weight_decay
        )
        # Externally-owned telemetry (e.g. one logger shared by training
        # and streaming); when None, fit() builds its own from the config.
        self.run_logger = run_logger
        self.registry = registry

    def _fit_telemetry(self):
        """Resolve (logger, registry, tracer, instruments, owns_logger)."""
        cfg = self.config
        owns = False
        logger = self.run_logger
        if logger is None:
            if cfg.telemetry_dir:
                logger = RunLogger.to_dir(cfg.telemetry_dir, verbose=cfg.verbose)
                owns = True
            elif cfg.verbose:
                logger = RunLogger([StdoutSink()])
                owns = True
            else:
                logger = NULL_LOGGER
        registry = self.registry
        if registry is None and cfg.telemetry_dir:
            registry = MetricsRegistry()
        tracer = Tracer(registry) if registry is not None else NULL_TRACER
        instruments = TrainingInstruments(registry) if registry is not None else None
        return logger, registry, tracer, instruments, owns

    def _model_dtype(self) -> np.dtype:
        """The parameter dtype batches must match (float32/float64 runs)."""
        return next(iter(self.model.parameters())).data.dtype

    @staticmethod
    def _as_batch(array: np.ndarray, dtype: np.dtype) -> Tensor:
        """Wrap a loader batch once, casting only on a dtype mismatch."""
        return Tensor(array if array.dtype == dtype else array.astype(dtype))

    def _epoch(
        self, loader: DataLoader, instruments: TrainingInstruments | None = None
    ) -> float:
        self.model.train()
        dtype = self._model_dtype()
        self.optimizer.zero_grad()
        total, batches = 0.0, 0
        for x_batch, y_batch in loader:
            step_started = time.perf_counter() if instruments is not None else 0.0
            x = self._as_batch(x_batch, dtype)
            y = self._as_batch(y_batch, dtype)
            # ``pred`` and ``loss`` stay bound until the next forward has
            # run.  After ``backward`` they hold only their own outputs,
            # but those sit high in the heap the freed graph leaves: a
            # step that released them too (a step function returning)
            # let malloc hand that memory back to the OS, and the next
            # forward faulted it back in (~8x the minor page faults).
            pred = self.model(x)
            loss = ((pred - y) ** 2.0).mean()
            if not np.isfinite(loss.item()):
                raise NonFiniteLossError(
                    f"non-finite training loss ({loss.item()}) at batch {batches}; "
                    "check the learning rate and input normalization"
                )
            loss.backward()
            if self.config.grad_clip:
                clip_grad_norm(self.optimizer.parameters, self.config.grad_clip)
            self.optimizer.step()
            # Drop the gradients now rather than before the next
            # backward, so the next forward can reuse their memory.
            self.optimizer.zero_grad()
            total += loss.item()
            batches += 1
            if instruments is not None:
                instruments.record_step(
                    loss.item(), time.perf_counter() - step_started
                )
        return total / max(batches, 1)

    def validation_loss(self, dataset: SlidingWindowDataset, max_batches: int | None = None) -> float:
        self.model.eval()
        dtype = self._model_dtype()
        loader = DataLoader(dataset, self.config.batch_size)
        total, batches = 0.0, 0
        with ag.no_grad():
            for x_batch, y_batch in loader:
                pred = self.model(self._as_batch(x_batch, dtype))
                total += float(((pred.data - y_batch) ** 2).mean())
                batches += 1
                if max_batches is not None and batches >= max_batches:
                    break
        return total / max(batches, 1)

    # ------------------------------------------------------------------
    # Checkpoint packing / unpacking
    # ------------------------------------------------------------------
    def _pack_checkpoint(
        self,
        epoch: int,
        history: TrainingHistory,
        best_state: dict[str, np.ndarray] | None,
        bad_epochs: int,
        loader: DataLoader,
        prior_seconds: float,
        started: float,
    ) -> dict[str, np.ndarray]:
        arrays: dict[str, np.ndarray] = {
            f"model/{name}": value for name, value in self.model.state_dict().items()
        }
        opt = self.optimizer
        if hasattr(opt, "_m"):
            for i, moment in enumerate(opt._m):
                arrays[f"optim/m/{i}"] = moment
            for i, moment in enumerate(opt._v):
                arrays[f"optim/v/{i}"] = moment
        if best_state is not None:
            arrays.update({f"best/{name}": value for name, value in best_state.items()})
        meta = {
            "schema": 1,
            "dtype": self._model_dtype().name,
            "epoch": epoch,
            "lr": float(opt.lr),
            "step_count": int(getattr(opt, "_step_count", 0)),
            "bad_epochs": int(bad_epochs),
            "train_losses": history.train_losses,
            "val_losses": history.val_losses,
            "best_epoch": history.best_epoch,
            "recoveries": history.recoveries,
            "train_seconds": prior_seconds + (time.perf_counter() - started),
            "has_best": best_state is not None,
            "rng": {
                "loader": loader._rng.bit_generator.state,
                "init": nn_init.get_rng().bit_generator.state,
            },
        }
        arrays["meta"] = np.array(json.dumps(meta))
        return arrays

    def _apply_checkpoint(
        self, arrays: dict[str, np.ndarray], loader: DataLoader | None
    ) -> tuple[dict, dict[str, np.ndarray] | None]:
        """Restore model/optimizer/RNG state; return (meta, best_state)."""
        meta = json.loads(str(arrays["meta"]))
        ckpt_dtype = meta.get("dtype")
        if ckpt_dtype is not None and np.dtype(ckpt_dtype) != self._model_dtype():
            # A float32 run must resume as float32 (and vice versa): cast
            # the live model and optimizer state before the in-place
            # restore below, which would otherwise silently re-cast the
            # checkpoint to the model's construction dtype.
            self.model.to_dtype(ckpt_dtype)
            self.optimizer.cast_state(ckpt_dtype)
        self.model.load_state_dict(
            {
                name[len("model/"):]: value
                for name, value in arrays.items()
                if name.startswith("model/")
            }
        )
        opt = self.optimizer
        opt.lr = float(meta["lr"])
        if hasattr(opt, "_step_count"):
            opt._step_count = int(meta["step_count"])
        if hasattr(opt, "_m"):
            for i, moment in enumerate(opt._m):
                moment[...] = arrays[f"optim/m/{i}"]
            for i, moment in enumerate(opt._v):
                moment[...] = arrays[f"optim/v/{i}"]
        rng = meta.get("rng", {})
        if loader is not None and rng.get("loader"):
            loader._rng.bit_generator.state = rng["loader"]
        if rng.get("init"):
            nn_init.get_rng().bit_generator.state = rng["init"]
        best_state = None
        if meta.get("has_best"):
            best_state = {
                name[len("best/"):]: np.array(value, copy=True)
                for name, value in arrays.items()
                if name.startswith("best/")
            }
        return meta, best_state

    @staticmethod
    def _restore_history(history: TrainingHistory, meta: dict) -> None:
        history.train_losses[:] = [float(v) for v in meta["train_losses"]]
        history.val_losses[:] = [float(v) for v in meta["val_losses"]]
        history.best_epoch = int(meta["best_epoch"])
        history.recoveries[:] = list(meta.get("recoveries", []))

    def _is_explosion(self, train_loss: float, history: TrainingHistory) -> bool:
        factor = self.config.loss_explosion_factor
        prior = [loss for loss in history.train_losses if np.isfinite(loss)]
        if not factor or not prior:
            return False
        return train_loss > factor * max(min(prior), 1e-12)

    # ------------------------------------------------------------------
    # Training loop
    # ------------------------------------------------------------------
    def fit(
        self,
        train_dataset: SlidingWindowDataset,
        val_dataset: SlidingWindowDataset | None = None,
    ) -> TrainingHistory:
        cfg = self.config
        logger, registry, tracer, instruments, owns_logger = self._fit_telemetry()
        try:
            return self._fit(
                train_dataset, val_dataset, logger, registry, tracer, instruments
            )
        finally:
            if registry is not None and cfg.telemetry_dir:
                write_prometheus(registry, cfg.telemetry_dir)
            if owns_logger:
                logger.close()

    def _fit(
        self,
        train_dataset: SlidingWindowDataset,
        val_dataset: SlidingWindowDataset | None,
        logger: RunLogger,
        registry: MetricsRegistry | None,
        tracer,
        instruments: TrainingInstruments | None,
    ) -> TrainingHistory:
        cfg = self.config
        loader = DataLoader(
            train_dataset, cfg.batch_size, shuffle=True, seed=cfg.seed
        )
        history = TrainingHistory()
        best_state = None
        bad_epochs = 0
        start_epoch = 0
        prior_seconds = 0.0
        logger.event(
            "run_start",
            kind="fit",
            model=type(self.model).__name__,
            epochs=cfg.epochs,
            batch_size=cfg.batch_size,
            lr=cfg.lr,
            dtype=self._model_dtype().name,
        )
        manager = None
        if cfg.checkpoint_dir:
            manager = CheckpointManager(cfg.checkpoint_dir, keep=cfg.keep_checkpoints)
            if cfg.resume:
                latest = manager.load_latest()
                if latest is not None:
                    ckpt_epoch, arrays = latest
                    meta, best_state = self._apply_checkpoint(arrays, loader)
                    self._restore_history(history, meta)
                    bad_epochs = int(meta["bad_epochs"])
                    prior_seconds = float(meta.get("train_seconds", 0.0))
                    start_epoch = ckpt_epoch + 1
                    logger.event("checkpoint_resume", epoch=ckpt_epoch)
        retries = 0
        started = time.perf_counter()
        epoch = start_epoch
        while epoch < cfg.epochs:
            try:
                with tracer.span("epoch.train"):
                    train_loss = self._epoch(loader, instruments)
                if self._can_recover(manager, retries) and self._is_explosion(
                    train_loss, history
                ):
                    best_prior = min(
                        loss for loss in history.train_losses if np.isfinite(loss)
                    )
                    raise NonFiniteLossError(
                        f"exploding training loss ({train_loss:.3e}, best prior "
                        f"{best_prior:.3e}) at epoch {epoch}"
                    )
            except NonFiniteLossError as error:
                if not self._can_recover(manager, retries):
                    raise
                latest = manager.load_latest()
                if latest is None:
                    raise
                ckpt_epoch, arrays = latest
                halved_lr = 0.5 * self.optimizer.lr
                meta, best_state = self._apply_checkpoint(arrays, loader)
                self._restore_history(history, meta)
                bad_epochs = int(meta["bad_epochs"])
                self.optimizer.lr = halved_lr
                retries += 1
                history.recoveries.append(
                    {
                        "epoch": epoch,
                        "restored_epoch": ckpt_epoch,
                        "reason": str(error),
                        "lr": halved_lr,
                    }
                )
                logger.event(
                    "recovery",
                    epoch=epoch,
                    restored_epoch=ckpt_epoch,
                    reason=str(error),
                    lr=halved_lr,
                    retry=retries,
                    max_retries=cfg.max_recovery_retries,
                )
                epoch = ckpt_epoch + 1
                continue
            history.train_losses.append(train_loss)
            if val_dataset is not None:
                with tracer.span("epoch.validate"):
                    val_loss = self.validation_loss(val_dataset)
                history.val_losses.append(val_loss)
                if history.best_epoch < 0 or val_loss < history.best_val_loss:
                    history.best_epoch = epoch
                    if cfg.restore_best:
                        # Snapshot defensively: state_dict() makes no
                        # ownership guarantee (torch-style implementations
                        # return references to the live arrays), and later
                        # optimizer steps mutate parameters in place — an
                        # aliased snapshot would silently restore the
                        # *final* weights instead of the best ones.
                        best_state = {
                            name: np.array(value, copy=True)
                            for name, value in self.model.state_dict().items()
                        }
                    bad_epochs = 0
                else:
                    bad_epochs += 1
                logger.event(
                    "epoch", epoch=epoch, train_loss=train_loss, val_loss=val_loss
                )
                if bad_epochs > cfg.patience:
                    break
            else:
                logger.event("epoch", epoch=epoch, train_loss=train_loss)
            if (
                manager is not None
                and cfg.checkpoint_every
                and (epoch + 1) % cfg.checkpoint_every == 0
            ):
                with tracer.span("checkpoint.save"):
                    path = manager.save(
                        self._pack_checkpoint(
                            epoch, history, best_state, bad_epochs, loader,
                            prior_seconds, started,
                        ),
                        epoch,
                    )
                logger.event("checkpoint_save", epoch=epoch, path=str(path))
            epoch += 1
        if best_state is not None:
            self.model.load_state_dict(best_state)
        history.train_seconds = prior_seconds + (time.perf_counter() - started)
        logger.event(
            "run_end",
            kind="fit",
            train_seconds=history.train_seconds,
            best_epoch=history.best_epoch,
            epochs_run=len(history.train_losses),
            recoveries=len(history.recoveries),
        )
        return history

    def _can_recover(self, manager: CheckpointManager | None, retries: int) -> bool:
        return (
            manager is not None
            and retries < self.config.max_recovery_retries
            and manager.has_checkpoint()
        )

    def evaluate(
        self, dataset: SlidingWindowDataset, stride_subsample: int = 1
    ) -> dict[str, float]:
        """Metrics over a dataset (optionally subsampled for speed)."""
        self.model.eval()
        indices = np.arange(0, len(dataset), stride_subsample)
        if len(indices) == 0:
            raise ValueError(
                "cannot evaluate on an empty dataset (0 windows); "
                "check the split lengths against lookback + horizon"
            )
        dtype = self._model_dtype()
        preds, targets = [], []
        with ag.no_grad():
            for start in range(0, len(indices), self.config.batch_size):
                batch_idx = indices[start : start + self.config.batch_size]
                x_batch, y_batch = dataset.batch(batch_idx)
                preds.append(self.model(self._as_batch(x_batch, dtype)).data)
                targets.append(y_batch)
        return evaluate_forecast(np.concatenate(preds), np.concatenate(targets))
