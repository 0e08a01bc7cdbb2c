"""Golden fixture pinning ``Trainer.fit`` bit for bit across commits.

``goldens/trainer_fit.npz`` holds the float64 state dict and the
train/validation loss history of a small seeded fit at the dims of the
benchmark's pinned model (``perfbench/fixture.py`` ``CONFIG``: L=96,
H=24, N=12, p=12, k=8, d=32, m=2), on Electricity-smoke data with
prototypes from the offline clusterer.  Every float64 weight of the
restored best epoch and every epoch loss is compared exactly.

The point is that the autograd engine (how ``backward`` walks, frees
and accumulates the graph), the optimizer's in-place arithmetic and the
trainer loop may be rewritten for speed or memory but must not change
one bit.  The fixture was written with numpy's bundled OpenBLAS; a host
whose BLAS rounds matrix products differently will miss it in the last
ulp, and the fix there is to regenerate it *from the commit that wrote
it* on that host, never to loosen the comparison::

    PYTHONPATH=src python -m pytest tests/training/test_trainer_golden.py --regen-goldens
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core.clustering import ClusteringConfig, SegmentClusterer
from repro.core.model import FOCUSConfig, FOCUSForecaster
from repro.data import load_dataset
from repro.nn import init as nn_init
from repro.training import Trainer, TrainerConfig

GOLDEN_PATH = Path(__file__).parent / "goldens" / "trainer_fit.npz"

CONFIG = FOCUSConfig(
    lookback=96,
    horizon=24,
    num_entities=12,
    segment_length=12,
    num_prototypes=8,
    d_model=32,
    num_readout=2,
)
SEED = 3
EPOCHS = 3
# Every 8th window: five training batches of 32 (the last one ragged).
STRIDE = 8


def run_fit() -> dict[str, np.ndarray]:
    data = load_dataset("Electricity", seed=SEED)
    clusterer = SegmentClusterer(
        ClusteringConfig(
            num_prototypes=CONFIG.num_prototypes,
            segment_length=CONFIG.segment_length,
            alpha=CONFIG.alpha,
            seed=SEED,
        )
    ).fit(data.train)
    nn_init.seed(SEED)
    model = FOCUSForecaster(CONFIG, prototypes=clusterer.prototypes_)
    trainer = Trainer(model, TrainerConfig(epochs=EPOCHS, seed=SEED))
    history = trainer.fit(
        data.windows("train", CONFIG.lookback, CONFIG.horizon, STRIDE),
        data.windows("val", CONFIG.lookback, CONFIG.horizon, STRIDE),
    )
    outputs = {
        f"model/{name}": np.array(value, copy=True)
        for name, value in model.state_dict().items()
    }
    outputs["train_losses"] = np.array(history.train_losses)
    outputs["val_losses"] = np.array(history.val_losses)
    outputs["best_epoch"] = np.array(history.best_epoch)
    return outputs


def test_fit_matches_golden_bitwise(regen_goldens):
    actual = run_fit()
    assert all(v.dtype == np.float64 for k, v in actual.items() if k.startswith("model/"))
    if regen_goldens:
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        np.savez_compressed(GOLDEN_PATH, **actual)
        pytest.skip(f"regenerated {GOLDEN_PATH.name}")
    with np.load(GOLDEN_PATH) as golden:
        assert sorted(golden.files) == sorted(actual)
        for key, value in actual.items():
            expected = golden[key]
            assert value.dtype == expected.dtype, key
            assert value.shape == expected.shape, key
            assert value.tobytes() == expected.tobytes(), f"{key} changed bits"

