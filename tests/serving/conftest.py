"""Shared fixtures for the serving suite: one small trained model.

The model is deliberately tiny (lookback 32, 3 entities, 4 prototypes)
so the whole suite — including the concurrency hammer and the hypothesis
equivalence properties — stays fast while exercising every serving code
path.  Construction is fully seeded (``nn.init.seed``) so golden
fixtures are reproducible.

:func:`eager_forecast` is the suite's reference answer for one entity.
"""

import numpy as np
import pytest

from repro import autograd as ag
from repro.core.model import FOCUSConfig, FOCUSForecaster
from repro.nn import init as nn_init
from repro.serving.session import ObservationRing

LOOKBACK = 32
HORIZON = 8
NUM_ENTITIES = 3


def build_model(dtype: str = "float64") -> FOCUSForecaster:
    """A freshly seeded small FOCUS model (same weights every call)."""
    from repro.autograd.tensor import default_dtype

    with default_dtype(np.dtype(dtype)):
        nn_init.seed(0)
        config = FOCUSConfig(
            lookback=LOOKBACK,
            horizon=HORIZON,
            num_entities=NUM_ENTITIES,
            segment_length=8,
            num_prototypes=4,
            d_model=16,
        )
        history = np.random.default_rng(7).normal(size=(400, NUM_ENTITIES))
        model = FOCUSForecaster.from_training_data(config, history.astype(dtype))
    model.eval()
    return model


@pytest.fixture(scope="module")
def model() -> FOCUSForecaster:
    return build_model("float64")


@pytest.fixture(scope="module")
def model_f32() -> FOCUSForecaster:
    return build_model("float32")


def eager_forecast(model, rows: np.ndarray, nan_policy: str = "reject") -> np.ndarray:
    """The serving oracle for one entity: ``rows`` through one
    :class:`ObservationRing`, then one eager ``model(Tensor(window[None]))``
    forward (no batching, no plan, no cache)."""
    ring = ObservationRing(
        model.config.lookback,
        model.config.num_entities,
        dtype=next(iter(model.parameters())).data.dtype,
        nan_policy=nan_policy,
        fill_value=lambda: float(np.mean(model.prototype_values())),
    )
    ring.observe_many(rows)
    with ag.no_grad():
        return model(ag.Tensor(ring.window()[None])).data[0].astype(np.float64)
