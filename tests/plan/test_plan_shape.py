"""The serving plan's shape at perfbench's pinned config, pinned.

Every op of the FOCUS forward is declared once
(:func:`repro.autograd.select_ops.declare`) together with where a plan
may put its output.  These counts move if a declared op stops writing
in place over a dying input (fewer in-place steps, and often more
buffers), gains an arena buffer it never writes, or stops merging with
an equal op.
"""

import numpy as np
import pytest

from repro.core.model import FOCUSConfig, FOCUSForecaster
from repro.nn import init as nn_init

pytestmark = pytest.mark.plan

#: perfbench's ``CONFIG`` (L=96, H=24, N=12, p=12, k=8, d=32).
CONFIG = FOCUSConfig(
    lookback=96, horizon=24, num_entities=12, segment_length=12,
    num_prototypes=8, d_model=32, num_readout=2,
)


@pytest.mark.parametrize("batch, arena_bytes", [(1, 302_784), (16, 4_813_824)])
def test_focus_plan_shape_at_the_benchmark_config(batch, arena_bytes):
    nn_init.seed(0)
    model = FOCUSForecaster(
        CONFIG, prototypes=np.random.default_rng(0).standard_normal((8, 12))
    )
    model.eval()
    windows = np.random.default_rng(batch).standard_normal((batch, 96, 12))
    model.forecast_batch(windows, engine="plan")
    stats = model.plan_stats()
    assert (stats.num_ops, stats.num_merged, stats.num_buffers) == (91, 4, 26)
    assert stats.arena_bytes == arena_bytes
    assert stats.num_in_place == 33
