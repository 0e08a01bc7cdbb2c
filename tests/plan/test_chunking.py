"""Power-of-two chunked replay: any batch size, at most five plans.

``forecast_batch(engine="plan")`` runs a batch as power-of-two row
chunks capped at ``PLAN_MAX_ROWS`` (16), so ragged serving traffic
reuses a bounded set of plans instead of tracing one per batch size.
Batches of ``TWO_LANE_MIN_ROWS`` and more are first split into two row
halves replayed at once (``tests/plan/test_lanes.py``).  Rows are
independent in float64, so the stitched result must equal the eager
forward bitwise — NaN rows included.
"""

import numpy as np
import pytest

from repro.core import model as model_module
from repro.core.model import FOCUSForecaster, plan_chunks
from repro.serving import ForecastServer, ServingConfig

from .conftest import build_plan_model, make_windows

pytestmark = pytest.mark.plan


@pytest.mark.parametrize(
    "batch, chunks",
    [(0, []), (1, [1]), (19, [16, 2, 1]), (32, [16, 16]), (33, [16, 16, 1]),
     (70, [16, 16, 16, 16, 4, 2])],
)
def test_chunks_are_powers_of_two_largest_first(batch, chunks):
    assert FOCUSForecaster.PLAN_MAX_ROWS == 16
    assert plan_chunks(batch, FOCUSForecaster.PLAN_MAX_ROWS) == chunks


def test_every_batch_size_matches_eager_bitwise():
    model = build_plan_model()
    for batch in range(1, 71):
        nan_rows = [row for row in (0, batch // 2, batch - 1) if row % 3 == 0]
        windows = make_windows(model, batch, seed=batch, nan_rows=nan_rows)
        plan = model.forecast_batch(windows, engine="plan")
        eager = model.forecast_batch(windows, engine="eager")
        assert plan.dtype == np.float64 and plan.shape == eager.shape
        assert np.array_equal(plan, eager, equal_nan=True), f"batch {batch}"
    assert sorted(key[0][0] for key in model._plans) == [1, 2, 4, 8, 16]


def test_serving_sizes_one_to_32_trace_at_most_five_plans(monkeypatch):
    # B=32 runs as two 16-row lanes (on any host, for a fixed list).
    monkeypatch.setattr(model_module, "lanes_available", lambda: True)
    model = build_plan_model()
    for batch in range(1, 33):
        model.forecast_batch(make_windows(model, batch, seed=batch), engine="plan")
    shapes = sorted(key[0][0] for key in model._plans)
    assert shapes == [1, 2, 4, 8, 16]
    assert len(model._plans) <= model.PLAN_CACHE_CAPACITY


def test_prototype_swap_while_serving_never_retraces(monkeypatch):
    model = build_plan_model()
    traces = []
    original = FOCUSForecaster._trace_plan

    def counting(self, windows):
        traces.append(windows.shape)
        return original(self, windows)

    monkeypatch.setattr(FOCUSForecaster, "_trace_plan", counting)
    server = ForecastServer(model, ServingConfig(use_cache=False))
    rng = np.random.default_rng(3)
    entities = ["a", "b", "c"]
    for entity in entities:
        server.observe_many(entity, rng.standard_normal((24, 3)))
    before = [r.forecast for r in server.forecast_many(entities)]
    assert traces == [(2, 24, 3), (1, 24, 3)]  # 3 rows run as 2 + 1
    cfg = model.config
    model.set_prototypes(rng.standard_normal((cfg.num_prototypes, cfg.segment_length)))
    after = server.forecast_many(entities)
    assert len(traces) == 2  # the swap reused both plans
    windows = np.stack([server.store.session(e).ring.window() for e in entities])
    eager = model.forecast_batch(windows, engine="eager")
    for row, response in enumerate(after):
        assert response.source == "model"
        assert np.array_equal(response.forecast, eager[row])
    assert any(not np.array_equal(b, a.forecast) for b, a in zip(before, after))
