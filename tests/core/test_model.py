"""Tests for the dual-branch extractor, fusion head, and full FOCUS model."""

import numpy as np
import pytest

from repro import autograd as ag
from repro.core import (
    ClusteringConfig,
    DualBranchExtractor,
    FOCUSConfig,
    FOCUSForecaster,
    ParallelFusion,
    make_focus_variant,
)
from repro.core.fusion import GatedLinearFusion


def prototypes(rng, k=4, p=6):
    return rng.standard_normal((k, p))


class TestDualBranchExtractor:
    def test_output_shapes(self, rng):
        extractor = DualBranchExtractor(prototypes(rng), segment_length=6, d_model=8)
        segments = ag.Tensor(rng.standard_normal((2, 5, 4, 6)))  # B,N,l,p
        h_t, h_e = extractor(segments)
        assert h_t.shape == (2, 5, 4, 8)
        assert h_e.shape == (2, 5, 4, 8)

    def test_rejects_bad_segment_length(self, rng):
        extractor = DualBranchExtractor(prototypes(rng), segment_length=6, d_model=8)
        with pytest.raises(ValueError, match="p=6"):
            extractor(ag.Tensor(rng.standard_normal((2, 5, 4, 7))))

    @pytest.mark.parametrize("mixer", ["proto", "attn", "linear"])
    def test_all_mixers_run_and_backprop(self, mixer, rng):
        extractor = DualBranchExtractor(
            prototypes(rng), segment_length=6, d_model=8, mixer=mixer
        )
        segments = ag.Tensor(rng.standard_normal((1, 3, 4, 6)), requires_grad=True)
        h_t, h_e = extractor(segments)
        (h_t.sum() + h_e.sum()).backward()
        assert segments.grad is not None

    def test_unknown_mixer_raises(self, rng):
        with pytest.raises(ValueError, match="mixer"):
            DualBranchExtractor(prototypes(rng), 6, 8, mixer="bogus")

    def test_temporal_branch_is_per_entity(self, rng):
        """Changing entity j's series must not change entity i's temporal
        features (the temporal branch is channel-independent)."""
        extractor = DualBranchExtractor(prototypes(rng), segment_length=6, d_model=8)
        extractor.eval()
        base = rng.standard_normal((1, 3, 4, 6))
        h_t_base, _ = extractor(ag.Tensor(base))
        changed = base.copy()
        changed[0, 2] += 10.0
        h_t_changed, _ = extractor(ag.Tensor(changed))
        assert np.allclose(h_t_base.data[0, 0], h_t_changed.data[0, 0])
        assert not np.allclose(h_t_base.data[0, 2], h_t_changed.data[0, 2])

    def test_entity_branch_mixes_entities(self, rng):
        """Entity features of entity i DO change when entity j changes."""
        extractor = DualBranchExtractor(prototypes(rng), segment_length=6, d_model=8)
        extractor.eval()
        base = rng.standard_normal((1, 3, 4, 6))
        _, h_e_base = extractor(ag.Tensor(base))
        changed = base.copy()
        changed[0, 2] += 10.0
        _, h_e_changed = extractor(ag.Tensor(changed))
        assert not np.allclose(h_e_base.data[0, 0], h_e_changed.data[0, 0])


class TestParallelFusion:
    def test_output_shape(self, rng):
        fusion = ParallelFusion(d_model=8, num_queries=3, horizon=12, n_segments=4)
        h = ag.Tensor(rng.standard_normal((2, 5, 4, 8)))
        assert fusion(h, h).shape == (2, 5, 12)

    def test_shape_mismatch_raises(self, rng):
        fusion = ParallelFusion(8, 3, 12, 4)
        a = ag.Tensor(rng.standard_normal((2, 5, 4, 8)))
        b = ag.Tensor(rng.standard_normal((2, 5, 3, 8)))
        with pytest.raises(ValueError, match="share"):
            fusion(a, b)

    def test_gate_interpolates_between_branches(self, rng):
        """Output lies between using only H_t and only H_e information:
        if both branches are identical the gate is irrelevant."""
        fusion = ParallelFusion(8, 3, 12, 4)
        h = ag.Tensor(rng.standard_normal((1, 2, 4, 8)))
        out_same = fusion(h, h).data
        assert np.isfinite(out_same).all()

    def test_queries_are_input_dependent(self, rng):
        """Algorithm 4 line 1: readout queries are generated from the
        input features, so different inputs yield different queries."""
        fusion = ParallelFusion(8, 3, 12, 4)
        a = ag.Tensor(rng.standard_normal((1, 2, 4, 8)))
        b = ag.Tensor(rng.standard_normal((1, 2, 4, 8)))
        q_a = fusion._make_queries(a, a).data
        q_b = fusion._make_queries(b, b).data
        assert q_a.shape == (1, 2, 3, 8)
        assert not np.allclose(q_a, q_b)

    def test_gradients_flow(self, rng):
        fusion = ParallelFusion(8, 2, 6, 3)
        h_t = ag.Tensor(rng.standard_normal((1, 2, 3, 8)), requires_grad=True)
        h_e = ag.Tensor(rng.standard_normal((1, 2, 3, 8)), requires_grad=True)
        fusion(h_t, h_e).sum().backward()
        assert h_t.grad is not None and h_e.grad is not None
        assert fusion.query_tokens_t.weight.grad is not None

    def test_linear_fusion_variant(self, rng):
        fusion = GatedLinearFusion(d_model=8, n_segments=4, horizon=12)
        h = ag.Tensor(rng.standard_normal((2, 5, 4, 8)))
        assert fusion(h, h).shape == (2, 5, 12)


class TestFOCUSConfig:
    def test_lookback_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            FOCUSConfig(lookback=100, horizon=24, num_entities=4, segment_length=12)

    def test_n_segments(self):
        cfg = FOCUSConfig(lookback=96, horizon=24, num_entities=4, segment_length=12)
        assert cfg.n_segments == 8


class TestFOCUSForecaster:
    def _config(self, **kwargs):
        defaults = dict(
            lookback=24,
            horizon=6,
            num_entities=3,
            segment_length=6,
            num_prototypes=4,
            d_model=8,
            num_readout=2,
        )
        defaults.update(kwargs)
        return FOCUSConfig(**defaults)

    def test_forward_shape(self, rng):
        model = FOCUSForecaster(self._config(), prototypes=prototypes(rng))
        out = model(ag.Tensor(rng.standard_normal((2, 24, 3))))
        assert out.shape == (2, 6, 3)

    def test_input_validation(self, rng):
        model = FOCUSForecaster(self._config(), prototypes=prototypes(rng))
        with pytest.raises(ValueError, match="expected"):
            model(ag.Tensor(rng.standard_normal((2, 25, 3))))
        with pytest.raises(ValueError, match="expected"):
            model(ag.Tensor(rng.standard_normal((2, 24, 4))))

    def test_prototype_shape_validated(self, rng):
        with pytest.raises(ValueError, match="prototypes shape"):
            FOCUSForecaster(self._config(), prototypes=rng.standard_normal((3, 6)))

    @pytest.mark.parametrize("shape", [(6,), (1, 6), (4, 1), (4, 7), (2, 4, 6)])
    def test_set_prototypes_rejects_wrong_shape(self, rng, shape):
        """A bank that merely broadcasts to (k, p) is not a bank."""
        model = FOCUSForecaster(self._config(), prototypes=prototypes(rng))
        before = model.prototype_values()
        with pytest.raises(ValueError, match="prototypes shape"):
            model.set_prototypes(np.ones(shape))
        assert np.array_equal(model.prototype_values(), before)
        assert model.prototype_version == 0

    @pytest.mark.parametrize("shape", [(1,), (5,), (1, 6), (4, 6)])
    def test_update_prototype_rejects_wrong_row_shape(self, rng, shape):
        model = FOCUSForecaster(self._config(), prototypes=prototypes(rng))
        before = model.prototype_values()
        with pytest.raises(ValueError, match="row shape"):
            model.update_prototype(0, np.full(shape, 5.0))
        assert np.array_equal(model.prototype_values(), before)
        assert model.prototype_version == 0

    @pytest.mark.parametrize("index", [-1, 4, 100])
    def test_update_prototype_rejects_index_outside_bank(self, rng, index):
        """-1 must not wrap to the last row."""
        model = FOCUSForecaster(self._config(), prototypes=prototypes(rng))
        before = model.prototype_values()
        with pytest.raises(IndexError, match="outside"):
            model.update_prototype(index, np.zeros(6))
        assert np.array_equal(model.prototype_values(), before)

    def test_prototype_writes_reach_both_mixers(self, rng):
        model = FOCUSForecaster(self._config(), prototypes=prototypes(rng))
        bank = rng.standard_normal((4, 6))
        model.set_prototypes(bank)
        model.update_prototype(np.int64(3), np.arange(6.0))
        bank[3] = np.arange(6.0)
        for mixer in (model.extractor.temporal_mixer, model.extractor.entity_mixer):
            assert np.array_equal(mixer.prototypes, bank)
        assert model.prototype_version == 2

    def test_mixers_share_one_bank_array(self, rng):
        """The entity mixer reuses the temporal mixer's distances, which
        is only valid while both hold one bank: no write may split them."""
        model = FOCUSForecaster(self._config(), prototypes=prototypes(rng))

        def shared(model):
            extractor = model.extractor
            return extractor.entity_mixer.prototypes is extractor.temporal_mixer.prototypes

        assert shared(model)
        model.set_prototypes(rng.standard_normal((4, 6)))
        model.update_prototype(1, np.arange(6.0))
        state = model.state_dict()
        model.load_state_dict(state)
        assert shared(model)
        assert shared(FOCUSForecaster.from_snapshot(model.snapshot()))
        bad = dict(state)
        bad["extractor.entity_mixer.prototypes__buffer"] = state[
            "extractor.temporal_mixer.prototypes__buffer"
        ] + 1.0
        with pytest.raises(ValueError, match="shared buffer"):
            model.load_state_dict(bad)
        model.to_dtype(np.float32)
        assert shared(model)

    def test_shared_distances_match_per_mixer_distances(self, rng):
        """One distance op for both mixers gives the bits of each mixer
        computing its own, eager and compiled."""
        model = FOCUSForecaster(self._config(n_layers=2), prototypes=prototypes(rng))
        model.eval()
        windows = rng.standard_normal((5, 24, 3))
        windows[1, :6, 0] = 1.0  # a flat segment
        shared = model.forecast_batch(windows)
        planned = model.forecast_batch(windows, engine="plan")
        model.extractor.mixer_kind = "own-distances"  # each mixer runs its own
        try:
            separate = model.forecast_batch(windows)
        finally:
            model.extractor.mixer_kind = "proto"
        assert np.array_equal(shared, separate)
        assert np.array_equal(planned, separate)

    def test_forward_without_prototypes_raises(self, rng):
        model = FOCUSForecaster(self._config())
        with pytest.raises(RuntimeError, match="prototypes"):
            model(ag.Tensor(rng.standard_normal((1, 24, 3))))

    def test_fit_prototypes_from_training_data(self, rng):
        model = FOCUSForecaster(self._config())
        clusterer = model.fit_prototypes(rng.standard_normal((300, 3)))
        assert clusterer.prototypes_.shape == (4, 6)
        out = model(ag.Tensor(rng.standard_normal((1, 24, 3))))
        assert out.shape == (1, 6, 3)

    def test_from_training_data_classmethod(self, rng):
        model = FOCUSForecaster.from_training_data(
            self._config(), rng.standard_normal((300, 3))
        )
        assert model._has_prototypes

    def test_fit_prototypes_config_mismatch_raises(self, rng):
        model = FOCUSForecaster(self._config())
        bad = ClusteringConfig(num_prototypes=9, segment_length=6)
        with pytest.raises(ValueError, match="disagrees"):
            model.fit_prototypes(rng.standard_normal((300, 3)), bad)

    def test_revin_disabled(self, rng):
        model = FOCUSForecaster(
            self._config(use_revin=False), prototypes=prototypes(rng)
        )
        assert model.revin is None
        assert model(ag.Tensor(rng.standard_normal((1, 24, 3)))).shape == (1, 6, 3)

    def test_training_reduces_loss(self, rng):
        from repro import optim

        cfg = self._config()
        model = FOCUSForecaster.from_training_data(cfg, rng.standard_normal((400, 3)))
        optimizer = optim.AdamW(model.parameters(), lr=3e-3)
        x = rng.standard_normal((16, 24, 3))
        y = x[:, -6:, :] * 0.5  # learnable mapping
        first = last = None
        for _ in range(30):
            pred = model(ag.Tensor(x))
            loss = ((pred - ag.Tensor(y)) ** 2.0).mean()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            last = loss.item()
            first = first if first is not None else last
        assert last < first * 0.8

    def test_state_dict_roundtrip_preserves_output(self, rng):
        cfg = self._config()
        model = FOCUSForecaster(cfg, prototypes=prototypes(rng))
        clone = FOCUSForecaster(cfg, prototypes=np.zeros((4, 6)))
        clone.load_state_dict(model.state_dict())
        x = ag.Tensor(rng.standard_normal((2, 24, 3)))
        model.eval(), clone.eval()
        assert np.allclose(model(x).data, clone(x).data)

    def test_dependency_matrix_exposed(self, rng):
        model = FOCUSForecaster(self._config(), prototypes=prototypes(rng))
        model(ag.Tensor(rng.standard_normal((2, 24, 3))))
        dep = model.dependency_matrix()
        # temporal mixer saw B*N sequences of l=4 segments
        assert dep.shape == (2 * 3, 4, 4)


class TestVariants:
    def _config(self):
        return FOCUSConfig(
            lookback=24,
            horizon=6,
            num_entities=3,
            segment_length=6,
            num_prototypes=4,
            d_model=8,
            num_readout=2,
        )

    @pytest.mark.parametrize("variant", ["focus", "attn", "lnr_fusion", "all_lnr"])
    def test_all_variants_forward(self, variant, rng):
        model = make_focus_variant(variant, self._config(), prototypes=prototypes(rng))
        out = model(ag.Tensor(rng.standard_normal((2, 24, 3))))
        assert out.shape == (2, 6, 3)

    def test_unknown_variant_raises(self, rng):
        with pytest.raises(ValueError, match="unknown variant"):
            make_focus_variant("bogus", self._config())

    def test_attn_variant_needs_no_prototypes(self, rng):
        model = make_focus_variant("attn", self._config())
        assert model(ag.Tensor(rng.standard_normal((1, 24, 3)))).shape == (1, 6, 3)

    def test_variant_architectures_differ(self, rng):
        from repro.core.extractor import _AttnBranchAdapter, _LinearBranchAdapter
        from repro.core.protoattn import ProtoAttn

        cfg = self._config()
        focus = make_focus_variant("focus", cfg, prototypes=prototypes(rng))
        attn = make_focus_variant("attn", cfg)
        lnr = make_focus_variant("all_lnr", cfg)
        assert isinstance(focus.extractor.temporal_mixer, ProtoAttn)
        assert isinstance(attn.extractor.temporal_mixer, _AttnBranchAdapter)
        assert isinstance(lnr.extractor.temporal_mixer, _LinearBranchAdapter)
        assert isinstance(lnr.fusion, GatedLinearFusion)
