"""Tests for the offline segment clustering phase (Sec. V / Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering import (
    ClusteringConfig,
    SegmentClusterer,
    _bucket_sums,
    _SegmentTerms,
    bucket_sums,
    composite_distance,
    pearson_rows,
)


def motif_segments(rng, n_per_motif=40, p=8, noise=0.05):
    """Segments drawn around three distinct motifs."""
    grid = np.linspace(0, 2 * np.pi, p)
    motifs = np.stack([np.sin(grid), np.cos(grid), np.linspace(-1, 1, p)])
    segments = []
    labels = []
    for j, motif in enumerate(motifs):
        block = motif + noise * rng.standard_normal((n_per_motif, p))
        segments.append(block)
        labels += [j] * n_per_motif
    return np.concatenate(segments), np.array(labels)


class TestPearsonRows:
    def test_matches_numpy_corrcoef(self, rng):
        seg = rng.standard_normal((5, 7))
        pro = rng.standard_normal((3, 7))
        out = pearson_rows(seg, pro)
        for i in range(5):
            for j in range(3):
                expected = np.corrcoef(seg[i], pro[j])[0, 1]
                assert out[i, j] == pytest.approx(expected, abs=1e-10)

    def test_self_correlation_is_one(self, rng):
        seg = rng.standard_normal((4, 6))
        assert np.allclose(np.diag(pearson_rows(seg, seg)), 1.0)

    def test_flat_segment_gets_zero(self, rng):
        seg = np.vstack([np.ones(5), rng.standard_normal(5)])
        out = pearson_rows(seg, rng.standard_normal((2, 5)))
        assert np.allclose(out[0], 0.0)

    def test_range_clipped(self, rng):
        seg = rng.standard_normal((10, 4))
        out = pearson_rows(seg, seg * 2.0 + 1.0)
        assert out.max() <= 1.0 and out.min() >= -1.0


class TestCompositeDistance:
    def test_alpha_zero_is_squared_euclidean(self, rng):
        seg = rng.standard_normal((6, 5))
        pro = rng.standard_normal((3, 5))
        out = composite_distance(seg, pro, alpha=0.0)
        expected = ((seg[:, None, :] - pro[None, :, :]) ** 2).sum(-1)
        assert np.allclose(out, expected, atol=1e-10)

    def test_correlation_term_separates_example2(self):
        """Paper Example 2: A={9,10,11}, B={7,10,13}, C={11,10,9}.

        Euclidean distance ties B and C relative to A, but correlation
        must prefer B (same trend) over C (opposite trend).
        """
        a = np.array([[9.0, 10.0, 11.0]])
        b = np.array([7.0, 10.0, 13.0])
        c = np.array([11.0, 10.0, 9.0])
        prototypes = np.stack([b, c])
        plain = composite_distance(a, prototypes, alpha=0.0)
        assert plain[0, 0] == pytest.approx(plain[0, 1])  # the tie
        composite = composite_distance(a, prototypes, alpha=1.0)
        assert composite[0, 0] < composite[0, 1]  # B wins with correlation

    def test_nonnegative_euclidean_part(self, rng):
        seg = rng.standard_normal((4, 3))
        assert (composite_distance(seg, seg, alpha=0.0) >= 0.0).all()


class TestSegmentClusterer:
    def test_recovers_planted_motifs(self, rng):
        segments, truth = motif_segments(rng)
        clusterer = SegmentClusterer(
            ClusteringConfig(num_prototypes=3, segment_length=8, seed=0)
        ).fit(segments)
        labels = clusterer.assign(segments)
        # Cluster labels are permutation-invariant: check purity.
        purity = 0
        for j in range(3):
            members = truth[labels == j]
            if len(members):
                purity += np.bincount(members, minlength=3).max()
        assert purity / len(truth) > 0.95

    def test_prototypes_close_to_motifs(self, rng):
        segments, _ = motif_segments(rng, noise=0.02)
        clusterer = SegmentClusterer(
            ClusteringConfig(num_prototypes=3, segment_length=8, seed=1)
        ).fit(segments)
        grid = np.linspace(0, 2 * np.pi, 8)
        motifs = np.stack([np.sin(grid), np.cos(grid), np.linspace(-1, 1, 8)])
        for motif in motifs:
            distances = np.linalg.norm(clusterer.prototypes_ - motif, axis=1)
            assert distances.min() < 0.25

    def test_accepts_2d_timeseries_input(self, rng):
        data = rng.standard_normal((120, 4))
        clusterer = SegmentClusterer(
            ClusteringConfig(num_prototypes=4, segment_length=10, seed=0)
        ).fit(data)
        assert clusterer.prototypes_.shape == (4, 10)

    def test_deterministic_given_seed(self, rng):
        segments, _ = motif_segments(rng)
        cfg = ClusteringConfig(num_prototypes=3, segment_length=8, seed=5)
        a = SegmentClusterer(cfg).fit(segments).prototypes_
        b = SegmentClusterer(cfg).fit(segments).prototypes_
        assert np.array_equal(a, b)

    def test_assignment_matrix_is_one_hot(self, rng):
        segments, _ = motif_segments(rng)
        clusterer = SegmentClusterer(
            ClusteringConfig(num_prototypes=3, segment_length=8, seed=0)
        ).fit(segments)
        matrix = clusterer.assignment_matrix(segments)
        assert matrix.shape == (len(segments), 3)
        assert np.allclose(matrix.sum(axis=1), 1.0)
        assert set(np.unique(matrix)) <= {0.0, 1.0}

    def test_no_empty_buckets_after_fit(self, rng):
        segments, _ = motif_segments(rng)
        clusterer = SegmentClusterer(
            ClusteringConfig(num_prototypes=8, segment_length=8, seed=0)
        ).fit(segments)
        labels = clusterer.assign(segments)
        assert len(np.unique(labels)) == 8

    def test_rec_only_mode_ignores_correlation(self, rng):
        """With use_correlation=False the composite alpha must be zero."""
        cfg = ClusteringConfig(num_prototypes=2, segment_length=4, alpha=0.9, use_correlation=False)
        assert cfg.effective_alpha == 0.0
        segments = rng.standard_normal((40, 4))
        clusterer = SegmentClusterer(cfg).fit(segments)
        labels = clusterer.assign(segments)
        expected = composite_distance(segments, clusterer.prototypes_, 0.0).argmin(axis=1)
        assert np.array_equal(labels, expected)

    def test_correlation_objective_changes_prototypes(self, rng):
        segments, _ = motif_segments(rng, noise=0.3)
        base = ClusteringConfig(num_prototypes=3, segment_length=8, seed=0)
        with_corr = SegmentClusterer(base).fit(segments).prototypes_
        rec_only = SegmentClusterer(
            ClusteringConfig(num_prototypes=3, segment_length=8, seed=0, use_correlation=False)
        ).fit(segments).prototypes_
        assert not np.allclose(with_corr, rec_only)

    def test_inertia_decreases_with_more_prototypes(self, rng):
        segments, _ = motif_segments(rng, noise=0.4)
        inertias = []
        for k in (1, 3, 8):
            clusterer = SegmentClusterer(
                ClusteringConfig(num_prototypes=k, segment_length=8, seed=0)
            ).fit(segments)
            inertias.append(clusterer.inertia(segments))
        assert inertias[0] > inertias[1] > inertias[2]

    def test_too_few_segments_raises(self, rng):
        with pytest.raises(ValueError, match="at least"):
            SegmentClusterer(
                ClusteringConfig(num_prototypes=10, segment_length=4)
            ).fit(rng.standard_normal((5, 4)))

    def test_unfitted_raises(self, rng):
        clusterer = SegmentClusterer(ClusteringConfig(num_prototypes=2, segment_length=4))
        with pytest.raises(RuntimeError, match="not fitted"):
            clusterer.assign(rng.standard_normal((3, 4)))

    def test_kwargs_override_config(self):
        clusterer = SegmentClusterer(num_prototypes=5, segment_length=6)
        assert clusterer.config.num_prototypes == 5
        merged = SegmentClusterer(ClusteringConfig(num_prototypes=2, segment_length=4), seed=9)
        assert merged.config.seed == 9 and merged.config.num_prototypes == 2

    def test_reconstruct_uses_prototypes(self, rng):
        segments, _ = motif_segments(rng)
        clusterer = SegmentClusterer(
            ClusteringConfig(num_prototypes=3, segment_length=8, seed=0)
        ).fit(segments)
        approx = clusterer.reconstruct(segments)
        labels = clusterer.assign(segments)
        assert np.allclose(approx, clusterer.prototypes_[labels])

    def test_reconstruct_match_moments(self, rng):
        """Fig. 11: prototype copies restored to segment mean/std."""
        segments, _ = motif_segments(rng)
        scaled = segments * 3.0 + 10.0
        clusterer = SegmentClusterer(
            ClusteringConfig(num_prototypes=3, segment_length=8, seed=0)
        ).fit(segments)
        approx = clusterer.reconstruct(scaled, match_moments=True)
        assert np.allclose(approx.mean(axis=1), scaled.mean(axis=1), atol=1e-9)
        assert np.allclose(approx.std(axis=1), scaled.std(axis=1), atol=1e-9)

    def test_refinement_reduces_loss(self, rng):
        segments, _ = motif_segments(rng, noise=0.5)
        clusterer = SegmentClusterer(
            ClusteringConfig(num_prototypes=3, segment_length=8, seed=0, max_iters=12)
        ).fit(segments)
        history = clusterer.loss_history_
        assert history[-1] < history[0]

    def test_invalid_refine_impl_rejected(self):
        with pytest.raises(ValueError, match="refine_impl"):
            ClusteringConfig(refine_impl="numba")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_prototypes", 0),
            ("max_iters", -1),
            ("refine_steps", -1),
            ("tol", -1e-9),
            ("lr", 0.0),
            ("lr", -0.05),
        ],
    )
    def test_invalid_config_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ClusteringConfig(**{field: value})

    def test_zero_iterations_allowed(self, rng):
        segments, _ = motif_segments(rng)
        clusterer = SegmentClusterer(
            ClusteringConfig(num_prototypes=3, segment_length=8, max_iters=0, refine_steps=0)
        ).fit(segments)
        assert clusterer.prototypes_.shape == (3, 8)
        assert clusterer.n_iter_ == 0 and clusterer.loss_history_ == []


class TestBucketSums:
    """``bucket_sums`` must equal ``np.add.at`` bit for bit."""

    @pytest.mark.parametrize("row_shape", [(), (7,), (3, 4)])
    def test_matches_add_at(self, rng, row_shape):
        k = 9
        labels = rng.integers(0, k - 3, size=500)  # the last 3 buckets stay empty
        rows = rng.standard_normal((500,) + row_shape) * 10.0 ** rng.integers(
            -8, 8, size=(500,) + row_shape
        )
        expected = np.zeros((k,) + row_shape)
        np.add.at(expected, labels, rows)
        sums = bucket_sums(labels, rows, k)
        assert sums.shape == expected.shape and sums.dtype == np.float64
        assert np.array_equal(sums, expected)
        assert not sums[k - 3 :].any()

    def test_float32_accumulates_in_float32(self, rng):
        labels = rng.integers(0, 4, size=200)
        rows = rng.standard_normal((200, 5)).astype(np.float32)
        expected = np.zeros((4, 5), dtype=np.float32)
        np.add.at(expected, labels, rows)
        sums = bucket_sums(labels, rows, 4)
        assert sums.dtype == np.float32 and np.array_equal(sums, expected)

    def test_no_rows(self):
        sums = bucket_sums(np.zeros(0, dtype=np.int64), np.zeros((0, 3)), 2)
        assert np.array_equal(sums, np.zeros((2, 3)))


class TestInPlaceKernels:
    """The in-place kernels equal the plain expressions bit for bit."""

    @staticmethod
    def plain_distance(segments, prototypes, alpha):
        """Eq. (13) as one expression with a temporary per step."""
        sq = (segments**2).sum(axis=1, keepdims=True)
        pro_sq = (prototypes**2).sum(axis=1)
        euclidean_sq = np.maximum(sq + pro_sq[None, :] - 2.0 * segments @ prototypes.T, 0.0)
        if alpha == 0.0:
            return euclidean_sq
        centred = segments - segments.mean(axis=1, keepdims=True)
        norms = np.linalg.norm(centred, axis=1, keepdims=True)
        pro = prototypes - prototypes.mean(axis=1, keepdims=True)
        pro_norm = np.linalg.norm(pro, axis=1, keepdims=True)
        denom = norms @ pro_norm.T
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = np.where(denom > 1e-12, (centred @ pro.T) / np.maximum(denom, 1e-12), 0.0)
        return euclidean_sq + alpha * (1.0 - np.clip(corr, -1.0, 1.0))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("alpha", [0.0, 0.2, 3.0])
    def test_distance_matches_plain_expression(self, rng, dtype, alpha):
        for n, k, p in [(1, 1, 4), (37, 3, 8), (500, 8, 12), (64, 20, 5)]:
            segments = (rng.standard_normal((n, p)) * 10.0).astype(dtype)
            segments[: n // 3] = 2.5  # flat rows: zero-variance branch
            prototypes = rng.standard_normal((k, p)).astype(dtype)
            prototypes[0] = -1.0
            if n > 5:
                segments[5, 2] = np.nan  # NaN rows stay NaN, as in the plain form
            got = _SegmentTerms(segments).distance(prototypes, alpha)
            expected = self.plain_distance(segments, prototypes, alpha)
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()

    def test_shared_index_sums_match_separate_calls(self, rng):
        labels = rng.integers(0, 6, size=300)
        first, second = rng.standard_normal((2, 300, 7))
        low = rng.standard_normal((300, 7)).astype(np.float32)
        shared = _bucket_sums(labels, [first, second, low], 6)
        for sums, rows in zip(shared, [first, second, low]):
            expected = bucket_sums(labels, rows, 6)
            assert sums.dtype == expected.dtype and np.array_equal(sums, expected)


def quadratic_seeding(terms, k, alpha, rng):
    """The original k-means++ seeding: recompute every chosen seed's
    distances at each step (the reference the running minimum matches)."""
    segments = terms.segments
    n = len(segments)
    chosen = [int(rng.integers(n))]
    for _ in range(k - 1):
        dists = np.maximum(terms.distance(segments[chosen], alpha).min(axis=1), 0.0)
        total = dists.sum()
        if total <= 0.0:
            chosen.append(int(rng.integers(n)))
            continue
        chosen.append(int(rng.choice(n, p=dists / total)))
    return segments[chosen].copy()


class RecordingRng:
    """A seeded generator that records every draw and its probabilities,
    so two seeding schemes can be compared on the distances they draw
    from, not only on the (ulp-insensitive) draws."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = []

    def integers(self, n):
        self.calls.append(("uniform", None))
        return self._rng.integers(n)

    def choice(self, n, p):
        self.calls.append(("weighted", p.tobytes()))
        return self._rng.choice(n, p=p)


def assert_same_seeding(config, segments, seed):
    terms = _SegmentTerms(segments)
    running, reference = RecordingRng(seed), RecordingRng(seed)
    got = SegmentClusterer(config)._init_prototypes(terms, running)
    expected = quadratic_seeding(terms, config.num_prototypes, config.effective_alpha, reference)
    assert got.tobytes() == expected.tobytes()
    assert running.calls == reference.calls


class TestSeeding:
    """Running-minimum k-means++ draws exactly the quadratic scheme's seeds.

    The equality rests on a BLAS detail: a 1-column distance call takes
    numpy's matrix-vector path and is not bit-equal to the same column
    of a >=2-column matrix product, while columns of 2- to k-column
    products agree.  Seeding therefore folds each new seed in as column
    0 of a 2-column ``[c, c]`` call; "simplifying" that to a 1-column
    call changes the draws and fails these tests.
    """

    CASES = [
        # (n, k, p)
        (1, 1, 4), (5, 1, 6), (2, 2, 3), (8, 8, 12), (9, 2, 8),
        (50, 3, 8), (300, 8, 12), (3000, 8, 12), (400, 16, 12), (120, 32, 6),
    ]

    @pytest.mark.parametrize("use_correlation", [True, False])
    @pytest.mark.parametrize("n,k,p", CASES)
    def test_matches_quadratic_seeding(self, n, k, p, use_correlation):
        config = ClusteringConfig(
            num_prototypes=k, segment_length=p, use_correlation=use_correlation
        )
        for seed in range(6):
            data = np.random.default_rng([n, k, seed])
            segments = data.standard_normal((n, p)) + data.standard_normal((n, 1))
            assert_same_seeding(config, segments, seed)

    @pytest.mark.parametrize("use_correlation", [True, False])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_identical_segments_take_the_uniform_branch(self, k, use_correlation):
        # Every term of this row is exact (integer squares, centred norm
        # 2), so all distances are exactly zero and ``total <= 0``.
        segments = np.tile([4.0, 2.0, 4.0, 2.0], (10, 1))
        config = ClusteringConfig(
            num_prototypes=k, segment_length=4, use_correlation=use_correlation
        )
        assert_same_seeding(config, segments, 3)
        rng = RecordingRng(3)
        SegmentClusterer(config)._init_prototypes(_SegmentTerms(segments), rng)
        assert [kind for kind, _ in rng.calls] == ["uniform"] * k

    @pytest.mark.parametrize("distinct,copies,k,p", [(3, 4, 6, 5), (4, 25, 8, 12), (2, 9, 5, 8)])
    def test_distinct_rows_exhausted_then_uniform(self, distinct, copies, k, p):
        # Fewer distinct rows than seeds: once all are chosen, whether
        # the remaining distances come out exactly zero (the uniform
        # branch) depends on the last ulp of each distance column.
        rows = np.random.default_rng(distinct).standard_normal((distinct, p))
        config = ClusteringConfig(num_prototypes=k, segment_length=p)
        for seed in range(10):
            assert_same_seeding(config, np.repeat(rows, copies, axis=0), seed)


class TestFitMany:
    """Every bank of a batched fit is bit-identical to fitting its set alone."""

    @staticmethod
    def assert_matches_fit(config, sets):
        batched = SegmentClusterer(config)
        banks = batched.fit_many(sets)
        assert len(banks) == len(sets)
        for i, data in enumerate(sets):
            alone = SegmentClusterer(config).fit(data)
            assert np.array_equal(banks[i], alone.prototypes_)
            assert batched.loss_histories_[i] == alone.loss_history_
            assert batched.n_iters_[i] == alone.n_iter_
        return batched

    @staticmethod
    def ragged_sets(rng, sizes=(120, 97, 64, 33), noise=0.05):
        segments, _ = motif_segments(rng, noise=noise)
        return [segments[rng.permutation(len(segments))[:n]] for n in sizes]

    def test_ragged_sets_stop_at_different_iterations(self, rng):
        config = ClusteringConfig(
            num_prototypes=4, segment_length=8, max_iters=25, refine_steps=30
        )
        assert config.tol == ClusteringConfig().tol
        batched = self.assert_matches_fit(config, self.ragged_sets(rng))
        # Some banks stop early and leave the batch while others go on.
        assert len(set(batched.n_iters_)) > 1
        assert min(batched.n_iters_) < config.max_iters

    @pytest.mark.parametrize("use_correlation", [True, False])
    @pytest.mark.parametrize("refine_impl", ["vectorized", "loop"])
    def test_matches_fit(self, rng, use_correlation, refine_impl):
        config = ClusteringConfig(
            num_prototypes=3,
            segment_length=8,
            max_iters=8,
            use_correlation=use_correlation,
            refine_impl=refine_impl,
        )
        self.assert_matches_fit(config, self.ragged_sets(rng, noise=0.3))

    def test_empty_bucket_reseed(self, rng, monkeypatch):
        # Three distinct rows for four prototypes: seeding must pick a
        # duplicate, so a bucket is empty and re-seeded in iteration 1.
        duplicated = np.repeat(rng.standard_normal((3, 6)), [10, 5, 5], axis=0)
        reseeds = []
        original = SegmentClusterer._fix_empty_buckets

        def counting(self, labels, *args):
            reseeds.append(int((np.bincount(labels, minlength=4) == 0).sum()))
            return original(self, labels, *args)

        monkeypatch.setattr(SegmentClusterer, "_fix_empty_buckets", counting)
        config = ClusteringConfig(num_prototypes=4, segment_length=6, max_iters=6)
        other = rng.standard_normal((41, 6))
        self.assert_matches_fit(config, [duplicated, other, duplicated[::-1]])
        assert any(reseeds)

    def test_fit_is_the_one_set_case(self, rng):
        (data,) = self.ragged_sets(rng, sizes=(80,))
        config = ClusteringConfig(num_prototypes=3, segment_length=8, max_iters=6)
        clusterer = SegmentClusterer(config)
        (bank,) = clusterer.fit_many([data])
        fitted = SegmentClusterer(config).fit(data)
        assert np.array_equal(bank, fitted.prototypes_)
        assert clusterer.prototypes_ is None  # fit_many leaves the fitted bank alone

    def test_too_few_segments_in_any_set_raises(self, rng):
        segments, _ = motif_segments(rng)
        with pytest.raises(ValueError, match="at least k"):
            SegmentClusterer(num_prototypes=3, segment_length=8).fit_many(
                [segments, segments[:2]]
            )


class TestSaveLoadRoundTrip:
    def test_non_default_config_survives(self, rng, tmp_path):
        """Every config field — including bools and strings — must round-trip.

        npz archives store everything as arrays; a naive reload turns
        ``use_correlation=False`` into ``np.bool_`` (or worse, a truthy
        0-d array), silently re-enabling the correlation term.
        """
        segments, _ = motif_segments(rng)
        config = ClusteringConfig(
            num_prototypes=3,
            segment_length=8,
            alpha=0.7,
            max_iters=6,
            refine_steps=3,
            lr=0.02,
            use_correlation=False,
            seed=3,
            refine_impl="loop",
        )
        clusterer = SegmentClusterer(config).fit(segments)
        path = str(tmp_path / "clusterer.npz")
        clusterer.save(path)
        restored = SegmentClusterer.load(path)
        for field_name in (
            "num_prototypes",
            "segment_length",
            "alpha",
            "max_iters",
            "refine_steps",
            "lr",
            "use_correlation",
            "seed",
            "refine_impl",
        ):
            original = getattr(config, field_name)
            value = getattr(restored.config, field_name)
            assert value == original, field_name
            assert type(value) is type(original), field_name
        assert restored.config.effective_alpha == 0.0

    def test_assignments_identical_after_reload(self, rng, tmp_path):
        segments, _ = motif_segments(rng)
        clusterer = SegmentClusterer(
            ClusteringConfig(num_prototypes=3, segment_length=8, seed=0)
        ).fit(segments)
        path = str(tmp_path / "clusterer.npz")
        clusterer.save(path)
        restored = SegmentClusterer.load(path)
        assert np.array_equal(restored.prototypes_, clusterer.prototypes_)
        assert np.array_equal(restored.assign(segments), clusterer.assign(segments))
        assert restored.n_iter_ == clusterer.n_iter_
        assert restored.loss_history_ == pytest.approx(clusterer.loss_history_)

    def test_archive_without_newer_fields_loads_defaults(self, rng, tmp_path):
        """Archives written before a config field existed must still load."""
        segments, _ = motif_segments(rng)
        clusterer = SegmentClusterer(
            ClusteringConfig(num_prototypes=3, segment_length=8, seed=0)
        ).fit(segments)
        path = str(tmp_path / "clusterer.npz")
        clusterer.save(path)
        with np.load(path) as archive:
            entries = {name: archive[name] for name in archive.files}
        del entries["config_refine_impl"]
        old_path = str(tmp_path / "old_format.npz")
        np.savez_compressed(old_path, **entries)
        restored = SegmentClusterer.load(old_path)
        assert restored.config.refine_impl == "vectorized"
        assert np.array_equal(restored.prototypes_, clusterer.prototypes_)


class TestRefineEquivalence:
    """The batched (k, p) refinement must match the per-prototype loop."""

    @pytest.mark.parametrize("use_correlation", [True, False])
    def test_full_fit_matches_loop(self, rng, use_correlation):
        segments, _ = motif_segments(rng, noise=0.3)
        base = dict(
            num_prototypes=4,
            segment_length=8,
            seed=0,
            max_iters=10,
            use_correlation=use_correlation,
        )
        fast = SegmentClusterer(
            ClusteringConfig(refine_impl="vectorized", **base)
        ).fit(segments)
        slow = SegmentClusterer(ClusteringConfig(refine_impl="loop", **base)).fit(
            segments
        )
        assert np.allclose(fast.prototypes_, slow.prototypes_, atol=1e-8)
        assert np.array_equal(fast.assign(segments), slow.assign(segments))
        assert fast.loss_history_ == pytest.approx(slow.loss_history_, abs=1e-8)

    def test_single_refine_call_matches_loop(self, rng):
        """One refinement call, including empty buckets (bucket 3 unused)."""
        segments = rng.standard_normal((30, 6))
        prototypes = rng.standard_normal((4, 6))
        labels = rng.integers(0, 3, size=30)  # bucket 3 stays empty
        config = ClusteringConfig(num_prototypes=4, segment_length=6, refine_steps=5)
        clusterer = SegmentClusterer(config)
        targets = clusterer._bucket_targets(_SegmentTerms(segments), labels, prototypes)
        (fast,), (fast_loss,) = clusterer._refine_batched([prototypes.copy()], [targets])
        slow, slow_loss = clusterer._refine_prototypes_loop(
            segments, labels, prototypes.copy()
        )
        assert np.allclose(fast, slow, atol=1e-8)
        assert fast_loss == pytest.approx(slow_loss, abs=1e-8)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=20, max_value=80),
    k=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=10),
)
def test_property_every_segment_assigned_to_nearest(n, k, seed):
    rng = np.random.default_rng(seed)
    segments = rng.standard_normal((n, 6))
    clusterer = SegmentClusterer(
        ClusteringConfig(num_prototypes=k, segment_length=6, seed=seed, max_iters=8)
    ).fit(segments)
    labels = clusterer.assign(segments)
    dists = composite_distance(segments, clusterer.prototypes_, clusterer.config.effective_alpha)
    assert np.array_equal(labels, dists.argmin(axis=1))
