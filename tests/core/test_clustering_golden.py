"""Golden fixture pinning clustering output bit for bit across commits.

``fit_many`` ≡ ``fit`` (``test_clustering.py``) cannot catch a kernel
rewrite that changes bits, because both sides share the kernels.  This
fixture can: ``goldens/clustering_banks.npz`` holds the banks, per-set
loss histories, iteration counts and k-means++ seed indices of

- ``sweep`` — a seeded, ragged 12-set sweep shaped like a full
  maintenance refit (k=8, p=12, 2112-4416 segments per set, ``tol=0``
  so every set runs all iterations);
- ``rec_only`` — one set under ``use_correlation=False``;
- ``float32`` — one set fitted under the float32 default dtype;
- ``degenerate`` — five distinct, exactly representable rows for eight
  prototypes: once all five are seeds every distance is exactly zero,
  so seeding takes its ``total <= 0`` branch, and duplicate seeds leave
  buckets empty for re-seeding.

The comparison is exact: the point is that the distance, seeding and
bucket-sum kernels may be rewritten for speed but must not change one
bit.  The fixture was written with numpy's bundled OpenBLAS; a host
whose BLAS rounds matrix products differently will miss it in the last
ulp, and the fix there is to regenerate it *from the commit that wrote
it* on that host, never to loosen the comparison::

    PYTHONPATH=src python -m pytest tests/core/test_clustering_golden.py --regen-goldens
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.autograd.tensor import default_dtype
from repro.core.clustering import ClusteringConfig, SegmentClusterer, _SegmentTerms

GOLDEN_PATH = Path(__file__).parent / "goldens" / "clustering_banks.npz"

P, K = 12, 8
CONFIG = ClusteringConfig(
    num_prototypes=K, segment_length=P, alpha=0.2, max_iters=15,
    refine_steps=3, seed=0, tol=0.0,
)
SWEEP_SIZES = np.linspace(2112, 4416, 12).astype(int)


def motif_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    """``(n, P)`` segments around eight motifs with random level and scale."""
    grid = np.arange(P)
    motifs = np.stack(
        [np.sin(2 * np.pi * f * grid / P + phase)
         for f, phase in zip((1, 1, 2, 2, 3, 0.5, 1.5, 4), rng.uniform(0, 6, 8))]
    )
    picks = rng.integers(len(motifs), size=n)
    scale = rng.uniform(0.5, 2.0, (n, 1))
    level = rng.normal(0.0, 1.0, (n, 1))
    return level + scale * motifs[picks] + 0.3 * rng.standard_normal((n, P))


def exact_rows() -> np.ndarray:
    """Five distinct rows whose distance to themselves is exactly zero.

    Each is a level plus a power-of-two multiple of four ``±1`` entries,
    so squares, dot products and the centred norm (``2a``) are all exact
    and every self-distance, Pearson term included, rounds to 0.
    """
    rows = np.zeros((5, P))
    for i in range(5):
        rows[i, [2 * i, 2 * i + 1, 2 * i + 2, 2 * i + 3]] = [1.0, -1.0, 1.0, -1.0]
        rows[i] = float(i) + 2.0 ** (i - 1) * rows[i]
    return rows


def scenario_sets() -> dict[str, tuple[ClusteringConfig, list[np.ndarray], object]]:
    """name -> (config, segment sets, default dtype of the fit)."""
    rng = np.random.default_rng(20261017)
    sweep = [motif_rows(rng, int(n)) for n in SWEEP_SIZES]
    rec_only = [motif_rows(rng, 2500)]
    float32 = [motif_rows(rng, 2200)]
    degenerate = [np.repeat(exact_rows(), [40, 10, 5, 3, 2], axis=0)]
    return {
        "sweep": (CONFIG, sweep, np.float64),
        "rec_only": (
            dataclasses.replace(CONFIG, use_correlation=False), rec_only, np.float64,
        ),
        "float32": (CONFIG, float32, np.float32),
        "degenerate": (CONFIG, degenerate, np.float64),
    }


def seed_indices(clusterer: SegmentClusterer, segments: np.ndarray) -> np.ndarray:
    """Rows k-means++ seeding picks, recovered from the seeded bank."""
    terms = _SegmentTerms(segments)
    seeded = clusterer._init_prototypes(
        terms, np.random.default_rng(clusterer.config.seed)
    )
    return np.array(
        [np.flatnonzero((segments == row).all(axis=1))[0] for row in seeded]
    )


def run_scenario() -> dict[str, np.ndarray]:
    outputs = {}
    for name, (config, sets, dtype) in scenario_sets().items():
        with default_dtype(dtype):
            clusterer = SegmentClusterer(config)
            segments = [clusterer._as_segments(data) for data in sets]
            banks = clusterer.fit_many(segments)
            outputs[f"{name}_banks"] = np.stack(banks)
            outputs[f"{name}_loss"] = np.array(clusterer.loss_histories_)
            outputs[f"{name}_iters"] = np.array(clusterer.n_iters_)
            outputs[f"{name}_seeds"] = np.stack(
                [seed_indices(clusterer, chopped) for chopped in segments]
            )
    return outputs


def test_banks_match_golden_bitwise(regen_goldens):
    actual = run_scenario()
    if regen_goldens:
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        np.savez_compressed(GOLDEN_PATH, **actual)
        pytest.skip(f"regenerated {GOLDEN_PATH.name}")
    with np.load(GOLDEN_PATH) as golden:
        assert sorted(golden.files) == sorted(actual)
        for key, value in actual.items():
            expected = golden[key]
            assert value.dtype == expected.dtype, key
            assert value.tobytes() == expected.tobytes(), f"{key} changed bits"


def test_scenario_covers_the_kernel_branches():
    sets = scenario_sets()
    sizes = [len(chopped) for chopped in sets["sweep"][1]]
    assert min(sizes) == 2112 and max(sizes) == 4416 and len(set(sizes)) == 12
    # Five distinct rows for eight prototypes: seeding exhausts the
    # distinct rows and must take the uniform-draw branch.
    config, (degenerate,), _ = sets["degenerate"]
    assert len(np.unique(degenerate, axis=0)) < K
    terms = _SegmentTerms(degenerate)
    distances = terms.distance(exact_rows(), config.effective_alpha)
    assert (distances.min(axis=1) == 0.0).all()
