"""Offline segment clustering (paper Sec. V, Algorithm 1).

Segments are assigned to prototypes under the composite distance of
Eq. (6)/(13):

    Dis(P, c) = ||P - c||^2 + alpha * (1 - corr(P, c))

and prototypes are refined with AdamW on the combined objective of
Eq. (10):

    L = L_rec + alpha * L_corr
      = sum_j ||c_j - mean(B_j)||^2
        - alpha * sum_j (1/|B_j|) sum_{P in B_j} corr(P, c_j)

The ``use_correlation=False`` switch realizes the paper's *Rec Only*
ablation (Fig. 8): plain Euclidean k-means-style clustering.

:meth:`SegmentClusterer.fit_many` runs Algorithm 1 on several
independent segment sets at once (the maintenance worker's per-phase
refit sweep); :meth:`SegmentClusterer.fit` is its one-set case, so there
is a single fit loop.  Each bank of a batched fit is bit-identical to
fitting its set alone.

The per-iteration kernels (in-place distances, running-minimum
k-means++ seeding, one shared bucket-sum index per bank iteration) are
written for speed under one rule: no output bit may change.  A golden
fixture (``tests/core/goldens/clustering_banks.npz``) pins banks, loss
histories and seed draws across commits.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import autograd as ag
from repro.autograd import Tensor
from repro.autograd.select_ops import declare, temporary
from repro.autograd.tensor import get_default_dtype
from repro.data.segments import segment_series
from repro.optim import AdamW


def bucket_sums(labels: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """Sum of ``rows`` per bucket ``labels``, shape ``(k,) + rows.shape[1:]``.

    Equal bit for bit to ``np.add.at`` into zeros of ``rows.dtype``:
    ``np.bincount`` adds each bucket's entries in row order, as
    ``np.add.at`` does, only faster.  ``bincount`` accumulates in float64,
    so other dtypes keep ``np.add.at``.
    """
    (sums,) = _bucket_sums(labels, [rows], k)
    return sums


def _bucket_sums(labels: np.ndarray, row_sets: list, k: int) -> list[np.ndarray]:
    """:func:`bucket_sums` of several same-shaped row arrays under one
    ``labels``, building the ``labels * width + column`` bincount index
    once for all of them.

    Sort + ``np.add.reduceat`` is *not* bit-equal to ``np.add.at`` (it
    sums in a different order), and a one-hot matmul or stacked
    ``(B, n, k)`` arrays cost memory, so the index is the shared part.
    """
    row_sets = [np.asarray(rows) for rows in row_sets]
    out_shape = (k,) + row_sets[0].shape[1:]
    sums = []
    index = None
    for rows in row_sets:
        if rows.dtype != np.float64:
            bucket = np.zeros(out_shape, dtype=rows.dtype)
            np.add.at(bucket, labels, rows)
            sums.append(bucket)
            continue
        width = int(np.prod(rows.shape[1:]))
        if index is None:
            index = (np.asarray(labels)[:, None] * width + np.arange(width)).ravel()
        sums.append(
            np.bincount(index, weights=rows.reshape(-1), minlength=k * width)
            .reshape(out_shape)
        )
    return sums


def _centre(segments: np.ndarray, work=None) -> tuple[np.ndarray, np.ndarray]:
    """Row-centred segments and their ``(n, 1)`` L2 norms.

    The ufuncs ``segments.mean(axis=1, keepdims=True)`` and
    ``np.linalg.norm(centred, axis=1, keepdims=True)`` run, in the same
    order, so both are bit-identical to those calls; ``work`` (see
    :func:`composite_distance`) supplies their buffers.
    """
    n, p = segments.shape
    dtype = segments.dtype
    mean = np.add.reduce(
        segments, axis=1, keepdims=True, out=temporary(work, "mean", (n, 1), dtype)
    )
    np.true_divide(mean, p, out=mean)
    centred = np.subtract(segments, mean, out=temporary(work, "centred", (n, p), dtype))
    square = np.multiply(centred, centred, out=temporary(work, "square", (n, p), dtype))
    norms = np.add.reduce(square, axis=1, keepdims=True, out=mean)
    return centred, np.sqrt(norms, out=norms)


def _pearson(
    centred: np.ndarray,
    norms: np.ndarray,
    prototypes: np.ndarray,
    out: np.ndarray | None = None,
    work=None,
) -> np.ndarray:
    """Clipped Pearson correlation, ``(n, k)``, written into ``out`` if given.

    Bit-identical to ``clip(where(denom > 1e-12, numer / max(denom,
    1e-12), 0), -1, 1)``, computed in place: the rank-1 denominator
    ``norms @ pro_norm^T`` is the exact product ``norms * pro_norm^T``.
    """
    pro, pro_norm = _centre(prototypes)
    corr = np.matmul(centred, pro.T, out=out)
    denom = np.multiply(
        norms, pro_norm.T, out=temporary(work, "denom", corr.shape, corr.dtype)
    )
    flat = np.greater(denom, 1e-12, out=temporary(work, "flat", corr.shape, bool))
    np.logical_not(flat, out=flat)
    np.maximum(denom, 1e-12, out=denom)
    with np.errstate(invalid="ignore", divide="ignore"):
        corr /= denom
    corr[flat] = 0.0
    # np.clip(corr, -1, 1), NaN included, without its dispatch wrapper.
    np.maximum(corr, -1.0, out=corr)
    return np.minimum(corr, 1.0, out=corr)


def pearson_rows(segments: np.ndarray, prototypes: np.ndarray) -> np.ndarray:
    """Pairwise Pearson correlation of ``(n, p)`` rows vs ``(k, p)`` rows.

    Zero-variance rows get correlation 0 against everything (a flat
    segment is shape-neutral).
    """
    return _pearson(*_centre(segments), prototypes)


class _SegmentTerms:
    """The segment side of Eq. (13) for one fixed ``(n, p)`` segment set.

    A fit scores the same segments against a moving bank on every
    iteration.  The squared norms, centred rows and their norms depend
    on the segments alone, so they are computed once (the centred terms
    on first use) and every distance stays bit-identical to
    :func:`composite_distance`.  Unit rows are derived on demand rather
    than kept: a batched fit holds every set's terms at once, and one
    more ``(n, p)`` array per set showed up in the worker's peak RSS.
    ``work`` (see :func:`composite_distance`) supplies the buffers.
    """

    def __init__(self, segments: np.ndarray, work=None):
        self.segments = segments
        self.work = work
        n, p = segments.shape
        square = np.multiply(
            segments, segments, out=temporary(work, "square", (n, p), segments.dtype)
        )
        self.sq = np.add.reduce(
            square, axis=1, keepdims=True, out=temporary(work, "sq", (n, 1), segments.dtype)
        )
        self._centred: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def centred(self) -> tuple[np.ndarray, np.ndarray]:
        if self._centred is None:
            self._centred = _centre(self.segments, self.work)
        return self._centred

    def unit(self) -> np.ndarray:
        """Centred rows scaled to unit norm (flat rows stay zero)."""
        centred, norms = self.centred
        return centred / np.where(norms < 1e-12, 1.0, norms)

    def distance(
        self, prototypes: np.ndarray, alpha: float, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Eq. (13) of every segment vs every prototype, ``(n, k)``.

        The ufuncs of the plain expression
        ``max(sq + pro_sq - (2 S) @ C^T, 0) + alpha * (1 - corr)``
        run in the same order, but write into two ``(n, k)`` buffers
        (``out`` and a temporary) instead of allocating one per step, so
        every entry is bit-identical to it.  ``(2 S) @ C^T`` equals
        ``2 (S @ C^T)`` exactly: doubling is exact, also inside the
        products and sums.
        """
        shape = (len(self.segments), len(prototypes))
        pro_sq = np.add.reduce(np.multiply(prototypes, prototypes), axis=1)
        cross = np.matmul(
            self.segments,
            prototypes.T,
            out=temporary(self.work, "cross", shape, self.segments.dtype),
        )
        cross *= 2.0
        distance = np.add(self.sq, pro_sq[None, :], out=out)
        distance -= cross
        np.maximum(distance, 0.0, out=distance)
        if alpha == 0.0:
            return distance
        corr = _pearson(*self.centred, prototypes, out=cross, work=self.work)
        np.subtract(1.0, corr, out=corr)
        corr *= alpha
        distance += corr
        return distance


def composite_distance(
    segments: np.ndarray,
    prototypes: np.ndarray,
    alpha: float,
    out: np.ndarray | None = None,
    work=None,
) -> np.ndarray:
    """Eq. (13): squared Euclidean plus ``alpha * (1 - Pearson)``.

    ``(..., p)`` segments against ``(k, p)`` prototypes give ``(..., k)``
    distances.  This is also the forward of :data:`distance_op`, the
    traced op ProtoAttn assigns with: a compiled plan passes an arena
    buffer as ``out`` and, as ``work``, pooled buffers for every
    temporary; eager callers pass neither.
    """
    flat = segments.reshape(-1, segments.shape[-1])
    terms = _SegmentTerms(flat, work)
    if out is None:
        distance = terms.distance(prototypes, alpha)
        return distance.reshape(*segments.shape[:-1], len(prototypes))
    terms.distance(prototypes, alpha, out.reshape(len(flat), -1))
    return out


#: :func:`composite_distance` as a traced, non-differentiable op.
distance_op = declare("composite_distance", composite_distance)


def _pearson_tensor(segments: np.ndarray, prototype: Tensor) -> Tensor:
    """Differentiable Pearson correlation of each segment row vs one prototype."""
    seg = segments - segments.mean(axis=1, keepdims=True)  # (n, p) constant
    seg_norm = np.linalg.norm(seg, axis=1)
    seg_norm = np.where(seg_norm < 1e-12, 1.0, seg_norm)
    centered = prototype - prototype.mean()
    norm = ag.sqrt((centered * centered).sum() + 1e-12)
    projections = ag.matmul(Tensor(seg / seg_norm[:, None]), centered)
    return projections / norm  # (n,)


@dataclasses.dataclass
class ClusteringConfig:
    """Hyperparameters of the offline phase.

    ``alpha=0.2`` is the paper's setting (Sec. VIII-A);
    ``use_correlation=False`` gives the *Rec Only* ablation.
    ``refine_impl`` selects the prototype-refinement kernel:
    ``"vectorized"`` (default) optimizes every bank being fitted as one
    batched parameter tensor, ``"loop"`` keeps the original
    one-Tensor-per-prototype reference implementation (bank by bank) for
    equivalence testing and benchmarking.
    """

    num_prototypes: int = 8
    segment_length: int = 12
    alpha: float = 0.2
    max_iters: int = 25
    refine_steps: int = 5
    lr: float = 0.05
    weight_decay: float = 0.0
    tol: float = 1e-6
    use_correlation: bool = True
    seed: int = 0
    refine_impl: str = "vectorized"

    def __post_init__(self):
        if self.refine_impl not in ("vectorized", "loop"):
            raise ValueError(
                f"refine_impl must be 'vectorized' or 'loop', got {self.refine_impl!r}"
            )
        if self.num_prototypes < 1:
            raise ValueError(f"num_prototypes must be >= 1, got {self.num_prototypes}")
        if self.max_iters < 0 or self.refine_steps < 0:
            raise ValueError(
                "max_iters and refine_steps must be >= 0, got "
                f"{self.max_iters} and {self.refine_steps}"
            )
        if self.tol < 0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")
        if self.lr <= 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")

    @property
    def effective_alpha(self) -> float:
        return self.alpha if self.use_correlation else 0.0


@dataclasses.dataclass
class _Bank:
    """Fit state of one segment set inside :meth:`SegmentClusterer.fit_many`."""

    terms: _SegmentTerms
    rng: np.random.Generator
    prototypes: np.ndarray
    labels: np.ndarray | None = None
    previous_labels: np.ndarray | None = None
    loss_history: list[float] = dataclasses.field(default_factory=list)
    n_iter: int = 0


class SegmentClusterer:
    """Discovers representative segment patterns (prototypes) offline.

    Usage::

        clusterer = SegmentClusterer(ClusteringConfig(num_prototypes=8,
                                                      segment_length=12))
        clusterer.fit(train_data)           # (T, N) or (n_segments, p)
        labels = clusterer.assign(segments) # nearest-prototype indices
        prototypes = clusterer.prototypes_  # (k, p)

        banks = clusterer.fit_many([set_a, set_b])  # one bank per set
    """

    def __init__(self, config: ClusteringConfig | None = None, **kwargs):
        if config is None:
            config = ClusteringConfig(**kwargs)
        elif kwargs:
            config = dataclasses.replace(config, **kwargs)
        self.config = config
        self.prototypes_: np.ndarray | None = None
        self.loss_history_: list[float] = []
        self.n_iter_: int = 0
        # Per-set results of the last fit_many call.
        self.loss_histories_: list[list[float]] = []
        self.n_iters_: list[int] = []

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def _as_segments(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=get_default_dtype())
        p = self.config.segment_length
        if data.ndim == 2 and data.shape[1] == p:
            return data
        return segment_series(data, p)

    def _init_prototypes(self, terms: _SegmentTerms, rng: np.random.Generator) -> np.ndarray:
        """k-means++-style seeding under the composite distance.

        Keeps each segment's distance to its nearest chosen seed as a
        running minimum, folding in one new seed per step, instead of
        recomputing distances to every seed chosen so far.  The draws are
        bit-identical to that quadratic scheme only because of how the
        distance columns are computed: a *1-column* bank takes BLAS's
        matrix-vector path, whose column is not bit-equal to the same
        column of a matrix-matrix product with two or more columns,
        while columns of 2- to k-column products all agree.  So step 0
        keeps the 1-column call of the first step, step 1 computes both
        seeds in one 2-column call, and every later seed ``c`` is
        computed as column 0 of the 2-column bank ``[c, c]``.  Do not
        replace those calls with 1-column ones.
        """
        k = self.config.num_prototypes
        segments = terms.segments
        n = segments.shape[0]
        if n < k:
            raise ValueError(f"need at least k={k} segments, got {n}")
        alpha = self.config.effective_alpha
        chosen = [int(rng.integers(n))]
        nearest = None
        for step in range(k - 1):
            if step < 2:
                nearest = terms.distance(segments[chosen], alpha).min(axis=1)
            else:
                newest = terms.distance(segments[[chosen[-1]] * 2], alpha)[:, 0]
                np.minimum(nearest, newest, out=nearest)
            np.maximum(nearest, 0.0, out=nearest)
            total = nearest.sum()
            if total <= 0.0:
                chosen.append(int(rng.integers(n)))
                continue
            chosen.append(int(rng.choice(n, p=nearest / total)))
        return segments[chosen].copy()

    def fit(self, data: np.ndarray) -> "SegmentClusterer":
        """Run Algorithm 1 until assignment stability or ``max_iters``."""
        (self.prototypes_,) = self.fit_many([data])
        self.loss_history_ = self.loss_histories_[0]
        self.n_iter_ = self.n_iters_[0]
        return self

    def fit_many(self, segment_sets: list[np.ndarray]) -> list[np.ndarray]:
        """Run Algorithm 1 on each set independently; one ``(k, p)`` bank per set.

        Assignment and empty-bucket repair run bank by bank, each bank
        with its own ``seed``-initialised rng, on segment terms computed
        once per set.  Refinement runs once per iteration for all banks
        still fitting (see :meth:`_refine_batched`).  A bank that meets
        the stopping rule leaves the batch; the others go on.  Every bank
        is bit-identical to ``fit`` on its set alone.  Per-set loss
        histories and iteration counts land in ``loss_histories_`` and
        ``n_iters_``; ``prototypes_`` is left as it was.
        """
        cfg = self.config
        alpha = cfg.effective_alpha
        banks = []
        for data in segment_sets:
            terms = _SegmentTerms(self._as_segments(data))
            rng = np.random.default_rng(cfg.seed)
            banks.append(_Bank(terms, rng, self._init_prototypes(terms, rng)))

        active = banks
        for iteration in range(cfg.max_iters):
            if not active:
                break
            for bank in active:
                distances = bank.terms.distance(bank.prototypes, alpha)
                bank.labels = distances.argmin(axis=1)
                self._fix_empty_buckets(
                    bank.labels, distances, bank.terms, bank.prototypes, bank.rng
                )
            refined, losses = self._refine_banks(active)
            still_fitting = []
            for bank, prototypes, loss in zip(active, refined, losses):
                bank.prototypes = prototypes
                bank.loss_history.append(loss)
                bank.n_iter = iteration + 1
                if not self._converged(bank):
                    bank.previous_labels = bank.labels
                    still_fitting.append(bank)
            active = still_fitting

        self.loss_histories_ = [bank.loss_history for bank in banks]
        self.n_iters_ = [bank.n_iter for bank in banks]
        return [bank.prototypes for bank in banks]

    def _converged(self, bank: _Bank) -> bool:
        """Labels unchanged since the last iteration and loss within ``tol``."""
        history = bank.loss_history
        return (
            bank.previous_labels is not None
            and np.array_equal(bank.labels, bank.previous_labels)
            and len(history) >= 2
            and abs(history[-2] - history[-1]) < self.config.tol
        )

    def _fix_empty_buckets(
        self,
        labels: np.ndarray,
        distances: np.ndarray,
        terms: _SegmentTerms,
        prototypes: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """Re-seed any empty prototype at the segment farthest from its own.

        ``distances`` is the ``(n, k)`` matrix ``labels`` was taken from.
        """
        cfg = self.config
        counts = np.bincount(labels, minlength=cfg.num_prototypes)
        empty = np.where(counts == 0)[0]
        if not len(empty):
            return
        # Re-seeding prototype j only changes the own-prototype distance
        # of the segment moved into bucket j (nothing was assigned to j
        # before), so the remaining entries stay valid and are patched
        # incrementally.
        segments = terms.segments
        own = distances[np.arange(len(labels)), labels]
        for j in empty:
            worst = int(own.argmax())
            prototypes[j] = segments[worst] + 1e-6 * rng.standard_normal(
                segments.shape[1]
            )
            labels[worst] = j
            own[worst] = composite_distance(
                segments[worst : worst + 1], prototypes[j : j + 1], cfg.effective_alpha
            )[0, 0]

    def _refine_banks(self, banks: list[_Bank]) -> tuple[list[np.ndarray], list[float]]:
        """Gradient refinement of Eq. (10) with AdamW (paper Sec. V).

        ``"loop"`` refines bank by bank through the reference kernel.
        """
        if self.config.refine_impl == "loop":
            refined = [
                self._refine_prototypes_loop(bank.terms.segments, bank.labels, bank.prototypes)
                for bank in banks
            ]
            return [prototypes for prototypes, _ in refined], [loss for _, loss in refined]
        return self._refine_batched(
            [bank.prototypes for bank in banks],
            [self._bucket_targets(bank.terms, bank.labels, bank.prototypes) for bank in banks],
        )

    def _bucket_targets(
        self, terms: _SegmentTerms, labels: np.ndarray, prototypes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
        """Per-bucket means, mean unit rows and occupancy of one bank.

        The Pearson term of Eq. (10) is linear in the (fixed) segments, so
        each bucket's mean correlation collapses to a dot product between
        the prototype and the mean of the bucket's unit-normalized centred
        segments, computed here once per refinement call.  Both bucket
        sums share one bincount index (see :func:`_bucket_sums`).
        """
        cfg = self.config
        k = cfg.num_prototypes
        segments = terms.segments
        counts = np.bincount(labels, minlength=k).astype(segments.dtype)
        occupied = counts > 0
        divisor = np.maximum(counts, 1.0)[:, None]
        # Empty buckets are anchored to their incoming prototype (the
        # reconstruction term then has zero initial gradient), exactly as
        # the reference implementation does.
        rows = [segments, terms.unit()] if cfg.use_correlation else [segments]
        sums = _bucket_sums(labels, rows, k)
        means = np.where(occupied[:, None], sums[0] / divisor, prototypes)
        unit_means = sums[1] / divisor if cfg.use_correlation else None
        return means, unit_means, occupied

    def _refine_batched(
        self, prototypes: list[np.ndarray], targets: list[tuple]
    ) -> tuple[list[np.ndarray], list[float]]:
        """AdamW on all banks at once: one ``(B·k, p)`` parameter tensor.

        Every op is row-wise over ``p`` or elementwise, and each bank's
        loss is summed over its own block, so batching changes no bank's
        gradients, loss or AdamW trajectory: each bank is bit-identical
        to refining it alone.  One small autograd graph per step serves
        all ``B`` banks instead of one graph per bank.
        """
        cfg = self.config
        num_banks, k = len(prototypes), cfg.num_prototypes
        params = Tensor(np.concatenate(prototypes), requires_grad=True)
        means = Tensor(np.concatenate([means for means, _, _ in targets]))
        optimizer = AdamW([params], lr=cfg.lr, weight_decay=cfg.weight_decay)
        if cfg.use_correlation:
            unit_means = Tensor(np.concatenate([unit for _, unit, _ in targets]))
            corr_mask = Tensor(
                np.concatenate([occupied for _, _, occupied in targets]).astype(
                    params.data.dtype
                )
            )
        seed = np.ones(num_banks, dtype=params.data.dtype)

        losses = np.zeros(num_banks)
        for _ in range(cfg.refine_steps):
            diff = params - means
            loss = (diff * diff).reshape(num_banks, -1).sum(axis=1)
            if cfg.use_correlation:
                centered = params - params.mean(axis=1, keepdims=True)
                norm = ag.sqrt((centered * centered).sum(axis=1) + 1e-12)
                corr = (unit_means * centered).sum(axis=1) / norm  # (B·k,)
                corr_sum = (corr * corr_mask).reshape(num_banks, k).sum(axis=1)
                loss = loss + corr_sum * (-cfg.alpha)
            optimizer.zero_grad()
            loss.backward(seed)
            optimizer.step()
            losses = loss.data
        refined = params.data.reshape(num_banks, k, -1)
        return [bank.copy() for bank in refined], [float(value) for value in losses]

    def _refine_prototypes_loop(
        self, segments: np.ndarray, labels: np.ndarray, prototypes: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Reference implementation: one Tensor per prototype, looped in
        Python.  Kept for equivalence tests and the hot-path benchmark."""
        cfg = self.config
        proto_params = [Tensor(prototypes[j].copy(), requires_grad=True) for j in range(cfg.num_prototypes)]
        optimizer = AdamW(proto_params, lr=cfg.lr, weight_decay=cfg.weight_decay)
        bucket_segments = [segments[labels == j] for j in range(cfg.num_prototypes)]
        bucket_means = [
            bucket.mean(axis=0) if len(bucket) else prototypes[j]
            for j, bucket in enumerate(bucket_segments)
        ]

        final_loss = 0.0
        for _ in range(cfg.refine_steps):
            loss_terms = []
            for j, param in enumerate(proto_params):
                diff = param - Tensor(bucket_means[j])
                rec = (diff * diff).sum()
                loss_terms.append(rec)
                if cfg.use_correlation and len(bucket_segments[j]):
                    corr = _pearson_tensor(bucket_segments[j], param).mean()
                    loss_terms.append(corr * (-cfg.alpha))
            loss = loss_terms[0]
            for term in loss_terms[1:]:
                loss = loss + term
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            final_loss = loss.item()
        refined = np.stack([param.data for param in proto_params])
        return refined, final_loss

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def _check_fitted(self) -> None:
        if self.prototypes_ is None:
            raise RuntimeError("clusterer is not fitted; call fit() first")

    def assign(self, segments: np.ndarray) -> np.ndarray:
        """Nearest-prototype index per segment, Eq. (6)."""
        self._check_fitted()
        segments = self._as_segments(segments)
        return composite_distance(
            segments, self.prototypes_, self.config.effective_alpha
        ).argmin(axis=1)

    def assignment_matrix(self, segments: np.ndarray) -> np.ndarray:
        """One-hot assignment matrix ``A`` of Sec. VI-A, shape ``(n, k)``."""
        labels = self.assign(segments)
        matrix = np.zeros((len(labels), self.config.num_prototypes))
        matrix[np.arange(len(labels)), labels] = 1.0
        return matrix

    def inertia(self, segments: np.ndarray) -> float:
        """Mean composite distance of segments to their prototypes."""
        self._check_fitted()
        segments = self._as_segments(segments)
        dists = composite_distance(segments, self.prototypes_, self.config.effective_alpha)
        return float(dists.min(axis=1).mean())

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Serialize prototypes + config to a compressed npz archive."""
        self._check_fitted()
        np.savez_compressed(
            path,
            prototypes=self.prototypes_,
            loss_history=np.asarray(self.loss_history_),
            n_iter=self.n_iter_,
            **{
                f"config_{field.name}": np.asarray(getattr(self.config, field.name))
                for field in dataclasses.fields(ClusteringConfig)
            },
        )

    @classmethod
    def load(cls, path: str) -> "SegmentClusterer":
        """Restore a fitted clusterer saved with :meth:`save`."""
        with np.load(path) as archive:
            defaults = ClusteringConfig()
            kwargs = {
                field.name: type(getattr(defaults, field.name))(
                    archive[f"config_{field.name}"].item()
                )
                for field in dataclasses.fields(ClusteringConfig)
                # Archives written before a config field existed fall back
                # to that field's default.
                if f"config_{field.name}" in archive.files
            }
            clusterer = cls(ClusteringConfig(**kwargs))
            clusterer.prototypes_ = archive["prototypes"].copy()
            clusterer.loss_history_ = archive["loss_history"].tolist()
            clusterer.n_iter_ = int(archive["n_iter"])
        return clusterer

    def reconstruct(self, segments: np.ndarray, match_moments: bool = False) -> np.ndarray:
        """Replace each segment by its prototype (Fig. 11's approximation).

        With ``match_moments=True`` each prototype copy is rescaled to the
        segment's mean and standard deviation, as in the paper's case
        study ("each prototype adjusted to maintain the original mean and
        standard deviation").
        """
        self._check_fitted()
        segments = self._as_segments(segments)
        labels = self.assign(segments)
        approx = self.prototypes_[labels].copy()
        if match_moments:
            seg_mean = segments.mean(axis=1, keepdims=True)
            seg_std = segments.std(axis=1, keepdims=True)
            app_mean = approx.mean(axis=1, keepdims=True)
            app_std = approx.std(axis=1, keepdims=True)
            app_std = np.where(app_std < 1e-12, 1.0, app_std)
            approx = (approx - app_mean) / app_std * seg_std + seg_mean
        return approx
