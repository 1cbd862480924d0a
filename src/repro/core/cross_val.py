"""Self-supervised k-NN cross-validation of hypothetical splits (paper §3.2).

Given the k-NN offsets of the subsequences inside the sliding window, ClaSS
scores every hypothetical split position: subsequences left of the split are
assigned the artificial ground-truth label 0, those right of it label 1, and a
leave-one-out k-NN classifier predicts each subsequence's label from its
neighbours' labels.  The classification score (macro F1 by default) of a split
measures how well the two sides can be told apart — the Classification Score
Profile (ClaSP).

The paper's key contribution here (Algorithm 3) is computing all splits in
O(d) total by exploiting that consecutive splits differ in exactly one ground
truth label.  For a majority vote over ``k`` neighbours, the predicted label
of subsequence ``i`` as a function of the split ``s`` is a step function that
flips from 1 to 0 once ``s`` exceeds the ⌈k/2⌉-th smallest neighbour offset,
its *prediction threshold*.  All confusion-matrix entries for all splits
therefore reduce to cumulative histograms over those thresholds.

:func:`cross_val_scores_from_thresholds` is the one scoring path of ClaSS and
batch ClaSP: it consumes the thresholds (cached incrementally by the
streaming k-NN, or sorted once from a k-NN table with
:func:`prediction_thresholds`) through the fused score kernel of
:func:`repro.core.scoring.fused_split_scores`, which skips the per-split
confusion-count arrays; the full :class:`CrossValidationResult` counts are
computed lazily on first access.

Three reference implementations over a plain ``(m, k)`` k-NN table have no
product caller.  The tests compare every scoring pass against them, and the
§4.4 runtime ablation (``benchmarks/bench_knn_modes.py``) times them:

* :func:`cross_val_scores_incremental` — a faithful implementation of
  Algorithm 3 (reverse-NN index, per-split confusion-matrix deltas), the
  executable specification;
* :func:`cross_val_scores_vectorised` — the closed form above with eager
  confusion counts, re-sorting the table on every call;
* :func:`cross_val_scores_naive` — recomputes labels and predictions from
  scratch for every split, O(d^2); the approach of the original batch ClaSP
  that the paper improves upon.

All four give bit-identical scores.
"""

from __future__ import annotations

import numpy as np

from repro.core.scoring import (
    confusion_prefix_counts,
    fused_split_scores,
    get_score_function,
)
from repro.utils.exceptions import ConfigurationError

#: Every implementation treats any neighbour offset below zero (slid out of the
#: window or before the last change point) as belonging to class 0 by design.


def _validate_knn(knn_indices: np.ndarray) -> np.ndarray:
    knn = np.asarray(knn_indices, dtype=np.int64)
    if knn.ndim != 2:
        raise ConfigurationError("knn_indices must be a 2-d array of shape (m, k)")
    if knn.shape[0] < 2 or knn.shape[1] < 1:
        raise ConfigurationError("knn_indices needs at least two subsequences and one neighbour")
    return knn


def prediction_thresholds(knn_indices: np.ndarray) -> np.ndarray:
    """Split threshold above which each subsequence's predicted label becomes 0.

    For a split ``s`` the neighbours with offset ``< s`` carry label 0 and the
    rest label 1, so the majority prediction of subsequence ``i`` is 0 exactly
    when at least ``ceil(k/2)`` of its neighbours have offsets ``< s`` (ties
    favour class 0, matching Algorithm 3's ``zeros >= ones`` rule).  That
    happens precisely once ``s`` exceeds the ⌈k/2⌉-th smallest neighbour
    offset, which this function returns per subsequence.
    """
    knn = _validate_knn(knn_indices)
    k = knn.shape[1]
    need = int(np.ceil(k / 2.0))
    sorted_nbrs = np.sort(knn, axis=1)
    return sorted_nbrs[:, need - 1]


def predictions_for_split(thresholds: np.ndarray, split: int, offset: int = 0) -> np.ndarray:
    """Predicted labels of every subsequence for one split (0 left / 1 right).

    ``thresholds`` are the prediction thresholds of :func:`prediction_thresholds`
    (e.g. the cached thresholds of a
    :meth:`~repro.core.streaming_knn.StreamingKNN.region_view`), expressed in
    coordinates shifted by ``offset``; the labels are one vectorised
    comparison.
    """
    return (thresholds >= split + offset).astype(np.int64)


def breakpoints_from_thresholds(
    thresholds: np.ndarray, m: int, offset: int = 0
) -> np.ndarray:
    """Clipped split values at which each subsequence's prediction becomes 0."""
    return np.clip(thresholds - np.int64(offset) + 1, 0, m + 1)


class CrossValidationResult:
    """Profile of classification scores plus the per-split confusion counts.

    The three reference implementations fill the confusion counts eagerly.
    :func:`cross_val_scores_from_thresholds` stores only the per-subsequence
    prediction breakpoints and materialises ``n00``/``n01``/``n10``/``n11``
    lazily on first access, so the hot scoring loop never allocates them
    while tests and ``last_profile`` consumers still see the full result on
    demand.
    """

    def __init__(
        self,
        scores: np.ndarray,
        splits: np.ndarray,
        n00: np.ndarray | None = None,
        n01: np.ndarray | None = None,
        n10: np.ndarray | None = None,
        n11: np.ndarray | None = None,
        *,
        pred_zero_from: np.ndarray | None = None,
    ) -> None:
        self.scores = scores
        self.splits = splits
        self._n00 = n00
        self._n01 = n01
        self._n10 = n10
        self._n11 = n11
        self._pred_zero_from = pred_zero_from

    def _materialise_counts(self) -> None:
        """Recompute the per-split confusion counts from the stored breakpoints."""
        if self._pred_zero_from is None:
            raise AttributeError("confusion counts unavailable: no breakpoints stored")
        m = int(self._pred_zero_from.shape[0])
        self._n00, pred0 = confusion_prefix_counts(self._pred_zero_from, self.splits, m)
        true0 = self.splits.astype(np.float64)
        self._n10 = pred0 - self._n00
        self._n01 = true0 - self._n00
        self._n11 = m - true0 - self._n10

    @property
    def n00(self) -> np.ndarray:
        if self._n00 is None:
            self._materialise_counts()
        return self._n00

    @property
    def n01(self) -> np.ndarray:
        if self._n01 is None:
            self._materialise_counts()
        return self._n01

    @property
    def n10(self) -> np.ndarray:
        if self._n10 is None:
            self._materialise_counts()
        return self._n10

    @property
    def n11(self) -> np.ndarray:
        if self._n11 is None:
            self._materialise_counts()
        return self._n11

    def best_split(self) -> tuple[int, float]:
        """Return the (split, score) pair of the global maximum of the profile."""
        best = int(np.argmax(self.scores))
        return int(self.splits[best]), float(self.scores[best])


def valid_splits(n_subsequences: int, exclusion: int) -> np.ndarray:
    """Admissible split positions, keeping ``exclusion`` subsequences per side."""
    exclusion = max(1, int(exclusion))
    low = exclusion
    high = n_subsequences - exclusion
    if high <= low:
        return np.empty(0, dtype=np.int64)
    return np.arange(low, high + 1, dtype=np.int64)


def cross_val_scores_vectorised(
    knn_indices: np.ndarray,
    exclusion: int,
    score: str = "macro_f1",
) -> CrossValidationResult:
    """All-splits cross-validation scores in O(m * k) with numpy (reference).

    Parameters
    ----------
    knn_indices:
        Array of shape ``(m, k)`` with the neighbour offsets of each
        subsequence; negative offsets count as class 0.
    exclusion:
        Minimum number of subsequences that must remain on each side of a
        split (the paper uses the subsequence width ``w``).
    score:
        ``"macro_f1"`` (default) or ``"accuracy"``.
    """
    knn = _validate_knn(knn_indices)
    m = knn.shape[0]
    score_fn = get_score_function(score)
    splits = valid_splits(m, exclusion)
    if splits.size == 0:
        empty = np.empty(0, dtype=np.float64)
        return CrossValidationResult(empty, splits, empty, empty, empty, empty)

    # Predicted label of subsequence i is 0 iff split > thresholds[i];
    # true label is 0 iff split > i.  Each confusion cell as a function of the
    # split is therefore a cumulative count over per-subsequence breakpoints.
    pred_zero_from = breakpoints_from_thresholds(prediction_thresholds(knn), m)
    n00, pred0 = confusion_prefix_counts(pred_zero_from, splits, m)
    true0 = splits.astype(np.float64)
    n10 = pred0 - n00              # true 1, predicted 0
    n01 = true0 - n00              # true 0, predicted 1
    n11 = m - true0 - n10          # true 1, predicted 1

    scores = score_fn(n00, n01, n10, n11)
    return CrossValidationResult(scores, splits, n00, n01, n10, n11)


def cross_val_scores_from_thresholds(
    thresholds: np.ndarray,
    exclusion: int,
    score: str = "macro_f1",
    offset: int = 0,
    kernels=None,
) -> CrossValidationResult:
    """All-splits scores from precomputed prediction thresholds (zero-copy path).

    Parameters
    ----------
    thresholds:
        Per-subsequence prediction thresholds (the ⌈k/2⌉-th smallest
        neighbour offset), e.g. the incrementally maintained cache of
        :meth:`repro.core.streaming_knn.StreamingKNN.region_view`.  The array
        is only read, never copied or modified, so views into live ring
        buffers are fine.
    exclusion:
        Minimum number of subsequences kept on each side of a split.
    score:
        ``"macro_f1"`` (default) or ``"accuracy"``.
    offset:
        Coordinate shift of ``thresholds``: a threshold ``t`` corresponds to
        the region-relative threshold ``t - offset``.  Lets callers pass
        global-coordinate caches without materialising a shifted copy.
    kernels:
        Optional :class:`repro.core.kernels.KernelBackend` whose fused
        split-score kernel evaluates the profile (all backends are
        bit-identical); None uses the numpy reference kernel directly.

    Scores are bit-identical to :func:`cross_val_scores_vectorised` on the
    equivalent (region-relative) k-NN table; the confusion counts of the
    returned result are materialised lazily on first access.
    """
    thresholds = np.asarray(thresholds, dtype=np.int64)
    if thresholds.ndim != 1:
        raise ConfigurationError("thresholds must be a 1-d array of shape (m,)")
    m = thresholds.shape[0]
    if m < 2:
        raise ConfigurationError("thresholds needs at least two subsequences")
    splits = valid_splits(m, exclusion)
    if splits.size == 0:
        empty = np.empty(0, dtype=np.float64)
        return CrossValidationResult(empty, splits, empty, empty, empty, empty)
    pred_zero_from = breakpoints_from_thresholds(thresholds, m, offset)
    if kernels is None:
        scores = fused_split_scores(pred_zero_from, splits, m, score)
    else:
        scores = kernels.fused_split_scores(pred_zero_from, splits, m, score)
    return CrossValidationResult(scores, splits, pred_zero_from=pred_zero_from)


def cross_val_scores_incremental(
    knn_indices: np.ndarray,
    exclusion: int,
    score: str = "macro_f1",
) -> CrossValidationResult:
    """Faithful sequential implementation of Algorithm 3 (reference path).

    Maintains the ground-truth labels, per-subsequence neighbour label counts,
    predicted labels and the confusion matrix, updating them with amortised
    O(1) work per split via the reverse nearest-neighbour index.
    """
    knn = _validate_knn(knn_indices)
    m, k = knn.shape
    score_fn = get_score_function(score)
    splits = valid_splits(m, exclusion)
    if splits.size == 0:
        empty = np.empty(0, dtype=np.float64)
        return CrossValidationResult(empty, splits, empty, empty, empty, empty)

    # init_labels: everything starts as class 1; negative neighbour offsets
    # are class 0 by design and never change.
    y_true = np.ones(m, dtype=np.int64)
    zeros_count = np.sum(knn < 0, axis=1).astype(np.int64)
    ones_count = k - zeros_count
    y_pred = np.where(zeros_count >= ones_count, 0, 1)

    # reverse nearest neighbours: for every offset, which subsequences list it
    reverse_nn: list[list[int]] = [[] for _ in range(m)]
    rows, cols = np.nonzero(knn >= 0)
    for row, col in zip(rows.tolist(), cols.tolist()):
        reverse_nn[int(knn[row, col])].append(int(row))

    # confusion matrix counts as (true, pred) pairs
    n00 = int(np.sum((y_true == 0) & (y_pred == 0)))
    n01 = int(np.sum((y_true == 0) & (y_pred == 1)))
    n10 = int(np.sum((y_true == 1) & (y_pred == 0)))
    n11 = int(np.sum((y_true == 1) & (y_pred == 1)))

    out_scores = np.empty(splits.shape[0], dtype=np.float64)
    out_n00 = np.empty_like(out_scores)
    out_n01 = np.empty_like(out_scores)
    out_n10 = np.empty_like(out_scores)
    out_n11 = np.empty_like(out_scores)

    next_split_position = 0
    for split in range(1, int(splits[-1]) + 1):
        flipped = split - 1  # the subsequence whose ground truth becomes 0

        # ground-truth flip moves the instance between confusion rows
        if y_pred[flipped] == 0:
            n10 -= 1
            n00 += 1
        else:
            n11 -= 1
            n01 += 1
        y_true[flipped] = 0

        # neighbours that list the flipped offset may change their prediction
        for idx in reverse_nn[flipped]:
            zeros_count[idx] += 1
            ones_count[idx] -= 1
            new_pred = 0 if zeros_count[idx] >= ones_count[idx] else 1
            if new_pred != y_pred[idx]:
                if y_true[idx] == 0:
                    if new_pred == 0:
                        n01 -= 1
                        n00 += 1
                    else:
                        n00 -= 1
                        n01 += 1
                else:
                    if new_pred == 0:
                        n11 -= 1
                        n10 += 1
                    else:
                        n10 -= 1
                        n11 += 1
                y_pred[idx] = new_pred

        if next_split_position < splits.shape[0] and split == int(splits[next_split_position]):
            value = float(score_fn(n00, n01, n10, n11))
            out_scores[next_split_position] = value
            out_n00[next_split_position] = n00
            out_n01[next_split_position] = n01
            out_n10[next_split_position] = n10
            out_n11[next_split_position] = n11
            next_split_position += 1

    return CrossValidationResult(out_scores, splits, out_n00, out_n01, out_n10, out_n11)


def cross_val_scores_naive(
    knn_indices: np.ndarray,
    exclusion: int,
    score: str = "macro_f1",
) -> CrossValidationResult:
    """O(m^2) recomputation of every split from scratch (batch-ClaSP style).

    A reference for the tests and for the runtime ablation that contrasts
    the paper's O(d) cross-validation with the original O(d^2) approach.
    """
    knn = _validate_knn(knn_indices)
    m, k = knn.shape
    score_fn = get_score_function(score)
    splits = valid_splits(m, exclusion)
    if splits.size == 0:
        empty = np.empty(0, dtype=np.float64)
        return CrossValidationResult(empty, splits, empty, empty, empty, empty)

    offsets = np.arange(m)
    out = np.empty(splits.shape[0], dtype=np.float64)
    n00s = np.empty_like(out)
    n01s = np.empty_like(out)
    n10s = np.empty_like(out)
    n11s = np.empty_like(out)
    for position, split in enumerate(splits):
        y_true = (offsets >= split).astype(np.int64)
        neighbour_labels = (knn >= split).astype(np.int64)
        ones = neighbour_labels.sum(axis=1)
        zeros = k - ones
        y_pred = np.where(zeros >= ones, 0, 1)
        n00 = np.sum((y_true == 0) & (y_pred == 0))
        n01 = np.sum((y_true == 0) & (y_pred == 1))
        n10 = np.sum((y_true == 1) & (y_pred == 0))
        n11 = np.sum((y_true == 1) & (y_pred == 1))
        out[position] = float(score_fn(n00, n01, n10, n11))
        n00s[position], n01s[position] = n00, n01
        n10s[position], n11s[position] = n10, n11
    return CrossValidationResult(out, splits, n00s, n01s, n10s, n11s)

