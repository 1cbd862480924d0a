"""Classification scores computed from binary confusion counts (paper §3.2, §4.2e).

ClaSS evaluates every hypothetical split with a cross-validated classification
score that must be computable in constant time from a running confusion
matrix.  The paper's ablation study compares macro F1 (the default) with
macro accuracy; ROC/AUC is explicitly excluded because it cannot be derived
from the confusion matrix in constant time.

The functions below accept either scalars or numpy arrays for the four counts
so the vectorised cross-validation can score every split of a window in a
single call.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.utils.exceptions import ConfigurationError

#: Names accepted by :func:`get_score_function`.
SCORE_FUNCTIONS = ("macro_f1", "accuracy")

_EPS = 1e-12

#: Global subsequence ids per bin of :class:`BreakpointHistograms`, and so
#: splits per block of :func:`split_score_bound` (a power of two: bins are
#: computed with a shift).
_BOUND_BLOCK_BITS = 4
BOUND_BLOCK = 1 << _BOUND_BLOCK_BITS


def binary_f1(tp: np.ndarray, fp: np.ndarray, fn: np.ndarray) -> np.ndarray:
    """F1 score of a single class from its true/false positive and negative counts."""
    tp = np.asarray(tp, dtype=np.float64)
    fp = np.asarray(fp, dtype=np.float64)
    fn = np.asarray(fn, dtype=np.float64)
    precision = tp / np.maximum(tp + fp, _EPS)
    recall = tp / np.maximum(tp + fn, _EPS)
    return 2.0 * precision * recall / np.maximum(precision + recall, _EPS)


def macro_f1_score(
    n00: np.ndarray, n01: np.ndarray, n10: np.ndarray, n11: np.ndarray
) -> np.ndarray:
    """Macro-averaged F1 from the 2x2 confusion counts.

    Parameters
    ----------
    n00, n01, n10, n11:
        Counts of (true label, predicted label) pairs: ``nXY`` is the number
        of instances whose true label is ``X`` and predicted label is ``Y``.
        The macro formulation computes the F1 of class 0 and class 1
        separately and averages them, which the paper uses to counter the
        inherent class imbalance of the split enumeration.
    """
    f1_class0 = binary_f1(tp=n00, fp=n10, fn=n01)
    f1_class1 = binary_f1(tp=n11, fp=n01, fn=n10)
    return 0.5 * (f1_class0 + f1_class1)


def accuracy_score(
    n00: np.ndarray, n01: np.ndarray, n10: np.ndarray, n11: np.ndarray
) -> np.ndarray:
    """Macro (balanced) accuracy from the 2x2 confusion counts.

    Balanced accuracy averages the per-class recalls, mirroring the macro
    treatment of F1 in the paper's ablation.
    """
    n00 = np.asarray(n00, dtype=np.float64)
    n01 = np.asarray(n01, dtype=np.float64)
    n10 = np.asarray(n10, dtype=np.float64)
    n11 = np.asarray(n11, dtype=np.float64)
    recall0 = n00 / np.maximum(n00 + n01, _EPS)
    recall1 = n11 / np.maximum(n10 + n11, _EPS)
    return 0.5 * (recall0 + recall1)


def confusion_prefix_counts(
    pred_zero_from: np.ndarray,
    splits: np.ndarray,
    n_subsequences: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-split ``(n00, pred0)`` counts via cumulative breakpoint histograms.

    ``pred_zero_from[i]`` is the split value from which subsequence ``i``'s
    predicted label becomes 0 (clipped to ``[0, m + 1]``); the true label's
    breakpoint is ``i + 1`` by construction.  ``n00`` counts subsequences
    whose true and predicted labels are both 0 at a split, ``pred0`` those
    predicted 0; the remaining confusion cells follow by exact integer
    algebra (``n10 = pred0 - n00``, ``n01 = split - n00``, ...).  Shared by
    the vectorised oracle, the fused score kernel and the lazy count
    materialisation so the breakpoint bookkeeping exists exactly once.
    """
    m = int(n_subsequences)
    true_zero_from = np.arange(1, m + 1, dtype=np.int64)
    both_zero_from = np.maximum(pred_zero_from, true_zero_from)
    n00_cum = np.cumsum(np.bincount(both_zero_from, minlength=m + 2))
    pred_zero_cum = np.cumsum(np.bincount(pred_zero_from, minlength=m + 2))
    return n00_cum[splits].astype(np.float64), pred_zero_cum[splits].astype(np.float64)


def fused_split_scores(
    pred_zero_from: np.ndarray,
    splits: np.ndarray,
    n_subsequences: int,
    score: str = "macro_f1",
) -> np.ndarray:
    """Profile scores straight from per-subsequence prediction breakpoints.

    Fuses the cumulative-histogram → confusion-counts → score computation of
    the vectorised cross-validation into one kernel that never materialises
    the per-split ``n00/n01/n10/n11`` arrays.  ``pred_zero_from[i]`` is the
    split value from which subsequence ``i``'s predicted label becomes 0
    (already clipped to ``[0, m + 1]``); the true label's breakpoint is
    ``i + 1`` by construction.  All confusion counts are integer-valued and
    therefore exact in float64, so algebraically rewriting them (e.g.
    ``n00 + n10 == pred0``) keeps every division bit-identical to the
    unfused :func:`macro_f1_score` / :func:`accuracy_score` path.
    """
    # explicit literal gate (not SCORE_FUNCTIONS membership), so a future
    # score added to the registry fails loudly here until a fused formula
    # for it is written, instead of silently reusing the wrong branch
    if score not in ("macro_f1", "accuracy"):
        raise ConfigurationError(
            f"no fused kernel for score {score!r}; expected one of {SCORE_FUNCTIONS}"
        )
    m = int(n_subsequences)
    if splits.size == 0:
        return np.empty(0, dtype=np.float64)
    n00, pred0 = confusion_prefix_counts(pred_zero_from, splits, m)
    true0 = splits.astype(np.float64)
    # exact integer identities: n00 + n10 = pred0, n00 + n01 = true0,
    # n11 + n01 = m - pred0, n11 + n10 = m - true0 — every operand below is
    # bit-equal to the one the unfused score functions would see, and the
    # division/eps-guard order matches them exactly (the equivalence is
    # pinned against all three oracles by tests/test_scoring_path.py)
    true1 = m - true0
    n11 = true1 - (pred0 - n00)
    if score == "macro_f1":
        precision0 = n00 / np.maximum(pred0, _EPS)
        recall0 = n00 / np.maximum(true0, _EPS)
        f1_class0 = 2.0 * precision0 * recall0 / np.maximum(precision0 + recall0, _EPS)
        precision1 = n11 / np.maximum(m - pred0, _EPS)
        recall1 = n11 / np.maximum(true1, _EPS)
        f1_class1 = 2.0 * precision1 * recall1 / np.maximum(precision1 + recall1, _EPS)
        return 0.5 * (f1_class0 + f1_class1)
    recall0 = n00 / np.maximum(true0, _EPS)
    recall1 = n11 / np.maximum(true1, _EPS)
    return 0.5 * (recall0 + recall1)


def split_score_bound(
    first_split: np.ndarray,
    last_split: np.ndarray,
    pred0_first: np.ndarray,
    pred0_last: np.ndarray,
    n00_last: np.ndarray,
    n_subsequences: int,
    score: str = "macro_f1",
) -> np.ndarray:
    """Upper bounds on the best score of blocks of splits, from counts at their edges.

    Block ``j`` holds the splits ``a = first_split[j] .. b = last_split[j]``;
    ``pred0_first[j]`` is at most ``pred0(a)``, while ``pred0_last[j]`` and
    ``n00_last[j]`` are at least ``pred0(b)`` and ``n00(b)`` (the counts of
    :func:`confusion_prefix_counts`).  ``n00`` and ``pred0`` only grow with
    the split ``s``, so over the block the class F1 scores
    ``2·n00 / (pred0 + s)`` and ``2·n11 / ((m - pred0) + (m - s))`` are at
    most ``2·n00(b) / (pred0(a) + a)`` and
    ``2·((m - a) - pred0(a) + n00(b)) / ((m - pred0(b)) + (m - b))``, and the
    two recalls of accuracy likewise.  :class:`BreakpointHistograms` reads
    the edge counts off coarse histograms, so the bound costs a pass over
    the blocks instead of a full score profile.  It bounds the exact scores;
    callers compare it with a small margin for rounding.

    Returns the bound of each block; their ``max()`` bounds every split.
    """
    m = int(n_subsequences)
    a, b = first_split, last_split
    n11_hi = (m - a) - pred0_first + n00_last
    if score == "macro_f1":
        class0 = 2.0 * n00_last / (pred0_first + a)
        class1 = 2.0 * n11_hi / ((m - pred0_last) + (m - b))
    else:  # the class recalls n00 / s and n11 / (m - s)
        class0 = n00_last / a
        class1 = n11_hi / (m - b)
    return 0.5 * (np.minimum(class0, 1.0) + np.minimum(class1, 1.0))


class BreakpointHistograms:
    """Counts of a scored region's breakpoints in blocks of ids, kept between passes.

    A region of ``m`` subsequences with global ids ``offset .. offset + m -
    1`` and prediction thresholds ``t`` (global ids too) has, at split
    ``s``, ``pred0(s) = #{t <= offset + s - 1}`` and ``n00(s) =
    #{max(t, id) <= offset + s - 1}``: the counts of
    :func:`confusion_prefix_counts` in global coordinates.  Two histograms
    count ``t`` and ``max(t, id)`` in bins of :data:`BOUND_BLOCK` global
    ids, so every block of splits whose cut ``offset + s - 1`` falls in one
    bin reads its edge counts for :func:`split_score_bound` off prefix sums
    of the bins.  A value below the first bin (``origin``) is counted in the
    first bin, one above the last bin in the last.

    :meth:`update` compares the region's live thresholds with its copy from
    the last update and moves only the rows whose threshold changed, that
    joined the region or that left it; only a few move per scoring pass, as
    the newest subsequence beats a handful of rows.  A region that jumped
    (a change point), lost its overlap with the copy or outgrew the bins is
    counted afresh.  The instance holds derived state only: :meth:`reset`
    it whenever the subsequence ids restart (a new k-NN).
    """

    #: Most moved rows updated one by one; more are counted afresh.  On a
    #: 2-vCPU Xeon VM at the paper's full region (m=9,976) an update that
    #: moves rows costs ~14 µs plus ~2.7 µs per changed row, against ~85 µs
    #: for a recount: they meet near 30 rows.  Smaller regions recount
    #: faster (m=1,024: ~23 µs, crossover near 6 rows), but at the paper's
    #: defaults a pass moves a median of 2 rows and 95% move at most 9.
    MAX_MOVES = 32

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget the counted region; the next :meth:`update` counts afresh."""
        self.thresholds: np.ndarray | None = None
        self.offset = 0
        self.origin = 0
        self.counts = np.zeros((2, 0), dtype=np.int64)

    def update(self, thresholds: np.ndarray, offset: int) -> np.ndarray:
        """Count the region ``thresholds`` of ids ``offset ..``; return a copy of them.

        The returned copy is fresh on every call and never written again,
        so a caller may keep it as the pass's thresholds.
        """
        old, m = self.thresholds, thresholds.shape[0]
        start = offset - self.offset  # rows of the copy that left the region
        kept = -1 if old is None else old.shape[0] - start
        top = ((offset + m - 1) >> _BOUND_BLOCK_BITS) - self.origin
        if start < 0 or not 0 < kept <= m or top >= self.counts.shape[1]:
            self._count(thresholds, offset)
        else:
            changed = np.flatnonzero(thresholds[:kept] != old[start:])
            if start + changed.shape[0] + m - kept > self.MAX_MOVES:
                self._count(thresholds, offset)
            else:
                self._move(thresholds, offset, start, kept, changed.tolist())
        self.thresholds = thresholds.copy()
        self.offset = offset
        return self.thresholds

    def block_edges(
        self, low: int, high: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The arguments of :func:`split_score_bound` for the splits ``low..high``.

        ``1 <= low <= high < m`` of the region of the last :meth:`update`.
        """
        offset, origin = self.offset, self.origin
        # block j holds the splits whose cut offset + s - 1 lies in bin first + j
        first = (offset + low - 1) >> _BOUND_BLOCK_BITS  # > origin: offset only grows
        last = (offset + high - 1) >> _BOUND_BLOCK_BITS
        # column i: values in bins up to origin + i, i.e. below the cuts of bin origin + i + 1
        below = np.cumsum(self.counts[:, : last - origin + 1], axis=1)
        pred0 = below[0, first - origin - 1 :]
        first_split = np.arange(
            (first << _BOUND_BLOCK_BITS) - offset + 1,
            (last << _BOUND_BLOCK_BITS) - offset + 2,
            BOUND_BLOCK,
            dtype=np.int64,
        )
        last_split = first_split + (BOUND_BLOCK - 1)
        first_split[0] = low
        last_split[-1] = high
        return first_split, last_split, pred0[:-1], pred0[1:], below[1, first - origin :]

    def _count(self, thresholds: np.ndarray, offset: int) -> None:
        """Count the region afresh, with bins for ``m`` more ids before the next recount."""
        m = thresholds.shape[0]
        self.origin = (offset >> _BOUND_BLOCK_BITS) - 1
        n_bins = ((offset + 2 * m) >> _BOUND_BLOCK_BITS) - self.origin + 1
        ids = np.arange(offset, offset + m, dtype=np.int64)
        self.counts = np.empty((2, n_bins), dtype=np.int64)
        for row, values in enumerate((thresholds, np.maximum(thresholds, ids))):
            bins = values >> _BOUND_BLOCK_BITS
            bins -= self.origin
            np.maximum(bins, 0, out=bins)
            np.minimum(bins, n_bins - 1, out=bins)
            self.counts[row] = np.bincount(bins, minlength=n_bins)

    def _move(
        self, thresholds: np.ndarray, offset: int, start: int, kept: int, changed: list
    ) -> None:
        """Move the rows that left, changed or joined, one by one in Python ints."""
        old = self.thresholds
        origin, last_bin = self.origin, self.counts.shape[1] - 1
        counts_t, counts_b = self.counts

        def shift(threshold: int, row_id: int, delta: int) -> None:
            both = threshold if threshold > row_id else row_id
            counts_t[min(max((threshold >> _BOUND_BLOCK_BITS) - origin, 0), last_bin)] += delta
            counts_b[min(max((both >> _BOUND_BLOCK_BITS) - origin, 0), last_bin)] += delta

        for row in range(start):
            shift(int(old[row]), self.offset + row, -1)
        for row in changed:
            shift(int(old[start + row]), offset + row, -1)
            shift(int(thresholds[row]), offset + row, 1)
        for row in range(kept, thresholds.shape[0]):
            shift(int(thresholds[row]), offset + row, 1)


def get_score_function(name: str) -> Callable[..., np.ndarray]:
    """Look up a confusion-matrix score function by name."""
    if name == "macro_f1":
        return macro_f1_score
    if name == "accuracy":
        return accuracy_score
    raise ConfigurationError(
        f"unknown score function {name!r}; expected one of {SCORE_FUNCTIONS}"
    )


def confusion_from_labels(
    y_true: np.ndarray, y_pred: np.ndarray
) -> tuple[int, int, int, int]:
    """Explicit 2x2 confusion counts (n00, n01, n10, n11) from binary labels.

    Used by the sequential reference implementation of Algorithm 3 and by
    tests as a slow but obviously-correct oracle.
    """
    y_true = np.asarray(y_true).astype(np.int64)
    y_pred = np.asarray(y_pred).astype(np.int64)
    if y_true.shape != y_pred.shape:
        raise ConfigurationError("y_true and y_pred must have the same shape")
    n00 = int(np.sum((y_true == 0) & (y_pred == 0)))
    n01 = int(np.sum((y_true == 0) & (y_pred == 1)))
    n10 = int(np.sum((y_true == 1) & (y_pred == 0)))
    n11 = int(np.sum((y_true == 1) & (y_pred == 1)))
    return n00, n01, n10, n11
