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

#: Splits per block of :func:`split_score_bound` (a power of two: bins are
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
    pred_zero_from: np.ndarray,
    low: int,
    high: int,
    n_subsequences: int,
    score: str = "macro_f1",
) -> float:
    """Upper bound on the best score of the splits ``low..high``, without scoring them.

    ``n00`` and ``pred0`` only grow with the split ``s``, so over a block of
    splits ``[a, b]`` (:data:`BOUND_BLOCK` of them) the class F1 scores
    ``2·n00 / (pred0 + s)`` and ``2·n11 / ((m - pred0) + (m - s))`` are at
    most ``2·n00(b) / (pred0(a) + a)`` and
    ``2·((m - a) - pred0(a) + n00(b)) / ((m - pred0(b)) + (m - b))``, and the
    two recalls of accuracy likewise.  The counts at the block edges come
    from coarse histograms of the breakpoints (``pred0(a)`` from below,
    which keeps the bound valid), so the bound costs a few passes over the
    ``m`` breakpoints instead of a full score profile.  It bounds the exact
    scores; callers compare it with a small margin for rounding.
    """
    m = int(n_subsequences)
    a = np.arange(low, high + 1, BOUND_BLOCK)  # first split of each block
    b = a + (BOUND_BLOCK - 1)  # last split of each block
    b[-1] = min(b[-1], high)
    # shifted so that block j starts bin first + j
    shift = -low % BOUND_BLOCK
    first = (low + shift) // BOUND_BLOCK  # >= 1, as low >= 1
    both_zero_from = np.maximum(pred_zero_from, np.arange(1, m + 1, dtype=np.int64))
    counts = []
    for breakpoints in (pred_zero_from, both_zero_from):
        bins = (breakpoints + shift) >> _BOUND_BLOCK_BITS
        below = np.cumsum(np.bincount(bins, minlength=first + a.shape[0]))
        # entry j: breakpoints below block j's first split, j = 0..n_blocks
        counts.append(below[first - 1 : first + a.shape[0]])
    pred0, n00 = counts
    pred0_a, pred0_b, n00_b = pred0[:-1], pred0[1:], n00[1:]
    n11_hi = (m - a) - pred0_a + n00_b
    if score == "macro_f1":
        class0 = 2.0 * n00_b / (pred0_a + a)
        class1 = 2.0 * n11_hi / ((m - pred0_b) + (m - b))
    else:  # the class recalls n00 / s and n11 / (m - s)
        class0 = n00_b / a
        class1 = n11_hi / (m - b)
    return 0.5 * float((np.minimum(class0, 1.0) + np.minimum(class1, 1.0)).max())


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
