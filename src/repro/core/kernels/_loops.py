"""Loop-form kernel implementations shared by the numba and loops backends.

Every function in this module is written in the restricted subset of Python
that ``numba.njit`` compiles in nopython mode: scalar loops, ``math``
functions, pre-allocated numpy output arrays, and integer codes instead of
strings.  :mod:`repro.core.kernels.numba_backend` compiles these functions
verbatim; the ``"loops"`` backend runs them as plain Python, which keeps the
exact arithmetic of the compiled path testable on machines without numba.

Bit-identity with the numpy reference backend is a hard requirement (the
equivalence suite pins it), which shapes the code in two ways:

* every kernel performs only element-wise arithmetic, comparisons and
  selection — operations whose IEEE-754 result is independent of
  vectorisation — and mirrors the numpy reference's evaluation order
  (left-associative, same guards, same clipping) expression by expression;
* reductions whose summation order numpy does not expose (BLAS matmuls,
  pairwise sums) are deliberately *not* implemented here: they stay in the
  shared numpy code of :mod:`repro.core.streaming_knn` so every backend sees
  the same inputs.

Similarity measures and scores are identified by integer codes (see
``MEASURE_CODES`` / ``SCORE_CODES`` in :mod:`repro.core.kernels`) because
nopython mode cannot dispatch on strings.
"""

from __future__ import annotations

import math

import numpy as np

# Integer codes mirrored by the backend wrappers in repro.core.kernels.
PEARSON, EUCLIDEAN, CID = 0, 1, 2
MACRO_F1, ACCURACY = 0, 1

_STD_FLOOR_CE = 1e-8
_EPS = 1e-12


def extend_shrink(partial, extend_values, newest, shrink_values, oldest, q_out):
    """Eqn. 3 extension and Eqn. 5 shrink of the partial dot products.

    ``full[i] = partial[i] + extend_values[i] * newest`` and
    ``q_out[i] = full[i] - shrink_values[i] * oldest`` — one multiply-add per
    offset, exactly the per-element arithmetic of the numpy reference.
    """
    m = partial.shape[0]
    full = np.empty(m, dtype=np.float64)
    for i in range(m):
        value = partial[i] + extend_values[i] * newest
        full[i] = value
        q_out[i] = value - shrink_values[i] * oldest
    return full


def similarity_profile(
    measure_code,
    dot_products,
    w_means,
    w_stds,
    query_mean,
    query_std,
    window_size,
    complexities,
    query_complexity,
):
    """Similarity of every subsequence to the query, selected by measure code.

    Mirrors :func:`repro.core.similarity.get_similarity_from_stats`
    expression by expression (numerator/denominator association, clipping,
    distance floor, complexity floor) so the result is bit-identical to the
    numpy reference.  ``w_means`` and ``w_stds`` are the per-offset means
    and stds scaled by the width, ``query_mean`` and ``query_std`` the
    query's own.  ``complexities`` and ``query_complexity`` are only read
    for the CID code; callers pass an empty array and 0.0 for the others.
    """
    m = dot_products.shape[0]
    out = np.empty(m, dtype=np.float64)
    w = float(window_size)
    ce_query = 0.0
    if measure_code == CID:
        ce_query = query_complexity
        if ce_query < _STD_FLOOR_CE:
            ce_query = _STD_FLOOR_CE
    for i in range(m):
        numerator = dot_products[i] - w_means[i] * query_mean
        denominator = w_stds[i] * query_std
        if denominator > 0.0:
            corr = numerator / denominator
        else:
            corr = 0.0
        if corr < -1.0:
            corr = -1.0
        elif corr > 1.0:
            corr = 1.0
        if measure_code == PEARSON:
            out[i] = corr
            continue
        dist_sq = 2.0 * w * (1.0 - corr)
        if dist_sq < 0.0:
            dist_sq = 0.0
        dist = math.sqrt(dist_sq)
        if measure_code == EUCLIDEAN:
            out[i] = -dist
        else:
            ce = complexities[i]
            if ce < _STD_FLOOR_CE:
                ce = _STD_FLOOR_CE
            if ce > ce_query:
                high, low = ce, ce_query
            else:
                high, low = ce_query, ce
            out[i] = -dist * (high / low)
    return out


def topk_newest(similarities, low, take, first_global, idx_out, sim_out):
    """Top-``take`` of ``similarities[:low]`` by value desc, index asc on ties.

    Maintains a sorted insertion buffer directly in the output row: a later
    candidate displaces stored entries only when strictly better, so equal
    values keep the earliest index first — the deterministic tie rule shared
    with the numpy reference.  Writes ``idx_out[:take]`` (global ids) and
    ``sim_out[:take]``; the caller pre-pads the rest of the row.
    """
    count = 0
    for i in range(low):
        value = similarities[i]
        if count == take:
            if value <= sim_out[take - 1]:
                continue
            count -= 1
        position = count
        while position > 0 and sim_out[position - 1] < value:
            position -= 1
        for j in range(count, position, -1):
            sim_out[j] = sim_out[j - 1]
            idx_out[j] = idx_out[j - 1]
        sim_out[position] = value
        idx_out[position] = i + first_global
        count += 1


def rank_smallest(values, rank):
    """``rank``-th smallest entry (0-indexed) of a small integer array."""
    k = values.shape[0]
    buffer = np.empty(k, dtype=np.int64)
    for i in range(k):
        buffer[i] = values[i]
    for i in range(rank + 1):
        smallest = i
        for j in range(i + 1, k):
            if buffer[j] < buffer[smallest]:
                smallest = j
        swap = buffer[i]
        buffer[i] = buffer[smallest]
        buffer[smallest] = swap
    return buffer[rank]


def insert_newest(indices, sims, worst, thresholds, candidate_sims, newest_global, rank):
    """Sorted-insert of the newest subsequence into the rows it beats.

    All array arguments are views of the live (eligible) table rows and are
    mutated in place.  The insertion position is the number of stored
    neighbours strictly better than the candidate — identical to the
    ``searchsorted`` of the numpy reference — and each patched row refreshes
    its cached worst similarity and prediction threshold.  Returns the
    patched rows, ascending.
    """
    eligible = candidate_sims.shape[0]
    k = sims.shape[1]
    patched = np.empty(eligible, dtype=np.int64)
    n_patched = 0
    for row in range(eligible):
        value = candidate_sims[row]
        if not (value > worst[row]):
            continue
        patched[n_patched] = row
        n_patched += 1
        position = 0
        while position < k and sims[row, position] > value:
            position += 1
        for j in range(k - 1, position, -1):
            sims[row, j] = sims[row, j - 1]
            indices[row, j] = indices[row, j - 1]
        sims[row, position] = value
        indices[row, position] = newest_global
        worst[row] = sims[row, k - 1]
        # rank-th smallest neighbour id, selection-sorted in a small buffer
        # (inlined rather than calling rank_smallest so each kernel compiles
        # independently under njit)
        buffer = np.empty(k, dtype=np.int64)
        for j in range(k):
            buffer[j] = indices[row, j]
        for i in range(rank + 1):
            smallest = i
            for j in range(i + 1, k):
                if buffer[j] < buffer[smallest]:
                    smallest = j
            swap = buffer[i]
            buffer[i] = buffer[smallest]
            buffer[smallest] = swap
        thresholds[row] = buffer[rank]
    return patched[:n_patched]


def fused_split_scores(score_code, pred_zero_from, splits, n_subsequences):
    """Per-split classification scores from prediction breakpoints.

    The loop form of :func:`repro.core.scoring.fused_split_scores`: cumulative
    breakpoint histograms give the ``(n00, pred0)`` confusion prefix counts,
    the remaining cells follow by exact integer algebra, and the score
    divisions replicate the reference's epsilon guards and association order
    so float64 results are bit-identical.
    """
    m = n_subsequences
    n_splits = splits.shape[0]
    out = np.empty(n_splits, dtype=np.float64)
    n00_cum = np.zeros(m + 2, dtype=np.int64)
    pred_cum = np.zeros(m + 2, dtype=np.int64)
    for i in range(m):
        pred_from = pred_zero_from[i]
        true_from = i + 1
        both_from = pred_from if pred_from > true_from else true_from
        n00_cum[both_from] += 1
        pred_cum[pred_from] += 1
    for i in range(1, m + 2):
        n00_cum[i] += n00_cum[i - 1]
        pred_cum[i] += pred_cum[i - 1]
    for j in range(n_splits):
        split = splits[j]
        n00 = float(n00_cum[split])
        pred0 = float(pred_cum[split])
        true0 = float(split)
        true1 = m - true0
        n11 = true1 - (pred0 - n00)
        if score_code == MACRO_F1:
            precision0 = n00 / max(pred0, _EPS)
            recall0 = n00 / max(true0, _EPS)
            f1_class0 = 2.0 * precision0 * recall0 / max(precision0 + recall0, _EPS)
            precision1 = n11 / max(m - pred0, _EPS)
            recall1 = n11 / max(true1, _EPS)
            f1_class1 = 2.0 * precision1 * recall1 / max(precision1 + recall1, _EPS)
            out[j] = 0.5 * (f1_class0 + f1_class1)
        else:
            recall0 = n00 / max(true0, _EPS)
            recall1 = n11 / max(true1, _EPS)
            out[j] = 0.5 * (recall0 + recall1)
    return out
