"""Dot-product based similarity measures for the streaming k-NN (paper §3.1).

The paper's streaming k-NN computes Pearson correlations between the newest
subsequence and all other subsequences of the sliding window from maintained
dot products (Eqns. 3-5).  The authors note that "the similarity measure ...
can easily be adapted to (dis-)similarity functions that can be expressed with
dot products, such as (complexity-invariant) Euclidean distance".  This module
implements the three measures evaluated in the ablation study (§4.2 c):

* ``pearson``   — Pearson correlation (default, higher = more similar)
* ``euclidean`` — z-normalised Euclidean distance, negated so that higher
  values are more similar (matching the k-NN argmax convention)
* ``cid``       — complexity-invariant distance (Batista et al.), negated

Every measure is a pure function of the per-offset dot products with the
query subsequence, the per-offset means/standard deviations and (for CID) the
per-offset complexity estimates, so all of them run in O(d) per stream update.
The one copy of each measure's arithmetic (:func:`get_similarity_from_stats`)
reads the means and stds scaled by the width, ``w·μ`` and ``w·σ``: the
streaming k-NN keeps them so, and the one-off helpers over raw statistics
scale them first, which leaves every result bit-identical.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.utils.exceptions import ConfigurationError

#: Names accepted by :func:`get_similarity`.
SIMILARITY_MEASURES = ("pearson", "euclidean", "cid")


def _unknown_measure(measure: str) -> ConfigurationError:
    """Single copy of the unknown-measure error, shared by every gate."""
    return ConfigurationError(
        f"unknown similarity measure {measure!r}; expected one of {SIMILARITY_MEASURES}"
    )


def pearson_from_dot_products(
    dot_products: np.ndarray,
    means: np.ndarray,
    stds: np.ndarray,
    query_index: int,
    window_size: int,
) -> np.ndarray:
    """Pearson correlations between the query subsequence and all others.

    Implements Eqn. 4 of the paper:

    ``c_{i,j} = (q_{i,j} - w * mu_i * mu_j) / (w * sigma_i * sigma_j)``

    Parameters
    ----------
    dot_products:
        ``q[i]`` = dot product between subsequence ``i`` and the query
        subsequence, length ``m``.
    means, stds:
        Per-offset subsequence means and (floored) standard deviations.
    query_index:
        Offset of the query subsequence (the newest one in streaming use).
    window_size:
        Subsequence width ``w``.

    Returns
    -------
    numpy.ndarray
        Correlations clipped to ``[-1, 1]``.  Pairs with a zero denominator
        (a constant subsequence whose std was not floored by the caller)
        deterministically correlate 0.0 instead of dividing by zero.
    """
    w = float(window_size)
    return pearson_from_scaled_stats(
        dot_products, means * w, stds * w, means[query_index], stds[query_index]
    )


def pearson_from_scaled_stats(
    dot_products: np.ndarray,
    w_means: np.ndarray,
    w_stds: np.ndarray,
    query_mean,
    query_std,
    floored_stds: bool = False,
) -> np.ndarray:
    """Eqn. 4 from the statistics scaled by the width, ``w·μ`` and ``w·σ``.

    The single copy of the correlation arithmetic: every caller holding raw
    means and stds (:func:`pearson_from_dot_products`,
    :func:`get_similarity`) scales them first, and the streaming k-NN keeps
    them scaled.  With ``(B, m)`` dot products and statistics and ``(B, 1)``
    query columns it correlates ``B`` queries in one call, each row
    bit-identical to its own 1-d call.

    Five passes over the row, in place in two fresh buffers:
    ``numerator = dot_products - (w·μ) * query_mean`` and ``denominator =
    (w·σ) * query_std`` (the operands of ``(μ * w) * μ_q`` and
    ``(σ * w) * σ_q``, in that order), the division, then the clip to
    ``[-1, 1]`` in place, one pass that equals a ``maximum`` then a
    ``minimum`` bit for bit, NaN included.  Denominators that are not
    positive correlate 0.0; finding them costs a sixth pass, a ``min``
    scan, which a caller skips with ``floored_stds=True`` when every std
    (the query's too) is at least the k-NN's floor of ``1e-8``: a product
    ``w·σ·σ_q`` of such values cannot round to zero, so the scan could not
    fire.
    """
    corr = np.multiply(w_means, query_mean)
    np.subtract(dot_products, corr, out=corr)
    denominator = np.multiply(w_stds, query_std)
    if floored_stds or (denominator.size and denominator.min() > 0.0):
        np.divide(corr, denominator, out=corr)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(corr, denominator, out=corr)
        corr[np.logical_not(denominator > 0.0)] = 0.0
    np.clip(corr, -1.0, 1.0, out=corr)
    return corr


def squared_distance_from_correlation(
    correlations: np.ndarray, window_size: int
) -> np.ndarray:
    """Convert Pearson correlations to squared z-normalised Euclidean distances.

    For z-normalised subsequences of length ``w`` the identity
    ``dist^2 = 2 * w * (1 - corr)`` holds (Mueen et al.), which keeps the
    Euclidean measure expressible through the same dot products.
    """
    return 2.0 * float(window_size) * (1.0 - np.clip(correlations, -1.0, 1.0))


def cid_factor(complexities: np.ndarray, query_index: int) -> np.ndarray:
    """Complexity-invariance correction factor of Batista et al.

    ``CF(i, j) = max(CE_i, CE_j) / min(CE_i, CE_j)`` where ``CE`` is the norm
    of the first difference of a subsequence.  A small floor keeps flat
    subsequences from dividing by zero.
    """
    return _cid_factor(complexities, complexities[query_index])


def _cid_factor(complexities: np.ndarray, query_complexity) -> np.ndarray:
    """:func:`cid_factor` with the query's complexity passed in (scalar or column)."""
    ce = np.maximum(complexities, 1e-8)
    ce_query = np.maximum(query_complexity, 1e-8)
    high = np.maximum(ce, ce_query)
    low = np.minimum(ce, ce_query)
    return high / low


def similarity_profile(
    measure: str,
    dot_products: np.ndarray,
    means: np.ndarray,
    stds: np.ndarray,
    query_index: int,
    window_size: int,
    complexities: np.ndarray | None = None,
) -> np.ndarray:
    """Similarity of every subsequence to the query (higher = more similar).

    One-off form of :func:`get_similarity` over raw means and stds (the
    streaming k-NN resolves :func:`get_similarity_from_stats` once and keeps
    its statistics scaled); it guarantees a "higher is better" orientation
    so the k-NN search is always an arg-k-max.
    """
    profile = get_similarity(measure)
    return profile(dot_products, means, stds, query_index, window_size, complexities)


def get_similarity_from_stats(measure: str) -> Callable[..., np.ndarray]:
    """Return the measure's expressions over the width-scaled statistics.

    The returned ``rows(dots, w_means, w_stds, query_means, query_stds, w,
    comps, query_comps, floored=False)`` is the single copy of each
    measure's arithmetic.  ``w_means`` and ``w_stds`` are ``w·μ`` and
    ``w·σ`` per offset; the query's mean and std are raw, and ``comps`` and
    ``query_comps`` are None except for CID.  :func:`get_similarity` scales
    raw statistics and calls it; the streaming k-NN keeps them scaled and
    calls it directly (per point through the numpy backend's
    ``similarity_kernel``).  Given ``(B, m)`` profiles and statistics with
    ``(B, 1)`` query columns it scores ``B`` queries per call, each row
    bit-identical to the 1-d call — the block step of the streaming k-NN
    relies on that.  ``floored`` skips the zero-denominator scan, see
    :func:`pearson_from_scaled_stats`.
    """
    if measure == "pearson":

        def rows(
            dots, w_means, w_stds, query_means, query_stds, w, comps, query_comps, floored=False
        ):
            return pearson_from_scaled_stats(
                dots, w_means, w_stds, query_means, query_stds, floored
            )

    elif measure == "euclidean":

        def rows(
            dots, w_means, w_stds, query_means, query_stds, w, comps, query_comps, floored=False
        ):
            corr = pearson_from_scaled_stats(
                dots, w_means, w_stds, query_means, query_stds, floored
            )
            dist_sq = squared_distance_from_correlation(corr, w)
            return -np.sqrt(np.maximum(dist_sq, 0.0))

    elif measure == "cid":

        def rows(
            dots, w_means, w_stds, query_means, query_stds, w, comps, query_comps, floored=False
        ):
            if comps is None:
                raise ConfigurationError("CID similarity requires subsequence complexities")
            corr = pearson_from_scaled_stats(
                dots, w_means, w_stds, query_means, query_stds, floored
            )
            dist_sq = squared_distance_from_correlation(corr, w)
            dist = np.sqrt(np.maximum(dist_sq, 0.0))
            return -dist * _cid_factor(comps, query_comps)

    else:
        raise _unknown_measure(measure)

    rows.__name__ = f"{measure}_rows"
    return rows


def get_similarity(measure: str) -> Callable[..., np.ndarray]:
    """Return the measure-specialised similarity-profile function over raw statistics.

    Dispatch on the measure name happens exactly once, here.  The returned
    ``profile(dot_products, means, stds, query_index, window_size,
    complexities=None)`` scales the means and stds by the width and calls
    :func:`get_similarity_from_stats`'s expressions, so its result is
    bit-identical to theirs.
    """
    rows = get_similarity_from_stats(measure)

    def profile(
        dot_products: np.ndarray,
        means: np.ndarray,
        stds: np.ndarray,
        query_index: int,
        window_size: int,
        complexities: np.ndarray | None = None,
    ) -> np.ndarray:
        w = float(window_size)
        query_complexity = None if complexities is None else complexities[query_index]
        return rows(
            dot_products,
            means * w,
            stds * w,
            means[query_index],
            stds[query_index],
            window_size,
            complexities,
            query_complexity,
        )

    profile.__name__ = f"{measure}_profile"
    return profile


def pairwise_similarity_matrix(
    values: np.ndarray, window_size: int, measure: str = "pearson"
) -> np.ndarray:
    """Dense pairwise similarity matrix between all subsequences (batch helper).

    Used by the batch ClaSP baseline and by tests as a brute-force reference.
    O(m^2 * w) — only suitable for short series.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    m = n - window_size + 1
    if m < 1:
        raise ConfigurationError("series shorter than window size")
    subs = np.lib.stride_tricks.sliding_window_view(values, window_size)
    means = subs.mean(axis=1)
    stds = np.maximum(subs.std(axis=1), 1e-8)
    dots = subs @ subs.T
    corr = (dots - window_size * np.outer(means, means)) / (
        window_size * np.outer(stds, stds)
    )
    corr = np.clip(corr, -1.0, 1.0)
    if measure == "pearson":
        return corr
    dist = np.sqrt(np.maximum(2.0 * window_size * (1.0 - corr), 0.0))
    if measure == "euclidean":
        return -dist
    if measure == "cid":
        diffs = np.diff(subs, axis=1)
        ce = np.maximum(np.sqrt((diffs * diffs).sum(axis=1)), 1e-8)
        factor = np.maximum.outer(ce, ce) / np.minimum.outer(ce, ce)
        return -dist * factor
    raise _unknown_measure(measure)
