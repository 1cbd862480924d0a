"""Tests for the incremental ClaSP scoring path.

Four pillars, mirroring the contract of the scoring path:

* the threshold cache maintained inside :class:`StreamingKNN` always equals a
  fresh ``prediction_thresholds`` computation over the current k-NN table —
  through evictions, backing-array and table compactions, resets, change
  point region shifts and ``relearn_width`` rebuilds;
* the fused score kernel is bit-identical to every reference implementation
  on randomized k-NN tables (including the lazily materialised confusion
  counts);
* every ClaSS scoring pass, across k-NN modes and scoring intervals, equals
  the reference cross-validations evaluated on the scored region's k-NN
  table, and so do the significance gate's labels;
* every scoring pass the score-threshold gate prunes or scores only in
  part equals, in what it reports and in its lazily built profile, the full
  pass it replaced; the bound's histograms, kept as prefix sums and
  updated pass to pass, always equal the running sums of a fresh count of
  the scored region, and the bound equals its plain expression.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.core import class_segmenter
from repro.core.class_segmenter import PRUNE_MIN_SPLITS, ClaSS
from repro.core.cross_val import (
    breakpoints_from_thresholds,
    cross_val_scores_from_thresholds,
    cross_val_scores_incremental,
    cross_val_scores_naive,
    cross_val_scores_vectorised,
    prediction_thresholds,
    predictions_for_split,
    valid_splits,
)
from repro.core.kernels import available_backends, get_backend
from repro.core.profile import ClaSPProfile
from repro.core.scoring import (
    BOUND_BLOCK,
    BreakpointHistograms,
    confusion_prefix_counts,
    fused_split_scores,
    split_score_bound,
)
from repro.core.significance import ChangePointSignificanceTest
from repro.core.streaming_knn import PADDING_INDEX, StreamingKNN
from repro.utils.exceptions import ConfigurationError


@pytest.fixture(autouse=True)
def _in_process(in_process_scoring):
    """The audits read the caller's scoring state (but see TestAuditedGateInTheScorer)."""


def scores_from_table(knn, exclusion, score="macro_f1"):
    """The product scoring path over a plain k-NN table (thresholds sorted once)."""
    return cross_val_scores_from_thresholds(prediction_thresholds(knn), exclusion, score)


def majority_vote(knn, split):
    """Each subsequence's k-NN label for ``split``, by definition (ties are 0)."""
    ones = (knn >= split).sum(axis=1)
    return np.where(knn.shape[1] - ones >= ones, 0, 1)


def cached_thresholds_window(knn: StreamingKNN) -> np.ndarray:
    """The cached thresholds converted to window-relative coordinates."""
    view = knn.region_view(0)
    cached = view.thresholds.copy()
    return np.where(cached == PADDING_INDEX, PADDING_INDEX, cached - view.offset)


def assert_cache_consistent(knn: StreamingKNN) -> None:
    """Cached thresholds must equal a fresh computation over the live table."""
    if knn.n_subsequences < 2:
        return
    fresh = prediction_thresholds(knn.knn_indices)
    np.testing.assert_array_equal(cached_thresholds_window(knn), fresh)


class TestThresholdCacheConsistency:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_cache_through_evictions_and_compactions(self, rng, k):
        # stream length covers several window turnovers: the backing array
        # compacts every d evictions and the k-NN tables every m evictions
        knn = StreamingKNN(window_size=180, subsequence_width=12, k_neighbours=k)
        values = rng.normal(size=800)
        for position, _ in enumerate(knn.update_many(values)):
            if position % 29 == 0:
                assert_cache_consistent(knn)
        assert_cache_consistent(knn)

    def test_cache_after_reset_and_reingest(self, rng):
        knn = StreamingKNN(window_size=150, subsequence_width=10)
        collections.deque(knn.update_many(rng.normal(size=400)), maxlen=0)
        knn.reset()
        assert np.all(knn.region_view(0).thresholds.shape == (0,))
        collections.deque(knn.update_many(rng.normal(size=260)), maxlen=0)
        assert_cache_consistent(knn)

    def test_cache_after_change_point_region_shift(self, sine_square_stream):
        values, _ = sine_square_stream
        segmenter = ClaSS(window_size=1_500, subsequence_width=25, scoring_interval=10)
        segmenter.process(values)
        assert segmenter.change_points.size >= 1
        assert_cache_consistent(segmenter._knn)
        # the scored-region view must agree with the fresh region table
        region_start = segmenter._state.last_change_point_offset
        view = segmenter._knn.region_view(region_start)
        region_knn = segmenter._knn.knn_indices[region_start:] - region_start
        if region_knn.shape[0] >= 2:
            fresh = prediction_thresholds(region_knn)
            cached = np.where(
                view.thresholds == PADDING_INDEX,
                PADDING_INDEX - region_start,
                view.thresholds - view.offset,
            )
            np.testing.assert_array_equal(cached, fresh)

    def test_cache_after_relearn_width_rebuild(self, sine_square_stream):
        values, _ = sine_square_stream
        segmenter = ClaSS(
            window_size=1_500, subsequence_width=25, scoring_interval=10, relearn_width=True
        )
        segmenter.process(values)
        assert_cache_consistent(segmenter._knn)

    def test_region_view_rejects_out_of_range_start(self, rng):
        knn = StreamingKNN(window_size=120, subsequence_width=10)
        collections.deque(knn.update_many(rng.normal(size=120)), maxlen=0)
        with pytest.raises(ConfigurationError):
            knn.region_view(knn.n_subsequences + 1)
        with pytest.raises(ConfigurationError):
            knn.region_view(-1)

    def test_region_view_returns_views_not_copies(self, rng):
        knn = StreamingKNN(window_size=120, subsequence_width=10)
        collections.deque(knn.update_many(rng.normal(size=120)), maxlen=0)
        view = knn.region_view(0)
        assert view.thresholds.base is not None
        assert view.knn_indices.base is not None
        assert view.thresholds.shape[0] == knn.n_subsequences
        assert view.knn_indices.shape[0] == knn.n_subsequences


class TestFusedKernelEquivalence:
    @pytest.mark.parametrize("score", ["macro_f1", "accuracy"])
    def test_fused_scores_bit_identical_to_all_oracles(self, rng, score):
        for _ in range(25):
            m = int(rng.integers(12, 180))
            k = int(rng.integers(1, 6))
            exclusion = int(rng.integers(1, 10))
            knn = rng.integers(-8, m, size=(m, k))
            scored = scores_from_table(knn, exclusion, score)
            for oracle in (
                cross_val_scores_vectorised,
                cross_val_scores_incremental,
                cross_val_scores_naive,
            ):
                reference = oracle(knn, exclusion, score)
                np.testing.assert_array_equal(scored.splits, reference.splits)
                np.testing.assert_array_equal(scored.scores, reference.scores)

    def test_lazy_confusion_counts_match_vectorised(self, rng):
        knn = rng.integers(-5, 90, size=(90, 3))
        scored = scores_from_table(knn, exclusion=6)
        reference = cross_val_scores_vectorised(knn, exclusion=6)
        np.testing.assert_array_equal(scored.n00, reference.n00)
        np.testing.assert_array_equal(scored.n01, reference.n01)
        np.testing.assert_array_equal(scored.n10, reference.n10)
        np.testing.assert_array_equal(scored.n11, reference.n11)

    def test_offset_thresholds_equal_shifted_table(self, rng):
        # consuming global-coordinate thresholds with an offset must equal
        # scoring the materialised region-relative table
        m, offset = 120, 37
        knn = rng.integers(-5, m, size=(m, 4))
        thresholds = prediction_thresholds(knn)
        shifted = cross_val_scores_from_thresholds(
            thresholds + offset, exclusion=8, offset=offset
        )
        reference = cross_val_scores_vectorised(knn, exclusion=8)
        np.testing.assert_array_equal(shifted.scores, reference.scores)

    def test_predictions_for_split_with_offset(self, rng):
        knn = rng.integers(-5, 80, size=(80, 3))
        thresholds = prediction_thresholds(knn)
        for split in (10, 40, 70):
            expected = majority_vote(knn, split)
            np.testing.assert_array_equal(predictions_for_split(thresholds, split), expected)
            shifted = predictions_for_split(thresholds + 11, split, offset=11)
            np.testing.assert_array_equal(shifted, expected)

    def test_fused_kernel_rejects_unknown_score(self):
        with pytest.raises(ConfigurationError):
            fused_split_scores(np.zeros(5, dtype=np.int64), np.arange(1, 3), 5, score="roc")

    def test_from_thresholds_validates_input(self):
        with pytest.raises(ConfigurationError):
            cross_val_scores_from_thresholds(np.zeros((3, 2), dtype=np.int64), exclusion=1)
        with pytest.raises(ConfigurationError):
            cross_val_scores_from_thresholds(np.zeros(1, dtype=np.int64), exclusion=1)

    def test_empty_result_when_exclusion_too_large(self):
        result = cross_val_scores_from_thresholds(np.arange(10, dtype=np.int64), exclusion=9)
        assert result.scores.size == 0
        assert result.n00.size == 0  # eager empties, no lazy materialisation

    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        m=st.integers(min_value=8, max_value=3_000),
        exclusion=st.integers(min_value=1, max_value=200),
        drift=st.integers(min_value=0, max_value=400),
        offset=st.integers(min_value=0, max_value=50_000),
        score=st.sampled_from(["macro_f1", "accuracy"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_split_score_bound_covers_every_split(self, seed, m, exclusion, drift, offset, score):
        # thresholds near each subsequence's own id, as in a real region,
        # plus padded and left-of-region neighbours
        rng = np.random.default_rng(seed)
        thresholds = offset + np.arange(m) + rng.integers(-drift - 1, drift + 1, m)
        thresholds[rng.random(m) < 0.05] = PADDING_INDEX
        splits = valid_splits(m, exclusion)
        if splits.size == 0:
            return
        pred_zero_from = breakpoints_from_thresholds(thresholds, m, offset)
        best = fused_split_scores(pred_zero_from, splits, m, score).max()
        histograms = BreakpointHistograms()
        histograms.update(thresholds, offset, None)
        edges = histograms.block_edges(int(splits[0]), int(splits[-1]))
        bounds = split_score_bound(*edges, m, score)
        assert bounds.max() >= best - 1e-12
        # the blocks tile the splits, and their edge counts bound the exact ones
        first_split, last_split, pred0_first, pred0_last, n00_last = edges
        scores = fused_split_scores(pred_zero_from, splits, m, score)
        for bound, first, last in zip(bounds, first_split, last_split):
            assert bound >= scores[first - splits[0] : last - splits[0] + 1].max() - 1e-12
        np.testing.assert_array_equal(first_split[1:], last_split[:-1] + 1)
        assert (first_split[0], last_split[-1]) == (splits[0], splits[-1])
        assert np.all(last_split - first_split < BOUND_BLOCK)
        n00, pred0 = confusion_prefix_counts(pred_zero_from, np.arange(m + 1), m)
        assert np.all(pred0_first <= pred0[first_split])
        assert np.all(pred0_last >= pred0[last_split])
        assert np.all(n00_last >= n00[last_split])
        # only the first block's lower and the last block's upper bin edge can
        # lie beyond its splits; the others are one split before and at them
        np.testing.assert_array_equal(pred0_first[1:], pred0[first_split[1:] - 1])
        np.testing.assert_array_equal(pred0_last[:-1], pred0[last_split[:-1]])
        np.testing.assert_array_equal(n00_last[:-1], n00[last_split[:-1]])


def expression_bound(first_split, last_split, pred0_first, pred0_last, n00_last, m, score):
    """:func:`split_score_bound` written as the plain expression over integer counts."""
    a, b = first_split, last_split
    n11_hi = (m - a) - pred0_first + n00_last
    if score == "macro_f1":
        class0 = 2.0 * n00_last / (pred0_first + a)
        class1 = 2.0 * n11_hi / ((m - pred0_last) + (m - b))
    else:
        class0 = n00_last / a
        class1 = n11_hi / (m - b)
    return 0.5 * (np.minimum(class0, 1.0) + np.minimum(class1, 1.0))


class TestSplitScoreBoundEqualsItsExpression:
    """The bound over float counts, each class term halved, equals the integer expression."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        m=st.integers(min_value=3, max_value=40_000),
        n_blocks=st.integers(min_value=1, max_value=700),
        score=st.sampled_from(["macro_f1", "accuracy"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_equal_to_the_expression(self, seed, m, n_blocks, score):
        rng = np.random.default_rng(seed)
        first_split = np.sort(rng.integers(1, m, n_blocks))
        last_split = np.minimum(first_split + rng.integers(0, BOUND_BLOCK, n_blocks), m - 1)
        pred0 = np.sort(rng.integers(0, m + 1, n_blocks + 1))
        pred0_first, pred0_last = pred0[:-1], pred0[1:]
        n00_last = rng.integers(0, pred0_last + 1)
        if rng.random() < 0.3:  # counts at the ends of their ranges
            n00_last = np.where(rng.random(n_blocks) < 0.5, pred0_last, 0)
        counts = (pred0_first, pred0_last, n00_last)
        expected = expression_bound(first_split, last_split, *counts, m, score)
        floats = [count.astype(np.float64) for count in counts]
        for given_counts in (counts, floats):
            bound = split_score_bound(first_split, last_split, *given_counts, m, score)
            np.testing.assert_array_equal(bound, expected)
        assert bound.dtype == np.float64


def two_regime_stream(rng, half=650):
    t = np.arange(half)
    values = np.concatenate(
        [np.sin(2 * np.pi * t / 22), 2.0 * np.sign(np.sin(2 * np.pi * t / 55))]
    )
    return values + rng.normal(0.0, 0.1, 2 * half)


@contextlib.contextmanager
def oracle_checked_passes(*oracles):
    """Check every ClaSS scoring pass against the reference cross-validations.

    After each pass, ``last_profile`` must equal every oracle evaluated on
    the scored region's k-NN table, and the significance gate's labels at the
    best split must equal the majority vote of that table.  Yields the list
    of the checked passes' region sizes.
    """
    checked: list[int] = []
    maybe_score = ClaSS._maybe_score

    def checked_maybe_score(self, force=False):
        before = self._last_profile
        region_start = self._state.last_change_point_offset
        change_point = maybe_score(self, force)
        if self._last_profile is before:  # no pass: region too short
            return change_point
        profile = self.last_profile
        region_knn = self._knn.knn_indices[region_start:] - region_start
        exclusion = self.excl_factor * self._width
        for oracle in oracles:
            reference = oracle(region_knn, exclusion, self.score)
            assert np.array_equal(profile.splits, reference.splits), oracle.__name__
            assert np.array_equal(profile.scores, reference.scores), oracle.__name__
        if profile.splits.size:
            split, _ = profile.global_maximum()
            region = self._knn.region_view(region_start)
            labels = predictions_for_split(region.thresholds, split, region.offset)
            assert np.array_equal(labels, majority_vote(region_knn, split))
        checked.append(region_knn.shape[0])
        return change_point

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ClaSS, "_maybe_score", checked_maybe_score)
        yield checked


class TestChangePointIdentity:
    """Pinned: every scoring pass equals the reference cross-validations."""

    @pytest.mark.parametrize("scoring_interval", [1, 7])
    def test_every_pass_matches_vectorised_and_incremental(self, rng, scoring_interval):
        values = two_regime_stream(rng)
        segmenter = ClaSS(window_size=650, subsequence_width=20, scoring_interval=scoring_interval)
        with oracle_checked_passes(
            cross_val_scores_vectorised, cross_val_scores_incremental
        ) as checked:
            segmenter.process(values)
        assert len(segmenter.change_points) >= 1  # the grid must actually detect
        # passes over the whole window and over the region after the change point
        assert max(checked) == segmenter._knn.n_subsequences > min(checked)

    def test_every_pass_matches_naive(self, rng):
        values = two_regime_stream(rng, half=500)
        segmenter = ClaSS(window_size=500, subsequence_width=18, scoring_interval=25)
        with oracle_checked_passes(cross_val_scores_naive) as checked:
            segmenter.process(values)
        assert len(segmenter.change_points) >= 1
        assert checked

    def test_warmup_bulk_slice_matches_pointwise(self, rng):
        # the vectorised warm-up buffering must be behaviour-identical to the
        # per-point path, including a width learned mid-chunk
        values = two_regime_stream(rng, half=600)
        bulk = ClaSS(window_size=600, scoring_interval=5)
        bulk.process(values)
        pointwise = ClaSS(window_size=600, scoring_interval=5)
        for value in values:
            pointwise.update(float(value))
        assert bulk.n_seen == pointwise.n_seen
        assert bulk.subsequence_width_ == pointwise.subsequence_width_
        np.testing.assert_array_equal(bulk.change_points, pointwise.change_points)


# --------------------------------------------------------------------------- #
# threshold-pruned scoring passes
# --------------------------------------------------------------------------- #


def counted_afresh(thresholds, offset, origin, n_bins):
    """Both histograms of a region by definition: threshold and max(threshold, id) per bin."""
    ids = offset + np.arange(thresholds.shape[0])
    values = np.stack([thresholds, np.maximum(thresholds, ids)])
    bins = np.clip(values // BOUND_BLOCK - origin, 0, n_bins - 1)
    return np.stack([np.bincount(row, minlength=n_bins) for row in bins])


@contextlib.contextmanager
def audited_gate():
    """Check every gated ClaSS pass against the full pass of its region.

    The gate must bound exactly the regions of at least ``PRUNE_MIN_SPLITS``
    splits.  After it bounded one, the kept prefix sums must equal the
    running sums of a fresh count of the region over every bin (with the
    bins of every bounded block above the shared first bin), the kept copy
    must equal the region's thresholds
    and the bound must be at least the region's exact best score.  The pass
    must be pruned exactly when no block's bound reaches the gate's limit,
    and otherwise score the splits of the blocks whose bound reaches it,
    which hold every split whose exact score does.

    After the pass its lazily built ``last_profile`` must equal the full
    profile, computed once per gated pass before anything is reported.  A
    pruned pass must have a best score below the threshold and test and
    report nothing.  A localised pass must test the full profile's best
    split, and report it with its score, whenever that score reaches the
    threshold, and test nothing otherwise.  Yields a dict from pass kind
    (``"pruned"``, ``"localised"``) to the ``(bound, best)`` pairs of its
    passes.
    """
    audited: dict[str, list[tuple[float, float]]] = collections.defaultdict(list)
    maybe_score, gate = ClaSS._maybe_score, ClaSS._gate
    significance_test = ChangePointSignificanceTest.test
    gated: list[tuple] = []  # the gated pass of the running _maybe_score
    tested: list[int] = []

    def checked_gate(self, region, exclusion, placement):
        splits = gate(self, region, exclusion, placement)
        m = region.thresholds.shape[0]
        assert (splits is None) == (valid_splits(m, exclusion).size < PRUNE_MIN_SPLITS)
        if splits is None:
            return splits
        histograms = self._histograms
        np.testing.assert_array_equal(histograms.thresholds, region.thresholds)
        assert histograms.offset == region.offset
        assert histograms.origin < region.offset // BOUND_BLOCK
        expected = counted_afresh(
            region.thresholds, region.offset, histograms.origin, histograms.prefix.shape[1]
        )
        np.testing.assert_array_equal(histograms.prefix, np.cumsum(expected, axis=1))
        low = max(1, exclusion)
        edges = histograms.block_edges(low, m - low)
        bounds = split_score_bound(*edges, m, self.score)
        full = cross_val_scores_from_thresholds(
            region.thresholds, exclusion, self.score, region.offset, self._kernels
        )
        assert bounds.max() >= full.scores.max() - 1e-12
        limit = self.score_threshold - class_segmenter.PRUNE_MARGIN
        reach = bounds >= limit
        within = [np.arange(a, b + 1) for a, b in zip(edges[0][reach], edges[1][reach])]
        np.testing.assert_array_equal(splits, np.concatenate(within or [splits]))
        assert np.isin(full.splits[full.scores >= limit], splits).all()
        kind = "localised" if splits.size else "pruned"
        region_start = self._state.last_change_point_offset
        window_start = self.n_seen - self._knn.n_buffered
        gated.append((kind, full, (region_start, window_start), float(bounds.max())))
        return splits

    def recording_test(self, y_pred, split):
        tested.append(int(split))
        return significance_test(self, y_pred, split)

    def audited_maybe_score(self, force=False):
        gated.clear()
        tested.clear()
        reports = len(self._state.reports)
        change_point = maybe_score(self, force)
        if not gated:
            return change_point
        ((kind, full, placement, bound),) = gated
        lazy = self.last_profile
        np.testing.assert_array_equal(lazy.scores, full.scores)
        np.testing.assert_array_equal(lazy.splits, full.splits)
        assert (lazy.region_start, lazy.window_start_time) == placement
        best_split, best = ClaSPProfile(full.scores, full.splits).global_maximum()
        assert self.current_score == best
        if kind == "localised" and best >= self.score_threshold:
            assert tested == [best_split]
            if change_point is not None:
                report = self._state.reports[-1]
                assert report.score == best
                assert report.change_point == placement[1] + placement[0] + best_split
        else:
            assert best < self.score_threshold
            assert not tested and change_point is None
            assert len(self._state.reports) == reports
        audited[kind].append((bound, float(best)))
        return change_point

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ClaSS, "_maybe_score", audited_maybe_score)
        patch.setattr(ClaSS, "_gate", checked_gate)
        patch.setattr(ChangePointSignificanceTest, "test", recording_test)
        yield audited


@contextlib.contextmanager
def pruning_disabled():
    """Score every pass in full (the reference the pruned runs must equal)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(class_segmenter, "PRUNE_MIN_SPLITS", 10**12)
        yield


def run_in_chunks(segmenter, values, chunk_size):
    """Stream ``values`` in calls of ``chunk_size``; reports and per-call scores."""
    scores = []
    for start in range(0, values.shape[0], chunk_size):
        segmenter.process(values[start : start + chunk_size], chunk_size=chunk_size)
        scores.append(segmenter.current_score)
    reports = [(r.change_point, r.detected_at, r.score, r.p_value) for r in segmenter.reports]
    return reports, scores


def prunable_maxima(values, config):
    """Best score of every full pass of at least PRUNE_MIN_SPLITS splits."""
    maxima: list[float] = []

    def recording(*args, **kwargs):
        result = cross_val_scores_from_thresholds(*args, **kwargs)
        if result.splits.size >= PRUNE_MIN_SPLITS:
            maxima.append(float(result.scores.max()))
        return result

    with pruning_disabled(), pytest.MonkeyPatch.context() as patch:
        patch.setattr(class_segmenter, "cross_val_scores_from_thresholds", recording)
        ClaSS(**config).process(values)
    return maxima


#: A window whose regions exceed the pruning gate once they are long, so a
#: run scores on both sides of it.
PRUNE_WINDOW = dict(window_size=1_500, subsequence_width=20)


class TestThresholdPruning:
    """Pinned: pruning changes no report, score, profile or checkpoint."""

    @given(
        score=st.sampled_from(["macro_f1", "accuracy"]),
        k_neighbours=st.sampled_from([1, 3, 4]),
        excl_factor=st.sampled_from([1, 2, 5]),
        scoring_interval=st.sampled_from([1, 3, 8]),
        chunk_size=st.sampled_from([1, 7, 256, 1_024]),
        relearn_width=st.booleans(),
        quantile=st.floats(min_value=0.8, max_value=1.0),
        nudge=st.sampled_from([-1e-12, 0.0, 1e-12, 0.03, 0.1]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=8, deadline=None)
    def test_pruned_passes_equal_full_passes(
        self,
        score,
        k_neighbours,
        excl_factor,
        scoring_interval,
        chunk_size,
        relearn_width,
        quantile,
        nudge,
        seed,
    ):
        values = two_regime_stream(np.random.default_rng(seed), half=1_500)
        config = dict(
            PRUNE_WINDOW,
            score=score,
            k_neighbours=k_neighbours,
            excl_factor=excl_factor,
            scoring_interval=scoring_interval,
            relearn_width=relearn_width,
        )
        # thresholds near the best scores the prunable passes really reach
        maxima = prunable_maxima(values, config)
        threshold = float(np.quantile(maxima, quantile)) + nudge if maxima else 0.75
        config["score_threshold"] = min(max(threshold, 0.0), 1.0)
        with pruning_disabled():
            expected = run_in_chunks(ClaSS(**config), values, chunk_size)
        with audited_gate():
            assert run_in_chunks(ClaSS(**config), values, chunk_size) == expected

    def test_gate_prunes_only_long_regions(self):
        values = two_regime_stream(np.random.default_rng(3), half=1_500)
        passes = []

        def counting(*args, **kwargs):
            result = cross_val_scores_from_thresholds(*args, **kwargs)
            passes.append(int(result.splits.size))
            return result

        with audited_gate() as audited, pytest.MonkeyPatch.context() as patch:
            patch.setattr(class_segmenter, "cross_val_scores_from_thresholds", counting)
            segmenter = ClaSS(**PRUNE_WINDOW, score_threshold=0.97)
            segmenter.process(values)
        assert audited["pruned"] and audited["localised"]
        # only the short regions are scored in full
        assert passes and max(passes) < PRUNE_MIN_SPLITS

    def test_tied_scores_report_the_first_best_split(self):
        # scores floored to sixteenths tie often at the top, and a floor
        # keeps the bound above every score
        values = two_regime_stream(np.random.default_rng(11), half=1_500)
        backend = get_backend("numpy")
        fused = backend.fused_split_scores
        tied = []

        def coarse(pred_zero_from, splits, n_subsequences, score="macro_f1"):
            scores = np.floor(fused(pred_zero_from, splits, n_subsequences, score) * 16) / 16
            top = scores.max(initial=0.0)
            tied.append(top >= 0.75 and np.count_nonzero(scores == top) > 1)
            return scores

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(type(backend), "fused_split_scores", staticmethod(coarse))
            with pruning_disabled():
                expected = run_in_chunks(ClaSS(**PRUNE_WINDOW), values, 256)
            with audited_gate() as audited:
                assert run_in_chunks(ClaSS(**PRUNE_WINDOW), values, 256) == expected
        assert audited["localised"] and any(tied) and expected[0]

    def test_relearn_width_mid_chunk(self):
        values = two_regime_stream(np.random.default_rng(5), half=1_500)
        config = dict(PRUNE_WINDOW, scoring_interval=3, relearn_width=True)
        with pruning_disabled():
            expected = run_in_chunks(ClaSS(**config), values, 1_024)
        with audited_gate() as audited:
            segmenter = ClaSS(**config)
            assert run_in_chunks(segmenter, values, 1_024) == expected
        assert audited["pruned"] and audited["localised"] and expected[0]  # and a change point
        assert segmenter.subsequence_width_ != PRUNE_WINDOW["subsequence_width"]

    def test_checkpoint_resume_mid_chunk(self):
        values = two_regime_stream(np.random.default_rng(7), half=1_500)
        config = dict(PRUNE_WINDOW, scoring_interval=2)
        uninterrupted = ClaSS(**config)
        expected = run_in_chunks(uninterrupted, values, 1_024)
        first = ClaSS(**config)
        first.process(values[:1_700])  # 1,024 + 676: the cut is mid-chunk
        resumed = ClaSS()
        resumed.load_state(pickle.loads(pickle.dumps(first.save_state())))
        with audited_gate() as audited:
            resumed.process(values[1_700:])
        assert audited["pruned"]
        reports = [(r.change_point, r.detected_at, r.score, r.p_value) for r in resumed.reports]
        assert reports == expected[0]
        assert resumed.current_score == uninterrupted.current_score

    @pytest.mark.parametrize("backend", available_backends())
    def test_every_kernel_backend(self, backend):
        # the numpy run reaches the long regions; a checkpoint hands them to
        # the backend (slow loop backends only stream the last stretch)
        values = two_regime_stream(np.random.default_rng(9), half=1_500)[:1_450]
        config = dict(PRUNE_WINDOW, scoring_interval=4, score_threshold=0.97)
        reference = ClaSS(**config, kernel_backend="numpy")
        reference.process(values[:1_300])
        payload = reference.save_state()
        payload["config"]["kernel_backend"] = backend
        candidate = ClaSS()
        candidate.load_state(payload)
        assert candidate._kernels.name == backend
        reference.process(values[1_300:])
        with audited_gate() as audited:
            candidate.process(values[1_300:])
        assert audited["pruned"]
        np.testing.assert_array_equal(candidate.last_profile.scores, reference.last_profile.scores)
        assert candidate.reports == reference.reports

    def test_score_now_and_pickle_with_a_pruned_pass(self):
        values = two_regime_stream(np.random.default_rng(3), half=1_500)
        segmenter = ClaSS(**PRUNE_WINDOW, score_threshold=0.97)
        segmenter.process(values[:1_450])
        assert isinstance(segmenter._last_profile, functools.partial)
        clone = pickle.loads(pickle.dumps(segmenter))  # the parallel ensemble ships these
        np.testing.assert_array_equal(clone.last_profile.scores, segmenter.last_profile.scores)
        # score_now always runs the full pass, even past a gate that prunes all
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ClaSS, "_gate", lambda *a: np.empty(0, dtype=np.int64))
            profile = segmenter.score_now()
        assert not isinstance(segmenter._last_profile, functools.partial)
        np.testing.assert_array_equal(profile.scores, clone.last_profile.scores)


class TestBreakpointHistograms:
    """Pinned: the bound's prefix sums, updated pass to pass, equal a fresh count's."""

    @given(
        score=st.sampled_from(["macro_f1", "accuracy"]),
        # a high threshold prunes most passes, the default localises more
        score_threshold=st.sampled_from([0.75, 0.97]),
        chunk_size=st.sampled_from([1, 7, 256, 1_024]),
        scoring_interval=st.sampled_from([1, 3, 8]),
        relearn_width=st.booleans(),
        gap_reset=st.booleans(),
        restore_at=st.sampled_from([None, 1_700, 2_900]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=12, deadline=None)
    def test_histograms_equal_a_fresh_count_after_every_bounded_pass(
        self,
        score,
        score_threshold,
        chunk_size,
        scoring_interval,
        relearn_width,
        gap_reset,
        restore_at,
        seed,
    ):
        # long enough for bounded passes before and after the change point
        # and after a re-warm-up
        values = two_regime_stream(np.random.default_rng(seed), half=2_250)
        config = dict(
            PRUNE_WINDOW,
            score=score,
            score_threshold=score_threshold,
            scoring_interval=scoring_interval,
            relearn_width=relearn_width,
        )
        if gap_reset:
            # an outage longer than max_gap: the policy layer calls reset_warmup
            values[2_600:2_640] = np.nan
            policy = {"nan_policy": "hold-last", "max_gap": 25, "reset_on_gap": True}
            config["data_policy"] = policy
        with audited_gate() as audited:
            segmenter = api.create("class", config)
            if restore_at is None:
                segmenter.process(values, chunk_size=chunk_size)
            else:
                segmenter.process(values[:restore_at], chunk_size=chunk_size)
                payload = pickle.loads(pickle.dumps(segmenter.save_state()))
                segmenter = api.create("class", config)
                segmenter.load_state(payload)  # the histograms restart empty
                segmenter.process(values[restore_at:], chunk_size=chunk_size)
        assert audited["pruned"]
        bounded = audited["pruned"] + audited["localised"]
        assert any(bound < best + 0.2 for bound, best in bounded)  # the bound is tight

    def test_histograms_are_derived_state(self):
        values = two_regime_stream(np.random.default_rng(3), half=1_500)
        segmenter = ClaSS(**PRUNE_WINDOW, scoring_interval=2)
        segmenter.process(values[:2_600])
        assert segmenter._histograms.thresholds is not None
        payload = segmenter.save_state()
        assert "histograms" not in str(sorted(payload))
        clone = pickle.loads(pickle.dumps(segmenter))  # the parallel ensemble ships these
        np.testing.assert_array_equal(clone._histograms.prefix, segmenter._histograms.prefix)
        segmenter.reset_warmup()
        assert segmenter._histograms.thresholds is None
        restored = ClaSS()
        restored.load_state(payload)
        assert restored._histograms.thresholds is None
        with audited_gate() as audited:
            clone.process(values[2_600:])
            restored.process(values[2_600:])
        assert audited["pruned"]
        assert clone.reports == restored.reports


class TestAuditedGateInTheScorer:
    """The gate audit also holds in a scorer process: it runs there, and its failures come home."""

    def test_the_audit_passes_in_the_scorer(self, pipelined_scoring):
        values = two_regime_stream(np.random.default_rng(3), half=1_500)
        config = dict(PRUNE_WINDOW, scoring_interval=2, score_threshold=0.9)
        with pruning_disabled():
            expected = run_in_chunks(ClaSS(**config), values, 256)
        with audited_gate() as audited:
            segmenter = ClaSS(**config)
            assert run_in_chunks(segmenter, values, 256) == expected
            assert segmenter._scorer is not None
        assert not audited["pruned"]  # audited in the scorer, not here
        assert expected[0]

    def test_a_failed_audit_in_the_scorer_fails_the_call(self, pipelined_scoring):
        # stale prefix sums: the scorer's audit finds them and the parent raises
        values = two_regime_stream(np.random.default_rng(3), half=1_500)
        with audited_gate(), pytest.MonkeyPatch.context() as patch:
            patch.setattr(BreakpointHistograms, "_move", lambda self, *args: True)
            segmenter = ClaSS(**PRUNE_WINDOW)
            with pytest.raises(AssertionError) as raised:
                segmenter.process(values, chunk_size=256)
        assert segmenter._scorer is None  # stopped by the error it sent home
        notes = getattr(raised.value, "__notes__", ["raised in the scorer process"])  # 3.11+
        assert any("raised in the scorer process" in note for note in notes)
