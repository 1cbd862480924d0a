"""Unit and integration tests for the batch ClaSP baseline."""

import numpy as np
import pytest

from repro.core import clasp_batch
from repro.core.clasp_batch import ClaSP
from repro.core.cross_val import (
    cross_val_scores_from_thresholds,
    cross_val_scores_incremental,
    cross_val_scores_vectorised,
    prediction_thresholds,
)
from repro.core.streaming_knn import exact_knn_bruteforce
from repro.utils.exceptions import NotEnoughDataError


def _two_regime_series(rng, n=1_200, period_a=20, period_b=55):
    half = n // 2
    t = np.arange(half)
    values = np.concatenate(
        [np.sin(2 * np.pi * t / period_a), np.sin(2 * np.pi * t / period_b)]
    )
    return values + rng.normal(0, 0.05, n)


class TestConstruction:
    @pytest.mark.parametrize(
        "keyword",
        [{"cross_val_implementation": "fast"}, {"knn_backend": "streaming"}],
        ids=["cross_val_implementation", "knn_backend"],
    )
    def test_retired_keyword_is_rejected(self, keyword):
        with pytest.raises(TypeError):
            ClaSP(**keyword)


class TestProfile:
    def test_profile_peaks_near_true_change_point(self, rng):
        values = _two_regime_series(rng)
        clasp = ClaSP(subsequence_width=20)
        profile = clasp.profile(values)
        split, score = profile.global_maximum()
        assert abs(split - 600) < 60
        assert score > 0.8

    def test_too_short_series_raises(self, rng):
        clasp = ClaSP(subsequence_width=50)
        with pytest.raises(NotEnoughDataError):
            clasp.profile(rng.normal(size=120))

    def test_bruteforce_and_streaming_backends_agree(self, rng):
        values = _two_regime_series(rng, n=600)
        profile = ClaSP(subsequence_width=20).profile(values)
        indices, _ = exact_knn_bruteforce(values, 20, 3)
        brute = cross_val_scores_from_thresholds(prediction_thresholds(indices), exclusion=20)
        # the streaming k-NN builds neighbours causally with later updates, so
        # the profiles are close but not bitwise identical; the argmax must agree
        split, _ = profile.global_maximum()
        brute_split, _ = brute.best_split()
        assert abs(split - brute_split) < 40


class TestFitPredict:
    def test_detects_single_change_point(self, rng):
        values = _two_regime_series(rng)
        result = ClaSP(subsequence_width=20, n_change_points=1).fit_predict(values)
        assert result.n_segments == 2
        assert abs(int(result.change_points[0]) - 600) < 60

    def test_detects_two_change_points(self, rng):
        t = np.arange(700)
        values = np.concatenate(
            [
                np.sin(2 * np.pi * t / 18),
                2.0 * np.sign(np.sin(2 * np.pi * t / 60)),
                np.sin(2 * np.pi * t / 45),
            ]
        ) + rng.normal(0, 0.05, 2_100)
        result = ClaSP(subsequence_width=20).fit_predict(values)
        assert result.change_points.shape[0] >= 2
        assert any(abs(cp - 700) < 80 for cp in result.change_points)
        assert any(abs(cp - 1_400) < 80 for cp in result.change_points)

    def test_every_level_matches_the_reference_cross_validations(self, rng, monkeypatch):
        # the table is sorted into thresholds once, in profile(); every
        # recursion level scores a shifted slice of them
        t = np.arange(700)
        values = np.concatenate(
            [np.sin(2 * np.pi * t / 18), 2.0 * np.sign(np.sin(2 * np.pi * t / 60))]
        ) + rng.normal(0, 0.05, 1_400)
        levels = []

        def recording(thresholds, exclusion, score="macro_f1", offset=0):
            result = cross_val_scores_from_thresholds(thresholds, exclusion, score, offset)
            levels.append((offset, thresholds.shape[0], result))
            return result

        monkeypatch.setattr(clasp_batch, "cross_val_scores_from_thresholds", recording)
        result = ClaSP(subsequence_width=20).fit_predict(values)
        knn = result.profile.metadata["knn_indices"]
        np.testing.assert_array_equal(
            result.profile.metadata["thresholds"], prediction_thresholds(knn)
        )
        assert result.change_points.size >= 1
        assert len({(start, length) for start, length, _ in levels}) >= 3
        for start, length, scored in levels:
            local = knn[start : start + length] - start
            for oracle in (cross_val_scores_vectorised, cross_val_scores_incremental):
                reference = oracle(local, 20)
                np.testing.assert_array_equal(scored.splits, reference.splits)
                np.testing.assert_array_equal(scored.scores, reference.scores)

    def test_stationary_series_yields_no_change_points(self, rng):
        values = np.sin(2 * np.pi * np.arange(1_500) / 30) + rng.normal(0, 0.05, 1_500)
        result = ClaSP(subsequence_width=30).fit_predict(values)
        assert result.change_points.shape[0] == 0

    def test_learns_width_when_not_given(self, rng):
        values = _two_regime_series(rng)
        result = ClaSP().fit_predict(values)
        assert result.subsequence_width >= 10
