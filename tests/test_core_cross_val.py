"""Unit and property tests for the O(d) cross-validation (Algorithm 3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cross_val import (
    cross_val_scores_from_thresholds,
    cross_val_scores_incremental,
    cross_val_scores_naive,
    cross_val_scores_vectorised,
    prediction_thresholds,
    predictions_for_split,
)
from repro.core.scoring import confusion_from_labels, macro_f1_score
from repro.utils.exceptions import ConfigurationError


def _random_knn(rng, m=80, k=3, allow_negative=True):
    low = -10 if allow_negative else 0
    return rng.integers(low, m, size=(m, k))


class TestValidation:
    def test_rejects_1d_input(self, rng):
        with pytest.raises(ConfigurationError):
            cross_val_scores_vectorised(np.arange(10), exclusion=2)

    def test_rejects_single_row(self):
        with pytest.raises(ConfigurationError):
            cross_val_scores_vectorised(np.zeros((1, 3), dtype=int), exclusion=2)

    def test_empty_result_when_exclusion_too_large(self, rng):
        knn = _random_knn(rng, m=20)
        result = cross_val_scores_vectorised(knn, exclusion=15)
        assert result.scores.size == 0
        assert result.splits.size == 0


class TestPredictionThresholds:
    def test_majority_rule_k3(self):
        knn = np.array([[1, 5, 9], [0, 2, 4]])
        # prediction flips to 0 once 2 of 3 neighbours lie left of the split,
        # i.e. for splits > 5 (row 0) and splits > 2 (row 1)
        thresholds = prediction_thresholds(knn)
        assert thresholds[0] == 5
        assert thresholds[1] == 2

    def test_negative_neighbours_count_as_left(self):
        knn = np.array([[-3, -1, 9], [1, 2, 3]])
        thresholds = prediction_thresholds(knn)
        assert thresholds[0] == -1  # already 2 left-ish neighbours for any split > -1

    def test_predictions_for_split_consistency(self, rng):
        knn = _random_knn(rng, m=50)
        for split in (10, 25, 40):
            predictions = predictions_for_split(prediction_thresholds(knn), split)
            neighbour_labels = (knn >= split).astype(int)
            ones = neighbour_labels.sum(axis=1)
            zeros = knn.shape[1] - ones
            expected = np.where(zeros >= ones, 0, 1)
            np.testing.assert_array_equal(predictions, expected)


class TestImplementationEquivalence:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_all_three_agree(self, rng, k):
        knn = _random_knn(rng, m=120, k=k)
        results = {
            "from_thresholds": cross_val_scores_from_thresholds(
                prediction_thresholds(knn), exclusion=10
            ),
            "vectorised": cross_val_scores_vectorised(knn, exclusion=10),
            "incremental": cross_val_scores_incremental(knn, exclusion=10),
            "naive": cross_val_scores_naive(knn, exclusion=10),
        }
        reference = results["naive"]
        for name, result in results.items():
            np.testing.assert_array_equal(result.splits, reference.splits, err_msg=name)
            np.testing.assert_allclose(result.scores, reference.scores, atol=1e-9, err_msg=name)
            np.testing.assert_allclose(result.n00, reference.n00, err_msg=name)
            np.testing.assert_allclose(result.n11, reference.n11, err_msg=name)

    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        m=st.integers(min_value=12, max_value=150),
        k=st.integers(min_value=1, max_value=4),
        exclusion=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_vectorised_equals_incremental(self, seed, m, k, exclusion):
        rng = np.random.default_rng(seed)
        knn = rng.integers(-5, m, size=(m, k))
        vectorised = cross_val_scores_vectorised(knn, exclusion=exclusion)
        incremental = cross_val_scores_incremental(knn, exclusion=exclusion)
        np.testing.assert_array_equal(vectorised.splits, incremental.splits)
        np.testing.assert_allclose(vectorised.scores, incremental.scores, atol=1e-9)

    def test_accuracy_score_variant_agrees(self, rng):
        knn = _random_knn(rng, m=90)
        a = cross_val_scores_vectorised(knn, exclusion=8, score="accuracy")
        b = cross_val_scores_naive(knn, exclusion=8, score="accuracy")
        np.testing.assert_allclose(a.scores, b.scores, atol=1e-9)


class TestScoresAreMeaningful:
    def test_perfectly_separable_neighbourhood_scores_one(self):
        # Neighbours always point within the same half -> a split at the
        # boundary yields perfect classification.
        m = 60
        half = m // 2
        knn = np.empty((m, 3), dtype=np.int64)
        for i in range(m):
            if i < half:
                candidates = [j for j in (i - 2, i - 1, i + 1) if 0 <= j < half]
                while len(candidates) < 3:
                    candidates.append(max(i - 3, 0))
            else:
                candidates = [j for j in (i - 2, i - 1, i + 1) if half <= j < m]
                while len(candidates) < 3:
                    candidates.append(min(i + 3, m - 1))
            knn[i] = candidates[:3]
        result = cross_val_scores_vectorised(knn, exclusion=5)
        best_split, best_score = result.best_split()
        assert best_split == half
        assert best_score == pytest.approx(1.0)

    def test_scores_against_explicit_confusion(self, rng):
        knn = _random_knn(rng, m=70)
        result = cross_val_scores_vectorised(knn, exclusion=6)
        offsets = np.arange(knn.shape[0])
        for position in range(0, result.splits.shape[0], 11):
            split = int(result.splits[position])
            y_true = (offsets >= split).astype(int)
            y_pred = predictions_for_split(prediction_thresholds(knn), split)
            n00, n01, n10, n11 = confusion_from_labels(y_true, y_pred)
            expected = macro_f1_score(n00, n01, n10, n11)
            assert result.scores[position] == pytest.approx(float(expected), abs=1e-9)

    def test_scores_bounded_in_unit_interval(self, rng):
        knn = _random_knn(rng, m=100)
        result = cross_val_scores_vectorised(knn, exclusion=5)
        assert np.all(result.scores >= 0.0) and np.all(result.scores <= 1.0)
