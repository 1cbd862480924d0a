"""Unit tests for the resampled rank-sum change point significance test."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.significance import (
    ChangePointSignificanceTest,
    binary_rank_sum_p_value,
    rank_sum_p_value,
)
from repro.utils.exceptions import ConfigurationError


def binary_sample(size: int, ones: int, seed: int) -> np.ndarray:
    """A shuffled float 0/1 sample of ``size`` labels, ``ones`` of them 1."""
    sample = np.zeros(size)
    sample[:ones] = 1.0
    return np.random.default_rng(seed).permutation(sample)


@st.composite
def side(draw):
    """(size, ones) of one sample: constant, nearly constant or mixed."""
    size = draw(st.integers(min_value=0, max_value=1_200))
    edges = st.sampled_from([0, size, min(1, size), max(size - 1, 0)])
    return size, draw(edges | st.integers(min_value=0, max_value=size))


class TestBinaryRankSum:
    """The gate's closed form must return exactly what scipy's test returns."""

    @given(left=side(), right=side(), seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=400, deadline=None)
    def test_equals_scipy_reference(self, left, right, seed):
        expected = rank_sum_p_value(binary_sample(*left, seed), binary_sample(*right, seed + 1))
        assert binary_rank_sum_p_value(*left, *right) == expected

    @pytest.mark.parametrize(
        "left, right",
        [
            ((500, 0), (500, 0)),  # both constant and equal
            ((500, 500), (300, 300)),
            ((500, 0), (300, 300)),  # both constant, different
            ((1, 1), (999, 0)),
            ((0, 0), (10, 4)),  # an empty side
            ((1_000, 0), (1_000, 1_000)),  # p underflows towards 0
        ],
    )
    def test_degenerate_and_extreme_cases(self, left, right):
        expected = rank_sum_p_value(binary_sample(*left, 0), binary_sample(*right, 1))
        assert binary_rank_sum_p_value(*left, *right) == expected

    def test_gate_matches_scipy_path_and_rng_stream(self, rng):
        # the closed-form gate draws the same resamples as ranking them
        y_pred = (rng.random(3_000) < np.linspace(0.2, 0.9, 3_000)).astype(float)
        gate = ChangePointSignificanceTest(random_state=5)
        reference = ChangePointSignificanceTest(random_state=5)
        for split in (40, 1_000, 2_100, 2_990):
            result = gate.test(y_pred, split)
            left, right = reference._resample(y_pred[:split], y_pred[split:])
            assert (result.statistic, result.p_value) == rank_sum_p_value(left, right)
        assert gate.rng_state() == reference.rng_state()

    def test_non_binary_labels_fall_back_to_ranking(self, rng):
        y_pred = rng.integers(0, 3, 800).astype(float)
        result = ChangePointSignificanceTest(random_state=5).test(y_pred, 400)
        reference = ChangePointSignificanceTest(random_state=5)
        left, right = reference._resample(y_pred[:400], y_pred[400:])
        assert (result.statistic, result.p_value) == rank_sum_p_value(left, right)


class TestRankSumPValue:
    def test_identical_constant_sides_not_significant(self):
        _, p = rank_sum_p_value(np.zeros(100), np.zeros(100))
        assert p == pytest.approx(1.0)

    def test_clearly_different_sides_significant(self):
        _, p = rank_sum_p_value(np.zeros(500), np.ones(500))
        assert p < 1e-50

    def test_empty_side_returns_one(self):
        _, p = rank_sum_p_value(np.array([]), np.ones(10))
        assert p == pytest.approx(1.0)

    def test_similar_distributions_not_extreme(self, rng):
        left = rng.integers(0, 2, 500).astype(float)
        right = rng.integers(0, 2, 500).astype(float)
        _, p = rank_sum_p_value(left, right)
        assert p > 1e-10


class TestChangePointSignificanceTest:
    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            ChangePointSignificanceTest(significance_level=0.0)
        with pytest.raises(ConfigurationError):
            ChangePointSignificanceTest(sample_size=1)

    def test_perfect_separation_is_significant(self):
        test = ChangePointSignificanceTest(significance_level=1e-50, sample_size=1_000)
        y_pred = np.concatenate([np.zeros(400), np.ones(400)])
        result = test.test(y_pred, split=400)
        assert result.significant
        assert result.p_value < 1e-50
        assert result.n_left == 400 and result.n_right == 400

    def test_random_labels_not_significant(self, rng):
        test = ChangePointSignificanceTest(significance_level=1e-50, sample_size=1_000)
        y_pred = rng.integers(0, 2, 800).astype(float)
        result = test.test(y_pred, split=400)
        assert not result.significant

    def test_boundary_split_rejected(self):
        test = ChangePointSignificanceTest()
        y_pred = np.ones(100)
        assert not test.test(y_pred, split=0).significant
        assert not test.test(y_pred, split=100).significant

    def test_variable_sample_size(self):
        test = ChangePointSignificanceTest(sample_size=None, significance_level=1e-10)
        y_pred = np.concatenate([np.zeros(200), np.ones(200)])
        assert test.test(y_pred, split=200).significant

    def test_resampling_is_reproducible(self):
        y_pred = np.concatenate([np.zeros(50), (np.arange(350) % 2)]).astype(float)
        a = ChangePointSignificanceTest(random_state=11).test(y_pred, split=50)
        b = ChangePointSignificanceTest(random_state=11).test(y_pred, split=50)
        assert a.p_value == pytest.approx(b.p_value)

    def test_sample_size_controls_bias(self):
        # §3.3: without resampling the p-value keeps shrinking as the label
        # configuration grows, even though the class proportions are fixed;
        # with the 1k resample the p-value stays in a comparable range.
        def labels(n_side):
            rng = np.random.default_rng(5)
            left = (rng.random(n_side) < 0.35).astype(float)   # 35% ones left
            right = (rng.random(n_side) < 0.65).astype(float)  # 65% ones right
            return np.concatenate([left, right])

        small, large = labels(300), labels(30_000)
        variable = ChangePointSignificanceTest(sample_size=None, random_state=3)
        p_small_variable = variable.test(small, split=300).p_value
        p_large_variable = variable.test(large, split=30_000).p_value
        assert p_large_variable < p_small_variable * 1e-10  # the bias

        resampled = ChangePointSignificanceTest(sample_size=1_000, random_state=3)
        p_small_resampled = resampled.test(small, split=300).p_value
        p_large_resampled = ChangePointSignificanceTest(sample_size=1_000, random_state=3).test(
            large, split=30_000
        ).p_value
        ratio = abs(
            np.log10(max(p_large_resampled, 1e-300)) - np.log10(max(p_small_resampled, 1e-300))
        )
        assert ratio < 10  # comparable orders of magnitude once resampled
