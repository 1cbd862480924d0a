"""Statistical validation of change-point candidates (paper §3.3).

Every local maximum of the ClaSP is a potential change point, but ClaSS only
reports those that pass a conservative hypothesis test: a two-sided Wilcoxon
rank-sum test on the predicted cross-validation labels to the left and right
of the candidate split.  Because the number of scored labels varies with the
sliding-window procedure (only the region since the last change point is
scored), the p-value would be biased by the sample size; the paper therefore
resamples a fixed number of labels (1 000 by default) with replacement while
preserving the left/right proportions before applying the test.

The ablation study (§4.2 f-g) selects a significance level of 1e-50 with a
resample size of 1 000, which are the defaults here.

The labels are binary, so the gate evaluates the test in closed form
(:func:`binary_rank_sum_p_value`) instead of ranking the pooled sample: it
returns exactly the statistic and p-value :func:`rank_sum_p_value` (scipy)
returns for the same samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special, stats

from repro.utils.exceptions import ConfigurationError

#: Default significance level selected by the paper's ablation study.
DEFAULT_SIGNIFICANCE_LEVEL = 1e-50

#: Default resample size selected by the paper's ablation study.
DEFAULT_SAMPLE_SIZE = 1_000


@dataclass
class SignificanceResult:
    """Outcome of testing one change-point candidate."""

    significant: bool
    p_value: float
    statistic: float
    split: int
    n_left: int
    n_right: int


def rank_sum_p_value(left: np.ndarray, right: np.ndarray) -> tuple[float, float]:
    """Two-sided Wilcoxon rank-sum statistic and p-value for two label samples.

    Degenerate cases (an empty side, or both sides constant and equal) return
    a p-value of 1.0 so that no change point is reported.
    """
    left = np.asarray(left, dtype=np.float64)
    right = np.asarray(right, dtype=np.float64)
    if left.size == 0 or right.size == 0:
        return 0.0, 1.0
    if (
        np.allclose(left, left[0])
        and np.allclose(right, right[0])
        and np.isclose(left[0], right[0])
    ):
        return 0.0, 1.0
    statistic, p_value = stats.ranksums(left, right)
    if not np.isfinite(p_value):
        p_value = 1.0
    return float(statistic), float(p_value)


def binary_rank_sum_p_value(
    n_left: int, ones_left: int, n_right: int, ones_right: int
) -> tuple[float, float]:
    """:func:`rank_sum_p_value` of two 0/1 samples, from their sizes and counts of ones.

    With ``Z`` zeros and ``O`` ones pooled, every zero has the average rank
    ``(Z + 1) / 2`` and every one ``Z + (O + 1) / 2``.  These half-integers,
    and so the left rank sum, are exact in float64; the expected sum, the
    z-statistic and the two-sided p-value then use scipy's own expressions.
    The result is bit-identical to :func:`rank_sum_p_value`, degenerate
    cases included, in a few microseconds instead of a sort.
    """
    zeros_left, zeros_right = n_left - ones_left, n_right - ones_right
    if n_left == 0 or n_right == 0:
        return 0.0, 1.0
    if (ones_left == 0 and ones_right == 0) or (zeros_left == 0 and zeros_right == 0):
        return 0.0, 1.0  # both sides constant and equal
    zeros = zeros_left + zeros_right
    ones = ones_left + ones_right
    rank_sum = zeros_left * ((zeros + 1) / 2.0) + ones_left * (zeros + (ones + 1) / 2.0)
    expected = n_left * (n_left + n_right + 1) / 2.0
    statistic = (rank_sum - expected) / np.sqrt(n_left * n_right * (n_left + n_right + 1) / 12.0)
    p_value = 2 * special.ndtr(-abs(statistic))
    if not np.isfinite(p_value):
        p_value = 1.0
    return float(statistic), float(p_value)


def _count_ones(sample: np.ndarray) -> int | None:
    """Number of ones in a 0/1 sample; None when it holds any other value."""
    ones = int(np.count_nonzero(sample == 1))
    return ones if ones == np.count_nonzero(sample) else None


class ChangePointSignificanceTest:
    """Resampled Wilcoxon rank-sum test used by ClaSS to confirm change points.

    Parameters
    ----------
    significance_level:
        Maximum p-value for a split to be reported as a change point.
    sample_size:
        Number of labels resampled with replacement before the test; ``None``
        uses the variable (full) label configuration, matching the "variable"
        option of the ablation study.
    random_state:
        Seed for the resampling RNG; fixing it makes stream runs reproducible.
    """

    def __init__(
        self,
        significance_level: float = DEFAULT_SIGNIFICANCE_LEVEL,
        sample_size: int | None = DEFAULT_SAMPLE_SIZE,
        random_state: int | None = 2357,
    ) -> None:
        if not 0.0 < significance_level < 1.0:
            raise ConfigurationError("significance_level must lie strictly between 0 and 1")
        if sample_size is not None and sample_size < 10:
            raise ConfigurationError("sample_size must be at least 10 (or None for variable)")
        self.significance_level = float(significance_level)
        self.sample_size = None if sample_size is None else int(sample_size)
        self._rng = np.random.default_rng(random_state)

    def rng_state(self) -> dict:
        """Serialisable state of the resampling RNG (for checkpointing)."""
        return self._rng.bit_generator.state

    def set_rng_state(self, state: dict) -> None:
        """Restore an :meth:`rng_state` payload; resampling resumes bit-identically."""
        self._rng.bit_generator.state = state

    def _resample(self, left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Resample labels with replacement, preserving the left/right ratio."""
        if self.sample_size is None:
            return left, right
        total = left.size + right.size
        n_left = max(1, int(round(self.sample_size * left.size / total)))
        n_right = max(1, self.sample_size - n_left)
        left_sample = self._rng.choice(left, size=n_left, replace=True)
        right_sample = self._rng.choice(right, size=n_right, replace=True)
        return left_sample, right_sample

    def test(self, y_pred: np.ndarray, split: int) -> SignificanceResult:
        """Test whether the predicted labels differ significantly around ``split``.

        Parameters
        ----------
        y_pred:
            Predicted cross-validation labels of every subsequence in the
            scored region (values 0/1).
        split:
            Candidate split offset within the scored region.
        """
        y_pred = np.asarray(y_pred, dtype=np.float64)
        split = int(split)
        if split <= 0 or split >= y_pred.size:
            return SignificanceResult(False, 1.0, 0.0, split, split, y_pred.size - split)
        left, right = y_pred[:split], y_pred[split:]
        left_sample, right_sample = self._resample(left, right)
        ones_left, ones_right = _count_ones(left_sample), _count_ones(right_sample)
        if ones_left is None or ones_right is None:  # not 0/1 labels: rank them
            statistic, p_value = rank_sum_p_value(left_sample, right_sample)
        else:
            statistic, p_value = binary_rank_sum_p_value(
                left_sample.size, ones_left, right_sample.size, ones_right
            )
        significant = bool(p_value <= self.significance_level)
        return SignificanceResult(
            significant=significant,
            p_value=p_value,
            statistic=statistic,
            split=split,
            n_left=int(left.size),
            n_right=int(right.size),
        )
