"""Batch ClaSP baseline (paper §2.2).

ClaSS builds on the batch segmentation algorithm ClaSP, which computes the
classification score profile for a complete, finite time series.  The batch
variant is included for three reasons:

* it is the natural offline API for users who have the whole series in memory,
* the paper's runtime discussion contrasts ClaSS with the original batch
  implementation (quadratic in the series length), and
* it doubles as an oracle for the streaming implementation in the test-suite.

The implementation computes the k-NN table once, by running the streaming
k-NN over the whole series with ``d = n``, and then applies the same
cross-validation scorer used by ClaSS, followed by a recursive extraction of
significant change points.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field

import numpy as np

from repro.core.cross_val import (
    cross_val_scores_from_thresholds,
    prediction_thresholds,
    predictions_for_split,
)
from repro.core.profile import ClaSPProfile
from repro.core.significance import ChangePointSignificanceTest
from repro.core.streaming_knn import StreamingKNN
from repro.core.window_size import learn_subsequence_width
from repro.utils.exceptions import NotEnoughDataError
from repro.utils.validation import check_array_1d


@dataclass
class BatchSegmentation:
    """Result of a batch ClaSP segmentation."""

    change_points: np.ndarray
    profile: ClaSPProfile
    subsequence_width: int
    scores: dict[int, float] = field(default_factory=dict)

    @property
    def n_segments(self) -> int:
        """Number of segments implied by the detected change points."""
        return int(self.change_points.shape[0]) + 1


class ClaSP:
    """Batch Classification Score Profile segmentation.

    Parameters
    ----------
    subsequence_width:
        Width ``w``; learned with ``wss_method`` from the series when None.
    k_neighbours:
        Neighbours of the self-supervised k-NN classifier.
    score:
        ``"macro_f1"`` (default) or ``"accuracy"``.
    n_change_points:
        Maximum number of change points to extract; ``None`` keeps splitting
        while splits remain significant.
    score_threshold:
        Minimum ClaSP score a split must reach to be considered (§2.1).
    significance_level, sample_size:
        Passed to :class:`~repro.core.significance.ChangePointSignificanceTest`.
    """

    def __init__(
        self,
        subsequence_width: int | None = None,
        k_neighbours: int = 3,
        score: str = "macro_f1",
        n_change_points: int | None = None,
        significance_level: float = 1e-15,
        sample_size: int | None = 1_000,
        wss_method: str = "suss",
        similarity: str = "pearson",
        score_threshold: float = 0.75,
        random_state: int | None = 2357,
    ) -> None:
        self.subsequence_width = subsequence_width
        self.k_neighbours = int(k_neighbours)
        self.score = score
        self.n_change_points = n_change_points
        self.wss_method = wss_method
        self.similarity = similarity
        self.score_threshold = float(score_threshold)
        self.significance = ChangePointSignificanceTest(
            significance_level=significance_level,
            sample_size=sample_size,
            random_state=random_state,
        )

    # ------------------------------------------------------------------ #

    def _knn(self, values: np.ndarray, width: int) -> np.ndarray:
        knn = StreamingKNN(
            window_size=values.shape[0],
            subsequence_width=width,
            k_neighbours=self.k_neighbours,
            similarity=self.similarity,
        )
        collections.deque(knn.update_many(values), maxlen=0)
        return knn.knn_indices.copy()

    def profile(self, values: np.ndarray, subsequence_width: int | None = None) -> ClaSPProfile:
        """Compute the ClaSP of a complete series.

        The k-NN table is sorted into prediction thresholds once; both travel
        in the profile's ``metadata`` (``"knn_indices"``, ``"thresholds"``).
        """
        values = check_array_1d(values, "values", min_length=20)
        width = subsequence_width or self.subsequence_width
        if width is None:
            width = learn_subsequence_width(
                values, method=self.wss_method, max_width=values.shape[0] // 4
            )
        width = int(width)
        if values.shape[0] < 4 * width:
            raise NotEnoughDataError(
                f"series of length {values.shape[0]} too short for width {width}"
            )
        knn_indices = self._knn(values, width)
        thresholds = prediction_thresholds(knn_indices)
        result = cross_val_scores_from_thresholds(thresholds, exclusion=width, score=self.score)
        return ClaSPProfile(
            scores=result.scores,
            splits=result.splits,
            region_start=0,
            window_start_time=0,
            subsequence_width=width,
            metadata={"knn_indices": knn_indices, "thresholds": thresholds},
        )

    def fit_predict(self, values: np.ndarray) -> BatchSegmentation:
        """Segment a complete series, returning change points in time-point space."""
        values = check_array_1d(values, "values", min_length=20)
        profile = self.profile(values)
        width = profile.subsequence_width
        thresholds = profile.metadata["thresholds"]

        change_points: list[int] = []
        scores: dict[int, float] = {}
        budget = self.n_change_points if self.n_change_points is not None else values.shape[0]

        # recursive splitting on subsequence-index intervals.  A segment's
        # thresholds are the profile's threshold slice shifted by the segment
        # start (the per-row order statistic commutes with the offset
        # subtraction), so every recursion level scores zero-copy.
        segments = [(0, thresholds.shape[0])]
        while segments and len(change_points) < budget:
            start, end = segments.pop(0)
            length = end - start
            if length < 4 * width:
                continue
            result = cross_val_scores_from_thresholds(
                thresholds[start:end], exclusion=width, score=self.score, offset=start
            )
            if result.scores.size == 0:
                continue
            split, score_value = result.best_split()
            if score_value < self.score_threshold:
                continue
            y_pred = predictions_for_split(thresholds[start:end], split, start)
            outcome = self.significance.test(y_pred, split)
            if not outcome.significant:
                continue
            absolute = start + split
            change_points.append(absolute)
            scores[absolute] = score_value
            segments.append((start, absolute))
            segments.append((absolute, end))

        change_points_arr = np.asarray(sorted(change_points), dtype=np.int64)
        return BatchSegmentation(
            change_points=change_points_arr,
            profile=profile,
            subsequence_width=width,
            scores=scores,
        )
