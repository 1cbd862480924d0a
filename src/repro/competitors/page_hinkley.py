"""Page-Hinkley test (Page 1954; mentioned in paper §4.1).

The Page-Hinkley test monitors the cumulative difference between the observed
values and their running mean.  When the cumulative statistic exceeds its
historical minimum by more than a threshold ``lambda``, a change in the mean
of the process is signalled.  The paper tried the test but "could not find a
configuration that outputs meaningful results" on the raw evaluation streams;
it is included here for completeness and for the ablation harness.
"""

from __future__ import annotations

import numpy as np

from repro.competitors.base import StreamSegmenter
from repro.utils.running_stats import RunningStats


class PageHinkley(StreamSegmenter):
    """Page-Hinkley mean-shift detector.

    Parameters
    ----------
    delta:
        Magnitude of allowed fluctuation (subtracted from every deviation).
    threshold:
        Detection threshold ``lambda`` on the cumulative statistic.
    min_observations:
        Observations required before detection starts.
    two_sided:
        Monitor both upward and downward mean shifts.
    """

    name = "PageHinkley"

    def __init__(
        self,
        delta: float = 0.005,
        threshold: float = 50.0,
        min_observations: int = 30,
        two_sided: bool = True,
    ) -> None:
        super().__init__()
        self.delta = float(delta)
        self.threshold = float(threshold)
        self.min_observations = int(min_observations)
        self.two_sided = bool(two_sided)
        self._init_state()

    def _init_state(self) -> None:
        self._stats = RunningStats()
        self._cumulative_up = 0.0
        self._minimum_up = 0.0
        self._cumulative_down = 0.0
        self._maximum_down = 0.0

    def reset(self) -> None:
        super().reset()
        self._init_state()

    def update(self, value: float) -> int | None:
        """Ingest one observation (the one-value case of :meth:`process_chunk`)."""
        detected = self._run((float(value),))
        return detected[0] if detected else None

    def process_chunk(self, values: np.ndarray) -> np.ndarray:
        """Run the test over the chunk in one loop; return its change points."""
        values = np.asarray(values, dtype=np.float64).ravel().tolist()
        return np.asarray(self._run(values), dtype=np.int64)

    def _run(self, values) -> list[int]:
        """The test over ``values``, with its state in local floats.

        Each value takes the steps of :meth:`RunningStats.update` and then
        the test's, in that order; a comparison stands in for ``min``/``max``
        and returns the operand they would (NaN and signed zeros included).
        The state is written back before each detection is recorded and at
        the end, so checkpoints hold exactly the per-value attributes.
        """
        delta, threshold = self.delta, self.threshold
        scale = max(threshold, 1e-12)
        min_observations, two_sided = self.min_observations, self.two_sided
        stats = self._stats
        count, mean, m2 = stats._count, stats._mean, stats._m2
        up, low_up = self._cumulative_up, self._minimum_up
        down, high_down = self._cumulative_down, self._maximum_down
        n_seen, last_score = self._n_seen, self.last_score
        detected: list[int] = []
        for value in values:
            n_seen += 1
            count += 1
            step = value - mean
            mean += step / count
            m2 += step * (value - mean)
            if count < min_observations:
                continue
            deviation = value - mean
            up += deviation - delta
            low_up = up if up < low_up else low_up
            statistic = up - low_up
            down += deviation + delta
            high_down = down if down > high_down else high_down
            if two_sided:
                down_statistic = high_down - down
                statistic = down_statistic if down_statistic > statistic else statistic
            last_score = statistic / scale
            if statistic > threshold:
                self._n_seen, self.last_score = n_seen, last_score
                self._init_state()
                change_point = self._record_detection(n_seen)
                if change_point is not None:
                    detected.append(change_point)
                stats = self._stats
                count, mean, m2 = stats._count, stats._mean, stats._m2
                up, low_up = self._cumulative_up, self._minimum_up
                down, high_down = self._cumulative_down, self._maximum_down
        self._n_seen, self.last_score = n_seen, last_score
        stats._count, stats._mean, stats._m2 = count, mean, m2
        self._cumulative_up, self._minimum_up = up, low_up
        self._cumulative_down, self._maximum_down = down, high_down
        return detected
