"""Common interface of all streaming segmentation / change detection methods.

Every competitor of the paper's evaluation (Table 2) is wrapped behind the
same minimal streaming contract so the evaluation runner, the stream engine
and user code can treat them interchangeably with ClaSS:

* :meth:`StreamSegmenter.update` ingests one observation and returns the
  absolute time point of a change point if one is reported at this step,
* :meth:`StreamSegmenter.process` streams a finite array in chunks,
  delegating each chunk to :meth:`StreamSegmenter.process_chunk` — the
  default chunk handler loops over :meth:`update`, and methods with a
  cheaper batch path override it (FLOSS feeds its streaming k-NN substrate
  through ``update_many``; Page-Hinkley runs its test over a chunk in one
  loop, of which its ``update`` is the one-value case),
* :attr:`StreamSegmenter.change_points` collects everything reported so far.

Methods that natively produce a continuous score per time point (FLOSS,
Window, BOCD, ChangeFinder, NEWMA) expose it through ``last_score`` so the
threshold-based change point extraction of §4.1 (score threshold plus an
exclusion zone around recent detections) can be shared via
:class:`ScoreThresholdDetector`.
"""

from __future__ import annotations

import numpy as np

from repro.core.class_segmenter import DEFAULT_CHUNK_SIZE
from repro.utils.exceptions import ConfigurationError


#: Instance attribute holding the events built so far: derived from the
#: detection lists, so checkpoints and pickles leave it out.
_BUILT_EVENTS = "_built_events"


class StreamSegmenter:
    """Base class for streaming time series segmentation methods.

    Subclasses implement :meth:`_update`, or override :meth:`update` and
    :meth:`process_chunk` together.
    """

    #: Human-readable name used by the evaluation reports.
    name: str = "segmenter"

    def __init__(self) -> None:
        self._n_seen = 0
        self._change_points: list[int] = []
        self._detection_times: list[int] = []
        self._detection_scores: list[float] = []
        self.last_score: float = 0.0

    # ------------------------------------------------------------------ #

    @property
    def n_seen(self) -> int:
        """Number of observations processed so far."""
        return self._n_seen

    @property
    def change_points(self) -> np.ndarray:
        """Absolute time points of all reported change points."""
        return np.asarray(self._change_points, dtype=np.int64)

    @property
    def detection_times(self) -> np.ndarray:
        """Time points at which each change point was reported (detection latency)."""
        return np.asarray(self._detection_times, dtype=np.int64)

    @property
    def segments(self) -> list[tuple[int, int]]:
        """Completed segments as (start, end) pairs in absolute time points."""
        points = [0, *self._change_points]
        return [(points[i], points[i + 1]) for i in range(len(points) - 1)]

    # ------------------------------------------------------------------ #

    def update(self, value: float) -> int | None:
        """Ingest one observation; return a change point time if one is reported."""
        self._n_seen += 1
        return self._record_detection(self._update(float(value)))

    def process(self, values: np.ndarray, chunk_size: int | None = None) -> np.ndarray:
        """Stream a finite batch of values in chunks; return all CPs so far.

        The array is cut into chunks of at most ``chunk_size`` observations
        (default :data:`DEFAULT_CHUNK_SIZE`) and each chunk is handed to
        :meth:`process_chunk`.  Chunked and point-wise ingestion report
        identical change points for every segmenter.

        Note the return-value difference from ``ClaSS.process``: this method
        returns the *cumulative* change-point history (the seed contract of
        the competitor wrappers), while ClaSS returns only the change points
        detected during the call.  Use :meth:`process_chunk` or diff
        ``change_points`` across calls for per-call detections.
        """
        values = np.asarray(values, dtype=np.float64).ravel()
        if chunk_size is None:
            chunk_size = DEFAULT_CHUNK_SIZE
        elif chunk_size < 1:
            raise ConfigurationError("chunk_size must be a positive integer")
        for start in range(0, values.shape[0], chunk_size):
            self.process_chunk(values[start : start + chunk_size])
        return self.change_points

    def process_chunk(self, values: np.ndarray) -> np.ndarray:
        """Ingest one chunk; return the change points detected within it.

        The default implementation loops over :meth:`update`.  Subclasses
        with a cheaper batch ingestion path override this — they must keep
        :attr:`n_seen` and the detection bookkeeping consistent by routing
        detections through :meth:`_record_detection`.
        """
        detected: list[int] = []
        for value in values:
            change_point = self.update(float(value))
            if change_point is not None:
                detected.append(change_point)
        return np.asarray(detected, dtype=np.int64)

    def reset(self) -> None:
        """Forget all state (default implementation re-initialises bookkeeping)."""
        self.__dict__.pop(_BUILT_EVENTS, None)
        self._n_seen = 0
        self._change_points = []
        self._detection_times = []
        self._detection_scores = []
        self.last_score = 0.0

    def finalize(self) -> np.ndarray:
        """Flush end-of-stream state (competitors have none); return all CPs."""
        return self.change_points

    #: British-spelling alias, matching ClaSS.
    finalise = finalize

    @property
    def warmup_end(self) -> int | None:
        """Competitors are ready from the first observation on (None before it)."""
        return 0 if self._n_seen > 0 else None

    @property
    def current_score(self) -> float | None:
        """The method's most recent detection score (``last_score``)."""
        return float(self.last_score) if self._n_seen > 0 else None

    def events(self) -> list:
        """Typed event history: readiness plus one event per recorded detection.

        Ordered by stream position and append-only over time, which is the
        contract :func:`repro.api.stream` relies on.  Scores are the
        method's ``last_score`` at detection time; competitors have no
        p-value concept, so ``p_value`` stays None.  Each call builds only
        the events of detections recorded since the previous one and
        returns a fresh list.
        """
        from repro.api.events import ChangePointEvent, WarmupEvent

        built = self.__dict__.setdefault(_BUILT_EVENTS, [])
        scores = self._detection_scores
        for index in range(len(built), len(self._change_points)):
            built.append(
                ChangePointEvent(
                    at=int(self._detection_times[index]),
                    change_point=int(self._change_points[index]),
                    score=scores[index] if index < len(scores) else None,
                )
            )
        warmup = self.warmup_end
        return list(built) if warmup is None else [WarmupEvent(at=int(warmup)), *built]

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #

    def save_state(self) -> dict:
        """Serialise the competitor's full runtime state.

        Every wrapper keeps its state in plain Python/numpy attributes (ring
        deques, bucket lists, model coefficients, an embedded
        :class:`~repro.core.streaming_knn.StreamingKNN` for FLOSS), so a deep
        copy of ``__dict__`` is a complete, picklable checkpoint and
        restoring it resumes bit-identically.
        """
        import copy

        from repro.api.checkpoint import state_payload

        return state_payload(self, copy.deepcopy(self.__getstate__()))

    def load_state(self, payload: dict) -> None:
        """Restore a :meth:`save_state` payload into this instance."""
        import copy

        from repro.api.checkpoint import checked_state

        # copy before clearing: a payload that fails to copy leaves the live
        # detector untouched
        state = copy.deepcopy(checked_state(self, payload))
        self.__dict__.clear()
        self.__dict__.update(state)

    def __getstate__(self) -> dict:
        """Pickle support: the built events stay behind (:meth:`events` rebuilds them)."""
        state = self.__dict__.copy()
        state.pop(_BUILT_EVENTS, None)
        return state

    # ------------------------------------------------------------------ #

    def _record_detection(self, change_point: int | None) -> int | None:
        """Clamp, deduplicate and register a raw detection (shared bookkeeping)."""
        if change_point is None:
            return None
        change_point = int(change_point)
        if change_point >= self._n_seen:
            change_point = self._n_seen - 1
        if self._change_points and change_point <= self._change_points[-1]:
            return None
        self._change_points.append(change_point)
        self._detection_times.append(self._n_seen)
        self._detection_scores.append(float(self.last_score))
        return change_point

    def _update(self, value: float) -> int | None:
        """Method-specific single-point update; return a CP time or None."""
        raise NotImplementedError(f"{type(self).__name__} implements no single-point update")


class ScoreThresholdDetector:
    """Shared threshold + exclusion-zone change point extraction (§4.1).

    Several competitors only emit homogeneity scores for sliding-window
    splits.  Following the paper, a change point is reported whenever the
    score crosses a learned threshold, and further reports are suppressed for
    ``exclusion_zone`` observations to avoid series of closely located splits.
    """

    def __init__(
        self,
        threshold: float,
        exclusion_zone: int,
        higher_is_change: bool = True,
    ) -> None:
        if exclusion_zone < 0:
            raise ConfigurationError("exclusion_zone must be non-negative")
        self.threshold = float(threshold)
        self.exclusion_zone = int(exclusion_zone)
        self.higher_is_change = bool(higher_is_change)
        self._last_report: int | None = None

    def reset(self) -> None:
        """Forget the position of the last report."""
        self._last_report = None

    def check(self, score: float, time_point: int) -> bool:
        """Return True when a change point should be reported at ``time_point``."""
        triggered = score >= self.threshold if self.higher_is_change else score <= self.threshold
        if not triggered:
            return False
        if self._last_report is not None and time_point - self._last_report < self.exclusion_zone:
            return False
        self._last_report = int(time_point)
        return True
