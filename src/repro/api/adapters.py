"""Protocol adapters: detectors that are not natively streaming.

:class:`BatchClaSPSegmenter` puts the paper's batch baseline (§2.2) behind
the unified :class:`~repro.api.protocol.Segmenter` protocol: observations
are buffered as they arrive and the quadratic batch segmentation runs once
on :meth:`~BatchClaSPSegmenter.finalize`.  This gives evaluation harnesses
and pipelines one code path for streaming *and* offline methods — the
registry key is ``"clasp"`` — at the cost of detection latency equal to the
stream length, which is exactly the trade-off the paper's ClaSS/ClaSP
runtime discussion quantifies.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.api.config import ClaSPConfig
from repro.api.events import ChangePointEvent, SegmenterEvent, WarmupEvent
from repro.utils.exceptions import ConfigurationError, NotEnoughDataError, ValidationError


class BatchClaSPSegmenter:
    """Streaming facade over batch ClaSP: buffer the stream, segment on finalize.

    Parameters
    ----------
    config:
        A :class:`~repro.api.config.ClaSPConfig`; keyword arguments build one
        when omitted.
    ``**kwargs``:
        Individual :class:`~repro.api.config.ClaSPConfig` fields, applied on
        top of ``config`` (or of the defaults).

    Raises
    ------
    ConfigurationError
        When ``config`` is not a ``ClaSPConfig`` or a field value is
        rejected by its ``validate``.

    Example
    -------
    >>> import numpy as np
    >>> from repro.api.adapters import BatchClaSPSegmenter
    >>> segmenter = BatchClaSPSegmenter(n_change_points=1)
    >>> segmenter.process(np.zeros(100)).size  # batch methods defer to finalize
    0
    """

    name = "ClaSP"

    def __init__(self, config: ClaSPConfig | None = None, **kwargs) -> None:
        if config is None:
            config = ClaSPConfig(**kwargs)
        elif kwargs:
            config = config.replace(**kwargs)
        if not isinstance(config, ClaSPConfig):
            raise ConfigurationError(
                f"BatchClaSPSegmenter expects a ClaSPConfig, got {type(config).__name__}"
            )
        self.config = config.validate()
        self._chunks: list[np.ndarray] = []
        self._n_seen = 0
        self._segmentation = None
        self._finalized = False

    # ------------------------------------------------------------------ #

    @property
    def n_seen(self) -> int:
        """Number of observations buffered so far."""
        return self._n_seen

    @property
    def change_points(self) -> np.ndarray:
        """Change points of the batch segmentation (empty before finalize)."""
        if self._segmentation is None:
            return np.asarray([], dtype=np.int64)
        return self._segmentation.change_points

    @property
    def segmentation(self):
        """The full :class:`~repro.core.clasp_batch.BatchSegmentation` (after finalize)."""
        return self._segmentation

    @property
    def current_score(self) -> float | None:
        """Best split score of the batch segmentation, None before finalize."""
        if self._segmentation is None or not self._segmentation.scores:
            return None
        return float(max(self._segmentation.scores.values()))

    # ------------------------------------------------------------------ #

    def update(self, value: float) -> None:
        """Buffer one observation; batch segmentation never reports online."""
        self.process(np.asarray([float(value)], dtype=np.float64))
        return None

    def process(self, values: np.ndarray, chunk_size: int | None = None) -> np.ndarray:
        """Buffer a batch of observations; return the change points found so far."""
        if self._finalized:
            raise ConfigurationError(
                "BatchClaSPSegmenter was finalized; build a fresh instance to re-segment"
            )
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size:
            self._chunks.append(values.copy())
            self._n_seen += int(values.shape[0])
        return self.change_points

    def finalize(self) -> np.ndarray:
        """Run the batch segmentation on everything buffered; return the change points."""
        if self._finalized:
            return self.change_points
        self._finalized = True
        values = self._buffered()
        if values.shape[0]:
            from repro.core.clasp_batch import ClaSP

            try:
                self._segmentation = ClaSP(**self.config.as_kwargs()).fit_predict(values)
            except (ConfigurationError, NotEnoughDataError, ValidationError, ValueError):
                self._segmentation = None  # stream too short / degenerate: no change points
        return self.change_points

    #: British-spelling alias, matching ClaSS.
    finalise = finalize

    def events(self) -> list[SegmenterEvent]:
        """Warm-up plus one change-point event per detection (all at finalize)."""
        if self._segmentation is None:
            return []
        events: list[SegmenterEvent] = [
            WarmupEvent(at=self._n_seen, subsequence_width=self._segmentation.subsequence_width)
        ]
        scores = self._segmentation.scores
        for change_point in self.change_points.tolist():
            events.append(
                ChangePointEvent(
                    at=self._n_seen,
                    change_point=int(change_point),
                    score=scores.get(int(change_point)),
                )
            )
        return events

    # ------------------------------------------------------------------ #

    def save_state(self) -> dict:
        """Serialise the buffer and any completed segmentation."""
        from repro.api.checkpoint import state_payload

        state = {
            "values": self._buffered(),
            "n_seen": self._n_seen,
            "finalized": self._finalized,
            "segmentation": copy.deepcopy(self._segmentation),
        }
        return state_payload(self, state, config=self.config.to_dict())

    def load_state(self, payload: dict) -> None:
        """Restore a :meth:`save_state` payload (config included)."""
        from repro.api.checkpoint import checked_state

        # validate everything BEFORE mutating: a rejected payload must leave
        # the live adapter untouched
        state = checked_state(self, payload)
        config = ClaSPConfig.from_dict(payload.get("config", {})).validate()
        values = np.asarray(state["values"], dtype=np.float64)
        n_seen, finalized = int(state["n_seen"]), bool(state["finalized"])
        segmentation = copy.deepcopy(state["segmentation"])
        self.config = config
        self._chunks = [values.copy()] if values.size else []
        self._n_seen = n_seen
        self._finalized = finalized
        self._segmentation = segmentation

    def _buffered(self) -> np.ndarray:
        """The full buffered stream as one contiguous array."""
        if not self._chunks:
            return np.asarray([], dtype=np.float64)
        if len(self._chunks) > 1:
            self._chunks = [np.concatenate(self._chunks)]
        return self._chunks[0]
