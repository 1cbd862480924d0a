"""Sanitizing detector wrapper: applies a :class:`DataPolicy` to any segmenter.

:class:`SanitizingSegmenter` implements the :class:`repro.api.Segmenter`
protocol around an inner detector.  Raw chunks pass through the vectorised
:class:`repro.core.quality.Sanitizer` pre-pass; the cleaned values are fed to
the inner detector and every realised dirty run becomes a typed
:class:`~repro.api.events.DataQualityEvent` or
:class:`~repro.api.events.GapEvent` in the wrapper's merged, append-only
event log — interleaved chronologically with the inner detector's own
warm-up/score/change-point events, so :func:`repro.api.stream`, the service
and the stream store publish quality events through the exact same channel
as detections.

Determinism: the sanitizer realises dirty runs as a pure function of the raw
input (chunk boundaries never matter), the inner detector is chunk-invariant
by contract, and event positions use the inner detector's ``n_seen`` — so
the same dirty input under the same policy yields bit-identical change
points, events and checkpoints for every chunk size, kernel backend and
checkpoint/resume split.

Checkpoints: :meth:`SanitizingSegmenter.save_state` embeds the inner
payload unchanged and adds a top-level ``"quality"`` envelope (policy,
sanitizer carry-over state, the merged event log), which is what lets
:func:`repro.api.restore` rebuild the wrapper transparently.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.api.events import (
    ChangePointEvent,
    DataQualityEvent,
    GapEvent,
    SegmenterEvent,
    event_from_dict,
)
from repro.core.quality import DataPolicy, RunRecord, Sanitizer, coerce_data_policy
from repro.utils.exceptions import ConfigurationError


class SanitizingSegmenter:
    """Dirty-data policy wrapper implementing the Segmenter protocol.

    Parameters
    ----------
    segmenter:
        The inner detector (any :class:`repro.api.Segmenter`); its
        chunk-invariance carries over to the sanitized stream.
    policy:
        The :class:`repro.api.DataPolicy` to apply (also accepted as a
        ``to_dict`` mapping); must have a non-reject ``nan_policy``.

    Returns
    -------
    SanitizingSegmenter
        A protocol-complete segmenter; unknown attributes delegate to the
        inner detector (``config``, ``reports``, ...).

    Raises
    ------
    ConfigurationError
        When the policy is None, rejects nothing (``nan_policy="reject"``)
        or fails validation.

    Example
    -------
    >>> import numpy as np
    >>> from repro import api
    >>> inner = api.create("page-hinkley")
    >>> wrapped = api.SanitizingSegmenter(inner, api.DataPolicy(nan_policy="skip"))
    >>> wrapped.process(np.array([1.0, np.nan, 2.0]))
    array([], dtype=int64)
    >>> [event.kind for event in wrapped.events()]
    ['data_quality']
    """

    def __init__(self, segmenter: Any, policy: DataPolicy | dict) -> None:
        coerced = coerce_data_policy(policy)
        if coerced is None or not coerced.sanitizes:
            raise ConfigurationError(
                "SanitizingSegmenter requires a policy with a non-reject "
                "nan_policy; the default reject behaviour needs no wrapper"
            )
        self.inner = segmenter
        self.policy = coerced
        self._sanitizer = Sanitizer(coerced)
        self._events: list[SegmenterEvent] = []
        self._inner_cursor = 0

    # ------------------------------------------------------------------ #
    # protocol
    # ------------------------------------------------------------------ #

    @property
    def n_seen(self) -> int:
        """Observations the inner detector processed (sanitized stream)."""
        return int(self.inner.n_seen)

    @property
    def n_seen_raw(self) -> int:
        """Raw observations fed to the wrapper, dirty rows included."""
        return int(self._sanitizer.n_raw)

    @property
    def change_points(self) -> np.ndarray:
        """Absolute sanitized-stream positions of every reported change point."""
        return self.inner.change_points

    def update(self, value: float) -> int | None:
        """Ingest one raw observation; return the change point if one fired.

        Parameters
        ----------
        value:
            One raw observation (may be NaN/inf — the policy decides).

        Returns
        -------
        int or None
            The absolute change point detected by this observation, if any.

        Example
        -------
        >>> from repro import api
        >>> wrapped = api.create("page-hinkley", data_policy={"nan_policy": "skip"})
        >>> wrapped.update(float("nan")) is None
        True
        """
        detected = self.process(np.asarray([value], dtype=np.float64))
        return int(detected[-1]) if len(detected) else None

    def process(self, values: np.ndarray, chunk_size: int | None = None) -> np.ndarray:
        """Sanitize one raw chunk, feed the clean parts, realise quality events.

        Parameters
        ----------
        values:
            Raw observations (1-d, or 2-d for multivariate detectors).
        chunk_size:
            Forwarded to the inner detector's ``process`` when given.

        Returns
        -------
        numpy.ndarray
            Change points newly reported during this call (absolute
            sanitized-stream positions).

        Example
        -------
        >>> import numpy as np
        >>> from repro import api
        >>> wrapped = api.create("page-hinkley", data_policy={"nan_policy": "hold-last"})
        >>> wrapped.process(np.array([1.0, np.nan, 1.0])).size
        0
        """
        self._sync_inner_events()  # the inner detector's earlier events are not this call's
        first = len(self._events)
        for part in self._sanitizer.feed(values):
            self._feed_part(part.values, chunk_size)
            if part.record is not None:
                self._realise_record(part.record)
        detected = [
            event.change_point
            for event in self._events[first:]
            if isinstance(event, ChangePointEvent)
        ]
        return np.asarray(detected, dtype=np.int64)

    def events(self) -> list:
        """Merged append-only event log: inner events + quality events.

        Returns
        -------
        list
            Typed events in emission order; like the inner detectors' logs
            it only ever grows, so stream consumers can slice new entries.

        Example
        -------
        >>> from repro import api
        >>> api.create("page-hinkley", data_policy={"nan_policy": "skip"}).events()
        []
        """
        self._sync_inner_events()
        return list(self._events)

    def finalize(self) -> np.ndarray:
        """Flush the sanitizer (realise a trailing dirty run) and the inner detector.

        Returns
        -------
        numpy.ndarray
            All change points reported so far.

        Example
        -------
        >>> from repro import api
        >>> api.create("page-hinkley", data_policy={"nan_policy": "skip"}).finalize()
        array([], dtype=int64)
        """
        for part in self._sanitizer.flush():
            self._feed_part(part.values, None)
            if part.record is not None:
                self._realise_record(part.record)
        result = self.inner.finalize()
        self._sync_inner_events()
        return result

    def finalise(self) -> np.ndarray:
        """Alias of :meth:`finalize` (returns the same change points).

        Example
        -------
        >>> from repro import api
        >>> api.create("page-hinkley", data_policy={"nan_policy": "skip"}).finalise()
        array([], dtype=int64)
        """
        return self.finalize()

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #

    def save_state(self) -> dict:
        """Inner checkpoint payload plus the wrapper's ``"quality"`` envelope.

        Returns
        -------
        dict
            The inner detector's payload with a top-level ``quality`` key
            (policy, sanitizer state, merged event log, inner-event cursor);
            :func:`repro.api.restore` uses it to rebuild the wrapper.

        Example
        -------
        >>> from repro import api
        >>> payload = api.create("page-hinkley", data_policy={"nan_policy": "skip"}).save_state()
        >>> payload["quality"]["policy"]["nan_policy"]
        'skip'
        """
        self._sync_inner_events()
        payload = dict(self.inner.save_state())
        config = dict(payload.get("config", {}))
        config["data_policy"] = self.policy.to_dict()
        payload["config"] = config
        payload["quality"] = {
            "policy": self.policy.to_dict(),
            "sanitizer": self._sanitizer.state_dict(),
            "events": [event.to_dict() for event in self._events],
            "inner_cursor": self._inner_cursor,
        }
        return payload

    def load_state(self, payload: dict) -> None:
        """Restore a :meth:`save_state` payload (wrapper and inner state).

        Parameters
        ----------
        payload:
            A payload produced by :meth:`save_state` (must carry the
            ``quality`` envelope).

        Raises
        ------
        ConfigurationError
            When the payload has no ``quality`` envelope or its policy does
            not sanitize.

        Example
        -------
        >>> from repro import api
        >>> wrapped = api.create("page-hinkley", data_policy={"nan_policy": "skip"})
        >>> wrapped.load_state(wrapped.save_state())
        """
        quality = payload.get("quality")
        if not isinstance(quality, dict):
            raise ConfigurationError(
                "checkpoint payload carries no quality envelope; use the inner "
                "detector's load_state for unwrapped payloads"
            )
        policy = DataPolicy.from_dict(quality.get("policy", {}))
        if not policy.sanitizes:
            raise ConfigurationError("quality envelope policy must sanitize")
        sanitizer = Sanitizer(policy)
        sanitizer.load_state_dict(quality.get("sanitizer", {}))
        events = [event_from_dict(entry) for entry in quality.get("events", [])]
        # validate everything above BEFORE mutating, like the inner detectors
        self.inner.load_state(payload)
        self.policy = policy
        self._sanitizer = sanitizer
        self._events = events
        self._inner_cursor = int(quality.get("inner_cursor", 0))

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def quality_counters(self) -> dict[str, int]:
        """Cumulative sanitizer counters (raw/clean/imputed/skipped/gaps).

        Returns
        -------
        dict
            ``n_raw``, ``n_clean``, ``n_imputed``, ``n_skipped``,
            ``n_gaps``, ``n_clipped`` and ``n_pending`` (rows of a dirty
            run still awaiting its right edge).

        Example
        -------
        >>> from repro import api
        >>> api.create("page-hinkley", data_policy={"nan_policy": "skip"}).quality_counters()["n_raw"]
        0
        """
        return self._sanitizer.counters()

    def __getattr__(self, name: str) -> Any:
        # transparent delegation for inner-specific attributes (config,
        # reports, warmup_end, ...); only reached for names not set above
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.inner, name)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _feed_part(self, values: np.ndarray | None, chunk_size: int | None) -> None:
        if values is None or values.shape[0] == 0:
            return
        if chunk_size is None:
            self.inner.process(values)
        else:
            self.inner.process(values, chunk_size=chunk_size)
        self._sync_inner_events()

    def _sync_inner_events(self) -> None:
        inner_events = self.inner.events()
        fresh = inner_events[self._inner_cursor :]
        if fresh:
            self._events.extend(fresh)
            self._inner_cursor = len(inner_events)

    def _realise_record(self, record: RunRecord) -> None:
        at = int(self.inner.n_seen)
        if record.kind == "gap":
            self._events.append(GapEvent(at=at, gap=record.length, reset=record.reset))
            if record.reset and hasattr(self.inner, "reset_warmup"):
                self.inner.reset_warmup()
        else:
            imputed = record.length if record.kind == "imputed" else 0
            skipped = record.length if record.kind == "skipped" else 0
            self._events.append(
                DataQualityEvent(
                    at=at,
                    imputed=imputed,
                    skipped=skipped,
                    n_nan=record.n_nan,
                    n_inf=record.n_inf,
                )
            )
