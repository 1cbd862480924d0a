"""Typed events emitted by the unified detector API.

Every detector behind :mod:`repro.api` reports its lifecycle through three
event types instead of (or alongside) the historical ``int | None``
return-code path:

* :class:`WarmupEvent` — the detector finished warming up (for ClaSS: the
  subsequence width has been learned and the streaming k-NN is live) and can
  report change points from here on,
* :class:`ScoreEvent` — a periodic observation of the detector's current
  detection score (the best split score of the latest ClaSP, or a
  competitor's ``last_score``),
* :class:`ChangePointEvent` — one confirmed change point, together with the
  position at which it was detected and, where the method provides them, the
  classification score and significance p-value.

Two further event types report dirty-data handling when a non-default
:class:`repro.core.quality.DataPolicy` is active: :class:`DataQualityEvent`
(one maximal run of non-finite rows was imputed or skipped, with counters)
and :class:`GapEvent` (a run exceeded the policy's ``max_gap`` and was
dropped, optionally resetting warm-up).

Events are frozen dataclasses with a stable ``kind`` discriminator and a
lossless JSON mapping (:meth:`SegmenterEvent.to_dict` /
:func:`event_from_dict`), so an event stream can be shipped across process
boundaries, written as JSON lines by the CLI, or replayed for audit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, ClassVar

from repro.utils.exceptions import ConfigurationError


@dataclass(frozen=True)
class SegmenterEvent:
    """Base class of all detector events.

    Attributes
    ----------
    at:
        Absolute stream position (number of observations seen) at which the
        event was emitted.

    Example
    -------
    >>> from repro.api import WarmupEvent
    >>> WarmupEvent(at=100).to_dict()
    {'kind': 'warmup', 'at': 100, 'subsequence_width': None}
    """

    #: Discriminator used by the JSON mapping; unique per event class.
    kind: ClassVar[str] = "event"

    at: int

    def to_dict(self) -> dict[str, Any]:
        """Flat JSON-safe dictionary, including the ``kind`` discriminator."""
        payload: dict[str, Any] = {"kind": self.kind}
        for field in dataclasses.fields(self):
            payload[field.name] = getattr(self, field.name)
        return payload


@dataclass(frozen=True)
class WarmupEvent(SegmenterEvent):
    """The detector finished warming up and can report change points.

    ``at`` is the stream position at which warm-up completed;
    ``subsequence_width`` carries the learned width for ClaSS-family
    detectors and stays None for methods without a width concept.

    Example
    -------
    >>> WarmupEvent(at=10_000, subsequence_width=128).kind
    'warmup'
    """

    kind: ClassVar[str] = "warmup"

    subsequence_width: int | None = None


@dataclass(frozen=True)
class ScoreEvent(SegmenterEvent):
    """Periodic observation of the detector's current detection score.

    ``at`` is the stream position of the observation; ``score`` the best
    split score of the latest ClaSP (or a competitor's ``last_score``).

    Example
    -------
    >>> ScoreEvent(at=2_500, score=0.81).to_dict()
    {'kind': 'score', 'at': 2500, 'score': 0.81}
    """

    kind: ClassVar[str] = "score"

    score: float = 0.0


@dataclass(frozen=True)
class ChangePointEvent(SegmenterEvent):
    """One confirmed change point.

    ``at`` is the detection position; ``change_point`` the (earlier) stream
    position of the state change itself.  ``score`` and ``p_value`` are None
    for methods that do not produce them.

    Example
    -------
    >>> event = ChangePointEvent(at=5_200, change_point=5_000, score=0.9)
    >>> event.detection_delay
    200
    """

    kind: ClassVar[str] = "change_point"

    change_point: int = 0
    score: float | None = None
    p_value: float | None = None

    @property
    def detection_delay(self) -> int:
        """Observations that elapsed between the change point and its report."""
        return int(self.at - self.change_point)


@dataclass(frozen=True)
class GapEvent(SegmenterEvent):
    """A dirty-data run exceeded the policy's ``max_gap`` and was dropped.

    ``at`` is the sanitized-stream position at which the gap closed (the
    detector's ``n_seen`` — dropped rows are not counted); ``gap`` is the
    number of raw rows the run spanned; ``reset`` records whether the
    policy's ``reset_on_gap`` re-entered detector warm-up.

    Example
    -------
    >>> GapEvent(at=4_000, gap=120, reset=True).to_dict()
    {'kind': 'gap', 'at': 4000, 'gap': 120, 'reset': True}
    """

    kind: ClassVar[str] = "gap"

    gap: int = 0
    reset: bool = False


@dataclass(frozen=True)
class DataQualityEvent(SegmenterEvent):
    """One maximal dirty run was repaired or dropped by the data policy.

    ``at`` is the sanitized-stream position right after the run was
    realised; exactly one of ``imputed``/``skipped`` is non-zero and counts
    the run's raw rows (``clipped`` is reserved for value-clipping policies
    and stays 0 today).  ``n_nan``/``n_inf`` split the run's rows by the
    non-finite kind that dirtied them.

    Example
    -------
    >>> DataQualityEvent(at=250, imputed=3, n_nan=3).imputed
    3
    """

    kind: ClassVar[str] = "data_quality"

    imputed: int = 0
    skipped: int = 0
    clipped: int = 0
    n_nan: int = 0
    n_inf: int = 0


#: Event classes by their ``kind`` discriminator (the JSON dispatch table).
EVENT_KINDS: dict[str, type[SegmenterEvent]] = {
    cls.kind: cls
    for cls in (WarmupEvent, ScoreEvent, ChangePointEvent, GapEvent, DataQualityEvent)
}


def event_from_dict(payload: dict[str, Any]) -> SegmenterEvent:
    """Rebuild a typed event from its :meth:`SegmenterEvent.to_dict` mapping.

    Parameters
    ----------
    payload:
        A mapping with a ``kind`` discriminator plus that event class's
        fields, exactly as produced by ``to_dict``.

    Returns
    -------
    The frozen event instance of the class ``kind`` names.

    Raises
    ------
    ConfigurationError
        When the payload is not a mapping, names an unknown ``kind``, or
        carries fields the event class does not have.

    Example
    -------
    >>> event_from_dict({"kind": "score", "at": 10, "score": 0.5})
    ScoreEvent(at=10, score=0.5)
    """
    try:
        kind = payload["kind"]
    except (TypeError, KeyError) as error:
        raise ConfigurationError("event payload must be a mapping with a 'kind' entry") from error
    if kind not in EVENT_KINDS:
        raise ConfigurationError(
            f"unknown event kind {kind!r}; expected one of {sorted(EVENT_KINDS)}"
        )
    cls = EVENT_KINDS[kind]
    names = {field.name for field in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - names - {"kind"})
    if unknown:
        raise ConfigurationError(f"unknown {kind} event fields: {unknown}")
    return cls(**{name: value for name, value in payload.items() if name in names})
