"""Stream operators: the processing vertices of a pipeline.

Operators receive records — one at a time, or as
:class:`~repro.streamengine.records.RecordBatch` micro-batches — and emit
zero or more records downstream.  The one-at-a-time model mirrors Flink's
processing contract; the batch path is the engine's amortised fast lane:
:meth:`Operator.process_batch` defaults to exploding the batch through
:meth:`Operator.process`, and operators with a cheaper batch implementation
override it.  :class:`SegmentationOperator` wraps any
:class:`repro.api.Segmenter` (ClaSS or any competitor), forwards whole
batches to the segmenter's chunked ingestion path, and emits its typed
:class:`repro.api.ChangePointEvent` events as records — precisely the role
of the paper's ClaSS Flink window operator.
"""

from __future__ import annotations

import abc
import collections
from typing import Callable, Iterable

import numpy as np

from repro.api import ChangePointEvent, ensure_segmenter
from repro.streamengine.records import Record, RecordBatch


class Operator(abc.ABC):
    """Base class of all stream operators."""

    #: Name shown in pipeline summaries.
    name: str = "operator"

    @abc.abstractmethod
    def process(self, record: Record) -> Iterable[Record]:
        """Consume one record and yield downstream records."""

    def process_batch(self, batch: RecordBatch) -> Iterable[Record | RecordBatch]:
        """Consume one batch and yield downstream records and/or batches.

        The default implementation explodes the batch through
        :meth:`process`, which is correct for every operator; subclasses
        override it when they can handle the batch wholesale.
        """
        for record in batch.records():
            yield from self.process(record)

    def flush(self) -> Iterable[Record]:
        """Emit any pending records when the stream ends (default: nothing)."""
        return []


class MapOperator(Operator):
    """Apply a function to every record's value."""

    name = "map"

    def __init__(self, function: Callable[[float], float]) -> None:
        self.function = function

    def process(self, record: Record) -> Iterable[Record]:
        yield Record(
            timestamp=record.timestamp,
            value=self.function(record.value),
            stream=record.stream,
            metadata=record.metadata,
        )

    def process_batch(self, batch: RecordBatch) -> Iterable[RecordBatch]:
        mapped = np.asarray(
            [self.function(float(value)) for value in batch.values], dtype=np.float64
        )
        yield RecordBatch(
            timestamps=batch.timestamps,
            values=mapped,
            stream=batch.stream,
            metadata=batch.metadata,
        )


class FilterOperator(Operator):
    """Drop records for which the predicate is False."""

    name = "filter"

    def __init__(self, predicate: Callable[[Record], bool]) -> None:
        self.predicate = predicate

    def process(self, record: Record) -> Iterable[Record]:
        if self.predicate(record):
            yield record


class SlidingWindowOperator(Operator):
    """Emit an aggregate of the last ``window_size`` values every ``slide`` records."""

    name = "sliding_window"

    def __init__(
        self,
        window_size: int,
        slide: int = 1,
        aggregate: Callable[[np.ndarray], float] = np.mean,
    ) -> None:
        self.window_size = int(window_size)
        self.slide = max(1, int(slide))
        self.aggregate = aggregate
        self._buffer: collections.deque[float] = collections.deque(maxlen=self.window_size)
        self._count = 0

    def process(self, record: Record) -> Iterable[Record]:
        self._buffer.append(float(record.value))
        self._count += 1
        if len(self._buffer) == self.window_size and self._count % self.slide == 0:
            value = float(self.aggregate(np.asarray(self._buffer)))
            yield Record(timestamp=record.timestamp, value=value, stream=record.stream)


class SegmentationOperator(Operator):
    """Wrap a streaming segmenter (ClaSS or a competitor) as a stream operator.

    Incoming value records are fed to the segmenter, and every new
    ``change_point`` entry of its :meth:`~repro.api.Segmenter.events` is
    emitted downstream as a record carrying that
    :class:`repro.api.ChangePointEvent`, stamped with the timestamp of the
    observation that triggered it.  Batches are forwarded to the segmenter's
    chunked ``process`` path in one call, so the operator adds only
    per-batch (not per-record) overhead, and both paths emit the events the
    segmenter reports.  :meth:`flush` finalizes the segmenter and emits the
    change points reported at the end of the stream.
    """

    name = "segmentation"

    def __init__(self, segmenter, forward_values: bool = False) -> None:
        self.segmenter = ensure_segmenter(segmenter, "segmentation operator")
        self.forward_values = bool(forward_values)
        self.n_processed = 0
        self._n_emitted = 0  # change_point events already emitted
        self._last: Record | RecordBatch | None = None  # carries the latest observation

    def process(self, record: Record) -> Iterable[Record]:
        self.n_processed += 1
        self._last = record
        change_point = self.segmenter.update(float(record.value))
        if self.forward_values:
            yield record
        if change_point is not None:
            for event in self._new_change_points():
                yield Record(timestamp=record.timestamp, value=event, stream=record.stream)

    def process_batch(self, batch: RecordBatch) -> Iterable[Record | RecordBatch]:
        n = len(batch)
        seen_before = self.segmenter.n_seen
        self.n_processed += n
        if n:
            self._last = batch
        self.segmenter.process(batch.values)
        if self.forward_values:
            yield batch
        for event in self._new_change_points():
            # the observation at detector position `at` is the batch's (at - seen_before)-th
            index = min(max(event.at - seen_before - 1, 0), n - 1)
            yield Record(timestamp=int(batch.timestamps[index]), value=event, stream=batch.stream)

    def flush(self) -> Iterable[Record]:
        self.segmenter.finalize()
        last = self._last
        if last is None:
            return []
        timestamp = last.timestamp if isinstance(last, Record) else int(last.timestamps[-1])
        return [
            Record(timestamp=timestamp, value=event, stream=last.stream)
            for event in self._new_change_points()
        ]

    def _new_change_points(self) -> list[ChangePointEvent]:
        """The segmenter's ``change_point`` events not emitted yet."""
        events = [event for event in self.segmenter.events() if event.kind == "change_point"]
        fresh = events[self._n_emitted :]
        self._n_emitted = len(events)
        return fresh
