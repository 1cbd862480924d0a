"""Stream sinks: terminal consumers of a pipeline.

The paper's Flink job outputs a stream of change points; :class:`ChangePointSink`
collects exactly that (records carrying a :class:`repro.api.ChangePointEvent`),
while :class:`CollectSink` and :class:`CallbackSink` cover generic use.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.api import ChangePointEvent
from repro.streamengine.records import Record, RecordBatch


class CollectSink:
    """Collect every record that reaches the end of the pipeline."""

    def __init__(self) -> None:
        self.records: list[Record] = []

    def consume(self, record: Record) -> None:
        """Store one record."""
        self.records.append(record)

    def consume_batch(self, batch: RecordBatch) -> None:
        """Store every record of a batch (batches are exploded on arrival)."""
        self.records.extend(batch.records())

    @property
    def values(self) -> list:
        """The plain values of all collected records."""
        return [record.value for record in self.records]


class ChangePointSink(CollectSink):
    """Collect only change point events and expose them as arrays."""

    def consume(self, record: Record) -> None:
        if isinstance(record.value, ChangePointEvent):
            self.records.append(record)

    def consume_batch(self, batch: RecordBatch) -> None:
        """Value batches never carry events; drop them without exploding."""
        return

    @property
    def change_points(self) -> np.ndarray:
        """Change point locations in stream time."""
        return np.asarray([r.value.change_point for r in self.records], dtype=np.int64)

    @property
    def detection_delays(self) -> np.ndarray:
        """Observations between each change point and the detector position reporting it."""
        return np.asarray([r.value.detection_delay for r in self.records], dtype=np.int64)


class CallbackSink:
    """Invoke a user callback for every record (e.g. alerting, logging)."""

    def __init__(self, callback: Callable[[Record], None]) -> None:
        self.callback = callback
        self.n_consumed = 0

    def consume(self, record: Record) -> None:
        """Forward one record to the callback."""
        self.callback(record)
        self.n_consumed += 1
