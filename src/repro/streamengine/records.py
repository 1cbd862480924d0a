"""Record types flowing through the stream engine.

The engine is a deliberately small, single-process substitute for the Apache
Flink deployment of the paper (§4.4): it models the integration surface that
matters for a streaming segmentation operator — delivery of timestamped
records (one at a time, or coalesced into :class:`RecordBatch` micro-batches
for amortised ingestion), stateful operators, sinks, and throughput
accounting — without a cluster runtime.  Change points travel as records
whose value is the detector's own :class:`repro.api.ChangePointEvent`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np


@dataclass(frozen=True)
class Record:
    """One timestamped element of a data stream."""

    timestamp: int
    value: Any
    stream: str = "default"
    metadata: dict = field(default_factory=dict, hash=False, compare=False)


@dataclass(frozen=True)
class RecordBatch:
    """A contiguous run of value records moved through the engine as one unit.

    Batches carry parallel ``timestamps`` / ``values`` arrays instead of one
    Python object per observation, which is what lets the segmentation
    operators hand whole chunks to the chunked ingestion path of the
    segmenters.  ``metadata`` is shared by all records of the batch.
    """

    timestamps: np.ndarray
    values: np.ndarray
    stream: str = "default"
    metadata: dict = field(default_factory=dict, hash=False, compare=False)

    def __post_init__(self) -> None:
        if self.timestamps.shape[0] != self.values.shape[0]:
            raise ValueError("timestamps and values must have equal length")

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def records(self) -> Iterator[Record]:
        """Explode the batch into individual records.

        Metadata is shared, except the ``annotated_cps`` position array
        (attached by annotated dataset sources), which is translated back
        into the per-record ``is_annotated_cp`` flag so exploded records keep
        the record-at-a-time metadata contract.
        """
        annotated = self.metadata.get("annotated_cps")
        flagged = set(np.asarray(annotated).tolist()) if annotated is not None else None
        for timestamp, value in zip(self.timestamps.tolist(), self.values.tolist()):
            timestamp = int(timestamp)
            metadata = self.metadata
            if flagged is not None:
                metadata = dict(metadata, is_annotated_cp=timestamp in flagged)
            yield Record(
                timestamp=timestamp, value=value, stream=self.stream, metadata=metadata
            )

    @classmethod
    def from_values(
        cls,
        values: np.ndarray,
        first_timestamp: int = 0,
        stream: str = "default",
        metadata: dict | None = None,
    ) -> "RecordBatch":
        """Build a batch from consecutive values starting at ``first_timestamp``."""
        values = np.asarray(values, dtype=np.float64)
        timestamps = np.arange(first_timestamp, first_timestamp + values.shape[0], dtype=np.int64)
        return cls(timestamps=timestamps, values=values, stream=stream, metadata=metadata or {})

