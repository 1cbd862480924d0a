"""Durable stream state: snapshots in a checkpoint index + a write-ahead batch tail.

Durability contract (pinned by ``tests/test_service_durability.py`` and the
chaos suite): **no acked observation is ever lost**.  Each stream keeps one
directory, ``<spool_dir>/streams/<name>/``, so that no stream name can map
onto the ``history/`` spill beside it:

* ``checkpoints/`` — a :class:`repro.storage.CheckpointIndex` of detector
  snapshots (``ckpt-<n_seen>.ckpt``, CRC-framed, written atomically), taken
  at registration, then every ``checkpoint_every_n`` observations and/or
  ``checkpoint_every_seconds``; the newest :data:`KEEP_CHECKPOINTS` are kept
  so a corrupt newest file falls back to its predecessor.
* ``tail.log`` — one record per accepted batch in the event log's frame
  (:func:`repro.storage.eventlog.encode_frame`), keyed by the stored row the
  batch starts at, appended and fsynced *before* the batch mutates the
  detector (write-ahead).  Recovery restores the newest intact snapshot and
  replays the records from its row on through the normal ingestion path —
  bit-identical to an uninterrupted run.  Each checkpoint compacts the tail
  down to the records the oldest retained snapshot needs.
* ``meta.json`` — the stream spec, written atomically (no CRC).
"""

from __future__ import annotations

import logging
import os
import pickle
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.api import restore
from repro.api.protocol import iter_chunks
from repro.storage.checkpoints import CheckpointIndex, segmenter_row, snapshot_row
from repro.storage.chunkstore import write_json_atomic
from repro.storage.eventlog import encode_frame, read_frame
from repro.utils.exceptions import ConfigurationError, CorruptCheckpointError

logger = logging.getLogger(__name__)

#: Newest snapshots retained per stream: a corrupt newest one falls back to
#: its predecessor.
KEEP_CHECKPOINTS = 2


@dataclass(frozen=True)
class DurabilityConfig:
    """Tuning of the per-stream spool.

    Parameters
    ----------
    spool_dir:
        Root directory for per-stream spools (created if missing).
    checkpoint_every_n:
        Take a checkpoint once at least this many observations arrived
        since the last one.
    checkpoint_every_seconds:
        Also checkpoint once this much wall clock passed since the last
        one (None disables the clock trigger).
    fsync:
        Fsync tail appends and checkpoint writes (disable only for tests
        where durability across host crashes is irrelevant).
    """

    spool_dir: str | Path
    checkpoint_every_n: int = 2_048
    checkpoint_every_seconds: float | None = 30.0
    fsync: bool = True

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on out-of-range settings."""
        if self.checkpoint_every_n < 1:
            raise ConfigurationError("checkpoint_every_n must be a positive integer")
        if self.checkpoint_every_seconds is not None and self.checkpoint_every_seconds <= 0:
            raise ConfigurationError("checkpoint_every_seconds must be positive or None")


class StreamSpool:
    """The on-disk durability state of one stream, in ``directory``."""

    def __init__(self, directory: Path, *, fsync: bool = True) -> None:
        self.directory = Path(directory)
        self.checkpoints = CheckpointIndex(self.directory / "checkpoints", fsync=fsync)
        self.fsync = fsync
        self.tail_path = self.directory / "tail.log"
        self.meta_path = self.directory / "meta.json"
        self._tail_handle = None
        #: Bookkeeping for the checkpoint cadence.
        self.last_checkpoint_n = 0
        self.last_checkpoint_time = time.monotonic()

    # ------------------------------------------------------------------ #
    # write-ahead tail log
    # ------------------------------------------------------------------ #

    def append_tail(self, start: int, values: np.ndarray, seq: int | None) -> None:
        """Append one accepted batch *before* it is processed (write-ahead)."""
        record = {"start": int(start), "values": np.asarray(values), "seq": seq}
        frame = encode_frame(pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))
        if self._tail_handle is None:
            self._tail_handle = self.tail_path.open("ab")
        self._tail_handle.write(frame)
        self._tail_handle.flush()
        if self.fsync:
            os.fsync(self._tail_handle.fileno())

    def read_tail(self) -> list[dict[str, Any]]:
        """All valid tail records in append order.

        A truncated or corrupt record ends the scan (everything before it is
        still returned): with fsync-before-ack, every *acked* batch lies in
        the valid prefix by construction.
        """
        if not self.tail_path.exists():
            return []
        records: list[dict[str, Any]] = []
        intact = 0
        with self.tail_path.open("rb") as handle:
            while (body := read_frame(handle)) is not None:
                records.append(pickle.loads(body))
                intact = handle.tell()
            if intact < os.fstat(handle.fileno()).st_size:
                logger.warning(
                    "tail log %s: corrupt/truncated record at byte %d; "
                    "keeping the %d valid records before it",
                    self.tail_path, intact, len(records),
                )
        return records

    def compact_tail(self, min_start: int) -> None:
        """Atomically drop tail records that start before ``min_start``."""
        kept = [record for record in self.read_tail() if record["start"] >= min_start]
        self.close()
        tmp = self.tail_path.with_name(self.tail_path.name + ".tmp")
        with tmp.open("wb") as handle:
            for record in kept:
                handle.write(encode_frame(pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)))
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, self.tail_path)

    # ------------------------------------------------------------------ #
    # snapshots
    # ------------------------------------------------------------------ #

    def write_checkpoint(self, segmenter, *, detector: str, config: dict) -> Path:
        """Snapshot a live detector into the checkpoint index; returns its path."""
        path = self.checkpoints.add(segmenter, detector=detector, config=config)
        self.last_checkpoint_n = int(segmenter.n_seen)
        self.last_checkpoint_time = time.monotonic()
        return path

    def clear(self) -> None:
        """Delete every snapshot and the tail: a new stream starts clean."""
        self.close()
        self.checkpoints.clear()
        self.tail_path.unlink(missing_ok=True)

    def close(self) -> None:
        """Release the tail file handle (the spool stays on disk)."""
        if self._tail_handle is not None:
            self._tail_handle.close()
            self._tail_handle = None


@dataclass
class RecoveryReport:
    """What one stream's recovery did (returned by :meth:`DurabilityManager.recover`)."""

    stream: str
    checkpoint_n_seen: int
    n_replayed_batches: int
    n_replayed_observations: int
    n_republished_events: int
    fell_back: bool


class DurabilityManager:
    """All stream spools of one service instance.

    The manager is deliberately synchronous: it is only ever called from the
    owning shard worker (serialized per stream) or from the supervisor while
    the shard's replacement worker is not yet started, so there is no
    concurrent access to a given spool.
    """

    def __init__(self, config: DurabilityConfig, faults=None) -> None:
        config.validate()
        self.config = config
        self.root = Path(config.spool_dir)
        self.streams_dir = self.root / "streams"
        self.streams_dir.mkdir(parents=True, exist_ok=True)
        self.faults = faults
        self._spools: dict[str, StreamSpool] = {}

    def spool_for(self, name: str) -> StreamSpool:
        """The (cached) spool of one stream."""
        spool = self._spools.get(name)
        if spool is None:
            spool = self._spools[name] = StreamSpool(
                self.streams_dir / name, fsync=self.config.fsync
            )
        return spool

    # ------------------------------------------------------------------ #
    # the write path (called from the shard worker)
    # ------------------------------------------------------------------ #

    def register(self, stream) -> None:
        """Start a new stream's spool: meta + a birth checkpoint.

        Clears what an earlier stream of the same name left (a graceful
        shutdown keeps spools), so recovery never restores its detector.
        """
        spool = self.spool_for(stream.name)
        spool.clear()
        write_json_atomic(
            spool.meta_path,
            {
                "name": stream.name,
                "detector": stream.detector,
                "config": stream.config,
                "chunk_size": stream.chunk_size,
                "include_scores": stream.include_scores,
                "created_at": stream.created_at,
            },
            fsync=self.config.fsync,
        )
        self.checkpoint(stream)

    def log_batch(self, stream, values: np.ndarray, seq: int | None) -> None:
        """Write-ahead: persist an accepted batch before it is processed."""
        self.spool_for(stream.name).append_tail(segmenter_row(stream.segmenter), values, seq)

    def maybe_checkpoint(self, stream) -> bool:
        """Checkpoint when the observation-count or wall-clock trigger fires."""
        spool = self.spool_for(stream.name)
        n_seen = int(stream.segmenter.n_seen)
        due = n_seen - spool.last_checkpoint_n >= self.config.checkpoint_every_n
        if not due and self.config.checkpoint_every_seconds is not None:
            due = (
                n_seen > spool.last_checkpoint_n
                and time.monotonic() - spool.last_checkpoint_time
                >= self.config.checkpoint_every_seconds
            )
        if not due:
            return False
        self.checkpoint(stream)
        return True

    def checkpoint(self, stream) -> Path | None:
        """Unconditionally checkpoint a stream (no-op while it is frozen or unrecoverable)."""
        if stream.segmenter is None or stream.failed is not None:
            return None
        spool = self.spool_for(stream.name)
        path = spool.write_checkpoint(
            stream.segmenter, detector=stream.detector, config=stream.config
        )
        if self.faults is not None:
            self.faults.corrupt_checkpoint(path, stream.name)
        spool.checkpoints.prune(KEEP_CHECKPOINTS)
        # a snapshot's stored row is never below its n_seen, so this floor
        # keeps every record the oldest retained snapshot replays
        spool.compact_tail(spool.checkpoints.positions()[0])
        return path

    def discard(self, name: str) -> None:
        """Drop a deleted stream's spool from disk."""
        spool = self._spools.pop(name, None)
        if spool is not None:
            spool.close()
        directory = self.streams_dir / name
        if directory.exists():
            shutil.rmtree(directory)

    def checkpoint_age(self, name: str) -> float | None:
        """Seconds since the stream's last checkpoint (None if never)."""
        spool = self._spools.get(name)
        if spool is None:
            return None
        return time.monotonic() - spool.last_checkpoint_time

    # ------------------------------------------------------------------ #
    # the recovery path (called from the supervisor)
    # ------------------------------------------------------------------ #

    def recover(self, stream) -> RecoveryReport:
        """Rebuild a crashed stream: newest intact snapshot + tail replay.

        The half-mutated in-memory detector is discarded.  Replay feeds the
        tail records from the snapshot's stored row on through the stream's
        normal chunked ingestion; events that were already published before
        the crash are regenerated bit-identically but *not* re-published
        (the ``n_acked`` frontier), so subscribers and the event log see
        exactly the uninterrupted sequence.

        Raises
        ------
        CorruptCheckpointError
            When no snapshot of the stream survives its integrity check.
        """
        spool = self.spool_for(stream.name)
        envelope = spool.checkpoints.latest()
        if envelope is None:
            raise CorruptCheckpointError(f"no intact snapshot in {spool.checkpoints.directory}")
        ckpt_n = int(envelope["n_seen"])
        fell_back = ckpt_n != spool.checkpoints.positions()[-1]
        anchor = snapshot_row(envelope)
        segmenter = restore(envelope["state"])
        published_until = stream.n_acked
        replayed = observations = republished = 0
        for record in spool.read_tail():
            start = record["start"]
            if start < anchor:
                continue  # already inside the snapshot
            if start != segmenter_row(segmenter):
                logger.error(
                    "tail replay gap on stream %r: record starts at row %d, detector at %d",
                    stream.name, start, segmenter_row(segmenter),
                )
                break
            values = record["values"]
            chunk_size = stream.chunk_size or values.shape[0]
            for chunk in iter_chunks(values, chunk_size):
                segmenter.process(chunk)
            replayed += 1
            observations += int(values.shape[0])
            if start >= published_until:
                # this batch's results never reached subscribers: publish now
                ack = stream.commit_batch(segmenter, int(values.shape[0]), 0.0, record["seq"])
                republished += len(ack["events"])
        stream.segmenter = segmenter
        spool.last_checkpoint_time = time.monotonic()  # freshly consistent
        report = RecoveryReport(
            stream=stream.name,
            checkpoint_n_seen=ckpt_n,
            n_replayed_batches=replayed,
            n_replayed_observations=observations,
            n_republished_events=republished,
            fell_back=fell_back,
        )
        logger.warning(
            "recovered stream %r from checkpoint@%d (+%d batch(es), %d obs replayed, "
            "%d event(s) republished%s)",
            stream.name, ckpt_n, replayed, observations, republished,
            ", after corrupt-checkpoint fallback" if fell_back else "",
        )
        return report
