"""The stream store: ingest, segment, and re-segment durable streams.

:class:`StreamStore` owns a root directory with one sub-directory per
stream, tying the three storage primitives together::

    <root>/<stream>/
        manifest.json            # chunk-store manifest (input rows)
        segments/seg-*.npy       # memory-mapped input segments
        events.log[.idx]         # append-only log of emitted events
        checkpoints/ckpt-*.ckpt  # periodic detector snapshots
        run.json                 # descriptor of the recorded run

``ingest`` writes input through the constant-memory
:class:`~repro.storage.chunkstore.ChunkStoreWriter`; ``segment`` drives a
registry detector over the stored rows (mirroring :func:`repro.api.stream`
event-for-event), appending every event to the log and snapshotting
detector state every ``checkpoint_every`` observations; ``resegment`` seeks
the newest snapshot at or before ``from_t``, replays the stored input from
there — bit-identical to the uninterrupted run, by the checkpoint/restore
contract — and reports a structured :class:`ResegmentAudit` of old-vs-new
change points.  Passing a different detector or config to ``resegment``
replays from the stream start instead, which is exactly the "what would the
new version have said" audit the event log exists for.
"""

from __future__ import annotations

import json
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from repro.api.checkpoint import restore
from repro.api.events import ScoreEvent, event_from_dict
from repro.api.registry import config_class, create, normalise_key
from repro.api.stream import DEFAULT_STREAM_CHUNK_SIZE
from repro.storage.checkpoints import CheckpointIndex, snapshot_row
from repro.storage.chunkstore import (
    DEFAULT_SEGMENT_ROWS,
    ChunkStoreWriter,
    StoredStream,
    write_json_atomic,
)
from repro.storage.eventlog import EventLog
from repro.utils.exceptions import ConfigurationError, StorageError

#: Accepted stream names (path- and URL-safe, bounded; same shape the
#: service accepts, so stored and served streams can share names).
STREAM_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$")
#: Run descriptor format marker.
RUN_FORMAT = "repro.run/1"
#: Default observations between detector snapshots.
DEFAULT_CHECKPOINT_EVERY = 4_096


def canonical_config(detector: str, config: dict | None) -> tuple[str, dict]:
    """Normalise ``(detector, config)`` to the registry key + full config dict.

    The returned dictionary is the validated config's complete
    ``to_dict()`` — two runs are "the same configuration" exactly when
    these dictionaries are equal.
    """
    key = normalise_key(detector)
    cls = config_class(key)
    instance = cls.from_dict(config) if config else cls()
    return key, instance.validate().to_dict()


@dataclass
class SegmentRun:
    """Result of :meth:`StreamStore.segment` — what was recorded."""

    stream: str
    detector: str
    config: dict
    n_seen: int
    n_events: int
    n_checkpoints: int
    change_points: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe mapping of the run summary."""
        return {
            "stream": self.stream,
            "detector": self.detector,
            "config": self.config,
            "n_seen": self.n_seen,
            "n_events": self.n_events,
            "n_checkpoints": self.n_checkpoints,
            "change_points": self.change_points,
        }


@dataclass
class ResegmentAudit:
    """Structured old-vs-new diff produced by :meth:`StreamStore.resegment`.

    ``unchanged`` / ``moved`` / ``added`` / ``removed`` partition the two
    change-point sets: a pair is *unchanged* when the change-point position
    matches exactly, *moved* when old and new positions pair up within
    ``tolerance`` observations, and the leftovers are *added* (new-only) or
    *removed* (old-only).  ``identical`` is the strict bit-level criterion —
    equal positions, scores and p-values in order.
    """

    stream: str
    from_t: int
    replayed_from: int
    checkpoint_used: int | None
    same_config: bool
    old_detector: str
    new_detector: str
    old_config: dict
    new_config: dict
    old_change_points: list[dict]
    new_change_points: list[dict]
    unchanged: list[dict] = field(default_factory=list)
    moved: list[dict] = field(default_factory=list)
    added: list[dict] = field(default_factory=list)
    removed: list[dict] = field(default_factory=list)
    identical: bool = False

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe mapping of the full audit (the CLI prints this)."""
        return {
            "stream": self.stream,
            "from_t": self.from_t,
            "replayed_from": self.replayed_from,
            "checkpoint_used": self.checkpoint_used,
            "same_config": self.same_config,
            "old_detector": self.old_detector,
            "new_detector": self.new_detector,
            "old_config": self.old_config,
            "new_config": self.new_config,
            "old_change_points": self.old_change_points,
            "new_change_points": self.new_change_points,
            "unchanged": self.unchanged,
            "moved": self.moved,
            "added": self.added,
            "removed": self.removed,
            "identical": self.identical,
        }

    def summary(self) -> str:
        """One human-readable line per headline number."""
        anchor = (
            f"checkpoint @ {self.checkpoint_used}"
            if self.checkpoint_used is not None
            else "stream start"
        )
        lines = [
            f"resegment {self.stream!r} from t={self.from_t} "
            f"(replayed from {self.replayed_from}, {anchor})",
            f"detector: {self.old_detector} -> {self.new_detector} "
            f"({'same' if self.same_config else 'different'} config)",
            f"change points: {len(self.old_change_points)} old, "
            f"{len(self.new_change_points)} new — "
            f"{len(self.unchanged)} unchanged, {len(self.moved)} moved, "
            f"{len(self.added)} added, {len(self.removed)} removed",
            f"identical: {self.identical}",
        ]
        return "\n".join(lines)


def _change_point_dicts(segmenter) -> list[dict]:
    """The detector's change-point events as plain JSON-safe dicts."""
    return [
        event.to_dict()
        for event in segmenter.events()
        if event.kind == "change_point"
    ]


def diff_change_points(
    old: list[dict], new: list[dict], *, tolerance: int = 0
) -> dict[str, list[dict]]:
    """Partition two change-point lists into unchanged/moved/added/removed.

    Matching is greedy by position: exact ``change_point`` matches first,
    then leftover pairs within ``tolerance`` observations (nearest first)
    count as *moved*.  Entries in the returned ``moved`` list carry both
    sides (``old``/``new``).
    """
    if tolerance < 0:
        raise ConfigurationError("tolerance must be non-negative")
    old_left = list(old)
    new_left = list(new)
    unchanged: list[dict] = []
    for entry in list(old_left):
        position = int(entry["change_point"])
        match = next(
            (cand for cand in new_left if int(cand["change_point"]) == position), None
        )
        if match is not None:
            unchanged.append({"old": entry, "new": match})
            old_left.remove(entry)
            new_left.remove(match)
    moved: list[dict] = []
    if tolerance:
        pairs = sorted(
            (
                (abs(int(o["change_point"]) - int(n["change_point"])), i, j)
                for i, o in enumerate(old_left)
                for j, n in enumerate(new_left)
            ),
        )
        taken_old: set[int] = set()
        taken_new: set[int] = set()
        for distance, i, j in pairs:
            if distance > tolerance or i in taken_old or j in taken_new:
                continue
            moved.append({"old": old_left[i], "new": new_left[j], "distance": distance})
            taken_old.add(i)
            taken_new.add(j)
        old_left = [o for i, o in enumerate(old_left) if i not in taken_old]
        new_left = [n for j, n in enumerate(new_left) if j not in taken_new]
    return {
        "unchanged": unchanged,
        "moved": moved,
        "added": new_left,
        "removed": old_left,
    }


class StreamStore:
    """Directory of durable streams: rows, events, checkpoints, run metadata.

    Parameters
    ----------
    root:
        Store root directory (created if missing); one sub-directory per
        stream.
    segment_rows:
        Rows per chunk-store segment for newly ingested streams.
    fsync:
        Fsync writes throughout (chunk segments, manifests, checkpoints).
        Tests disable it for speed; real ingestion should leave it on.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        segment_rows: int = DEFAULT_SEGMENT_ROWS,
        fsync: bool = True,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.segment_rows = segment_rows
        self.fsync = fsync

    # ------------------------------------------------------------------ #
    # layout helpers

    def path_for(self, name: str) -> Path:
        """The stream's directory, after validating its name."""
        if not isinstance(name, str) or not STREAM_NAME.match(name):
            raise StorageError(
                f"invalid stream name {name!r}; expected {STREAM_NAME.pattern}"
            )
        return self.root / name

    def exists(self, name: str) -> bool:
        """Whether a stream of this name has been ingested."""
        return (self.path_for(name) / "manifest.json").exists()

    def list_streams(self) -> list[str]:
        """Names of every ingested stream, sorted."""
        return sorted(
            path.name
            for path in self.root.iterdir()
            if path.is_dir() and (path / "manifest.json").exists()
        )

    def delete(self, name: str) -> None:
        """Remove a stream and everything recorded about it."""
        directory = self.path_for(name)
        if not directory.exists():
            raise StorageError(f"unknown stream {name!r}")
        shutil.rmtree(directory)

    # ------------------------------------------------------------------ #
    # ingestion / reading

    def writer(
        self,
        name: str,
        *,
        dtype: str | np.dtype = np.float64,
        columns: int = 0,
    ) -> ChunkStoreWriter:
        """Open (or reopen, appending) the stream's constant-memory writer."""
        return ChunkStoreWriter(
            self.path_for(name),
            dtype=dtype,
            columns=columns,
            segment_rows=self.segment_rows,
            fsync=self.fsync,
        )

    def ingest(
        self,
        name: str,
        source: np.ndarray | Iterable[np.ndarray],
        *,
        append: bool = False,
    ) -> StoredStream:
        """Write ``source`` into the chunk store; return the readable stream.

        ``source`` is a 1-d/2-d array or any iterable of row chunks; chunks
        are streamed straight into segment files, so an iterable source is
        ingested at constant memory regardless of total length.  Ingesting
        a name that already exists raises
        :class:`~repro.utils.exceptions.StorageError` unless ``append`` is
        true.
        """
        if self.exists(name) and not append:
            raise StorageError(f"stream {name!r} already exists (pass append=True to extend)")
        if isinstance(source, np.ndarray):
            chunks: Iterable[np.ndarray] = iter((source,))
        else:
            chunks = iter(source)
        try:
            first = np.asarray(next(chunks))
        except StopIteration:
            first = np.empty(0, dtype=np.float64)
        if first.ndim not in (1, 2):
            raise ConfigurationError(
                f"ingest expects 1-d or 2-d row chunks, got shape {first.shape}"
            )
        columns = 0 if first.ndim == 1 else int(first.shape[1])
        with self.writer(name, dtype=first.dtype, columns=columns) as writer:
            if first.shape[0]:
                writer.append(first)
            for chunk in chunks:
                writer.append(chunk)
        return self.open(name)

    def open(self, name: str) -> StoredStream:
        """Open a stream for zero-copy memory-mapped reading."""
        if not self.exists(name):
            raise StorageError(f"unknown stream {name!r}")
        return StoredStream(self.path_for(name), name=name)

    # ------------------------------------------------------------------ #
    # per-stream companions

    def event_log(self, name: str, *, fsync: bool | None = None) -> EventLog:
        """The stream's event log (created on first use)."""
        directory = self.path_for(name)
        if not directory.exists():
            raise StorageError(f"unknown stream {name!r}")
        return EventLog(
            directory / "events.log",
            fsync=self.fsync if fsync is None else fsync,
        )

    def checkpoint_index(self, name: str) -> CheckpointIndex:
        """The stream's detector-snapshot index (created on first use)."""
        directory = self.path_for(name)
        if not directory.exists():
            raise StorageError(f"unknown stream {name!r}")
        return CheckpointIndex(directory / "checkpoints", fsync=self.fsync)

    def run_meta(self, name: str) -> dict[str, Any] | None:
        """The recorded run descriptor, or None when never segmented."""
        path = self.path_for(name) / "run.json"
        if not path.exists():
            return None
        return json.loads(path.read_text(encoding="utf-8"))

    # ------------------------------------------------------------------ #
    # segmentation

    def segment(
        self,
        name: str,
        detector: str = "class",
        config: dict | None = None,
        *,
        chunk_size: int | None = None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        include_scores: bool = False,
        finalize: bool = False,
    ) -> SegmentRun:
        """Run a registry detector over the stored rows, recording everything.

        Mirrors :func:`repro.api.stream` event-for-event (fresh typed events
        after each chunk, then the optional per-chunk
        :class:`~repro.api.events.ScoreEvent`), but instead of yielding, the
        events land in the stream's durable log and the detector state is
        snapshotted every ``checkpoint_every`` observations — including a
        "birth" snapshot at position 0, so ``resegment`` always has an
        anchor.  A previous run's log, snapshots and descriptor are
        replaced.

        Raises
        ------
        StorageError
            For unknown streams.
        ConfigurationError
            For unknown detectors, invalid configs, or a non-positive
            ``checkpoint_every``.
        """
        if not isinstance(checkpoint_every, int) or checkpoint_every < 1:
            raise ConfigurationError("checkpoint_every must be a positive integer")
        stored = self.open(name)
        key, config_dict = canonical_config(detector, config)
        segmenter = create(key, config_dict)
        directory = self.path_for(name)
        # replace any previous run's artifacts
        (directory / "events.log").unlink(missing_ok=True)
        (directory / "events.log.idx").unlink(missing_ok=True)
        (directory / "run.json").unlink(missing_ok=True)
        checkpoints = self.checkpoint_index(name)
        checkpoints.clear()
        checkpoints.add(segmenter, detector=key, config=config_dict)
        step = chunk_size if chunk_size is not None else DEFAULT_STREAM_CHUNK_SIZE
        n_events = 0
        with self.event_log(name) as log:
            n_emitted = 0
            last_checkpoint = 0
            for chunk in stored.iter_chunks(step):
                segmenter.process(np.asarray(chunk, dtype=np.float64))
                history = segmenter.events()
                for event in history[n_emitted:]:
                    log.append_event(event)
                    n_events += 1
                n_emitted = len(history)
                if include_scores:
                    score = getattr(segmenter, "current_score", None)
                    if score is not None:
                        log.append_event(
                            ScoreEvent(at=int(segmenter.n_seen), score=float(score))
                        )
                        n_events += 1
                if int(segmenter.n_seen) - last_checkpoint >= checkpoint_every:
                    checkpoints.add(segmenter, detector=key, config=config_dict)
                    last_checkpoint = int(segmenter.n_seen)
            if finalize:
                segmenter.finalize()
                history = segmenter.events()
                for event in history[n_emitted:]:
                    log.append_event(event)
                    n_events += 1
        change_points = _change_point_dicts(segmenter)
        run = {
            "format": RUN_FORMAT,
            "detector": key,
            "config": config_dict,
            "chunk_size": chunk_size,
            "checkpoint_every": checkpoint_every,
            "include_scores": include_scores,
            "finalized": finalize,
            "n_seen": int(segmenter.n_seen),
            "n_events": n_events,
            "change_points": change_points,
        }
        write_json_atomic(directory / "run.json", run, fsync=self.fsync)
        return SegmentRun(
            stream=name,
            detector=key,
            config=config_dict,
            n_seen=int(segmenter.n_seen),
            n_events=n_events,
            n_checkpoints=len(checkpoints),
            change_points=change_points,
        )

    def resegment(
        self,
        name: str,
        from_t: int = 0,
        *,
        detector: str | None = None,
        config: dict | None = None,
        chunk_size: int | None = None,
        tolerance: int = 0,
    ) -> ResegmentAudit:
        """Replay the stored input from ``from_t``; audit old vs new detections.

        With the recorded configuration (``detector``/``config`` omitted or
        equal to the run's), the replay anchors on the newest snapshot at or
        before ``from_t`` and is **bit-identical** to the original run — the
        audit's ``identical`` flag is the proof.  With a different detector
        or config, the whole stream is replayed through the new version from
        position 0 and the audit shows what the new version would have said.

        Raises
        ------
        StorageError
            For unknown streams or streams that were never ``segment``-ed.
        """
        stored = self.open(name)
        run = self.run_meta(name)
        if run is None:
            raise StorageError(
                f"stream {name!r} has no recorded run; call segment() before resegment()"
            )
        from_t = int(from_t)
        if from_t < 0:
            raise ConfigurationError("from_t must be non-negative")
        # both sides canonical: a run stored before a config field was added
        # or retired still counts as the same configuration
        old_key, old_config = canonical_config(run["detector"], run["config"])
        new_key, new_config = canonical_config(
            detector if detector is not None else old_key,
            config if config is not None else (old_config if detector is None else config),
        )
        same_config = (new_key == old_key) and (new_config == old_config)

        checkpoint_used: int | None = None
        replayed_from = 0
        if same_config:
            envelope = self.checkpoint_index(name).load_at_or_before(from_t)
            if envelope is not None:
                segmenter = restore(envelope["state"])
                # the stored row, not the detector's n_seen: a policy that
                # drops dirty rows makes the detector lag the rows read
                checkpoint_used = snapshot_row(envelope)
                replayed_from = checkpoint_used
            else:
                segmenter = create(new_key, new_config)
        else:
            segmenter = create(new_key, new_config)

        step = chunk_size if chunk_size is not None else (
            run.get("chunk_size") or DEFAULT_STREAM_CHUNK_SIZE
        )
        for chunk in stored.iter_chunks(step, start=replayed_from):
            segmenter.process(np.asarray(chunk, dtype=np.float64))
        if run.get("finalized"):
            segmenter.finalize()

        new_change_points = _change_point_dicts(segmenter)
        old_change_points = list(run["change_points"])
        parts = diff_change_points(old_change_points, new_change_points, tolerance=tolerance)
        identical = old_change_points == new_change_points
        return ResegmentAudit(
            stream=name,
            from_t=from_t,
            replayed_from=replayed_from,
            checkpoint_used=checkpoint_used,
            same_config=same_config,
            old_detector=old_key,
            new_detector=new_key,
            old_config=old_config,
            new_config=new_config,
            old_change_points=old_change_points,
            new_change_points=new_change_points,
            unchanged=parts["unchanged"],
            moved=parts["moved"],
            added=parts["added"],
            removed=parts["removed"],
            identical=identical,
        )

    # ------------------------------------------------------------------ #

    def stream_info(self, name: str) -> dict[str, Any]:
        """JSON-safe overview: store layout plus recorded-run headline numbers."""
        info = self.open(name).info()
        run = self.run_meta(name)
        if run is not None:
            info["run"] = {
                "detector": run["detector"],
                "n_seen": run["n_seen"],
                "n_events": run["n_events"],
                "n_change_points": len(run["change_points"]),
                "finalized": run["finalized"],
            }
        return info


def replay_events(log: EventLog, from_seq: int = 0):
    """Yield typed event objects from a stream's log (oldest first).

    Thin adapter from stored record bodies back to
    :mod:`repro.api.events` instances, for callers that want objects
    rather than dictionaries.
    """
    for record in log.iter_records(from_seq):
        yield event_from_dict(record["event"])
