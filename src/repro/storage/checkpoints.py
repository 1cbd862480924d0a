"""Periodic detector-state snapshots for "re-segment from T".

A :class:`CheckpointIndex` is a directory of CRC-framed checkpoint files
(the same ``repro.api.checkpoint`` framing the CLI uses), one per snapshot,
named by the observation count they were taken at.  A stored stream and
every durable service stream keep one::

    checkpoints/
        ckpt-000000000000.ckpt      # detector state after 0 observations
        ckpt-000000004096.ckpt      # ... after 4096
        ckpt-000000008192.ckpt

Each envelope also records the stored row the snapshot was taken at
(:func:`snapshot_row`): behind a dirty-data policy that drops rows the
detector's ``n_seen`` lags the raw row count, and a replay must resume
from the raw row.  ``load_at_or_before(t)`` walks newest-first and returns
the first envelope taken at a row ``<= t`` — the replay anchor for
:meth:`repro.storage.store.StreamStore.resegment`; ``latest()`` returns the
newest intact envelope, the anchor of the service's crash recovery.  A
corrupt file (torn write, bit rot) is skipped with a warning rather than
failing the seek: losing one snapshot only means replaying a little more
input.
"""

from __future__ import annotations

import logging
import re
from pathlib import Path
from typing import Any, Iterator

from repro.api.checkpoint import (
    detector_key_for,
    read_payload_file,
    write_payload_file,
)
from repro.utils.exceptions import ConfigurationError, CorruptCheckpointError

logger = logging.getLogger(__name__)

#: Envelope format marker for stored snapshots.
INDEX_FORMAT = "repro.storeckpt/1"
#: Snapshot file pattern — the number is the detector's ``n_seen``.
CKPT_NAME = re.compile(r"^ckpt-(\d{12})\.ckpt$")


def snapshot_row(envelope: dict[str, Any]) -> int:
    """Stored row a snapshot was taken at: where a replay from it resumes.

    The raw row count (``n_seen_raw``) of a dirty-data wrapper, else the
    detector's ``n_seen``; envelopes written without the field fall back
    to ``n_seen``.
    """
    return int(envelope.get("n_seen_raw", envelope["n_seen"]))


def segmenter_row(segmenter) -> int:
    """Stored rows a live segmenter has read: what :func:`snapshot_row` records.

    The raw row count of a dirty-data wrapper, else the detector's
    ``n_seen``.
    """
    return int(getattr(segmenter, "n_seen_raw", segmenter.n_seen))


class CheckpointIndex:
    """Snapshots of detector state keyed by observation position.

    Parameters
    ----------
    directory:
        Directory the ``ckpt-*.ckpt`` files live in (created if missing).
    fsync:
        Fsync each written snapshot (snapshots are replay anchors; losing
        one is survivable, so tests may disable this for speed).
    """

    def __init__(self, directory: str | Path, *, fsync: bool = True) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync

    def _path_for(self, n_seen: int) -> Path:
        return self.directory / f"ckpt-{int(n_seen):012d}.ckpt"

    def positions(self) -> list[int]:
        """Observation positions with a stored snapshot, ascending."""
        positions = []
        for path in self.directory.iterdir():
            match = CKPT_NAME.match(path.name)
            if match:
                positions.append(int(match.group(1)))
        return sorted(positions)

    def __len__(self) -> int:
        return len(self.positions())

    def add(
        self,
        segmenter,
        *,
        detector: str | None = None,
        config: dict | None = None,
    ) -> Path:
        """Snapshot a live segmenter at its current ``n_seen``; return the path.

        The envelope records the detector's registry key and (canonical)
        config alongside the ``save_state()`` payload, so a later
        ``resegment`` can tell whether the stored run and the requested
        replay share a configuration.
        """
        n_seen = int(segmenter.n_seen)
        envelope: dict[str, Any] = {
            "format": INDEX_FORMAT,
            "n_seen": n_seen,
            "n_seen_raw": segmenter_row(segmenter),
            "detector": detector if detector is not None else detector_key_for(segmenter),
            "config": config,
            "state": segmenter.save_state(),
        }
        return write_payload_file(self._path_for(n_seen), envelope, fsync=self.fsync)

    def _intact(self, positions: list[int]) -> Iterator[dict[str, Any]]:
        """Envelopes of the intact snapshots among ``positions``, newest first.

        Corrupt snapshot files are skipped (with a warning) — the caller
        just replays from an earlier anchor, or from the stream start.
        """
        for n_seen in reversed(positions):
            path = self._path_for(n_seen)
            try:
                envelope = read_payload_file(path)
            except (CorruptCheckpointError, OSError) as error:
                logger.warning("skipping corrupt snapshot %s: %s", path, error)
                continue
            if isinstance(envelope, dict) and envelope.get("format") == INDEX_FORMAT:
                yield envelope
            else:
                logger.warning("skipping snapshot %s with unexpected format", path)

    def load_at_or_before(self, t: int) -> dict[str, Any] | None:
        """Newest intact snapshot envelope taken at stored row ``<= t``, else ``None``."""
        t = int(t)
        if t < 0:
            raise ConfigurationError("checkpoint position must be non-negative")
        # the row is never below the detector's n_seen
        candidates = [n_seen for n_seen in self.positions() if n_seen <= t]
        for envelope in self._intact(candidates):
            if snapshot_row(envelope) <= t:
                return envelope
        return None

    def latest(self) -> dict[str, Any] | None:
        """Newest intact snapshot envelope, whatever its stored row, else ``None``."""
        return next(self._intact(self.positions()), None)

    def prune(self, keep: int) -> int:
        """Delete all but the newest ``keep`` snapshots; return how many went."""
        if keep < 0:
            raise ConfigurationError("keep must be non-negative")
        doomed = self.positions()[:-keep] if keep else self.positions()
        for n_seen in doomed:
            self._path_for(n_seen).unlink(missing_ok=True)
        return len(doomed)

    def clear(self) -> int:
        """Delete every snapshot (a fresh segmentation run starts clean)."""
        return self.prune(0)
